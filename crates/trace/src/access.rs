//! Access records and identifier newtypes.

/// Identifies a program variable, in the paper's sense (Ji et al.,
/// SC'17): "the reference symbol in the program for a piece of
/// allocated memory", i.e. an allocation site, the granularity at which
/// SDAM assigns address mappings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VariableId(pub u32);

impl VariableId {
    /// Returns the raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for VariableId {
    fn from(v: u32) -> Self {
        VariableId(v)
    }
}

impl std::fmt::Display for VariableId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "var#{}", self.0)
    }
}

/// Identifies a hardware thread / core issuing an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ThreadId(pub u16);

impl ThreadId {
    /// Returns the raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u16> for ThreadId {
    fn from(v: u16) -> Self {
        ThreadId(v)
    }
}

impl std::fmt::Display for ThreadId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// One external memory access: the (virtual or physical) address, the
/// issuing thread, the already-attributed variable and the direction.
///
/// The paper's profiler also logs the instruction's program counter and
/// maps it to a variable through gcc's PC→variable table. Workload
/// generators here attribute the variable at generation time (they know
/// which data structure they are touching), so no program counter is
/// carried and a record is 16 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MemAccess {
    /// Byte address of the access.
    pub addr: u64,
    /// Issuing thread.
    pub thread: ThreadId,
    /// The variable this access belongs to.
    pub variable: VariableId,
    /// True for stores.
    pub is_write: bool,
}

impl MemAccess {
    /// A read access with the given address and variable, thread 0.
    pub fn read(addr: u64, variable: VariableId) -> Self {
        MemAccess {
            addr,
            thread: ThreadId(0),
            variable,
            is_write: false,
        }
    }

    /// The address of the 64 B line containing this access.
    #[inline]
    pub(crate) fn line_addr(&self) -> u64 {
        self.addr & !63
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let r = MemAccess::read(100, VariableId(2));
        assert!(!r.is_write);
        assert_eq!(r.variable, VariableId(2));
        assert_eq!(r.addr, 100);
        assert_eq!(r.thread, ThreadId(0));
    }

    #[test]
    fn line_addr_masks_low_bits() {
        assert_eq!(MemAccess::read(130, VariableId(0)).line_addr(), 128);
        assert_eq!(MemAccess::read(64, VariableId(0)).line_addr(), 64);
        assert_eq!(MemAccess::read(63, VariableId(0)).line_addr(), 0);
    }

    #[test]
    fn mem_access_is_16_bytes() {
        // Every in-memory trace pays this per access: a new field must
        // be a deliberate choice, not a silent regrowth.
        assert_eq!(std::mem::size_of::<MemAccess>(), 16);
    }

    #[test]
    fn displays() {
        assert_eq!(VariableId(4).to_string(), "var#4");
        assert_eq!(ThreadId(1).to_string(), "t1");
    }
}
