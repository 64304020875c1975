//! Error type shared by the allocators.

use sdam_mapping::MappingId;

use crate::VirtAddr;

/// Errors from the memory-allocation stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// The global chunk free list is exhausted.
    OutOfPhysicalMemory,
    /// The virtual address space region is exhausted or the requested
    /// range collides with an existing mapping.
    VirtualRangeUnavailable {
        /// Start of the conflicting / unavailable range.
        at: VirtAddr,
    },
    /// The address does not belong to any live allocation or mapping.
    BadAddress(VirtAddr),
    /// Freeing something that was not allocated (or was already freed).
    BadFree(VirtAddr),
    /// The mapping id is not registered in the CMT (the paper's
    /// `add_addr_map()`).
    UnknownMapping(MappingId),
    /// No more mapping ids available (the CMT index is 8 bits).
    MappingIdsExhausted,
    /// The mapping still owns live state (allocations, chunks or
    /// registrations) and cannot be removed yet.
    MappingInUse(MappingId),
    /// The requested size is zero or exceeds what a single heap can hold.
    InvalidSize {
        /// The offending size.
        size: u64,
    },
    /// The process id does not name a live process (used by the
    /// system-level wrappers in `sdam`, which key allocators by pid).
    UnknownProcess {
        /// The offending process id.
        pid: u32,
    },
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::OutOfPhysicalMemory => {
                write!(f, "out of physical memory (chunk free list empty)")
            }
            MemError::VirtualRangeUnavailable { at } => {
                write!(f, "virtual range unavailable at {at}")
            }
            MemError::BadAddress(a) => write!(f, "address {a} is not mapped"),
            MemError::BadFree(a) => write!(f, "invalid free of {a}"),
            MemError::UnknownMapping(id) => write!(f, "mapping {id} is not registered"),
            MemError::MappingIdsExhausted => write!(f, "all 256 mapping ids are in use"),
            MemError::MappingInUse(id) => {
                write!(f, "mapping {id} still owns live state")
            }
            MemError::InvalidSize { size } => write!(f, "invalid allocation size {size}"),
            MemError::UnknownProcess { pid } => write!(f, "process {pid} is not live"),
        }
    }
}

impl std::error::Error for MemError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert!(MemError::OutOfPhysicalMemory.to_string().contains("chunk"));
        assert!(MemError::BadFree(VirtAddr(64)).to_string().contains("0x40"));
        assert!(MemError::UnknownMapping(MappingId(7))
            .to_string()
            .contains("map#7"));
    }
}
