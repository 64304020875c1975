//! Instrumented allocations: data structures that log every access.
//!
//! A [`Recorder`] plays the role of the paper's profiling toolchain: it
//! hands each allocation a region of a synthetic flat address space and
//! a fresh [`VariableId`], and appends one [`sdam_trace::MemAccess`] per
//! logical element access. The algorithms in this crate do their real
//! work on real Rust containers while the recorder captures the address
//! stream the same computation would produce on the paper's prototype.

use sdam_trace::{MemAccess, ThreadId, Trace, VariableId};

/// An allocated region of the synthetic address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Region {
    /// Base address (page-aligned).
    pub base: u64,
    /// Size in bytes.
    pub len: u64,
    /// The variable id assigned at allocation.
    pub variable: VariableId,
    /// Element size used by [`Recorder::read`] / [`Recorder::write`].
    pub elem_bytes: u64,
}

impl Region {
    /// Address of element `i`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the element lies outside the region.
    #[inline]
    pub(crate) fn addr_of(&self, i: usize) -> u64 {
        let off = i as u64 * self.elem_bytes;
        debug_assert!(off + self.elem_bytes <= self.len, "element out of region");
        self.base + off
    }
}

/// Sentinel in [`Recorder`]'s per-variable line column: nothing touched
/// yet. Lines are 64 B aligned, so no real line equals it.
const NO_LINE: u64 = u64::MAX;

/// Allocates regions and records accesses into a [`Trace`].
#[derive(Debug, Clone)]
pub(crate) struct Recorder {
    trace: Trace,
    next_base: u64,
    next_variable: u32,
    thread: ThreadId,
    next_pc: u64,
    /// Last 64 B line touched per variable, indexed by variable id, for
    /// coalescing ([`NO_LINE`] = none yet).
    last_line: Vec<u64>,
    /// Expected total accesses, used to size lane traces in
    /// [`run_parallel`]; zero means unknown.
    capacity_hint: usize,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A fresh recorder.
    pub fn new() -> Self {
        Recorder {
            trace: Trace::new(),
            next_base: 0,
            next_variable: 0,
            thread: ThreadId(0),
            next_pc: 0x40_0000,
            last_line: Vec::new(),
            capacity_hint: 0,
        }
    }

    /// A fresh recorder whose trace is pre-sized for roughly `accesses`
    /// records. Workload generators know their access budget
    /// ([`crate::Scale::accesses`]), so passing it here removes all
    /// doubling-growth reallocations from trace capture; the hint also
    /// sizes the per-lane traces of [`run_parallel`].
    pub(crate) fn with_capacity(accesses: usize) -> Self {
        Recorder {
            trace: Trace::with_capacity(accesses),
            capacity_hint: accesses,
            ..Recorder::new()
        }
    }

    /// Allocates a region of `count` elements of `elem_bytes` each,
    /// rounded up to a 4 KB boundary and separated from the previous
    /// region (so variables never share a page — matching what the
    /// multi-heap allocator guarantees on the real system).
    ///
    /// # Panics
    ///
    /// Panics if `count` or `elem_bytes` is zero.
    pub fn alloc(&mut self, count: usize, elem_bytes: u64) -> Region {
        assert!(count > 0 && elem_bytes > 0, "empty allocation");
        let len = (count as u64 * elem_bytes).div_ceil(4096) * 4096;
        let region = Region {
            base: self.next_base,
            len,
            variable: VariableId(self.next_variable),
            elem_bytes,
        };
        self.next_base += len + 4096; // guard page
        self.next_variable += 1;
        self.next_pc += 0x100;
        region
    }

    /// Records a read of element `i` of `region`.
    #[inline]
    pub fn read(&mut self, region: Region, i: usize) {
        self.touch(region, i, false);
    }

    /// Records a write of element `i` of `region`.
    #[inline]
    pub(crate) fn write(&mut self, region: Region, i: usize) {
        self.touch(region, i, true);
    }

    fn touch(&mut self, region: Region, i: usize, is_write: bool) {
        let addr = region.addr_of(i);
        // Coalesce consecutive element accesses to the same 64 B line of
        // the same variable: the recorder models the *external-access*
        // stream (the paper's profiler collects cache-miss addresses),
        // and a load-store unit merges same-line element traffic. A line
        // re-emits once another line of the variable intervenes, so
        // line-level reuse still reaches the cache simulator.
        let line = addr & !63;
        let v = region.variable.0 as usize;
        if v >= self.last_line.len() {
            self.last_line.resize(v + 1, NO_LINE);
        }
        if self.last_line[v] == line {
            return;
        }
        self.last_line[v] = line;
        self.trace.push(MemAccess {
            addr,
            pc: 0x40_0000 + region.variable.0 as u64 * 0x100,
            thread: self.thread,
            variable: region.variable,
            is_write,
        });
    }

    /// Number of accesses recorded so far.
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// Finishes recording and returns the trace.
    pub fn into_trace(self) -> Trace {
        self.trace
    }

    /// Forks an empty child recorder for one parallel lane. The child
    /// shares no allocation state — allocate regions on the parent
    /// first, then hand them to the lanes.
    pub(crate) fn fork(&self, thread: ThreadId) -> Recorder {
        Recorder {
            trace: Trace::new(),
            next_base: self.next_base,
            next_variable: self.next_variable,
            thread,
            next_pc: self.next_pc,
            last_line: Vec::new(),
            capacity_hint: 0,
        }
    }

    /// Reserves room for `additional` more accesses.
    pub fn reserve(&mut self, additional: usize) {
        self.trace.reserve(additional);
    }
}

/// Runs `lanes` parallel lanes of a kernel and appends their
/// round-robin-interleaved accesses to `parent` — the memory-system view
/// of a data-parallel loop on `lanes` cores.
///
/// Each lane's closure receives `(lane_index, &mut Recorder)`; the lane
/// recorder is pre-tagged with `ThreadId(lane_index)`.
pub(crate) fn run_parallel<F>(parent: &mut Recorder, lanes: usize, mut f: F)
where
    F: FnMut(usize, &mut Recorder),
{
    let mut traces = Vec::with_capacity(lanes);
    let per_lane = parent.capacity_hint / lanes.max(1);
    for lane in 0..lanes {
        let mut rec = parent.fork(ThreadId(lane as u16));
        rec.reserve(per_lane);
        f(lane, &mut rec);
        traces.push(rec.into_trace());
    }
    let merged = sdam_trace::gen::interleave_round_robin(traces);
    parent.trace.extend_from(&merged);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_are_page_aligned_and_disjoint() {
        let mut r = Recorder::new();
        let a = r.alloc(100, 8);
        let b = r.alloc(1, 4096);
        assert_eq!(a.base % 4096, 0);
        assert_eq!(b.base % 4096, 0);
        assert!(a.base + a.len <= b.base);
        assert_ne!(a.variable, b.variable);
    }

    #[test]
    fn accesses_carry_region_variable_and_address() {
        let mut r = Recorder::new();
        let a = r.alloc(100, 8);
        r.read(a, 3);
        r.write(a, 20); // a different line
        let t = r.into_trace();
        assert_eq!(t.len(), 2);
        assert_eq!(t.accesses()[0].addr, a.base + 24);
        assert_eq!(t.accesses()[0].variable, a.variable);
        assert!(!t.accesses()[0].is_write);
        assert!(t.accesses()[1].is_write);
    }

    #[test]
    fn same_line_accesses_coalesce() {
        let mut r = Recorder::new();
        let a = r.alloc(100, 8);
        let b = r.alloc(100, 8);
        r.read(a, 0);
        r.read(a, 1); // same line: coalesced
        r.read(b, 0); // other variable: emitted
        r.read(a, 2); // still line 0 of a: coalesced (per-variable state)
        r.read(a, 8); // next line of a: emitted
        r.read(a, 0); // back to line 0: emitted again (reuse visible)
        let t = r.into_trace();
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn thread_attribution() {
        let mut r = Recorder::new();
        let a = r.alloc(4, 64);
        r.thread = ThreadId(3);
        r.read(a, 0);
        let t = r.into_trace();
        assert_eq!(t.accesses()[0].thread, ThreadId(3));
    }

    #[test]
    #[should_panic(expected = "empty allocation")]
    fn zero_alloc_rejected() {
        Recorder::new().alloc(0, 8);
    }
}
