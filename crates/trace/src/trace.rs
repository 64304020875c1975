//! The [`Trace`] container.

use std::collections::BTreeMap;

use crate::{MemAccess, VariableId};

/// An ordered sequence of memory accesses.
///
/// A `Trace` is what a workload emits and what every downstream stage
/// (profiling, cache simulation, mapping selection) consumes. Order is
/// program order of external accesses; interleaving across threads is
/// already resolved by the generator.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    accesses: Vec<MemAccess>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Creates a trace with pre-allocated capacity.
    pub fn with_capacity(n: usize) -> Self {
        Trace {
            accesses: Vec::with_capacity(n),
        }
    }

    /// Reserves room for at least `additional` more accesses, so a
    /// generator that knows its output size can avoid doubling-growth
    /// reallocations when emitting into an existing trace.
    #[inline]
    pub fn reserve(&mut self, additional: usize) {
        self.accesses.reserve(additional);
    }

    /// Appends an access.
    #[inline]
    pub fn push(&mut self, a: MemAccess) {
        self.accesses.push(a);
    }

    /// Number of accesses.
    #[inline]
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// True if the trace holds no accesses.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }

    /// The accesses in order.
    #[inline]
    pub fn accesses(&self) -> &[MemAccess] {
        &self.accesses
    }

    /// Iterates over the accesses.
    pub fn iter(&self) -> std::slice::Iter<'_, MemAccess> {
        self.accesses.iter()
    }

    /// Iterates over the raw addresses, in order.
    pub fn addrs(&self) -> impl Iterator<Item = u64> + '_ {
        self.accesses.iter().map(|a| a.addr)
    }

    /// Addresses of one variable, in trace order — the per-variable
    /// sub-trace the paper feeds to BFRV computation.
    pub fn addrs_of(&self, v: VariableId) -> impl Iterator<Item = u64> + '_ {
        self.accesses
            .iter()
            .filter(move |a| a.variable == v)
            .map(|a| a.addr)
    }

    /// Reference counts per variable.
    pub fn refs_per_variable(&self) -> BTreeMap<VariableId, u64> {
        let mut m = BTreeMap::new();
        for a in &self.accesses {
            *m.entry(a.variable).or_insert(0u64) += 1;
        }
        m
    }

    /// Distinct variables referenced, in id order.
    pub fn variables(&self) -> Vec<VariableId> {
        self.refs_per_variable().into_keys().collect()
    }

    /// The footprint (distinct 64 B lines touched) per variable, in
    /// bytes. This is the "variable size" statistic of the paper's
    /// Table 1, measured rather than declared.
    pub fn footprint_per_variable(&self) -> BTreeMap<VariableId, u64> {
        let mut lines: Vec<(VariableId, u64)> = self
            .accesses
            .iter()
            .map(|a| (a.variable, a.line_addr()))
            .collect();
        lines.sort_unstable();
        lines.dedup();
        let mut m = BTreeMap::new();
        for (v, _) in lines {
            *m.entry(v).or_insert(0u64) += 64;
        }
        m
    }

    /// Splits the trace into per-variable sub-traces, preserving order.
    pub fn split_by_variable(&self) -> BTreeMap<VariableId, Trace> {
        let mut out: BTreeMap<VariableId, Trace> = BTreeMap::new();
        for &a in &self.accesses {
            out.entry(a.variable).or_default().push(a);
        }
        out
    }

    /// Shortens the trace to at most `len` accesses, dropping the tail.
    pub fn truncate(&mut self, len: usize) {
        self.accesses.truncate(len);
    }

    /// Splices a sequence of traces into one, back to back, preserving
    /// each segment's internal order — the building block for
    /// phase-change workloads (pattern A, then pattern B).
    pub fn concat<I>(segments: I) -> Trace
    where
        I: IntoIterator<Item = Trace>,
    {
        let mut out = Trace::new();
        for seg in segments {
            out.reserve(seg.len());
            out.accesses.extend(seg.accesses);
        }
        out
    }

    /// The sub-trace of one thread, in order — one lane's view of a
    /// multi-threaded trace (lane interleaving otherwise masks
    /// per-thread strides).
    pub fn thread_slice(&self, t: crate::ThreadId) -> Trace {
        self.accesses
            .iter()
            .filter(|a| a.thread == t)
            .copied()
            .collect()
    }
}

impl FromIterator<MemAccess> for Trace {
    fn from_iter<I: IntoIterator<Item = MemAccess>>(iter: I) -> Self {
        Trace {
            accesses: iter.into_iter().collect(),
        }
    }
}

impl Extend<MemAccess> for Trace {
    fn extend<I: IntoIterator<Item = MemAccess>>(&mut self, iter: I) {
        self.accesses.extend(iter);
    }
}

impl IntoIterator for Trace {
    type Item = MemAccess;
    type IntoIter = std::vec::IntoIter<MemAccess>;

    fn into_iter(self) -> Self::IntoIter {
        self.accesses.into_iter()
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a MemAccess;
    type IntoIter = std::slice::Iter<'a, MemAccess>;

    fn into_iter(self) -> Self::IntoIter {
        self.accesses.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new();
        for i in 0..10u64 {
            t.push(MemAccess::read(i * 64, VariableId((i % 2) as u32)));
        }
        t
    }

    #[test]
    fn counts_and_split() {
        let t = sample();
        assert_eq!(t.len(), 10);
        let refs = t.refs_per_variable();
        assert_eq!(refs[&VariableId(0)], 5);
        assert_eq!(refs[&VariableId(1)], 5);
        let split = t.split_by_variable();
        assert_eq!(split.len(), 2);
        assert_eq!(split[&VariableId(0)].len(), 5);
        let v0: Vec<u64> = t.addrs_of(VariableId(0)).collect();
        assert_eq!(v0, vec![0, 128, 256, 384, 512]);
    }

    #[test]
    fn footprint_counts_distinct_lines() {
        let mut t = Trace::new();
        // Three accesses to two lines.
        t.push(MemAccess::read(0, VariableId(0)));
        t.push(MemAccess::read(32, VariableId(0)));
        t.push(MemAccess::read(64, VariableId(0)));
        assert_eq!(t.footprint_per_variable()[&VariableId(0)], 128);
    }

    #[test]
    fn from_iterator_and_extend() {
        let t: Trace = (0..5u64)
            .map(|i| MemAccess::read(i, VariableId(0)))
            .collect();
        assert_eq!(t.len(), 5);
        let mut u = Trace::new();
        u.extend(t.iter().copied());
        u.extend((0..3u64).map(|i| MemAccess::read(i, VariableId(1))));
        assert_eq!(u.len(), 8);
        assert_eq!(u.variables(), vec![VariableId(0), VariableId(1)]);
    }

    #[test]
    fn thread_slice_keeps_one_lane() {
        let mut t = Trace::new();
        for i in 0..10u64 {
            t.push(MemAccess {
                thread: crate::ThreadId((i % 2) as u16),
                ..MemAccess::read(i * 64, VariableId(0))
            });
        }
        let lane0 = t.thread_slice(crate::ThreadId(0));
        assert_eq!(lane0.len(), 5);
        assert!(lane0.iter().all(|a| a.thread.0 == 0));
    }

    #[test]
    fn empty_trace_behaviour() {
        let t = Trace::new();
        assert!(t.is_empty());
        assert!(t.refs_per_variable().is_empty());
        assert!(t.variables().is_empty());
    }
}
