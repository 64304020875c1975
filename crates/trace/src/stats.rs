//! Trace statistics: stride histograms, working sets, and sampled reuse
//! distances.
//!
//! These are the descriptive statistics a performance engineer reads
//! before deciding whether SDAM can help a program: dominant strides
//! say which channel bits matter; the working set says whether the
//! caches will filter the traffic; reuse distance approximates the miss
//! rate at any cache size (the classic stack-distance argument).

use std::collections::HashMap;

use sdam_obs::CountHistogram;

use crate::Trace;

/// A histogram of line-granular strides (deltas between consecutive
/// accesses of the same variable).
///
/// A thin trace-aware wrapper over [`sdam_obs::CountHistogram`] — the
/// workspace-wide keyed-count type — which replaced this module's
/// private `BTreeMap + total` pair (one of three divergent ad-hoc stat
/// mechanisms the observability layer unified).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StrideHistogram {
    /// stride in lines (signed) → occurrences.
    counts: CountHistogram,
}

impl StrideHistogram {
    /// Builds the histogram from a trace, per-variable (cross-variable
    /// jumps are not strides).
    pub fn from_trace(trace: &Trace) -> Self {
        let mut last: HashMap<u32, u64> = HashMap::new();
        let mut counts = CountHistogram::default();
        for a in trace.iter() {
            let line = (a.addr / 64) as i64;
            if let Some(prev) = last.insert(a.variable.0, line as u64) {
                counts.record(line - prev as i64);
            }
        }
        StrideHistogram { counts }
    }

    /// Number of stride samples.
    pub fn samples(&self) -> u64 {
        self.counts.total()
    }

    /// The most frequent stride (in lines) and its share of samples
    /// (ties resolve to the smaller stride).
    pub fn dominant(&self) -> Option<(i64, f64)> {
        let stride = self.counts.mode()?;
        Some((stride, self.counts.fraction(stride)))
    }

    /// Iterates `(stride, count)` in stride order.
    pub fn iter(&self) -> impl Iterator<Item = (i64, u64)> + '_ {
        self.counts.iter()
    }
}

/// Working-set summary of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkingSet {
    /// Distinct 64 B lines touched.
    pub lines: u64,
    /// Distinct 4 KB pages touched.
    pub pages: u64,
}

impl WorkingSet {
    /// Measures the working set of a trace.
    pub fn of(trace: &Trace) -> Self {
        let mut lines = std::collections::HashSet::new();
        let mut pages = std::collections::HashSet::new();
        for a in trace.iter() {
            lines.insert(a.addr / 64);
            pages.insert(a.addr >> 12);
        }
        WorkingSet {
            lines: lines.len() as u64,
            pages: pages.len() as u64,
        }
    }

    /// Working-set size in bytes (line granularity).
    pub fn bytes(&self) -> u64 {
        self.lines * 64
    }
}

/// Sampled reuse-distance profile: for sampled accesses, the number of
/// *distinct* lines touched since the previous access to the same line
/// (LRU stack distance). `None`-distance (cold) accesses are counted
/// separately.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReuseProfile {
    distances: Vec<u64>,
    cold: u64,
}

impl ReuseProfile {
    /// Computes the exact reuse-distance profile (O(n · distinct) — fine
    /// for the trace sizes in this repository; sample the trace first
    /// for very long runs).
    pub fn of(trace: &Trace) -> Self {
        // LRU stack as a vector of lines, most recent first.
        let mut stack: Vec<u64> = Vec::new();
        let mut distances = Vec::new();
        let mut cold = 0u64;
        for a in trace.iter() {
            let line = a.addr / 64;
            match stack.iter().position(|&l| l == line) {
                Some(pos) => {
                    distances.push(pos as u64);
                    stack.remove(pos);
                }
                None => cold += 1,
            }
            stack.insert(0, line);
        }
        ReuseProfile { distances, cold }
    }

    /// Estimated hit rate of a fully-associative LRU cache holding
    /// `lines` lines: the fraction of accesses whose reuse distance is
    /// below the capacity.
    pub fn hit_rate_at(&self, lines: u64) -> f64 {
        let total = self.distances.len() as u64 + self.cold;
        if total == 0 {
            return 0.0;
        }
        let hits = self.distances.iter().filter(|&&d| d < lines).count() as u64;
        hits as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::StrideGen;
    use crate::{MemAccess, VariableId};

    #[test]
    fn stride_histogram_finds_dominant_stride() {
        let mut t = Trace::new();
        StrideGen::new(0, 16 * 64, 1000)
            .variable(VariableId(0))
            .emit(&mut t);
        StrideGen::new(1 << 30, 64, 10)
            .variable(VariableId(1))
            .emit(&mut t);
        let h = StrideHistogram::from_trace(&t);
        let (stride, share) = h.dominant().unwrap();
        assert_eq!(stride, 16);
        assert!(share > 0.98);
        assert!(h.counts.fraction(1) < 0.02);
        assert_eq!(h.samples(), 999 + 9);
    }

    #[test]
    fn cross_variable_jumps_are_not_strides() {
        let mut t = Trace::new();
        // Alternating variables: per-variable stride is 1 line each.
        for i in 0..100u64 {
            t.push(MemAccess::read(i / 2 * 64, VariableId((i % 2) as u32)));
        }
        let h = StrideHistogram::from_trace(&t);
        // Strides within each variable are 0 or 1 lines.
        assert!(h.iter().all(|(s, _)| s == 0 || s == 1));
    }

    #[test]
    fn working_set_counts_lines_and_pages() {
        let t = StrideGen::new(0, 64, 128).into_trace();
        let ws = WorkingSet::of(&t);
        assert_eq!(ws.lines, 128);
        assert_eq!(ws.pages, 2); // 128 x 64 B = 8 KB
        assert_eq!(ws.bytes(), 8192);
    }

    #[test]
    fn reuse_profile_matches_lru_intuition() {
        // Loop over 8 lines three times: first pass cold, then distance 7.
        let mut t = Trace::new();
        for _ in 0..3 {
            for i in 0..8u64 {
                t.push(MemAccess::read(i * 64, VariableId(0)));
            }
        }
        let p = ReuseProfile::of(&t);
        assert_eq!(p.cold, 8);
        assert_eq!(p.distances.len(), 16);
        assert!(p.distances.iter().all(|&d| d == 7));
        // A cache of 8 lines captures every reuse; one of 4 captures none.
        assert!((p.hit_rate_at(8) - 16.0 / 24.0).abs() < 1e-12);
        assert_eq!(p.hit_rate_at(4), 0.0);
    }

    #[test]
    fn empty_trace_is_well_behaved() {
        let t = Trace::new();
        assert_eq!(StrideHistogram::from_trace(&t).dominant(), None);
        assert_eq!(WorkingSet::of(&t).lines, 0);
        assert_eq!(ReuseProfile::of(&t).hit_rate_at(100), 0.0);
    }
}
