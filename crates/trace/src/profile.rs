//! Major-variable identification and variable-level statistics.
//!
//! Observation 3 of the paper: "A limited number of major variables
//! contribute to most of the external memory accesses and have large
//! memory footprints." *Major variables* are the smallest set of
//! variables (by descending reference count) covering a threshold
//! fraction — the paper uses 80 % — of all references. SDAM learns a
//! mapping per major variable and leaves the rest on the default.

use crate::{Trace, VariableId};

/// Per-variable statistics, one row of the paper's Table 1 machinery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct VariableStats {
    /// The variable.
    pub variable: VariableId,
    /// External references in the trace.
    pub refs: u64,
    /// Footprint in bytes (distinct 64 B lines touched).
    pub footprint_bytes: u64,
}

/// Summary of a whole workload, matching Table 1's columns.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadVariableSummary {
    /// Total number of variables referenced.
    pub num_variables: usize,
    /// Number of major variables (80 % coverage).
    pub num_major: usize,
    /// Mean footprint of the major variables, bytes.
    pub avg_major_footprint: u64,
    /// Smallest footprint among the major variables, bytes.
    pub min_major_footprint: u64,
}

/// Returns per-variable statistics sorted by descending reference count
/// (ties toward lower variable ids).
pub(crate) fn variable_stats(trace: &Trace) -> Vec<VariableStats> {
    let foot = trace.footprint_per_variable();
    ranked_refs(trace)
        .into_iter()
        .map(|(variable, refs)| VariableStats {
            variable,
            refs,
            footprint_bytes: foot.get(&variable).copied().unwrap_or(0),
        })
        .collect()
}

/// `(variable, refs)` by descending reference count, ties toward lower
/// variable ids: the order of [`variable_stats`].
fn ranked_refs(trace: &Trace) -> Vec<(VariableId, u64)> {
    let mut ranked: Vec<(VariableId, u64)> = trace.refs_per_variable().into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked
}

/// The major variables of a trace: the smallest prefix of variables (by
/// descending reference count) whose references reach
/// `coverage` of the total.
///
/// # Panics
///
/// Panics if `coverage` is not in `(0, 1]`.
pub fn major_variables(trace: &Trace, coverage: f64) -> Vec<VariableId> {
    assert!(
        coverage > 0.0 && coverage <= 1.0,
        "coverage must be in (0, 1]"
    );
    let ranked = ranked_refs(trace);
    let total: u64 = ranked.iter().map(|&(_, refs)| refs).sum();
    if total == 0 {
        return Vec::new();
    }
    let target = (total as f64 * coverage).ceil() as u64;
    let mut acc = 0u64;
    let mut out = Vec::new();
    let mut done = false;
    let mut last_refs = 0u64;
    for (variable, refs) in ranked {
        if done {
            // Never split a tie at the threshold: variables referenced
            // about as often as the last included one stay major (a
            // uniform-weight program would otherwise drop an arbitrary
            // straggler whose unoptimized traffic dominates).
            if (refs as f64) < 0.9 * last_refs as f64 {
                break;
            }
        }
        out.push(variable);
        acc += refs;
        last_refs = refs;
        if acc >= target {
            done = true;
        }
    }
    out
}

/// Summarizes a workload in Table 1's terms, using the paper's 80 %
/// major-variable threshold.
pub fn summarize(trace: &Trace) -> WorkloadVariableSummary {
    let stats = variable_stats(trace);
    let major = major_variables(trace, 0.8);
    let major_stats: Vec<&VariableStats> = stats
        .iter()
        .filter(|s| major.contains(&s.variable))
        .collect();
    let (avg, min) = if major_stats.is_empty() {
        (0, 0)
    } else {
        let sum: u64 = major_stats.iter().map(|s| s.footprint_bytes).sum();
        let min = major_stats
            .iter()
            .map(|s| s.footprint_bytes)
            .min()
            .unwrap_or(0);
        (sum / major_stats.len() as u64, min)
    };
    WorkloadVariableSummary {
        num_variables: stats.len(),
        num_major: major.len(),
        avg_major_footprint: avg,
        min_major_footprint: min,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::StrideGen;

    fn skewed_trace() -> Trace {
        // var0: 700 refs, var1: 200, var2: 100.
        let mut t = Trace::new();
        StrideGen::new(0, 64, 700)
            .variable(VariableId(0))
            .emit(&mut t);
        StrideGen::new(1 << 24, 64, 200)
            .variable(VariableId(1))
            .emit(&mut t);
        StrideGen::new(1 << 25, 64, 100)
            .variable(VariableId(2))
            .emit(&mut t);
        t
    }

    #[test]
    fn stats_sorted_by_refs() {
        let stats = variable_stats(&skewed_trace());
        let refs: Vec<u64> = stats.iter().map(|s| s.refs).collect();
        assert_eq!(refs, vec![700, 200, 100]);
        assert_eq!(stats[0].footprint_bytes, 700 * 64);
    }

    #[test]
    fn major_variables_cover_eighty_percent() {
        let t = skewed_trace();
        // 700 < 800, 700+200 = 900 >= 800.
        assert_eq!(major_variables(&t, 0.8), vec![VariableId(0), VariableId(1)]);
        // Full coverage needs everything.
        assert_eq!(major_variables(&t, 1.0).len(), 3);
        // A tiny threshold needs only the hottest.
        assert_eq!(major_variables(&t, 0.1), vec![VariableId(0)]);
    }

    #[test]
    fn summary_matches_table1_shape() {
        let s = summarize(&skewed_trace());
        assert_eq!(s.num_variables, 3);
        assert_eq!(s.num_major, 2);
        assert_eq!(s.min_major_footprint, 200 * 64);
        assert_eq!(s.avg_major_footprint, (700 + 200) * 64 / 2);
    }

    #[test]
    fn empty_trace_summary() {
        let s = summarize(&Trace::new());
        assert_eq!(s.num_variables, 0);
        assert_eq!(s.num_major, 0);
        assert!(major_variables(&Trace::new(), 0.8).is_empty());
    }

    #[test]
    #[should_panic(expected = "coverage must be in (0, 1]")]
    fn bad_coverage_panics() {
        let _ = major_variables(&Trace::new(), 0.0);
    }
}
