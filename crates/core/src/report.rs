//! Run results and comparisons across system configurations.

use std::time::Duration;

use sdam_obs::Registry;
use sdam_sys::ExecutionReport;

use crate::config::SystemConfig;

/// Wall-clock spent in each pipeline phase of one run.
///
/// These are *host* times (how long the evaluation itself took), not
/// simulated cycles; the bench harness records them so BENCH reports
/// capture the effect of [`crate::config::Parallelism`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Profiling run(s) on the training input.
    pub profile: Duration,
    /// Mapping selection (clustering / training / hash optimization).
    pub select: Duration,
    /// Evaluation-trace generation and allocation into the system.
    pub materialize: Duration,
    /// The machine-model execution.
    pub execute: Duration,
}

impl PhaseTimes {
    /// Sum of all phases.
    pub fn total(&self) -> Duration {
        self.profile + self.select + self.materialize + self.execute
    }
}

/// One workload × configuration run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The configuration.
    pub config: SystemConfig,
    /// The machine-model execution report.
    pub report: ExecutionReport,
    /// Time spent in clustering / DL training during selection (the
    /// paper's Fig. 13 profiling-time metric), if any.
    pub learning_time: Option<Duration>,
    /// Host wall-clock per pipeline phase.
    pub phases: PhaseTimes,
    /// Observability snapshot for this run (see [`crate::metrics`]):
    /// `hbm.*`, `cmt.*`, `mem.*`, `machine.*` counters plus the run's
    /// event trace.
    pub metrics: Registry,
}

/// A workload compared across configurations, with `BS+DM` as the
/// baseline.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Workload name.
    pub workload: String,
    /// Per-configuration results, in the order requested.
    pub results: Vec<RunResult>,
    /// The per-run snapshots merged in lineup order, plus the
    /// `stage.*` cache counters of the sweep. Counters are sums across
    /// the runs.
    pub metrics: Registry,
}

impl Comparison {
    /// The baseline (BS+DM) cycle count, `None` for a hand-built
    /// comparison that lacks the baseline (the pipeline always adds it).
    pub fn baseline_cycles(&self) -> Option<u64> {
        self.results
            .iter()
            .find(|r| r.config == SystemConfig::BsDm)
            .map(|r| r.report.cycles)
    }

    /// Speedup of a configuration over the BS+DM baseline
    /// (zero-cycle degenerate runs guarded as in
    /// [`sdam_sys::safe_speedup`]).
    pub fn speedup_of(&self, config: SystemConfig) -> Option<f64> {
        let r = self.results.iter().find(|r| r.config == config)?;
        Some(sdam_sys::safe_speedup(
            self.baseline_cycles()?,
            r.report.cycles,
        ))
    }

    /// `(config, speedup)` rows, in run order; `None` without a BS+DM
    /// baseline.
    pub fn speedups(&self) -> Option<Vec<(SystemConfig, f64)>> {
        let base = self.baseline_cycles()?;
        Some(
            self.results
                .iter()
                .map(|r| (r.config, sdam_sys::safe_speedup(base, r.report.cycles)))
                .collect(),
        )
    }
}

impl std::fmt::Display for Comparison {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}", self.workload)?;
        let Some(speedups) = self.speedups() else {
            return writeln!(f, "  no BS+DM baseline");
        };
        for (config, speedup) in speedups {
            writeln!(f, "  {config:<16} {speedup:>6.2}x")?;
        }
        Ok(())
    }
}

/// Writes comparisons as CSV (one row per workload, one speedup column
/// per configuration) — the machine-readable companion to the printed
/// tables, for plotting.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_csv<W: std::io::Write>(
    comparisons: &[Comparison],
    configs: &[SystemConfig],
    mut w: W,
) -> std::io::Result<()> {
    write!(w, "workload")?;
    for c in configs {
        write!(w, ",{c}")?;
    }
    writeln!(w)?;
    for cmp in comparisons {
        write!(w, "{}", cmp.workload)?;
        for &c in configs {
            match cmp.speedup_of(c) {
                Some(s) => write!(w, ",{s:.4}")?,
                None => write!(w, ",")?,
            }
        }
        writeln!(w)?;
    }
    Ok(())
}

/// Geometric mean of speedups across comparisons for one configuration
/// (how the paper aggregates "1.41x on standard benchmarks").
pub fn geomean_speedup(comparisons: &[Comparison], config: SystemConfig) -> Option<f64> {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for c in comparisons {
        let s = c.speedup_of(config)?;
        log_sum += s.ln();
        n += 1;
    }
    (n > 0).then(|| (log_sum / n as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdam_hbm::{SimStats, Timing};

    fn result(config: SystemConfig, cycles: u64) -> RunResult {
        RunResult {
            config,
            report: ExecutionReport {
                cycles,
                accesses: 100,
                memory_requests: 50,
                l1_hits: 50,
                memory: SimStats {
                    requests: 50,
                    makespan: cycles,
                    per_channel: vec![],
                    timing: Timing::hbm2(),
                },
                mapping_name: config.to_string(),
                per_core: vec![],
                translation: sdam_sys::TranslationStats::default(),
                adapt: Default::default(),
            },
            learning_time: None,
            phases: PhaseTimes::default(),
            metrics: Registry::default(),
        }
    }

    fn cmp(pairs: &[(SystemConfig, u64)]) -> Comparison {
        Comparison {
            workload: "test".into(),
            results: pairs.iter().map(|&(c, n)| result(c, n)).collect(),
            metrics: Registry::default(),
        }
    }

    #[test]
    fn speedups_relative_to_bsdm() {
        let c = cmp(&[
            (SystemConfig::BsDm, 1000),
            (SystemConfig::SdmBsm, 500),
            (SystemConfig::BsHm, 2000),
        ]);
        assert_eq!(c.speedup_of(SystemConfig::SdmBsm), Some(2.0));
        assert_eq!(c.speedup_of(SystemConfig::BsHm), Some(0.5));
        assert_eq!(c.speedup_of(SystemConfig::BsBsm), None);
        assert_eq!(c.speedups().unwrap()[0].1, 1.0);
    }

    #[test]
    fn degenerate_cycle_counts_never_divide_by_zero() {
        let c = cmp(&[(SystemConfig::BsDm, 0), (SystemConfig::SdmBsm, 0)]);
        assert_eq!(c.speedup_of(SystemConfig::SdmBsm), Some(1.0));
        let c = cmp(&[(SystemConfig::BsDm, 100), (SystemConfig::SdmBsm, 0)]);
        let s = c.speedup_of(SystemConfig::SdmBsm).unwrap();
        assert_eq!(s, 0.0);
        assert!(s.is_finite());
        // No baseline: an Option, not a panic, from the Option-returning
        // accessors.
        let c = cmp(&[(SystemConfig::SdmBsm, 100)]);
        assert_eq!(c.baseline_cycles(), None);
        assert_eq!(c.speedup_of(SystemConfig::SdmBsm), None);
        assert_eq!(c.speedups(), None);
    }

    #[test]
    fn comparison_without_baseline_formats() {
        let c = cmp(&[(SystemConfig::SdmBsm, 100)]);
        assert_eq!(format!("{c}"), "test\n  no BS+DM baseline\n");
        let c = cmp(&[(SystemConfig::BsDm, 100), (SystemConfig::SdmBsm, 50)]);
        let text = format!("{c}");
        assert_eq!(text.lines().count(), 3, "{text}");
        assert!(text.contains("BS+DM") && text.contains("2.00x"), "{text}");
    }

    #[test]
    fn geomean_math() {
        let a = cmp(&[(SystemConfig::BsDm, 1000), (SystemConfig::SdmBsm, 500)]); // 2x
        let b = cmp(&[(SystemConfig::BsDm, 1000), (SystemConfig::SdmBsm, 125)]); // 8x
        let g = geomean_speedup(&[a, b], SystemConfig::SdmBsm).unwrap();
        assert!((g - 4.0).abs() < 1e-9, "geomean(2, 8) = 4, got {g}");
        assert_eq!(geomean_speedup(&[], SystemConfig::BsDm), None);
    }

    #[test]
    fn csv_output() {
        let c = cmp(&[(SystemConfig::BsDm, 100), (SystemConfig::SdmBsm, 50)]);
        let mut buf = Vec::new();
        write_csv(
            &[c],
            &[SystemConfig::BsDm, SystemConfig::SdmBsm, SystemConfig::BsHm],
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(
            text,
            "workload,BS+DM,SDM+BSM,BS+HM
test,1.0000,2.0000,
"
        );
    }

    #[test]
    fn display_includes_rows() {
        let c = cmp(&[(SystemConfig::BsDm, 100), (SystemConfig::SdmBsm, 50)]);
        let s = c.to_string();
        assert!(s.contains("BS+DM"));
        assert!(s.contains("2.00x"));
    }
}
