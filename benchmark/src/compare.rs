//! `compare PARENT_DIR CHANGE_DIR`: judges a change against its parent
//! from result lines recorded by `run --out DIR` on both commits, by
//! the rule the benchmark fixes: at least ten alternating pairs, a win
//! share of at least 9/10 and a median gap wider than the parent's
//! interquartile range for a gain; each metric's bound for a
//! regression; "unresolved" where the spread between a side's own runs
//! exceeds the bound. `setup_s` may also worsen by up to
//! [`SETUP_FLOOR_S`], however small the parent's set-up.

use std::path::Path;
use std::process::ExitCode;

use crate::json::{self, Value};
use crate::stats::{median, quartiles};

/// Pairs a gain needs.
const MIN_PAIRS: usize = 10;

/// Seconds by which `setup_s` may always worsen: a few milliseconds of
/// set-up are below what a run can resolve.
pub const SETUP_FLOOR_S: f64 = 0.05;

/// One end-to-end metric of the spec.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// True when lower values are better.
    pub lower_is_better: bool,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// Amount, in the metric's unit, by which it may always worsen.
    pub floor: f64,
}

/// The verdict for one (workload, metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins by the section-8 rule.
    Gain,
    /// Within the bound (and not a gain).
    Within,
    /// Worse than the bound allows.
    Regression,
    /// The spread between a side's own runs is wider than the bound, so
    /// neither "within" nor "regression" can be claimed.
    Unresolved,
}

/// Summary of one side's runs.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Side {
    fn of(v: &[f64]) -> Side {
        let q = quartiles(v);
        Side {
            median: median(v),
            q1: q[0],
            q3: q[2],
        }
    }

    fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// Compares the runs of one metric; `parent[i]` and `change[i]` form
/// pair `i`. Returns the verdict, the win count and the pair count.
pub fn judge(m: &Metric, parent: &[f64], change: &[f64]) -> (Verdict, usize, usize) {
    let better = |c: f64, p: f64| if m.lower_is_better { c < p } else { c > p };
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs).filter(|&i| better(change[i], parent[i])).count();
    let (p, c) = (Side::of(parent), Side::of(change));
    let gap = (c.median - p.median).abs();
    if pairs >= MIN_PAIRS && wins * 10 >= pairs * 9 && better(c.median, p.median) && gap > p.iqr() {
        return (Verdict::Gain, wins, pairs);
    }
    // How far a metric may move from a side's median: the bound's share
    // of it, or the floor if that is larger.
    let allowance = |s: &Side| (m.bound * s.median.abs()).max(m.floor);
    let allowed = allowance(&p);
    let worse_by = if m.lower_is_better {
        c.median - p.median
    } else {
        p.median - c.median
    };
    let every_change_run_better = parent
        .iter()
        .all(|&pv| change.iter().all(|&cv| better(cv, pv)));
    let verdict = if every_change_run_better {
        Verdict::Within
    } else if p.iqr() > allowed || c.iqr() > allowance(&c) {
        Verdict::Unresolved
    } else if worse_by > allowed {
        Verdict::Regression
    } else {
        Verdict::Within
    };
    (verdict, wins, pairs)
}

/// Reads the end-to-end metrics and workload names of a spec.
pub fn read_spec(text: &str) -> Result<(Vec<Metric>, Vec<String>), String> {
    let v = json::parse(text)?;
    let metrics = v
        .get("end_to_end")
        .map(Value::arr)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            let name = m.get("name")?.str()?.to_string();
            Some(Metric {
                floor: if name == "setup_s" {
                    SETUP_FLOOR_S
                } else {
                    0.0
                },
                unit: m.get("unit")?.str()?.to_string(),
                lower_is_better: m.get("better")?.str()? == "lower",
                bound: m.get("bound")?.num()?,
                name,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("malformed end_to_end entry")?;
    let workloads = v
        .get("workloads")
        .map(Value::arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|w| Some(w.get("name")?.str()?.to_string()))
        .collect();
    Ok((metrics, workloads))
}

/// The result lines of one workload in a directory.
fn read_runs(dir: &Path, workload: &str) -> Vec<Value> {
    std::fs::read_to_string(dir.join(format!("{workload}.jsonl")))
        .unwrap_or_default()
        .lines()
        .filter_map(|l| json::parse(l).ok())
        .collect()
}

fn values(runs: &[Value], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.num())
        .collect()
}

fn total(runs: &[Value], key: &str) -> f64 {
    runs.iter().filter_map(|r| r.get(key)?.num()).sum()
}

/// Prints one row per (workload, metric); fails on any regression, on
/// more failed ops than the parent, or on a result marked incorrect.
pub fn main(parent: &Path, change: &Path, spec: &Path) -> ExitCode {
    let (metrics, workloads) = match std::fs::read_to_string(spec)
        .map_err(|e| e.to_string())
        .and_then(|t| read_spec(&t))
    {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {}: {e}", spec.display());
            return ExitCode::from(2);
        }
    };
    let mut bad = false;
    println!(
        "{:<10} {:<12} {:>14} {:>23} {:>14} {:>23} {:>8} {:>6} verdict",
        "workload", "metric", "parent", "[q1, q3]", "change", "[q1, q3]", "delta", "wins"
    );
    for w in &workloads {
        let (p_runs, c_runs) = (read_runs(parent, w), read_runs(change, w));
        if p_runs.is_empty() || c_runs.is_empty() {
            println!("{w:<10} no runs recorded on one side");
            bad = true;
            continue;
        }
        for m in &metrics {
            let (p, c) = (values(&p_runs, &m.name), values(&c_runs, &m.name));
            if p.is_empty() || c.is_empty() {
                println!("{w:<10} {:<12} missing", m.name);
                bad = true;
                continue;
            }
            let (verdict, wins, pairs) = judge(m, &p, &c);
            let (ps, cs) = (Side::of(&p), Side::of(&c));
            let delta = if ps.median == 0.0 {
                0.0
            } else {
                (cs.median / ps.median - 1.0) * 100.0
            };
            println!(
                "{w:<10} {:<12} {:>14.6} [{:>10.4}, {:>10.4}] {:>14.6} [{:>10.4}, {:>10.4}] {:>+7.2}% {:>3}/{:<3} {} (bound {}%, {})",
                m.name,
                ps.median,
                ps.q1,
                ps.q3,
                cs.median,
                cs.q1,
                cs.q3,
                delta,
                wins,
                pairs,
                match verdict {
                    Verdict::Gain => "gain",
                    Verdict::Within => "within bound",
                    Verdict::Regression => "REGRESSION",
                    Verdict::Unresolved => "unresolved",
                },
                m.bound * 100.0,
                m.unit,
            );
            bad |= verdict == Verdict::Regression;
        }
        let (pf, cf) = (total(&p_runs, "failed"), total(&c_runs, "failed"));
        let incorrect = c_runs
            .iter()
            .any(|r| r.get("correct") != Some(&Value::Bool(true)));
        println!(
            "{w:<10} {:<12} parent {pf} change {cf} of {} attempted{}",
            "ops_failed",
            total(&c_runs, "attempted"),
            if incorrect {
                "; a change run is marked incorrect"
            } else {
                ""
            }
        );
        bad |= cf > pf || incorrect;
    }
    if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(bound: f64) -> Metric {
        Metric {
            name: "pass_s".into(),
            unit: "s".into(),
            lower_is_better: true,
            bound,
            floor: 0.0,
        }
    }

    #[test]
    fn clear_win_is_a_gain() {
        let parent: Vec<f64> = (0..10).map(|i| 10.0 + f64::from(i) * 0.01).collect();
        let change: Vec<f64> = parent.iter().map(|v| v * 0.8).collect();
        assert_eq!(
            judge(&metric(0.1), &parent, &change),
            (Verdict::Gain, 10, 10)
        );
    }

    #[test]
    fn too_few_pairs_is_not_a_gain() {
        let parent = [10.0, 10.1, 10.2];
        let change = [8.0, 8.1, 8.2];
        assert_eq!(judge(&metric(0.1), &parent, &change).0, Verdict::Within);
    }

    #[test]
    fn worse_beyond_the_bound_is_a_regression() {
        let parent = [10.0, 10.1, 10.2, 10.0, 10.1];
        let change = [12.0, 12.1, 12.2, 12.0, 12.1];
        assert_eq!(judge(&metric(0.1), &parent, &change).0, Verdict::Regression);
        assert_eq!(judge(&metric(0.25), &parent, &change).0, Verdict::Within);
    }

    #[test]
    fn setup_floor_absorbs_millisecond_shifts() {
        let parent = [0.015, 0.0151, 0.0152, 0.015, 0.0151];
        let change = [0.021, 0.0211, 0.0212, 0.021, 0.0211];
        assert_eq!(judge(&metric(0.1), &parent, &change).0, Verdict::Regression);
        let setup = Metric {
            floor: SETUP_FLOOR_S,
            ..metric(0.1)
        };
        assert_eq!(judge(&setup, &parent, &change).0, Verdict::Within);
        let slow: Vec<f64> = parent.iter().map(|v| v + 0.06).collect();
        assert_eq!(judge(&setup, &parent, &slow).0, Verdict::Regression);
    }

    #[test]
    fn wide_spread_is_unresolved() {
        let parent = [5.0, 10.0, 15.0, 10.0, 20.0];
        let change = [12.0, 6.0, 14.0, 9.0, 16.0];
        assert_eq!(judge(&metric(0.1), &parent, &change).0, Verdict::Unresolved);
    }

    #[test]
    fn higher_is_better_metrics_flip_the_direction() {
        let m = Metric {
            lower_is_better: false,
            ..metric(0.1)
        };
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i)).collect();
        let change: Vec<f64> = parent.iter().map(|v| v * 1.5).collect();
        assert_eq!(judge(&m, &parent, &change).0, Verdict::Gain);
        assert_eq!(judge(&m, &change, &parent).0, Verdict::Regression);
    }

    #[test]
    fn reads_the_spec() {
        let (m, w) = read_spec(include_str!("../../BENCHMARK.json")).unwrap();
        assert!(m.iter().any(|m| m.name == "setup_s" && m.lower_is_better));
        assert_eq!(w.len(), 4);
    }
}
