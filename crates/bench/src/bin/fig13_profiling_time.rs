//! Figure 13: mapping-selection (profiling) time, K-Means vs DL-assisted
//! K-Means, at 4 and 32 clusters.
//!
//! The paper measures minutes on an i7 workstation at Table-2 scale
//! (500 k LSTM steps); we run the laptop-scale configuration and report
//! the same *ordering*: ML is orders of magnitude cheaper than DL, and
//! ML's cost is much more sensitive to the cluster count.

use std::time::Instant;

use sdam::{pipeline, profiling, Experiment, SystemConfig};
use sdam_bench::{exit_on_err, header, row, scale_from_args};
use sdam_workloads::{standard_suite, Scale, Workload};

fn main() {
    let mut exp = Experiment::bench();
    exp.scale = scale_from_args(Scale::small());
    // A representative subset (running all 19 through DL twice is slow).
    let names = ["perlbench", "mcf", "omnetpp", "streamcluster"];
    let suite = standard_suite();
    let picks: Vec<&Box<dyn Workload>> =
        suite.iter().filter(|w| names.contains(&w.name())).collect();

    header("Fig. 13: mapping-selection time per benchmark (ms; ML is sub-ms)");
    row(&[
        "benchmark".into(),
        "ML(4)".into(),
        "ML(32)".into(),
        "DL(4)".into(),
        "DL(32)".into(),
    ]);
    let mut totals = [0.0f64; 4];
    for w in &picks {
        let data = exit_on_err(profiling::try_profile_on_baseline(w.as_ref(), &exp));
        let configs = [
            SystemConfig::SdmBsmMl { clusters: 4 },
            SystemConfig::SdmBsmMl { clusters: 32 },
            SystemConfig::SdmBsmDl { clusters: 4 },
            SystemConfig::SdmBsmDl { clusters: 32 },
        ];
        let mut cells = vec![w.name().to_string()];
        for (i, config) in configs.into_iter().enumerate() {
            let t = Instant::now();
            let _ = exit_on_err(profiling::try_select_mappings(config, &data, &exp));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            totals[i] += ms;
            cells.push(format!("{ms:.3}"));
        }
        row(&cells);
    }
    let mut cells = vec!["mean".to_string()];
    for t in totals {
        cells.push(format!("{:.3}", t / picks.len() as f64));
    }
    row(&cells);
    println!(
        "\npaper (Table-2 scale, i7): ML 0.3 min (4) / 2 min (32); \
         DL 26 min (4) / 29 min (32)"
    );

    // Sanity: the paper's amortization claim — selection is far cheaper
    // than the run it optimizes (for ML).
    if let Some(w) = picks.first() {
        let t = Instant::now();
        let _ = exit_on_err(pipeline::try_run(w.as_ref(), SystemConfig::BsDm, &exp));
        println!(
            "one simulated evaluation run of {}: {:.1} ms",
            w.name(),
            t.elapsed().as_secs_f64() * 1e3
        );
    }
}
