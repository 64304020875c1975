//! Figure 14 (and the core-count study of §7.4): SDAM's speedup grows
//! when memory is relatively slower (HBM down-clocked to 1/2 and 1/4)
//! and when more cores contend (1 → 4 cores).

use sdam::{pipeline, report, Experiment, SystemConfig};
use sdam_bench::{exit_on_err, f2, header, row, scale_from_args};
use sdam_hbm::Timing;
use sdam_sys::MachineConfig;
use sdam_workloads::{data_intensive_suite, Scale, Workload};

fn geomean_for(exp: &Experiment, suite: &[Box<dyn Workload>], config: SystemConfig) -> f64 {
    let comparisons: Vec<report::Comparison> = suite
        .iter()
        .map(|w| exit_on_err(pipeline::try_compare(w.as_ref(), &[config], exp)))
        .collect();
    report::geomean_speedup(&comparisons, config).expect("config ran")
}

fn main() {
    let mut base = Experiment::bench();
    // Default to `small`: at `tiny` the kernels are cache-resident.
    base.scale = scale_from_args(Scale::small());
    let config = SystemConfig::SdmBsmMl { clusters: 32 };
    // A subset keeps the sweep fast while covering both graph and
    // analytics behaviour.
    let suite: Vec<Box<dyn Workload>> = data_intensive_suite()
        .into_iter()
        .filter(|w| ["bfs", "pagerank", "hash-join", "kmeans"].contains(&w.name()))
        .collect();

    header("Fig. 14: speedup of SDM+BSM+ML(32) vs HBM frequency");
    row(&["HBM freq".into(), "speedup".into()]);
    let full = {
        let exp = base.clone();
        geomean_for(&exp, &suite, config)
    };
    for (label, scale) in [("1/1", 1u64), ("1/2", 2), ("1/4", 4)] {
        let mut exp = base.clone();
        exp.timing = Timing::hbm2().scaled(scale);
        let s = geomean_for(&exp, &suite, config);
        row(&[
            label.into(),
            format!("{} ({:+.0}%)", f2(s), (s / full - 1.0) * 100.0),
        ]);
    }
    println!("paper: +19% speedup at 1/4 frequency");

    header("Core-count study: speedup vs number of cores");
    row(&["cores".into(), "speedup".into()]);
    for cores in [1usize, 2, 4] {
        let mut exp = base.clone();
        exp.machine = MachineConfig::cpu_with_cores(cores);
        row(&[cores.to_string(), f2(geomean_for(&exp, &suite, config))]);
    }
    println!("paper: 1.27x at 1 core -> 1.32x at 4 cores");
}
