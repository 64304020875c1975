//! Figure 15: near-memory accelerator speedups over BS+DM on the
//! data-intensive benchmarks.
//!
//! The accelerator machine model differs from the CPU in exactly the two
//! ways the paper names (§7.4): far more concurrent outstanding requests
//! and a much smaller cache — so it gains more from SDAM (paper: 2.58x
//! for SDM+BSM+DL).

use sdam::{pipeline, report, Experiment, SystemConfig};
use sdam_bench::{
    exit_on_err, f2, header, merged_comparison_metrics, scale_from_args, write_metrics_sidecar,
};
use sdam_sys::MachineConfig;
use sdam_workloads::data_intensive_suite;
use sdam_workloads::Scale;

fn main() {
    let mut exp = Experiment::bench();
    // Default to `small`: at `tiny` the kernels are cache-resident and
    // the memory mapping cannot matter.
    exp.scale = scale_from_args(Scale::small());
    exp.machine = MachineConfig::accelerator();

    let configs = [
        SystemConfig::BsBsm,
        SystemConfig::BsHm,
        SystemConfig::SdmBsm,
        SystemConfig::SdmBsmMl { clusters: 32 },
        SystemConfig::SdmBsmDl { clusters: 32 },
    ];

    header("Fig. 15: accelerator speedup over BS+DM");
    print!("{:<14}", "benchmark");
    for c in &configs {
        print!(" {:>15}", c.to_string());
    }
    println!();

    let mut comparisons = Vec::new();
    for w in data_intensive_suite() {
        let cmp = exit_on_err(pipeline::try_compare(w.as_ref(), &configs, &exp));
        print!("{:<14}", cmp.workload);
        for &c in &configs {
            print!(" {:>15}", f2(cmp.speedup_of(c).expect("config ran")));
        }
        println!();
        comparisons.push(cmp);
    }
    print!("{:<14}", "geomean");
    for &c in &configs {
        print!(
            " {:>15}",
            f2(report::geomean_speedup(&comparisons, c).expect("all ran"))
        );
    }
    println!();
    write_metrics_sidecar(
        "fig15_accelerator",
        &merged_comparison_metrics(&comparisons),
    );
    println!("\npaper: SDM+BSM+DL reaches 2.58x on the accelerator (vs 1.84x on CPU)");
}
