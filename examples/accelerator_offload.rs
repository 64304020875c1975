//! Near-memory accelerator offload: the same data-intensive kernel on
//! the CPU model and on the accelerator model, with and without SDAM.
//!
//! The accelerator differs in exactly the two ways the paper names
//! (§7.4): a 4x deeper outstanding-request window and a much smaller
//! cache — so its performance depends far more on channel-level
//! parallelism, and it gains more from SDAM.
//!
//! ```text
//! cargo run --release --example accelerator_offload
//! ```

use sdam::{pipeline, Experiment, SdamError, SystemConfig};
use sdam_sys::MachineConfig;
use sdam_workloads::analytics::HashJoin;
use sdam_workloads::ann::KMeansWorkload;
use sdam_workloads::{Scale, Workload};

fn main() -> Result<(), SdamError> {
    let config = SystemConfig::SdmBsmMl { clusters: 32 };
    for w in [&KMeansWorkload as &dyn Workload, &HashJoin as &dyn Workload] {
        println!("{}:", w.name());
        for (name, machine) in [
            ("CPU (4 BOOM cores)", MachineConfig::cpu()),
            ("near-memory accel", MachineConfig::accelerator()),
        ] {
            let mut exp = Experiment::bench();
            exp.scale = Scale::small();
            exp.machine = machine;
            let cmp = pipeline::try_compare(w, &[config], &exp)?;
            let base = cmp.baseline_cycles().expect("the pipeline runs BS+DM");
            let speedup = cmp.speedup_of(config).expect("config ran");
            println!("  {name:<20} baseline {base:>9} cycles, SDAM speedup {speedup:.2}x");
        }
    }
    println!("\npaper: accelerators gain more (2.58x vs 1.84x on the CPU)");
    Ok(())
}
