//! Graph analytics under SDAM: run BFS and PageRank end-to-end through
//! profiling, per-variable mapping selection, allocation, and the
//! machine model, comparing the paper's system configurations.
//!
//! ```text
//! cargo run --release --example graph_analytics
//! ```

use sdam::{pipeline, Experiment, SdamError, SystemConfig};
use sdam_workloads::graph::{Bfs, PageRank};
use sdam_workloads::{Scale, Workload};

fn main() -> Result<(), SdamError> {
    let mut exp = Experiment::bench();
    exp.scale = Scale::small();

    let configs = [
        SystemConfig::BsHm,
        SystemConfig::SdmBsm,
        SystemConfig::SdmBsmMl { clusters: 4 },
    ];

    for workload in [&Bfs as &dyn Workload, &PageRank as &dyn Workload] {
        println!("profiling and running {} ...", workload.name());
        let cmp = pipeline::try_compare(workload, &configs, &exp)?;
        print!("{cmp}");
        let base = cmp
            .results
            .iter()
            .find(|r| r.config == SystemConfig::BsDm)
            .expect("baseline present");
        println!(
            "  ({} accesses, {} external memory requests, {:.0}% L1 hits)\n",
            base.report.accesses,
            base.report.memory_requests,
            100.0 * base.report.l1_hits as f64 / base.report.accesses as f64
        );
    }
    Ok(())
}
