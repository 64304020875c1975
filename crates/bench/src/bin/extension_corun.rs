//! Extension: co-running applications sharing one memory system.
//!
//! The paper's Observation 2 and Fig. 4 argue with synthetic stride
//! mixes that a single global mapping cannot serve concurrent access
//! patterns; this bin makes the argument at full-system level — two
//! *processes* co-resident in one `SdamSystem` (shared chunks, shared
//! CMT), with the machine hosting both workloads' cores.

use sdam::{pipeline, Experiment, SystemConfig};
use sdam_bench::{exit_on_err, f2, header, row, scale_from_args};
use sdam_workloads::datacopy::DataCopy;
use sdam_workloads::Scale;
use sdam_workloads::Workload;

fn main() {
    let mut exp = Experiment::quick();
    exp.scale = scale_from_args(Scale::tiny());

    header("Extension: co-running tenants (shared memory, shared CMT)");
    type TenantPair = (&'static str, Box<dyn Workload>, Box<dyn Workload>);
    let pairs: Vec<TenantPair> = vec![
        (
            "stream + stride-32",
            Box::new(DataCopy::with_threads(vec![1], 1)),
            Box::new(DataCopy::with_threads(vec![32], 1)),
        ),
        (
            "stride-8 + stride-16",
            Box::new(DataCopy::with_threads(vec![8], 1)),
            Box::new(DataCopy::with_threads(vec![16], 1)),
        ),
        (
            "stream + stream",
            Box::new(DataCopy::with_threads(vec![1], 1)),
            Box::new(DataCopy::with_threads(vec![1], 1)),
        ),
    ];
    let configs = [
        SystemConfig::BsDm,
        SystemConfig::BsBsm,
        SystemConfig::BsHm,
        SystemConfig::SdmBsmMl { clusters: 4 },
    ];
    let mut head = vec!["tenants".to_string()];
    head.extend(configs.iter().skip(1).map(|c| c.to_string()));
    row(&head);
    for (name, a, b) in pairs {
        let base = exit_on_err(pipeline::try_run_corun(
            &[a.as_ref(), b.as_ref()],
            SystemConfig::BsDm,
            &exp,
        ))
        .report
        .cycles as f64;
        let mut cells = vec![name.to_string()];
        for &config in &configs[1..] {
            let r = exit_on_err(pipeline::try_run_corun(
                &[a.as_ref(), b.as_ref()],
                config,
                &exp,
            ));
            cells.push(f2(base / r.report.cycles as f64));
        }
        row(&cells);
    }
    println!(
        "speedups over BS+DM. One global shuffle must compromise between\n\
         tenants; per-variable SDAM serves each tenant's pattern — and on\n\
         the all-streaming pair there is nothing to win, as expected"
    );
}
