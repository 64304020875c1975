//! Table 1: variable-level statistics of the 19 standard benchmarks.
//!
//! For each surrogate we profile its trace and report the measured
//! number of variables, major variables (80 % of references), and major
//! footprints, next to the paper's printed values. Footprints are in
//! the surrogate's scaled units (1 paper-MB ≙ 4 KB; see
//! `sdam_workloads::suites`).

use sdam_bench::{header, scale_from_args};
use sdam_trace::profile;
use sdam_workloads::suites::{table1, Surrogate};
use sdam_workloads::Scale;
use sdam_workloads::Workload;

fn main() {
    let scale = scale_from_args(Scale::tiny());
    header("Table 1: variable-level statistics (measured vs paper)");
    println!(
        "{:<14} {:>8} {:>8} | {:>8} {:>8} | {:>12} {:>12}",
        "benchmark", "#var(p)", "#var(m)", "major(p)", "major(m)", "avgKB(m)", "minKB(m)"
    );
    for spec in table1() {
        let surrogate = Surrogate::new(spec.clone());
        let trace = surrogate.generate(scale);
        let s = profile::summarize(&trace);
        println!(
            "{:<14} {:>8} {:>8} | {:>8} {:>8} | {:>12.1} {:>12.1}",
            spec.name,
            spec.num_variables,
            s.num_variables,
            spec.num_major,
            s.num_major,
            s.avg_major_footprint as f64 / 1024.0,
            s.min_major_footprint as f64 / 1024.0,
        );
    }
    println!(
        "\n(p) = paper's Table 1, (m) = measured on the surrogate trace.\n\
         Measured #var is capped: the surrogate models at most 16 tail \
         variables — the mechanism only needs the major set."
    );
}
