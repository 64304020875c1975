//! Golden fixture for the DL-assisted clustering: the seeded bench
//! workload must keep producing the exact cluster assignments pinned
//! here through the training loop (deduplicated windows, weighted
//! round-robin mini-batches, early stopping).
//!
//! The pipeline's selection quality rides on these assignments — a
//! drift here means the learned mapping selection changed, which must
//! never happen silently. If a deliberate change to the training path
//! or the `laptop()` preset moves them, re-pin the constant below after
//! checking the partition still separates the stride classes.

use sdam::{profiling, Experiment};
use sdam_ml::dlkmeans::cluster_variables_dl;
use sdam_workloads::datacopy::DataCopy;

/// The pinned assignments for datacopy strides [1, 16] at tiny scale,
/// k = 4, under `TrainingConfig::laptop()` (seed 0x5da1): eight major
/// variables, the stride-1 group separated from the stride-16 group.
const GOLDEN: [usize; 8] = [3, 3, 1, 2, 0, 3, 1, 2];

fn bench_traces() -> (Vec<Vec<u64>>, Experiment) {
    let exp = Experiment::quick();
    let w = DataCopy::new(vec![1, 16]);
    let data = profiling::try_profile_on_baseline(&w, &exp).unwrap();
    let traces = data
        .major
        .iter()
        .map(|v| data.pa_streams[v].clone())
        .collect();
    (traces, exp)
}

#[test]
fn seeded_dl_assignments_match_golden() {
    let (traces, exp) = bench_traces();
    let bits = exp.geometry.addr_bits();
    let r = cluster_variables_dl(&traces, bits, 4, &exp.training).unwrap();
    assert_eq!(
        r.assignments, GOLDEN,
        "DL selection drifted from the pinned assignments"
    );
}
