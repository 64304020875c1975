//! Golden fixture for the DL-assisted clustering: the seeded bench
//! workload must keep producing the exact cluster assignments pinned
//! here, through the fast (deduplicated, batched, early-stopped) loop,
//! the preserved per-step reference loop, and every thread count.
//!
//! The pipeline's selection quality rides on these assignments — a
//! drift here means the learned mapping selection changed, which must
//! never happen silently. If a deliberate change to the training path
//! or the `laptop()` preset moves them, re-pin the constant below after
//! checking the partition still separates the stride classes.

use sdam::{profiling, Experiment};
use sdam_ml::dlkmeans::{cluster_variables_dl, cluster_variables_dl_reference};
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
    let fast = cluster_variables_dl(&traces, bits, 4, &exp.training, 1);
    assert_eq!(
        fast.assignments, GOLDEN,
        "fast DL path drifted from the pinned assignments"
    );
    let reference = cluster_variables_dl_reference(&traces, bits, 4, &exp.training);
    assert_eq!(
        reference.assignments, GOLDEN,
        "reference DL path drifted from the pinned assignments"
    );
}

#[test]
fn threaded_dl_assignments_match_golden() {
    let (traces, exp) = bench_traces();
    let bits = exp.geometry.addr_bits();
    for threads in [2usize, 4] {
        let r = cluster_variables_dl(&traces, bits, 4, &exp.training, threads);
        assert_eq!(
            r.assignments, GOLDEN,
            "threaded ({threads}) DL path drifted from the pinned assignments"
        );
    }
}
