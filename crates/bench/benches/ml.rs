//! Latency benchmark for the DL-assisted clustering
//! (`cluster_variables_dl`: deduplicated windows, weighted round-robin
//! mini-batches on the per-step LSTM kernels, early stopping) on the
//! bench workload the staged pipeline uses (datacopy strides [1, 16],
//! tiny scale).
//!
//! Running this bench also records the median into `BENCH_ml.json` at
//! the workspace root and enforces one guard: the median selection
//! latency must stay under the 50 ms CI ceiling, or the bench panics.
//! The selected partition is pinned by
//! `tests/dl_golden.rs::seeded_dl_assignments_match_golden`.

use criterion::{black_box, criterion_group, Criterion};
use sdam::{profiling, Experiment};
use sdam_ml::dlkmeans::cluster_variables_dl;
use sdam_workloads::datacopy::DataCopy;

const CLUSTERS: usize = 4;
/// Hard ceiling on the median selection latency, in milliseconds.
const CEILING_MS: f64 = 50.0;

/// The per-variable physical-address traces the DL selector trains on.
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

fn bench_dl_select(c: &mut Criterion) {
    let (traces, exp) = bench_traces();
    let bits = exp.geometry.addr_bits();
    let mut g = c.benchmark_group("dl_select");
    g.sample_size(10);
    g.bench_function("laptop", |b| {
        b.iter(|| black_box(cluster_variables_dl(&traces, bits, CLUSTERS, &exp.training)))
    });
    g.finish();
}

/// Measures the selection, enforces the latency guard, and writes
/// `BENCH_ml.json`.
fn record_ml_times() {
    let (traces, exp) = bench_traces();
    let bits = exp.geometry.addr_bits();

    let select = || cluster_variables_dl(&traces, bits, CLUSTERS, &exp.training).unwrap();
    let train_steps = select().train_steps;
    let runs = sdam_bench::bench_samples(9);
    let median_ms = sdam_bench::median_ms(runs, select);
    assert!(
        median_ms < CEILING_MS,
        "DL selection median {median_ms:.1} ms breached the {CEILING_MS} ms ceiling"
    );

    let json = format!(
        "{{\n  \"name\": \"dl-clustering-selection-latency\",\n  \
         \"command\": \"cargo bench -p sdam-bench --bench ml\",\n  \
         \"workload\": \"datacopy strides [1, 16], tiny scale, k=4, laptop() training preset\",\n  \
         \"unit\": \"ms_per_selection\",\n  \
         \"median_ms\": {median_ms:.2},\n  \
         \"runs\": {runs},\n  \
         \"train_steps\": {train_steps},\n  \
         \"ceiling_ms\": {CEILING_MS},\n  \
         \"note\": \"One DL selection: deduplicated windows, weighted round-robin mini-batches of 4 on the per-step LSTM kernels, early stopping (laptop(): hidden=12/emb=8/seq=8/steps<=64, patience=3). tests/dl_golden.rs pins the selected partition. The {CEILING_MS} ms ceiling is asserted by this bench.\"\n}}\n",
    );
    sdam_bench::write_bench_json("BENCH_ml.json", &json);
}

criterion_group!(benches, bench_dl_select);

fn main() {
    record_ml_times();
    benches();
}
