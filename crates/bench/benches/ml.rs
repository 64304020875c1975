//! Before/after benchmark for the DL-assisted clustering rewrite: the
//! batched, deduplicated, early-stopped training loop
//! (`cluster_variables_dl`) against the preserved per-step reference
//! oracle (`cluster_variables_dl_reference`) on the bench workload the
//! staged pipeline uses (datacopy strides [1, 16], tiny scale).
//!
//! Running this bench also records both medians into `BENCH_ml.json` at
//! the workspace root and enforces one guard: the fast path's median
//! selection latency must stay under the 50 ms CI ceiling, or the bench
//! panics. That both paths select the same partition is checked by
//! `tests/dl_golden.rs::seeded_dl_assignments_match_golden`, which pins
//! each of them to the same golden assignments.

use criterion::{black_box, criterion_group, Criterion};
use sdam::{profiling, Experiment};
use sdam_ml::dlkmeans::{cluster_variables_dl, cluster_variables_dl_reference};
use sdam_workloads::datacopy::DataCopy;

const CLUSTERS: usize = 4;
/// Hard ceiling on the fast path's median latency, in milliseconds.
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
    g.bench_function("fast", |b| {
        b.iter(|| {
            black_box(cluster_variables_dl(
                &traces,
                bits,
                CLUSTERS,
                &exp.training,
                1,
            ))
        })
    });
    g.bench_function("reference", |b| {
        b.iter(|| {
            black_box(cluster_variables_dl_reference(
                &traces,
                bits,
                CLUSTERS,
                &exp.training,
            ))
        })
    });
    g.finish();
}

/// Measures both paths, enforces the latency guard, and writes
/// `BENCH_ml.json`.
fn record_ml_times() {
    let (traces, exp) = bench_traces();
    let bits = exp.geometry.addr_bits();

    let fast = cluster_variables_dl(&traces, bits, CLUSTERS, &exp.training, 1);
    let reference = cluster_variables_dl_reference(&traces, bits, CLUSTERS, &exp.training);
    let runs = sdam_bench::bench_samples(9);
    let fast_ms = sdam_bench::median_ms(runs, || {
        cluster_variables_dl(&traces, bits, CLUSTERS, &exp.training, 1)
    });
    let ref_ms = sdam_bench::median_ms(runs, || {
        cluster_variables_dl_reference(&traces, bits, CLUSTERS, &exp.training)
    });
    // The pre-rewrite selection path: the per-step reference loop on the
    // preset laptop() shipped before this optimization (the 473 ms hot
    // spot). Re-measured here so `before` tracks this host, not a
    // number frozen in a doc.
    let old_preset = sdam_ml::TrainingConfig {
        hidden_dim: 24,
        embedding_dim: 12,
        steps: 300,
        seq_len: 16,
        patience: 0,
        min_delta: 0.0,
        ..exp.training.clone()
    };
    let before_ms = sdam_bench::median_ms(runs.min(3), || {
        cluster_variables_dl_reference(&traces, bits, CLUSTERS, &old_preset)
    });
    assert!(
        fast_ms < CEILING_MS,
        "DL selection median {fast_ms:.1} ms breached the {CEILING_MS} ms ceiling"
    );

    let json = format!(
        "{{\n  \"name\": \"dl-clustering-selection-latency\",\n  \
         \"command\": \"cargo bench -p sdam-bench --bench ml\",\n  \
         \"workload\": \"datacopy strides [1, 16], tiny scale, k=4, laptop() training preset\",\n  \
         \"unit\": \"ms_per_selection\",\n  \
         \"before_ms\": {before_ms:.2},\n  \
         \"after_fast_ms\": {fast_ms:.2},\n  \
         \"speedup\": {:.1},\n  \
         \"reference_same_preset_ms\": {ref_ms:.2},\n  \
         \"runs\": {runs},\n  \
         \"train_steps\": {{ \"fast\": {}, \"reference\": {} }},\n  \
         \"ceiling_ms\": {CEILING_MS},\n  \
         \"note\": \"'before' is the pre-rewrite selection path re-measured on this host: the per-step reference loop on the old laptop() preset (hidden=24/emb=12/seq=16/steps=300, no early stop) — the 473 ms hot spot. 'after' is the deduplicated, batched, early-stopped loop on the retuned preset (hidden=12/emb=8/seq=8/steps<=64, patience=3). 'reference_same_preset_ms' isolates the loop rewrite at equal hyper-parameters. The ~5 ms target was not reachable without changing the selected partition — the preset is the smallest whose fast loop still matches the reference partition (tests/dl_golden.rs pins both paths to the same golden assignments). The {CEILING_MS} ms ceiling is asserted by this bench.\"\n}}\n",
        before_ms / fast_ms,
        fast.train_steps,
        reference.train_steps,
    );
    sdam_bench::write_bench_json("BENCH_ml.json", &json);
}

criterion_group!(benches, bench_dl_select);

fn main() {
    record_ml_times();
    benches();
}
