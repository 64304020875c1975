//! Before/after benchmark for the DL-assisted clustering rewrite: the
//! batched, deduplicated, early-stopped training loop
//! (`cluster_variables_dl`) against the preserved per-step reference
//! oracle (`cluster_variables_dl_reference`) on the bench workload the
//! staged pipeline uses (datacopy strides [1, 16], tiny scale).
//!
//! Running this bench also records both medians into `BENCH_ml.json` at
//! the workspace root and enforces the two acceptance guards:
//!
//! * the fast path must select the **same cluster partition** (up to
//!   cluster relabeling) as the reference loop, and
//! * its median selection latency must stay under the 50 ms CI
//!   ceiling.
//!
//! Either violation panics, so the CI bench-smoke step fails loudly.

use std::time::Instant;

use criterion::{black_box, criterion_group, Criterion};
use sdam::{profiling, Experiment};
use sdam_ml::dlkmeans::{cluster_variables_dl, cluster_variables_dl_reference, DlClustering};
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

/// Relabels cluster ids in first-appearance order so two clusterings
/// compare equal iff they induce the same partition.
fn canonical(assignments: &[usize]) -> Vec<usize> {
    let mut map = std::collections::HashMap::new();
    assignments
        .iter()
        .map(|&c| {
            let next = map.len();
            *map.entry(c).or_insert(next)
        })
        .collect()
}

fn bench_dl_select(c: &mut Criterion) {
    let (traces, exp) = bench_traces();
    let bits = exp.geometry.addr_bits();
    let mut g = c.benchmark_group("dl_select");
    g.sample_size(10);
    g.bench_function("fast", |b| {
        b.iter(|| black_box(cluster_variables_dl(&traces, bits, CLUSTERS, &exp.training)))
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

/// Median wall-clock of `runs` calls to `f`, in milliseconds.
fn median_ms(runs: usize, mut f: impl FnMut() -> DlClustering) -> f64 {
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    samples[samples.len() / 2]
}

/// Measures both paths, enforces the partition-equality and latency
/// guards, and writes `BENCH_ml.json`.
fn record_ml_times() {
    let (traces, exp) = bench_traces();
    let bits = exp.geometry.addr_bits();

    let fast = cluster_variables_dl(&traces, bits, CLUSTERS, &exp.training);
    let reference = cluster_variables_dl_reference(&traces, bits, CLUSTERS, &exp.training);
    assert_eq!(
        canonical(&fast.assignments),
        canonical(&reference.assignments),
        "fast DL path selected a different cluster partition than the reference \
         (fast {:?} vs reference {:?})",
        fast.assignments,
        reference.assignments,
    );

    // Honor the CI smoke knob the criterion shim uses, so the smoke run
    // stays cheap while a real bench run gets stable medians.
    let runs: usize = std::env::var("SDAM_BENCH_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(9)
        .max(1);
    let fast_ms = median_ms(runs, || {
        cluster_variables_dl(&traces, bits, CLUSTERS, &exp.training)
    });
    let ref_ms = median_ms(runs, || {
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
    let before_ms = median_ms(runs.min(3), || {
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
         \"partition_identical\": true,\n  \
         \"ceiling_ms\": {CEILING_MS},\n  \
         \"note\": \"'before' is the pre-rewrite selection path re-measured on this host: the per-step reference loop on the old laptop() preset (hidden=24/emb=12/seq=16/steps=300, no early stop) — the 473 ms hot spot. 'after' is the deduplicated, batched, early-stopped loop on the retuned preset (hidden=12/emb=8/seq=8/steps<=64, patience=3). 'reference_same_preset_ms' isolates the loop rewrite at equal hyper-parameters. The ~5 ms target was not reachable without changing the selected partition — the preset is the smallest whose fast loop still matches the reference partition; both guards (partition equality, {CEILING_MS} ms ceiling) are asserted by this bench.\"\n}}\n",
        before_ms / fast_ms,
        fast.train_steps,
        reference.train_steps,
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_ml.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("DL selection medians written to {}", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

criterion_group!(benches, bench_dl_select);

fn main() {
    record_ml_times();
    benches();
}
