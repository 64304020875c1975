//! Reverse-engineering bench: probes-to-recovery over the seeded
//! mapping suite.
//!
//! The figure of merit is *probes per recovered bit* — how many timed
//! accesses the black-box agent needs before the mapping function is
//! pinned down exactly. Running this bench sweeps every seeded target
//! (direct-mapped fold, global channel hashes, SDAM AMU windows) and
//! records per-target probe counts, exactness and validation
//! confidence against the committed CI ceilings into
//! `BENCH_probe.json`. It asserts nothing: exact recovery within the
//! ceilings at confidence 1.0 is checked by
//! `tests/probe_suite.rs::every_seeded_mapping_is_recovered_exactly_within_the_ceiling`.

use std::time::Instant;

use criterion::{black_box, criterion_group, Criterion};
use sdam::probing::seeded_suite;

struct Row {
    target: &'static str,
    function: String,
    probes: u64,
    ceiling: u64,
    bits: u32,
    confidence: f64,
    hit: u64,
    closed: u64,
    separable: bool,
    exact: bool,
    secs: f64,
}

/// Runs the sweep and writes `BENCH_probe.json`.
fn record_probe() {
    let runs = sdam_bench::bench_samples(3);

    let suite = seeded_suite().expect("suite definition must compile");
    let mut rows = Vec::with_capacity(suite.len());
    for entry in &suite {
        let start = Instant::now();
        let mut report = None;
        for _ in 0..runs {
            report = Some(entry.run().expect("seeded recovery must succeed"));
        }
        let secs = start.elapsed().as_secs_f64() / runs as f64;
        let report = report.expect("runs >= 1");
        for f in &report.functions {
            rows.push(Row {
                target: entry.name,
                function: f.function.clone(),
                probes: f.probes,
                ceiling: entry.probe_ceiling(),
                bits: f.bits,
                confidence: f.confidence,
                hit: report.calibration.hit_latency(),
                closed: report.calibration.closed_latency(),
                separable: report.calibration.separable(),
                exact: f.exact == Some(true),
                secs,
            });
        }
    }

    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"target\": \"{}\", \"function\": \"{}\", \"probes\": {}, \
                 \"ceiling\": {}, \"bits\": {}, \"probes_per_bit\": {:.1}, \
                 \"confidence\": {:.4}, \"hit\": {}, \"closed\": {}, \
                 \"separable\": {}, \"exact\": {}, \"secs\": {:.4}}}",
                r.target,
                r.function,
                r.probes,
                r.ceiling,
                r.bits,
                r.probes as f64 / r.bits.max(1) as f64,
                r.confidence,
                r.hit,
                r.closed,
                r.separable,
                r.exact,
                r.secs,
            )
        })
        .collect();
    let total: u64 = rows.iter().map(|r| r.probes).sum();

    let json = format!(
        "{{\n  \"name\": \"mapping-recovery\",\n  \
         \"command\": \"cargo bench -p sdam-bench --bench probe\",\n  \
         \"workload\": \"black-box reverse engineering of the seeded mapping suite (hbm2_8gb, refresh on, 21-bit chunks) from ProbeTarget::access latencies only\",\n  \
         \"unit\": \"probes to exact recovery (lower is better)\",\n  \
         \"targets\": [\n{}\n  ],\n  \
         \"total_probes\": {total},\n  \
         \"runs\": {runs},\n  \
         \"note\": \"The agent sees one opaque trait method returning a latency; it classifies pair experiments with an online-trained calibrator, solves channel-hash source sets by GF(2) elimination, and labels AMU window bits by single-flip and anchor-pair probing. 'exact' compares each recovery against privileged ground truth (translate_under / canonical gauge) after the fact; tests/probe_suite.rs asserts every recovery exact, under its committed ceiling, at confidence 1.0.\"\n}}\n",
        body.join(",\n"),
    );
    sdam_bench::write_bench_json("BENCH_probe.json", &json);
}

fn bench_probe(c: &mut Criterion) {
    let suite = seeded_suite().expect("suite definition must compile");
    let fold = suite.iter().find(|e| e.name == "dm-identity").unwrap();
    let window = suite.iter().find(|e| e.name == "sdam-reverse").unwrap();
    let mut g = c.benchmark_group("probe");
    g.sample_size(10);
    g.bench_function("recover_bank_fold", |b| {
        b.iter(|| black_box(fold.run().unwrap()))
    });
    g.bench_function("recover_amu_window", |b| {
        b.iter(|| black_box(window.run().unwrap()))
    });
    g.finish();
}

criterion_group!(benches, bench_probe);

fn main() {
    record_probe();
    benches();
}
