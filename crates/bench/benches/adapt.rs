//! Break-even benchmark for the adaptive remapping controller: the
//! phase-change stride workload of `examples/adaptive.rs` swept over
//! switch points, adaptive against both static mappings.
//!
//! Running this bench records the break-even table (simulated cycles
//! per switch point — deterministic, so the single run *is* the
//! median) plus wall-clock medians of the adaptive and static runs into
//! `BENCH_adapt.json`, and enforces the acceptance guards:
//!
//! * on the mid-run phase change the adaptive driver's end-to-end
//!   cycles — migration traffic included — must beat the best static
//!   mapping;
//! * an observe-only controller (`max_migrations: 0`) must leave the
//!   report bit-identical to `Machine::run` outside its `adapt` section.
//!
//! Any violation panics, so the CI adapt-bench step fails loudly.

use std::time::Instant;

use criterion::{black_box, criterion_group, Criterion};
use sdam_hbm::Geometry;
use sdam_mapping::descriptor::MappingDescriptor;
use sdam_mapping::{Cmt, MappingId};
use sdam_sys::{AdaptConfig, ExecutionReport, Machine, MachineConfig, MappingEngine};
use sdam_trace::Trace;
use sdam_workloads::phased::{Phased, StrideLoop};
use sdam_workloads::{Scale, Workload};

/// Footprint both phases wrap within: two 2 MB chunks.
const REGION: u64 = 4 << 20;
const LANES: u16 = 4;
const CHUNK_BITS: u32 = 21;
const ACCESSES: usize = 1 << 17;
/// The sweep's primary switch point (mid-run phase change).
const SWITCH: f64 = 0.5;

fn fresh_engine(geom: Geometry) -> MappingEngine {
    let mut cmt = Cmt::new(geom.addr_bits(), CHUNK_BITS);
    let perm = MappingDescriptor::new(geom)
        .channel_bits([11, 12, 13, 14, 15])
        .compile_windowed(CHUNK_BITS)
        .expect("the declared channel bits fit the chunk window");
    cmt.register(MappingId(1), &perm);
    MappingEngine::Chunked(cmt)
}

fn static_engine(geom: Geometry, id: MappingId) -> MappingEngine {
    let mut engine = fresh_engine(geom);
    let cmt = engine.as_chunked_mut().expect("engine is chunked");
    for chunk in 0..REGION >> CHUNK_BITS {
        cmt.assign_chunk(chunk, id).expect("chunk is in range");
    }
    engine
}

fn phase_trace(switch: f64) -> Trace {
    Phased::new(
        Box::new(StrideLoop::new(1, REGION, LANES)),
        Box::new(StrideLoop::new(32, REGION, LANES)),
        switch,
    )
    .generate(Scale {
        n: 1 << 14,
        accesses: ACCESSES,
        seed: 1,
    })
}

fn run_static(geom: Geometry, trace: &Trace, id: MappingId) -> ExecutionReport {
    let engine = static_engine(geom, id);
    Machine::new(MachineConfig::accelerator(), geom).run(trace, &engine)
}

fn run_adaptive(geom: Geometry, trace: &Trace) -> ExecutionReport {
    let mut engine = fresh_engine(geom);
    Machine::new(MachineConfig::accelerator(), geom).run_adaptive(
        trace,
        &mut engine,
        &AdaptConfig::default(),
    )
}

fn bench_adapt(c: &mut Criterion) {
    let geom = Geometry::hbm2_8gb();
    let trace = phase_trace(SWITCH);
    let mut g = c.benchmark_group("adapt");
    g.sample_size(10);
    g.bench_function("adaptive_phase_change_128k", |b| {
        b.iter(|| black_box(run_adaptive(geom, &trace)))
    });
    g.bench_function("static_identity_phase_change_128k", |b| {
        b.iter(|| black_box(run_static(geom, &trace, MappingId(0))))
    });
    g.finish();
}

/// Median wall-clock of `runs` calls to `f`, in milliseconds.
fn median_ms(runs: usize, mut f: impl FnMut() -> ExecutionReport) -> f64 {
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

/// Runs the break-even sweep, enforces the two guards, and writes
/// `BENCH_adapt.json`.
fn record_break_even() {
    let geom = Geometry::hbm2_8gb();

    // Guard 1 (and the sweep): mid-run phase change — adaptive must
    // beat the best static end to end, migration cost included.
    let mut rows = Vec::new();
    for switch in [0.1, 0.25, 0.5, 0.75, 0.9] {
        let trace = phase_trace(switch);
        let identity = run_static(geom, &trace, MappingId(0));
        let tuned = run_static(geom, &trace, MappingId(1));
        let adaptive = run_adaptive(geom, &trace);
        let best_static = identity.cycles.min(tuned.cycles);
        if (switch - SWITCH).abs() < f64::EPSILON {
            assert!(
                adaptive.cycles < best_static,
                "adaptive ({}) must beat the best static mapping ({best_static}) \
                 on the mid-run phase change",
                adaptive.cycles
            );
        }
        rows.push(format!(
            "    {{\"switch\": {switch}, \"identity_cycles\": {}, \"tuned_cycles\": {}, \
             \"best_static_cycles\": {best_static}, \"adaptive_cycles\": {}, \
             \"migrations\": {}, \"migration_clocks\": {}, \"adaptive_wins\": {}}}",
            identity.cycles,
            tuned.cycles,
            adaptive.cycles,
            adaptive.adapt.migrations,
            adaptive.adapt.migration_clocks,
            adaptive.cycles < best_static,
        ));
    }

    // Guard 2: observing without migrating changes nothing but the
    // adapt section.
    let trace = phase_trace(SWITCH);
    let mut m = Machine::new(MachineConfig::accelerator(), geom);
    let plain = m.run(&trace, &fresh_engine(geom));
    let observe_only = AdaptConfig {
        max_migrations: 0,
        ..AdaptConfig::default()
    };
    let observed = m.run_adaptive(&trace, &mut fresh_engine(geom), &observe_only);
    assert!(
        observed.adapt.windows > 0,
        "the observe-only controller saw no window"
    );
    assert_eq!(
        plain,
        ExecutionReport {
            adapt: Default::default(),
            ..observed
        },
        "the observe-only adaptive run diverged from Machine::run"
    );

    let runs: usize = std::env::var("SDAM_BENCH_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(9)
        .max(1);
    for _ in 0..2 {
        black_box(run_adaptive(geom, &trace));
    }
    let adaptive_ms = median_ms(runs, || run_adaptive(geom, &trace));
    let static_ms = median_ms(runs, || run_static(geom, &trace, MappingId(0)));

    let json = format!(
        "{{\n  \"name\": \"adaptive-remapping-break-even\",\n  \
         \"command\": \"cargo bench -p sdam-bench --bench adapt\",\n  \
         \"workload\": \"phased stride-1 -> stride-32 over 4 MB, 4 lanes, {ACCESSES} accesses, accelerator machine\",\n  \
         \"unit\": \"simulated cycles (deterministic) and host ms\",\n  \
         \"break_even_table\": [\n{}\n  ],\n  \
         \"adaptive_wall_ms\": {adaptive_ms:.3},\n  \
         \"static_wall_ms\": {static_ms:.3},\n  \
         \"runs\": {runs},\n  \
         \"observe_only_bit_identical\": true,\n  \
         \"note\": \"Cycle counts are simulation facts and fully deterministic, so one run per switch point is the median. The adaptive driver starts on the boot identity mapping, detects the stride-32 phase pinning both hot chunks to one channel (sustained conflict rate over few channels), and live-migrates them to the declared stride-32 mapping; its cycles include the detection windows and the injected migration traffic. 'adaptive_wins' flips at the break-even switch points: a very early or very late phase change leaves too little mismatched tail to amortize the migration. Both guards are asserted by this bench: adaptive beats the best static mapping at switch 0.5, and an observe-only controller (max_migrations 0) leaves the report bit-identical to Machine::run outside its adapt section.\"\n}}\n",
        rows.join(",\n"),
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_adapt.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("adaptive break-even table written to {}", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

criterion_group!(benches, bench_adapt);

fn main() {
    record_break_even();
    benches();
}
