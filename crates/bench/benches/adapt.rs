//! Break-even benchmark for the adaptive remapping controller: the
//! phase-change stride workload of `examples/adaptive.rs` swept over
//! switch points, adaptive against both static mappings.
//!
//! Running this bench records the break-even table (simulated cycles
//! per switch point — deterministic, so the single run *is* the
//! median) plus wall-clock medians of the adaptive and static runs into
//! `BENCH_adapt.json`. It asserts nothing: every cycle count in the
//! table, and adaptive beating the best static mapping exactly at
//! switch 0.5 and 0.75, is pinned by
//! `tests/determinism.rs::adaptive_break_even_is_pinned`; the
//! observe-only identity on this input by
//! `adaptive_observe_only_is_bit_identical_to_plain_run`.

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

/// Runs the break-even sweep, times the mid-run phase change, and
/// writes `BENCH_adapt.json`.
fn record_break_even() {
    let geom = Geometry::hbm2_8gb();

    let mut rows = Vec::new();
    for switch in [0.1, 0.25, 0.5, 0.75, 0.9] {
        let trace = phase_trace(switch);
        let identity = run_static(geom, &trace, MappingId(0));
        let tuned = run_static(geom, &trace, MappingId(1));
        let adaptive = run_adaptive(geom, &trace);
        let best_static = identity.cycles.min(tuned.cycles);
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

    let trace = phase_trace(SWITCH);
    let runs = sdam_bench::bench_samples(9);
    for _ in 0..2 {
        black_box(run_adaptive(geom, &trace));
    }
    let adaptive_ms = sdam_bench::median_ms(runs, || run_adaptive(geom, &trace));
    let static_ms = sdam_bench::median_ms(runs, || run_static(geom, &trace, MappingId(0)));

    let json = format!(
        "{{\n  \"name\": \"adaptive-remapping-break-even\",\n  \
         \"command\": \"cargo bench -p sdam-bench --bench adapt\",\n  \
         \"workload\": \"phased stride-1 -> stride-32 over 4 MB, 4 lanes, {ACCESSES} accesses, accelerator machine\",\n  \
         \"unit\": \"simulated cycles (deterministic) and host ms\",\n  \
         \"break_even_table\": [\n{}\n  ],\n  \
         \"adaptive_wall_ms\": {adaptive_ms:.3},\n  \
         \"static_wall_ms\": {static_ms:.3},\n  \
         \"runs\": {runs},\n  \
         \"note\": \"Cycle counts are simulation facts and fully deterministic, so one run per switch point is the median. The adaptive driver starts on the boot identity mapping, detects the stride-32 phase pinning both hot chunks to one channel (sustained conflict rate over few channels), and live-migrates them to the declared stride-32 mapping; its cycles include the detection windows and the injected migration traffic. 'adaptive_wins' flips at the break-even switch points: a very early or very late phase change leaves too little mismatched tail to amortize the migration. tests/determinism.rs pins every cycle count here (adaptive_break_even_is_pinned, which also asserts adaptive_wins exactly at 0.5 and 0.75) and checks that an observe-only controller (max_migrations 0) leaves this input's report bit-identical to Machine::run outside its adapt section.\"\n}}\n",
        rows.join(",\n"),
    );
    sdam_bench::write_bench_json("BENCH_adapt.json", &json);
}

criterion_group!(benches, bench_adapt);

fn main() {
    record_break_even();
    benches();
}
