//! Criterion benches for the end-to-end pipeline: a full
//! profile → select → allocate → execute run at tiny scale, per
//! configuration family, plus a per-stage breakdown of the staged
//! pipeline.
//!
//! Running this bench also records one staged run's [`PhaseTimes`] per
//! configuration into `BENCH_stages.json` at the workspace root, so the
//! per-stage cost split is tracked alongside the criterion numbers.

use criterion::{black_box, criterion_group, Criterion};
use sdam::stage::{standard_stages, RunContext, StageCache};
use sdam::{pipeline, profiling, Experiment, SystemConfig};
use sdam_workloads::datacopy::DataCopy;

fn bench_end_to_end(c: &mut Criterion) {
    let exp = Experiment::quick();
    let w = DataCopy::new(vec![1, 16]);
    let mut g = c.benchmark_group("end_to_end_datacopy");
    g.sample_size(10);
    for config in [
        SystemConfig::BsDm,
        SystemConfig::BsHm,
        SystemConfig::SdmBsm,
        SystemConfig::SdmBsmMl { clusters: 4 },
    ] {
        g.bench_function(config.to_string(), |b| {
            b.iter(|| black_box(pipeline::try_run(&w, config, &exp).unwrap()))
        });
    }
    g.finish();
}

fn bench_profiling_pass(c: &mut Criterion) {
    let exp = Experiment::quick();
    let w = DataCopy::new(vec![1, 16]);
    let mut g = c.benchmark_group("profiling");
    g.sample_size(10);
    g.bench_function("two_pass_profile", |b| {
        b.iter(|| black_box(profiling::try_profile_on_baseline(&w, &exp).unwrap()))
    });
    g.finish();
}

/// Per-stage cost of the staged pipeline, with a warm artifact cache
/// (steady state of a sweep): profile/select measure the cache-hit
/// path, alloc/execute the real per-run work.
fn bench_stage_breakdown(c: &mut Criterion) {
    let exp = Experiment::quick();
    let w = DataCopy::new(vec![1, 16]);
    let config = SystemConfig::SdmBsmMl { clusters: 4 };
    let cache = StageCache::new();
    let stages = standard_stages();
    {
        // Warm the cache so profile/select measure the steady state.
        let mut ctx = RunContext::new(&w, config, &exp, &cache);
        for s in &stages {
            s.run(&mut ctx).expect("warm-up run succeeds");
        }
    }
    let mut g = c.benchmark_group("pipeline_stages");
    g.sample_size(10);
    for (i, stage) in stages.iter().enumerate() {
        g.bench_function(stage.name(), |b| {
            b.iter_batched(
                || {
                    let mut ctx = RunContext::new(&w, config, &exp, &cache);
                    for s in &stages[..i] {
                        s.run(&mut ctx).expect("prefix stages succeed");
                    }
                    ctx
                },
                |mut ctx| {
                    stage.run(&mut ctx).expect("stage succeeds");
                    black_box(ctx.phases)
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

/// Runs the staged pipeline once per configuration and writes the
/// recorded per-stage [`sdam::PhaseTimes`] to `BENCH_stages.json` at
/// the workspace root.
fn record_stage_times() {
    let exp = Experiment::quick();
    let w = DataCopy::new(vec![1, 16]);
    let cache = StageCache::new();
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    let mut rows = Vec::new();
    for config in [
        SystemConfig::BsDm,
        SystemConfig::BsBsm,
        SystemConfig::BsHm,
        SystemConfig::SdmBsm,
        SystemConfig::SdmBsmMl { clusters: 4 },
        SystemConfig::SdmBsmDl { clusters: 4 },
    ] {
        let r = match pipeline::try_run_with_cache(&w, config, &exp, None, &cache) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("stage-time recording failed for {config}: {e}");
                return;
            }
        };
        let p = r.phases;
        rows.push(format!(
            "    {{ \"config\": \"{config}\", \"profile_ms\": {:.3}, \"select_ms\": {:.3}, \
             \"materialize_ms\": {:.3}, \"execute_ms\": {:.3}, \"total_ms\": {:.3} }}",
            ms(p.profile),
            ms(p.select),
            ms(p.materialize),
            ms(p.execute),
            ms(p.total()),
        ));
    }
    let json = format!
(
        "{{\n  \"name\": \"staged-pipeline-phase-times\",\n  \"command\": \"cargo bench -p sdam-bench --bench pipeline\",\n  \"workload\": \"datacopy strides [1, 16], tiny scale\",\n  \"note\": \"one staged run per configuration on a shared StageCache: the first profiled configuration pays the profiling pass, later ones hit the cache (profile_ms ~ 0)\",\n  \"cache\": {{ \"profile_misses\": {}, \"profile_hits\": {}, \"selection_misses\": {}, \"selection_hits\": {}, \"embedding_misses\": {}, \"embedding_hits\": {} }},\n  \"stage_times\": [\n{}\n  ]\n}}\n",
        cache.profile_misses(),
        cache.profile_hits(),
        cache.selection_misses(),
        cache.selection_hits(),
        cache.embedding_misses(),
        cache.embedding_hits(),
        rows.join(",\n"),
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_stages.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("per-stage phase times written to {}", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

criterion_group!(
    benches,
    bench_end_to_end,
    bench_profiling_pass,
    bench_stage_breakdown
);

fn main() {
    record_stage_times();
    benches();
}
