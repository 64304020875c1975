//! The end-to-end evaluation pipeline:
//! profile → select → allocate → execute → report.
//!
//! Every entry point is fallible and returns [`SdamError`]; the figure
//! binaries, which want fail-fast behaviour, route errors through one
//! `exit_on_err`. All of them drive the composable stages of
//! [`crate::stage`]; the `*_with_cache` variants accept an external
//! [`StageCache`] so a harness can reuse profiles and selections across
//! calls.

use std::time::Instant;

use sdam_sys::Machine;
use sdam_trace::VariableId;
use sdam_workloads::Workload;

use crate::config::{Experiment, SystemConfig};
use crate::error::SdamError;
use crate::par::par_map_indexed;
use crate::profiling::{self, ProfileData};
use crate::report::{Comparison, PhaseTimes, RunResult};
use crate::stage::{
    profile_key, run_stages, selection_key, standard_stages, ProfileHandle, RunContext, StageCache,
};
use crate::system::SdamSystem;

/// Runs one workload under one configuration.
///
/// Profiling (when the configuration needs it) uses the *training*
/// input (`exp.profile_seed`); execution uses the evaluation input
/// (`exp.scale.seed`) — the paper's cross-validation protocol.
///
/// # Errors
///
/// Any [`SdamError`] the stages surface — an invalid experiment or
/// configuration, exhausted physical memory, an empty profile.
pub fn try_run(
    workload: &dyn Workload,
    config: SystemConfig,
    exp: &Experiment,
) -> Result<RunResult, SdamError> {
    let cache = StageCache::new();
    try_run_with_cache(workload, config, exp, None, &cache)
}

/// Like [`try_run`], but with an externally supplied profile (lets
/// callers profile once and evaluate many configurations, and lets the
/// BS+BSM baseline use a workload-mix profile as the paper does).
///
/// # Errors
///
/// As [`try_run`].
pub fn try_run_with_profile(
    workload: &dyn Workload,
    config: SystemConfig,
    exp: &Experiment,
    data: Option<&ProfileData>,
) -> Result<RunResult, SdamError> {
    let cache = StageCache::new();
    try_run_with_cache(workload, config, exp, data, &cache)
}

/// The full staged run with an explicit artifact cache: seeds a
/// [`RunContext`] (borrowing `data` when supplied), drives the standard
/// stages, and returns the assembled result.
///
/// # Errors
///
/// As [`try_run`].
pub fn try_run_with_cache(
    workload: &dyn Workload,
    config: SystemConfig,
    exp: &Experiment,
    data: Option<&ProfileData>,
    cache: &StageCache,
) -> Result<RunResult, SdamError> {
    exp.try_validate()?;
    let mut ctx = RunContext::new(workload, config, exp, cache);
    if let Some(d) = data {
        ctx.profile = Some(ProfileHandle::Borrowed(d));
    }
    run_stages(&mut ctx, &standard_stages())?;
    let Some(result) = ctx.result.take() else {
        panic!("ReportStage did not produce a result");
    };
    Ok(result)
}

/// Compares a workload across configurations; the BS+DM baseline is
/// prepended when absent. Profiling runs once and is shared through the
/// stage cache.
///
/// The per-configuration runs are independent given the shared profile,
/// so they fan out across `exp.parallelism` worker threads; results come
/// back in lineup order and are bit-identical to a serial sweep.
///
/// # Errors
///
/// As [`try_run`].
pub fn try_compare(
    workload: &dyn Workload,
    configs: &[SystemConfig],
    exp: &Experiment,
) -> Result<Comparison, SdamError> {
    let cache = StageCache::new();
    try_compare_with_cache(workload, configs, exp, &cache)
}

/// [`try_compare`] with an external artifact cache, so a harness
/// sweeping many workloads × configurations (the repro binaries) can
/// reuse profiles and selections across calls.
///
/// The workload's profile is warmed into the cache *before* the
/// per-configuration fan-out, so exactly one profiling pass runs per
/// workload no matter how many configurations need it (observable via
/// [`StageCache::profile_misses`]).
///
/// # Errors
///
/// As [`try_run`].
pub fn try_compare_with_cache(
    workload: &dyn Workload,
    configs: &[SystemConfig],
    exp: &Experiment,
    cache: &StageCache,
) -> Result<Comparison, SdamError> {
    exp.try_validate()?;
    let mut lineup = Vec::new();
    if !configs.contains(&SystemConfig::BsDm) {
        lineup.push(SystemConfig::BsDm);
    }
    lineup.extend_from_slice(configs);
    if lineup.iter().any(|c| c.needs_profiling()) {
        cache.profile_or_try(&profile_key(workload, exp), || {
            profiling::try_profile_on_baseline(workload, exp)
        })?;
    }
    let results = par_map_indexed(exp.parallelism.threads(), lineup, |_, c| {
        try_run_with_cache(workload, c, exp, None, cache)
    });
    let results: Result<Vec<RunResult>, SdamError> = results.into_iter().collect();
    let results = results?;
    // Snapshots merge in lineup order — the fan-out already returns
    // results in that order, so the merged registry (event trace
    // included) is bit-identical to a serial sweep.
    let metrics = crate::metrics::merge_sweep_metrics(&results, cache);
    Ok(Comparison {
        workload: workload.name().to_string(),
        results,
        metrics,
    })
}

/// Runs several workloads *co-resident*: all are materialized into one
/// shared [`SdamSystem`] (one physical memory, one CMT — the paper's
/// multi-process reality) and their traces interleave across the
/// machine's cores, one workload per core group. Returns the combined
/// execution report per configuration.
///
/// Under SDAM each workload's variables get their own mappings; under
/// the global baselines one mapping must serve the whole mix — the
/// system-level version of the paper's Observation 2.
///
/// # Errors
///
/// [`SdamError::NoWorkloads`] for an empty workload list, plus anything
/// [`try_run`] can return.
pub fn try_run_corun(
    workloads: &[&dyn Workload],
    config: SystemConfig,
    exp: &Experiment,
) -> Result<RunResult, SdamError> {
    let cache = StageCache::new();
    try_run_corun_with_cache(workloads, config, exp, &cache)
}

/// [`try_run_corun`] with an external artifact cache: per-workload
/// profiles and the merged-mix selection are keyed and reused, so a
/// harness sweeping configurations over the same mix profiles each
/// workload once.
///
/// # Errors
///
/// As [`try_run_corun`].
pub fn try_run_corun_with_cache(
    workloads: &[&dyn Workload],
    config: SystemConfig,
    exp: &Experiment,
    cache: &StageCache,
) -> Result<RunResult, SdamError> {
    if workloads.is_empty() {
        return Err(SdamError::NoWorkloads);
    }
    exp.try_validate()?;

    let mut phases = PhaseTimes::default();

    // Profile each workload independently (per-process profiling, as the
    // paper's offline flow does), then merge the profiles: variables are
    // renumbered per workload so ids never collide. The per-workload
    // profiling runs are independent, so they fan out across the
    // experiment's thread budget (merge order stays the input order).
    let t0 = Instant::now();
    let keys: Vec<String> = workloads.iter().map(|w| profile_key(*w, exp)).collect();
    let profiles = par_map_indexed(exp.parallelism.threads(), workloads.to_vec(), |i, w| {
        cache.profile_or_try(&keys[i], || profiling::try_profile_on_baseline(w, exp))
    });
    let profiles: Vec<std::sync::Arc<ProfileData>> = profiles
        .into_iter()
        .collect::<Result<Vec<_>, SdamError>>()?;
    phases.profile = t0.elapsed();

    // Renumber variables: workload i's variable v becomes
    // v + i * 100_000 (traces never have that many variables).
    const STRIDE: u32 = 100_000;
    let mut merged = profiling::empty_profile(exp);
    let mut agg_members: Vec<&sdam_mapping::BitFlipRateVector> = Vec::new();
    for (i, p) in profiles.iter().enumerate() {
        for &v in &p.major {
            let nv = VariableId(v.0 + i as u32 * STRIDE);
            merged.major.push(nv);
            merged.bfrvs.insert(nv, p.bfrvs[&v].clone());
            merged.pa_streams.insert(nv, p.pa_streams[&v].clone());
        }
        agg_members.push(&p.aggregate);
    }
    merged.aggregate = sdam_mapping::BitFlipRateVector::mean(agg_members);

    let t0 = Instant::now();
    let mix_pkey = format!("corun[{}]", keys.join("+"));
    let mix_key = selection_key(&mix_pkey, config, exp);
    let out = cache.selection_or_try(&mix_key, || {
        profiling::try_select_mappings_cached(config, &merged, exp, cache, &mix_pkey)
    })?;
    phases.select = t0.elapsed();

    // Materialize all workloads into ONE system; each runs in its own
    // process, its trace renumbered and pinned to its core set. Trace
    // generation is per-workload independent and fans out; allocation
    // into the shared system below stays serial (one physical memory).
    let t0 = Instant::now();
    let eval: Vec<sdam_trace::Trace> =
        par_map_indexed(exp.parallelism.threads(), workloads.to_vec(), |i, w| {
            w.generate(exp.scale)
                .iter()
                .map(|a| sdam_trace::MemAccess {
                    variable: VariableId(a.variable.0 + i as u32 * STRIDE),
                    thread: sdam_trace::ThreadId(
                        (a.thread.0 as usize % exp.machine.num_cores + i * exp.machine.num_cores)
                            as u16,
                    ),
                    ..*a
                })
                .collect()
        });

    let mut sys = SdamSystem::try_new(exp.geometry, exp.chunk_bits)?;
    let var_mapping = out.selection.install(&mut sys)?;
    let mut pa_traces = Vec::new();
    for (i, t) in eval.iter().enumerate() {
        let pid = if i == 0 {
            crate::ProcessId(0)
        } else {
            sys.spawn_process()
        };
        pa_traces.push(profiling::try_materialize_in(
            t,
            &mut sys,
            pid,
            &var_mapping,
        )?);
    }
    let combined = sdam_trace::gen::interleave_round_robin(pa_traces);
    phases.materialize = t0.elapsed();

    let engine = out.selection.engine(&sys);
    // The machine grows to host all workloads' cores.
    let mut machine_cfg = exp.machine;
    machine_cfg.num_cores *= workloads.len();
    let mut machine = Machine::try_new(machine_cfg, exp.geometry)?.with_timing(exp.timing);
    let t0 = Instant::now();
    let report = machine.run(&combined, &engine);
    phases.execute = t0.elapsed();
    let metrics = crate::metrics::collect_run_metrics(&report, Some(&sys), &phases);
    Ok(RunResult {
        config,
        report,
        learning_time: Some(out.learning_time),
        phases,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdam_workloads::datacopy::DataCopy;

    #[test]
    fn sdam_beats_default_on_hostile_stride() {
        let w = DataCopy::new(vec![32]);
        let cmp = try_compare(&w, &[SystemConfig::SdmBsm], &Experiment::quick()).unwrap();
        let s = cmp.speedup_of(SystemConfig::SdmBsm).unwrap();
        assert!(s > 1.25, "SDM+BSM should fix the pinned stride, got {s}");
    }

    #[test]
    fn default_mapping_fine_for_streaming() {
        // Stride-1 already interleaves perfectly, and the per-process
        // aggregate profile is polluted by inter-variable jumps — the
        // paper observes the same regression ("for some benchmarks e.g.
        // perl and stream, SDM+BSM shows worse performance"). SDAM must
        // not win here, and per-variable clustering must recover most of
        // the loss.
        let w = DataCopy::new(vec![1]);
        let cmp = try_compare(
            &w,
            &[SystemConfig::SdmBsm, SystemConfig::SdmBsmMl { clusters: 4 }],
            &Experiment::quick(),
        )
        .unwrap();
        let s = cmp.speedup_of(SystemConfig::SdmBsm).unwrap();
        assert!((0.5..1.3).contains(&s), "streaming speedup {s}");
        let ml = cmp
            .speedup_of(SystemConfig::SdmBsmMl { clusters: 4 })
            .unwrap();
        assert!(
            (0.6..1.3).contains(&ml),
            "per-variable streaming speedup out of band: {ml}"
        );
    }

    #[test]
    fn per_variable_beats_global_on_mixed_strides() {
        // The paper's Fig. 4 / Fig. 11 claim: with mixed strides, one
        // global shuffle cannot serve both patterns but per-variable
        // SDAM can.
        let w = DataCopy::new(vec![1, 32]);
        let cmp = try_compare(
            &w,
            &[SystemConfig::BsBsm, SystemConfig::SdmBsmMl { clusters: 4 }],
            &Experiment::quick(),
        )
        .unwrap();
        let global = cmp.speedup_of(SystemConfig::BsBsm).unwrap();
        let per_var = cmp
            .speedup_of(SystemConfig::SdmBsmMl { clusters: 4 })
            .unwrap();
        assert!(
            per_var > global,
            "per-variable ({per_var}) should beat global ({global})"
        );
        assert!(
            per_var > 1.05,
            "mixed strides should improve, got {per_var}"
        );
    }

    #[test]
    fn baseline_always_present() {
        let w = DataCopy::new(vec![8]);
        let cmp = try_compare(&w, &[SystemConfig::BsHm], &Experiment::quick()).unwrap();
        assert_eq!(cmp.results[0].config, SystemConfig::BsDm);
        assert_eq!(cmp.results.len(), 2);
        assert!((cmp.speedup_of(SystemConfig::BsDm).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn compare_profiles_each_workload_exactly_once() {
        // The acceptance criterion of the staged pipeline: N
        // configurations share ONE profiling pass through the cache.
        let w = DataCopy::new(vec![16]);
        let cache = StageCache::new();
        let cmp = try_compare_with_cache(
            &w,
            &[
                SystemConfig::BsBsm,
                SystemConfig::SdmBsm,
                SystemConfig::SdmBsmMl { clusters: 2 },
            ],
            &Experiment::quick(),
            &cache,
        )
        .unwrap();
        assert_eq!(cmp.results.len(), 4, "BS+DM prepended");
        assert_eq!(cache.profile_misses(), 1, "exactly one profiling pass");
        assert_eq!(
            cache.profile_hits(),
            3,
            "every profiled configuration hit the cache"
        );
        // A second sweep on the same cache reuses everything.
        let cmp2 = try_compare_with_cache(
            &w,
            &[SystemConfig::BsBsm, SystemConfig::SdmBsm],
            &Experiment::quick(),
            &cache,
        )
        .unwrap();
        assert_eq!(cache.profile_misses(), 1, "no new profiling pass");
        // Cache reuse is bit-identical to recomputation.
        assert_eq!(
            cmp.speedup_of(SystemConfig::SdmBsm),
            cmp2.speedup_of(SystemConfig::SdmBsm)
        );
    }

    #[test]
    fn cached_compare_matches_fresh_compare() {
        // Determinism across the cache boundary: a shared-cache sweep
        // reports the same cycles as independent fresh runs.
        let w = DataCopy::new(vec![4, 16]);
        let exp = Experiment::quick();
        let fresh = try_compare(&w, &[SystemConfig::SdmBsm], &exp).unwrap();
        let cache = StageCache::new();
        let cached = try_compare_with_cache(&w, &[SystemConfig::SdmBsm], &exp, &cache).unwrap();
        for (a, b) in fresh.results.iter().zip(&cached.results) {
            assert_eq!(a.config, b.config);
            assert_eq!(a.report.cycles, b.report.cycles);
        }
    }

    #[test]
    fn corun_per_variable_beats_global_mix() {
        // Two co-running copies with different strides: one global
        // mapping must compromise, SDAM serves both — the paper's
        // Observation 2 at system level.
        // Single-threaded tenants so the cross-workload effect is not
        // masked by DataCopy's intentionally channel-aligned threads.
        let streamer = DataCopy::with_threads(vec![1], 1);
        let strider = DataCopy::with_threads(vec![32], 1);
        let exp = Experiment::quick();
        let run = |config| {
            try_run_corun(
                &[&streamer as &dyn sdam_workloads::Workload, &strider],
                config,
                &exp,
            )
            .unwrap()
            .report
            .cycles
        };
        let base = run(SystemConfig::BsDm);
        let global = run(SystemConfig::BsBsm);
        let per_var = run(SystemConfig::SdmBsmMl { clusters: 4 });
        let s_global = base as f64 / global as f64;
        let s_per_var = base as f64 / per_var as f64;
        assert!(
            s_per_var > s_global,
            "per-variable ({s_per_var:.2}) must beat the global mix ({s_global:.2})"
        );
        assert!(s_per_var > 1.05, "co-run should improve: {s_per_var:.2}");
    }

    #[test]
    fn corun_reuses_profiles_across_configs() {
        let streamer = DataCopy::with_threads(vec![1], 1);
        let strider = DataCopy::with_threads(vec![32], 1);
        let exp = Experiment::quick();
        let cache = StageCache::new();
        let workloads: Vec<&dyn sdam_workloads::Workload> = vec![&streamer, &strider];
        try_run_corun_with_cache(&workloads, SystemConfig::BsBsm, &exp, &cache).unwrap();
        assert_eq!(cache.profile_misses(), 2, "one pass per workload");
        try_run_corun_with_cache(&workloads, SystemConfig::SdmBsm, &exp, &cache).unwrap();
        assert_eq!(cache.profile_misses(), 2, "second config reuses both");
        assert_eq!(cache.profile_hits(), 2);
    }

    #[test]
    fn empty_corun_is_an_error_not_a_panic() {
        let err = try_run_corun(&[], SystemConfig::BsDm, &Experiment::quick());
        assert!(matches!(err, Err(SdamError::NoWorkloads)));
    }

    #[test]
    fn learning_time_only_for_learned_configs() {
        let w = DataCopy::new(vec![16]);
        let r = try_run(&w, SystemConfig::BsDm, &Experiment::quick()).unwrap();
        assert!(r.learning_time.is_none());
        let r = try_run(
            &w,
            SystemConfig::SdmBsmMl { clusters: 2 },
            &Experiment::quick(),
        )
        .unwrap();
        assert!(r.learning_time.is_some());
    }
}
