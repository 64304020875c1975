//! The staged evaluation pipeline.
//!
//! [`crate::pipeline`]'s entry points used to be monolithic functions;
//! they are now thin drivers over five composable [`Stage`] objects —
//! [`ProfileStage`] → [`SelectStage`] → [`AllocStage`] →
//! [`ExecuteStage`] → [`ReportStage`] — that communicate exclusively
//! through a shared [`RunContext`]. Each stage reads the artifacts its
//! predecessors deposited (profile, selection, materialized trace, …),
//! produces its own, and records its wall-clock in
//! [`PhaseTimes`].
//!
//! Expensive artifacts are memoized in a [`StageCache`] keyed by
//! *content*: a profile's key folds in the workload's
//! [`fingerprint`](Workload::fingerprint), the profiling seed/scale, the
//! memory geometry, and the chunk size — everything the artifact is a
//! deterministic function of. A selection's key adds the system
//! configuration and the training hyper-parameters. Because every
//! artifact is a pure function of its key, a cache hit is bit-identical
//! to recomputation; [`crate::pipeline::try_compare`] exploits this to
//! profile each workload exactly once across all configurations, and a
//! harness sweeping many configurations can pass one cache to
//! [`crate::pipeline::try_compare_with_cache`] to reuse artifacts across
//! calls. Hit/miss counters expose the reuse for tests and benchmarks.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use sdam_sys::{ExecutionReport, Machine, MappingEngine};
use sdam_trace::Trace;
use sdam_workloads::Workload;

use crate::config::{Experiment, SystemConfig};
use crate::error::SdamError;
use crate::profiling::{self, ProfileData, SelectionOutcome};
use crate::report::{PhaseTimes, RunResult};
use crate::system::SdamSystem;

/// Locks a mutex, recovering the data from a poisoned lock (cache
/// values are append-only, so a panicked writer cannot leave a torn
/// entry behind).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The content key under which a workload's profile is cached: the
/// workload identity plus everything profiling is a deterministic
/// function of (training seed + scale, geometry, chunk size).
pub fn profile_key(workload: &dyn Workload, exp: &Experiment) -> String {
    format!(
        "{}|{:?}|{:?}|chunk={}",
        workload.fingerprint(),
        exp.scale.with_seed(exp.profile_seed),
        exp.geometry,
        exp.chunk_bits
    )
}

/// The content key under which a selection is cached: the profile's key
/// plus the configuration and the training hyper-parameters.
pub fn selection_key(profile_key: &str, config: SystemConfig, exp: &Experiment) -> String {
    format!("{profile_key}|cfg={config:?}|train={:?}", exp.training)
}

/// The content key under which a trained DL clustering is cached: the
/// profile's key plus the training hyper-parameters and the cluster
/// count — everything [`sdam_ml::dlkmeans::cluster_variables_dl`] is a
/// deterministic function of. Narrower than [`selection_key`]: it omits
/// the [`SystemConfig`], so any configuration that trains on the same
/// profile with the same hyper-parameters shares the embedding.
pub fn embedding_key(profile_key: &str, clusters: usize, exp: &Experiment) -> String {
    format!("{profile_key}|train={:?}|k={clusters}", exp.training)
}

/// A content-keyed memo of the pipeline's expensive artifacts.
///
/// Shared by reference across the per-configuration fan-out of
/// [`crate::pipeline::try_compare`] and the per-workload profiling of
/// [`crate::pipeline::try_run_corun`]; a harness can hold one cache across
/// many calls to amortize profiling over a whole sweep.
#[derive(Debug, Default)]
pub struct StageCache {
    profiles: Mutex<HashMap<String, Arc<ProfileData>>>,
    selections: Mutex<HashMap<String, Arc<SelectionOutcome>>>,
    embeddings: Mutex<HashMap<String, Arc<sdam_ml::dlkmeans::DlClustering>>>,
    profile_hits: AtomicU64,
    profile_misses: AtomicU64,
    selection_hits: AtomicU64,
    selection_misses: AtomicU64,
    embedding_hits: AtomicU64,
    embedding_misses: AtomicU64,
}

impl StageCache {
    /// An empty cache.
    pub fn new() -> Self {
        StageCache::default()
    }

    /// Returns the cached profile for `key`, computing and inserting it
    /// on a miss. Concurrent misses on the same key may both compute;
    /// the first insertion wins (both results are bit-identical, so the
    /// race only costs time, never determinism).
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s error; nothing is cached on failure.
    pub fn profile_or_try<F>(&self, key: &str, compute: F) -> Result<Arc<ProfileData>, SdamError>
    where
        F: FnOnce() -> Result<ProfileData, SdamError>,
    {
        if let Some(p) = lock(&self.profiles).get(key) {
            self.profile_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(p));
        }
        self.profile_misses.fetch_add(1, Ordering::Relaxed);
        let computed = Arc::new(compute()?);
        Ok(Arc::clone(
            lock(&self.profiles)
                .entry(key.to_string())
                .or_insert(computed),
        ))
    }

    /// Returns the cached selection for `key`, computing and inserting
    /// it on a miss (same contract as [`StageCache::profile_or_try`]).
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s error; nothing is cached on failure.
    pub fn selection_or_try<F>(
        &self,
        key: &str,
        compute: F,
    ) -> Result<Arc<SelectionOutcome>, SdamError>
    where
        F: FnOnce() -> Result<SelectionOutcome, SdamError>,
    {
        if let Some(s) = lock(&self.selections).get(key) {
            self.selection_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(s));
        }
        self.selection_misses.fetch_add(1, Ordering::Relaxed);
        let computed = Arc::new(compute()?);
        Ok(Arc::clone(
            lock(&self.selections)
                .entry(key.to_string())
                .or_insert(computed),
        ))
    }

    /// Returns the cached DL clustering for `key` (see
    /// [`embedding_key`]), computing and inserting it on a miss (same
    /// contract as [`StageCache::profile_or_try`]). Training the
    /// autoencoder dominates DL selection cost, so memoizing the
    /// clustering lets a sweep pay for training once per
    /// (profile, hyper-parameters, k) triple.
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s error; nothing is cached on failure.
    pub fn embedding_or_try<F>(
        &self,
        key: &str,
        compute: F,
    ) -> Result<Arc<sdam_ml::dlkmeans::DlClustering>, SdamError>
    where
        F: FnOnce() -> Result<sdam_ml::dlkmeans::DlClustering, SdamError>,
    {
        if let Some(e) = lock(&self.embeddings).get(key) {
            self.embedding_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(e));
        }
        self.embedding_misses.fetch_add(1, Ordering::Relaxed);
        let computed = Arc::new(compute()?);
        Ok(Arc::clone(
            lock(&self.embeddings)
                .entry(key.to_string())
                .or_insert(computed),
        ))
    }

    /// Profile lookups served from the cache.
    pub fn profile_hits(&self) -> u64 {
        self.profile_hits.load(Ordering::Relaxed)
    }

    /// Profile lookups that had to compute (= profiling passes run).
    pub fn profile_misses(&self) -> u64 {
        self.profile_misses.load(Ordering::Relaxed)
    }

    /// Selection lookups served from the cache.
    pub fn selection_hits(&self) -> u64 {
        self.selection_hits.load(Ordering::Relaxed)
    }

    /// Selection lookups that had to compute.
    pub fn selection_misses(&self) -> u64 {
        self.selection_misses.load(Ordering::Relaxed)
    }

    /// DL-clustering lookups served from the cache.
    pub fn embedding_hits(&self) -> u64 {
        self.embedding_hits.load(Ordering::Relaxed)
    }

    /// DL-clustering lookups that had to train.
    pub fn embedding_misses(&self) -> u64 {
        self.embedding_misses.load(Ordering::Relaxed)
    }
}

/// A profile either borrowed from the caller
/// ([`crate::pipeline::try_run_with_profile`]) or shared out of the
/// [`StageCache`] — either way, the stages read it without copying the
/// data.
#[derive(Debug, Clone)]
pub enum ProfileHandle<'a> {
    /// Supplied by the caller; the context only borrows it.
    Borrowed(&'a ProfileData),
    /// Owned by the cache; cheap to clone across runs.
    Shared(Arc<ProfileData>),
}

impl std::ops::Deref for ProfileHandle<'_> {
    type Target = ProfileData;
    fn deref(&self) -> &ProfileData {
        match self {
            ProfileHandle::Borrowed(d) => d,
            ProfileHandle::Shared(d) => d,
        }
    }
}

/// The shared blackboard the stages communicate through: fixed inputs
/// (workload, configuration, experiment, cache) plus one slot per
/// artifact, filled as the stages run.
pub struct RunContext<'a> {
    /// The workload under evaluation.
    pub workload: &'a dyn Workload,
    /// The system configuration being evaluated.
    pub config: SystemConfig,
    /// The experiment parameters.
    pub exp: &'a Experiment,
    /// The artifact memo (shared across runs).
    pub cache: &'a StageCache,
    /// Profile data ([`ProfileStage`], or pre-seeded by the caller).
    pub profile: Option<ProfileHandle<'a>>,
    /// The mapping plan ([`SelectStage`]).
    pub selection: Option<SelectionOutcome>,
    /// Learning cost to report: `Some` only for configurations that
    /// selected from a real profile ([`SelectStage`]).
    pub learning_time: Option<Duration>,
    /// The system the evaluation trace was allocated into
    /// ([`AllocStage`]).
    pub sys: Option<SdamSystem>,
    /// The physical-address evaluation trace ([`AllocStage`]).
    pub pa_trace: Option<Trace>,
    /// The address-mapping engine the machine ran with
    /// ([`ExecuteStage`]).
    pub engine: Option<MappingEngine>,
    /// The machine-model execution report ([`ExecuteStage`]).
    pub report: Option<ExecutionReport>,
    /// The assembled result ([`ReportStage`]).
    pub result: Option<RunResult>,
    /// Host wall-clock per stage.
    pub phases: PhaseTimes,
}

impl<'a> RunContext<'a> {
    /// A fresh context with every artifact slot empty.
    pub fn new(
        workload: &'a dyn Workload,
        config: SystemConfig,
        exp: &'a Experiment,
        cache: &'a StageCache,
    ) -> Self {
        RunContext {
            workload,
            config,
            exp,
            cache,
            profile: None,
            selection: None,
            learning_time: None,
            sys: None,
            pa_trace: None,
            engine: None,
            report: None,
            result: None,
            phases: PhaseTimes::default(),
        }
    }
}

/// One step of the evaluation pipeline.
///
/// A stage reads its inputs from the [`RunContext`], writes its
/// artifacts back into it, and reports failures as [`SdamError`].
/// Running a stage before its prerequisites is a driver bug and panics.
pub trait Stage {
    /// Short name for logs and per-stage benchmarks.
    fn name(&self) -> &'static str;

    /// Runs the stage against the context.
    ///
    /// # Errors
    ///
    /// Any [`SdamError`] the underlying work surfaces.
    fn run(&self, ctx: &mut RunContext<'_>) -> Result<(), SdamError>;
}

/// Profiles the workload's training input on the baseline system
/// (through the cache), when the configuration needs a profile and the
/// caller did not pre-seed one.
pub struct ProfileStage;

impl Stage for ProfileStage {
    fn name(&self) -> &'static str {
        "profile"
    }

    fn run(&self, ctx: &mut RunContext<'_>) -> Result<(), SdamError> {
        if !ctx.config.needs_profiling() || ctx.profile.is_some() {
            return Ok(());
        }
        let t0 = Instant::now();
        let key = profile_key(ctx.workload, ctx.exp);
        let data = ctx.cache.profile_or_try(&key, || {
            profiling::try_profile_on_baseline(ctx.workload, ctx.exp)
        })?;
        ctx.profile = Some(ProfileHandle::Shared(data));
        ctx.phases.profile = t0.elapsed();
        Ok(())
    }
}

/// Turns the profile into a mapping plan for the configuration
/// (through the cache); configurations that skip profiling select from
/// the empty profile.
pub struct SelectStage;

impl Stage for SelectStage {
    fn name(&self) -> &'static str {
        "select"
    }

    fn run(&self, ctx: &mut RunContext<'_>) -> Result<(), SdamError> {
        let t0 = Instant::now();
        let outcome = match &ctx.profile {
            Some(data) if ctx.config.needs_profiling() => {
                let pkey = profile_key(ctx.workload, ctx.exp);
                let key = selection_key(&pkey, ctx.config, ctx.exp);
                let out = ctx.cache.selection_or_try(&key, || {
                    profiling::try_select_mappings_cached(
                        ctx.config, data, ctx.exp, ctx.cache, &pkey,
                    )
                })?;
                ctx.learning_time = Some(out.learning_time);
                (*out).clone()
            }
            _ => {
                let empty = profiling::empty_profile(ctx.exp);
                profiling::try_select_mappings(ctx.config, &empty, ctx.exp)?
            }
        };
        ctx.selection = Some(outcome);
        ctx.phases.select = t0.elapsed();
        Ok(())
    }
}

/// Generates the evaluation trace, allocates it into a fresh
/// [`SdamSystem`] under the selected mappings, and materializes the
/// physical-address trace.
pub struct AllocStage;

impl Stage for AllocStage {
    fn name(&self) -> &'static str {
        "alloc"
    }

    fn run(&self, ctx: &mut RunContext<'_>) -> Result<(), SdamError> {
        let Some(outcome) = &ctx.selection else {
            panic!("AllocStage needs SelectStage's selection");
        };
        let t0 = Instant::now();
        let eval = ctx.workload.generate(ctx.exp.scale);
        let mut sys = SdamSystem::try_new(ctx.exp.geometry, ctx.exp.chunk_bits)?;
        let var_mapping = outcome.selection.install(&mut sys)?;
        let pa_trace =
            profiling::try_materialize_in(&eval, &mut sys, crate::ProcessId(0), &var_mapping)?;
        ctx.sys = Some(sys);
        ctx.pa_trace = Some(pa_trace);
        ctx.phases.materialize = t0.elapsed();
        Ok(())
    }
}

/// Builds the mapping engine from the selection and runs the
/// materialized trace on the machine model.
pub struct ExecuteStage;

impl Stage for ExecuteStage {
    fn name(&self) -> &'static str {
        "execute"
    }

    fn run(&self, ctx: &mut RunContext<'_>) -> Result<(), SdamError> {
        let Some(outcome) = &ctx.selection else {
            panic!("ExecuteStage needs SelectStage's selection");
        };
        let Some(sys) = &ctx.sys else {
            panic!("ExecuteStage needs AllocStage's system");
        };
        let engine = outcome.selection.engine(sys);
        let Some(pa_trace) = &ctx.pa_trace else {
            panic!("ExecuteStage needs AllocStage's materialized trace");
        };
        let mut machine =
            Machine::try_new(ctx.exp.machine, ctx.exp.geometry)?.with_timing(ctx.exp.timing);
        let t0 = Instant::now();
        let report = machine.run(pa_trace, &engine);
        ctx.phases.execute = t0.elapsed();
        ctx.engine = Some(engine);
        ctx.report = Some(report);
        Ok(())
    }
}

/// Assembles the final [`RunResult`] from the context's artifacts.
pub struct ReportStage;

impl Stage for ReportStage {
    fn name(&self) -> &'static str {
        "report"
    }

    fn run(&self, ctx: &mut RunContext<'_>) -> Result<(), SdamError> {
        let Some(report) = ctx.report.take() else {
            panic!("ReportStage needs ExecuteStage's report");
        };
        let metrics = crate::metrics::collect_run_metrics(&report, ctx.sys.as_ref(), &ctx.phases);
        ctx.result = Some(RunResult {
            config: ctx.config,
            report,
            learning_time: ctx.learning_time,
            phases: ctx.phases,
            metrics,
        });
        Ok(())
    }
}

/// The standard single-workload pipeline, in dependency order.
pub fn standard_stages() -> Vec<Box<dyn Stage>> {
    vec![
        Box::new(ProfileStage),
        Box::new(SelectStage),
        Box::new(AllocStage),
        Box::new(ExecuteStage),
        Box::new(ReportStage),
    ]
}

/// Drives the stages over the context, in order, stopping at the first
/// failure.
///
/// # Errors
///
/// The first stage error.
pub fn run_stages(ctx: &mut RunContext<'_>, stages: &[Box<dyn Stage>]) -> Result<(), SdamError> {
    for s in stages {
        s.run(ctx)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdam_workloads::datacopy::DataCopy;

    #[test]
    fn stages_have_names_in_order() {
        let names: Vec<&str> = standard_stages().iter().map(|s| s.name()).collect();
        assert_eq!(names, ["profile", "select", "alloc", "execute", "report"]);
    }

    #[test]
    fn cache_key_distinguishes_workload_parameters() {
        let exp = Experiment::quick();
        let a = profile_key(&DataCopy::new(vec![1]), &exp);
        let b = profile_key(&DataCopy::new(vec![32]), &exp);
        assert_ne!(a, b, "different strides must not share a profile");
        let mut exp2 = Experiment::quick();
        exp2.profile_seed += 1;
        assert_ne!(
            a,
            profile_key(&DataCopy::new(vec![1]), &exp2),
            "different profiling seeds must not share a profile"
        );
        let s1 = selection_key(&a, SystemConfig::SdmBsm, &exp);
        let s2 = selection_key(&a, SystemConfig::SdmBsmMl { clusters: 4 }, &exp);
        assert_ne!(s1, s2, "different configs must not share a selection");
    }

    #[test]
    fn cache_counts_hits_and_misses() {
        let cache = StageCache::new();
        let exp = Experiment::quick();
        let w = DataCopy::new(vec![8]);
        let key = profile_key(&w, &exp);
        let first = cache
            .profile_or_try(&key, || profiling::try_profile_on_baseline(&w, &exp))
            .unwrap();
        let second = cache
            .profile_or_try(&key, || panic!("second lookup must not recompute"))
            .unwrap();
        assert_eq!(cache.profile_misses(), 1);
        assert_eq!(cache.profile_hits(), 1);
        assert!(
            Arc::ptr_eq(&first, &second),
            "hit returns the same artifact"
        );
    }

    #[test]
    fn embedding_key_narrower_than_selection_key() {
        let exp = Experiment::quick();
        let pkey = profile_key(&DataCopy::new(vec![1]), &exp);
        let e4 = embedding_key(&pkey, 4, &exp);
        let e2 = embedding_key(&pkey, 2, &exp);
        assert_ne!(e4, e2, "different k must not share a trained model");
        let mut exp2 = Experiment::quick();
        exp2.training.seed += 1;
        assert_ne!(
            e4,
            embedding_key(&pkey, 4, &exp2),
            "different training seeds must not share a trained model"
        );
    }

    #[test]
    fn dl_selection_trains_once_per_profile_and_k() {
        let cache = StageCache::new();
        let exp = Experiment::quick();
        let w = DataCopy::new(vec![1, 16]);
        let data = profiling::try_profile_on_baseline(&w, &exp).unwrap();
        let pkey = profile_key(&w, &exp);
        let cfg = SystemConfig::SdmBsmDl { clusters: 2 };
        let a = profiling::try_select_mappings_cached(cfg, &data, &exp, &cache, &pkey).unwrap();
        assert_eq!(cache.embedding_misses(), 1);
        assert_eq!(cache.embedding_hits(), 0);
        let b = profiling::try_select_mappings_cached(cfg, &data, &exp, &cache, &pkey).unwrap();
        assert_eq!(cache.embedding_misses(), 1, "second select retrained");
        assert_eq!(cache.embedding_hits(), 1);
        match (&a.selection, &b.selection) {
            (
                profiling::Selection::Sdam { assignment: x, .. },
                profiling::Selection::Sdam { assignment: y, .. },
            ) => assert_eq!(x, y, "cache hit changed the plan"),
            _ => panic!("DL config must produce an SDAM plan"),
        }
    }

    #[test]
    fn cache_does_not_cache_failures() {
        let cache = StageCache::new();
        let err = cache.profile_or_try("k", || Err(SdamError::EmptyProfile));
        assert!(err.is_err());
        assert_eq!(cache.profile_misses(), 1);
        // The key is still computable afterwards.
        let exp = Experiment::quick();
        let w = DataCopy::new(vec![8]);
        let ok = cache.profile_or_try("k", || profiling::try_profile_on_baseline(&w, &exp));
        assert!(ok.is_ok());
        assert_eq!(cache.profile_misses(), 2);
        assert_eq!(cache.profile_hits(), 0);
    }
}
