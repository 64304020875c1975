//! Profiling runs and mapping selection (paper §6.2).
//!
//! Profiling executes the workload's *training* input on the baseline
//! system (default mapping everywhere), collects the physical-address
//! trace, attributes it to variables, and reduces it to per-variable
//! bit-flip-rate vectors. Selection then turns those BFRVs into AMU
//! configurations according to the active [`SystemConfig`]:
//! one global shuffle (BS+BSM), one per application (SDM+BSM), or one
//! per K-Means / DL-assisted cluster of variables (SDM+BSM+ML / +DL).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use sdam_mapping::{
    select, BfrvAccumulator, BitFlipRateVector, BitPermutation, HashMapping, MappingId,
};
use sdam_sys::MappingEngine;
use sdam_trace::{profile, Trace, VariableId};
use sdam_workloads::Workload;

use crate::config::{Experiment, SystemConfig};
use crate::error::SdamError;
use crate::system::SdamSystem;

/// The product of a profiling run.
#[derive(Debug, Clone)]
pub struct ProfileData {
    /// Aggregate BFRV of the whole physical-address trace.
    pub aggregate: BitFlipRateVector,
    /// Major variables (80 % of references), hottest first.
    pub major: Vec<VariableId>,
    /// Per-major-variable BFRVs.
    pub bfrvs: BTreeMap<VariableId, BitFlipRateVector>,
    /// Per-major-variable physical address streams (inputs to the DL
    /// path).
    pub pa_streams: BTreeMap<VariableId, Vec<u64>>,
}

/// Byte span of each variable in a trace: `(min_addr, len)`.
pub fn variable_spans(trace: &Trace) -> BTreeMap<VariableId, (u64, u64)> {
    let mut spans: BTreeMap<VariableId, (u64, u64)> = BTreeMap::new();
    for a in trace.iter() {
        let e = spans.entry(a.variable).or_insert((a.addr, a.addr + 64));
        e.0 = e.0.min(a.addr);
        e.1 = e.1.max(a.addr + 64);
    }
    spans
        .into_iter()
        .map(|(v, (lo, hi))| (v, (lo, hi - lo)))
        .collect()
}

/// Translates a workload trace to physical addresses by allocating every
/// variable in process `pid` of `sys` under the given per-variable
/// mapping ids (default mapping when absent) and demand-paging as the
/// trace touches memory. The co-run path materializes several
/// workloads into one system this way: they share the physical memory
/// but not the address space.
///
/// # Errors
///
/// Propagates allocator errors — most importantly
/// [`sdam_mem::MemError::OutOfPhysicalMemory`] when the workload's
/// footprint exceeds the configured geometry.
pub fn try_materialize_in(
    trace: &Trace,
    sys: &mut SdamSystem,
    pid: crate::ProcessId,
    var_mapping: &BTreeMap<VariableId, MappingId>,
) -> Result<Trace, sdam_mem::MemError> {
    let spans = variable_spans(trace);
    let mut bases: BTreeMap<VariableId, u64> = BTreeMap::new();
    for (&v, &(_, len)) in &spans {
        let id = var_mapping.get(&v).copied();
        let va = sys.malloc_in(pid, len, id)?;
        bases.insert(v, va.raw());
    }
    let mut out = Trace::with_capacity(trace.len());
    for a in trace.iter() {
        let (lo, _) = spans[&a.variable];
        let va = bases[&a.variable] + (a.addr - lo);
        let pa = sys.touch_in(pid, sdam_mem::VirtAddr(va))?;
        out.push(sdam_trace::MemAccess {
            addr: pa.raw(),
            ..*a
        });
    }
    Ok(out)
}

/// Runs the paper's two-pass profiling on the training input.
///
/// **Pass 1** materializes the trace on the baseline system (everything
/// on the default mapping, shared chunks) and identifies the major
/// variables. The aggregate BFRV comes from this pass — it is the
/// physical-address stream a *global* mapping (BS+BSM) will actually
/// see, interleaved paging and all.
///
/// **Pass 2** re-runs allocation with every major variable segregated
/// onto its own chunk group (the paper's preloaded-malloc pass, which
/// intercepts allocations per call stack). Within its own chunk group a
/// variable's pages are physically contiguous in fault order, so its
/// per-variable BFRV reflects the pattern SDAM's allocator will
/// reproduce at run time — without segregation, demand paging scrambles
/// every bit above the page offset.
///
/// # Errors
///
/// [`SdamError::Mem`] when the training input does not fit the
/// configured geometry; [`SdamError::Cmt`] for an invalid chunk size.
pub fn try_profile_on_baseline(
    workload: &dyn Workload,
    exp: &Experiment,
) -> Result<ProfileData, SdamError> {
    let train = workload.generate(exp.scale.with_seed(exp.profile_seed));
    let width = exp.geometry.addr_bits();

    // Pass 1: baseline materialization — aggregate profile + majors.
    let mut sys = SdamSystem::try_new(exp.geometry, exp.chunk_bits)?;
    let pa_trace = try_materialize_in(&train, &mut sys, crate::ProcessId(0), &BTreeMap::new())?;
    let aggregate = BitFlipRateVector::from_addrs(pa_trace.addrs(), width);
    let major = profile::major_variables(&pa_trace, 0.8);

    // Pass 2: segregated materialization — per-variable profiles.
    let mut sys2 = SdamSystem::try_new(exp.geometry, exp.chunk_bits)?;
    let identity = BitPermutation::identity(6, (exp.chunk_bits - 6) as usize);
    let mut var_mapping = BTreeMap::new();
    for &v in &major {
        // When an application has more major variables than mapping ids
        // (never the case in the paper's Table 1), the overflow shares
        // the last id.
        match sys2.try_add_mapping(&identity) {
            Ok(id) => {
                var_mapping.insert(v, id);
            }
            Err(SdamError::Mem(sdam_mem::MemError::MappingIdsExhausted)) => {
                let Some(&last) = var_mapping.values().last() else {
                    return Err(sdam_mem::MemError::MappingIdsExhausted.into());
                };
                var_mapping.insert(v, last);
            }
            Err(e) => return Err(e),
        }
    }
    let segregated = try_materialize_in(&train, &mut sys2, crate::ProcessId(0), &var_mapping)?;

    // Fused single pass: one walk of the segregated trace feeds every
    // major variable's streaming BFRV accumulator and its PA stream
    // (needed by the DL path), instead of one full-trace `addrs_of`
    // scan per variable.
    let mut accs: BTreeMap<VariableId, (BfrvAccumulator, Vec<u64>)> = major
        .iter()
        .map(|&v| (v, (BfrvAccumulator::new(width), Vec::new())))
        .collect();
    for a in segregated.iter() {
        if let Some((acc, stream)) = accs.get_mut(&a.variable) {
            acc.push(a.addr);
            stream.push(a.addr);
        }
    }
    let mut bfrvs = BTreeMap::new();
    let mut pa_streams = BTreeMap::new();
    for (v, (acc, stream)) in accs {
        bfrvs.insert(v, acc.finish());
        pa_streams.insert(v, stream);
    }
    Ok(ProfileData {
        aggregate,
        major,
        bfrvs,
        pa_streams,
    })
}

/// A profile with no samples and no major variables — what
/// configurations that skip profiling select their mappings from.
pub fn empty_profile(exp: &Experiment) -> ProfileData {
    ProfileData {
        aggregate: BitFlipRateVector::from_addrs(std::iter::empty(), exp.geometry.addr_bits()),
        major: Vec::new(),
        bfrvs: BTreeMap::new(),
        pa_streams: BTreeMap::new(),
    }
}

/// The mapping plan a configuration produces.
#[derive(Debug, Clone)]
pub enum Selection {
    /// The boot-time default (identity) mapping for everything.
    GlobalIdentity,
    /// One global bit-shuffle over the full address.
    GlobalShuffle(sdam_mapping::BitShuffleMapping),
    /// One global XOR hash.
    GlobalHash(HashMapping),
    /// SDAM: chunk-scoped permutations plus a variable→permutation map.
    Sdam {
        /// Distinct chunk-offset permutations (one per mapping id).
        perms: Vec<BitPermutation>,
        /// Which permutation each variable uses (variables absent here
        /// stay on the default mapping).
        assignment: BTreeMap<VariableId, usize>,
    },
}

impl Selection {
    /// Registers an SDAM plan's permutations on `sys` and returns each
    /// assigned variable's mapping id; a global plan registers nothing
    /// and leaves every variable on the default mapping.
    pub(crate) fn install(
        &self,
        sys: &mut SdamSystem,
    ) -> Result<BTreeMap<VariableId, MappingId>, SdamError> {
        let Selection::Sdam { perms, assignment } = self else {
            return Ok(BTreeMap::new());
        };
        let mut ids = Vec::with_capacity(perms.len());
        for p in perms {
            ids.push(sys.try_add_mapping(p)?);
        }
        Ok(assignment.iter().map(|(&v, &c)| (v, ids[c])).collect())
    }

    /// The engine the machine runs this plan with. An SDAM plan
    /// translates through the CMT of `sys`, the system it was
    /// [installed](Selection::install) into.
    pub(crate) fn engine(&self, sys: &SdamSystem) -> MappingEngine {
        match self {
            Selection::GlobalIdentity => MappingEngine::identity(),
            Selection::GlobalShuffle(m) => MappingEngine::Global(Box::new(m.clone())),
            Selection::GlobalHash(m) => MappingEngine::Global(Box::new(m.clone())),
            Selection::Sdam { .. } => MappingEngine::Chunked(sys.cmt_snapshot()),
        }
    }
}

/// Result of selection, with the profiling/learning cost (the paper's
/// Fig. 13 metric).
#[derive(Debug, Clone)]
pub struct SelectionOutcome {
    /// The plan.
    pub selection: Selection,
    /// Wall-clock time spent in clustering / training.
    pub learning_time: Duration,
}

/// Selects mappings for a configuration from profile data.
///
/// # Errors
///
/// [`SdamError::Config`] for an invalid configuration (a clustered one
/// with zero clusters); [`SdamError::EmptyProfile`] when a
/// profiling-dependent configuration is given a profile with no major
/// variables.
pub fn try_select_mappings(
    config: SystemConfig,
    data: &ProfileData,
    exp: &Experiment,
) -> Result<SelectionOutcome, SdamError> {
    select_impl(config, data, exp, None)
}

/// [`try_select_mappings`] with the trained DL clustering memoized in
/// `cache` under [`crate::stage::embedding_key`] (built from
/// `profile_key`). Identical results to the uncached path — a hit just
/// skips retraining the autoencoder, which dominates DL selection cost.
///
/// # Errors
///
/// As [`try_select_mappings`].
pub fn try_select_mappings_cached(
    config: SystemConfig,
    data: &ProfileData,
    exp: &Experiment,
    cache: &crate::stage::StageCache,
    profile_key: &str,
) -> Result<SelectionOutcome, SdamError> {
    select_impl(config, data, exp, Some((cache, profile_key)))
}

fn select_impl(
    config: SystemConfig,
    data: &ProfileData,
    exp: &Experiment,
    dl_cache: Option<(&crate::stage::StageCache, &str)>,
) -> Result<SelectionOutcome, SdamError> {
    config.try_validate()?;
    let window_hi = exp.chunk_bits;
    let windowed = |bfrv: &BitFlipRateVector| {
        select::permutation_for_bfrv_windowed(bfrv, exp.geometry, window_hi)
    };
    let start = Instant::now();
    let selection = match config {
        SystemConfig::BsDm => Selection::GlobalIdentity,
        SystemConfig::BsHm => Selection::GlobalHash(HashMapping::for_geometry(exp.geometry)),
        SystemConfig::BsBsm => {
            Selection::GlobalShuffle(select::shuffle_for_bfrv(&data.aggregate, exp.geometry))
        }
        SystemConfig::SdmBsm => {
            // One mapping per application. Unlike BS+BSM (which can only
            // see the raw physical-address stream, inter-variable jumps
            // included), SDAM's profiler has call-stack attribution, so
            // the per-app profile is the mean of the *attributed*
            // per-variable BFRVs.
            if data.major.is_empty() {
                return Err(SdamError::EmptyProfile);
            }
            let mean = BitFlipRateVector::mean(
                data.major
                    .iter()
                    .map(|v| &data.bfrvs[v])
                    .collect::<Vec<_>>(),
            );
            let perm = windowed(&mean);
            let assignment = data.major.iter().map(|&v| (v, 0)).collect();
            Selection::Sdam {
                perms: vec![perm],
                assignment,
            }
        }
        SystemConfig::SdmBsmMl { clusters } => {
            if data.major.is_empty() {
                return Err(SdamError::EmptyProfile);
            }
            let points: Vec<Vec<f64>> = data
                .major
                .iter()
                .map(|v| data.bfrvs[v].rates().to_vec())
                .collect();
            let clustering = sdam_ml::kmeans(
                &points,
                &sdam_ml::KMeansConfig {
                    k: clusters,
                    seed: exp.training.seed,
                    ..Default::default()
                },
            );
            cluster_selection(data, &clustering.assignments, exp)
        }
        SystemConfig::SdmBsmDl { clusters } => {
            if data.major.is_empty() {
                return Err(SdamError::EmptyProfile);
            }
            let train = || {
                let traces: Vec<Vec<u64>> = data
                    .major
                    .iter()
                    .map(|v| data.pa_streams[v].clone())
                    .collect();
                sdam_ml::dlkmeans::cluster_variables_dl_threaded(
                    &traces,
                    exp.geometry.addr_bits(),
                    clusters,
                    &exp.training,
                    exp.parallelism.threads(),
                )
            };
            let assignments = match dl_cache {
                Some((cache, pkey)) => {
                    let key = crate::stage::embedding_key(pkey, clusters, exp);
                    cache
                        .embedding_or_try(&key, || Ok(train()))?
                        .assignments
                        .clone()
                }
                None => train().assignments,
            };
            cluster_selection(data, &assignments, exp)
        }
    };
    Ok(SelectionOutcome {
        selection,
        learning_time: start.elapsed(),
    })
}

/// Builds the SDAM plan from per-major-variable cluster assignments:
/// each cluster's mapping comes from the mean BFRV of its members
/// (paper §6.2 step 3: flip rates pick the mapping after clustering).
fn cluster_selection(data: &ProfileData, assignments: &[usize], exp: &Experiment) -> Selection {
    let k = assignments.iter().copied().max().map_or(0, |m| m + 1);
    let mut perms = Vec::with_capacity(k);
    let mut assignment = BTreeMap::new();
    for c in 0..k {
        let members: Vec<&BitFlipRateVector> = data
            .major
            .iter()
            .zip(assignments)
            .filter(|&(_, &a)| a == c)
            .map(|(v, _)| &data.bfrvs[v])
            .collect();
        if members.is_empty() {
            // Keep indices aligned: an unused cluster gets the identity.
            perms.push(BitPermutation::identity(6, (exp.chunk_bits - 6) as usize));
            continue;
        }
        let mean = BitFlipRateVector::mean(members);
        perms.push(select::permutation_for_bfrv_windowed(
            &mean,
            exp.geometry,
            exp.chunk_bits,
        ));
    }
    for (v, &c) in data.major.iter().zip(assignments) {
        assignment.insert(*v, c);
    }
    Selection::Sdam { perms, assignment }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdam_workloads::datacopy::DataCopy;

    fn exp() -> Experiment {
        Experiment::quick()
    }

    #[test]
    fn spans_cover_variables() {
        let t = DataCopy::new(vec![1]).generate(exp().scale);
        let spans = variable_spans(&t);
        assert_eq!(spans.len(), 8);
        for (_, (lo, len)) in spans {
            assert!(len >= 64);
            assert_eq!(lo % 64, 0);
        }
    }

    #[test]
    fn profile_identifies_copy_variables() {
        let data = try_profile_on_baseline(&DataCopy::new(vec![16]), &exp()).unwrap();
        assert!(!data.major.is_empty());
        assert_eq!(data.bfrvs.len(), data.major.len());
        assert!(data.aggregate.samples() > 0);
    }

    #[test]
    fn selection_shapes_per_config() {
        let data = try_profile_on_baseline(&DataCopy::new(vec![4, 16]), &exp()).unwrap();
        let e = exp();
        assert!(matches!(
            try_select_mappings(SystemConfig::BsDm, &data, &e)
                .unwrap()
                .selection,
            Selection::GlobalIdentity
        ));
        assert!(matches!(
            try_select_mappings(SystemConfig::BsHm, &data, &e)
                .unwrap()
                .selection,
            Selection::GlobalHash(_)
        ));
        assert!(matches!(
            try_select_mappings(SystemConfig::BsBsm, &data, &e)
                .unwrap()
                .selection,
            Selection::GlobalShuffle(_)
        ));
        match try_select_mappings(SystemConfig::SdmBsm, &data, &e)
            .unwrap()
            .selection
        {
            Selection::Sdam { perms, assignment } => {
                assert_eq!(perms.len(), 1);
                assert_eq!(assignment.len(), data.major.len());
            }
            other => panic!("unexpected plan {other:?}"),
        }
    }

    #[test]
    fn ml_selection_groups_same_stride_variables() {
        // Two strides, two clusters: src/dst of the same stride should
        // land in the same cluster.
        let data = try_profile_on_baseline(&DataCopy::new(vec![1, 16]), &exp()).unwrap();
        let e = exp();
        let out = try_select_mappings(SystemConfig::SdmBsmMl { clusters: 2 }, &data, &e).unwrap();
        match out.selection {
            Selection::Sdam { perms, assignment } => {
                assert_eq!(perms.len(), 2);
                // Threads 0 and 2 share stride 1; threads 1 and 3 share 16.
                let cluster = |v: u32| assignment[&VariableId(v)];
                assert_eq!(cluster(0), cluster(4), "same-stride variables split");
                assert_eq!(cluster(2), cluster(6));
                assert_ne!(cluster(0), cluster(2), "strides merged");
            }
            other => panic!("unexpected plan {other:?}"),
        }
    }

    #[test]
    fn learning_time_recorded() {
        let data = try_profile_on_baseline(&DataCopy::new(vec![8]), &exp()).unwrap();
        let out =
            try_select_mappings(SystemConfig::SdmBsmMl { clusters: 2 }, &data, &exp()).unwrap();
        // Duration is non-negative by type; just check it was measured.
        assert!(out.learning_time.as_nanos() < u128::MAX);
    }
}
