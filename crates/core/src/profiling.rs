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

/// One variable's byte bounds in a trace: `[lo, hi)`.
struct Span {
    lo: u64,
    hi: u64,
}

/// The spans of the variables of `trace` in order of first access; each
/// variable's id and span index, ascending by id; and for each access
/// the index of its variable's span. Accesses come mostly in runs of one
/// variable, so the lookup is the previous access's span, then a binary
/// search of the ids. Memory grows with the trace and the number of
/// variables, never with the largest id.
fn span_column(trace: &Trace) -> (Vec<(VariableId, usize)>, Vec<Span>, Vec<u32>) {
    let mut ids: Vec<(VariableId, usize)> = Vec::new();
    let mut spans: Vec<Span> = Vec::new();
    let mut column = Vec::with_capacity(trace.len());
    let mut prev = None;
    let mut i = 0;
    for a in trace.iter() {
        if prev != Some(a.variable) {
            prev = Some(a.variable);
            i = match ids.binary_search_by_key(&a.variable, |&(v, _)| v) {
                Ok(k) => ids[k].1,
                Err(k) => {
                    ids.insert(k, (a.variable, spans.len()));
                    spans.push(Span {
                        lo: a.addr,
                        hi: a.addr + 64,
                    });
                    spans.len() - 1
                }
            };
        }
        let s = &mut spans[i];
        s.lo = s.lo.min(a.addr);
        s.hi = s.hi.max(a.addr + 64);
        column.push(i as u32);
    }
    (ids, spans, column)
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
    // One slot per span: the trace-to-VA offset and the last page
    // touched, as (vpn, frame). Nothing unmaps during the call, so a
    // memoised frame stays valid and `touch_in` runs only when a
    // variable moves to another page.
    #[derive(Clone, Copy)]
    struct Slot {
        offset: u64,
        last: Option<(u64, u64)>,
    }
    let (ids, spans, column) = span_column(trace);
    let mut slots = vec![
        Slot {
            offset: 0,
            last: None,
        };
        spans.len()
    ];
    // Allocate in ascending id order, as the physical layout (and every
    // golden) depends on it.
    for (v, i) in ids {
        let s = &spans[i];
        let va = sys.malloc_in(pid, s.hi - s.lo, var_mapping.get(&v).copied())?;
        slots[i].offset = va.raw().wrapping_sub(s.lo);
    }
    let page_bits = sys.page_bytes().trailing_zeros();
    let offset_mask = sys.page_bytes() - 1;
    let mut out = Trace::with_capacity(trace.len());
    for (a, &i) in trace.iter().zip(&column) {
        let slot = &mut slots[i as usize];
        let va = a.addr.wrapping_add(slot.offset);
        let vpn = va >> page_bits;
        let frame = match slot.last {
            Some((last_vpn, frame)) if last_vpn == vpn => frame,
            _ => {
                let frame = sys.touch_in(pid, sdam_mem::VirtAddr(va))?.raw() & !offset_mask;
                slot.last = Some((vpn, frame));
                frame
            }
        };
        out.push(sdam_trace::MemAccess {
            addr: frame | (va & offset_mask),
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
/// variables; [`SdamError::Clustering`] when ML or DL selection meets a
/// non-finite flip rate or embedding.
pub fn try_select_mappings(
    config: SystemConfig,
    data: &ProfileData,
    exp: &Experiment,
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
            )?;
            cluster_selection(data, &clustering.assignments, exp)
        }
        SystemConfig::SdmBsmDl { clusters } => {
            if data.major.is_empty() {
                return Err(SdamError::EmptyProfile);
            }
            let traces: Vec<Vec<u64>> = data
                .major
                .iter()
                .map(|v| data.pa_streams[v].clone())
                .collect();
            let clustering = sdam_ml::dlkmeans::cluster_variables_dl(
                &traces,
                exp.geometry.addr_bits(),
                clusters,
                &exp.training,
            )?;
            cluster_selection(data, &clustering.assignments, exp)
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

    /// Byte span of each variable in a trace, `(min_addr, len)`, read
    /// off `span_column`.
    fn variable_spans(trace: &Trace) -> BTreeMap<VariableId, (u64, u64)> {
        let (ids, spans, _) = span_column(trace);
        ids.into_iter()
            .map(|(v, i)| (v, (spans[i].lo, spans[i].hi - spans[i].lo)))
            .collect()
    }

    /// Each variable's `(min_addr, len)`, folded per access into a map:
    /// the reference for `variable_spans`, independent of `span_column`.
    fn spans_by_fold(trace: &Trace) -> BTreeMap<VariableId, (u64, u64)> {
        let mut bounds: BTreeMap<VariableId, (u64, u64)> = BTreeMap::new();
        for a in trace.iter() {
            let e = bounds.entry(a.variable).or_insert((a.addr, a.addr + 64));
            e.0 = e.0.min(a.addr);
            e.1 = e.1.max(a.addr + 64);
        }
        bounds
            .into_iter()
            .map(|(v, (lo, hi))| (v, (lo, hi - lo)))
            .collect()
    }

    /// `try_materialize_in` without its memo: a `touch_in` for every
    /// access.
    fn materialize_by_touch(
        trace: &Trace,
        sys: &mut SdamSystem,
        var_mapping: &BTreeMap<VariableId, MappingId>,
    ) -> Trace {
        let pid = crate::ProcessId(0);
        let spans = spans_by_fold(trace);
        let mut bases = BTreeMap::new();
        for (&v, &(_, len)) in &spans {
            let va = sys.malloc_in(pid, len, var_mapping.get(&v).copied());
            bases.insert(v, va.unwrap().raw());
        }
        let mut out = Trace::with_capacity(trace.len());
        for a in trace.iter() {
            let va = bases[&a.variable] + (a.addr - spans[&a.variable].0);
            let pa = sys.touch_in(pid, sdam_mem::VirtAddr(va)).unwrap();
            out.push(sdam_trace::MemAccess {
                addr: pa.raw(),
                ..*a
            });
        }
        out
    }

    #[test]
    fn memoised_materialize_matches_touch_per_access() {
        use sdam_trace::gen::{RandomGen, StrideGen};
        use sdam_trace::MemAccess;
        let mut strided = Trace::new();
        StrideGen::new(1 << 20, 64, 4096).emit(&mut strided);
        StrideGen::new(1 << 30, 4096 + 72, 300)
            .variable(VariableId(1))
            .emit(&mut strided);
        let mut random = Trace::new();
        RandomGen::new(1 << 24, 1 << 18, 4000, 3).emit(&mut random);
        RandomGen::new(1 << 28, 1 << 14, 2000, 4)
            .variable(VariableId(1))
            .emit(&mut random);
        // Three variables in turn; variable 0 keeps returning to its
        // first page after visiting another, and addresses carry byte
        // offsets within their lines.
        let mut interleaved = Trace::new();
        let mut x = 12345u64;
        for i in 0..3000u64 {
            let page = if i % 3 == 0 { 0 } else { (i / 3) % 16 };
            interleaved.push(MemAccess::read(
                page * 4096 + (i % 64) * 64 + i % 8,
                VariableId(0),
            ));
            interleaved.push(MemAccess::read((1 << 32) + i * 192, VariableId(1)));
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            interleaved.push(MemAccess::read((1 << 33) + (x >> 44), VariableId(2)));
        }
        let chunk_bits = 14;
        let system = || {
            let mut sys = SdamSystem::try_new(exp().geometry, chunk_bits).unwrap();
            let perm = BitPermutation::identity(6, (chunk_bits - 6) as usize);
            let id = sys.try_add_mapping(&perm).unwrap();
            (sys, BTreeMap::from([(VariableId(1), id)]))
        };
        for trace in [strided, random, interleaved] {
            let (mut fast, var_mapping) = system();
            let (mut slow, _) = system();
            let got = try_materialize_in(&trace, &mut fast, crate::ProcessId(0), &var_mapping);
            let want = materialize_by_touch(&trace, &mut slow, &var_mapping);
            assert_eq!(got.unwrap(), want);
            assert_eq!(fast.page_faults(), slow.page_faults());
            let chunks = |sys: &SdamSystem| {
                let cmt = sys.cmt();
                (0..cmt.num_chunks())
                    .map(|c| cmt.chunk_mapping(c))
                    .collect::<Vec<_>>()
            };
            assert_eq!(chunks(&fast), chunks(&slow));
        }
    }

    #[test]
    fn sparse_and_wide_variable_ids_materialize_as_touch() {
        use sdam_trace::MemAccess;
        // Ids at both ends of the range, first seen out of order.
        let mut sparse = Trace::new();
        for i in 0..600u64 {
            let v = [u32::MAX, 0, 1 << 20][(i % 3) as usize];
            sparse.push(MemAccess::read(
                (u64::from(v) << 24) + (i * 328) % 20_000,
                VariableId(v),
            ));
        }
        // Forty variables revisited in a stride, each wandering up and
        // down its range so neither bound is its first access.
        let mut wide = Trace::new();
        for i in 0..4000u64 {
            let v = (i * 7 % 40) as u32 * 1000;
            wide.push(MemAccess::read(
                (u64::from(v) << 16) + (i * 328) % 20_000,
                VariableId(v),
            ));
        }
        for trace in [sparse, wide] {
            assert_eq!(variable_spans(&trace), spans_by_fold(&trace));
            let mut fast = SdamSystem::try_new(exp().geometry, 14).unwrap();
            let mut slow = SdamSystem::try_new(exp().geometry, 14).unwrap();
            let none = BTreeMap::new();
            let got = try_materialize_in(&trace, &mut fast, crate::ProcessId(0), &none);
            assert_eq!(got.unwrap(), materialize_by_touch(&trace, &mut slow, &none));
            assert_eq!(fast.page_faults(), slow.page_faults());
        }
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
