//! The reverse-engineering suite: ground-truthed targets for the
//! black-box probing agent in [`sdam_probe`].
//!
//! The agent only ever sees a [`sdam_probe::ProbeTarget`] — timed
//! accesses through the real CMT→AMU→bank-hash→FR-FCFS path. This
//! module is the *harness* around it: it builds targets whose mapping
//! functions are known (a direct-mapped device, global
//! [`HashMapping`]s, and full [`SdamSystem`]s with registered AMU
//! windows), runs a recovery, and only *then* compares the result
//! against ground truth fetched through the privileged APIs
//! ([`Cmt::translate_under`], [`BitPermutation::invert`]) the agent
//! cannot reach.
//!
//! Recovered functions are compared in the **timing-canonical gauge**
//! (see [`sdam_mapping::timing_classes`]): timing experiments cannot
//! distinguish two mappings that permute bits within one latency class,
//! so both sides are canonicalised before the equality check.

use std::fmt;

use sdam_hbm::{Geometry, Timing};
use sdam_mapping::descriptor::MappingDescriptor;
use sdam_mapping::{BitPermutation, Cmt, HashMapping, MappingId, PhysAddr};
use sdam_mem::VirtAddr;
use sdam_probe::{Agent, FunctionReport, RecoveryError, RecoveryReport};
use sdam_sys::{EngineTarget, MappingEngine};

use crate::system::{ProcessId, SdamSystem};

/// Committed probe-count ceiling for a bank-fold recovery (CI guard;
/// measured ≈ 131 on `hbm2_8gb`).
const PROBE_CEILING_FOLD: u64 = 256;
/// Committed probe-count ceiling for a channel-hash recovery (CI
/// guard; measured ≈ 1 300 on `hbm2_8gb`).
const PROBE_CEILING_HASH: u64 = 1_600;
/// Committed probe-count ceiling for an AMU window recovery (CI guard;
/// measured ≈ 400 for the 15-bit window).
const PROBE_CEILING_WINDOW: u64 = 600;

/// Errors from building suite targets or running recoveries on them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProbingError {
    /// The harness could not construct the target (allocator, mapping
    /// registration, or an allocation that is not XOR-closed).
    Setup(String),
    /// The black-box agent failed — forwarded [`RecoveryError`].
    Recovery(RecoveryError),
}

impl fmt::Display for ProbingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProbingError::Setup(msg) => write!(f, "probe harness setup failed: {msg}"),
            ProbingError::Recovery(e) => write!(f, "recovery failed: {e}"),
        }
    }
}

impl std::error::Error for ProbingError {}

impl From<RecoveryError> for ProbingError {
    fn from(e: RecoveryError) -> Self {
        ProbingError::Recovery(e)
    }
}

/// What the harness knows about a suite target — the ground truth the
/// agent must reproduce without ever seeing it.
#[derive(Debug, Clone)]
pub enum SuiteTruth {
    /// Direct-mapped device: the only structure is the controller's
    /// bank hash (row XOR-folded into the bank), recovered as fold
    /// classes.
    Fold,
    /// A global channel hash; the agent must recover its source sets
    /// (compared in the canonical gauge).
    Hash(HashMapping),
    /// An AMU [`BitPermutation`] registered in a real [`SdamSystem`];
    /// truth is re-derived through [`Cmt::translate_under`], not taken
    /// from this field.
    Window(BitPermutation),
}

/// One ground-truthed reverse-engineering target.
#[derive(Debug, Clone)]
pub struct SuiteEntry {
    /// Stable name (keys the golden fixture and the bench JSON).
    pub name: &'static str,
    /// The hidden mapping function.
    pub truth: SuiteTruth,
    /// Device geometry.
    pub geom: Geometry,
    /// Device timing.
    pub timing: Timing,
    /// Chunk size for [`SuiteTruth::Window`] entries (AMU window is
    /// `[line_bits, chunk_bits)`).
    pub chunk_bits: u32,
}

/// An XOR-closed physical window onto a live [`SdamSystem`] allocation.
///
/// Built by [`sdam_probe_region`]: the region's pages were faulted in
/// through the real demand-paging path, and every page landed at
/// `base_pa | offset` — so the agent's probe offsets *are* physical
/// address deltas, which is what the pair protocol's GF(2) linearity
/// needs.
#[derive(Debug, Clone)]
pub struct SdamProbeRegion {
    cmt: Cmt,
    id: MappingId,
    base_pa: u64,
    probe_bits: u32,
    chunk_bits: u32,
    geom: Geometry,
    timing: Timing,
}

impl SdamProbeRegion {
    /// A black-box target over this region: it routes probes through a
    /// clone of the live CMT (the `Chunked` engine) into a fresh device.
    ///
    /// # Errors
    ///
    /// [`ProbingError::Setup`] if the target rejects the window.
    pub fn target(&self) -> Result<EngineTarget, ProbingError> {
        EngineTarget::new(
            MappingEngine::Chunked(self.cmt.clone()),
            self.geom,
            self.timing,
            self.base_pa,
            self.probe_bits,
        )
        .map_err(|e| ProbingError::Setup(format!("probe target: {e}")))
    }

    /// Ground truth for the region's AMU window, re-derived bit by bit
    /// through the privileged [`Cmt::translate_under`] — the API the
    /// agent never calls. Raw (not canonicalised).
    pub(crate) fn window_truth(&self) -> Result<BitPermutation, ProbingError> {
        let lo = self.geom.line_bits();
        let len = self.chunk_bits - lo;
        let translate = |pa: u64| -> Result<u64, ProbingError> {
            self.cmt
                .translate_under(self.id, PhysAddr(pa))
                .map(|ha| ha.0)
                .map_err(|e| ProbingError::Setup(format!("translate_under: {e}")))
        };
        let base = translate(self.base_pa)?;
        let mut table = vec![u32::MAX; len as usize];
        for i in 0..len {
            let delta = translate(self.base_pa | (1u64 << (lo + i)))? ^ base;
            if delta.count_ones() != 1 {
                return Err(ProbingError::Setup(format!(
                    "CMT image of window bit {} is not a single bit: {delta:#x}",
                    lo + i
                )));
            }
            let dest = delta.trailing_zeros();
            if dest < lo || dest >= lo + len {
                return Err(ProbingError::Setup(format!(
                    "CMT routed window bit {} outside the window, to bit {dest}",
                    lo + i
                )));
            }
            table[(dest - lo) as usize] = i;
        }
        BitPermutation::new(lo, table)
            .map_err(|e| ProbingError::Setup(format!("derived truth table invalid: {e}")))
    }
}

/// Builds an XOR-closed probe region inside a real [`SdamSystem`]:
/// registers `perm` (the paper's `add_addr_map()`), allocates
/// `2^(chunk_bits + bank_bits)` bytes under it, demand-faults every
/// page, and verifies the allocation is physically contiguous and
/// aligned — `pa == base | offset` for every page — so probe offsets
/// are PA deltas.
///
/// The extra `bank_bits` of identity chunk-index bits above the AMU
/// window give the agent one pass-through row anchor per fold class,
/// which its permutation recovery needs.
///
/// # Errors
///
/// [`ProbingError::Setup`] if the system rejects the configuration or
/// the allocation is not XOR-closed.
pub fn sdam_probe_region(
    perm: &BitPermutation,
    geom: Geometry,
    timing: Timing,
    chunk_bits: u32,
) -> Result<SdamProbeRegion, ProbingError> {
    let mut sys = SdamSystem::try_new(geom, chunk_bits)
        .map_err(|e| ProbingError::Setup(format!("system: {e}")))?;
    let id = sys
        .add_mapping(perm)
        .map_err(|e| ProbingError::Setup(format!("add_mapping: {e}")))?;
    let probe_bits = chunk_bits + geom.bank_bits();
    let size = 1u64 << probe_bits;
    // Physical pages are handed out in fault order, so an XOR-closed
    // window is built by faulting pages in VA order and the aligned
    // base is found by walking until the next faulted PA is
    // size-aligned. Over-allocate by one region so the walk always has
    // a full window left once it gets there.
    let pid = ProcessId(0);
    let va = sys
        .malloc_in(pid, 2 * size, Some(id))
        .map_err(|e| ProbingError::Setup(format!("malloc: {e}")))?;
    let page = sys.page_bytes();
    let mut touch = |addr: u64| {
        sys.touch_in(pid, VirtAddr(addr))
            .map(|pa| pa.0)
            .map_err(|e| ProbingError::Setup(format!("touch of {addr:#x}: {e}")))
    };
    let limit = va.raw() + 2 * size;
    let mut start = (va.raw() + page - 1) & !(page - 1);
    let base_pa = loop {
        if start + size > limit {
            return Err(ProbingError::Setup(format!(
                "no {size:#x}-aligned physical base inside the allocation"
            )));
        }
        let pa = touch(start)?;
        if pa & (size - 1) == 0 {
            break pa;
        }
        start += page;
    };
    let mut off = page;
    while off < size {
        let pa = touch(start + off)?;
        if pa != base_pa | off {
            return Err(ProbingError::Setup(format!(
                "region not XOR-closed: page at offset {off:#x} landed at {pa:#x}, want {:#x}",
                base_pa | off
            )));
        }
        off += page;
    }
    Ok(SdamProbeRegion {
        cmt: sys.cmt_snapshot(),
        id,
        base_pa,
        probe_bits,
        chunk_bits,
        geom,
        timing,
    })
}

impl SuiteEntry {
    /// The committed CI ceiling on this entry's probe count.
    pub fn probe_ceiling(&self) -> u64 {
        match self.truth {
            SuiteTruth::Fold => PROBE_CEILING_FOLD,
            SuiteTruth::Hash(_) => PROBE_CEILING_HASH,
            SuiteTruth::Window(_) => PROBE_CEILING_WINDOW,
        }
    }

    /// Runs the black-box recovery for this entry on one target, then
    /// grades it against ground truth.
    ///
    /// The agent works purely from [`sdam_probe::ProbeTarget::access`]
    /// latencies; the ground-truth comparison happens here, after the
    /// fact, and fills [`FunctionReport::exact`].
    ///
    /// # Errors
    ///
    /// [`ProbingError`] on setup failure or unrecoverable functions.
    pub fn run(&self) -> Result<RecoveryReport, ProbingError> {
        let agent = Agent::new(self.geom);
        let geom = self.geom;
        let device_target = |engine| {
            EngineTarget::new(engine, geom, self.timing, 0, geom.addr_bits())
                .map_err(|e| ProbingError::Setup(format!("probe target: {e}")))
        };
        let (calibration, function) = match &self.truth {
            SuiteTruth::Fold => {
                let rec =
                    agent.recover_bank_fold(&mut device_target(MappingEngine::identity())?)?;
                let bank_bits = geom.bank_bits();
                let exact = !rec.classes.is_empty()
                    && rec
                        .classes
                        .iter()
                        .enumerate()
                        .all(|(j, c)| *c == Some(j as u32 % bank_bits));
                let recovered = fmt_list(
                    rec.classes
                        .iter()
                        .map(|c| c.map_or_else(|| "-".to_string(), |k| k.to_string())),
                );
                let function = FunctionReport {
                    function: "bank-fold".to_string(),
                    recovered,
                    bits: rec.classes.len() as u32,
                    probes: rec.probes,
                    confidence: rec.confidence,
                    exact: Some(exact),
                };
                (rec.calibration, function)
            }
            SuiteTruth::Hash(hm) => {
                let mut target = device_target(MappingEngine::Global(Box::new(hm.clone())))?;
                let rec = agent.recover_channel_hash(&mut target)?;
                let truth = hm.timing_canonical(geom);
                let exact = rec.channel_lo == truth.channel_lo()
                    && rec.sources.as_slice() == truth.sources();
                let recovered = fmt_list(
                    rec.sources
                        .iter()
                        .map(|set| fmt_list(set.iter().map(|b| b.to_string()))),
                );
                let ch_hi = geom.line_bits() + geom.channel_bits();
                let function = FunctionReport {
                    function: "channel-hash".to_string(),
                    recovered,
                    bits: (geom.addr_bits() - ch_hi) * geom.channel_bits(),
                    probes: rec.probes,
                    confidence: rec.confidence,
                    exact: Some(exact),
                };
                (rec.calibration, function)
            }
            SuiteTruth::Window(perm) => {
                let region = sdam_probe_region(perm, geom, self.timing, self.chunk_bits)?;
                let lo = geom.line_bits();
                let len = self.chunk_bits - lo;
                let rec = agent.recover_permutation(&mut region.target()?, lo, len)?;
                let truth = region.window_truth()?.timing_canonical(geom);
                // Invert round-trip over every window bit: the recovered
                // permutation must be a bijection whose inverse undoes it
                // (the `BitPermutation::invert` leg of the verification).
                let inv = rec.perm.invert();
                let roundtrip = (0..len).all(|i| {
                    let bit = 1u64 << (lo + i);
                    inv.apply(rec.perm.apply(bit)) == bit
                });
                let exact =
                    roundtrip && rec.perm.lo() == truth.lo() && rec.perm.table() == truth.table();
                let recovered = format!(
                    "@{}:{}",
                    rec.perm.lo(),
                    fmt_list(rec.perm.table().iter().map(|s| s.to_string()))
                );
                let function = FunctionReport {
                    function: "amu-permutation".to_string(),
                    recovered,
                    bits: len,
                    probes: rec.probes,
                    confidence: rec.confidence,
                    exact: Some(exact),
                };
                (rec.calibration, function)
            }
        };
        Ok(RecoveryReport {
            target: self.name.to_string(),
            calibration,
            functions: vec![function],
        })
    }
}

/// `[a,b,c]` with no whitespace — stable for fixtures.
fn fmt_list<I: Iterator<Item = String>>(items: I) -> String {
    let mut out = String::from("[");
    for (i, s) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&s);
    }
    out.push(']');
    out
}

/// The seeded suite: every mapping shape the repo registers, on the
/// paper's HBM2 geometry with refresh enabled (the adversarial timing —
/// quiesce must keep refresh debt out of the probes).
///
/// # Errors
///
/// [`ProbingError::Setup`] if a descriptor fails to compile (a bug in
/// the suite definition, not the agent).
pub fn seeded_suite() -> Result<Vec<SuiteEntry>, ProbingError> {
    let geom = Geometry::hbm2_8gb();
    let timing = Timing::hbm2_with_refresh();
    let chunk_bits = 21;
    let lo = geom.line_bits();
    let len = (chunk_bits - lo) as usize;
    let setup = |e: &dyn fmt::Display| ProbingError::Setup(format!("suite definition: {e}"));

    let channel = MappingDescriptor::new(geom)
        .channel_bits([11, 12, 13, 14, 15])
        .compile_windowed(chunk_bits)
        .map_err(|e| setup(&e))?;
    let reverse =
        BitPermutation::new(lo, (0..len as u32).rev().collect()).map_err(|e| setup(&e))?;

    Ok(vec![
        SuiteEntry {
            name: "dm-identity",
            truth: SuiteTruth::Fold,
            geom,
            timing,
            chunk_bits,
        },
        SuiteEntry {
            name: "hm-default",
            truth: SuiteTruth::Hash(HashMapping::for_geometry(geom)),
            geom,
            timing,
            chunk_bits,
        },
        SuiteEntry {
            name: "hm-canonical",
            truth: SuiteTruth::Hash(HashMapping::for_geometry(geom).timing_canonical(geom)),
            geom,
            timing,
            chunk_bits,
        },
        SuiteEntry {
            name: "sdam-identity",
            truth: SuiteTruth::Window(BitPermutation::identity(lo, len)),
            geom,
            timing,
            chunk_bits,
        },
        SuiteEntry {
            name: "sdam-channel",
            truth: SuiteTruth::Window(channel),
            geom,
            timing,
            chunk_bits,
        },
        SuiteEntry {
            name: "sdam-reverse",
            truth: SuiteTruth::Window(reverse),
            geom,
            timing,
            chunk_bits,
        },
    ])
}

/// Runs every [`seeded_suite`] entry.
///
/// # Errors
///
/// The first [`ProbingError`] any entry produces.
pub fn run_seeded_suite() -> Result<Vec<RecoveryReport>, ProbingError> {
    seeded_suite()?.iter().map(SuiteEntry::run).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_suite_covers_every_mapping_shape() {
        let suite = seeded_suite().unwrap();
        assert_eq!(suite.len(), 6);
        assert!(suite.iter().any(|e| matches!(e.truth, SuiteTruth::Fold)));
        assert!(suite.iter().any(|e| matches!(e.truth, SuiteTruth::Hash(_))));
        assert_eq!(
            suite
                .iter()
                .filter(|e| matches!(e.truth, SuiteTruth::Window(_)))
                .count(),
            3
        );
    }

    #[test]
    fn sdam_region_is_xor_closed_and_truth_matches_registration() {
        let geom = Geometry::hbm2_8gb();
        let lo = geom.line_bits();
        let perm = BitPermutation::new(lo, (0..15u32).rev().collect()).unwrap();
        let region = sdam_probe_region(&perm, geom, Timing::hbm2(), 21).unwrap();
        assert_eq!(region.probe_bits, 21 + geom.bank_bits());
        assert_eq!(region.base_pa & ((1 << region.probe_bits) - 1), 0);
        // The truth derived through translate_under is the registered
        // permutation itself.
        let truth = region.window_truth().unwrap();
        assert_eq!(truth.lo(), perm.lo());
        assert_eq!(truth.table(), perm.table());
    }

    #[test]
    fn fold_entry_recovers_exactly() {
        let suite = seeded_suite().unwrap();
        let entry = suite.iter().find(|e| e.name == "dm-identity").unwrap();
        let report = entry.run().unwrap();
        assert!(report.all_exact(), "report: {}", report.to_json());
        assert!(report.total_probes() <= entry.probe_ceiling());
    }

    #[test]
    fn window_entry_recovers_exactly() {
        let suite = seeded_suite().unwrap();
        let entry = suite.iter().find(|e| e.name == "sdam-reverse").unwrap();
        let report = entry.run().unwrap();
        assert!(report.all_exact(), "report: {}", report.to_json());
        assert!(report.total_probes() <= entry.probe_ceiling());
    }
}
