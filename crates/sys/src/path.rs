//! The memory path: how a physical address becomes a hardware address.

use sdam_hbm::{DecodedAddr, Geometry, HardwareAddr};
use sdam_mapping::{AddressMapping, Cmt, CmtLookupCache, IdentityMapping, PhysAddr};

/// Per-stream state for the translation fast path: a memo of the last
/// chunk's CMT entry (the hardware's last-chunk latch, §5.3). One cache
/// per core — it memoizes that core's chunk locality and must not be
/// shared across streams. Results are identical to the uncached path.
#[derive(Debug, Clone, Copy, Default)]
pub struct TranslationCache(CmtLookupCache);

impl TranslationCache {
    /// Lookups served from the last-chunk memo.
    pub fn hits(&self) -> u64 {
        self.0.hits()
    }

    /// Lookups that walked the first-level CMT table.
    pub fn misses(&self) -> u64 {
        self.0.misses()
    }

    /// This cache's counters as a mergeable [`TranslationStats`].
    pub fn stats(&self) -> TranslationStats {
        TranslationStats {
            memo_hits: self.hits(),
            memo_misses: self.misses(),
        }
    }
}

/// Aggregated CMT translation counters for one run, summed over the
/// per-core [`TranslationCache`]s in core order.
///
/// Every [`Cmt::translate_cached`] call is exactly one memo hit or one
/// memo miss, so `lookups() == memo_hits + memo_misses` equals the
/// number of external requests a `Chunked` engine translated. `Global`
/// engines never touch the memo and leave both counters at zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TranslationStats {
    /// Lookups served from the per-core last-chunk memo.
    pub memo_hits: u64,
    /// Lookups that walked the first-level CMT table.
    pub memo_misses: u64,
}

impl TranslationStats {
    /// Total translations through the cached path.
    pub fn lookups(&self) -> u64 {
        self.memo_hits + self.memo_misses
    }

    /// Adds another core's counters into this one.
    pub fn merge(&mut self, other: TranslationStats) {
        self.memo_hits += other.memo_hits;
        self.memo_misses += other.memo_misses;
    }

    /// Exports the counters into `reg` under the `cmt.*` namespace.
    pub fn export_into(&self, reg: &mut sdam_obs::Registry) {
        reg.incr("cmt.lookups", self.lookups());
        reg.incr("cmt.memo_hits", self.memo_hits);
        reg.incr("cmt.memo_misses", self.memo_misses);
    }
}

/// The PA→HA stage of the memory controller.
///
/// * `Global` — one fixed [`AddressMapping`] for every address: the
///   hardware-only baselines (BS+DM, BS+BSM, BS+HM).
/// * `Chunked` — the SDAM path: the [`Cmt`] selects a per-chunk AMU
///   configuration.
// One engine exists per system and it sits on the hot translate path,
// so the CMT stays inline rather than boxed despite the size gap
// between the variants.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum MappingEngine {
    /// A single global mapping.
    Global(Box<dyn AddressMapping>),
    /// The chunk-mapping-table path.
    Chunked(Cmt),
}

impl MappingEngine {
    /// The boot-time default path (identity mapping).
    pub fn identity() -> Self {
        MappingEngine::Global(Box::new(IdentityMapping))
    }

    /// Maps a physical address to a hardware address and decodes it,
    /// through a per-stream [`TranslationCache`]: the chunked path skips
    /// the first-level CMT walk when consecutive accesses stay in one
    /// chunk (almost always — a chunk holds 32 K lines). Same result as
    /// the uncached mapping (`Cmt::translate` on the chunked path) for
    /// every input.
    #[inline]
    pub(crate) fn decode_cached(
        &self,
        pa: PhysAddr,
        geom: Geometry,
        cache: &mut TranslationCache,
    ) -> DecodedAddr {
        match self {
            MappingEngine::Global(m) => geom.decode(m.map(pa)),
            MappingEngine::Chunked(cmt) => geom.decode(cmt.translate_cached(pa, &mut cache.0)),
        }
    }

    /// Block twin of `MappingEngine::decode_cached`: translates a
    /// block of raw physical addresses in place and appends the decoded
    /// hardware addresses to `out`.
    ///
    /// The engine dispatch and mapping setup are hoisted to one match
    /// per block; results and translation counters are bit-identical to
    /// calling `MappingEngine::decode_cached` on each element in
    /// order (the `pas` slice must be one stream's addresses in stream
    /// order, since the memo in `cache` is order-sensitive).
    pub fn decode_block(
        &self,
        pas: &mut [u64],
        geom: Geometry,
        cache: &mut TranslationCache,
        out: &mut Vec<DecodedAddr>,
    ) {
        match self {
            MappingEngine::Global(m) => m.map_block(pas),
            MappingEngine::Chunked(cmt) => cmt.translate_block_cached(pas, &mut cache.0),
        }
        out.extend(pas.iter().map(|&a| geom.decode(HardwareAddr(a))));
    }

    /// Cycles the PA→HA stage adds to a miss: the CMT SRAM lookup for
    /// the chunked path, zero for combinational global mappings.
    ///
    /// The paper's ratio (§5.3) is 6 ns of lookup against >130 ns of HBM
    /// access. Our simulator's access latencies are deliberately
    /// compressed (closed-bank ≈ 32 cycles), so charging a literal 6 ns
    /// would inflate the lookup to ~20 % of an access; we charge the
    /// paper's *ratio* of the modeled closed-bank latency instead, which
    /// keeps "negligible" meaning negligible.
    pub(crate) fn lookup_cycles(&self, timing: &sdam_hbm::Timing) -> u64 {
        match self {
            MappingEngine::Global(_) => 0,
            MappingEngine::Chunked(_) => {
                const PAPER_RATIO: f64 = sdam_mapping::cmt::CMT_LOOKUP_NS / 130.0;
                (PAPER_RATIO * timing.closed_latency() as f64).ceil() as u64
            }
        }
    }

    /// A short name for reports.
    pub fn name(&self) -> &str {
        match self {
            MappingEngine::Global(m) => m.name(),
            MappingEngine::Chunked(_) => "SDAM",
        }
    }

    /// The chunk-mapping table, if this engine runs the chunked path.
    /// Adaptive remapping is only meaningful on the chunked path — a
    /// global mapping has no per-chunk assignment to flip.
    pub(crate) fn as_chunked(&self) -> Option<&Cmt> {
        match self {
            MappingEngine::Global(_) => None,
            MappingEngine::Chunked(cmt) => Some(cmt),
        }
    }

    /// Mutable twin of `MappingEngine::as_chunked`, e.g. to
    /// `assign_chunk` before a run.
    pub fn as_chunked_mut(&mut self) -> Option<&mut Cmt> {
        match self {
            MappingEngine::Global(_) => None,
            MappingEngine::Chunked(cmt) => Some(cmt),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdam_mapping::{BitPermutation, BitShuffleMapping, MappingId};

    /// `pa` through the engine's cached path, on a fresh cache.
    fn decode(e: &MappingEngine, pa: u64, geom: Geometry) -> DecodedAddr {
        e.decode_cached(PhysAddr(pa), geom, &mut TranslationCache::default())
    }

    /// A CMT whose chunk 0 swaps address bits 6 and 8.
    fn swapped_chunk_zero() -> Cmt {
        let mut cmt = Cmt::new(33, 21);
        let mut t: Vec<u32> = (0..15).collect();
        t.swap(0, 2);
        cmt.register(MappingId(1), &BitPermutation::new(6, t).unwrap());
        cmt.assign_chunk(0, MappingId(1)).unwrap();
        cmt
    }

    #[test]
    fn identity_passthrough() {
        let geom = Geometry::hbm2_8gb();
        let e = MappingEngine::identity();
        assert_eq!(decode(&e, 0x1234, geom), geom.decode(HardwareAddr(0x1234)));
        assert_eq!(e.name(), "DM");
    }

    #[test]
    fn global_shuffle_applies() {
        let geom = Geometry::hbm2_8gb();
        let mut t: Vec<u32> = (0..15).collect();
        t.swap(0, 1);
        let m = BitShuffleMapping::new(BitPermutation::new(6, t).unwrap());
        let e = MappingEngine::Global(Box::new(m));
        assert_eq!(decode(&e, 1 << 6, geom), geom.decode(HardwareAddr(1 << 7)));
        assert_eq!(e.name(), "BSM");
    }

    #[test]
    fn chunked_uses_cmt() {
        let geom = Geometry::hbm2_8gb();
        let e = MappingEngine::Chunked(swapped_chunk_zero());
        assert_eq!(decode(&e, 1 << 6, geom), geom.decode(HardwareAddr(1 << 8)));
        // Chunk 1 still identity.
        let pa = (1 << 21) | (1 << 6);
        assert_eq!(decode(&e, pa, geom), geom.decode(HardwareAddr(pa)));
        assert_eq!(e.name(), "SDAM");
    }

    #[test]
    fn cmt_lookup_latency_only_on_chunked_path() {
        let t = sdam_hbm::Timing::hbm2();
        assert_eq!(MappingEngine::identity().lookup_cycles(&t), 0);
        let chunked = MappingEngine::Chunked(Cmt::new(33, 21));
        let l = chunked.lookup_cycles(&t);
        assert!(l >= 1, "the lookup is never free");
        assert!(
            (l as f64) < 0.1 * t.closed_latency() as f64,
            "the lookup must stay negligible: {l} vs {}",
            t.closed_latency()
        );
    }

    #[test]
    fn decode_cached_matches_uncached_translation() {
        let geom = Geometry::hbm2_8gb();
        let cmt = swapped_chunk_zero();
        let engines: [(MappingEngine, &dyn Fn(PhysAddr) -> HardwareAddr); 2] = [
            (MappingEngine::identity(), &|pa| IdentityMapping.map(pa)),
            (MappingEngine::Chunked(cmt.clone()), &|pa| cmt.translate(pa)),
        ];
        for (e, uncached) in engines {
            let mut cache = TranslationCache::default();
            // Chunk-local runs with occasional chunk switches.
            for pa in (0..(4u64 << 21)).step_by(0x2_64d) {
                let pa = PhysAddr(pa);
                assert_eq!(
                    e.decode_cached(pa, geom, &mut cache),
                    geom.decode(uncached(pa))
                );
            }
        }
    }

    #[test]
    fn decode_uses_geometry() {
        let e = MappingEngine::identity();
        assert_eq!(decode(&e, 64, Geometry::hbm2_8gb()).channel, 1);
    }
}
