//! The Chunk Mapping Table (CMT): per-chunk mapping metadata.
//!
//! The CMT (paper §5.3) is a small on-chip SRAM keyed by chunk number.
//! To keep it compact it is split in two levels: the first table stores
//! one 8-bit *mapping index* per chunk; the second stores the 60-bit AMU
//! crossbar configuration for each of up to 256 concurrently-live
//! mappings. For the paper's 128 GB/socket configuration that is
//! `64 K × 8 b + 256 × 60 b ≈ 67.9 KB`, versus 480 KB for a flat table.
//!
//! On every memory access the chunk number indexes the CMT, the AMU
//! permutes the chunk-offset bits, and the chunk number is copied
//! through unchanged — which is what makes inter-chunk aliasing
//! impossible (paper §4).

use sdam_hbm::HardwareAddr;

use crate::{AmuConfig, BitPermutation, MappingId, PhysAddr};

/// Lookup latency of the CMT SRAM in nanoseconds (paper §5.3: "6 ns …
/// negligible in comparison to the HBM access latency (> 130 ns)").
pub const CMT_LOOKUP_NS: f64 = 6.0;

/// Maximum number of concurrently-registered mappings (8-bit index).
pub const MAX_MAPPINGS: usize = 256;

/// Errors from CMT operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CmtError {
    /// The chunk number exceeds the table size.
    ChunkOutOfRange {
        /// Offending chunk number.
        chunk: u64,
        /// Number of chunks the table covers.
        chunks: u64,
    },
    /// The mapping id has no registered crossbar configuration.
    UnregisteredMapping(MappingId),
    /// All 256 mapping-id slots are simultaneously live; none can be
    /// allocated until one is unregistered.
    MappingIdsExhausted,
    /// The mapping cannot be unregistered: chunks are still assigned to
    /// it (or it is the permanent default mapping, id 0).
    MappingInUse {
        /// The mapping that is still live.
        id: MappingId,
        /// Chunks currently assigned to it.
        assigned_chunks: u64,
    },
    /// The chunk size does not subdivide the physical space, or its
    /// offset window (above the 6 line-offset bits) is empty or exceeds
    /// the AMU's 21-bit crossbar.
    InvalidChunkBits {
        /// Offending chunk size in address bits.
        chunk_bits: u32,
        /// The physical address width the table must cover.
        phys_bits: u32,
    },
    /// A registered permutation does not cover exactly the chunk-offset
    /// window `[6, chunk_bits)`.
    WrongWindow {
        /// The permutation's low bit.
        lo: u32,
        /// The permutation's width in bits.
        len: u32,
        /// The table's chunk size in address bits.
        chunk_bits: u32,
    },
}

impl std::fmt::Display for CmtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CmtError::ChunkOutOfRange { chunk, chunks } => {
                write!(
                    f,
                    "chunk {chunk} out of range (table covers {chunks} chunks)"
                )
            }
            CmtError::UnregisteredMapping(id) => {
                write!(f, "mapping {id} has no registered AMU configuration")
            }
            CmtError::MappingIdsExhausted => {
                write!(f, "all 256 mapping-id slots are registered")
            }
            CmtError::MappingInUse {
                id,
                assigned_chunks,
            } => write!(
                f,
                "mapping {id} still has {assigned_chunks} chunks assigned (the default \
                 mapping can never be unregistered)"
            ),
            CmtError::InvalidChunkBits {
                chunk_bits,
                phys_bits,
            } => write!(
                f,
                "invalid chunk_bits {chunk_bits} for a {phys_bits}-bit physical space \
                 (need 6 < chunk_bits < phys_bits and chunk_bits - 6 <= 21)"
            ),
            CmtError::WrongWindow {
                lo,
                len,
                chunk_bits,
            } => write!(
                f,
                "permutation window [{lo}, {}) must cover exactly the chunk offset \
                 [6, {chunk_bits})",
                lo + len
            ),
        }
    }
}

impl std::error::Error for CmtError {}

/// The two-level chunk mapping table: a mapping index per chunk and
/// one PA→HA permutation slot per mapping id.
///
/// The slot holds the decoded crossbar configuration the AMU applies;
/// an empty slot is an unregistered id. The hardware's packed 60-bit
/// entry ([`AmuConfig`]) is derived from a slot only for the storage
/// figures.
///
/// # Example
///
/// ```
/// use sdam_mapping::{BitPermutation, Cmt, MappingId, PhysAddr};
///
/// // 8 GB of physical memory in 2 MB chunks.
/// let mut cmt = Cmt::new(33, 21);
/// let mut table: Vec<u32> = (0..15).collect();
/// table.swap(0, 4);
/// let perm = BitPermutation::new(6, table)?;
/// let id = MappingId(1);
/// cmt.register(id, &perm);
/// cmt.assign_chunk(3, id)?;
///
/// // Addresses in chunk 3 are remapped; chunk number is preserved.
/// let pa = PhysAddr((3 << 21) | (1 << 10));
/// let ha = cmt.translate(pa);
/// assert_eq!(ha.raw() >> 21, 3);
/// assert_eq!(ha.raw() & ((1 << 21) - 1), 1 << 6);
/// // Addresses in other chunks keep the boot-time default.
/// assert_eq!(cmt.translate(PhysAddr(1 << 10)).raw(), 1 << 10);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Cmt {
    chunk_bits: u32,
    /// First-level table: mapping index per chunk.
    chunk_index: Vec<u8>,
    /// Second-level table: the crossbar permutation per mapping id,
    /// `None` while the id is unregistered. No chunk can point at an
    /// empty slot ([`Cmt::assign_chunk`] and [`Cmt::unregister`] refuse
    /// it), and translation passes an address through such a slot
    /// unchanged, so the lookup path stays infallible.
    perms: Vec<Option<BitPermutation>>,
    /// Configuration epoch: bumped by every [`Cmt::register`] and
    /// [`Cmt::assign_chunk`], so outstanding [`CmtLookupCache`]s
    /// self-invalidate instead of serving stale mapping indices.
    epoch: u64,
    /// Recyclable id slots (LIFO). [`Cmt::allocate_id`] pops,
    /// [`Cmt::unregister`] pushes, so register → unregister → register
    /// reuses slots in O(1) and long-uptime churn never exhausts the
    /// 8-bit id space.
    free_ids: Vec<u8>,
    /// Membership column for `free_ids` (an id directly registered
    /// while still on the stack is lazily skipped when popped).
    in_free: Vec<bool>,
    /// Chunks currently assigned per mapping id; unregistration is
    /// refused while non-zero, so no chunk can ever point at an empty
    /// slot and stale-id translation stays a typed error.
    assigned: Vec<u64>,
}

/// A one-entry memo of the last chunk→mapping lookup, for the
/// translation fast path ([`Cmt::translate_cached`]).
///
/// Real address streams are strongly chunk-local (a 2 MB chunk holds
/// 32 K cache lines), so remembering the last chunk's mapping index
/// skips the first-level table walk on almost every access. Keep one
/// cache per simulated core: it memoizes per-stream locality and must
/// never be shared across streams with different localities.
///
/// The memo records the CMT's configuration epoch it was filled under;
/// any `register`/`assign_chunk` on the table bumps the epoch and the
/// next lookup discards the stale entry, so a long-lived cache is
/// always safe to keep across remappings.
#[derive(Debug, Clone, Copy, Default)]
pub struct CmtLookupCache {
    entry: Option<(u64, u8)>,
    epoch: u64,
    hits: u64,
    misses: u64,
}

impl CmtLookupCache {
    /// Lookups served from the memo (same chunk, same epoch).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that walked the first-level table (cold, chunk switch,
    /// or epoch invalidation).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total lookups through this cache. By construction every
    /// [`Cmt::translate_cached`] call is exactly one hit or one miss,
    /// so `lookups() == hits() + misses()` always.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

impl Cmt {
    /// Creates a CMT for a physical space of `phys_bits` address bits
    /// divided into `2^chunk_bits`-byte chunks. All chunks start on the
    /// default mapping (id 0 = identity).
    ///
    /// # Panics
    ///
    /// Panics if `chunk_bits >= phys_bits` or the chunk offset window
    /// (above the 6 line-offset bits) is empty or exceeds 21 bits.
    pub fn new(phys_bits: u32, chunk_bits: u32) -> Self {
        match Cmt::try_new(phys_bits, chunk_bits) {
            Ok(cmt) => cmt,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible twin of [`Cmt::new`].
    ///
    /// # Errors
    ///
    /// [`CmtError::InvalidChunkBits`] if `chunk_bits` does not subdivide
    /// the space or its offset window is empty or exceeds 21 bits.
    pub fn try_new(phys_bits: u32, chunk_bits: u32) -> Result<Self, CmtError> {
        if chunk_bits >= phys_bits || chunk_bits <= 6 || chunk_bits - 6 > 21 {
            return Err(CmtError::InvalidChunkBits {
                chunk_bits,
                phys_bits,
            });
        }
        let chunks = 1usize << (phys_bits - chunk_bits);
        let mut perms = vec![None; MAX_MAPPINGS];
        perms[0] = Some(BitPermutation::identity(6, (chunk_bits - 6) as usize));
        let mut assigned = vec![0u64; MAX_MAPPINGS];
        assigned[0] = chunks as u64;
        let mut in_free = vec![true; MAX_MAPPINGS];
        in_free[0] = false;
        Ok(Cmt {
            chunk_bits,
            chunk_index: vec![0; chunks],
            perms,
            epoch: 0,
            // Reverse order so pops hand out 1, 2, 3, … while the
            // stack top always holds the most recently recycled id.
            free_ids: (1..=u8::MAX).rev().collect(),
            in_free,
            assigned,
        })
    }

    /// A CMT sized exactly as the paper's headline configuration:
    /// 128 GB socket (37 address bits) with 2 MB chunks → 64 K chunks.
    pub fn paper_128gb() -> Self {
        Cmt::new(37, 21)
    }

    /// Number of chunks covered.
    #[inline]
    pub fn num_chunks(&self) -> u64 {
        self.chunk_index.len() as u64
    }

    /// The chunk size in bytes.
    #[inline]
    pub fn chunk_bytes(&self) -> u64 {
        1u64 << self.chunk_bits
    }

    /// The chunk-offset width in bits.
    #[inline]
    pub fn chunk_bits(&self) -> u32 {
        self.chunk_bits
    }

    /// Registers (or replaces) the crossbar configuration for a mapping
    /// id. This models the OS writing the CMT's second-level table over
    /// memory-mapped I/O.
    ///
    /// # Panics
    ///
    /// Panics if the permutation window is not the chunk-offset window
    /// `[6, chunk_bits)`.
    pub fn register(&mut self, id: MappingId, perm: &BitPermutation) {
        if let Err(e) = self.try_register(id, perm) {
            panic!("permutation must cover exactly the chunk offset: {e}");
        }
    }

    /// Fallible twin of [`Cmt::register`].
    ///
    /// # Errors
    ///
    /// [`CmtError::WrongWindow`] if the permutation does not cover
    /// exactly the chunk-offset window `[6, chunk_bits)`.
    pub fn try_register(&mut self, id: MappingId, perm: &BitPermutation) -> Result<(), CmtError> {
        if perm.lo() != 6 || perm.len() as u32 != self.chunk_bits - 6 {
            return Err(CmtError::WrongWindow {
                lo: perm.lo(),
                len: perm.len() as u32,
                chunk_bits: self.chunk_bits,
            });
        }
        self.perms[id.index()] = Some(perm.clone());
        self.epoch += 1;
        Ok(())
    }

    /// Reserves a currently-unregistered mapping id, in O(1) amortized
    /// off the recycling free list. The caller follows up with
    /// [`Cmt::register`] to install a configuration; a reserved id is
    /// never handed out twice, even before that registration lands.
    /// Unregistered ids return to the free list and are reused LIFO.
    ///
    /// # Errors
    ///
    /// [`CmtError::MappingIdsExhausted`] when 255 non-default ids are
    /// simultaneously reserved or registered.
    pub fn allocate_id(&mut self) -> Result<MappingId, CmtError> {
        while let Some(id) = self.free_ids.pop() {
            self.in_free[id as usize] = false;
            // Ids registered directly (without allocate_id) may still
            // sit on the stack from construction; skip them lazily.
            if self.perms[id as usize].is_none() {
                return Ok(MappingId(id));
            }
        }
        Err(CmtError::MappingIdsExhausted)
    }

    /// Unregisters a mapping and recycles its id for a later
    /// [`Cmt::allocate_id`]. The epoch bump invalidates every
    /// outstanding [`CmtLookupCache`] memo, so no stream can keep
    /// translating through the retired slot; translation *under* the
    /// retired id ([`Cmt::translate_under`]) becomes the typed
    /// [`CmtError::UnregisteredMapping`] error.
    ///
    /// # Errors
    ///
    /// [`CmtError::UnregisteredMapping`] for an id with no
    /// configuration; [`CmtError::MappingInUse`] while chunks are still
    /// assigned to the mapping, and always for the default id 0 (the
    /// boot-time identity must stay translatable).
    pub fn unregister(&mut self, id: MappingId) -> Result<(), CmtError> {
        if !self.is_registered(id) {
            return Err(CmtError::UnregisteredMapping(id));
        }
        if id.0 == 0 || self.assigned[id.index()] > 0 {
            return Err(CmtError::MappingInUse {
                id,
                assigned_chunks: self.assigned[id.index()],
            });
        }
        self.perms[id.index()] = None;
        if !self.in_free[id.index()] {
            self.in_free[id.index()] = true;
            self.free_ids.push(id.0);
        }
        self.epoch += 1;
        Ok(())
    }

    /// Assigns a chunk to a registered mapping. Models the kernel's
    /// chunk-allocation path writing the first-level table.
    ///
    /// # Errors
    ///
    /// Returns [`CmtError::ChunkOutOfRange`] or
    /// [`CmtError::UnregisteredMapping`].
    pub fn assign_chunk(&mut self, chunk: u64, id: MappingId) -> Result<(), CmtError> {
        if chunk >= self.num_chunks() {
            return Err(CmtError::ChunkOutOfRange {
                chunk,
                chunks: self.num_chunks(),
            });
        }
        if !self.is_registered(id) {
            return Err(CmtError::UnregisteredMapping(id));
        }
        let old = self.chunk_index[chunk as usize] as usize;
        self.assigned[old] -= 1;
        self.assigned[id.index()] += 1;
        self.chunk_index[chunk as usize] = id.0;
        self.epoch += 1;
        Ok(())
    }

    /// The mapping currently assigned to a chunk.
    ///
    /// # Panics
    ///
    /// Panics if the chunk is out of range.
    pub fn chunk_mapping(&self, chunk: u64) -> MappingId {
        MappingId(self.chunk_index[chunk as usize])
    }

    /// Translates a physical address: the chunk number passes through,
    /// the chunk offset goes through the chunk's AMU.
    ///
    /// # Panics
    ///
    /// Panics if the address lies beyond the covered physical space.
    pub fn translate(&self, pa: PhysAddr) -> HardwareAddr {
        let chunk = pa.chunk_number(self.chunk_bits);
        let perm = self.perms[self.chunk_index[chunk as usize] as usize].as_ref();
        HardwareAddr(perm.map_or(pa.0, |p| p.apply(pa.0)))
    }

    /// [`Cmt::translate`] with a per-stream memo of the last chunk's
    /// mapping index — the simulator's model of the hardware's
    /// last-chunk latch. Results are identical to [`Cmt::translate`];
    /// only the first-level table indexing is skipped on a memo hit.
    /// A memo filled before a `register`/`assign_chunk` is discarded
    /// automatically (epoch check), so stale entries can never leak a
    /// superseded mapping.
    #[inline]
    pub fn translate_cached(&self, pa: PhysAddr, cache: &mut CmtLookupCache) -> HardwareAddr {
        let perm = self.memo_perm(pa.chunk_number(self.chunk_bits), cache);
        HardwareAddr(perm.map_or(pa.0, |p| p.apply(pa.0)))
    }

    /// The permutation of `chunk`, looked up through the per-stream
    /// memo: a hit when the memo holds this chunk from the current
    /// epoch, otherwise a CMT read that refills the memo.
    #[inline]
    fn memo_perm(&self, chunk: u64, cache: &mut CmtLookupCache) -> Option<&BitPermutation> {
        let id = match cache.entry {
            Some((c, id)) if c == chunk && cache.epoch == self.epoch => {
                cache.hits += 1;
                id
            }
            _ => {
                let id = self.chunk_index[chunk as usize];
                cache.entry = Some((chunk, id));
                cache.epoch = self.epoch;
                cache.misses += 1;
                id
            }
        };
        self.perms[id as usize].as_ref()
    }

    /// Translates a block of raw physical addresses in place, through
    /// the same per-stream memo as [`Cmt::translate_cached`].
    ///
    /// Addresses are split into runs sharing one chunk; the run's first
    /// element goes through the memo exactly as the scalar path would,
    /// and the remainder are memo hits by construction (the memo now
    /// holds their chunk), so the hit/miss counters and results are
    /// bit-identical to calling [`Cmt::translate_cached`] on each
    /// element in order. The AMU is resolved once per run and applied
    /// with the batched permutation kernel.
    ///
    /// # Panics
    ///
    /// Panics if an address lies beyond the covered physical space.
    pub fn translate_block_cached(&self, addrs: &mut [u64], cache: &mut CmtLookupCache) {
        let mut i = 0;
        while i < addrs.len() {
            let chunk = PhysAddr(addrs[i]).chunk_number(self.chunk_bits);
            let mut j = i + 1;
            while j < addrs.len() && PhysAddr(addrs[j]).chunk_number(self.chunk_bits) == chunk {
                j += 1;
            }
            let perm = self.memo_perm(chunk, cache);
            cache.hits += (j - i - 1) as u64;
            if let Some(p) = perm {
                p.apply_block(&mut addrs[i..j]);
            }
            i = j;
        }
    }

    /// Storage of the two-level organization in bits:
    /// `chunks × 8 + 256 × config_bits`.
    pub fn storage_bits_two_level(&self) -> u64 {
        self.num_chunks() * 8 + MAX_MAPPINGS as u64 * self.config_bits()
    }

    /// Packed crossbar-configuration width in bits (the identity slot is
    /// registered at construction, so the table always has one).
    fn config_bits(&self) -> u64 {
        self.perms[0]
            .as_ref()
            .map_or(0, |p| AmuConfig::pack(p).storage_bits() as u64)
    }

    /// Storage of the equivalent flat organization in bits:
    /// `chunks × config_bits`.
    pub fn storage_bits_flat(&self) -> u64 {
        self.num_chunks() * self.config_bits()
    }

    /// Whether `id` has a registered permutation (the default mapping,
    /// id 0, always has).
    #[inline]
    pub fn is_registered(&self, id: MappingId) -> bool {
        self.perms[id.index()].is_some()
    }

    /// The registered mapping ids in ascending id order. Adaptive
    /// controllers iterate this to score candidate mappings for a chunk.
    pub fn registered_ids(&self) -> impl Iterator<Item = MappingId> + '_ {
        (0..=u8::MAX)
            .map(MappingId)
            .filter(|&id| self.is_registered(id))
    }

    /// Translates a physical address under a *specific* registered
    /// mapping, ignoring the chunk's current assignment.
    ///
    /// Two callers need this: candidate scoring ("where would this
    /// chunk's traffic land under mapping `id`?") and live migration
    /// (the destination addresses of a chunk being moved to `id` before
    /// [`Cmt::assign_chunk`] flips the table entry).
    ///
    /// # Errors
    ///
    /// Returns [`CmtError::UnregisteredMapping`] if `id` has no
    /// registered configuration.
    pub fn translate_under(&self, id: MappingId, pa: PhysAddr) -> Result<HardwareAddr, CmtError> {
        match self.perms[id.index()].as_ref() {
            Some(p) => Ok(HardwareAddr(p.apply(pa.0))),
            None => Err(CmtError::UnregisteredMapping(id)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Cmt {
        /// Chunks currently assigned to a mapping. The conservation
        /// identity `sum over ids == num_chunks()` holds at all times.
        fn assigned_chunks(&self, id: MappingId) -> u64 {
            self.assigned[id.index()]
        }
    }

    fn swap_perm(a: usize, b: usize, n: usize) -> BitPermutation {
        let mut table: Vec<u32> = (0..n as u32).collect();
        table.swap(a, b);
        BitPermutation::new(6, table).unwrap()
    }

    #[test]
    fn paper_storage_numbers() {
        let cmt = Cmt::paper_128gb();
        assert_eq!(cmt.num_chunks(), 64 * 1024);
        // 64K x 8b + 256 x 60b = 512 Kib + 15 Kib = 539,648 bits ≈ 67.9 KB.
        assert_eq!(cmt.storage_bits_two_level(), 64 * 1024 * 8 + 256 * 60);
        let kb = cmt.storage_bits_two_level() as f64 / 8.0 / 1000.0;
        assert!(
            (67.0..69.0).contains(&kb),
            "two-level CMT should be ~68 KB, got {kb}"
        );
        // Flat: 64K x 60b = 480 KB (paper: 491 kB, same order).
        let flat_kb = cmt.storage_bits_flat() as f64 / 8.0 / 1000.0;
        assert!((450.0..500.0).contains(&flat_kb));
        // Two-level is ~7x smaller.
        assert!(cmt.storage_bits_flat() > 7 * cmt.storage_bits_two_level());
    }

    #[test]
    fn translate_block_cached_matches_scalar_path() {
        // Chunk-local runs with chunk switches and a non-identity AMU on
        // some chunks: results and memo counters must be bit-identical
        // to driving translate_cached element by element.
        let mut cmt = Cmt::new(33, 21);
        cmt.register(MappingId(1), &swap_perm(0, 2, 15));
        cmt.assign_chunk(0, MappingId(1)).unwrap();
        cmt.assign_chunk(3, MappingId(1)).unwrap();
        let pas: Vec<u64> = (0..10_000u64).map(|i| (i * 0x2_64d) % (8 << 21)).collect();
        let mut scalar_cache = CmtLookupCache::default();
        let want: Vec<u64> = pas
            .iter()
            .map(|&a| cmt.translate_cached(PhysAddr(a), &mut scalar_cache).raw())
            .collect();
        let mut block_cache = CmtLookupCache::default();
        for block_len in [1usize, 7, 256, 10_000] {
            let mut got = pas.clone();
            block_cache = CmtLookupCache::default();
            for chunk in got.chunks_mut(block_len) {
                cmt.translate_block_cached(chunk, &mut block_cache);
            }
            assert_eq!(got, want, "block size {block_len} diverged");
        }
        assert_eq!(block_cache.hits(), scalar_cache.hits());
        assert_eq!(block_cache.misses(), scalar_cache.misses());
    }

    #[test]
    fn default_chunks_are_identity() {
        let cmt = Cmt::new(33, 21);
        for pa in [0u64, 4096, (5 << 21) | 123] {
            assert_eq!(cmt.translate(PhysAddr(pa)).raw(), pa);
        }
    }

    #[test]
    fn assignment_changes_only_that_chunk() {
        let mut cmt = Cmt::new(33, 21);
        cmt.register(MappingId(7), &swap_perm(0, 1, 15));
        cmt.assign_chunk(2, MappingId(7)).unwrap();
        assert_eq!(cmt.chunk_mapping(2), MappingId(7));
        assert_eq!(cmt.chunk_mapping(1), MappingId(0));
        let in_chunk2 = PhysAddr((2 << 21) | (1 << 6));
        assert_eq!(cmt.translate(in_chunk2).raw(), (2 << 21) | (1 << 7));
        let in_chunk1 = PhysAddr((1 << 21) | (1 << 6));
        assert_eq!(cmt.translate(in_chunk1).raw(), in_chunk1.raw());
    }

    #[test]
    fn chunk_number_always_preserved() {
        let mut cmt = Cmt::new(33, 21);
        cmt.register(MappingId(3), &swap_perm(0, 14, 15));
        for c in 0..cmt.num_chunks() {
            if c % 3 == 0 {
                cmt.assign_chunk(c, MappingId(3)).unwrap();
            }
        }
        for pa in (0..(1u64 << 33)).step_by(1 << 27) {
            let ha = cmt.translate(PhysAddr(pa));
            assert_eq!(ha.raw() >> 21, pa >> 21);
        }
    }

    #[test]
    fn translate_cached_matches_translate() {
        let mut cmt = Cmt::new(33, 21);
        cmt.register(MappingId(1), &swap_perm(2, 9, 15));
        cmt.register(MappingId(2), &swap_perm(0, 14, 15));
        cmt.assign_chunk(0, MappingId(1)).unwrap();
        cmt.assign_chunk(2, MappingId(2)).unwrap();
        let mut cache = CmtLookupCache::default();
        // Alternate between chunks so the memo both hits and misses.
        for pa in (0..(3u64 << 21)).step_by(0x1_813) {
            let pa = PhysAddr(pa);
            assert_eq!(cmt.translate_cached(pa, &mut cache), cmt.translate(pa));
        }
        // Reassignment bumps the configuration epoch, so even the warm
        // cache observes the new assignment.
        cmt.assign_chunk(0, MappingId(2)).unwrap();
        let pa = PhysAddr(1 << 6);
        assert_eq!(cmt.translate_cached(pa, &mut cache), cmt.translate(pa));
    }

    #[test]
    fn memo_counts_every_lookup_exactly_once() {
        let mut cmt = Cmt::new(33, 21);
        cmt.register(MappingId(1), &swap_perm(2, 9, 15));
        cmt.assign_chunk(0, MappingId(1)).unwrap();
        let mut cache = CmtLookupCache::default();
        assert_eq!(cache.lookups(), 0);
        // Chunk-local run: 1 cold miss + 9 hits.
        for i in 0..10u64 {
            cmt.translate_cached(PhysAddr(i << 6), &mut cache);
        }
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 9);
        // Chunk switch misses once, then hits again.
        cmt.translate_cached(PhysAddr(1 << 21), &mut cache);
        cmt.translate_cached(PhysAddr((1 << 21) | 64), &mut cache);
        assert_eq!(cache.misses(), 2);
        // Epoch bump invalidates the warm memo: next lookup is a miss.
        cmt.assign_chunk(2, MappingId(1)).unwrap();
        cmt.translate_cached(PhysAddr((1 << 21) | 128), &mut cache);
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.lookups(), cache.hits() + cache.misses());
        assert_eq!(cache.lookups(), 13);
    }

    #[test]
    fn stale_memo_invalidated_on_chunk_remap() {
        let mut cmt = Cmt::new(33, 21);
        cmt.register(MappingId(1), &swap_perm(2, 9, 15));
        cmt.register(MappingId(2), &swap_perm(0, 14, 15));
        cmt.assign_chunk(0, MappingId(1)).unwrap();
        let mut cache = CmtLookupCache::default();
        let pa = PhysAddr(1 << 6);
        // Warm the memo on chunk 0 under mapping 1.
        assert_eq!(cmt.translate_cached(pa, &mut cache), cmt.translate(pa));
        // Remap the chunk: the warm memo must not serve mapping 1.
        cmt.assign_chunk(0, MappingId(2)).unwrap();
        assert_eq!(
            cmt.translate_cached(pa, &mut cache),
            cmt.translate(pa),
            "memo survived a chunk remap"
        );
        assert_eq!(cmt.translate_cached(pa, &mut cache).raw(), 1 << 20);
    }

    #[test]
    fn stale_memo_invalidated_on_reregistration() {
        let mut cmt = Cmt::new(33, 21);
        cmt.register(MappingId(1), &swap_perm(0, 1, 15));
        cmt.assign_chunk(0, MappingId(1)).unwrap();
        let mut cache = CmtLookupCache::default();
        let pa = PhysAddr(1 << 6);
        assert_eq!(cmt.translate_cached(pa, &mut cache).raw(), 1 << 7);
        // Replace mapping 1's permutation under the warm memo. The memo
        // only stores the mapping *index*, which still reads the fresh
        // AMU — but the epoch check must also refresh the index path so
        // the behaviour is identical to the uncached translate.
        cmt.register(MappingId(1), &swap_perm(0, 2, 15));
        assert_eq!(
            cmt.translate_cached(pa, &mut cache),
            cmt.translate(pa),
            "memo survived a re-registration"
        );
        assert_eq!(cmt.translate_cached(pa, &mut cache).raw(), 1 << 8);
    }

    #[test]
    fn errors_reported() {
        let mut cmt = Cmt::new(33, 21);
        let err = cmt.assign_chunk(1 << 40, MappingId(0)).unwrap_err();
        assert!(matches!(err, CmtError::ChunkOutOfRange { .. }));
        let err = cmt.assign_chunk(0, MappingId(9)).unwrap_err();
        assert_eq!(err, CmtError::UnregisteredMapping(MappingId(9)));
        assert!(err.to_string().contains("map#9"));
    }

    #[test]
    fn register_replaces() {
        let mut cmt = Cmt::new(33, 21);
        assert_eq!(cmt.registered_ids().count(), 1);
        cmt.register(MappingId(1), &swap_perm(0, 1, 15));
        cmt.register(MappingId(1), &swap_perm(0, 2, 15));
        assert_eq!(cmt.registered_ids().count(), 2);
        cmt.assign_chunk(0, MappingId(1)).unwrap();
        assert_eq!(
            cmt.translate(PhysAddr(1 << 6)).raw(),
            1 << 8,
            "second registration wins"
        );
    }

    #[test]
    fn try_new_rejects_bad_chunk_bits() {
        for (phys, chunk) in [(33, 33), (33, 40), (33, 6), (33, 30), (14, 14)] {
            let err = Cmt::try_new(phys, chunk).unwrap_err();
            assert_eq!(
                err,
                CmtError::InvalidChunkBits {
                    chunk_bits: chunk,
                    phys_bits: phys
                }
            );
            assert!(err.to_string().contains("chunk_bits"));
        }
        assert!(Cmt::try_new(33, 21).is_ok());
    }

    #[test]
    fn try_register_rejects_wrong_window() {
        let mut cmt = Cmt::try_new(33, 21).unwrap();
        let err = cmt
            .try_register(MappingId(1), &BitPermutation::identity(6, 8))
            .unwrap_err();
        assert_eq!(
            err,
            CmtError::WrongWindow {
                lo: 6,
                len: 8,
                chunk_bits: 21
            }
        );
        assert!(cmt
            .try_register(MappingId(1), &BitPermutation::identity(6, 15))
            .is_ok());
    }

    #[test]
    #[should_panic(expected = "exactly the chunk offset")]
    fn wrong_window_rejected() {
        let mut cmt = Cmt::new(33, 21);
        cmt.register(MappingId(1), &BitPermutation::identity(6, 8));
    }

    #[test]
    fn allocate_id_hands_out_fresh_slots_and_recycles_lifo() {
        let mut cmt = Cmt::new(33, 21);
        let a = cmt.allocate_id().unwrap();
        let b = cmt.allocate_id().unwrap();
        assert_eq!(a, MappingId(1));
        assert_eq!(b, MappingId(2));
        cmt.register(a, &swap_perm(0, 1, 15));
        cmt.register(b, &swap_perm(0, 2, 15));
        cmt.unregister(a).unwrap();
        cmt.unregister(b).unwrap();
        // LIFO: the most recently released id comes back first.
        assert_eq!(cmt.allocate_id().unwrap(), b);
        assert_eq!(cmt.allocate_id().unwrap(), a);
    }

    #[test]
    fn id_churn_never_exhausts_under_the_cap() {
        let mut cmt = Cmt::new(33, 21);
        for round in 0..10_000u32 {
            let id = cmt.allocate_id().unwrap();
            cmt.register(id, &swap_perm(0, 1 + (round as usize % 14), 15));
            cmt.unregister(id).unwrap();
        }
        assert_eq!(cmt.registered_ids().count(), 1);
    }

    #[test]
    fn allocate_id_exhausts_with_typed_error() {
        let mut cmt = Cmt::new(33, 21);
        for _ in 1..=255 {
            let id = cmt.allocate_id().unwrap();
            cmt.register(id, &swap_perm(0, 1, 15));
        }
        assert_eq!(
            cmt.allocate_id().unwrap_err(),
            CmtError::MappingIdsExhausted
        );
        assert_eq!(cmt.registered_ids().count(), 256);
    }

    #[test]
    fn allocate_id_skips_directly_registered_ids() {
        let mut cmt = Cmt::new(33, 21);
        // Ids 1 and 2 claimed out of band (the legacy register path).
        cmt.register(MappingId(1), &swap_perm(0, 1, 15));
        cmt.register(MappingId(2), &swap_perm(0, 2, 15));
        assert_eq!(cmt.allocate_id().unwrap(), MappingId(3));
    }

    #[test]
    fn unregister_guards_live_and_default_mappings() {
        let mut cmt = Cmt::new(33, 21);
        assert_eq!(
            cmt.unregister(MappingId(9)).unwrap_err(),
            CmtError::UnregisteredMapping(MappingId(9))
        );
        // The default mapping owns every chunk at boot and can never go.
        assert!(matches!(
            cmt.unregister(MappingId(0)).unwrap_err(),
            CmtError::MappingInUse { .. }
        ));
        let id = cmt.allocate_id().unwrap();
        cmt.register(id, &swap_perm(0, 1, 15));
        cmt.assign_chunk(4, id).unwrap();
        assert_eq!(
            cmt.unregister(id).unwrap_err(),
            CmtError::MappingInUse {
                id,
                assigned_chunks: 1
            }
        );
        // Reassigning the chunk away releases the hold.
        cmt.assign_chunk(4, MappingId(0)).unwrap();
        cmt.unregister(id).unwrap();
        assert_eq!(
            cmt.translate_under(id, PhysAddr(64)).unwrap_err(),
            CmtError::UnregisteredMapping(id)
        );
    }

    #[test]
    fn assigned_chunks_conserve_across_reassignment() {
        let mut cmt = Cmt::new(33, 21);
        let id = cmt.allocate_id().unwrap();
        cmt.register(id, &swap_perm(0, 1, 15));
        let total = cmt.num_chunks();
        assert_eq!(cmt.assigned_chunks(MappingId(0)), total);
        for c in 0..5 {
            cmt.assign_chunk(c, id).unwrap();
        }
        assert_eq!(cmt.assigned_chunks(id), 5);
        assert_eq!(cmt.assigned_chunks(MappingId(0)), total - 5);
        cmt.assign_chunk(0, MappingId(0)).unwrap();
        assert_eq!(cmt.assigned_chunks(id), 4);
        assert_eq!(
            cmt.assigned_chunks(MappingId(0)) + cmt.assigned_chunks(id),
            total
        );
    }

    #[test]
    fn recycled_id_never_serves_stale_memo() {
        // A lookup memo warmed under the old tenant's registration must
        // not survive unregister → allocate_id → register of the same
        // numeric id: the epoch bump forces a fresh table walk.
        let mut cmt = Cmt::new(33, 21);
        let id = cmt.allocate_id().unwrap();
        cmt.register(id, &swap_perm(0, 1, 15));
        cmt.assign_chunk(0, id).unwrap();
        let mut cache = CmtLookupCache::default();
        let pa = PhysAddr(1 << 6);
        assert_eq!(cmt.translate_cached(pa, &mut cache).raw(), 1 << 7);
        cmt.assign_chunk(0, MappingId(0)).unwrap();
        cmt.unregister(id).unwrap();
        let id2 = cmt.allocate_id().unwrap();
        assert_eq!(id2, id, "slot should recycle");
        cmt.register(id2, &swap_perm(0, 2, 15));
        // Chunk 0 is back on the default mapping; the stale memo would
        // have translated through the retired slot's old AMU.
        assert_eq!(cmt.translate_cached(pa, &mut cache), cmt.translate(pa));
        assert_eq!(cmt.translate_cached(pa, &mut cache).raw(), 1 << 6);
    }

    #[test]
    fn registered_ids_track_register_unregister_and_reuse() {
        let mut cmt = Cmt::new(33, 21);
        let ids = |cmt: &Cmt| cmt.registered_ids().collect::<Vec<_>>();
        assert_eq!(ids(&cmt), [MappingId(0)]);
        assert!(cmt.is_registered(MappingId(0)));
        cmt.register(MappingId(9), &swap_perm(0, 1, 15));
        cmt.register(MappingId(3), &swap_perm(0, 2, 15));
        assert_eq!(ids(&cmt), [MappingId(0), MappingId(3), MappingId(9)]);
        cmt.unregister(MappingId(3)).unwrap();
        assert_eq!(ids(&cmt), [MappingId(0), MappingId(9)]);
        assert!(!cmt.is_registered(MappingId(3)));
        // Re-registration replaces the slot without listing it twice.
        cmt.register(MappingId(9), &swap_perm(0, 3, 15));
        assert_eq!(ids(&cmt), [MappingId(0), MappingId(9)]);
        // Ids from the free list: a reserved id stays unregistered until
        // its registration lands, and a released one is reused first.
        let a = cmt.allocate_id().unwrap();
        let b = cmt.allocate_id().unwrap();
        assert!(!cmt.is_registered(a));
        cmt.register(a, &swap_perm(0, 4, 15));
        cmt.register(b, &swap_perm(0, 5, 15));
        assert!(cmt.is_registered(a));
        assert_eq!(ids(&cmt), [MappingId(0), a, b, MappingId(9)]);
        cmt.unregister(a).unwrap();
        assert_eq!(ids(&cmt), [MappingId(0), b, MappingId(9)]);
        assert_eq!(cmt.allocate_id().unwrap(), a);
        assert!(!cmt.is_registered(a));
        cmt.register(a, &swap_perm(0, 6, 15));
        assert_eq!(ids(&cmt), [MappingId(0), a, b, MappingId(9)]);
        assert!(!cmt.is_registered(MappingId(u8::MAX)));
    }
}
