//! The chunk-based physical page allocator (the paper's kernel side).
//!
//! Physical memory is divided into chunks (2 MB in the paper). Chunks
//! live either on a *global free list* or in a *chunk group* — the set
//! of chunks assigned to one address mapping (paper Fig. 7). Page frames
//! are handed out only from chunks of the requesting mapping's group, so
//! every frame of a chunk shares the chunk's mapping: SDAM's central
//! allocation constraint. When the last frame of a chunk is freed the
//! chunk returns to the global free list and can be re-assigned to a
//! different mapping later.
//!
//! ## Two implementations
//!
//! [`ChunkAllocator`] is the production control plane: all allocator
//! state lives in flat per-chunk columns indexed by chunk number
//! (mapping id, sensitivity, guard refcount, per-block order bytes) plus
//! `BitSet` index columns for the free list, the allocatable list, and
//! each `(mapping, sensitivity, largest-free-order)` group bucket.
//! Every operation on the warm path is a handful of array and word
//! updates with zero heap allocation; ascending-index iteration of the
//! bit columns reproduces the `BTreeSet` iteration order the original
//! implementation derived its determinism from.
//!
//! [`ChunkAllocatorReference`] is that original `BTreeSet`/`BTreeMap`
//! implementation, retained verbatim as the golden oracle: for any
//! sequence of alloc/free/sensitive operations both produce identical
//! [`PageAlloc`]s, identical errors, and identical claim/release
//! counters (`tests/prop_alloc.rs` pins this with property tests, and
//! the `churn` bench asserts it again in CI).

use std::collections::{BTreeMap, BTreeSet};

use sdam_mapping::{MappingId, PhysAddr};

use crate::bitset::BitSet;
use crate::buddy::{BuddyAllocator, BuddyAllocatorReference};
use crate::MemError;

/// Notification that the allocator acquired or released a chunk — the
/// hook the OS uses to update the hardware CMT (paper §6.1: "writes the
/// chunk index and address mapping to the hardware CMT").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkEvent {
    /// A chunk left the global free list and joined a mapping's group.
    Acquired {
        /// The chunk number.
        chunk: u64,
        /// The group (mapping) it joined.
        mapping: MappingId,
    },
    /// A chunk became empty and returned to the global free list.
    Released {
        /// The chunk number.
        chunk: u64,
    },
}

/// The result of a page allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageAlloc {
    /// Physical address of the first allocated page.
    pub pa: PhysAddr,
    /// Chunk event to forward to the CMT, if a new chunk was acquired.
    pub event: Option<ChunkEvent>,
}

/// A point-in-time summary of a [`ChunkAllocator`]'s state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocatorReport {
    /// All chunks in the physical space.
    total_chunks: u64,
    /// Chunks on the global free list (guards included).
    pub free_chunks: u64,
    /// Free chunks withheld as rowhammer guards.
    pub guard_chunks: u64,
    /// `(mapping, chunks)` per non-empty chunk group.
    pub groups: Vec<(MappingId, u64)>,
    /// Pages allocated across all chunks.
    allocated_pages: u64,
    /// Free pages stranded inside in-use chunks.
    fragmentation_pages: u64,
}

impl std::fmt::Display for AllocatorReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "chunks: {} total, {} free ({} guarding), {} pages live, {} stranded",
            self.total_chunks,
            self.free_chunks,
            self.guard_chunks,
            self.allocated_pages,
            self.fragmentation_pages
        )?;
        for (m, n) in &self.groups {
            writeln!(f, "  {m}: {n} chunk(s)")?;
        }
        Ok(())
    }
}

/// Fragmentation counters read straight off the flat free-list columns —
/// the churn bench's measure of long-uptime free-list health.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FragmentationStats {
    /// Chunks on the global free list (the free-list length).
    pub free_chunks: u64,
    /// Longest run of consecutive free chunks (largest physically
    /// contiguous region the allocator could still hand out).
    pub max_contiguous_free_run: u64,
    /// Free chunks withheld as rowhammer guards.
    pub guard_chunks: u64,
    /// Free pages stranded inside in-use chunks.
    pub stranded_pages: u64,
}

/// Per-`(mapping, sensitivity)` chunk-group index: one [`BitSet`] per
/// largest-free-order bucket. Slot `0` holds full chunks, slot `o + 1`
/// holds chunks whose buddy can still serve an order-`o` block (and
/// nothing larger), so "lowest group chunk able to serve order `k`" is
/// the minimum over `first()` of slots `k + 1 ..`.
#[derive(Debug, Clone)]
struct GroupIndex {
    by_lfo: Vec<BitSet>,
}

impl GroupIndex {
    fn new(pages_per_chunk_order: u32, num_chunks: u64) -> Self {
        GroupIndex {
            by_lfo: (0..pages_per_chunk_order + 2)
                .map(|_| BitSet::with_capacity(num_chunks))
                .collect(),
        }
    }
}

/// The chunk-based physical allocator (flat-column implementation).
///
/// # Example
///
/// ```
/// use sdam_mapping::MappingId;
/// use sdam_mem::phys::ChunkAllocator;
///
/// let mut phys = ChunkAllocator::new(30, 21, 12); // 1 GB, 2 MB chunks
/// let a = phys.alloc_page(MappingId(1))?;
/// let b = phys.alloc_page(MappingId(2))?;
/// // Different mappings never share a chunk.
/// assert_ne!(a.pa.chunk_number(21), b.pa.chunk_number(21));
/// # Ok::<(), sdam_mem::MemError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ChunkAllocator {
    chunk_bits: u32,
    page_bits: u32,
    pages_per_chunk_order: u32,
    num_chunks: u64,
    /// Chunks on the global free list (guards included).
    free: BitSet,
    /// Free chunks that are actually allocatable (not guarding).
    avail: BitSet,
    /// Owning mapping per in-use chunk (stale for free chunks).
    mapping: Vec<u8>,
    /// True for in-use chunks holding sensitive (guard-isolated) data.
    sensitive: Vec<bool>,
    /// How many adjacent sensitive chunks this chunk is guarding (0–2).
    guard_refs: Vec<u8>,
    /// Chunks with `guard_refs > 0`.
    guard_count: u64,
    /// Per-chunk buddy state, created on first claim and reused: an
    /// empty buddy is pristine (fully coalesced), so releases need no
    /// reset and re-claims allocate nothing.
    buddies: Vec<Option<BuddyAllocator>>,
    /// Order of the live block starting at each page slot
    /// (`chunk * pages_per_chunk + offset`), or [`NO_BLOCK`].
    block_order: Vec<u8>,
    /// Group index per `(mapping, sensitivity)`, created on first use.
    groups: Vec<Option<Box<GroupIndex>>>,
    /// Chunks per mapping across both sensitivities.
    group_sizes: Vec<u64>,
    /// Pages live across all chunks (incremental twin of the reference's
    /// per-chunk sum).
    allocated_pages: u64,
    /// Chunks ever taken off the global free list (monotonic).
    chunks_claimed: u64,
    /// Chunks ever returned to the global free list (monotonic).
    /// `chunks_claimed - chunks_released` always equals the number of
    /// in-use chunks — the accounting identity `tests/obs_invariants.rs`
    /// pins.
    chunks_released: u64,
}

/// Sentinel in the `block_order` column: no live block starts here.
const NO_BLOCK: u8 = u8::MAX;

impl ChunkAllocator {
    /// Creates an allocator for `2^phys_bits` bytes of physical memory
    /// in `2^chunk_bits`-byte chunks and `2^page_bits`-byte pages.
    ///
    /// # Panics
    ///
    /// Panics unless `page_bits < chunk_bits < phys_bits`.
    pub fn new(phys_bits: u32, chunk_bits: u32, page_bits: u32) -> Self {
        assert!(page_bits < chunk_bits, "pages must subdivide chunks");
        assert!(chunk_bits < phys_bits, "chunks must subdivide memory");
        let num_chunks = 1u64 << (phys_bits - chunk_bits);
        let pages_per_chunk_order = chunk_bits - page_bits;
        let total_pages = 1u64 << (phys_bits - page_bits);
        let mut free = BitSet::with_capacity(num_chunks);
        let mut avail = BitSet::with_capacity(num_chunks);
        for c in 0..num_chunks {
            free.insert(c);
            avail.insert(c);
        }
        ChunkAllocator {
            chunk_bits,
            page_bits,
            pages_per_chunk_order,
            num_chunks,
            free,
            avail,
            mapping: vec![0; num_chunks as usize],
            sensitive: vec![false; num_chunks as usize],
            guard_refs: vec![0; num_chunks as usize],
            guard_count: 0,
            buddies: vec![None; num_chunks as usize],
            block_order: vec![NO_BLOCK; total_pages as usize],
            groups: (0..512).map(|_| None).collect(),
            group_sizes: vec![0; 256],
            allocated_pages: 0,
            chunks_claimed: 0,
            chunks_released: 0,
        }
    }

    /// Chunk size in bytes.
    #[inline]
    pub fn chunk_bytes(&self) -> u64 {
        1u64 << self.chunk_bits
    }

    /// Page size in bytes.
    #[inline]
    pub fn page_bytes(&self) -> u64 {
        1u64 << self.page_bits
    }

    /// Pages per chunk.
    #[inline]
    pub fn pages_per_chunk(&self) -> u64 {
        1u64 << self.pages_per_chunk_order
    }

    #[inline]
    fn group_key(mapping: MappingId, sensitive: bool) -> usize {
        mapping.0 as usize * 2 + sensitive as usize
    }

    /// The group-index slot for a buddy's current largest free order.
    #[inline]
    fn lfo_slot(buddy: &BuddyAllocator) -> usize {
        buddy.largest_free_order().map_or(0, |o| o as usize + 1)
    }

    /// Allocates one page frame for `mapping`.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfPhysicalMemory`] when the mapping's group is full
    /// and the global free list is empty.
    pub fn alloc_page(&mut self, mapping: MappingId) -> Result<PageAlloc, MemError> {
        self.alloc_block(mapping, 0)
    }

    /// Allocates a contiguous block of `2^order` pages for `mapping`.
    ///
    /// # Errors
    ///
    /// [`MemError::InvalidSize`] if the block exceeds a chunk;
    /// [`MemError::OutOfPhysicalMemory`] when memory is exhausted.
    pub fn alloc_block(&mut self, mapping: MappingId, order: u32) -> Result<PageAlloc, MemError> {
        if order > self.pages_per_chunk_order {
            return Err(MemError::InvalidSize {
                size: (1u64 << order) * self.page_bytes(),
            });
        }
        self.alloc_in_group_or_acquire(mapping, order, false)
    }

    /// Like [`ChunkAllocator::alloc_block`], but marks the chunk
    /// *sensitive*: the physically adjacent chunks (contiguous rows in
    /// the same banks) are reserved as guards and withheld from every
    /// other allocation until the sensitive data is freed — the paper's
    /// sketched rowhammer isolation (§4, after Brasser et al.).
    ///
    /// A sensitive block always comes from a freshly acquired chunk
    /// whose neighbours are free (never from an existing group chunk),
    /// so isolation holds from the first byte.
    ///
    /// # Errors
    ///
    /// [`MemError::InvalidSize`] if the block exceeds a chunk;
    /// [`MemError::OutOfPhysicalMemory`] if no chunk with free
    /// neighbours exists.
    pub fn alloc_block_sensitive(
        &mut self,
        mapping: MappingId,
        order: u32,
    ) -> Result<PageAlloc, MemError> {
        if order > self.pages_per_chunk_order {
            return Err(MemError::InvalidSize {
                size: (1u64 << order) * self.page_bytes(),
            });
        }
        self.alloc_in_group_or_acquire(mapping, order, true)
    }

    /// Tries group chunks of matching sensitivity first, then acquires a
    /// fresh chunk from the global list. The group pick — the lowest
    /// group chunk whose buddy can serve the order — is one `first()`
    /// per largest-free-order bucket instead of the reference's linear
    /// scan with a scratch `Vec`.
    fn alloc_in_group_or_acquire(
        &mut self,
        mapping: MappingId,
        order: u32,
        sensitive: bool,
    ) -> Result<PageAlloc, MemError> {
        let key = Self::group_key(mapping, sensitive);
        if let Some(g) = self.groups[key].as_ref() {
            // Lowest chunk in any bucket that can still serve `order`.
            let mut best: Option<(u64, usize)> = None;
            for slot in (order as usize + 1)..g.by_lfo.len() {
                if let Some(c) = g.by_lfo[slot].first() {
                    if best.is_none_or(|(b, _)| c < b) {
                        best = Some((c, slot));
                    }
                }
            }
            if let Some((c, slot)) = best {
                if let Some(buddy) = self.buddies[c as usize].as_mut() {
                    if let Some(off) = buddy.alloc(order) {
                        let new_slot = Self::lfo_slot(buddy);
                        if new_slot != slot {
                            if let Some(g) = self.groups[key].as_mut() {
                                g.by_lfo[slot].remove(c);
                                g.by_lfo[new_slot].insert(c);
                            }
                        }
                        let idx = (c << self.pages_per_chunk_order | off) as usize;
                        self.block_order[idx] = order as u8;
                        self.allocated_pages += 1u64 << order;
                        return Ok(PageAlloc {
                            pa: self.frame_pa(c, off),
                            event: None,
                        });
                    }
                }
            }
        }
        self.acquire_chunk(mapping, order, sensitive)
    }

    /// Lowest allocatable chunk whose existing neighbours are also
    /// allocatable — the isolation condition for a sensitive claim.
    /// A word-parallel scan over the `avail` column: neighbour masks are
    /// shifts with cross-word carries, boundary chunks count as isolated
    /// on their missing side.
    fn find_isolated(&self) -> Option<u64> {
        let words = self.avail.leaf_words();
        let last = self.num_chunks - 1;
        let mut prev_top = 0u64;
        for (wi, &w) in words.iter().enumerate() {
            if w != 0 {
                let next_bot = words.get(wi + 1).map_or(0, |&x| x & 1);
                let mut left = (w << 1) | prev_top;
                let mut right = (w >> 1) | (next_bot << 63);
                if wi == 0 {
                    left |= 1;
                }
                if wi == (last / 64) as usize {
                    right |= 1u64 << (last % 64);
                }
                let cand = w & left & right;
                if cand != 0 {
                    return Some(wi as u64 * 64 + cand.trailing_zeros() as u64);
                }
            }
            prev_top = w >> 63;
        }
        None
    }

    fn acquire_chunk(
        &mut self,
        mapping: MappingId,
        order: u32,
        sensitive: bool,
    ) -> Result<PageAlloc, MemError> {
        let c = if sensitive {
            self.find_isolated().ok_or(MemError::OutOfPhysicalMemory)?
        } else {
            self.avail.first().ok_or(MemError::OutOfPhysicalMemory)?
        };
        self.free.remove(c);
        self.avail.remove(c);
        let buddy = self.buddies[c as usize]
            .get_or_insert_with(|| BuddyAllocator::new(self.pages_per_chunk_order));
        // Every caller bounds `order` by `pages_per_chunk_order`, so a
        // fresh chunk always satisfies it; the guard keeps the path
        // panic-free regardless.
        let Some(off) = buddy.alloc(order) else {
            self.free.insert(c);
            self.avail.insert(c);
            return Err(MemError::InvalidSize {
                size: (1u64 << order) * self.page_bytes(),
            });
        };
        let slot = Self::lfo_slot(buddy);
        self.mapping[c as usize] = mapping.0;
        self.sensitive[c as usize] = sensitive;
        let key = Self::group_key(mapping, sensitive);
        self.groups[key]
            .get_or_insert_with(|| {
                Box::new(GroupIndex::new(self.pages_per_chunk_order, self.num_chunks))
            })
            .by_lfo[slot]
            .insert(c);
        self.group_sizes[mapping.0 as usize] += 1;
        let idx = (c << self.pages_per_chunk_order | off) as usize;
        self.block_order[idx] = order as u8;
        self.allocated_pages += 1u64 << order;
        self.chunks_claimed += 1;
        if sensitive {
            for g in [c.checked_sub(1), Some(c + 1)].into_iter().flatten() {
                if g < self.num_chunks {
                    if self.guard_refs[g as usize] == 0 {
                        self.guard_count += 1;
                        // Isolation required the neighbour to be
                        // allocatable, so it is free: withhold it.
                        self.avail.remove(g);
                    }
                    self.guard_refs[g as usize] += 1;
                }
            }
        }
        Ok(PageAlloc {
            pa: self.frame_pa(c, off),
            event: Some(ChunkEvent::Acquired { chunk: c, mapping }),
        })
    }

    /// Frees the block starting at `pa` (which must be the address
    /// returned by the matching allocation). Returns a
    /// [`ChunkEvent::Released`] if the chunk became empty and went back
    /// to the global free list.
    ///
    /// # Errors
    ///
    /// [`MemError::BadFree`] if `pa` is not the start of a live block.
    pub fn free_block(&mut self, pa: PhysAddr) -> Result<Option<ChunkEvent>, MemError> {
        let chunk = pa.chunk_number(self.chunk_bits);
        let off = pa.chunk_offset(self.chunk_bits) >> self.page_bits;
        let bad = || MemError::BadFree(crate::VirtAddr(pa.raw()));
        if !pa.raw().is_multiple_of(self.page_bytes()) {
            return Err(bad());
        }
        if chunk >= self.num_chunks || self.free.contains(chunk) {
            return Err(bad());
        }
        let idx = (chunk << self.pages_per_chunk_order | off) as usize;
        let order = self.block_order[idx];
        if order == NO_BLOCK {
            return Err(bad());
        }
        self.block_order[idx] = NO_BLOCK;
        let m = MappingId(self.mapping[chunk as usize]);
        let sens = self.sensitive[chunk as usize];
        let key = Self::group_key(m, sens);
        let Some(buddy) = self.buddies[chunk as usize].as_mut() else {
            return Err(bad());
        };
        let slot = Self::lfo_slot(buddy);
        buddy.free(off, order as u32);
        self.allocated_pages -= 1u64 << order;
        if buddy.is_empty() {
            if let Some(g) = self.groups[key].as_mut() {
                g.by_lfo[slot].remove(chunk);
            }
            self.group_sizes[m.0 as usize] -= 1;
            self.free.insert(chunk);
            if self.guard_refs[chunk as usize] == 0 {
                self.avail.insert(chunk);
            }
            // A freed sensitive chunk releases its guards (unless a
            // guard still protects another sensitive chunk).
            if sens {
                for g in [chunk.checked_sub(1), Some(chunk + 1)]
                    .into_iter()
                    .flatten()
                {
                    if g < self.num_chunks && self.guard_refs[g as usize] > 0 {
                        self.guard_refs[g as usize] -= 1;
                        if self.guard_refs[g as usize] == 0 {
                            self.guard_count -= 1;
                            if self.free.contains(g) {
                                self.avail.insert(g);
                            }
                        }
                    }
                }
            }
            self.chunks_released += 1;
            return Ok(Some(ChunkEvent::Released { chunk }));
        }
        let new_slot = Self::lfo_slot(buddy);
        if new_slot != slot {
            if let Some(g) = self.groups[key].as_mut() {
                g.by_lfo[slot].remove(chunk);
                g.by_lfo[new_slot].insert(chunk);
            }
        }
        Ok(None)
    }

    /// The mapping of the chunk containing `pa`, or `None` if the chunk
    /// is on the free list.
    pub fn mapping_of_frame(&self, pa: PhysAddr) -> Option<MappingId> {
        let chunk = pa.chunk_number(self.chunk_bits);
        if chunk >= self.num_chunks || self.free.contains(chunk) {
            return None;
        }
        Some(MappingId(self.mapping[chunk as usize]))
    }

    /// Chunks on the global free list.
    pub fn free_chunk_count(&self) -> u64 {
        self.free.len()
    }

    /// Internal fragmentation: free pages stranded inside in-use chunks
    /// (they cannot serve other mappings). The paper bounds this by the
    /// number of access patterns, not the number of chunks (§4).
    pub fn internal_fragmentation_pages(&self) -> u64 {
        self.in_use_chunks() * self.pages_per_chunk() - self.allocated_pages
    }

    /// Pages currently allocated across all chunks.
    pub fn allocated_pages(&self) -> u64 {
        self.allocated_pages
    }

    /// Chunks currently reserved as rowhammer guards.
    pub fn guard_chunk_count(&self) -> u64 {
        self.guard_count
    }

    /// Chunks ever taken off the global free list (monotonic counter).
    pub fn chunks_claimed(&self) -> u64 {
        self.chunks_claimed
    }

    /// Chunks ever returned to the global free list (monotonic counter).
    pub fn chunks_released(&self) -> u64 {
        self.chunks_released
    }

    /// Chunks currently in use (holding at least one live block).
    pub fn in_use_chunks(&self) -> u64 {
        self.num_chunks - self.free.len()
    }

    /// Exports the allocator's counters into `reg` under `mem.*`. The
    /// monotonic claim/release counters accumulate; the point-in-time
    /// gauges (`live_chunks`, `guard_chunks`, …) add the current value,
    /// so merging per-process registries sums their live state.
    pub fn export_into(&self, reg: &mut sdam_obs::Registry) {
        reg.incr("mem.chunks_claimed", self.chunks_claimed);
        reg.incr("mem.chunks_released", self.chunks_released);
        reg.incr("mem.live_chunks", self.in_use_chunks());
        reg.incr("mem.guard_chunks", self.guard_chunk_count());
        reg.incr("mem.allocated_pages", self.allocated_pages());
        reg.incr(
            "mem.fragmentation_pages",
            self.internal_fragmentation_pages(),
        );
    }

    /// A structured snapshot of the allocator's state for reporting.
    pub fn report(&self) -> AllocatorReport {
        AllocatorReport {
            total_chunks: self.num_chunks,
            free_chunks: self.free.len(),
            guard_chunks: self.guard_count,
            groups: self
                .group_sizes
                .iter()
                .enumerate()
                .filter(|(_, &n)| n > 0)
                .map(|(m, &n)| (MappingId(m as u8), n))
                .collect(),
            allocated_pages: self.allocated_pages,
            fragmentation_pages: self.internal_fragmentation_pages(),
        }
    }

    /// Free-list health, read straight off the flat columns.
    pub fn fragmentation_stats(&self) -> FragmentationStats {
        FragmentationStats {
            free_chunks: self.free.len(),
            max_contiguous_free_run: self.free.max_contiguous_run(),
            guard_chunks: self.guard_count,
            stranded_pages: self.internal_fragmentation_pages(),
        }
    }

    /// True if `chunk` is currently a guard.
    pub fn is_guard_chunk(&self, chunk: u64) -> bool {
        chunk < self.num_chunks && self.guard_refs[chunk as usize] > 0
    }

    fn frame_pa(&self, chunk: u64, page_off: u64) -> PhysAddr {
        PhysAddr((chunk << self.chunk_bits) | (page_off << self.page_bits))
    }
}

#[derive(Debug, Clone)]
struct ChunkStateReference {
    mapping: MappingId,
    buddy: BuddyAllocatorReference,
    /// Allocated blocks: page offset within chunk → order (for
    /// validating frees without the caller tracking orders).
    blocks: BTreeMap<u64, u32>,
    /// True for chunks holding sensitive (guard-isolated) data.
    sensitive: bool,
}

/// The original `BTreeSet`/`BTreeMap` chunk allocator, retained verbatim
/// as the golden oracle for [`ChunkAllocator`]: identical picks,
/// identical errors, identical counters, slower under churn (linear
/// group scans, a scratch `Vec` per allocation, tree rebalancing on
/// every claim/release).
#[derive(Debug, Clone)]
pub struct ChunkAllocatorReference {
    chunk_bits: u32,
    page_bits: u32,
    pages_per_chunk_order: u32,
    /// Chunks on the global free list.
    free_chunks: BTreeSet<u64>,
    /// In-use chunks.
    chunks: BTreeMap<u64, ChunkStateReference>,
    /// mapping → chunks in its group.
    groups: BTreeMap<MappingId, BTreeSet<u64>>,
    /// Guard chunks: reserved as physical isolation around sensitive
    /// chunks (the paper's sketched rowhammer mitigation, §4). Maps the
    /// guard chunk to the sensitive chunks it protects.
    guards: BTreeMap<u64, BTreeSet<u64>>,
    /// Chunks ever taken off the global free list (monotonic).
    chunks_claimed: u64,
    /// Chunks ever returned to the global free list (monotonic).
    chunks_released: u64,
}

impl ChunkAllocatorReference {
    /// Creates an allocator for `2^phys_bits` bytes of physical memory
    /// in `2^chunk_bits`-byte chunks and `2^page_bits`-byte pages.
    ///
    /// # Panics
    ///
    /// Panics unless `page_bits < chunk_bits < phys_bits`.
    pub fn new(phys_bits: u32, chunk_bits: u32, page_bits: u32) -> Self {
        assert!(page_bits < chunk_bits, "pages must subdivide chunks");
        assert!(chunk_bits < phys_bits, "chunks must subdivide memory");
        let num_chunks = 1u64 << (phys_bits - chunk_bits);
        ChunkAllocatorReference {
            chunk_bits,
            page_bits,
            pages_per_chunk_order: chunk_bits - page_bits,
            free_chunks: (0..num_chunks).collect(),
            chunks: BTreeMap::new(),
            groups: BTreeMap::new(),
            guards: BTreeMap::new(),
            chunks_claimed: 0,
            chunks_released: 0,
        }
    }

    /// Pages per chunk.
    #[inline]
    pub fn pages_per_chunk(&self) -> u64 {
        1u64 << self.pages_per_chunk_order
    }

    /// Page size in bytes.
    #[inline]
    pub fn page_bytes(&self) -> u64 {
        1u64 << self.page_bits
    }

    /// Allocates one page frame for `mapping`.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfPhysicalMemory`] when memory is exhausted.
    pub fn alloc_page(&mut self, mapping: MappingId) -> Result<PageAlloc, MemError> {
        self.alloc_block(mapping, 0)
    }

    /// Allocates a contiguous block of `2^order` pages for `mapping`.
    ///
    /// # Errors
    ///
    /// [`MemError::InvalidSize`] if the block exceeds a chunk;
    /// [`MemError::OutOfPhysicalMemory`] when memory is exhausted.
    pub fn alloc_block(&mut self, mapping: MappingId, order: u32) -> Result<PageAlloc, MemError> {
        if order > self.pages_per_chunk_order {
            return Err(MemError::InvalidSize {
                size: (1u64 << order) * self.page_bytes(),
            });
        }
        self.alloc_in_group_or_acquire(mapping, order, false)
    }

    /// Sensitive twin of [`ChunkAllocatorReference::alloc_block`]; see
    /// [`ChunkAllocator::alloc_block_sensitive`].
    ///
    /// # Errors
    ///
    /// [`MemError::InvalidSize`] if the block exceeds a chunk;
    /// [`MemError::OutOfPhysicalMemory`] if no chunk with free
    /// neighbours exists.
    pub fn alloc_block_sensitive(
        &mut self,
        mapping: MappingId,
        order: u32,
    ) -> Result<PageAlloc, MemError> {
        if order > self.pages_per_chunk_order {
            return Err(MemError::InvalidSize {
                size: (1u64 << order) * self.page_bytes(),
            });
        }
        self.alloc_in_group_or_acquire(mapping, order, true)
    }

    /// Tries group chunks of matching sensitivity first, then acquires a
    /// fresh chunk from the global list.
    fn alloc_in_group_or_acquire(
        &mut self,
        mapping: MappingId,
        order: u32,
        sensitive: bool,
    ) -> Result<PageAlloc, MemError> {
        if let Some(chunks) = self.groups.get(&mapping) {
            let candidates: Vec<u64> = chunks.iter().copied().collect();
            for c in candidates {
                let Some(state) = self.chunks.get_mut(&c) else {
                    continue;
                };
                if state.sensitive != sensitive {
                    continue;
                }
                if let Some(off) = state.buddy.alloc(order) {
                    state.blocks.insert(off, order);
                    return Ok(PageAlloc {
                        pa: self.frame_pa(c, off),
                        event: None,
                    });
                }
            }
        }
        self.acquire_chunk(mapping, order, sensitive)
    }

    fn acquire_chunk(
        &mut self,
        mapping: MappingId,
        order: u32,
        sensitive: bool,
    ) -> Result<PageAlloc, MemError> {
        let available =
            |me: &Self, c: u64| me.free_chunks.contains(&c) && !me.guards.contains_key(&c);
        let c = if sensitive {
            // Need a free chunk whose existing neighbours are free too
            // (they become guards).
            *self
                .free_chunks
                .iter()
                .find(|&&c| {
                    available(self, c)
                        && c.checked_sub(1).is_none_or(|p| available(self, p))
                        && (c + 1 >= self.total_chunks() || available(self, c + 1))
                })
                .ok_or(MemError::OutOfPhysicalMemory)?
        } else {
            *self
                .free_chunks
                .iter()
                .find(|&&c| !self.guards.contains_key(&c))
                .ok_or(MemError::OutOfPhysicalMemory)?
        };
        self.free_chunks.remove(&c);
        let mut buddy = BuddyAllocatorReference::new(self.pages_per_chunk_order);
        // Every caller bounds `order` by `pages_per_chunk_order`, so a
        // fresh chunk always satisfies it; the guard keeps the path
        // panic-free regardless.
        let Some(off) = buddy.alloc(order) else {
            self.free_chunks.insert(c);
            return Err(MemError::InvalidSize {
                size: (1u64 << order) * self.page_bytes(),
            });
        };
        let mut blocks = BTreeMap::new();
        blocks.insert(off, order);
        self.chunks.insert(
            c,
            ChunkStateReference {
                mapping,
                buddy,
                blocks,
                sensitive,
            },
        );
        self.groups.entry(mapping).or_default().insert(c);
        self.chunks_claimed += 1;
        if sensitive {
            for g in [c.checked_sub(1), Some(c + 1)].into_iter().flatten() {
                if g < self.total_chunks() {
                    self.guards.entry(g).or_default().insert(c);
                }
            }
        }
        Ok(PageAlloc {
            pa: self.frame_pa(c, off),
            event: Some(ChunkEvent::Acquired { chunk: c, mapping }),
        })
    }

    fn total_chunks(&self) -> u64 {
        // Every chunk is either on the free list or in use; guard
        // chunks remain on the free list (merely unallocatable).
        self.free_chunks.len() as u64 + self.chunks.len() as u64
    }

    /// Frees the block starting at `pa`; see
    /// [`ChunkAllocator::free_block`].
    ///
    /// # Errors
    ///
    /// [`MemError::BadFree`] if `pa` is not the start of a live block.
    pub fn free_block(&mut self, pa: PhysAddr) -> Result<Option<ChunkEvent>, MemError> {
        let chunk = pa.chunk_number(self.chunk_bits);
        let off = pa.chunk_offset(self.chunk_bits) >> self.page_bits;
        let bad = || MemError::BadFree(crate::VirtAddr(pa.raw()));
        if !pa.raw().is_multiple_of(self.page_bytes()) {
            return Err(bad());
        }
        let state = self.chunks.get_mut(&chunk).ok_or_else(bad)?;
        let order = state.blocks.remove(&off).ok_or_else(bad)?;
        state.buddy.free(off, order);
        if state.buddy.is_empty() {
            let mapping = state.mapping;
            let was_sensitive = state.sensitive;
            self.chunks.remove(&chunk);
            if let Some(group) = self.groups.get_mut(&mapping) {
                group.remove(&chunk);
            }
            self.free_chunks.insert(chunk);
            // A freed sensitive chunk releases its guards (unless a
            // guard still protects another sensitive chunk).
            if was_sensitive {
                for g in [chunk.checked_sub(1), Some(chunk + 1)]
                    .into_iter()
                    .flatten()
                {
                    if let Some(protects) = self.guards.get_mut(&g) {
                        protects.remove(&chunk);
                        if protects.is_empty() {
                            self.guards.remove(&g);
                        }
                    }
                }
            }
            self.chunks_released += 1;
            return Ok(Some(ChunkEvent::Released { chunk }));
        }
        Ok(None)
    }

    /// The mapping of the chunk containing `pa`, or `None` if the chunk
    /// is on the free list.
    pub fn mapping_of_frame(&self, pa: PhysAddr) -> Option<MappingId> {
        self.chunks
            .get(&pa.chunk_number(self.chunk_bits))
            .map(|s| s.mapping)
    }

    /// Chunks on the global free list.
    pub fn free_chunk_count(&self) -> u64 {
        self.free_chunks.len() as u64
    }

    /// Internal fragmentation: free pages stranded inside in-use chunks.
    pub fn internal_fragmentation_pages(&self) -> u64 {
        self.chunks.values().map(|s| s.buddy.free_pages()).sum()
    }

    /// Pages currently allocated across all chunks.
    pub fn allocated_pages(&self) -> u64 {
        self.chunks
            .values()
            .map(|s| s.buddy.allocated_pages())
            .sum()
    }

    /// Chunks currently reserved as rowhammer guards.
    pub fn guard_chunk_count(&self) -> u64 {
        self.guards.len() as u64
    }

    /// Chunks ever taken off the global free list (monotonic counter).
    pub fn chunks_claimed(&self) -> u64 {
        self.chunks_claimed
    }

    /// Chunks ever returned to the global free list (monotonic counter).
    pub fn chunks_released(&self) -> u64 {
        self.chunks_released
    }

    /// Chunks currently in use (holding at least one live block).
    pub fn in_use_chunks(&self) -> u64 {
        self.chunks.len() as u64
    }

    /// Free-list health, derived by walking the tree-based state — the
    /// flat allocator reads the same numbers off its columns in
    /// O(words). Kept for apples-to-apples reporting in the churn A/B.
    pub fn fragmentation_stats(&self) -> FragmentationStats {
        let mut max_run = 0u64;
        let mut run = 0u64;
        let mut prev = None;
        for &c in &self.free_chunks {
            run = match prev {
                Some(p) if c == p + 1 => run + 1,
                _ => 1,
            };
            max_run = max_run.max(run);
            prev = Some(c);
        }
        FragmentationStats {
            free_chunks: self.free_chunks.len() as u64,
            max_contiguous_free_run: max_run,
            guard_chunks: self.guards.len() as u64,
            stranded_pages: self.internal_fragmentation_pages(),
        }
    }

    /// A structured snapshot of the allocator's state for reporting.
    pub fn report(&self) -> AllocatorReport {
        AllocatorReport {
            total_chunks: self.total_chunks(),
            free_chunks: self.free_chunks.len() as u64,
            guard_chunks: self.guards.len() as u64,
            groups: self
                .groups
                .iter()
                .filter(|(_, cs)| !cs.is_empty())
                .map(|(&m, cs)| (m, cs.len() as u64))
                .collect(),
            allocated_pages: self.allocated_pages(),
            fragmentation_pages: self.internal_fragmentation_pages(),
        }
    }

    /// True if `chunk` is currently a guard.
    pub fn is_guard_chunk(&self, chunk: u64) -> bool {
        self.guards.contains_key(&chunk)
    }

    fn frame_pa(&self, chunk: u64, page_off: u64) -> PhysAddr {
        PhysAddr((chunk << self.chunk_bits) | (page_off << self.page_bits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ChunkAllocator {
        /// Chunks assigned to a mapping's group.
        fn group_size(&self, mapping: MappingId) -> u64 {
            self.group_sizes[mapping.0 as usize]
        }
    }

    fn small() -> ChunkAllocator {
        // 16 MB, 2 MB chunks (8 chunks), 4 KB pages (512 per chunk).
        ChunkAllocator::new(24, 21, 12)
    }

    #[test]
    fn paper_configuration_counts() {
        let a = ChunkAllocator::new(33, 21, 12);
        assert_eq!(a.free_chunk_count(), 4096);
        assert_eq!(a.pages_per_chunk(), 512);
        assert_eq!(a.chunk_bytes(), 2 << 20);
    }

    #[test]
    fn first_alloc_acquires_a_chunk() {
        let mut a = small();
        let r = a.alloc_page(MappingId(1)).unwrap();
        assert!(matches!(
            r.event,
            Some(ChunkEvent::Acquired {
                mapping: MappingId(1),
                ..
            })
        ));
        assert_eq!(a.group_size(MappingId(1)), 1);
        assert_eq!(a.free_chunk_count(), 7);
        assert_eq!(a.mapping_of_frame(r.pa), Some(MappingId(1)));
    }

    #[test]
    fn same_mapping_reuses_chunk() {
        let mut a = small();
        let r1 = a.alloc_page(MappingId(1)).unwrap();
        let r2 = a.alloc_page(MappingId(1)).unwrap();
        assert!(r2.event.is_none(), "second page comes from the same chunk");
        assert_eq!(
            r1.pa.chunk_number(21),
            r2.pa.chunk_number(21),
            "pages share the chunk"
        );
        assert_ne!(r1.pa, r2.pa);
    }

    #[test]
    fn different_mappings_never_share_chunks() {
        let mut a = small();
        let mut frames = Vec::new();
        for m in 1..=4u8 {
            for _ in 0..10 {
                frames.push((m, a.alloc_page(MappingId(m)).unwrap().pa));
            }
        }
        for &(m, pa) in &frames {
            assert_eq!(a.mapping_of_frame(pa), Some(MappingId(m)));
        }
        // 4 groups, one chunk each.
        assert_eq!(a.free_chunk_count(), 4);
    }

    #[test]
    fn chunk_overflow_grabs_new_chunk() {
        let mut a = small();
        let per_chunk = a.pages_per_chunk();
        let mut events = 0;
        for _ in 0..per_chunk + 1 {
            if a.alloc_page(MappingId(1)).unwrap().event.is_some() {
                events += 1;
            }
        }
        assert_eq!(events, 2, "513 pages need two chunks");
        assert_eq!(a.group_size(MappingId(1)), 2);
    }

    #[test]
    fn release_returns_chunk_to_free_list() {
        let mut a = small();
        let r1 = a.alloc_page(MappingId(1)).unwrap();
        let r2 = a.alloc_page(MappingId(1)).unwrap();
        assert!(a.free_block(r1.pa).unwrap().is_none(), "chunk still in use");
        let ev = a.free_block(r2.pa).unwrap();
        assert!(matches!(ev, Some(ChunkEvent::Released { .. })));
        assert_eq!(a.free_chunk_count(), 8);
        assert_eq!(a.group_size(MappingId(1)), 0);
        assert_eq!(a.mapping_of_frame(r1.pa), None);
    }

    #[test]
    fn released_chunk_can_switch_mapping() {
        let mut a = ChunkAllocator::new(22, 21, 12); // 2 chunks only
        let r1 = a.alloc_page(MappingId(1)).unwrap();
        let _r2 = a.alloc_page(MappingId(2)).unwrap();
        // Memory exhausted for a third mapping.
        assert_eq!(
            a.alloc_page(MappingId(3)).unwrap_err(),
            MemError::OutOfPhysicalMemory
        );
        // Free mapping 1's chunk; mapping 3 can now take it.
        a.free_block(r1.pa).unwrap();
        let r3 = a.alloc_page(MappingId(3)).unwrap();
        assert_eq!(r3.pa.chunk_number(21), r1.pa.chunk_number(21));
        assert_eq!(a.mapping_of_frame(r3.pa), Some(MappingId(3)));
    }

    #[test]
    fn fragmentation_bounded_by_mapping_count() {
        // Worst case of the paper's §4 analysis: every mapping allocates
        // a single page, stranding (pages_per_chunk - 1) pages per
        // mapping — bounded by #mappings, not #chunks.
        let mut a = small();
        for m in 1..=4u8 {
            a.alloc_page(MappingId(m)).unwrap();
        }
        assert_eq!(
            a.internal_fragmentation_pages(),
            4 * (a.pages_per_chunk() - 1)
        );
    }

    #[test]
    fn bad_frees_rejected() {
        let mut a = small();
        let r = a.alloc_page(MappingId(1)).unwrap();
        // Not a block start.
        assert!(a.free_block(PhysAddr(r.pa.raw() + 4096)).is_err());
        // Unaligned.
        assert!(a.free_block(PhysAddr(r.pa.raw() + 1)).is_err());
        // Free-listed chunk.
        assert!(a.free_block(PhysAddr(7 << 21)).is_err());
        // Double free.
        a.free_block(r.pa).unwrap();
        assert!(a.free_block(r.pa).is_err());
    }

    #[test]
    fn multi_page_blocks() {
        let mut a = small();
        let r = a.alloc_block(MappingId(1), 3).unwrap(); // 8 pages
        assert_eq!(a.allocated_pages(), 8);
        assert_eq!(r.pa.raw() % (8 * 4096), 0, "block is order-aligned");
        let huge = a.alloc_block(MappingId(1), 30);
        assert!(matches!(huge, Err(MemError::InvalidSize { .. })));
        a.free_block(r.pa).unwrap();
        assert_eq!(a.allocated_pages(), 0);
    }

    #[test]
    fn sensitive_allocation_reserves_guard_chunks() {
        let mut a = small(); // 8 chunks
        let r = a.alloc_block_sensitive(MappingId(1), 0).unwrap();
        let c = r.pa.chunk_number(21);
        assert_eq!(a.guard_chunk_count(), if c == 0 || c == 7 { 1 } else { 2 });
        for g in [c.wrapping_sub(1), c + 1] {
            if g < 8 {
                assert!(a.is_guard_chunk(g));
            }
        }
        // Ordinary allocations skip the guards: exhaust memory and check
        // no frame ever lands in a guard chunk.
        let mut frames = Vec::new();
        while let Ok(r) = a.alloc_page(MappingId(2)) {
            frames.push(r.pa);
        }
        for pa in &frames {
            assert!(
                !a.is_guard_chunk(pa.chunk_number(21)),
                "guard chunk was allocated"
            );
        }
    }

    #[test]
    fn freeing_sensitive_data_releases_guards() {
        let mut a = small();
        let r = a.alloc_block_sensitive(MappingId(1), 0).unwrap();
        let guards_before = a.guard_chunk_count();
        assert!(guards_before > 0);
        a.free_block(r.pa).unwrap();
        assert_eq!(a.guard_chunk_count(), 0);
        assert_eq!(a.free_chunk_count(), 8);
    }

    #[test]
    fn overlapping_guards_persist_until_both_freed() {
        let mut a = ChunkAllocator::new(25, 21, 12); // 16 chunks
        let r1 = a.alloc_block_sensitive(MappingId(1), 0).unwrap();
        // Same mapping reuses the same sensitive chunk; a different
        // domain (mapping) gets its own isolated chunk.
        let same = a.alloc_block_sensitive(MappingId(1), 0).unwrap();
        assert_eq!(same.pa.chunk_number(21), r1.pa.chunk_number(21));
        a.free_block(same.pa).unwrap();
        let r2 = a.alloc_block_sensitive(MappingId(2), 0).unwrap();
        let (c1, c2) = (r1.pa.chunk_number(21), r2.pa.chunk_number(21));
        assert!(
            c1.abs_diff(c2) >= 2,
            "sensitive chunks must not be adjacent"
        );
        a.free_block(r1.pa).unwrap();
        // r2's guards must still stand.
        for g in [c2.wrapping_sub(1), c2 + 1] {
            if g < 16 {
                assert!(a.is_guard_chunk(g), "guard of live sensitive chunk dropped");
            }
        }
    }

    #[test]
    fn sensitive_allocation_fails_when_no_isolated_chunk_exists() {
        let mut a = ChunkAllocator::new(22, 21, 12); // 2 chunks
        let _ = a.alloc_block_sensitive(MappingId(1), 0).unwrap();
        // The neighbour is a guard; a different domain finds nothing
        // isolated.
        assert_eq!(
            a.alloc_block_sensitive(MappingId(2), 0).unwrap_err(),
            MemError::OutOfPhysicalMemory
        );
    }

    #[test]
    fn report_reflects_state() {
        let mut a = small();
        a.alloc_page(MappingId(1)).unwrap();
        a.alloc_page(MappingId(2)).unwrap();
        a.alloc_block_sensitive(MappingId(3), 0).unwrap();
        let r = a.report();
        assert_eq!(r.total_chunks, 8);
        assert_eq!(r.free_chunks, 5);
        assert!(r.guard_chunks >= 1);
        assert_eq!(r.groups.len(), 3);
        assert_eq!(r.allocated_pages, 3);
        let text = r.to_string();
        assert!(text.contains("map#3"));
        assert!(text.contains("8 total"));
    }

    #[test]
    fn claim_release_counters_track_live_chunks() {
        let mut a = small();
        let r1 = a.alloc_page(MappingId(1)).unwrap();
        let r2 = a.alloc_page(MappingId(2)).unwrap();
        let r3 = a.alloc_page(MappingId(2)).unwrap();
        assert_eq!(a.chunks_claimed(), 2);
        assert_eq!(a.chunks_released(), 0);
        assert_eq!(a.in_use_chunks(), 2);
        a.free_block(r1.pa).unwrap();
        a.free_block(r2.pa).unwrap();
        assert_eq!(a.chunks_released(), 1, "mapping 2's chunk still live");
        assert_eq!(a.chunks_claimed() - a.chunks_released(), a.in_use_chunks());
        a.free_block(r3.pa).unwrap();
        assert_eq!(a.chunks_claimed() - a.chunks_released(), 0);
        let mut reg = sdam_obs::Registry::new();
        a.export_into(&mut reg);
        assert_eq!(reg.counter("mem.chunks_claimed"), 2);
        assert_eq!(reg.counter("mem.chunks_released"), 2);
        assert_eq!(reg.counter("mem.live_chunks"), 0);
    }

    #[test]
    fn exhaustion_is_reported() {
        let mut a = ChunkAllocator::new(22, 21, 20); // 2 chunks x 2 pages
        for _ in 0..4 {
            a.alloc_page(MappingId(1)).unwrap();
        }
        assert_eq!(
            a.alloc_page(MappingId(1)).unwrap_err(),
            MemError::OutOfPhysicalMemory
        );
    }

    #[test]
    fn fragmentation_stats_read_off_flat_state() {
        let mut a = small(); // 8 chunks
        let s0 = a.fragmentation_stats();
        assert_eq!(s0.free_chunks, 8);
        assert_eq!(s0.max_contiguous_free_run, 8);
        let r1 = a.alloc_page(MappingId(1)).unwrap(); // takes chunk 0
        let _r2 = a.alloc_page(MappingId(2)).unwrap(); // takes chunk 1
        let s1 = a.fragmentation_stats();
        assert_eq!(s1.free_chunks, 6);
        assert_eq!(s1.max_contiguous_free_run, 6);
        assert_eq!(s1.stranded_pages, 2 * (a.pages_per_chunk() - 1));
        a.free_block(r1.pa).unwrap(); // chunk 0 free again, chunk 1 not
        let s2 = a.fragmentation_stats();
        assert_eq!(s2.free_chunks, 7);
        assert_eq!(s2.max_contiguous_free_run, 6, "chunk 1 splits the run");
    }

    /// A quick deterministic interleaving against the oracle; the heavy
    /// property-based equivalence lives in `tests/prop_alloc.rs`.
    #[test]
    fn matches_reference_under_interleaved_churn() {
        let mut state = 0xd1b5_4a32_d192_ed03u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut fast = ChunkAllocator::new(25, 21, 12);
        let mut oracle = ChunkAllocatorReference::new(25, 21, 12);
        let mut live: Vec<PhysAddr> = Vec::new();
        for _ in 0..6_000 {
            match next() % 5 {
                0..=2 => {
                    let m = MappingId((next() % 6) as u8);
                    let order = (next() % 3) as u32;
                    let a = fast.alloc_block(m, order);
                    let b = oracle.alloc_block(m, order);
                    assert_eq!(a, b, "alloc_block({m}, {order}) diverged");
                    if let Ok(p) = a {
                        live.push(p.pa);
                    }
                }
                3 => {
                    let m = MappingId((next() % 6) as u8);
                    let a = fast.alloc_block_sensitive(m, 0);
                    let b = oracle.alloc_block_sensitive(m, 0);
                    assert_eq!(a, b, "alloc_block_sensitive({m}) diverged");
                    if let Ok(p) = a {
                        live.push(p.pa);
                    }
                }
                _ => {
                    if live.is_empty() {
                        continue;
                    }
                    let i = (next() as usize) % live.len();
                    let pa = live.swap_remove(i);
                    assert_eq!(fast.free_block(pa), oracle.free_block(pa));
                }
            }
            assert_eq!(fast.chunks_claimed(), oracle.chunks_claimed());
            assert_eq!(fast.chunks_released(), oracle.chunks_released());
            assert_eq!(fast.free_chunk_count(), oracle.free_chunk_count());
            assert_eq!(fast.guard_chunk_count(), oracle.guard_chunk_count());
            assert_eq!(fast.allocated_pages(), oracle.allocated_pages());
            assert_eq!(
                fast.internal_fragmentation_pages(),
                oracle.internal_fragmentation_pages()
            );
        }
        assert_eq!(fast.report(), oracle.report());
    }
}
