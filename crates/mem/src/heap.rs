//! The mapping-aware multi-heap `malloc` (the paper's glibc side).
//!
//! The paper extends glibc so that each heap is associated with one
//! address mapping (§6.1, Fig. 8): `malloc(size, id)` allocates from a
//! heap of that mapping, creating a new heap when none has room. The
//! ids themselves come from `add_addr_map()`, which registers a mapping
//! in the CMT shared by every process; this allocator only keys its
//! heaps by id and keeps no registry of its own. Heaps are
//! page-aligned and allocate/free independently, so *every page contains
//! data of exactly one mapping* — the property that lets the kernel back
//! each heap with chunks of a single chunk group.
//!
//! Inside a heap we run a first-fit allocator with coalescing (a
//! faithful stand-in for glibc's bins at the granularity that matters
//! here), in the same flat indexed idiom as the chunk allocator: blocks
//! live in a node arena threaded by address-order links (coalescing is
//! two link updates, never a tree walk), the free blocks are a flat
//! index list scanned for the lowest-address fit, and live allocations
//! resolve through a `HashMap` keyed by start address, hashed with the
//! page table's multiplicative hasher.
//! The heap-for-address lookup is a binary search over the (monotonic)
//! region starts, and each heap carries an upper bound on its largest
//! free block so full heaps are skipped without touching their free
//! lists. [`MultiHeapMalloc::retire_mapping`] retires an id's empty
//! heaps, so an id the CMT recycles starts from fresh heaps.

use sdam_mapping::MappingId;

use crate::{MemError, U64Map, VirtAddr};

/// Default size of a newly created heap (glibc's per-thread heaps are
/// 64 MB; we default smaller so tests exercise heap growth).
const DEFAULT_HEAP_BYTES: u64 = 1 << 22;

/// Base virtual address of the first heap.
const HEAP_BASE: u64 = 1 << 44;

/// Largest single allocation a heap will serve (1 TB). Anything bigger
/// is a bug or an attack on the allocator's address arithmetic, not a
/// plausible request, and is rejected as [`MemError::InvalidSize`]
/// before any rounding can overflow.
pub const MAX_ALLOC_BYTES: u64 = 1 << 40;

/// Allocation alignment in bytes.
const ALIGN: u64 = 16;

/// Null link in the block arena.
const NIL: u32 = u32::MAX;

/// A heap region: what the allocator asks the kernel to `mmap` with its
/// mapping id (the "heap-mapping array" entry of the paper's Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapRegion {
    /// Page-aligned start of the heap.
    pub start: VirtAddr,
    /// Page-aligned length.
    pub len: u64,
    /// The mapping whose chunk group backs this heap.
    pub mapping: MappingId,
    /// True for guard-isolated (rowhammer-sensitive) heaps.
    pub sensitive: bool,
}

/// One block in a heap's arena: a contiguous byte range, either live or
/// free, linked to its address-order neighbours.
#[derive(Debug, Clone, Copy)]
struct Block {
    start: u64,
    len: u64,
    /// Address-order links (previous/next block in the heap).
    prev: u32,
    next: u32,
    free: bool,
    /// Position in `Heap::free_list` while free (for O(1) removal).
    free_pos: u32,
}

#[derive(Debug, Clone)]
struct Heap {
    region: HeapRegion,
    /// Block arena; slots are recycled through `spare`.
    nodes: Vec<Block>,
    spare: Vec<u32>,
    /// Free-block node indices, unordered (swap-removed); the fit scan
    /// reads the whole flat list and takes the lowest start address,
    /// which is exactly first-fit by address.
    free_list: Vec<u32>,
    /// Live allocation start → node.
    live: U64Map<u32>,
    live_bytes: u64,
    /// Upper bound on the largest free block (exact after every alloc
    /// scan; only ever an over-estimate in between, so skipping heaps
    /// with `max_free_hint < size` never skips a satisfiable heap).
    max_free_hint: u64,
    /// True once the owning mapping was removed: the heap no longer
    /// resolves addresses and never serves a recycled id's allocations.
    retired: bool,
}

impl Heap {
    fn new(region: HeapRegion, header_bytes: u64) -> Self {
        // The heap header (glibc: `heap_info` + arena metadata) keeps
        // user data off the region start. Beyond realism, the staggered
        // per-heap header decorrelates equal-index streams of different
        // variables, which would otherwise share every channel.
        let header = header_bytes.min(region.len.saturating_sub(ALIGN));
        let first = Block {
            start: region.start.0 + header,
            len: region.len - header,
            prev: NIL,
            next: NIL,
            free: true,
            free_pos: 0,
        };
        Heap {
            region,
            nodes: vec![first],
            spare: Vec::new(),
            free_list: vec![0],
            live: U64Map::default(),
            live_bytes: 0,
            max_free_hint: region.len - header,
            retired: false,
        }
    }

    fn new_node(&mut self, b: Block) -> u32 {
        if let Some(i) = self.spare.pop() {
            self.nodes[i as usize] = b;
            i
        } else {
            self.nodes.push(b);
            (self.nodes.len() - 1) as u32
        }
    }

    /// Removes node `i` from the free list in O(1).
    fn unfree(&mut self, i: u32) {
        let pos = self.nodes[i as usize].free_pos as usize;
        let last = self.free_list.len() - 1;
        self.free_list.swap(pos, last);
        self.free_list.pop();
        if pos <= last {
            if let Some(&moved) = self.free_list.get(pos) {
                self.nodes[moved as usize].free_pos = pos as u32;
            }
        }
    }

    fn push_free(&mut self, i: u32) {
        self.nodes[i as usize].free = true;
        self.nodes[i as usize].free_pos = self.free_list.len() as u32;
        self.free_list.push(i);
    }

    /// First-fit by address: the lowest-start free block with room.
    /// One flat pass over the free index list; the same pass recomputes
    /// the exact largest-free-block bound.
    fn alloc(&mut self, size: u64) -> Option<u64> {
        let mut best: Option<u32> = None;
        let mut max1 = 0u64; // largest free len seen
        let mut max2 = 0u64; // second largest
        for &i in &self.free_list {
            let b = &self.nodes[i as usize];
            if b.len >= max1 {
                max2 = max1;
                max1 = b.len;
            } else if b.len > max2 {
                max2 = b.len;
            }
            if b.len >= size && best.is_none_or(|j| b.start < self.nodes[j as usize].start) {
                best = Some(i);
            }
        }
        let Some(i) = best else {
            self.max_free_hint = max1;
            return None;
        };
        let (start, len) = {
            let b = &self.nodes[i as usize];
            (b.start, b.len)
        };
        if len > size {
            // The free block shrinks in place (it keeps its free-list
            // slot); a fresh node carries the allocation before it.
            let prev = self.nodes[i as usize].prev;
            let a = self.new_node(Block {
                start,
                len: size,
                prev,
                next: i,
                free: false,
                free_pos: 0,
            });
            self.nodes[i as usize].start = start + size;
            self.nodes[i as usize].len = len - size;
            self.nodes[i as usize].prev = a;
            if prev != NIL {
                self.nodes[prev as usize].next = a;
            }
            self.live.insert(start, a);
        } else {
            self.unfree(i);
            self.nodes[i as usize].free = false;
            self.live.insert(start, i);
        }
        self.live_bytes += size;
        // `max1`/`max2` described the list before the cut; the chosen
        // block now holds `len - size`.
        self.max_free_hint = if len == max1 {
            max2.max(len - size)
        } else {
            max1
        };
        Some(start)
    }

    fn free_block(&mut self, addr: u64) -> bool {
        let Some(i) = self.live.remove(&addr) else {
            return false;
        };
        let len = self.nodes[i as usize].len;
        self.live_bytes -= len;
        let mut node = i;
        // Coalesce with the address successor.
        let next = self.nodes[node as usize].next;
        if next != NIL && self.nodes[next as usize].free {
            self.unfree(next);
            self.nodes[node as usize].len += self.nodes[next as usize].len;
            let nn = self.nodes[next as usize].next;
            self.nodes[node as usize].next = nn;
            if nn != NIL {
                self.nodes[nn as usize].prev = node;
            }
            self.spare.push(next);
        }
        // Coalesce with the address predecessor.
        let prev = self.nodes[node as usize].prev;
        if prev != NIL && self.nodes[prev as usize].free {
            self.nodes[prev as usize].len += self.nodes[node as usize].len;
            let nn = self.nodes[node as usize].next;
            self.nodes[prev as usize].next = nn;
            if nn != NIL {
                self.nodes[nn as usize].prev = prev;
            }
            self.spare.push(node);
            node = prev;
            self.max_free_hint = self.max_free_hint.max(self.nodes[node as usize].len);
        } else {
            self.max_free_hint = self.max_free_hint.max(self.nodes[node as usize].len);
            self.push_free(node);
        }
        true
    }

    fn live_bytes(&self) -> u64 {
        self.live_bytes
    }
}

/// The multi-heap allocator.
///
/// # Example
///
/// ```
/// use sdam_mapping::MappingId;
/// use sdam_mem::heap::MultiHeapMalloc;
///
/// let mut m = MultiHeapMalloc::new(12);
/// let (stream_map, random_map) = (MappingId(1), MappingId(2));
/// let a = m.malloc(1024, Some(stream_map))?;
/// let b = m.malloc(1024, Some(random_map))?;
/// // Different mappings live in different heaps, hence different pages.
/// assert_ne!(a.raw() >> 12, b.raw() >> 12);
/// m.free(a)?;
/// m.free(b)?;
/// # Ok::<(), sdam_mem::MemError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MultiHeapMalloc {
    page_bits: u32,
    heap_bytes: u64,
    heaps: Vec<Heap>,
    /// Mapping id → indices into `heaps` (the heap-mapping array),
    /// indexed directly by the 8-bit id.
    by_mapping: Vec<Vec<u32>>,
    next_region: u64,
    /// `(start, heap index)` per heap, in creation order; region starts
    /// grow monotonically, so this stays sorted and address-to-heap
    /// resolution is a binary search.
    starts: Vec<(u64, u32)>,
    new_regions: Vec<HeapRegion>,
    /// Successful `malloc` calls (monotonic).
    alloc_calls: u64,
    /// Successful `free` calls (monotonic).
    free_calls: u64,
    /// Heaps ever created (monotonic; retired heaps keep their slot, so
    /// this equals `heaps.len()`, kept as a counter for the registry).
    heaps_created: u64,
}

impl MultiHeapMalloc {
    /// Creates an allocator for `2^page_bits`-byte pages with the
    /// default heap size.
    pub fn new(page_bits: u32) -> Self {
        Self::with_heap_bytes(page_bits, DEFAULT_HEAP_BYTES)
    }

    /// Creates an allocator with a custom heap growth unit (rounded up
    /// to a page).
    ///
    /// # Panics
    ///
    /// Panics if `heap_bytes` is zero.
    pub fn with_heap_bytes(page_bits: u32, heap_bytes: u64) -> Self {
        assert!(heap_bytes > 0, "heap size must be non-zero");
        let page = 1u64 << page_bits;
        let heap_bytes = heap_bytes.div_ceil(page) * page;
        MultiHeapMalloc {
            page_bits,
            heap_bytes,
            heaps: Vec::new(),
            by_mapping: (0..256).map(|_| Vec::new()).collect(),
            next_region: HEAP_BASE,
            starts: Vec::new(),
            new_regions: Vec::new(),
            alloc_calls: 0,
            free_calls: 0,
            heaps_created: 0,
        }
    }

    /// Retires a mapping's heaps once its id is unregistered: they no
    /// longer resolve addresses, and later allocations under the same
    /// (recycled) id start from fresh heaps, so a new tenant can never
    /// reach the old one's addresses.
    ///
    /// # Errors
    ///
    /// [`MemError::MappingInUse`] when live allocations remain in the
    /// mapping's heaps; nothing is retired then.
    pub fn retire_mapping(&mut self, id: MappingId) -> Result<(), MemError> {
        if self.live_bytes(id) > 0 {
            return Err(MemError::MappingInUse(id));
        }
        for &i in &self.by_mapping[id.0 as usize] {
            self.heaps[i as usize].retired = true;
        }
        self.by_mapping[id.0 as usize].clear();
        Ok(())
    }

    /// Allocates `size` bytes from a heap of `mapping` (the default
    /// mapping when `None` — the unmodified `malloc(size)` signature).
    ///
    /// # Errors
    ///
    /// [`MemError::InvalidSize`] for zero or oversized
    /// (> [`MAX_ALLOC_BYTES`]) sizes.
    pub fn malloc(&mut self, size: u64, mapping: Option<MappingId>) -> Result<VirtAddr, MemError> {
        self.malloc_with(size, mapping, false)
    }

    /// Allocates from a guard-isolated (rowhammer-sensitive) heap: its
    /// backing chunks get physical guard chunks around them (see
    /// [`crate::phys::ChunkAllocator::alloc_block_sensitive`]). Sensitive
    /// and ordinary data never share a heap, hence never a chunk.
    ///
    /// # Errors
    ///
    /// As [`MultiHeapMalloc::malloc`].
    pub fn malloc_sensitive(
        &mut self,
        size: u64,
        mapping: Option<MappingId>,
    ) -> Result<VirtAddr, MemError> {
        self.malloc_with(size, mapping, true)
    }

    fn malloc_with(
        &mut self,
        size: u64,
        mapping: Option<MappingId>,
        sensitive: bool,
    ) -> Result<VirtAddr, MemError> {
        let mapping = mapping.unwrap_or(MappingId::DEFAULT);
        if size == 0 || size > MAX_ALLOC_BYTES {
            return Err(MemError::InvalidSize { size });
        }
        let size = size.div_ceil(ALIGN) * ALIGN;
        // Try existing heaps of this mapping and sensitivity; the
        // max-free bound skips heaps that cannot possibly fit.
        for k in 0..self.by_mapping[mapping.0 as usize].len() {
            let i = self.by_mapping[mapping.0 as usize][k] as usize;
            if self.heaps[i].region.sensitive != sensitive || self.heaps[i].max_free_hint < size {
                continue;
            }
            if let Some(addr) = self.heaps[i].alloc(size) {
                self.alloc_calls += 1;
                return Ok(VirtAddr(addr));
            }
        }
        // Create a new heap large enough for the request plus its
        // staggered header (1..=31 cache lines, varying per heap).
        let idx = self.heaps.len();
        let header_bytes = ((idx as u64 * 7) % 31 + 1) * 64;
        let heap_len = self.heap_bytes.max(self.round_to_page(size + header_bytes));
        let region = HeapRegion {
            start: VirtAddr(self.next_region),
            len: heap_len,
            mapping,
            sensitive,
        };
        // Guard page between heaps.
        self.next_region += heap_len + (1u64 << self.page_bits);
        self.heaps.push(Heap::new(region, header_bytes));
        self.starts.push((region.start.0, idx as u32));
        self.by_mapping[mapping.0 as usize].push(idx as u32);
        self.new_regions.push(region);
        self.heaps_created += 1;
        // The fresh heap was sized to the request, so this cannot fail;
        // the guard keeps the path panic-free regardless.
        let Some(addr) = self.heaps[idx].alloc(size) else {
            return Err(MemError::InvalidSize { size });
        };
        self.alloc_calls += 1;
        Ok(VirtAddr(addr))
    }

    /// Frees an allocation. Finds the owning heap by address range, as
    /// the paper's `free()` does by comparing against `ar_ptr` and size.
    ///
    /// # Errors
    ///
    /// [`MemError::BadFree`] if `va` is not a live allocation start.
    pub fn free(&mut self, va: VirtAddr) -> Result<(), MemError> {
        let Some(heap) = self.heap_index_of(va) else {
            return Err(MemError::BadFree(va));
        };
        if self.heaps[heap].free_block(va.0) {
            self.free_calls += 1;
            Ok(())
        } else {
            Err(MemError::BadFree(va))
        }
    }

    /// The heap region containing `va`, if any — the range the kernel
    /// must have mmapped with the heap's mapping id.
    pub fn heap_region(&self, va: VirtAddr) -> Option<HeapRegion> {
        self.heap_index_of(va).map(|i| self.heaps[i].region)
    }

    /// The mapping of the heap containing `va`.
    pub fn mapping_of(&self, va: VirtAddr) -> Option<MappingId> {
        self.heap_region(va).map(|r| r.mapping)
    }

    /// The size of the live allocation starting exactly at `va`.
    pub fn size_of(&self, va: VirtAddr) -> Option<u64> {
        let heap = self.heap_index_of(va)?;
        let node = *self.heaps[heap].live.get(&va.0)?;
        Some(self.heaps[heap].nodes[node as usize].len)
    }

    /// Drains regions of heaps created since the last call; the caller
    /// wires each to a VMA via `mmap_fixed` (the paper's malloc calling
    /// into the kernel "for more memory with the desired mapping").
    pub fn drain_new_heaps(&mut self) -> Vec<HeapRegion> {
        std::mem::take(&mut self.new_regions)
    }

    /// All heap regions, in creation order (retired heaps included).
    pub fn heap_regions(&self) -> Vec<HeapRegion> {
        self.heaps.iter().map(|h| h.region).collect()
    }

    /// Live (allocated) bytes across all heaps of a mapping.
    pub fn live_bytes(&self, mapping: MappingId) -> u64 {
        self.by_mapping[mapping.0 as usize]
            .iter()
            .map(|&i| self.heaps[i as usize].live_bytes())
            .sum()
    }

    /// Successful `malloc`/`malloc_sensitive` calls so far.
    pub fn alloc_calls(&self) -> u64 {
        self.alloc_calls
    }

    /// Successful `free` calls so far.
    pub fn free_calls(&self) -> u64 {
        self.free_calls
    }

    /// Heaps created so far.
    pub fn heaps_created(&self) -> u64 {
        self.heaps_created
    }

    /// Exports the malloc counters into `reg` under `mem.*`.
    pub fn export_into(&self, reg: &mut sdam_obs::Registry) {
        reg.incr("mem.alloc_calls", self.alloc_calls);
        reg.incr("mem.free_calls", self.free_calls);
        reg.incr("mem.heaps_created", self.heaps_created);
    }

    fn heap_index_of(&self, va: VirtAddr) -> Option<usize> {
        // Binary search over the sorted region starts: the candidate is
        // the last heap starting at or below `va`.
        let pos = self.starts.partition_point(|&(s, _)| s <= va.0);
        let (_, i) = *self.starts.get(pos.checked_sub(1)?)?;
        let h = &self.heaps[i as usize];
        if h.retired || va.0 >= h.region.start.0 + h.region.len {
            return None;
        }
        Some(i as usize)
    }

    fn round_to_page(&self, n: u64) -> u64 {
        let p = 1u64 << self.page_bits;
        n.div_ceil(p) * p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> MultiHeapMalloc {
        MultiHeapMalloc::with_heap_bytes(12, 16 * 4096)
    }

    #[test]
    fn retire_mapping_refuses_live_allocations() {
        let mut m = small();
        let id = MappingId(3);
        let va = m.malloc(64, Some(id)).unwrap();
        assert_eq!(
            m.retire_mapping(id).unwrap_err(),
            MemError::MappingInUse(id)
        );
        // The refusal retired nothing: the allocation still resolves.
        assert_eq!(m.mapping_of(va), Some(id));
        m.free(va).unwrap();
        m.retire_mapping(id).unwrap();
        assert_eq!(m.mapping_of(va), None);
    }

    #[test]
    fn retired_heaps_never_serve_recycled_ids() {
        let mut m = small();
        let id = MappingId(1);
        let va = m.malloc(64, Some(id)).unwrap();
        m.free(va).unwrap();
        m.retire_mapping(id).unwrap();
        // The id comes back, but the old heap does not: the recycled
        // mapping's first allocation opens a fresh heap, and the stale
        // address no longer resolves to anything.
        assert_eq!(m.mapping_of(va), None);
        assert!(m.free(va).is_err());
        let va2 = m.malloc(64, Some(id)).unwrap();
        assert_ne!(
            m.heap_region(va2).unwrap().start.0,
            va.0 & !0xfff,
            "recycled id must get a fresh heap"
        );
    }

    #[test]
    fn no_mapping_means_the_default_mapping() {
        let mut m = small();
        let va = m.malloc(100, None).unwrap();
        assert_eq!(m.mapping_of(va), Some(MappingId::DEFAULT));
    }

    #[test]
    fn heaps_are_page_disjoint_across_mappings() {
        let mut m = small();
        let (m1, m2) = (MappingId(1), MappingId(2));
        let mut pages: std::collections::HashMap<u64, MappingId> = Default::default();
        for i in 0..200u64 {
            let id = if i % 2 == 0 { m1 } else { m2 };
            let va = m.malloc(100 + i, Some(id)).unwrap();
            let owner = pages.entry(va.vpn(12)).or_insert(id);
            assert_eq!(*owner, id, "page mixes two mappings");
        }
    }

    #[test]
    fn heap_grows_when_full() {
        let mut m = small();
        let id = MappingId(1);
        let heap_capacity = 16 * 4096u64;
        let mut count = 0;
        while (count + 1) * 1024 <= 3 * heap_capacity {
            m.malloc(1024, Some(id)).unwrap();
            count += 1;
        }
        let regions = m.drain_new_heaps();
        assert!(
            regions.len() >= 3,
            "expected >= 3 heaps, got {}",
            regions.len()
        );
        assert!(regions.iter().all(|r| r.mapping == id));
        // Regions are disjoint.
        for (i, a) in regions.iter().enumerate() {
            for b in &regions[i + 1..] {
                assert!(a.start.0 + a.len <= b.start.0 || b.start.0 + b.len <= a.start.0);
            }
        }
    }

    #[test]
    fn large_allocation_gets_dedicated_heap() {
        let mut m = small();
        let va = m.malloc(1 << 20, None).unwrap();
        let r = m.heap_region(va).unwrap();
        assert!(r.len >= 1 << 20);
        assert_eq!(r.len % 4096, 0);
    }

    #[test]
    fn free_and_reuse() {
        let mut m = small();
        let a = m.malloc(256, None).unwrap();
        let b = m.malloc(256, None).unwrap();
        m.free(a).unwrap();
        let c = m.malloc(128, None).unwrap();
        assert_eq!(c, a, "first fit reuses the freed block");
        m.free(b).unwrap();
        m.free(c).unwrap();
        assert_eq!(m.live_bytes(MappingId::DEFAULT), 0);
    }

    #[test]
    fn coalescing_allows_big_realloc() {
        let mut m = MultiHeapMalloc::with_heap_bytes(12, 8192);
        let a = m.malloc(1024, None).unwrap();
        let b = m.malloc(1024, None).unwrap();
        let c = m.malloc(1024, None).unwrap();
        let d = m.malloc(1024, None).unwrap();
        for va in [a, b, c, d] {
            m.free(va).unwrap();
        }
        // Whole heap coalesced: a 4 KB allocation fits back at the start
        // of the same heap (just after the heap header).
        let e = m.malloc(4096, None).unwrap();
        assert_eq!(e, a);
        assert_eq!(m.heap_regions().len(), 1);
    }

    #[test]
    fn heap_headers_stagger_user_data() {
        // Heads of different heaps must not share the same line offset,
        // so equal-index streams of different variables decorrelate.
        let mut m = small();
        let (id1, id2) = (MappingId(1), MappingId(2));
        let a = m.malloc(64, Some(id1)).unwrap();
        let b = m.malloc(64, Some(id2)).unwrap();
        let off = |v: VirtAddr| v.0 - m.heap_region(v).unwrap().start.0;
        assert_ne!(off(a), off(b), "headers should differ across heaps");
        assert!(
            off(a) >= 64 && off(b) >= 64,
            "user data is off the region start"
        );
    }

    #[test]
    fn sensitive_and_ordinary_data_never_share_a_heap() {
        let mut m = small();
        let id = MappingId(1);
        let plain = m.malloc(64, Some(id)).unwrap();
        let secret = m.malloc_sensitive(64, Some(id)).unwrap();
        let rp = m.heap_region(plain).unwrap();
        let rs = m.heap_region(secret).unwrap();
        assert_ne!(rp.start, rs.start);
        assert!(!rp.sensitive);
        assert!(rs.sensitive);
        // A second sensitive allocation reuses the sensitive heap.
        let secret2 = m.malloc_sensitive(64, Some(id)).unwrap();
        assert_eq!(m.heap_region(secret2).unwrap().start, rs.start);
    }

    #[test]
    fn bad_frees_rejected() {
        let mut m = small();
        let a = m.malloc(64, None).unwrap();
        assert!(m.free(VirtAddr(a.0 + 8)).is_err(), "interior pointer");
        assert!(m.free(VirtAddr(12)).is_err(), "wild pointer");
        m.free(a).unwrap();
        assert!(m.free(a).is_err(), "double free");
    }

    #[test]
    fn size_of_reports_live_allocations_only() {
        let mut m = small();
        let va = m.malloc(100, None).unwrap();
        assert_eq!(m.size_of(va), Some(112)); // rounded to 16 B
        assert_eq!(m.size_of(VirtAddr(va.0 + 16)), None, "interior pointer");
        m.free(va).unwrap();
        assert_eq!(m.size_of(va), None);
    }

    #[test]
    fn call_counters_count_successes_only() {
        let mut m = small();
        let a = m.malloc(64, None).unwrap();
        let b = m.malloc(1 << 20, None).unwrap(); // forces a second heap
        assert!(m.malloc(0, None).is_err());
        assert!(m.free(VirtAddr(1)).is_err());
        m.free(a).unwrap();
        m.free(b).unwrap();
        assert_eq!(m.alloc_calls(), 2);
        assert_eq!(m.free_calls(), 2);
        assert_eq!(m.heaps_created(), 2);
        let mut reg = sdam_obs::Registry::new();
        m.export_into(&mut reg);
        assert_eq!(reg.counter("mem.alloc_calls"), 2);
        assert_eq!(reg.counter("mem.heaps_created"), 2);
    }

    #[test]
    fn zero_size_rejected() {
        let mut m = small();
        assert!(matches!(
            m.malloc(0, None),
            Err(MemError::InvalidSize { size: 0 })
        ));
    }

    #[test]
    fn arena_recycles_nodes_under_churn() {
        // Long alloc/free churn must not grow the arena without bound:
        // coalescing returns nodes to the spare list and the free scan
        // stays over a handful of blocks.
        let mut m = small();
        for round in 0..2_000u64 {
            let a = m.malloc(64 + round % 512, None).unwrap();
            let b = m.malloc(128, None).unwrap();
            m.free(a).unwrap();
            m.free(b).unwrap();
        }
        assert_eq!(m.live_bytes(MappingId::DEFAULT), 0);
        assert_eq!(m.heaps_created(), 1, "churn must not leak heaps");
        let h = &m.heaps[0];
        assert!(
            h.nodes.len() <= 8,
            "node arena grew to {} under steady churn",
            h.nodes.len()
        );
        assert_eq!(h.free_list.len(), 1, "everything coalesced back");
    }
}
