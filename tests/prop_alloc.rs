//! Property-based tests for the allocation stack: random alloc/free
//! sequences must never hand out overlapping memory, must conserve
//! pages, and must respect SDAM's one-mapping-per-chunk invariant.

use std::collections::BTreeMap;

use proptest::prelude::*;
use sdam_mapping::{MappingId, PhysAddr};
use sdam_mem::buddy::BuddyAllocator;
use sdam_mem::heap::MultiHeapMalloc;
use sdam_mem::phys::{ChunkAllocator, ChunkAllocatorReference, ChunkEvent};
use sdam_mem::vma::{AddressSpace, VmArea};
use sdam_mem::{MemError, VirtAddr};

/// An alloc/free script: positive = alloc of that order/size bucket,
/// negative-ish handled by the interpreting loop freeing oldest.
#[derive(Debug, Clone)]
enum Op {
    Alloc(u8),
    FreeOldest,
}

fn ops(max_alloc: u8) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![(0..=max_alloc).prop_map(Op::Alloc), Just(Op::FreeOldest),],
        1..120,
    )
}

/// One step of the oracle-equivalence script: allocations across a
/// handful of mappings and orders, sensitive (guard-reserving) variants,
/// frees of arbitrary live blocks, and frees of arbitrary raw addresses
/// (which must fail identically on both implementations).
#[derive(Debug, Clone)]
enum ChurnOp {
    Alloc { mapping: u8, order: u8 },
    AllocSensitive { mapping: u8, order: u8 },
    Free { pick: usize },
    BadFree { raw: u64 },
}

fn churn_ops() -> impl Strategy<Value = Vec<ChurnOp>> {
    // The shim's `prop_oneof!` is unweighted; repeating the hot arms
    // tilts the mix toward allocations and frees.
    proptest::collection::vec(
        prop_oneof![
            (0u8..6, 0u8..11).prop_map(|(mapping, order)| ChurnOp::Alloc { mapping, order }),
            (0u8..6, 0u8..11).prop_map(|(mapping, order)| ChurnOp::Alloc { mapping, order }),
            (0u8..6, 0u8..4)
                .prop_map(|(mapping, order)| ChurnOp::AllocSensitive { mapping, order }),
            (0usize..1024).prop_map(|pick| ChurnOp::Free { pick }),
            (0usize..1024).prop_map(|pick| ChurnOp::Free { pick }),
            (0u64..(1 << 26)).prop_map(|raw| ChurnOp::BadFree { raw }),
        ],
        1..200,
    )
}

/// One step of the page-table equivalence script. Picks are reduced
/// modulo the live areas (one past the end names a bad address).
#[derive(Debug, Clone)]
enum PageOp {
    Mmap {
        pages: u64,
        mapping: u8,
    },
    MmapFixed {
        slot: u64,
        pages: u64,
        mapping: u8,
        sensitive: bool,
    },
    Touch {
        pick: usize,
        first: u64,
        count: u64,
        stride: u64,
    },
    Munmap {
        pick: usize,
    },
    Clear,
}

fn page_ops() -> impl Strategy<Value = Vec<PageOp>> {
    proptest::collection::vec(
        prop_oneof![
            (1u64..16, 0u8..4).prop_map(|(pages, mapping)| PageOp::Mmap { pages, mapping }),
            (256u64..4096, 0u8..4).prop_map(|(pages, mapping)| PageOp::Mmap { pages, mapping }),
            (0u64..16, 1u64..2048, 0u8..4, 0u8..8).prop_map(|(slot, pages, mapping, s)| {
                PageOp::MmapFixed {
                    slot,
                    pages,
                    mapping,
                    sensitive: s == 0,
                }
            }),
            (0usize..64, 0u64..4096, 1u64..48, 0u64..64).prop_map(
                |(pick, first, count, stride)| PageOp::Touch {
                    pick,
                    first,
                    count,
                    stride
                }
            ),
            (0usize..64, 0u64..4096, 1u64..48, 0u64..64).prop_map(
                |(pick, first, count, stride)| PageOp::Touch {
                    pick,
                    first,
                    count,
                    stride
                }
            ),
            (0usize..64, 0u64..4096, 1u64..48, 0u64..64).prop_map(
                |(pick, first, count, stride)| PageOp::Touch {
                    pick,
                    first,
                    count,
                    stride
                }
            ),
            (0usize..64).prop_map(|pick| PageOp::Munmap { pick }),
            (0usize..64).prop_map(|pick| PageOp::Munmap { pick }),
            Just(PageOp::Clear),
        ],
        1..300,
    )
}

/// An address for a heap lookup or free, resolved against the model
/// when the step runs: a live allocation start, an already-freed start,
/// a byte inside a live allocation, or an arbitrary address near the
/// heaps. Picks are reduced modulo the list they index.
#[derive(Debug, Clone)]
enum HeapAddr {
    Live(usize),
    Freed(usize),
    Interior(usize, u64),
    Unknown(u64),
}

/// One step of the multi-heap equivalence script.
#[derive(Debug, Clone)]
enum HeapOp {
    Malloc { mapping: u8, size: u64 },
    Free(HeapAddr),
    SizeOf(HeapAddr),
    MappingOf(HeapAddr),
}

fn heap_addr() -> impl Strategy<Value = HeapAddr> {
    prop_oneof![
        (0usize..1024).prop_map(HeapAddr::Live),
        (0usize..1024).prop_map(HeapAddr::Freed),
        (0usize..1024, 1u64..(1 << 20)).prop_map(|(pick, off)| HeapAddr::Interior(pick, off)),
        (0u64..(1 << 22)).prop_map(HeapAddr::Unknown),
    ]
}

fn heap_ops() -> impl Strategy<Value = Vec<HeapOp>> {
    // 64 KiB heaps: the mid sizes fill a heap within a few calls and
    // the large ones need a heap of their own, so growth is frequent.
    proptest::collection::vec(
        prop_oneof![
            (0u8..4, 1u64..4096).prop_map(|(mapping, size)| HeapOp::Malloc { mapping, size }),
            (0u8..4, 1u64..40_000).prop_map(|(mapping, size)| HeapOp::Malloc { mapping, size }),
            (0u8..4, 60_000u64..200_000)
                .prop_map(|(mapping, size)| HeapOp::Malloc { mapping, size }),
            heap_addr().prop_map(HeapOp::Free),
            heap_addr().prop_map(HeapOp::Free),
            heap_addr().prop_map(HeapOp::SizeOf),
            heap_addr().prop_map(HeapOp::MappingOf),
        ],
        1..200,
    )
}

/// The page table as an ordered `BTreeMap`, with an unmap that probes
/// every vpn of the area in ascending order: the model the hashed table
/// of [`AddressSpace`] must match event for event.
#[derive(Default)]
struct ModelSpace {
    vmas: BTreeMap<u64, VmArea>,
    page_table: BTreeMap<u64, PhysAddr>,
    next_mmap: u64,
    faults: u64,
    events: Vec<ChunkEvent>,
}

impl ModelSpace {
    const PAGE: u64 = 4096;

    fn new() -> Self {
        ModelSpace {
            next_mmap: 1 << 40,
            ..ModelSpace::default()
        }
    }

    fn mmap(&mut self, len: u64, mapping: MappingId) -> Result<VirtAddr, MemError> {
        let len = len.div_ceil(Self::PAGE) * Self::PAGE;
        let start = self.next_mmap;
        self.next_mmap = start + len + Self::PAGE;
        self.insert(VmArea {
            start: VirtAddr(start),
            len,
            mapping,
            sensitive: false,
        })?;
        Ok(VirtAddr(start))
    }

    fn insert(&mut self, area: VmArea) -> Result<(), MemError> {
        let overlaps = self
            .vmas
            .values()
            .any(|v| v.start.0 < area.end() && area.start.0 < v.end());
        if overlaps {
            return Err(MemError::VirtualRangeUnavailable { at: area.start });
        }
        self.vmas.insert(area.start.0, area);
        Ok(())
    }

    fn access(&mut self, va: VirtAddr, phys: &mut ChunkAllocator) -> Result<PhysAddr, MemError> {
        let (vpn, off) = (va.0 / Self::PAGE, va.0 % Self::PAGE);
        if let Some(pa) = self.page_table.get(&vpn) {
            return Ok(PhysAddr(pa.raw() | off));
        }
        let area = *self
            .vmas
            .values()
            .find(|v| v.contains(va))
            .ok_or(MemError::BadAddress(va))?;
        self.faults += 1;
        let alloc = if area.sensitive {
            phys.alloc_block_sensitive(area.mapping, 0)?
        } else {
            phys.alloc_page(area.mapping)?
        };
        self.events.extend(alloc.event);
        self.page_table.insert(vpn, alloc.pa);
        Ok(PhysAddr(alloc.pa.raw() | off))
    }

    fn munmap(&mut self, start: VirtAddr, phys: &mut ChunkAllocator) -> Result<(), MemError> {
        let area = self
            .vmas
            .remove(&start.0)
            .ok_or(MemError::BadAddress(start))?;
        for vpn in area.start.0 / Self::PAGE..area.end() / Self::PAGE {
            if let Some(pa) = self.page_table.remove(&vpn) {
                self.events.extend(phys.free_block(pa)?);
            }
        }
        Ok(())
    }

    fn clear(&mut self, phys: &mut ChunkAllocator) -> Result<(), MemError> {
        while let Some(&start) = self.vmas.keys().next() {
            self.munmap(VirtAddr(start), phys)?;
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn buddy_never_overlaps_and_conserves(script in ops(3)) {
        let mut b = BuddyAllocator::new(6); // 64 pages
        let mut live: Vec<(u64, u32)> = Vec::new();
        for op in script {
            match op {
                Op::Alloc(order) => {
                    if let Some(off) = b.alloc(order as u32) {
                        let len = 1u64 << order;
                        for &(o, ord) in &live {
                            let l = 1u64 << ord;
                            prop_assert!(
                                off + len <= o || o + l <= off,
                                "block [{off},+{len}) overlaps [{o},+{l})"
                            );
                        }
                        live.push((off, order as u32));
                    }
                }
                Op::FreeOldest => {
                    if !live.is_empty() {
                        let (off, ord) = live.remove(0);
                        b.free(off, ord);
                    }
                }
            }
            let live_pages: u64 = live.iter().map(|&(_, o)| 1u64 << o).sum();
            prop_assert_eq!(b.allocated_pages(), live_pages, "page accounting drifted");
        }
    }

    #[test]
    fn chunk_allocator_mapping_invariant(script in ops(2)) {
        // 32 MB, 2 MB chunks, 4 KB pages; three mappings in rotation.
        let mut a = ChunkAllocator::new(25, 21, 12);
        let mut live: Vec<(sdam_mapping::PhysAddr, MappingId)> = Vec::new();
        let mut next_mapping = 0u8;
        for op in script {
            match op {
                Op::Alloc(order) => {
                    let id = MappingId(next_mapping % 3 + 1);
                    next_mapping = next_mapping.wrapping_add(1);
                    if let Ok(r) = a.alloc_block(id, order as u32) {
                        live.push((r.pa, id));
                    }
                }
                Op::FreeOldest => {
                    if !live.is_empty() {
                        let (pa, _) = live.remove(0);
                        a.free_block(pa).unwrap();
                    }
                }
            }
            // SDAM's core invariant: every live frame sits in a chunk of
            // its own mapping.
            for &(pa, id) in &live {
                prop_assert_eq!(a.mapping_of_frame(pa), Some(id));
            }
        }
        // Free everything: all chunks return to the global list.
        for (pa, _) in live {
            a.free_block(pa).unwrap();
        }
        prop_assert_eq!(a.free_chunk_count(), 16);
        prop_assert_eq!(a.internal_fragmentation_pages(), 0);
    }

    #[test]
    fn multi_heap_allocations_never_overlap(sizes in proptest::collection::vec(1u64..5000, 1..80)) {
        let mut m = MultiHeapMalloc::with_heap_bytes(12, 16 * 4096);
        let (id1, id2) = (MappingId(1), MappingId(2));
        let mut live: Vec<(u64, u64, MappingId)> = Vec::new();
        for (i, &size) in sizes.iter().enumerate() {
            let id = if i % 2 == 0 { id1 } else { id2 };
            let va = m.malloc(size, Some(id)).unwrap();
            for &(s, l, _) in &live {
                prop_assert!(
                    va.0 + size <= s || s + l <= va.0,
                    "allocation overlaps an existing one"
                );
            }
            // Pages never mix mappings.
            prop_assert_eq!(m.mapping_of(va), Some(id));
            live.push((va.0, size, id));
        }
        // Every page is owned by at most one mapping.
        let mut page_owner = std::collections::HashMap::new();
        for &(start, len, id) in &live {
            for page in (start >> 12)..=((start + len - 1) >> 12) {
                let owner = page_owner.entry(page).or_insert(id);
                prop_assert_eq!(*owner, id, "page {} mixes mappings", page);
            }
        }
        // Free all; live bytes return to zero.
        for (start, _, _) in live {
            m.free(sdam_mem::VirtAddr(start)).unwrap();
        }
        prop_assert_eq!(m.live_bytes(id1) + m.live_bytes(id2), 0);
    }

    #[test]
    fn flat_allocator_matches_reference_oracle(script in churn_ops()) {
        // Golden equivalence: the flat-column ChunkAllocator must be
        // bit-identical to the preserved BTree reference over arbitrary
        // alloc/free/sensitive sequences — same PageAllocs (addresses
        // AND chunk events), same errors, same claim/release counters.
        let mut fast = ChunkAllocator::new(25, 21, 12); // 16 chunks
        let mut oracle = ChunkAllocatorReference::new(25, 21, 12);
        let mut live: Vec<sdam_mapping::PhysAddr> = Vec::new();
        for op in script {
            match op {
                ChurnOp::Alloc { mapping, order } => {
                    let m = MappingId(mapping);
                    let a = fast.alloc_block(m, order as u32);
                    let b = oracle.alloc_block(m, order as u32);
                    prop_assert_eq!(&a, &b, "alloc_block({}, {}) diverged", m, order);
                    if let Ok(p) = a {
                        live.push(p.pa);
                    }
                }
                ChurnOp::AllocSensitive { mapping, order } => {
                    let m = MappingId(mapping);
                    let a = fast.alloc_block_sensitive(m, order as u32);
                    let b = oracle.alloc_block_sensitive(m, order as u32);
                    prop_assert_eq!(&a, &b, "alloc_block_sensitive({}, {}) diverged", m, order);
                    if let Ok(p) = a {
                        live.push(p.pa);
                    }
                }
                ChurnOp::Free { pick } => {
                    if live.is_empty() {
                        continue;
                    }
                    let pa = live.swap_remove(pick % live.len());
                    prop_assert_eq!(fast.free_block(pa), oracle.free_block(pa));
                }
                ChurnOp::BadFree { raw } => {
                    // Arbitrary addresses: both sides must agree on the
                    // error (or, rarely, on a successful free of a real
                    // block start — then drop it from the live list).
                    let pa = sdam_mapping::PhysAddr(raw);
                    let a = fast.free_block(pa);
                    let b = oracle.free_block(pa);
                    prop_assert_eq!(&a, &b, "free_block({:#x}) diverged", raw);
                    if a.is_ok() {
                        live.retain(|&p| p != pa);
                    }
                }
            }
            prop_assert_eq!(fast.chunks_claimed(), oracle.chunks_claimed());
            prop_assert_eq!(fast.chunks_released(), oracle.chunks_released());
            prop_assert_eq!(fast.guard_chunk_count(), oracle.guard_chunk_count());
            prop_assert_eq!(fast.free_chunk_count(), oracle.free_chunk_count());
            prop_assert_eq!(fast.allocated_pages(), oracle.allocated_pages());
        }
        // Same end state, down to the per-group report.
        prop_assert_eq!(fast.report(), oracle.report());
        prop_assert_eq!(
            fast.internal_fragmentation_pages(),
            oracle.internal_fragmentation_pages()
        );
    }

    #[test]
    fn fragmentation_bounded_by_mapping_count(mappings in 1u8..8) {
        // The paper's §4 bound: worst-case waste is one chunk per access
        // pattern, independent of the number of chunks.
        let mut a = ChunkAllocator::new(26, 21, 12); // 32 chunks
        for m in 1..=mappings {
            a.alloc_page(MappingId(m)).unwrap();
        }
        let bound = mappings as u64 * (a.pages_per_chunk() - 1);
        prop_assert!(a.internal_fragmentation_pages() <= bound);
    }

    #[test]
    fn hashed_page_table_matches_btree_model(script in page_ops()) {
        // Eight-page chunks, so faults and unmaps claim and release
        // chunks often and the event order is exercised.
        let mut aspace = AddressSpace::new(12);
        let mut phys = ChunkAllocator::new(26, 15, 12);
        let mut model = ModelSpace::new();
        let mut model_phys = ChunkAllocator::new(26, 15, 12);
        for op in script {
            let live: Vec<VmArea> = model.vmas.values().copied().collect();
            match op {
                PageOp::Mmap { pages, mapping } => {
                    let len = pages * 4096 - 100;
                    prop_assert_eq!(
                        aspace.mmap(len, MappingId(mapping)),
                        model.mmap(len, MappingId(mapping))
                    );
                }
                PageOp::MmapFixed { slot, pages, mapping, sensitive } => {
                    let start = VirtAddr((1 << 30) + (slot << 22));
                    let area = VmArea { start, len: pages * 4096, mapping: MappingId(mapping), sensitive };
                    prop_assert_eq!(
                        aspace.mmap_fixed_with(start, area.len, area.mapping, sensitive),
                        model.insert(area)
                    );
                }
                PageOp::Touch { pick, first, count, stride } => {
                    let Some(area) = live.get(pick % live.len().max(1)) else { continue };
                    // One page past the end is a bad address (or the
                    // next area, which both sides must agree on).
                    let pages = area.len / 4096 + 1;
                    for k in 0..count {
                        let page = (first + k * stride) % pages;
                        let va = VirtAddr(area.start.0 + page * 4096 + (k * 448) % 4096);
                        let got = aspace.access(va, &mut phys);
                        prop_assert_eq!(got.clone(), model.access(va, &mut model_phys));
                        if let Ok(pa) = got {
                            prop_assert_eq!(aspace.translate(va), Some(pa));
                        }
                    }
                }
                PageOp::Munmap { pick } => {
                    let start = live
                        .get(pick % (live.len() + 1))
                        .map_or(VirtAddr((1 << 40) + 4096), |a| a.start);
                    prop_assert_eq!(
                        aspace.munmap(start, &mut phys),
                        model.munmap(start, &mut model_phys)
                    );
                }
                PageOp::Clear => {
                    prop_assert_eq!(aspace.clear(&mut phys), model.clear(&mut model_phys));
                }
            }
            prop_assert_eq!(aspace.drain_events(), std::mem::take(&mut model.events));
            prop_assert_eq!(aspace.page_fault_count(), model.faults);
            prop_assert_eq!(aspace.resident_pages(), model.page_table.len() as u64);
            prop_assert!(aspace.areas().eq(model.vmas.values()));
        }
        // Both allocators hand out the same frames afterwards.
        for m in 0..4u8 {
            for _ in 0..16 {
                prop_assert_eq!(
                    phys.alloc_page(MappingId(m)),
                    model_phys.alloc_page(MappingId(m))
                );
            }
        }
        prop_assert_eq!(phys.report(), model_phys.report());
    }

    #[test]
    fn multi_heap_matches_btree_model(script in heap_ops()) {
        // The model: live allocations as `start -> (rounded size,
        // mapping)`, plus every block ever handed out (heaps are never
        // retired here, so an address keeps its heap's mapping after a
        // free).
        let mut m = MultiHeapMalloc::with_heap_bytes(12, 16 * 4096);
        let mut live: BTreeMap<u64, (u64, MappingId)> = BTreeMap::new();
        let mut freed: Vec<u64> = Vec::new();
        let mut ever: Vec<(u64, u64, MappingId)> = Vec::new();
        let (mut allocs, mut frees) = (0u64, 0u64);
        for op in script {
            let resolve = |a: &HeapAddr| -> VirtAddr {
                let nth = |pick: usize| live.iter().nth(pick % live.len().max(1));
                match *a {
                    HeapAddr::Live(pick) => VirtAddr(nth(pick).map_or(1 << 44, |(&s, _)| s)),
                    HeapAddr::Freed(pick) => {
                        VirtAddr(freed.get(pick % freed.len().max(1)).copied().unwrap_or(1 << 44))
                    }
                    HeapAddr::Interior(pick, off) => VirtAddr(
                        nth(pick).map_or((1 << 44) + off, |(&s, &(len, _))| s + 1 + off % (len - 1)),
                    ),
                    HeapAddr::Unknown(raw) => VirtAddr((1 << 44) - (1 << 12) + raw),
                }
            };
            match op {
                HeapOp::Malloc { mapping, size } => {
                    let id = MappingId(mapping);
                    let va = m.malloc(size, Some(id)).unwrap();
                    allocs += 1;
                    let len = size.div_ceil(16) * 16;
                    for (&s, &(l, _)) in &live {
                        prop_assert!(va.0 + len <= s || s + l <= va.0, "{} overlaps {:#x}", va, s);
                    }
                    prop_assert_eq!(m.size_of(va), Some(len));
                    prop_assert_eq!(m.mapping_of(va), Some(id));
                    live.insert(va.0, (len, id));
                    freed.retain(|&f| f != va.0);
                    ever.push((va.0, len, id));
                }
                HeapOp::Free(a) => {
                    let va = resolve(&a);
                    let got = m.free(va);
                    if live.remove(&va.0).is_some() {
                        prop_assert_eq!(got, Ok(()));
                        frees += 1;
                        freed.push(va.0);
                    } else {
                        // A bad free changes nothing: every live block
                        // still resolves, with its size and mapping.
                        prop_assert_eq!(got, Err(MemError::BadFree(va)));
                        for (&s, &(l, id)) in &live {
                            prop_assert_eq!(m.size_of(VirtAddr(s)), Some(l));
                            prop_assert_eq!(m.mapping_of(VirtAddr(s)), Some(id));
                        }
                    }
                }
                HeapOp::SizeOf(a) => {
                    let va = resolve(&a);
                    prop_assert_eq!(m.size_of(va), live.get(&va.0).map(|&(l, _)| l));
                }
                HeapOp::MappingOf(a) => {
                    let va = resolve(&a);
                    let owner = ever
                        .iter()
                        .find(|&&(s, l, _)| s <= va.0 && va.0 < s + l)
                        .map(|&(_, _, id)| id);
                    if let Some(id) = owner {
                        prop_assert_eq!(m.mapping_of(va), Some(id));
                    }
                }
            }
            for id in (0..4).map(MappingId) {
                let bytes: u64 = live.values().filter(|&&(_, o)| o == id).map(|&(l, _)| l).sum();
                prop_assert_eq!(m.live_bytes(id), bytes);
            }
            prop_assert_eq!(m.alloc_calls(), allocs);
            prop_assert_eq!(m.free_calls(), frees);
        }
        for &s in live.keys() {
            m.free(VirtAddr(s)).unwrap();
        }
        for id in (0..4).map(MappingId) {
            prop_assert_eq!(m.live_bytes(id), 0);
        }
    }
}
