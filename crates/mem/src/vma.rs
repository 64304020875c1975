//! Virtual memory areas, the page table, and demand paging.
//!
//! The paper threads the mapping id through `mmap()` into
//! `vm_area_struct` and moves chunk-based frame allocation into the
//! page-fault handler (§6.1). [`AddressSpace`] is that machinery: each
//! [`VmArea`] carries a [`MappingId`]; the first touch of a page faults
//! and pulls a frame from the right chunk group of the
//! [`ChunkAllocator`].

use std::collections::BTreeMap;

use sdam_mapping::{MappingId, PhysAddr};

use crate::phys::{ChunkAllocator, ChunkEvent};
use crate::{MemError, U64Map, VirtAddr};

/// Base of the mmap region (an arbitrary high canonical address).
const MMAP_BASE: u64 = 1 << 40;

/// One virtual memory area: a contiguous, page-aligned range with an
/// address-mapping id (the paper's extended `vm_area_struct`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VmArea {
    /// First address of the area.
    pub start: VirtAddr,
    /// Length in bytes (a multiple of the page size).
    pub len: u64,
    /// The address mapping every frame of this area must use.
    pub mapping: MappingId,
    /// True for guard-isolated (rowhammer-sensitive) areas: the fault
    /// handler pulls frames from guarded chunks.
    pub sensitive: bool,
}

impl VmArea {
    /// Last address of the area, exclusive.
    #[inline]
    pub fn end(&self) -> u64 {
        self.start.0 + self.len
    }

    /// True if the area contains `va`.
    #[inline]
    pub fn contains(&self, va: VirtAddr) -> bool {
        va.0 >= self.start.0 && va.0 < self.end()
    }
}

/// A process address space: VMAs plus a page table, with demand paging.
///
/// # Example
///
/// ```
/// use sdam_mapping::MappingId;
/// use sdam_mem::phys::ChunkAllocator;
/// use sdam_mem::vma::AddressSpace;
///
/// let mut phys = ChunkAllocator::new(30, 21, 12);
/// let mut aspace = AddressSpace::new(12);
/// let va = aspace.mmap(8192, MappingId(1))?;
/// assert_eq!(aspace.page_fault_count(), 0);
/// let pa = aspace.access(va, &mut phys)?; // demand-paged in
/// assert_eq!(aspace.page_fault_count(), 1);
/// assert_eq!(phys.mapping_of_frame(pa), Some(MappingId(1)));
/// # Ok::<(), sdam_mem::MemError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct AddressSpace {
    page_bits: u32,
    /// start → area.
    vmas: BTreeMap<u64, VmArea>,
    /// vpn → frame base address. Hashed: a lookup costs the same at
    /// any table size, and nothing needs the vpns in order except an
    /// unmap, which sorts the few it frees.
    page_table: U64Map<PhysAddr>,
    next_mmap: u64,
    page_faults: u64,
    pending_events: Vec<ChunkEvent>,
}

impl AddressSpace {
    /// Creates an empty address space with `2^page_bits`-byte pages.
    pub fn new(page_bits: u32) -> Self {
        AddressSpace {
            page_bits,
            next_mmap: MMAP_BASE,
            ..AddressSpace::default()
        }
    }

    /// Page size in bytes.
    #[inline]
    pub fn page_bytes(&self) -> u64 {
        1u64 << self.page_bits
    }

    /// Maps `len` bytes (rounded up to pages) with the given mapping id,
    /// at a kernel-chosen address. Pages are demand-paged: no frames are
    /// allocated until first touch.
    ///
    /// # Errors
    ///
    /// [`MemError::InvalidSize`] if `len` is zero.
    pub fn mmap(&mut self, len: u64, mapping: MappingId) -> Result<VirtAddr, MemError> {
        if len == 0 {
            return Err(MemError::InvalidSize { size: 0 });
        }
        let len = self.round_up(len);
        let start = self.next_mmap;
        // Leave a guard page between areas (catches linear overruns in
        // tests, like real mmap gaps do).
        self.next_mmap = start + len + self.page_bytes();
        let va = VirtAddr(start);
        self.insert_vma(VmArea {
            start: va,
            len,
            mapping,
            sensitive: false,
        })?;
        Ok(va)
    }

    /// Maps `[start, start + len)` (page-aligned) with the given mapping
    /// id, like `mmap(MAP_FIXED)`. Used to wire heap regions created by
    /// the virtual allocator to VMAs.
    ///
    /// # Errors
    ///
    /// [`MemError::InvalidSize`] for zero/unaligned requests;
    /// [`MemError::VirtualRangeUnavailable`] on overlap.
    pub fn mmap_fixed(
        &mut self,
        start: VirtAddr,
        len: u64,
        mapping: MappingId,
    ) -> Result<(), MemError> {
        self.mmap_fixed_with(start, len, mapping, false)
    }

    /// Like [`AddressSpace::mmap_fixed`] with a sensitivity flag:
    /// sensitive areas fault into guard-isolated chunks (the rowhammer
    /// extension of `sdam-mem`).
    ///
    /// # Errors
    ///
    /// As [`AddressSpace::mmap_fixed`].
    pub fn mmap_fixed_with(
        &mut self,
        start: VirtAddr,
        len: u64,
        mapping: MappingId,
        sensitive: bool,
    ) -> Result<(), MemError> {
        if len == 0
            || !start.0.is_multiple_of(self.page_bytes())
            || !len.is_multiple_of(self.page_bytes())
        {
            return Err(MemError::InvalidSize { size: len });
        }
        self.insert_vma(VmArea {
            start,
            len,
            mapping,
            sensitive,
        })
    }

    /// Unmaps the area starting at `start`, freeing its frames back to
    /// the physical allocator. Chunk-release events are queued for the
    /// CMT (see [`AddressSpace::drain_events`]).
    ///
    /// The cost is bounded by the resident page count, never by the
    /// area's length: a sparse area's pages are found by filtering the
    /// page table, a dense one's by probing its vpns. Either way they
    /// are freed in ascending vpn order: a chunk is released when its
    /// last page goes, so the order of the release events, and of the
    /// CMT writes that follow them, depends on it.
    ///
    /// # Errors
    ///
    /// [`MemError::BadAddress`] if no area starts at `start`.
    pub fn munmap(&mut self, start: VirtAddr, phys: &mut ChunkAllocator) -> Result<(), MemError> {
        let area = self
            .vmas
            .remove(&start.0)
            .ok_or(MemError::BadAddress(start))?;
        let first_vpn = area.start.vpn(self.page_bits);
        let pages = area.len >> self.page_bits;
        let vpns = first_vpn..first_vpn + pages;
        if pages <= self.page_table.len() as u64 {
            self.free_pages(vpns, phys)
        } else {
            let mut resident: Vec<u64> = self
                .page_table
                .keys()
                .copied()
                .filter(|vpn| vpns.contains(vpn))
                .collect();
            resident.sort_unstable();
            self.free_pages(resident, phys)
        }
    }

    /// Frees the resident pages among `vpns`, in the order given.
    fn free_pages(
        &mut self,
        vpns: impl IntoIterator<Item = u64>,
        phys: &mut ChunkAllocator,
    ) -> Result<(), MemError> {
        for vpn in vpns {
            if let Some(pa) = self.page_table.remove(&vpn) {
                if let Some(ev) = phys.free_block(pa)? {
                    self.pending_events.push(ev);
                }
            }
        }
        Ok(())
    }

    /// Unmaps every area, freeing all resident frames back to the
    /// physical allocator — process teardown in one call. Chunk-release
    /// events are queued exactly as [`AddressSpace::munmap`] queues
    /// them, so the caller forwards them to the CMT the same way.
    ///
    /// # Errors
    ///
    /// Propagates allocator errors; the page table is consistent up to
    /// the failing frame (each page is freed at most once).
    pub fn clear(&mut self, phys: &mut ChunkAllocator) -> Result<(), MemError> {
        // Areas are disjoint, so ascending vpn order over every resident
        // page is the order area-by-area `munmap` frees them in.
        let mut resident: Vec<u64> = self.page_table.keys().copied().collect();
        resident.sort_unstable();
        self.free_pages(resident, phys)?;
        self.vmas.clear();
        Ok(())
    }

    /// Translates without faulting.
    pub fn translate(&self, va: VirtAddr) -> Option<PhysAddr> {
        let pa = self.page_table.get(&va.vpn(self.page_bits))?;
        Some(PhysAddr(pa.raw() | va.page_offset(self.page_bits)))
    }

    /// Accesses `va`: translates, demand-paging the frame in on first
    /// touch (the paper's modified page-fault handler).
    ///
    /// # Errors
    ///
    /// [`MemError::BadAddress`] outside any VMA;
    /// [`MemError::OutOfPhysicalMemory`] if the fault cannot be served.
    pub fn access(
        &mut self,
        va: VirtAddr,
        phys: &mut ChunkAllocator,
    ) -> Result<PhysAddr, MemError> {
        if let Some(pa) = self.translate(va) {
            return Ok(pa);
        }
        let area = self.area_containing(va).ok_or(MemError::BadAddress(va))?;
        let mapping = area.mapping;
        self.page_faults += 1;
        let alloc = if area.sensitive {
            phys.alloc_block_sensitive(mapping, 0)?
        } else {
            phys.alloc_page(mapping)?
        };
        if let Some(ev) = alloc.event {
            self.pending_events.push(ev);
        }
        self.page_table.insert(va.vpn(self.page_bits), alloc.pa);
        Ok(PhysAddr(alloc.pa.raw() | va.page_offset(self.page_bits)))
    }

    /// The VMA containing `va`, if any.
    pub(crate) fn area_containing(&self, va: VirtAddr) -> Option<VmArea> {
        let (_, area) = self.vmas.range(..=va.0).next_back()?;
        area.contains(va).then_some(*area)
    }

    /// All areas, ordered by start address.
    pub fn areas(&self) -> impl Iterator<Item = &VmArea> {
        self.vmas.values()
    }

    /// Number of demand-paging faults taken so far.
    #[inline]
    pub fn page_fault_count(&self) -> u64 {
        self.page_faults
    }

    /// Number of resident (mapped) pages.
    pub fn resident_pages(&self) -> u64 {
        self.page_table.len() as u64
    }

    /// Drains queued chunk acquire/release events for the CMT.
    pub fn drain_events(&mut self) -> Vec<ChunkEvent> {
        std::mem::take(&mut self.pending_events)
    }

    fn round_up(&self, len: u64) -> u64 {
        let p = self.page_bytes();
        len.div_ceil(p) * p
    }

    fn insert_vma(&mut self, area: VmArea) -> Result<(), MemError> {
        // Overlap check against neighbours.
        if let Some((_, prev)) = self.vmas.range(..=area.start.0).next_back() {
            if prev.end() > area.start.0 {
                return Err(MemError::VirtualRangeUnavailable { at: area.start });
            }
        }
        if let Some((&next_start, _)) = self.vmas.range(area.start.0..).next() {
            if area.end() > next_start {
                return Err(MemError::VirtualRangeUnavailable { at: area.start });
            }
        }
        self.vmas.insert(area.start.0, area);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (AddressSpace, ChunkAllocator) {
        (AddressSpace::new(12), ChunkAllocator::new(26, 21, 12))
    }

    #[test]
    fn mmap_rounds_to_pages_and_separates_areas() {
        let (mut a, _) = setup();
        let v1 = a.mmap(100, MappingId(1)).unwrap();
        let v2 = a.mmap(100, MappingId(2)).unwrap();
        assert_eq!(a.area_containing(v1).unwrap().len, 4096);
        assert!(v2.0 >= v1.0 + 4096);
    }

    #[test]
    fn demand_paging_allocates_on_first_touch_only() {
        let (mut a, mut p) = setup();
        let va = a.mmap(3 * 4096, MappingId(1)).unwrap();
        assert_eq!(p.allocated_pages(), 0);
        let pa1 = a.access(va, &mut p).unwrap();
        let pa1_again = a.access(va, &mut p).unwrap();
        assert_eq!(pa1, pa1_again);
        assert_eq!(a.page_fault_count(), 1);
        // Different page → different frame.
        let pa2 = a.access(VirtAddr(va.0 + 4096), &mut p).unwrap();
        assert_ne!(pa1.raw() >> 12, pa2.raw() >> 12);
        assert_eq!(a.page_fault_count(), 2);
        assert_eq!(p.allocated_pages(), 2);
    }

    #[test]
    fn page_offset_preserved_in_translation() {
        let (mut a, mut p) = setup();
        let va = a.mmap(4096, MappingId(1)).unwrap();
        let pa = a.access(VirtAddr(va.0 + 123), &mut p).unwrap();
        assert_eq!(pa.raw() & 0xfff, 123);
        assert_eq!(
            a.translate(VirtAddr(va.0 + 200)).unwrap().raw() & 0xfff,
            200
        );
    }

    #[test]
    fn faults_respect_vma_mapping_id() {
        let (mut a, mut p) = setup();
        let v1 = a.mmap(4096, MappingId(1)).unwrap();
        let v2 = a.mmap(4096, MappingId(2)).unwrap();
        let pa1 = a.access(v1, &mut p).unwrap();
        let pa2 = a.access(v2, &mut p).unwrap();
        assert_eq!(p.mapping_of_frame(pa1), Some(MappingId(1)));
        assert_eq!(p.mapping_of_frame(pa2), Some(MappingId(2)));
    }

    #[test]
    fn access_outside_vma_faults_hard() {
        let (mut a, mut p) = setup();
        let va = a.mmap(4096, MappingId(1)).unwrap();
        let err = a.access(VirtAddr(va.0 + 4096), &mut p).unwrap_err();
        assert!(matches!(err, MemError::BadAddress(_)));
        assert!(a.access(VirtAddr(12), &mut p).is_err());
    }

    #[test]
    fn munmap_frees_frames_and_emits_events() {
        let (mut a, mut p) = setup();
        let va = a.mmap(4 * 4096, MappingId(1)).unwrap();
        for i in 0..4u64 {
            a.access(VirtAddr(va.0 + i * 4096), &mut p).unwrap();
        }
        let acquired = a.drain_events();
        assert_eq!(acquired.len(), 1, "one chunk acquisition");
        a.munmap(va, &mut p).unwrap();
        assert_eq!(p.allocated_pages(), 0);
        let released = a.drain_events();
        assert_eq!(released.len(), 1, "chunk released when empty");
        assert!(a.translate(va).is_none());
        assert!(a.munmap(va, &mut p).is_err(), "double munmap");
    }

    #[test]
    fn mmap_fixed_rejects_overlap_and_misalignment() {
        let (mut a, _) = setup();
        a.mmap_fixed(VirtAddr(1 << 30), 8192, MappingId(1)).unwrap();
        let err = a
            .mmap_fixed(VirtAddr((1 << 30) + 4096), 4096, MappingId(2))
            .unwrap_err();
        assert!(matches!(err, MemError::VirtualRangeUnavailable { .. }));
        assert!(a.mmap_fixed(VirtAddr(123), 4096, MappingId(1)).is_err());
        assert!(a.mmap_fixed(VirtAddr(0), 100, MappingId(1)).is_err());
    }

    #[test]
    fn sensitive_vma_faults_into_guarded_chunks() {
        let (mut a, mut p) = setup();
        a.mmap_fixed_with(VirtAddr(1 << 30), 4096, MappingId(1), true)
            .unwrap();
        let pa = a.access(VirtAddr(1 << 30), &mut p).unwrap();
        let chunk = pa.chunk_number(21);
        assert!(
            p.is_guard_chunk(chunk + 1) || chunk > 0 && p.is_guard_chunk(chunk - 1),
            "no guard chunk around the sensitive frame"
        );
    }

    #[test]
    fn zero_length_mmap_rejected() {
        let (mut a, _) = setup();
        assert!(matches!(
            a.mmap(0, MappingId(1)),
            Err(MemError::InvalidSize { size: 0 })
        ));
    }

    #[test]
    fn sparse_unmap_releases_in_ascending_vpn_order() {
        // Two-page chunks, each shared by one page of the 1 GiB area and
        // one filler page. Once the fillers are gone, every page the
        // area frees empties its own chunk, so the release events spell
        // out the free order.
        let mut a = AddressSpace::new(12);
        let mut p = ChunkAllocator::new(26, 13, 12);
        let start = 1u64 << 32;
        a.mmap_fixed(VirtAddr(start), 1 << 30, MappingId(1))
            .unwrap();
        let filler = a.mmap(3 * 4096, MappingId(1)).unwrap();
        let mut chunk_of = BTreeMap::new();
        for (i, page) in [200_000u64, 7, 131_071].into_iter().enumerate() {
            let pa = a.access(VirtAddr(start + (page << 12)), &mut p).unwrap();
            chunk_of.insert(page, pa.chunk_number(13));
            a.access(VirtAddr(filler.0 + i as u64 * 4096), &mut p)
                .unwrap();
        }
        a.munmap(filler, &mut p).unwrap();
        a.drain_events();
        a.munmap(VirtAddr(start), &mut p).unwrap();
        let ascending: Vec<ChunkEvent> = chunk_of
            .values()
            .map(|&chunk| ChunkEvent::Released { chunk })
            .collect();
        assert_eq!(a.drain_events(), ascending);
        assert_eq!(a.resident_pages(), 0);
        assert_eq!(p.allocated_pages(), 0);
    }

    #[test]
    fn clear_releases_every_frame_and_queues_events() {
        let (mut a, mut p) = setup();
        let free_before = p.free_chunk_count();
        let v1 = a.mmap(4 * 4096, MappingId(1)).unwrap();
        let v2 = a.mmap(4 * 4096, MappingId(2)).unwrap();
        for off in [0u64, 4096, 2 * 4096] {
            a.access(VirtAddr(v1.0 + off), &mut p).unwrap();
            a.access(VirtAddr(v2.0 + off), &mut p).unwrap();
        }
        a.drain_events();
        a.clear(&mut p).unwrap();
        assert_eq!(a.resident_pages(), 0);
        assert_eq!(a.areas().count(), 0);
        assert_eq!(p.free_chunk_count(), free_before, "chunks leaked");
        // Both mappings' chunks were released and the events queued.
        let released = a
            .drain_events()
            .iter()
            .filter(|e| matches!(e, crate::phys::ChunkEvent::Released { .. }))
            .count();
        assert_eq!(released, 2);
        // A cleared space accepts fresh mappings.
        assert!(a.mmap(4096, MappingId(1)).is_ok());
    }
}
