//! [`SdamSystem`]: the OS + hardware object a program allocates through.
//!
//! This is the library's main user-facing type. It owns the chunk-based
//! physical allocator, the hardware CMT, and per process an address
//! space and a multi-heap malloc, and keeps them consistent: registering
//! a mapping writes it into the CMT, the one authority on which ids
//! exist; a process joins an id's users on its first allocation or
//! `mmap` under it (malloc keys heaps by id and keeps no registry); a
//! page fault pulls a frame from the right chunk group and, when a
//! fresh chunk is acquired, writes its entry into the CMT.

use sdam_hbm::{DecodedAddr, Geometry};
use sdam_mapping::cmt::MAX_MAPPINGS;
use sdam_mapping::{BitPermutation, Cmt, MappingId, PhysAddr};
use sdam_mem::heap::MultiHeapMalloc;
use sdam_mem::phys::{ChunkAllocator, ChunkEvent};
use sdam_mem::vma::AddressSpace;
use sdam_mem::{MemError, VirtAddr};
use sdam_obs::{EventRing, Registry};

use crate::error::SdamError;

/// Identifies a process sharing the system's physical memory and CMT.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ProcessId(pub u32);

impl std::fmt::Display for ProcessId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pid{}", self.0)
    }
}

#[derive(Debug)]
struct Process {
    aspace: AddressSpace,
    malloc: MultiHeapMalloc,
    /// The non-default mapping ids this process has joined, ascending:
    /// `id ∈ mappings` exactly when the pid is in `users[id]`.
    mappings: Vec<MappingId>,
}

impl Process {
    fn new(page_bits: u32) -> Self {
        Process {
            aspace: AddressSpace::new(page_bits),
            malloc: MultiHeapMalloc::new(page_bits),
            mappings: Vec::new(),
        }
    }
}

/// Monotonic counters of processes that have already exited, folded in
/// at teardown so `export_into` stays conservation-safe (a process
/// exiting never makes a `mem.*` accumulator go backwards).
#[derive(Debug, Default)]
struct RetiredCounters {
    page_faults: u64,
    alloc_calls: u64,
    free_calls: u64,
    heaps_created: u64,
    processes_exited: u64,
}

/// The software-defined-address-mapping system: shared physical
/// memory, chunk groups, and CMT, plus one or more processes each with
/// its own address space and mapping-aware heap allocator. Every
/// per-process operation names its [`ProcessId`]; the primordial
/// process is `ProcessId(0)`.
///
/// # Example
///
/// ```
/// use sdam::{ProcessId, SdamSystem};
/// use sdam_hbm::Geometry;
///
/// let geom = Geometry::hbm2_8gb();
/// let mut sys = SdamSystem::try_new(geom, 21)?;
/// let pid = ProcessId(0);
///
/// // Register a mapping tuned for a stride-16 structure.
/// let perm = sys.permutation_for_stride(16);
/// let id = sys.add_mapping(&perm)?;
///
/// // Allocate the structure under that mapping and touch it.
/// let va = sys.malloc_in(pid, 1 << 20, Some(id))?;
/// let coords = sys.access_in(pid, va)?;
/// assert!(coords.channel < geom.num_channels() as u64);
/// # Ok::<(), sdam::SdamError>(())
/// ```
#[derive(Debug)]
pub struct SdamSystem {
    geometry: Geometry,
    phys: ChunkAllocator,
    /// Slot table: `None` marks an exited process whose pid is on
    /// `free_pids` awaiting reuse, so long tenant churn keeps the table
    /// (and every per-pid lookup) bounded by the peak live count.
    processes: Vec<Option<Process>>,
    /// Pids of exited processes, reused LIFO by `spawn_process`.
    free_pids: Vec<u32>,
    cmt: Cmt,
    page_bits: u32,
    /// Per-mapping user lists, indexed by id: the pids, ascending, that
    /// have joined the id. `pid ∈ users[id]` exactly when the process is
    /// live and `id` is in its `mappings` (never the default mapping) —
    /// so retiring a mapping visits only the processes that used it.
    users: Vec<Vec<u32>>,
    retired: RetiredCounters,
    /// Structured allocation/CMT event trace. All pushes happen on the
    /// system's serial mutation paths (`malloc_in`, `touch_in`), so the
    /// order is deterministic by construction.
    events: EventRing,
}

impl SdamSystem {
    /// Builds a system over `geometry` with `2^chunk_bits`-byte chunks
    /// and 4 KB pages. The system starts with one live process, the
    /// primordial `ProcessId(0)`; [`SdamSystem::spawn_process`] adds
    /// more.
    ///
    /// # Errors
    ///
    /// [`SdamError::Cmt`] if the chunk size does not fit between a page
    /// and the device capacity (or exceeds the CMT's crossbar window).
    pub fn try_new(geometry: Geometry, chunk_bits: u32) -> Result<Self, SdamError> {
        let page_bits = 12;
        // The CMT's window check subsumes the allocator's (page < chunk
        // < memory), so validate through it before any construction.
        let cmt = Cmt::try_new(geometry.addr_bits(), chunk_bits)?;
        if chunk_bits <= page_bits {
            return Err(SdamError::Cmt(sdam_mapping::CmtError::InvalidChunkBits {
                chunk_bits,
                phys_bits: geometry.addr_bits(),
            }));
        }
        Ok(SdamSystem {
            geometry,
            phys: ChunkAllocator::new(geometry.addr_bits(), chunk_bits, page_bits),
            processes: vec![Some(Process::new(page_bits))],
            free_pids: Vec::new(),
            cmt,
            page_bits,
            users: vec![Vec::new(); MAX_MAPPINGS],
            retired: RetiredCounters::default(),
            events: EventRing::default(),
        })
    }

    /// Spawns a new process: a fresh address space and heap allocator
    /// that share this system's physical memory, chunk groups, and CMT
    /// (the paper's §4: "the physical memory space ... is globally
    /// shared by all the processes"). Every registered mapping is
    /// visible in the new process; it joins a mapping's heaps on its
    /// first allocation or `mmap` under it. Pids of exited processes
    /// are reused (LIFO), so the process table stays bounded by the
    /// peak live count under tenant churn.
    pub fn spawn_process(&mut self) -> ProcessId {
        let process = Process::new(self.page_bits);
        let pid = if let Some(pid) = self.free_pids.pop() {
            self.processes[pid as usize] = Some(process);
            pid
        } else {
            self.processes.push(Some(process));
            self.processes.len() as u32 - 1
        };
        ProcessId(pid)
    }

    /// Tears a process down: every VMA is unmapped, all resident frames
    /// return to their chunk groups (emptied chunks go back to the
    /// global free list and the CMT reverts them to the default
    /// mapping), and the pid becomes reusable by
    /// [`SdamSystem::spawn_process`]. The process's monotonic counters
    /// fold into the system totals, so `mem.*` accumulators never move
    /// backwards across an exit.
    ///
    /// # Errors
    ///
    /// [`MemError::UnknownProcess`] for a pid that was never spawned or
    /// has already exited.
    pub fn exit_process(&mut self, pid: ProcessId) -> Result<(), MemError> {
        let Some(Some(p)) = self.processes.get_mut(pid.0 as usize) else {
            return Err(MemError::UnknownProcess { pid: pid.0 });
        };
        p.aspace.clear(&mut self.phys)?;
        self.sync_cmt(pid)?;
        let Some(Some(p)) = self.processes.get_mut(pid.0 as usize) else {
            return Err(MemError::UnknownProcess { pid: pid.0 });
        };
        self.retired.page_faults += p.aspace.page_fault_count();
        self.retired.alloc_calls += p.malloc.alloc_calls();
        self.retired.free_calls += p.malloc.free_calls();
        self.retired.heaps_created += p.malloc.heaps_created();
        self.retired.processes_exited += 1;
        for &id in &p.mappings {
            let users = &mut self.users[id.0 as usize];
            if let Ok(at) = users.binary_search(&pid.0) {
                users.remove(at);
            }
        }
        self.processes[pid.0 as usize] = None;
        self.free_pids.push(pid.0);
        self.events
            .push("sys.process_exit", &[("pid", u64::from(pid.0))]);
        Ok(())
    }

    /// Number of live processes.
    pub fn process_count(&self) -> usize {
        self.processes.len() - self.free_pids.len()
    }

    /// Processes that have exited over the system's lifetime.
    pub fn processes_exited(&self) -> u64 {
        self.retired.processes_exited
    }

    /// The device geometry.
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// The hardware chunk-mapping table (read-only view).
    pub fn cmt(&self) -> &Cmt {
        &self.cmt
    }

    /// Borrows the CMT for use as a
    /// [`sdam_sys::MappingEngine::Chunked`] engine (cloned, as the
    /// hardware holds its own copy of the table).
    pub fn cmt_snapshot(&self) -> Cmt {
        self.cmt.clone()
    }

    /// The chunk-offset permutation a known stride wants — convenience
    /// wrapper over [`sdam_mapping::select`] windowed to this system's
    /// chunk size.
    pub fn permutation_for_stride(&self, stride_lines: u64) -> BitPermutation {
        let addrs = (0..4096u64).map(|i| i * stride_lines * 64);
        let bfrv = sdam_mapping::BitFlipRateVector::from_addrs(addrs, self.geometry.addr_bits());
        sdam_mapping::select::permutation_for_bfrv_windowed(
            &bfrv,
            self.geometry,
            self.cmt.chunk_bits(),
        )
    }

    /// Registers a new address mapping (the paper's `add_addr_map()`)
    /// in the hardware CMT, which every process shares.
    ///
    /// # Errors
    ///
    /// [`MemError::MappingIdsExhausted`] after 255 registrations.
    ///
    /// # Panics
    ///
    /// Panics if the permutation window is not this system's chunk
    /// offset (`[6, chunk_bits)`).
    pub fn add_mapping(&mut self, perm: &BitPermutation) -> Result<MappingId, MemError> {
        match self.try_add_mapping(perm) {
            Ok(id) => Ok(id),
            Err(SdamError::Mem(e)) => Err(e),
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible twin of [`SdamSystem::add_mapping`] — a wrong
    /// permutation window comes back as [`SdamError::Cmt`] instead of a
    /// panic.
    ///
    /// # Errors
    ///
    /// [`SdamError::Mem`] ([`MemError::MappingIdsExhausted`]) after 255
    /// registrations; [`SdamError::Cmt`] for a permutation that does not
    /// cover this system's chunk offset.
    pub fn try_add_mapping(&mut self, perm: &BitPermutation) -> Result<MappingId, SdamError> {
        // Check the window before consuming a global id.
        if perm.lo() != 6 || perm.len() as u32 != self.cmt.chunk_bits() - 6 {
            return Err(SdamError::Cmt(sdam_mapping::CmtError::WrongWindow {
                lo: perm.lo(),
                len: perm.len() as u32,
                chunk_bits: self.cmt.chunk_bits(),
            }));
        }
        // Ids are global: the CMT is shared by every process, so the
        // CMT's recycling free list is the single id authority. Ids
        // released by `remove_mapping` are reused in O(1).
        let id = self
            .cmt
            .allocate_id()
            .map_err(|_| SdamError::Mem(MemError::MappingIdsExhausted))?;
        self.cmt.try_register(id, perm)?;
        Ok(id)
    }

    /// Removes a mapping registered with [`SdamSystem::add_mapping`],
    /// recycling its id: the mapping's (empty) heaps are unmapped and
    /// retired in every process that used it, its chunk group drains
    /// back to the free list, and the CMT slot is unregistered — after
    /// which [`SdamSystem::add_mapping`] reuses the id for the next
    /// tenant. Only the mapping's users are visited, in ascending pid
    /// order, so the cost does not grow with the process table.
    ///
    /// # Errors
    ///
    /// [`MemError::UnknownMapping`] for the default id or one never
    /// registered; [`MemError::MappingInUse`] while any process still
    /// holds live allocations under the mapping or chunks remain
    /// assigned to it (free the allocations and unmap the heaps first —
    /// [`SdamSystem::exit_process`] does both for a whole tenant).
    pub fn remove_mapping(&mut self, id: MappingId) -> Result<(), MemError> {
        let slot = id.0 as usize;
        if id == MappingId::DEFAULT || !self.cmt.is_registered(id) {
            return Err(MemError::UnknownMapping(id));
        }
        // Pre-check every user before mutating any, so a failure leaves
        // the system untouched.
        for &pid in &self.users[slot] {
            if let Some(Some(p)) = self.processes.get(pid as usize) {
                if p.malloc.live_bytes(id) > 0 {
                    return Err(MemError::MappingInUse(id));
                }
            }
        }
        // Unmap the mapping's (allocation-free) heap and mmap VMAs so
        // resident pages of freed allocations release their chunks.
        // Users are visited in ascending pid order, which fixes the
        // order chunks return to the free list.
        for k in 0..self.users[slot].len() {
            let pid = self.users[slot][k];
            let Some(Some(p)) = self.processes.get_mut(pid as usize) else {
                continue;
            };
            let starts: Vec<VirtAddr> = p
                .aspace
                .areas()
                .filter(|a| a.mapping == id)
                .map(|a| a.start)
                .collect();
            for start in starts {
                p.aspace.munmap(start, &mut self.phys)?;
            }
            self.sync_cmt(ProcessId(pid))?;
        }
        // All chunks drained: the CMT slot can retire and recycle.
        self.cmt.unregister(id).map_err(|e| match e {
            sdam_mapping::CmtError::MappingInUse { id, .. } => MemError::MappingInUse(id),
            _ => MemError::UnknownMapping(id),
        })?;
        // Retire the users' empty heaps; the pre-check above guarantees
        // each of them holds no live bytes under `id`.
        for pid in self.users[slot].drain(..) {
            if let Some(Some(p)) = self.processes.get_mut(pid as usize) {
                p.malloc.retire_mapping(id)?;
                p.mappings.retain(|&m| m != id);
            }
        }
        self.events
            .push("sys.mapping_removed", &[("mapping", u64::from(id.0))]);
        Ok(())
    }

    /// Looks up a process, rejecting pids this system never handed out
    /// and pids whose process has exited.
    fn process_mut(&mut self, pid: ProcessId) -> Result<&mut Process, MemError> {
        self.process_using(pid, None)
    }

    /// [`SdamSystem::process_mut`] for a process about to use `mapping`:
    /// an id the CMT has not registered is rejected, and on the
    /// process's first use of a non-default id the process joins the
    /// id's user list.
    fn process_using(
        &mut self,
        pid: ProcessId,
        mapping: Option<MappingId>,
    ) -> Result<&mut Process, MemError> {
        if let Some(id) = mapping.filter(|&id| !self.cmt.is_registered(id)) {
            return Err(MemError::UnknownMapping(id));
        }
        let p = self
            .processes
            .get_mut(pid.0 as usize)
            .and_then(Option::as_mut)
            .ok_or(MemError::UnknownProcess { pid: pid.0 })?;
        if let Some(id) = mapping.filter(|&id| id != MappingId::DEFAULT) {
            if let Err(at) = p.mappings.binary_search(&id) {
                p.mappings.insert(at, id);
                let users = &mut self.users[id.0 as usize];
                if let Err(at) = users.binary_search(&pid.0) {
                    users.insert(at, pid.0);
                }
            }
        }
        Ok(p)
    }

    /// Allocates `size` bytes in process `pid` under `mapping` (default
    /// mapping when `None`), wiring any newly created heap to a VMA.
    ///
    /// # Errors
    ///
    /// [`MemError::UnknownMapping`] for a mapping the CMT has not
    /// registered; [`MemError::UnknownProcess`] for a pid this system
    /// never returned or whose process has exited; allocator errors
    /// ([`MemError::InvalidSize`]).
    pub fn malloc_in(
        &mut self,
        pid: ProcessId,
        size: u64,
        mapping: Option<MappingId>,
    ) -> Result<VirtAddr, MemError> {
        self.malloc_with(pid, size, mapping, false)
    }

    /// Allocates guard-isolated (rowhammer-sensitive) memory in process
    /// `pid`: the chunks backing it get free guard chunks on both
    /// physical sides, so no other security domain can hammer adjacent
    /// rows — the paper's §4 extension, end to end.
    ///
    /// # Errors
    ///
    /// As [`SdamSystem::malloc_in`], plus
    /// [`MemError::OutOfPhysicalMemory`] when no isolated chunk exists.
    pub fn malloc_sensitive_in(
        &mut self,
        pid: ProcessId,
        size: u64,
        mapping: Option<MappingId>,
    ) -> Result<VirtAddr, MemError> {
        self.malloc_with(pid, size, mapping, true)
    }

    /// The body of [`SdamSystem::malloc_in`] and
    /// [`SdamSystem::malloc_sensitive_in`]: allocate, then map every
    /// heap the allocation created with its sensitivity.
    fn malloc_with(
        &mut self,
        pid: ProcessId,
        size: u64,
        mapping: Option<MappingId>,
        sensitive: bool,
    ) -> Result<VirtAddr, MemError> {
        let p = self.process_using(pid, mapping)?;
        let va = if sensitive {
            p.malloc.malloc_sensitive(size, mapping)?
        } else {
            p.malloc.malloc(size, mapping)?
        };
        let regions = p.malloc.drain_new_heaps();
        for region in &regions {
            p.aspace
                .mmap_fixed_with(region.start, region.len, region.mapping, region.sensitive)?;
        }
        self.trace_heap_growth(pid, &regions);
        Ok(va)
    }

    /// Records one `mem.heap_grow` event per freshly mapped heap
    /// region.
    fn trace_heap_growth(&mut self, pid: ProcessId, regions: &[sdam_mem::heap::HeapRegion]) {
        for region in regions {
            self.events.push(
                "mem.heap_grow",
                &[
                    ("pid", u64::from(pid.0)),
                    ("start", region.start.raw()),
                    ("len", region.len),
                    ("mapping", u64::from(region.mapping.0)),
                ],
            );
        }
    }

    /// Migrates an allocation of process `pid` to a different address
    /// mapping — the dynamic-adaptation path the paper sketches
    /// ("reconfigure free memory into the desired mapping", §4).
    /// Because a chunk's PA→HA function changes, the data must
    /// physically move: the allocation is reallocated under
    /// `new_mapping` and every resident page is copied (modeled as a
    /// fault of the destination page).
    ///
    /// Returns the new virtual address and the number of pages moved —
    /// the cost a runtime would weigh against the expected CLP gain.
    ///
    /// # Errors
    ///
    /// [`MemError::BadAddress`] if `va` is not a live allocation start;
    /// allocator errors for the new allocation; paging errors (e.g.
    /// [`MemError::OutOfPhysicalMemory`]) from the copy, after which
    /// `va` is still live and the new allocation is freed.
    pub fn remap_in(
        &mut self,
        pid: ProcessId,
        va: VirtAddr,
        new_mapping: MappingId,
    ) -> Result<(VirtAddr, u64), MemError> {
        let size = self
            .process_mut(pid)?
            .malloc
            .size_of(va)
            .ok_or(MemError::BadAddress(va))?;
        let new_va = self.malloc_in(pid, size, Some(new_mapping))?;
        let copied = self.copy_resident_pages(pid, va, new_va, size);
        // On failure the caller still owns `va`, so the half-copied
        // destination goes instead: left live, it would pin `new_mapping`.
        self.free_in(pid, if copied.is_ok() { va } else { new_va })?;
        Ok((new_va, copied?))
    }

    /// The copy step of [`SdamSystem::remap_in`]: each resident source
    /// page faults in (and therefore "receives") its destination page.
    /// Returns the number of pages moved.
    fn copy_resident_pages(
        &mut self,
        pid: ProcessId,
        va: VirtAddr,
        new_va: VirtAddr,
        size: u64,
    ) -> Result<u64, MemError> {
        let page = self.page_bytes();
        let mut moved = 0u64;
        let mut off = 0u64;
        while off < size {
            let src_resident = self
                .process_mut(pid)?
                .aspace
                .translate(VirtAddr(va.raw() + off))
                .is_some();
            if src_resident {
                self.touch_in(pid, VirtAddr(new_va.raw() + off))?;
                moved += 1;
            }
            off += page;
        }
        Ok(moved)
    }

    /// Frees an allocation made in process `pid` with
    /// [`SdamSystem::malloc_in`] or [`SdamSystem::malloc_sensitive_in`].
    ///
    /// # Errors
    ///
    /// [`MemError::BadFree`] for invalid pointers, plus
    /// [`MemError::UnknownProcess`] for a pid this system never
    /// returned.
    pub fn free_in(&mut self, pid: ProcessId, va: VirtAddr) -> Result<(), MemError> {
        self.process_mut(pid)?.malloc.free(va)
    }

    /// Maps an anonymous region of `len` bytes under `mapping` in a
    /// specific process (the raw `mmap` path, below malloc). Pages are
    /// demand-paged on first touch, exactly like heap pages.
    ///
    /// # Errors
    ///
    /// [`MemError::UnknownMapping`] for an unregistered mapping,
    /// [`MemError::InvalidSize`] for zero length, plus
    /// [`MemError::UnknownProcess`].
    pub fn mmap_in(
        &mut self,
        pid: ProcessId,
        len: u64,
        mapping: MappingId,
    ) -> Result<VirtAddr, MemError> {
        self.process_using(pid, Some(mapping))?
            .aspace
            .mmap(len, mapping)
    }

    /// Unmaps the area starting at `start` in a specific process,
    /// releasing resident frames (and emptied chunks) immediately.
    ///
    /// # Errors
    ///
    /// [`MemError::BadAddress`] if no area starts there, plus
    /// [`MemError::UnknownProcess`].
    pub fn munmap_in(&mut self, pid: ProcessId, start: VirtAddr) -> Result<(), MemError> {
        let Some(Some(p)) = self.processes.get_mut(pid.0 as usize) else {
            return Err(MemError::UnknownProcess { pid: pid.0 });
        };
        p.aspace.munmap(start, &mut self.phys)?;
        self.sync_cmt(pid)
    }

    /// Translates a virtual address of process `pid` to a physical
    /// address, demand-paging on first touch and forwarding chunk
    /// events to the CMT.
    ///
    /// # Errors
    ///
    /// [`MemError::BadAddress`] outside any allocation,
    /// [`MemError::OutOfPhysicalMemory`] when memory is exhausted, plus
    /// [`MemError::UnknownProcess`] for a pid this system never
    /// returned.
    pub fn touch_in(&mut self, pid: ProcessId, va: VirtAddr) -> Result<PhysAddr, MemError> {
        let Some(Some(p)) = self.processes.get_mut(pid.0 as usize) else {
            return Err(MemError::UnknownProcess { pid: pid.0 });
        };
        let pa = p.aspace.access(va, &mut self.phys)?;
        self.sync_cmt(pid)?;
        Ok(pa)
    }

    /// Drains a process's queued chunk events into the CMT — shared by
    /// every path that can acquire or release chunks (faults, unmaps,
    /// process exit, mapping removal).
    fn sync_cmt(&mut self, pid: ProcessId) -> Result<(), MemError> {
        let Some(Some(p)) = self.processes.get_mut(pid.0 as usize) else {
            return Err(MemError::UnknownProcess { pid: pid.0 });
        };
        for ev in p.aspace.drain_events() {
            // The allocation paths admit only registered mappings, so the
            // CMT writes cannot fail; surface a failure as the mapping
            // being unknown rather than panicking.
            match ev {
                ChunkEvent::Acquired { chunk, mapping } => {
                    self.cmt
                        .assign_chunk(chunk, mapping)
                        .map_err(|_| MemError::UnknownMapping(mapping))?;
                    self.events.push(
                        "cmt.assign_chunk",
                        &[("chunk", chunk), ("mapping", u64::from(mapping.0))],
                    );
                }
                ChunkEvent::Released { chunk } => {
                    // Back to the default mapping; the chunk is free.
                    self.cmt
                        .assign_chunk(chunk, MappingId::DEFAULT)
                        .map_err(|_| MemError::UnknownMapping(MappingId::DEFAULT))?;
                    self.events.push("cmt.release_chunk", &[("chunk", chunk)]);
                }
            }
        }
        Ok(())
    }

    /// Full translation of a virtual address of process `pid`:
    /// VA → PA → HA → device coordinates.
    ///
    /// # Errors
    ///
    /// As [`SdamSystem::touch_in`].
    pub fn access_in(&mut self, pid: ProcessId, va: VirtAddr) -> Result<DecodedAddr, MemError> {
        let pa = self.touch_in(pid, va)?;
        Ok(self.geometry.decode(self.cmt.translate(pa)))
    }

    /// Demand-paging fault count so far (live processes plus every
    /// process that has exited).
    pub fn page_faults(&self) -> u64 {
        self.retired.page_faults
            + self
                .processes
                .iter()
                .flatten()
                .map(|p| p.aspace.page_fault_count())
                .sum::<u64>()
    }

    /// Fragmentation read straight off the flat allocator columns:
    /// free-list length, longest contiguous free run, guard count, and
    /// stranded pages (internal fragmentation, paper §4's bound).
    pub fn fragmentation_stats(&self) -> sdam_mem::phys::FragmentationStats {
        self.phys.fragmentation_stats()
    }

    /// Chunks ever claimed from the global free list.
    pub fn chunks_claimed(&self) -> u64 {
        self.phys.chunks_claimed()
    }

    /// Chunks ever released back to the global free list.
    pub fn chunks_released(&self) -> u64 {
        self.phys.chunks_released()
    }

    /// Chunks currently held by some chunk group. The conservation
    /// identity `chunks_claimed() - chunks_released() == in_use_chunks()`
    /// holds at all times.
    pub fn in_use_chunks(&self) -> u64 {
        self.phys.in_use_chunks()
    }

    /// Page size in bytes.
    pub fn page_bytes(&self) -> u64 {
        1u64 << self.page_bits
    }

    /// The allocation/CMT event trace recorded so far.
    pub fn events(&self) -> &EventRing {
        &self.events
    }

    /// Merges this system's `mem.*` accumulators — chunk allocator,
    /// every process's malloc, demand-paging faults — and its event
    /// trace into `reg`. Processes fold in spawn order, so the export
    /// is deterministic regardless of how the *machine* side of the
    /// run was parallelized (allocation itself is always serial).
    pub fn export_into(&self, reg: &mut Registry) {
        self.phys.export_into(reg);
        for p in self.processes.iter().flatten() {
            p.malloc.export_into(reg);
        }
        // Exited processes folded in, so the accumulators stay
        // monotonic across tenant churn.
        reg.incr("mem.alloc_calls", self.retired.alloc_calls);
        reg.incr("mem.free_calls", self.retired.free_calls);
        reg.incr("mem.heaps_created", self.retired.heaps_created);
        reg.incr("mem.page_faults", self.page_faults());
        reg.incr("mem.processes", self.process_count() as u64);
        reg.events_mut().merge(&self.events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P0: ProcessId = ProcessId(0);

    fn swap_perm(sys: &SdamSystem, a: usize, b: usize) -> BitPermutation {
        let n = (sys.cmt.chunk_bits() - 6) as usize;
        let mut t: Vec<u32> = (0..n as u32).collect();
        t.swap(a, b);
        BitPermutation::new(6, t).unwrap()
    }

    /// Checks the user-list invariant — `pid ∈ users[id]` exactly when
    /// the process is live and `id` is in its `mappings`; both sides
    /// ascending, and the default mapping in neither — plus the O(1)
    /// `process_count` against a scan of the slot table.
    fn assert_invariants(sys: &SdamSystem) {
        assert!(sys.users[0].is_empty(), "the default mapping has users");
        for p in sys.processes.iter().flatten() {
            assert!(
                p.mappings.windows(2).all(|w| w[0] < w[1]),
                "a process's mappings are unsorted"
            );
        }
        for (id, users) in sys.users.iter().enumerate() {
            assert!(
                users.windows(2).all(|w| w[0] < w[1]),
                "users[{id}] unsorted"
            );
            for (pid, slot) in sys.processes.iter().enumerate() {
                let uses = slot
                    .as_ref()
                    .is_some_and(|p| p.mappings.contains(&MappingId(id as u8)));
                assert_eq!(
                    users.contains(&(pid as u32)),
                    uses,
                    "users[{id}] disagrees with pid {pid}"
                );
            }
        }
        assert_eq!(sys.process_count(), sys.processes.iter().flatten().count());
    }

    fn joined(sys: &SdamSystem, pid: ProcessId, id: MappingId) -> bool {
        sys.processes[pid.0 as usize]
            .as_ref()
            .is_some_and(|p| p.mappings.contains(&id))
    }

    #[test]
    fn end_to_end_allocation_and_translation() {
        let mut sys = SdamSystem::try_new(Geometry::hbm2_8gb(), 21).unwrap();
        let id = sys.add_mapping(&swap_perm(&sys, 0, 8)).unwrap();
        let va = sys.malloc_in(P0, 8192, Some(id)).unwrap();
        let pa = sys.touch_in(P0, va).unwrap();
        // The frame's chunk is registered to the new mapping in the CMT.
        assert_eq!(sys.cmt().chunk_mapping(pa.chunk_number(21)), id);
        // Translation is consistent when repeated.
        assert_eq!(
            sys.access_in(P0, va).unwrap(),
            sys.access_in(P0, va).unwrap()
        );
        assert_eq!(sys.page_faults(), 1);
    }

    #[test]
    fn default_and_custom_mappings_coexist() {
        let mut sys = SdamSystem::try_new(Geometry::hbm2_8gb(), 21).unwrap();
        let id = sys.add_mapping(&swap_perm(&sys, 0, 1)).unwrap();
        let v_default = sys.malloc_in(P0, 4096, None).unwrap();
        let v_custom = sys.malloc_in(P0, 4096, Some(id)).unwrap();
        let pa_d = sys.touch_in(P0, v_default).unwrap();
        let pa_c = sys.touch_in(P0, v_custom).unwrap();
        assert_ne!(pa_d.chunk_number(21), pa_c.chunk_number(21));
        assert_eq!(
            sys.cmt().chunk_mapping(pa_d.chunk_number(21)),
            MappingId::DEFAULT
        );
        assert_eq!(sys.cmt().chunk_mapping(pa_c.chunk_number(21)), id);
    }

    #[test]
    fn stride_mapping_spreads_channels() {
        let mut sys = SdamSystem::try_new(Geometry::hbm2_8gb(), 21).unwrap();
        let stride = 32u64; // pins one channel under the default
        let perm = sys.permutation_for_stride(stride);
        let id = sys.add_mapping(&perm).unwrap();
        let va = sys.malloc_in(P0, 2 << 20, Some(id)).unwrap();
        let mut channels = std::collections::HashSet::new();
        for i in 0..64u64 {
            let coords = sys
                .access_in(P0, VirtAddr(va.raw() + i * stride * 64))
                .unwrap();
            channels.insert(coords.channel);
        }
        assert!(
            channels.len() >= 16,
            "stride should spread over channels, got {}",
            channels.len()
        );
    }

    #[test]
    fn free_and_realloc() {
        let mut sys = SdamSystem::try_new(Geometry::hbm2_8gb(), 21).unwrap();
        let va = sys.malloc_in(P0, 4096, None).unwrap();
        sys.free_in(P0, va).unwrap();
        assert!(sys.free_in(P0, va).is_err());
        let vb = sys.malloc_in(P0, 4096, None).unwrap();
        assert_eq!(va, vb, "allocation reused");
    }

    #[test]
    fn processes_share_chunk_groups_but_not_address_spaces() {
        let mut sys = SdamSystem::try_new(Geometry::hbm2_8gb(), 21).unwrap();
        let id = sys.add_mapping(&swap_perm(&sys, 0, 3)).unwrap();
        let p1 = sys.spawn_process();
        assert_eq!(sys.process_count(), 2);

        // Same-sized allocations in both processes land at the same VA
        // (fresh address spaces)...
        let va0 = sys.malloc_in(P0, 4096, Some(id)).unwrap();
        let va1 = sys.malloc_in(p1, 4096, Some(id)).unwrap();
        assert_eq!(va0, va1, "independent address spaces start alike");

        // ...but back distinct frames, drawn from the SAME chunk group
        // (paper §4: chunks hold data "from one or more processes").
        let pa0 = sys.touch_in(P0, va0).unwrap();
        let pa1 = sys.touch_in(p1, va1).unwrap();
        assert_ne!(pa0, pa1, "frames are distinct");
        assert_eq!(
            pa0.chunk_number(21),
            pa1.chunk_number(21),
            "both processes' pages share the mapping's chunk"
        );
        assert_eq!(sys.cmt().chunk_mapping(pa0.chunk_number(21)), id);
        assert_invariants(&sys);
    }

    #[test]
    fn mappings_registered_before_spawn_are_visible_after() {
        let mut sys = SdamSystem::try_new(Geometry::hbm2_8gb(), 21).unwrap();
        let before = sys.add_mapping(&swap_perm(&sys, 1, 2)).unwrap();
        let p1 = sys.spawn_process();
        assert!(sys.malloc_in(p1, 64, Some(before)).is_ok());
        // And mappings registered after the spawn, too.
        let after = sys.add_mapping(&swap_perm(&sys, 2, 3)).unwrap();
        assert!(sys.malloc_in(p1, 64, Some(after)).is_ok());
    }

    #[test]
    fn remap_migrates_resident_pages_to_the_new_mapping() {
        let mut sys = SdamSystem::try_new(Geometry::hbm2_8gb(), 21).unwrap();
        let m1 = sys.add_mapping(&swap_perm(&sys, 0, 1)).unwrap();
        let m2 = sys.add_mapping(&swap_perm(&sys, 0, 8)).unwrap();
        let va = sys.malloc_in(P0, 8 * 4096, Some(m1)).unwrap();
        // Touch 3 of 8 pages.
        for p in [0u64, 3, 7] {
            sys.touch_in(P0, VirtAddr(va.raw() + p * 4096)).unwrap();
        }
        let (new_va, moved) = sys.remap_in(P0, va, m2).unwrap();
        assert_eq!(moved, 3, "only resident pages are copied");
        assert_ne!(new_va, va);
        // The new allocation lives in m2's chunk group.
        let pa = sys.touch_in(P0, new_va).unwrap();
        assert_eq!(sys.cmt().chunk_mapping(pa.chunk_number(21)), m2);
        // The old allocation is gone.
        assert!(sys.free_in(P0, va).is_err());
        // Remapping an invalid pointer errors.
        assert!(sys.remap_in(P0, VirtAddr(12), m1).is_err());
    }

    #[test]
    fn sensitive_allocation_is_guard_isolated_end_to_end() {
        for spawned in [false, true] {
            let mut sys = SdamSystem::try_new(Geometry::hbm2_8gb(), 21).unwrap();
            let pid = if spawned { sys.spawn_process() } else { P0 };
            let neighbour = sys.spawn_process();
            // An ordinary page first takes the lowest chunk, so the
            // sensitive chunk has a physical neighbour on each side.
            let first = sys.malloc_in(neighbour, 4096, None).unwrap();
            let first_chunk = sys.touch_in(neighbour, first).unwrap().chunk_number(21);
            let secret = sys.malloc_sensitive_in(pid, 4096, None).unwrap();
            let chunk = sys.touch_in(pid, secret).unwrap().chunk_number(21);
            assert!(
                chunk > first_chunk + 1,
                "{pid}: chunk {chunk} has no guard below"
            );
            assert!(
                sys.phys.is_guard_chunk(chunk - 1) && sys.phys.is_guard_chunk(chunk + 1),
                "{pid}: both physical neighbours are guards"
            );
            assert_eq!(sys.fragmentation_stats().guard_chunks, 2);
            // No ordinary allocation, in the owner or another process,
            // can ever land in the adjacent chunks.
            for i in 0..64 {
                let owner = if i % 2 == 0 { pid } else { neighbour };
                let va = sys.malloc_in(owner, 2 << 20, None).unwrap();
                let pa = sys.touch_in(owner, va).unwrap();
                assert!(
                    pa.chunk_number(21).abs_diff(chunk) != 1,
                    "{pid}: neighbour chunk leaked to {owner}"
                );
            }
        }
    }

    #[test]
    fn exit_process_releases_chunks_and_recycles_pids() {
        let mut sys = SdamSystem::try_new(Geometry::hbm2_8gb(), 21).unwrap();
        let id = sys.add_mapping(&swap_perm(&sys, 0, 2)).unwrap();
        let free_before = sys.fragmentation_stats().free_chunks;
        let p1 = sys.spawn_process();
        let va = sys.malloc_in(p1, 64 * 4096, Some(id)).unwrap();
        for page in 0..64u64 {
            sys.touch_in(p1, VirtAddr(va.raw() + page * 4096)).unwrap();
        }
        assert!(sys.in_use_chunks() > 0);
        let faults_before_exit = sys.page_faults();
        sys.exit_process(p1).unwrap();
        // All the tenant's chunks drained back to the free list, the
        // conservation identity holds, and the counters survive.
        assert_eq!(sys.fragmentation_stats().free_chunks, free_before);
        assert_eq!(sys.chunks_claimed() - sys.chunks_released(), 0);
        assert_eq!(sys.page_faults(), faults_before_exit);
        assert_eq!(sys.process_count(), 1);
        assert_eq!(sys.processes_exited(), 1);
        // Dead pid rejected everywhere; the slot is then reused.
        assert!(matches!(
            sys.malloc_in(p1, 64, None),
            Err(MemError::UnknownProcess { .. })
        ));
        assert!(sys.exit_process(p1).is_err());
        let p2 = sys.spawn_process();
        assert_eq!(p2, p1, "pid slot recycled");
        assert!(sys.malloc_in(p2, 64, Some(id)).is_ok());
        assert_invariants(&sys);
    }

    #[test]
    fn remove_mapping_recycles_the_global_id() {
        let mut sys = SdamSystem::try_new(Geometry::hbm2_8gb(), 21).unwrap();
        let id = sys.add_mapping(&swap_perm(&sys, 0, 2)).unwrap();
        let va = sys.malloc_in(P0, 4096, Some(id)).unwrap();
        sys.touch_in(P0, va).unwrap();
        // Live allocation blocks removal.
        assert_eq!(
            sys.remove_mapping(id).unwrap_err(),
            MemError::MappingInUse(id)
        );
        sys.free_in(P0, va).unwrap();
        // Freed but still resident: removal unmaps the empty heap and
        // drains the chunk group.
        sys.remove_mapping(id).unwrap();
        assert_eq!(sys.in_use_chunks(), 0);
        assert!(matches!(
            sys.malloc_in(P0, 64, Some(id)),
            Err(MemError::UnknownMapping(_))
        ));
        // The id recycles for the next tenant's mapping.
        let id2 = sys.add_mapping(&swap_perm(&sys, 0, 3)).unwrap();
        assert_eq!(id2, id);
        // Guards: default and unknown ids are rejected.
        assert!(sys.remove_mapping(MappingId::DEFAULT).is_err());
        assert!(sys.remove_mapping(MappingId(200)).is_err());
        assert_invariants(&sys);
    }

    #[test]
    fn mapping_churn_never_exhausts_ids() {
        let mut sys = SdamSystem::try_new(Geometry::hbm2_8gb(), 21).unwrap();
        for round in 0..600usize {
            let id = sys
                .add_mapping(&swap_perm(&sys, round % 14, (round + 1) % 14 + 1))
                .unwrap();
            let pid = sys.spawn_process();
            let va = sys.malloc_in(pid, 8192, Some(id)).unwrap();
            sys.touch_in(pid, va).unwrap();
            sys.exit_process(pid).unwrap();
            sys.remove_mapping(id).unwrap();
        }
        assert_invariants(&sys);
        assert_eq!(sys.process_count(), 1);
        assert_eq!(sys.in_use_chunks(), 0);
        assert_eq!(sys.processes_exited(), 600);
    }

    #[test]
    fn mmap_munmap_lifecycle_in_process() {
        let mut sys = SdamSystem::try_new(Geometry::hbm2_8gb(), 21).unwrap();
        let id = sys.add_mapping(&swap_perm(&sys, 1, 3)).unwrap();
        let pid = sys.spawn_process();
        let va = sys.mmap_in(pid, 16 * 4096, id).unwrap();
        sys.touch_in(pid, va).unwrap();
        assert!(sys.in_use_chunks() > 0);
        sys.munmap_in(pid, va).unwrap();
        assert_eq!(sys.in_use_chunks(), 0);
        assert!(sys.touch_in(pid, va).is_err(), "unmapped range faults");
        // Unknown mapping and bad addresses are rejected.
        assert!(sys.mmap_in(pid, 4096, MappingId(99)).is_err());
        assert!(sys.munmap_in(pid, VirtAddr(42)).is_err());
        assert_invariants(&sys);
    }

    #[test]
    fn mapping_used_via_malloc_and_mmap_retires_in_both_users() {
        let mut sys = SdamSystem::try_new(Geometry::hbm2_8gb(), 21).unwrap();
        let id = sys.add_mapping(&swap_perm(&sys, 0, 4)).unwrap();
        let heap_user = sys.spawn_process();
        let mmap_user = sys.spawn_process();
        assert!(sys.users[id.0 as usize].is_empty(), "joining is lazy");
        let va = sys.malloc_in(heap_user, 8192, Some(id)).unwrap();
        sys.touch_in(heap_user, va).unwrap();
        let region = sys.mmap_in(mmap_user, 16 * 4096, id).unwrap();
        sys.touch_in(mmap_user, region).unwrap();
        assert_eq!(sys.users[id.0 as usize], [heap_user.0, mmap_user.0]);
        assert!(!joined(&sys, P0, id), "pid0 never used it");
        assert_invariants(&sys);
        assert!(sys.in_use_chunks() > 0);

        sys.free_in(heap_user, va).unwrap();
        sys.remove_mapping(id).unwrap();
        // Both users' VMAs are gone and every chunk drained back.
        assert_eq!(sys.in_use_chunks(), 0);
        assert!(sys.touch_in(heap_user, va).is_err());
        assert!(sys.touch_in(mmap_user, region).is_err());
        assert!(sys.users[id.0 as usize].is_empty());
        assert!(!joined(&sys, heap_user, id));
        assert!(!joined(&sys, mmap_user, id));
        assert_invariants(&sys);
    }

    #[test]
    fn non_owner_live_bytes_block_removal_and_change_nothing() {
        let mut sys = SdamSystem::try_new(Geometry::hbm2_8gb(), 21).unwrap();
        let id = sys.add_mapping(&swap_perm(&sys, 1, 5)).unwrap();
        let owner = sys.spawn_process();
        let other = sys.spawn_process();
        let mine = sys.malloc_in(owner, 4096, Some(id)).unwrap();
        sys.touch_in(owner, mine).unwrap();
        sys.free_in(owner, mine).unwrap();
        let theirs = sys.malloc_in(other, 4096, Some(id)).unwrap();
        let pa = sys.touch_in(other, theirs).unwrap();

        let users = sys.users[id.0 as usize].clone();
        let (in_use, claimed, released) = (
            sys.in_use_chunks(),
            sys.chunks_claimed(),
            sys.chunks_released(),
        );
        assert_eq!(
            sys.remove_mapping(id).unwrap_err(),
            MemError::MappingInUse(id)
        );
        // Nothing moved: user list, joined sets, chunks, CMT, frames.
        assert_eq!(sys.users[id.0 as usize], users);
        assert!(joined(&sys, owner, id) && joined(&sys, other, id));
        assert_eq!(
            (
                sys.in_use_chunks(),
                sys.chunks_claimed(),
                sys.chunks_released()
            ),
            (in_use, claimed, released)
        );
        assert_eq!(sys.cmt().chunk_mapping(pa.chunk_number(21)), id);
        assert_eq!(sys.touch_in(other, theirs).unwrap(), pa);
        assert_eq!(
            sys.touch_in(owner, mine).unwrap().chunk_number(21),
            pa.chunk_number(21)
        );
        assert_invariants(&sys);

        // Once the non-owner frees, the retry succeeds.
        sys.free_in(other, theirs).unwrap();
        sys.remove_mapping(id).unwrap();
        assert_eq!(sys.in_use_chunks(), 0);
        assert_invariants(&sys);
    }

    #[test]
    fn recycled_pid_that_never_used_the_mapping_is_not_a_user() {
        let mut sys = SdamSystem::try_new(Geometry::hbm2_8gb(), 21).unwrap();
        let id = sys.add_mapping(&swap_perm(&sys, 2, 6)).unwrap();
        let first = sys.spawn_process();
        let va = sys.malloc_in(first, 4096, Some(id)).unwrap();
        sys.touch_in(first, va).unwrap();
        sys.exit_process(first).unwrap();
        assert!(sys.users[id.0 as usize].is_empty(), "exit leaves the list");
        let second = sys.spawn_process();
        assert_eq!(second, first, "pid recycled");
        let mine = sys.malloc_in(second, 4096, None).unwrap();
        let pa = sys.touch_in(second, mine).unwrap();
        assert!(!joined(&sys, second, id));
        assert_invariants(&sys);

        sys.remove_mapping(id).unwrap();
        // The recycled process was neither visited nor joined: its
        // default-mapping allocation and frame are untouched.
        assert!(!joined(&sys, second, id));
        assert_eq!(sys.touch_in(second, mine).unwrap(), pa);
        assert_eq!(sys.in_use_chunks(), 1);
        assert_invariants(&sys);
    }

    #[test]
    fn remove_mapping_releases_users_chunks_in_ascending_pid_order() {
        let mut sys = SdamSystem::try_new(Geometry::hbm2_8gb(), 21).unwrap();
        let id = sys.add_mapping(&swap_perm(&sys, 1, 8)).unwrap();
        let low = sys.spawn_process();
        let high = sys.spawn_process();
        // The higher pid uses the mapping first and fills a whole chunk;
        // the lower pid's page then lands in a second chunk.
        let chunk_pages = 1u64 << (21 - sys.page_bits);
        let big = sys.mmap_in(high, chunk_pages * 4096, id).unwrap();
        let mut high_chunks = std::collections::BTreeSet::new();
        for page in 0..chunk_pages {
            let pa = sys
                .touch_in(high, VirtAddr(big.raw() + page * 4096))
                .unwrap();
            high_chunks.insert(pa.chunk_number(21));
        }
        let small = sys.mmap_in(low, 4096, id).unwrap();
        let low_chunk = sys.touch_in(low, small).unwrap().chunk_number(21);
        assert!(!high_chunks.contains(&low_chunk));
        assert_eq!(sys.users[id.0 as usize], [low.0, high.0]);

        let before = sys.events().total_pushed();
        sys.remove_mapping(id).unwrap();
        assert_eq!(sys.in_use_chunks(), 0);
        let released: Vec<u64> = sys
            .events()
            .iter()
            .filter(|e| e.seq >= before && e.kind == "cmt.release_chunk")
            .map(|e| e.fields[0].1)
            .collect();
        let mut want = vec![low_chunk];
        want.extend(&high_chunks);
        assert_eq!(released, want, "lower pid's chunks return first");
        assert_invariants(&sys);
    }

    #[test]
    fn recycled_mapping_id_starts_from_fresh_heaps() {
        let mut sys = SdamSystem::try_new(Geometry::hbm2_8gb(), 21).unwrap();
        let old = sys.add_mapping(&swap_perm(&sys, 0, 7)).unwrap();
        let pid = sys.spawn_process();
        let va = sys.malloc_in(pid, 4096, Some(old)).unwrap();
        sys.touch_in(pid, va).unwrap();
        sys.free_in(pid, va).unwrap();
        sys.remove_mapping(old).unwrap();

        let new = sys.add_mapping(&swap_perm(&sys, 3, 7)).unwrap();
        assert_eq!(new, old, "id recycled");
        assert!(!joined(&sys, pid, new), "rejoining is lazy");
        let fresh = sys.malloc_in(pid, 4096, Some(new)).unwrap();
        assert_ne!(fresh, va, "the retired heap is not reused");
        // The old heap's address resolves to nothing; the new one lives
        // in the recycled id's chunk group.
        assert!(sys.free_in(pid, va).is_err());
        assert!(sys.touch_in(pid, va).is_err());
        let pa = sys.touch_in(pid, fresh).unwrap();
        assert_eq!(sys.cmt().chunk_mapping(pa.chunk_number(21)), new);
        assert_eq!(sys.users[new.0 as usize], [pid.0]);
        assert_invariants(&sys);
    }
}
