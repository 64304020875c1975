//! # sdam-mem — the SDAM memory-allocation stack
//!
//! The paper modifies Linux 4.15 and glibc 2.26 so that every piece of
//! allocated memory carries an address-mapping id from `malloc()` down
//! to physical frames (§6.1). We cannot ship a kernel patch, so this
//! crate reimplements the same allocators as a library with the same
//! *rules*, which is what the correctness argument depends on:
//!
//! * [`buddy::BuddyAllocator`] — the page-frame allocator used inside a
//!   chunk (split/coalesce over orders, like Linux's zone buddy),
//! * [`phys::ChunkAllocator`] — physical memory managed as 2 MB chunks:
//!   a global free list, per-mapping *chunk groups*, and the invariant
//!   that every frame of a chunk carries the chunk's mapping id,
//! * [`vma::AddressSpace`] — `mmap()` with a mapping-id argument,
//!   `vm_area_struct`-style regions, a page table, and an on-demand
//!   page-fault path that allocates frames from the right chunk group,
//! * [`heap::MultiHeapMalloc`] — the glibc side: one heap per mapping
//!   id (`malloc(size, id)`), page-aligned heaps so a page never mixes
//!   mappings. Ids are registered (`add_addr_map()`) in the CMT every
//!   process shares, so the allocator takes them as given.
//!
//! ## Example: one page, one mapping
//!
//! ```
//! use sdam_mapping::MappingId;
//! use sdam_mem::heap::MultiHeapMalloc;
//! use sdam_mem::phys::ChunkAllocator;
//! use sdam_mem::vma::AddressSpace;
//!
//! let mut phys = ChunkAllocator::new(33, 21, 12); // 8 GB, 2 MB chunks, 4 KB pages
//! let mut aspace = AddressSpace::new(12);
//! let mut malloc = MultiHeapMalloc::new(12);
//!
//! let streaming = MappingId(1); // an id the CMT handed out
//! let va = malloc.malloc(4096, Some(streaming)).unwrap();
//! let region = malloc.heap_region(va).unwrap();
//! aspace.mmap_fixed(region.start, region.len, streaming).unwrap();
//! // Touch the allocation: the fault handler pulls a frame from a
//! // chunk that belongs to `streaming`'s chunk group.
//! let pa = aspace.access(va, &mut phys).unwrap();
//! assert_eq!(phys.mapping_of_frame(pa), Some(streaming));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod bitset;
pub mod buddy;
pub mod error;
pub mod heap;
pub mod phys;
pub mod vma;

pub use error::MemError;
pub use heap::MAX_ALLOC_BYTES;

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by a page number or an address: the page table's
/// vpn → frame map and each heap's live allocation table.
pub(crate) type U64Map<V> = HashMap<u64, V, BuildHasherDefault<MulHasher>>;

/// Multiplicative (Fibonacci) hasher for [`U64Map`] keys. The table
/// picks buckets by the hash's low bits, and a product's low bits see
/// only the key's low bits, so `finish` rotates the well-mixed high
/// half down: keys a power of two apart (a large strided walk, or
/// 16-byte-aligned allocation starts) would otherwise share one bucket
/// chain.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct MulHasher(u64);

impl Hasher for MulHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(32)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// A virtual address in a process address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(pub u64);

impl VirtAddr {
    /// Returns the raw 64-bit value.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The virtual page number for `page_bits`-sized pages.
    #[inline]
    pub(crate) fn vpn(self, page_bits: u32) -> u64 {
        self.0 >> page_bits
    }

    /// The offset within the page.
    #[inline]
    pub(crate) fn page_offset(self, page_bits: u32) -> u64 {
        self.0 & ((1u64 << page_bits) - 1)
    }
}

impl From<u64> for VirtAddr {
    fn from(v: u64) -> Self {
        VirtAddr(v)
    }
}

impl std::fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "VA:{:#x}", self.0)
    }
}
