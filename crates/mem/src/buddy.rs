//! A binary buddy allocator over the pages of one chunk.
//!
//! The paper keeps Linux's buddy allocator for frame management inside
//! chunks and for returning empty chunks to the global pool (§6.1,
//! "Physical Page Allocator"). This is that allocator: blocks of
//! `2^order` pages, split on demand, coalesced with their buddy on free.
//!
//! Two implementations live here. [`BuddyAllocator`] keeps each order's
//! free list as a block-indexed `BitSet` column, so alloc/free/coalesce
//! are word operations with zero heap allocation after construction.
//! `BuddyAllocatorReference` is the original `BTreeSet`-based version,
//! retained as the golden oracle: both pick the same block for every
//! request (smallest sufficient order, then lowest offset) and panic on
//! the same misuse, which the equivalence tests below pin down.

use crate::bitset::BitSet;

/// A buddy allocator managing `2^max_order` pages.
///
/// Offsets are page indices within the managed region. The allocator is
/// deterministic: the lowest available block is always chosen.
///
/// # Example
///
/// ```
/// use sdam_mem::buddy::BuddyAllocator;
///
/// let mut b = BuddyAllocator::new(4); // 16 pages
/// let a = b.alloc(0).unwrap(); // one page
/// let c = b.alloc(2).unwrap(); // four pages
/// assert_ne!(a, c);
/// b.free(a, 0);
/// b.free(c, 2);
/// assert!(b.is_empty());
/// // Everything coalesced back: a full-size block is available again.
/// assert_eq!(b.alloc(4), Some(0));
/// ```
#[derive(Debug, Clone)]
pub struct BuddyAllocator {
    max_order: u32,
    /// `free_lists[order]` = set of free block *indices* of that order
    /// (block index `b` is the block at page offset `b << order`).
    free_lists: Vec<BitSet>,
    allocated_pages: u64,
}

impl BuddyAllocator {
    /// Creates an allocator over `2^max_order` pages, all free.
    ///
    /// # Panics
    ///
    /// Panics if `max_order > 30`.
    pub fn new(max_order: u32) -> Self {
        assert!(max_order <= 30, "unreasonable buddy region");
        let mut free_lists: Vec<BitSet> = (0..=max_order)
            .map(|o| BitSet::with_capacity(1u64 << (max_order - o)))
            .collect();
        free_lists[max_order as usize].insert(0);
        BuddyAllocator {
            max_order,
            free_lists,
            allocated_pages: 0,
        }
    }

    /// Total pages managed.
    #[inline]
    pub(crate) fn total_pages(&self) -> u64 {
        1u64 << self.max_order
    }

    /// Pages currently allocated.
    #[inline]
    pub fn allocated_pages(&self) -> u64 {
        self.allocated_pages
    }

    /// True when nothing is allocated — the condition under which the
    /// kernel returns the chunk to the global free list.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.allocated_pages == 0
    }

    /// Allocates a block of `2^order` pages, returning its page offset.
    ///
    /// Returns `None` if no block of sufficient order is free
    /// (even when enough fragmented pages exist — that is the point of
    /// buddy allocation).
    pub fn alloc(&mut self, order: u32) -> Option<u64> {
        if order > self.max_order {
            return None;
        }
        // Find the smallest order >= requested with a free block.
        let from = (order..=self.max_order).find(|&o| !self.free_lists[o as usize].is_empty())?;
        let blk = self.free_lists[from as usize].first()?;
        self.free_lists[from as usize].remove(blk);
        let offset = blk << from;
        // Split down to the requested order, keeping the low half.
        let mut o = from;
        while o > order {
            o -= 1;
            let buddy = offset + (1u64 << o);
            self.free_lists[o as usize].insert(buddy >> o);
        }
        self.allocated_pages += 1u64 << order;
        Some(offset)
    }

    /// Frees the block of `2^order` pages at `offset`, coalescing with
    /// free buddies.
    ///
    /// # Panics
    ///
    /// Panics if the block is misaligned for its order, out of range, or
    /// already free (double free).
    pub fn free(&mut self, offset: u64, order: u32) {
        assert!(order <= self.max_order, "order out of range");
        assert_eq!(offset % (1u64 << order), 0, "misaligned free");
        assert!(offset < self.total_pages(), "offset out of range");
        // Double-free detection: the block, or any free block that
        // contains it (after earlier coalescing), must not be free.
        for o in order..=self.max_order {
            let aligned = offset & !((1u64 << o) - 1);
            assert!(
                !self.free_lists[o as usize].contains(aligned >> o),
                "double free of block {offset} order {order}"
            );
        }
        let Some(remaining) = self.allocated_pages.checked_sub(1u64 << order) else {
            panic!("freeing more than allocated");
        };
        self.allocated_pages = remaining;
        let mut offset = offset;
        let mut order = order;
        while order < self.max_order {
            let buddy = offset ^ (1u64 << order);
            if !self.free_lists[order as usize].remove(buddy >> order) {
                break;
            }
            offset = offset.min(buddy);
            order += 1;
        }
        self.free_lists[order as usize].insert(offset >> order);
    }

    /// The largest order currently allocatable.
    pub(crate) fn largest_free_order(&self) -> Option<u32> {
        (0..=self.max_order)
            .rev()
            .find(|&o| !self.free_lists[o as usize].is_empty())
    }
}

/// The original `BTreeSet`-backed buddy allocator, kept verbatim as the
/// golden oracle for [`BuddyAllocator`]. Same picks, same panics — only
/// the free-list representation differs.
#[derive(Debug, Clone)]
pub(crate) struct BuddyAllocatorReference {
    max_order: u32,
    /// free_lists[order] = sorted set of free block offsets of that order.
    free_lists: Vec<std::collections::BTreeSet<u64>>,
    allocated_pages: u64,
}

impl BuddyAllocatorReference {
    /// Creates an allocator over `2^max_order` pages, all free.
    ///
    /// # Panics
    ///
    /// Panics if `max_order > 30`.
    pub(crate) fn new(max_order: u32) -> Self {
        assert!(max_order <= 30, "unreasonable buddy region");
        let mut free_lists = vec![std::collections::BTreeSet::new(); (max_order + 1) as usize];
        free_lists[max_order as usize].insert(0);
        BuddyAllocatorReference {
            max_order,
            free_lists,
            allocated_pages: 0,
        }
    }

    /// Total pages managed.
    #[inline]
    pub(crate) fn total_pages(&self) -> u64 {
        1u64 << self.max_order
    }

    /// Pages currently allocated.
    #[inline]
    pub fn allocated_pages(&self) -> u64 {
        self.allocated_pages
    }

    /// Pages currently free.
    #[inline]
    pub(crate) fn free_pages(&self) -> u64 {
        self.total_pages() - self.allocated_pages
    }

    /// True when nothing is allocated.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.allocated_pages == 0
    }

    /// Allocates a block of `2^order` pages, returning its page offset.
    pub fn alloc(&mut self, order: u32) -> Option<u64> {
        if order > self.max_order {
            return None;
        }
        // Find the smallest order >= requested with a free block.
        let from = (order..=self.max_order).find(|&o| !self.free_lists[o as usize].is_empty())?;
        let offset = *self.free_lists[from as usize].iter().next()?;
        self.free_lists[from as usize].remove(&offset);
        // Split down to the requested order, keeping the low half.
        let mut o = from;
        while o > order {
            o -= 1;
            let buddy = offset + (1u64 << o);
            self.free_lists[o as usize].insert(buddy);
        }
        self.allocated_pages += 1u64 << order;
        Some(offset)
    }

    /// Frees the block of `2^order` pages at `offset`, coalescing with
    /// free buddies.
    ///
    /// # Panics
    ///
    /// Panics if the block is misaligned for its order, out of range, or
    /// already free (double free).
    pub fn free(&mut self, offset: u64, order: u32) {
        assert!(order <= self.max_order, "order out of range");
        assert_eq!(offset % (1u64 << order), 0, "misaligned free");
        assert!(offset < self.total_pages(), "offset out of range");
        // Double-free detection: the block, or any free block that
        // contains it (after earlier coalescing), must not be free.
        for o in order..=self.max_order {
            let aligned = offset & !((1u64 << o) - 1);
            assert!(
                !self.free_lists[o as usize].contains(&aligned),
                "double free of block {offset} order {order}"
            );
        }
        let Some(remaining) = self.allocated_pages.checked_sub(1u64 << order) else {
            panic!("freeing more than allocated");
        };
        self.allocated_pages = remaining;
        let mut offset = offset;
        let mut order = order;
        while order < self.max_order {
            let buddy = offset ^ (1u64 << order);
            if !self.free_lists[order as usize].remove(&buddy) {
                break;
            }
            offset = offset.min(buddy);
            order += 1;
        }
        self.free_lists[order as usize].insert(offset);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl BuddyAllocatorReference {
        /// The largest order currently allocatable.
        fn largest_free_order(&self) -> Option<u32> {
            (0..=self.max_order)
                .rev()
                .find(|&o| !self.free_lists[o as usize].is_empty())
        }
    }

    #[test]
    fn alloc_whole_region() {
        let mut b = BuddyAllocator::new(3);
        assert_eq!(b.alloc(3), Some(0));
        assert_eq!(b.allocated_pages(), 8);
        assert_eq!(b.alloc(0), None);
        b.free(0, 3);
        assert!(b.is_empty());
    }

    #[test]
    fn split_produces_disjoint_blocks() {
        let mut b = BuddyAllocator::new(4);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..16 {
            let p = b.alloc(0).unwrap();
            assert!(seen.insert(p), "page {p} handed out twice");
        }
        assert_eq!(b.allocated_pages(), 16);
    }

    #[test]
    fn coalescing_restores_max_order() {
        let mut b = BuddyAllocator::new(4);
        let pages: Vec<u64> = (0..16).map(|_| b.alloc(0).unwrap()).collect();
        for &p in pages.iter().rev() {
            b.free(p, 0);
        }
        assert_eq!(b.largest_free_order(), Some(4));
    }

    #[test]
    fn fragmentation_blocks_large_allocs() {
        let mut b = BuddyAllocator::new(2); // 4 pages
        let p0 = b.alloc(0).unwrap();
        let p1 = b.alloc(0).unwrap();
        let _p2 = b.alloc(0).unwrap();
        b.free(p0, 0);
        b.free(p1, 0); // p0+p1 coalesce into an order-1 block
        assert_eq!(b.allocated_pages(), 1);
        assert_eq!(b.alloc(2), None, "3 free pages but no order-2 block");
        assert!(b.alloc(1).is_some());
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut b = BuddyAllocator::new(2);
        let p = b.alloc(1).unwrap();
        b.free(p, 1);
        b.free(p, 1);
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn misaligned_free_panics() {
        let mut b = BuddyAllocator::new(3);
        let _ = b.alloc(0);
        b.free(1, 1);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn reference_double_free_panics() {
        let mut b = BuddyAllocatorReference::new(2);
        let p = b.alloc(1).unwrap();
        b.free(p, 1);
        b.free(p, 1);
    }

    #[test]
    fn interleaved_alloc_free_keeps_accounting() {
        let mut b = BuddyAllocator::new(5);
        let mut live: Vec<(u64, u32)> = Vec::new();
        for round in 0..50u32 {
            let order = round % 3;
            if let Some(p) = b.alloc(order) {
                live.push((p, order));
            }
            if round % 2 == 1 {
                if let Some((p, o)) = live.pop() {
                    b.free(p, o);
                }
            }
            let live_pages: u64 = live.iter().map(|&(_, o)| 1u64 << o).sum();
            assert_eq!(b.allocated_pages(), live_pages);
        }
    }

    #[test]
    fn matches_reference_under_interleaved_ops() {
        // Deterministic LCG drives an alloc/free interleaving over both
        // implementations; every pick and every counter must agree.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut fast = BuddyAllocator::new(6);
        let mut oracle = BuddyAllocatorReference::new(6);
        let mut live: Vec<(u64, u32)> = Vec::new();
        for _ in 0..4_000 {
            if next() % 3 != 0 || live.is_empty() {
                let order = (next() % 4) as u32;
                let a = fast.alloc(order);
                let b = oracle.alloc(order);
                assert_eq!(a, b, "alloc({order}) diverged");
                if let Some(p) = a {
                    live.push((p, order));
                }
            } else {
                let i = (next() as usize) % live.len();
                let (p, o) = live.swap_remove(i);
                fast.free(p, o);
                oracle.free(p, o);
            }
            assert_eq!(fast.allocated_pages(), oracle.allocated_pages());
            assert_eq!(fast.largest_free_order(), oracle.largest_free_order());
        }
    }
}
