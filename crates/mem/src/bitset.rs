//! A hierarchical bitmap over a fixed index range.
//!
//! This is the index structure behind the flat control plane: every
//! ordered set the allocators used to keep in a `BTreeSet` (the global
//! chunk free list, per-mapping chunk groups, buddy free lists) becomes
//! a [`BitSet`] — a column of leaf words plus `log64` summary levels.
//! Membership updates touch at most one word per level and `first`/
//! `next_set` walk the summary tree, so every operation is O(levels)
//! with zero heap allocation after construction. Both walk members in
//! ascending index order, which is exactly the `BTreeSet` iteration
//! order the allocators' determinism contract is written against.

/// A fixed-capacity ordered set of `u64` indices backed by a leaf
/// bitmap plus summary levels (64-way tree). All operations are
/// O(levels) ≈ O(1); `first`/`next_set` walk members in ascending order.
#[derive(Debug, Clone)]
pub(crate) struct BitSet {
    /// `levels[0]` holds one bit per index; `levels[k][w]` bit `b` is
    /// set iff word `w * 64 + b` of `levels[k - 1]` is non-zero.
    levels: Vec<Vec<u64>>,
    len: u64,
    capacity: u64,
}

impl BitSet {
    /// An empty set over indices `0..capacity`.
    pub(crate) fn with_capacity(capacity: u64) -> Self {
        let mut levels = Vec::new();
        let mut n = capacity.max(1);
        loop {
            let words = n.div_ceil(64);
            levels.push(vec![0u64; words as usize]);
            if words <= 1 {
                break;
            }
            n = words;
        }
        BitSet {
            levels,
            len: 0,
            capacity,
        }
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when no index is a member.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when `i` is a member.
    #[inline]
    pub fn contains(&self, i: u64) -> bool {
        debug_assert!(i < self.capacity);
        self.levels[0][(i / 64) as usize] & (1u64 << (i % 64)) != 0
    }

    /// Adds `i`; returns false when it was already a member.
    pub fn insert(&mut self, i: u64) -> bool {
        debug_assert!(i < self.capacity);
        if self.contains(i) {
            return false;
        }
        let mut pos = i;
        for words in &mut self.levels {
            words[(pos / 64) as usize] |= 1u64 << (pos % 64);
            pos /= 64;
        }
        self.len += 1;
        true
    }

    /// Removes `i`; returns false when it was not a member.
    pub fn remove(&mut self, i: u64) -> bool {
        debug_assert!(i < self.capacity);
        if !self.contains(i) {
            return false;
        }
        let mut pos = i;
        for words in &mut self.levels {
            let w = (pos / 64) as usize;
            words[w] &= !(1u64 << (pos % 64));
            if words[w] != 0 {
                break;
            }
            pos /= 64;
        }
        self.len -= 1;
        true
    }

    /// The smallest member, if any.
    #[inline]
    pub fn first(&self) -> Option<u64> {
        self.next_set(0)
    }

    /// The smallest member `>= from`, if any.
    pub(crate) fn next_set(&self, from: u64) -> Option<u64> {
        if self.len == 0 || from >= self.capacity {
            return None;
        }
        let mut idx = from;
        for (lvl, words) in self.levels.iter().enumerate() {
            let wi = (idx / 64) as usize;
            if wi < words.len() {
                let bit = idx % 64;
                let w = (words[wi] >> bit) << bit;
                if w != 0 {
                    let mut i = wi as u64 * 64 + w.trailing_zeros() as u64;
                    // Descend: at each lower level the word at index `i`
                    // is non-zero; take its lowest set bit.
                    for l in (0..lvl).rev() {
                        let w = self.levels[l][i as usize];
                        debug_assert!(w != 0);
                        i = i * 64 + w.trailing_zeros() as u64;
                    }
                    return Some(i);
                }
            }
            // No member in this word: look for the next non-empty word,
            // which is a set bit at the level above.
            idx = wi as u64 + 1;
        }
        None
    }

    /// The leaf-level words (one bit per index, 64 indices per word) —
    /// the raw column for callers that need word-parallel scans such as
    /// neighbor masking or contiguous-run measurement.
    #[inline]
    pub(crate) fn leaf_words(&self) -> &[u64] {
        &self.levels[0]
    }

    /// The length of the longest run of consecutive members, by direct
    /// word scan (report path, not the warm path).
    pub(crate) fn max_contiguous_run(&self) -> u64 {
        let mut best = 0u64;
        let mut run = 0u64;
        let mut remaining = self.capacity;
        for &w in self.leaf_words() {
            let valid = remaining.min(64);
            for b in 0..valid {
                if w & (1u64 << b) != 0 {
                    run += 1;
                    best = best.max(run);
                } else {
                    run = 0;
                }
            }
            remaining -= valid;
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The members of `s` in ascending order, walked with `next_set`.
    fn members(s: &BitSet) -> Vec<u64> {
        std::iter::successors(s.first(), |&i| s.next_set(i + 1)).collect()
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = BitSet::with_capacity(4096);
        assert!(s.insert(0));
        assert!(s.insert(4095));
        assert!(s.insert(129));
        assert!(!s.insert(129));
        assert_eq!(s.len(), 3);
        assert!(s.contains(129));
        assert!(s.remove(129));
        assert!(!s.remove(129));
        assert!(!s.contains(129));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn first_and_next_walk_summaries() {
        let mut s = BitSet::with_capacity(1 << 20);
        assert_eq!(s.first(), None);
        for i in [7u64, 64, 65, 100_000, 1_000_000] {
            s.insert(i);
        }
        assert_eq!(s.first(), Some(7));
        assert_eq!(s.next_set(8), Some(64));
        assert_eq!(s.next_set(65), Some(65));
        assert_eq!(s.next_set(66), Some(100_000));
        assert_eq!(s.next_set(100_001), Some(1_000_000));
        assert_eq!(s.next_set(1_000_001), None);
        let all = members(&s);
        assert_eq!(all, vec![7, 64, 65, 100_000, 1_000_000]);
    }

    #[test]
    fn matches_btreeset_under_random_ops() {
        // Deterministic LCG so the test needs no external RNG.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let cap = 10_000u64;
        let mut s = BitSet::with_capacity(cap);
        let mut oracle = std::collections::BTreeSet::new();
        for _ in 0..20_000 {
            let i = next() % cap;
            if next() % 2 == 0 {
                assert_eq!(s.insert(i), oracle.insert(i));
            } else {
                assert_eq!(s.remove(i), oracle.remove(&i));
            }
            assert_eq!(s.len(), oracle.len() as u64);
            assert_eq!(s.first(), oracle.iter().next().copied());
            let probe = next() % cap;
            assert_eq!(
                s.next_set(probe),
                oracle.range(probe..).next().copied(),
                "next_set({probe}) diverged"
            );
        }
        assert_eq!(members(&s), oracle.iter().copied().collect::<Vec<_>>());
    }

    #[test]
    fn max_contiguous_run_spans_words() {
        let mut s = BitSet::with_capacity(300);
        for i in 60..170 {
            s.insert(i);
        }
        s.insert(200);
        assert_eq!(s.max_contiguous_run(), 110);
        s.remove(100);
        assert_eq!(s.max_contiguous_run(), 69);
    }

    #[test]
    fn tiny_capacity_single_level() {
        let mut s = BitSet::with_capacity(2);
        assert!(s.insert(0));
        assert!(s.insert(1));
        assert_eq!(members(&s), vec![0, 1]);
    }
}
