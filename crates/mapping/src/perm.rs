//! Validated bit permutations — the software view of the AMU crossbar.
//!
//! The AMU (paper §5.2) is an `n × n` crossbar over the chunk-offset
//! bits, constrained to have exactly one closed switch per column. That
//! constraint is precisely "the configuration is a permutation", which
//! in turn is what guarantees the PA→HA mapping is invertible
//! (the paper's intra-chunk functional-correctness argument, §4).

use sdam_hbm::Geometry;

/// Errors from constructing a [`BitPermutation`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PermError {
    /// The permutation table was empty.
    Empty,
    /// An entry referenced a source bit outside `0..len`.
    SourceOutOfRange {
        /// Destination index with the offending entry.
        dest: usize,
        /// The out-of-range source.
        source: usize,
    },
    /// Two destinations read the same source bit — two closed switches
    /// in one crossbar column.
    DuplicateSource {
        /// The duplicated source bit.
        source: usize,
    },
}

impl std::fmt::Display for PermError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PermError::Empty => write!(f, "permutation table is empty"),
            PermError::SourceOutOfRange { dest, source } => write!(
                f,
                "destination bit {dest} reads source bit {source}, which is out of range"
            ),
            PermError::DuplicateSource { source } => write!(
                f,
                "source bit {source} is routed to two destinations (two closed switches in a column)"
            ),
        }
    }
}

impl std::error::Error for PermError {}

/// A permutation of the bit positions `[lo, lo + len)` of an address.
///
/// Destination bit `lo + i` of the output takes source bit
/// `lo + table[i]` of the input; bits outside the window pass through
/// unchanged. This matches the AMU, which permutes only the chunk
/// offset while the chunk number is copied verbatim.
///
/// Construction precomputes one 256-entry scatter table per input byte
/// of the window, so [`BitPermutation::apply`] is a handful of table
/// lookups and ORs (the paper's ≤21-bit AMU window needs three) instead
/// of a per-bit loop. The per-bit routing is kept as
/// [`BitPermutation::apply_reference`], the oracle the LUT path is
/// property-tested against.
///
/// # Example
///
/// ```
/// use sdam_mapping::BitPermutation;
///
/// // Swap bits 6 and 7 of an address.
/// let p = BitPermutation::new(6, vec![1, 0])?;
/// assert_eq!(p.apply(0b01_000000), 0b10_000000);
/// assert_eq!(p.invert().apply(p.apply(12345)), 12345);
/// # Ok::<(), sdam_mapping::PermError>(())
/// ```
#[derive(Clone)]
pub struct BitPermutation {
    lo: u32,
    table: Vec<u32>,
    /// `luts[k][b]` is the OR of destination-window bits driven by the
    /// window's source byte `k` holding value `b`. Derived from `table`
    /// at construction; excluded from equality/hashing/Debug.
    luts: Vec<[u64; 256]>,
}

impl std::fmt::Debug for BitPermutation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BitPermutation")
            .field("lo", &self.lo)
            .field("table", &self.table)
            .finish()
    }
}

impl PartialEq for BitPermutation {
    fn eq(&self, other: &Self) -> bool {
        self.lo == other.lo && self.table == other.table
    }
}

impl Eq for BitPermutation {}

impl std::hash::Hash for BitPermutation {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.lo.hash(state);
        self.table.hash(state);
    }
}

impl BitPermutation {
    /// Creates a permutation of bits `[lo, lo + table.len())`, where
    /// `table[i]` is the *window-relative* source of destination bit `i`.
    ///
    /// # Errors
    ///
    /// Returns a [`PermError`] if the table is empty, references a source
    /// outside the window, or routes one source to two destinations.
    pub fn new(lo: u32, table: Vec<u32>) -> Result<Self, PermError> {
        if table.is_empty() {
            return Err(PermError::Empty);
        }
        let n = table.len();
        let mut seen = vec![false; n];
        for (dest, &src) in table.iter().enumerate() {
            let src = src as usize;
            if src >= n {
                return Err(PermError::SourceOutOfRange { dest, source: src });
            }
            if seen[src] {
                return Err(PermError::DuplicateSource { source: src });
            }
            seen[src] = true;
        }
        Ok(BitPermutation::from_table(lo, table))
    }

    /// Builds the permutation plus its byte-scatter LUTs from an
    /// already-validated table.
    fn from_table(lo: u32, table: Vec<u32>) -> Self {
        let n = table.len();
        let mut luts = vec![[0u64; 256]; n.div_ceil(8)];
        for (dest, &src) in table.iter().enumerate() {
            let byte = (src / 8) as usize;
            let bit = src % 8;
            // Every byte value with source bit `bit` set drives
            // destination bit `dest`.
            for (value, entry) in luts[byte].iter_mut().enumerate() {
                if (value >> bit) & 1 == 1 {
                    *entry |= 1u64 << dest;
                }
            }
        }
        BitPermutation { lo, table, luts }
    }

    /// The identity permutation over `[lo, lo + len)`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn identity(lo: u32, len: usize) -> Self {
        assert!(len > 0, "permutation window must be non-empty");
        BitPermutation::from_table(lo, (0..len as u32).collect())
    }

    /// First bit of the permuted window.
    #[inline]
    pub fn lo(&self) -> u32 {
        self.lo
    }

    /// Window width in bits (the crossbar dimension `n`).
    #[inline]
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Always false: permutations are validated non-empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Window-relative source bit for each destination bit.
    #[inline]
    pub fn table(&self) -> &[u32] {
        &self.table
    }

    /// Applies the permutation to an address.
    ///
    /// This is the table-driven fast path: the window is split into
    /// bytes and each byte's precomputed scatter entry is ORed into the
    /// output. Bit-identical to [`BitPermutation::apply_reference`].
    #[inline]
    pub fn apply(&self, addr: u64) -> u64 {
        let n = self.table.len() as u32;
        let mask = ((1u64 << n) - 1) << self.lo;
        let window = (addr & mask) >> self.lo;
        let mut out = 0u64;
        for (k, lut) in self.luts.iter().enumerate() {
            out |= lut[((window >> (8 * k)) & 0xff) as usize];
        }
        (addr & !mask) | (out << self.lo)
    }

    /// Applies the permutation to a block of addresses in place.
    ///
    /// Bit-identical to calling [`BitPermutation::apply`] on each
    /// element; the window mask is hoisted out of the loop so the
    /// per-address work is the byte-scatter alone.
    pub(crate) fn apply_block(&self, addrs: &mut [u64]) {
        let n = self.table.len() as u32;
        let mask = ((1u64 << n) - 1) << self.lo;
        for a in addrs {
            let window = (*a & mask) >> self.lo;
            let mut out = 0u64;
            for (k, lut) in self.luts.iter().enumerate() {
                out |= lut[((window >> (8 * k)) & 0xff) as usize];
            }
            *a = (*a & !mask) | (out << self.lo);
        }
    }

    /// The original per-bit routing, kept as the oracle the LUT-based
    /// [`BitPermutation::apply`] is tested against.
    pub fn apply_reference(&self, addr: u64) -> u64 {
        let n = self.table.len() as u32;
        let mask = ((1u64 << n) - 1) << self.lo;
        let window = (addr & mask) >> self.lo;
        let mut out = 0u64;
        for (dest, &src) in self.table.iter().enumerate() {
            out |= ((window >> src) & 1) << dest;
        }
        (addr & !mask) | (out << self.lo)
    }

    /// Returns the inverse permutation, such that
    /// `p.invert().apply(p.apply(a)) == a` for every address.
    pub fn invert(&self) -> BitPermutation {
        let mut inv = vec![0u32; self.table.len()];
        for (dest, &src) in self.table.iter().enumerate() {
            inv[src as usize] = dest as u32;
        }
        BitPermutation::from_table(self.lo, inv)
    }

    /// The canonical representative of this permutation's
    /// *timing-equivalence class* on `geom` (see [`timing_classes`]).
    ///
    /// Two AMU permutations are timing-equivalent when no sequence of
    /// timed accesses through the device can distinguish them: the
    /// row-buffer outcome of any access pair depends only on whether
    /// the pair shares a (channel, effective-bank) pair and whether it
    /// shares a row — and those predicates are invariant under
    /// reordering destinations *within* a timing class (which channel
    /// bit, which column bit, and the bank-bit/row-bit assignment
    /// inside one fold class of the controller's bank hash are all
    /// unobservable). Canonical form: within each class, ascending
    /// sources are routed to ascending destinations.
    ///
    /// A black-box prober (`sdam-probe`) can therefore recover at most
    /// this representative; comparing `recovered` against
    /// `truth.timing_canonical(geom)` is the exact ground-truth check.
    pub fn timing_canonical(&self, geom: Geometry) -> BitPermutation {
        let classes = timing_classes(geom, self.lo, self.table.len() as u32);
        let mut table = self.table.clone();
        let mut groups: Vec<&[u32]> = vec![&classes.channel, &classes.column];
        groups.extend(classes.fold.iter().map(|v| v.as_slice()));
        for dests in groups {
            let mut sources: Vec<u32> = dests.iter().map(|&d| self.table[d as usize]).collect();
            sources.sort_unstable();
            // Destination groups are produced in ascending order, so
            // ascending source -> ascending destination within the class.
            for (&d, &s) in dests.iter().zip(sources.iter()) {
                table[d as usize] = s;
            }
        }
        BitPermutation::from_table(self.lo, table)
    }
}

/// The partition of a permutation window's *destination* bits into
/// timing-equivalence classes on a device geometry.
///
/// All indices are window-relative (destination bit `lo + i` appears as
/// `i`) and each group is ascending. The classes:
///
/// * [`TimingClasses::channel`] — destinations inside the channel
///   field. Channels are identical, independently timed machines, so
///   *which* channel bit a source drives is unobservable from latency.
/// * [`TimingClasses::column`] — destinations inside the column field.
///   Columns select a line within the open row buffer; a row hit costs
///   the same for every column, so column order is unobservable.
/// * [`TimingClasses::fold`] — one group per fold class `k` of the
///   controller's bank-address hash (`effective bank = bank XOR
///   fold(row)`, the MICRO-33 interleave): the bank-field bit `k`
///   together with every row-field bit `j` with `j ≡ k (mod
///   bank_bits)`. The effective-bank bit `k` is the *parity* of the
///   class members, so swapping destinations within a class changes no
///   (channel, effective-bank) pair and no row-equality verdict —
///   unobservable again. Empty groups (classes with no destination in
///   the window) are kept so `fold[k]` is always class `k`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingClasses {
    /// Window-relative destination bits in the channel field.
    pub channel: Vec<u32>,
    /// Window-relative destination bits in the column field.
    pub column: Vec<u32>,
    /// Window-relative destination bits per bank-hash fold class.
    pub fold: Vec<Vec<u32>>,
}

/// Partitions the destination bits of the window `[lo, lo + len)` into
/// timing-equivalence classes for `geom` (see [`TimingClasses`]).
///
/// Window bits below the geometry's line offset or above its address
/// width belong to no field and are ignored (they never reach the
/// device decoder).
pub fn timing_classes(geom: Geometry, lo: u32, len: u32) -> TimingClasses {
    let ch_lo = geom.line_bits();
    let col_lo = ch_lo + geom.channel_bits();
    let bank_lo = col_lo + geom.col_bits();
    let row_lo = bank_lo + geom.bank_bits();
    let bank_bits = geom.bank_bits();
    let mut classes = TimingClasses {
        channel: Vec::new(),
        column: Vec::new(),
        fold: vec![Vec::new(); bank_bits as usize],
    };
    for i in 0..len {
        let abs = lo + i;
        if abs < ch_lo || abs >= geom.addr_bits() {
            continue;
        }
        if abs < col_lo {
            classes.channel.push(i);
        } else if abs < bank_lo {
            classes.column.push(i);
        } else if abs < row_lo {
            classes.fold[(abs - bank_lo) as usize].push(i);
        } else {
            classes.fold[((abs - row_lo) % bank_bits) as usize].push(i);
        }
    }
    classes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_classes_partition_hbm2() {
        let g = Geometry::hbm2_8gb();
        // Window [6, 21): channel [6,11), col [11,13), bank [13,17),
        // rows 17..21 folding onto classes 0..4.
        let c = timing_classes(g, 6, 15);
        assert_eq!(c.channel, vec![0, 1, 2, 3, 4]);
        assert_eq!(c.column, vec![5, 6]);
        assert_eq!(c.fold.len(), 4);
        assert_eq!(c.fold[0], vec![7, 11]);
        assert_eq!(c.fold[1], vec![8, 12]);
        assert_eq!(c.fold[2], vec![9, 13]);
        assert_eq!(c.fold[3], vec![10, 14]);
        // Every window bit lands in exactly one class.
        let total = c.channel.len() + c.column.len() + c.fold.iter().map(Vec::len).sum::<usize>();
        assert_eq!(total, 15);
    }

    #[test]
    fn timing_classes_ignore_bits_outside_device_fields() {
        let g = Geometry::hbm2_8gb();
        // Window [0, 40) spills below the line offset and past addr_bits.
        let c = timing_classes(g, 0, 40);
        let total = c.channel.len() + c.column.len() + c.fold.iter().map(Vec::len).sum::<usize>();
        assert_eq!(total, (g.addr_bits() - g.line_bits()) as usize);
        assert_eq!(c.channel, vec![6, 7, 8, 9, 10]);
    }

    #[test]
    fn timing_canonical_identity_is_fixed_point() {
        let g = Geometry::hbm2_8gb();
        let p = BitPermutation::identity(6, 15);
        assert_eq!(p.timing_canonical(g), p);
    }

    #[test]
    fn timing_canonical_is_idempotent_and_class_preserving() {
        let g = Geometry::hbm2_8gb();
        let mut table: Vec<u32> = (0..15).collect();
        table.reverse();
        let p = BitPermutation::new(6, table).unwrap();
        let c = p.timing_canonical(g);
        assert_eq!(c.timing_canonical(g), c);
        // Canonicalization only reorders sources *within* a timing
        // class: the multiset of sources feeding each class is intact,
        // and within each class the canonical assignment is ascending.
        let classes = timing_classes(g, 6, 15);
        let mut groups: Vec<&[u32]> = vec![&classes.channel, &classes.column];
        groups.extend(classes.fold.iter().map(|v| v.as_slice()));
        for dests in groups {
            let mut orig: Vec<u32> = dests.iter().map(|&d| p.table()[d as usize]).collect();
            orig.sort_unstable();
            let canon: Vec<u32> = dests.iter().map(|&d| c.table()[d as usize]).collect();
            assert_eq!(orig, canon, "class {dests:?}");
        }
    }

    #[test]
    fn timing_canonical_merges_indistinguishable_permutations() {
        let g = Geometry::hbm2_8gb();
        // Swapping two channel destinations is invisible to timing.
        let mut a: Vec<u32> = (0..15).collect();
        a.swap(0, 1);
        let p = BitPermutation::new(6, a).unwrap();
        let id = BitPermutation::identity(6, 15);
        assert_eq!(p.timing_canonical(g), id.timing_canonical(g));
        // Swapping a channel destination with a column destination is
        // observable and must survive canonicalization.
        let mut b: Vec<u32> = (0..15).collect();
        b.swap(0, 5);
        let q = BitPermutation::new(6, b).unwrap();
        assert_ne!(q.timing_canonical(g), id.timing_canonical(g));
    }

    #[test]
    fn rejects_invalid_tables() {
        assert_eq!(BitPermutation::new(0, vec![]), Err(PermError::Empty));
        assert!(matches!(
            BitPermutation::new(0, vec![0, 2]),
            Err(PermError::SourceOutOfRange { dest: 1, source: 2 })
        ));
        assert!(matches!(
            BitPermutation::new(0, vec![1, 1]),
            Err(PermError::DuplicateSource { source: 1 })
        ));
    }

    #[test]
    fn identity_leaves_addresses_unchanged() {
        let p = BitPermutation::identity(6, 15);
        for a in [0u64, 0x3f, 0xdead_beef, u64::MAX >> 8] {
            assert_eq!(p.apply(a), a);
        }
    }

    #[test]
    fn apply_block_matches_scalar_apply() {
        // A haphazard 15-bit permutation at lo=6: the block kernel must
        // agree with the scalar LUT path (itself checked against the
        // per-bit reference) on every element.
        let table: Vec<u32> = vec![3, 7, 0, 12, 1, 14, 2, 9, 4, 13, 5, 11, 6, 10, 8];
        let p = BitPermutation::new(6, table).unwrap();
        let mut addrs: Vec<u64> = (0..4096u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        let want: Vec<u64> = addrs.iter().map(|&a| p.apply(a)).collect();
        p.apply_block(&mut addrs);
        assert_eq!(addrs, want);
    }

    #[test]
    fn apply_moves_bits_and_preserves_outside() {
        // Rotate a 3-bit window at lo=4 left by one: dest i <- src i-1.
        let p = BitPermutation::new(4, vec![2, 0, 1]).unwrap();
        let addr = 0b001_0000u64; // window = 0b001
                                  // dest0 <- src2 = 0, dest1 <- src0 = 1, dest2 <- src1 = 0.
        assert_eq!(p.apply(addr), 0b010_0000);
        // Bits outside the window untouched.
        let addr = 0b1000_0000_1111u64;
        assert_eq!(p.apply(addr) & !(0b111 << 4), addr & !(0b111 << 4));
    }

    #[test]
    fn inverse_round_trips_every_window_value() {
        let p = BitPermutation::new(6, vec![3, 1, 4, 0, 2]).unwrap();
        let inv = p.invert();
        for w in 0..(1u64 << 5) {
            let addr = (w << 6) | 0b101010;
            assert_eq!(inv.apply(p.apply(addr)), addr);
            assert_eq!(p.apply(inv.apply(addr)), addr);
        }
    }

    #[test]
    fn lut_apply_matches_reference() {
        // Cover sub-byte, multi-byte, and odd-width windows, including
        // one wider than the AMU's 21-bit maximum.
        for (lo, table) in [
            (0u32, vec![2u32, 0, 1]),
            (6, vec![14, 0, 7, 3, 12, 1, 9, 5, 13, 2, 10, 6, 11, 4, 8]),
            (6, (0..21u32).rev().collect::<Vec<u32>>()),
            (3, (0..27u32).map(|i| (i + 13) % 27).collect::<Vec<u32>>()),
        ] {
            let p = BitPermutation::new(lo, table).unwrap();
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            for _ in 0..4096 {
                x = x.wrapping_mul(0xd129_0b22_96e8_9f25).wrapping_add(1);
                assert_eq!(p.apply(x), p.apply_reference(x), "addr {x:#x}");
            }
            assert_eq!(p.apply(0), p.apply_reference(0));
            assert_eq!(p.apply(u64::MAX), p.apply_reference(u64::MAX));
        }
    }

    #[test]
    fn permutation_is_bijection_on_window() {
        let p = BitPermutation::new(0, vec![4, 2, 0, 3, 1]).unwrap();
        let mut seen = std::collections::HashSet::new();
        for x in 0..(1u64 << 5) {
            assert!(seen.insert(p.apply(x)), "collision at {x}");
        }
        assert_eq!(seen.len(), 32);
    }
}
