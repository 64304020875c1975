//! Hashing-based address mapping ("HM"): XOR entropy harvesting.
//!
//! After Liu et al., *Get Out of the Valley: Power-Efficient Address
//! Mapping for GPUs* (ISCA '18) — the baseline the paper calls BS+HM.
//! Each channel bit of the hardware address is XORed with a spread of
//! higher address bits, so that *most* strides touch many channels
//! without any profiling. The construction is the classic
//! permutation-based interleaving of Zhang, Zhu & Zhang (MICRO-33):
//! `ha_channel = pa_channel ^ h(pa_high_bits)`, which is trivially
//! invertible because the high bits pass through unchanged.

use sdam_hbm::{Geometry, HardwareAddr};

use crate::{AddressMapping, PhysAddr};

/// An XOR-folding PA→HA mapping.
///
/// For every channel-field bit `i`, the output bit is the input bit
/// XORed with the parity of a source set taken from the bits above the
/// channel field: `src(i) = { i + k · stride : k = 1.. }` limited to the
/// address width. Every other bit passes through, so the sources read
/// the same bits before and after the fold and the mapping is its own
/// inverse: `map(map(pa)) == pa`.
///
/// # Example
///
/// ```
/// use sdam_hbm::{Geometry, HardwareAddr};
/// use sdam_mapping::{AddressMapping, HashMapping, PhysAddr};
///
/// let geom = Geometry::hbm2_8gb();
/// let hm = HashMapping::for_geometry(geom);
/// // Its own inverse: mapping twice restores every address.
/// for a in [0u64, 64, 4096, 123456789] {
///     assert_eq!(hm.map(PhysAddr(hm.map(PhysAddr(a)).raw())), HardwareAddr(a));
/// }
/// // A power-of-two stride that pins the identity mapping to one
/// // channel gets spread by the hash.
/// let chans: std::collections::HashSet<u64> = (0..256u64)
///     .map(|i| geom.decode(hm.map(PhysAddr(i * 64 * 32))).channel)
///     .collect();
/// assert!(chans.len() > 16);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashMapping {
    /// For each channel bit (window-relative), the absolute source bits
    /// XORed into it.
    sources: Vec<Vec<u32>>,
    /// `sources` as one address mask per channel bit: the parity of
    /// `addr & masks[i]` is the bit XORed into channel bit `i`.
    masks: Vec<u64>,
    channel_lo: u32,
    channel_bits: u32,
}

impl HashMapping {
    /// Builds the hash for a device geometry: channel bit `i` harvests
    /// every `channel_bits`-strided bit above the channel field.
    ///
    /// This maximizes entropy in the channel selector for the
    /// power-of-two strides that defeat the identity mapping, while
    /// remaining a fixed function of the address (no profiling) — the
    /// defining property of the paper's BS+HM baseline.
    pub fn for_geometry(geom: Geometry) -> Self {
        let channel_lo = geom.line_bits();
        let channel_bits = geom.channel_bits();
        let width = geom.addr_bits();
        let sources = (0..channel_bits)
            .map(|i| {
                let mut v = Vec::new();
                let mut b = channel_lo + channel_bits + i;
                while b < width {
                    v.push(b);
                    b += channel_bits;
                }
                v
            })
            .collect();
        HashMapping::from_sources(channel_lo, channel_bits, sources)
    }

    /// The one constructor every path goes through: derives the parity
    /// masks from `sources`. A bit listed twice cancels, as it does in
    /// an XOR walk over the list.
    fn from_sources(channel_lo: u32, channel_bits: u32, sources: Vec<Vec<u32>>) -> Self {
        let masks = sources
            .iter()
            .map(|set| set.iter().fold(0u64, |m, &b| m ^ (1 << b)))
            .collect();
        HashMapping {
            sources,
            masks,
            channel_lo,
            channel_bits,
        }
    }

    /// Builds a hash with explicit source sets (window-relative channel
    /// bit index → absolute source bit positions).
    ///
    /// # Panics
    ///
    /// Panics if `sources.len() != channel_bits as usize`, if the
    /// channel field reaches past bit 63, or if any source bit lies
    /// inside the channel field itself (which would break invertibility)
    /// or at bit 64 or above (outside every address).
    pub fn with_sources(channel_lo: u32, channel_bits: u32, sources: Vec<Vec<u32>>) -> Self {
        assert_eq!(
            sources.len(),
            channel_bits as usize,
            "one source set per channel bit"
        );
        assert!(
            u64::from(channel_lo) + u64::from(channel_bits) <= 64,
            "channel field {channel_lo}+{channel_bits} lies outside the address"
        );
        for set in &sources {
            for &b in set {
                assert!(
                    b < channel_lo || b >= channel_lo + channel_bits,
                    "source bit {b} lies inside the channel field"
                );
                assert!(b < 64, "source bit {b} lies outside the address");
            }
        }
        HashMapping::from_sources(channel_lo, channel_bits, sources)
    }

    /// The source sets: for each window-relative channel bit, the
    /// absolute address bits XORed into it (in construction order).
    pub fn sources(&self) -> &[Vec<u32>] {
        &self.sources
    }

    /// The lowest absolute bit of the channel field this hash targets.
    pub fn channel_lo(&self) -> u32 {
        self.channel_lo
    }

    /// The width of the channel field this hash targets.
    pub fn channel_bits(&self) -> u32 {
        self.channel_bits
    }

    /// The timing-equivalent canonical form of this hash on `geom`.
    ///
    /// A latency-only observer measures, for a probe delta `d`, whether
    /// the two accesses land in the same channel (`H(d) = 0`) and — when
    /// they do — whether they collide on the same *effective* bank under
    /// the controller's XOR fold of the row into the bank field. Any
    /// such delta flips an **even** number of members of each fold class
    /// `k` (the bank-field bit `k` plus the row bits `j ≡ k mod
    /// bank_bits`): an effective-bank match forces even parity per
    /// class. XORing one constant vector `u_k` into the hash columns of
    /// every class-`k` member therefore cancels out of every observable
    /// — the per-class *offset* of the columns is invisible, only the
    /// differences within a class are measurable.
    ///
    /// The canonical gauge pins that freedom: pick `u_k` = the column of
    /// bank bit `k`, zeroing every bank-field column. Two hashes are
    /// timing-indistinguishable on `geom` iff their canonical forms are
    /// equal, and a black-box recovery can be exact only up to this
    /// form. Source sets are sorted ascending.
    pub fn timing_canonical(&self, geom: Geometry) -> HashMapping {
        let bank_lo = geom.line_bits() + geom.channel_bits() + geom.col_bits();
        let row_lo = bank_lo + geom.bank_bits();
        let bank_bits = geom.bank_bits();
        // column(b) = bitmask over channel bits i with b ∈ sources[i].
        let column = |sources: &[Vec<u32>], b: u32| -> u64 {
            sources
                .iter()
                .enumerate()
                .filter(|(_, set)| set.contains(&b))
                .fold(0u64, |m, (i, _)| m | (1 << i))
        };
        let mut sources = self.sources.clone();
        for k in 0..bank_bits {
            let u = column(&sources, bank_lo + k);
            if u == 0 {
                continue;
            }
            let members: Vec<u32> = std::iter::once(bank_lo + k)
                .chain((row_lo..geom.addr_bits()).filter(|&b| (b - row_lo) % bank_bits == k))
                .collect();
            for (i, set) in sources.iter_mut().enumerate() {
                if (u >> i) & 1 == 0 {
                    continue;
                }
                for &b in &members {
                    if let Some(pos) = set.iter().position(|&x| x == b) {
                        set.remove(pos);
                    } else {
                        set.push(b);
                    }
                }
            }
        }
        for set in &mut sources {
            set.sort_unstable();
        }
        HashMapping::from_sources(self.channel_lo, self.channel_bits, sources)
    }

    fn fold(&self, addr: u64) -> u64 {
        let mut out = addr;
        for (i, &mask) in self.masks.iter().enumerate() {
            let parity = u64::from((addr & mask).count_ones() & 1);
            out ^= parity << (self.channel_lo + i as u32);
        }
        out
    }
}

/// Searches for a better XOR hash than the default fold, by greedy
/// coordinate descent on worst-case channel coverage over power-of-two
/// strides — the "more comprehensive hashing methods" the paper defers
/// to future work (§7.3: a theoretically perfect hash bought <3 % over
/// the default).
///
/// For each channel bit, the search toggles candidate source bits and
/// keeps a toggle when it improves the minimum number of distinct
/// channels touched across strides `1..=max_stride_lines` (128 accesses
/// each). Deterministic and dependency-free.
///
/// # Panics
///
/// Panics if `max_stride_lines` is zero.
pub fn optimize_hash(geom: Geometry, max_stride_lines: u64) -> HashMapping {
    assert!(
        max_stride_lines > 0,
        "need at least one stride to optimize for"
    );
    let channel_lo = geom.line_bits();
    let channel_bits = geom.channel_bits();
    let width = geom.addr_bits();

    let coverage = |hm: &HashMapping| -> usize {
        (1..=max_stride_lines)
            .map(|stride| {
                let mut seen = std::collections::HashSet::new();
                for i in 0..128u64 {
                    seen.insert(geom.decode(hm.map(PhysAddr(i * stride * 64))).channel);
                }
                seen.len()
            })
            .min()
            .unwrap_or(0)
    };

    let mut sources = HashMapping::for_geometry(geom).sources.clone();
    let mut best = coverage(&HashMapping::from_sources(
        channel_lo,
        channel_bits,
        sources.clone(),
    ));
    for ch_bit in 0..channel_bits as usize {
        for cand in (channel_lo + channel_bits)..width {
            let mut trial = sources.clone();
            if let Some(pos) = trial[ch_bit].iter().position(|&b| b == cand) {
                trial[ch_bit].remove(pos);
            } else {
                trial[ch_bit].push(cand);
            }
            let hm = HashMapping::from_sources(channel_lo, channel_bits, trial.clone());
            let c = coverage(&hm);
            if c > best {
                best = c;
                sources = trial;
            }
        }
    }
    HashMapping::from_sources(channel_lo, channel_bits, sources)
}

impl AddressMapping for HashMapping {
    fn map(&self, pa: PhysAddr) -> HardwareAddr {
        HardwareAddr(self.fold(pa.0))
    }

    fn name(&self) -> &str {
        "HM"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// `hm` is its own inverse on `a`.
    fn round_trips(hm: &HashMapping, a: u64) -> bool {
        hm.map(PhysAddr(hm.map(PhysAddr(a)).raw())).raw() == a
    }

    #[test]
    fn involution_round_trip() {
        let hm = HashMapping::for_geometry(Geometry::hbm2_8gb());
        for a in (0..100_000u64).step_by(977) {
            assert!(round_trips(&hm, a), "{a:#x}");
        }
    }

    #[test]
    fn hash_is_a_bijection_on_a_slab() {
        let hm = HashMapping::for_geometry(Geometry::hbm2_8gb());
        let mut seen = HashSet::new();
        for a in 0..(1u64 << 14) {
            assert!(seen.insert(hm.map(PhysAddr(a * 64)).raw()));
        }
    }

    #[test]
    fn spreads_power_of_two_strides() {
        let geom = Geometry::hbm2_8gb();
        let hm = HashMapping::for_geometry(geom);
        for stride_lines in [32u64, 64, 128, 256] {
            let chans: HashSet<u64> = (0..512u64)
                .map(|i| geom.decode(hm.map(PhysAddr(i * stride_lines * 64))).channel)
                .collect();
            assert!(
                chans.len() >= 16,
                "stride {stride_lines}: only {} channels",
                chans.len()
            );
        }
    }

    #[test]
    fn streaming_still_uses_all_channels() {
        let geom = Geometry::hbm2_8gb();
        let hm = HashMapping::for_geometry(geom);
        let chans: HashSet<u64> = (0..geom.num_channels() as u64)
            .map(|i| geom.decode(hm.map(PhysAddr(i * 64))).channel)
            .collect();
        assert_eq!(chans.len(), geom.num_channels());
    }

    #[test]
    #[should_panic(expected = "inside the channel field")]
    fn sources_inside_channel_field_rejected() {
        let _ = HashMapping::with_sources(6, 5, vec![vec![7], vec![], vec![], vec![], vec![]]);
    }

    #[test]
    #[should_panic(expected = "outside the address")]
    fn source_bit_beyond_the_address_rejected() {
        let _ = HashMapping::with_sources(6, 5, vec![vec![64], vec![], vec![], vec![], vec![]]);
    }

    #[test]
    #[should_panic(expected = "outside the address")]
    fn channel_field_beyond_the_address_rejected() {
        let _ = HashMapping::with_sources(62, 3, vec![vec![]; 3]);
    }

    #[test]
    fn optimized_hash_is_still_a_bijection() {
        let geom = Geometry::hbm2_8gb();
        let hm = optimize_hash(geom, 16);
        for a in (0..200_000u64).step_by(4093) {
            assert!(round_trips(&hm, a), "{a:#x}");
        }
    }

    #[test]
    fn optimized_hash_never_worse_than_default() {
        let geom = Geometry::hbm2_8gb();
        let default = HashMapping::for_geometry(geom);
        let tuned = optimize_hash(geom, 32);
        let worst = |hm: &HashMapping| {
            (1..=32u64)
                .map(|stride| {
                    let chans: HashSet<u64> = (0..128u64)
                        .map(|i| geom.decode(hm.map(PhysAddr(i * stride * 64))).channel)
                        .collect();
                    chans.len()
                })
                .min()
                .unwrap()
        };
        assert!(worst(&tuned) >= worst(&default));
    }

    #[test]
    fn canonical_is_idempotent_and_gauges_bank_columns() {
        let geom = Geometry::hbm2_8gb();
        let bank_lo = 13u32;
        let bank_hi = 17u32;
        for hm in [
            HashMapping::for_geometry(geom),
            HashMapping::with_sources(
                6,
                5,
                vec![vec![14, 20], vec![13], vec![], vec![31, 32], vec![11, 16]],
            ),
        ] {
            let canon = hm.timing_canonical(geom);
            assert_eq!(canon.timing_canonical(geom), canon);
            for set in canon.sources() {
                assert!(
                    set.iter().all(|&b| !(bank_lo..bank_hi).contains(&b)),
                    "bank columns must be gauged to zero: {set:?}"
                );
            }
        }
    }

    #[test]
    fn canonical_preserves_observable_deltas() {
        let geom = Geometry::hbm2_8gb();
        let hm = HashMapping::for_geometry(geom);
        let canon = hm.timing_canonical(geom);
        // H(d) read off the channel field (the map is linear in GF(2)).
        let h = |m: &HashMapping, d: u64| m.map(PhysAddr(d)).raw() ^ d;
        let (bank_lo, row_lo, bank_bits, width) = (13u32, 17u32, 4u32, 33u32);
        // A same-effective-bank experiment can only realize deltas that
        // flip an even number of members per fold class; pairs within a
        // class span that space and must hash identically.
        for k in 0..bank_bits {
            let members: Vec<u32> = std::iter::once(bank_lo + k)
                .chain((row_lo..width).filter(|&b| (b - row_lo) % bank_bits == k))
                .collect();
            for i in 0..members.len() {
                for j in (i + 1)..members.len() {
                    let d = (1u64 << members[i]) | (1u64 << members[j]);
                    assert_eq!(h(&hm, d), h(&canon, d), "delta {d:#x}");
                }
            }
        }
        // Column-field deltas are observable singletons.
        for b in 11..13u32 {
            assert_eq!(h(&hm, 1u64 << b), h(&canon, 1u64 << b));
        }
    }

    #[test]
    fn not_optimal_for_all_strides() {
        // Paper §7.4: "the hashing function cannot cover all possible
        // [patterns]". Find at least one stride where HM leaves channels
        // idle — the gap SDAM closes.
        let geom = Geometry::hbm2_8gb();
        let hm = HashMapping::for_geometry(geom);
        let mut worst = usize::MAX;
        for stride in 1..=64u64 {
            let chans: HashSet<u64> = (0..256u64)
                .map(|i| geom.decode(hm.map(PhysAddr(i * stride * 64))).channel)
                .collect();
            worst = worst.min(chans.len());
        }
        assert!(
            worst < geom.num_channels(),
            "HM should not be universally optimal"
        );
    }
}
