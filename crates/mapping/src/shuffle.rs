//! Bit-shuffle address mapping ("BSM"): a profiling-selected permutation
//! of address bits.
//!
//! This is the mapping family the AMU implements in hardware. A
//! [`BitShuffleMapping`] wraps a validated [`BitPermutation`] over either
//! the full address (global BS+BSM baseline) or a chunk offset (SDAM
//! per-chunk use through the [`crate::Cmt`]).

use sdam_hbm::HardwareAddr;

use crate::{AddressMapping, BitPermutation, PhysAddr};

/// A PA→HA mapping that permutes a window of address bits.
///
/// # Example
///
/// ```
/// use sdam_mapping::{AddressMapping, BitPermutation, BitShuffleMapping, PhysAddr};
///
/// // Send PA bit 10 to the lowest channel bit (bit 6) and vice versa.
/// let mut table: Vec<u32> = (0..9).collect();
/// table.swap(0, 4); // window starts at bit 6: positions 0 and 4
/// let perm = BitPermutation::new(6, table)?;
/// let bsm = BitShuffleMapping::new(perm);
/// let ha = bsm.map(PhysAddr(1 << 10));
/// assert_eq!(ha.raw(), 1 << 6);
/// // The inverse permutation recovers the physical address.
/// assert_eq!(bsm.permutation().invert().apply(ha.raw()), 1 << 10);
/// # Ok::<(), sdam_mapping::PermError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitShuffleMapping {
    forward: BitPermutation,
}

impl BitShuffleMapping {
    /// Creates a bit-shuffle mapping from a validated permutation.
    pub fn new(perm: BitPermutation) -> Self {
        BitShuffleMapping { forward: perm }
    }

    /// The underlying forward permutation (the AMU configuration).
    pub fn permutation(&self) -> &BitPermutation {
        &self.forward
    }
}

impl AddressMapping for BitShuffleMapping {
    fn map(&self, pa: PhysAddr) -> HardwareAddr {
        HardwareAddr(self.forward.apply(pa.0))
    }

    fn map_block(&self, addrs: &mut [u64]) {
        self.forward.apply_block(addrs);
    }

    fn name(&self) -> &str {
        "BSM"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reversal(lo: u32, n: usize) -> BitShuffleMapping {
        let table: Vec<u32> = (0..n as u32).rev().collect();
        BitShuffleMapping::new(BitPermutation::new(lo, table).unwrap())
    }

    #[test]
    fn round_trip_is_exhaustive_on_small_window() {
        let m = reversal(6, 8);
        let inverse = m.permutation().invert();
        for w in 0..(1u64 << 8) {
            let pa = PhysAddr((w << 6) | 0x15);
            assert_eq!(inverse.apply(m.map(pa).raw()), pa.raw());
        }
    }

    #[test]
    fn identity_shuffle_matches_identity_mapping() {
        use crate::IdentityMapping;
        let id = BitShuffleMapping::new(BitPermutation::identity(6, 15));
        for a in [0u64, 64, 4096, 0xabcdef] {
            assert_eq!(id.map(PhysAddr(a)), IdentityMapping.map(PhysAddr(a)));
        }
    }

    #[test]
    fn bits_outside_window_preserved() {
        let m = reversal(6, 15);
        let high = 0xff << 40;
        let low = 0x2a; // inside the 6-bit line offset
        let ha = m.map(PhysAddr(high | low));
        assert_eq!(ha.raw() & (0xff << 40), high);
        assert_eq!(ha.raw() & 0x3f, low);
    }

    #[test]
    fn name_is_bsm() {
        assert_eq!(reversal(6, 4).name(), "BSM");
    }
}
