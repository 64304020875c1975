//! The Address Mapping Unit (AMU): the paper's only datapath addition.
//!
//! The AMU is an `n × n` single-bit crossbar over the chunk-offset bits
//! (paper §5.2). Its configuration is `n` integers of `ceil(log2(n))`
//! bits — the closed-switch row for each column — so a 15-bit offset
//! needs `15 × 4 = 60` bits of configuration, the entry width of the
//! CMT's second-level table. The crossbar datapath itself is
//! [`BitPermutation::apply`]; this module holds the packed hardware
//! encoding of its configuration.

use crate::{BitPermutation, PermError};

/// Re-export of the access granularity for convenience.
pub use sdam_hbm::LINE_BYTES;

/// A packed AMU crossbar configuration: the 60-bit entry of the
/// hardware CMT's second-level table. The simulated [`crate::Cmt`]
/// keeps the decoded [`BitPermutation`] instead and packs it only to
/// report its storage.
///
/// # Example
///
/// ```
/// use sdam_mapping::{AmuConfig, BitPermutation};
///
/// let perm = BitPermutation::new(6, vec![2, 0, 1, 3])?;
/// let cfg = AmuConfig::pack(&perm);
/// assert_eq!(cfg.unpack(6).unwrap(), perm);
/// # Ok::<(), sdam_mapping::PermError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AmuConfig {
    bits: u128,
    n: u8,
}

impl AmuConfig {
    /// Packs a permutation into the hardware encoding.
    ///
    /// # Panics
    ///
    /// Panics if the permutation window exceeds 21 bits (a 2 MB chunk
    /// has 15 offset bits above the line offset; 21 leaves headroom for
    /// experiments with larger chunks).
    pub fn pack(perm: &BitPermutation) -> Self {
        let n = perm.len();
        assert!(n <= 21, "AMU supports at most 21 offset bits");
        let w = Self::field_width(n);
        let mut bits = 0u128;
        for (i, &src) in perm.table().iter().enumerate() {
            bits |= (src as u128) << (i as u32 * w);
        }
        AmuConfig { bits, n: n as u8 }
    }

    /// Unpacks into a permutation over `[lo, lo + n)`.
    ///
    /// # Errors
    ///
    /// Returns a [`PermError`] if the stored configuration is not a valid
    /// permutation (e.g. it was constructed from raw bits).
    pub fn unpack(&self, lo: u32) -> Result<BitPermutation, PermError> {
        let w = Self::field_width(self.n as usize);
        let mask = (1u128 << w) - 1;
        let table = (0..self.n as u32)
            .map(|i| ((self.bits >> (i * w)) & mask) as u32)
            .collect();
        BitPermutation::new(lo, table)
    }

    /// Storage size of this configuration in bits:
    /// `n × ceil(log2(n))` (paper: `15 × log2(15) ≈ 60` bits).
    pub fn storage_bits(&self) -> u32 {
        self.n as u32 * Self::field_width(self.n as usize)
    }

    fn field_width(n: usize) -> u32 {
        debug_assert!(n > 0);
        usize::BITS - (n - 1).leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sized_config_is_60_bits() {
        // 2 MB chunk, 64 B lines => 15 offset bits; 15 x 4 = 60.
        let perm = BitPermutation::identity(6, 15);
        let cfg = AmuConfig::pack(&perm);
        assert_eq!(cfg.storage_bits(), 60);
    }

    #[test]
    fn pack_unpack_round_trip() {
        let table: Vec<u32> = vec![14, 0, 7, 3, 12, 1, 9, 5, 13, 2, 10, 6, 11, 4, 8];
        let perm = BitPermutation::new(6, table).unwrap();
        let cfg = AmuConfig::pack(&perm);
        assert_eq!(cfg.unpack(6).unwrap(), perm);
    }

    #[test]
    fn field_width_math() {
        assert_eq!(AmuConfig::field_width(2), 1);
        assert_eq!(AmuConfig::field_width(4), 2);
        assert_eq!(AmuConfig::field_width(15), 4);
        assert_eq!(AmuConfig::field_width(16), 4);
        assert_eq!(AmuConfig::field_width(17), 5);
    }
}
