//! A declarative mapping descriptor — the programmer-facing way to
//! write an address mapping (paper §6.2: "programmers can identify the
//! access pattern and select the address mapping directly from the
//! source code").
//!
//! Instead of hand-assembling a permutation table, a programmer states
//! *which physical-address bits should select the channel* (and
//! optionally the bank); the descriptor compiles that intent into a
//! validated [`BitPermutation`] for the AMU, placing all unmentioned
//! bits in priority order.
//!
//! ```
//! use sdam_hbm::Geometry;
//! use sdam_mapping::descriptor::MappingDescriptor;
//! use sdam_mapping::{AddressMapping, BitShuffleMapping, PhysAddr};
//!
//! // "My matrix is walked with a 2 KB stride: bits 11..16 vary fastest;
//! //  put them on the channel."
//! let geom = Geometry::hbm2_8gb();
//! let perm = MappingDescriptor::new(geom)
//!     .channel_bits([11, 12, 13, 14, 15])
//!     .compile_windowed(geom.addr_bits())?;
//! let m = BitShuffleMapping::new(perm);
//! let chans: std::collections::HashSet<u64> = (0..64u64)
//!     .map(|i| geom.decode(m.map(PhysAddr(i * 2048))).channel)
//!     .collect();
//! assert_eq!(chans.len(), 32);
//! # Ok::<(), sdam_mapping::descriptor::DescriptorError>(())
//! ```

use sdam_hbm::Geometry;

use crate::BitPermutation;

/// Errors from compiling a [`MappingDescriptor`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DescriptorError {
    /// A named source bit is outside the permutable window.
    BitOutOfRange {
        /// The offending physical-address bit.
        bit: u32,
        /// Lowest permutable bit (the line offset is fixed).
        lo: u32,
        /// One past the highest permutable bit.
        hi: u32,
    },
    /// A source bit was assigned to two fields.
    DuplicateBit {
        /// The duplicated bit.
        bit: u32,
    },
    /// More source bits were given for a field than it has.
    TooManyBits {
        /// The field name.
        field: &'static str,
        /// The field's width in bits.
        width: u32,
        /// How many sources were given.
        given: usize,
    },
    /// The window's top bit is not above the line offset, or lies past
    /// the device address width.
    WindowOutOfRange {
        /// The requested window top (one past its highest bit).
        window_hi: u32,
        /// Lowest permutable bit (the line offset is fixed).
        lo: u32,
        /// The device address width.
        addr_bits: u32,
    },
}

impl std::fmt::Display for DescriptorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DescriptorError::BitOutOfRange { bit, lo, hi } => {
                write!(f, "bit {bit} is outside the permutable window [{lo}, {hi})")
            }
            DescriptorError::DuplicateBit { bit } => {
                write!(f, "bit {bit} is assigned to more than one field")
            }
            DescriptorError::TooManyBits {
                field,
                width,
                given,
            } => {
                write!(
                    f,
                    "field `{field}` has {width} bits but {given} sources were given"
                )
            }
            DescriptorError::WindowOutOfRange {
                window_hi,
                lo,
                addr_bits,
            } => {
                write!(f, "window top {window_hi} is outside ({lo}, {addr_bits}]")
            }
        }
    }
}

impl std::error::Error for DescriptorError {}

/// A declarative description of where physical-address bits should go.
///
/// Compile with [`MappingDescriptor::compile_windowed`]: over the full
/// address width, or over the chunk-offset scope for the CMT.
#[derive(Debug, Clone)]
pub struct MappingDescriptor {
    geom: Geometry,
    channel: Vec<u32>,
    bank: Vec<u32>,
}

impl MappingDescriptor {
    /// Starts an empty descriptor for a device geometry.
    pub fn new(geom: Geometry) -> Self {
        MappingDescriptor {
            geom,
            channel: Vec::new(),
            bank: Vec::new(),
        }
    }

    /// Names the physical-address bits (LSB-first priority) that should
    /// drive the channel selector.
    pub fn channel_bits<I: IntoIterator<Item = u32>>(mut self, bits: I) -> Self {
        self.channel = bits.into_iter().collect();
        self
    }

    /// Names the bits that should drive the bank index.
    pub fn bank_bits<I: IntoIterator<Item = u32>>(mut self, bits: I) -> Self {
        self.bank = bits.into_iter().collect();
        self
    }

    /// Compiles restricted to the window `[line_bits, window_hi)`: the
    /// full device address width, or chunk-offset scope for CMT
    /// registration.
    ///
    /// # Errors
    ///
    /// [`DescriptorError::WindowOutOfRange`] unless `window_hi` lies in
    /// `(line_bits, addr_bits]`; otherwise a [`DescriptorError`] for
    /// out-of-range, duplicated, or over-long bit lists.
    pub fn compile_windowed(&self, window_hi: u32) -> Result<BitPermutation, DescriptorError> {
        let lo = self.geom.line_bits();
        let addr_bits = self.geom.addr_bits();
        if window_hi <= lo || window_hi > addr_bits {
            return Err(DescriptorError::WindowOutOfRange {
                window_hi,
                lo,
                addr_bits,
            });
        }
        let n = (window_hi - lo) as usize;

        // Validate the requested bits.
        let fields: [(&'static str, &[u32], u32); 2] = [
            ("channel", &self.channel, self.geom.channel_bits()),
            ("bank", &self.bank, self.geom.bank_bits()),
        ];
        let mut used = vec![false; n];
        for (field, bits, width) in fields {
            if bits.len() > width as usize {
                return Err(DescriptorError::TooManyBits {
                    field,
                    width,
                    given: bits.len(),
                });
            }
            for &b in bits {
                if b < lo || b >= window_hi {
                    return Err(DescriptorError::BitOutOfRange {
                        bit: b,
                        lo,
                        hi: window_hi,
                    });
                }
                let idx = (b - lo) as usize;
                if used[idx] {
                    return Err(DescriptorError::DuplicateBit { bit: b });
                }
                used[idx] = true;
            }
        }

        // Destination positions per field (window-relative), LSB-first:
        // channel, then bank above the column bits; column and row take
        // the rest.
        let ch_hi = lo + self.geom.channel_bits();
        let col_hi = ch_hi + self.geom.col_bits();
        let bank_hi = col_hi + self.geom.bank_bits();
        let field_dests =
            |a: u32, b: u32| -> Vec<u32> { (a..b.min(window_hi)).map(|d| d - lo).collect() };
        let dests = [field_dests(lo, ch_hi), field_dests(col_hi, bank_hi)];

        let mut table = vec![u32::MAX; n];
        let mut taken_dest = vec![false; n];
        // Place requested sources.
        for ((_, bits, _), dest_list) in fields.iter().zip(&dests) {
            for (&src, &dest) in bits.iter().zip(dest_list.iter()) {
                table[dest as usize] = src - lo;
                taken_dest[dest as usize] = true;
            }
        }
        // Fill the rest: unused sources into untaken destinations, in
        // ascending order (identity-like for everything unspecified).
        let mut free_sources = (0..n as u32).filter(|&s| !used[s as usize]);
        for d in 0..n {
            if !taken_dest[d] {
                if let Some(s) = free_sources.next() {
                    table[d] = s;
                }
            }
        }
        // Any imbalance above would leave a `u32::MAX` hole that the
        // permutation constructor rejects — an internal bug, not an
        // input error, so it stays a panic rather than a variant.
        match BitPermutation::new(lo, table) {
            Ok(p) => Ok(p),
            Err(e) => panic!("compiled table is not a permutation: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AddressMapping, BitShuffleMapping, PhysAddr};
    use std::collections::HashSet;

    fn geom() -> Geometry {
        Geometry::hbm2_8gb()
    }

    #[test]
    fn channel_request_is_honored() {
        let perm = MappingDescriptor::new(geom())
            .channel_bits([11, 12, 13, 14, 15])
            .compile_windowed(geom().addr_bits())
            .unwrap();
        let m = BitShuffleMapping::new(perm);
        // Stride 2 KB cycles the requested bits → all channels.
        let chans: HashSet<u64> = (0..64u64)
            .map(|i| geom().decode(m.map(PhysAddr(i * 2048))).channel)
            .collect();
        assert_eq!(chans.len(), 32);
    }

    #[test]
    fn unspecified_bits_stay_near_identity() {
        // Asking for nothing compiles to the identity.
        let perm = MappingDescriptor::new(geom())
            .compile_windowed(geom().addr_bits())
            .unwrap();
        assert_eq!(perm, BitPermutation::identity(6, 27));
    }

    #[test]
    fn partial_channel_request_fills_remaining_lanes() {
        // Only 2 of 5 channel bits named: the rest are filled but the
        // named ones land exactly where asked.
        let perm = MappingDescriptor::new(geom())
            .channel_bits([20, 21])
            .compile_windowed(geom().addr_bits())
            .unwrap();
        let m = BitShuffleMapping::new(perm);
        assert_eq!(m.map(PhysAddr(1 << 20)).raw(), 1 << 6);
        assert_eq!(m.map(PhysAddr(1 << 21)).raw(), 1 << 7);
    }

    #[test]
    fn bank_request() {
        let perm = MappingDescriptor::new(geom())
            .channel_bits([14, 15, 16, 17, 18])
            .bank_bits([21, 22])
            .compile_windowed(geom().addr_bits())
            .unwrap();
        let m = BitShuffleMapping::new(perm);
        let d = geom().decode(m.map(PhysAddr(1 << 21)));
        assert_eq!(d.bank, 1);
        // Round-trips through the inverse permutation.
        let inverse = m.permutation().invert();
        for a in (0..1u64 << 24).step_by(0x77777) {
            assert_eq!(inverse.apply(m.map(PhysAddr(a)).raw()), a);
        }
    }

    #[test]
    fn errors_detected() {
        assert_eq!(
            MappingDescriptor::new(geom())
                .channel_bits([3])
                .compile_windowed(geom().addr_bits()),
            Err(DescriptorError::BitOutOfRange {
                bit: 3,
                lo: 6,
                hi: 33
            })
        );
        assert_eq!(
            MappingDescriptor::new(geom())
                .channel_bits([10])
                .bank_bits([10])
                .compile_windowed(geom().addr_bits()),
            Err(DescriptorError::DuplicateBit { bit: 10 })
        );
        assert_eq!(
            MappingDescriptor::new(geom())
                .channel_bits([10, 11, 12, 13, 14, 15])
                .compile_windowed(geom().addr_bits()),
            Err(DescriptorError::TooManyBits {
                field: "channel",
                width: 5,
                given: 6
            })
        );
    }

    #[test]
    fn windowed_compilation_fits_cmt() {
        let perm = MappingDescriptor::new(geom())
            .channel_bits([11, 12, 13, 14, 15])
            .compile_windowed(21)
            .unwrap();
        assert_eq!(perm.len(), 15, "chunk-offset width");
        let mut cmt = crate::Cmt::new(33, 21);
        cmt.register(crate::MappingId(1), &perm); // window matches
    }
}
