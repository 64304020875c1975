//! Memory geometry: the hardware-address bit layout of a 3D memory device.
//!
//! A *hardware address* (HA) is the flat integer the memory controller
//! hands to the device after PA→HA mapping. The device interprets it as a
//! tuple of fields, laid out LSB-first as
//!
//! ```text
//!   | row | bank | column | channel | byte-offset |
//!   MSB                                        LSB
//! ```
//!
//! The byte offset addresses within one 64 B line and is never remapped
//! (requests are line-granular). The *column* selects a line within the
//! open row buffer; channel/bank/row select the storage location. The
//! channel field sits immediately above the line offset, which is the
//! boot-time default of the paper's Xilinx HBM controller IP (and the
//! "mapping 1" of its Fig. 2): consecutive lines land on consecutive
//! channels, while strides of `num_channels` lines or more collapse onto
//! a single channel — exactly the Fig. 3(a) behaviour.

use crate::LINE_BYTES;

/// A flat hardware address as seen by the memory device, in bytes.
///
/// `HardwareAddr` is the output of PA→HA mapping and the input to
/// [`Geometry::decode`]. It is a plain byte address: bits below
/// `log2(LINE_BYTES)` are the within-line offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct HardwareAddr(pub u64);

impl HardwareAddr {
    /// Returns the raw 64-bit value.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl From<u64> for HardwareAddr {
    fn from(v: u64) -> Self {
        HardwareAddr(v)
    }
}

impl std::fmt::Display for HardwareAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HA:{:#x}", self.0)
    }
}

impl std::fmt::LowerHex for HardwareAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::LowerHex::fmt(&self.0, f)
    }
}

/// A hardware address decoded into device coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct DecodedAddr {
    /// Row index within the bank.
    pub row: u64,
    /// Bank index within the channel.
    pub bank: u64,
    /// Channel index within the device.
    pub channel: u64,
    /// Column (line index) within the row buffer.
    pub col: u64,
}

impl std::fmt::Display for DecodedAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ch{} b{} r{} c{}",
            self.channel, self.bank, self.row, self.col
        )
    }
}

/// Errors from constructing a [`Geometry`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GeometryError {
    /// A field width was zero or the total exceeded 58 usable bits.
    InvalidBits {
        /// Human-readable description of the offending field.
        what: &'static str,
    },
}

impl std::fmt::Display for GeometryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GeometryError::InvalidBits { what } => {
                write!(f, "invalid geometry bit layout: {what}")
            }
        }
    }
}

impl std::error::Error for GeometryError {}

/// The organization of a 3D memory device and its HA bit layout.
///
/// `Geometry` is `Copy`: it is a handful of small integers, and nearly
/// every component of the stack (mappings, allocators, the system model)
/// carries one around.
///
/// # Example
///
/// ```
/// use sdam_hbm::Geometry;
///
/// let g = Geometry::hbm2_8gb();
/// assert_eq!(g.num_channels(), 32);
/// assert_eq!(g.row_bytes(), 256);
/// assert_eq!(g.capacity_bytes(), 8 << 30);
/// let ha = g.encode(3, 2, 17, 1);
/// let d = g.decode(ha);
/// assert_eq!((d.row, d.bank, d.channel, d.col), (3, 2, 17, 1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Geometry {
    line_bits: u32,
    col_bits: u32,
    channel_bits: u32,
    bank_bits: u32,
    row_bits: u32,
}

/// The presets, checked at compile time: an invalid layout fails the
/// build instead of panicking at run time.
const HBM2_8GB: Geometry = preset(Geometry::new(2, 5, 4, 16));
const HBM2_4GB: Geometry = preset(Geometry::new(2, 4, 4, 16));
const DDR4_8GB: Geometry = preset(Geometry::new(5, 2, 4, 16));
const HMC_4GB: Geometry = preset(Geometry::new(2, 4, 3, 17));

const fn preset(geometry: Result<Geometry, GeometryError>) -> Geometry {
    match geometry {
        Ok(g) => g,
        Err(_) => panic!("invalid geometry preset"),
    }
}

impl Geometry {
    /// Creates a geometry from field widths (in bits).
    ///
    /// Field order, LSB-first: 6-bit line offset (implied), then
    /// `channel_bits`, `col_bits`, `bank_bits`, `row_bits`.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::InvalidBits`] if `channel_bits`,
    /// `bank_bits`, or `row_bits` is zero, or if the total address width
    /// exceeds 58 bits (we reserve headroom in a `u64`). `col_bits == 0`
    /// is allowed: a row buffer holding a single line.
    pub const fn new(
        col_bits: u32,
        channel_bits: u32,
        bank_bits: u32,
        row_bits: u32,
    ) -> Result<Self, GeometryError> {
        if channel_bits == 0 {
            return Err(GeometryError::InvalidBits {
                what: "channel_bits must be > 0",
            });
        }
        if bank_bits == 0 {
            return Err(GeometryError::InvalidBits {
                what: "bank_bits must be > 0",
            });
        }
        if row_bits == 0 {
            return Err(GeometryError::InvalidBits {
                what: "row_bits must be > 0",
            });
        }
        let line_bits = LINE_BYTES.trailing_zeros();
        let total = line_bits + col_bits + channel_bits + bank_bits + row_bits;
        if total > 58 {
            return Err(GeometryError::InvalidBits {
                what: "total address width exceeds 58 bits",
            });
        }
        Ok(Geometry {
            line_bits,
            col_bits,
            channel_bits,
            bank_bits,
            row_bits,
        })
    }

    /// The paper's device: two HBM2 stacks, 8 GB, 32 channels, 16 banks
    /// per channel, 256 B row buffers.
    ///
    /// Layout: 6 b line + 2 b column + 5 b channel + 4 b bank + 16 b row
    /// = 33 bits = 8 GB.
    pub fn hbm2_8gb() -> Self {
        HBM2_8GB
    }

    /// A single HBM2 stack: 4 GB, 16 channels (the configuration of the
    /// paper's Fig. 2 example: 4-bit channel field).
    pub fn hbm2_4gb() -> Self {
        HBM2_4GB
    }

    /// A DDR4-like organization for comparison experiments: 4 channels,
    /// 16 banks, 2 KB row buffers, 8 GB.
    pub fn ddr4_8gb() -> Self {
        DDR4_8GB
    }

    /// A Hybrid Memory Cube organization (the other 3D-memory
    /// realization the paper names): 16 vaults acting as channels,
    /// 8 banks per vault, 256 B rows, 4 GB.
    pub fn hmc_4gb() -> Self {
        HMC_4GB
    }

    /// Bits of within-line byte offset (always `log2(64) = 6`).
    #[inline]
    pub fn line_bits(&self) -> u32 {
        self.line_bits
    }

    /// Bits selecting the column (line) within a row buffer.
    #[inline]
    pub fn col_bits(&self) -> u32 {
        self.col_bits
    }

    /// Bits selecting the channel.
    #[inline]
    pub fn channel_bits(&self) -> u32 {
        self.channel_bits
    }

    /// Bits selecting the bank within a channel.
    #[inline]
    pub fn bank_bits(&self) -> u32 {
        self.bank_bits
    }

    /// Bits selecting the row within a bank.
    #[inline]
    pub fn row_bits(&self) -> u32 {
        self.row_bits
    }

    /// Total address width in bits (including the line offset).
    #[inline]
    pub fn addr_bits(&self) -> u32 {
        self.line_bits + self.col_bits + self.channel_bits + self.bank_bits + self.row_bits
    }

    /// Number of independent channels.
    #[inline]
    pub fn num_channels(&self) -> usize {
        1usize << self.channel_bits
    }

    /// Number of banks per channel.
    #[inline]
    pub fn banks_per_channel(&self) -> usize {
        1usize << self.bank_bits
    }

    /// Number of rows per bank.
    #[inline]
    pub(crate) fn rows_per_bank(&self) -> u64 {
        1u64 << self.row_bits
    }

    /// Row-buffer size in bytes.
    #[inline]
    pub fn row_bytes(&self) -> u64 {
        LINE_BYTES << self.col_bits
    }

    /// Total device capacity in bytes.
    #[inline]
    pub fn capacity_bytes(&self) -> u64 {
        1u64 << self.addr_bits()
    }

    /// Encodes device coordinates into a flat [`HardwareAddr`].
    ///
    /// # Panics
    ///
    /// Panics (debug assertions) if any coordinate exceeds its field.
    pub fn encode(&self, row: u64, bank: u64, channel: u64, col: u64) -> HardwareAddr {
        debug_assert!(row < self.rows_per_bank());
        debug_assert!(bank < self.banks_per_channel() as u64);
        debug_assert!(channel < self.num_channels() as u64);
        debug_assert!(col < (1 << self.col_bits));
        let mut v = channel << self.line_bits;
        let mut shift = self.line_bits + self.channel_bits;
        v |= col << shift;
        shift += self.col_bits;
        v |= bank << shift;
        shift += self.bank_bits;
        v |= row << shift;
        HardwareAddr(v)
    }

    /// Decodes a flat hardware address into device coordinates.
    ///
    /// Bits above the device's address width are ignored (masked off), so
    /// any `u64` is acceptable input.
    pub fn decode(&self, ha: HardwareAddr) -> DecodedAddr {
        let mask = |bits: u32| -> u64 { (1u64 << bits) - 1 };
        let mut v = ha.0 >> self.line_bits;
        let channel = v & mask(self.channel_bits);
        v >>= self.channel_bits;
        let col = v & mask(self.col_bits);
        v >>= self.col_bits;
        let bank = v & mask(self.bank_bits);
        v >>= self.bank_bits;
        let row = v & mask(self.row_bits);
        DecodedAddr {
            row,
            bank,
            channel,
            col,
        }
    }
}

impl Default for Geometry {
    /// Defaults to the paper's [`Geometry::hbm2_8gb`] device.
    fn default() -> Self {
        Geometry::hbm2_8gb()
    }
}

impl std::fmt::Display for Geometry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ch x {} banks x {} rows x {} B rows ({} GB)",
            self.num_channels(),
            self.banks_per_channel(),
            self.rows_per_bank(),
            self.row_bytes(),
            self.capacity_bytes() >> 30
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hbm2_8gb_dimensions() {
        let g = Geometry::hbm2_8gb();
        assert_eq!(g.num_channels(), 32);
        assert_eq!(g.banks_per_channel(), 16);
        assert_eq!(g.row_bytes(), 256);
        assert_eq!(g.capacity_bytes(), 8 * (1 << 30));
        assert_eq!(g.addr_bits(), 33);
    }

    #[test]
    fn ddr4_has_fewer_channels_bigger_rows() {
        let d = Geometry::ddr4_8gb();
        let h = Geometry::hbm2_8gb();
        assert!(d.num_channels() < h.num_channels());
        assert!(d.row_bytes() > h.row_bytes());
        // Paper §2.1: 3D memory offers 8x more CLP with 8x smaller rows.
        assert_eq!(h.num_channels() / d.num_channels(), 8);
        assert_eq!(d.row_bytes() / h.row_bytes(), 8);
    }

    #[test]
    fn hmc_dimensions() {
        let g = Geometry::hmc_4gb();
        assert_eq!(g.num_channels(), 16, "16 vaults");
        assert_eq!(g.banks_per_channel(), 8);
        assert_eq!(g.row_bytes(), 256);
        assert_eq!(g.capacity_bytes(), 4 << 30);
    }

    #[test]
    fn encode_decode_round_trip() {
        let g = Geometry::hbm2_8gb();
        for row in [0u64, 1, 255, 65535] {
            for bank in [0u64, 7, 15] {
                for channel in [0u64, 13, 31] {
                    for col in [0u64, 3] {
                        let ha = g.encode(row, bank, channel, col);
                        let d = g.decode(ha);
                        assert_eq!(d.row, row);
                        assert_eq!(d.bank, bank);
                        assert_eq!(d.channel, channel);
                        assert_eq!(d.col, col);
                    }
                }
            }
        }
    }

    #[test]
    fn decode_masks_out_of_range_bits() {
        let g = Geometry::hbm2_4gb();
        let max = g.capacity_bytes();
        let d1 = g.decode(HardwareAddr(5));
        let d2 = g.decode(HardwareAddr(5 + max));
        assert_eq!(d1, d2);
    }

    #[test]
    fn consecutive_lines_interleave_channels_first() {
        // Boot-time default layout: lines 0..32 land on channels 0..32,
        // then the column advances — streaming uses every channel.
        let g = Geometry::hbm2_8gb();
        let nch = g.num_channels() as u64;
        let lines_per_row = g.row_bytes() / LINE_BYTES;
        for i in 0..(nch * lines_per_row) {
            let d = g.decode(HardwareAddr(i * LINE_BYTES));
            assert_eq!(d.channel, i % nch);
            assert_eq!(d.col, (i / nch) % lines_per_row);
            assert_eq!(d.row, 0);
        }
    }

    #[test]
    fn stride_of_num_channels_lines_pins_one_channel() {
        // The paper's Fig. 3 worst case: stride == channel count.
        let g = Geometry::hbm2_8gb();
        let nch = g.num_channels() as u64;
        for i in 0..128u64 {
            let d = g.decode(HardwareAddr(i * nch * LINE_BYTES));
            assert_eq!(d.channel, 0);
        }
    }

    #[test]
    fn invalid_geometries_rejected() {
        assert!(Geometry::new(2, 0, 4, 16).is_err());
        assert!(Geometry::new(2, 5, 0, 16).is_err());
        assert!(Geometry::new(2, 5, 4, 0).is_err());
        assert!(Geometry::new(20, 10, 10, 20).is_err());
        // col_bits == 0 is fine (single-line row buffer).
        assert!(Geometry::new(0, 5, 4, 16).is_ok());
    }

    #[test]
    fn display_is_informative() {
        let s = Geometry::hbm2_8gb().to_string();
        assert!(s.contains("32 ch"));
        assert!(s.contains("8 GB"));
    }
}
