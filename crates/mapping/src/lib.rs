//! # sdam-mapping — PA→HA address mappings for 3D memory
//!
//! This crate implements the hardware contribution of the SDAM paper
//! (Zhang, Swift, Li, ASPLOS '22): the machinery that turns a flat
//! physical address (PA) into a hardware address (HA) whose bit fields
//! select channel, bank, row, and column in a 3D-stacked memory.
//!
//! It provides:
//!
//! * [`PhysAddr`] / [`MappingId`] newtypes,
//! * the [`AddressMapping`] trait with the three mapping families the
//!   paper evaluates:
//!   [`IdentityMapping`] (the boot-time Xilinx default, "BS+DM"),
//!   [`BitShuffleMapping`] (profiling-selected bit permutation, "BSM"),
//!   [`HashMapping`] (XOR entropy harvesting, "HM", after Liu et al.),
//! * [`BitPermutation`] — validated bit permutations, the software view
//!   of the AMU crossbar configuration,
//! * [`AmuConfig`] — the address mapping unit's compact
//!   `n × log2(n)`-bit crossbar configuration encoding (its datapath is
//!   [`BitPermutation::apply`]; its area model is [`area`]),
//! * [`Cmt`] — the two-level chunk mapping table (64 K chunk entries ×
//!   8-bit index + 256 mapping entries × 60-bit config ≈ 68 KB), which
//!   holds each registered mapping once, in the PA→HA direction,
//! * [`BitFlipRateVector`] — the BFRV profiling statistic (paper Eq. 1)
//!   and [`select::shuffle_for_bfrv`], which places the
//!   highest-flipping address bits into the channel field,
//! * [`area`] — the analytical resource model standing in for the
//!   paper's FPGA utilization table (Table 3),
//! * [`descriptor`] — a declarative builder compiling "put these PA
//!   bits on the channel" intent into a validated AMU configuration
//!   (the programmer path of paper §6.2).
//!
//! ## Example: a per-variable mapping beats the global default
//!
//! ```
//! use sdam_hbm::Geometry;
//! use sdam_mapping::{select, AddressMapping, BitFlipRateVector, PhysAddr};
//!
//! let geom = Geometry::hbm2_8gb();
//! // A stride-16 access stream (in 64 B lines).
//! let addrs: Vec<u64> = (0..4096).map(|i| i * 16 * 64).collect();
//! let bfrv = BitFlipRateVector::from_addrs(addrs.iter().copied(), geom.addr_bits());
//! let mapping = select::shuffle_for_bfrv(&bfrv, geom);
//! // The selected mapping spreads the stride across all channels.
//! let chans: std::collections::HashSet<u64> = addrs
//!     .iter()
//!     .map(|&a| geom.decode(mapping.map(PhysAddr(a))).channel)
//!     .collect();
//! assert_eq!(chans.len(), geom.num_channels());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod addr;
pub mod amu;
pub mod area;
pub mod bfrv;
pub mod cmt;
pub mod descriptor;
pub mod hash;
pub mod mapping;
pub mod perm;
pub mod select;
pub mod shuffle;

pub use addr::{MappingId, PhysAddr};
pub use amu::AmuConfig;
pub use bfrv::{BfrvAccumulator, BitFlipRateVector};
pub use cmt::{Cmt, CmtError, CmtLookupCache};
pub use hash::{optimize_hash, HashMapping};
pub use mapping::{AddressMapping, IdentityMapping};
pub use perm::{timing_classes, BitPermutation, PermError, TimingClasses};
pub use shuffle::BitShuffleMapping;
