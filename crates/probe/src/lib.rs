//! # sdam-probe — black-box reverse engineering of address mappings
//!
//! The paper's forward direction is "pick a mapping, measure the
//! traffic"; this crate closes the loop in the inverse direction, after
//! the timing-side-channel line of work (Sudoku, Knock-Knock — see
//! PAPERS.md): an [`Agent`] that sees a memory system only through an
//! opaque [`ProbeTarget`] — one `access(va) -> latency` method and a
//! `settle()` barrier — and reconstructs, from address-pair timing
//! experiments alone:
//!
//! 1. the device's **latency classes** (row hit / closed bank / row
//!    conflict) via an online threshold [`Calibrator`],
//! 2. the controller's **bank-address fold** of row bits into the bank
//!    field ([`Agent::recover_bank_fold`]),
//! 3. a global XOR **hash mapping's source sets** by GF(2) Gaussian
//!    elimination over observed conflict bits
//!    ([`Agent::recover_channel_hash`]),
//! 4. the active AMU **bit permutation** over a chunk window by
//!    adaptive bit-flip probing ([`Agent::recover_permutation`]).
//!
//! The agent is given the device *datasheet* — the
//! [`Geometry`](sdam_hbm::Geometry) field layout, which is public
//! information — but never the mapping: the trait object has no way to
//! reach [`Cmt::translate_under`](sdam_mapping::Cmt::translate_under)
//! or any other ground-truth API. Recovery is exact up to the
//! *timing-canonical* form (see
//! [`BitPermutation::timing_canonical`](sdam_mapping::BitPermutation::timing_canonical)
//! and
//! [`HashMapping::timing_canonical`](sdam_mapping::HashMapping::timing_canonical)):
//! the gauge freedom a latency-only observer provably cannot resolve.
//!
//! ## The probe pair protocol
//!
//! Every experiment is `settle(); access(base); access(base ^ delta)`
//! with the second arrival spaced past the row-cycle time, so the
//! second latency depends only on where `delta` lands after the
//! mapping:
//!
//! * different channel or different effective bank → **closed** access,
//! * same effective bank, different row → row **conflict**,
//! * same row (column-only delta) → row **hit**.
//!
//! Because every mapping stage in this codebase is linear over GF(2),
//! the outcome is a function of `delta` alone — the agent exploits this
//! by probing canonical basis deltas and compensating known fold terms.
//!
//! ## Example
//!
//! ```
//! use sdam_hbm::{Cycle, Geometry};
//! use sdam_probe::{Agent, ProbeTarget};
//!
//! // A toy target: identity mapping, three hard-coded latency classes.
//! struct Toy {
//!     geom: Geometry,
//!     open: std::collections::HashMap<(u64, u64), u64>,
//! }
//! impl ProbeTarget for Toy {
//!     fn probe_bits(&self) -> u32 {
//!         self.geom.addr_bits()
//!     }
//!     fn settle(&mut self) {
//!         self.open.clear();
//!     }
//!     fn access(&mut self, va: u64) -> Cycle {
//!         let d = self.geom.decode(sdam_hbm::HardwareAddr(va));
//!         let d = sdam_hbm::bank_hashed(self.geom, d);
//!         let lat = match self.open.get(&(d.channel, d.bank)) {
//!             Some(&row) if row == d.row => 18,
//!             Some(_) => 46,
//!             None => 32,
//!         };
//!         self.open.insert((d.channel, d.bank), d.row);
//!         lat
//!     }
//! }
//!
//! let geom = Geometry::hbm2_8gb();
//! let agent = Agent::new(geom);
//! let mut target = Toy { geom, open: Default::default() };
//! let fold = agent.recover_bank_fold(&mut target).unwrap();
//! // Every row bit folds onto row-index mod bank_bits.
//! for (j, class) in fold.classes.iter().enumerate() {
//!     assert_eq!(*class, Some(j as u32 % geom.bank_bits()));
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod agent;
mod calibrate;
mod gf2;
pub mod report;
mod target;

pub use agent::{Agent, FoldRecovery, HashRecovery, PermRecovery, RecoveryError};
pub use calibrate::{Calibrator, LatencyClass};
pub use report::{FunctionReport, RecoveryReport};
pub use target::ProbeTarget;
