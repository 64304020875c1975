//! # sdam-hbm — a 3D-stacked (HBM) memory simulator
//!
//! This crate is the hardware substrate of the SDAM reproduction
//! (Zhang, Swift, Li. *Software-Defined Address Mapping: A Case on 3D
//! Memory*, ASPLOS '22). The paper evaluates on a Xilinx VU37P FPGA with
//! two in-package HBM2 stacks (32 channels, 256 B row buffers). We do not
//! have that hardware, so this crate provides an event-driven,
//! cycle-approximate simulator of the same memory organization:
//!
//! * a [`Geometry`] describing channels / banks / rows / row-buffer size
//!   and the hardware-address bit layout,
//! * a [`Timing`] model (tRCD / tRP / CL / tBURST / tRAS in controller
//!   cycles) with presets for HBM2 and DDR4,
//! * per-bank row-buffer state machines ([`bank::BankState`]),
//! * per-channel schedulers with a bounded FR-FCFS reorder window
//!   ([`channel::ChannelSim`]),
//! * the top-level [`Hbm`] device that services streams of decoded
//!   hardware addresses and reports [`SimStats`] (throughput, makespan,
//!   row-hit rate, per-channel load, CLP utilization). Open-loop runs
//!   drain in fixed blocks, so a stream of any length, even one read
//!   off disk, runs in bounded memory.
//!
//! The simulator reproduces the *contention structure* that every figure
//! in the paper depends on: requests to distinct channels proceed fully in
//! parallel, requests to the same channel serialize on the channel data
//! bus, and requests to the same bank additionally pay row-buffer
//! management latencies. Absolute GB/s numbers differ from the FPGA
//! testbed; shapes (linear CLP scaling, stride-induced collapse,
//! mapping-dependent crossovers) are preserved.
//!
//! ## Example
//!
//! ```
//! use sdam_hbm::{Geometry, Hbm, Timing};
//!
//! let geom = Geometry::hbm2_8gb();
//! let mut hbm = Hbm::new(geom, Timing::hbm2());
//! // A perfectly channel-interleaved stream: one access per channel.
//! let addrs: Vec<_> = (0..geom.num_channels() as u64)
//!     .map(|ch| geom.decode(geom.encode(0, 0, ch, 0)))
//!     .collect();
//! let stats = hbm.run_open_loop(addrs);
//! assert_eq!(stats.requests, geom.num_channels() as u64);
//! assert_eq!(stats.channels_touched(), geom.num_channels());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod arena;
pub mod bank;
pub mod channel;
pub mod geometry;
mod sim;
pub mod stats;
pub mod timing;

pub use arena::DrainScratch;
pub use bank::RowOutcome;
pub use geometry::{DecodedAddr, Geometry, HardwareAddr};
pub use sim::{bank_hashed, bank_hashed_reference, open_loop_reference, Hbm};
pub use stats::{ChannelStats, SimStats};
pub use timing::Timing;

/// A memory-controller clock cycle count.
///
/// All latencies and timestamps in this crate are expressed in controller
/// cycles; the device clock converts cycle counts to wall-clock time.
pub type Cycle = u64;

/// The access granularity of the memory system in bytes.
///
/// The paper uses the 64 B cache-line size of its RISC-V prototype; every
/// request services exactly one line.
pub const LINE_BYTES: u64 = 64;
