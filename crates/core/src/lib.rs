//! # sdam — Software-Defined Address Mapping
//!
//! A library reproduction of Zhang, Swift, Li,
//! *Software-Defined Address Mapping: A Case on 3D Memory*
//! (ASPLOS '22): user programs control the DRAM physical-to-hardware
//! address mapping per data structure, so every variable's access
//! pattern spreads across the channel-level parallelism (CLP) of
//! 3D-stacked memory.
//!
//! This crate is the top of the stack. It wires together:
//!
//! * [`sdam_hbm`] — the HBM channel/bank/row simulator,
//! * [`sdam_mapping`] — AMU crossbar mappings, the CMT, BFRV profiling,
//! * [`sdam_mem`] — the chunk-based physical allocator and the
//!   mapping-aware multi-heap malloc,
//! * [`sdam_trace`] — traces and variable-level profiling,
//! * [`sdam_ml`] — K-Means and the DL-assisted (LSTM autoencoder)
//!   mapping selection,
//! * [`sdam_sys`] — the core / accelerator execution model,
//! * [`sdam_workloads`] — the paper's benchmarks,
//!
//! into two public layers:
//!
//! 1. [`system::SdamSystem`] — the "OS + hardware" object a program
//!    talks to: `add_mapping()` (the paper's `add_addr_map()`),
//!    mapping-aware allocation, demand paging, CMT maintenance, and
//!    address translation all the way to memory coordinates.
//! 2. [`pipeline`] — the evaluation harness: profile a workload,
//!    select mappings under one of the paper's six
//!    [`SystemConfig`]urations, allocate, execute on the machine
//!    model, and report speedups.
//!
//! ## Quickstart
//!
//! ```
//! use sdam::{pipeline, Experiment, SystemConfig};
//! use sdam_workloads::datacopy::DataCopy;
//!
//! // A 4-thread data copy with a channel-hostile stride.
//! let workload = DataCopy::new(vec![32]);
//! let exp = Experiment::quick();
//! let cmp = pipeline::try_compare(
//!     &workload,
//!     &[SystemConfig::BsDm, SystemConfig::SdmBsm],
//!     &exp,
//! )?;
//! // SDAM beats the fixed default mapping on this workload.
//! assert!(cmp.speedup_of(SystemConfig::SdmBsm).unwrap() > 1.2);
//! # Ok::<(), sdam::SdamError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod config;
pub mod error;
pub mod metrics;
pub mod par;
pub mod pipeline;
pub mod probing;
pub mod profiling;
pub mod report;
pub mod stage;
pub mod system;

pub use config::{Experiment, Parallelism, SystemConfig};
pub use error::SdamError;
pub use report::{Comparison, PhaseTimes, RunResult};
pub use sdam_obs as obs;
pub use sdam_probe as probe;
pub use sdam_sys::ConfigError;
pub use system::{ProcessId, SdamSystem};
