//! # sdam-sys — the full-system execution model
//!
//! The paper prototypes SDAM on a 4-core BOOM RISC-V (64 KB L1, 200 MHz)
//! with near-memory accelerators on a VU37P FPGA. This crate substitutes
//! a memory-level-parallelism (MLP) model for that hardware:
//!
//! * [`cache::Cache`] — a set-associative, LRU, write-allocate cache
//!   simulator used for per-core L1s (and an optional shared LLC),
//! * [`path::MappingEngine`] — the memory path: a global
//!   [`sdam_mapping::AddressMapping`] (the BS+* baselines) or the
//!   [`sdam_mapping::Cmt`]-driven per-chunk path (SDAM),
//! * [`machine::Machine`] — cores with a bounded window of outstanding
//!   misses issuing into the [`sdam_hbm::Hbm`] simulator; execution time
//!   is compute cycles plus memory stalls, so mapping-induced channel
//!   conflicts translate into wall-clock exactly as they do on the FPGA.
//!
//! Accelerators are the same machine with accelerator parameters: a much
//! larger outstanding-request window and little cache — the two reasons
//! the paper gives for accelerators benefiting more from SDAM (§7.4).
//!
//! ## Example
//!
//! ```
//! use sdam_hbm::Geometry;
//! use sdam_sys::machine::{Machine, MachineConfig};
//! use sdam_sys::path::MappingEngine;
//! use sdam_trace::gen::StrideGen;
//!
//! let geom = Geometry::hbm2_8gb();
//! let trace = StrideGen::new(0, 64, 10_000).into_trace();
//! let mut machine = Machine::new(MachineConfig::cpu(), geom);
//! let report = machine.run(&trace, &MappingEngine::identity());
//! assert!(report.cycles > 0);
//! assert_eq!(report.accesses, 10_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod adapt;
pub mod cache;
pub mod error;
pub mod machine;
pub mod path;
pub mod probe;

pub use adapt::{AdaptConfig, AdaptReport, ChunkTraffic};
pub use cache::{Cache, CacheConfig};
pub use error::ConfigError;
pub use machine::{safe_speedup, ExecutionReport, Machine, MachineConfig};
pub use path::{MappingEngine, TranslationCache, TranslationStats};
pub use probe::EngineTarget;
