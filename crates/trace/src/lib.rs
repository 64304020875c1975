//! # sdam-trace — memory-access traces and variable-level profiling
//!
//! The SDAM paper (§6.2) selects address mappings from *per-variable*
//! physical-address traces: gcc emits a PC→variable table, a profiler
//! collects `(PC, physical address)` pairs for every external memory
//! access, and two-pass call-stack matching attributes heap accesses to
//! their allocation sites. This crate reproduces the trace side of that
//! pipeline as a library (the two-pass attribution itself lives in
//! `sdam::profiling`, which segregates each major variable onto its own
//! chunk group):
//!
//! * [`MemAccess`] / [`Trace`] — the access-record schema,
//! * [`gen`] — seeded synthetic generators (strided, random, mixed,
//!   interleaved multi-thread streams),
//! * [`profile`] — attribution of a trace to variables, identification
//!   of *major variables* (the few variables covering 80 % of
//!   references, paper Observation 3), and the Table-1 statistics,
//! * [`io`] — a compact versioned binary trace format for capture and
//!   replay,
//! * [`stats`] — descriptive statistics: stride histograms, working
//!   sets, reuse-distance profiles.
//!
//! ## Example
//!
//! ```
//! use sdam_trace::gen::StrideGen;
//! use sdam_trace::{profile, Trace, VariableId};
//!
//! // One hot variable and one cold one.
//! let mut trace = Trace::new();
//! StrideGen::new(0x1000, 64, 900).variable(VariableId(0)).emit(&mut trace);
//! StrideGen::new(0x8000_0000, 4096, 100).variable(VariableId(1)).emit(&mut trace);
//! let major = profile::major_variables(&trace, 0.8);
//! assert_eq!(major, vec![VariableId(0)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod access;
pub mod gen;
pub mod io;
pub mod profile;
pub mod stats;
pub mod trace;

pub use access::{MemAccess, ThreadId, VariableId};
pub use trace::Trace;
