//! # sdam-obs — workspace-wide observability
//!
//! A deliberately tiny, zero-dependency metrics and event-tracing layer
//! shared by every SDAM crate. It exists because the paper's argument is
//! *measured*: per-channel bandwidth, row-buffer hit rates and profiling
//! cost are the evidence (SDAM §5–6), so the reproduction needs one
//! uniform way to count them rather than three divergent ad-hoc stat
//! structs.
//!
//! Three building blocks:
//!
//! * [`Registry`] — named monotonic counters, volatile (wall-clock)
//!   values, [`Log2Histogram`]s and an [`EventRing`], with a
//!   deterministic merge and a stable JSON snapshot.
//! * [`Log2Histogram`] / [`CountHistogram`] — fixed-bucket and exact
//!   histograms used both inside the registry and directly by
//!   `sdam-trace`'s stride profiling.
//! * [`EventRing`] — a bounded, sequence-numbered ring of structured
//!   events (chunk alloc/free, heap growth) that drops oldest-first and
//!   counts what it dropped.
//!
//! ## Determinism contract
//!
//! Everything in the *stable* snapshot ([`Registry::stable_json`]) must
//! be a pure function of the simulated run: counters, histograms and
//! events only. Wall-clock durations go in the *volatile* section
//! ([`Registry::set_volatile`]) and are excluded from `stable_json`, so
//! golden-snapshot and serial-vs-threaded bit-identity tests compare
//! stable output only. Maps are `BTreeMap`s and the JSON emitter is
//! hand-rolled, so two equal registries always serialize to byte-equal
//! strings.
//!
//! Sharded producers (e.g. the per-channel HBM drain workers) never
//! share a registry: each shard accumulates plain `u64` counters locally
//! and the driver merges them in shard-id order at the barrier via
//! [`Registry::merge`] or plain field addition. No atomics in hot loops.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod event;
mod hist;
mod json;
mod registry;

pub use event::{Event, EventRing};
pub use hist::{CountHistogram, Log2Histogram};
pub use registry::Registry;
