//! The four workloads. Each builds its inputs from the seed in
//! `setup`, then runs identical timed passes over them; every simulated
//! result is folded into per-item digests so passes, seeds and traced
//! runs can be checked against each other.

pub mod churn;
pub mod fig12;
pub mod openloop;
pub mod replay;

use sdam_hbm::SimStats;
use sdam_sys::ExecutionReport;

use crate::span::Recorder;

/// Order-sensitive 64-bit fold of simulated results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0x243f_6a88_85a3_08d3)
    }
}

impl Digest {
    /// Folds one word.
    pub fn push(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    /// Folds a float by its bit pattern.
    pub fn push_f64(&mut self, x: f64) {
        self.push(x.to_bits());
    }

    /// The folded value.
    pub fn value(self) -> u64 {
        self.0
    }

    /// Folds the device statistics: request count, makespan, and every
    /// channel's row hits, misses, conflicts, refresh stalls, bus cycles
    /// and last completion.
    pub fn push_sim(&mut self, s: &SimStats) {
        self.push(s.requests);
        self.push(s.makespan);
        for c in &s.per_channel {
            for x in [
                c.requests,
                c.row_hits,
                c.row_misses,
                c.row_conflicts,
                c.refresh_stalls,
                c.bus_busy_cycles,
                c.last_completion,
            ] {
                self.push(x);
            }
        }
    }

    /// Folds a machine report: cycles, accesses, requests, L1 hits, the
    /// device statistics, per-core breakdown, translation memo counters
    /// and what adaptation did.
    pub fn push_report(&mut self, r: &ExecutionReport) {
        for x in [r.cycles, r.accesses, r.memory_requests, r.l1_hits] {
            self.push(x);
        }
        self.push_sim(&r.memory);
        for c in &r.per_core {
            for x in [c.cycles, c.accesses, c.misses, c.window_stall_cycles] {
                self.push(x);
            }
        }
        self.push(r.translation.memo_hits);
        self.push(r.translation.memo_misses);
        let a = &r.adapt;
        for x in [
            u64::from(a.enabled),
            a.windows,
            a.migrations,
            a.migrated_bytes,
            a.migration_requests,
            a.migration_clocks,
            a.migration_row_hits,
            a.migration_row_misses,
            a.migration_row_conflicts,
        ] {
            self.push(x);
        }
    }
}

/// One unit of work inside a pass: a fig12 cell, a machine run, an
/// open-loop run, a tenant op.
#[derive(Debug, Clone, Copy)]
pub struct Item {
    /// Host seconds the item took.
    pub secs: f64,
    /// Digest of its simulated result.
    pub digest: u64,
    /// False when the item returned an error or failed a check.
    pub ok: bool,
    /// Index into [`PassOut::kinds`].
    pub kind: u8,
}

/// What one pass produced.
#[derive(Debug, Default)]
pub struct PassOut {
    /// Items in run order.
    pub items: Vec<Item>,
    /// Simulated work done: accesses, requests or tenant ops.
    pub work: u64,
    /// Deterministic facts of the simulated results (rates, counts,
    /// speedups), reported beside the timings.
    pub facts: Vec<(&'static str, f64)>,
    /// Host-time figures a workload derives itself (e.g. adaptive minus
    /// static run time); never part of the digest.
    pub timings: Vec<(&'static str, f64)>,
    /// Names of the item kinds (span names), when a pass mixes kinds.
    pub kinds: &'static [&'static str],
    /// Whole-pass invariants that did not hold (conservation after a
    /// drain, a decomposition that disagrees with its report).
    pub check_failures: u64,
}

impl PassOut {
    /// Digest of every item and fact, in order.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for i in &self.items {
            d.push(i.digest);
            d.push(u64::from(i.ok));
        }
        for &(_, v) in &self.facts {
            d.push_f64(v);
        }
        d.value()
    }
}

/// A benchmark workload.
pub trait Workload {
    /// Inputs built by `setup` and reused by every pass.
    type State;

    /// Builds the inputs from the seed. Returns them with a digest of
    /// the inputs, which must repeat across set-up repetitions.
    fn setup(&self) -> (Self::State, u64);

    /// One pass over the inputs. `rec` records spans when tracing.
    fn pass(&self, state: &mut Self::State, rec: &mut Recorder) -> PassOut;

    /// Name of the simulated work unit (`accesses`, `requests`, `ops`).
    fn work_unit(&self) -> &'static str;

    /// Name of one item (`cell`, `run`, `op`).
    fn item_unit(&self) -> &'static str;

    /// Host seconds of one full-size pass on the 2-CPU reference host.
    /// `--seconds` divided by it fixes the timed-pass count, so the
    /// count never depends on how fast the code under test runs.
    fn nominal_pass_s(&self) -> f64;
}

/// `n / d` as a rate, 0 when nothing was counted.
pub fn rate(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// `splitmix64`: seeds per-stream generators from the benchmark seed.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::default();
        a.push(1);
        a.push(2);
        let mut b = Digest::default();
        b.push(2);
        b.push(1);
        assert_ne!(a, b);
    }

    #[test]
    fn pass_digest_sees_failures() {
        let ok = Item {
            secs: 0.0,
            digest: 7,
            ok: true,
            kind: 0,
        };
        let p = PassOut {
            items: vec![ok],
            ..PassOut::default()
        };
        let q = PassOut {
            items: vec![Item { ok: false, ..ok }],
            ..PassOut::default()
        };
        assert_ne!(p.digest(), q.digest());
    }
}
