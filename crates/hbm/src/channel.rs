//! Per-channel scheduling: bank bookkeeping plus data-bus arbitration.
//!
//! Each channel owns its banks and its data bus. There is one entry
//! point per operation:
//!
//! * `ChannelSim::service_in_order` serves one request in arrival
//!   order and returns its completion cycle and row-buffer outcome. The
//!   closed-loop system model (`sdam-sys`) uses it, because a core can
//!   only learn a miss's completion time when it issues it.
//! * [`ChannelSim::push`] queues a request for batch service, and
//!   [`ChannelSim::drain`] serves the queue with a bounded FR-FCFS
//!   reorder window: among the oldest `window` pending requests, row
//!   hits are preferred, otherwise the oldest is served. This is what
//!   real memory controllers (and the paper's Xilinx HBM controller)
//!   approximate. `ChannelSim::drain_partial` stops at the youngest
//!   `window - 1` requests, so a stream can be drained in blocks.
//!
//! Every request, queued or not, is served by the same private service
//! core. The batch path stores pending requests in a struct-of-arrays
//! `RequestArena` and drains them with a caller-owned [`DrainScratch`],
//! so a steady-state push/drain cycle performs no allocation at all (see
//! the `arena` module docs for the column layout and index-link
//! invariants). The definitional linear-scan scheduler is preserved as
//! [`ChannelSim::drain_reference`], the golden-equivalence oracle.

use crate::arena::{DrainScratch, RequestArena, NIL};
use crate::bank::{BankState, RowOutcome};
use crate::stats::ChannelStats;
use crate::{Cycle, DecodedAddr, Timing};

/// One memory channel: banks, a shared data bus, and a pending queue.
#[derive(Debug, Clone)]
pub struct ChannelSim {
    banks: Vec<BankState>,
    bus_free: Cycle,
    pending: RequestArena,
    stats: ChannelStats,
    /// Next refresh boundary (when the timing enables refresh).
    next_refresh: Cycle,
    /// Direction of the last data transfer (true = write).
    last_was_write: bool,
}

impl ChannelSim {
    /// Creates a channel with `num_banks` idle banks.
    ///
    /// # Panics
    ///
    /// Panics if `num_banks` is zero.
    pub fn new(num_banks: usize) -> Self {
        assert!(num_banks > 0, "a channel needs at least one bank");
        ChannelSim {
            banks: vec![BankState::new(); num_banks],
            bus_free: 0,
            pending: RequestArena::new(),
            stats: ChannelStats::default(),
            next_refresh: 0,
            last_was_write: false,
        }
    }

    /// Serves one request immediately (arrival order) and returns its
    /// completion cycle together with how it classified against the row
    /// buffer. Switching between reads and writes pays the channel's
    /// write-to-read turnaround (`tWTR`). The adaptive machine driver
    /// uses the outcome to attribute conflicts to chunks; it is the
    /// same classification the channel's [`ChannelStats`] count.
    ///
    /// # Panics
    ///
    /// Panics if `addr.bank` is out of range for this channel.
    pub(crate) fn service_in_order(
        &mut self,
        addr: DecodedAddr,
        is_write: bool,
        arrival: Cycle,
        timing: &Timing,
    ) -> (Cycle, RowOutcome) {
        self.service_core(addr.bank as usize, addr.row, is_write, arrival, timing)
    }

    /// The one service path every discipline funnels through: bank
    /// access, bus arbitration (with the write→read turnaround), refresh
    /// stalls, and stats recording. Taking the request as plain columns
    /// (`bank`, `row`, ...) instead of a [`DecodedAddr`] lets the arena
    /// drain feed it straight from its column slices.
    #[inline]
    fn service_core(
        &mut self,
        bank: usize,
        row: u64,
        is_write: bool,
        arrival: Cycle,
        timing: &Timing,
    ) -> (Cycle, RowOutcome) {
        let (data_ready, outcome) = self.banks[bank].access(row, arrival, timing);
        let mut start = data_ready.max(self.bus_free);
        // Only the write→read direction pays tWTR (writes are posted;
        // the constraint exists because read data follows write data on
        // the shared DQ pins). Controllers batch writes to amortize it.
        if self.last_was_write && !is_write {
            start += timing.t_wtr;
        }
        self.last_was_write = is_write;
        // Refresh: stall through any refresh window the transfer crosses.
        if timing.t_refi > 0 {
            if self.next_refresh == 0 {
                self.next_refresh = timing.t_refi;
            }
            // Catch up over an idle gap in one division: every boundary
            // whose recovery ends by `start` is a no-op iteration of the
            // stall loop below (it can neither move `start` nor fail the
            // loop condition), so jump straight past them instead of
            // spinning O(gap / tREFI) times.
            if self.next_refresh + timing.t_rfc < start {
                let skip = (start - timing.t_rfc - self.next_refresh) / timing.t_refi;
                self.next_refresh += skip * timing.t_refi;
            }
            while start + timing.t_burst > self.next_refresh {
                if self.next_refresh + timing.t_rfc > start {
                    // The recovery window actually pushes the transfer
                    // back (rather than the boundary having passed while
                    // the bus was busy anyway): that is a refresh stall.
                    self.stats.refresh_stalls += 1;
                    start = self.next_refresh + timing.t_rfc;
                }
                self.next_refresh += timing.t_refi;
            }
        }
        let completion = start + timing.t_burst;
        self.bus_free = completion;
        self.record(outcome, completion, timing);
        (completion, outcome)
    }

    /// Queues a request for batch (FR-FCFS) service. Writes drained
    /// later pay the same turnaround rules as
    /// `ChannelSim::service_in_order`.
    #[inline]
    pub fn push(&mut self, addr: DecodedAddr, is_write: bool, arrival: Cycle) {
        self.pending.push(addr, is_write, arrival);
    }

    /// Number of requests awaiting service.
    pub(crate) fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Reserves queue room for `additional` more pushes (a pure
    /// performance hint — the queue grows on demand regardless).
    pub(crate) fn reserve_pending(&mut self, additional: usize) {
        self.pending.reserve(additional);
    }

    /// Drains the pending queue with a bounded FR-FCFS reorder window,
    /// returning the completion cycle of the last request (0 if none).
    ///
    /// Among the oldest `window` pending requests, the scheduler serves
    /// the first row hit if any, otherwise the oldest request
    /// (first-ready, first-come-first-served). `window == 1` degenerates
    /// to in-order service.
    ///
    /// The pick is O(1) amortized in the queue length and the drain as a
    /// whole allocates nothing once the arena and scratch are warm:
    /// requests live in struct-of-arrays columns, the per-`(bank, row)`
    /// arrival lists are intrusive index links threaded through a single
    /// `u32` column, the row index is a generation-stamped
    /// open-addressing table, and a served request leaves a tombstone
    /// instead of shifting the queue. The pick order — and therefore
    /// every statistic — is identical to the linear-scan
    /// [`ChannelSim::drain_reference`], which is kept as the
    /// golden-equivalence oracle.
    ///
    /// `scratch` is workspace, never carried state: channels draining one
    /// after another (the serial device loop) share one, so a fresh
    /// device zeroes its scratch tables once instead of once per channel.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn drain(&mut self, window: usize, timing: &Timing, scratch: &mut DrainScratch) -> Cycle {
        self.drain_bounded(window, 0, timing, scratch)
    }

    /// Drains until fewer than `window` requests remain pending, leaving
    /// the youngest `window - 1` queued, and returns the completion
    /// cycle of the last request served here (0 if none).
    ///
    /// While at least `window` requests are unserved, every FR-FCFS pick
    /// admits only already-pushed requests to its reorder window, so
    /// interleaving pushes with partial drains is **bit-identical** to
    /// pushing everything and draining once. This is the streaming
    /// contract [`crate::Hbm::run_open_loop_windowed`] builds on:
    /// bounded memory without changing a single pick.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub(crate) fn drain_partial(
        &mut self,
        window: usize,
        timing: &Timing,
        scratch: &mut DrainScratch,
    ) -> Cycle {
        self.drain_bounded(window, window.saturating_sub(1), timing, scratch)
    }

    /// Serves pending requests in FR-FCFS order until only `keep`
    /// remain (fewer if fewer are pending); survivors stay queued in
    /// arrival order.
    fn drain_bounded(
        &mut self,
        window: usize,
        keep: usize,
        timing: &Timing,
        scratch: &mut DrainScratch,
    ) -> Cycle {
        assert!(window > 0, "reorder window must be >= 1");
        // Move the arena out so the hot loop can hold its column slices
        // across `service_core`'s `&mut self` calls; it is returned —
        // with its capacity — before any exit.
        let mut arena = std::mem::take(&mut self.pending);
        let n = arena.len();
        if n <= keep {
            self.pending = arena;
            return 0;
        }
        let serve_n = n - keep;
        let mut last = 0;
        scratch.begin(n, self.banks.len());
        // One pass threads every request onto its (bank, row) list in
        // arrival order.
        {
            let banks = arena.banks();
            let rows = arena.rows();
            for i in 0..n {
                scratch
                    .table
                    .insert(banks[i], rows[i], i as u32, &mut scratch.link);
            }
        }
        // Seed per-bank candidates from rows left open by earlier work.
        for (b, bank) in self.banks.iter().enumerate() {
            if let Some(row) = bank.open_row() {
                let h = scratch.table.find_head(b as u32, row);
                if h != NIL {
                    scratch.candidates[b] = h;
                    scratch.live_candidates += 1;
                }
            }
        }
        // Oldest unserved request (tombstones skipped lazily).
        let mut head = 0usize;
        for t in 0..serve_n {
            // Requests admitted to the reorder window so far are exactly
            // the unserved with index < entered (members only leave by
            // being served, and admission is in arrival order), so
            // eligibility is a single comparison.
            let entered = (t + window).min(n);
            // First-ready: the oldest in-window request whose bank holds
            // its row open, i.e. the minimum eligible candidate. NIL is
            // u32::MAX, so absent candidates lose every comparison.
            let mut pick = usize::MAX;
            if scratch.live_candidates > 0 {
                let mut best = NIL;
                for &c in &scratch.candidates {
                    if c < best {
                        best = c;
                    }
                }
                if (best as usize) < entered {
                    pick = best as usize;
                }
            }
            if pick == usize::MAX {
                while scratch.served[head] {
                    head += 1;
                }
                pick = head;
            }
            scratch.served[pick] = true;
            let b = arena.banks()[pick] as usize;
            last = self
                .service_core(
                    b,
                    arena.rows()[pick],
                    arena.is_writes()[pick],
                    arena.arrivals()[pick],
                    timing,
                )
                .0;
            // Serving mutates exactly one bank's row state, and the bank
            // now holds row[pick] open — so the only candidate to refresh
            // is bank b's. Within a (bank, row) list requests are served
            // strictly oldest-first (a row-hit pick is its list's oldest
            // unserved member; a default pick is the oldest unserved
            // overall), so `link[pick]` *is* the next unserved member:
            // no tombstone walk, no table lookup.
            let h = scratch.link[pick];
            let old = scratch.candidates[b];
            if old != NIL && h == NIL {
                scratch.live_candidates -= 1;
            } else if old == NIL && h != NIL {
                scratch.live_candidates += 1;
            }
            scratch.candidates[b] = h;
        }
        if keep == 0 {
            arena.clear();
        } else {
            arena.compact_unserved(&scratch.served);
        }
        self.pending = arena;
        last
    }

    /// The definitional FR-FCFS drain, kept as the oracle the indexed
    /// [`ChannelSim::drain`] is golden-equivalence tested against: the
    /// pick linearly scans the oldest `window` unserved requests for a
    /// row hit, else takes the oldest. Served requests leave tombstones
    /// — the O(n) `VecDeque::remove` the original scan-and-remove loop
    /// paid per service is gone, so the oracle itself stays usable on
    /// row-hit-heavy traces of hundreds of thousands of requests.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn drain_reference(&mut self, window: usize, timing: &Timing) -> Cycle {
        assert!(window > 0, "reorder window must be >= 1");
        let mut arena = std::mem::take(&mut self.pending);
        let n = arena.len();
        let mut served = vec![false; n];
        let mut head = 0usize;
        let mut last = 0;
        for _ in 0..n {
            while served[head] {
                head += 1;
            }
            // First-ready: the first row hit among the oldest `window`
            // unserved requests; otherwise the oldest.
            let mut pick = head;
            let mut live_seen = 0usize;
            let mut i = head;
            while i < n && live_seen < window {
                if !served[i] {
                    let b = arena.banks()[i] as usize;
                    if self.banks[b].classify(arena.rows()[i]) == RowOutcome::Hit {
                        pick = i;
                        break;
                    }
                    live_seen += 1;
                }
                i += 1;
            }
            served[pick] = true;
            last = self
                .service_core(
                    arena.banks()[pick] as usize,
                    arena.rows()[pick],
                    arena.is_writes()[pick],
                    arena.arrivals()[pick],
                    timing,
                )
                .0;
        }
        arena.clear();
        self.pending = arena;
        last
    }

    /// This channel's counters so far.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// Declares the channel idle through cycle `now`: every row is
    /// precharged (auto-precharge on idle), the write-to-read turnaround
    /// state is cleared, and — crucially for single-access probing — the
    /// refresh schedule is realigned so the *next* refresh boundary sits
    /// a full `tREFI` after `now`.
    ///
    /// Without the realignment, a request arriving after a large idle
    /// gap can land just past a `k * tREFI` boundary and absorb up to
    /// `tRFC` of refresh recovery, polluting its latency class by an
    /// amount that depends on the arrival's position modulo `tREFI`
    /// (the off-by-tREFI effect). `ChannelSim::service_in_order`
    /// deliberately models that — batch runs must pay refresh — so this
    /// is a separate, opt-in helper for callers that need clean
    /// single-access latencies between settling periods.
    ///
    /// Statistics, per-bank request counters, and the pending queue's
    /// capacity are all preserved: quiescing is a timing normalization,
    /// not a reset.
    ///
    /// # Panics
    ///
    /// Panics if requests are still pending (a quiesce point inside a
    /// batch drain is meaningless).
    pub fn quiesce(&mut self, now: Cycle, timing: &Timing) {
        assert!(
            self.pending.is_empty(),
            "cannot quiesce a channel with pending requests"
        );
        for b in &mut self.banks {
            *b = BankState::new();
        }
        // The bus has long drained by `now`; keeping the old horizon
        // would be harmless for monotone arrivals, but pinning it makes
        // the post-quiesce state independent of pre-quiesce history.
        self.bus_free = self.bus_free.min(now);
        self.last_was_write = false;
        if timing.t_refi > 0 {
            self.next_refresh = now + timing.t_refi;
        }
    }

    /// Resets banks, bus, queue, and counters.
    pub fn reset(&mut self) {
        for b in &mut self.banks {
            *b = BankState::new();
        }
        self.bus_free = 0;
        self.pending.clear();
        self.stats = ChannelStats::default();
        self.next_refresh = 0;
        self.last_was_write = false;
    }

    fn record(&mut self, outcome: RowOutcome, completion: Cycle, timing: &Timing) {
        self.stats.requests += 1;
        match outcome {
            RowOutcome::Hit => self.stats.row_hits += 1,
            RowOutcome::Miss => self.stats.row_misses += 1,
            RowOutcome::Conflict => self.stats.row_conflicts += 1,
        }
        self.stats.bus_busy_cycles += timing.t_burst;
        self.stats.last_completion = self.stats.last_completion.max(completion);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(row: u64, bank: u64, col: u64) -> DecodedAddr {
        DecodedAddr {
            row,
            bank,
            channel: 0,
            col,
        }
    }

    fn t() -> Timing {
        Timing::hbm2()
    }

    #[test]
    fn in_order_requests_serialize_on_bus() {
        let tm = t();
        let mut ch = ChannelSim::new(16);
        // Two hits to different banks, same arrival: the bus is shared.
        ch.service_in_order(addr(0, 0, 0), false, 0, &tm);
        ch.service_in_order(addr(0, 0, 1), false, 0, &tm);
        let s = ch.stats();
        assert_eq!(s.requests, 2);
        assert_eq!(s.row_hits, 1);
        // Second transfer cannot overlap the first.
        assert!(s.last_completion >= 2 * tm.t_burst + tm.t_rcd + tm.cl);
    }

    #[test]
    fn frfcfs_prefers_row_hits() {
        let mut scratch = DrainScratch::default();
        let tm = t();
        // Queue: [row0, row1, row0]. In-order: miss, conflict, conflict.
        // FR-FCFS (window >= 3): serves both row0 before row1.
        let mut inorder = ChannelSim::new(1);
        for (r, a) in [(0u64, 0u64), (1, 0), (0, 0)] {
            inorder.push(addr(r, 0, 0), false, a);
        }
        let end_inorder = inorder.drain(1, &tm, &mut scratch);

        let mut frfcfs = ChannelSim::new(1);
        for (r, a) in [(0u64, 0u64), (1, 0), (0, 0)] {
            frfcfs.push(addr(r, 0, 0), false, a);
        }
        let end_frfcfs = frfcfs.drain(8, &tm, &mut scratch);

        assert!(frfcfs.stats().row_hits > inorder.stats().row_hits);
        assert!(end_frfcfs < end_inorder);
    }

    #[test]
    fn drain_empties_queue_and_counts_all() {
        let mut scratch = DrainScratch::default();
        let tm = t();
        let mut ch = ChannelSim::new(4);
        for i in 0..100u64 {
            ch.push(addr(i % 8, i % 4, 0), false, 0);
        }
        ch.drain(16, &tm, &mut scratch);
        assert_eq!(ch.pending_len(), 0);
        assert_eq!(ch.stats().requests, 100);
    }

    #[test]
    fn reset_clears_everything() {
        let tm = t();
        let mut ch = ChannelSim::new(2);
        ch.service_in_order(addr(3, 1, 0), false, 0, &tm);
        ch.push(addr(0, 0, 0), false, 0);
        ch.reset();
        assert_eq!(ch.stats(), ChannelStats::default());
        assert_eq!(ch.pending_len(), 0);
        assert_eq!(ch.bus_free, 0);
    }

    #[test]
    fn window_one_equals_in_order() {
        let mut scratch = DrainScratch::default();
        let tm = t();
        // Rows repeat in runs, so the stream has hits, misses and
        // conflicts.
        let reqs: Vec<_> = (0..50u64).map(|i| addr(i / 3 % 5, i % 2, 0)).collect();
        let mut a = ChannelSim::new(2);
        for &r in &reqs {
            a.push(r, false, 0);
        }
        let end_a = a.drain(1, &tm, &mut scratch);
        let mut b = ChannelSim::new(2);
        let mut end_b = 0;
        // The outcome the adaptive controller receives must be the one
        // the channel counts.
        let mut tally = [0u64; 3];
        for &r in &reqs {
            let (done, outcome) = b.service_in_order(r, false, 0, &tm);
            end_b = done;
            tally[match outcome {
                RowOutcome::Hit => 0,
                RowOutcome::Miss => 1,
                RowOutcome::Conflict => 2,
            }] += 1;
        }
        assert_eq!(end_a, end_b);
        assert_eq!(a.stats(), b.stats());
        let s = b.stats();
        assert_eq!(tally, [s.row_hits, s.row_misses, s.row_conflicts]);
        assert!(tally.iter().all(|&n| n > 0), "{tally:?}");
    }

    #[test]
    fn write_read_turnaround_costs_twtr() {
        let tm = t();
        // Same row: pure reads back to back vs alternating directions.
        // Spread over banks so bank latency overlaps and the shared bus
        // (where the turnaround applies) is the bottleneck.
        let mut reads = ChannelSim::new(16);
        let mut mixed = ChannelSim::new(16);
        let mut end_r = 0;
        let mut end_m = 0;
        for i in 0..64u64 {
            end_r = reads.service_in_order(addr(0, i % 16, 0), false, 0, &tm).0;
            end_m = mixed
                .service_in_order(addr(0, i % 16, 0), i % 2 == 1, 0, &tm)
                .0;
        }
        // 31 write→read transitions pay tWTR.
        assert!(
            end_m >= end_r + 31 * tm.t_wtr,
            "turnarounds should cost ~{} extra, got {} vs {}",
            63 * tm.t_wtr,
            end_m,
            end_r
        );
    }

    #[test]
    fn pushed_writes_pay_turnaround_in_drain() {
        let mut scratch = DrainScratch::default();
        let tm = t();
        // In-order (window 1) drains of the same mixed-direction stream
        // must match the incremental rw service path exactly.
        let mut drained = ChannelSim::new(16);
        let mut incremental = ChannelSim::new(16);
        let mut end_i = 0;
        for i in 0..64u64 {
            drained.push(addr(0, i % 16, 0), i % 2 == 1, 0);
            end_i = incremental
                .service_in_order(addr(0, i % 16, 0), i % 2 == 1, 0, &tm)
                .0;
        }
        let end_d = drained.drain(1, &tm, &mut scratch);
        assert_eq!(end_d, end_i);
        assert_eq!(drained.stats(), incremental.stats());
    }

    #[test]
    fn refresh_stalls_the_channel() {
        let with = Timing::hbm2_with_refresh();
        let without = Timing::hbm2();
        let serve = |tm: &Timing| {
            let mut ch = ChannelSim::new(16);
            let mut end = 0;
            for i in 0..4096u64 {
                end = ch
                    .service_in_order(addr(i / 256, i % 16, 0), false, 0, tm)
                    .0;
            }
            (end, ch.stats().refresh_stalls)
        };
        let (slow, stalled) = serve(&with);
        let (fast, unstalled) = serve(&without);
        assert!(slow > fast, "refresh must cost time: {slow} vs {fast}");
        // The stall counter sees exactly the runs where refresh bit.
        assert!(stalled > 0, "stalls must be counted when refresh is on");
        assert_eq!(unstalled, 0, "no refresh, no stalls");
        // Overhead stays in the expected single-digit-percent band.
        let overhead = slow as f64 / fast as f64 - 1.0;
        assert!(overhead < 0.15, "refresh overhead too large: {overhead}");
    }

    #[test]
    #[should_panic(expected = "at least one bank")]
    fn zero_banks_panics() {
        let _ = ChannelSim::new(0);
    }

    /// Deterministic pseudo-random stream without any RNG dependency.
    fn mixed_stream(n: u64, banks: u64, rows: u64, seed: u64) -> Vec<(DecodedAddr, Cycle)> {
        let mut x = seed | 1;
        (0..n)
            .map(|i| {
                x = x
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(0xd129_0b22);
                let a = addr((x >> 7) % rows, (x >> 29) % banks, (x >> 41) % 4);
                // Occasional runs of the same row to manufacture hits.
                if i % 5 < 2 {
                    (addr(0, (x >> 29) % banks, 0), 0)
                } else {
                    (a, 0)
                }
            })
            .collect()
    }

    #[test]
    fn indexed_drain_matches_reference_pick_order() {
        let mut scratch = DrainScratch::default();
        // Golden equivalence: for random request mixes, every window
        // size, and refresh on/off, the indexed drain must reproduce the
        // linear-scan reference bit for bit — makespan, stats, and
        // per-bank counters all follow from an identical pick order.
        for tm in [Timing::hbm2(), Timing::hbm2_with_refresh()] {
            for (banks, rows) in [(1u64, 4u64), (4, 16), (16, 64)] {
                for window in [2usize, 3, 8, 16, 64, 1024] {
                    for seed in [1u64, 99, 0xfeed] {
                        let reqs = mixed_stream(600, banks, rows, seed);
                        let mut fast = ChannelSim::new(banks as usize);
                        let mut slow = ChannelSim::new(banks as usize);
                        for &(a, arr) in &reqs {
                            fast.push(a, false, arr);
                            slow.push(a, false, arr);
                        }
                        let end_fast = fast.drain(window, &tm, &mut scratch);
                        let end_slow = slow.drain_reference(window, &tm);
                        assert_eq!(
                            end_fast, end_slow,
                            "makespan diverged: {banks} banks window {window} seed {seed}"
                        );
                        assert_eq!(fast.stats(), slow.stats());
                    }
                }
            }
        }
    }

    #[test]
    fn window_one_drain_matches_reference() {
        let mut scratch = DrainScratch::default();
        let tm = t();
        let reqs = mixed_stream(300, 4, 16, 7);
        let mut fast = ChannelSim::new(4);
        let mut slow = ChannelSim::new(4);
        for &(a, arr) in &reqs {
            fast.push(a, false, arr);
            slow.push(a, false, arr);
        }
        assert_eq!(
            fast.drain(1, &tm, &mut scratch),
            slow.drain_reference(1, &tm)
        );
        assert_eq!(fast.stats(), slow.stats());
    }

    #[test]
    fn row_hit_heavy_reference_regression() {
        let mut scratch = DrainScratch::default();
        // Regression for the oracle's old O(n) `VecDeque::remove` per
        // row hit: on an all-hits-per-bank stream every pick used to
        // shift the whole tail. With tombstones this finishes instantly
        // and still agrees with the indexed drain bit for bit.
        let tm = t();
        let n = 50_000u64;
        let mut fast = ChannelSim::new(8);
        let mut slow = ChannelSim::new(8);
        for i in 0..n {
            // One hot row per bank: after the first touch, every further
            // access to the bank is a row hit.
            let a = addr(7, i % 8, 0);
            fast.push(a, false, 0);
            slow.push(a, false, 0);
        }
        let end_fast = fast.drain(64, &tm, &mut scratch);
        let end_slow = slow.drain_reference(64, &tm);
        assert_eq!(end_fast, end_slow);
        assert_eq!(fast.stats(), slow.stats());
        assert_eq!(fast.stats().row_hits, n - 8, "all but first-touches hit");
    }

    #[test]
    fn partial_drain_interleaved_with_pushes_is_bit_identical() {
        let mut scratch = DrainScratch::default();
        // The streaming contract: pushing in blocks and calling
        // `drain_partial` between them, then a final full drain, must
        // reproduce the one-shot drain exactly — picks, stats, per-bank
        // counters, and makespan.
        for window in [2usize, 4, 16, 64] {
            for block in [1usize, 3, 16, 257] {
                let reqs = mixed_stream(700, 8, 32, 0x5eed ^ window as u64);
                let tm = t();
                let mut oneshot = ChannelSim::new(8);
                for &(a, arr) in &reqs {
                    oneshot.push(a, false, arr);
                }
                let end_one = oneshot.drain(window, &tm, &mut scratch);

                let mut streamed = ChannelSim::new(8);
                let mut end_s = 0;
                for chunk in reqs.chunks(block) {
                    for &(a, arr) in chunk {
                        streamed.push(a, false, arr);
                    }
                    let done = streamed.drain_partial(window, &tm, &mut scratch);
                    assert!(streamed.pending_len() < window);
                    end_s = end_s.max(done);
                }
                let done = streamed.drain(window, &tm, &mut scratch);
                end_s = end_s.max(done);
                assert!(
                    streamed.pending_len() == 0,
                    "final drain must empty the queue"
                );
                assert_eq!(
                    end_s, end_one,
                    "window {window} block {block}: makespan diverged"
                );
                assert_eq!(streamed.stats(), oneshot.stats());
            }
        }
    }

    #[test]
    fn partial_drain_leaves_youngest_window_minus_one() {
        let mut scratch = DrainScratch::default();
        let tm = t();
        let mut ch = ChannelSim::new(4);
        for i in 0..100u64 {
            ch.push(addr(i, i % 4, 0), false, 0);
        }
        ch.drain_partial(16, &tm, &mut scratch);
        assert_eq!(ch.pending_len(), 15);
        assert_eq!(ch.stats().requests, 85);
        // Draining the rest serves everyone.
        ch.drain(16, &tm, &mut scratch);
        assert_eq!(ch.stats().requests, 100);
    }

    #[test]
    #[should_panic(expected = "reorder window must be >= 1")]
    fn zero_window_partial_drain_panics() {
        let mut ch = ChannelSim::new(2);
        ch.push(addr(0, 0, 0), false, 0);
        ch.drain_partial(0, &t(), &mut DrainScratch::default());
    }

    #[test]
    fn quiesce_restores_clean_latency_classes() {
        let tm = t();
        let mut ch = ChannelSim::new(4);
        // Dirty the channel: open rows, pending turnaround state.
        ch.service_in_order(addr(7, 0, 0), true, 0, &tm);
        ch.service_in_order(addr(3, 1, 0), true, 0, &tm);
        let before = ch.stats();
        let now = 10_000;
        ch.quiesce(now, &tm);
        // Stats survive the quiesce (it is not a reset).
        assert_eq!(ch.stats(), before);
        // First access after quiesce is a pure closed-bank access — no
        // stale open row (would be a conflict), no write turnaround.
        let done = ch.service_in_order(addr(0, 0, 0), false, now, &tm).0;
        assert_eq!(done - now, tm.closed_latency());
        // Re-access: pure row hit.
        let done2 = ch
            .service_in_order(addr(0, 0, 0), false, done + tm.t_ras, &tm)
            .0;
        assert_eq!(done2 - (done + tm.t_ras), tm.hit_latency());
    }

    #[test]
    fn quiesce_regression_off_by_trefi_refresh_pollution() {
        // Regression for the off-by-tREFI case: a probe issued just past
        // a k * tREFI boundary absorbs the tRFC recovery window and its
        // latency class is polluted by up to tRFC cycles. A quiesce at
        // the settle point realigns the schedule so the next boundary is
        // a full tREFI away and the class comes back exact.
        let tm = Timing::hbm2_with_refresh();
        let k = 17u64;
        // Arrival inside the recovery window of boundary k * tREFI.
        let arrival = k * tm.t_refi + tm.t_rfc / 2;

        let mut polluted = ChannelSim::new(4);
        polluted.service_in_order(addr(0, 0, 0), false, 0, &tm); // start the clock
        let done = polluted
            .service_in_order(addr(0, 1, 0), false, arrival, &tm)
            .0;
        assert!(
            done - arrival > tm.closed_latency(),
            "without quiesce the catch-up boundary must pollute the class: {} vs {}",
            done - arrival,
            tm.closed_latency()
        );

        let mut clean = ChannelSim::new(4);
        clean.service_in_order(addr(0, 0, 0), false, 0, &tm);
        clean.quiesce(arrival, &tm);
        let done = clean.service_in_order(addr(0, 1, 0), false, arrival, &tm).0;
        assert_eq!(
            done - arrival,
            tm.closed_latency(),
            "quiesce must yield the exact closed-bank class"
        );
        // Refresh is realigned, not disabled: crossing the next tREFI
        // boundary still stalls.
        let far = arrival + 2 * tm.t_refi;
        let stalls_before = clean.stats().refresh_stalls;
        for i in 0..2_000u64 {
            clean.service_in_order(addr(i / 64, i % 4, 0), false, far, &tm);
        }
        assert!(
            clean.stats().refresh_stalls > stalls_before,
            "refresh must stay active after a quiesce"
        );
    }

    #[test]
    #[should_panic(expected = "pending requests")]
    fn quiesce_with_pending_requests_panics() {
        let tm = t();
        let mut ch = ChannelSim::new(2);
        ch.push(addr(0, 0, 0), false, 0);
        ch.quiesce(100, &tm);
    }

    #[test]
    fn refresh_catch_up_is_constant_time_for_large_gaps() {
        // Regression: a request arriving after a huge idle gap used to
        // spin one loop iteration per missed tREFI window — a 2^55-cycle
        // gap would take ~10^13 iterations (hours). With the division
        // catch-up it is instant and the completion still lands right
        // after the arrival.
        let tm = Timing::hbm2_with_refresh();
        let mut ch = ChannelSim::new(4);
        ch.service_in_order(addr(0, 0, 0), false, 0, &tm);
        let gap = 1u64 << 55;
        let done = ch.service_in_order(addr(0, 1, 0), false, gap, &tm).0;
        assert!(done >= gap, "completion precedes arrival");
        assert!(
            done < gap + tm.t_refi + tm.t_rfc + 1000,
            "completion drifted far past the gap: {done} vs {gap}"
        );
    }

    #[test]
    fn refresh_catch_up_matches_iterative_reference() {
        // Exactness of the division catch-up: emulate the original
        // one-boundary-at-a-time loop on the test side and compare
        // completions over arrival gaps that land before, inside, and
        // after refresh recovery windows.
        let tm = Timing::hbm2_with_refresh();
        let reference = |arrivals: &[Cycle]| -> Vec<Cycle> {
            // The pre-fix channel algebra, inlined: same bank/bus model,
            // original catch-up loop.
            let mut bank = crate::bank::BankState::new();
            let mut bus_free = 0;
            let mut next_refresh = 0u64;
            let mut out = Vec::new();
            for (i, &arr) in arrivals.iter().enumerate() {
                let (data_ready, _) = bank.access(i as u64 % 3, arr, &tm);
                let mut start = data_ready.max(bus_free);
                if next_refresh == 0 {
                    next_refresh = tm.t_refi;
                }
                while start + tm.t_burst > next_refresh {
                    start = start.max(next_refresh + tm.t_rfc);
                    next_refresh += tm.t_refi;
                }
                let completion = start + tm.t_burst;
                bus_free = completion;
                out.push(completion);
            }
            out
        };
        // Gaps chosen to straddle tREFI boundaries and tRFC recovery.
        let arrivals: Vec<Cycle> = vec![
            0,
            tm.t_refi - tm.t_burst,
            tm.t_refi + 1,
            3 * tm.t_refi - 1,
            3 * tm.t_refi + tm.t_rfc - 1,
            20 * tm.t_refi + tm.t_rfc / 2,
            500 * tm.t_refi + 17,
        ];
        let mut ch = ChannelSim::new(1);
        let got: Vec<Cycle> = arrivals
            .iter()
            .enumerate()
            .map(|(i, &arr)| {
                ch.service_in_order(addr(i as u64 % 3, 0, 0), false, arr, &tm)
                    .0
            })
            .collect();
        assert_eq!(got, reference(&arrivals));
    }
}
