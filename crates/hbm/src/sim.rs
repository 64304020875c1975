//! The top-level memory device: a set of independent channels.

use crate::arena::DrainScratch;
use crate::channel::ChannelSim;
use crate::stats::SimStats;
use crate::{Cycle, DecodedAddr, Geometry, Timing};

/// Default FR-FCFS reorder window, matching the modest queues of FPGA
/// memory-controller IP.
pub const DEFAULT_REORDER_WINDOW: usize = 16;

/// The permutation-based bank interleave of Zhang, Zhu & Zhang
/// (MICRO-33): the effective bank is the stated bank XOR an XOR-fold of
/// the whole row index, so streams differing in *any* row bit (low or
/// high) land on different banks. Standalone so that code which
/// bypasses [`Hbm::service_rw`] (adaptive candidate scoring, probe
/// ground truth) applies the exact same transform.
pub fn bank_hashed(geometry: Geometry, mut addr: DecodedAddr) -> DecodedAddr {
    let bank_bits = geometry.bank_bits();
    if bank_bits == 0 {
        return addr; // one bank per channel: nothing to permute
    }
    // Branch-free XOR fold: each doubling round XORs the next group of
    // `bank_bits`-wide chunks into the low chunk, so after at most six
    // rounds the low `bank_bits` bits hold the XOR of every chunk —
    // replacing the data-dependent per-chunk loop
    // ([`bank_hashed_reference`], kept as the oracle).
    let mut fold = addr.row;
    let mut shift = bank_bits;
    while shift < u64::BITS {
        fold ^= fold >> shift;
        shift <<= 1;
    }
    addr.bank ^= fold & ((1u64 << bank_bits) - 1);
    addr
}

/// [`bank_hashed`] applied in place over a block of addresses: the
/// `bank_bits` branch and mask are hoisted out of the loop, so batching
/// callers (the block-based machine driver in `sdam-sys`) pay one setup
/// per block instead of one per request. Bit-identical to mapping
/// [`bank_hashed`] over the slice.
pub fn bank_hashed_block(geometry: Geometry, addrs: &mut [DecodedAddr]) {
    let bank_bits = geometry.bank_bits();
    if bank_bits == 0 {
        return; // one bank per channel: nothing to permute
    }
    let mask = (1u64 << bank_bits) - 1;
    for addr in addrs {
        let mut fold = addr.row;
        let mut shift = bank_bits;
        while shift < u64::BITS {
            fold ^= fold >> shift;
            shift <<= 1;
        }
        addr.bank ^= fold & mask;
    }
}

/// The original per-chunk fold loop of [`bank_hashed`], kept as the
/// oracle the doubling fold is tested against.
pub fn bank_hashed_reference(geometry: Geometry, mut addr: DecodedAddr) -> DecodedAddr {
    let bank_bits = geometry.bank_bits();
    if bank_bits == 0 {
        return addr;
    }
    let mask = (1u64 << bank_bits) - 1;
    let mut fold = 0u64;
    let mut row = addr.row;
    while row != 0 {
        fold ^= row & mask;
        row >>= bank_bits;
    }
    addr.bank ^= fold;
    addr
}

/// An HBM (or DDR) device simulator.
///
/// Channels are fully independent — the defining property of
/// channel-level parallelism. The device offers an incremental in-order
/// interface ([`Hbm::service`]) for closed-loop system models and a batch
/// FR-FCFS interface ([`Hbm::run_open_loop`]) for raw-throughput
/// experiments.
///
/// # Example
///
/// ```
/// use sdam_hbm::{Geometry, Hbm, Timing};
///
/// let geom = Geometry::hbm2_8gb();
/// let mut hbm = Hbm::new(geom, Timing::hbm2());
///
/// // Stride-1 stream (consecutive lines): spreads over all channels.
/// let stream: Vec<_> = (0..4096u64)
///     .map(|i| geom.decode(sdam_hbm::HardwareAddr(i * 64)))
///     .collect();
/// let streaming = hbm.run_open_loop(stream);
///
/// // Large-stride stream: every access lands on channel 0.
/// hbm.reset();
/// let strided: Vec<_> = (0..4096u64)
///     .map(|i| geom.decode(sdam_hbm::HardwareAddr(i * 64 * 1024)))
///     .collect();
/// let congested = hbm.run_open_loop(strided);
///
/// assert!(streaming.throughput_gbps() > 8.0 * congested.throughput_gbps());
/// ```
#[derive(Debug, Clone)]
pub struct Hbm {
    geometry: Geometry,
    timing: Timing,
    channels: Vec<ChannelSim>,
    requests: u64,
    makespan: Cycle,
    bank_hash: bool,
    /// Drain workspace shared across the (sequential) per-channel
    /// drains: one set of tables for the whole device instead of one
    /// per channel, so a fresh device pays its scratch zeroing once.
    scratch: DrainScratch,
}

impl Hbm {
    /// Creates a device with the given geometry and timing.
    ///
    /// Bank-address hashing is enabled by default: the effective bank is
    /// `bank XOR (row mod banks)`, the permutation-based interleaving of
    /// Zhang, Zhu & Zhang (MICRO-33) that real controllers (including
    /// the Xilinx HBM IP's bank-group interleave) use to keep streams
    /// that share address alignment but differ in row from fighting
    /// over one bank.
    pub fn new(geometry: Geometry, timing: Timing) -> Self {
        let channels = (0..geometry.num_channels())
            .map(|_| ChannelSim::new(geometry.banks_per_channel()))
            .collect();
        Hbm {
            geometry,
            timing,
            channels,
            requests: 0,
            makespan: 0,
            bank_hash: true,
            scratch: DrainScratch::default(),
        }
    }

    /// Disables the controller's bank-address hash (for ablations).
    pub fn without_bank_hash(mut self) -> Self {
        self.bank_hash = false;
        self
    }

    fn effective(&self, addr: DecodedAddr) -> DecodedAddr {
        if self.bank_hash {
            bank_hashed(self.geometry, addr)
        } else {
            addr
        }
    }

    /// Sizes every channel's pending queue for an incoming stream of
    /// `total` requests, assuming roughly even channel spread (with 25%
    /// slack for skew). Purely a growth-realloc saver: an exact-size
    /// iterator (`Vec`, slice) pushing a uniform stream then never
    /// reallocates a column mid-push.
    fn reserve_per_channel(&mut self, total: usize) {
        if total == 0 {
            return;
        }
        let per = total / self.channels.len() + total / (4 * self.channels.len()) + 8;
        for ch in &mut self.channels {
            ch.reserve_pending(per.saturating_sub(ch.pending_len()));
        }
    }

    /// The address as the controller actually presents it to a channel
    /// (bank hash applied when enabled). Exposed so callers that inject
    /// traffic through [`Hbm::service_effective_rw`] — the adaptive
    /// driver's migrations in `sdam-sys` — see the device's exact
    /// addresses.
    pub fn effective_addr(&self, addr: DecodedAddr) -> DecodedAddr {
        self.effective(addr)
    }

    /// The device geometry.
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// The device timing.
    pub fn timing(&self) -> Timing {
        self.timing
    }

    /// Serves one request in arrival order on its channel, returning the
    /// completion cycle. Channels do not interfere with each other.
    ///
    /// # Panics
    ///
    /// Panics if `addr.channel` or `addr.bank` is out of range for the
    /// device geometry.
    pub fn service(&mut self, addr: DecodedAddr, arrival: Cycle) -> Cycle {
        self.service_rw(addr, false, arrival)
    }

    /// [`Hbm::service`] with an explicit data direction: channel
    /// direction switches pay the write-to-read turnaround.
    ///
    /// # Panics
    ///
    /// As [`Hbm::service`].
    pub fn service_rw(&mut self, addr: DecodedAddr, is_write: bool, arrival: Cycle) -> Cycle {
        let addr = self.effective(addr);
        self.service_effective_rw(addr, is_write, arrival)
    }

    /// [`Hbm::service_rw`] for an address that has *already* been run
    /// through [`Hbm::effective_block`] (or [`Hbm::effective_addr`]).
    ///
    /// Block-based drivers hoist the controller bank hash out of the
    /// issue loop by hashing whole decode blocks up front; this entry
    /// point lets them service those addresses without hashing twice
    /// (the hash is an involution-free transform, so double application
    /// would corrupt the bank index).
    ///
    /// # Panics
    ///
    /// As [`Hbm::service`].
    pub fn service_effective_rw(
        &mut self,
        addr: DecodedAddr,
        is_write: bool,
        arrival: Cycle,
    ) -> Cycle {
        self.service_effective_rw_outcome(addr, is_write, arrival).0
    }

    /// [`Hbm::service_effective_rw`] that also reports the row-buffer
    /// classification (hit / miss / conflict) of the served request.
    ///
    /// The extra return value only *observes* the classification that
    /// [`crate::bank::BankState::access`] already computed, so drivers
    /// attributing conflicts per chunk pay nothing; the outcome-less
    /// [`Hbm::service_effective_rw`] is this call's timing result.
    ///
    /// # Panics
    ///
    /// As [`Hbm::service`].
    pub fn service_effective_rw_outcome(
        &mut self,
        addr: DecodedAddr,
        is_write: bool,
        arrival: Cycle,
    ) -> (Cycle, crate::bank::RowOutcome) {
        let (done, outcome) = self.channels[addr.channel as usize].service_in_order_rw_outcome(
            addr,
            is_write,
            arrival,
            &self.timing,
        );
        self.requests += 1;
        self.makespan = self.makespan.max(done);
        (done, outcome)
    }

    /// Applies the controller's effective-address transform (the bank
    /// hash, unless disabled) to a block of decoded addresses in place —
    /// the block twin of [`Hbm::effective_addr`].
    pub fn effective_block(&self, addrs: &mut [DecodedAddr]) {
        if self.bank_hash {
            bank_hashed_block(self.geometry, addrs);
        }
    }

    /// Runs a whole stream open-loop (all requests available at cycle 0)
    /// with the default FR-FCFS window, and returns the run's statistics.
    ///
    /// Open loop models a saturating traffic source — the paper's
    /// synthetic stride experiments (Figs. 1, 3, 4, 11) all drive the
    /// memory this way.
    pub fn run_open_loop<I>(&mut self, addrs: I) -> SimStats
    where
        I: IntoIterator<Item = DecodedAddr>,
    {
        self.run_open_loop_windowed(addrs, DEFAULT_REORDER_WINDOW)
    }

    /// Like [`Hbm::run_open_loop`] but with an explicit reorder window.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or an address is out of range.
    pub fn run_open_loop_windowed<I>(&mut self, addrs: I, window: usize) -> SimStats
    where
        I: IntoIterator<Item = DecodedAddr>,
    {
        let addrs = addrs.into_iter();
        self.reserve_per_channel(addrs.size_hint().0);
        for a in addrs {
            let a = self.effective(a);
            self.channels[a.channel as usize].push(a, 0);
            self.requests += 1;
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        for ch in &mut self.channels {
            let done = ch.drain_with(window, &self.timing, &mut scratch);
            self.makespan = self.makespan.max(done);
        }
        self.scratch = scratch;
        self.stats()
    }

    /// Like [`Hbm::run_open_loop_windowed`], but with **bounded resident
    /// memory**: requests are pushed in blocks of `block`, and between
    /// blocks every channel is partially drained down to its youngest
    /// `window - 1` requests. The source can therefore be a streaming
    /// iterator over a trace far larger than RAM (e.g. a
    /// `sdam-trace` `TraceReader` over a file) — at any instant at most
    /// `block + channels * (window - 1)` requests are held, plus the
    /// per-channel arena capacities (bounded by the largest block).
    ///
    /// The result is **bit-identical** to the one-shot drain: while at
    /// least `window` requests are unserved on a channel, each FR-FCFS
    /// pick admits only already-pushed requests to its reorder window
    /// (see [`crate::channel::ChannelSim::drain_partial`]), so chopping
    /// the stream into blocks changes no pick, no statistic, and no
    /// makespan.
    ///
    /// # Panics
    ///
    /// Panics if `window` or `block` is zero, or an address is out of
    /// range.
    pub fn run_open_loop_streaming<I>(&mut self, addrs: I, window: usize, block: usize) -> SimStats
    where
        I: IntoIterator<Item = DecodedAddr>,
    {
        assert!(window > 0, "reorder window must be >= 1");
        assert!(block > 0, "stream block must be >= 1");
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut in_block = 0usize;
        for a in addrs {
            let a = self.effective(a);
            self.channels[a.channel as usize].push(a, 0);
            self.requests += 1;
            in_block += 1;
            if in_block == block {
                in_block = 0;
                for ch in &mut self.channels {
                    let done = ch.drain_partial_with(window, &self.timing, &mut scratch);
                    self.makespan = self.makespan.max(done);
                }
            }
        }
        for ch in &mut self.channels {
            let done = ch.drain_with(window, &self.timing, &mut scratch);
            self.makespan = self.makespan.max(done);
        }
        self.scratch = scratch;
        self.stats()
    }

    /// A snapshot of the statistics accumulated since construction or the
    /// last [`Hbm::reset`].
    pub fn stats(&self) -> SimStats {
        SimStats {
            requests: self.requests,
            makespan: self.makespan,
            per_channel: self.channels.iter().map(|c| c.stats()).collect(),
            timing: self.timing,
        }
    }

    /// Declares the whole device idle through cycle `now`: every bank's
    /// row is precharged and every channel's refresh schedule is
    /// realigned to `now + tREFI` (see
    /// [`crate::channel::ChannelSim::quiesce`]).
    ///
    /// This is the settling primitive single-access probing needs: after
    /// a quiesce, the latency of the next access on any channel is a
    /// pure timing class (hit / closed / conflict) regardless of how
    /// large the arrival gap was — in particular it cannot be polluted
    /// by refresh catch-up landing the access inside a `tRFC` recovery
    /// window. Statistics and counters are preserved.
    ///
    /// # Panics
    ///
    /// Panics if any channel still has batch requests pending.
    pub fn quiesce(&mut self, now: Cycle) {
        for ch in &mut self.channels {
            ch.quiesce(now, &self.timing);
        }
    }

    /// Clears all bank state, queues, and counters.
    pub fn reset(&mut self) {
        for ch in &mut self.channels {
            ch.reset();
        }
        self.requests = 0;
        self.makespan = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HardwareAddr, LINE_BYTES};

    fn device() -> Hbm {
        Hbm::new(Geometry::hbm2_8gb(), Timing::hbm2())
    }

    fn stride_stream(geom: Geometry, stride_lines: u64, n: u64) -> Vec<DecodedAddr> {
        (0..n)
            .map(|i| geom.decode(HardwareAddr(i * stride_lines * LINE_BYTES)))
            .collect()
    }

    #[test]
    fn conservation_requests_in_equals_counted() {
        let mut hbm = device();
        let geom = hbm.geometry();
        let stats = hbm.run_open_loop(stride_stream(geom, 1, 10_000));
        assert_eq!(stats.requests, 10_000);
        let per_ch: u64 = stats.per_channel.iter().map(|c| c.requests).sum();
        assert_eq!(per_ch, 10_000);
    }

    #[test]
    fn throughput_monotone_in_channels_touched() {
        // Streams restricted to k channels: throughput grows with k.
        let geom = Geometry::hbm2_8gb();
        let mut last = 0.0;
        for k in [1usize, 2, 4, 8, 16, 32] {
            let mut hbm = device();
            let addrs: Vec<_> = (0..8192u64)
                .map(|i| geom.decode(geom.encode(i / (4 * k as u64), 0, i % k as u64, i % 4)))
                .collect();
            let t = hbm.run_open_loop(addrs).throughput_gbps();
            assert!(
                t > last,
                "throughput should grow with channel count: {k} ch gave {t} <= {last}"
            );
            last = t;
        }
    }

    #[test]
    fn stride_collapse_matches_paper_fig3() {
        // Paper Fig. 3(a): throughput drops ~20x from stride 1 to 16
        // lines, and in the worst case (stride 32 on a 32-channel device
        // with the boot-time mapping) only one channel is used.
        let geom = Geometry::hbm2_8gb();
        let mut hbm = device();
        let t1 = hbm
            .run_open_loop(stride_stream(geom, 1, 16_384))
            .throughput_gbps();
        hbm.reset();
        let s16 = hbm.run_open_loop(stride_stream(geom, 16, 16_384));
        let t16 = s16.throughput_gbps();
        assert_eq!(s16.channels_touched(), 2, "stride 16 uses 2 of 32 channels");
        assert!(t1 / t16 > 8.0, "expected large collapse, got {t1} / {t16}");
    }

    #[test]
    fn single_channel_worst_case() {
        let geom = Geometry::hbm2_8gb();
        let mut hbm = device();
        // Stride of 32 lines (== channel count): channel bits never change.
        let s = hbm.run_open_loop(stride_stream(geom, 32, 4096));
        assert_eq!(s.channels_touched(), 1);
        assert!(s.channel_imbalance() > 31.0);
    }

    #[test]
    fn service_in_order_incremental_matches_batch_window_one() {
        let geom = Geometry::hbm2_8gb();
        let stream = stride_stream(geom, 3, 2000);
        let mut a = device();
        let sa = a.run_open_loop_windowed(stream.clone(), 1);
        let mut b = device();
        for &r in &stream {
            b.service(r, 0);
        }
        let sb = b.stats();
        assert_eq!(sa.makespan, sb.makespan);
        assert_eq!(sa.per_channel, sb.per_channel);
    }

    #[test]
    fn doubling_bank_hash_matches_reference_fold() {
        let geoms = [
            Geometry::hbm2_8gb(),
            Geometry::ddr4_8gb(),
            Geometry::hmc_4gb(),
        ];
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for geom in geoms {
            for i in 0..4096u64 {
                x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(i);
                let a = DecodedAddr {
                    row: x >> 20,
                    bank: x % geom.banks_per_channel() as u64,
                    channel: 0,
                    col: 0,
                };
                assert_eq!(
                    bank_hashed(geom, a),
                    bank_hashed_reference(geom, a),
                    "row {:#x}",
                    a.row
                );
            }
        }
    }

    #[test]
    fn streaming_open_loop_identical_to_one_shot() {
        // The bounded-memory contract, at device level: any block size
        // (including pathological ones) reproduces the one-shot open
        // loop bit for bit — makespan, per-channel stats, everything.
        let geom = Geometry::hbm2_8gb();
        for stride in [1u64, 3, 16] {
            let stream = stride_stream(geom, stride, 10_000);
            for window in [1usize, 4, 16] {
                let mut oneshot = device();
                let expected = oneshot.run_open_loop_windowed(stream.iter().copied(), window);
                for block in [1usize, 7, 512, 10_000, 50_000] {
                    let mut streamed = device();
                    let got =
                        streamed.run_open_loop_streaming(stream.iter().copied(), window, block);
                    assert_eq!(
                        expected, got,
                        "stride {stride} window {window} block {block} diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn streaming_open_loop_bounds_pending_queues() {
        let geom = Geometry::hbm2_8gb();
        let mut hbm = device();
        let window = 16usize;
        let block = 256usize;
        // Channel-pinned stream (worst case: every request on channel 0).
        let addrs = stride_stream(geom, 32, 4096);
        // Drive the blocks by hand to observe the invariant mid-stream.
        for chunk in addrs.chunks(block) {
            hbm.run_open_loop_streaming(chunk.iter().copied(), window, block);
        }
        // After every partial drain each channel holds < window requests.
        assert_eq!(hbm.stats().requests, 4096);
    }

    #[test]
    fn block_bank_hash_matches_scalar() {
        for geom in [
            Geometry::hbm2_8gb(),
            Geometry::ddr4_8gb(),
            Geometry::hmc_4gb(),
        ] {
            let mut x = 0x1234_5678_9abc_def0u64;
            let mut addrs: Vec<DecodedAddr> = (0..2048u64)
                .map(|_| {
                    x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(13);
                    DecodedAddr {
                        row: x >> 17,
                        bank: x % geom.banks_per_channel() as u64,
                        channel: x % geom.num_channels() as u64,
                        col: 0,
                    }
                })
                .collect();
            let expected: Vec<DecodedAddr> = addrs.iter().map(|&a| bank_hashed(geom, a)).collect();
            bank_hashed_block(geom, &mut addrs);
            assert_eq!(addrs, expected);
        }
    }

    #[test]
    fn quiesce_preserves_stats_and_cleans_timing() {
        let geom = Geometry::hbm2_8gb();
        let mut hbm = Hbm::new(geom, Timing::hbm2_with_refresh());
        for i in 0..512u64 {
            hbm.service(geom.decode(HardwareAddr(i * LINE_BYTES)), 0);
        }
        let before = hbm.stats();
        let now = 100 * hbm.timing().t_refi + hbm.timing().t_rfc / 2;
        hbm.quiesce(now);
        assert_eq!(hbm.stats().requests, before.requests);
        assert_eq!(hbm.stats().per_channel, before.per_channel);
        // Every channel serves an exact closed-bank access at `now`,
        // even though `now` sits inside a refresh recovery window of
        // the unaligned schedule.
        let tm = hbm.timing();
        for c in 0..geom.num_channels() as u64 {
            let a = geom.decode(geom.encode(5, 3, c, 0));
            let done = hbm.service(a, now);
            assert_eq!(done - now, tm.closed_latency(), "channel {c}");
        }
    }

    #[test]
    fn reset_restores_fresh_state() {
        let geom = Geometry::hbm2_8gb();
        let mut hbm = device();
        hbm.run_open_loop(stride_stream(geom, 1, 512));
        hbm.reset();
        let s = hbm.stats();
        assert_eq!(s.requests, 0);
        assert_eq!(s.makespan, 0);
        assert!(s.per_channel.iter().all(|c| c.requests == 0));
    }

    #[test]
    fn row_hit_rate_high_for_sequential_within_row() {
        let geom = Geometry::hbm2_8gb();
        let mut hbm = device();
        // Sweep all columns of one row per bank before moving on —
        // same-channel accesses, maximal row locality.
        let addrs: Vec<_> = (0..4096u64)
            .map(|i| geom.decode(geom.encode(i / 4, 0, 0, i % 4)))
            .collect();
        let s = hbm.run_open_loop(addrs);
        let hr = s.row_hit_rate().unwrap();
        assert!(hr > 0.7, "expected high hit rate, got {hr}");
    }
}
