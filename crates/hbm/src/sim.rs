//! The top-level memory device: a set of independent channels.

use crate::arena::DrainScratch;
use crate::bank::RowOutcome;
use crate::channel::ChannelSim;
use crate::stats::SimStats;
use crate::{Cycle, DecodedAddr, Geometry, Timing};

/// Default FR-FCFS reorder window, matching the modest queues of FPGA
/// memory-controller IP.
const DEFAULT_REORDER_WINDOW: usize = 16;

/// Requests an open-loop run pushes between partial drains. A drain
/// threads its whole queue through the row table and link column, so
/// the cost per request grows with the queue once those outgrow the
/// cache; blocks of this size keep them cache-resident.
const DRAIN_BLOCK: usize = 16 * 1024;

/// The permutation-based bank interleave of Zhang, Zhu & Zhang
/// (MICRO-33): the effective bank is the stated bank XOR an XOR-fold of
/// every `bank_bits`-wide slice of the row index, so streams differing
/// in *any* row bit (low or high) land on different banks. Standalone so
/// that code which bypasses [`Hbm::effective_addr`] (adaptive candidate
/// scoring, probe ground truth) applies the exact same transform.
#[inline]
pub fn bank_hashed(geometry: Geometry, mut addr: DecodedAddr) -> DecodedAddr {
    // `Geometry::new` rejects zero bank bits, so the doubling below
    // terminates. Branch-free XOR fold: each doubling round XORs the
    // next group of `bank_bits`-wide slices into the low slice, so after
    // at most six rounds the low `bank_bits` bits hold the XOR of every
    // slice — replacing the data-dependent per-slice loop
    // ([`bank_hashed_reference`], kept as the oracle).
    let bank_bits = geometry.bank_bits();
    let mut fold = addr.row;
    let mut shift = bank_bits;
    while shift < u64::BITS {
        fold ^= fold >> shift;
        shift <<= 1;
    }
    addr.bank ^= fold & ((1u64 << bank_bits) - 1);
    addr
}

/// The original per-slice fold loop of [`bank_hashed`], kept as the
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

/// The one-shot oracle for [`Hbm::run_open_loop_windowed`]: every
/// request of `stream`, bank-hashed as `hbm` hashes it, is pushed into
/// its channel, and each channel is drained once by
/// [`ChannelSim::drain_reference`]. `hbm` itself is left untouched.
pub fn open_loop_reference(hbm: &Hbm, stream: &[DecodedAddr], window: usize) -> SimStats {
    let geom = hbm.geometry();
    let timing = hbm.timing();
    let mut channels: Vec<ChannelSim> = (0..geom.num_channels())
        .map(|_| ChannelSim::new(geom.banks_per_channel()))
        .collect();
    for &a in stream {
        let a = hbm.effective_addr(a);
        channels[a.channel as usize].push(a, false, 0);
    }
    let makespan = channels
        .iter_mut()
        .map(|c| c.drain_reference(window, &timing))
        .max()
        .unwrap_or(0);
    SimStats {
        requests: stream.len() as u64,
        makespan,
        per_channel: channels.iter().map(|c| c.stats()).collect(),
        timing,
    }
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
    /// the stated bank XOR-ed with every bank-width slice of the row (see
    /// [`bank_hashed`]), the permutation-based interleaving of Zhang,
    /// Zhu & Zhang (MICRO-33) that real controllers (including the
    /// Xilinx HBM IP's bank-group interleave) use to keep streams that
    /// share address alignment but differ in row from fighting over one
    /// bank.
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
    #[inline]
    pub fn effective_addr(&self, addr: DecodedAddr) -> DecodedAddr {
        if self.bank_hash {
            bank_hashed(self.geometry, addr)
        } else {
            addr
        }
    }

    /// [`Hbm::effective_addr`] applied in place over a block of decoded
    /// addresses, so block drivers hash a whole decode block up front.
    pub fn effective_block(&self, addrs: &mut [DecodedAddr]) {
        if self.bank_hash {
            for a in addrs {
                *a = bank_hashed(self.geometry, *a);
            }
        }
    }

    /// The device geometry.
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// The device timing.
    pub fn timing(&self) -> Timing {
        self.timing
    }

    /// Serves one read in arrival order on its channel, returning the
    /// completion cycle. Channels do not interfere with each other.
    ///
    /// # Panics
    ///
    /// Panics if `addr.channel` or `addr.bank` is out of range for the
    /// device geometry.
    pub fn service(&mut self, addr: DecodedAddr, arrival: Cycle) -> Cycle {
        self.service_effective_rw(self.effective_addr(addr), false, arrival)
            .0
    }

    /// Serves one request in arrival order, for an address that has
    /// *already* been through [`Hbm::effective_block`] (or
    /// [`Hbm::effective_addr`]), and returns its completion cycle and
    /// row-buffer outcome (hit / miss / conflict).
    ///
    /// Block-based drivers hoist the controller bank hash out of the
    /// issue loop by hashing whole decode blocks up front; this entry
    /// point lets them service those addresses without hashing twice
    /// (the hash is not an involution, so double application would
    /// corrupt the bank index). Channel direction switches pay the
    /// write-to-read turnaround. The outcome is the classification the
    /// channel's statistics count, so drivers attributing conflicts per
    /// chunk pay nothing extra.
    ///
    /// # Panics
    ///
    /// As [`Hbm::service`].
    pub fn service_effective_rw(
        &mut self,
        addr: DecodedAddr,
        is_write: bool,
        arrival: Cycle,
    ) -> (Cycle, RowOutcome) {
        let (done, outcome) = self.channels[addr.channel as usize].service_in_order(
            addr,
            is_write,
            arrival,
            &self.timing,
        );
        self.requests += 1;
        self.makespan = self.makespan.max(done);
        (done, outcome)
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
    /// Requests are pushed in blocks of 16 Ki, and between blocks every
    /// channel is partially drained down to its youngest `window - 1`
    /// requests. At most one block plus `channels * (window - 1)`
    /// requests are held at once, so the source can be a streaming
    /// iterator over a trace far larger than RAM (e.g. a `sdam-trace`
    /// `TraceReader` over a file), and each drain's row table stays
    /// small enough to stay in cache however long the stream is.
    ///
    /// The result is **bit-identical** to pushing the whole stream and
    /// draining once: while at least `window` requests are unserved on
    /// a channel, each FR-FCFS pick admits only already-pushed requests
    /// to its reorder window (see
    /// `ChannelSim::drain_partial`), so the blocks
    /// change no pick, no statistic, and no makespan.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or an address is out of range.
    pub fn run_open_loop_windowed<I>(&mut self, addrs: I, window: usize) -> SimStats
    where
        I: IntoIterator<Item = DecodedAddr>,
    {
        assert!(window > 0, "reorder window must be >= 1");
        let addrs = addrs.into_iter();
        self.reserve_per_channel(addrs.size_hint().0.min(DRAIN_BLOCK));
        let mut in_block = 0usize;
        for a in addrs {
            let a = self.effective_addr(a);
            self.channels[a.channel as usize].push(a, false, 0);
            self.requests += 1;
            in_block += 1;
            if in_block == DRAIN_BLOCK {
                in_block = 0;
                self.drain_channels(window, true);
            }
        }
        self.drain_channels(window, false);
        self.stats()
    }

    /// Drains every channel in turn through the shared scratch, fully or
    /// (`partial`) down to its youngest `window - 1` requests.
    fn drain_channels(&mut self, window: usize, partial: bool) {
        for ch in &mut self.channels {
            let done = if partial {
                ch.drain_partial(window, &self.timing, &mut self.scratch)
            } else {
                ch.drain(window, &self.timing, &mut self.scratch)
            };
            self.makespan = self.makespan.max(done);
        }
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

    /// The one-shot oracle for [`Hbm::run_open_loop_windowed`]: every
    /// request, bank-hashed by `hbm`, is pushed into its channel, and
    /// each channel is drained once by `drain_reference`.
    #[test]
    fn blocked_run_matches_one_shot_oracle() {
        // Streams of 2.5+ blocks: a uniform one over the whole device,
        // and stride 32 under the identity mapping, which puts every
        // request on one channel. Windows include one larger than a
        // block, so no partial drain serves anything until the second.
        let geom = Geometry::hbm2_8gb();
        let n = 5 * DRAIN_BLOCK / 2 + 123;
        let mut x = 0x5eed_u64;
        let uniform: Vec<DecodedAddr> = (0..n)
            .map(|_| {
                x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
                geom.decode(HardwareAddr(
                    (x >> 20) % (geom.capacity_bytes() / LINE_BYTES) * LINE_BYTES,
                ))
            })
            .collect();
        let one_channel = stride_stream(geom, 32, n as u64);
        for (name, stream) in [("uniform", &uniform), ("stride 32", &one_channel)] {
            for window in [1usize, 16, 64, DRAIN_BLOCK + 1000] {
                let got = device().run_open_loop_windowed(stream.iter().copied(), window);
                assert_eq!(
                    got,
                    open_loop_reference(&device(), stream, window),
                    "{name} stream, window {window}"
                );
            }
        }
    }

    #[test]
    fn row_hit_just_past_a_block_boundary_is_picked() {
        // One bank, every row distinct, so FR-FCFS serves the first
        // block in order. Request `DRAIN_BLOCK` reopens the row of
        // request `DRAIN_BLOCK - window`: the one-shot drain picks it as
        // a hit right after serving that request, which only a partial
        // drain that keeps exactly `window - 1` requests reproduces.
        let window = 16usize;
        let at = |row: u64| DecodedAddr {
            row,
            bank: 0,
            channel: 0,
            col: 0,
        };
        let mut stream: Vec<DecodedAddr> = (0..DRAIN_BLOCK as u64).map(|i| at(i + 1)).collect();
        stream.push(at((DRAIN_BLOCK - window) as u64 + 1));
        stream.extend((0..4u64).map(|i| at(DRAIN_BLOCK as u64 + 10 + i)));
        let mut hbm = device().without_bank_hash();
        let got = hbm.run_open_loop_windowed(stream.iter().copied(), window);
        assert_eq!(got.per_channel[0].row_hits, 1);
        assert_eq!(
            got,
            open_loop_reference(&device().without_bank_hash(), &stream, window)
        );
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
            Hbm::new(geom, Timing::hbm2()).effective_block(&mut addrs);
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
