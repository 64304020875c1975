//! Property-based tests for the memory device and system model:
//! conservation, monotonicity, and scheduling sanity.

use proptest::prelude::*;
use sdam_hbm::channel::ChannelSim;
use sdam_hbm::{
    open_loop_reference, DecodedAddr, DrainScratch, Geometry, HardwareAddr, Hbm, Timing,
};
use sdam_sys::cache::{Cache, CacheConfig, CacheOutcome};

fn line_addrs(n: usize) -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec((0u64..(1 << 27)).prop_map(|l| l * 64), 1..n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn open_loop_conserves_requests(addrs in line_addrs(300)) {
        let geom = Geometry::hbm2_8gb();
        let mut hbm = Hbm::new(geom, Timing::hbm2());
        let stats = hbm.run_open_loop(addrs.iter().map(|&a| geom.decode(HardwareAddr(a))));
        prop_assert_eq!(stats.requests, addrs.len() as u64);
        let per_ch: u64 = stats.per_channel.iter().map(|c| c.requests).sum();
        prop_assert_eq!(per_ch, addrs.len() as u64);
        let outcomes: u64 = stats
            .per_channel
            .iter()
            .map(|c| c.row_hits + c.row_misses + c.row_conflicts)
            .sum();
        prop_assert_eq!(outcomes, addrs.len() as u64, "every request classified once");
    }

    #[test]
    fn makespan_monotone_in_prefix_length(addrs in line_addrs(120)) {
        let geom = Geometry::hbm2_8gb();
        let half = addrs.len() / 2;
        let run = |slice: &[u64]| {
            let mut hbm = Hbm::new(geom, Timing::hbm2());
            hbm.run_open_loop(slice.iter().map(|&a| geom.decode(HardwareAddr(a))))
                .makespan
        };
        prop_assert!(run(&addrs) >= run(&addrs[..half]));
    }

    #[test]
    fn in_order_completions_are_causal(addrs in line_addrs(150)) {
        // A completion can never precede its arrival, and per-channel
        // completions never decrease in issue order.
        let geom = Geometry::hbm2_8gb();
        let mut hbm = Hbm::new(geom, Timing::hbm2());
        let mut last_per_channel = std::collections::HashMap::new();
        for (t, &a) in addrs.iter().enumerate() {
            let t = t as u64;
            let d = geom.decode(HardwareAddr(a));
            let done = hbm.service(d, t);
            prop_assert!(done > t, "completion {done} not after arrival {t}");
            if let Some(&prev) = last_per_channel.get(&d.channel) {
                prop_assert!(done > prev, "channel order violated");
            }
            last_per_channel.insert(d.channel, done);
        }
    }

    #[test]
    fn frfcfs_reordering_never_hurts_makespan_much(addrs in line_addrs(150)) {
        // The reorder window only helps (it picks row hits first); allow
        // a small slack for tie-breaking.
        let geom = Geometry::hbm2_8gb();
        let run = |window: usize| {
            let mut hbm = Hbm::new(geom, Timing::hbm2());
            hbm.run_open_loop_windowed(
                addrs.iter().map(|&a| geom.decode(HardwareAddr(a))),
                window,
            )
            .makespan
        };
        let in_order = run(1);
        let windowed = run(16);
        prop_assert!(
            windowed as f64 <= in_order as f64 * 1.05 + 100.0,
            "FR-FCFS made things worse: {windowed} vs {in_order}"
        );
    }

    #[test]
    fn cache_hits_plus_misses_equals_accesses(addrs in line_addrs(300)) {
        let mut c = Cache::new(CacheConfig::boom_l1());
        for &a in &addrs {
            c.access(a);
        }
        prop_assert_eq!(c.hits() + c.misses(), addrs.len() as u64);
    }

    #[test]
    fn cache_is_deterministic_and_repeat_hits(addrs in line_addrs(100)) {
        // Accessing the same short sequence twice in a row: the second
        // pass of any address that survived must hit; and two identical
        // caches agree exactly.
        let mut c1 = Cache::new(CacheConfig::boom_l1());
        let mut c2 = Cache::new(CacheConfig::boom_l1());
        for &a in &addrs {
            prop_assert_eq!(c1.access(a) == CacheOutcome::Hit, c2.access(a) == CacheOutcome::Hit);
        }
        // Immediately repeated access always hits.
        if let Some(&last) = addrs.last() {
            prop_assert_eq!(c1.access(last), CacheOutcome::Hit);
        }
    }

    #[test]
    fn windowed_drain_matches_reference_oracle(addrs in line_addrs(250), window in 1usize..48) {
        // The arena-backed drain must be bit-identical to the retained
        // per-request reference scheduler for any address mix and any
        // reorder-window size, including windows past the block size.
        let geom = Geometry::hbm2_8gb();
        let timing = Timing::hbm2();
        let mut fast = ChannelSim::new(geom.banks_per_channel());
        let mut reference = ChannelSim::new(geom.banks_per_channel());
        for (i, &a) in addrs.iter().enumerate() {
            let d = geom.decode(HardwareAddr(a));
            let is_write = i % 3 == 0;
            fast.push(d, is_write, 0);
            reference.push(d, is_write, 0);
        }
        let m_fast = fast.drain(window, &timing, &mut DrainScratch::default());
        let m_ref = reference.drain_reference(window, &timing);
        prop_assert_eq!(m_fast, m_ref, "makespan diverged at window {}", window);
        prop_assert_eq!(fast.stats(), reference.stats());
    }

    #[test]
    fn streaming_run_matches_one_shot(
        seed in any::<u64>(),
        len in 1usize..50_000,
        stride in 1u64..64,
        window in 1usize..80,
    ) {
        // The block-drained open loop must give the same stats as the
        // one-shot oracle on streams up to three drain blocks long: a
        // strided run (row hits, few channels) with every third request
        // a random line.
        let geom = Geometry::hbm2_8gb();
        let mut x = seed;
        let decoded: Vec<DecodedAddr> = (0..len as u64)
            .map(|i| {
                x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
                let line = if i % 3 == 0 { x >> 37 } else { i * stride };
                geom.decode(HardwareAddr(line % (1 << 27) * 64))
            })
            .collect();
        let mut hbm = Hbm::new(geom, Timing::hbm2());
        let got = hbm.run_open_loop_windowed(decoded.iter().copied(), window);
        prop_assert_eq!(got, open_loop_reference(&hbm, &decoded, window));
    }

    #[test]
    fn bank_hash_preserves_request_counts(addrs in line_addrs(200)) {
        // With and without the bank hash, the same requests are served —
        // only row outcomes may differ.
        let geom = Geometry::hbm2_8gb();
        let decoded: Vec<_> = addrs.iter().map(|&a| geom.decode(HardwareAddr(a))).collect();
        let mut with = Hbm::new(geom, Timing::hbm2());
        let mut without = Hbm::new(geom, Timing::hbm2()).without_bank_hash();
        let sw = with.run_open_loop(decoded.iter().copied());
        let so = without.run_open_loop(decoded.iter().copied());
        prop_assert_eq!(sw.requests, so.requests);
        // Channel assignment is not affected by the bank hash.
        for (a, b) in sw.per_channel.iter().zip(&so.per_channel) {
            prop_assert_eq!(a.requests, b.requests);
        }
    }
}
