//! Property tests local to the system model: the cache is a true LRU,
//! and the machine conserves work.

use proptest::prelude::*;
use sdam_hbm::Geometry;
use sdam_sys::cache::{Cache, CacheConfig, CacheOutcome};
use sdam_sys::machine::{Machine, MachineConfig};
use sdam_sys::path::MappingEngine;
use sdam_trace::gen::StrideGen;
use sdam_trace::{MemAccess, ThreadId, Trace, VariableId};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cache_matches_a_reference_lru(
        (ways, set_bits, line_bits) in (1usize..=16, 0u32..=8, 5u32..=7),
        stream in proptest::collection::vec((0u64..1 << 20, 0u64..128, 0usize..3), 1..600),
        reset_at in 0usize..600,
    ) {
        // A random shape: any associativity, power-of-two sets and
        // lines. Lines are drawn from twice the capacity, so both hits
        // and evictions happen, in three regions: the bottom of the
        // address space, the middle, and the top, where a tag reaches
        // its widest.
        let (sets, line) = (1u64 << set_bits, 1u64 << line_bits);
        let cfg = CacheConfig {
            capacity_bytes: sets * ways as u64 * line,
            ways,
            line_bytes: line,
            hit_latency: 1,
        };
        let lines = 2 * sets * ways as u64;
        let bases = [0, 1u64 << 40, u64::MAX - (lines * line - 1)];
        let mut cache = Cache::new(cfg);
        // The reference: per set, line numbers most recent first.
        let mut model: Vec<Vec<u64>> = vec![Vec::new(); sets as usize];
        let (mut hits, mut misses) = (0u64, 0u64);
        for (i, &(pick, offset, region)) in stream.iter().enumerate() {
            if i == reset_at {
                cache.reset();
                model.iter_mut().for_each(Vec::clear);
                (hits, misses) = (0, 0);
            }
            let addr = bases[region] + (pick % lines) * line + offset % line;
            let line_no = addr >> line_bits;
            let set = &mut model[(line_no % sets) as usize];
            let expect_hit = set.contains(&line_no);
            let got = cache.access(addr);
            prop_assert_eq!(got == CacheOutcome::Hit, expect_hit, "access {} addr {:#x}", i, addr);
            if expect_hit {
                hits += 1;
            } else {
                misses += 1;
            }
            set.retain(|&l| l != line_no);
            set.insert(0, line_no);
            set.truncate(ways);
            prop_assert_eq!((cache.hits(), cache.misses()), (hits, misses));
        }
    }

    #[test]
    fn machine_cycles_monotone_in_trace_prefix(n in 100u64..2_000) {
        let geom = Geometry::hbm2_8gb();
        let full = StrideGen::new(0, 3 * 64, n).into_trace();
        let half: Trace = full.iter().take((n / 2) as usize).copied().collect();
        let mut m = Machine::new(MachineConfig::cpu(), geom);
        let c_half = m.run(&half, &MappingEngine::identity()).cycles;
        let c_full = m.run(&full, &MappingEngine::identity()).cycles;
        prop_assert!(c_full >= c_half);
    }

    #[test]
    fn thread_ids_beyond_core_count_fold_safely(threads in proptest::collection::vec(0u16..64, 1..200)) {
        let geom = Geometry::hbm2_8gb();
        let trace: Trace = threads
            .iter()
            .enumerate()
            .map(|(i, &t)| MemAccess {
                thread: ThreadId(t),
                ..MemAccess::read(i as u64 * 64, VariableId(0))
            })
            .collect();
        let mut m = Machine::new(MachineConfig::cpu(), geom);
        let r = m.run(&trace, &MappingEngine::identity());
        prop_assert_eq!(r.accesses, threads.len() as u64);
        prop_assert_eq!(r.per_core.len(), 4);
        let per_core_sum: u64 = r.per_core.iter().map(|c| c.accesses).sum();
        prop_assert_eq!(per_core_sum, threads.len() as u64);
    }
}
