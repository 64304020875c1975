//! Metrics-conformance suite: the four accounting identities of the
//! observability layer, property-tested over randomized workloads.
//!
//! Every snapshot comes out of the real pipeline (profile → select →
//! alloc → execute → report), so these identities pin the
//! instrumentation at its sources — the HBM channel shards, the CMT
//! translate memo, the chunk allocator — not a mock:
//!
//! 1. per-channel request counters sum to the total requests issued;
//! 2. row hits + misses + conflicts account for every request
//!    (each request is classified exactly once by the row buffer);
//! 3. CMT memo hits + misses equal translate calls, and under a
//!    chunked (SDAM) engine every memory request is exactly one
//!    translate call — global engines never touch the memo;
//! 4. chunk claims − releases equal live chunks (and the event trace
//!    agrees with the counters when nothing was dropped).

use proptest::prelude::*;
use sdam::obs::Registry;
use sdam::{pipeline, Experiment, Parallelism, SystemConfig};
use sdam_workloads::datacopy::DataCopy;

/// Sums every counter named `<prefix>…<suffix>`.
fn prefixed_sum(reg: &Registry, prefix: &str, suffix: &str) -> u64 {
    reg.counters()
        .filter(|(name, _)| name.starts_with(prefix) && name.ends_with(suffix))
        .map(|(_, v)| v)
        .sum()
}

/// Runs one workload/config and checks all four identities on its
/// snapshot.
fn check_identities(strides: &[u64], config: SystemConfig, threads: usize) {
    let w = DataCopy::new(strides.to_vec());
    let mut exp = Experiment::quick();
    exp.parallelism = if threads <= 1 {
        Parallelism::Serial
    } else {
        Parallelism::Threads(threads)
    };
    let r = pipeline::try_run(&w, config, &exp).unwrap();
    let reg = &r.metrics;

    // Identity 1: channel shards account for every request.
    let per_channel = prefixed_sum(reg, "hbm.channel.", ".requests");
    assert_eq!(
        per_channel,
        reg.counter("hbm.requests"),
        "per-channel request counters must sum to the total ({config}, strides {strides:?})"
    );
    assert_eq!(
        reg.counter("hbm.requests"),
        reg.counter("machine.memory_requests"),
        "the HBM simulator must see exactly the machine's memory requests"
    );

    // Identity 2: every request is classified exactly once.
    let classified = reg.counter("hbm.row_hits")
        + reg.counter("hbm.row_misses")
        + reg.counter("hbm.row_conflicts");
    assert_eq!(
        classified,
        reg.counter("hbm.requests"),
        "row hit/miss/conflict must partition the requests ({config})"
    );
    // …and the aggregates are exactly the shard sums.
    for kind in ["row_hits", "row_misses", "row_conflicts", "refresh_stalls"] {
        assert_eq!(
            prefixed_sum(reg, "hbm.channel.", &format!(".{kind}")),
            reg.counter(&format!("hbm.{kind}")),
            "aggregate hbm.{kind} must equal the per-channel sum"
        );
    }

    // Identity 3: the translate memo accounts for every lookup.
    assert_eq!(
        reg.counter("cmt.memo_hits") + reg.counter("cmt.memo_misses"),
        reg.counter("cmt.lookups"),
        "memo hits + misses must equal translate calls ({config})"
    );
    if config.needs_profiling() && config != SystemConfig::BsBsm && config != SystemConfig::BsHm {
        assert_eq!(
            reg.counter("cmt.lookups"),
            reg.counter("machine.memory_requests"),
            "chunked engine: every memory request is one translate call"
        );
    } else if matches!(
        config,
        SystemConfig::BsDm | SystemConfig::BsBsm | SystemConfig::BsHm
    ) {
        assert_eq!(
            reg.counter("cmt.lookups"),
            0,
            "global engines never consult the per-chunk memo"
        );
    }

    // Identity 4: allocation events balance live chunks.
    let claimed = reg.counter("mem.chunks_claimed");
    let released = reg.counter("mem.chunks_released");
    let live = reg.counter("mem.live_chunks");
    assert_eq!(
        claimed - released,
        live,
        "chunk claims − releases must equal live chunks ({config})"
    );
    if reg.events().dropped() == 0 {
        let assigns = reg
            .events()
            .iter()
            .filter(|e| e.kind == "cmt.assign_chunk")
            .count() as u64;
        assert_eq!(
            assigns, claimed,
            "one cmt.assign_chunk event per claimed chunk"
        );
    }
}

proptest! {
    // Each case is a full pipeline run; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn identities_hold_on_random_workloads(
        strides in proptest::collection::vec(1u64..=64, 1..=3),
        pick in 0usize..4,
        threads in 1usize..=4,
    ) {
        let config = [
            SystemConfig::BsDm,
            SystemConfig::BsBsm,
            SystemConfig::SdmBsm,
            SystemConfig::SdmBsmMl { clusters: 2 },
        ][pick];
        check_identities(&strides, config, threads);
    }
}

#[test]
fn identities_hold_on_the_flagship_configs() {
    // Deterministic smoke covering the paper's headline lineup,
    // including the hostile stride the quick suite leans on.
    for config in [
        SystemConfig::BsDm,
        SystemConfig::SdmBsm,
        SystemConfig::SdmBsmMl { clusters: 4 },
    ] {
        check_identities(&[1, 32], config, 2);
    }
}

#[test]
fn adaptive_identities_partition_workload_and_migration_traffic() {
    // The adaptive layer's conservation identities, on a run that
    // actually migrates. Migration traffic is injected into the same
    // HBM the workload uses, so the device totals must split exactly
    // into the workload part (attributed per chunk) and the migration
    // part (counted separately) — nothing double-counted, nothing lost.
    use sdam::metrics::collect_run_metrics;
    use sdam_hbm::Geometry;
    use sdam_mapping::descriptor::MappingDescriptor;
    use sdam_mapping::{Cmt, MappingId};
    use sdam_sys::{AdaptConfig, Machine, MachineConfig, MappingEngine};
    use sdam_workloads::phased::{Phased, StrideLoop};
    use sdam_workloads::{Scale, Workload};

    let geom = Geometry::hbm2_8gb();
    let w = Phased::new(
        Box::new(StrideLoop::new(1, 4 << 20, 4)),
        Box::new(StrideLoop::new(32, 4 << 20, 4)),
        0.5,
    );
    let trace = w.generate(Scale {
        n: 1 << 12,
        accesses: 60_000,
        seed: 1,
    });
    let mut cmt = Cmt::new(geom.addr_bits(), 21);
    let perm = MappingDescriptor::new(geom)
        .channel_bits([11, 12, 13, 14, 15])
        .compile_windowed(21)
        .unwrap();
    cmt.register(MappingId(1), &perm);
    let mut engine = MappingEngine::Chunked(cmt);
    let mut m = Machine::new(MachineConfig::accelerator(), geom);
    let report = m.run_adaptive(&trace, &mut engine, &AdaptConfig::default());
    assert!(report.adapt.migrations > 0, "the run must migrate");
    let reg = collect_run_metrics(&report, None, &sdam::PhaseTimes::default());

    // Identity 5: per-chunk workload attribution covers exactly the
    // machine's memory requests...
    assert_eq!(
        prefixed_sum(&reg, "machine.chunk.", ".requests"),
        reg.counter("machine.memory_requests"),
        "per-chunk request attribution must cover every workload miss"
    );
    // ...and workload + migration requests partition the device total.
    assert_eq!(
        reg.counter("machine.memory_requests") + reg.counter("machine.migration_requests"),
        reg.counter("hbm.requests"),
        "workload and migration requests must partition the HBM total"
    );

    // Identity 6: row conflicts split the same way — per-chunk workload
    // conflicts plus migration conflicts equal the device total.
    assert_eq!(
        prefixed_sum(&reg, "machine.chunk.", ".row_conflicts")
            + reg.counter("machine.migration_row_conflicts"),
        reg.counter("hbm.row_conflicts"),
        "per-chunk conflict attribution plus migration conflicts must \
         equal the device's row conflicts"
    );
    // Migration requests are themselves fully classified.
    assert_eq!(
        reg.counter("machine.migration_row_hits")
            + reg.counter("machine.migration_row_misses")
            + reg.counter("machine.migration_row_conflicts"),
        reg.counter("machine.migration_requests"),
        "row outcomes must partition the migration requests"
    );
    // Moved bytes are whole chunks.
    assert_eq!(
        reg.counter("machine.migrated_bytes"),
        reg.counter("machine.migrations") * (2 << 20),
        "each migration moves exactly one 2 MB chunk"
    );
}

#[test]
fn comparison_merges_runs_and_cache_counters() {
    let w = DataCopy::new(vec![16]);
    let cmp = pipeline::try_compare(
        &w,
        &[SystemConfig::SdmBsm, SystemConfig::SdmBsmMl { clusters: 2 }],
        &Experiment::quick(),
    )
    .unwrap();
    // Counter merge is additive across the lineup (BS+DM prepended).
    let sum: u64 = cmp
        .results
        .iter()
        .map(|r| r.metrics.counter("hbm.requests"))
        .sum();
    assert_eq!(cmp.metrics.counter("hbm.requests"), sum);
    // The sweep's cache counters ride along: one profiling pass, one
    // hit per profiled configuration.
    assert_eq!(cmp.metrics.counter("stage.profile_cache.misses"), 1);
    assert_eq!(cmp.metrics.counter("stage.profile_cache.hits"), 2);
}
