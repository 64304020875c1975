//! Tier-1 guarantee of the parallel execution layer: the one threaded
//! tier, `try_compare`'s configuration fan-out, produces reports
//! *bit-identical* to the serial reference — cycles, per-core stats,
//! and the full per-channel memory statistics.
//! The machine drivers themselves are single-threaded; their cases here
//! pin them to the per-request oracle and to reproducibility.

use sdam::{pipeline, Experiment, Parallelism, SystemConfig};
use sdam_hbm::Geometry;
use sdam_mapping::descriptor::MappingDescriptor;
use sdam_mapping::{Cmt, MappingId};
use sdam_sys::{AdaptConfig, Machine, MachineConfig, MappingEngine};
use sdam_trace::ThreadId;
use sdam_workloads::datacopy::DataCopy;
use sdam_workloads::phased::{Phased, StrideLoop};
use sdam_workloads::{Scale, Workload};

fn serial_exp() -> Experiment {
    Experiment {
        parallelism: Parallelism::Serial,
        ..Experiment::quick()
    }
}

#[test]
fn compare_is_identical_serial_and_parallel() {
    // Under Threads(4) the configurations fan out across workers, each
    // selecting its mappings (the DL configuration trains its
    // autoencoder) on its own thread; results come back in lineup
    // order and every report must be bit-identical to the serial run.
    let w = DataCopy::new(vec![1, 32]);
    let configs = [
        SystemConfig::BsBsm,
        SystemConfig::SdmBsm,
        SystemConfig::SdmBsmMl { clusters: 4 },
        SystemConfig::SdmBsmDl { clusters: 4 },
    ];
    let serial = pipeline::try_compare(&w, &configs, &serial_exp()).unwrap();
    let mut exp = serial_exp();
    exp.parallelism = Parallelism::Threads(4);
    let parallel = pipeline::try_compare(&w, &configs, &exp).unwrap();

    assert_eq!(serial.results.len(), parallel.results.len());
    for (s, p) in serial.results.iter().zip(&parallel.results) {
        assert_eq!(s.config, p.config, "lineup order must be preserved");
        assert_eq!(
            s.report, p.report,
            "{}: parallel report diverged from serial",
            s.config
        );
        assert_eq!(s.learning_time.is_some(), p.learning_time.is_some());
    }
}

#[test]
fn metrics_snapshot_identical_serial_and_threaded() {
    // The observability layer's determinism contract: the merged
    // stable snapshot — every counter, every histogram bucket, and the
    // event trace *in order* — is bit-identical between the serial
    // pipeline and the threaded one, for every thread count.
    let w = DataCopy::new(vec![1, 32]);
    let configs = [
        SystemConfig::BsBsm,
        SystemConfig::SdmBsm,
        SystemConfig::SdmBsmMl { clusters: 4 },
        SystemConfig::SdmBsmDl { clusters: 4 },
    ];
    let serial = pipeline::try_compare(&w, &configs, &serial_exp()).unwrap();
    let reference = serial.metrics.stable_json();
    for threads in [1usize, 2, 8] {
        let mut exp = serial_exp();
        exp.parallelism = Parallelism::Threads(threads);
        let parallel = pipeline::try_compare(&w, &configs, &exp).unwrap();
        assert_eq!(
            reference,
            parallel.metrics.stable_json(),
            "merged snapshot diverged at {threads} threads"
        );
        for (s, p) in serial.results.iter().zip(&parallel.results) {
            assert_eq!(
                s.metrics.stable_json(),
                p.metrics.stable_json(),
                "{}: per-run snapshot diverged at {threads} threads",
                s.config
            );
        }
    }
}

#[test]
fn lut_translate_identical_to_bitwise_translate() {
    // Physical addresses through the table-driven CMT/AMU datapath
    // (per-chunk non-identity permutations, memoized lookups) must
    // translate exactly as the bitwise reference does.
    use sdam_mapping::{BitPermutation, Cmt, CmtLookupCache, MappingId, PhysAddr};

    let geom = Geometry::hbm2_8gb();
    let mut cmt = Cmt::new(geom.addr_bits(), 22);
    let n = 16u32;
    cmt.register(MappingId(0), &BitPermutation::identity(6, n as usize));
    // Rotate-by-5: a non-trivial permutation whose LUT path must agree
    // with the bitwise reference for every address below.
    let rot: Vec<u32> = (0..n).map(|i| (i + 5) % n).collect();
    cmt.register(MappingId(1), &BitPermutation::new(6, rot).unwrap());
    for chunk in 0..8 {
        cmt.assign_chunk(chunk, MappingId((chunk % 2) as u8))
            .unwrap();
    }

    let mut cache = CmtLookupCache::default();
    for i in 0..20_000u64 {
        let pa = PhysAddr((i * 17 * 64) & ((1u64 << 25) - 1));
        assert_eq!(
            cmt.translate_cached(pa, &mut cache),
            cmt.translate(pa),
            "memoized translate diverged at {pa:?}"
        );
    }
}

#[test]
fn machine_block_run_identical_to_reference() {
    // Directly at the machine layer: a four-thread, channel-hostile
    // stride trace through the block driver against the per-request
    // oracle.
    let geom = Geometry::hbm2_8gb();
    let trace = {
        let streams = (0..4u16)
            .map(|t| {
                sdam_trace::gen::StrideGen::new((t as u64) << 30, 32 * 64, 4_000)
                    .thread(ThreadId(t))
                    .into_trace()
            })
            .collect();
        sdam_trace::gen::interleave_round_robin(streams)
    };
    let engine = MappingEngine::identity();
    let mut m = Machine::new(MachineConfig::cpu(), geom);
    assert_eq!(
        m.run(&trace, &engine),
        m.run_reference(&trace, &engine),
        "block driver diverged from the per-request oracle"
    );
}

/// The phase-change scenario of `examples/adaptive.rs`, sized down for
/// a test: unit stride flipping to a 32-line stride mid-run over a 4 MB
/// wrapped footprint, on a CMT with the boot identity and a declared
/// stride-32 mapping registered.
fn adaptive_scenario() -> (sdam_trace::Trace, impl Fn() -> MappingEngine) {
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
    // The adaptive driver mutates the CMT (assign_chunk on migration),
    // so every run needs a fresh engine.
    let engine = move || {
        let mut cmt = Cmt::new(geom.addr_bits(), 21);
        let perm = MappingDescriptor::new(geom)
            .channel_bits([11, 12, 13, 14, 15])
            .compile_windowed(21)
            .unwrap();
        cmt.register(MappingId(1), &perm);
        MappingEngine::Chunked(cmt)
    };
    (trace, engine)
}

#[test]
fn adaptive_run_is_reproducible() {
    // The adaptive controller reads only deterministic state, so the
    // full report — cycles, per-channel stats, and the adapt section
    // with its per-chunk attribution and migration log — must be
    // bit-identical across runs from a fresh engine, including through
    // `run_adaptive_with`, whose thread count is ignored.
    let geom = Geometry::hbm2_8gb();
    let (trace, engine) = adaptive_scenario();
    let cfg = AdaptConfig::default();
    let mut m = Machine::new(MachineConfig::accelerator(), geom);
    let first = m.run_adaptive(&trace, &mut engine(), &cfg);
    assert!(
        first.adapt.migrations > 0,
        "the scenario must actually migrate, or the test proves nothing"
    );
    assert_eq!(first, m.run_adaptive(&trace, &mut engine(), &cfg));
    assert_eq!(first, m.run_adaptive_with(&trace, &mut engine(), &cfg, 8));
}

/// The `adapt` bench's workload: the same phase change at full size
/// (2^17 accesses over 2^14 lines), switching at `switch`.
fn break_even_trace(switch: f64) -> sdam_trace::Trace {
    Phased::new(
        Box::new(StrideLoop::new(1, 4 << 20, 4)),
        Box::new(StrideLoop::new(32, 4 << 20, 4)),
        switch,
    )
    .generate(Scale {
        n: 1 << 14,
        accesses: 1 << 17,
        seed: 1,
    })
}

#[test]
fn adaptive_break_even_is_pinned() {
    // The `adapt` bench's break-even sweep, pinned to its recorded
    // figures (BENCH_adapt.json): any change to the adaptive driver that
    // moves detection, migration cost or the window count shows here,
    // and so does any change to either static mapping's cycles.
    let geom = Geometry::hbm2_8gb();
    let (_, engine) = adaptive_scenario();
    // Every chunk of the 4 MB footprint pinned to `id`.
    let static_engine = |id: MappingId| {
        let mut e = engine();
        let cmt = e.as_chunked_mut().unwrap();
        for chunk in 0..(4u64 << 20) >> 21 {
            cmt.assign_chunk(chunk, id).unwrap();
        }
        e
    };
    // (switch, adaptive, identity, tuned) cycles.
    let pinned = [
        (0.1, 98_186, 475_202, 55_049),
        (0.25, 85_102, 401_472, 78_695),
        (0.5, 83_438, 278_592, 117_587),
        (0.75, 81_774, 155_712, 156_471),
        (0.9, 83_799, 81_992, 180_048),
    ];
    for (switch, cycles, identity, tuned) in pinned {
        let trace = break_even_trace(switch);
        let mut m = Machine::new(MachineConfig::accelerator(), geom);
        let r = m.run_adaptive(&trace, &mut engine(), &AdaptConfig::default());
        assert_eq!(r.cycles, cycles, "switch {switch}: cycles moved");
        assert_eq!(r.adapt.migrations, 2, "switch {switch}");
        assert_eq!(r.adapt.migration_clocks, 17_919, "switch {switch}");
        assert_eq!(r.adapt.windows, 32, "switch {switch}");
        assert_eq!(r.memory.requests, 262_144, "switch {switch}");
        let statics =
            [MappingId(0), MappingId(1)].map(|id| m.run(&trace, &static_engine(id)).cycles);
        assert_eq!(
            statics,
            [identity, tuned],
            "switch {switch}: static cycles moved"
        );
        // Migration cost included, adaptive beats the best static
        // mapping exactly when enough mismatched tail is left to
        // amortise it.
        assert_eq!(
            r.cycles < identity.min(tuned),
            switch == 0.5 || switch == 0.75,
            "switch {switch}: break-even moved"
        );
    }
}

#[test]
fn adaptive_observe_only_is_bit_identical_to_plain_run() {
    // With a zero migration budget the controller still observes every
    // miss, outcome and window boundary through the driver's hooks but
    // never migrates: the report must equal `Machine::run`'s bit for
    // bit in every field but `adapt`, which must show the observation.
    // Both the small scenario and the `adapt` bench's mid-run input.
    let geom = Geometry::hbm2_8gb();
    let (small, engine) = adaptive_scenario();
    let cfg = AdaptConfig { max_migrations: 0 };
    for trace in [small, break_even_trace(0.5)] {
        let mut m = Machine::new(MachineConfig::accelerator(), geom);
        let plain = m.run(&trace, &engine());
        let observed = m.run_adaptive(&trace, &mut engine(), &cfg);
        assert!(observed.adapt.enabled);
        assert!(observed.adapt.windows > 0);
        assert_eq!(observed.adapt.migrations, 0);
        assert_eq!(
            plain,
            sdam_sys::ExecutionReport {
                adapt: Default::default(),
                ..observed
            }
        );
    }
}

#[test]
fn streamed_trace_replay_identical_to_in_memory_run() {
    // A trace serialized to the binary format and replayed off the
    // stream must reproduce the in-memory windowed run bit-for-bit. The
    // trace spans two drain blocks, and a reader's size hint is 0, so
    // the two runs also reserve their queues differently.
    use sdam_hbm::{HardwareAddr, Hbm, Timing};
    use sdam_trace::io::{write_trace, TraceReader};
    use sdam_trace::{MemAccess, Trace};

    let geom = Geometry::hbm2_8gb();
    let trace: Trace = (0..30_000u64)
        .map(|i| {
            let addr = if i % 5 == 0 {
                (i / 5) * 4096
            } else {
                (i * 0x9e37_79b9 * 64) & ((1u64 << 30) - 1)
            };
            MemAccess::read(addr, sdam_trace::VariableId((i % 3) as u32))
        })
        .collect();
    let mut buf = Vec::new();
    write_trace(&trace, &mut buf).unwrap();

    let decode = |a: u64| geom.decode(HardwareAddr(a));
    let window = 16usize;
    let mut hbm = Hbm::new(geom, Timing::hbm2());
    let serial = hbm.run_open_loop_windowed(trace.iter().map(|a| decode(a.addr)), window);

    let reader = TraceReader::new(buf.as_slice()).unwrap();
    let mut hbm = Hbm::new(geom, Timing::hbm2());
    let streamed = hbm.run_open_loop_windowed(
        reader.map(|r| decode(r.expect("trace corrupt").addr)),
        window,
    );
    assert_eq!(serial, streamed, "streamed replay diverged");
}
