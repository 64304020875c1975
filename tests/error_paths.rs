//! Invalid inputs surface as typed errors through the `try_*` entry
//! points — no library crate panics on any of them.
//!
//! Each test drives a whole-stack failure the seed used to `assert!`,
//! `unwrap()` or index its way into, and pins the exact error variant
//! the workspace-level [`SdamError`] taxonomy assigns it.

use sdam::churn::ChurnPlayer;
use sdam::{pipeline, Experiment, ProcessId, SdamError, SdamSystem, SystemConfig};
use sdam_hbm::Geometry;
use sdam_mapping::descriptor::{DescriptorError, MappingDescriptor};
use sdam_mapping::{BitFlipRateVector, BitPermutation, Cmt, CmtError, MappingId};
use sdam_mem::{MemError, VirtAddr};
use sdam_ml::dlkmeans::{cluster_variables_dl, DlError};
use sdam_ml::{TrainingConfig, TrainingError};
use sdam_sys::ConfigError;
use sdam_workloads::churn::{ChurnConfig, ChurnScript, TenantOp};
use sdam_workloads::datacopy::DataCopy;

/// The primordial process every system starts with.
const P0: ProcessId = ProcessId(0);

/// A 16 KB device: 6 line + 2 col + 1 channel + 1 bank + 4 row = 14
/// address bits, two 8 KB chunks — small enough to exhaust in a test.
fn tiny_geometry() -> Geometry {
    Geometry::new(2, 1, 1, 4).expect("valid tiny geometry")
}

#[test]
fn out_of_physical_memory_is_an_error_not_a_panic() {
    let mut sys = SdamSystem::try_new(tiny_geometry(), 13).expect("13-bit chunks fit 14 bits");
    // Demand-page allocations until the two 8 KB chunks are exhausted.
    let mut last = Ok(());
    'outer: for _ in 0..64 {
        match sys.malloc_in(P0, 4096, None) {
            Ok(va) => {
                if let Err(e) = sys.touch_in(P0, va) {
                    last = Err(e);
                    break 'outer;
                }
            }
            Err(e) => {
                last = Err(e);
                break 'outer;
            }
        }
    }
    assert!(
        matches!(last, Err(MemError::OutOfPhysicalMemory)),
        "expected OutOfPhysicalMemory, got {last:?}"
    );
}

#[test]
fn out_of_memory_reaches_the_pipeline_as_sdam_error() {
    // The full pipeline on a device far smaller than the workload's
    // footprint: the allocator's failure must travel up through the
    // staged pipeline as a typed error.
    let mut exp = Experiment::quick();
    exp.geometry = tiny_geometry();
    exp.chunk_bits = 13;
    let err = pipeline::try_run(&DataCopy::new(vec![1]), SystemConfig::BsDm, &exp);
    assert!(
        matches!(err, Err(SdamError::Mem(MemError::OutOfPhysicalMemory))),
        "expected Mem(OutOfPhysicalMemory), got {err:?}"
    );
}

#[test]
fn zero_and_oversized_mallocs_are_rejected() {
    let mut sys = SdamSystem::try_new(Geometry::hbm2_8gb(), 21).unwrap();
    assert!(matches!(
        sys.malloc_in(P0, 0, None),
        Err(MemError::InvalidSize { size: 0 })
    ));
    let huge = sdam_mem::MAX_ALLOC_BYTES + 1;
    assert!(matches!(
        sys.malloc_in(P0, huge, None),
        Err(MemError::InvalidSize { size }) if size == huge
    ));
}

#[test]
fn unknown_mapping_is_rejected_at_allocation_time() {
    let mut sys = SdamSystem::try_new(Geometry::hbm2_8gb(), 21).unwrap();
    let err = sys.malloc_in(P0, 4096, Some(MappingId(123)));
    assert!(
        matches!(err, Err(MemError::UnknownMapping(MappingId(123)))),
        "expected UnknownMapping(123), got {err:?}"
    );
}

#[test]
fn failed_remap_frees_its_destination() {
    let mut sys = SdamSystem::try_new(tiny_geometry(), 13).unwrap();
    let m = sys
        .try_add_mapping(&BitPermutation::identity(6, 7))
        .unwrap();
    // Four resident default-mapping pages fill both 8 KB chunks, so the
    // remap's first page copy cannot find a chunk for `m`.
    let va = sys.malloc_in(P0, 4 * 4096, None).unwrap();
    for page in 0..4 {
        sys.touch_in(P0, VirtAddr(va.raw() + page * 4096)).unwrap();
    }
    let err = sys.remap_in(P0, va, m);
    assert!(
        matches!(err, Err(MemError::OutOfPhysicalMemory)),
        "expected OutOfPhysicalMemory, got {err:?}"
    );
    // The failed remap leaves the caller holding only `va`; once it is
    // freed, nothing lives under `m` and the mapping can be removed.
    sys.free_in(P0, va).unwrap();
    assert_eq!(sys.remove_mapping(m), Ok(()));
}

#[test]
fn mapping_ids_exhaust_with_a_typed_error() {
    let mut sys = SdamSystem::try_new(Geometry::hbm2_8gb(), 21).unwrap();
    let identity = BitPermutation::identity(6, 15);
    let mut ok = 0u32;
    let exhausted = loop {
        match sys.try_add_mapping(&identity) {
            Ok(_) => ok += 1,
            Err(e) => break e,
        }
        assert!(ok <= 1024, "mapping ids never exhausted");
    };
    assert!(
        matches!(exhausted, SdamError::Mem(MemError::MappingIdsExhausted)),
        "expected MappingIdsExhausted, got {exhausted:?}"
    );
    assert!(ok > 0, "some mappings must register before exhaustion");
}

#[test]
fn invalid_chunk_bits_fail_validation_and_construction() {
    // Through Experiment validation (<= page bits).
    let mut exp = Experiment::quick();
    exp.chunk_bits = 12;
    assert!(matches!(
        exp.try_validate(),
        Err(ConfigError::ChunkBits { chunk_bits: 12, .. })
    ));
    // Beyond the CMT's 21-bit crossbar window.
    exp.chunk_bits = 30;
    assert!(matches!(
        exp.try_validate(),
        Err(ConfigError::ChunkBits { chunk_bits: 30, .. })
    ));
    // The same constraint enforced by the mapping hardware itself.
    assert!(matches!(
        Cmt::try_new(33, 30),
        Err(CmtError::InvalidChunkBits {
            chunk_bits: 30,
            phys_bits: 33
        })
    ));
    // And through the pipeline entry point.
    let err = pipeline::try_run(&DataCopy::new(vec![1]), SystemConfig::BsDm, &exp);
    assert!(matches!(
        err,
        Err(SdamError::Config(ConfigError::ChunkBits { .. }))
    ));
}

#[test]
fn invalid_machine_config_fails_through_every_entry_point() {
    let mut exp = Experiment::quick();
    exp.machine.num_cores = 0;
    assert!(matches!(
        exp.try_validate(),
        Err(ConfigError::Machine { .. })
    ));
    let w = DataCopy::new(vec![1]);
    assert!(matches!(
        pipeline::try_run(&w, SystemConfig::BsDm, &exp),
        Err(SdamError::Config(ConfigError::Machine { .. }))
    ));
    assert!(matches!(
        pipeline::try_compare(&w, &[SystemConfig::BsDm], &exp),
        Err(SdamError::Config(ConfigError::Machine { .. }))
    ));
    assert!(matches!(
        pipeline::try_run_corun(&[&w], SystemConfig::BsDm, &exp),
        Err(SdamError::Config(ConfigError::Machine { .. }))
    ));
}

#[test]
fn unknown_process_is_a_typed_error() {
    let mut sys = SdamSystem::try_new(Geometry::hbm2_8gb(), 21).unwrap();
    let ghost = sdam::ProcessId(42);
    assert!(matches!(
        sys.malloc_in(ghost, 4096, None),
        Err(MemError::UnknownProcess { pid: 42 })
    ));
    assert!(matches!(
        sys.touch_in(ghost, VirtAddr(0)),
        Err(MemError::UnknownProcess { pid: 42 })
    ));
}

#[test]
fn churn_op_on_a_session_not_live_is_a_typed_error() {
    let mut sys = SdamSystem::try_new(Geometry::hbm2_8gb(), 21).unwrap();
    let script = ChurnScript {
        ops: Vec::new(),
        config: ChurnConfig::default(),
        sessions: 2,
    };
    let mut player = ChurnPlayer::new(&script);
    let counters = |sys: &SdamSystem| {
        (
            sys.process_count(),
            sys.chunks_claimed(),
            sys.page_faults(),
            sys.cmt().registered_ids().count(),
        )
    };
    let rejected = |player: &mut ChurnPlayer, sys: &mut SdamSystem, op: TenantOp, session: u32| {
        let before = counters(sys);
        assert_eq!(
            player.apply(sys, &op).err(),
            Some(MemError::UnknownProcess { pid: session }),
            "{op:?}"
        );
        assert_eq!(counters(sys), before, "{op:?} moved the system");
    };
    // Session 1 never arrives.
    for op in [
        TenantOp::Malloc {
            session: 1,
            bytes: 4096,
            sensitive: false,
        },
        TenantOp::Touch {
            session: 1,
            pick: 0,
            pages: 1,
        },
        TenantOp::Depart { session: 1 },
    ] {
        rejected(&mut player, &mut sys, op, 1);
    }
    // Session 0 arrives, departs, then departs again.
    for op in [
        TenantOp::Arrive {
            session: 0,
            own_mapping: true,
        },
        TenantOp::Depart { session: 0 },
    ] {
        player.apply(&mut sys, &op).unwrap();
    }
    rejected(&mut player, &mut sys, TenantOp::Depart { session: 0 }, 0);
    // A session beyond the script's range cannot arrive.
    let beyond = TenantOp::Arrive {
        session: 2,
        own_mapping: true,
    };
    rejected(&mut player, &mut sys, beyond, 2);
}

#[test]
fn churn_arrive_on_a_live_session_is_a_typed_error() {
    let mut sys = SdamSystem::try_new(Geometry::hbm2_8gb(), 21).unwrap();
    let script = ChurnScript {
        ops: Vec::new(),
        config: ChurnConfig::default(),
        sessions: 1,
    };
    let mut player = ChurnPlayer::new(&script);
    let counters = |sys: &SdamSystem| {
        (
            sys.process_count(),
            sys.chunks_claimed(),
            sys.page_faults(),
            sys.cmt().registered_ids().count(),
        )
    };
    let empty = counters(&sys);
    let arrive = TenantOp::Arrive {
        session: 0,
        own_mapping: true,
    };
    player.apply(&mut sys, &arrive).unwrap();
    let live = counters(&sys);
    assert_eq!(
        player.apply(&mut sys, &arrive).err(),
        Some(MemError::ProcessLive { pid: 0 }),
        "a second Arrive on a live session must be refused"
    );
    assert_eq!(counters(&sys), live, "the refused Arrive moved the system");
    // The first tenant still owns the slot, so one Depart releases all.
    player
        .apply(&mut sys, &TenantOp::Depart { session: 0 })
        .unwrap();
    assert_eq!(counters(&sys), empty, "the first tenant leaked");
}

#[test]
fn empty_profile_is_a_typed_error_for_learned_configs() {
    let exp = Experiment::quick();
    let empty = sdam::profiling::empty_profile(&exp);
    for config in [
        SystemConfig::SdmBsm,
        SystemConfig::SdmBsmMl { clusters: 4 },
        SystemConfig::SdmBsmDl { clusters: 4 },
    ] {
        let err = sdam::profiling::try_select_mappings(config, &empty, &exp);
        assert!(
            matches!(err, Err(SdamError::EmptyProfile)),
            "{config}: expected EmptyProfile, got {err:?}"
        );
    }
}

#[test]
fn zero_clusters_is_a_config_error_not_a_panic() {
    let exp = Experiment::quick();
    let w = DataCopy::new(vec![1, 16]);
    let is_cluster_error =
        |e: &SdamError| matches!(e, SdamError::Config(ConfigError::System { .. }));
    for config in [
        SystemConfig::SdmBsmMl { clusters: 0 },
        SystemConfig::SdmBsmDl { clusters: 0 },
    ] {
        let err = pipeline::try_run(&w, config, &exp).err();
        assert!(
            err.as_ref().is_some_and(is_cluster_error),
            "{config} via try_run: expected Config(System), got {err:?}"
        );
        let err = pipeline::try_compare(&w, &[config], &exp).err();
        assert!(
            err.as_ref().is_some_and(is_cluster_error),
            "{config} via try_compare: expected Config(System), got {err:?}"
        );
        let err = pipeline::try_run_corun(&[&w], config, &exp).err();
        assert!(
            err.as_ref().is_some_and(is_cluster_error),
            "{config} via try_run_corun: expected Config(System), got {err:?}"
        );
    }
    // Straight into selection, with a real (non-empty) profile.
    let data = sdam::profiling::try_profile_on_baseline(&w, &exp).expect("profile fits");
    let err =
        sdam::profiling::try_select_mappings(SystemConfig::SdmBsmMl { clusters: 0 }, &data, &exp)
            .err();
    assert!(
        err.as_ref().is_some_and(is_cluster_error),
        "try_select_mappings: expected Config(System), got {err:?}"
    );
}

/// Two short address streams, enough for DL clustering to train on.
fn dl_traces() -> Vec<Vec<u64>> {
    vec![
        (0..64u64).map(|i| i * 64).collect(),
        (0..64u64).map(|i| i * 4096).collect(),
    ]
}

/// DL clustering over [`dl_traces`] with their flip rates at `bits`
/// address bits (`bits` clamped into `1..=64` for the rates).
fn dl_cluster(bits: u32, config: &TrainingConfig) -> Result<Vec<usize>, DlError> {
    let traces = dl_traces();
    let width = bits.clamp(1, 64);
    let bfrvs: Vec<BitFlipRateVector> = traces
        .iter()
        .map(|t| BitFlipRateVector::from_addrs(t.iter().copied(), width))
        .collect();
    let traces: Vec<&[u64]> = traces.iter().map(Vec::as_slice).collect();
    let rates: Vec<&[f64]> = bfrvs.iter().map(BitFlipRateVector::rates).collect();
    cluster_variables_dl(&traces, &rates, bits, 2, config).map(|c| c.assignments)
}

#[test]
fn dl_clustering_rejects_an_address_width_outside_1_to_64() {
    for bits in [0, 65] {
        let r = dl_cluster(bits, &TrainingConfig::laptop());
        assert_eq!(r.err(), Some(DlError::AddrBits(bits)));
    }
}

#[test]
fn dl_clustering_rejects_an_invalid_training_config() {
    let bad = TrainingConfig {
        steps: 0,
        ..TrainingConfig::laptop()
    };
    let r = dl_cluster(34, &bad);
    assert_eq!(
        r.err(),
        Some(DlError::Training(TrainingError {
            what: "steps must be positive"
        }))
    );
}

#[test]
fn dl_clustering_rejects_flip_rates_of_another_width() {
    let traces = dl_traces();
    let traces: Vec<&[u64]> = traces.iter().map(Vec::as_slice).collect();
    let narrow = vec![0.5; 33];
    let r = cluster_variables_dl(
        &traces,
        &[&narrow, &narrow],
        34,
        2,
        &TrainingConfig::laptop(),
    );
    assert_eq!(r.err(), Some(DlError::FlipRates));
    let e: SdamError = DlError::FlipRates.into();
    assert!(
        matches!(e, SdamError::Config(ConfigError::Training { .. })),
        "{e:?}"
    );
}

#[test]
fn descriptor_rejects_a_window_outside_the_device() {
    let geom = Geometry::hbm2_8gb();
    let desc = MappingDescriptor::new(geom).channel_bits([11, 12]);
    for window_hi in [0, geom.addr_bits() + 1] {
        assert_eq!(
            desc.compile_windowed(window_hi).err(),
            Some(DescriptorError::WindowOutOfRange {
                window_hi,
                lo: geom.line_bits(),
                addr_bits: geom.addr_bits(),
            })
        );
    }
}
