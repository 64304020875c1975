//! Cross-crate integration tests: the full SDAM pipeline from workload
//! generation to simulated execution.

use sdam::stage::{ProfileHandle, RunContext, SelectStage, Stage, StageCache};
use sdam::{pipeline, profiling, Experiment, SystemConfig};
use sdam_workloads::datacopy::DataCopy;
use sdam_workloads::{data_intensive_suite, standard_suite, Scale, Workload};

fn quick() -> Experiment {
    Experiment::quick()
}

#[test]
fn every_config_runs_every_quick_workload() {
    // Smoke coverage: all 8 configurations x a representative workload
    // set complete and conserve the access count.
    let mut exp = quick();
    exp.scale = Scale::tiny();
    let workloads: Vec<Box<dyn Workload>> = vec![
        Box::new(DataCopy::new(vec![1, 16])),
        Box::new(sdam_workloads::graph::Bfs),
        Box::new(sdam_workloads::analytics::HashJoin),
    ];
    for w in &workloads {
        let expected = w.generate(exp.scale).len() as u64;
        for config in SystemConfig::paper_lineup() {
            let r = pipeline::try_run(w.as_ref(), config, &exp).unwrap();
            assert_eq!(
                r.report.accesses,
                expected,
                "{config} lost accesses on {}",
                w.name()
            );
            assert!(r.report.cycles > 0, "{config} reported zero cycles");
            assert_eq!(
                r.report.memory.requests, r.report.memory_requests,
                "machine and device disagree on request count"
            );
        }
    }
}

#[test]
fn comparisons_share_one_profile_and_stay_consistent() {
    let w = DataCopy::new(vec![4, 32]);
    let exp = quick();
    let cmp = pipeline::try_compare(
        &w,
        &[SystemConfig::SdmBsm, SystemConfig::SdmBsmMl { clusters: 2 }],
        &exp,
    )
    .unwrap();
    // Deterministic: running again gives identical cycle counts.
    let cmp2 = pipeline::try_compare(
        &w,
        &[SystemConfig::SdmBsm, SystemConfig::SdmBsmMl { clusters: 2 }],
        &exp,
    )
    .unwrap();
    for (a, b) in cmp.results.iter().zip(&cmp2.results) {
        assert_eq!(
            a.report.cycles, b.report.cycles,
            "{} not deterministic",
            a.config
        );
    }
}

#[test]
fn caller_supplied_profile_drives_its_own_selection() {
    // Two profiles of one workload selected through one StageCache: the
    // second selection must come from the second profile, not from
    // whatever the cache recorded for the first.
    let exp = quick();
    let w = DataCopy::new(vec![1, 32]);
    let own = profiling::try_profile_on_baseline(&w, &exp).unwrap();
    let mut other = own.clone();
    other.aggregate = profiling::try_profile_on_baseline(&DataCopy::new(vec![16]), &exp)
        .unwrap()
        .aggregate;
    let shuffle = |outcome: profiling::SelectionOutcome| match outcome.selection {
        profiling::Selection::GlobalShuffle(m) => m,
        other => panic!("BS+BSM must select a global shuffle, got {other:?}"),
    };
    let expected =
        shuffle(profiling::try_select_mappings(SystemConfig::BsBsm, &own, &exp).unwrap());
    let foreign =
        shuffle(profiling::try_select_mappings(SystemConfig::BsBsm, &other, &exp).unwrap());
    assert_ne!(
        expected, foreign,
        "the two profiles must select differently"
    );

    let cache = StageCache::new();
    let mut selected = Vec::new();
    for data in [&other, &own] {
        let mut ctx = RunContext::new(&w, SystemConfig::BsBsm, &exp, &cache);
        ctx.profile = Some(ProfileHandle::Borrowed(data));
        SelectStage.run(&mut ctx).unwrap();
        selected.push(shuffle(ctx.selection.take().unwrap()));
    }
    assert_eq!(selected[0], foreign);
    assert_eq!(
        selected[1], expected,
        "the caller's profile was served another profile's selection"
    );
}

#[test]
fn profiling_attributes_every_major_variable() {
    let exp = quick();
    for w in standard_suite().iter().take(4) {
        let data = profiling::try_profile_on_baseline(w.as_ref(), &exp).unwrap();
        assert!(
            !data.major.is_empty(),
            "{} has no major variables",
            w.name()
        );
        for v in &data.major {
            assert!(data.bfrvs.contains_key(v));
            assert!(data.pa_streams.contains_key(v));
            assert!(
                data.bfrvs[v]
                    .rates()
                    .iter()
                    .all(|r| (0.0..=1.0).contains(r)),
                "BFRV out of range for {v}"
            );
        }
    }
}

#[test]
fn suites_have_the_papers_sizes() {
    assert_eq!(standard_suite().len(), 19, "SPEC2006 int (12) + PARSEC (7)");
    assert_eq!(data_intensive_suite().len(), 8);
}

#[test]
fn frequency_scaling_increases_sdam_benefit() {
    // The Fig. 14 trend as an integration-level assertion.
    let w = DataCopy::new(vec![32]);
    let config = SystemConfig::SdmBsm;
    let speedup_at = |scale: u64| {
        let mut exp = quick();
        exp.timing = sdam_hbm::Timing::hbm2().scaled(scale);
        pipeline::try_compare(&w, &[config], &exp)
            .unwrap()
            .speedup_of(config)
            .expect("config ran")
    };
    let full = speedup_at(1);
    let quarter = speedup_at(4);
    assert!(
        quarter > full,
        "slower memory should amplify SDAM: {full} -> {quarter}"
    );
}

#[test]
fn stream_triad_behaviour_under_sdam() {
    // Two distinct streaming facts, both tested:
    // (1) the paper's negative result lives on *single-stream* traffic —
    //     DataCopy stride-1 (covered in the pipeline unit tests): the
    //     boot mapping is already optimal there.
    // (2) statically partitioned multi-lane streams (STREAM triad with
    //     contiguous quarters) put all four lanes on the same channel in
    //     lockstep; SDAM's profile sees the lane-interleaved deltas and
    //     decorrelates them, so it may legitimately WIN here. Assert it
    //     never loses and stays within sane bounds.
    let mut exp = quick();
    exp.scale = Scale::tiny();
    let w = sdam_workloads::stream::Stream::triad();
    let cmp = pipeline::try_compare(&w, &[SystemConfig::SdmBsm], &exp).unwrap();
    let s = cmp.speedup_of(SystemConfig::SdmBsm).expect("config ran");
    assert!(
        (0.8..4.0).contains(&s),
        "stream-triad speedup out of band: {s}"
    );
}

#[test]
fn remap_pays_off_after_a_phase_change() {
    // The migration extension: a buffer allocated for streaming is
    // remapped for the column-walk phase; the walk then spreads.
    let mut sys = sdam::SdamSystem::try_new(sdam_hbm::Geometry::hbm2_8gb(), 21).unwrap();
    let stream_map = sys.add_mapping(&sys.permutation_for_stride(1)).unwrap();
    let column_map = sys.add_mapping(&sys.permutation_for_stride(32)).unwrap();
    let pid = sdam::ProcessId(0);
    let va = sys.malloc_in(pid, 2 << 20, Some(stream_map)).unwrap();
    // Streaming phase touches everything.
    for off in (0..(2 << 20)).step_by(4096) {
        sys.touch_in(pid, sdam_mem::VirtAddr(va.raw() + off))
            .unwrap();
    }
    let (new_va, moved) = sys.remap_in(pid, va, column_map).unwrap();
    assert_eq!(moved, 512, "whole buffer was resident");
    // Column walk on the migrated buffer spreads across channels.
    let chans: std::collections::HashSet<u64> = (0..64u64)
        .map(|i| {
            sys.access_in(pid, sdam_mem::VirtAddr(new_va.raw() + i * 32 * 64))
                .expect("mapped")
                .channel
        })
        .collect();
    assert!(
        chans.len() >= 16,
        "only {} channels after remap",
        chans.len()
    );
}

#[test]
fn learning_time_is_reported_for_ml_and_dl() {
    let w = DataCopy::new(vec![8, 16]);
    let exp = quick();
    for config in [
        SystemConfig::SdmBsmMl { clusters: 2 },
        SystemConfig::SdmBsmDl { clusters: 2 },
    ] {
        let r = pipeline::try_run(&w, config, &exp).unwrap();
        assert!(r.learning_time.is_some(), "{config} lost its learning time");
    }
}
