//! Assembly of observability snapshots (the workspace's single metrics
//! path).
//!
//! Every layer of the stack keeps plain per-component counters in its
//! own sharded accumulators ([`sdam_hbm::ChannelStats`],
//! [`sdam_sys::TranslationStats`], the allocator counters in
//! [`sdam_mem`]); nothing in a hot loop touches a registry or an
//! atomic. This module is where those accumulators are *merged* into
//! one [`Registry`] — once per run, at the report barrier — which is
//! what keeps the snapshot bit-identical between serial and threaded
//! pipelines: the accumulators are always folded in a fixed order
//! (channel order, core order, process order, lineup order), never
//! racily.
//!
//! ## Namespace
//!
//! | prefix     | source                                              |
//! |------------|-----------------------------------------------------|
//! | `hbm.*`    | [`sdam_hbm::SimStats::export_into`] (per-channel and aggregated row-buffer counters) |
//! | `cmt.*`    | [`sdam_sys::TranslationStats::export_into`] (CMT translate memo) |
//! | `mem.*`    | [`SdamSystem::export_into`] (chunk allocator + malloc + faults) |
//! | `machine.*`| the [`ExecutionReport`] headline numbers            |
//! | `stage.*`  | [`StageCache`] profile hit/miss counters and (volatile) per-phase wall-clock |
//!
//! `stage.<phase>.nanos` entries are host wall-clock and therefore go
//! into the registry's *volatile* section, which
//! [`Registry::stable_json`] excludes — the stable snapshot contains
//! only replayable simulation facts.

use sdam_obs::Registry;
use sdam_sys::ExecutionReport;

use crate::report::{PhaseTimes, RunResult};
use crate::stage::StageCache;
use crate::system::SdamSystem;

/// Builds the per-run snapshot from the run's sharded accumulators:
/// the machine report (which carries the HBM and translation stats),
/// the system the trace was allocated into (chunk/malloc counters and
/// the allocation event trace), and the host-side phase times.
pub fn collect_run_metrics(
    report: &ExecutionReport,
    sys: Option<&SdamSystem>,
    phases: &PhaseTimes,
) -> Registry {
    let mut reg = Registry::new();
    reg.incr("machine.cycles", report.cycles);
    reg.incr("machine.accesses", report.accesses);
    reg.incr("machine.memory_requests", report.memory_requests);
    reg.incr("machine.l1_hits", report.l1_hits);
    report.memory.export_into(&mut reg);
    report.translation.export_into(&mut reg);
    export_adapt(report, &mut reg);
    if let Some(sys) = sys {
        sys.export_into(&mut reg);
    }
    export_phases(phases, &mut reg);
    reg
}

/// Exports the adaptive-remapping section of a report under the
/// `machine.*` namespace: migration totals plus the per-chunk conflict
/// attribution (`machine.chunk.<n>.*`). Emitted only when the adaptive
/// driver actually ran, so non-adaptive snapshots — including the
/// golden fixture — are byte-identical to before the adaptive layer
/// existed.
fn export_adapt(report: &ExecutionReport, reg: &mut Registry) {
    if !report.adapt.enabled {
        return;
    }
    let a = &report.adapt;
    reg.incr("machine.adapt_windows", a.windows);
    reg.incr("machine.migrations", a.migrations);
    reg.incr("machine.migrated_bytes", a.migrated_bytes);
    reg.incr("machine.migration_requests", a.migration_requests);
    reg.incr("machine.migration_clocks", a.migration_clocks);
    reg.incr("machine.migration_row_hits", a.migration_row_hits);
    reg.incr("machine.migration_row_misses", a.migration_row_misses);
    reg.incr("machine.migration_row_conflicts", a.migration_row_conflicts);
    for (chunk, t) in &a.chunk_traffic {
        reg.incr(&format!("machine.chunk.{chunk}.requests"), t.requests);
        reg.incr(
            &format!("machine.chunk.{chunk}.row_conflicts"),
            t.row_conflicts,
        );
    }
}

/// Folds host wall-clock per phase into the registry's volatile
/// section (excluded from [`Registry::stable_json`] — wall-clock can
/// never be deterministic).
pub(crate) fn export_phases(phases: &PhaseTimes, reg: &mut Registry) {
    reg.set_volatile("stage.profile.nanos", phases.profile.as_nanos() as u64);
    reg.set_volatile("stage.select.nanos", phases.select.as_nanos() as u64);
    reg.set_volatile(
        "stage.materialize.nanos",
        phases.materialize.as_nanos() as u64,
    );
    reg.set_volatile("stage.execute.nanos", phases.execute.as_nanos() as u64);
}

/// Merges the per-run snapshots of a comparison sweep, in lineup
/// order, and appends the sweep's profile-cache counters.
///
/// The cache counters are deterministic even under the threaded
/// fan-out because [`crate::pipeline::try_compare`] warms the profile
/// serially into its own cache before fanning out, so the miss count
/// does not depend on thread interleaving.
pub(crate) fn merge_sweep_metrics(results: &[RunResult], cache: &StageCache) -> Registry {
    let mut reg = Registry::new();
    for r in results {
        reg.merge(&r.metrics);
    }
    reg.incr("stage.profile_cache.hits", cache.profile_hits());
    reg.incr("stage.profile_cache.misses", cache.profile_misses());
    reg
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdam_hbm::{SimStats, Timing};
    use sdam_sys::TranslationStats;

    fn report() -> ExecutionReport {
        ExecutionReport {
            cycles: 1000,
            accesses: 100,
            memory_requests: 40,
            l1_hits: 60,
            memory: SimStats {
                requests: 40,
                makespan: 900,
                per_channel: vec![],
                timing: Timing::hbm2(),
            },
            mapping_name: "test".into(),
            per_core: vec![],
            translation: TranslationStats {
                memo_hits: 30,
                memo_misses: 10,
            },
            adapt: Default::default(),
        }
    }

    #[test]
    fn adapt_metrics_only_appear_for_adaptive_runs() {
        let plain = collect_run_metrics(&report(), None, &PhaseTimes::default());
        assert!(
            !plain.stable_json().contains("machine.migrations"),
            "non-adaptive snapshots must not grow adapt keys"
        );
        let mut r = report();
        r.adapt.enabled = true;
        r.adapt.windows = 3;
        r.adapt.migrations = 1;
        r.adapt.chunk_traffic.insert(
            7,
            sdam_sys::ChunkTraffic {
                requests: 40,
                row_conflicts: 4,
            },
        );
        let reg = collect_run_metrics(&r, None, &PhaseTimes::default());
        assert_eq!(reg.counter("machine.adapt_windows"), 3);
        assert_eq!(reg.counter("machine.migrations"), 1);
        assert_eq!(reg.counter("machine.chunk.7.requests"), 40);
        assert_eq!(reg.counter("machine.chunk.7.row_conflicts"), 4);
    }

    #[test]
    fn run_metrics_cover_machine_hbm_and_cmt() {
        let reg = collect_run_metrics(&report(), None, &PhaseTimes::default());
        assert_eq!(reg.counter("machine.cycles"), 1000);
        assert_eq!(reg.counter("machine.l1_hits"), 60);
        assert_eq!(reg.counter("hbm.requests"), 40);
        assert_eq!(reg.counter("cmt.lookups"), 40);
        assert_eq!(reg.counter("cmt.memo_hits"), 30);
    }

    #[test]
    fn phase_times_are_volatile_not_stable() {
        let phases = PhaseTimes {
            execute: std::time::Duration::from_nanos(1234),
            ..PhaseTimes::default()
        };
        let reg = collect_run_metrics(&report(), None, &phases);
        assert_eq!(reg.volatile("stage.execute.nanos"), 1234);
        assert!(
            !reg.stable_json().contains("stage.execute.nanos"),
            "wall-clock must not leak into the stable snapshot"
        );
        assert!(reg.full_json().contains("stage.execute.nanos"));
    }
}
