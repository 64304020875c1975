//! # Online adaptive remapping — the DReAM-style feedback loop
//!
//! The paper selects mappings *offline* from a profiling pass; this
//! module closes the loop at runtime. The block driver in
//! [`crate::machine`] attributes row conflicts to the 2^chunk_bits-byte
//! chunk that produced them, and at block-window boundaries a
//! remap controller inspects those counters, detects a
//! mapping/workload mismatch (a hot chunk whose conflict rate stays
//! above threshold for K consecutive windows while its traffic is
//! pinned to a few channels), scores every registered mapping against
//! sampled addresses from the chunk, and — when a strictly better
//! mapping exists — orders a live migration: the chunk's lines are read
//! under the old mapping and rewritten under the new one through the
//! ordinary HBM service path, then `Cmt::assign_chunk` flips the table
//! entry so the epoch bump invalidates every scalar and block memo.
//!
//! Everything the controller consumes is deterministic state: per-chunk
//! counters accumulated in trace order by the single-threaded driver,
//! so adaptive runs are reproducible bit for bit, and a controller that
//! only observes leaves the run untouched.

use std::collections::BTreeMap;

use sdam_hbm::{bank_hashed, Geometry, RowOutcome};
use sdam_mapping::{Cmt, MappingId, PhysAddr};

/// Trace accesses per observation window. Boundaries are evaluated at
/// driver block edges, so the effective boundary lands at the first
/// block edge at or past each multiple of this.
const WINDOW_ACCESSES: u64 = 4096;
/// A chunk qualifies as mismatched when `conflicts / requests` in a
/// window reaches this rate ...
const CONFLICT_THRESHOLD: f64 = 0.15;
/// ... and it saw at least this many requests (noise floor) ...
const MIN_CHUNK_REQUESTS: u64 = 64;
/// ... and its traffic touched at most this many distinct channels (the
/// channel-level-parallelism starvation signal: a well-spread chunk may
/// still conflict, but remapping cannot help it).
const MAX_CHUNK_CHANNELS: u32 = 4;
/// Consecutive qualifying windows before a chunk is remapped
/// (hysteresis against transient phases).
const SUSTAIN_WINDOWS: u32 = 2;
/// Window boundaries a chunk sits out after a migration — or after
/// scoring found no better mapping; it is eligible again at the
/// `COOLDOWN_WINDOWS`-th boundary after.
const COOLDOWN_WINDOWS: u32 = 8;
/// Migrations allowed at one window boundary.
const MAX_MIGRATIONS_PER_WINDOW: u32 = 2;
/// Per-chunk physical-address samples kept per window for candidate
/// scoring.
const SAMPLE_LINES: usize = 64;

/// The adaptive remapping controller's one policy knob.
///
/// The detection policy is fixed in private constants of this module,
/// tuned for the phase-change stride workloads of
/// `examples/adaptive.rs`: detection within two 4096-access windows,
/// and a cooldown long enough that a migrated chunk is not reconsidered
/// while its post-migration traffic pattern settles. The migration
/// budget bounds worst-case injected traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptConfig {
    /// Total migration budget for the run (bounds injected traffic);
    /// `0` makes the controller observe only.
    pub max_migrations: u32,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        AdaptConfig { max_migrations: 8 }
    }
}

/// Cumulative per-chunk traffic attribution, exported as
/// `machine.chunk.*` metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChunkTraffic {
    /// Workload requests (external misses) that landed in the chunk.
    pub requests: u64,
    /// Row conflicts those requests produced.
    pub row_conflicts: u64,
}

/// What adaptation did during a run, merged into
/// [`crate::ExecutionReport`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AdaptReport {
    /// Whether the adaptive controller ran (false for `Machine::run` or
    /// a non-chunked engine; the rest of the report is then zero).
    pub enabled: bool,
    /// Observation windows completed.
    pub windows: u64,
    /// Chunks migrated.
    pub migrations: u64,
    /// Bytes moved by migrations (chunk size × migrations).
    pub migrated_bytes: u64,
    /// Read+write requests injected into the device by migrations —
    /// counted separately from workload `memory_requests`.
    pub migration_requests: u64,
    /// Cycles every core spent stalled behind migrations (the
    /// stop-the-world window at each migrating boundary).
    pub migration_clocks: u64,
    /// Row-buffer hits among migration requests.
    pub migration_row_hits: u64,
    /// Row-buffer misses (idle-bank activations) among migration
    /// requests.
    pub migration_row_misses: u64,
    /// Row conflicts among migration requests.
    pub migration_row_conflicts: u64,
    /// Per-chunk workload traffic attribution (only chunks that saw
    /// traffic appear).
    pub chunk_traffic: BTreeMap<u64, ChunkTraffic>,
}

/// A remap order for one chunk, produced at a window boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MigrationPlan {
    /// Chunk number to move.
    pub chunk: u64,
    /// Mapping the chunk is currently assigned to.
    pub from: MappingId,
    /// Strictly better mapping to move it to.
    pub to: MappingId,
}

/// Per-chunk observation state for the current window.
#[derive(Debug, Default)]
struct ChunkWindow {
    requests: u64,
    conflicts: u64,
    /// Bit per channel touched (channels ≥ 64 saturate the guard bit —
    /// such a chunk is already spread and never qualifies anyway).
    channel_mask: u64,
    /// First `SAMPLE_LINES` miss PAs, in trace order, for scoring.
    samples: Vec<u64>,
}

/// The feedback controller: consumes per-chunk conflict attribution at
/// window boundaries and produces [`MigrationPlan`]s.
///
/// The controller is a three-state machine per chunk:
///
/// * **quiet** — the chunk did not qualify this window; any sustain
///   credit is dropped.
/// * **suspect** — the chunk qualified (hot, conflicted, pinned) for
///   1..K consecutive windows.
/// * **cooling** — the chunk was migrated (or scoring declined to), and
///   is exempt until `COOLDOWN_WINDOWS` boundaries have passed.
///
/// All state lives in `BTreeMap`s keyed by chunk number, so iteration —
/// and therefore plan order — is deterministic.
#[derive(Debug)]
pub(crate) struct RemapController {
    cfg: AdaptConfig,
    chunk_bits: u32,
    geom: Geometry,
    window: BTreeMap<u64, ChunkWindow>,
    sustain: BTreeMap<u64, u32>,
    cooldown: BTreeMap<u64, u32>,
    accesses_seen: u64,
    next_window_at: u64,
    report: AdaptReport,
}

impl RemapController {
    /// A controller for a run over `geom` with the engine's chunk size.
    pub(crate) fn new(cfg: AdaptConfig, chunk_bits: u32, geom: Geometry) -> Self {
        RemapController {
            cfg,
            chunk_bits,
            geom,
            window: BTreeMap::new(),
            sustain: BTreeMap::new(),
            cooldown: BTreeMap::new(),
            accesses_seen: 0,
            next_window_at: WINDOW_ACCESSES,
            report: AdaptReport {
                enabled: true,
                ..AdaptReport::default()
            },
        }
    }

    /// Records an external miss (phase A of the driver): counts the
    /// request against its chunk and keeps the first `SAMPLE_LINES`
    /// physical addresses for candidate scoring. The driver calls this
    /// in trace order, before translation.
    pub(crate) fn note_access(&mut self, pa: u64) {
        let w = self.window.entry(pa >> self.chunk_bits).or_default();
        w.requests += 1;
        if w.samples.len() < SAMPLE_LINES {
            w.samples.push(pa);
        }
    }

    /// Records the row-buffer outcome of a serviced workload request;
    /// the driver calls this inline in replay order.
    pub(crate) fn note_outcome(&mut self, chunk: u64, channel: u64, outcome: RowOutcome) {
        let w = self.window.entry(chunk).or_default();
        w.channel_mask |= 1u64 << channel.min(63);
        if outcome == RowOutcome::Conflict {
            w.conflicts += 1;
        }
    }

    /// Advances the access counter by one driver block; returns `true`
    /// when a window boundary has been crossed and
    /// [`RemapController::end_window`] should run. Boundaries land on
    /// driver block edges, so they depend only on the trace length.
    pub(crate) fn block_done(&mut self, block_len: usize) -> bool {
        self.accesses_seen += block_len as u64;
        if self.accesses_seen < self.next_window_at {
            return false;
        }
        while self.next_window_at <= self.accesses_seen {
            self.next_window_at += WINDOW_ACCESSES;
        }
        true
    }

    /// Closes the current window: updates sustain/cooldown state, folds
    /// the window's counters into the cumulative report, and returns
    /// the migrations to perform (possibly none). Reads the CMT only —
    /// the driver applies the plans (injects traffic, then
    /// `assign_chunk`).
    pub(crate) fn end_window(&mut self, cmt: &Cmt) -> Vec<MigrationPlan> {
        self.report.windows += 1;

        // Cooldowns tick down first, so a chunk whose cooldown ends at
        // this boundary is eligible at it (its streak kept counting
        // while it cooled).
        self.cooldown.retain(|_, left| {
            *left -= 1;
            *left > 0
        });

        // Sustain bookkeeping: a chunk keeps its streak only by
        // qualifying in *consecutive* windows.
        let mut sustain = BTreeMap::new();
        for (&chunk, w) in &self.window {
            if self.qualifies(w) {
                let streak = self.sustain.get(&chunk).copied().unwrap_or(0) + 1;
                sustain.insert(chunk, streak);
            }
        }
        self.sustain = sustain;

        // Pick migration candidates: sustained chunks outside cooldown,
        // worst conflicts first (chunk number breaks ties), capped by
        // the per-window and whole-run budgets.
        let mut ripe: Vec<(u64, u64)> = self
            .sustain
            .iter()
            .filter(|(chunk, &streak)| {
                streak >= SUSTAIN_WINDOWS && !self.cooldown.contains_key(chunk)
            })
            .map(|(&chunk, _)| (chunk, self.window[&chunk].conflicts))
            .collect();
        ripe.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

        let budget = (self.cfg.max_migrations as u64).saturating_sub(self.report.migrations);
        let take = u64::from(MAX_MIGRATIONS_PER_WINDOW).min(budget) as usize;

        let mut plans = Vec::new();
        for &(chunk, _) in ripe.iter().take(take) {
            let current = cmt.chunk_mapping(chunk);
            // Every ripe chunk leaves the suspect state here: either it
            // migrates or scoring found nothing better — both enter
            // cooldown so the controller does not re-score every window.
            self.sustain.remove(&chunk);
            self.cooldown.insert(chunk, COOLDOWN_WINDOWS);
            let samples = &self.window[&chunk].samples;
            let Some(current_score) = score_mapping(cmt, self.geom, current, samples) else {
                continue;
            };
            let best = cmt
                .registered_ids()
                .filter(|&id| id != current)
                .filter_map(|id| score_mapping(cmt, self.geom, id, samples).map(|s| (s, id)))
                .min();
            if let Some((score, id)) = best {
                if score < current_score {
                    plans.push(MigrationPlan {
                        chunk,
                        from: current,
                        to: id,
                    });
                }
            }
        }

        self.fold_window();
        plans
    }

    /// The per-window mismatch predicate: hot, conflicted, and pinned.
    fn qualifies(&self, w: &ChunkWindow) -> bool {
        w.requests >= MIN_CHUNK_REQUESTS
            && w.conflicts as f64 >= CONFLICT_THRESHOLD * w.requests as f64
            && w.channel_mask.count_ones() <= MAX_CHUNK_CHANNELS
    }

    /// Folds the current window's counters into the cumulative
    /// per-chunk attribution and clears the window.
    fn fold_window(&mut self) {
        for (chunk, w) in std::mem::take(&mut self.window) {
            let t = self.report.chunk_traffic.entry(chunk).or_default();
            t.requests += w.requests;
            t.row_conflicts += w.conflicts;
        }
    }

    /// Records one executed migration (requests injected and bytes
    /// moved).
    pub(crate) fn note_migration(&mut self, requests: u64, bytes: u64) {
        self.report.migrations += 1;
        self.report.migration_requests += requests;
        self.report.migrated_bytes += bytes;
    }

    /// Records the row-buffer outcome of one injected migration request.
    pub(crate) fn note_migration_outcome(&mut self, outcome: RowOutcome) {
        match outcome {
            RowOutcome::Hit => self.report.migration_row_hits += 1,
            RowOutcome::Miss => self.report.migration_row_misses += 1,
            RowOutcome::Conflict => self.report.migration_row_conflicts += 1,
        }
    }

    /// Records the cycles every core stalled behind a migrating
    /// boundary.
    pub(crate) fn note_migration_stall(&mut self, cycles: u64) {
        self.report.migration_clocks += cycles;
    }

    /// Finishes the run: folds the trailing partial window (its
    /// counters still belong in the cumulative attribution — no policy
    /// runs on it) and returns the report.
    pub(crate) fn into_report(mut self) -> AdaptReport {
        self.fold_window();
        self.report
    }
}

/// Scores how well a registered mapping would serve a chunk's sampled
/// traffic: lower is better. The primary key is the load on the most
/// loaded channel (channel-level-parallelism starvation — what the
/// stride studies of the paper isolate); the tie-break counts row
/// switches per (channel, bank) as a conflict proxy. `None` if the
/// mapping is unregistered or there are no samples.
fn score_mapping(cmt: &Cmt, geom: Geometry, id: MappingId, samples: &[u64]) -> Option<(u64, u64)> {
    if samples.is_empty() {
        return None;
    }
    let mut channel_load = vec![0u64; geom.num_channels()];
    let mut last_row: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    let mut row_switches = 0u64;
    for &pa in samples {
        let ha = cmt.translate_under(id, PhysAddr(pa)).ok()?;
        let d = bank_hashed(geom, geom.decode(ha));
        channel_load[d.channel as usize] += 1;
        match last_row.insert((d.channel, d.bank), d.row) {
            Some(prev) if prev != d.row => row_switches += 1,
            _ => {}
        }
    }
    let max_load = channel_load.iter().copied().max().unwrap_or(0);
    Some((max_load, row_switches))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdam_mapping::BitPermutation;

    fn cmt_with_rotation() -> Cmt {
        let geom = Geometry::hbm2_8gb();
        let mut cmt = Cmt::new(geom.addr_bits(), 21);
        // A rotation that moves the stride-varying bits (11+) into the
        // channel field (6..11).
        let n = 15u32;
        let rot: Vec<u32> = (0..n).map(|i| (i + 5) % n).collect();
        cmt.register(MappingId(1), &BitPermutation::new(6, rot).unwrap());
        cmt
    }

    /// Feeds one window of pinned, conflicted traffic for a chunk.
    fn pinned_window(ctl: &mut RemapController, chunk: u64) {
        for i in 0..128u64 {
            let pa = (chunk << 21) | (i * 2048);
            ctl.note_access(pa);
            ctl.note_outcome(chunk, 0, RowOutcome::Conflict);
        }
    }

    #[test]
    fn sustained_pinned_conflicts_trigger_a_plan() {
        let geom = Geometry::hbm2_8gb();
        let cmt = cmt_with_rotation();
        let mut ctl = RemapController::new(AdaptConfig::default(), 21, geom);
        assert_eq!(
            sustained(&mut ctl, &cmt, &[3]),
            vec![MigrationPlan {
                chunk: 3,
                from: MappingId(0),
                to: MappingId(1),
            }]
        );
    }

    #[test]
    fn spread_traffic_never_qualifies() {
        let geom = Geometry::hbm2_8gb();
        let cmt = cmt_with_rotation();
        let mut ctl = RemapController::new(AdaptConfig::default(), 21, geom);
        for _ in 0..3 {
            for i in 0..128u64 {
                let pa = i * 64;
                ctl.note_access(pa);
                // Conflicted but spread over all 32 channels: remapping
                // cannot help; the CLP guard must hold it back.
                ctl.note_outcome(0, i % 32, RowOutcome::Conflict);
            }
            assert!(ctl.end_window(&cmt).is_empty());
        }
    }

    /// Feeds `SUSTAIN_WINDOWS` windows of pinned traffic on `chunks`,
    /// checks that no window before the last one plans anything, and
    /// returns the last window's plans.
    fn sustained(ctl: &mut RemapController, cmt: &Cmt, chunks: &[u64]) -> Vec<MigrationPlan> {
        for w in 1..=SUSTAIN_WINDOWS {
            for &chunk in chunks {
                pinned_window(ctl, chunk);
            }
            let plans = ctl.end_window(cmt);
            if w == SUSTAIN_WINDOWS {
                return plans;
            }
            assert!(plans.is_empty(), "window {w} is not sustained");
        }
        unreachable!("SUSTAIN_WINDOWS is at least 1")
    }

    #[test]
    fn interrupted_streaks_reset() {
        let geom = Geometry::hbm2_8gb();
        let cmt = cmt_with_rotation();
        let mut ctl = RemapController::new(AdaptConfig::default(), 21, geom);
        for _ in 1..SUSTAIN_WINDOWS {
            pinned_window(&mut ctl, 3);
            assert!(ctl.end_window(&cmt).is_empty());
        }
        // A quiet window breaks the streak...
        assert!(ctl.end_window(&cmt).is_empty());
        // ...so the chunk needs a full streak again.
        assert_eq!(sustained(&mut ctl, &cmt, &[3]).len(), 1);
    }

    #[test]
    fn cooldown_and_budget_bound_migrations() {
        let geom = Geometry::hbm2_8gb();
        let cmt = cmt_with_rotation();
        let cfg = AdaptConfig { max_migrations: 1 };
        let mut ctl = RemapController::new(cfg, 21, geom);
        assert_eq!(sustained(&mut ctl, &cmt, &[3]).len(), 1);
        ctl.note_migration(1, 1 << 21);
        // Same pressure again, plus a new chunk: the run budget is spent,
        // so neither the cooling chunk nor the new one plans.
        assert!(
            sustained(&mut ctl, &cmt, &[3, 5]).is_empty(),
            "run budget must also stop new chunks"
        );
    }

    #[test]
    fn per_window_cap_defers_the_third_ripe_chunk() {
        let geom = Geometry::hbm2_8gb();
        let cmt = cmt_with_rotation();
        let mut ctl = RemapController::new(AdaptConfig::default(), 21, geom);
        // Three chunks with equal conflicts ripen at the same boundary;
        // the chunk number breaks the tie.
        let plans = sustained(&mut ctl, &cmt, &[5, 3, 4]);
        assert_eq!(plans.len(), MAX_MIGRATIONS_PER_WINDOW as usize);
        assert_eq!(
            plans.iter().map(|p| p.chunk).collect::<Vec<_>>(),
            vec![3, 4]
        );
        // The deferred chunk kept its streak: one more pinned window
        // plans it.
        pinned_window(&mut ctl, 5);
        let next = ctl.end_window(&cmt);
        assert_eq!(next.iter().map(|p| p.chunk).collect::<Vec<_>>(), vec![5]);
    }

    #[test]
    fn cooling_chunk_is_eligible_exactly_when_its_cooldown_ends() {
        let geom = Geometry::hbm2_8gb();
        let cmt = cmt_with_rotation();
        let mut ctl = RemapController::new(AdaptConfig::default(), 21, geom);
        assert_eq!(sustained(&mut ctl, &cmt, &[3]).len(), 1);
        // The driver would flip the CMT entry; this CMT keeps chunk 3 on
        // the identity, so it stays mismatched under pressure.
        for boundary in 1..COOLDOWN_WINDOWS {
            pinned_window(&mut ctl, 3);
            assert!(
                ctl.end_window(&cmt).is_empty(),
                "cooling at boundary {boundary}"
            );
        }
        pinned_window(&mut ctl, 3);
        assert_eq!(ctl.end_window(&cmt).len(), 1, "cooldown over");
    }

    #[test]
    fn report_folds_partial_windows() {
        let geom = Geometry::hbm2_8gb();
        let mut ctl = RemapController::new(AdaptConfig::default(), 21, geom);
        ctl.note_access(5 << 21);
        ctl.note_outcome(5, 0, RowOutcome::Conflict);
        let report = ctl.into_report();
        assert_eq!(report.chunk_traffic[&5].requests, 1);
        assert_eq!(report.chunk_traffic[&5].row_conflicts, 1);
        assert!(report.enabled);
    }

    #[test]
    fn score_prefers_the_spreading_mapping() {
        let geom = Geometry::hbm2_8gb();
        let cmt = cmt_with_rotation();
        // A stride-32-line walk within one chunk: pinned under identity.
        let samples: Vec<u64> = (0..64u64).map(|i| i * 2048).collect();
        let s0 = score_mapping(&cmt, geom, MappingId(0), &samples).unwrap();
        let s1 = score_mapping(&cmt, geom, MappingId(1), &samples).unwrap();
        assert!(
            s1 < s0,
            "rotation must spread the pinned walk: {s1:?} vs {s0:?}"
        );
        assert_eq!(s0.0, 64, "identity pins all samples on one channel");
    }

    #[test]
    fn block_done_crosses_windows_once() {
        let geom = Geometry::hbm2_8gb();
        let mut ctl = RemapController::new(AdaptConfig::default(), 21, geom);
        let window = WINDOW_ACCESSES as usize;
        assert!(!ctl.block_done(window - 1));
        assert!(ctl.block_done(1));
        assert!(!ctl.block_done(window - 1));
        // A block that crosses several windows still reports once...
        assert!(ctl.block_done(2 * window + 1));
        // ...and, as that block ended on a boundary, the next one is a
        // full window later.
        assert!(!ctl.block_done(window - 1));
        assert!(ctl.block_done(1));
    }
}
