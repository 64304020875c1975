//! The machine model: cores (or accelerator lanes) with bounded
//! memory-level parallelism in front of the HBM simulator.
//!
//! Each core advances a local clock: compute cycles per access, cache
//! hit latencies, and — on an LLC miss — a request issued into the HBM
//! device through the configured [`MappingEngine`]. A core may have up
//! to `mlp_window` misses outstanding; when the window is full it stalls
//! until the oldest completes. Total execution time is the slowest
//! core's clock joined with its last memory completion, so
//! channel-conflict-induced serialization in the memory shows up as
//! wall-clock slowdown — the paper's measurement, reproduced in model
//! form.

use std::collections::VecDeque;

use sdam_hbm::{DecodedAddr, Geometry, Hbm, RowOutcome, Timing};
use sdam_mapping::{Cmt, PhysAddr};
use sdam_trace::Trace;

use crate::adapt::{AdaptConfig, AdaptReport, MigrationPlan, RemapController};
use crate::cache::{Cache, CacheConfig, CacheOutcome};
use crate::error::ConfigError;
use crate::path::{MappingEngine, TranslationCache, TranslationStats};

/// Machine parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineConfig {
    /// Number of cores (or accelerator lanes) issuing in parallel.
    pub num_cores: usize,
    /// Maximum outstanding LLC misses per core.
    pub mlp_window: usize,
    /// Compute cycles consumed per memory access in the trace.
    pub compute_cycles: u64,
    /// Per-core first-level cache (`None` for cacheless engines).
    pub l1: Option<CacheConfig>,
    /// Shared last-level cache.
    pub llc: Option<CacheConfig>,
}

impl MachineConfig {
    /// The paper's CPU: 4 BOOM cores, 64 KB L1 each, modest
    /// out-of-order memory parallelism.
    ///
    /// The model is the standard memory-bound OoO abstraction: ALU work
    /// and L1-hit latency overlap with the instruction window (hits
    /// retire at 1/cycle), so execution time is driven by external
    /// misses and window stalls — the component SDAM changes.
    pub fn cpu() -> Self {
        MachineConfig {
            num_cores: 4,
            mlp_window: 16,
            compute_cycles: 0,
            l1: Some(CacheConfig::boom_l1()),
            llc: None,
        }
    }

    /// A single-core variant (the paper's core-count scaling study).
    pub fn cpu_with_cores(num_cores: usize) -> Self {
        MachineConfig {
            num_cores,
            ..MachineConfig::cpu()
        }
    }

    /// A CPU with a shared last-level cache (1 MB, 16-way) behind the
    /// per-core L1s — the configuration of server-class parts. The
    /// paper's BOOM prototype had no LLC; this preset exists for
    /// sensitivity studies.
    pub fn cpu_with_llc() -> Self {
        MachineConfig {
            llc: Some(CacheConfig {
                capacity_bytes: 1 << 20,
                ways: 16,
                line_bytes: 64,
                hit_latency: 12,
            }),
            ..MachineConfig::cpu()
        }
    }

    /// A near-memory accelerator: deep pipelining (a 4x larger
    /// outstanding-request window) and a much smaller cache — the
    /// paper's two reasons accelerators gain more from SDAM (§7.4).
    pub fn accelerator() -> Self {
        MachineConfig {
            num_cores: 4,
            mlp_window: 64,
            compute_cycles: 0,
            l1: Some(CacheConfig::accelerator_buffer()),
            llc: None,
        }
    }

    /// Validates the configuration: at least one core, a miss window
    /// of at least one outstanding request, and valid cache shapes.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Machine`] (or [`ConfigError::Cache`] from a cache
    /// shape) naming the violated constraint.
    pub fn try_validate(&self) -> Result<(), ConfigError> {
        if self.num_cores == 0 {
            return Err(ConfigError::Machine {
                what: "need at least one core",
            });
        }
        if self.mlp_window == 0 {
            return Err(ConfigError::Machine {
                what: "window must allow one outstanding miss",
            });
        }
        if let Some(c) = self.l1 {
            c.try_validate()?;
        }
        if let Some(c) = self.llc {
            c.try_validate()?;
        }
        Ok(())
    }
}

/// Per-core execution breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoreStats {
    /// The core's final clock (its busy time).
    pub cycles: u64,
    /// Accesses this core executed.
    pub accesses: u64,
    /// External misses this core issued.
    pub misses: u64,
    /// Cycles the core spent stalled on a full miss window — the memory
    /// component SDAM reduces.
    pub window_stall_cycles: u64,
}

/// The outcome of running a trace on a machine.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionReport {
    /// Total execution time in cycles (slowest core).
    pub cycles: u64,
    /// Accesses executed.
    pub accesses: u64,
    /// LLC (external memory) misses issued to the HBM.
    pub memory_requests: u64,
    /// L1 hits across cores.
    pub l1_hits: u64,
    /// The memory device's statistics for this run.
    pub memory: sdam_hbm::SimStats,
    /// The mapping engine used (for reporting).
    pub mapping_name: String,
    /// Per-core breakdown.
    pub per_core: Vec<CoreStats>,
    /// CMT translation counters, summed over the per-core translation
    /// caches in core order. All zero for `Global` engines.
    pub translation: TranslationStats,
    /// What online adaptation did (all-default for non-adaptive runs,
    /// so non-adaptive reports compare exactly as before).
    pub adapt: AdaptReport,
}

impl ExecutionReport {
    /// Speedup of this run relative to a baseline run of the same trace.
    ///
    /// Degenerate runs carry no signal, so the ratio is guarded instead
    /// of emitting `inf`/`NaN`: when both runs recorded zero cycles the
    /// speedup is `1.0` (identically empty runs), and when exactly one
    /// side is zero it is `0.0`.
    pub fn speedup_over(&self, baseline: &ExecutionReport) -> f64 {
        safe_speedup(baseline.cycles, self.cycles)
    }

    /// Fraction of external requests among all accesses.
    pub fn external_access_rate(&self) -> f64 {
        if self.accesses == 0 {
            return 0.0;
        }
        self.memory_requests as f64 / self.accesses as f64
    }

    /// Fraction of the slowest core's time spent stalled on its miss
    /// window — the "memory-bound-ness" of the run.
    pub fn stall_fraction(&self) -> f64 {
        let worst = self.per_core.iter().max_by_key(|c| c.cycles);
        match worst {
            Some(c) if c.cycles > 0 => c.window_stall_cycles as f64 / c.cycles as f64,
            _ => 0.0,
        }
    }
}

/// Sums per-core translation-cache counters in core order. Both drivers
/// fold their caches through this.
fn sum_translation(caches: &[TranslationCache]) -> TranslationStats {
    let mut total = TranslationStats::default();
    for c in caches {
        total.merge(c.stats());
    }
    total
}

/// `baseline_cycles / cycles` with zero denominators guarded: `1.0`
/// when both are zero, `0.0` when exactly one is.
pub fn safe_speedup(baseline_cycles: u64, cycles: u64) -> f64 {
    match (baseline_cycles, cycles) {
        (0, 0) => 1.0,
        (0, _) | (_, 0) => 0.0,
        (b, c) => b as f64 / c as f64,
    }
}

/// Accesses per batching block in the block driver.
///
/// Within one block the driver runs three phases — cache filter,
/// batched decode/translate, clock replay — over a reused [`MissStage`]
/// arena. The size trades locality (small enough that the block's miss
/// columns stay cache-resident) against amortization of the per-block
/// engine dispatch.
const MISS_BLOCK: usize = 4096;

/// Per-block staging for the block driver: external misses collected
/// during the cache-filter phase (A), translated and decoded per core
/// in the batch phase (B), and replayed through the clock model in
/// phase C. All buffers are reused across blocks, so a steady-state
/// block allocates nothing.
///
/// Misses are stored as per-core parallel columns (one stream per
/// translation cache — the CMT memo is order-sensitive *within* a
/// stream but independent *across* streams), plus a global `order`
/// list that preserves trace order for the replay phase.
#[derive(Debug, Default)]
struct MissStage {
    /// Global miss order within the block: (core, index into that
    /// core's columns).
    order: Vec<(u32, u32)>,
    /// Raw physical addresses, per core; translated in place by
    /// phase B.
    pas: Vec<Vec<u64>>,
    /// Write flags, per core.
    writes: Vec<Vec<bool>>,
    /// The core's accumulated phase-A clock additions at the time of
    /// each miss (compute cycles + cache-hit latencies since block
    /// start, including this access's compute cycles).
    advances: Vec<Vec<u64>>,
    /// Decoded (and bank-hashed) hardware addresses, per core; filled
    /// by phase B.
    decoded: Vec<Vec<DecodedAddr>>,
}

impl MissStage {
    fn new(cores: usize) -> Self {
        MissStage {
            order: Vec::new(),
            pas: vec![Vec::new(); cores],
            writes: vec![Vec::new(); cores],
            advances: vec![Vec::new(); cores],
            decoded: vec![Vec::new(); cores],
        }
    }

    fn clear(&mut self) {
        self.order.clear();
        for c in 0..self.pas.len() {
            self.pas[c].clear();
            self.writes[c].clear();
            self.advances[c].clear();
            self.decoded[c].clear();
        }
    }

    fn push(&mut self, core: usize, pa: u64, is_write: bool, advance: u64) {
        self.order.push((core as u32, self.pas[core].len() as u32));
        self.pas[core].push(pa);
        self.writes[core].push(is_write);
        self.advances[core].push(advance);
    }
}

/// The machine: cores + caches + memory device.
#[derive(Debug)]
pub struct Machine {
    config: MachineConfig,
    geometry: Geometry,
    timing: Timing,
}

impl Machine {
    /// Builds a machine over the given memory geometry with default
    /// HBM2 timing.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: MachineConfig, geometry: Geometry) -> Self {
        match Machine::try_new(config, geometry) {
            Ok(m) => m,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible twin of [`Machine::new`].
    ///
    /// # Errors
    ///
    /// [`ConfigError`] if the machine configuration is invalid.
    pub fn try_new(config: MachineConfig, geometry: Geometry) -> Result<Self, ConfigError> {
        config.try_validate()?;
        Ok(Machine {
            config,
            geometry,
            timing: Timing::hbm2(),
        })
    }

    /// Overrides the memory timing (the Fig. 14 frequency-scaling knob).
    pub fn with_timing(mut self, timing: Timing) -> Self {
        self.timing = timing;
        self
    }

    /// The machine configuration.
    pub fn config(&self) -> MachineConfig {
        self.config
    }

    /// Runs a trace of *physical* addresses through caches, the mapping
    /// engine, and the memory device. Each access is attributed to core
    /// `thread % num_cores`.
    ///
    /// Requests are processed in blocks of 4096 accesses with three
    /// phases per block: (A) cache filter — caches are probed in trace
    /// order and external misses collected into a reused staging
    /// arena, (B) batched translate/decode — each core's misses go
    /// through [`MappingEngine::decode_block`] (one engine
    /// dispatch per core per block) and the controller's bank hash is
    /// applied block-wide, (C) clock replay — the per-core clock,
    /// window-stall, and issue logic consumes the decoded block in
    /// trace order. The report is bit-identical to the per-request
    /// oracle [`Machine::run_reference`]: cache outcomes do not depend
    /// on clocks, translations depend only on per-core stream order
    /// (preserved), and phase C replays the exact clock arithmetic at
    /// every miss via the recorded phase-A advances.
    pub fn run(&mut self, trace: &Trace, engine: &MappingEngine) -> ExecutionReport {
        self.drive(trace, engine)
    }

    /// The original per-request serial driver, kept verbatim as the
    /// oracle the block-based [`Machine::run`] is tested against: every
    /// access runs compute, cache probe, window stall, translation, and
    /// memory service inline before the next access is considered.
    pub fn run_reference(&mut self, trace: &Trace, engine: &MappingEngine) -> ExecutionReport {
        let n = self.config.num_cores;
        let mut hbm = Hbm::new(self.geometry, self.timing);
        let mut l1s: Vec<Option<Cache>> = (0..n).map(|_| self.config.l1.map(Cache::new)).collect();
        let mut llc: Option<Cache> = self.config.llc.map(Cache::new);
        let mut clocks = vec![0u64; n];
        let mut outstanding: Vec<VecDeque<u64>> = vec![VecDeque::new(); n];
        let mut memory_requests = 0u64;
        let mut l1_hits = 0u64;
        let mut per_core = vec![CoreStats::default(); n];
        let mut caches = vec![TranslationCache::default(); n];
        let lookup = engine.lookup_cycles(&self.timing);

        for a in trace.iter() {
            let core = a.thread.index() % n;
            per_core[core].accesses += 1;
            clocks[core] += self.config.compute_cycles;

            if let Some(l1) = &mut l1s[core] {
                if l1.access(a.addr) == CacheOutcome::Hit {
                    clocks[core] += l1.config().hit_latency;
                    l1_hits += 1;
                    continue;
                }
            }
            if let Some(llc) = &mut llc {
                if llc.access(a.addr) == CacheOutcome::Hit {
                    clocks[core] += llc.config().hit_latency;
                    continue;
                }
            }

            // External memory access.
            memory_requests += 1;
            per_core[core].misses += 1;
            if outstanding[core].len() >= self.config.mlp_window {
                if let Some(oldest) = outstanding[core].pop_front() {
                    if oldest > clocks[core] {
                        per_core[core].window_stall_cycles += oldest - clocks[core];
                        clocks[core] = oldest;
                    }
                }
            }
            let ha = engine.decode_cached(PhysAddr(a.addr), self.geometry, &mut caches[core]);
            // The CMT lookup sits on the miss path; its SRAM latency is
            // constant (paper §5.3: 6 ns, negligible next to >130 ns of
            // HBM). Global mappings are combinational.
            let issue = clocks[core] + lookup;
            let completion = hbm.service_rw(ha, a.is_write, issue);
            outstanding[core].push_back(completion);
            clocks[core] += 1; // issue slot
        }

        // Drain: a core finishes when its last miss returns.
        for c in 0..n {
            let last_mem = outstanding[c].back().copied().unwrap_or(0);
            if last_mem > clocks[c] {
                per_core[c].window_stall_cycles += last_mem - clocks[c];
                clocks[c] = last_mem;
            }
            per_core[c].cycles = clocks[c];
        }
        let cycles = clocks.iter().copied().max().unwrap_or(0);

        ExecutionReport {
            cycles,
            accesses: trace.len() as u64,
            memory_requests,
            l1_hits,
            memory: hbm.stats(),
            mapping_name: engine.name().to_string(),
            per_core,
            translation: sum_translation(&caches),
            adapt: AdaptReport::default(),
        }
    }

    /// [`Machine::run`] with online adaptive remapping: the
    /// [`crate::adapt`] controller watches per-chunk conflict
    /// attribution at window boundaries and live-migrates mismatched
    /// chunks to better registered mappings (injecting the migration
    /// traffic through the device, then flipping the CMT entry — which
    /// is why the engine is taken mutably).
    ///
    /// The controller hooks into [`Machine::run`]'s block driver: miss
    /// attribution in phase A, outcome attribution in phase C, and the
    /// window boundary (detection + migration) at block edges.
    ///
    /// For a non-chunked engine (no per-chunk assignment to adapt) this
    /// is exactly [`Machine::run`] — bit-identical report, `adapt`
    /// all-default.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid ([`AdaptConfig::validate`]).
    pub fn run_adaptive(
        &mut self,
        trace: &Trace,
        engine: &mut MappingEngine,
        cfg: &AdaptConfig,
    ) -> ExecutionReport {
        cfg.validate();
        let Some(chunk_bits) = engine.as_chunked().map(Cmt::chunk_bits) else {
            return self.run(trace, engine);
        };
        let hook = Adaptive {
            engine,
            ctl: RemapController::new(*cfg, chunk_bits, self.geometry),
            chunk_bits,
            geometry: self.geometry,
        };
        self.drive(trace, hook)
    }

    /// Alias of [`Machine::run_adaptive`]: `threads` is ignored and the
    /// run is always serial, because handing single channel services
    /// (~12 ns each) to other threads costs more than it saves
    /// (DESIGN.md §8).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid ([`AdaptConfig::validate`]).
    pub fn run_adaptive_with(
        &mut self,
        trace: &Trace,
        engine: &mut MappingEngine,
        cfg: &AdaptConfig,
        _threads: usize,
    ) -> ExecutionReport {
        self.run_adaptive(trace, engine, cfg)
    }

    /// The block driver behind [`Machine::run`] and
    /// [`Machine::run_adaptive`]: the three phases documented on
    /// [`Machine::run`], with `hook` called at each miss, each served
    /// request, and each block end.
    fn drive<H: BlockHook>(&self, trace: &Trace, mut hook: H) -> ExecutionReport {
        let n = self.config.num_cores;
        let mut hbm = Hbm::new(self.geometry, self.timing);
        let mut l1s: Vec<Option<Cache>> = (0..n).map(|_| self.config.l1.map(Cache::new)).collect();
        let mut llc: Option<Cache> = self.config.llc.map(Cache::new);
        let mut clocks = vec![0u64; n];
        let mut outstanding: Vec<VecDeque<u64>> = vec![VecDeque::new(); n];
        let mut memory_requests = 0u64;
        let mut l1_hits = 0u64;
        let mut per_core = vec![CoreStats::default(); n];
        let mut caches = vec![TranslationCache::default(); n];
        let lookup = hook.engine().lookup_cycles(&self.timing);

        let mut stage = MissStage::new(n);
        // Phase-A clock additions per core since block start, and the
        // prefix of them already folded into `clocks` by phase C.
        let mut advance = vec![0u64; n];
        let mut consumed = vec![0u64; n];

        for block in trace.accesses().chunks(MISS_BLOCK) {
            // Phase A: cache filter. Only commutative clock additions
            // happen here; they are accumulated in `advance` and folded
            // into `clocks` at the exact miss boundaries in phase C.
            stage.clear();
            advance.fill(0);
            consumed.fill(0);
            for a in block {
                let core = a.thread.index() % n;
                per_core[core].accesses += 1;
                advance[core] += self.config.compute_cycles;

                if let Some(l1) = &mut l1s[core] {
                    if l1.access(a.addr) == CacheOutcome::Hit {
                        advance[core] += l1.config().hit_latency;
                        l1_hits += 1;
                        continue;
                    }
                }
                if let Some(llc) = &mut llc {
                    if llc.access(a.addr) == CacheOutcome::Hit {
                        advance[core] += llc.config().hit_latency;
                        continue;
                    }
                }

                memory_requests += 1;
                per_core[core].misses += 1;
                stage.push(core, a.addr, a.is_write, advance[core]);
                hook.on_miss(a.addr);
            }

            // Phase B: batched PA→HA translation, decode, and bank
            // hash, one core's stream at a time.
            for (c, cache) in caches.iter_mut().enumerate().take(n) {
                if stage.pas[c].is_empty() {
                    continue;
                }
                hook.engine().decode_block(
                    &mut stage.pas[c],
                    self.geometry,
                    cache,
                    &mut stage.decoded[c],
                );
                hbm.effective_block(&mut stage.decoded[c]);
            }

            // Phase C: replay the clock model over the misses in trace
            // order.
            for &(c, i) in &stage.order {
                let (c, i) = (c as usize, i as usize);
                let adv = stage.advances[c][i];
                clocks[c] += adv - consumed[c];
                consumed[c] = adv;
                if outstanding[c].len() >= self.config.mlp_window {
                    if let Some(oldest) = outstanding[c].pop_front() {
                        if oldest > clocks[c] {
                            per_core[c].window_stall_cycles += oldest - clocks[c];
                            clocks[c] = oldest;
                        }
                    }
                }
                // The CMT lookup sits on the miss path; its SRAM
                // latency is constant (paper §5.3: 6 ns, negligible
                // next to >130 ns of HBM). Global mappings are
                // combinational.
                let issue = clocks[c] + lookup;
                let decoded = stage.decoded[c][i];
                let (completion, outcome) =
                    hbm.service_effective_rw_outcome(decoded, stage.writes[c][i], issue);
                // Phase B wrote the translated addresses into `stage.pas`.
                hook.on_served(stage.pas[c][i], decoded.channel, outcome);
                outstanding[c].push_back(completion);
                clocks[c] += 1; // issue slot
            }
            // Fold in the additions that landed after each core's last
            // miss of the block.
            for c in 0..n {
                clocks[c] += advance[c] - consumed[c];
            }
            hook.on_block_end(block.len(), &mut hbm, &mut clocks);
        }

        // Drain: a core finishes when its last miss returns.
        for c in 0..n {
            let last_mem = outstanding[c].back().copied().unwrap_or(0);
            if last_mem > clocks[c] {
                per_core[c].window_stall_cycles += last_mem - clocks[c];
                clocks[c] = last_mem;
            }
            per_core[c].cycles = clocks[c];
        }
        let cycles = clocks.iter().copied().max().unwrap_or(0);

        ExecutionReport {
            cycles,
            accesses: trace.len() as u64,
            memory_requests,
            l1_hits,
            memory: hbm.stats(),
            mapping_name: hook.engine().name().to_string(),
            per_core,
            translation: sum_translation(&caches),
            adapt: hook.into_report(),
        }
    }
}

/// What [`Machine::drive`] calls out to around its fixed phases. The
/// callbacks default to no-ops, so the plain hook (`&MappingEngine`)
/// monomorphises to the bare block loop.
trait BlockHook {
    /// The engine phase B translates through.
    fn engine(&self) -> &MappingEngine;
    /// Phase A, in trace order: an external miss to physical address `pa`.
    fn on_miss(&mut self, _pa: u64) {}
    /// Phase C, in trace order: a served request's translated address,
    /// channel, and row-buffer outcome.
    fn on_served(&mut self, _ha: u64, _channel: u64, _outcome: RowOutcome) {}
    /// After every core's clock has absorbed a block of `len` accesses;
    /// may inject device traffic and move clocks.
    fn on_block_end(&mut self, _len: usize, _hbm: &mut Hbm, _clocks: &mut [u64]) {}
    /// The run's adaptation report.
    fn into_report(self) -> AdaptReport;
}

/// The plain run: no observation, no adaptation.
impl BlockHook for &MappingEngine {
    fn engine(&self) -> &MappingEngine {
        self
    }

    fn into_report(self) -> AdaptReport {
        AdaptReport::default()
    }
}

/// The adaptive run: feeds per-chunk attribution to the controller and
/// performs its migrations at window boundaries.
struct Adaptive<'e> {
    /// Always [`MappingEngine::Chunked`] (see [`Machine::run_adaptive`]).
    engine: &'e mut MappingEngine,
    ctl: RemapController,
    chunk_bits: u32,
    geometry: Geometry,
}

impl BlockHook for Adaptive<'_> {
    fn engine(&self) -> &MappingEngine {
        self.engine
    }

    fn on_miss(&mut self, pa: u64) {
        self.ctl.note_access(pa);
    }

    fn on_served(&mut self, ha: u64, channel: u64, outcome: RowOutcome) {
        // The CMT permutes only the chunk-offset window, so the chunk
        // number is recoverable from the translated address.
        self.ctl
            .note_outcome(ha >> self.chunk_bits, channel, outcome);
    }

    /// Window boundary: detection, then stop-the-world migration.
    fn on_block_end(&mut self, len: usize, hbm: &mut Hbm, clocks: &mut [u64]) {
        if !self.ctl.block_done(len) {
            return;
        }
        let MappingEngine::Chunked(cmt) = &mut *self.engine else {
            return;
        };
        let plans = self.ctl.end_window(cmt);
        if plans.is_empty() {
            return;
        }
        let before = clocks.iter().copied().max().unwrap_or(0);
        let mut last = before;
        for plan in &plans {
            let reqs = migration_requests_for(cmt, self.geometry, plan);
            for &(d, w) in &reqs {
                let eff = hbm.effective_addr(d);
                let (done, o) = hbm.service_effective_rw_outcome(eff, w, before);
                self.ctl.note_migration_outcome(o);
                last = last.max(done);
            }
            self.ctl
                .note_migration(reqs.len() as u64, (reqs.len() as u64 / 2) * 64);
            // Infallible: plans only name registered mappings and
            // in-range chunks.
            let _ = cmt.assign_chunk(plan.chunk, plan.to);
        }
        self.ctl.note_migration_stall(last - before);
        clocks.fill(last);
    }

    fn into_report(self) -> AdaptReport {
        self.ctl.into_report()
    }
}

/// The migration traffic for one plan: every line of the chunk is read
/// at its address under the old mapping and written at its address
/// under the new one, interleaved per line, in line order. Decoded but
/// *not* bank-hashed (the caller applies the device's hash step).
fn migration_requests_for(
    cmt: &Cmt,
    geom: Geometry,
    plan: &MigrationPlan,
) -> Vec<(DecodedAddr, bool)> {
    let lines = cmt.chunk_bytes() / 64;
    let base = plan.chunk << cmt.chunk_bits();
    let mut out = Vec::with_capacity(2 * lines as usize);
    for l in 0..lines {
        let pa = PhysAddr(base | (l << 6));
        let (Ok(src), Ok(dst)) = (
            cmt.translate_under(plan.from, pa),
            cmt.translate_under(plan.to, pa),
        ) else {
            // Unreachable: plans only name registered mappings.
            continue;
        };
        out.push((geom.decode(src), false));
        out.push((geom.decode(dst), true));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdam_trace::gen::StrideGen;
    use sdam_trace::{ThreadId, VariableId};

    fn stride_trace(stride_lines: u64, n: u64) -> Trace {
        StrideGen::new(0, stride_lines * 64, n).into_trace()
    }

    /// The paper's four-thread data-copy setup: each thread strides its
    /// own region; bases are channel-aligned so a channel-pinning stride
    /// stays pinned for every thread.
    fn mt_stride_trace(stride_lines: u64, n_per_thread: u64) -> Trace {
        let streams = (0..4u16)
            .map(|t| {
                StrideGen::new((t as u64) << 30, stride_lines * 64, n_per_thread)
                    .thread(ThreadId(t))
                    .variable(VariableId(t as u32))
                    .into_trace()
            })
            .collect();
        sdam_trace::gen::interleave_round_robin(streams)
    }

    #[test]
    fn empty_trace_zero_cycles() {
        let mut m = Machine::new(MachineConfig::cpu(), Geometry::hbm2_8gb());
        let r = m.run(&Trace::new(), &MappingEngine::identity());
        assert_eq!(r.cycles, 0);
        assert_eq!(r.accesses, 0);
    }

    #[test]
    fn cache_filters_repeated_accesses() {
        let mut m = Machine::new(MachineConfig::cpu(), Geometry::hbm2_8gb());
        // Touch one page repeatedly: one miss, rest hits.
        let mut t = Trace::new();
        StrideGen::new(0, 0, 1000).emit(&mut t);
        let r = m.run(&t, &MappingEngine::identity());
        assert_eq!(r.memory_requests, 1);
        assert_eq!(r.l1_hits, 999);
    }

    #[test]
    fn streaming_beats_channel_pinned_stride() {
        // The core claim: with the identity mapping, a stride that pins
        // one channel runs much slower than a streaming pattern.
        let geom = Geometry::hbm2_8gb();
        let mut m = Machine::new(MachineConfig::cpu(), geom);
        // Strides large enough that every access misses L1.
        let fast = m.run(&mt_stride_trace(33, 5_000), &MappingEngine::identity());
        let slow = m.run(&mt_stride_trace(32, 5_000), &MappingEngine::identity());
        // Stride 33 lines walks all channels; stride 32 pins channel 0.
        // The pinned stride is bus-bound on one channel (~4 cycles per
        // 64 B line for all 20 k requests); the spread stride is bound
        // by the cores' miss windows. Expect a multi-x collapse.
        assert!(
            slow.cycles as f64 > 2.5 * fast.cycles as f64,
            "expected pinned stride to crawl: {} vs {}",
            slow.cycles,
            fast.cycles
        );
    }

    #[test]
    fn accelerator_more_sensitive_to_mapping_than_cpu() {
        // Isolate the paper's reason #1 for accelerators gaining more:
        // they issue far more concurrent requests (deep pipelines, no
        // compute gap). Caches off for both machines so the only
        // difference is the demand rate; all threads share one stream so
        // channel-spread requests are row-buffer friendly.
        let geom = Geometry::hbm2_8gb();
        let bad_stride = 32u64; // pins a channel under identity
        let default = MappingEngine::identity();
        let fixed = MappingEngine::Global(Box::new(sdam_mapping::select::shuffle_for_stride(
            bad_stride, geom,
        )));
        let trace = {
            let streams = (0..4u16)
                .map(|t| {
                    StrideGen::new(0, bad_stride * 64, 5_000)
                        .thread(ThreadId(t))
                        .into_trace()
                })
                .collect();
            sdam_trace::gen::interleave_round_robin(streams)
        };
        let cacheless = |mut c: MachineConfig| {
            c.l1 = None;
            c.llc = None;
            c
        };

        let mut cpu = Machine::new(cacheless(MachineConfig::cpu()), geom);
        let cpu_speedup = cpu
            .run(&trace, &fixed)
            .speedup_over(&cpu.run(&trace, &default));

        let mut acc = Machine::new(cacheless(MachineConfig::accelerator()), geom);
        let acc_speedup = acc
            .run(&trace, &fixed)
            .speedup_over(&acc.run(&trace, &default));

        assert!(
            cpu_speedup > 1.0,
            "mapping fix should help the CPU: {cpu_speedup}"
        );
        assert!(
            acc_speedup > cpu_speedup,
            "accelerator should gain more: {acc_speedup} vs {cpu_speedup}"
        );
    }

    #[test]
    fn slower_memory_increases_mapping_benefit() {
        // Fig. 14's claim: down-clocked HBM amplifies SDAM's advantage.
        let geom = Geometry::hbm2_8gb();
        let bad_stride = 32u64;
        let fixed = MappingEngine::Global(Box::new(sdam_mapping::select::shuffle_for_stride(
            bad_stride, geom,
        )));
        let ratio = |scale: u64| {
            let mut m =
                Machine::new(MachineConfig::cpu(), geom).with_timing(Timing::hbm2().scaled(scale));
            let bad = m.run(
                &mt_stride_trace(bad_stride, 2_500),
                &MappingEngine::identity(),
            );
            let good = m.run(&mt_stride_trace(bad_stride, 2_500), &fixed);
            bad.cycles as f64 / good.cycles as f64
        };
        assert!(ratio(4) > ratio(1));
    }

    #[test]
    fn multi_core_traces_share_the_device() {
        let geom = Geometry::hbm2_8gb();
        let mut m = Machine::new(MachineConfig::cpu(), geom);
        let mut t = Trace::new();
        for core in 0..4u16 {
            StrideGen::new((core as u64) << 30, 64 * 64, 1000)
                .thread(ThreadId(core))
                .variable(VariableId(core as u32))
                .emit(&mut t);
        }
        let t =
            sdam_trace::gen::interleave_round_robin(t.split_by_variable().into_values().collect());
        let r = m.run(&t, &MappingEngine::identity());
        assert_eq!(r.accesses, 4000);
        assert!(r.memory_requests > 0);
        assert!(r.cycles > 0);
    }

    #[test]
    fn shared_llc_absorbs_cross_core_reuse() {
        // Two cores stream the same 512 KB region (fits the LLC, not an
        // L1): with the shared LLC the second pass hits there and memory
        // traffic drops.
        let geom = Geometry::hbm2_8gb();
        let mut t = Trace::new();
        for pass in 0..2 {
            for core in 0..2u16 {
                StrideGen::new(0, 64, 8192)
                    .thread(ThreadId(core))
                    .pc(pass)
                    .emit(&mut t);
            }
        }
        let mut plain = Machine::new(MachineConfig::cpu(), geom);
        let mut with_llc = Machine::new(MachineConfig::cpu_with_llc(), geom);
        let r_plain = plain.run(&t, &MappingEngine::identity());
        let r_llc = with_llc.run(&t, &MappingEngine::identity());
        assert!(
            r_llc.memory_requests * 2 < r_plain.memory_requests,
            "LLC should absorb reuse: {} vs {}",
            r_llc.memory_requests,
            r_plain.memory_requests
        );
    }

    #[test]
    fn per_core_breakdown_is_consistent() {
        let geom = Geometry::hbm2_8gb();
        let mut m = Machine::new(MachineConfig::cpu(), geom);
        let r = m.run(&mt_stride_trace(32, 2_000), &MappingEngine::identity());
        assert_eq!(r.per_core.len(), 4);
        let acc: u64 = r.per_core.iter().map(|c| c.accesses).sum();
        assert_eq!(acc, r.accesses);
        let miss: u64 = r.per_core.iter().map(|c| c.misses).sum();
        assert_eq!(miss, r.memory_requests);
        assert_eq!(r.cycles, r.per_core.iter().map(|c| c.cycles).max().unwrap());
        // A channel-pinned run on this machine is dominated by window
        // stalls.
        assert!(r.stall_fraction() > 0.5, "stall {:.2}", r.stall_fraction());
    }

    #[test]
    fn fixing_the_mapping_reduces_stall_fraction() {
        let geom = Geometry::hbm2_8gb();
        let fixed =
            MappingEngine::Global(Box::new(sdam_mapping::select::shuffle_for_stride(32, geom)));
        let mut m = Machine::new(MachineConfig::cpu(), geom);
        let bad = m.run(&mt_stride_trace(32, 2_000), &MappingEngine::identity());
        let good = m.run(&mt_stride_trace(32, 2_000), &fixed);
        assert!(
            good.stall_fraction() < bad.stall_fraction(),
            "{} !< {}",
            good.stall_fraction(),
            bad.stall_fraction()
        );
    }

    #[test]
    fn block_run_identical_to_reference() {
        // The batched-driver invariant: phase-structured execution
        // (cache filter → batched decode → clock replay) reproduces the
        // per-request oracle bit for bit — cycles, per-core stats,
        // translation counters, and the full memory report — across
        // engines, machine shapes, and traces that straddle block
        // boundaries.
        let geom = Geometry::hbm2_8gb();
        let mut cmt = sdam_mapping::Cmt::new(geom.addr_bits(), 21);
        let mut table: Vec<u32> = (0..15).collect();
        table.swap(0, 5);
        cmt.register(
            sdam_mapping::MappingId(1),
            &sdam_mapping::BitPermutation::new(6, table).unwrap(),
        );
        for chunk in 0..4 {
            cmt.assign_chunk(chunk, sdam_mapping::MappingId(1)).unwrap();
        }
        let engines = [
            MappingEngine::identity(),
            MappingEngine::Global(Box::new(sdam_mapping::select::shuffle_for_stride(32, geom))),
            MappingEngine::Chunked(cmt),
        ];
        let mut slow_cfg = MachineConfig::cpu();
        slow_cfg.compute_cycles = 3;
        let configs = [
            MachineConfig::cpu(),
            MachineConfig::cpu_with_llc(),
            MachineConfig::accelerator(),
            slow_cfg,
        ];
        // 0 accesses, under one block, and several blocks (4 threads x
        // 3_000 = 12_000 accesses with MISS_BLOCK = 4096).
        let traces = [
            Trace::new(),
            mt_stride_trace(32, 700),
            mt_stride_trace(33, 3_000),
        ];
        for engine in &engines {
            for config in configs {
                for trace in &traces {
                    let mut m = Machine::new(config, geom);
                    let want = m.run_reference(trace, engine);
                    let got = m.run(trace, engine);
                    assert_eq!(want, got, "{} diverged from oracle", engine.name());
                }
            }
        }
    }

    #[test]
    fn translation_counters_account_for_every_miss() {
        // Identity: on the chunked path every external request is
        // exactly one memo hit or miss; global mappings never touch the
        // memo.
        let geom = Geometry::hbm2_8gb();
        let chunked = MappingEngine::Chunked(sdam_mapping::Cmt::new(geom.addr_bits(), 21));
        let trace = mt_stride_trace(32, 2_000);
        let mut m = Machine::new(MachineConfig::cpu(), geom);
        let r = m.run(&trace, &chunked);
        assert_eq!(
            r.translation.lookups(),
            r.memory_requests,
            "every miss translates exactly once"
        );
        assert!(r.translation.memo_hits > 0, "stride runs are chunk-local");
        let g = m.run(&trace, &MappingEngine::identity());
        assert_eq!(g.translation, TranslationStats::default());
    }

    #[test]
    fn zero_cycle_speedups_are_guarded() {
        let geom = Geometry::hbm2_8gb();
        let mut m = Machine::new(MachineConfig::cpu(), geom);
        let empty = m.run(&Trace::new(), &MappingEngine::identity());
        let real = m.run(&stride_trace(64, 100), &MappingEngine::identity());
        assert_eq!(empty.cycles, 0);
        // Both zero: identical empty runs compare as 1.0.
        assert_eq!(empty.speedup_over(&empty), 1.0);
        // One side zero: no signal, guarded to 0.0 — never inf/NaN.
        assert_eq!(real.speedup_over(&empty), 0.0);
        assert_eq!(empty.speedup_over(&real), 0.0);
        assert!(empty.speedup_over(&real).is_finite());
        // The already-guarded helpers stay guarded.
        assert_eq!(empty.external_access_rate(), 0.0);
        assert_eq!(empty.stall_fraction(), 0.0);
        assert_eq!(safe_speedup(100, 50), 2.0);
    }

    #[test]
    fn invalid_machine_configs_return_typed_errors() {
        let geom = Geometry::hbm2_8gb();
        let mut cfg = MachineConfig::cpu();
        cfg.num_cores = 0;
        assert!(matches!(
            cfg.try_validate(),
            Err(ConfigError::Machine { .. })
        ));
        assert!(Machine::try_new(cfg, geom).is_err());
        let mut cfg = MachineConfig::cpu();
        cfg.mlp_window = 0;
        assert!(matches!(
            Machine::try_new(cfg, geom),
            Err(ConfigError::Machine { .. })
        ));
        let mut cfg = MachineConfig::cpu();
        cfg.l1 = Some(CacheConfig {
            capacity_bytes: 0,
            ways: 1,
            line_bytes: 64,
            hit_latency: 1,
        });
        assert!(matches!(
            Machine::try_new(cfg, geom),
            Err(ConfigError::Cache { .. })
        ));
        assert!(Machine::try_new(MachineConfig::cpu(), geom).is_ok());
    }

    #[test]
    fn report_helpers() {
        let geom = Geometry::hbm2_8gb();
        let mut m = Machine::new(MachineConfig::cpu(), geom);
        let r = m.run(&stride_trace(64, 1000), &MappingEngine::identity());
        assert!(r.external_access_rate() > 0.9, "big strides never hit L1");
        assert_eq!(r.mapping_name, "DM");
        assert!((r.speedup_over(&r) - 1.0).abs() < 1e-12);
    }
}
