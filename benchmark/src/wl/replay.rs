//! `replay`: `Machine::run` (the serial block driver) over
//! pre-materialised traces — the 19 standard apps under BS+DM identity,
//! BS+HM hash and SDM+BSM+ML(32) chunked CMT engines on the `cpu` and
//! `accelerator` machines — plus three phased stride-1→32 traces under
//! the adaptive driver and both static mappings. Set-up does all the
//! materialising, so no materialise, select or sharding cost is timed:
//! a driver change shows here and nowhere else.
//!
//! Traced passes also re-run each machine run's stages from outside
//! (cache probe, translate, bank hash, in-order service) as shadow spans
//! and check each stage's counts against the report it decomposes.

use std::time::Instant;

use sdam::stage::{AllocStage, ProfileStage, RunContext, SelectStage, Stage, StageCache};
use sdam::{Experiment, Parallelism, SdamError, SystemConfig};
use sdam_hbm::{DecodedAddr, Geometry, Hbm, Timing};
use sdam_mapping::descriptor::MappingDescriptor;
use sdam_mapping::{Cmt, HashMapping, MappingId};
use sdam_sys::{
    AdaptConfig, Cache, ExecutionReport, Machine, MachineConfig, MappingEngine, TranslationCache,
    TranslationStats,
};
use sdam_trace::Trace;
use sdam_workloads::phased::{Phased, StrideLoop};
use sdam_workloads::{standard_suite, Scale, Workload as App};

use super::{rate, Digest, Item, PassOut, Workload};
use crate::span::{Kind, Recorder};
use crate::stats::geomean;

/// Accesses per block in `Machine::run` (its `MISS_BLOCK`); the
/// decomposition translates in the same blocks so the CMT memo sees the
/// same call sequence.
const BLOCK: usize = 4096;
/// The phased traces wrap within two 2 MB chunks, four lanes.
const REGION: u64 = 4 << 20;
const LANES: u16 = 4;
const CHUNK_BITS: u32 = 21;
const SWITCHES: [f64; 3] = [0.25, 0.5, 0.75];

/// The replay workload at a given seed.
pub struct Replay {
    exp: Experiment,
    phased_accesses: usize,
}

impl Replay {
    /// `Scale::small` apps and 1 M-access phased traces; `smoke`
    /// shrinks both.
    pub fn new(seed: u64, smoke: bool) -> Self {
        let mut exp = Experiment::bench();
        if smoke {
            exp.scale = Scale::tiny();
        }
        exp.scale.seed = seed;
        exp.profile_seed = seed.wrapping_add(6);
        exp.parallelism = Parallelism::Serial;
        Replay {
            exp,
            phased_accesses: if smoke { 1 << 16 } else { 1 << 20 },
        }
    }
}

struct AppTraces {
    /// Materialised under the default mapping (BS+DM, BS+HM).
    dm: Trace,
    /// Materialised under the app's ML(32) mappings.
    ml: Trace,
    /// The CMT those mappings programmed.
    ml_engine: MappingEngine,
}

/// Materialised traces and the engines that replay them.
pub struct State {
    apps: Vec<AppTraces>,
    identity: MappingEngine,
    hash: MappingEngine,
    phased: Vec<Trace>,
}

/// Runs the pipeline's stages up to allocation for one configuration,
/// returning the physical trace and (for SDAM configurations) the
/// system's CMT.
fn materialise(
    app: &dyn App,
    config: SystemConfig,
    exp: &Experiment,
) -> Result<(Trace, Cmt), SdamError> {
    let cache = StageCache::new();
    let mut ctx = RunContext::new(app, config, exp, &cache);
    for stage in [&ProfileStage as &dyn Stage, &SelectStage, &AllocStage] {
        stage.run(&mut ctx)?;
    }
    let trace = ctx.pa_trace.expect("AllocStage deposits the trace");
    let sys = ctx.sys.expect("AllocStage deposits the system");
    Ok((trace, sys.cmt_snapshot()))
}

/// Records one machine run as an item.
fn push(out: &mut PassOut, secs: f64, r: &ExecutionReport, ok: bool) {
    let mut d = Digest::default();
    d.push_report(r);
    out.items.push(Item {
        secs,
        digest: d.value(),
        ok,
        kind: 0,
    });
    out.work += r.accesses;
}

/// An engine with the stride-32 mapping registered as id 1; every chunk
/// starts on the identity mapping (id 0) unless `assign` moves it.
fn phased_engine(geom: Geometry, assign: Option<MappingId>) -> MappingEngine {
    let mut cmt = Cmt::new(geom.addr_bits(), CHUNK_BITS);
    let perm = MappingDescriptor::new(geom)
        .channel_bits([11, 12, 13, 14, 15])
        .compile_windowed(CHUNK_BITS)
        .expect("the declared channel bits fit the chunk window");
    cmt.register(MappingId(1), &perm);
    if let Some(id) = assign {
        for chunk in 0..REGION >> CHUNK_BITS {
            cmt.assign_chunk(chunk, id)
                .expect("the phased region's chunks are in range");
        }
    }
    MappingEngine::Chunked(cmt)
}

/// What the outside re-run of one `Machine::run` counted.
#[derive(Debug, Default, PartialEq)]
struct Decomposed {
    l1_hits: u64,
    misses: u64,
    translation: TranslationStats,
    served: u64,
}

/// One block's external misses, as per-core columns plus trace order.
struct Block {
    pas: Vec<Vec<u64>>,
    writes: Vec<Vec<bool>>,
    decoded: Vec<Vec<DecodedAddr>>,
    order: Vec<(usize, usize)>,
}

/// Re-runs the stages of `Machine::run` from outside, each in a shadow
/// span: cache probe (`Cache::access`), translate
/// (`MappingEngine::decode_block`), bank hash (`Hbm::effective_block`)
/// and in-order service (`Hbm::service_effective_rw`, one request per
/// cycle in trace order, since the clock model is not replayed).
fn decompose(
    trace: &Trace,
    engine: &MappingEngine,
    translate: &'static str,
    cfg: MachineConfig,
    geom: Geometry,
    rec: &mut Recorder,
) -> Decomposed {
    let n = cfg.num_cores;
    let mut out = Decomposed::default();
    let mut blocks: Vec<Block> = rec.span_kind("sys.cache_probe", Kind::Shadow, |_| {
        let mut l1s: Vec<Option<Cache>> = (0..n).map(|_| cfg.l1.map(Cache::new)).collect();
        let mut llc = cfg.llc.map(Cache::new);
        trace
            .accesses()
            .chunks(BLOCK)
            .map(|chunk| {
                let mut b = Block {
                    pas: vec![Vec::new(); n],
                    writes: vec![Vec::new(); n],
                    decoded: vec![Vec::new(); n],
                    order: Vec::new(),
                };
                for a in chunk {
                    let core = a.thread.index() % n;
                    if let Some(l1) = &mut l1s[core] {
                        if l1.access(a.addr) == sdam_sys::cache::CacheOutcome::Hit {
                            out.l1_hits += 1;
                            continue;
                        }
                    }
                    if let Some(llc) = &mut llc {
                        if llc.access(a.addr) == sdam_sys::cache::CacheOutcome::Hit {
                            continue;
                        }
                    }
                    out.misses += 1;
                    b.order.push((core, b.pas[core].len()));
                    b.pas[core].push(a.addr);
                    b.writes[core].push(a.is_write);
                }
                b
            })
            .collect()
    });
    out.translation = rec.span_kind(translate, Kind::Shadow, |_| {
        let mut caches = vec![TranslationCache::default(); n];
        for b in &mut blocks {
            for (c, cache) in caches.iter_mut().enumerate() {
                if !b.pas[c].is_empty() {
                    engine.decode_block(&mut b.pas[c], geom, cache, &mut b.decoded[c]);
                }
            }
        }
        let mut total = TranslationStats::default();
        for c in &caches {
            total.merge(c.stats());
        }
        total
    });
    let mut hbm = Hbm::new(geom, Timing::hbm2());
    rec.span_kind("hbm.bank_hash", Kind::Shadow, |_| {
        for b in &mut blocks {
            for d in &mut b.decoded {
                hbm.effective_block(d);
            }
        }
    });
    out.served = rec.span_kind("hbm.service", Kind::Shadow, |_| {
        let mut cycle = 0;
        for b in &blocks {
            for &(c, i) in &b.order {
                hbm.service_effective_rw(b.decoded[c][i], b.writes[c][i], cycle);
                cycle += 1;
            }
        }
        hbm.stats().requests
    });
    out
}

impl Workload for Replay {
    type State = State;

    fn setup(&self) -> (State, u64) {
        let exp = &self.exp;
        let mut d = Digest::default();
        let mut apps = Vec::new();
        for app in standard_suite() {
            let dm = materialise(app.as_ref(), SystemConfig::BsDm, exp);
            let ml = materialise(app.as_ref(), SystemConfig::SdmBsmMl { clusters: 32 }, exp);
            let (Ok((dm, _)), Ok((ml, cmt))) = (dm, ml) else {
                // A failed set-up leaves this app out; the digest records
                // the gap so the run cannot match the expected one.
                d.push(u64::MAX);
                continue;
            };
            for t in [&dm, &ml] {
                d.push(t.len() as u64);
                for a in t.iter() {
                    d.push(a.addr);
                }
            }
            apps.push(AppTraces {
                dm,
                ml,
                ml_engine: MappingEngine::Chunked(cmt),
            });
        }
        let phased: Vec<Trace> = SWITCHES
            .iter()
            .map(|&switch| {
                Phased::new(
                    Box::new(StrideLoop::new(1, REGION, LANES)),
                    Box::new(StrideLoop::new(32, REGION, LANES)),
                    switch,
                )
                .generate(Scale {
                    n: 1 << 14,
                    accesses: self.phased_accesses,
                    seed: exp.scale.seed,
                })
            })
            .collect();
        for t in &phased {
            d.push(t.len() as u64);
        }
        let state = State {
            apps,
            identity: MappingEngine::identity(),
            hash: MappingEngine::Global(Box::new(HashMapping::for_geometry(exp.geometry))),
            phased,
        };
        (state, d.value())
    }

    fn pass(&self, st: &mut State, rec: &mut Recorder) -> PassOut {
        let geom = self.exp.geometry;
        let mut out = PassOut::default();
        let (mut accesses, mut l1_hits, mut requests, mut row_hits) = (0u64, 0u64, 0u64, 0u64);
        let (mut memo_hits, mut lookups) = (0u64, 0u64);
        for app in &st.apps {
            let runs = [
                (&st.identity, &app.dm, "mapping.translate.identity"),
                (&st.hash, &app.dm, "mapping.translate.hash"),
                (&app.ml_engine, &app.ml, "mapping.translate.chunked"),
            ];
            for (engine, trace, translate) in runs {
                for cfg in [MachineConfig::cpu(), MachineConfig::accelerator()] {
                    rec.set_cell(out.items.len() as u32);
                    let t0 = Instant::now();
                    let r = rec.span_kind("sys.machine_run", Kind::Whole, |_| {
                        Machine::new(cfg, geom).run(trace, engine)
                    });
                    let secs = t0.elapsed().as_secs_f64();
                    // After the real run, so the shadow cannot warm its
                    // caches.
                    let parts = rec
                        .enabled()
                        .then(|| decompose(trace, engine, translate, cfg, geom, rec));
                    let expected = Decomposed {
                        l1_hits: r.l1_hits,
                        misses: r.memory_requests,
                        translation: r.translation,
                        served: r.memory_requests,
                    };
                    let ok = parts.is_none_or(|p| p == expected);
                    push(&mut out, secs, &r, ok);
                    accesses += r.accesses;
                    l1_hits += r.l1_hits;
                    requests += r.memory_requests;
                    row_hits += r.memory.per_channel.iter().map(|c| c.row_hits).sum::<u64>();
                    memo_hits += r.translation.memo_hits;
                    lookups += r.translation.lookups();
                }
            }
        }

        let accel = MachineConfig::accelerator();
        let (mut speedups, mut migrations, mut migration_clocks) = (Vec::new(), 0u64, 0u64);
        let (mut adaptive_s, mut static_s) = (0.0, 0.0);
        for trace in &st.phased {
            rec.set_cell(out.items.len() as u32);
            let t0 = Instant::now();
            let mut engine = phased_engine(geom, None);
            let adaptive = rec.span("sys.adapt_run", |_| {
                Machine::new(accel, geom).run_adaptive_with(
                    trace,
                    &mut engine,
                    &AdaptConfig::default(),
                    1,
                )
            });
            let secs = t0.elapsed().as_secs_f64();
            adaptive_s += secs;
            push(&mut out, secs, &adaptive, true);
            let mut best_static = u64::MAX;
            for id in [MappingId(0), MappingId(1)] {
                rec.set_cell(out.items.len() as u32);
                let t0 = Instant::now();
                let engine = phased_engine(geom, Some(id));
                let r = rec.span("sys.static_run", |_| {
                    Machine::new(accel, geom).run(trace, &engine)
                });
                let secs = t0.elapsed().as_secs_f64();
                if id == MappingId(0) {
                    static_s += secs;
                }
                push(&mut out, secs, &r, true);
                best_static = best_static.min(r.cycles);
            }
            speedups.push(best_static as f64 / adaptive.cycles.max(1) as f64);
            migrations += adaptive.adapt.migrations;
            migration_clocks += adaptive.adapt.migration_clocks;
        }
        out.facts = vec![
            ("sim.speedup_adapt", geomean(&speedups)),
            ("sys.l1_hit_rate", rate(l1_hits, accesses)),
            ("hbm.row_hit_rate", rate(row_hits, requests)),
            ("mapping.cmt_memo_hit_rate", rate(memo_hits, lookups)),
            ("sys.adapt.migrations", migrations as f64),
            ("sys.adapt.migration_clocks", migration_clocks as f64),
        ];
        out.timings = vec![("sys.adapt_overhead.s", adaptive_s - static_s)];
        out
    }

    fn work_unit(&self) -> &'static str {
        "accesses"
    }

    fn item_unit(&self) -> &'static str {
        "run"
    }

    fn nominal_pass_s(&self) -> f64 {
        1.5
    }
}
