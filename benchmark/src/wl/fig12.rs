//! `fig12-di`: the paper's Fig. 12(b) exactly as the `fig12` figure
//! binary runs it — the 8 data-intensive apps × the 8-config
//! `paper_lineup` at `Scale::small`, each app profiled once, BS+BSM
//! given the mix aggregate, under `Parallelism::Threads(2)`. This is the
//! end-to-end path users wait on: materialise, profile, selection and
//! the sharded execute driver.

use std::collections::BTreeMap;
use std::time::Instant;

use sdam::profiling::{self, ProfileData, Selection};
use sdam::stage::{
    ExecuteStage, ProfileHandle, ReportStage, RunContext, SelectStage, Stage, StageCache,
};
use sdam::{
    pipeline, Experiment, Parallelism, ProcessId, RunResult, SdamError, SdamSystem, SystemConfig,
};
use sdam_mapping::BitFlipRateVector;
use sdam_workloads::{data_intensive_suite, Scale, Workload as App};

use super::{rate, Digest, Item, PassOut, Workload};
use crate::span::Recorder;
use crate::stats::geomean;

/// The Fig. 12(b) workload at a given seed.
pub struct Fig12 {
    exp: Experiment,
}

impl Fig12 {
    /// Seed 1 reproduces the figure binary's inputs (evaluation seed 1,
    /// profiling seed 7); `smoke` runs at `Scale::tiny`.
    pub fn new(seed: u64, smoke: bool) -> Self {
        let mut exp = Experiment::bench();
        if smoke {
            exp.scale = Scale::tiny();
        }
        exp.scale.seed = seed;
        exp.profile_seed = seed.wrapping_add(6);
        // What `Parallelism::Auto` resolves to on a 2-CPU host, pinned
        // so the benchmark never uses more than two threads.
        exp.parallelism = Parallelism::Threads(2);
        Fig12 { exp }
    }
}

/// The suite and lineup.
pub struct State {
    suite: Vec<Box<dyn App>>,
    configs: Vec<SystemConfig>,
}

/// One cell decomposed into the pipeline's stages, each in its own span.
/// Mirrors `pipeline::try_run_with_profile`; the untraced pass calls
/// that function itself and the digests must agree.
fn traced_cell(
    app: &dyn App,
    config: SystemConfig,
    exp: &Experiment,
    data: &ProfileData,
    rec: &mut Recorder,
) -> Result<RunResult, SdamError> {
    exp.try_validate()?;
    let cache = StageCache::new();
    let mut ctx = RunContext::new(app, config, exp, &cache);
    ctx.profile = Some(ProfileHandle::Borrowed(data));
    rec.span("ml.select", |_| SelectStage.run(&mut ctx))?;
    let eval = rec.span("workloads.generate", |_| app.generate(exp.scale));
    let selection = ctx.selection.as_ref().map(|o| &o.selection);
    // `eval` moves into the span and is dropped there, as `AllocStage`
    // drops it, so the execute stage sees the same memory footprint.
    let (sys, pa_trace) = rec.span("core.materialize", move |_| -> Result<_, SdamError> {
        let mut sys = SdamSystem::try_new(exp.geometry, exp.chunk_bits)?;
        let mut var_mapping = BTreeMap::new();
        if let Some(Selection::Sdam { perms, assignment }) = selection {
            let mut ids = Vec::with_capacity(perms.len());
            for p in perms {
                ids.push(sys.try_add_mapping(p)?);
            }
            var_mapping = assignment.iter().map(|(&v, &c)| (v, ids[c])).collect();
        }
        let pa = profiling::try_materialize_in(&eval, &mut sys, ProcessId(0), &var_mapping)?;
        Ok((sys, pa))
    })?;
    ctx.sys = Some(sys);
    ctx.pa_trace = Some(pa_trace);
    rec.span("sys.execute", |_| ExecuteStage.run(&mut ctx))?;
    rec.span("core.report", |_| ReportStage.run(&mut ctx))?;
    Ok(ctx
        .result
        .take()
        .expect("ReportStage always deposits the result"))
}

impl Workload for Fig12 {
    type State = State;

    fn setup(&self) -> (State, u64) {
        let suite = data_intensive_suite();
        // The inputs are the generated traces: digest every app's
        // evaluation and profiling input so the seed provably fixes them.
        let mut d = Digest::default();
        for app in &suite {
            for scale in [
                self.exp.scale,
                self.exp.scale.with_seed(self.exp.profile_seed),
            ] {
                let t = app.generate(scale);
                d.push(t.len() as u64);
                for a in t.iter() {
                    d.push(a.addr ^ u64::from(a.variable.0) << 48 ^ u64::from(a.is_write) << 63);
                }
            }
        }
        let state = State {
            suite,
            configs: SystemConfig::paper_lineup(),
        };
        (state, d.value())
    }

    fn pass(&self, st: &mut State, rec: &mut Recorder) -> PassOut {
        let exp = &self.exp;
        let mut out = PassOut::default();
        // Each app is profiled once, as the figure binary does; the
        // profile is an item of its own (kind 0), the cells are kind 1.
        let mut profiles = Vec::with_capacity(st.suite.len());
        for (a, app) in st.suite.iter().enumerate() {
            rec.set_cell(a as u32);
            let t0 = Instant::now();
            let p = rec.span("core.profile", |_| {
                profiling::try_profile_on_baseline(app.as_ref(), exp)
            });
            let mut d = Digest::default();
            if let Ok(p) = &p {
                for &r in p.aggregate.rates() {
                    d.push_f64(r);
                }
                for v in &p.major {
                    d.push(u64::from(v.0));
                }
            }
            out.items.push(Item {
                secs: t0.elapsed().as_secs_f64(),
                digest: d.value(),
                ok: p.is_ok(),
                kind: 0,
            });
            profiles.push(p);
        }
        let mix_aggregate = BitFlipRateVector::mean(
            profiles
                .iter()
                .flatten()
                .map(|p| &p.aggregate)
                .collect::<Vec<_>>(),
        );

        let dl32 = SystemConfig::SdmBsmDl { clusters: 32 };
        let mut speedups = Vec::new();
        let (mut l1_hits, mut requests, mut row_hits) = (0u64, 0u64, 0u64);
        let (mut memo_hits, mut lookups, mut faults) = (0u64, 0u64, 0u64);
        for (a, (app, profile)) in st.suite.iter().zip(&profiles).enumerate() {
            let mut baseline = None;
            for (c, &config) in st.configs.iter().enumerate() {
                rec.set_cell((st.suite.len() + a * st.configs.len() + c) as u32);
                let t0 = Instant::now();
                let res = profile.as_ref().ok().map(|profile| {
                    let data = if config == SystemConfig::BsBsm {
                        // Global mapping from the mix, as the paper
                        // configures BS+BSM.
                        let mut mix = profile.clone();
                        mix.aggregate = mix_aggregate.clone();
                        mix
                    } else {
                        profile.clone()
                    };
                    if rec.enabled() {
                        traced_cell(app.as_ref(), config, exp, &data, rec)
                    } else {
                        pipeline::try_run_with_profile(app.as_ref(), config, exp, Some(&data))
                    }
                });
                let secs = t0.elapsed().as_secs_f64();
                let Some(Ok(r)) = res else {
                    out.items.push(Item {
                        secs,
                        digest: u64::MAX,
                        ok: false,
                        kind: 1,
                    });
                    continue;
                };
                let rep = &r.report;
                let mut d = Digest::default();
                d.push_report(rep);
                out.items.push(Item {
                    secs,
                    digest: d.value(),
                    ok: true,
                    kind: 1,
                });
                out.work += rep.accesses;
                l1_hits += rep.l1_hits;
                requests += rep.memory_requests;
                row_hits += rep
                    .memory
                    .per_channel
                    .iter()
                    .map(|c| c.row_hits)
                    .sum::<u64>();
                memo_hits += rep.translation.memo_hits;
                lookups += rep.translation.lookups();
                faults += r.metrics.counter("mem.page_faults");
                if config == SystemConfig::BsDm {
                    baseline = Some(rep.cycles);
                }
                if let (true, Some(b)) = (config == dl32, baseline) {
                    speedups.push(b as f64 / rep.cycles.max(1) as f64);
                }
            }
        }
        out.kinds = &["core.profile", "fig12.cell"];
        out.facts = vec![
            ("sim.speedup_dl32", geomean(&speedups)),
            ("sys.l1_hit_rate", rate(l1_hits, out.work)),
            ("sys.memory_requests", requests as f64),
            ("hbm.row_hit_rate", rate(row_hits, requests)),
            ("mapping.cmt_memo_hit_rate", rate(memo_hits, lookups)),
            ("mem.page_faults", faults as f64),
        ];
        out
    }

    fn work_unit(&self) -> &'static str {
        "accesses"
    }

    fn item_unit(&self) -> &'static str {
        "profile/cell"
    }

    fn nominal_pass_s(&self) -> f64 {
        5.1
    }
}
