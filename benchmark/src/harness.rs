//! Drives one workload in this process: repeated set-up, a warm-up
//! pass that doubles as the reference result, a fixed number of timed
//! passes (alternating untraced and traced passes when tracing),
//! correctness checks, and the metric report whose last line is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`.
//!
//! Host time on a shared machine is noisy in one direction only:
//! neighbours slow a pass down, nothing speeds it up. So every item's
//! time is taken as its fastest observation in the run, and a pass is
//! the sum of its items' fastest times (see README.md, "Host noise").
//! The pass count comes from `--seconds` and the workload's nominal
//! pass time, never from the measured speed, so two commits take each
//! minimum over the same number of samples.
//! Memory stays bounded: one best time per item, one summary per pass,
//! and the spans of the last traced pass only.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use crate::host;
use crate::json::num;
use crate::span::{self, Kind, Recorder, Span};
use crate::stats::{median, percentile};
use crate::wl::{Digest, PassOut, Workload};

/// Set-up runs this many times; `setup_s` is the median.
const SETUP_REPS: usize = 5;

/// Timed passes stop early once they would run past this multiple of
/// `--seconds`, so a run on a much slower commit or host still ends in
/// time. The report then shows fewer passes than planned.
const TIMED_CAP: f64 = 2.0;

/// End-to-end metrics (untraced runs): name and unit. Every workload
/// reports each one.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("work_per_s", "1/s"),
    ("item_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The crates a span can be attributed to, in stack order.
const LAYERS: [&str; 6] = ["workloads", "core", "ml", "mapping", "sys", "hbm"];

/// Per-layer metrics (traced runs): name and unit. Every workload
/// reports each one; a layer or model component the workload does not
/// use reads 0.
pub const PER_LAYER: [(&str, &str); 15] = [
    ("proc.cpu_s", "s"),
    ("trace.pass_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage_pct", "%"),
    ("trace.residual_s", "s"),
    ("layer.workloads.pct", "%"),
    ("layer.core.pct", "%"),
    ("layer.ml.pct", "%"),
    ("layer.mapping.pct", "%"),
    ("layer.sys.pct", "%"),
    ("layer.hbm.pct", "%"),
    ("sys.l1_hit_rate", "ratio"),
    ("hbm.row_hit_rate", "ratio"),
    ("mapping.cmt_memo_hit_rate", "ratio"),
    ("mem.page_faults", "count"),
];

/// The golden run digest at the default seed (full size) lives in
/// `baseline.json`; any other seed is checked for self-consistency only.
const BASELINE: &str = include_str!("../baseline.json");

/// How to run one workload.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Input seed.
    pub seed: u64,
    /// Planned seconds of timed passes: with the workload's nominal pass
    /// time, it fixes the pass count.
    pub seconds: f64,
    /// Also run traced passes and report per-layer metrics.
    pub trace: bool,
    /// Reduced inputs, one set-up and one timed pass.
    pub smoke: bool,
    /// Where `trace.json` goes.
    pub out: PathBuf,
}

/// The result of one invocation.
pub struct Outcome {
    /// Human-readable lines, printed before the JSON line.
    pub lines: Vec<String>,
    /// The final JSON line.
    pub json: String,
}

/// What a traced pass leaves behind once its spans are summarised.
struct TracedPass {
    secs: f64,
    /// The untraced pass run just before it (drift cancels in the pair).
    untraced_secs: f64,
    shadow: f64,
    /// Seconds in spans the shadows decompose.
    whole: f64,
    covered: f64,
    layers: BTreeMap<&'static str, f64>,
    by_name: BTreeMap<&'static str, (f64, u64)>,
}

/// Accumulated timings of the untraced passes.
#[derive(Default)]
struct Untraced {
    /// Wall seconds of each pass.
    secs: Vec<f64>,
    /// CPU seconds of each pass.
    cpu: Vec<f64>,
    /// Each item's fastest time so far.
    best: Vec<f64>,
    /// Workload-derived timings, per pass.
    timings: BTreeMap<&'static str, Vec<f64>>,
}

fn expected_digest(workload: &str) -> Option<(u64, u64)> {
    let v = crate::json::parse(BASELINE).ok()?;
    let e = v.get("expected_digest")?;
    let seed = e.get("seed")?.num()? as u64;
    let hex = e.get(workload)?.str()?;
    let d = u64::from_str_radix(hex.trim_start_matches("0x"), 16).ok()?;
    Some((seed, d))
}

/// Items of `p` that disagree with the reference pass or failed, plus a
/// mismatch of the pass's facts and its failed whole-pass checks.
fn failures(p: &PassOut, reference: &PassOut) -> u64 {
    let mismatched = if p.items.len() == reference.items.len() {
        p.items
            .iter()
            .zip(&reference.items)
            .filter(|(a, b)| a.digest != b.digest || !a.ok)
            .count() as u64
    } else {
        p.items.len().max(reference.items.len()) as u64
    };
    mismatched + u64::from(p.facts != reference.facts) + p.check_failures
}

/// Runs `w` under `o` and assembles the report.
pub fn run<W: Workload>(name: &str, w: &W, o: &Opts) -> Outcome {
    let mut lines = vec![format!(
        "# sdam-benchmark workload={name} seed={} seconds={} trace={} smoke={} nproc={} cpu=\"{}\"",
        o.seed,
        o.seconds,
        u8::from(o.trace),
        o.smoke,
        host::nproc(),
        host::cpu_model()
    )];
    let mut failed = 0u64;

    // Set-up, repeated: the median is `setup_s`, and the inputs must
    // come out identical every time.
    let reps = if o.smoke { 1 } else { SETUP_REPS };
    let mut setup_s: Vec<f64> = Vec::new();
    let mut input_digests = Vec::new();
    let mut state = None;
    for _ in 0..reps {
        drop(state.take()); // keep one copy of the inputs resident
        let t0 = Instant::now();
        let (s, d) = w.setup();
        setup_s.push(t0.elapsed().as_secs_f64());
        input_digests.push(d);
        state = Some(s);
    }
    let Some(mut state) = state else {
        unreachable!("set-up runs at least once");
    };
    if input_digests.windows(2).any(|p| p[0] != p[1]) {
        lines.push("check FAIL inputs differ between set-up repetitions".into());
        failed += 1;
    }

    // Warm-up pass: fills caches and allocator pools, and is the
    // reference every timed pass, traced or not, must reproduce.
    let reference = w.pass(&mut state, &mut Recorder::new(false));
    let mut attempted = reference.items.len() as u64;
    failed += reference.items.iter().filter(|i| !i.ok).count() as u64 + reference.check_failures;
    let mut run_digest = Digest::default();
    run_digest.push(input_digests[0]);
    run_digest.push(reference.digest());
    let run_digest = run_digest.value();
    lines.push(format!("digest {run_digest:#018x}"));
    if let (false, Some((seed, want))) = (o.smoke, expected_digest(name)) {
        if seed == o.seed {
            let ok = want == run_digest;
            if !ok {
                // The digest cannot say which item changed: count them all.
                failed += reference.items.len() as u64;
            }
            lines.push(format!(
                "check {} digest against baseline.json (expected {want:#018x})",
                if ok { "ok" } else { "FAIL" }
            ));
        }
    }

    let mut untraced = Untraced {
        best: vec![f64::INFINITY; reference.items.len()],
        ..Untraced::default()
    };
    let mut traced: Vec<TracedPass> = Vec::new();
    let mut last_spans: Vec<Span> = Vec::new();
    let planned = if o.smoke {
        1
    } else {
        ((o.seconds / w.nominal_pass_s()).round() as usize).max(1)
    };
    let start = Instant::now();
    for done in 1..=planned {
        for tracing in [false, true] {
            if tracing && !o.trace {
                continue;
            }
            let mut rec = Recorder::new(tracing);
            let cpu0 = host::cpu_seconds().unwrap_or(0.0);
            let t0 = Instant::now();
            let p = w.pass(&mut state, &mut rec);
            let secs = t0.elapsed().as_secs_f64();
            let cpu = host::cpu_seconds().unwrap_or(0.0) - cpu0;
            failed += failures(&p, &reference);
            attempted += p.items.len() as u64;
            if tracing {
                let spans = rec.take();
                traced.push(TracedPass {
                    secs,
                    untraced_secs: untraced.secs.last().copied().unwrap_or(secs),
                    shadow: span::kind_seconds(&spans, Kind::Shadow),
                    whole: span::kind_seconds(&spans, Kind::Whole),
                    covered: span::covered_seconds(&spans),
                    layers: span::layer_seconds(&spans),
                    by_name: span::totals_by_name(&spans),
                });
                last_spans = spans;
            } else {
                untraced.secs.push(secs);
                untraced.cpu.push(cpu);
                for (b, i) in untraced.best.iter_mut().zip(&p.items) {
                    *b = b.min(i.secs);
                }
                for (k, v) in p.timings {
                    untraced.timings.entry(k).or_default().push(v);
                }
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed / done as f64 * (done + 1) as f64 > TIMED_CAP * o.seconds {
            break;
        }
    }

    lines.push(format!(
        "passes untraced={} traced={} planned={planned} timed_s={:.3} setup_reps={} {}_per_pass={} items_per_pass={} ({}s)",
        untraced.secs.len(),
        traced.len(),
        start.elapsed().as_secs_f64(),
        setup_s.len(),
        w.work_unit(),
        reference.work,
        reference.items.len(),
        w.item_unit(),
    ));
    lines.push(format!(
        "pass_s_each {}",
        untraced
            .secs
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    for (k, v) in &reference.facts {
        lines.push(format!("fact {k} {}", num(*v)));
    }
    for (k, v) in &untraced.timings {
        lines.push(format!("layer {k} {} s", num(median(v))));
    }

    let metrics = if o.trace {
        for (k, ids) in kinds(&reference) {
            let best: Vec<f64> = ids.iter().map(|&i| untraced.best[i]).collect();
            lines.push(format!("layer {k}.count {}", best.len()));
            lines.push(format!(
                "layer {k}.p99_us {}",
                num(percentile(&best, 99.0) * 1e6)
            ));
        }
        if let Err(e) = write_trace(name, o, &untraced, &traced, &last_spans) {
            lines.push(format!("trace.json not written: {e}"));
        }
        per_layer(&reference, &untraced, &traced, &mut lines)
    } else {
        // The median item is printed but not bounded: on `churn` it sits
        // between clusters of sub-microsecond op kinds and swings with
        // host noise more than any bound allows.
        let best_ms: Vec<f64> = untraced.best.iter().map(|s| s * 1e3).collect();
        lines.push(format!(
            "item p50_ms {} p99_ms {} over {} items",
            num(percentile(&best_ms, 50.0)),
            num(percentile(&best_ms, 99.0)),
            best_ms.len()
        ));
        end_to_end(&reference, &untraced, &setup_s)
    };
    for (k, v, u) in &metrics {
        lines.push(format!("metric {k} {} {u}", num(*v)));
    }

    let correct = failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v, u)| format!("\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
        .collect();
    let json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Outcome { lines, json }
}

/// Item indices grouped by kind name, for workloads with several kinds.
fn kinds(reference: &PassOut) -> BTreeMap<&'static str, Vec<usize>> {
    let mut out: BTreeMap<&'static str, Vec<usize>> = BTreeMap::new();
    if reference.kinds.len() > 1 {
        for (i, item) in reference.items.iter().enumerate() {
            out.entry(reference.kinds[usize::from(item.kind)])
                .or_default()
                .push(i);
        }
    }
    out
}

/// The end-to-end metrics of an untraced run, in [`END_TO_END`] order.
fn end_to_end(
    reference: &PassOut,
    untraced: &Untraced,
    setup_s: &[f64],
) -> Vec<(&'static str, f64, &'static str)> {
    let pass_s: f64 = untraced.best.iter().sum();
    let best_ms: Vec<f64> = untraced.best.iter().map(|s| s * 1e3).collect();
    let values = [
        median(setup_s),
        pass_s,
        reference.work as f64 / pass_s,
        percentile(&best_ms, 90.0),
        host::peak_rss_mb().unwrap_or(0.0),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect()
}

/// The per-layer metrics of a traced run.
fn per_layer(
    reference: &PassOut,
    untraced: &Untraced,
    traced: &[TracedPass],
    lines: &mut Vec<String>,
) -> Vec<(&'static str, f64, &'static str)> {
    let med = |f: &dyn Fn(&TracedPass) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let mut layer_s: BTreeMap<&str, f64> = BTreeMap::new();
    let mut by_name: BTreeMap<&str, (Vec<f64>, u64)> = BTreeMap::new();
    for t in traced {
        for (k, v) in &t.layers {
            *layer_s.entry(k).or_default() += v;
        }
        for (k, (s, n)) in &t.by_name {
            let e = by_name.entry(k).or_default();
            e.0.push(*s);
            e.1 = *n;
        }
    }
    for (k, (s, n)) in &by_name {
        lines.push(format!("layer {k}.s {} count={n}", num(median(s))));
    }
    if traced.iter().any(|t| t.shadow > 0.0) {
        // What the outside decomposition leaves unexplained: clock
        // replay plus staging inside the decomposed runs.
        lines.push(format!(
            "layer unexplained_by_shadows.s {}",
            num(med(&|t| t.whole - t.shadow))
        ));
    }
    let named: f64 = layer_s.values().sum();
    let fact = |k: &str| {
        reference
            .facts
            .iter()
            .find(|(n, _)| *n == k)
            .map_or(0.0, |(_, v)| *v)
    };
    let mut m = vec![
        ("proc.cpu_s", median(&untraced.cpu), "s"),
        ("trace.pass_s", med(&|t| t.secs), "s"),
        (
            "trace.overhead_pct",
            med(&|t| (t.secs - t.shadow) / t.untraced_secs - 1.0) * 100.0,
            "%",
        ),
        (
            "trace.coverage_pct",
            med(&|t| t.covered / t.secs) * 100.0,
            "%",
        ),
        ("trace.residual_s", med(&|t| t.secs - t.covered), "s"),
    ];
    for ((name, unit), layer) in PER_LAYER[5..11].iter().zip(LAYERS) {
        let share = layer_s.get(layer).copied().unwrap_or(0.0);
        m.push((
            name,
            if named > 0.0 {
                share / named * 100.0
            } else {
                0.0
            },
            unit,
        ));
    }
    for (name, unit) in &PER_LAYER[11..] {
        m.push((name, fact(name), unit));
    }
    m
}

/// Writes `trace.json`: pass times, per-span totals of every traced
/// pass, and the spans of the last traced pass.
fn write_trace(
    name: &str,
    o: &Opts,
    untraced: &Untraced,
    traced: &[TracedPass],
    last_spans: &[Span],
) -> std::io::Result<()> {
    std::fs::create_dir_all(&o.out)?;
    let list = |v: &mut dyn Iterator<Item = f64>| v.map(num).collect::<Vec<_>>().join(", ");
    let totals: Vec<String> = traced
        .iter()
        .map(|t| {
            let rows: Vec<String> = t
                .by_name
                .iter()
                .map(|(k, (s, n))| format!("\"{k}\": {{\"self_s\": {}, \"count\": {n}}}", num(*s)))
                .collect();
            format!("{{{}}}", rows.join(", "))
        })
        .collect();
    let doc = format!(
        "{{\"workload\": \"{name}\", \"seed\": {}, \"untraced_pass_s\": [{}], \"traced_pass_s\": [{}], \
         \"span_totals\": [{}], \"spans\": {}}}\n",
        o.seed,
        list(&mut untraced.secs.iter().copied()),
        list(&mut traced.iter().map(|t| t.secs)),
        totals.join(", "),
        span::spans_json(last_spans),
    );
    std::fs::write(o.out.join("trace.json"), doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};
    use crate::wl::churn::Churn;

    /// (name, unit) pairs of one metric table of `BENCHMARK.json`.
    fn spec_table(key: &str) -> Vec<(String, String)> {
        let spec = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        spec.get(key)
            .map(Value::arr)
            .unwrap_or_default()
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(Value::str)
                        .unwrap_or_default()
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn output_carries_every_spec_metric_with_its_unit() {
        let out = std::env::temp_dir().join(format!("sdam-benchmark-test-{}", std::process::id()));
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let o = Opts {
                seed: 3,
                seconds: 0.1,
                trace,
                smoke: true,
                out: out.clone(),
            };
            let result = run("churn", &Churn::new(o.seed, true), &o);
            let v = parse(&result.json).expect("the result line is JSON");
            assert_eq!(
                v.get("correct"),
                Some(&Value::Bool(true)),
                "{:?}",
                result.lines
            );
            assert_eq!(v.get("failed").and_then(Value::num), Some(0.0));
            let Some(Value::Obj(metrics)) = v.get("metrics") else {
                panic!("no metrics object");
            };
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(k, m)| {
                    (
                        k.clone(),
                        m.get("unit")
                            .and_then(Value::str)
                            .unwrap_or_default()
                            .into(),
                    )
                })
                .collect();
            let mut want = spec_table(key);
            want.sort();
            assert_eq!(printed, want, "{key} metrics differ from BENCHMARK.json");
            for (name, unit) in &want {
                assert!(
                    result
                        .lines
                        .iter()
                        .any(|l| l.starts_with(&format!("metric {name} "))
                            && l.ends_with(&format!(" {unit}"))),
                    "no readable line for {name}"
                );
            }
        }
        assert!(
            out.join("trace.json").exists(),
            "traced run writes trace.json"
        );
        let _ = std::fs::remove_dir_all(&out);
    }
}
