//! `sdam-benchmark`: one command, four workloads, end-to-end and
//! per-layer metrics for the whole SDAM stack.
//!
//! ```text
//! sdam-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
//! sdam-benchmark run [--seed N] [--seconds S] [--trace] [--smoke] [--out DIR]
//! sdam-benchmark compare PARENT_DIR CHANGE_DIR
//! ```
//!
//! The first form runs one workload in this process and prints its
//! metrics, ending with one JSON line. `run` runs each workload in turn,
//! each in its own child process (never two at once), and appends every
//! child's JSON line to `DIR/<workload>.jsonl` when `--out` is given.
//! `compare` reads two such directories back. See README.md.

mod compare;
mod harness;
mod host;
mod json;
mod span;
mod stats;
mod wl;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use harness::Opts;
use wl::{churn::Churn, fig12::Fig12, openloop::OpenLoop, replay::Replay};

/// Workload names, in the order `run` executes them.
const WORKLOADS: [&str; 4] = ["fig12-di", "replay", "openloop", "churn"];

/// Planned seconds of timed passes per workload when `--seconds` is
/// not given.
const DEFAULT_SECONDS: f64 = 14.0;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  sdam-benchmark --workload {{{}}} [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]\n  \
         sdam-benchmark run [--seed N] [--seconds S] [--trace] [--smoke] [--out DIR]\n  \
         sdam-benchmark compare PARENT_DIR CHANGE_DIR",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

/// Parsed command-line flags.
#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = argv.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => a.workload = Some(value(arg)?),
            "--seed" => {
                a.seed = Some(value(arg)?.parse().map_err(|e| format!("--seed: {e}"))?);
            }
            "--seconds" => {
                let s: f64 = value(arg)?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                a.seconds = Some(s);
            }
            "--out" => a.out = Some(PathBuf::from(value(arg)?)),
            "--smoke" => a.smoke = true,
            "--trace" => {
                // `--trace 0|1` (one workload) or a bare `--trace` (run).
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => a.positional.push(arg.clone()),
        }
    }
    Ok(a)
}

/// Runs one workload in this process and prints its report; false for
/// an unknown workload name.
fn run_one(name: &str, o: &Opts) -> bool {
    let out = match name {
        "fig12-di" => harness::run(name, &Fig12::new(o.seed, o.smoke), o),
        "replay" => harness::run(name, &Replay::new(o.seed, o.smoke), o),
        "openloop" => harness::run(name, &OpenLoop::new(o.seed, o.smoke), o),
        "churn" => harness::run(name, &Churn::new(o.seed, o.smoke), o),
        _ => return false,
    };
    for l in &out.lines {
        println!("{l}");
    }
    println!("{}", out.json);
    true
}

/// Runs each workload in its own child process, one at a time.
fn run_all(a: &Args) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("cannot locate this executable");
        return ExitCode::FAILURE;
    };
    let mut ok = true;
    let mut summary = Vec::new();
    for name in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name])
            .args(["--seed", &a.seed.unwrap_or(1).to_string()])
            .args([
                "--seconds",
                &a.seconds.unwrap_or(DEFAULT_SECONDS).to_string(),
            ])
            .args(["--trace", if a.trace { "1" } else { "0" }])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if a.smoke {
            cmd.arg("--smoke");
        }
        if let Some(dir) = &a.out {
            cmd.arg("--out").arg(dir.join(name));
        }
        // `output` waits for the child, so no two workloads overlap.
        let out = match cmd.output() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("{name}: cannot start: {e}");
                ok = false;
                continue;
            }
        };
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{text}");
        let last = text.lines().last().unwrap_or("");
        let parsed = json::parse(last);
        let correct = parsed
            .as_ref()
            .ok()
            .and_then(|v| v.get("correct"))
            .is_some_and(|c| *c == json::Value::Bool(true));
        if !out.status.success() || !correct {
            eprintln!("{name}: failed (status {}, correct {correct})", out.status);
            ok = false;
        }
        if let (Some(dir), Ok(_)) = (&a.out, &parsed) {
            if let Err(e) = append_line(&dir.join(format!("{name}.jsonl")), last) {
                eprintln!("{name}: cannot record result: {e}");
                ok = false;
            }
        }
        if let Ok(v) = parsed {
            summary.push((name, v));
        }
    }
    println!("\n=== summary ===");
    for (name, v) in &summary {
        if let Some(json::Value::Obj(m)) = v.get("metrics") {
            for (k, m) in m {
                println!(
                    "{name:<10} {k:<28} {:>16} {}",
                    m.get("value")
                        .and_then(json::Value::num)
                        .map_or("-".into(), json::num),
                    m.get("unit").and_then(json::Value::str).unwrap_or("")
                );
            }
        }
        println!(
            "{name:<10} {:<28} {:>16} of {}",
            "ops_failed",
            v.get("failed")
                .and_then(json::Value::num)
                .unwrap_or(f64::NAN),
            v.get("attempted")
                .and_then(json::Value::num)
                .unwrap_or(f64::NAN),
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn append_line(path: &std::path::Path, line: &str) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{line}")?;
    f.flush()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match argv.first().map(String::as_str) {
        Some(c @ ("run" | "compare")) => (c, &argv[1..]),
        _ => ("one", &argv[..]),
    };
    let a = match parse_args(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return usage();
        }
    };
    match cmd {
        "run" => match a.workload {
            // One workload is the first form's job.
            Some(_) => usage(),
            None => run_all(&a),
        },
        "compare" => {
            let [parent, change] = a.positional.as_slice() else {
                return usage();
            };
            compare::main(parent.as_ref(), change.as_ref(), "BENCHMARK.json".as_ref())
        }
        _ => {
            let Some(name) = a.workload.as_deref() else {
                return usage();
            };
            let o = Opts {
                seed: a.seed.unwrap_or(1),
                seconds: a.seconds.unwrap_or(DEFAULT_SECONDS),
                trace: a.trace,
                smoke: a.smoke,
                out: a
                    .out
                    .clone()
                    .unwrap_or_else(|| PathBuf::from("benchmark/out").join(name)),
            };
            // A printed result exits 0 even when a check failed: the
            // JSON line's `correct` and `failed` fields carry the verdict.
            if run_one(name, &o) {
                ExitCode::SUCCESS
            } else {
                usage()
            }
        }
    }
}
