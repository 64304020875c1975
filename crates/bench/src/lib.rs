//! # sdam-bench — the figure/table regeneration harness
//!
//! One binary per table and figure of the paper's evaluation (§7); see
//! DESIGN.md's experiment index for the full mapping. Each binary
//! prints the same rows/series the paper reports, with the paper's
//! number next to ours where the paper states one.
//!
//! Run them all, in canonical order, with `repro_all`:
//!
//! ```text
//! cargo build --release -p sdam-bench --bins
//! ./target/release/repro_all tiny -j 2
//! ```
//!
//! Most binaries accept a scale argument (`tiny` | `small` | `large`)
//! controlling workload size; each has its own default (`tiny`, or
//! `small` where `tiny` kernels are cache-resident), and an unknown
//! name exits with status 2.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sdam_workloads::Scale;

/// Parses the common CLI scale argument (first positional arg),
/// returning `default` when there is none. An unknown name prints a
/// message and exits with status 2, so a misspelt scale never runs a
/// figure at the wrong size.
pub fn scale_from_args(default: Scale) -> Scale {
    let arg = std::env::args().nth(1);
    parse_scale(arg.as_deref(), default).unwrap_or_else(|| {
        eprintln!(
            "unknown scale '{}', expected tiny|small|large",
            arg.unwrap_or_default()
        );
        std::process::exit(2);
    })
}

/// The scale a name stands for (`default` for no name); `None` for an
/// unknown name.
fn parse_scale(arg: Option<&str>, default: Scale) -> Option<Scale> {
    match arg {
        None => Some(default),
        Some("tiny") => Some(Scale::tiny()),
        Some("small") => Some(Scale::small()),
        Some("large") => Some(Scale::large()),
        Some(_) => None,
    }
}

/// Unwraps a fallible pipeline result, printing the error and exiting
/// non-zero. The figure binaries want fail-fast behaviour with a
/// readable message instead of a panic backtrace, so every
/// `sdam::pipeline::try_*` call in them routes through here.
pub fn exit_on_err<T>(r: Result<T, sdam::SdamError>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// Prints a section header in a consistent style.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Writes a figure binary's merged observability snapshot as a stable
/// JSON sidecar: `$SDAM_METRICS_DIR/<tag>.metrics.json` (default
/// `target/metrics/`). The snapshot is [`sdam_obs::Registry::stable_json`]
/// — deterministic, so CI can pin it with a golden test. An empty
/// registry (a figure that ran nothing) writes nothing.
pub fn write_metrics_sidecar(tag: &str, reg: &sdam_obs::Registry) {
    if reg.is_empty() {
        return;
    }
    let dir = std::env::var("SDAM_METRICS_DIR").unwrap_or_else(|_| "target/metrics".to_string());
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {dir}: {e}");
        return;
    }
    let path = std::path::Path::new(&dir).join(format!("{tag}.metrics.json"));
    match std::fs::write(&path, reg.stable_json()) {
        Ok(()) => println!("(metrics written to {})", path.display()),
        Err(e) => eprintln!("metrics write failed for {}: {e}", path.display()),
    }
}

/// Merges the per-run snapshots of hand-built comparisons (the figure
/// binaries that assemble [`sdam::report::Comparison`] themselves) in
/// row order — mirroring what [`sdam::pipeline::try_compare`] does for its
/// own lineup.
pub fn merged_comparison_metrics(comparisons: &[sdam::report::Comparison]) -> sdam_obs::Registry {
    let mut reg = sdam_obs::Registry::new();
    for c in comparisons {
        if c.metrics.is_empty() {
            // Hand-built comparison: fold its rows directly.
            for r in &c.results {
                reg.merge(&r.metrics);
            }
        } else {
            // Pipeline-built: its merged snapshot already covers the rows.
            reg.merge(&c.metrics);
        }
    }
    reg
}

/// Timed samples a bench recorder takes: `SDAM_BENCH_SAMPLES` if set
/// and positive, else `default` — the rule the criterion shim applies,
/// so `0` or garbage means the default.
pub fn bench_samples(default: usize) -> usize {
    std::env::var("SDAM_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

/// Median of `samples`: the upper middle element after sorting.
pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    samples[samples.len() / 2]
}

/// Median wall-clock of `runs` calls to `f`, in milliseconds.
pub fn median_ms<T>(runs: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let t0 = std::time::Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&mut samples)
}

/// Writes a bench record to `name` at the workspace root.
pub fn write_bench_json(name: &str, json: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    match std::fs::write(&path, json) {
        Ok(()) => println!("bench record written to {}", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

/// Deterministic 64-bit mixer (splitmix-style) for bench address
/// streams.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^ (x >> 27)
}

/// Prints an aligned row of cells.
pub fn row(cells: &[String]) {
    let line: Vec<String> = cells.iter().map(|c| format!("{c:>12}")).collect();
    println!("{}", line.join(" "));
}

/// Formats a float with two decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a throughput in GB/s.
pub fn gbps(v: f64) -> String {
    format!("{v:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(f2(1.234), "1.23");
        assert_eq!(gbps(123.45), "123.5");
    }

    #[test]
    fn median_takes_the_upper_middle() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 3.0);
    }

    #[test]
    fn scale_names_parse_and_default() {
        let small = Scale::small();
        assert_eq!(parse_scale(Some("tiny"), small), Some(Scale::tiny()));
        assert_eq!(parse_scale(Some("small"), small), Some(Scale::small()));
        assert_eq!(parse_scale(Some("large"), small), Some(Scale::large()));
        assert_eq!(parse_scale(None, small), Some(small));
        assert_eq!(parse_scale(None, Scale::tiny()), Some(Scale::tiny()));
        assert_eq!(parse_scale(Some("smal"), small), None);
        assert_eq!(parse_scale(Some(""), small), None);
    }
}
