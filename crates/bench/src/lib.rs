//! # sdam-bench — the figure/table regeneration harness
//!
//! One binary per table and figure of the paper's evaluation (§7); see
//! DESIGN.md's experiment index for the full mapping. Each binary
//! prints the same rows/series the paper reports, with the paper's
//! number next to ours where the paper states one.
//!
//! Run them all with:
//!
//! ```text
//! for b in fig01_clp_vs_rlp fig02_conflict_demo fig03_stride_throughput \
//!          fig04_single_vs_multi table1_variable_stats table2_hyperparams \
//!          table3_area table4_loc fig11_mixed_stride fig12_cpu_speedup \
//!          fig13_profiling_time fig14_freq_scaling fig15_accelerator; do
//!   cargo run --release -p sdam-bench --bin $b
//! done
//! ```
//!
//! Most binaries accept a scale argument (`tiny` | `small` | `large`,
//! default `tiny`) controlling workload size.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sdam_workloads::Scale;

/// Parses the common CLI scale argument (first positional arg).
pub fn scale_from_args() -> Scale {
    match std::env::args().nth(1).as_deref() {
        Some("small") => Scale::small(),
        Some("large") => Scale::large(),
        Some("tiny") | None => Scale::tiny(),
        Some(other) => {
            eprintln!("unknown scale '{other}', expected tiny|small|large; using tiny");
            Scale::tiny()
        }
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
/// — deterministic, so CI can pin it with a golden test. A build with
/// the `obs` feature disabled produces empty registries and writes
/// nothing.
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
}
