//! Runs every figure/table regeneration binary — the one-command
//! reproduction of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p sdam-bench --bin repro_all [tiny|small|large] [-j N]
//! ```
//!
//! The experiments are independent processes, so they fan out across
//! `-j N` concurrent children (default: the host's available
//! parallelism). Output is buffered per experiment and printed in the
//! canonical order, so the transcript is identical to a serial run; a
//! failure stops the run with the failing binary named. `-j 1` streams
//! each child's output live instead of buffering.

use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

const BINARIES: &[&str] = &[
    "background_ddr_vs_hbm",
    "background_clp_vs_blp",
    "fig01_clp_vs_rlp",
    "fig02_conflict_demo",
    "fig03_stride_throughput",
    "fig04_single_vs_multi",
    "table1_variable_stats",
    "table2_hyperparams",
    "table3_area",
    "table4_loc",
    "fig11_mixed_stride",
    "fig12_cpu_speedup",
    "fig13_profiling_time",
    "fig14_freq_scaling",
    "fig15_accelerator",
    "ablation_chunk_size",
    "ablation_controller",
    "ablation_selection",
    "ablation_hashing",
    "ablation_optimality",
    "extension_hmc",
    "extension_corun",
    "extension_future_clp",
];

/// Builds the command for one experiment binary: prefer the sibling
/// binary next to this executable; fall back to cargo for partial
/// builds.
fn command_for(bin: &str, args: &[String]) -> Command {
    let sibling = std::env::current_exe()
        .expect("self path exists")
        .with_file_name(bin);
    if sibling.exists() {
        let mut c = Command::new(sibling);
        c.args(args);
        c
    } else {
        let mut c = Command::new("cargo");
        c.args(["run", "--release", "-q", "-p", "sdam-bench", "--bin", bin]);
        if !args.is_empty() {
            c.arg("--");
            c.args(args);
        }
        c
    }
}

fn banner(bin: &str) -> String {
    format!("\n───────────────────────── {bin} ─────────────────────────")
}

fn main() {
    let mut jobs: Option<usize> = None;
    let mut args: Vec<String> = Vec::new();
    let mut raw = std::env::args().skip(1);
    while let Some(a) = raw.next() {
        if a == "-j" || a == "--jobs" {
            let n = raw.next().unwrap_or_else(|| {
                eprintln!("{a} needs a count");
                std::process::exit(2);
            });
            jobs = Some(n.parse().unwrap_or_else(|_| {
                eprintln!("bad job count: {n}");
                std::process::exit(2);
            }));
        } else if let Some(n) = a.strip_prefix("-j") {
            jobs = Some(n.parse().unwrap_or_else(|_| {
                eprintln!("bad job count: {n}");
                std::process::exit(2);
            }));
        } else {
            args.push(a);
        }
    }
    let jobs = jobs
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .max(1);

    let started = std::time::Instant::now();
    if jobs == 1 {
        // Serial: stream child output live, exactly as when run by hand.
        for bin in BINARIES {
            println!("{}", banner(bin));
            match command_for(bin, &args).status() {
                Ok(s) if s.success() => {}
                Ok(s) => {
                    eprintln!("{bin} exited with {s}");
                    std::process::exit(1);
                }
                Err(e) => {
                    eprintln!("failed to launch {bin}: {e}");
                    std::process::exit(1);
                }
            }
        }
    } else {
        run_parallel(jobs, &args);
    }
    println!(
        "\nall {} experiments regenerated in {:.1} s ({jobs} jobs)",
        BINARIES.len(),
        started.elapsed().as_secs_f64()
    );
}

/// Runs up to `jobs` experiment children concurrently, buffering each
/// child's output and printing the buffers in canonical order.
fn run_parallel(jobs: usize, args: &[String]) {
    type Slot = Option<Result<std::process::Output, String>>;
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Slot>> = BINARIES.iter().map(|_| Mutex::new(None)).collect();
    let failed = std::thread::scope(|s| {
        for _ in 0..jobs.min(BINARIES.len()) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= BINARIES.len() {
                    break;
                }
                let out = command_for(BINARIES[i], args)
                    .output()
                    .map_err(|e| e.to_string());
                *slots[i].lock().expect("slot lock") = Some(out);
            });
        }
        // Print completed experiments in order while workers run.
        let mut failed = false;
        for (i, bin) in BINARIES.iter().enumerate() {
            let out = loop {
                if let Some(out) = slots[i].lock().expect("slot lock").take() {
                    break out;
                }
                std::thread::sleep(std::time::Duration::from_millis(20));
            };
            println!("{}", banner(bin));
            match out {
                Ok(o) => {
                    print!("{}", String::from_utf8_lossy(&o.stdout));
                    eprint!("{}", String::from_utf8_lossy(&o.stderr));
                    if !o.status.success() {
                        eprintln!("{bin} exited with {}", o.status);
                        failed = true;
                    }
                }
                Err(e) => {
                    eprintln!("failed to launch {bin}: {e}");
                    failed = true;
                }
            }
        }
        failed
    });
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::BINARIES;

    #[test]
    fn binaries_lists_every_figure_binary() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
        let mut on_disk: Vec<String> = std::fs::read_dir(&dir)
            .expect("src/bin is readable")
            .filter_map(|e| {
                let name = e.ok()?.file_name().into_string().ok()?;
                name.strip_suffix(".rs").map(str::to_string)
            })
            .filter(|stem| stem != "repro_all")
            .collect();
        on_disk.sort();
        let mut listed: Vec<String> = BINARIES.iter().map(|b| b.to_string()).collect();
        listed.sort();
        assert_eq!(
            listed, on_disk,
            "BINARIES must list every src/bin binary once"
        );
    }
}
