//! Figure 12: CPU speedup over BS+DM for (a) the 19 standard benchmarks
//! and (b) the 8 data-intensive benchmarks, across all configurations.
//!
//! BS+BSM is selected from the *workload mix* profile (the paper
//! combines 500 M cache misses across all benchmarks), which is why it
//! barely helps: no single shuffle suits every application.

use sdam::{pipeline, profiling, report, Experiment, SystemConfig};
use sdam_bench::{
    exit_on_err, f2, header, merged_comparison_metrics, scale_from_args, write_metrics_sidecar,
};
use sdam_mapping::BitFlipRateVector;
use sdam_workloads::{data_intensive_suite, standard_suite, Scale, Workload};

/// When `SDAM_CSV_DIR` is set, speedup tables are also written there as
/// CSV for plotting.
fn maybe_write_csv(tag: &str, comparisons: &[report::Comparison], configs: &[SystemConfig]) {
    let Ok(dir) = std::env::var("SDAM_CSV_DIR") else {
        return;
    };
    let path = std::path::Path::new(&dir).join(format!("fig12_{tag}.csv"));
    match std::fs::File::create(&path) {
        Ok(f) => {
            if let Err(e) = report::write_csv(comparisons, configs, f) {
                eprintln!("csv write failed: {e}");
            } else {
                println!("(csv written to {})", path.display());
            }
        }
        Err(e) => eprintln!("cannot create {}: {e}", path.display()),
    }
}

fn run_suite(name: &str, suite: &[Box<dyn Workload>], exp: &Experiment) -> Vec<report::Comparison> {
    let configs = SystemConfig::paper_lineup();

    // Profile every workload once; build the mix-level aggregate BFRV
    // that the BS+BSM baseline must use.
    let profiles: Vec<profiling::ProfileData> = suite
        .iter()
        .map(|w| exit_on_err(profiling::try_profile_on_baseline(w.as_ref(), exp)))
        .collect();
    let mix_aggregate =
        BitFlipRateVector::mean(profiles.iter().map(|p| &p.aggregate).collect::<Vec<_>>());

    header(&format!("Fig. 12 ({name}): speedup over BS+DM"));
    print!("{:<14}", "benchmark");
    for c in &configs[1..] {
        print!(" {:>15}", c.to_string());
    }
    println!();

    let mut comparisons = Vec::new();
    for (w, profile) in suite.iter().zip(&profiles) {
        let mut results = Vec::new();
        for &config in &configs {
            let data = if config == SystemConfig::BsBsm {
                // Global mapping from the mix, as the paper configures it.
                let mut mix = profile.clone();
                mix.aggregate = mix_aggregate.clone();
                mix
            } else {
                profile.clone()
            };
            results.push(exit_on_err(pipeline::try_run_with_profile(
                w.as_ref(),
                config,
                exp,
                Some(&data),
            )));
        }
        let metrics = {
            let mut m = sdam_obs::Registry::new();
            for r in &results {
                m.merge(&r.metrics);
            }
            m
        };
        let cmp = report::Comparison {
            workload: w.name().to_string(),
            results,
            metrics,
        };
        print!("{:<14}", cmp.workload);
        for &c in &configs[1..] {
            print!(" {:>15}", f2(cmp.speedup_of(c).expect("config was run")));
        }
        println!();
        comparisons.push(cmp);
    }

    print!("{:<14}", "geomean");
    for &c in &configs[1..] {
        print!(
            " {:>15}",
            f2(report::geomean_speedup(&comparisons, c).expect("all configs ran"))
        );
    }
    println!();
    maybe_write_csv(
        if name.starts_with('a') {
            "standard"
        } else {
            "data_intensive"
        },
        &comparisons,
        &configs,
    );
    comparisons
}

fn main() {
    let mut exp = Experiment::bench();
    // Fig. 12 defaults to the `small` scale: at `tiny` the data-intensive
    // kernels fit the 64 KB L1 and memory mapping cannot matter.
    exp.scale = scale_from_args(Scale::small());

    let std_cmp = run_suite("a: standard benchmarks", &standard_suite(), &exp);
    let di_cmp = run_suite(
        "b: data-intensive benchmarks",
        &data_intensive_suite(),
        &exp,
    );
    write_metrics_sidecar("fig12_standard", &merged_comparison_metrics(&std_cmp));
    write_metrics_sidecar("fig12_data_intensive", &merged_comparison_metrics(&di_cmp));

    header("paper reference points");
    println!(
        "standard:        BS+BSM 1.01x  BS+HM 1.14x  SDM+BSM 1.08x  \
         ML(4) 1.16x  ML(32) 1.27x  DL(4) 1.33x  DL(32) 1.43x"
    );
    println!("data-intensive:  BS+HM ~1.14x  ML(32) 1.44x  DL(32) 1.84x");
    let dl32 = SystemConfig::SdmBsmDl { clusters: 32 };
    println!(
        "\nours:            standard DL(32) {}x, data-intensive DL(32) {}x",
        f2(report::geomean_speedup(&std_cmp, dl32).expect("ran")),
        f2(report::geomean_speedup(&di_cmp, dl32).expect("ran")),
    );
}
