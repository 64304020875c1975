//! Golden-snapshot test for the observability JSON export.
//!
//! The committed fixture (`tests/fixtures/obs_snapshot.json`) pins the
//! *stable* snapshot of one fixed pipeline run — counter names, values,
//! histogram buckets, and the event trace — so any accidental change to
//! the metric namespace, the JSON schema, or the simulation's
//! accounting shows up as a readable line diff.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! SDAM_BLESS=1 cargo test --test obs_snapshot
//! ```

use sdam::{pipeline, Experiment, Parallelism, SystemConfig};
use sdam_workloads::datacopy::DataCopy;

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/obs_snapshot.json")
}

/// The fixed run the fixture pins: mixed strides (so the snapshot has
/// non-trivial row-conflict and CMT traffic) under the flagship SDAM
/// configuration, serial driver.
fn snapshot() -> String {
    let w = DataCopy::new(vec![1, 32]);
    let exp = Experiment {
        parallelism: Parallelism::Serial,
        ..Experiment::quick()
    };
    pipeline::try_run(&w, SystemConfig::SdmBsm, &exp)
        .unwrap()
        .metrics
        .stable_json()
}

/// Prints a unified-ish line diff of the first divergences.
fn report_diff(want: &str, got: &str) -> String {
    let mut out = String::new();
    let mut shown = 0;
    let (w_lines, g_lines): (Vec<_>, Vec<_>) = (want.lines().collect(), got.lines().collect());
    for i in 0..w_lines.len().max(g_lines.len()) {
        let w = w_lines.get(i).copied().unwrap_or("<eof>");
        let g = g_lines.get(i).copied().unwrap_or("<eof>");
        if w != g {
            out.push_str(&format!("line {:>4}: - {w}\n           + {g}\n", i + 1));
            shown += 1;
            if shown >= 20 {
                out.push_str("… (more differences elided)\n");
                break;
            }
        }
    }
    out
}

#[test]
fn stable_snapshot_matches_committed_fixture() {
    let got = snapshot();
    let path = fixture_path();
    if std::env::var("SDAM_BLESS").is_ok() {
        std::fs::create_dir_all(path.parent().expect("fixture has a parent dir")).unwrap();
        std::fs::write(&path, &got).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); run `SDAM_BLESS=1 cargo test --test obs_snapshot` \
             to create the fixture",
            path.display()
        )
    });
    assert!(
        want == got,
        "metrics snapshot diverged from the committed fixture \
         ({}).\nIf the change is intentional, regenerate with \
         `SDAM_BLESS=1 cargo test --test obs_snapshot`.\n{}",
        path.display(),
        report_diff(&want, &got)
    );
}

#[test]
fn snapshot_is_reproducible_within_a_session() {
    // The fixture is only meaningful if the run itself is a pure
    // function of its inputs; two fresh runs must serialize
    // byte-identically.
    assert_eq!(snapshot(), snapshot());
}
