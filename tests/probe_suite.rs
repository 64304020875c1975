//! The mapping-recovery guard: the black-box agent must recover every
//! mapping in the seeded suite *exactly*, from timing alone, within
//! the committed probe-count ceilings.
//!
//! A golden fixture (`tests/fixtures/probe_recovery.json`) pins the
//! full recovery reports — recovered functions, probe counts, and
//! calibration — so a regression in either the agent or the timing
//! model shows up as a readable line diff. Regenerate after an
//! intentional change with:
//!
//! ```text
//! SDAM_BLESS=1 cargo test --test probe_suite
//! ```

use sdam::probing::{run_seeded_suite, sdam_probe_region, seeded_suite, SuiteTruth};
use sdam_probe::Agent;
use sdam_sys::{EngineTarget, MappingEngine};

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/probe_recovery.json")
}

/// One JSON report per line, in suite order — line diffs stay per-target.
fn snapshot() -> String {
    let reports = run_seeded_suite().expect("seeded suite must be recoverable");
    let mut out = String::new();
    for r in &reports {
        out.push_str(&r.to_json());
        out.push('\n');
    }
    out
}

fn report_diff(want: &str, got: &str) -> String {
    let mut out = String::new();
    let (w_lines, g_lines): (Vec<_>, Vec<_>) = (want.lines().collect(), got.lines().collect());
    for i in 0..w_lines.len().max(g_lines.len()) {
        let w = w_lines.get(i).copied().unwrap_or("<eof>");
        let g = g_lines.get(i).copied().unwrap_or("<eof>");
        if w != g {
            out.push_str(&format!("line {:>4}: - {w}\n           + {g}\n", i + 1));
        }
    }
    out
}

#[test]
fn every_seeded_mapping_is_recovered_exactly_within_the_ceiling() {
    let suite = seeded_suite().expect("suite definition must compile");
    for entry in &suite {
        let report = entry
            .run()
            .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        assert!(
            report.all_exact(),
            "{}: recovery not exact: {}",
            entry.name,
            report.to_json()
        );
        assert!(
            report.total_probes() <= entry.probe_ceiling(),
            "{}: {} probes exceed the committed ceiling of {}",
            entry.name,
            report.total_probes(),
            entry.probe_ceiling()
        );
        for f in &report.functions {
            assert!(
                f.confidence >= 0.999,
                "{}: {} validated at only {}",
                entry.name,
                f.function,
                f.confidence
            );
        }
    }
}

#[test]
fn agent_probe_counts_match_the_targets_own_count() {
    // The fixture pins the probe counts the agent reports about itself,
    // so a re-bless would hide a miscount. The target counts every
    // access it serves on its own; the two must agree on every entry.
    for entry in seeded_suite().expect("suite definition must compile") {
        let (geom, timing) = (entry.geom, entry.timing);
        let agent = Agent::new(geom);
        let device = |engine| {
            EngineTarget::new(engine, geom, timing, 0, geom.addr_bits())
                .expect("a full-width window at base 0 is valid")
        };
        let (reported, target) = match &entry.truth {
            SuiteTruth::Fold => {
                let mut target = device(MappingEngine::identity());
                (
                    agent.recover_bank_fold(&mut target).map(|r| r.probes),
                    target,
                )
            }
            SuiteTruth::Hash(hm) => {
                let mut target = device(MappingEngine::Global(Box::new(hm.clone())));
                (
                    agent.recover_channel_hash(&mut target).map(|r| r.probes),
                    target,
                )
            }
            SuiteTruth::Window(perm) => {
                let region =
                    sdam_probe_region(perm, geom, timing, entry.chunk_bits).expect("probe region");
                let mut target = region.target().expect("probe target");
                let (lo, len) = (geom.line_bits(), entry.chunk_bits - geom.line_bits());
                let rec = agent.recover_permutation(&mut target, lo, len);
                (rec.map(|r| r.probes), target)
            }
        };
        let reported = reported.unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        assert_eq!(
            reported,
            target.probes(),
            "{}: agent reported {reported} probes, the target served {}",
            entry.name,
            target.probes()
        );
    }
}

#[test]
fn recovery_reports_match_the_committed_fixture() {
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
            "cannot read {} ({e}); run `SDAM_BLESS=1 cargo test --test probe_suite` \
             to create the fixture",
            path.display()
        )
    });
    assert!(
        want == got,
        "recovery reports diverged from the committed fixture ({}).\n\
         If the change is intentional, regenerate with \
         `SDAM_BLESS=1 cargo test --test probe_suite`.\n{}",
        path.display(),
        report_diff(&want, &got)
    );
}
