//! Black-box reverse engineering of the address mapping, from timing
//! alone.
//!
//! The probing agent sees one opaque operation — "access this address,
//! get a latency back" — routed through the real CMT→AMU→bank-hash→
//! FR-FCFS path. From pair experiments it reconstructs, for every
//! mapping in the seeded suite:
//!
//! * the latency classes (hit / closed miss / row conflict), trained
//!   online by a threshold calibrator;
//! * the controller's bank-hash fold classes;
//! * channel-hash XOR source sets, by GF(2) Gaussian elimination;
//! * the active AMU bit permutation over the chunk window, by
//!   single-flip and anchor-pair probing.
//!
//! Ground truth (`Cmt::translate_under`, the registered mappings) is
//! consulted only *after* recovery, to grade it.
//!
//! ```text
//! cargo run --release --example reverse_engineer
//! ```

use sdam::probing::{seeded_suite, SuiteTruth};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let suite = seeded_suite()?;
    println!(
        "{:<14} {:>16} {:>7} {:>8} {:>11} {:>6}  recovered",
        "target", "function", "probes", "ceiling", "confidence", "exact"
    );
    for entry in &suite {
        let report = entry.run()?;
        for f in &report.functions {
            println!(
                "{:<14} {:>16} {:>7} {:>8} {:>11.4} {:>6}  {}",
                report.target,
                f.function,
                f.probes,
                entry.probe_ceiling(),
                f.confidence,
                if f.exact == Some(true) { "yes" } else { "NO" },
                f.recovered,
            );
        }
        let kind = match entry.truth {
            SuiteTruth::Fold => "controller bank hash only",
            SuiteTruth::Hash(_) => "global channel hash",
            SuiteTruth::Window(_) => "SDAM system, AMU window via add_addr_map()",
        };
        println!("{:<14} ^ {}", "", kind);
    }
    Ok(())
}
