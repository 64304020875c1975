//! Multi-tenant SDAM under churn: thousands of tenant sessions arrive,
//! allocate, fault pages in, and depart — sharing the physical memory,
//! the chunk groups, and the CMT (the paper's "co-run applications"
//! setting, Observation 2 and §6.2), with pids and mapping ids cycling
//! through the control plane's free lists the whole time.
//!
//! The run has two phases:
//!
//! 1. **Lifecycle** — [`ChurnPlayer`], the library's one definition of
//!    what each op does, replays a seeded [`sdam_workloads::churn`]
//!    script on a live [`SdamSystem`]: every session spawns a process,
//!    tenants under the mapping cap register a dedicated address mapping
//!    (recycled on departure), and each page touch demand-pages through
//!    the CMT. Every touched page's decoded hardware address is kept
//!    per session.
//! 2. **Measurement** — each session's access stream replays against a
//!    fresh HBM device model, recording per-request latency into that
//!    tenant's `machine.tenant.*` log2 histogram in an observability
//!    [`Registry`]. Sessions are independent, so the phase shards
//!    across worker threads; per-shard registries merge at the report
//!    barrier in shard order, and the merged snapshot must be
//!    byte-identical to a serial run — the workspace's deterministic
//!    merge rule, asserted here.
//!
//! The report is a per-tenant p50/p99 latency table read straight off
//! the merged histograms via [`Log2Histogram::quantile`].
//!
//! ```text
//! cargo run --release --example multi_tenant
//! ```

use sdam::churn::{Applied, ChurnPlayer};
use sdam::{SdamError, SdamSystem};
use sdam_hbm::{DecodedAddr, Geometry, Hbm, Timing};
use sdam_mem::MemError;
use sdam_obs::{Log2Histogram, Registry};
use sdam_workloads::churn::{generate, ChurnConfig, ChurnScript, TenantOp};

const CHUNK_BITS: u32 = 21;
const THREADS: usize = 4;
/// Issue interval in device cycles during the measurement replay.
const ISSUE_GAP: u64 = 2;

/// Phase 1: replay the lifecycle script on a live system, collecting
/// every touched page's decoded hardware address per session and
/// whether each session registered a dedicated mapping.
fn run_lifecycle(
    sys: &mut SdamSystem,
    script: &ChurnScript,
) -> Result<(Vec<Vec<DecodedAddr>>, Vec<bool>), MemError> {
    let mut player = ChurnPlayer::new(script);
    let mut accesses: Vec<Vec<DecodedAddr>> = (0..script.sessions).map(|_| Vec::new()).collect();
    let mut dedicated = vec![false; script.sessions as usize];
    for op in &script.ops {
        match (op, player.apply(sys, op)?) {
            (&TenantOp::Arrive { session, .. }, Applied::Arrived { mapping, .. }) => {
                dedicated[session as usize] = mapping.is_some();
            }
            (&TenantOp::Touch { session, .. }, Applied::Touched(frames)) => {
                // What `SdamSystem::access_in` returns for each page.
                let decoded = frames
                    .iter()
                    .map(|&pa| sys.geometry().decode(sys.cmt().translate(pa)));
                accesses[session as usize].extend(decoded);
            }
            _ => {}
        }
    }
    Ok((accesses, dedicated))
}

/// Phase 2 worker: replays each session's accesses against a private
/// device clock, filling that tenant's `machine.tenant.*` histogram.
/// Sessions are independent, so any contiguous shard of them produces
/// the same histograms serial or threaded.
fn measure(geometry: Geometry, sessions: &[(u32, &[DecodedAddr])]) -> Registry {
    let mut reg = Registry::new();
    for &(session, accs) in sessions {
        let mut hbm = Hbm::new(geometry, Timing::hbm2());
        let key = format!("machine.tenant.{session:05}.latency_cycles");
        for (i, &a) in accs.iter().enumerate() {
            let arrival = i as u64 * ISSUE_GAP;
            let done = hbm.service(a, arrival);
            reg.observe(&key, done - arrival);
        }
        reg.incr("machine.tenant.sessions_measured", 1);
    }
    reg
}

fn main() -> Result<(), SdamError> {
    // Thousands of tenant sessions: the steady population is 96 but
    // replacement churn pushes total sessions past 2000.
    let config = ChurnConfig {
        tenants: 96,
        ops: 36_000,
        ..ChurnConfig::default()
    };
    let script = generate(config);
    let mut sys = SdamSystem::try_new(Geometry::hbm2_8gb(), CHUNK_BITS)?;
    let (accesses, dedicated) = run_lifecycle(&mut sys, &script)?;

    println!("tenant churn over one shared SDAM control plane");
    println!(
        "  {} sessions ({} ops), {} processes exited, {} page faults",
        script.sessions,
        script.len(),
        sys.processes_exited(),
        sys.page_faults(),
    );
    println!(
        "  chunks: {} claimed, {} released, {} still in use after the drain",
        sys.chunks_claimed(),
        sys.chunks_released(),
        sys.in_use_chunks(),
    );
    assert_eq!(sys.in_use_chunks(), 0, "the drain returns every chunk");
    assert!(
        u64::from(script.sessions) > sys.cmt().registered_ids().count() as u64,
        "sessions outnumber CMT slots — ids must have been recycled"
    );

    // Phase 2, serial: one registry, sessions in order.
    let work: Vec<(u32, &[DecodedAddr])> = accesses
        .iter()
        .enumerate()
        .filter(|(_, a)| !a.is_empty())
        .map(|(s, a)| (s as u32, a.as_slice()))
        .collect();
    let geometry = sys.geometry();
    let serial = measure(geometry, &work);

    // Phase 2, threaded: contiguous shards, merged at the report
    // barrier in shard order. Determinism rule: merge order is the only
    // ordering input, so the merged snapshot is byte-identical to the
    // serial one.
    let shard_len = work.len().div_ceil(THREADS);
    let shards: Vec<&[(u32, &[DecodedAddr])]> = work.chunks(shard_len.max(1)).collect();
    let merged = std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .iter()
            .map(|shard| scope.spawn(|| measure(geometry, shard)))
            .collect();
        let mut merged = Registry::new();
        for h in handles {
            merged.merge(&h.join().expect("measurement worker panicked"));
        }
        merged
    });
    assert_eq!(
        serial.stable_json(),
        merged.stable_json(),
        "threaded merge must be byte-identical to the serial run"
    );
    println!(
        "  measured {} sessions serial and across {} threads: snapshots byte-identical",
        serial.counter("machine.tenant.sessions_measured"),
        shards.len(),
    );

    // The per-tenant latency table: busiest sessions first, quantiles
    // straight off the merged log2 histograms.
    let mut busiest: Vec<(u32, &Log2Histogram)> = work
        .iter()
        .filter_map(|&(s, _)| {
            let key = format!("machine.tenant.{s:05}.latency_cycles");
            merged.histogram(&key).map(|h| (s, h))
        })
        .collect();
    busiest.sort_by_key(|&(s, h)| (std::cmp::Reverse(h.count()), s));
    println!("\n  session   mapping     accesses   p50 (cyc)   p99 (cyc)");
    for &(s, h) in busiest.iter().take(10) {
        println!(
            "  {:>7}   {:<9} {:>10}  {:>10}  {:>10}",
            s,
            if dedicated[s as usize] {
                "dedicated"
            } else {
                "shared"
            },
            h.count(),
            h.quantile(0.5).unwrap_or(0),
            h.quantile(0.99).unwrap_or(0),
        );
    }
    let mut all = Log2Histogram::new();
    for &(_, h) in &busiest {
        all.merge(h);
    }
    println!(
        "  {:>7}   {:<9} {:>10}  {:>10}  {:>10}",
        "all",
        "-",
        all.count(),
        all.quantile(0.5).unwrap_or(0),
        all.quantile(0.99).unwrap_or(0),
    );
    Ok(())
}
