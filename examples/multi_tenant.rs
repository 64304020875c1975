//! Multi-tenant SDAM under churn: thousands of tenant sessions arrive,
//! allocate, fault pages in, and depart — sharing the physical memory,
//! the chunk groups, and the CMT (the paper's "co-run applications"
//! setting, Observation 2 and §6.2), with pids and mapping ids cycling
//! through the control plane's free lists the whole time.
//!
//! The run has two phases:
//!
//! 1. **Lifecycle** — a seeded [`sdam_workloads::churn`] script drives
//!    a live [`SdamSystem`]: every session spawns a process, tenants
//!    under the mapping cap register a dedicated address mapping
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

use sdam::{ProcessId, SdamError, SdamSystem};
use sdam_hbm::{DecodedAddr, Geometry, Hbm, Timing};
use sdam_mapping::{BitPermutation, MappingId};
use sdam_mem::VirtAddr;
use sdam_obs::{Log2Histogram, Registry};
use sdam_workloads::churn::{generate, ChurnConfig, TenantOp};

const PAGE_BITS: u64 = 12;
const CHUNK_BITS: u32 = 21;
const THREADS: usize = 4;
/// Issue interval in device cycles during the measurement replay.
const ISSUE_GAP: u64 = 2;

#[derive(Default)]
struct Tenant {
    pid: ProcessId,
    mapping: Option<MappingId>,
    objects: Vec<(VirtAddr, u64)>,
    regions: Vec<(VirtAddr, u64)>,
}

/// A session-dependent permutation of the chunk-offset window: a swap
/// of two adjacent bits, varying with the session so co-resident
/// tenants hold distinct mappings.
fn tenant_perm(session: u32) -> BitPermutation {
    let n = (CHUNK_BITS - 6) as usize;
    let mut table: Vec<u32> = (0..n as u32).collect();
    let i = session as usize % (n - 1);
    table.swap(i, i + 1);
    BitPermutation::new(6, table).expect("a swap is a permutation")
}

/// Phase 1: replay the lifecycle script on a live system, collecting
/// every touched page's decoded hardware address per session.
fn run_lifecycle(
    sys: &mut SdamSystem,
    script: &sdam_workloads::churn::ChurnScript,
) -> (Vec<Vec<DecodedAddr>>, Vec<bool>) {
    let mut slots: Vec<Option<Tenant>> = (0..script.sessions).map(|_| None).collect();
    let mut accesses: Vec<Vec<DecodedAddr>> = (0..script.sessions).map(|_| Vec::new()).collect();
    let mut dedicated = vec![false; script.sessions as usize];
    for op in &script.ops {
        match *op {
            TenantOp::Arrive {
                session,
                own_mapping,
            } => {
                let mapping =
                    own_mapping.then(|| sys.add_mapping(&tenant_perm(session)).expect("under cap"));
                dedicated[session as usize] = own_mapping;
                slots[session as usize] = Some(Tenant {
                    pid: sys.spawn_process(),
                    mapping,
                    objects: Vec::new(),
                    regions: Vec::new(),
                });
            }
            TenantOp::Malloc { session, bytes, .. } => {
                let t = slots[session as usize].as_mut().expect("live session");
                let va = sys
                    .malloc_in(t.pid, bytes, t.mapping)
                    .expect("8 GB outlasts the working set");
                t.objects.push((va, bytes));
            }
            TenantOp::Free { session, pick } => {
                let t = slots[session as usize].as_mut().expect("live session");
                if !t.objects.is_empty() {
                    let (va, _) = t.objects.swap_remove(pick as usize % t.objects.len());
                    sys.free_in(t.pid, va).expect("freeing a live allocation");
                }
            }
            TenantOp::Mmap { session, pages } => {
                let t = slots[session as usize].as_mut().expect("live session");
                let len = u64::from(pages) << PAGE_BITS;
                let va = sys
                    .mmap_in(t.pid, len, t.mapping.unwrap_or(MappingId::DEFAULT))
                    .expect("address space is vast");
                t.regions.push((va, len));
            }
            TenantOp::Munmap { session, pick } => {
                let t = slots[session as usize].as_mut().expect("live session");
                if !t.regions.is_empty() {
                    let (va, _) = t.regions.swap_remove(pick as usize % t.regions.len());
                    sys.munmap_in(t.pid, va).expect("unmapping a live region");
                }
            }
            TenantOp::Touch {
                session,
                pick,
                pages,
            } => {
                let t = slots[session as usize].as_mut().expect("live session");
                let all = t.objects.len() + t.regions.len();
                if all == 0 {
                    continue;
                }
                let i = pick as usize % all;
                let (va, len) = if i < t.objects.len() {
                    t.objects[i]
                } else {
                    t.regions[i - t.objects.len()]
                };
                let pid = t.pid;
                let max_pages = (len >> PAGE_BITS).max(1);
                for p in 0..u64::from(pages).min(max_pages) {
                    let dec = sys
                        .access_in(pid, VirtAddr(va.raw() + (p << PAGE_BITS)))
                        .expect("touching a mapped page");
                    accesses[session as usize].push(dec);
                }
            }
            TenantOp::Depart { session } => {
                let t = slots[session as usize].take().expect("live session");
                sys.exit_process(t.pid).expect("live process");
                if let Some(id) = t.mapping {
                    sys.remove_mapping(id).expect("tenant owned the mapping");
                }
            }
        }
    }
    (accesses, dedicated)
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
    let (accesses, dedicated) = run_lifecycle(&mut sys, &script);

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
        u64::from(script.sessions) > sys.cmt().registered_mappings() as u64,
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
