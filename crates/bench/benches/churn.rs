//! Control-plane churn benchmark: the flat-array chunk allocator
//! against the preserved BTree reference under tenant-lifecycle load.
//!
//! The tenant-churn script (`sdam_workloads::churn`) is lowered to a
//! pure alloc/free stream and driven through both implementations at
//! 64, 512, and 4096 live tenants. Running this bench records
//! control-plane ops/s for both, the fragmentation read off the flat
//! state (free-list length, longest contiguous free run), and a
//! full-stack `SdamSystem` churn run (processes, heaps, CMT, pid and
//! mapping-id recycling) into `BENCH_churn.json` — and enforces the
//! acceptance guards:
//!
//! * golden equivalence: both allocators produce identical address
//!   checksums, error counts, and claim/release counters on every
//!   scale's stream;
//! * conservation on the lowered stream: after the script's drain
//!   phase, `chunks_claimed - chunks_released == 0` and no internal
//!   fragmentation is left;
//! * flat scaling: ops/s at 4096 tenants stays within 2x of 64
//!   tenants (the O(1) headline);
//! * full-stack scaling: `SdamSystem` ops/s at 4096 tenants stays
//!   within 3x of 64 tenants, so tenant arrival and departure cost what
//!   the tenant owns, not what the process table holds.
//!
//! Any violation panics, so the CI "Bench smoke" step fails loudly.
//! The full-stack replay runs the library's `ChurnPlayer`; its own
//! conservation (no chunk in use and only the primordial process left
//! after the drain) is checked by `tests/system_churn_golden.rs`, which
//! also pins the player's digest.

use std::time::Instant;

use criterion::{black_box, criterion_group, Criterion};
use sdam::churn::ChurnPlayer;
use sdam::SdamSystem;
use sdam_bench::median;
use sdam_hbm::Geometry;
use sdam_mapping::{MappingId, PhysAddr};
use sdam_mem::phys::{ChunkAllocator, ChunkAllocatorReference, FragmentationStats};
use sdam_workloads::churn::{generate, ChurnConfig, ChurnScript, TenantOp};

/// 8 GB in 2 MB chunks: 4096 chunks, 512 pages each.
const ADDR_BITS: u32 = 33;
const CHUNK_BITS: u32 = 21;
const PAGE_BITS: u32 = 12;
/// Steady-state ops per scale (constant so ops/s is comparable).
const STEADY_OPS: usize = 20_000;
/// Steady-state ops of each full-stack `SdamSystem` replay.
const SYSTEM_STEADY_OPS: usize = 40_000;
/// Live-tenant counts of the full-stack replays; the scaling guard
/// compares the last against the first.
const SYSTEM_TENANTS: [usize; 2] = [64, 4096];
/// Dedicated-mapping cap shared by all scales.
const MAPPING_CAP: usize = 200;

/// The tenant script lowered to raw allocator operations.
#[derive(Debug, Clone, Copy)]
enum CtlOp {
    Alloc {
        slot: u32,
        mapping: u8,
        order: u32,
        sensitive: bool,
    },
    Free {
        slot: u32,
        pick: u32,
    },
    /// Tenant departure: free every live block of the slot.
    Drain {
        slot: u32,
    },
}

/// Lowers the lifecycle script: arrivals bind a mapping id from a
/// 1..=MAPPING_CAP pool (recycled LIFO on departure, mirroring the
/// CMT's rule), heap/mmap traffic becomes block allocations, touches
/// become page claims.
fn lower(config: ChurnConfig) -> (Vec<CtlOp>, u32) {
    let script = generate(config);
    let mut ops = Vec::with_capacity(script.ops.len());
    let mut mapping_of = vec![0u8; script.sessions as usize];
    let mut pool: Vec<u8> = (1..=MAPPING_CAP as u8).rev().collect();
    for op in &script.ops {
        match *op {
            TenantOp::Arrive {
                session,
                own_mapping,
            } => {
                mapping_of[session as usize] = if own_mapping {
                    pool.pop().expect("the generator respects the cap")
                } else {
                    0
                };
            }
            TenantOp::Malloc {
                session,
                bytes,
                sensitive,
            } => {
                let pages = (bytes >> PAGE_BITS).max(1);
                let order = (63 - pages.leading_zeros() as u64).min(3) as u32;
                ops.push(CtlOp::Alloc {
                    slot: session,
                    mapping: mapping_of[session as usize],
                    order,
                    sensitive,
                });
            }
            TenantOp::Mmap { session, pages } => {
                let order = (31 - (pages.max(1)).leading_zeros()).min(3);
                ops.push(CtlOp::Alloc {
                    slot: session,
                    mapping: mapping_of[session as usize],
                    order,
                    sensitive: false,
                });
            }
            TenantOp::Touch { session, .. } => ops.push(CtlOp::Alloc {
                slot: session,
                mapping: mapping_of[session as usize],
                order: 0,
                sensitive: false,
            }),
            TenantOp::Free { session, pick } | TenantOp::Munmap { session, pick } => {
                ops.push(CtlOp::Free {
                    slot: session,
                    pick,
                })
            }
            TenantOp::Depart { session } => {
                ops.push(CtlOp::Drain { slot: session });
                let m = mapping_of[session as usize];
                if m != 0 {
                    pool.push(m);
                }
            }
        }
    }
    (ops, script.sessions)
}

/// What a drive produced — compared across implementations for the
/// golden-equivalence guard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DriveResult {
    checksum: u64,
    ok_allocs: u64,
    alloc_errors: u64,
    ctl_ops: u64,
    chunks_claimed: u64,
    chunks_released: u64,
}

macro_rules! make_driver {
    ($name:ident, $ty:ty) => {
        /// Applies the lowered stream; returns the result fingerprint,
        /// peak-occupancy fragmentation (when `capture_frag` — the scan
        /// is O(n) on the reference, so timed runs skip it), and wall
        /// seconds.
        fn $name(
            stream: &[CtlOp],
            sessions: u32,
            capture_frag: bool,
        ) -> (DriveResult, FragmentationStats, f64) {
            let t0 = Instant::now();
            let mut a = <$ty>::new(ADDR_BITS, CHUNK_BITS, PAGE_BITS);
            let mut live: Vec<Vec<PhysAddr>> = vec![Vec::new(); sessions as usize];
            let mut r = DriveResult {
                checksum: 0,
                ok_allocs: 0,
                alloc_errors: 0,
                ctl_ops: 0,
                chunks_claimed: 0,
                chunks_released: 0,
            };
            let mut frag = FragmentationStats {
                free_chunks: 0,
                max_contiguous_free_run: 0,
                guard_chunks: 0,
                stranded_pages: 0,
            };
            let mut peak_in_use = 0u64;
            for op in stream {
                match *op {
                    CtlOp::Alloc {
                        slot,
                        mapping,
                        order,
                        sensitive,
                    } => {
                        let res = if sensitive {
                            a.alloc_block_sensitive(MappingId(mapping), order)
                        } else {
                            a.alloc_block(MappingId(mapping), order)
                        };
                        match res {
                            Ok(p) => {
                                r.checksum = r.checksum.rotate_left(1) ^ p.pa.raw();
                                live[slot as usize].push(p.pa);
                                r.ok_allocs += 1;
                            }
                            Err(_) => r.alloc_errors += 1,
                        }
                        r.ctl_ops += 1;
                    }
                    CtlOp::Free { slot, pick } => {
                        let v = &mut live[slot as usize];
                        if !v.is_empty() {
                            let pa = v.swap_remove(pick as usize % v.len());
                            a.free_block(pa).expect("freeing a live block");
                            r.ctl_ops += 1;
                        }
                    }
                    CtlOp::Drain { slot } => {
                        // Measure fragmentation at peak occupancy, not
                        // after the end-of-script drain emptied it.
                        if capture_frag && a.in_use_chunks() >= peak_in_use {
                            peak_in_use = a.in_use_chunks();
                            frag = a.fragmentation_stats();
                        }
                        for pa in std::mem::take(&mut live[slot as usize]) {
                            a.free_block(pa).expect("freeing a live block");
                            r.ctl_ops += 1;
                        }
                    }
                }
            }
            assert_eq!(
                a.chunks_claimed() - a.chunks_released(),
                0,
                "chunks leaked across the drain"
            );
            assert_eq!(a.internal_fragmentation_pages(), 0);
            r.chunks_claimed = a.chunks_claimed();
            r.chunks_released = a.chunks_released();
            (r, frag, t0.elapsed().as_secs_f64())
        }
    };
}

make_driver!(drive_flat, ChunkAllocator);
make_driver!(drive_reference, ChunkAllocatorReference);

struct ScaleRow {
    tenants: usize,
    ctl_ops: u64,
    flat_ops_per_s: f64,
    reference_ops_per_s: f64,
    frag: FragmentationStats,
}

fn run_scale(tenants: usize, runs: usize) -> ScaleRow {
    let cfg = ChurnConfig {
        tenants,
        ops: STEADY_OPS,
        mapping_cap: MAPPING_CAP,
        ..ChurnConfig::default()
    };
    let (stream, sessions) = lower(cfg);

    // Golden equivalence first: one paired run, every fingerprint field
    // must match.
    let (flat_r, frag, _) = drive_flat(&stream, sessions, true);
    let (ref_r, ref_frag, _) = drive_reference(&stream, sessions, true);
    assert_eq!(
        flat_r, ref_r,
        "flat allocator diverged from the BTree reference at {tenants} tenants"
    );
    assert_eq!(
        frag, ref_frag,
        "fragmentation stats diverged at {tenants} tenants"
    );

    let mut flat_s: Vec<f64> = (0..runs)
        .map(|_| black_box(drive_flat(&stream, sessions, false)).2)
        .collect();
    let mut ref_s: Vec<f64> = (0..runs)
        .map(|_| black_box(drive_reference(&stream, sessions, false)).2)
        .collect();
    ScaleRow {
        tenants,
        ctl_ops: flat_r.ctl_ops,
        flat_ops_per_s: flat_r.ctl_ops as f64 / median(&mut flat_s),
        reference_ops_per_s: ref_r.ctl_ops as f64 / median(&mut ref_s),
        frag,
    }
}

struct SystemRow {
    tenants: usize,
    ops: u64,
    ops_per_s: f64,
    chunks_claimed: u64,
    chunks_released: u64,
    processes_exited: u64,
    page_faults: u64,
    in_use_after_drain: u64,
}

/// Full-stack churn: `sdam::churn::ChurnPlayer` replays the same script
/// on a live `SdamSystem` — processes spawn and exit, heaps grow, pages
/// fault chunks in, pids and mapping ids recycle through their free
/// lists. Ops/s is the median over `runs` replays.
fn run_system_churn(tenants: usize, runs: usize) -> SystemRow {
    let script = generate(ChurnConfig {
        tenants,
        ops: SYSTEM_STEADY_OPS,
        mapping_cap: MAPPING_CAP,
        ..ChurnConfig::default()
    });
    let mut row = replay_system(&script);
    let mut rates = vec![row.ops_per_s];
    rates.extend((1..runs).map(|_| black_box(replay_system(&script)).ops_per_s));
    row.ops_per_s = median(&mut rates);
    row
}

/// One replay of `script` through a fresh `SdamSystem`.
fn replay_system(script: &ChurnScript) -> SystemRow {
    let mut sys = SdamSystem::try_new(Geometry::hbm2_8gb(), CHUNK_BITS).unwrap();
    let mut player = ChurnPlayer::new(script);
    let t0 = Instant::now();
    let mut applied = 0u64;
    for op in &script.ops {
        applied += 1;
        player
            .apply(&mut sys, op)
            .expect("8 GB and 200 mappings outlast the script");
    }
    let secs = t0.elapsed().as_secs_f64();
    SystemRow {
        tenants: script.config.tenants,
        ops: applied,
        ops_per_s: applied as f64 / secs,
        chunks_claimed: sys.chunks_claimed(),
        chunks_released: sys.chunks_released(),
        processes_exited: sys.processes_exited(),
        page_faults: sys.page_faults(),
        in_use_after_drain: sys.in_use_chunks(),
    }
}

fn bench_churn(c: &mut Criterion) {
    let (stream, sessions) = lower(ChurnConfig {
        tenants: 64,
        ops: 2048,
        mapping_cap: MAPPING_CAP,
        ..ChurnConfig::default()
    });
    let mut g = c.benchmark_group("churn");
    g.sample_size(10);
    g.bench_function("flat_ctl_64_tenants_2k", |b| {
        b.iter(|| black_box(drive_flat(&stream, sessions, false)))
    });
    g.bench_function("reference_ctl_64_tenants_2k", |b| {
        b.iter(|| black_box(drive_reference(&stream, sessions, false)))
    });
    g.finish();
}

/// Runs the scaling sweep, enforces the guards, writes
/// `BENCH_churn.json`.
fn record_churn() {
    let runs = sdam_bench::bench_samples(5);

    let rows: Vec<ScaleRow> = [64usize, 512, 4096]
        .iter()
        .map(|&t| run_scale(t, runs))
        .collect();

    // The O(1) headline: flat ops/s must stay flat as tenants grow.
    let flat_64 = rows[0].flat_ops_per_s;
    let flat_4096 = rows[2].flat_ops_per_s;
    assert!(
        flat_4096 * 2.0 >= flat_64,
        "flat control plane degraded with tenant count: \
         {flat_64:.0} ops/s at 64 tenants vs {flat_4096:.0} at 4096"
    );

    let systems: Vec<SystemRow> = SYSTEM_TENANTS
        .iter()
        .map(|&t| run_system_churn(t, runs))
        .collect();
    // Tenant arrive/depart must cost what the tenant owns: the full
    // stack may slow with the population (bigger live working set), but
    // not in proportion to it.
    let sys_64 = systems[0].ops_per_s;
    let sys_4096 = systems[1].ops_per_s;
    assert!(
        sys_4096 * 3.0 >= sys_64,
        "SdamSystem churn degraded with tenant count: \
         {sys_64:.0} ops/s at 64 tenants vs {sys_4096:.0} at 4096"
    );

    let scaling: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"tenants\": {}, \"ctl_ops\": {}, \"flat_ops_per_s\": {:.0}, \
                 \"reference_ops_per_s\": {:.0}, \"flat_over_reference\": {:.2}, \
                 \"free_chunks_at_peak\": {}, \"max_contiguous_free_run\": {}, \
                 \"guard_chunks\": {}, \"stranded_pages\": {}}}",
                r.tenants,
                r.ctl_ops,
                r.flat_ops_per_s,
                r.reference_ops_per_s,
                r.flat_ops_per_s / r.reference_ops_per_s,
                r.frag.free_chunks,
                r.frag.max_contiguous_free_run,
                r.frag.guard_chunks,
                r.frag.stranded_pages,
            )
        })
        .collect();
    let system_rows: Vec<String> = systems
        .iter()
        .map(|r| {
            format!(
                "    {{\"tenants\": {}, \"ops\": {}, \"ops_per_s\": {:.0}, \
                 \"chunks_claimed\": {}, \"chunks_released\": {}, \"processes_exited\": {}, \
                 \"page_faults\": {}, \"in_use_after_drain\": {}}}",
                r.tenants,
                r.ops,
                r.ops_per_s,
                r.chunks_claimed,
                r.chunks_released,
                r.processes_exited,
                r.page_faults,
                r.in_use_after_drain,
            )
        })
        .collect();

    let json = format!(
        "{{\n  \"name\": \"control-plane-churn\",\n  \
         \"command\": \"cargo bench -p sdam-bench --bench churn\",\n  \
         \"workload\": \"seeded tenant lifecycle (arrive/malloc/touch/free/mmap/munmap/depart), {STEADY_OPS} steady ops, {MAPPING_CAP}-mapping pool, 8 GB in 2 MB chunks\",\n  \
         \"unit\": \"control-plane ops/s (block alloc/free incl. chunk claim/release)\",\n  \
         \"scaling\": [\n{}\n  ],\n  \
         \"flat_ops_per_s_4096_over_64\": {:.3},\n  \
         \"reference_ops_per_s_4096_over_64\": {:.3},\n  \
         \"system_churn\": [\n{}\n  ],\n  \
         \"system_ops_per_s_4096_over_64\": {:.3},\n  \
         \"golden_equivalence\": true,\n  \
         \"runs\": {runs},\n  \
         \"note\": \"Both allocators replay the identical lowered op stream; the checksum over every returned physical address plus error and claim/release counters must match exactly (asserted). The flat allocator keeps per-chunk state columns and per-(mapping,sensitivity) largest-free-order buckets, so alloc/free cost no longer grows with live tenants or group sizes; the guard asserts 4096-tenant ops/s stays within 2x of 64-tenant ops/s. Fragmentation (free-list length, longest contiguous free run) is read directly off the flat bitmap at peak occupancy. The system rows replay the same lifecycle ({SYSTEM_STEADY_OPS} steady ops) through SdamSystem end to end — spawn/exit, heap growth, demand paging, CMT writes, pid and mapping-id recycling; 'in_use_after_drain' is read off the system after the drain, and tests/system_churn_golden.rs asserts it is 0. Processes register a mapping lazily on first use and each mapping keeps the list of its users, so add/spawn/exit/remove cost what the tenant or mapping owns rather than a walk of the process table; the guard asserts 4096-tenant system ops/s stays within 3x of 64-tenant ops/s (the whole-table walk it replaced fell about 4x).\"\n}}\n",
        scaling.join(",\n"),
        flat_4096 / flat_64,
        rows[2].reference_ops_per_s / rows[0].reference_ops_per_s,
        system_rows.join(",\n"),
        sys_4096 / sys_64,
    );
    sdam_bench::write_bench_json("BENCH_churn.json", &json);
}

criterion_group!(benches, bench_churn);

fn main() {
    record_churn();
    benches();
}
