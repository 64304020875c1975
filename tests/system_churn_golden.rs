//! Golden digests of a full `SdamSystem` tenant-churn replay.
//!
//! The seeded lifecycle script from `sdam_workloads::churn` is applied
//! to a live system — spawn/exit, mapping add/remove, heap malloc/free,
//! mmap/munmap and demand-paging touches — and everything the system
//! hands back is folded into one FNV-1a digest: every returned VA, pid
//! and mapping id, every touched physical address, the kind of every
//! error, the CMT's chunk→mapping column at the end of warm-up, and the
//! claim/release/page-fault counters at the end. Control-plane
//! optimisations (how mappings reach processes, how departures retire
//! them) must leave every frame the allocator picks unchanged, and this
//! pins that under the tier-1 suite. A deliberate behaviour change must
//! update the table; the failure message prints the current values.

use sdam::{ProcessId, SdamSystem};
use sdam_hbm::Geometry;
use sdam_mapping::{BitPermutation, MappingId};
use sdam_mem::{MemError, VirtAddr};
use sdam_workloads::churn::{generate, ChurnConfig, TenantOp};

const CHUNK_BITS: u32 = 21;
const PAGE_BITS: u32 = 12;

/// FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// A stable code per error kind (payloads excluded).
fn error_code(e: &MemError) -> u64 {
    match e {
        MemError::OutOfPhysicalMemory => 1,
        MemError::VirtualRangeUnavailable { .. } => 2,
        MemError::BadAddress(_) => 3,
        MemError::BadFree(_) => 4,
        MemError::UnknownMapping(_) => 5,
        MemError::MappingIdsExhausted => 6,
        MemError::MappingInUse(_) => 7,
        MemError::InvalidSize { .. } => 8,
        MemError::UnknownProcess { .. } => 9,
    }
}

#[derive(Default)]
struct Tenant {
    pid: ProcessId,
    mapping: Option<MappingId>,
    objects: Vec<(VirtAddr, u64)>,
    regions: Vec<(VirtAddr, u64)>,
}

/// Permutation for a tenant's dedicated mapping: a session-dependent
/// swap inside the chunk-offset window.
fn tenant_perm(session: u32) -> BitPermutation {
    let n = (CHUNK_BITS - 6) as usize;
    let mut table: Vec<u32> = (0..n as u32).collect();
    table.swap(session as usize % (n - 1), session as usize % (n - 1) + 1);
    BitPermutation::new(6, table).expect("a swap is a permutation")
}

/// Applies one op, folding what the system returns into `h`.
fn apply(
    sys: &mut SdamSystem,
    slots: &mut [Option<Tenant>],
    op: &TenantOp,
    h: &mut Fnv,
) -> Result<(), MemError> {
    match *op {
        TenantOp::Arrive {
            session,
            own_mapping,
        } => {
            let mapping = if own_mapping {
                Some(sys.add_mapping(&tenant_perm(session))?)
            } else {
                None
            };
            let pid = sys.spawn_process();
            h.eat(u64::from(pid.0));
            h.eat(mapping.map_or(0, |m| u64::from(m.0)));
            slots[session as usize] = Some(Tenant {
                pid,
                mapping,
                ..Tenant::default()
            });
        }
        TenantOp::Malloc { session, bytes, .. } => {
            let t = slots[session as usize].as_mut().expect("live session");
            let va = sys.malloc_in(t.pid, bytes, t.mapping)?;
            h.eat(va.raw());
            t.objects.push((va, bytes));
        }
        TenantOp::Free { session, pick } => {
            let t = slots[session as usize].as_mut().expect("live session");
            if !t.objects.is_empty() {
                let (va, _) = t.objects.swap_remove(pick as usize % t.objects.len());
                h.eat(va.raw());
                sys.free_in(t.pid, va)?;
            }
        }
        TenantOp::Mmap { session, pages } => {
            let t = slots[session as usize].as_mut().expect("live session");
            let len = u64::from(pages) << PAGE_BITS;
            let va = sys.mmap_in(t.pid, len, t.mapping.unwrap_or(MappingId::DEFAULT))?;
            h.eat(va.raw());
            t.regions.push((va, len));
        }
        TenantOp::Munmap { session, pick } => {
            let t = slots[session as usize].as_mut().expect("live session");
            if !t.regions.is_empty() {
                let (va, _) = t.regions.swap_remove(pick as usize % t.regions.len());
                h.eat(va.raw());
                sys.munmap_in(t.pid, va)?;
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
                return Ok(());
            }
            let i = pick as usize % all;
            let (va, len) = if i < t.objects.len() {
                t.objects[i]
            } else {
                t.regions[i - t.objects.len()]
            };
            let pid = t.pid;
            for p in 0..u64::from(pages).min((len >> PAGE_BITS).max(1)) {
                let pa = sys.touch_in(pid, VirtAddr(va.raw() + (p << PAGE_BITS)))?;
                h.eat(pa.raw());
            }
        }
        TenantOp::Depart { session } => {
            let t = slots[session as usize].take().expect("live session");
            h.eat(u64::from(t.pid.0));
            sys.exit_process(t.pid)?;
            if let Some(id) = t.mapping {
                h.eat(u64::from(id.0));
                sys.remove_mapping(id)?;
            }
        }
    }
    Ok(())
}

/// Replays the script at `tenants` live tenants and `ops` steady ops
/// and returns its digest.
fn replay(tenants: usize, ops: usize) -> u64 {
    let script = generate(ChurnConfig {
        tenants,
        ops,
        mapping_cap: 200,
        ..ChurnConfig::default()
    });
    let mut sys = SdamSystem::new(Geometry::hbm2_8gb(), CHUNK_BITS);
    let mut slots: Vec<Option<Tenant>> = (0..script.sessions).map(|_| None).collect();
    let mut h = Fnv::new();
    // Warm-up is one arrive/malloc/touch triple per tenant.
    let warmup = 3 * tenants;
    for (i, op) in script.ops.iter().enumerate() {
        if i == warmup {
            for chunk in 0..sys.cmt().num_chunks() {
                h.eat(u64::from(sys.cmt().chunk_mapping(chunk).0));
            }
        }
        if let Err(e) = apply(&mut sys, &mut slots, op, &mut h) {
            h.eat(0xe000 | error_code(&e));
        }
    }
    h.eat(sys.chunks_claimed());
    h.eat(sys.chunks_released());
    h.eat(sys.page_faults());
    h.eat(sys.processes_exited());
    assert_eq!(sys.in_use_chunks(), 0, "chunks leaked across the drain");
    assert_eq!(sys.process_count(), 1, "only the primordial process left");
    h.0
}

/// `(tenants, steady ops, digest)` pinned for each replay.
const GOLDEN: &[(usize, usize, u64)] = &[
    (256, 20_000, 0xafd2_b9f4_7c1e_028f),
    (4096, 2_000, 0x82f2_95e3_f240_3693),
];

#[test]
fn system_churn_digests_match_golden() {
    let got: Vec<(usize, usize, u64)> = GOLDEN
        .iter()
        .map(|&(tenants, ops, _)| (tenants, ops, replay(tenants, ops)))
        .collect();
    let table: String = got
        .iter()
        .map(|(t, o, d)| format!("    ({t}, {o}, {d:#018x}),\n"))
        .collect();
    assert_eq!(
        got, GOLDEN,
        "system churn replay changed; current table:\n{table}"
    );
}
