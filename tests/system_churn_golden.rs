//! Golden digests of a full `SdamSystem` tenant-churn replay.
//!
//! The seeded lifecycle script from `sdam_workloads::churn` is applied
//! to a live system by `sdam::churn::ChurnPlayer`, the player the churn
//! bench and the `multi_tenant` example run — spawn/exit, mapping
//! add/remove, heap malloc/free, mmap/munmap and demand-paging touches —
//! and everything the system hands back is folded into one FNV-1a
//! digest: every returned VA, pid
//! and mapping id, every touched physical address, the kind of every
//! error, the CMT's chunk→mapping column at the end of warm-up, and the
//! claim/release/page-fault counters at the end. Control-plane
//! optimisations (how mappings reach processes, how departures retire
//! them) must leave every frame the allocator picks unchanged, and this
//! pins that under the tier-1 suite. A deliberate behaviour change must
//! update the table; the failure message prints the current values.

use sdam::churn::{Applied, ChurnPlayer};
use sdam::SdamSystem;
use sdam_hbm::Geometry;
use sdam_mem::MemError;
use sdam_workloads::churn::{generate, ChurnConfig};

const CHUNK_BITS: u32 = 21;

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
        MemError::ProcessLive { .. } => 10,
    }
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
    let mut sys = SdamSystem::try_new(Geometry::hbm2_8gb(), CHUNK_BITS).unwrap();
    let mut player = ChurnPlayer::new(&script);
    let mut h = Fnv::new();
    // Warm-up is one arrive/malloc/touch triple per tenant.
    let warmup = 3 * tenants;
    for (i, op) in script.ops.iter().enumerate() {
        if i == warmup {
            for chunk in 0..sys.cmt().num_chunks() {
                h.eat(u64::from(sys.cmt().chunk_mapping(chunk).0));
            }
        }
        match player.apply(&mut sys, op) {
            Ok(Applied::Arrived { pid, mapping }) => {
                h.eat(u64::from(pid.0));
                h.eat(mapping.map_or(0, |m| u64::from(m.0)));
            }
            Ok(Applied::Placed(va) | Applied::Released(Some(va))) => h.eat(va.raw()),
            Ok(Applied::Released(None)) => {}
            Ok(Applied::Touched(frames)) => frames.iter().for_each(|pa| h.eat(pa.raw())),
            Ok(Applied::Departed { pid, mapping }) => {
                h.eat(u64::from(pid.0));
                if let Some(id) = mapping {
                    h.eat(u64::from(id.0));
                }
            }
            Err(e) => h.eat(0xe000 | error_code(&e)),
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
