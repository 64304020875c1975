//! `churn`: a full `SdamSystem` replay of the seeded tenant-lifecycle
//! script at 4096 live tenants — spawn/exit, mapping add/remove, heap
//! malloc/free, mmap/munmap and demand-paging touches, with frees beside
//! allocations. `fig12-di` only allocates, once; a paging or allocator
//! change that helps one use and hurts the other shows here.

use std::time::Instant;

use sdam::{ProcessId, SdamSystem};
use sdam_hbm::Geometry;
use sdam_mapping::{BitPermutation, MappingId};
use sdam_mem::{MemError, VirtAddr};
use sdam_workloads::churn::{generate, ChurnConfig, ChurnScript, TenantOp};

use super::{Digest, Item, PassOut, Workload};
use crate::span::Recorder;

const CHUNK_BITS: u32 = 21;
const PAGE_BITS: u32 = 12;

/// The churn workload at a given seed and size.
pub struct Churn {
    config: ChurnConfig,
}

impl Churn {
    /// 4096 tenants and 400 k steady ops; `smoke` shrinks both.
    pub fn new(seed: u64, smoke: bool) -> Self {
        let (tenants, ops) = if smoke {
            (256, 20_000)
        } else {
            (4096, 400_000)
        };
        Churn {
            config: ChurnConfig {
                // Seed 1 reproduces the generator's default script.
                seed: ChurnConfig::default()
                    .seed
                    .wrapping_add(seed.wrapping_sub(1)),
                tenants,
                ops,
                mapping_cap: 200,
                ..ChurnConfig::default()
            },
        }
    }
}

/// Inputs: the script and the dedicated-mapping permutations tenants
/// register (a session-dependent swap inside the chunk-offset window).
pub struct State {
    script: ChurnScript,
    perms: Vec<BitPermutation>,
}

#[derive(Default)]
struct Tenant {
    pid: ProcessId,
    mapping: Option<MappingId>,
    objects: Vec<(VirtAddr, u64)>,
    regions: Vec<(VirtAddr, u64)>,
}

/// Span and per-kind sample names, indexed by [`kind`].
const KINDS: [&str; 7] = [
    "core.arrive",
    "core.malloc",
    "core.free",
    "core.mmap",
    "core.munmap",
    "core.touch",
    "core.depart",
];

fn kind(op: &TenantOp) -> usize {
    match op {
        TenantOp::Arrive { .. } => 0,
        TenantOp::Malloc { .. } => 1,
        TenantOp::Free { .. } => 2,
        TenantOp::Mmap { .. } => 3,
        TenantOp::Munmap { .. } => 4,
        TenantOp::Touch { .. } => 5,
        TenantOp::Depart { .. } => 6,
    }
}

fn tenant(slots: &mut [Option<Tenant>], session: u32) -> Result<&mut Tenant, MemError> {
    slots
        .get_mut(session as usize)
        .and_then(Option::as_mut)
        .ok_or(MemError::UnknownProcess { pid: session })
}

/// Applies one op; returns the value the op produced (address, pid, or
/// a fold of touched frames) for the digest.
fn apply(
    sys: &mut SdamSystem,
    slots: &mut [Option<Tenant>],
    perms: &[BitPermutation],
    op: &TenantOp,
) -> Result<u64, MemError> {
    match *op {
        TenantOp::Arrive {
            session,
            own_mapping,
        } => {
            let mapping = if own_mapping {
                Some(sys.add_mapping(&perms[session as usize % perms.len()])?)
            } else {
                None
            };
            let pid = sys.spawn_process();
            slots[session as usize] = Some(Tenant {
                pid,
                mapping,
                ..Tenant::default()
            });
            Ok(u64::from(pid.0) << 8 | mapping.map_or(0, |m| u64::from(m.0)))
        }
        TenantOp::Malloc { session, bytes, .. } => {
            let t = tenant(slots, session)?;
            let va = sys.malloc_in(t.pid, bytes, t.mapping)?;
            t.objects.push((va, bytes));
            Ok(va.raw())
        }
        TenantOp::Free { session, pick } => {
            let t = tenant(slots, session)?;
            if t.objects.is_empty() {
                return Ok(0);
            }
            let (va, _) = t.objects.swap_remove(pick as usize % t.objects.len());
            sys.free_in(t.pid, va)?;
            Ok(va.raw())
        }
        TenantOp::Mmap { session, pages } => {
            let t = tenant(slots, session)?;
            let len = u64::from(pages) << PAGE_BITS;
            let va = sys.mmap_in(t.pid, len, t.mapping.unwrap_or(MappingId::DEFAULT))?;
            t.regions.push((va, len));
            Ok(va.raw())
        }
        TenantOp::Munmap { session, pick } => {
            let t = tenant(slots, session)?;
            if t.regions.is_empty() {
                return Ok(0);
            }
            let (va, _) = t.regions.swap_remove(pick as usize % t.regions.len());
            sys.munmap_in(t.pid, va)?;
            Ok(va.raw())
        }
        TenantOp::Touch {
            session,
            pick,
            pages,
        } => {
            let t = tenant(slots, session)?;
            let all = t.objects.len() + t.regions.len();
            if all == 0 {
                return Ok(0);
            }
            let i = pick as usize % all;
            let (va, len) = if i < t.objects.len() {
                t.objects[i]
            } else {
                t.regions[i - t.objects.len()]
            };
            let pid = t.pid;
            let mut d = Digest::default();
            for p in 0..u64::from(pages).min((len >> PAGE_BITS).max(1)) {
                d.push(
                    sys.touch_in(pid, VirtAddr(va.raw() + (p << PAGE_BITS)))?
                        .raw(),
                );
            }
            Ok(d.value())
        }
        TenantOp::Depart { session } => {
            let t = slots
                .get_mut(session as usize)
                .and_then(Option::take)
                .ok_or(MemError::UnknownProcess { pid: session })?;
            sys.exit_process(t.pid)?;
            if let Some(id) = t.mapping {
                sys.remove_mapping(id)?;
            }
            Ok(u64::from(t.pid.0))
        }
    }
}

/// The op's fields as words, for the input digest.
fn op_words(op: &TenantOp) -> [u64; 4] {
    match *op {
        TenantOp::Arrive {
            session,
            own_mapping,
        } => [0, session.into(), own_mapping.into(), 0],
        TenantOp::Malloc {
            session,
            bytes,
            sensitive,
        } => [1, session.into(), bytes, sensitive.into()],
        TenantOp::Free { session, pick } => [2, session.into(), pick.into(), 0],
        TenantOp::Mmap { session, pages } => [3, session.into(), pages.into(), 0],
        TenantOp::Munmap { session, pick } => [4, session.into(), pick.into(), 0],
        TenantOp::Touch {
            session,
            pick,
            pages,
        } => [5, session.into(), pick.into(), pages.into()],
        TenantOp::Depart { session } => [6, session.into(), 0, 0],
    }
}

impl Workload for Churn {
    type State = State;

    fn setup(&self) -> (State, u64) {
        let script = generate(self.config);
        let n = (CHUNK_BITS - 6) as usize;
        let perms = (0..n - 1)
            .map(|s| {
                let mut table: Vec<u32> = (0..n as u32).collect();
                table.swap(s, s + 1);
                BitPermutation::new(6, table).expect("a swap of two entries is a permutation")
            })
            .collect();
        let mut d = Digest::default();
        for w in script.ops.iter().flat_map(op_words) {
            d.push(w);
        }
        (State { script, perms }, d.value())
    }

    fn pass(&self, st: &mut State, rec: &mut Recorder) -> PassOut {
        let mut out = PassOut::default();
        let Ok(mut sys) = SdamSystem::try_new(Geometry::hbm2_8gb(), CHUNK_BITS) else {
            out.check_failures += 1;
            return out;
        };
        let mut slots: Vec<Option<Tenant>> = (0..st.script.sessions).map(|_| None).collect();
        out.items.reserve(st.script.ops.len());
        for (i, op) in st.script.ops.iter().enumerate() {
            let k = kind(op);
            rec.set_cell(i as u32);
            let t0 = Instant::now();
            let res = rec.span(KINDS[k], |_| apply(&mut sys, &mut slots, &st.perms, op));
            out.items.push(Item {
                secs: t0.elapsed().as_secs_f64(),
                digest: *res.as_ref().unwrap_or(&u64::MAX),
                ok: res.is_ok(),
                kind: k as u8,
            });
        }
        out.work = st.script.ops.len() as u64;
        // Conservation after the drain: every chunk claimed was released
        // and only the primordial process is left.
        if sys.in_use_chunks() != 0
            || sys.chunks_claimed() != sys.chunks_released()
            || sys.process_count() != 1
        {
            out.check_failures += 1;
        }
        out.facts = vec![
            ("mem.page_faults", sys.page_faults() as f64),
            ("mem.chunks_claimed", sys.chunks_claimed() as f64),
            ("mem.chunks_released", sys.chunks_released() as f64),
            ("mem.processes_exited", sys.processes_exited() as f64),
        ];
        out.kinds = &KINDS;
        out
    }

    fn work_unit(&self) -> &'static str {
        "ops"
    }

    fn item_unit(&self) -> &'static str {
        "op"
    }

    fn nominal_pass_s(&self) -> f64 {
        1.5
    }
}
