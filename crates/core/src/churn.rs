//! [`ChurnPlayer`]: the one place that says what each
//! [`sdam_workloads::churn::TenantOp`] does to an [`SdamSystem`].
//!
//! A churn script names tenants by session number; the player keeps the
//! per-session table (pid, dedicated mapping, live heap objects and
//! `mmap` regions) and reduces each op's raw `pick` against it, so every
//! driver of a script replays the same semantics.

use sdam_mapping::{BitPermutation, MappingId, PhysAddr};
use sdam_mem::{MemError, VirtAddr};
use sdam_workloads::churn::{ChurnScript, TenantOp};

use crate::system::{ProcessId, SdamSystem};

/// Page size of every [`SdamSystem`], in address bits.
const PAGE_BITS: u32 = 12;

/// One live session: its process, its dedicated mapping (if any) and
/// the `(start, length)` of every live heap object and `mmap` region.
#[derive(Default)]
struct Tenant {
    pid: ProcessId,
    mapping: Option<MappingId>,
    objects: Vec<(VirtAddr, u64)>,
    regions: Vec<(VirtAddr, u64)>,
}

/// What the system handed back for one op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Applied<'a> {
    /// `Arrive`: the spawned process and the dedicated mapping it
    /// registered, if it asked for one.
    Arrived {
        /// The new tenant's process.
        pid: ProcessId,
        /// Its dedicated mapping.
        mapping: Option<MappingId>,
    },
    /// `Malloc` or `Mmap`: the start of the new object or region.
    Placed(VirtAddr),
    /// `Free` or `Munmap`: the start of the object or region released,
    /// or `None` when the tenant held none.
    Released(Option<VirtAddr>),
    /// `Touch`: the physical address of each touched page, in order;
    /// empty when the tenant held nothing to touch.
    Touched(&'a [PhysAddr]),
    /// `Depart`: the exited process and the mapping it removed.
    Departed {
        /// The departed tenant's process.
        pid: ProcessId,
        /// Its dedicated mapping, now unregistered.
        mapping: Option<MappingId>,
    },
}

/// Replays a [`ChurnScript`]'s ops, one at a time, on an [`SdamSystem`].
///
/// `Malloc` always calls [`SdamSystem::malloc_in`]: the op's
/// `sensitive` flag is not honoured, so guard-isolated allocations
/// reach only allocator-level drivers of the script.
pub struct ChurnPlayer {
    slots: Vec<Option<Tenant>>,
    /// The PAs of the last `Touch`, reused so touching allocates nothing.
    frames: Vec<PhysAddr>,
}

impl ChurnPlayer {
    /// A player with an empty slot for each of `script`'s sessions.
    pub fn new(script: &ChurnScript) -> Self {
        ChurnPlayer {
            slots: (0..script.sessions).map(|_| None).collect(),
            frames: Vec::new(),
        }
    }

    /// Performs `op` on `sys` and returns what the system handed back.
    ///
    /// - `Arrive` registers the tenant's mapping (when `own_mapping`)
    ///   before spawning its process; a failed registration spawns
    ///   nothing and fills no slot.
    /// - `Free` and `Munmap` drop the `pick % len`-th entry from the
    ///   tenant's table before the system call, and do nothing when the
    ///   tenant holds none.
    /// - `Touch` picks among objects, then regions, by
    ///   `pick % (objects + regions)` and touches up to `pages` of it
    ///   from the start, one page per 4 KB of its length (at least one).
    /// - `Depart` empties the slot, exits the process, then removes the
    ///   tenant's mapping.
    ///
    /// # Errors
    ///
    /// [`MemError::UnknownProcess`], with the session number as `pid`,
    /// for an op on a session that is not live (never arrived, departed
    /// or out of the script's range), leaving `sys` untouched; any
    /// other error is the system call's.
    pub fn apply(&mut self, sys: &mut SdamSystem, op: &TenantOp) -> Result<Applied<'_>, MemError> {
        match *op {
            TenantOp::Arrive {
                session,
                own_mapping,
            } => {
                let slot = self
                    .slots
                    .get_mut(session as usize)
                    .ok_or(MemError::UnknownProcess { pid: session })?;
                let mapping = if own_mapping {
                    Some(sys.add_mapping(&tenant_perm(session, sys.cmt().chunk_bits()))?)
                } else {
                    None
                };
                let pid = sys.spawn_process();
                *slot = Some(Tenant {
                    pid,
                    mapping,
                    ..Tenant::default()
                });
                Ok(Applied::Arrived { pid, mapping })
            }
            TenantOp::Malloc { session, bytes, .. } => {
                let t = live(&mut self.slots, session)?;
                let va = sys.malloc_in(t.pid, bytes, t.mapping)?;
                t.objects.push((va, bytes));
                Ok(Applied::Placed(va))
            }
            TenantOp::Free { session, pick } => {
                let t = live(&mut self.slots, session)?;
                let Some((va, _)) = take_pick(&mut t.objects, pick) else {
                    return Ok(Applied::Released(None));
                };
                sys.free_in(t.pid, va)?;
                Ok(Applied::Released(Some(va)))
            }
            TenantOp::Mmap { session, pages } => {
                let t = live(&mut self.slots, session)?;
                let len = u64::from(pages) << PAGE_BITS;
                let va = sys.mmap_in(t.pid, len, t.mapping.unwrap_or(MappingId::DEFAULT))?;
                t.regions.push((va, len));
                Ok(Applied::Placed(va))
            }
            TenantOp::Munmap { session, pick } => {
                let t = live(&mut self.slots, session)?;
                let Some((va, _)) = take_pick(&mut t.regions, pick) else {
                    return Ok(Applied::Released(None));
                };
                sys.munmap_in(t.pid, va)?;
                Ok(Applied::Released(Some(va)))
            }
            TenantOp::Touch {
                session,
                pick,
                pages,
            } => {
                let t = live(&mut self.slots, session)?;
                self.frames.clear();
                let all = t.objects.len() + t.regions.len();
                if all > 0 {
                    let i = pick as usize % all;
                    let (va, len) = if i < t.objects.len() {
                        t.objects[i]
                    } else {
                        t.regions[i - t.objects.len()]
                    };
                    for p in 0..u64::from(pages).min((len >> PAGE_BITS).max(1)) {
                        let pa = sys.touch_in(t.pid, VirtAddr(va.raw() + (p << PAGE_BITS)))?;
                        self.frames.push(pa);
                    }
                }
                Ok(Applied::Touched(&self.frames))
            }
            TenantOp::Depart { session } => {
                let t = self
                    .slots
                    .get_mut(session as usize)
                    .and_then(Option::take)
                    .ok_or(MemError::UnknownProcess { pid: session })?;
                sys.exit_process(t.pid)?;
                if let Some(id) = t.mapping {
                    sys.remove_mapping(id)?;
                }
                Ok(Applied::Departed {
                    pid: t.pid,
                    mapping: t.mapping,
                })
            }
        }
    }
}

/// The live tenant of `session`.
fn live(slots: &mut [Option<Tenant>], session: u32) -> Result<&mut Tenant, MemError> {
    slots
        .get_mut(session as usize)
        .and_then(Option::as_mut)
        .ok_or(MemError::UnknownProcess { pid: session })
}

/// Removes and returns the `pick % len`-th entry, `None` when empty.
fn take_pick(entries: &mut Vec<(VirtAddr, u64)>, pick: u32) -> Option<(VirtAddr, u64)> {
    (!entries.is_empty()).then(|| entries.swap_remove(pick as usize % entries.len()))
}

/// A tenant's dedicated mapping: the identity on the chunk-offset
/// window `[6, chunk_bits)` with two adjacent bits swapped, varying with
/// the session so co-resident tenants hold distinct mappings.
#[allow(clippy::expect_used)]
fn tenant_perm(session: u32, chunk_bits: u32) -> BitPermutation {
    // `SdamSystem::try_new` takes chunk_bits above the 12 page bits, so
    // the window holds at least 7 bits and the swap stays inside it.
    let n = (chunk_bits - 6) as usize;
    let mut table: Vec<u32> = (0..n as u32).collect();
    let i = session as usize % (n - 1);
    table.swap(i, i + 1);
    BitPermutation::new(6, table).expect("a swap is a permutation")
}
