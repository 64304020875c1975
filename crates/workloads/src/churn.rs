//! Tenant-churn workload: seeded arrivals, departures, and allocator
//! traffic over long simulated uptimes.
//!
//! Multi-tenant machines stress the *control plane* of SDAM rather
//! than the data plane: every tenant session registers a mapping,
//! spawns a process, grows and shrinks heaps, and eventually departs —
//! releasing its chunks, its mapping id, and its pid for the next
//! session. This module generates that lifecycle as a pure-data op
//! script ([`ChurnScript`]), keeping `sdam-workloads` free of any
//! dependency on the allocator crates: the bench and example layers
//! (which depend on the full stack) interpret the script against a
//! live [`SdamSystem`] or against a raw chunk allocator pair.
//!
//! The generator is seeded and deterministic: the same
//! [`ChurnConfig`] always yields the same script, so serial and
//! threaded appliers, and flat and reference allocators, all see the
//! identical op stream.
//!
//! [`SdamSystem`]: ../../sdam/struct.SdamSystem.html

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One step of the tenant lifecycle. `session` is a dense, monotonic
/// session number; the applier maps it to a live pid/mapping. Ops that
/// pick among a tenant's live objects carry a raw `pick` the applier
/// reduces modulo the current count (and skips when the tenant has
/// none), so the script needs no knowledge of applier-side state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantOp {
    /// A tenant arrives: spawn a process and, when `own_mapping` is
    /// set, register a dedicated address mapping for it (departure
    /// unregisters it — the mapping-id recycling pressure). Tenants
    /// beyond the mapping cap share the default mapping.
    Arrive {
        /// The new session's number.
        session: u32,
        /// Whether this session registers its own mapping.
        own_mapping: bool,
    },
    /// Heap allocation under the tenant's mapping.
    Malloc {
        /// Target session.
        session: u32,
        /// Request size in bytes.
        bytes: u64,
        /// Guard-isolated (rowhammer-sensitive) allocation.
        sensitive: bool,
    },
    /// Free one of the tenant's live heap allocations.
    Free {
        /// Target session.
        session: u32,
        /// Reduced modulo the tenant's live-allocation count.
        pick: u32,
    },
    /// Anonymous `mmap` of whole pages under the tenant's mapping.
    Mmap {
        /// Target session.
        session: u32,
        /// Region length in pages.
        pages: u32,
    },
    /// Unmap one of the tenant's live `mmap` regions.
    Munmap {
        /// Target session.
        session: u32,
        /// Reduced modulo the tenant's live-region count.
        pick: u32,
    },
    /// Touch pages of one live object (demand paging: this is what
    /// claims chunks and writes CMT entries).
    Touch {
        /// Target session.
        session: u32,
        /// Reduced modulo the tenant's live-object count.
        pick: u32,
        /// Pages to touch, from the object's start.
        pages: u32,
    },
    /// The tenant departs: frees everything, exits the process, and
    /// unregisters its mapping (if dedicated) — pid and mapping id
    /// both return to their free lists.
    Depart {
        /// Departing session.
        session: u32,
    },
}

/// Configuration for [`generate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnConfig {
    /// RNG seed; equal configs generate equal scripts.
    pub seed: u64,
    /// Live-tenant population the script holds steady after warm-up.
    pub tenants: usize,
    /// Steady-state ops generated after the warm-up arrivals.
    pub ops: usize,
    /// Largest heap allocation, in pages (sizes are drawn log-uniform
    /// between one page and this).
    pub max_alloc_pages: u32,
    /// At most this many sessions hold a dedicated mapping at once;
    /// later arrivals share the default mapping. Keep below the 256-id
    /// architectural limit (allocator guard chunks notwithstanding).
    pub mapping_cap: usize,
    /// Percent of heap allocations that are guard-isolated sensitive.
    pub sensitive_pct: u8,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            seed: 0x5da2_c41e,
            tenants: 64,
            ops: 4096,
            max_alloc_pages: 64,
            mapping_cap: 200,
            sensitive_pct: 2,
        }
    }
}

/// A generated tenant-lifecycle script plus the config that made it.
#[derive(Debug, Clone)]
pub struct ChurnScript {
    /// The ops, in program order.
    pub ops: Vec<TenantOp>,
    /// The generating configuration.
    pub config: ChurnConfig,
    /// Total sessions that ever arrived (== 1 + highest session number).
    pub sessions: u32,
}

impl ChurnScript {
    /// Ops in the script.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the script is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Generates a seeded tenant-churn script: `config.tenants` warm-up
/// arrivals, then `config.ops` steady-state steps mixing allocator
/// traffic with tenant replacement (a departure immediately followed
/// by an arrival, so the population holds and pids/mapping ids cycle
/// through their free lists — the long-uptime recycling pressure).
pub fn generate(config: ChurnConfig) -> ChurnScript {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut ops = Vec::with_capacity(config.tenants + config.ops + config.tenants);
    // Live sessions; the parallel vec records which hold a dedicated
    // mapping, so departures release exactly the slots they took.
    let mut live: Vec<u32> = Vec::with_capacity(config.tenants.max(1));
    let mut live_dedicated: Vec<bool> = Vec::with_capacity(config.tenants.max(1));
    let mut dedicated = 0usize;
    let mut next_session = 0u32;

    macro_rules! arrive {
        () => {{
            let own_mapping = dedicated < config.mapping_cap;
            if own_mapping {
                dedicated += 1;
            }
            let session = next_session;
            next_session += 1;
            live.push(session);
            live_dedicated.push(own_mapping);
            ops.push(TenantOp::Arrive {
                session,
                own_mapping,
            });
            session
        }};
    }

    // Warm up to the steady-state population, giving each fresh tenant
    // an initial working set.
    for _ in 0..config.tenants.max(1) {
        let s = arrive!();
        let bytes = draw_bytes(&mut rng, config.max_alloc_pages);
        ops.push(TenantOp::Malloc {
            session: s,
            bytes,
            sensitive: false,
        });
        ops.push(TenantOp::Touch {
            session: s,
            pick: 0,
            pages: rng.gen_range(1..5),
        });
    }

    for _ in 0..config.ops {
        let t = live[rng.gen_range(0..live.len())];
        match rng.gen_range(0..100u32) {
            // Tenant replacement: depart + arrive keeps the population
            // flat while cycling pids and mapping ids through their
            // free lists — the recycling pressure long uptimes apply.
            0..=5 => {
                let idx = rng.gen_range(0..live.len());
                let s = live.swap_remove(idx);
                if live_dedicated.swap_remove(idx) {
                    dedicated -= 1;
                }
                ops.push(TenantOp::Depart { session: s });
                let s = arrive!();
                ops.push(TenantOp::Malloc {
                    session: s,
                    bytes: draw_bytes(&mut rng, config.max_alloc_pages),
                    sensitive: false,
                });
            }
            6..=39 => ops.push(TenantOp::Malloc {
                session: t,
                bytes: draw_bytes(&mut rng, config.max_alloc_pages),
                sensitive: rng.gen_range(0..100u32) < u32::from(config.sensitive_pct),
            }),
            40..=59 => ops.push(TenantOp::Touch {
                session: t,
                pick: rng.gen_range(0..u32::MAX),
                pages: rng.gen_range(1..9),
            }),
            60..=79 => ops.push(TenantOp::Free {
                session: t,
                pick: rng.gen_range(0..u32::MAX),
            }),
            80..=89 => ops.push(TenantOp::Mmap {
                session: t,
                pages: rng.gen_range(1..33),
            }),
            _ => ops.push(TenantOp::Munmap {
                session: t,
                pick: rng.gen_range(0..u32::MAX),
            }),
        }
    }

    // Drain: every tenant departs, so a full apply ends with zero live
    // chunks — the conservation identity the bench asserts.
    while let Some(s) = live.pop() {
        ops.push(TenantOp::Depart { session: s });
    }

    ChurnScript {
        ops,
        config,
        sessions: next_session,
    }
}

/// Log-uniform allocation size: page-scale small objects dominate but
/// multi-chunk allocations appear, like real heap profiles.
fn draw_bytes(rng: &mut StdRng, max_pages: u32) -> u64 {
    let max_log = 64 - u64::from(max_pages.max(1)).leading_zeros();
    let pages = 1u64 << rng.gen_range(0..max_log.max(1));
    pages * 4096 + rng.gen_range(0..4096u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_script() {
        let a = generate(ChurnConfig::default());
        let b = generate(ChurnConfig::default());
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.sessions, b.sessions);
        let c = generate(ChurnConfig {
            seed: 99,
            ..ChurnConfig::default()
        });
        assert_ne!(a.ops, c.ops, "different seeds must differ");
    }

    #[test]
    fn population_holds_and_drains() {
        let script = generate(ChurnConfig {
            tenants: 32,
            ..ChurnConfig::default()
        });
        let mut live = std::collections::HashSet::new();
        let mut peak = 0usize;
        for op in &script.ops {
            match *op {
                TenantOp::Arrive { session, .. } => {
                    assert!(live.insert(session), "session reused while live");
                    peak = peak.max(live.len());
                }
                TenantOp::Depart { session } => {
                    assert!(live.remove(&session), "departed twice");
                }
                TenantOp::Malloc { session, .. }
                | TenantOp::Free { session, .. }
                | TenantOp::Mmap { session, .. }
                | TenantOp::Munmap { session, .. }
                | TenantOp::Touch { session, .. } => {
                    assert!(live.contains(&session), "op on dead session");
                }
            }
        }
        assert!(live.is_empty(), "script must drain every tenant");
        assert_eq!(peak, 32, "population should hold at the target");
        assert!(script.sessions >= 32);
    }

    #[test]
    fn dedicated_mappings_stay_under_the_cap() {
        let cfg = ChurnConfig {
            tenants: 512,
            mapping_cap: 200,
            ops: 8192,
            ..ChurnConfig::default()
        };
        let script = generate(cfg);
        let mut dedicated_live = std::collections::HashSet::new();
        for op in &script.ops {
            match *op {
                TenantOp::Arrive {
                    session,
                    own_mapping: true,
                } => {
                    dedicated_live.insert(session);
                    assert!(
                        dedicated_live.len() <= 200,
                        "dedicated mappings exceeded the cap"
                    );
                }
                TenantOp::Depart { session } => {
                    dedicated_live.remove(&session);
                }
                _ => {}
            }
        }
        // Large populations must actually saturate the cap.
        assert!(script.ops.iter().any(|op| matches!(
            op,
            TenantOp::Arrive {
                own_mapping: false,
                ..
            }
        )));
    }

    #[test]
    fn op_mix_covers_the_lifecycle() {
        let script = generate(ChurnConfig::default());
        let has = |f: fn(&TenantOp) -> bool| script.ops.iter().any(f);
        assert!(has(|o| matches!(o, TenantOp::Malloc { .. })));
        assert!(has(|o| matches!(o, TenantOp::Free { .. })));
        assert!(has(|o| matches!(o, TenantOp::Mmap { .. })));
        assert!(has(|o| matches!(o, TenantOp::Munmap { .. })));
        assert!(has(|o| matches!(o, TenantOp::Touch { .. })));
        assert!(has(|o| matches!(
            o,
            TenantOp::Malloc {
                sensitive: true,
                ..
            }
        )));
    }
}
