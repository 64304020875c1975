//! Long-running randomized stress of the whole system object: random
//! allocation, touching, freeing, mapping registration, and process
//! spawning, with the global invariants re-checked throughout.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdam::{ProcessId, SdamSystem};
use sdam_hbm::Geometry;
use sdam_mapping::MappingId;
use sdam_mem::VirtAddr;

#[test]
fn randomized_system_stress() {
    let mut rng = StdRng::seed_from_u64(0xace);
    let mut sys = SdamSystem::try_new(Geometry::hbm2_8gb(), 21).unwrap();
    let mut mappings = vec![MappingId::DEFAULT];
    let mut pids = vec![ProcessId(0)];
    // (pid, va, mapping) of live allocations.
    let mut live: Vec<(ProcessId, VirtAddr, MappingId)> = Vec::new();

    for step in 0..2_000 {
        match rng.gen_range(0..100) {
            // Register a new mapping occasionally.
            0..=4 => {
                if mappings.len() < 200 {
                    let stride = 1u64 << rng.gen_range(0..7);
                    let perm = sys.permutation_for_stride(stride);
                    mappings.push(sys.add_mapping(&perm).expect("id space not exhausted"));
                }
            }
            // Spawn a process rarely.
            5 => {
                if pids.len() < 6 {
                    pids.push(sys.spawn_process());
                }
            }
            // Allocate.
            6..=60 => {
                let pid = pids[rng.gen_range(0..pids.len())];
                let mapping = mappings[rng.gen_range(0..mappings.len())];
                let size = rng.gen_range(64..512 * 1024);
                let id = (mapping != MappingId::DEFAULT).then_some(mapping);
                let va = sys.malloc_in(pid, size, id).expect("memory not exhausted");
                live.push((pid, va, mapping));
            }
            // Touch a random live allocation.
            61..=90 => {
                if let Some(&(pid, va, mapping)) =
                    (!live.is_empty()).then(|| &live[rng.gen_range(0..live.len())])
                {
                    let pa = sys.touch_in(pid, va).expect("live allocation faults in");
                    // THE invariant: the frame's chunk carries the
                    // allocation's mapping.
                    assert_eq!(
                        sys.cmt().chunk_mapping(pa.chunk_number(21)),
                        mapping,
                        "step {step}: chunk mapping mismatch"
                    );
                    // Translation is stable.
                    assert_eq!(sys.touch_in(pid, va).expect("still mapped"), pa);
                }
            }
            // Free any tenant's live allocation in its own process.
            _ => {
                if !live.is_empty() {
                    let (pid, va, _) = live.swap_remove(rng.gen_range(0..live.len()));
                    sys.free_in(pid, va).expect("live allocation frees");
                    assert!(sys.free_in(pid, va).is_err(), "double free rejected");
                }
            }
        }
    }
    // End state is still coherent.
    assert!(sys.process_count() <= 6);
    assert!(sys.page_faults() > 0);
    let frag = sys.fragmentation_stats().stranded_pages;
    // Fragmentation is bounded by (mappings x sensitivity classes) chunks.
    assert!(
        frag <= mappings.len() as u64 * 2 * 512,
        "fragmentation {frag} exceeds the per-mapping bound"
    );
}
