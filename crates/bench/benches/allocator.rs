//! Criterion benches for the allocation stack: multi-heap malloc,
//! chunk-group page allocation, and the demand-paging fault path.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sdam::SdamSystem;
use sdam_hbm::Geometry;
use sdam_mapping::MappingId;
use sdam_mem::heap::MultiHeapMalloc;
use sdam_mem::phys::ChunkAllocator;
use sdam_mem::VirtAddr;

fn bench_malloc(c: &mut Criterion) {
    c.bench_function("malloc_free_1k_mixed_mappings", |b| {
        b.iter(|| {
            let mut m = MultiHeapMalloc::new(12);
            let m1 = m.add_addr_map().unwrap();
            let m2 = m.add_addr_map().unwrap();
            let mut ptrs = Vec::with_capacity(1000);
            for i in 0..1000u64 {
                let id = if i % 2 == 0 { m1 } else { m2 };
                ptrs.push(m.malloc(64 + i % 512, Some(id)).unwrap());
            }
            for p in ptrs {
                m.free(p).unwrap();
            }
            black_box(m.heap_regions().len())
        })
    });
}

fn bench_chunk_alloc(c: &mut Criterion) {
    c.bench_function("chunk_alloc_free_4_groups_2k_pages", |b| {
        b.iter(|| {
            let mut a = ChunkAllocator::new(30, 21, 12);
            let mut frames = Vec::with_capacity(2048);
            for i in 0..2048u32 {
                frames.push(a.alloc_page(MappingId((i % 4) as u8)).unwrap().pa);
            }
            for f in frames {
                a.free_block(f).unwrap();
            }
            black_box(a.free_chunk_count())
        })
    });
}

fn bench_fault_path(c: &mut Criterion) {
    c.bench_function("sdam_system_fault_512_pages", |b| {
        b.iter(|| {
            let mut sys = SdamSystem::try_new(Geometry::hbm2_8gb(), 21).unwrap();
            let perm = sys.permutation_for_stride(16);
            let id = sys.add_mapping(&perm).unwrap();
            let va = sys.malloc(512 * 4096, Some(id)).unwrap();
            for i in 0..512u64 {
                black_box(sys.touch(VirtAddr(va.raw() + i * 4096)).unwrap());
            }
            black_box(sys.page_faults())
        })
    });
}

criterion_group!(benches, bench_malloc, bench_chunk_alloc, bench_fault_path);
criterion_main!(benches);
