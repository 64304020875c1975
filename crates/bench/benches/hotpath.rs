//! Before/after microbenchmarks for the three hot-loop rewrites: the
//! table-driven translation datapath, the bit-sliced BFRV profiler, and
//! the indexed FR-FCFS drain. Every "new" routine is benched against
//! the preserved reference oracle it replaced (`apply_reference`,
//! `from_addrs_scalar`, `drain_reference`), so one run produces the
//! speedup table recorded in `BENCH_hotpath.json`. The whole-device
//! 32 K open loop these pieces add up to is timed by the `core` bench
//! (`core/run_open_loop_32k`).
//!
//! Two per-access kernels of the `Machine::run` miss path have no
//! oracle left in the tree: the L1 probe (`cache_access_64k`) and the
//! BS+HM fold (`hm_map_block_64k`). Their "before" rows in
//! `BENCH_hotpath.json` come from the previous release, built and run
//! on the same host.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sdam_bench::mix;
use sdam_hbm::channel::ChannelSim;
use sdam_hbm::{DecodedAddr, DrainScratch, Geometry, Timing};
use sdam_mapping::{
    AddressMapping, BitFlipRateVector, BitPermutation, Cmt, CmtLookupCache, HashMapping, MappingId,
    PhysAddr,
};
use sdam_sys::cache::{Cache, CacheConfig};

fn bench_translate(c: &mut Criterion) {
    // A 21-bit window (the widest the CMT accepts) exercises all three
    // byte LUTs of the table-driven path.
    let n = 21u32;
    let table: Vec<u32> = (0..n).map(|i| (i + 7) % n).collect();
    let perm = BitPermutation::new(6, table).unwrap();
    let addrs: Vec<u64> = (0..1024u64).map(mix).collect();

    let mut g = c.benchmark_group("translate_1k");
    g.bench_function("lut", |b| {
        b.iter(|| {
            for &a in &addrs {
                black_box(perm.apply(a));
            }
        })
    });
    g.bench_function("reference", |b| {
        b.iter(|| {
            for &a in &addrs {
                black_box(perm.apply_reference(a));
            }
        })
    });
    g.finish();

    // The full CMT path (chunk lookup + memo + AMU) on a chunk-local
    // stream, where the single-entry memo hits almost always.
    let mut cmt = Cmt::new(33, 22);
    cmt.register(
        MappingId(0),
        &BitPermutation::new(6, (0..16).collect()).unwrap(),
    );
    let rot: Vec<u32> = (0..16).map(|i| (i + 5) % 16).collect();
    cmt.register(MappingId(1), &BitPermutation::new(6, rot).unwrap());
    for chunk in 0..cmt.num_chunks() {
        cmt.assign_chunk(chunk, MappingId((chunk % 2) as u8))
            .unwrap();
    }
    let pas: Vec<PhysAddr> = (0..1024u64)
        .map(|i| PhysAddr(mix(i) & ((1 << 33) - 1)))
        .collect();
    c.bench_function("cmt_translate_cached_1k", |b| {
        b.iter(|| {
            let mut cache = CmtLookupCache::default();
            for &pa in &pas {
                black_box(cmt.translate_cached(pa, &mut cache));
            }
        })
    });
}

fn bench_bfrv(c: &mut Criterion) {
    let addrs: Vec<u64> = (0..65_536u64).map(mix).collect();
    let width = 33;
    let mut g = c.benchmark_group("bfrv_64k");
    g.bench_function("bitsliced", |b| {
        b.iter(|| black_box(BitFlipRateVector::from_addrs(addrs.iter().copied(), width)))
    });
    g.bench_function("scalar", |b| {
        b.iter(|| {
            black_box(BitFlipRateVector::from_addrs_scalar(
                addrs.iter().copied(),
                width,
            ))
        })
    });
    g.finish();
}

fn bench_drain(c: &mut Criterion) {
    // A mixed stream over 16 banks with enough row locality that the
    // FR-FCFS window actually reorders: the scan-based reference pays
    // O(window) per pick, the indexed drain O(1) amortized.
    let timing = Timing::hbm2();
    let banks = 16usize;
    let mut loaded = ChannelSim::new(banks);
    for i in 0..8_192u64 {
        let r = mix(i);
        loaded.push(
            DecodedAddr {
                row: (r >> 8) % 64,
                bank: r % banks as u64,
                channel: 0,
                col: (r >> 16) % 4,
            },
            false,
            0,
        );
    }
    let mut g = c.benchmark_group("drain_8k_w64");
    g.bench_function("indexed", |b| {
        b.iter(|| {
            // A fresh scratch per iteration: each drain pays its table
            // set-up, as a channel's first drain does.
            let mut ch = loaded.clone();
            black_box(ch.drain(64, &timing, &mut DrainScratch::default()))
        })
    });
    g.bench_function("reference", |b| {
        b.iter(|| {
            let mut ch = loaded.clone();
            black_box(ch.drain_reference(64, &timing))
        })
    });
    g.finish();
}

fn bench_miss_path(c: &mut Criterion) {
    // A mixed stream on the paper's L1: runs of sequential lines (hits
    // after the first touch), revisits of a 48 KiB hot set, and random
    // lines over 64 MiB (misses that evict), so hits land at every
    // recency depth.
    let stream: Vec<u64> = (0..65_536u64)
        .map(|i| {
            let r = mix(i);
            match r % 4 {
                0 | 1 => (i / 4) * 16,
                2 => (r >> 8) % (48 << 10),
                _ => (r >> 8) % (64 << 20),
            }
        })
        .collect();
    let mut cache = Cache::new(CacheConfig::boom_l1());
    c.bench_function("cache_access_64k", |b| {
        b.iter(|| {
            cache.reset();
            for &a in &stream {
                black_box(cache.access(a));
            }
        })
    });

    let geom = Geometry::hbm2_8gb();
    let hm = HashMapping::for_geometry(geom);
    let pas: Vec<u64> = (0..65_536u64)
        .map(|i| mix(i) & (geom.capacity_bytes() - 1))
        .collect();
    let mut block = pas.clone();
    c.bench_function("hm_map_block_64k", |b| {
        b.iter(|| {
            block.copy_from_slice(&pas);
            hm.map_block(&mut block);
            black_box(&block);
        })
    });
}

criterion_group!(
    benches,
    bench_translate,
    bench_bfrv,
    bench_drain,
    bench_miss_path
);
criterion_main!(benches);
