//! Criterion benches for workload generation and trace I/O — the
//! harness's own overheads. Generation is timed at `Scale::tiny` for a
//! cross-section of the suites and at `Scale::small` for the three
//! graph kernels, which dominate Fig. 12(b)'s generation time.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sdam_trace::io::{read_trace, write_trace};
use sdam_workloads::{Scale, Workload};

fn bench_generators(c: &mut Criterion) {
    let mut g = c.benchmark_group("generate_tiny");
    g.sample_size(10);
    let workloads: Vec<Box<dyn Workload>> = vec![
        Box::new(sdam_workloads::graph::PageRank),
        Box::new(sdam_workloads::analytics::HashJoin),
        Box::new(sdam_workloads::ann::Ivfpq),
        Box::new(sdam_workloads::datacopy::DataCopy::new(vec![1, 16])),
    ];
    for w in workloads {
        g.bench_function(w.name(), |b| {
            b.iter(|| black_box(w.generate(Scale::tiny())))
        });
    }
    g.finish();
}

/// The three R-MAT graph kernels at `Scale::small`, the size the
/// Fig. 12(b) benchmark cell generates once per cell.
fn bench_generators_small(c: &mut Criterion) {
    let mut g = c.benchmark_group("generate_small");
    g.sample_size(10);
    let workloads: Vec<Box<dyn Workload>> = vec![
        Box::new(sdam_workloads::graph::Bfs),
        Box::new(sdam_workloads::graph::PageRank),
        Box::new(sdam_workloads::graph::Sssp),
    ];
    for w in workloads {
        g.bench_function(w.name(), |b| {
            b.iter(|| black_box(w.generate(Scale::small())))
        });
    }
    g.finish();
}

fn bench_trace_io(c: &mut Criterion) {
    let trace = sdam_workloads::datacopy::DataCopy::new(vec![4]).generate(Scale::tiny());
    let mut buf = Vec::new();
    write_trace(&trace, &mut buf).expect("write to memory");
    let mut g = c.benchmark_group("trace_io");
    g.bench_function("write_20k", |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(buf.len());
            write_trace(black_box(&trace), &mut out).expect("write");
            black_box(out)
        })
    });
    g.bench_function("read_20k", |b| {
        b.iter(|| black_box(read_trace(buf.as_slice()).expect("read")))
    });
    g.finish();
}

fn bench_profiling_stats(c: &mut Criterion) {
    let trace = sdam_workloads::graph::PageRank.generate(Scale::tiny());
    let mut g = c.benchmark_group("trace_stats");
    g.sample_size(10);
    g.bench_function("stride_histogram", |b| {
        b.iter(|| black_box(sdam_trace::stats::StrideHistogram::from_trace(&trace)))
    });
    g.bench_function("working_set", |b| {
        b.iter(|| black_box(sdam_trace::stats::WorkingSet::of(&trace)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_generators,
    bench_generators_small,
    bench_trace_io,
    bench_profiling_stats
);
criterion_main!(benches);
