//! Golden digests of the workload generators.
//!
//! Every application of the standard and data-intensive suites is
//! generated at `Scale::tiny()`, plus the three R-MAT graph kernels at
//! `Scale::small()`, and each trace is folded into a 64-bit digest over
//! every field of every access. The pinned values make generator
//! optimisations (recorder coalescing, the R-MAT quadrant pick) provably
//! bit-identical rather than merely plausible. A deliberate change to a
//! generator's output must update the table; the failure message prints
//! the full set of current values.

use sdam_trace::Trace;
use sdam_workloads::graph::{Bfs, PageRank, Sssp};
use sdam_workloads::{data_intensive_suite, standard_suite, Scale, Workload};

/// FNV-1a over each access's fields, little-endian.
fn digest(t: &Trace) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(&(t.len() as u64).to_le_bytes());
    for a in t.iter() {
        eat(&a.addr.to_le_bytes());
        eat(&a.thread.0.to_le_bytes());
        eat(&a.variable.0.to_le_bytes());
        eat(&[a.is_write as u8]);
    }
    h
}

/// `(label, digest)` pinned for every generator case.
const GOLDEN: &[(&str, u64)] = &[
    ("tiny/perlbench", 0xd064146876101ebb),
    ("tiny/bzip2", 0x2250543f92b9974d),
    ("tiny/gcc", 0xc0bcaac5bf15dfac),
    ("tiny/mcf", 0x83fba584c70cf335),
    ("tiny/gobmk", 0x997f22269600d8b9),
    ("tiny/hmmer", 0xe9580ab999adc2cf),
    ("tiny/sjeng", 0x6303fe11113cbde8),
    ("tiny/libquantum", 0x4b4946b43a9663cd),
    ("tiny/h264ref", 0xab6baeb457ca4513),
    ("tiny/omnetpp", 0xe468a7f2209e33c9),
    ("tiny/astar", 0xd09b6c6da6d5ff83),
    ("tiny/xalancbmk", 0xcaf2e21ea08e33c6),
    ("tiny/bodytrack", 0x4f5f6350331bac52),
    ("tiny/cenneal", 0x61e625db066069e5),
    ("tiny/dedup", 0x5aaf6c52289cec44),
    ("tiny/ferret", 0xf0a41ff31ab4cb78),
    ("tiny/freqmine", 0x1a4fd60c51da6f29),
    ("tiny/streamcluster", 0x2dea1462766de895),
    ("tiny/vips", 0x5d114696bbb1ac65),
    ("tiny/bfs", 0x059adcceb28d9aa9),
    ("tiny/pagerank", 0x5200da3f6badd0e0),
    ("tiny/sssp", 0xb7d50e3d9b90857c),
    ("tiny/hash-join", 0xd216c4d51dca535a),
    ("tiny/merge-join", 0x0365b926039aa148),
    ("tiny/kmeans", 0x48ba182d71981adb),
    ("tiny/hnsw", 0x8956721c843c096b),
    ("tiny/ivfpq", 0x350b3fdba75e7b43),
    ("small/bfs", 0xad4f635a42e90004),
    ("small/pagerank", 0x9f9c23b939d4e03c),
    ("small/sssp", 0x8c66460288fe37ca),
];

fn cases() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for w in standard_suite().iter().chain(data_intensive_suite().iter()) {
        out.push((
            format!("tiny/{}", w.name()),
            digest(&w.generate(Scale::tiny())),
        ));
    }
    let graphs: [&dyn Workload; 3] = [&Bfs, &PageRank, &Sssp];
    for w in graphs {
        out.push((
            format!("small/{}", w.name()),
            digest(&w.generate(Scale::small())),
        ));
    }
    out
}

#[test]
fn generator_digests_match_golden() {
    let got = cases();
    let table: String = got
        .iter()
        .map(|(l, d)| format!("    (\"{l}\", {d:#018x}),\n"))
        .collect();
    let want: Vec<(String, u64)> = GOLDEN.iter().map(|&(l, d)| (l.to_string(), d)).collect();
    assert_eq!(
        got, want,
        "generator output changed; current table:\n{table}"
    );
}
