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
        eat(&a.pc.to_le_bytes());
        eat(&a.thread.0.to_le_bytes());
        eat(&a.variable.0.to_le_bytes());
        eat(&[a.is_write as u8]);
    }
    h
}

/// `(label, digest)` pinned for every generator case.
const GOLDEN: &[(&str, u64)] = &[
    ("tiny/perlbench", 0x1d05dfcebb8e2dfb),
    ("tiny/bzip2", 0x32a68a10b03f8b2d),
    ("tiny/gcc", 0xf4473c0e51adc8ec),
    ("tiny/mcf", 0xee1fcf3b63a8d3b5),
    ("tiny/gobmk", 0xd1094a0f531cf519),
    ("tiny/hmmer", 0xb5b650960c4114ef),
    ("tiny/sjeng", 0xe6a2a6c068810848),
    ("tiny/libquantum", 0x57057af9dafc26cd),
    ("tiny/h264ref", 0x33992b8b923b6e73),
    ("tiny/omnetpp", 0xf82330792653cd19),
    ("tiny/astar", 0x8a55919aacc36a13),
    ("tiny/xalancbmk", 0x824dec487ecbada6),
    ("tiny/bodytrack", 0xa78aa9b526380412),
    ("tiny/cenneal", 0x74adc75530dcf145),
    ("tiny/dedup", 0x7532ae4fc1ae2df4),
    ("tiny/ferret", 0x850aca2c684d4d18),
    ("tiny/freqmine", 0x37c915f05fcf02e9),
    ("tiny/streamcluster", 0x6c546ebcb9d7dfd5),
    ("tiny/vips", 0x2866a97d28af07e5),
    ("tiny/bfs", 0x3d25c5407a0f10b7),
    ("tiny/pagerank", 0x026359818cc305ec),
    ("tiny/sssp", 0x78306fdbd1d9331d),
    ("tiny/hash-join", 0x8d7d8669dbf052a2),
    ("tiny/merge-join", 0x977622a7c1eacca0),
    ("tiny/kmeans", 0xfc56bd795bf8ed03),
    ("tiny/hnsw", 0x5f60231f1d0eb99e),
    ("tiny/ivfpq", 0x7fbc61e2080e6d2f),
    ("small/bfs", 0x0eca4c9f8de661b2),
    ("small/pagerank", 0x2e9c358c133022cc),
    ("small/sssp", 0x0c5ca63228997376),
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
