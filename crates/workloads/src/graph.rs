//! Graph-processing kernels over R-MAT graphs: BFS, PageRank, SSSP.
//!
//! The paper uses the Graph500 generator (scale 20, edge factor 16) and
//! parallel implementations; we generate R-MAT graphs with the standard
//! Graph500 parameters (A=0.57, B=0.19, C=0.19) and run the kernels
//! data-parallel on four lanes (vertex/frontier ranges), recording each
//! data structure's accesses separately: the CSR offsets (streaming),
//! the edge targets (sequential bursts), and the per-vertex state arrays
//! (random scatter) have visibly different access patterns — the
//! per-variable diversity SDAM exploits. The four lanes walk
//! partition-aligned ranges concurrently, which is exactly the
//! concurrent-request stream whose channel conflicts the paper measures.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use sdam_trace::Trace;

use crate::recorder::run_parallel;
use crate::{Recorder, Region, Scale, Workload};

/// Parallel lanes used by every kernel (the prototype's core count).
const LANES: usize = 4;

/// An R-MAT graph in CSR form.
#[derive(Debug, Clone)]
pub(crate) struct Csr {
    /// Per-vertex edge-list start offsets (`n + 1` entries).
    pub offsets: Vec<u32>,
    /// Edge targets.
    pub targets: Vec<u32>,
}

impl Csr {
    /// Number of vertices.
    pub(crate) fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges.
    pub(crate) fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// The neighbours of `v`.
    fn neighbours(&self, v: usize) -> &[u32] {
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }
}

/// Graph500's R-MAT quadrant probabilities `(A, B, C)`; `D` is the rest.
const RMAT_ABC: (f64, f64, f64) = (0.57, 0.19, 0.19);

/// The `f64` quadrant thresholds `A`, `A+B` and `A+B+C` as integer
/// thresholds on a 53-bit draw `k`, the draw behind the uniform
/// `r = k · 2⁻⁵³`. Each threshold `t` lies in `[0.5, 1)`, where the
/// `f64` spacing is exactly `2⁻⁵³`, so `t · 2⁵³` is an integer and
/// `r >= t` holds exactly when `k >= t · 2⁵³`.
const RMAT_THRESHOLDS: [u64; 3] = {
    const fn draw_threshold(t: f64) -> u64 {
        assert!(t >= 0.5 && t < 1.0, "threshold outside [0.5, 1)");
        (t * (1u64 << 53) as f64) as u64
    }
    let (a, b, c) = RMAT_ABC;
    [
        draw_threshold(a),
        draw_threshold(a + b),
        draw_threshold(a + b + c),
    ]
};

/// One R-MAT step's `(source, destination)` bits for the 53-bit draw
/// `k`. Quadrants `[0, A)` → (0,0), `[A, A+B)` → (0,1), `[A+B, A+B+C)`
/// → (1,0), the rest → (1,1), picked without branches: the source bit
/// is the upper half, the destination bit the parity of the thresholds
/// crossed.
#[inline]
fn rmat_bits(k: u64, [t1, t2, t3]: [u64; 3]) -> (u32, u32) {
    let (c1, c2, c3) = (k >= t1, k >= t2, k >= t3);
    (c2 as u32, (c1 ^ c2 ^ c3) as u32)
}

/// Generates an R-MAT graph with Graph500's skew parameters
/// (A = 0.57, B = 0.19, C = 0.19) and the paper's edge factor 16.
///
/// # Panics
///
/// Panics if `n` is not a power of two or is less than 2.
pub(crate) fn rmat(n: usize, edge_factor: usize, seed: u64) -> Csr {
    assert!(
        n.is_power_of_two() && n >= 2,
        "R-MAT needs a power-of-two vertex count"
    );
    let scale = n.trailing_zeros();
    let mut rng = StdRng::seed_from_u64(seed);
    let m = n * edge_factor;
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(m);
    for _ in 0..m {
        let (mut src, mut dst) = (0u32, 0u32);
        for _ in 0..scale {
            // The top 53 bits of the word, as `Rng::gen::<f64>` draws.
            let (s, d) = rmat_bits(rng.next_u64() >> 11, RMAT_THRESHOLDS);
            src = (src << 1) | s;
            dst = (dst << 1) | d;
        }
        edges.push((src, dst));
    }
    // Build CSR.
    let mut degree = vec![0u32; n];
    for &(s, _) in &edges {
        degree[s as usize] += 1;
    }
    let mut offsets = vec![0u32; n + 1];
    for v in 0..n {
        offsets[v + 1] = offsets[v] + degree[v];
    }
    let mut cursor = offsets.clone();
    let mut targets = vec![0u32; m];
    for &(s, d) in &edges {
        targets[cursor[s as usize] as usize] = d;
        cursor[s as usize] += 1;
    }
    Csr { offsets, targets }
}

/// Allocates the CSR arrays in a recorder and returns their regions
/// `(offsets, targets)`.
fn alloc_csr(rec: &mut Recorder, g: &Csr) -> (Region, Region) {
    let offsets = rec.alloc(g.offsets.len(), 4);
    let targets = rec.alloc(g.targets.len().max(1), 4);
    (offsets, targets)
}

/// Block-cyclic partition of `0..n`: lane `l` owns 64-index blocks
/// `l, l+LANES, l+2·LANES, …`. Block-cyclic scheduling balances R-MAT's
/// degree skew across lanes (a contiguous split would leave lane 0 with
/// most of the edges) — and it is how parallel graph frameworks
/// actually schedule, with the side effect the paper measures: lanes
/// walk address-adjacent blocks concurrently and collide on channels
/// under a fixed mapping.
fn lane_indices(n: usize, lane: usize) -> impl Iterator<Item = usize> {
    const BLOCK: usize = 64;
    (0..)
        .map(move |k| (k * LANES + lane) * BLOCK)
        .take_while(move |&start| start < n)
        .flat_map(move |start| start..(start + BLOCK).min(n))
}

/// Breadth-first search from vertex 0 (the paper cites its FPGA-BFS
/// work \[47\]); the frontier is processed by four lanes per level.
#[derive(Debug, Clone, Copy, Default)]
pub struct Bfs;

impl Workload for Bfs {
    fn name(&self) -> &str {
        "bfs"
    }

    fn generate(&self, scale: Scale) -> Trace {
        let g = rmat(scale.n.next_power_of_two(), 16, scale.seed);
        let n = g.num_vertices();
        let mut rec = Recorder::with_capacity(scale.accesses);
        let (r_off, r_tgt) = alloc_csr(&mut rec, &g);
        let r_visited = rec.alloc(n, 1);
        let r_frontier = rec.alloc(n, 4);
        let r_next = rec.alloc(n, 4);

        let mut visited = vec![false; n];
        let mut frontier = vec![0u32];
        visited[0] = true;
        while !frontier.is_empty() && rec.len() < scale.accesses {
            let mut next: Vec<u32> = Vec::new();
            let flen = frontier.len();
            run_parallel(&mut rec, LANES, |lane, r| {
                for fi in lane_indices(flen, lane) {
                    if r.len() * LANES >= scale.accesses {
                        break;
                    }
                    let v = frontier[fi] as usize;
                    r.read(r_frontier, fi);
                    r.read(r_off, v);
                    r.read(r_off, v + 1);
                    for (ei, &u) in g.neighbours(v).iter().enumerate() {
                        r.read(r_tgt, g.offsets[v] as usize + ei);
                        let u = u as usize;
                        r.read(r_visited, u);
                        if !visited[u] {
                            visited[u] = true;
                            r.write(r_visited, u);
                            r.write(r_next, next.len());
                            next.push(u as u32);
                        }
                    }
                }
            });
            frontier = next;
        }
        rec.into_trace()
    }
}

/// PageRank with uniform damping (the paper cites Hong et al. \[21\]);
/// source vertices are partitioned across four lanes.
#[derive(Debug, Clone, Copy, Default)]
pub struct PageRank;

impl Workload for PageRank {
    fn name(&self) -> &str {
        "pagerank"
    }

    fn generate(&self, scale: Scale) -> Trace {
        let g = rmat(scale.n.next_power_of_two(), 16, scale.seed);
        let n = g.num_vertices();
        let mut rec = Recorder::with_capacity(scale.accesses);
        let (r_off, r_tgt) = alloc_csr(&mut rec, &g);
        let r_rank = rec.alloc(n, 8);
        let r_next = rec.alloc(n, 8);

        let mut rank = vec![1.0 / n as f64; n];
        let d = 0.85;
        for _ in 0..20 {
            if rec.len() >= scale.accesses {
                break;
            }
            let mut next = vec![(1.0 - d) / n as f64; n];
            run_parallel(&mut rec, LANES, |lane, r| {
                for v in lane_indices(n, lane) {
                    r.read(r_off, v);
                    r.read(r_off, v + 1);
                    r.read(r_rank, v);
                    let deg = g.neighbours(v).len();
                    if deg == 0 {
                        continue;
                    }
                    let share = d * rank[v] / deg as f64;
                    for (ei, &u) in g.neighbours(v).iter().enumerate() {
                        r.read(r_tgt, g.offsets[v] as usize + ei);
                        next[u as usize] += share;
                        r.write(r_next, u as usize);
                    }
                    if r.len() * LANES >= scale.accesses {
                        break;
                    }
                }
            });
            rank = next;
        }
        rec.into_trace()
    }
}

/// Single-source shortest paths (Bellman-Ford rounds, the Graph500 SSSP
/// style the paper cites \[34\]) with pseudo-random weights; vertex ranges
/// relax in parallel.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sssp;

impl Workload for Sssp {
    fn name(&self) -> &str {
        "sssp"
    }

    fn generate(&self, scale: Scale) -> Trace {
        let g = rmat(scale.n.next_power_of_two(), 16, scale.seed);
        let n = g.num_vertices();
        let mut rng = StdRng::seed_from_u64(scale.seed ^ 0x55);
        let weights: Vec<u32> = (0..g.num_edges()).map(|_| rng.gen_range(1..16)).collect();
        let mut rec = Recorder::with_capacity(scale.accesses);
        let (r_off, r_tgt) = alloc_csr(&mut rec, &g);
        let r_w = rec.alloc(weights.len().max(1), 4);
        let r_dist = rec.alloc(n, 4);

        let mut dist = vec![u32::MAX; n];
        dist[0] = 0;
        for _ in 0..10 {
            if rec.len() >= scale.accesses {
                break;
            }
            let mut changed = false;
            run_parallel(&mut rec, LANES, |lane, r| {
                for v in lane_indices(n, lane) {
                    r.read(r_dist, v);
                    if dist[v] == u32::MAX {
                        continue;
                    }
                    r.read(r_off, v);
                    r.read(r_off, v + 1);
                    for (ei, &u) in g.neighbours(v).iter().enumerate() {
                        let e = g.offsets[v] as usize + ei;
                        r.read(r_tgt, e);
                        r.read(r_w, e);
                        let cand = dist[v].saturating_add(weights[e]);
                        r.read(r_dist, u as usize);
                        if cand < dist[u as usize] {
                            dist[u as usize] = cand;
                            r.write(r_dist, u as usize);
                            changed = true;
                        }
                    }
                    if r.len() * LANES >= scale.accesses {
                        break;
                    }
                }
            });
            if !changed {
                break;
            }
        }
        rec.into_trace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmat_shape() {
        let g = rmat(256, 16, 7);
        assert_eq!(g.num_vertices(), 256);
        assert_eq!(g.num_edges(), 256 * 16);
        assert_eq!(*g.offsets.last().unwrap() as usize, g.num_edges());
        assert!(g.targets.iter().all(|&t| (t as usize) < 256));
    }

    /// The `f64` quadrant rule: `r = k · 2⁻⁵³` as `Rng::gen::<f64>`
    /// builds it, compared against `A`, `A+B` and `A+B+C`.
    fn f64_bits(k: u64) -> (u32, u32) {
        let (a, b, c) = RMAT_ABC;
        let r = k as f64 * (1.0 / (1u64 << 53) as f64);
        let (t1, t2, t3) = (r >= a, r >= a + b, r >= a + b + c);
        (t2 as u32, (t1 ^ t2 ^ t3) as u32)
    }

    #[test]
    fn integer_thresholds_match_the_f64_rule_at_each_boundary() {
        for t in RMAT_THRESHOLDS {
            for k in [t - 1, t, t + 1] {
                assert_eq!(rmat_bits(k, RMAT_THRESHOLDS), f64_bits(k), "k = {k}");
            }
        }
        for k in [0, 1, (1 << 52) - 1, (1 << 53) - 1] {
            assert_eq!(rmat_bits(k, RMAT_THRESHOLDS), f64_bits(k), "k = {k}");
        }
    }

    #[test]
    fn rmat_matches_the_f64_generator() {
        // The generator as it was before the integer thresholds: one
        // `f64` draw per level, `usize` accumulators.
        let (n, edge_factor, seed) = (1024usize, 16, 11);
        let mut rng = StdRng::seed_from_u64(seed);
        let edges: Vec<(u32, u32)> = (0..n * edge_factor)
            .map(|_| {
                let (mut src, mut dst) = (0usize, 0usize);
                for _ in 0..n.trailing_zeros() {
                    let r: f64 = rng.gen();
                    let (a, b, c) = RMAT_ABC;
                    let (t1, t2, t3) = (r >= a, r >= a + b, r >= a + b + c);
                    src = (src << 1) | t2 as usize;
                    dst = (dst << 1) | (t1 ^ t2 ^ t3) as usize;
                }
                (src as u32, dst as u32)
            })
            .collect();
        let g = rmat(n, edge_factor, seed);
        let mut expected: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (s, d) in edges {
            expected[s as usize].push(d);
        }
        for (v, targets) in expected.iter().enumerate() {
            assert_eq!(g.neighbours(v), targets.as_slice(), "vertex {v}");
        }
    }

    #[test]
    fn rmat_is_skewed() {
        // R-MAT with Graph500 parameters concentrates edges on low ids.
        let g = rmat(1024, 16, 3);
        let low_degree: usize = (0..128).map(|v| g.neighbours(v).len()).sum();
        let high_degree: usize = (896..1024).map(|v| g.neighbours(v).len()).sum();
        assert!(
            low_degree > 4 * high_degree,
            "expected skew: {low_degree} vs {high_degree}"
        );
    }

    #[test]
    fn bfs_visits_on_four_threads() {
        let t = Bfs.generate(Scale::tiny());
        // offsets, targets, visited, frontier, next
        assert_eq!(t.variables().len(), 5);
        let threads: std::collections::HashSet<u16> = t.iter().map(|a| a.thread.0).collect();
        assert!(threads.len() >= 2, "parallel lanes expected: {threads:?}");
    }

    #[test]
    fn pagerank_reads_and_writes_in_parallel() {
        let t = PageRank.generate(Scale::tiny());
        assert!(t.iter().any(|a| a.is_write));
        let threads: std::collections::HashSet<u16> = t.iter().map(|a| a.thread.0).collect();
        assert_eq!(threads.len(), 4);
    }

    #[test]
    fn sssp_converges_or_hits_budget() {
        let t = Sssp.generate(Scale::tiny());
        assert!(!t.is_empty());
        assert_eq!(t.variables().len(), 4);
    }

    #[test]
    fn budgets_respected_approximately() {
        // Parallel lanes check the budget once per lane pass, so allow
        // one level/iteration of overshoot.
        let t = PageRank.generate(Scale::tiny());
        assert!(t.len() < Scale::tiny().accesses * 3);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn rmat_requires_power_of_two() {
        let _ = rmat(100, 16, 1);
    }
}
