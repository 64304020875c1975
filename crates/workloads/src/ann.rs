//! Machine-learning / information-retrieval kernels: K-Means, HNSW,
//! IVFPQ.
//!
//! The paper's third data-intensive domain (after Johnson et al.'s FAISS
//! for HNSW/IVFPQ and Lloyd's K-Means). Each kernel is implemented as
//! the real algorithm over instrumented arrays:
//!
//! * K-Means streams the point matrix and scatters into centroids,
//! * HNSW performs greedy best-first graph walks (pointer-chasing),
//! * IVFPQ scans a few inverted lists per query with a codebook gather.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdam_trace::Trace;

use crate::recorder::run_parallel;
use crate::{Recorder, Scale, Workload};

const DIM: usize = 16;
const LANES: usize = 4;

fn lane_ranges(n: usize) -> Vec<std::ops::Range<usize>> {
    let chunk = n.div_ceil(LANES);
    (0..LANES)
        .map(|l| (l * chunk).min(n)..((l + 1) * chunk).min(n))
        .collect()
}

fn random_points(n: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (0..DIM).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect()
}

fn dist2(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Lloyd's K-Means as a *workload* (distinct from the `sdam-ml` solver:
/// here we care about its memory behaviour, not its output).
#[derive(Debug, Clone, Copy, Default)]
pub struct KMeansWorkload;

impl Workload for KMeansWorkload {
    fn name(&self) -> &str {
        "kmeans"
    }

    fn generate(&self, scale: Scale) -> Trace {
        let n = scale.n;
        let k = 16usize;
        let points = random_points(n, scale.seed);
        let mut centroids: Vec<Vec<f32>> = points[..k].to_vec();

        let mut rec = Recorder::with_capacity(scale.accesses);
        let r_points = rec.alloc(n * DIM, 4);
        let r_centroids = rec.alloc(k * DIM, 4);
        let r_assign = rec.alloc(n, 4);

        let pranges = lane_ranges(n);
        for _ in 0..8 {
            if rec.len() >= scale.accesses {
                break;
            }
            let mut sums = vec![vec![0.0f32; DIM]; k];
            let mut counts = vec![0usize; k];
            // Points are partitioned across four lanes, as parallel
            // K-Means implementations do. The point matrix is stored
            // feature-major (column-major), the layout analytics engines
            // use so that per-feature statistics stream; reading one
            // point then strides by the column height — a power-of-two
            // stride that the default mapping pins to one channel.
            run_parallel(&mut rec, LANES, |lane, r| {
                for i in pranges[lane].clone() {
                    if r.len() * LANES >= scale.accesses {
                        break;
                    }
                    let p = &points[i];
                    // Gather the point: points[d * n + i], stride n x 4 B.
                    for d in 0..DIM {
                        r.read(r_points, d * n + i);
                    }
                    let mut best = 0;
                    let mut best_d = f32::INFINITY;
                    for (c, centroid) in centroids.iter().enumerate() {
                        for d in 0..DIM {
                            r.read(r_centroids, c * DIM + d);
                        }
                        let dd = dist2(p, centroid);
                        if dd < best_d {
                            best_d = dd;
                            best = c;
                        }
                    }
                    r.write(r_assign, i);
                    counts[best] += 1;
                    for d in 0..DIM {
                        sums[best][d] += p[d];
                    }
                }
            });
            for c in 0..k {
                if counts[c] > 0 {
                    for d in 0..DIM {
                        centroids[c][d] = sums[c][d] / counts[c] as f32;
                        rec.write(r_centroids, c * DIM + d);
                    }
                }
            }
        }
        rec.into_trace()
    }
}

/// A navigable-small-world search structure (single-layer HNSW
/// approximation): greedy best-first walks over a random neighbour
/// graph — the pointer-chasing extreme.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Hnsw;

impl Workload for Hnsw {
    fn name(&self) -> &str {
        "hnsw"
    }

    fn generate(&self, scale: Scale) -> Trace {
        let n = scale.n;
        let m = 8usize; // neighbours per node
        let points = random_points(n, scale.seed);
        let mut rng = StdRng::seed_from_u64(scale.seed ^ 0x11);
        // Random m-regular neighbour lists (a faithful stand-in for the
        // HNSW layer graph's memory behaviour).
        let links: Vec<u32> = (0..n * m).map(|_| rng.gen_range(0..n as u32)).collect();

        let mut rec = Recorder::with_capacity(scale.accesses);
        let r_points = rec.alloc(n * DIM, 4);
        let r_links = rec.alloc(n * m, 4);
        let r_visited = rec.alloc(n, 1);

        let queries = random_points(256, scale.seed ^ 0x22);
        let qranges = lane_ranges(queries.len());
        // Queries are served by four lanes, as a batched ANN service
        // does.
        run_parallel(&mut rec, LANES, |lane, r| {
            for q in &queries[qranges[lane].clone()] {
                let mut cur = 0usize;
                let mut cur_d = {
                    for d in 0..DIM {
                        r.read(r_points, cur * DIM + d);
                    }
                    dist2(q, &points[cur])
                };
                let mut visited = vec![false; n];
                visited[0] = true;
                'walk: loop {
                    let mut improved = false;
                    for e in 0..m {
                        r.read(r_links, cur * m + e);
                        let cand = links[cur * m + e] as usize;
                        r.read(r_visited, cand);
                        if visited[cand] {
                            continue;
                        }
                        visited[cand] = true;
                        r.write(r_visited, cand);
                        for d in 0..DIM {
                            r.read(r_points, cand * DIM + d);
                        }
                        let dd = dist2(q, &points[cand]);
                        if dd < cur_d {
                            cur_d = dd;
                            cur = cand;
                            improved = true;
                        }
                    }
                    if !improved || r.len() * LANES >= scale.accesses {
                        break 'walk;
                    }
                }
                if r.len() * LANES >= scale.accesses {
                    break;
                }
            }
        });
        rec.into_trace()
    }
}

/// IVFPQ-style search: a coarse quantizer picks inverted lists, which
/// are scanned sequentially with a PQ-codebook gather per code.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ivfpq;

impl Workload for Ivfpq {
    fn name(&self) -> &str {
        "ivfpq"
    }

    fn generate(&self, scale: Scale) -> Trace {
        let n = scale.n;
        let nlist = 64usize;
        let sub = 8usize; // PQ sub-quantizers
        let mut rng = StdRng::seed_from_u64(scale.seed);
        // Assign points to lists with a skew (hot lists exist).
        let list_of: Vec<usize> = (0..n)
            .map(|_| {
                let r: f64 = rng.gen();
                ((r * r) * nlist as f64) as usize % nlist
            })
            .collect();
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); nlist];
        for (i, &l) in list_of.iter().enumerate() {
            lists[l].push(i as u32);
        }
        let codes: Vec<u8> = (0..n * sub).map(|_| rng.gen()).collect();

        let mut rec = Recorder::with_capacity(scale.accesses);
        let r_centroids = rec.alloc(nlist * DIM, 4);
        let r_codes = rec.alloc(n * sub, 1);
        let r_codebook = rec.alloc(sub * 256, 4);
        let r_out = rec.alloc(1024, 8);

        let queries = 512usize;
        let qranges = lane_ranges(queries);
        run_parallel(&mut rec, LANES, |lane, r| {
            'queries: for q in qranges[lane].clone() {
                // Coarse quantizer scan (sequential over centroids).
                for c in 0..nlist * DIM {
                    r.read(r_centroids, c);
                }
                // Probe the 4 "nearest" lists (pseudo-chosen by seed).
                for probe in 0..4usize {
                    let l = (q * 7 + probe * 13) % nlist;
                    for &pt in &lists[l] {
                        for s in 0..sub {
                            r.read(r_codes, pt as usize * sub + s);
                            let code = codes[pt as usize * sub + s] as usize;
                            r.read(r_codebook, s * 256 + code);
                        }
                        if r.len() * LANES >= scale.accesses {
                            break 'queries;
                        }
                    }
                }
                r.write(r_out, q % 1024);
            }
        });
        rec.into_trace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kmeans_variables_and_budget() {
        let t = KMeansWorkload.generate(Scale::tiny());
        assert_eq!(t.variables().len(), 3);
        // Lanes check the budget once per access batch; allow slack.
        assert!(t.len() <= Scale::tiny().accesses * 2);
    }

    #[test]
    fn kmeans_centroids_hotter_than_points_per_byte() {
        // Centroids are re-read for every point: tiny footprint, huge
        // reference count — a textbook "major variable".
        let t = KMeansWorkload.generate(Scale::tiny());
        let refs = t.refs_per_variable();
        let foot = t.footprint_per_variable();
        let vars = t.variables();
        let density = |v| refs[&v] as f64 / foot[&v] as f64;
        assert!(density(vars[1]) > 10.0 * density(vars[0]));
    }

    #[test]
    fn hnsw_walk_is_scattered() {
        let t = Hnsw.generate(Scale::tiny());
        assert_eq!(t.variables().len(), 3);
        // The link-array accesses should jump around.
        let links: Vec<u64> = t.addrs_of(t.variables()[1]).collect();
        let jumps = links
            .windows(2)
            .filter(|w| w[0].abs_diff(w[1]) > 4096)
            .count();
        // Greedy walks read 8 sequential links per node then jump to
        // the next node: expect >~1/8 of transitions to be far jumps.
        assert!(
            jumps as f64 > 0.1 * links.len() as f64,
            "{jumps} of {}",
            links.len()
        );
    }

    #[test]
    fn ivfpq_touches_codebook_randomly_and_centroids_sequentially() {
        let t = Ivfpq.generate(Scale::tiny());
        assert_eq!(t.variables().len(), 4);
        assert!(!t.is_empty());
    }

    #[test]
    fn workloads_deterministic() {
        for w in [
            &KMeansWorkload as &dyn Workload,
            &Hnsw as &dyn Workload,
            &Ivfpq as &dyn Workload,
        ] {
            assert_eq!(
                w.generate(Scale::tiny()),
                w.generate(Scale::tiny()),
                "{}",
                w.name()
            );
        }
    }
}
