//! K-Means (Lloyd's algorithm) with k-means++ initialization.
//!
//! This is the paper's Eq. 2: minimize
//! `Σ_i Σ_{x ∈ S_i} ||x − µ_i||²` over `k` clusters. It runs both on
//! raw bit-flip-rate vectors (the "ML" configuration) and on learned
//! LSTM embeddings (the "DL" configuration).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::linalg::sq_dist;

/// Lloyd iterations stop once the loss improves by less than this
/// (absolute).
const TOLERANCE: f64 = 1e-9;

/// K-Means parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iters: usize,
    /// RNG seed for k-means++ initialization.
    pub seed: u64,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        KMeansConfig {
            k: 4,
            max_iters: 100,
            seed: 0x5da0,
        }
    }
}

/// The result of a clustering run.
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering {
    /// Cluster index per input point.
    pub assignments: Vec<usize>,
    /// Cluster centroids (`µ_i` of the paper).
    pub centroids: Vec<Vec<f64>>,
    /// Final clustering loss (Eq. 2).
    pub loss: f64,
}

/// Why [`kmeans`] refused its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KMeansError {
    /// There were no points to cluster.
    NoPoints,
    /// `k` was zero.
    ZeroClusters,
    /// A point's dimension differs from the first point's.
    RaggedDimensions {
        /// Index of the offending point.
        point: usize,
        /// Its dimension.
        dim: usize,
        /// The first point's dimension.
        expected: usize,
    },
    /// A point has a NaN or infinite coordinate.
    NonFinite {
        /// Index of the offending point.
        point: usize,
    },
}

impl std::fmt::Display for KMeansError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KMeansError::NoPoints => write!(f, "cannot cluster zero points"),
            KMeansError::ZeroClusters => write!(f, "k must be positive"),
            KMeansError::RaggedDimensions {
                point,
                dim,
                expected,
            } => write!(
                f,
                "point {point} has dimension {dim}, but point 0 has {expected}"
            ),
            KMeansError::NonFinite { point } => {
                write!(f, "point {point} has a non-finite coordinate")
            }
        }
    }
}

impl std::error::Error for KMeansError {}

/// Runs K-Means on `points`.
///
/// When `points.len() <= k`, every point gets its own cluster (loss 0) —
/// the "each major variable can have its own address mapping" regime
/// of the paper's 32-cluster configuration.
///
/// # Errors
///
/// [`KMeansError`] if `points` is empty, `k` is zero, the points differ
/// in dimension, or a coordinate is NaN or infinite (the error names
/// the first such point).
pub fn kmeans(points: &[Vec<f64>], config: &KMeansConfig) -> Result<Clustering, KMeansError> {
    let Some(first) = points.first() else {
        return Err(KMeansError::NoPoints);
    };
    if config.k == 0 {
        return Err(KMeansError::ZeroClusters);
    }
    let expected = first.len();
    for (point, p) in points.iter().enumerate() {
        if p.len() != expected {
            return Err(KMeansError::RaggedDimensions {
                point,
                dim: p.len(),
                expected,
            });
        }
        if !p.iter().all(|v| v.is_finite()) {
            return Err(KMeansError::NonFinite { point });
        }
    }
    let k = config.k.min(points.len());

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut centroids = kmeans_pp_init(points, k, &mut rng);
    let mut assignments = vec![0usize; points.len()];
    let mut loss = f64::INFINITY;
    for _ in 0..config.max_iters {
        // Assignment step.
        let mut new_loss = 0.0;
        for (i, p) in points.iter().enumerate() {
            let (best, d) = nearest(p, &centroids);
            assignments[i] = best;
            new_loss += d;
        }
        // Update step.
        update_centroids(points, &assignments, &mut centroids);
        if loss - new_loss < TOLERANCE {
            loss = new_loss;
            break;
        }
        loss = new_loss;
    }

    Ok(Clustering {
        assignments,
        centroids,
        loss,
    })
}

/// One Lloyd update step: each non-empty cluster's centroid moves to
/// the mean of its members; each *empty* cluster is re-seeded on the
/// farthest point from its current centroid, with points already used
/// as re-seeds this iteration excluded so two empty clusters never
/// collapse onto the same point (which would leave them duplicated —
/// and one of them empty — forever after).
fn update_centroids(points: &[Vec<f64>], assignments: &[usize], centroids: &mut [Vec<f64>]) {
    let dim = points[0].len();
    let k = centroids.len();
    let mut sums = vec![vec![0.0; dim]; k];
    let mut counts = vec![0usize; k];
    for (p, &a) in points.iter().zip(assignments) {
        counts[a] += 1;
        for (s, v) in sums[a].iter_mut().zip(p) {
            *s += v;
        }
    }
    let mut reseeded: Vec<usize> = Vec::new();
    for c in 0..k {
        if counts[c] == 0 {
            // At most k-1 clusters can be empty (every point is
            // assigned somewhere), so an unused point always exists.
            let Some(far) = (0..points.len())
                .filter(|i| !reseeded.contains(i))
                .max_by(|&a, &b| {
                    sq_dist(&points[a], &centroids[assignments[a]])
                        .total_cmp(&sq_dist(&points[b], &centroids[assignments[b]]))
                })
            else {
                panic!("an empty cluster found no unused point to reseed on");
            };
            centroids[c] = points[far].clone();
            reseeded.push(far);
        } else {
            for (j, s) in sums[c].iter().enumerate() {
                centroids[c][j] = s / counts[c] as f64;
            }
        }
    }
}

/// k-means++ seeding: first centroid uniform, then each next centroid
/// with probability proportional to squared distance from the nearest
/// chosen one.
fn kmeans_pp_init<R: Rng>(points: &[Vec<f64>], k: usize, rng: &mut R) -> Vec<Vec<f64>> {
    let mut centroids = Vec::with_capacity(k);
    centroids.push(points[rng.gen_range(0..points.len())].clone());
    while centroids.len() < k {
        let d2: Vec<f64> = points.iter().map(|p| nearest(p, &centroids).1).collect();
        let total: f64 = d2.iter().sum();
        let next = if total <= f64::EPSILON {
            // All points coincide with chosen centroids; pick uniformly.
            rng.gen_range(0..points.len())
        } else {
            let mut target = rng.gen_range(0.0..total);
            let mut pick = points.len() - 1;
            for (i, &d) in d2.iter().enumerate() {
                if target < d {
                    pick = i;
                    break;
                }
                target -= d;
            }
            pick
        };
        centroids.push(points[next].clone());
    }
    centroids
}

fn nearest(p: &[f64], centroids: &[Vec<f64>]) -> (usize, f64) {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (c, centroid) in centroids.iter().enumerate() {
        let d = sq_dist(p, centroid);
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    (best, best_d)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(centers: &[(f64, f64)], per: usize, spread: f64, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pts = Vec::new();
        for &(cx, cy) in centers {
            for _ in 0..per {
                pts.push(vec![
                    cx + rng.gen_range(-spread..spread),
                    cy + rng.gen_range(-spread..spread),
                ]);
            }
        }
        pts
    }

    #[test]
    fn separates_well_spaced_blobs() {
        let pts = blobs(&[(0.0, 0.0), (10.0, 10.0), (0.0, 10.0)], 20, 0.5, 7);
        let r = kmeans(
            &pts,
            &KMeansConfig {
                k: 3,
                ..Default::default()
            },
        )
        .unwrap();
        // Each blob maps to exactly one cluster.
        for blob in 0..3 {
            let first = r.assignments[blob * 20];
            for i in 0..20 {
                assert_eq!(r.assignments[blob * 20 + i], first, "blob {blob} split");
            }
        }
        // Distinct blobs get distinct clusters.
        assert_ne!(r.assignments[0], r.assignments[20]);
        assert_ne!(r.assignments[20], r.assignments[40]);
    }

    #[test]
    fn loss_non_increasing_across_iterations() {
        // Run with increasing max_iters; the final loss must not grow.
        let pts = blobs(&[(0.0, 0.0), (3.0, 3.0)], 30, 2.0, 3);
        let mut prev = f64::INFINITY;
        for iters in [1, 2, 4, 8, 32] {
            let r = kmeans(
                &pts,
                &KMeansConfig {
                    k: 2,
                    max_iters: iters,
                    seed: 1,
                },
            )
            .unwrap();
            assert!(r.loss <= prev + 1e-9, "loss grew at {iters} iters");
            prev = r.loss;
        }
    }

    #[test]
    fn k_at_least_points_gives_zero_loss() {
        let pts = blobs(&[(0.0, 0.0)], 5, 1.0, 9);
        let r = kmeans(
            &pts,
            &KMeansConfig {
                k: 10,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(r.loss < 1e-12);
        let distinct: std::collections::HashSet<usize> = r.assignments.iter().copied().collect();
        assert_eq!(distinct.len(), 5);
    }

    #[test]
    fn deterministic_per_seed() {
        let pts = blobs(&[(0.0, 0.0), (5.0, 5.0)], 10, 1.0, 11);
        let cfg = KMeansConfig {
            k: 2,
            seed: 99,
            ..Default::default()
        };
        assert_eq!(kmeans(&pts, &cfg).unwrap(), kmeans(&pts, &cfg).unwrap());
    }

    #[test]
    fn far_point_gets_its_own_cluster() {
        let pts = vec![vec![0.0], vec![0.1], vec![9.0]];
        let r = kmeans(
            &pts,
            &KMeansConfig {
                k: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(r.assignments[0], r.assignments[1]);
        assert_ne!(r.assignments[1], r.assignments[2]);
    }

    #[test]
    fn empty_clusters_reseed_on_distinct_points() {
        // All four points sit in cluster 0; clusters 1 and 2 are empty
        // and must re-seed on two *different* points (the old code gave
        // both the same farthest point, leaving duplicate centroids).
        let points = vec![vec![0.0], vec![1.0], vec![2.0], vec![10.0]];
        let assignments = vec![0usize, 0, 0, 0];
        let mut centroids = vec![vec![0.0], vec![100.0], vec![200.0]];
        update_centroids(&points, &assignments, &mut centroids);
        // Cluster 0 moves to the member mean (3.25); the empties grab
        // the farthest point (10.0) and then the farthest *unused* one
        // (0.0) — not 10.0 twice.
        assert_eq!(centroids[0], vec![3.25]);
        assert_eq!(centroids[1], vec![10.0]);
        assert_eq!(centroids[2], vec![0.0]);
        assert_ne!(centroids[1], centroids[2], "duplicate reseed");
    }

    #[test]
    fn identical_points_handled() {
        let pts = vec![vec![1.0, 1.0]; 8];
        let r = kmeans(
            &pts,
            &KMeansConfig {
                k: 3,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(r.loss < 1e-12);
        assert_eq!(r.assignments.len(), 8);
    }

    #[test]
    fn nan_point_is_a_typed_error() {
        // Unchecked, a NaN point is never nearest to any centroid: the
        // loss reads `inf`, the run takes all `max_iters` and a
        // centroid turns NaN.
        let pts = vec![
            vec![f64::NAN, 0.0],
            vec![1.0, 0.0],
            vec![2.0, 0.0],
            vec![3.0, 0.0],
        ];
        for seed in 0..3 {
            let cfg = KMeansConfig {
                k: 3,
                seed,
                ..Default::default()
            };
            assert_eq!(kmeans(&pts, &cfg), Err(KMeansError::NonFinite { point: 0 }));
        }
        let mut inf = pts.clone();
        inf[0][0] = 0.0;
        inf[2][1] = f64::INFINITY;
        let err = kmeans(&inf, &KMeansConfig::default()).unwrap_err();
        assert_eq!(err, KMeansError::NonFinite { point: 2 });
        assert!(err.to_string().contains("point 2"), "{err}");
    }

    #[test]
    fn degenerate_inputs_are_typed_errors() {
        let cfg = KMeansConfig::default();
        assert_eq!(kmeans(&[], &cfg), Err(KMeansError::NoPoints));
        let pts = vec![vec![0.0, 1.0], vec![2.0, 3.0]];
        let zero_k = KMeansConfig {
            k: 0,
            ..cfg.clone()
        };
        assert_eq!(kmeans(&pts, &zero_k), Err(KMeansError::ZeroClusters));
        let ragged = vec![vec![0.0, 1.0], vec![2.0, 3.0], vec![4.0]];
        assert_eq!(
            kmeans(&ragged, &cfg),
            Err(KMeansError::RaggedDimensions {
                point: 2,
                dim: 1,
                expected: 2
            })
        );
    }
}
