//! Property-based tests for the learning layer: K-Means invariants,
//! batched-kernel ≡ per-sample-oracle equivalences for the DL training
//! path, and the SDAM system's allocation invariant under random
//! programs.

use proptest::prelude::*;
use sdam::{ProcessId, SdamSystem};
use sdam_hbm::Geometry;
use sdam_mem::VirtAddr;
use sdam_ml::autoencoder::{LstmAutoencoder, MiniBatchItem, SeqSample};
use sdam_ml::kmeans::{kmeans, KMeansConfig};
use sdam_ml::linalg::Mat;
use sdam_ml::TrainingConfig;

/// The primordial process every system starts with.
const P0: ProcessId = ProcessId(0);

fn points(dim: usize, n: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    proptest::collection::vec(proptest::collection::vec(-10.0f64..10.0, dim..=dim), 1..n)
}

const BITS: usize = 5;
const DELTA_VOCAB: usize = 7;
const VID_VOCAB: usize = 3;

/// A tiny but multi-layer autoencoder configuration for equivalence
/// properties (dims chosen so tests stay sub-second).
fn tiny_cfg(seed: u64) -> TrainingConfig {
    TrainingConfig {
        hidden_dim: 6,
        layers: 2,
        embedding_dim: 4,
        steps: 4,
        seq_len: 4,
        learning_rate: 0.01,
        lambda: 0.01,
        delta_vocab_cap: DELTA_VOCAB,
        seed,
        patience: 0,
        min_delta: 0.0,
    }
}

/// A random `(Δ, VID)` training window of length 2..=5, derived
/// deterministically from a vector of random words (the shimmed
/// proptest has no flat-map, so each word encodes one step).
fn seq_sample() -> impl Strategy<Value = SeqSample> {
    proptest::collection::vec(any::<u64>(), 2..=5).prop_map(|words| SeqSample {
        delta_ids: words
            .iter()
            .map(|&w| (w % DELTA_VOCAB as u64) as usize)
            .collect(),
        vid_ids: words
            .iter()
            .map(|&w| ((w >> 8) % VID_VOCAB as u64) as usize)
            .collect(),
        delta_bits: words
            .iter()
            .map(|&w| (0..BITS).map(|b| ((w >> (16 + b)) & 1) as f64).collect())
            .collect(),
    })
}

/// A `rows × cols` matrix with entries in (-2, 2) drawn from `rng`.
fn rand_mat(rows: usize, cols: usize, rng: &mut rand::rngs::StdRng) -> Mat {
    use rand::Rng as _;
    Mat::from_vec(
        rows,
        cols,
        (0..rows * cols).map(|_| rng.gen_range(-2.0..2.0)).collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn kmeans_assignments_in_range_and_total(pts in points(4, 40), k in 1usize..6) {
        let r = kmeans(&pts, &KMeansConfig { k, ..Default::default() });
        prop_assert_eq!(r.assignments.len(), pts.len());
        let k_eff = k.min(pts.len());
        prop_assert!(r.assignments.iter().all(|&a| a < k_eff));
        prop_assert!(r.centroids.len() <= k_eff);
        prop_assert!(r.loss.is_finite() && r.loss >= 0.0);
    }

    #[test]
    fn kmeans_loss_no_worse_than_one_cluster_mean(pts in points(3, 30)) {
        // k >= 2 can never be worse than the single-centroid solution.
        let one = kmeans(&pts, &KMeansConfig { k: 1, ..Default::default() });
        let two = kmeans(&pts, &KMeansConfig { k: 2, ..Default::default() });
        prop_assert!(two.loss <= one.loss + 1e-9, "{} > {}", two.loss, one.loss);
    }

    #[test]
    fn kmeans_is_permutation_invariant_in_loss(pts in points(3, 25)) {
        // Reversing the input order may relabel clusters but the final
        // loss stays equal (deterministic seed, symmetric algorithm up
        // to the seeded init over point *indices* — so compare against a
        // tolerance using best-of restarts instead of exact equality).
        let cfg = KMeansConfig { k: 2, ..Default::default() };
        let fwd = kmeans(&pts, &cfg);
        let mut rev = pts.clone();
        rev.reverse();
        let bwd = kmeans(&rev, &cfg);
        // Same multiset of points: losses agree within a factor that
        // tolerates different local minima from the different inits.
        let lo = fwd.loss.min(bwd.loss);
        let hi = fwd.loss.max(bwd.loss);
        prop_assert!(hi <= lo * 4.0 + 1e-6, "losses diverged: {lo} vs {hi}");
    }

    #[test]
    fn matmul_columns_bit_identical_to_matvec(
        m in 1usize..6, k in 1usize..6, n in 1usize..70, seed in 0u64..1024,
    ) {
        // The batched product must be column-for-column *bit-identical*
        // to the matvec oracle: the DL fast path's determinism proof
        // rests on this. n ranges past the matmul tile width so tile
        // boundaries are exercised.
        let mut rng = rand::SeedableRng::seed_from_u64(seed);
        let a = rand_mat(m, k, &mut rng);
        let b = rand_mat(k, n, &mut rng);
        let c = a.matmul(&b);
        for j in 0..n {
            prop_assert_eq!(c.col_to_vec(j), a.matvec(&b.col_to_vec(j)), "column {} diverged", j);
        }
    }

    #[test]
    fn matmul_tn_columns_bit_identical_to_matvec_t(
        m in 1usize..6, k in 1usize..6, n in 1usize..20, seed in 0u64..1024,
    ) {
        let mut rng = rand::SeedableRng::seed_from_u64(seed);
        let a = rand_mat(k, m, &mut rng);
        let b = rand_mat(k, n, &mut rng);
        let c = a.matmul_tn(&b);
        for j in 0..n {
            prop_assert_eq!(c.col_to_vec(j), a.matvec_t(&b.col_to_vec(j)), "column {} diverged", j);
        }
    }

    #[test]
    fn embed_batch_matches_per_sample_embed(
        samples in proptest::collection::vec(seq_sample(), 1..8),
        seed in 0u64..32,
    ) {
        // The batched encoder and the per-sample oracle differ only in
        // fp association (split vs concatenated weight matvec), so they
        // agree to tight tolerance on every sample.
        let ae = LstmAutoencoder::new(DELTA_VOCAB, VID_VOCAB, BITS, &tiny_cfg(seed));
        let refs: Vec<&SeqSample> = samples.iter().collect();
        let batched = ae.embed_batch(&refs, 1);
        for (s, z) in samples.iter().zip(&batched) {
            let oracle = ae.embed(s);
            prop_assert_eq!(z.len(), oracle.len());
            for (a, b) in z.iter().zip(&oracle) {
                prop_assert!((a - b).abs() < 1e-9, "batched {} vs oracle {}", a, b);
            }
        }
    }

    #[test]
    fn minibatch_of_one_matches_train_step(
        sample in seq_sample(),
        seed in 0u64..32,
    ) {
        // A weighted mini-batch of one sample is the same optimizer
        // step as the scalar path up to fp reassociation (the batched
        // kernels split the gate weights that the scalar path applies
        // as one concatenated matvec) — so tight tolerance, not
        // bit-equality. Bit-exactness across *thread counts* is the
        // separate property below.
        let cfg = tiny_cfg(seed);
        let mut a = LstmAutoencoder::new(DELTA_VOCAB, VID_VOCAB, BITS, &cfg);
        let mut b = a.clone();
        let la = a.train_step(&sample, None, cfg.learning_rate);
        let lb = b.train_minibatch(
            &[MiniBatchItem { sample: &sample, weight: 1.0, target: None }],
            cfg.learning_rate,
            1,
        );
        prop_assert!((la.reconstruct - lb.reconstruct).abs() < 1e-9);
        prop_assert!((la.cluster - lb.cluster).abs() < 1e-9);
        for (x, y) in a.embed(&sample).iter().zip(b.embed(&sample)) {
            prop_assert!((x - y).abs() < 1e-9, "parameters diverged: {} vs {}", x, y);
        }
    }

    #[test]
    fn minibatch_bit_identical_across_thread_counts(
        samples in proptest::collection::vec(seq_sample(), 2..9),
        seed in 0u64..32,
    ) {
        // Gradients reduce in input order regardless of which worker
        // computed them, so the fan-out must be invisible bit-for-bit.
        let cfg = tiny_cfg(seed);
        let items: Vec<MiniBatchItem<'_>> = samples
            .iter()
            .enumerate()
            .map(|(i, s)| MiniBatchItem { sample: s, weight: 1.0 + i as f64, target: None })
            .collect();
        let mut serial = LstmAutoencoder::new(DELTA_VOCAB, VID_VOCAB, BITS, &cfg);
        let mut threaded = serial.clone();
        let ls = serial.train_minibatch(&items, cfg.learning_rate, 1);
        let lt = threaded.train_minibatch(&items, cfg.learning_rate, 3);
        prop_assert_eq!(ls.reconstruct, lt.reconstruct);
        prop_assert_eq!(ls.cluster, lt.cluster);
        for s in &samples {
            prop_assert_eq!(serial.embed(s), threaded.embed(s));
        }
    }

    #[test]
    fn sdam_system_frame_mapping_invariant(
        sizes in proptest::collection::vec(64u64..300_000, 1..12),
    ) {
        // Random allocations under random mapping choices: every
        // faulted frame must live in a chunk registered to its heap's
        // mapping — the paper's §4 correctness condition, end to end.
        let mut sys = SdamSystem::try_new(Geometry::hbm2_8gb(), 21).unwrap();
        let m1 = sys.add_mapping(&sys.permutation_for_stride(16)).unwrap();
        let m2 = sys.add_mapping(&sys.permutation_for_stride(4)).unwrap();
        for (i, &size) in sizes.iter().enumerate() {
            let id = match i % 3 {
                0 => None,
                1 => Some(m1),
                _ => Some(m2),
            };
            let va = sys.malloc_in(P0, size, id).unwrap();
            // Touch the first, middle, and last page of the allocation.
            for off in [0, size / 2, size - 1] {
                let pa = sys.touch_in(P0, VirtAddr(va.raw() + off)).unwrap();
                let chunk = pa.chunk_number(21);
                let expect = id.unwrap_or(sdam_mapping::MappingId::DEFAULT);
                prop_assert_eq!(sys.cmt().chunk_mapping(chunk), expect);
            }
        }
    }

    #[test]
    fn sdam_translation_is_stable(reps in 1usize..6) {
        // Repeated access to the same VA yields the same coordinates.
        let mut sys = SdamSystem::try_new(Geometry::hbm2_8gb(), 21).unwrap();
        let id = sys.add_mapping(&sys.permutation_for_stride(8)).unwrap();
        let va = sys.malloc_in(P0, 1 << 16, Some(id)).unwrap();
        let first = sys.access_in(P0, va).unwrap();
        for _ in 0..reps {
            prop_assert_eq!(sys.access_in(P0, va).unwrap(), first);
        }
        prop_assert_eq!(sys.page_faults(), 1);
    }
}
