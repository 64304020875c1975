//! Property-based tests for the learning layer: K-Means invariants,
//! the mini-batch weighting of the DL training step, and the SDAM
//! system's allocation invariant under random programs.

use proptest::prelude::*;
use sdam::{ProcessId, SdamSystem};
use sdam_hbm::Geometry;
use sdam_mem::VirtAddr;
use sdam_ml::autoencoder::{LstmAutoencoder, MiniBatchItem, SeqSample};
use sdam_ml::kmeans::{kmeans, KMeansConfig};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn kmeans_assignments_in_range_and_total(pts in points(4, 40), k in 1usize..6) {
        let r = kmeans(&pts, &KMeansConfig { k, ..Default::default() }).unwrap();
        prop_assert_eq!(r.assignments.len(), pts.len());
        let k_eff = k.min(pts.len());
        prop_assert!(r.assignments.iter().all(|&a| a < k_eff));
        prop_assert!(r.centroids.len() <= k_eff);
        prop_assert!(r.loss.is_finite() && r.loss >= 0.0);
    }

    #[test]
    fn kmeans_loss_no_worse_than_one_cluster_mean(pts in points(3, 30)) {
        // k >= 2 can never be worse than the single-centroid solution.
        let one = kmeans(&pts, &KMeansConfig { k: 1, ..Default::default() }).unwrap();
        let two = kmeans(&pts, &KMeansConfig { k: 2, ..Default::default() }).unwrap();
        prop_assert!(two.loss <= one.loss + 1e-9, "{} > {}", two.loss, one.loss);
    }

    #[test]
    fn kmeans_is_permutation_invariant_in_loss(pts in points(3, 25)) {
        // Reversing the input order may relabel clusters but the final
        // loss stays equal (deterministic seed, symmetric algorithm up
        // to the seeded init over point *indices* — so compare against a
        // tolerance using best-of restarts instead of exact equality).
        let cfg = KMeansConfig { k: 2, ..Default::default() };
        let fwd = kmeans(&pts, &cfg).unwrap();
        let mut rev = pts.clone();
        rev.reverse();
        let bwd = kmeans(&rev, &cfg).unwrap();
        // Same multiset of points: losses agree within a factor that
        // tolerates different local minima from the different inits.
        let lo = fwd.loss.min(bwd.loss);
        let hi = fwd.loss.max(bwd.loss);
        prop_assert!(hi <= lo * 4.0 + 1e-6, "losses diverged: {lo} vs {hi}");
    }

    #[test]
    fn minibatch_of_one_matches_train_step(
        sample in seq_sample(),
        weight in 0.01f64..100.0,
        seed in 0u64..32,
    ) {
        // A single-sample training step is a one-item mini-batch, and
        // its weight normalizes to exactly 1: any positive weight gives
        // the same loss and the same parameters, bit for bit.
        let cfg = tiny_cfg(seed);
        let mut unit = LstmAutoencoder::new(DELTA_VOCAB, VID_VOCAB, BITS, &cfg);
        let mut weighted = unit.clone();
        let lu = unit.train_minibatch(
            &[MiniBatchItem { sample: &sample, weight: 1.0, target: None }],
            cfg.learning_rate,
        );
        let lw = weighted.train_minibatch(
            &[MiniBatchItem { sample: &sample, weight, target: None }],
            cfg.learning_rate,
        );
        prop_assert_eq!(lu, lw);
        prop_assert_eq!(unit.embed(&sample), weighted.embed(&sample));
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
