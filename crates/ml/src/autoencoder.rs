//! The embedding-LSTM autoencoder (paper Fig. 9).
//!
//! Input: a sequence of `(Δ, VID)` pairs, where Δ is the XOR of two
//! consecutive addresses and VID the variable id. Δ and VID are
//! embedded separately, concatenated, and fed to a stacked-LSTM
//! *encoder*; the final hidden state is the sequence embedding `z`. A
//! stacked-LSTM *decoder* conditioned on `z` reconstructs the Δ bit
//! pattern of every step through a sigmoid readout.
//!
//! Loss: the paper's Eq. 3 is an L1 over reconstructed Δ bits; we use
//! the standard binary-cross-entropy surrogate for per-bit targets
//! (identical minimizer for {0,1} targets, smooth gradients). The joint
//! phase adds the paper's clustering term:
//! `L_total = L_reconstruct + λ · ||z − µ_assigned||²`.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::embedding::Embedding;
use crate::linalg::{add_assign, sigmoid, Mat};
use crate::lstm::Lstm;
use crate::optim::Adam;
use crate::TrainingConfig;

/// One training sample: a window of `(Δ, VID)` pairs plus the Δ bit
/// targets to reconstruct.
#[derive(Debug, Clone, PartialEq)]
pub struct SeqSample {
    /// Δ vocabulary ids, one per step.
    pub delta_ids: Vec<usize>,
    /// VID vocabulary ids, one per step.
    pub vid_ids: Vec<usize>,
    /// Per-step Δ bit targets (each of width `bits`, values 0.0 / 1.0).
    pub delta_bits: Vec<Vec<f64>>,
}

impl SeqSample {
    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches or non-binary targets.
    pub fn validate(&self, bits: usize) {
        assert_eq!(
            self.delta_ids.len(),
            self.vid_ids.len(),
            "id length mismatch"
        );
        assert_eq!(
            self.delta_ids.len(),
            self.delta_bits.len(),
            "target length mismatch"
        );
        assert!(!self.delta_ids.is_empty(), "empty sample");
        for b in &self.delta_bits {
            assert_eq!(b.len(), bits, "bit width mismatch");
            assert!(
                b.iter().all(|&v| v == 0.0 || v == 1.0),
                "targets must be binary"
            );
        }
    }
}

/// One entry of a weighted mini-batch for
/// [`LstmAutoencoder::train_minibatch`]: a window, its multiplicity
/// weight (deduplicated windows carry the count of their duplicates),
/// and an optional cluster-centroid target for the joint phase.
#[derive(Debug, Clone)]
pub struct MiniBatchItem<'a> {
    /// The training window.
    pub sample: &'a SeqSample,
    /// Positive weight of the sample in the batch objective.
    pub weight: f64,
    /// Centroid `µ` for the clustering term, when joint-training.
    pub target: Option<&'a [f64]>,
}

/// Losses of one training step.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StepLoss {
    /// Reconstruction loss (BCE over Δ bits).
    reconstruct: f64,
    /// Clustering loss (`||z − µ||²`; 0 when no target given).
    cluster: f64,
}

impl StepLoss {
    /// The paper's `L_total = L_reconstruct + λ·L_cluster`.
    pub fn total(&self, lambda: f64) -> f64 {
        self.reconstruct + lambda * self.cluster
    }
}

/// The autoencoder model.
#[derive(Debug, Clone)]
pub struct LstmAutoencoder {
    delta_embed: Embedding,
    vid_embed: Embedding,
    encoder: Lstm,
    decoder: Lstm,
    w_out: Mat,
    b_out: Vec<f64>,
    dw_out: Mat,
    db_out: Vec<f64>,
    adam_w: Adam,
    adam_b: Adam,
    bits: usize,
    lambda: f64,
}

impl LstmAutoencoder {
    /// Builds a model for the given vocabularies and Δ bit width.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or a vocabulary is empty.
    pub fn new(delta_vocab: usize, vid_vocab: usize, bits: usize, config: &TrainingConfig) -> Self {
        config.validate();
        assert!(
            delta_vocab > 0 && vid_vocab > 0,
            "vocabularies must be non-empty"
        );
        assert!(bits > 0, "bit width must be positive");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let e = config.embedding_dim;
        let h = config.hidden_dim;
        // Damp the VID embedding so two variables with identical access
        // patterns start with near-identical sequence embeddings; the Δ
        // pattern, not variable identity, should drive the clusters.
        let mut vid_embed = Embedding::new(vid_vocab, e, &mut rng);
        vid_embed.scale(0.05);
        LstmAutoencoder {
            delta_embed: Embedding::new(delta_vocab, e, &mut rng),
            vid_embed,
            encoder: Lstm::new(2 * e, h, config.layers, &mut rng),
            decoder: Lstm::new(h, h, config.layers, &mut rng),
            w_out: Mat::xavier(bits, h, &mut rng),
            b_out: vec![0.0; bits],
            dw_out: Mat::zeros(bits, h),
            db_out: vec![0.0; bits],
            adam_w: Adam::new(bits * h),
            adam_b: Adam::new(bits),
            bits,
            lambda: config.lambda,
        }
    }

    /// The embedding dimension of `z` (the LSTM hidden size).
    pub(crate) fn embedding_dim(&self) -> usize {
        self.encoder.hidden_dim()
    }

    /// Encodes a sample into its embedding `z` (no gradients).
    pub fn embed(&self, sample: &SeqSample) -> Vec<f64> {
        sample.validate(self.bits);
        let inputs = self.encoder_inputs(sample);
        let (top, _) = self.encoder.forward(&inputs);
        let Some(z) = top.last().cloned() else {
            panic!("a validated sample has at least one step");
        };
        z
    }

    /// One optimizer step over a weighted mini-batch. The objective is
    /// the weighted mean of the per-sample joint losses (weights
    /// normalized by their sum), so a deduplicated window with weight
    /// *w* contributes exactly like *w* duplicate windows, and a batch
    /// of one is a plain single-sample step whatever its weight. Each
    /// item runs the per-step forward/backward in input order, its
    /// gradients scaled by its normalized weight, and one optimizer step
    /// applies their sum.
    ///
    /// Returns the weighted-mean loss over the batch.
    ///
    /// # Panics
    ///
    /// Panics on an empty batch, non-positive weights, inconsistent
    /// samples, or a centroid of the wrong dimension.
    pub fn train_minibatch(&mut self, items: &[MiniBatchItem<'_>], lr: f64) -> StepLoss {
        assert!(!items.is_empty(), "empty mini-batch");
        let w_total: f64 = items.iter().map(|it| it.weight).sum();
        assert!(
            w_total.is_finite() && items.iter().all(|it| it.weight > 0.0),
            "weights must be positive and finite"
        );
        self.zero_grad();
        let mut total = StepLoss::default();
        for it in items {
            let scale = it.weight / w_total;
            let l = self.forward_backward_scaled(it.sample, it.target, scale);
            total.reconstruct += scale * l.reconstruct;
            total.cluster += scale * l.cluster;
        }
        self.apply_step(lr);
        total
    }

    /// Forward + backward for one sample without zeroing or stepping,
    /// with every accumulated gradient scaled by `grad_scale` (the
    /// sample's normalized mini-batch weight). `cluster_target`, when
    /// given, adds the joint clustering term pulling `z` toward its
    /// centroid. The returned loss is the *unscaled* per-sample loss.
    fn forward_backward_scaled(
        &mut self,
        sample: &SeqSample,
        cluster_target: Option<&[f64]>,
        grad_scale: f64,
    ) -> StepLoss {
        sample.validate(self.bits);
        let steps = sample.delta_ids.len();
        let denom = (steps * self.bits) as f64;
        let enc_inputs = self.encoder_inputs(sample);
        let (enc_top, enc_cache) = self.encoder.forward(&enc_inputs);
        let Some(z) = enc_top.last().cloned() else {
            panic!("a validated sample has at least one step");
        };
        let (dec_top, dec_cache) = self.decoder.forward(&vec![z.as_slice(); steps]);

        let mut loss = 0.0;
        let mut d_dec_top = Vec::with_capacity(steps);
        let mut logits = vec![0.0; self.bits];
        let mut dlogits = vec![0.0; self.bits];
        for (h, targets) in dec_top.iter().zip(&sample.delta_bits) {
            self.w_out.matvec_into(h, &mut logits);
            add_assign(&mut logits, &self.b_out);
            for j in 0..self.bits {
                let p = sigmoid(logits[j]);
                let y = targets[j];
                loss += bce(p, y);
                dlogits[j] = grad_scale * (p - y) / denom;
            }
            self.dw_out.add_outer(&dlogits, h);
            add_assign(&mut self.db_out, &dlogits);
            d_dec_top.push(self.w_out.matvec_t(&dlogits));
        }
        let d_dec_inputs = self.decoder.backward(&dec_cache, &d_dec_top, None);
        let mut dz = vec![0.0; z.len()];
        for d in &d_dec_inputs {
            add_assign(&mut dz, d);
        }
        let mut cluster = 0.0;
        if let Some(mu) = cluster_target {
            assert_eq!(mu.len(), z.len(), "centroid dimension mismatch");
            for j in 0..z.len() {
                let diff = z[j] - mu[j];
                cluster += diff * diff;
                dz[j] += grad_scale * 2.0 * self.lambda * diff;
            }
        }
        let mut d_enc_top = vec![vec![0.0; self.encoder.hidden_dim()]; steps];
        d_enc_top[steps - 1] = dz;
        let d_enc_inputs = self.encoder.backward(&enc_cache, &d_enc_top, None);
        let e = self.delta_embed.dim();
        for (t, d) in d_enc_inputs.iter().enumerate() {
            self.delta_embed.accumulate(sample.delta_ids[t], &d[..e]);
            self.vid_embed.accumulate(sample.vid_ids[t], &d[e..]);
        }
        StepLoss {
            reconstruct: loss / denom,
            cluster,
        }
    }

    fn encoder_inputs(&self, sample: &SeqSample) -> Vec<Vec<f64>> {
        sample
            .delta_ids
            .iter()
            .zip(&sample.vid_ids)
            .map(|(&d, &v)| [self.delta_embed.row(d), self.vid_embed.row(v)].concat())
            .collect()
    }

    fn zero_grad(&mut self) {
        self.encoder.zero_grad();
        self.decoder.zero_grad();
        self.delta_embed.zero_grad();
        self.vid_embed.zero_grad();
        self.dw_out.zero();
        self.db_out.iter_mut().for_each(|v| *v = 0.0);
    }

    fn apply_step(&mut self, lr: f64) {
        self.encoder.step(lr);
        self.decoder.step(lr);
        self.delta_embed.step(lr);
        self.vid_embed.step(lr);
        self.adam_w
            .step(self.w_out.data_mut(), self.dw_out.data(), lr);
        self.adam_b.step(&mut self.b_out, &self.db_out, lr);
    }
}

/// Binary cross entropy with clamped probabilities.
fn bce(p: f64, y: f64) -> f64 {
    let p = p.clamp(1e-12, 1.0 - 1e-12);
    -(y * p.ln() + (1.0 - y) * (1.0 - p).ln())
}

#[cfg(test)]
mod tests {
    use super::*;

    impl LstmAutoencoder {
        /// Reconstruction loss of a sample without updating parameters.
        fn evaluate(&self, sample: &SeqSample) -> f64 {
            let z = self.embed(sample);
            let dec_in = vec![z; sample.delta_ids.len()];
            let (dec_top, _) = self.decoder.forward(&dec_in);
            let mut loss = 0.0;
            for (t, h) in dec_top.iter().enumerate() {
                let mut logits = self.w_out.matvec(h);
                add_assign(&mut logits, &self.b_out);
                for (j, &l) in logits.iter().enumerate() {
                    loss += bce(sigmoid(l), sample.delta_bits[t][j]);
                }
            }
            loss / (dec_top.len() * self.bits) as f64
        }
    }

    fn tiny_config() -> TrainingConfig {
        TrainingConfig {
            hidden_dim: 8,
            layers: 2,
            embedding_dim: 6,
            steps: 50,
            seq_len: 4,
            learning_rate: 0.01,
            lambda: 0.05,
            delta_vocab_cap: 16,
            seed: 1,
            patience: 0,
            min_delta: 0.0,
        }
    }

    fn sample_a() -> SeqSample {
        SeqSample {
            delta_ids: vec![1, 1, 1, 1],
            vid_ids: vec![0, 0, 0, 0],
            delta_bits: vec![vec![1.0, 0.0, 0.0, 1.0]; 4],
        }
    }

    fn sample_b() -> SeqSample {
        SeqSample {
            delta_ids: vec![2, 3, 2, 3],
            vid_ids: vec![1, 1, 1, 1],
            delta_bits: vec![vec![0.0, 1.0, 1.0, 0.0]; 4],
        }
    }

    fn item<'a>(sample: &'a SeqSample, weight: f64) -> MiniBatchItem<'a> {
        MiniBatchItem {
            sample,
            weight,
            target: None,
        }
    }

    /// One optimizer step on a single sample: a one-item mini-batch.
    fn step(
        ae: &mut LstmAutoencoder,
        sample: &SeqSample,
        target: Option<&[f64]>,
        lr: f64,
    ) -> StepLoss {
        ae.train_minibatch(
            &[MiniBatchItem {
                sample,
                weight: 1.0,
                target,
            }],
            lr,
        )
    }

    #[test]
    fn training_reduces_reconstruction_loss() {
        let mut ae = LstmAutoencoder::new(16, 4, 4, &tiny_config());
        let initial = ae.evaluate(&sample_a()) + ae.evaluate(&sample_b());
        for _ in 0..300 {
            step(&mut ae, &sample_a(), None, 0.01);
            step(&mut ae, &sample_b(), None, 0.01);
        }
        let trained = ae.evaluate(&sample_a()) + ae.evaluate(&sample_b());
        assert!(
            trained < initial * 0.5,
            "loss {initial} -> {trained} did not halve"
        );
    }

    #[test]
    fn distinct_patterns_get_distinct_embeddings() {
        let mut ae = LstmAutoencoder::new(16, 4, 4, &tiny_config());
        for _ in 0..200 {
            step(&mut ae, &sample_a(), None, 0.01);
            step(&mut ae, &sample_b(), None, 0.01);
        }
        let za = ae.embed(&sample_a());
        let zb = ae.embed(&sample_b());
        let d: f64 = za.iter().zip(&zb).map(|(a, b)| (a - b).abs()).sum();
        assert!(d > 1e-3, "embeddings collapsed: {za:?} vs {zb:?}");
    }

    #[test]
    fn cluster_term_pulls_embedding_toward_centroid() {
        let mut ae = LstmAutoencoder::new(16, 4, 4, &tiny_config());
        let mu = vec![0.0; ae.embedding_dim()];
        let before = crate::linalg::sq_dist(&ae.embed(&sample_a()), &mu);
        // Strong lambda so the pull dominates within a few steps.
        ae.lambda = 10.0;
        for _ in 0..100 {
            let l = step(&mut ae, &sample_a(), Some(&mu), 0.01);
            assert!(l.cluster >= 0.0);
        }
        let after = crate::linalg::sq_dist(&ae.embed(&sample_a()), &mu);
        assert!(after < before, "cluster distance {before} -> {after}");
    }

    #[test]
    fn mini_batch_training_converges() {
        let mut ae = LstmAutoencoder::new(16, 4, 4, &tiny_config());
        let (a, b) = (sample_a(), sample_b());
        let initial = ae.evaluate(&a) + ae.evaluate(&b);
        for _ in 0..300 {
            ae.train_minibatch(&[item(&a, 1.0), item(&b, 1.0)], 0.01);
        }
        let trained = ae.evaluate(&a) + ae.evaluate(&b);
        assert!(trained < initial * 0.5, "{initial} -> {trained}");
    }

    #[test]
    #[should_panic(expected = "empty mini-batch")]
    fn empty_batch_rejected() {
        let mut ae = LstmAutoencoder::new(16, 4, 4, &tiny_config());
        let _ = ae.train_minibatch(&[], 0.01);
    }

    #[test]
    fn minibatch_returns_weighted_mean_loss() {
        // Every per-sample pass of a batch sees the same (pre-update)
        // parameters, so the reported loss must equal the weighted mean
        // of the losses single-sample steps report on clones.
        let ae = LstmAutoencoder::new(16, 4, 4, &tiny_config());
        let (a, b) = (sample_a(), sample_b());
        let la = step(&mut ae.clone(), &a, None, 1e-9).reconstruct;
        let lb = step(&mut ae.clone(), &b, None, 1e-9).reconstruct;
        let batch = ae
            .clone()
            .train_minibatch(&[item(&a, 1.0), item(&b, 3.0)], 1e-9);
        let want = (la + 3.0 * lb) / 4.0;
        assert!(
            (batch.reconstruct - want).abs() < 1e-12,
            "{} vs weighted mean {want}",
            batch.reconstruct
        );
        assert_eq!(batch.cluster, 0.0);
    }

    #[test]
    fn minibatch_weight_equals_duplication() {
        // weight = 2 must act like listing the sample twice (the
        // dedup-with-multiplicity contract of the training loop).
        let mut by_weight = LstmAutoencoder::new(16, 4, 4, &tiny_config());
        let mut by_dup = by_weight.clone();
        let (a, b) = (sample_a(), sample_b());
        for _ in 0..5 {
            by_weight.train_minibatch(&[item(&a, 2.0), item(&b, 1.0)], 0.01);
            by_dup.train_minibatch(&[item(&a, 1.0), item(&a, 1.0), item(&b, 1.0)], 0.01);
        }
        for (x, y) in by_weight.embed(&a).iter().zip(&by_dup.embed(&a)) {
            assert!((x - y).abs() < 1e-9, "weighting diverged: {x} vs {y}");
        }
    }

    #[test]
    fn loss_reporting() {
        let mut ae = LstmAutoencoder::new(16, 4, 4, &tiny_config());
        let l = step(&mut ae, &sample_a(), Some(&[0.0; 8]), 0.001);
        assert!(l.reconstruct > 0.0);
        assert!(l.cluster > 0.0);
        assert!(l.total(0.01) > l.reconstruct);
        let l2 = step(&mut ae, &sample_a(), None, 0.001);
        assert_eq!(l2.cluster, 0.0);
    }

    #[test]
    fn deterministic_construction() {
        let a = LstmAutoencoder::new(16, 4, 4, &tiny_config());
        let b = LstmAutoencoder::new(16, 4, 4, &tiny_config());
        assert_eq!(a.embed(&sample_a()), b.embed(&sample_a()));
    }

    #[test]
    #[should_panic(expected = "bit width mismatch")]
    fn wrong_bit_width_rejected() {
        let ae = LstmAutoencoder::new(16, 4, 8, &tiny_config());
        let _ = ae.embed(&sample_a()); // 4-bit targets, 8-bit model
    }
}
