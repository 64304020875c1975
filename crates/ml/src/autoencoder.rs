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

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::embedding::Embedding;
use crate::linalg::{add_assign, sigmoid, Mat};
use crate::lstm::{LayerGrads, Lstm};
use crate::optim::Adam;
use crate::par::par_map_indexed;
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

/// Per-work-item gradients of a batched pass. Produced by a pure
/// (`&self`) forward/backward so work items can run on any thread and
/// still reduce in a fixed order.
struct BatchGrads {
    enc: Vec<LayerGrads>,
    dec: Vec<LayerGrads>,
    d_delta: Mat,
    d_vid: Mat,
    dw_out: Mat,
    db_out: Vec<f64>,
}

/// Losses of one training step.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StepLoss {
    /// Reconstruction loss (BCE over Δ bits).
    pub reconstruct: f64,
    /// Clustering loss (`||z − µ||²`; 0 when no target given).
    pub cluster: f64,
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
    pub fn embedding_dim(&self) -> usize {
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

    /// Reconstruction loss of a sample without updating parameters.
    pub fn evaluate(&self, sample: &SeqSample) -> f64 {
        sample.validate(self.bits);
        let inputs = self.encoder_inputs(sample);
        let (top, _) = self.encoder.forward(&inputs);
        let Some(z) = top.last().cloned() else {
            panic!("a validated sample has at least one step");
        };
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

    /// One SGD step on a sample. `cluster_target`, when given, adds the
    /// joint clustering term pulling `z` toward its centroid.
    ///
    /// # Panics
    ///
    /// Panics if the sample is inconsistent or the target has the wrong
    /// dimension.
    pub fn train_step(
        &mut self,
        sample: &SeqSample,
        cluster_target: Option<&[f64]>,
        lr: f64,
    ) -> StepLoss {
        self.zero_grad();
        let loss = self.forward_backward(sample, cluster_target);
        self.apply_step(lr);
        loss
    }

    /// One mini-batch step: gradients are averaged over the batch
    /// (each sample's contribution scaled by `1/batch.len()`) and
    /// applied once — smoother convergence than per-sample SGD on
    /// heterogeneous window sets. Returns the mean loss over the batch
    /// (both fields). A batch of one is exactly equivalent to
    /// [`LstmAutoencoder::train_step`] with no cluster target.
    ///
    /// # Panics
    ///
    /// Panics on an empty batch or inconsistent samples.
    pub fn train_batch(&mut self, batch: &[&SeqSample], lr: f64) -> StepLoss {
        assert!(!batch.is_empty(), "empty mini-batch");
        let scale = 1.0 / batch.len() as f64;
        let mut total = StepLoss::default();
        self.zero_grad();
        for s in batch {
            let l = self.forward_backward_scaled(s, None, scale);
            total.reconstruct += l.reconstruct * scale;
            total.cluster += l.cluster * scale;
        }
        self.apply_step(lr);
        total
    }

    /// One optimizer step over a weighted mini-batch through the
    /// batched kernels. The objective is the weighted mean of the
    /// per-sample joint losses (weights normalized by their sum), so a
    /// deduplicated window with weight *w* contributes exactly like *w*
    /// duplicate windows.
    ///
    /// Samples are grouped by sequence length (the kernels need
    /// rectangular batches), groups are split into bounded work items,
    /// and — when `threads > 1` — the per-item forward/backward fans
    /// out over scoped threads. Each item produces gradients in its own
    /// buffers which are reduced *in input order*, so the parameter
    /// update is bit-identical for every thread count.
    ///
    /// Returns the weighted-mean loss over the batch.
    ///
    /// # Panics
    ///
    /// Panics on an empty batch, non-positive weights, or inconsistent
    /// samples.
    pub fn train_minibatch(
        &mut self,
        items: &[MiniBatchItem<'_>],
        lr: f64,
        threads: usize,
    ) -> StepLoss {
        assert!(!items.is_empty(), "empty mini-batch");
        let w_total: f64 = items.iter().map(|it| it.weight).sum();
        assert!(
            w_total.is_finite() && items.iter().all(|it| it.weight > 0.0),
            "weights must be positive and finite"
        );
        let mut by_len: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, it) in items.iter().enumerate() {
            by_len.entry(it.sample.delta_ids.len()).or_default().push(i);
        }
        // Bounded rectangular work items: big enough to amortize the
        // matmuls, small enough to fan out.
        const MAX_GROUP: usize = 16;
        let work: Vec<Vec<usize>> = by_len
            .values()
            .flat_map(|idxs| idxs.chunks(MAX_GROUP).map(<[usize]>::to_vec))
            .collect();
        let model: &LstmAutoencoder = &*self;
        let results = par_map_indexed(threads, work, |_, idxs| {
            let group: Vec<(&SeqSample, f64, Option<&[f64]>)> = idxs
                .iter()
                .map(|&i| (items[i].sample, items[i].weight / w_total, items[i].target))
                .collect();
            model.forward_backward_batch(&group)
        });
        self.zero_grad();
        let mut total = StepLoss::default();
        for (loss, g) in &results {
            total.reconstruct += loss.reconstruct;
            total.cluster += loss.cluster;
            self.encoder.accumulate_grads(&g.enc);
            self.decoder.accumulate_grads(&g.dec);
            self.delta_embed.accumulate_dense(&g.d_delta);
            self.vid_embed.accumulate_dense(&g.d_vid);
            self.dw_out.add_mat(&g.dw_out);
            add_assign(&mut self.db_out, &g.db_out);
        }
        self.apply_step(lr);
        total
    }

    /// Encodes many samples through the batched kernels (no gradients),
    /// optionally fanning rectangular groups out over `threads`.
    /// Returns one embedding per sample, in input order.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent samples.
    pub fn embed_batch(&self, samples: &[&SeqSample], threads: usize) -> Vec<Vec<f64>> {
        if samples.is_empty() {
            return Vec::new();
        }
        let mut by_len: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, s) in samples.iter().enumerate() {
            s.validate(self.bits);
            by_len.entry(s.delta_ids.len()).or_default().push(i);
        }
        const MAX_GROUP: usize = 32;
        let work: Vec<Vec<usize>> = by_len
            .values()
            .flat_map(|idxs| idxs.chunks(MAX_GROUP).map(<[usize]>::to_vec))
            .collect();
        let results = par_map_indexed(threads, work, |_, idxs| {
            let group: Vec<&SeqSample> = idxs.iter().map(|&i| samples[i]).collect();
            let steps = group[0].delta_ids.len();
            let b = group.len();
            let x_flat = self.pack_encoder_inputs(&group);
            let (top, _) = self.encoder.forward_batch(&x_flat, steps, b);
            let z = top.col_block((steps - 1) * b, steps * b);
            idxs.iter()
                .enumerate()
                .map(|(s, &i)| (i, z.col_to_vec(s)))
                .collect::<Vec<_>>()
        });
        let mut out = vec![Vec::new(); samples.len()];
        for pairs in results {
            for (i, zv) in pairs {
                out[i] = zv;
            }
        }
        out
    }

    /// Packs a rectangular group of samples into the encoder's flat
    /// `2e × (T·B)` input layout (Δ embedding stacked over VID
    /// embedding, column `t·B + s`).
    fn pack_encoder_inputs(&self, group: &[&SeqSample]) -> Mat {
        let steps = group[0].delta_ids.len();
        let b = group.len();
        let e = self.delta_embed.dim();
        let mut x_flat = Mat::zeros(2 * e, steps * b);
        for (s, sample) in group.iter().enumerate() {
            assert_eq!(sample.delta_ids.len(), steps, "mixed lengths in group");
            for t in 0..steps {
                let col = t * b + s;
                let dv = self.delta_embed.lookup(sample.delta_ids[t]);
                let vv = self.vid_embed.lookup(sample.vid_ids[t]);
                for j in 0..e {
                    *x_flat.get_mut(j, col) = dv[j];
                    *x_flat.get_mut(e + j, col) = vv[j];
                }
            }
        }
        x_flat
    }

    /// Pure batched forward + backward over one rectangular group.
    /// `group` holds `(sample, scale, target)` where `scale` is the
    /// sample's normalized weight (already divided by the batch's
    /// total weight). Returns the scaled loss contribution and the
    /// gradients in fresh buffers.
    fn forward_backward_batch(
        &self,
        group: &[(&SeqSample, f64, Option<&[f64]>)],
    ) -> (StepLoss, BatchGrads) {
        let b = group.len();
        let steps = group[0].0.delta_ids.len();
        let h = self.encoder.hidden_dim();
        let e = self.delta_embed.dim();
        for (sample, _, _) in group {
            sample.validate(self.bits);
        }
        let samples: Vec<&SeqSample> = group.iter().map(|(s, _, _)| *s).collect();
        let x_flat = self.pack_encoder_inputs(&samples);
        let (enc_top, enc_cache) = self.encoder.forward_batch(&x_flat, steps, b);
        let z = enc_top.col_block((steps - 1) * b, steps * b);
        let (dec_top, dec_cache) = self.decoder.forward_batch_const(&z, steps);
        let mut logits = self.w_out.matmul(&dec_top);
        logits.add_row_broadcast(&self.b_out);

        let denom = (steps * self.bits) as f64;
        let mut dlogits = Mat::zeros(self.bits, steps * b);
        let mut recon_raw = vec![0.0; b];
        for t in 0..steps {
            for (s, (sample, scale, _)) in group.iter().enumerate() {
                let col = t * b + s;
                for j in 0..self.bits {
                    let p = sigmoid(logits.get(j, col));
                    let y = sample.delta_bits[t][j];
                    recon_raw[s] += bce(p, y);
                    *dlogits.get_mut(j, col) = scale * (p - y) / denom;
                }
            }
        }
        let mut grads = BatchGrads {
            enc: self.encoder.new_grad_buffers(),
            dec: self.decoder.new_grad_buffers(),
            d_delta: Mat::zeros(self.delta_embed.vocab(), e),
            d_vid: Mat::zeros(self.vid_embed.vocab(), e),
            dw_out: dlogits.matmul_nt(&dec_top),
            db_out: dlogits.row_sums(),
        };
        let d_dec_top = self.w_out.matmul_tn(&dlogits);
        let mut dz = self
            .decoder
            .backward_batch(&dec_cache, &d_dec_top, None, &mut grads.dec);

        let mut loss = StepLoss::default();
        for (s, (_, scale, target)) in group.iter().enumerate() {
            loss.reconstruct += scale * recon_raw[s] / denom;
            if let Some(mu) = target {
                assert_eq!(mu.len(), h, "centroid dimension mismatch");
                let mut csum = 0.0;
                for (j, &m) in mu.iter().enumerate() {
                    let diff = z.get(j, s) - m;
                    csum += diff * diff;
                    *dz.get_mut(j, s) += scale * 2.0 * self.lambda * diff;
                }
                loss.cluster += scale * csum;
            }
        }
        let mut d_enc_top = Mat::zeros(h, steps * b);
        d_enc_top.set_col_block((steps - 1) * b, &dz);
        let dx = self
            .encoder
            .backward_batch(&enc_cache, &d_enc_top, None, &mut grads.enc);
        for (s, (sample, _, _)) in group.iter().enumerate() {
            for t in 0..steps {
                let col = t * b + s;
                for j in 0..e {
                    *grads.d_delta.get_mut(sample.delta_ids[t], j) += dx.get(j, col);
                    *grads.d_vid.get_mut(sample.vid_ids[t], j) += dx.get(e + j, col);
                }
            }
        }
        (loss, grads)
    }

    /// Forward + backward for one sample without zeroing or stepping;
    /// returns the losses. Factored out of
    /// [`LstmAutoencoder::train_step`] for mini-batching.
    fn forward_backward(&mut self, sample: &SeqSample, cluster_target: Option<&[f64]>) -> StepLoss {
        self.forward_backward_scaled(sample, cluster_target, 1.0)
    }

    /// [`LstmAutoencoder::forward_backward`] with every accumulated
    /// gradient scaled by `grad_scale` (mini-batch averaging). The
    /// returned loss is the *unscaled* per-sample loss.
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
        let dec_inputs = vec![z.clone(); steps];
        let (dec_top, dec_cache) = self.decoder.forward(&dec_inputs);

        let mut loss = 0.0;
        let mut d_dec_top = vec![vec![0.0; self.decoder.hidden_dim()]; steps];
        for t in 0..steps {
            let mut logits = self.w_out.matvec(&dec_top[t]);
            add_assign(&mut logits, &self.b_out);
            let mut dlogits = vec![0.0; self.bits];
            for j in 0..self.bits {
                let p = sigmoid(logits[j]);
                let y = sample.delta_bits[t][j];
                loss += bce(p, y);
                dlogits[j] = grad_scale * (p - y) / denom;
            }
            self.dw_out.add_outer(&dlogits, &dec_top[t]);
            add_assign(&mut self.db_out, &dlogits);
            d_dec_top[t] = self.w_out.matvec_t(&dlogits);
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
            .map(|(&d, &v)| {
                let mut x = self.delta_embed.lookup(d);
                x.extend(self.vid_embed.lookup(v));
                x
            })
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

    #[test]
    fn training_reduces_reconstruction_loss() {
        let mut ae = LstmAutoencoder::new(16, 4, 4, &tiny_config());
        let initial = ae.evaluate(&sample_a()) + ae.evaluate(&sample_b());
        for _ in 0..300 {
            ae.train_step(&sample_a(), None, 0.01);
            ae.train_step(&sample_b(), None, 0.01);
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
            ae.train_step(&sample_a(), None, 0.01);
            ae.train_step(&sample_b(), None, 0.01);
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
            ae.train_step(&sample_a(), Some(&mu), 0.01);
        }
        let after = crate::linalg::sq_dist(&ae.embed(&sample_a()), &mu);
        assert!(after < before, "cluster distance {before} -> {after}");
    }

    #[test]
    fn mini_batch_training_converges() {
        let mut ae = LstmAutoencoder::new(16, 4, 4, &tiny_config());
        let samples = [sample_a(), sample_b()];
        let refs: Vec<&SeqSample> = samples.iter().collect();
        let initial = ae.evaluate(&sample_a()) + ae.evaluate(&sample_b());
        for _ in 0..300 {
            ae.train_batch(&refs, 0.01);
        }
        let trained = ae.evaluate(&sample_a()) + ae.evaluate(&sample_b());
        assert!(trained < initial * 0.5, "{initial} -> {trained}");
    }

    #[test]
    #[should_panic(expected = "empty mini-batch")]
    fn empty_batch_rejected() {
        let mut ae = LstmAutoencoder::new(16, 4, 4, &tiny_config());
        let _ = ae.train_batch(&[], 0.01);
    }

    #[test]
    fn batch_of_one_identical_to_train_step() {
        // Regression for the gradient-scaling bug: with the old
        // unscaled accumulation this held only by accident of B = 1,
        // but the losses and parameter updates must be *bit-identical*
        // so larger batches are exact means, not sums.
        let mut via_batch = LstmAutoencoder::new(16, 4, 4, &tiny_config());
        let mut via_step = via_batch.clone();
        for _ in 0..5 {
            let a = sample_a();
            let lb = via_batch.train_batch(&[&a], 0.01);
            let ls = via_step.train_step(&a, None, 0.01);
            assert_eq!(lb, ls, "losses diverged");
        }
        assert_eq!(via_batch.embed(&sample_a()), via_step.embed(&sample_a()));
        assert_eq!(
            via_batch.evaluate(&sample_b()),
            via_step.evaluate(&sample_b())
        );
    }

    #[test]
    fn train_batch_returns_mean_loss_of_batch() {
        // Both per-sample passes of a batch see the same (pre-update)
        // parameters, so the reported loss must equal the mean of the
        // losses train_step would report on clones.
        let ae = LstmAutoencoder::new(16, 4, 4, &tiny_config());
        let (a, b) = (sample_a(), sample_b());
        let la = ae.clone().train_step(&a, None, 1e-9).reconstruct;
        let lb = ae.clone().train_step(&b, None, 1e-9).reconstruct;
        let batch = ae.clone().train_batch(&[&a, &b], 1e-9);
        assert!(
            (batch.reconstruct - (la + lb) / 2.0).abs() < 1e-12,
            "{} vs mean {}",
            batch.reconstruct,
            (la + lb) / 2.0
        );
        assert_eq!(batch.cluster, 0.0);
    }

    #[test]
    fn minibatch_matches_per_sample_batch() {
        // The batched-kernel path and the per-step reference path must
        // produce the same optimizer step (up to fp reassociation).
        let mut fast = LstmAutoencoder::new(16, 4, 4, &tiny_config());
        let mut reference = fast.clone();
        let (a, b) = (sample_a(), sample_b());
        for _ in 0..10 {
            let items = [
                MiniBatchItem {
                    sample: &a,
                    weight: 1.0,
                    target: None,
                },
                MiniBatchItem {
                    sample: &b,
                    weight: 1.0,
                    target: None,
                },
            ];
            let lf = fast.train_minibatch(&items, 0.01, 1);
            let lr = reference.train_batch(&[&a, &b], 0.01);
            assert!(
                (lf.reconstruct - lr.reconstruct).abs() < 1e-9,
                "loss diverged: {} vs {}",
                lf.reconstruct,
                lr.reconstruct
            );
        }
        let zf = fast.embed(&sample_a());
        let zr = reference.embed(&sample_a());
        for (x, y) in zf.iter().zip(&zr) {
            assert!((x - y).abs() < 1e-6, "params diverged: {x} vs {y}");
        }
    }

    #[test]
    fn minibatch_with_targets_pulls_toward_centroid() {
        let mut ae = LstmAutoencoder::new(16, 4, 4, &tiny_config());
        ae.lambda = 10.0;
        let a = sample_a();
        let mu = vec![0.0; ae.embedding_dim()];
        let before = crate::linalg::sq_dist(&ae.embed(&a), &mu);
        for _ in 0..100 {
            let items = [MiniBatchItem {
                sample: &a,
                weight: 1.0,
                target: Some(&mu),
            }];
            let l = ae.train_minibatch(&items, 0.01, 1);
            assert!(l.cluster >= 0.0);
        }
        let after = crate::linalg::sq_dist(&ae.embed(&a), &mu);
        assert!(after < before, "cluster distance {before} -> {after}");
    }

    #[test]
    fn minibatch_weight_equals_duplication() {
        // weight = 2 must act like listing the sample twice (the
        // dedup-with-multiplicity contract of the training loop).
        let mut by_weight = LstmAutoencoder::new(16, 4, 4, &tiny_config());
        let mut by_dup = by_weight.clone();
        let (a, b) = (sample_a(), sample_b());
        for _ in 0..5 {
            by_weight.train_minibatch(
                &[
                    MiniBatchItem {
                        sample: &a,
                        weight: 2.0,
                        target: None,
                    },
                    MiniBatchItem {
                        sample: &b,
                        weight: 1.0,
                        target: None,
                    },
                ],
                0.01,
                1,
            );
            by_dup.train_minibatch(
                &[
                    MiniBatchItem {
                        sample: &a,
                        weight: 1.0,
                        target: None,
                    },
                    MiniBatchItem {
                        sample: &a,
                        weight: 1.0,
                        target: None,
                    },
                    MiniBatchItem {
                        sample: &b,
                        weight: 1.0,
                        target: None,
                    },
                ],
                0.01,
                1,
            );
        }
        for (x, y) in by_weight.embed(&a).iter().zip(&by_dup.embed(&a)) {
            assert!((x - y).abs() < 1e-9, "weighting diverged: {x} vs {y}");
        }
    }

    #[test]
    fn minibatch_bit_identical_across_thread_counts() {
        // The deterministic-reduction contract: same update for any
        // thread count, exactly.
        let (a, b) = (sample_a(), sample_b());
        let mut models: Vec<LstmAutoencoder> = Vec::new();
        for threads in [1usize, 2, 4] {
            let mut m = LstmAutoencoder::new(16, 4, 4, &tiny_config());
            for _ in 0..4 {
                // Three rectangular groups: a 4-step pair and a longer
                // window, exercising the by-length grouping.
                let long = SeqSample {
                    delta_ids: vec![1, 2, 3, 1, 2, 3],
                    vid_ids: vec![2; 6],
                    delta_bits: vec![vec![1.0, 1.0, 0.0, 0.0]; 6],
                };
                let items = [
                    MiniBatchItem {
                        sample: &a,
                        weight: 1.0,
                        target: None,
                    },
                    MiniBatchItem {
                        sample: &b,
                        weight: 3.0,
                        target: None,
                    },
                    MiniBatchItem {
                        sample: &long,
                        weight: 2.0,
                        target: None,
                    },
                ];
                m.train_minibatch(&items, 0.01, threads);
            }
            models.push(m);
        }
        let z0 = models[0].embed(&a);
        for m in &models[1..] {
            assert_eq!(z0, m.embed(&a), "threaded update diverged");
        }
    }

    #[test]
    fn embed_batch_matches_embed() {
        let mut ae = LstmAutoencoder::new(16, 4, 4, &tiny_config());
        for _ in 0..20 {
            ae.train_step(&sample_a(), None, 0.01);
        }
        let (a, b) = (sample_a(), sample_b());
        let long = SeqSample {
            delta_ids: vec![3, 2, 1, 3, 2],
            vid_ids: vec![1; 5],
            delta_bits: vec![vec![0.0, 0.0, 1.0, 1.0]; 5],
        };
        let samples = [&a, &b, &long];
        for threads in [1usize, 3] {
            let zs = ae.embed_batch(&samples, threads);
            assert_eq!(zs.len(), 3);
            for (i, s) in samples.iter().enumerate() {
                let oracle = ae.embed(s);
                for (x, y) in zs[i].iter().zip(&oracle) {
                    assert!((x - y).abs() < 1e-10, "sample {i}: {x} vs {y}");
                }
            }
        }
        assert!(ae.embed_batch(&[], 1).is_empty());
    }

    #[test]
    fn loss_reporting() {
        let mut ae = LstmAutoencoder::new(16, 4, 4, &tiny_config());
        let l = ae.train_step(&sample_a(), Some(&[0.0; 8]), 0.001);
        assert!(l.reconstruct > 0.0);
        assert!(l.cluster > 0.0);
        assert!(l.total(0.01) > l.reconstruct);
        let l2 = ae.train_step(&sample_a(), None, 0.001);
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
