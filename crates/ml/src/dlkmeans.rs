//! DL-assisted K-Means: the paper's full §6.2 pipeline.
//!
//! Per-variable address traces become `(Δ, VID)` sequences; the
//! [`LstmAutoencoder`] learns a clustering-friendly embedding; K-Means
//! runs on the embeddings; training continues with the joint loss; the
//! final clusters assign one address mapping per cluster.
//!
//! [`cluster_variables_dl`] runs the four phases as one loop on the
//! per-step LSTM kernels. Duplicate windows are collapsed to one
//! weighted sample each, both training phases walk weighted
//! mini-batches of four round-robin, a deterministic patience rule
//! stops each phase once the joint loss plateaus, and the phase-2
//! embeddings are reused verbatim for the final clustering when the
//! joint phase executed no optimizer step.

use std::collections::HashMap;

use crate::autoencoder::{LstmAutoencoder, MiniBatchItem, SeqSample};
use crate::kmeans::{kmeans, KMeansConfig, KMeansError};
use crate::{TrainingConfig, TrainingError};

/// XOR deltas between consecutive addresses (the paper's Δ).
///
/// An input of fewer than two addresses yields an empty delta trace.
fn deltas(addrs: &[u64]) -> Vec<u64> {
    addrs.windows(2).map(|w| w[0] ^ w[1]).collect()
}

/// A capped vocabulary over Δ values. Id 0 is the unknown/overflow slot.
#[derive(Debug, Clone, Default)]
pub(crate) struct DeltaVocab {
    map: HashMap<u64, usize>,
}

impl DeltaVocab {
    /// Builds a vocabulary from delta streams, keeping the first
    /// `cap - 1` distinct values (slot 0 is reserved for the rest).
    ///
    /// # Panics
    ///
    /// Panics if `cap < 2`.
    pub(crate) fn build<'a, I>(streams: I, cap: usize) -> Self
    where
        I: IntoIterator<Item = &'a [u64]>,
    {
        assert!(
            cap >= 2,
            "vocabulary must have room beyond the unknown slot"
        );
        let mut map = HashMap::new();
        // Once the vocabulary is full no further stream can add
        // anything — short-circuit across streams, not just within one.
        'streams: for s in streams {
            for &d in s {
                if map.len() + 1 >= cap {
                    break 'streams;
                }
                let next = map.len() + 1;
                map.entry(d).or_insert(next);
            }
        }
        DeltaVocab { map }
    }

    /// Vocabulary size including the unknown slot.
    pub fn len(&self) -> usize {
        self.map.len() + 1
    }

    /// Looks a delta up (0 for out-of-vocabulary).
    pub(crate) fn id_of(&self, delta: u64) -> usize {
        self.map.get(&delta).copied().unwrap_or(0)
    }
}

/// Why [`cluster_variables_dl`] refused its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DlError {
    /// The address width is not in `1..=64`.
    AddrBits(u32),
    /// The flip rates are not one `addr_bits`-wide vector per trace.
    FlipRates,
    /// The training configuration is invalid.
    Training(TrainingError),
    /// A K-Means run refused its points.
    KMeans(KMeansError),
}

impl std::fmt::Display for DlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DlError::AddrBits(bits) => write!(f, "address width {bits} is not in 1..=64"),
            DlError::FlipRates => {
                write!(f, "flip rates must be one address-wide vector per trace")
            }
            DlError::Training(e) => write!(f, "{e}"),
            DlError::KMeans(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DlError::AddrBits(_) | DlError::FlipRates => None,
            DlError::Training(e) => Some(e),
            DlError::KMeans(e) => Some(e),
        }
    }
}

impl From<TrainingError> for DlError {
    fn from(e: TrainingError) -> Self {
        DlError::Training(e)
    }
}

impl From<KMeansError> for DlError {
    fn from(e: KMeansError) -> Self {
        DlError::KMeans(e)
    }
}

/// The result of the DL-assisted clustering.
#[derive(Debug, Clone)]
pub struct DlClustering {
    /// Cluster index per input variable (parallel to the input order).
    pub assignments: Vec<usize>,
    /// Number of autoencoder training steps executed.
    pub train_steps: usize,
}

/// Converts a variable's Δ trace into training windows.
fn windows_for(
    ds: &[u64],
    vid: usize,
    vocab: &DeltaVocab,
    bits: usize,
    seq_len: usize,
    max_windows: usize,
) -> Vec<SeqSample> {
    let mut out = Vec::new();
    for chunk in ds.chunks(seq_len) {
        if chunk.len() < 2 {
            continue;
        }
        out.push(SeqSample {
            delta_ids: chunk.iter().map(|&d| vocab.id_of(d)).collect(),
            vid_ids: vec![vid; chunk.len()],
            delta_bits: chunk
                .iter()
                .map(|&d| (0..bits).map(|b| ((d >> b) & 1) as f64).collect())
                .collect(),
        });
        if out.len() >= max_windows {
            break;
        }
    }
    out
}

/// Deterministic early stopping: stop once the loss has gone
/// `patience` consecutive updates without beating its best value by at
/// least `min_delta`. `patience == 0` disables the rule.
struct EarlyStop {
    best: f64,
    bad: usize,
    patience: usize,
    min_delta: f64,
}

impl EarlyStop {
    fn new(patience: usize, min_delta: f64) -> Self {
        EarlyStop {
            best: f64::INFINITY,
            bad: 0,
            patience,
            min_delta,
        }
    }

    /// Feeds one loss observation; returns `true` when training should
    /// stop.
    fn update(&mut self, loss: f64) -> bool {
        if self.patience == 0 {
            return false;
        }
        if loss < self.best - self.min_delta {
            self.best = loss;
            self.bad = 0;
        } else {
            self.bad += 1;
        }
        self.bad >= self.patience
    }
}

/// Collapses duplicate windows into one weighted sample each,
/// preserving first-seen order. Stride-dominated traces repeat the same
/// Δ window over and over; training each distinct window once with its
/// multiplicity as weight is mathematically the same objective at a
/// fraction of the flops.
fn dedup_windows(ws: &[SeqSample]) -> Vec<(SeqSample, f64)> {
    let mut index: HashMap<(Vec<usize>, Vec<u64>), usize> = HashMap::new();
    let mut out: Vec<(SeqSample, f64)> = Vec::new();
    for w in ws {
        let masks: Vec<u64> = w
            .delta_bits
            .iter()
            .map(|bits| {
                bits.iter()
                    .enumerate()
                    .fold(0u64, |m, (i, &b)| if b != 0.0 { m | (1 << i) } else { m })
            })
            .collect();
        let key = (w.delta_ids.clone(), masks);
        match index.get(&key) {
            Some(&i) => out[i].1 += 1.0,
            None => {
                index.insert(key, out.len());
                out.push((w.clone(), 1.0));
            }
        }
    }
    out
}

/// Windows per mini-batch. Batches walk the deduplicated windows
/// round-robin — no sampling RNG; coverage of every distinct window per
/// cycle.
const BATCH: usize = 4;

/// One training phase: up to `cap` mini-batches over `uniq`, window `i`
/// weighted by `weight[i]` and pulled toward `target(i)` (`None` trains
/// reconstruction only), until the phase's own [`EarlyStop`] fires.
/// Returns the steps this phase ran.
fn train_phase<'t>(
    ae: &mut LstmAutoencoder,
    uniq: &[SeqSample],
    weight: &[f64],
    cap: usize,
    target: impl Fn(usize) -> Option<&'t [f64]>,
    config: &TrainingConfig,
) -> usize {
    let mut stop = EarlyStop::new(config.patience, config.min_delta);
    for step in 0..cap {
        let items: Vec<MiniBatchItem<'_>> = (0..BATCH.min(uniq.len()))
            .map(|j| {
                let i = (step * BATCH + j) % uniq.len();
                MiniBatchItem {
                    sample: &uniq[i],
                    weight: weight[i],
                    target: target(i),
                }
            })
            .collect();
        let l = ae.train_minibatch(&items, config.learning_rate);
        if stop.update(l.total(config.lambda)) {
            return step + 1;
        }
    }
    cap
}

/// Runs the full DL-assisted K-Means pipeline over per-variable address
/// traces (`traces[i]` is the ordered address stream of variable `i`).
/// `flip_rates[i]` is the bit-flip-rate vector of `traces[i]` over
/// `addr_bits` bits (the profile's BFRV); it is appended to the
/// learned embedding before clustering.
///
/// Phases, following the paper: (1) train the autoencoder on
/// reconstruction only; (2) K-Means on the embeddings; (3) continue
/// training with the joint loss; (4) final K-Means. Each training phase
/// runs weighted mini-batches of deduplicated windows and stops early
/// once the joint loss plateaus (see [`TrainingConfig::patience`]);
/// `config.steps` stays the hard cap.
///
/// Variables with fewer than three accesses produce no windows and are
/// assigned to cluster 0.
///
/// # Errors
///
/// [`DlError::KMeans`] with [`KMeansError::NoPoints`] if `traces` is
/// empty, [`KMeansError::ZeroClusters`] if `k` is zero, or any other
/// error of the two [`kmeans`] runs (a non-finite embedding);
/// [`DlError::AddrBits`] if `addr_bits` is not in `1..=64`;
/// [`DlError::FlipRates`] unless `flip_rates` holds one vector of
/// `addr_bits` rates per trace; and [`DlError::Training`] if `config`
/// is invalid. Every input is checked before training starts.
pub fn cluster_variables_dl(
    traces: &[&[u64]],
    flip_rates: &[&[f64]],
    addr_bits: u32,
    k: usize,
    config: &TrainingConfig,
) -> Result<DlClustering, DlError> {
    if traces.is_empty() {
        return Err(KMeansError::NoPoints.into());
    }
    if k == 0 {
        return Err(KMeansError::ZeroClusters.into());
    }
    if !(1..=64).contains(&addr_bits) {
        return Err(DlError::AddrBits(addr_bits));
    }
    let bits = addr_bits as usize;
    if flip_rates.len() != traces.len() || flip_rates.iter().any(|r| r.len() != bits) {
        return Err(DlError::FlipRates);
    }
    config.try_validate()?;

    let delta_streams: Vec<Vec<u64>> = traces.iter().map(|t| deltas(t)).collect();
    let vocab = DeltaVocab::build(
        delta_streams.iter().map(|v| v.as_slice()),
        config.delta_vocab_cap,
    );

    // The flip rates are appended to the learned embedding before
    // clustering. The paper clusters on the embedding alone; we found
    // that on workloads whose BFRVs are already clean the hybrid
    // representation lets the DL path never fall below the plain-K-Means
    // path while keeping the embedding's tie-breaking power on messy
    // traces.

    // Windows per variable (at most 8, so no variable dominates
    // training), deduplicated: `uniq[i]` carries `weight[i]` duplicates
    // and belongs to variable `owner[i]`.
    let max_windows = 8;
    let mut uniq: Vec<SeqSample> = Vec::new();
    let mut weight: Vec<f64> = Vec::new();
    let mut owner: Vec<usize> = Vec::new();
    // Window ranges per variable, for the per-variable embedding mean.
    let mut var_ranges: Vec<std::ops::Range<usize>> = Vec::new();
    for (vid, ds) in delta_streams.iter().enumerate() {
        let ws = windows_for(ds, vid, &vocab, bits, config.seq_len, max_windows);
        let start = uniq.len();
        for (w, mult) in dedup_windows(&ws) {
            uniq.push(w);
            weight.push(mult);
            owner.push(vid);
        }
        var_ranges.push(start..uniq.len());
    }

    let mut ae = LstmAutoencoder::new(vocab.len().max(2), traces.len(), bits, config);

    let embed_vars = |ae: &LstmAutoencoder| -> Vec<Vec<f64>> {
        var_ranges
            .iter()
            .zip(flip_rates)
            .map(|(range, bfrv)| {
                let mut acc = vec![0.0; ae.embedding_dim()];
                if !range.is_empty() {
                    let mut wsum = 0.0;
                    for i in range.clone() {
                        wsum += weight[i];
                        for (a, v) in acc.iter_mut().zip(ae.embed(&uniq[i])) {
                            *a += weight[i] * v;
                        }
                    }
                    for a in &mut acc {
                        *a /= wsum;
                    }
                }
                // Hybrid representation: embedding ⊕ BFRV.
                acc.extend(bfrv.iter().map(|r| r * 2.0));
                acc
            })
            .collect()
    };

    let kcfg = KMeansConfig {
        k,
        seed: config.seed,
        ..KMeansConfig::default()
    };

    let mut train_steps = 0;
    let mut phase2_embeddings = None;

    if !uniq.is_empty() {
        // Phase 1: reconstruction pre-training.
        let phase1_cap = config.steps / 2;
        train_steps = train_phase(&mut ae, &uniq, &weight, phase1_cap, |_| None, config);
        // Phase 2: initial clustering on embeddings.
        let embeddings = embed_vars(&ae);
        let clustering = kmeans(&embeddings, &kcfg)?;
        phase2_embeddings = Some(embeddings);
        // Phase 3: joint training against assigned centroids. Pull the
        // embedding toward the embedding-part of the centroid (the
        // BFRV features are fixed, not trainable).
        let dim = ae.embedding_dim();
        let centroid_of =
            |i: usize| Some(&clustering.centroids[clustering.assignments[owner[i]]][..dim]);
        let phase3_cap = config.steps.saturating_sub(phase1_cap);
        let phase3_steps = train_phase(&mut ae, &uniq, &weight, phase3_cap, centroid_of, config);
        train_steps += phase3_steps;
        if phase3_steps > 0 {
            phase2_embeddings = None; // parameters moved; re-encode
        }
    }

    // Phase 4: final clustering — reusing the phase-2 embeddings when
    // the joint phase did not move the parameters.
    let embeddings = match phase2_embeddings {
        Some(e) => e,
        None => embed_vars(&ae),
    };
    Ok(DlClustering {
        assignments: kmeans(&embeddings, &kcfg)?.assignments,
        train_steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stride_trace(stride: u64, n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| i * stride * 64).collect()
    }

    /// Each trace's flip rates over `bits` bits: the fraction of
    /// consecutive pairs in which each bit differs (zero without pairs).
    fn flip_rates(traces: &[Vec<u64>], bits: u32) -> Vec<Vec<f64>> {
        traces
            .iter()
            .map(|t| {
                let pairs = t.len().saturating_sub(1).max(1) as f64;
                (0..bits)
                    .map(|b| {
                        let flips = t.windows(2).filter(|w| (w[0] ^ w[1]) >> b & 1 == 1);
                        flips.count() as f64 / pairs
                    })
                    .collect()
            })
            .collect()
    }

    /// `cluster_variables_dl` over owned traces at `bits` bits.
    fn cluster(
        traces: &[Vec<u64>],
        bits: u32,
        k: usize,
        cfg: &TrainingConfig,
    ) -> Result<DlClustering, DlError> {
        let rates = flip_rates(traces, bits);
        let traces: Vec<&[u64]> = traces.iter().map(Vec::as_slice).collect();
        let rates: Vec<&[f64]> = rates.iter().map(Vec::as_slice).collect();
        cluster_variables_dl(&traces, &rates, bits, k, cfg)
    }

    #[test]
    fn deltas_are_xors() {
        assert_eq!(deltas(&[1, 3, 7]), vec![2, 4]);
        assert!(deltas(&[5]).is_empty());
        assert!(deltas(&[]).is_empty());
    }

    #[test]
    fn vocab_caps_and_reserves_unknown() {
        let s1 = vec![1u64, 2, 3, 4, 5];
        let v = DeltaVocab::build([s1.as_slice()], 4);
        assert_eq!(v.len(), 4); // UNK + 3 kept
        assert_ne!(v.id_of(1), 0);
        assert_eq!(v.id_of(99), 0);
    }

    #[test]
    fn vocab_caps_across_multiple_streams() {
        let a = vec![1u64, 2];
        let b = vec![3u64, 4, 5];
        let v = DeltaVocab::build([a.as_slice(), b.as_slice()], 4);
        assert_eq!(v.len(), 4); // UNK + 1, 2, 3
        assert_ne!(v.id_of(3), 0);
        assert_eq!(v.id_of(4), 0);
        assert_eq!(v.id_of(5), 0);
    }

    #[test]
    fn vocab_cap_short_circuits_across_streams() {
        // A full vocabulary must stop consuming streams entirely: the
        // second stream here panics if it is ever produced.
        let s1: Vec<u64> = (1..=10).collect();
        let poisoned = std::iter::once(s1.as_slice()).chain(std::iter::once_with(|| -> &[u64] {
            panic!("second stream iterated past the cap")
        }));
        let v = DeltaVocab::build(poisoned, 4);
        assert_eq!(v.len(), 4);
    }

    #[test]
    fn same_stride_variables_cluster_together() {
        // Four variables: two stride-1, two stride-16 — should form two
        // clusters that separate the strides.
        let traces = vec![
            stride_trace(1, 200),
            stride_trace(1, 200),
            stride_trace(16, 200),
            stride_trace(16, 200),
        ];
        let cfg = TrainingConfig {
            steps: 200,
            ..TrainingConfig::laptop()
        };
        let r = cluster(&traces, 33, 2, &cfg).unwrap();
        assert_eq!(r.assignments.len(), 4);
        assert_eq!(r.assignments[0], r.assignments[1], "stride-1 pair split");
        assert_eq!(r.assignments[2], r.assignments[3], "stride-16 pair split");
        assert_ne!(r.assignments[0], r.assignments[2], "strides merged");
        assert!(r.train_steps > 0);
    }

    #[test]
    fn early_stop_patience_rule() {
        let mut s = EarlyStop::new(2, 0.1);
        assert!(!s.update(1.0)); // best = 1.0
        assert!(!s.update(0.95)); // within min_delta: bad = 1
        assert!(s.update(0.99)); // bad = 2 -> stop
        let mut s = EarlyStop::new(2, 0.1);
        assert!(!s.update(1.0));
        assert!(!s.update(0.8)); // real improvement resets
        assert!(!s.update(0.79));
        assert!(s.update(0.78));
        // patience == 0 never stops.
        let mut s = EarlyStop::new(0, 0.1);
        for _ in 0..100 {
            assert!(!s.update(1.0));
        }
    }

    #[test]
    fn dedup_collapses_repeated_windows() {
        // A ping-pong trace has one constant XOR Δ: every window is
        // identical, so dedup must collapse them all into one sample
        // carrying the full multiplicity.
        let t: Vec<u64> = (0..200u64).map(|i| (i % 2) * 64).collect();
        let cfg = TrainingConfig::laptop();
        let ds = deltas(&t);
        let vocab = DeltaVocab::build([ds.as_slice()], cfg.delta_vocab_cap);
        let ws = windows_for(&ds, 0, &vocab, 33, cfg.seq_len, 8);
        assert!(ws.len() > 1);
        let uniq = dedup_windows(&ws);
        assert_eq!(uniq.len(), 1, "identical windows not collapsed");
        assert_eq!(uniq[0].1, ws.len() as f64, "multiplicity lost");
        // Distinct windows stay distinct.
        let t2: Vec<u64> = (0..40u64).map(|i| i * i * 64).collect();
        let ws2 = windows_for(&deltas(&t2), 0, &vocab, 33, cfg.seq_len, 8);
        let uniq2 = dedup_windows(&ws2);
        assert!(uniq2.len() > 1, "distinct windows merged");
        let total: f64 = uniq2.iter().map(|(_, w)| w).sum();
        assert_eq!(total, ws2.len() as f64);
    }

    #[test]
    fn tiny_traces_do_not_crash() {
        let traces = vec![vec![0u64], vec![64, 128, 192, 256]];
        let cfg = TrainingConfig {
            steps: 10,
            ..TrainingConfig::laptop()
        };
        let r = cluster(&traces, 33, 2, &cfg).unwrap();
        assert_eq!(r.assignments.len(), 2);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let traces = vec![stride_trace(1, 100), stride_trace(8, 100)];
        let cfg = TrainingConfig {
            steps: 50,
            ..TrainingConfig::laptop()
        };
        let a = cluster(&traces, 33, 2, &cfg).unwrap();
        let b = cluster(&traces, 33, 2, &cfg).unwrap();
        assert_eq!(a.assignments, b.assignments);
    }

    #[test]
    fn degenerate_inputs_are_typed_errors() {
        let cfg = TrainingConfig::laptop();
        let r = cluster(&[], 33, 2, &cfg);
        assert_eq!(r.err(), Some(DlError::KMeans(KMeansError::NoPoints)));
        let r = cluster(&[stride_trace(1, 20)], 33, 0, &cfg);
        assert_eq!(r.err(), Some(DlError::KMeans(KMeansError::ZeroClusters)));
        // Flip rates of the wrong count or width.
        let t = stride_trace(1, 20);
        let rates = flip_rates(std::slice::from_ref(&t), 33);
        for (traces, rates) in [
            (vec![t.as_slice(), t.as_slice()], vec![rates[0].as_slice()]),
            (vec![t.as_slice()], vec![&rates[0][..32]]),
        ] {
            let r = cluster_variables_dl(&traces, &rates, 33, 2, &cfg);
            assert_eq!(r.err(), Some(DlError::FlipRates));
        }
    }
}
