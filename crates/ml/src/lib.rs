//! # sdam-ml — machine-learned address-mapping selection
//!
//! The SDAM paper (§6.2) offers two automatic ways to reduce many
//! per-variable access patterns to a few address mappings:
//!
//! 1. **K-Means on bit-flip-rate vectors** — fast, works when variables
//!    are few ([`mod@kmeans`]).
//! 2. **DL-assisted K-Means** — an embedding-LSTM autoencoder over
//!    `(Δ, VID)` sequences learns a clustering-friendly representation;
//!    K-Means runs on the embeddings, and training continues with the
//!    joint loss `L_total = L_reconstruct + λ·L_cluster`
//!    ([`autoencoder`], [`dlkmeans`]).
//!
//! The paper trained with TensorFlow-era tooling on an i7 workstation;
//! we implement the model from scratch (manual backpropagation, Adam)
//! with the paper's hyper-parameters in [`config::TrainingConfig`]
//! (Table 2) and a downscaled `laptop()` preset used by the benches.
//!
//! ## Example: clustering stride patterns
//!
//! ```
//! use sdam_ml::kmeans::{kmeans, KMeansConfig};
//!
//! // Two obvious groups of 2-D points.
//! let points = vec![
//!     vec![0.0, 0.1], vec![0.1, 0.0], vec![0.05, 0.05],
//!     vec![1.0, 0.9], vec![0.9, 1.0], vec![0.95, 0.95],
//! ];
//! let result = kmeans(&points, &KMeansConfig { k: 2, ..Default::default() })?;
//! assert_eq!(result.assignments[0], result.assignments[1]);
//! assert_ne!(result.assignments[0], result.assignments[3]);
//! # Ok::<(), sdam_ml::KMeansError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod autoencoder;
pub mod config;
pub mod dlkmeans;
mod embedding;
pub mod kmeans;
mod linalg;
mod lstm;
mod optim;

pub use config::{TrainingConfig, TrainingError};
pub use kmeans::{kmeans, Clustering, KMeansConfig, KMeansError};
