//! Criterion benches for the mapping-selection learners: K-Means on
//! BFRVs and one LSTM-autoencoder training step (the unit the paper's
//! Fig. 13 cost is made of).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sdam_ml::autoencoder::{LstmAutoencoder, MiniBatchItem, SeqSample};
use sdam_ml::{kmeans, KMeansConfig, TrainingConfig};

fn bfrv_points(n: usize) -> Vec<Vec<f64>> {
    // Synthetic BFRVs of strided patterns: geometric decay starting at
    // a per-point bit position.
    (0..n)
        .map(|i| {
            let start = i % 10;
            (0..33)
                .map(|b| {
                    if b >= start {
                        0.5f64.powi((b - start) as i32)
                    } else {
                        0.0
                    }
                })
                .collect()
        })
        .collect()
}

fn bench_kmeans(c: &mut Criterion) {
    let points = bfrv_points(64);
    let mut g = c.benchmark_group("kmeans_64_bfrvs");
    for k in [4usize, 32] {
        g.bench_function(format!("k{k}"), |b| {
            b.iter(|| {
                black_box(kmeans(
                    &points,
                    &KMeansConfig {
                        k,
                        ..Default::default()
                    },
                ))
            })
        });
    }
    g.finish();
}

fn bench_lstm_step(c: &mut Criterion) {
    let cfg = TrainingConfig::laptop();
    let mut ae = LstmAutoencoder::new(64, 8, 33, &cfg);
    let sample = SeqSample {
        delta_ids: (0..cfg.seq_len).map(|i| i % 64).collect(),
        vid_ids: vec![0; cfg.seq_len],
        delta_bits: (0..cfg.seq_len)
            .map(|i| (0..33).map(|b| ((i >> (b % 4)) & 1) as f64).collect())
            .collect(),
    };
    let batch = [MiniBatchItem {
        sample: &sample,
        weight: 1.0,
        target: None,
    }];
    c.bench_function("lstm_autoencoder_train_step", |b| {
        b.iter(|| black_box(ae.train_minibatch(&batch, cfg.learning_rate)))
    });
}

criterion_group!(benches, bench_kmeans, bench_lstm_step);
criterion_main!(benches);
