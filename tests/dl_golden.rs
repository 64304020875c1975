//! Golden fixture for the DL-assisted clustering: the seeded bench
//! workload must keep producing the exact cluster assignments pinned
//! here through the training loop (deduplicated windows, weighted
//! round-robin mini-batches, early stopping).
//!
//! The pipeline's selection quality rides on these assignments — a
//! drift here means the learned mapping selection changed, which must
//! never happen silently. If a deliberate change to the training path
//! or the `laptop()` preset moves them, re-pin the constant below after
//! checking the partition still separates the stride classes.

use sdam::profiling::{self, ProfileData};
use sdam::Experiment;
use sdam_mapping::BitFlipRateVector;
use sdam_ml::dlkmeans::cluster_variables_dl;
use sdam_workloads::datacopy::DataCopy;

/// The pinned assignments for datacopy strides [1, 16] at tiny scale,
/// k = 4, under `TrainingConfig::laptop()` (seed 0x5da1): eight major
/// variables, the stride-1 group separated from the stride-16 group.
const GOLDEN: [usize; 8] = [3, 3, 1, 2, 0, 3, 1, 2];

fn bench_profile() -> (ProfileData, Experiment) {
    let exp = Experiment::quick();
    let w = DataCopy::new(vec![1, 16]);
    (profiling::try_profile_on_baseline(&w, &exp).unwrap(), exp)
}

#[test]
fn seeded_dl_assignments_match_golden() {
    let (data, exp) = bench_profile();
    let traces: Vec<&[u64]> = data.major.iter().map(|v| &data.pa_streams[v][..]).collect();
    let rates: Vec<&[f64]> = data.major.iter().map(|v| data.bfrvs[v].rates()).collect();
    let bits = exp.geometry.addr_bits();
    let r = cluster_variables_dl(&traces, &rates, bits, 4, &exp.training).unwrap();
    assert_eq!(
        r.assignments, GOLDEN,
        "DL selection drifted from the pinned assignments"
    );
}

/// The flip-rate features the DL path computed for itself before it
/// took the profile's BFRVs: a per-bit `f64` count over consecutive
/// pairs, divided by the pair count (at least one).
fn per_bit_f64_rates(t: &[u64], bits: usize) -> Vec<f64> {
    let mut flips = vec![0.0f64; bits];
    for w in t.windows(2) {
        let x = w[0] ^ w[1];
        for (b, f) in flips.iter_mut().enumerate() {
            *f += ((x >> b) & 1) as f64;
        }
    }
    let n = t.len().saturating_sub(1).max(1) as f64;
    flips.iter().map(|f| f / n).collect()
}

fn bits_of(rates: &[f64]) -> Vec<u64> {
    rates.iter().map(|r| r.to_bits()).collect()
}

#[test]
fn dl_features_equal_the_profile_bfrvs() {
    let (data, exp) = bench_profile();
    let bits = exp.geometry.addr_bits();
    for v in &data.major {
        assert_eq!(
            bits_of(data.bfrvs[v].rates()),
            bits_of(&per_bit_f64_rates(&data.pa_streams[v], bits as usize)),
            "variable {v:?}"
        );
    }
    // Streams with no consecutive pair, one access among them, and a
    // stream that flips the top bit of the window.
    let top = 1u64 << (bits - 1);
    for t in [vec![], vec![0x1234_5640], vec![0, top, 64, top | 64, 0]] {
        let bfrv = BitFlipRateVector::from_addrs(t.iter().copied(), bits);
        assert_eq!(
            bits_of(bfrv.rates()),
            bits_of(&per_bit_f64_rates(&t, bits as usize)),
            "stream {t:?}"
        );
    }
}
