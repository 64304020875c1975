//! Property-based tests for the black-box reverse-engineering agent:
//! random hidden mappings over several geometries must round-trip to
//! ground truth (in the timing-canonical gauge) from timing alone.
//!
//! **No escape hatch:** the agent receives only a
//! `&mut dyn ProbeTarget`, whose entire surface is `probe_bits()` /
//! `settle()` / `access(va)`. There is no downcast and no ground-truth
//! method on the trait, so the type system guarantees the agent
//! recovers mappings from latencies alone; the privileged comparison
//! against the hidden mapping happens only here, after recovery.

use proptest::prelude::*;
use sdam_hbm::{Geometry, Timing};
use sdam_mapping::{AddressMapping, BitPermutation, BitShuffleMapping, HashMapping, PhysAddr};
use sdam_probe::Agent;
use sdam_sys::{EngineTarget, MappingEngine};

/// Geometries past the default: the paper's HBM2 plus DDR4 and HMC
/// shapes with different channel/col/bank splits.
fn geometries() -> [Geometry; 4] {
    [
        Geometry::hbm2_8gb(),
        Geometry::ddr4_8gb(),
        Geometry::hmc_4gb(),
        Geometry::hbm2_4gb(),
    ]
}

/// Strategy: a random permutation table of length `n`.
fn perm_table(n: usize) -> impl Strategy<Value = Vec<u32>> {
    Just((0..n as u32).collect::<Vec<u32>>()).prop_shuffle()
}

/// Random source sets for a channel hash on `geom`: per channel bit, an
/// arbitrary subset of the bits above the channel field (col, bank, and
/// row bits are all legal sources; bank-field sources are unobservable
/// and compared through the canonical gauge).
fn random_sources(geom: Geometry, masks: &[u64]) -> Vec<Vec<u32>> {
    let ch_hi = geom.line_bits() + geom.channel_bits();
    let width = geom.addr_bits() - ch_hi;
    masks
        .iter()
        .take(geom.channel_bits() as usize)
        .map(|&m| {
            (0..width)
                .filter(|&i| (m >> i) & 1 == 1)
                .map(|i| ch_hi + i)
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_hashes_round_trip_to_canonical_truth(
        geom_idx in 0usize..4,
        m0 in any::<u64>(),
        m1 in any::<u64>(),
        m2 in any::<u64>(),
        m3 in any::<u64>(),
        m4 in any::<u64>(),
    ) {
        let geom = geometries()[geom_idx];
        let sources = random_sources(geom, &[m0, m1, m2, m3, m4]);
        let hm = HashMapping::with_sources(geom.line_bits(), geom.channel_bits(), sources);
        // The hidden hash is a bijection: it is its own inverse.
        for a in [0, m0, m1, m2, m3, m4] {
            let a = a & (geom.capacity_bytes() - 1);
            prop_assert_eq!(hm.map(PhysAddr(hm.map(PhysAddr(a)).raw())).raw(), a);
        }
        let mut target = EngineTarget::new(
            MappingEngine::Global(Box::new(hm.clone())),
            geom,
            Timing::hbm2(),
            0,
            geom.addr_bits(),
        )
        .unwrap();
        let rec = Agent::new(geom).recover_channel_hash(&mut target).unwrap();
        let truth = hm.timing_canonical(geom);
        prop_assert_eq!(rec.channel_lo, truth.channel_lo());
        prop_assert_eq!(rec.sources.as_slice(), truth.sources());
        prop_assert!(rec.confidence >= 0.999);
    }

    #[test]
    fn random_windows_round_trip_to_canonical_truth(
        geom_idx in 0usize..4,
        table in perm_table(9),
    ) {
        let geom = geometries()[geom_idx];
        let lo = geom.line_bits();
        // A 9-bit window fits every geometry here and leaves enough
        // identity row bits above it for one anchor per fold class.
        let perm = BitPermutation::new(lo, table).unwrap();
        let mut target = EngineTarget::new(
            MappingEngine::Global(Box::new(BitShuffleMapping::new(perm.clone()))),
            geom,
            Timing::hbm2(),
            0,
            geom.addr_bits(),
        )
        .unwrap();
        let rec = Agent::new(geom)
            .recover_permutation(&mut target, lo, perm.len() as u32)
            .unwrap();
        let truth = perm.timing_canonical(geom);
        prop_assert_eq!(&rec.perm, &truth);
        // The invert leg: the recovered permutation is a bijection on
        // the window and its inverse undoes it.
        prop_assert_eq!(rec.perm.invert().invert(), rec.perm);
        prop_assert!(rec.confidence >= 0.999);
    }
}
