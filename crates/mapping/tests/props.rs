//! Property tests local to the mapping layer: permutation inversion,
//! descriptor compilation, and hash-optimizer invariants.

use proptest::prelude::*;
use sdam_hbm::Geometry;
use sdam_mapping::descriptor::MappingDescriptor;
use sdam_mapping::{optimize_hash, AddressMapping, BitPermutation, PhysAddr};

fn perm(n: usize) -> impl Strategy<Value = BitPermutation> {
    Just((0..n as u32).collect::<Vec<u32>>())
        .prop_shuffle()
        .prop_map(|t| BitPermutation::new(6, t).expect("shuffled identity is valid"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn invert_round_trips(a in perm(12), x in any::<u64>()) {
        // The inverse undoes the permutation from either side, and
        // inverting twice gives the permutation back.
        prop_assert_eq!(a.invert().apply(a.apply(x)), x);
        prop_assert_eq!(a.apply(a.invert().apply(x)), x);
        prop_assert_eq!(a.invert().invert(), a);
    }

    #[test]
    fn lut_apply_equals_bitwise_reference(p in perm(21), x in any::<u64>()) {
        // The table-driven datapath must be bit-identical to the
        // per-bit scatter loop it replaced, on the permutation itself
        // and on its inverse (the decode path).
        prop_assert_eq!(p.apply(x), p.apply_reference(x));
        let inv = p.invert();
        prop_assert_eq!(inv.apply(x), inv.apply_reference(x));
    }

    #[test]
    fn bitsliced_bfrv_equals_scalar(
        addrs in proptest::collection::vec(any::<u64>(), 0..300),
        width in 1u32..=64,
    ) {
        let fast = sdam_mapping::BitFlipRateVector::from_addrs(addrs.iter().copied(), width);
        let slow = sdam_mapping::BitFlipRateVector::from_addrs_scalar(addrs.iter().copied(), width);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn descriptor_channel_bits_always_land(channel_sources in proptest::collection::btree_set(6u32..21, 1..5)) {
        let geom = Geometry::hbm2_8gb();
        let sources: Vec<u32> = channel_sources.into_iter().collect();
        let perm = MappingDescriptor::new(geom)
            .channel_bits(sources.iter().copied())
            .compile_windowed(21)
            .expect("disjoint in-window bits compile");
        let m = sdam_mapping::BitShuffleMapping::new(perm);
        // Toggling a named source bit toggles exactly the requested
        // channel lane.
        for (lane, &src) in sources.iter().enumerate() {
            let d0 = geom.decode(m.map(PhysAddr(0)));
            let d1 = geom.decode(m.map(PhysAddr(1 << src)));
            prop_assert_eq!(d0.channel ^ d1.channel, 1 << lane, "source bit {} lane {}", src, lane);
        }
    }

    #[test]
    fn optimized_hash_stays_invertible(max_stride in 1u64..24) {
        let geom = Geometry::hbm2_8gb();
        let hm = optimize_hash(geom, max_stride);
        for a in (0..(1u64 << 22)).step_by(0x1_86a1) {
            // The hash is its own inverse.
            prop_assert_eq!(hm.map(PhysAddr(hm.map(PhysAddr(a)).raw())).raw(), a);
        }
    }
}
