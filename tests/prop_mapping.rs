//! Property-based tests for the address-mapping layer: every mapping
//! must be a bijection (the paper's functional-correctness requirement),
//! chunk numbers must never change, and configuration encodings must
//! round-trip. Only the PA→HA direction is modelled, so bijectivity is
//! checked through each family's own inverse: the inverted permutation
//! for bit shuffles and the CMT, the hash itself for the XOR hash.

use proptest::prelude::*;
use sdam_hbm::{Geometry, HardwareAddr};
use sdam_mapping::{
    select, AddressMapping, AmuConfig, BitFlipRateVector, BitPermutation, BitShuffleMapping, Cmt,
    CmtError, HashMapping, MappingId, PhysAddr,
};

/// Strategy: a random permutation table of length `n`.
fn perm_table(n: usize) -> impl Strategy<Value = Vec<u32>> {
    Just((0..n as u32).collect::<Vec<u32>>()).prop_shuffle()
}

proptest! {
    #[test]
    fn shuffle_round_trips_everywhere(table in perm_table(15), addr in any::<u64>()) {
        let addr = addr & ((1 << 33) - 1);
        let m = BitShuffleMapping::new(BitPermutation::new(6, table).unwrap());
        let inverse = m.permutation().invert();
        prop_assert_eq!(inverse.apply(m.map(PhysAddr(addr)).raw()), addr);
    }

    #[test]
    fn shuffle_preserves_bits_outside_window(table in perm_table(15), addr in any::<u64>()) {
        let m = BitShuffleMapping::new(BitPermutation::new(6, table).unwrap());
        let ha = m.map(PhysAddr(addr));
        // Line offset and bits above the window are untouched.
        prop_assert_eq!(ha.raw() & 0x3f, addr & 0x3f);
        prop_assert_eq!(ha.raw() >> 21, addr >> 21);
    }

    #[test]
    fn amu_config_round_trips(table in perm_table(15)) {
        let perm = BitPermutation::new(6, table).unwrap();
        let cfg = AmuConfig::pack(&perm);
        prop_assert_eq!(cfg.unpack(6).unwrap(), perm);
        prop_assert_eq!(cfg.storage_bits(), 60);
    }

    #[test]
    fn hash_mapping_is_involutive_bijection(addr in any::<u64>()) {
        let geom = Geometry::hbm2_8gb();
        let addr = addr & (geom.capacity_bytes() - 1);
        let hm = HashMapping::for_geometry(geom);
        prop_assert_eq!(hm.map(PhysAddr(hm.map(PhysAddr(addr)).raw())).raw(), addr);
    }

    #[test]
    fn hash_mapping_equals_a_per_bit_parity_walk(
        (channel_lo, channel_bits) in (0u32..=40, 1u32..=6),
        raw_sources in proptest::collection::vec(proptest::collection::vec(0u32..58, 0..10), 6),
        addrs in proptest::collection::vec(any::<u64>(), 1..40),
    ) {
        // Any bit outside the channel field, repeats included (a bit
        // listed twice cancels), up to bit 63.
        let sources: Vec<Vec<u32>> = raw_sources[..channel_bits as usize]
            .iter()
            .map(|set| {
                set.iter()
                    .map(|&b| if b < channel_lo { b } else { b + channel_bits })
                    .collect()
            })
            .collect();
        let hm = HashMapping::with_sources(channel_lo, channel_bits, sources.clone());
        let mut block = addrs.clone();
        hm.map_block(&mut block);
        for (&a, &mapped) in addrs.iter().zip(&block) {
            let mut want = a;
            for (i, set) in sources.iter().enumerate() {
                let mut parity = 0;
                for &b in set {
                    parity ^= (a >> b) & 1;
                }
                want ^= parity << (channel_lo + i as u32);
            }
            prop_assert_eq!(hm.map(PhysAddr(a)).raw(), want, "addr {:#x}", a);
            prop_assert_eq!(mapped, want);
            prop_assert_eq!(hm.map(PhysAddr(want)).raw(), a, "not an involution");
        }
    }

    #[test]
    fn every_accepted_hash_is_an_involution(
        (channel_lo, channel_bits) in (0u32..=40, 1u32..=6),
        raw_sources in proptest::collection::vec(proptest::collection::vec(0u32..64, 0..10), 6),
        addrs in proptest::collection::vec(any::<u64>(), 1..40),
    ) {
        // Source sets drawn over the whole address, the channel field
        // included. The constructor must refuse every set that reads a
        // channel bit, and every set it accepts must be its own inverse:
        // a channel-field source would read a bit the fold itself flips.
        let sources: Vec<Vec<u32>> = raw_sources[..channel_bits as usize].to_vec();
        let built = std::panic::catch_unwind(|| {
            HashMapping::with_sources(channel_lo, channel_bits, sources.clone())
        });
        let in_field = sources
            .iter()
            .flatten()
            .any(|&b| (channel_lo..channel_lo + channel_bits).contains(&b));
        match built {
            Ok(hm) => {
                for &a in &addrs {
                    let back = hm.map(PhysAddr(hm.map(PhysAddr(a)).raw())).raw();
                    prop_assert_eq!(back, a, "not an involution at {:#x}", a);
                }
                prop_assert!(!in_field, "accepted a channel-field source: {:?}", sources);
            }
            Err(_) => prop_assert!(in_field, "refused a valid source set: {:?}", sources),
        }
    }

    #[test]
    fn cmt_never_leaks_across_chunks(
        table in perm_table(15),
        chunk in 0u64..4096,
        offset in 0u64..(1 << 21),
    ) {
        let mut cmt = Cmt::new(33, 21);
        cmt.register(MappingId(1), &BitPermutation::new(6, table.clone()).unwrap());
        cmt.assign_chunk(chunk, MappingId(1)).unwrap();
        let pa = PhysAddr((chunk << 21) | offset);
        let ha = cmt.translate(pa);
        prop_assert_eq!(ha.raw() >> 21, chunk, "chunk number must be preserved");
        let inverse = BitPermutation::new(6, table).unwrap().invert();
        prop_assert_eq!(inverse.apply(ha.raw()), pa.raw());
    }

    #[test]
    fn block_memo_never_stale_after_midstream_remap(
        t1 in perm_table(15),
        t2 in perm_table(15),
        script in proptest::collection::vec(
            (0u64..8, 0u8..2, proptest::collection::vec(0u64..(8 << 21), 1..64)),
            1..8,
        ),
    ) {
        // The adaptive driver reconfigures the CMT *between* translated
        // blocks (assign_chunk on migration, try_register when a new
        // candidate is installed). The block fast path memoizes chunk
        // runs, so each reconfiguration must invalidate the memo via the
        // epoch bump: a stale memo would silently translate a chunk
        // under its pre-migration mapping.
        let mut cmt = Cmt::new(33, 21);
        cmt.register(MappingId(1), &BitPermutation::new(6, t1).unwrap());
        let mut cache = sdam_mapping::CmtLookupCache::default();
        for (step, (chunk, id, addrs)) in script.into_iter().enumerate() {
            // Mid-stream reconfiguration: every odd step re-registers
            // mapping 1 with a different permutation, every step
            // reassigns some chunk.
            if step % 2 == 1 {
                cmt.try_register(MappingId(1), &BitPermutation::new(6, t2.clone()).unwrap())
                    .unwrap();
            }
            cmt.assign_chunk(chunk, MappingId(id)).unwrap();
            let mut block = addrs.clone();
            cmt.translate_block_cached(&mut block, &mut cache);
            for (got, pa) in block.iter().zip(&addrs) {
                prop_assert_eq!(
                    HardwareAddr(*got),
                    cmt.translate(PhysAddr(*pa)),
                    "stale memo after reconfiguration at step {}",
                    step
                );
            }
        }
    }

    #[test]
    fn mapping_ids_recycle_under_the_cap(
        table in perm_table(15),
        churn in proptest::collection::vec(0u8..8, 1..400),
    ) {
        // Tenant lifecycles far past 255 total registrations: the
        // free-list recycling must keep register → unregister →
        // register within the architectural cap, never exhaust, and
        // never hand out an id that is still registered.
        let mut cmt = Cmt::new(33, 21);
        let perm = BitPermutation::new(6, table).unwrap();
        let mut live: Vec<MappingId> = Vec::new();
        for step in churn {
            if live.is_empty() || (step < 5 && live.len() < 255) {
                let id = cmt.allocate_id().unwrap();
                prop_assert!(!live.contains(&id), "live id handed out twice");
                cmt.try_register(id, &perm).unwrap();
                live.push(id);
            } else {
                let id = live.swap_remove(step as usize % live.len());
                cmt.unregister(id).unwrap();
            }
            // +1: the always-registered default mapping.
            prop_assert_eq!(cmt.registered_ids().count(), live.len() + 1);
        }
    }

    #[test]
    fn id_exhaustion_is_a_typed_error(table in perm_table(15), victim in 1u8..=255) {
        let mut cmt = Cmt::new(33, 21);
        let perm = BitPermutation::new(6, table).unwrap();
        for _ in 0..255 {
            let id = cmt.allocate_id().unwrap();
            cmt.try_register(id, &perm).unwrap();
        }
        prop_assert!(matches!(cmt.allocate_id(), Err(CmtError::MappingIdsExhausted)));
        // Releasing any slot makes allocation succeed again, reusing
        // exactly the freed id.
        cmt.unregister(MappingId(victim)).unwrap();
        prop_assert_eq!(cmt.allocate_id().unwrap(), MappingId(victim));
    }

    #[test]
    fn recycled_id_never_serves_stale_memo(
        t1 in perm_table(15),
        t2 in perm_table(15),
        chunk in 0u64..4096,
        offset in 0u64..(1 << 21),
    ) {
        let mut cmt = Cmt::new(33, 21);
        let mut cache = sdam_mapping::CmtLookupCache::default();
        // Tenant A registers, takes a chunk, and translates through the
        // memoizing lookup cache (warming the (chunk → id) memo).
        let a = cmt.allocate_id().unwrap();
        cmt.try_register(a, &BitPermutation::new(6, t1).unwrap()).unwrap();
        cmt.assign_chunk(chunk, a).unwrap();
        let pa = PhysAddr((chunk << 21) | offset);
        prop_assert_eq!(cmt.translate_cached(pa, &mut cache), cmt.translate(pa));
        // Tenant A departs; tenant B reuses the recycled id with a
        // different permutation on the same chunk.
        cmt.assign_chunk(chunk, MappingId::DEFAULT).unwrap();
        cmt.unregister(a).unwrap();
        let b = cmt.allocate_id().unwrap();
        prop_assert_eq!(b, a, "LIFO recycling must reuse the freed slot");
        cmt.try_register(b, &BitPermutation::new(6, t2).unwrap()).unwrap();
        cmt.assign_chunk(chunk, b).unwrap();
        // Tenant A's memo must not leak into tenant B's translation:
        // every register/assign/unregister bumped the epoch.
        prop_assert_eq!(cmt.translate_cached(pa, &mut cache), cmt.translate(pa));
    }

    #[test]
    fn selection_always_yields_valid_permutation(
        rates in proptest::collection::vec(0.0f64..=1.0, 33),
    ) {
        let geom = Geometry::hbm2_8gb();
        let bfrv = BitFlipRateVector::from_rates(rates);
        let perm = select::permutation_for_bfrv_windowed(&bfrv, geom, 21);
        // Validity is checked by construction; bijection spot-check:
        let m = BitShuffleMapping::new(perm);
        let inverse = m.permutation().invert();
        for a in [0u64, 64, 4096, (1 << 21) - 64] {
            prop_assert_eq!(inverse.apply(m.map(PhysAddr(a)).raw()), a);
        }
    }

    #[test]
    fn geometry_decode_encode_round_trips(ha in any::<u64>()) {
        let geom = Geometry::hbm2_8gb();
        let ha = ha & (geom.capacity_bytes() - 1) & !63; // line-aligned
        let d = geom.decode(HardwareAddr(ha));
        prop_assert_eq!(geom.encode(d.row, d.bank, d.channel, d.col).raw(), ha);
    }

    #[test]
    fn bfrv_rates_always_bounded(addrs in proptest::collection::vec(any::<u64>(), 0..200)) {
        let bfrv = BitFlipRateVector::from_addrs(addrs.iter().copied(), 33);
        prop_assert!(bfrv.rates().iter().all(|r| (0.0..=1.0).contains(r)));
        prop_assert_eq!(bfrv.samples(), addrs.len().saturating_sub(1) as u64);
    }
}
