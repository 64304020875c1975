//! Address-mapping selection: from a profiled BFRV to an AMU crossbar
//! configuration.
//!
//! The paper's rule (§6.2, step 3): "the highly flipping bits correspond
//! to frequent accesses in a short time and are mapped onto channel
//! address bits to best exploit the CLP, while the less frequently
//! flipping bits are mapped onto banks and rows." We extend the rule to
//! all four fields in a deterministic priority order:
//! channel ← the top-flipping bits, then column (so the near-misses stay
//! row-buffer hits), then bank, then row.

use sdam_hbm::Geometry;

use crate::{BitFlipRateVector, BitPermutation, BitShuffleMapping};

/// Builds the bit permutation that routes the highest-flipping address
/// bits of `bfrv` to the channel field of `geom`, over the full device
/// address width.
///
/// The permutation window is `[line_bits, addr_bits)` — the 64 B line
/// offset is never remapped.
///
/// # Panics
///
/// Panics if the BFRV is narrower than the device address width.
pub fn permutation_for_bfrv(bfrv: &BitFlipRateVector, geom: Geometry) -> BitPermutation {
    permutation_for_bfrv_windowed(bfrv, geom, geom.addr_bits())
}

/// Like [`permutation_for_bfrv`] but restricted to the window
/// `[line_bits, window_hi)`. Used for chunk-scoped mappings, where only
/// the chunk-offset bits may be permuted (the chunk number must pass
/// through for inter-chunk correctness, paper §4).
///
/// Field positions that fall outside the window (e.g. the upper row bits
/// of a 2 MB chunk) keep their identity routing.
///
/// # Panics
///
/// Panics if `window_hi` is not in `(line_bits, addr_bits]` or the BFRV
/// is narrower than `window_hi`.
pub fn permutation_for_bfrv_windowed(
    bfrv: &BitFlipRateVector,
    geom: Geometry,
    window_hi: u32,
) -> BitPermutation {
    let lo = geom.line_bits();
    assert!(
        window_hi > lo && window_hi <= geom.addr_bits(),
        "window must cover at least the channel field and fit the device"
    );
    assert!(
        bfrv.width() >= window_hi,
        "BFRV narrower than the permutation window"
    );
    let n = (window_hi - lo) as usize;

    // Destination priority: channel field first, then column, bank, row —
    // restricted to destinations inside the window.
    let mut dests: Vec<u32> = Vec::with_capacity(n);
    let ch_lo = lo;
    let ch_hi = lo + geom.channel_bits();
    let col_hi = ch_hi + geom.col_bits();
    let bank_hi = col_hi + geom.bank_bits();
    for d in ch_lo..ch_hi.min(window_hi) {
        dests.push(d);
    }
    for d in ch_hi..col_hi.min(window_hi) {
        dests.push(d);
    }
    for d in col_hi..bank_hi.min(window_hi) {
        dests.push(d);
    }
    for d in bank_hi..window_hi {
        dests.push(d);
    }
    debug_assert_eq!(dests.len(), n);

    // Source priority: bits by descending flip rate, restricted to the
    // window — with *ratio banding*: rates within a factor of √2 of each
    // other are treated as ties, broken toward the lower bit. Pure
    // rate-ranking (the paper's literal rule) preserves clear geometric
    // orderings like strides, but on spatially skewed traffic (Zipf
    // gathers, where many bits flip at ~0.5) it can route only high bits
    // to the channel field and concentrate the hot low-address head onto
    // one channel; preferring low bits among near-ties spreads it.
    let sources: Vec<u32> = {
        let max_rate = (lo..window_hi).map(|b| bfrv.rate(b)).fold(0.0f64, f64::max);
        let band = |b: u32| -> u32 {
            let r = bfrv.rate(b);
            if max_rate <= 0.0 || r <= 0.0 {
                return u32::MAX;
            }
            // log base sqrt(2) of the distance from the maximum rate.
            (2.0 * (max_rate / r).log2()).round().min(u32::MAX as f64) as u32
        };
        let mut bits: Vec<u32> = (lo..window_hi).collect();
        bits.sort_by_key(|&b| (band(b), b));
        bits
    };
    debug_assert_eq!(sources.len(), n);

    let mut table = vec![0u32; n];
    for (dest, src) in dests.into_iter().zip(sources) {
        table[(dest - lo) as usize] = src - lo;
    }
    match BitPermutation::new(lo, table) {
        Ok(p) => p,
        Err(e) => panic!("constructed table is not a permutation: {e}"),
    }
}

/// Convenience: the full [`BitShuffleMapping`] for a profiled BFRV.
pub fn shuffle_for_bfrv(bfrv: &BitFlipRateVector, geom: Geometry) -> BitShuffleMapping {
    BitShuffleMapping::new(permutation_for_bfrv(bfrv, geom))
}

/// The mapping a programmer would write by hand for a known constant
/// stride (paper §6.2: "programmers can identify the access pattern and
/// select the address mapping directly"): channel bits taken from the
/// stride's hot bits.
pub fn shuffle_for_stride(stride_lines: u64, geom: Geometry) -> BitShuffleMapping {
    let addrs = (0..4096u64).map(|i| i * stride_lines * crate::amu::LINE_BYTES);
    let bfrv = BitFlipRateVector::from_addrs(addrs, geom.addr_bits());
    shuffle_for_bfrv(&bfrv, geom)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AddressMapping, PhysAddr};
    use std::collections::HashSet;

    fn channels_touched(m: &BitShuffleMapping, geom: Geometry, stride: u64, n: u64) -> usize {
        (0..n)
            .map(|i| geom.decode(m.map(PhysAddr(i * stride * 64))).channel)
            .collect::<HashSet<_>>()
            .len()
    }

    #[test]
    fn stride_one_selection_is_near_identity() {
        let geom = Geometry::hbm2_8gb();
        let m = shuffle_for_stride(1, geom);
        assert_eq!(channels_touched(&m, geom, 1, 1024), geom.num_channels());
    }

    #[test]
    fn every_power_of_two_stride_gets_full_clp() {
        let geom = Geometry::hbm2_8gb();
        for stride in [2u64, 4, 8, 16, 32, 64, 128] {
            let m = shuffle_for_stride(stride, geom);
            assert_eq!(
                channels_touched(&m, geom, stride, 1024),
                geom.num_channels(),
                "stride {stride}"
            );
        }
    }

    #[test]
    fn selection_round_trips() {
        let geom = Geometry::hbm2_8gb();
        let m = shuffle_for_stride(16, geom);
        let inverse = m.permutation().invert();
        for a in (0..100_000u64).step_by(4093) {
            assert_eq!(inverse.apply(m.map(PhysAddr(a)).raw()), a);
        }
    }

    #[test]
    fn windowed_selection_preserves_chunk_number() {
        let geom = Geometry::hbm2_8gb();
        let chunk_bits = 21; // 2 MB
        let addrs = (0..4096u64).map(|i| i * 16 * 64);
        let bfrv = BitFlipRateVector::from_addrs(addrs, geom.addr_bits());
        let perm = permutation_for_bfrv_windowed(&bfrv, geom, chunk_bits);
        let m = BitShuffleMapping::new(perm);
        for a in (0..(1u64 << 25)).step_by(1 << 19) {
            let ha = m.map(PhysAddr(a));
            assert_eq!(
                ha.raw() >> chunk_bits,
                a >> chunk_bits,
                "chunk number preserved"
            );
        }
    }

    #[test]
    fn windowed_selection_spreads_stride_within_chunk() {
        let geom = Geometry::hbm2_8gb();
        let addrs = (0..4096u64).map(|i| (i * 16 * 64) & ((1 << 21) - 1));
        let bfrv = BitFlipRateVector::from_addrs(addrs.clone(), geom.addr_bits());
        let perm = permutation_for_bfrv_windowed(&bfrv, geom, 21);
        let m = BitShuffleMapping::new(perm);
        let chans: HashSet<u64> = addrs
            .map(|a| geom.decode(m.map(PhysAddr(a))).channel)
            .collect();
        assert_eq!(chans.len(), geom.num_channels());
    }

    #[test]
    #[should_panic(expected = "narrower than the permutation window")]
    fn narrow_bfrv_rejected() {
        let geom = Geometry::hbm2_8gb();
        let bfrv = BitFlipRateVector::from_rates(vec![0.0; 8]);
        let _ = permutation_for_bfrv(&bfrv, geom);
    }
}
