//! Bit-flip-rate vectors (BFRV) — the paper's Eq. 1 profiling statistic.
//!
//! For a trace of addresses, the flip rate of bit `i` is the fraction of
//! consecutive address pairs in which bit `i` differs. Bits that flip
//! often between temporally-adjacent accesses are the right bits to
//! route to the channel selector: adjacent requests then land on
//! different channels and proceed in parallel.

/// The bit-flip-rate vector of an address trace.
///
/// # Example
///
/// ```
/// use sdam_mapping::BitFlipRateVector;
///
/// // Stride-1 lines: bit 6 flips on every step.
/// let addrs = (0..1024u64).map(|i| i * 64);
/// let bfrv = BitFlipRateVector::from_addrs(addrs, 33);
/// assert!(bfrv.rate(6) > 0.99);
/// assert!(bfrv.rate(6) > bfrv.rate(7));
/// assert!(bfrv.rate(7) > bfrv.rate(12));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BitFlipRateVector {
    rates: Vec<f64>,
    samples: u64,
}

/// A streaming BFRV builder: push addresses one at a time, finish into
/// a [`BitFlipRateVector`].
///
/// Flip counts are accumulated *bit-sliced*: each consecutive-pair XOR
/// word is ripple-carry added into six 64-lane counter planes (plane
/// `j` holds bit `j` of every bit position's running count), and the
/// planes are folded into the per-bit totals once per 63-pair block.
/// That replaces the scalar path's `width` shift-and-mask operations
/// per pair with ~2–6 word operations, while producing exactly the
/// same integer counts — [`BitFlipRateVector::from_addrs_scalar`] is
/// kept as the oracle this path is property-tested against.
///
/// Being streaming, the accumulator also lets trace generators and
/// profilers fold addresses in as they are produced instead of
/// materializing full address vectors first.
///
/// # Example
///
/// ```
/// use sdam_mapping::{BfrvAccumulator, BitFlipRateVector};
///
/// let mut acc = BfrvAccumulator::new(33);
/// for i in 0..1024u64 {
///     acc.push(i * 64);
/// }
/// assert_eq!(
///     acc.finish(),
///     BitFlipRateVector::from_addrs((0..1024u64).map(|i| i * 64), 33)
/// );
/// ```
#[derive(Debug, Clone)]
pub struct BfrvAccumulator {
    width: u32,
    flips: Vec<u64>,
    /// Vertical counter planes: bit `i` of `planes[j]` is bit `j` of
    /// the in-block flip count of address bit `i`.
    planes: [u64; 6],
    /// XOR words absorbed into `planes` since the last fold (< 63).
    in_block: u32,
    prev: Option<u64>,
    pairs: u64,
}

impl BfrvAccumulator {
    /// Pairs per block: six counter planes hold counts up to 63.
    const BLOCK: u32 = 63;

    /// An empty accumulator over `width` address bits.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or exceeds 64.
    pub fn new(width: u32) -> Self {
        assert!(width > 0 && width <= 64, "width must be in 1..=64");
        BfrvAccumulator {
            width,
            flips: vec![0u64; width as usize],
            planes: [0u64; 6],
            in_block: 0,
            prev: None,
            pairs: 0,
        }
    }

    /// Absorbs the next address of the stream.
    #[inline]
    pub fn push(&mut self, addr: u64) {
        if let Some(p) = self.prev {
            let mut carry = p ^ addr;
            self.pairs += 1;
            // Ripple-carry add of the 64 single-bit lanes into the
            // counter planes; the carry usually dies within two planes.
            for plane in self.planes.iter_mut() {
                if carry == 0 {
                    break;
                }
                let overflow = *plane & carry;
                *plane ^= carry;
                carry = overflow;
            }
            debug_assert_eq!(carry, 0, "block bound keeps counts under 64");
            self.in_block += 1;
            if self.in_block == Self::BLOCK {
                self.fold_block();
            }
        }
        self.prev = Some(addr);
    }

    /// Folds the counter planes into the per-bit totals.
    fn fold_block(&mut self) {
        for (j, plane) in self.planes.iter_mut().enumerate() {
            // Bits at positions >= width flipped too, but are outside
            // the profiled window — mask them off before counting.
            let mut p = *plane;
            if self.width < 64 {
                p &= (1u64 << self.width) - 1;
            }
            while p != 0 {
                let i = p.trailing_zeros() as usize;
                self.flips[i] += 1u64 << j;
                p &= p - 1;
            }
            *plane = 0;
        }
        self.in_block = 0;
    }

    /// Finishes the stream and returns its BFRV.
    pub fn finish(mut self) -> BitFlipRateVector {
        self.fold_block();
        let pairs = self.pairs;
        let rates = self
            .flips
            .iter()
            .map(|&f| {
                if pairs == 0 {
                    0.0
                } else {
                    f as f64 / pairs as f64
                }
            })
            .collect();
        BitFlipRateVector {
            rates,
            samples: pairs,
        }
    }
}

impl BitFlipRateVector {
    /// Computes the BFRV of an address stream over `width` bits.
    ///
    /// An empty or single-element stream yields an all-zero vector
    /// (there are no consecutive pairs). Flip counts are accumulated
    /// bit-sliced (see [`BfrvAccumulator`]); the result is bit-identical
    /// to the scalar reference
    /// [`BitFlipRateVector::from_addrs_scalar`].
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or exceeds 64.
    pub fn from_addrs<I>(addrs: I, width: u32) -> Self
    where
        I: IntoIterator<Item = u64>,
    {
        let mut acc = BfrvAccumulator::new(width);
        for a in addrs {
            acc.push(a);
        }
        acc.finish()
    }

    /// The original per-bit-per-pair loop, kept as the oracle the
    /// bit-sliced [`BitFlipRateVector::from_addrs`] is tested against.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or exceeds 64.
    pub fn from_addrs_scalar<I>(addrs: I, width: u32) -> Self
    where
        I: IntoIterator<Item = u64>,
    {
        assert!(width > 0 && width <= 64, "width must be in 1..=64");
        let mut flips = vec![0u64; width as usize];
        let mut prev: Option<u64> = None;
        let mut pairs = 0u64;
        for a in addrs {
            if let Some(p) = prev {
                let x = p ^ a;
                for (i, f) in flips.iter_mut().enumerate() {
                    *f += (x >> i) & 1;
                }
                pairs += 1;
            }
            prev = Some(a);
        }
        let rates = flips
            .iter()
            .map(|&f| {
                if pairs == 0 {
                    0.0
                } else {
                    f as f64 / pairs as f64
                }
            })
            .collect();
        BitFlipRateVector {
            rates,
            samples: pairs,
        }
    }

    /// Builds a BFRV directly from rates (used by clustering, whose
    /// centroids are mean BFRVs).
    ///
    /// # Panics
    ///
    /// Panics if `rates` is empty or any rate is outside `[0, 1]`.
    pub fn from_rates(rates: Vec<f64>) -> Self {
        assert!(!rates.is_empty(), "BFRV must cover at least one bit");
        assert!(
            rates.iter().all(|r| (0.0..=1.0).contains(r)),
            "flip rates must lie in [0, 1]"
        );
        BitFlipRateVector { rates, samples: 0 }
    }

    /// Number of address bits covered.
    #[inline]
    pub(crate) fn width(&self) -> u32 {
        self.rates.len() as u32
    }

    /// Flip rate of bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= width()`.
    #[inline]
    pub fn rate(&self, i: u32) -> f64 {
        self.rates[i as usize]
    }

    /// All rates, LSB first.
    #[inline]
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Number of consecutive pairs observed.
    #[inline]
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Bit positions in `[lo, width)` sorted by descending flip rate;
    /// ties broken toward lower bit positions (which favour locality).
    pub fn bits_by_flip_rate(&self, lo: u32) -> Vec<u32> {
        let mut bits: Vec<u32> = (lo..self.width()).collect();
        bits.sort_by(|&a, &b| {
            self.rates[b as usize]
                .total_cmp(&self.rates[a as usize])
                .then(a.cmp(&b))
        });
        bits
    }

    /// The element-wise mean of a non-empty set of BFRVs (a K-Means
    /// centroid, the paper's `µ_i`).
    ///
    /// # Panics
    ///
    /// Panics if `vs` is empty or widths differ.
    pub fn mean<'a, I>(vs: I) -> BitFlipRateVector
    where
        I: IntoIterator<Item = &'a BitFlipRateVector>,
    {
        let mut it = vs.into_iter();
        let Some(first) = it.next() else {
            panic!("mean of empty set");
        };
        let mut acc: Vec<f64> = first.rates.clone();
        let mut n = 1usize;
        for v in it {
            assert_eq!(v.width(), first.width(), "BFRV width mismatch");
            for (a, b) in acc.iter_mut().zip(&v.rates) {
                *a += b;
            }
            n += 1;
        }
        for a in &mut acc {
            *a /= n as f64;
        }
        BitFlipRateVector::from_rates(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_trace_is_zero() {
        let b = BitFlipRateVector::from_addrs(std::iter::empty(), 16);
        assert!(b.rates().iter().all(|&r| r == 0.0));
        assert_eq!(b.samples(), 0);
    }

    #[test]
    fn alternating_bit_flips_every_pair() {
        let addrs = (0..100u64).map(|i| (i % 2) << 3);
        let b = BitFlipRateVector::from_addrs(addrs, 8);
        assert_eq!(b.rate(3), 1.0);
        assert_eq!(b.rate(2), 0.0);
    }

    #[test]
    fn stride_moves_flip_peak_left_to_right() {
        // Paper Fig. 3(b): increasing stride moves the peak to higher
        // bits ("to the left" in the MSB-first plot).
        let peak = |stride: u64| -> u32 {
            let addrs = (0..4096u64).map(move |i| i * stride * 64);
            let b = BitFlipRateVector::from_addrs(addrs, 33);
            b.bits_by_flip_rate(6)[0]
        };
        assert_eq!(peak(1), 6);
        assert_eq!(peak(2), 7);
        assert_eq!(peak(16), 10);
    }

    #[test]
    fn rates_bounded_and_sorted_access() {
        let addrs = (0..1000u64).map(|i| i.wrapping_mul(0x9e3779b97f4a7c15));
        let b = BitFlipRateVector::from_addrs(addrs, 33);
        assert!(b.rates().iter().all(|&r| (0.0..=1.0).contains(&r)));
        let bits = b.bits_by_flip_rate(6);
        assert_eq!(bits.len(), 27);
        for w in bits.windows(2) {
            assert!(b.rate(w[0]) >= b.rate(w[1]));
        }
    }

    #[test]
    fn bitsliced_matches_scalar_across_block_boundaries() {
        // Lengths straddling the 63-pair block: 0, 1, partial, exact,
        // exact+1, and several blocks.
        let stream = |n: u64| (0..n).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        for n in [0u64, 1, 2, 50, 63, 64, 65, 126, 127, 128, 1000] {
            for width in [1u32, 7, 33, 64] {
                let fast = BitFlipRateVector::from_addrs(stream(n), width);
                let slow = BitFlipRateVector::from_addrs_scalar(stream(n), width);
                assert_eq!(fast, slow, "n={n} width={width}");
                assert_eq!(fast.samples(), slow.samples());
            }
        }
    }

    #[test]
    fn accumulator_streams_like_batch() {
        let addrs: Vec<u64> = (0..500u64).map(|i| i * 192 + (i % 7) * 8192).collect();
        let mut acc = BfrvAccumulator::new(33);
        for &a in &addrs {
            acc.push(a);
        }
        assert_eq!(acc.pairs, 499);
        let streamed = acc.finish();
        assert_eq!(
            streamed,
            BitFlipRateVector::from_addrs(addrs.iter().copied(), 33)
        );
    }

    #[test]
    fn mean_is_element_wise() {
        let a = BitFlipRateVector::from_rates(vec![0.0, 1.0]);
        let b = BitFlipRateVector::from_rates(vec![1.0, 0.0]);
        let m = BitFlipRateVector::mean([&a, &b]);
        assert_eq!(m.rates(), &[0.5, 0.5]);
    }

    #[test]
    #[should_panic(expected = "must lie in [0, 1]")]
    fn from_rates_validates() {
        let _ = BitFlipRateVector::from_rates(vec![1.5]);
    }
}
