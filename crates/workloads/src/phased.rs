//! # Phase-change workloads — the adversarial input for adaptation
//!
//! A *static* mapping is chosen once for the whole run; a workload whose
//! access pattern flips mid-run therefore punishes whichever phase the
//! mapping was not chosen for. [`Phased`] splices two access patterns at
//! one switch point, and [`StrideLoop`] provides the canonical
//! phase ingredients: multi-lane strided walks that *wrap* within a
//! bounded region, so the same chunks stay hot while the stride — and
//! hence the channel-level parallelism under a given mapping — changes.
//!
//! These are the workloads the adaptive remapping controller
//! (`sdam-sys`'s `RemapController`) exists for, and the sweep input of
//! `examples/adaptive.rs`.

use crate::{Scale, Workload};
use sdam_trace::gen::{interleave_round_robin, StrideGen};
use sdam_trace::{ThreadId, Trace, VariableId};

/// A multi-lane strided walk wrapping within a bounded region.
///
/// The region is split into one equal slice per lane; lane `t` walks its
/// slice with the configured stride, wrapping back to the slice base, so
/// repeated passes keep the same footprint hot. With slices aligned to
/// large powers of two, strides of a full channel period (32 lines under
/// `Geometry::hbm2_8gb`) leave the channel bits constant — the
/// channel-starved pattern the paper's Fig. 1 stride study isolates —
/// while unit strides sweep all channels.
#[derive(Debug, Clone)]
pub struct StrideLoop {
    /// Stride between consecutive accesses, in 64-byte lines.
    pub stride_lines: u64,
    /// Total region the lanes share, in bytes (split evenly per lane).
    region_bytes: u64,
    /// Number of lanes (threads) walking the region.
    pub threads: u16,
    name: String,
}

impl StrideLoop {
    /// A `threads`-lane loop of `stride_lines`-line strides over
    /// `region_bytes` of shared footprint.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero or the region does not split
    /// evenly into per-lane slices of whole strides.
    pub fn new(stride_lines: u64, region_bytes: u64, threads: u16) -> Self {
        assert!(stride_lines > 0 && region_bytes > 0 && threads > 0);
        let slice = region_bytes / threads as u64;
        assert!(
            slice.is_multiple_of(stride_lines * 64),
            "per-lane slice must hold a whole number of strides"
        );
        StrideLoop {
            stride_lines,
            region_bytes,
            threads,
            name: format!("stride-loop-{stride_lines}"),
        }
    }
}

impl Workload for StrideLoop {
    fn name(&self) -> &str {
        &self.name
    }

    fn generate(&self, scale: Scale) -> Trace {
        let lanes = self.threads as u64;
        let per_lane = (scale.accesses as u64).div_ceil(lanes);
        let slice = self.region_bytes / lanes;
        let streams = (0..self.threads)
            .map(|t| {
                StrideGen::new(t as u64 * slice, self.stride_lines * 64, per_lane)
                    .wrap(slice)
                    .thread(ThreadId(t))
                    .variable(VariableId(t as u32))
                    .into_trace()
            })
            .collect();
        interleave_round_robin(streams)
    }
}

/// Splices two access patterns at one switch point.
///
/// The run's access budget is cut at the switch fraction: pattern `a`
/// fills the budget before the cut and pattern `b` the rest. Each phase
/// is generated at a proportionally scaled [`Scale`] and the two are
/// joined with [`Trace::concat`], so every phase keeps its own internal
/// lane interleaving.
#[derive(Debug)]
pub struct Phased {
    a: Box<dyn Workload>,
    b: Box<dyn Workload>,
    switch_at: f64,
    name: String,
}

impl Phased {
    /// `a` for the first `switch_at` fraction of accesses, then `b`.
    ///
    /// # Panics
    ///
    /// Panics if `switch_at` is outside `(0, 1)`.
    pub fn new(a: Box<dyn Workload>, b: Box<dyn Workload>, switch_at: f64) -> Self {
        assert!(
            switch_at > 0.0 && switch_at < 1.0,
            "switch point must lie in (0, 1)"
        );
        let name = format!("phased({}->{})", a.name(), b.name());
        Phased {
            a,
            b,
            switch_at,
            name,
        }
    }
}

impl Workload for Phased {
    fn name(&self) -> &str {
        &self.name
    }

    fn generate(&self, scale: Scale) -> Trace {
        let cut = (scale.accesses as f64 * self.switch_at) as usize;
        let phases = [
            (self.a.as_ref(), cut),
            (self.b.as_ref(), scale.accesses - cut),
        ];
        Trace::concat(phases.into_iter().filter(|&(_, budget)| budget > 0).map(
            |(phase, budget)| {
                let mut seg = phase.generate(Scale {
                    accesses: budget,
                    ..scale
                });
                seg.truncate(budget);
                seg
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_loop_wraps_within_region() {
        let w = StrideLoop::new(32, 1 << 20, 4);
        let t = w.generate(Scale {
            n: 1 << 10,
            accesses: 10_000,
            seed: 1,
        });
        assert!(t.len() >= 10_000);
        assert!(t.iter().all(|a| a.addr < 1 << 20));
        // Four lanes, each confined to its own quarter.
        for lane in 0..4u16 {
            let slice = (1u64 << 20) / 4;
            let lo = lane as u64 * slice;
            assert!(t
                .iter()
                .filter(|a| a.thread == ThreadId(lane))
                .all(|a| a.addr >= lo && a.addr < lo + slice));
        }
    }

    #[test]
    fn phased_splices_at_the_switch_point() {
        let a = Box::new(StrideLoop::new(1, 1 << 20, 2));
        let b = Box::new(StrideLoop::new(32, 1 << 20, 2));
        let p = Phased::new(a, b, 0.25);
        let scale = Scale {
            n: 1 << 10,
            accesses: 8_000,
            seed: 1,
        };
        let t = p.generate(scale);
        assert_eq!(t.len(), 8_000);
        // First segment is the unit stride: consecutive per-thread
        // addresses advance by 64 bytes.
        let head = t.thread_slice(ThreadId(0));
        let head = head.accesses();
        assert_eq!(head[1].addr - head[0].addr, 64);
        // The tail shows the 32-line stride.
        let n = t.len();
        let tail: Vec<_> = t.accesses()[n - 64..]
            .iter()
            .filter(|a| a.thread == ThreadId(0))
            .collect();
        assert!(tail.windows(2).any(|w| {
            let (lo, hi) = (w[0].addr.min(w[1].addr), w[0].addr.max(w[1].addr));
            hi - lo == 32 * 64
        }));
    }

    #[test]
    fn phased_fills_both_phases_to_the_budget() {
        let a = Box::new(StrideLoop::new(1, 1 << 20, 1));
        let b = Box::new(StrideLoop::new(32, 1 << 20, 1));
        let p = Phased::new(a, b, 0.75);
        let t = p.generate(Scale {
            n: 1 << 10,
            accesses: 4_000,
            seed: 1,
        });
        assert_eq!(t.len(), 4_000);
        // 3,000 unit-stride accesses, then 1,000 at the 32-line stride,
        // each phase starting from the region base.
        let (head, tail) = t.accesses().split_at(3_000);
        assert!(head.iter().zip(0u64..).all(|(a, i)| a.addr == i * 64));
        assert!(tail
            .iter()
            .zip(0u64..)
            .all(|(a, i)| a.addr == (i * 32 * 64) % (1 << 20)));
    }

    #[test]
    fn phased_fingerprint_is_parameter_sensitive() {
        let mk = |s: f64| {
            Phased::new(
                Box::new(StrideLoop::new(1, 1 << 20, 2)),
                Box::new(StrideLoop::new(32, 1 << 20, 2)),
                s,
            )
        };
        assert_ne!(mk(0.25).fingerprint(), mk(0.5).fingerprint());
    }
}
