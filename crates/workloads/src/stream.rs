//! The STREAM triad bandwidth kernel (McCalpin).
//!
//! The paper's Fig. 12 discussion singles out "stream" as a benchmark
//! where the per-application SDM+BSM mapping can *regress* (pure
//! sequential traffic is already optimal under the boot-time mapping).
//! In this model the statically partitioned four-lane variant also
//! exposes a second effect: contiguous quarters put every lane on the
//! same channel in lockstep, which SDAM's lane-aware profile
//! decorrelates — so triad can go either way depending on how the
//! threads schedule. Both behaviours are asserted in the test suite.

use sdam_trace::Trace;

use crate::recorder::run_parallel;
use crate::{Recorder, Scale, Workload};

const LANES: usize = 4;

/// The STREAM triad, `a[i] = b[i] + s * c[i]`, over four lanes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stream;

impl Stream {
    /// The classic triad.
    pub fn triad() -> Self {
        Stream
    }
}

impl Workload for Stream {
    fn name(&self) -> &str {
        "stream-triad"
    }

    fn generate(&self, scale: Scale) -> Trace {
        let n = scale.n * 8; // elements; 8 B doubles
        let mut rec = Recorder::with_capacity(scale.accesses);
        let a = rec.alloc(n, 8);
        let b = rec.alloc(n, 8);
        let c = rec.alloc(n, 8);

        let chunk = n.div_ceil(LANES);
        let reps = 4usize;
        for _ in 0..reps {
            if rec.len() >= scale.accesses {
                break;
            }
            run_parallel(&mut rec, LANES, |lane, r| {
                let range = (lane * chunk).min(n)..((lane + 1) * chunk).min(n);
                for i in range {
                    if r.len() * LANES >= scale.accesses {
                        break;
                    }
                    r.read(b, i);
                    r.read(c, i);
                    r.write(a, i);
                }
            });
        }
        rec.into_trace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdam_trace::stats::StrideHistogram;

    #[test]
    fn triad_touches_three_arrays() {
        let t = Stream::triad().generate(Scale::tiny());
        assert_eq!(t.variables().len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn triad_reads_twice_per_write() {
        let t = Stream::triad().generate(Scale::tiny());
        let reads = t.iter().filter(|a| !a.is_write).count();
        let writes = t.iter().filter(|a| a.is_write).count();
        // Line-coalescing merges 8 element accesses per line for each
        // array, so the 2:1 ratio survives at line granularity.
        assert!((reads as f64 / writes as f64 - 2.0).abs() < 0.1);
    }

    /// Per-lane view: the merged trace interleaves the four lanes, so
    /// stride analysis must look at one thread's stream.
    fn lane0(t: &sdam_trace::Trace) -> sdam_trace::Trace {
        t.iter().filter(|a| a.thread.0 == 0).copied().collect()
    }

    #[test]
    fn stream_is_sequential() {
        let t = lane0(&Stream::triad().generate(Scale::tiny()));
        let h = StrideHistogram::from_trace(&t);
        let (stride, share) = h.dominant().unwrap();
        assert_eq!(stride, 1, "streaming is line-sequential");
        assert!(share > 0.9, "share {share}");
    }

    #[test]
    fn deterministic() {
        assert_eq!(
            Stream::triad().generate(Scale::tiny()),
            Stream::triad().generate(Scale::tiny())
        );
    }
}
