//! STREAM-style bandwidth kernels (McCalpin): copy and triad.
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

/// Which STREAM kernel to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StreamKernel {
    /// `c[i] = a[i]`
    Copy,
    /// `a[i] = b[i] + s * c[i]`
    Triad,
}

/// A STREAM benchmark instance.
#[derive(Debug, Clone, Copy)]
pub struct Stream {
    kernel: StreamKernel,
}

impl Stream {
    /// A specific kernel.
    pub(crate) fn new(kernel: StreamKernel) -> Self {
        Stream { kernel }
    }

    /// The classic triad.
    pub fn triad() -> Self {
        Stream::new(StreamKernel::Triad)
    }
}

impl Default for Stream {
    fn default() -> Self {
        Stream::triad()
    }
}

impl Workload for Stream {
    fn name(&self) -> &str {
        match self.kernel {
            StreamKernel::Copy => "stream-copy",
            StreamKernel::Triad => "stream-triad",
        }
    }

    fn generate(&self, scale: Scale) -> Trace {
        let n = scale.n * 8; // elements; 8 B doubles
        let mut rec = Recorder::with_capacity(scale.accesses);
        let a = rec.alloc(n, 8);
        let b = rec.alloc(n, 8);
        let c = rec.alloc(n, 8);
        let kernel = self.kernel;

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
                    match kernel {
                        StreamKernel::Copy => {
                            r.read(a, i);
                            r.write(c, i);
                        }
                        StreamKernel::Triad => {
                            r.read(b, i);
                            r.read(c, i);
                            r.write(a, i);
                        }
                    }
                }
            });
        }
        rec.into_trace()
    }
}

/// A workload whose dominant stride *changes mid-run* (phase change) —
/// the hard case for offline profiling. The paper's answer is that
/// mapping follows the allocation site, not the phase; this workload
/// lets the test suite measure what phase changes cost.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PhaseCopy;

impl Workload for PhaseCopy {
    fn name(&self) -> &str {
        "phase-copy"
    }

    fn generate(&self, scale: Scale) -> Trace {
        let mut rec = Recorder::with_capacity(scale.accesses);
        let bytes = (scale.n * 64).max(4096);
        let buf = rec.alloc(bytes / 8, 8);
        let half = scale.accesses / 2;
        // Phase 1: streaming; phase 2: stride-32 column walk.
        run_parallel(&mut rec, LANES, |lane, r| {
            for i in 0..half / LANES {
                r.read(buf, (lane * half / LANES + i) * 8 % (bytes / 8));
            }
        });
        let elems = bytes / 8;
        run_parallel(&mut rec, LANES, |lane, r| {
            for i in 0..half / LANES {
                // Stride-32-line column walk (256 elements = 2 KB).
                let idx = (i * 256 + lane * elems / LANES) % elems;
                r.read(buf, idx);
            }
        });
        rec.into_trace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdam_trace::stats::StrideHistogram;

    #[test]
    fn all_kernels_have_expected_variable_counts() {
        for (k, vars) in [(StreamKernel::Copy, 2), (StreamKernel::Triad, 3)] {
            let t = Stream::new(k).generate(Scale::tiny());
            assert_eq!(t.variables().len(), vars, "{k:?}");
            assert!(!t.is_empty());
        }
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
    fn phase_copy_has_two_stride_regimes() {
        let t = lane0(&PhaseCopy.generate(Scale::tiny()));
        let h = StrideHistogram::from_trace(&t);
        // Both the streaming stride and the large column stride appear
        // with non-trivial shares.
        assert!(h.share_of(1) > 0.2, "streaming phase missing");
        let large: f64 = h
            .iter()
            .filter(|&(s, _)| s.unsigned_abs() >= 32)
            .map(|(_, c)| c as f64)
            .sum::<f64>()
            / h.samples() as f64;
        assert!(large > 0.2, "column phase missing ({large})");
    }

    #[test]
    fn deterministic() {
        assert_eq!(
            Stream::triad().generate(Scale::tiny()),
            Stream::triad().generate(Scale::tiny())
        );
    }
}
