//! The synthetic strided data-copy benchmark (paper §7.2, Figs. 3/4/11).
//!
//! Four threads copy 64 B elements with configurable per-thread strides.
//! Each thread has a source and a destination variable; one stride per
//! thread (cycled when fewer strides than threads are given).

use sdam_trace::gen::{interleave_round_robin, StrideGen};
use sdam_trace::{ThreadId, Trace, VariableId};

use crate::{Scale, Workload};

/// The data-copy workload.
#[derive(Debug, Clone)]
pub struct DataCopy {
    strides_lines: Vec<u64>,
    threads: usize,
}

impl DataCopy {
    /// A copy with the given per-thread strides (in 64 B lines) on the
    /// paper's four threads.
    ///
    /// # Panics
    ///
    /// Panics if `strides_lines` is empty or contains zero.
    pub fn new(strides_lines: Vec<u64>) -> Self {
        Self::with_threads(strides_lines, 4)
    }

    /// A copy with an explicit thread count.
    ///
    /// # Panics
    ///
    /// Panics if `strides_lines` is empty/contains zero or `threads`
    /// is zero.
    pub fn with_threads(strides_lines: Vec<u64>, threads: usize) -> Self {
        assert!(!strides_lines.is_empty(), "need at least one stride");
        assert!(
            strides_lines.iter().all(|&s| s > 0),
            "strides must be non-zero"
        );
        assert!(threads > 0, "need at least one thread");
        DataCopy {
            strides_lines,
            threads,
        }
    }

    /// The stride assigned to a thread.
    pub(crate) fn stride_of_thread(&self, t: usize) -> u64 {
        self.strides_lines[t % self.strides_lines.len()]
    }
}

impl Default for DataCopy {
    /// Stride-1 copy on four threads.
    fn default() -> Self {
        DataCopy::new(vec![1])
    }
}

impl Workload for DataCopy {
    fn name(&self) -> &str {
        "data-copy"
    }

    fn generate(&self, scale: Scale) -> Trace {
        let per_thread = (scale.accesses / (2 * self.threads)).max(1) as u64;
        let mut streams = Vec::with_capacity(self.threads);
        // Each thread strides its own source/destination pair; regions
        // are channel-aligned (1 GB apart) so a channel-pinning stride
        // pins the same way on every thread.
        for t in 0..self.threads {
            let stride = self.stride_of_thread(t) * 64;
            let base = (t as u64) << 30;
            let src = StrideGen::new(base, stride, per_thread)
                .thread(ThreadId(t as u16))
                .variable(VariableId(2 * t as u32))
                .into_trace();
            let dst = StrideGen::new(base + (1 << 29), stride, per_thread)
                .thread(ThreadId(t as u16))
                .variable(VariableId(2 * t as u32 + 1))
                .writes()
                .into_trace();
            // Copy: read one element, write one element.
            streams.push(interleave_round_robin(vec![src, dst]));
        }
        interleave_round_robin(streams)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copies_alternate_read_write() {
        let t = DataCopy::default().generate(Scale::tiny());
        let reads = t.iter().filter(|a| !a.is_write).count();
        let writes = t.iter().filter(|a| a.is_write).count();
        assert_eq!(reads, writes);
    }

    #[test]
    fn threads_and_variables() {
        let w = DataCopy::new(vec![1, 16]);
        let t = w.generate(Scale::tiny());
        let threads: std::collections::HashSet<u16> = t.iter().map(|a| a.thread.0).collect();
        assert_eq!(threads.len(), 4);
        assert_eq!(t.variables().len(), 8, "src+dst per thread");
        assert_eq!(w.stride_of_thread(0), 1);
        assert_eq!(w.stride_of_thread(1), 16);
        assert_eq!(w.stride_of_thread(2), 1);
    }

    #[test]
    fn stride_is_respected() {
        let t = DataCopy::new(vec![4]).generate(Scale::tiny());
        let v0: Vec<u64> = t.addrs_of(VariableId(0)).collect();
        assert!(v0.windows(2).all(|w| w[1] - w[0] == 4 * 64));
    }

    #[test]
    #[should_panic(expected = "at least one stride")]
    fn empty_strides_rejected() {
        let _ = DataCopy::new(vec![]);
    }
}
