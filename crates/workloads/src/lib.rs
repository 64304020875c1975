//! # sdam-workloads — the paper's benchmark suite, reproduced
//!
//! The paper evaluates SDAM on (§7.2):
//!
//! * a synthetic strided data-copy benchmark ([`datacopy`]),
//! * the STREAM triad ([`stream`]), the sequential case where the
//!   paper's Fig. 12 discussion expects per-application mapping to
//!   gain little or regress,
//! * the 12 SPEC2006 integer applications and 7 PARSEC applications —
//!   we cannot ship those binaries, so [`suites`] provides per-benchmark
//!   *surrogates* whose variable population (count, major-variable
//!   count, footprints) matches the paper's own Table 1 measurements,
//! * 8 data-intensive kernels, which we implement as real algorithms
//!   (BFS / PageRank / SSSP over R-MAT graphs in [`graph`], hash join
//!   and merge-sort join in [`analytics`], K-Means / HNSW / IVFPQ in
//!   [`ann`]) running over *instrumented* data structures
//!   (`recorder`) so their address streams are the streams of the
//!   actual algorithm, tagged with the variable (allocation) each access
//!   belongs to.
//!
//! Every workload implements [`Workload`] and yields a
//! [`sdam_trace::Trace`] whose addresses are offsets in a synthetic
//! flat address space — the core crate maps them onto real physical
//! memory through the SDAM allocation stack.
//!
//! ## Example
//!
//! ```
//! use sdam_workloads::{Scale, Workload};
//! use sdam_workloads::graph::Bfs;
//!
//! let trace = Bfs::default().generate(Scale::tiny());
//! assert!(!trace.is_empty());
//! // BFS touches several distinct variables (offsets, edges, frontier...).
//! assert!(trace.variables().len() >= 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod analytics;
pub mod ann;
pub mod churn;
pub mod datacopy;
pub mod graph;
pub mod phased;
mod recorder;
pub mod stream;
pub mod suites;

use recorder::{Recorder, Region};

use sdam_trace::Trace;

/// Problem-size knob for every workload.
///
/// The paper runs full SPEC/Graph500-scale-20 inputs for minutes on its
/// FPGA; our default scales keep a full 6-configuration sweep in
/// seconds while preserving each kernel's access-pattern structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Approximate number of elements in the main data structures.
    pub n: usize,
    /// Approximate number of accesses to emit.
    pub accesses: usize,
    /// RNG seed (different seeds = the paper's "different inputs for
    /// profiling and evaluation" cross-validation).
    pub seed: u64,
}

impl Scale {
    /// Tiny: unit-test sized.
    pub fn tiny() -> Self {
        Scale {
            n: 1 << 10,
            accesses: 20_000,
            seed: 1,
        }
    }

    /// Small: bench-harness sized (default).
    pub fn small() -> Self {
        Scale {
            n: 1 << 14,
            accesses: 200_000,
            seed: 1,
        }
    }

    /// Large: closer to the paper's footprints; minutes per sweep.
    pub fn large() -> Self {
        Scale {
            n: 1 << 18,
            accesses: 2_000_000,
            seed: 1,
        }
    }

    /// Same scale, different input seed (for profiling/evaluation
    /// cross-validation).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale::small()
    }
}

/// A benchmark that can emit its memory-access trace.
pub trait Workload: std::fmt::Debug + Sync {
    /// The benchmark's name as the paper reports it.
    fn name(&self) -> &str;

    /// Generates the access trace at the given scale.
    fn generate(&self, scale: Scale) -> Trace;

    /// A stable identity for artifact caching: two workloads with equal
    /// fingerprints must generate identical traces for equal scales.
    /// The default combines the name with the `Debug` rendering, which
    /// captures constructor parameters (strides, thread counts, sizes)
    /// without any per-implementation work.
    fn fingerprint(&self) -> String {
        format!("{}:{:?}", self.name(), self)
    }
}

/// The data-intensive suite of the paper (§7.2): graph processing,
/// in-memory analytics, ML / information retrieval.
pub fn data_intensive_suite() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(graph::Bfs),
        Box::new(graph::PageRank),
        Box::new(graph::Sssp),
        Box::new(analytics::HashJoin),
        Box::new(analytics::MergeSortJoin),
        Box::new(ann::KMeansWorkload),
        Box::new(ann::Hnsw),
        Box::new(ann::Ivfpq),
    ]
}

/// The standard suite: SPEC2006 int + PARSEC surrogates (19 apps,
/// Table 1).
pub fn standard_suite() -> Vec<Box<dyn Workload>> {
    suites::table1()
        .into_iter()
        .map(|spec| Box::new(suites::Surrogate::new(spec)) as Box<dyn Workload>)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_have_paper_counts() {
        assert_eq!(data_intensive_suite().len(), 8);
        assert_eq!(standard_suite().len(), 19);
    }

    #[test]
    fn every_workload_emits_a_trace() {
        for w in data_intensive_suite().iter().chain(standard_suite().iter()) {
            let t = w.generate(Scale::tiny());
            assert!(!t.is_empty(), "{} emitted nothing", w.name());
        }
    }

    #[test]
    fn traces_are_deterministic_per_seed() {
        let w = graph::PageRank;
        assert_eq!(w.generate(Scale::tiny()), w.generate(Scale::tiny()));
        assert_ne!(
            w.generate(Scale::tiny()),
            w.generate(Scale::tiny().with_seed(2)),
            "different seeds should differ"
        );
    }
}
