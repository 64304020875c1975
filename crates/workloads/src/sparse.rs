//! Sparse/scatter microkernels: SpMV and histogram building.
//!
//! Two more canonical memory-bound kernels with sharply different
//! per-variable patterns: SpMV streams a CSR matrix while gathering a
//! dense vector (the access mix at the heart of scientific codes and
//! GNN aggregation), and histogram building streams input while
//! scattering increments into a small hot table.

use sdam_trace::Trace;

use crate::graph::rmat;
use crate::recorder::run_parallel;
use crate::{Recorder, Scale, Workload};

const LANES: usize = 4;

/// Sparse matrix–vector multiply over an R-MAT-structured CSR matrix:
/// `y = A·x`. Rows are processed block-cyclically by four lanes.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Spmv;

impl Workload for Spmv {
    fn name(&self) -> &str {
        "spmv"
    }

    fn generate(&self, scale: Scale) -> Trace {
        // Reuse the R-MAT generator: an adjacency structure is exactly a
        // sparse 0/1 matrix with realistic skew.
        let a = rmat(scale.n.next_power_of_two(), 16, scale.seed);
        let n = a.num_vertices();
        let mut rec = Recorder::with_capacity(scale.accesses);
        let r_off = rec.alloc(n + 1, 4);
        let r_col = rec.alloc(a.num_edges().max(1), 4);
        let r_val = rec.alloc(a.num_edges().max(1), 8);
        let r_x = rec.alloc(n, 8);
        let r_y = rec.alloc(n, 8);

        const BLOCK: usize = 64;
        run_parallel(&mut rec, LANES, |lane, r| {
            let mut start = lane * BLOCK;
            while start < n {
                for row in start..(start + BLOCK).min(n) {
                    if r.len() * LANES >= scale.accesses {
                        return;
                    }
                    r.read(r_off, row);
                    r.read(r_off, row + 1);
                    for (ei, &col) in a.neighbours(row).iter().enumerate() {
                        let e = a.offsets[row] as usize + ei;
                        r.read(r_col, e);
                        r.read(r_val, e);
                        // The gather: x[col] is the random component.
                        r.read(r_x, col as usize);
                    }
                    r.write(r_y, row);
                }
                start += LANES * BLOCK;
            }
        });
        rec.into_trace()
    }
}

/// Histogram building: stream a large input, scatter increments into a
/// small bin table (read-modify-write on hot lines).
#[derive(Debug, Clone, Copy)]
pub(crate) struct HistogramBuild {
    bins: usize,
}

impl Default for HistogramBuild {
    /// 4096 bins (32 KB of counters: larger than an accelerator buffer,
    /// smaller than an L1).
    fn default() -> Self {
        HistogramBuild { bins: 4096 }
    }
}

impl Workload for HistogramBuild {
    fn name(&self) -> &str {
        "histogram"
    }

    fn generate(&self, scale: Scale) -> Trace {
        let n = scale.n * 4;
        let bins = self.bins;
        let mut rec = Recorder::with_capacity(scale.accesses);
        let r_input = rec.alloc(n, 8);
        let r_bins = rec.alloc(bins, 8);

        let chunk = n.div_ceil(LANES);
        run_parallel(&mut rec, LANES, |lane, r| {
            for i in (lane * chunk).min(n)..((lane + 1) * chunk).min(n) {
                if r.len() * LANES >= scale.accesses {
                    break;
                }
                r.read(r_input, i);
                // Pseudo-random bin from the element index (the data is
                // synthetic; the *pattern* — stream + scatter RMW — is
                // what matters).
                let bin = (i.wrapping_mul(0x9e3779b9) >> 7) % bins;
                r.read(r_bins, bin);
                r.write(r_bins, bin);
            }
        });
        rec.into_trace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spmv_has_five_variables_and_gathers() {
        let t = Spmv.generate(Scale::tiny());
        assert_eq!(t.variables().len(), 5);
        // The x-gather is the 4th variable (offsets, cols, vals, x, y)
        // and should be far from sequential on one lane.
        let vars = t.variables();
        let lane0 = t.thread_slice(sdam_trace::ThreadId(0));
        let xs: Vec<u64> = lane0.addrs_of(vars[3]).collect();
        let jumps = xs.windows(2).filter(|w| w[0].abs_diff(w[1]) > 4096).count();
        assert!(
            jumps as f64 > 0.1 * xs.len() as f64,
            "x-gather looks sequential: {jumps}/{}",
            xs.len()
        );
    }

    #[test]
    fn histogram_bins_are_hot() {
        let t = HistogramBuild::default().generate(Scale::tiny());
        assert_eq!(t.variables().len(), 2);
        let refs = t.refs_per_variable();
        let foot = t.footprint_per_variable();
        let vars = t.variables();
        // The bin table absorbs ~2/3 of accesses in a tiny footprint.
        let density = |v| refs[&v] as f64 / foot[&v] as f64;
        assert!(density(vars[1]) > 3.0 * density(vars[0]));
    }

    #[test]
    fn both_deterministic_and_budgeted() {
        for w in [&Spmv as &dyn Workload, &HistogramBuild::default()] {
            let a = w.generate(Scale::tiny());
            assert_eq!(a, w.generate(Scale::tiny()), "{}", w.name());
            assert!(a.len() <= Scale::tiny().accesses * 2, "{}", w.name());
        }
    }
}
