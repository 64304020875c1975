//! SPEC2006 / PARSEC surrogates, parameterized by the paper's Table 1.
//!
//! We cannot redistribute SPEC or PARSEC, and the mechanism under test
//! consumes only each program's *variable population*: how many
//! variables exist, how many are major, how big they are, and what
//! access pattern each one drives. Table 1 of the paper reports exactly
//! those statistics for all 19 applications; [`Surrogate`] generates a
//! trace matching them, with per-variable patterns drawn
//! deterministically from a family of strided / random / mixed
//! generators. The *population statistics* come from the paper; the
//! per-variable patterns are synthetic — this is the substitution
//! DESIGN.md §2 documents.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdam_trace::gen::{interleave_bursts, RandomGen, StrideGen};
use sdam_trace::{ThreadId, Trace, VariableId};

use crate::{Scale, Workload};

/// One row of the paper's Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkSpec {
    /// Benchmark name as printed in the paper.
    pub name: &'static str,
    /// Total number of variables ("# of Var.").
    pub num_variables: u64,
    /// Number of major variables ("# of Major Var.").
    pub num_major: u64,
    /// Average major-variable size in MB ("Avg. Major Var. Size").
    avg_major_mb: f64,
    /// Minimum major-variable size in MB ("Min. Major Var. Size").
    min_major_mb: f64,
}

/// The paper's Table 1, verbatim.
///
/// (The printed astar row has `avg 1.8 MB < min 9 MB`; we keep the
/// numbers as printed and the generator clamps `avg = max(avg, min)`.)
pub fn table1() -> Vec<BenchmarkSpec> {
    let row = |name, num_variables, num_major, avg_major_mb, min_major_mb| BenchmarkSpec {
        name,
        num_variables,
        num_major,
        avg_major_mb,
        min_major_mb,
    };
    vec![
        // SPEC CPU2006 integer.
        row("perlbench", 7268, 1, 910.0, 910.0),
        row("bzip2", 10, 10, 32.0, 4.0),
        row("gcc", 49690, 34, 59.0, 4.0),
        row("mcf", 3, 3, 1215.0, 953.0),
        row("gobmk", 43, 5, 8.0, 7.0),
        row("hmmer", 84, 10, 6.0, 4.0),
        row("sjeng", 4, 4, 60.0, 54.0),
        row("libquantum", 10, 7, 212.0, 4.0),
        row("h264ref", 193, 8, 24.0, 7.0),
        row("omnetpp", 9400, 65, 3.0, 1.0),
        row("astar", 178, 38, 1.8, 9.0),
        row("xalancbmk", 4802, 4, 230.0, 78.0),
        // PARSEC.
        row("bodytrack", 220, 12, 212.0, 36.0),
        row("cenneal", 17, 9, 365.0, 69.0),
        row("dedup", 29, 15, 215.0, 12.0),
        row("ferret", 109, 22, 65.0, 23.0),
        row("freqmine", 60, 9, 215.0, 37.0),
        row("streamcluster", 35, 9, 234.0, 68.0),
        row("vips", 892, 25, 125.0, 36.0),
    ]
}

/// A benchmark surrogate driven by a [`BenchmarkSpec`].
#[derive(Debug, Clone)]
pub struct Surrogate {
    spec: BenchmarkSpec,
}

/// The stride family a surrogate variable may use (in 64 B lines).
const STRIDE_FAMILY: [u64; 7] = [1, 2, 4, 8, 16, 32, 64];

impl Surrogate {
    /// Wraps a spec.
    pub fn new(spec: BenchmarkSpec) -> Self {
        Surrogate { spec }
    }

    /// Footprints (bytes) assigned to the major variables: a linear ramp
    /// from the reported minimum whose mean equals the reported average,
    /// scaled down so the whole run stays laptop-sized (`1 paper-MB ≙
    /// 4 KB`, floor one page).
    pub(crate) fn major_footprints(&self) -> Vec<u64> {
        let m = self.spec.num_major;
        let avg = self.spec.avg_major_mb.max(self.spec.min_major_mb);
        let min = self.spec.min_major_mb;
        (0..m)
            .map(|i| {
                let mb = if m == 1 {
                    avg
                } else {
                    min + (avg - min) * 2.0 * i as f64 / (m - 1) as f64
                };
                let bytes = (mb * 4096.0) as u64;
                bytes.div_ceil(4096).max(1) * 4096
            })
            .collect()
    }

    fn pattern_seed(&self, var: u64, scale_seed: u64) -> u64 {
        // Deterministic per (benchmark, variable), but shifted by the
        // input seed to model "different inputs" only where the paper
        // says inputs matter: the data, not the allocation-site pattern.
        let mut h = 0xcbf29ce484222325u64;
        for b in self.spec.name.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100000001b3);
        }
        h ^ var.wrapping_mul(0x9e37_79b9) ^ (scale_seed << 48)
    }
}

impl Workload for Surrogate {
    fn name(&self) -> &str {
        self.spec.name
    }

    fn generate(&self, scale: Scale) -> Trace {
        let footprints = self.major_footprints();
        let m = footprints.len();
        // Major variables get 85 % of references (they must clear the
        // 80 % bar), a bounded set of tail variables shares the rest.
        let tail_vars = (self.spec.num_variables - self.spec.num_major).min(16) as usize;
        let major_refs = scale.accesses * 85 / 100;
        let tail_refs = scale.accesses - major_refs;

        let mut streams: Vec<Trace> = Vec::new();
        let mut next_base = 0u64;
        let mut var = 0u32;
        let mut alloc = |bytes: u64| {
            let base = next_base;
            next_base += bytes.div_ceil(4096) * 4096 + 4096;
            base
        };

        // Flat reference weights across major variables: the paper's
        // major set is defined by the 80 % coverage rule, and Table 1's
        // counts are reproduced when every major variable carries a
        // similar share (85 % / m each vs ~1 % per tail variable).
        let weights: Vec<f64> = (0..m).map(|_| 1.0).collect();
        let wsum: f64 = weights.iter().sum();
        for (i, &bytes) in footprints.iter().enumerate() {
            let base = alloc(bytes);
            let count = ((major_refs as f64) * weights[i] / wsum) as u64;
            if count == 0 {
                continue;
            }
            let mut rng = StdRng::seed_from_u64(self.pattern_seed(i as u64, 0));
            let thread = ThreadId((i % 4) as u16);
            // 1 in 4 major variables is a random-access structure, the
            // rest stride with a per-variable stride.
            let t = if rng.gen_range(0..4) == 0 {
                RandomGen::new(base, bytes.max(64), count, scale.seed ^ i as u64)
                    .variable(VariableId(var))
                    .thread(thread)
                    .into_trace()
            } else {
                let stride = STRIDE_FAMILY[rng.gen_range(0..STRIDE_FAMILY.len())];
                // Different inputs shift where in the buffer the loop
                // starts; the stride (the allocation site's pattern) is
                // input-invariant — the property the paper's
                // cross-validation relies on.
                let phase = (scale.seed % 64) * 64;
                StrideGen::new(base + phase, stride * 64, count)
                    .variable(VariableId(var))
                    .thread(thread)
                    .wrap(bytes.max(stride * 64))
                    .into_trace()
            };
            streams.push(t);
            var += 1;
        }
        // Tail variables: small, lightly referenced.
        for i in 0..tail_vars {
            let bytes = 64 * 1024;
            let base = alloc(bytes as u64);
            let count = (tail_refs / tail_vars.max(1)) as u64;
            if count == 0 {
                continue;
            }
            streams.push(
                RandomGen::new(base, bytes as u64, count, scale.seed ^ (0x7a11 + i as u64))
                    .variable(VariableId(var))
                    .thread(ThreadId((i % 4) as u16))
                    .into_trace(),
            );
            var += 1;
        }
        // Loop-phase behaviour: within a thread, variables are touched
        // in bursts (the paper's benchmarks are loop kernels); across
        // threads, accesses interleave per-access so all cores stay
        // busy.
        let mut per_thread: Vec<Vec<Trace>> = (0..4).map(|_| Vec::new()).collect();
        for t in streams {
            let tid = t.accesses().first().map_or(0, |a| a.thread.index() % 4);
            per_thread[tid].push(t);
        }
        let thread_traces: Vec<Trace> = per_thread
            .into_iter()
            .enumerate()
            .map(|(i, ts)| interleave_bursts(ts, 64, 256, scale.seed ^ 0xb1e55 ^ i as u64))
            .collect();
        sdam_trace::gen::interleave_round_robin(thread_traces)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdam_trace::profile;

    #[test]
    fn table1_has_19_rows_with_paper_values() {
        let t = table1();
        assert_eq!(t.len(), 19);
        let mcf = t.iter().find(|s| s.name == "mcf").unwrap();
        assert_eq!(mcf.num_variables, 3);
        assert_eq!(mcf.num_major, 3);
        let omnetpp = t.iter().find(|s| s.name == "omnetpp").unwrap();
        assert_eq!(omnetpp.num_major, 65);
    }

    #[test]
    fn footprint_ramp_mean_matches_avg() {
        let s = Surrogate::new(table1().into_iter().find(|s| s.name == "bzip2").unwrap());
        let f = s.major_footprints();
        assert_eq!(f.len(), 10);
        let mean = f.iter().sum::<u64>() as f64 / f.len() as f64;
        let expect = 32.0 * 4096.0;
        assert!(
            (mean - expect).abs() / expect < 0.1,
            "mean {mean} vs {expect}"
        );
        assert!(f.iter().all(|&b| b % 4096 == 0));
    }

    #[test]
    fn major_variable_count_is_reproduced() {
        // The whole point of the surrogate: when we profile it, we should
        // measure roughly the paper's major-variable count.
        for name in ["mcf", "bzip2", "gobmk", "sjeng"] {
            let spec = table1().into_iter().find(|s| s.name == name).unwrap();
            let expect = spec.num_major;
            let trace = Surrogate::new(spec).generate(Scale::tiny());
            let major = profile::major_variables(&trace, 0.8).len() as u64;
            assert!(
                major >= expect.saturating_sub(2) && major <= expect + 2,
                "{name}: measured {major} major vars, paper says {expect}"
            );
        }
    }

    #[test]
    fn surrogate_is_deterministic() {
        let spec = table1().into_iter().find(|s| s.name == "hmmer").unwrap();
        let s = Surrogate::new(spec);
        assert_eq!(s.generate(Scale::tiny()), s.generate(Scale::tiny()));
    }

    #[test]
    fn different_input_seed_same_pattern_structure() {
        // The paper's cross-validation: profiling on one input, running
        // on another, works because patterns follow allocation sites.
        let spec = table1().into_iter().find(|s| s.name == "sjeng").unwrap();
        let s = Surrogate::new(spec);
        let a = s.generate(Scale::tiny());
        let b = s.generate(Scale::tiny().with_seed(99));
        assert_ne!(a, b, "data differs");
        assert_eq!(a.variables(), b.variables(), "variable structure persists");
    }

    #[test]
    fn astar_typo_clamped() {
        let spec = table1().into_iter().find(|s| s.name == "astar").unwrap();
        let s = Surrogate::new(spec);
        let f = s.major_footprints();
        // min 9 MB > avg 1.8 MB in the printed table; clamp keeps sizes
        // at or above the printed minimum's scaled value.
        assert!(f.iter().all(|&b| b >= (9.0 * 4096.0) as u64 / 4096 * 4096));
    }
}
