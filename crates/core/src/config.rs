//! System configurations (paper §7.3) and experiment parameters.

use sdam_hbm::{Geometry, Timing};
use sdam_sys::{ConfigError, MachineConfig};
use sdam_workloads::Scale;

/// The six system configurations the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemConfig {
    /// Baseline system + default (boot-time, Xilinx-IP) mapping.
    BsDm,
    /// Baseline + one global bit-shuffle mapping selected from the
    /// aggregate bit-flip profile of the whole workload mix.
    BsBsm,
    /// Baseline + hashing-based mapping (XOR entropy harvesting).
    BsHm,
    /// SDAM with one bit-shuffle mapping per application.
    SdmBsm,
    /// SDAM with K-Means-clustered per-variable mappings.
    SdmBsmMl {
        /// Number of clusters per application (the paper uses 4 and 32).
        clusters: usize,
    },
    /// SDAM with DL-assisted K-Means (LSTM autoencoder embeddings).
    SdmBsmDl {
        /// Number of clusters per application.
        clusters: usize,
    },
}

impl SystemConfig {
    /// All configurations of the paper's Fig. 12, in its order.
    pub fn paper_lineup() -> Vec<SystemConfig> {
        vec![
            SystemConfig::BsDm,
            SystemConfig::BsBsm,
            SystemConfig::BsHm,
            SystemConfig::SdmBsm,
            SystemConfig::SdmBsmMl { clusters: 4 },
            SystemConfig::SdmBsmMl { clusters: 32 },
            SystemConfig::SdmBsmDl { clusters: 4 },
            SystemConfig::SdmBsmDl { clusters: 32 },
        ]
    }

    /// True for the configurations that use the SDAM hardware (CMT +
    /// per-chunk AMU configurations).
    pub fn is_sdam(&self) -> bool {
        matches!(
            self,
            SystemConfig::SdmBsm | SystemConfig::SdmBsmMl { .. } | SystemConfig::SdmBsmDl { .. }
        )
    }

    /// True for configurations that need a profiling run.
    pub fn needs_profiling(&self) -> bool {
        !matches!(self, SystemConfig::BsDm | SystemConfig::BsHm)
    }

    /// Validates the configuration: a clustered configuration needs at
    /// least one cluster.
    ///
    /// # Errors
    ///
    /// [`ConfigError::System`] naming the violated constraint.
    pub fn try_validate(&self) -> Result<(), ConfigError> {
        match self {
            SystemConfig::SdmBsmMl { clusters: 0 } | SystemConfig::SdmBsmDl { clusters: 0 } => {
                Err(ConfigError::System {
                    what: "cluster count must be positive",
                })
            }
            _ => Ok(()),
        }
    }
}

impl std::fmt::Display for SystemConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SystemConfig::BsDm => write!(f, "BS+DM"),
            SystemConfig::BsBsm => write!(f, "BS+BSM"),
            SystemConfig::BsHm => write!(f, "BS+HM"),
            SystemConfig::SdmBsm => write!(f, "SDM+BSM"),
            SystemConfig::SdmBsmMl { clusters } => write!(f, "SDM+BSM+ML({clusters})"),
            SystemConfig::SdmBsmDl { clusters } => write!(f, "SDM+BSM+DL({clusters})"),
        }
    }
}

/// How much host parallelism the evaluation pipeline may use.
///
/// Parallel execution is *deterministic*: every tier (per-config runs
/// in [`crate::pipeline::try_compare`], per-workload profiling in
/// [`crate::pipeline::try_run_corun`], and DL minibatch training)
/// produces reports bit-identical to [`Parallelism::Serial`]. The knob
/// only trades wall-clock for host threads. Executing one trace on the
/// machine model is always serial: its per-request channel work is too
/// fine-grained to hand off to other threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Single-threaded everywhere (the reference behaviour).
    Serial,
    /// Use exactly this many worker threads per parallel region.
    Threads(usize),
    /// Use the host's available parallelism.
    #[default]
    Auto,
}

impl Parallelism {
    /// The worker-thread count this setting resolves to (>= 1).
    pub fn threads(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }
}

/// Everything an end-to-end run needs besides the workload and the
/// configuration.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Memory geometry (default: the paper's 8 GB, 32-channel HBM2).
    pub geometry: Geometry,
    /// Memory timing; scale it for the Fig. 14 frequency study.
    pub timing: Timing,
    /// Chunk size in address bits (default 21 = 2 MB).
    pub chunk_bits: u32,
    /// The machine running the workload (CPU or accelerator).
    pub machine: MachineConfig,
    /// Workload scale for the *evaluation* run.
    pub scale: Scale,
    /// Seed for the *profiling* run (the paper profiles on the training
    /// input and evaluates on the test input).
    pub profile_seed: u64,
    /// ML/DL training configuration.
    pub training: sdam_ml::TrainingConfig,
    /// Host-thread budget for the pipeline (deterministic; see
    /// [`Parallelism`]).
    pub parallelism: Parallelism,
}

impl Experiment {
    /// The paper's platform at a laptop-runnable scale.
    pub fn quick() -> Self {
        Experiment {
            geometry: Geometry::hbm2_8gb(),
            timing: Timing::hbm2(),
            chunk_bits: 21,
            machine: MachineConfig::cpu(),
            scale: Scale::tiny(),
            profile_seed: 7,
            training: sdam_ml::TrainingConfig::laptop(),
            parallelism: Parallelism::Auto,
        }
    }

    /// Bench-harness scale (used by the figure binaries).
    pub fn bench() -> Self {
        Experiment {
            scale: Scale::small(),
            ..Experiment::quick()
        }
    }

    /// Validates the experiment: the chunk must be larger than a page,
    /// smaller than the physical space, and within the CMT's crossbar
    /// window (at most 21 chunk-offset bits above the 6-bit line
    /// offset); the machine and training configurations must be valid.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] naming the violated constraint.
    pub fn try_validate(&self) -> Result<(), ConfigError> {
        let addr_bits = self.geometry.addr_bits();
        if self.chunk_bits <= 12 || self.chunk_bits >= addr_bits || self.chunk_bits - 6 > 21 {
            return Err(ConfigError::ChunkBits {
                chunk_bits: self.chunk_bits,
                addr_bits,
            });
        }
        self.machine.try_validate()?;
        self.training
            .try_validate()
            .map_err(|e| ConfigError::Training { what: e.what })?;
        Ok(())
    }
}

impl Default for Experiment {
    fn default() -> Self {
        Experiment::quick()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lineup_matches_fig12() {
        let l = SystemConfig::paper_lineup();
        assert_eq!(l.len(), 8);
        assert_eq!(l[0], SystemConfig::BsDm);
        assert_eq!(l[0].to_string(), "BS+DM");
        assert_eq!(
            l[7].to_string(),
            "SDM+BSM+DL(32)",
            "display names follow the paper"
        );
    }

    #[test]
    fn classification() {
        assert!(!SystemConfig::BsDm.is_sdam());
        assert!(!SystemConfig::BsHm.needs_profiling());
        assert!(SystemConfig::BsBsm.needs_profiling());
        assert!(SystemConfig::SdmBsmMl { clusters: 4 }.is_sdam());
    }

    #[test]
    fn quick_experiment_is_valid() {
        Experiment::quick().try_validate().unwrap();
        Experiment::bench().try_validate().unwrap();
    }

    #[test]
    fn parallelism_resolves_to_at_least_one_thread() {
        assert_eq!(Parallelism::Serial.threads(), 1);
        assert_eq!(Parallelism::Threads(6).threads(), 6);
        assert_eq!(Parallelism::Threads(0).threads(), 1);
        assert!(Parallelism::Auto.threads() >= 1);
        assert_eq!(Parallelism::default(), Parallelism::Auto);
    }
}
