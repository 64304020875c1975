//! The workspace-level error type.
//!
//! Each layer keeps its own error — [`ConfigError`] for shapes,
//! [`MemError`] for the allocation stack, [`CmtError`] for the mapping
//! hardware, [`TraceIoError`] for trace files, [`KMeansError`] and
//! [`DlError`] for clustering — and the pipeline's
//! entry points (`try_run`, `try_compare`, `try_run_corun`) fold them
//! all into [`SdamError`], so a caller embedding the evaluation
//! pipeline handles one type. The figure binaries, which want fail-fast
//! behaviour, route every error through one `exit_on_err`.

use sdam_mapping::CmtError;
use sdam_mem::MemError;
use sdam_ml::dlkmeans::DlError;
use sdam_ml::KMeansError;
use sdam_sys::ConfigError;
use sdam_trace::io::TraceIoError;

/// Anything the evaluation pipeline can fail with.
#[derive(Debug)]
pub enum SdamError {
    /// An invalid experiment, machine, cache, system, or training
    /// configuration.
    Config(ConfigError),
    /// A failure in the allocation stack (out of memory, bad address,
    /// unknown mapping or process, exhausted mapping ids).
    Mem(MemError),
    /// A failure registering or driving the chunk mapping table.
    Cmt(CmtError),
    /// A failure reading or writing a trace file.
    TraceIo(TraceIoError),
    /// Mapping selection could not cluster its points (a non-finite
    /// flip rate or embedding).
    Clustering(KMeansError),
    /// Profiling found no major variables, but the configuration needs
    /// a per-variable profile to select mappings from.
    EmptyProfile,
    /// A co-run was requested with an empty workload list.
    NoWorkloads,
}

impl std::fmt::Display for SdamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SdamError::Config(e) => write!(f, "{e}"),
            SdamError::Mem(e) => write!(f, "{e}"),
            SdamError::Cmt(e) => write!(f, "{e}"),
            SdamError::TraceIo(e) => write!(f, "{e}"),
            SdamError::Clustering(e) => write!(f, "mapping selection: {e}"),
            SdamError::EmptyProfile => {
                write!(
                    f,
                    "profiling found no major variables to select mappings for"
                )
            }
            SdamError::NoWorkloads => write!(f, "need at least one workload"),
        }
    }
}

impl std::error::Error for SdamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SdamError::Config(e) => Some(e),
            SdamError::Mem(e) => Some(e),
            SdamError::Cmt(e) => Some(e),
            SdamError::TraceIo(e) => Some(e),
            SdamError::Clustering(e) => Some(e),
            SdamError::EmptyProfile | SdamError::NoWorkloads => None,
        }
    }
}

impl From<ConfigError> for SdamError {
    fn from(e: ConfigError) -> Self {
        SdamError::Config(e)
    }
}

impl From<MemError> for SdamError {
    fn from(e: MemError) -> Self {
        SdamError::Mem(e)
    }
}

impl From<CmtError> for SdamError {
    fn from(e: CmtError) -> Self {
        SdamError::Cmt(e)
    }
}

impl From<TraceIoError> for SdamError {
    fn from(e: TraceIoError) -> Self {
        SdamError::TraceIo(e)
    }
}

impl From<KMeansError> for SdamError {
    fn from(e: KMeansError) -> Self {
        SdamError::Clustering(e)
    }
}

impl From<sdam_ml::TrainingError> for SdamError {
    fn from(e: sdam_ml::TrainingError) -> Self {
        SdamError::Config(ConfigError::Training { what: e.what })
    }
}

impl From<DlError> for SdamError {
    fn from(e: DlError) -> Self {
        match e {
            DlError::AddrBits(_) => SdamError::Config(ConfigError::Training {
                what: "DL clustering needs an address width in 1..=64",
            }),
            DlError::Training(e) => e.into(),
            DlError::KMeans(e) => e.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_every_layer() {
        let e: SdamError = MemError::OutOfPhysicalMemory.into();
        assert!(matches!(e, SdamError::Mem(_)));
        assert!(e.to_string().contains("physical memory"));
        let e: SdamError = ConfigError::Machine { what: "no cores" }.into();
        assert!(e.to_string().contains("no cores"));
        let e: SdamError = sdam_ml::TrainingError {
            what: "steps must be positive",
        }
        .into();
        assert!(matches!(e, SdamError::Config(ConfigError::Training { .. })));
        assert!(SdamError::EmptyProfile.to_string().contains("major"));
        let e: SdamError = KMeansError::NonFinite { point: 3 }.into();
        assert!(matches!(e, SdamError::Clustering(_)));
        assert!(e.to_string().contains("point 3"), "{e}");
        let e: SdamError = DlError::KMeans(KMeansError::ZeroClusters).into();
        assert!(matches!(
            e,
            SdamError::Clustering(KMeansError::ZeroClusters)
        ));
        let e: SdamError = DlError::AddrBits(65).into();
        assert!(matches!(e, SdamError::Config(ConfigError::Training { .. })));
        use std::error::Error;
        assert!(SdamError::Mem(MemError::MappingIdsExhausted)
            .source()
            .is_some());
    }
}
