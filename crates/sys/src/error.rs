//! Typed configuration errors.
//!
//! Every `validate()` in the workspace used to `assert!`; a bad request
//! then killed the process. The validators (`try_validate`,
//! `Machine::try_new`, `Experiment::try_validate` in `sdam`) return
//! [`ConfigError`] instead; the figure binaries, which want fail-fast
//! behaviour, exit on the error themselves.
//!
//! Ownership: `sdam-sys` owns the machine- and cache-shape variants;
//! the chunk/system/training variants are filled in by `sdam` (core)
//! and `sdam-ml`, which re-use this type so one error covers the whole
//! experiment description.

/// An invalid experiment, machine, cache, system, or training
/// configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `chunk_bits` does not fit between a page and the device capacity
    /// (or exceeds the CMT's 21-bit AMU window above the line offset).
    ChunkBits {
        /// The offending chunk size in address bits.
        chunk_bits: u32,
        /// The device's physical address width.
        addr_bits: u32,
    },
    /// An invalid machine shape (cores, miss window).
    Machine {
        /// Which constraint failed.
        what: &'static str,
    },
    /// An invalid cache shape.
    Cache {
        /// Which constraint failed.
        what: &'static str,
    },
    /// An invalid system configuration (e.g. zero clusters).
    System {
        /// Which constraint failed.
        what: &'static str,
    },
    /// An invalid ML/DL training configuration.
    Training {
        /// Which constraint failed.
        what: &'static str,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ChunkBits {
                chunk_bits,
                addr_bits,
            } => write!(
                f,
                "invalid chunk_bits {chunk_bits} for a {addr_bits}-bit physical space \
                 (need page < chunk < memory and a <= 21-bit chunk-offset window)"
            ),
            ConfigError::Machine { what } => write!(f, "invalid machine config: {what}"),
            ConfigError::Cache { what } => write!(f, "invalid cache config: {what}"),
            ConfigError::System { what } => write!(f, "invalid system config: {what}"),
            ConfigError::Training { what } => write!(f, "invalid training config: {what}"),
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_name_the_constraint() {
        let e = ConfigError::ChunkBits {
            chunk_bits: 40,
            addr_bits: 33,
        };
        assert!(e.to_string().contains("chunk_bits 40"));
        assert!(ConfigError::Machine { what: "no cores" }
            .to_string()
            .contains("no cores"));
    }
}
