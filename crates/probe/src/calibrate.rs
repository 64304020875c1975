//! Online latency-class calibration.

use sdam_hbm::Cycle;

use crate::ProbeTarget;

/// The three outcomes a probe pair's second access can have.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LatencyClass {
    /// Same channel, same effective bank, same row: served from the
    /// open row buffer.
    Hit,
    /// Different channel or different effective bank: a closed-bank
    /// access (activate + read).
    Miss,
    /// Same channel and effective bank but a different row: precharge +
    /// activate + read.
    Conflict,
}

/// Thresholds separating the latency classes, learned online from the
/// target itself — the agent never reads the [`sdam_hbm::Timing`]
/// parameters.
///
/// Training needs no knowledge of the mapping: after a settle, the
/// first access to *any* address is a closed-bank access (every bank is
/// precharged), and an immediate re-access of the *same* address is a
/// row hit. That yields exemplars for two of the three classes; a
/// conflict is strictly slower than a closed access (it adds the
/// precharge), so anything sufficiently above the closed exemplar is
/// classified `Conflict` without ever having seen one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Calibrator {
    hit: Cycle,
    closed: Cycle,
    hit_ceil: Cycle,
    conflict_floor: Cycle,
    separable: bool,
}

impl Calibrator {
    /// Probes issued by one [`Calibrator::train`] call.
    pub(crate) const TRAIN_PROBES: u64 = 3;

    /// Trains thresholds on a fresh target. Issues three accesses.
    pub fn train(target: &mut dyn ProbeTarget) -> Calibrator {
        target.settle();
        let closed = target.access(0);
        let hit = target.access(0);
        // Repeat the closed exemplar once: a target whose first-access
        // latency is not reproducible cannot be thresholded.
        target.settle();
        let closed2 = target.access(0);
        let stable = closed == closed2 && hit <= closed;
        let gap = closed.saturating_sub(hit);
        Calibrator {
            hit,
            closed,
            hit_ceil: hit + gap / 2,
            conflict_floor: closed + (gap / 2).max(1),
            separable: stable && hit < closed,
        }
    }

    /// Classifies one second-access latency.
    pub fn classify(&self, latency: Cycle) -> LatencyClass {
        if latency <= self.hit_ceil {
            LatencyClass::Hit
        } else if latency >= self.conflict_floor {
            LatencyClass::Conflict
        } else {
            LatencyClass::Miss
        }
    }

    /// Whether hit and closed exemplars were distinct and reproducible.
    /// When `false`, the timing model is too coarse for hit/miss
    /// probing (e.g. a zero activate delay) — a fidelity finding, not a
    /// recovery bug.
    pub fn separable(&self) -> bool {
        self.separable
    }

    /// The trained row-hit exemplar latency.
    pub fn hit_latency(&self) -> Cycle {
        self.hit
    }

    /// The trained closed-bank exemplar latency.
    pub fn closed_latency(&self) -> Cycle {
        self.closed
    }

    /// The lowest latency classified as a conflict.
    pub(crate) fn conflict_floor(&self) -> Cycle {
        self.conflict_floor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed {
        first: Cycle,
        again: Cycle,
        last: Option<u64>,
    }
    impl ProbeTarget for Fixed {
        fn probe_bits(&self) -> u32 {
            20
        }
        fn settle(&mut self) {
            self.last = None;
        }
        fn access(&mut self, va: u64) -> Cycle {
            let lat = if self.last == Some(va) {
                self.again
            } else {
                self.first
            };
            self.last = Some(va);
            lat
        }
    }

    #[test]
    fn thresholds_bracket_the_classes() {
        let mut t = Fixed {
            first: 32,
            again: 18,
            last: None,
        };
        let c = Calibrator::train(&mut t);
        assert!(c.separable());
        assert_eq!(c.classify(18), LatencyClass::Hit);
        assert_eq!(c.classify(32), LatencyClass::Miss);
        assert_eq!(c.classify(46), LatencyClass::Conflict);
        // A constant lookup adder shifts all classes uniformly and must
        // not confuse the trained thresholds.
        let mut t = Fixed {
            first: 34,
            again: 20,
            last: None,
        };
        let c = Calibrator::train(&mut t);
        assert_eq!(c.classify(20), LatencyClass::Hit);
        assert_eq!(c.classify(34), LatencyClass::Miss);
        assert_eq!(c.classify(48), LatencyClass::Conflict);
    }

    #[test]
    fn merged_hit_and_closed_is_flagged_not_separable() {
        let mut t = Fixed {
            first: 18,
            again: 18,
            last: None,
        };
        let c = Calibrator::train(&mut t);
        assert!(!c.separable());
        // The conflict boundary still works: a precharge penalty is
        // visible even when the activate delay is zero.
        assert_eq!(c.classify(32), LatencyClass::Conflict);
    }
}
