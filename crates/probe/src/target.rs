//! The attacker's only window into the system.

use sdam_hbm::Cycle;

/// An opaque memory system under probe.
///
/// This is the *entire* interface the recovery [`Agent`](crate::Agent)
/// is allowed to touch: issue a read at a virtual offset, observe its
/// latency, and ask for an idle gap. There is intentionally no way to
/// reach the mapping, the CMT, or any decoded address through this
/// trait — an `&mut dyn ProbeTarget` has no escape hatch, which is what
/// makes the recovery genuinely black-box.
///
/// Implementations route `access` through their real translation and
/// scheduling path (for the simulator: VA→PA→CMT/AMU→controller bank
/// hash→FR-FCFS) and return the request's completion latency in device
/// cycles.
///
/// Each recovery runs calibration, its probe pairs and validation on
/// one target, in that order. Every pair opens with
/// [`ProbeTarget::settle`], so no experiment's latency depends on an
/// earlier one.
pub trait ProbeTarget {
    /// Number of low virtual-address bits the agent may vary. Offsets
    /// are masked to this width; everything above is fixed by the
    /// target (its probe region placement).
    fn probe_bits(&self) -> u32;

    /// Inserts an idle gap long enough that the next access observes a
    /// device with no row open and no refresh debt — the boundary
    /// between two experiments.
    fn settle(&mut self);

    /// Issues one read at virtual offset `va` (line-aligned by
    /// convention) and returns its latency in cycles.
    fn access(&mut self, va: u64) -> Cycle;
}
