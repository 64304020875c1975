//! Per-bank row-buffer state.
//!
//! Each bank has at most one open row. A request to the open row is a
//! *row hit*; to a different row a *row conflict* (precharge + activate);
//! to a closed bank a *row miss* (activate only). The bank also tracks
//! when it next becomes ready, so back-to-back requests to one bank
//! serialize even when the channel bus is free.

use crate::{Cycle, Timing};

/// Classification of a single access against the row-buffer state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowOutcome {
    /// The addressed row was already open.
    Hit,
    /// The bank was idle (no open row); activation needed.
    Miss,
    /// A different row was open; precharge plus activation needed.
    Conflict,
}

/// State machine for one DRAM bank.
///
/// # Example
///
/// ```
/// use sdam_hbm::bank::{BankState, RowOutcome};
/// use sdam_hbm::Timing;
///
/// let t = Timing::hbm2();
/// let mut bank = BankState::new();
/// let (done1, o1) = bank.access(7, 0, &t);
/// assert_eq!(o1, RowOutcome::Miss);
/// let (done2, o2) = bank.access(7, done1, &t);
/// assert_eq!(o2, RowOutcome::Hit);
/// assert!(done2 > done1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BankState {
    open_row: Option<u64>,
    /// Cycle at which the bank can accept its next column command.
    ready: Cycle,
    /// Cycle at which the currently open row satisfies tRAS and may be
    /// precharged.
    ras_done: Cycle,
}

impl BankState {
    /// A fresh bank with no open row.
    pub fn new() -> Self {
        BankState::default()
    }

    /// The row currently held in the row buffer, if any.
    #[inline]
    pub fn open_row(&self) -> Option<u64> {
        self.open_row
    }

    /// Classifies what an access to `row` would be, without mutating.
    #[inline]
    pub fn classify(&self, row: u64) -> RowOutcome {
        match self.open_row {
            Some(r) if r == row => RowOutcome::Hit,
            Some(_) => RowOutcome::Conflict,
            None => RowOutcome::Miss,
        }
    }

    /// Performs an access to `row` arriving at cycle `now`.
    ///
    /// Returns the cycle at which the *data transfer may begin* on the
    /// channel bus (i.e. bank-side readiness, excluding bus contention)
    /// and the row outcome. The caller (the channel scheduler) arbitrates
    /// the shared data bus separately.
    pub fn access(&mut self, row: u64, now: Cycle, timing: &Timing) -> (Cycle, RowOutcome) {
        let outcome = self.classify(row);
        let start = now.max(self.ready);
        let data_start = match outcome {
            RowOutcome::Hit => start + timing.cl,
            RowOutcome::Miss => start + timing.t_rcd + timing.cl,
            RowOutcome::Conflict => {
                // Precharge may not start before tRAS of the open row.
                let pre_start = start.max(self.ras_done);
                pre_start + timing.t_rp + timing.t_rcd + timing.cl
            }
        };
        if outcome != RowOutcome::Hit {
            // Row was (re)activated; record when tRAS allows precharge.
            let act_at = match outcome {
                RowOutcome::Miss => start,
                RowOutcome::Conflict => start.max(self.ras_done) + timing.t_rp,
                RowOutcome::Hit => unreachable!(),
            };
            self.ras_done = act_at + timing.t_ras;
        }
        self.open_row = Some(row);
        self.ready = data_start;
        (data_start, outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Timing {
        Timing::hbm2()
    }

    #[test]
    fn first_access_is_miss() {
        let mut b = BankState::new();
        let (_, o) = b.access(0, 0, &t());
        assert_eq!(o, RowOutcome::Miss);
    }

    #[test]
    fn same_row_hits_different_row_conflicts() {
        let mut b = BankState::new();
        b.access(5, 0, &t());
        assert_eq!(b.classify(5), RowOutcome::Hit);
        assert_eq!(b.classify(6), RowOutcome::Conflict);
        let (_, o) = b.access(5, 100, &t());
        assert_eq!(o, RowOutcome::Hit);
        let (_, o) = b.access(6, 200, &t());
        assert_eq!(o, RowOutcome::Conflict);
    }

    #[test]
    fn conflict_respects_t_ras() {
        let tm = t();
        let mut b = BankState::new();
        // Activate row 0 at cycle 0: precharge legal from tRAS.
        b.access(0, 0, &tm);
        // Immediate conflict: precharge waits for tRAS.
        let (data_start, o) = b.access(1, 0, &tm);
        assert_eq!(o, RowOutcome::Conflict);
        assert!(data_start >= tm.t_ras + tm.t_rp + tm.t_rcd + tm.cl);
    }

    #[test]
    fn back_to_back_hits_serialize_on_bank_readiness() {
        let tm = t();
        let mut b = BankState::new();
        let (d1, _) = b.access(0, 0, &tm);
        let (d2, _) = b.access(0, 0, &tm); // also arrives at cycle 0
        assert!(
            d2 >= d1 + tm.cl,
            "second hit cannot start before bank ready"
        );
    }

    #[test]
    fn access_time_never_before_arrival() {
        let tm = t();
        let mut b = BankState::new();
        let (d, _) = b.access(0, 500, &tm);
        assert!(d >= 500 + tm.t_rcd + tm.cl);
    }
}
