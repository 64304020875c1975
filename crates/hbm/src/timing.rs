//! DRAM timing parameters in memory-controller cycles.
//!
//! We model the handful of constraints that dominate channel-level
//! behaviour: row activation (tRCD), precharge (tRP), CAS latency (CL),
//! data-burst occupancy of the channel bus (tBURST), the minimum
//! row-open time (tRAS), the write-to-read bus turnaround (tWTR), and
//! per-channel refresh (tREFI/tRFC, off in the default presets; see
//! [`Timing::hbm2_with_refresh`]). Finer constraints (tFAW, tRRD) are
//! deliberately omitted — they perturb absolute latency but not the
//! channel-contention structure the SDAM paper studies (see DESIGN.md §2).

use crate::Cycle;

/// Timing parameters for one memory device, in controller cycles.
///
/// # Example
///
/// ```
/// use sdam_hbm::Timing;
///
/// let t = Timing::hbm2();
/// // A row hit is cheaper than a row conflict.
/// assert!(t.hit_latency() < t.conflict_latency());
/// // Fig. 14 of the paper slows HBM to a quarter frequency.
/// let slow = t.scaled(4);
/// assert_eq!(slow.hit_latency(), t.hit_latency() * 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Row-to-column delay: cycles from ACT until a column command.
    pub t_rcd: Cycle,
    /// Precharge latency: cycles to close an open row.
    pub(crate) t_rp: Cycle,
    /// CAS latency: column command to first data beat.
    pub(crate) cl: Cycle,
    /// Data-bus occupancy per 64 B line transfer.
    pub(crate) t_burst: Cycle,
    /// Minimum cycles a row must stay open after activation.
    pub t_ras: Cycle,
    /// Write-to-read turnaround penalty when a channel switches data
    /// direction (0 disables the model).
    pub(crate) t_wtr: Cycle,
    /// Refresh interval: every `t_refi` cycles a channel pauses for
    /// `t_rfc` cycles (0 disables refresh).
    pub t_refi: Cycle,
    /// Refresh cycle time (ignored when `t_refi` is 0).
    pub(crate) t_rfc: Cycle,
    /// Controller clock in GHz, used to convert cycles to seconds.
    clock_ghz: f64,
}

impl Timing {
    /// HBM2-like timing at a 1 GHz controller clock.
    ///
    /// With a 128-bit (16 B/cycle) channel data path, one 64 B line
    /// occupies the bus for 4 cycles; 32 channels × 16 B/cycle × 1 GHz
    /// = 512 GB/s peak for the 8 GB device, matching the order of
    /// magnitude of the paper's platform (460 GB/s for two stacks).
    pub fn hbm2() -> Self {
        Timing {
            t_rcd: 14,
            t_rp: 14,
            cl: 14,
            t_burst: 4,
            t_ras: 33,
            t_wtr: 8,
            t_refi: 0,
            t_rfc: 0,
            clock_ghz: 1.0,
        }
    }

    /// HBM2 timing with refresh enabled (tREFI 3.9 µs, tRFC 260 ns at a
    /// 1 GHz controller clock). Refresh steals ~6.7 % of every channel's
    /// time uniformly — orthogonal to the mapping story, so the figure
    /// harness leaves it off; enable it for absolute-throughput studies.
    pub fn hbm2_with_refresh() -> Self {
        Timing {
            t_refi: 3_900,
            t_rfc: 260,
            ..Timing::hbm2()
        }
    }

    /// DDR4-like timing: same latencies, but a 64-bit data path means a
    /// 64 B line occupies the channel bus for 8 cycles.
    pub fn ddr4() -> Self {
        Timing {
            t_rcd: 16,
            t_rp: 16,
            cl: 16,
            t_burst: 8,
            t_ras: 39,
            t_wtr: 10,
            t_refi: 0,
            t_rfc: 0,
            clock_ghz: 1.2,
        }
    }

    /// Returns a copy with the memory slowed down by an integer factor,
    /// used by the paper's Fig. 14 frequency-scaling experiment.
    ///
    /// All cycle counts grow by `factor` while the controller clock (and
    /// the CPU clock in `sdam-sys`) stay fixed, so memory becomes
    /// relatively slower exactly as down-clocking the HBM does.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    pub fn scaled(&self, factor: u64) -> Self {
        assert!(factor > 0, "frequency scale factor must be >= 1");
        Timing {
            t_rcd: self.t_rcd * factor,
            t_rp: self.t_rp * factor,
            cl: self.cl * factor,
            t_burst: self.t_burst * factor,
            t_ras: self.t_ras * factor,
            t_wtr: self.t_wtr * factor,
            t_refi: self.t_refi, // interval is wall-clock, not device speed
            t_rfc: self.t_rfc * factor,
            clock_ghz: self.clock_ghz,
        }
    }

    /// Latency of a row-buffer hit: column access plus data transfer.
    #[inline]
    pub fn hit_latency(&self) -> Cycle {
        self.cl + self.t_burst
    }

    /// Latency when the bank has no open row: activate, then column
    /// access, then transfer.
    #[inline]
    pub fn closed_latency(&self) -> Cycle {
        self.t_rcd + self.cl + self.t_burst
    }

    /// Latency of a row-buffer conflict: precharge the open row, activate
    /// the new one, column access, transfer.
    #[inline]
    pub fn conflict_latency(&self) -> Cycle {
        self.t_rp + self.t_rcd + self.cl + self.t_burst
    }

    /// Peak per-channel bandwidth in bytes per second.
    pub(crate) fn channel_peak_bytes_per_sec(&self) -> f64 {
        (crate::LINE_BYTES as f64 / self.t_burst as f64) * self.clock_ghz * 1e9
    }

    /// Converts a cycle count to seconds.
    #[inline]
    pub(crate) fn cycles_to_secs(&self, cycles: Cycle) -> f64 {
        cycles as f64 / (self.clock_ghz * 1e9)
    }
}

impl Default for Timing {
    /// Defaults to [`Timing::hbm2`].
    fn default() -> Self {
        Timing::hbm2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_ordering() {
        for t in [Timing::hbm2(), Timing::ddr4()] {
            assert!(t.hit_latency() < t.closed_latency());
            assert!(t.closed_latency() < t.conflict_latency());
        }
    }

    #[test]
    fn scaling_multiplies_all_cycle_fields() {
        let t = Timing::hbm2();
        let s = t.scaled(2);
        assert_eq!(s.t_rcd, 2 * t.t_rcd);
        assert_eq!(s.t_rp, 2 * t.t_rp);
        assert_eq!(s.cl, 2 * t.cl);
        assert_eq!(s.t_burst, 2 * t.t_burst);
        assert_eq!(s.t_ras, 2 * t.t_ras);
        assert_eq!(s.clock_ghz, t.clock_ghz);
    }

    #[test]
    #[should_panic(expected = "factor must be >= 1")]
    fn zero_scale_panics() {
        let _ = Timing::hbm2().scaled(0);
    }

    #[test]
    fn refresh_preset_enables_refresh() {
        let t = Timing::hbm2_with_refresh();
        assert!(t.t_refi > 0 && t.t_rfc > 0);
        assert_eq!(Timing::hbm2().t_refi, 0, "default leaves refresh off");
        // Refresh overhead is the expected ~6-7 %.
        let overhead = t.t_rfc as f64 / t.t_refi as f64;
        assert!((0.05..0.08).contains(&overhead));
    }

    #[test]
    fn hbm_channel_peak_bandwidth() {
        let t = Timing::hbm2();
        // 64 B / 4 cycles at 1 GHz = 16 GB/s per channel.
        assert!((t.channel_peak_bytes_per_sec() - 16e9).abs() < 1e3);
    }

    #[test]
    fn cycles_to_secs_uses_clock() {
        let t = Timing::hbm2();
        assert!((t.cycles_to_secs(1_000_000_000) - 1.0).abs() < 1e-12);
    }
}
