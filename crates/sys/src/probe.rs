//! The system side of the reverse-engineering harness: a
//! [`ProbeTarget`] over the real memory path.
//!
//! [`EngineTarget`] routes every probe through the exact datapath a
//! program's load would take — PA→HA via [`MappingEngine`] (global
//! mapping or CMT/AMU, with the per-stream translation memo and the CMT
//! SRAM lookup charge), the controller bank hash, and the FR-FCFS
//! channel model of [`sdam_hbm::Hbm`] — and hands back only the
//! request's latency. The probing agent in `sdam-probe` sees nothing
//! else.

use sdam_hbm::{Cycle, Geometry, Hbm, Timing};
use sdam_mapping::PhysAddr;
use sdam_probe::ProbeTarget;

use crate::path::{MappingEngine, TranslationCache};
use crate::ConfigError;

/// A black-box probe window onto a [`MappingEngine`] + [`Hbm`] pair.
///
/// Probe offsets are masked to `probe_bits` and laid over an aligned
/// physical base, so the agent's virtual offsets *are* the low physical
/// address bits — the XOR-linearity the pair protocol relies on. The
/// target keeps a running cursor; accesses are spaced one row-cycle
/// time apart so a conflict's precharge is never hidden behind the
/// previous activate, and [`EngineTarget::settle`] inserts a multi-tREFI
/// idle gap followed by a quiesce, so no refresh debt from the gap
/// pollutes the next experiment (the off-by-tREFI hazard pinned in
/// `sdam-hbm`'s quiesce tests).
#[derive(Debug)]
pub struct EngineTarget {
    engine: MappingEngine,
    cache: TranslationCache,
    hbm: Hbm,
    base_pa: u64,
    probe_bits: u32,
    lookup: Cycle,
    cursor: Cycle,
    probes: u64,
    settles: u64,
}

impl EngineTarget {
    /// Builds a probe target over `engine` with a fresh device.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Probe`] if `probe_bits` is wider than the device
    /// address, or `base_pa` is not aligned to the probe region (the
    /// region must be `base_pa | offset`-addressable for XOR probing).
    pub fn new(
        engine: MappingEngine,
        geom: Geometry,
        timing: Timing,
        base_pa: u64,
        probe_bits: u32,
    ) -> Result<EngineTarget, ConfigError> {
        if probe_bits > geom.addr_bits() {
            return Err(ConfigError::Probe {
                what: "probe_bits wider than the device address",
            });
        }
        if base_pa & ((1u64 << probe_bits) - 1) != 0 {
            return Err(ConfigError::Probe {
                what: "base_pa not aligned to the probe window",
            });
        }
        let lookup = engine.lookup_cycles(&timing);
        Ok(EngineTarget {
            engine,
            cache: TranslationCache::default(),
            hbm: Hbm::new(geom, timing),
            base_pa,
            probe_bits,
            lookup,
            cursor: 0,
            probes: 0,
            settles: 0,
        })
    }

    /// Accesses issued so far.
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Exports the probe session's counters (`probe.*`), the device
    /// statistics (`hbm.*`), and the translation-memo counters
    /// (`cmt.*`) into `reg` — probes are real traffic and show up in
    /// the same namespaces as any workload's.
    pub fn export_into(&self, reg: &mut sdam_obs::Registry) {
        reg.incr("probe.accesses", self.probes);
        reg.incr("probe.settles", self.settles);
        reg.set("probe.bits", u64::from(self.probe_bits));
        self.hbm.stats().export_into(reg);
        self.cache.stats().export_into(reg);
    }
}

impl ProbeTarget for EngineTarget {
    fn probe_bits(&self) -> u32 {
        self.probe_bits
    }

    fn settle(&mut self) {
        // A deliberately large arrival gap — the exact scenario where a
        // naive target would let the device fall multiple refresh
        // intervals behind and bill the catch-up to the next probe.
        self.cursor += 2 * self.hbm.timing().t_refi.max(1);
        self.hbm.quiesce(self.cursor);
        self.settles += 1;
    }

    fn access(&mut self, va: u64) -> Cycle {
        let off = va & ((1u64 << self.probe_bits) - 1);
        let pa = PhysAddr(self.base_pa | off);
        let decoded = self
            .engine
            .decode_cached(pa, self.hbm.geometry(), &mut self.cache);
        let done = self.hbm.service(decoded, self.cursor);
        let latency = done - self.cursor + self.lookup;
        // Space the next arrival past the row-cycle time so a
        // same-bank conflict pays its full precharge out in the open.
        self.cursor = done + self.hbm.timing().t_ras;
        self.probes += 1;
        latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdam_hbm::bank_hashed;
    use sdam_mapping::{AddressMapping, HashMapping};
    use sdam_probe::{Calibrator, LatencyClass};

    fn target(timing: Timing) -> EngineTarget {
        let geom = Geometry::hbm2_8gb();
        EngineTarget::new(MappingEngine::identity(), geom, timing, 0, geom.addr_bits()).unwrap()
    }

    #[test]
    fn latency_classes_match_the_timing_model() {
        let timing = Timing::hbm2();
        let mut t = target(timing);
        t.settle();
        assert_eq!(t.access(0), timing.closed_latency(), "first access");
        assert_eq!(t.access(0), timing.hit_latency(), "row hit");
        // Same bank (identity + bank hash of row 1 ≠ bank delta... use a
        // pure row-bit flip compensated by its fold bank bit): row bit 0
        // and bank bit 0 together keep the effective bank and change the
        // row — the canonical conflict.
        t.settle();
        let geom = t.hbm.geometry();
        let row0 =
            1u64 << (geom.line_bits() + geom.channel_bits() + geom.col_bits() + geom.bank_bits());
        let bank0 = 1u64 << (geom.line_bits() + geom.channel_bits() + geom.col_bits());
        let _ = t.access(0);
        assert_eq!(
            t.access(row0 | bank0),
            timing.conflict_latency(),
            "row conflict"
        );
    }

    #[test]
    fn settle_survives_refresh_debt() {
        // With refresh enabled, dozens of settle gaps accumulate huge
        // refresh debt; quiesce must keep every post-settle access at
        // the clean closed-bank latency.
        let timing = Timing::hbm2_with_refresh();
        let mut t = target(timing);
        for i in 0..50u64 {
            t.settle();
            assert_eq!(
                t.access(i * 64),
                timing.closed_latency(),
                "settle {i} leaked refresh catch-up into the probe"
            );
        }
    }

    #[test]
    fn chunked_engine_adds_the_cmt_lookup_uniformly() {
        let geom = Geometry::hbm2_8gb();
        let timing = Timing::hbm2();
        let cmt = sdam_mapping::Cmt::new(geom.addr_bits(), 21);
        let lookup = MappingEngine::Chunked(cmt.clone()).lookup_cycles(&timing);
        assert!(lookup >= 1);
        let mut t = EngineTarget::new(
            MappingEngine::Chunked(cmt),
            geom,
            timing,
            0,
            geom.addr_bits(),
        )
        .unwrap();
        t.settle();
        assert_eq!(t.access(0), timing.closed_latency() + lookup);
        assert_eq!(t.access(0), timing.hit_latency() + lookup);
        // A uniform adder never changes the trained classification.
        let cal = Calibrator::train(&mut t);
        assert!(cal.separable());
        assert_eq!(
            cal.classify(timing.conflict_latency() + lookup),
            LatencyClass::Conflict
        );
    }

    #[test]
    fn misaligned_base_is_a_config_error() {
        let geom = Geometry::hbm2_8gb();
        let err = EngineTarget::new(MappingEngine::identity(), geom, Timing::hbm2(), 1 << 20, 21)
            .unwrap_err();
        assert!(matches!(err, ConfigError::Probe { .. }), "{err}");
        // The same base is fine for a window it is aligned to.
        assert!(
            EngineTarget::new(MappingEngine::identity(), geom, Timing::hbm2(), 1 << 20, 20).is_ok()
        );
    }

    #[test]
    fn probe_window_wider_than_the_device_is_a_config_error() {
        let geom = Geometry::hbm2_8gb();
        for probe_bits in [geom.addr_bits() + 1, 64, u32::MAX] {
            let err = EngineTarget::new(
                MappingEngine::identity(),
                geom,
                Timing::hbm2(),
                0,
                probe_bits,
            )
            .unwrap_err();
            assert!(
                matches!(err, ConfigError::Probe { .. }),
                "{probe_bits}: {err}"
            );
        }
    }

    #[test]
    fn probes_land_in_device_metrics() {
        let mut t = target(Timing::hbm2());
        t.settle();
        let _ = t.access(0);
        let _ = t.access(64);
        let mut reg = sdam_obs::Registry::default();
        t.export_into(&mut reg);
        assert_eq!(reg.counter("probe.accesses"), 2);
        assert_eq!(reg.counter("probe.settles"), 1);
        assert_eq!(reg.counter("hbm.requests"), 2);
    }

    #[test]
    fn hash_engine_routes_through_the_mapping() {
        // A probe through a global hash mapping must see the channel
        // the hash selects, not the identity channel.
        let geom = Geometry::hbm2_8gb();
        let hm = HashMapping::for_geometry(geom);
        let probe = 1u64 << (geom.addr_bits() - 1);
        let mapped = bank_hashed(geom, geom.decode(hm.map(PhysAddr(probe))));
        let identity = bank_hashed(geom, geom.decode(sdam_hbm::HardwareAddr(probe)));
        assert_ne!(
            mapped.channel, identity.channel,
            "top row bit is a hash source, channels must differ"
        );
        let mut t = EngineTarget::new(
            MappingEngine::Global(Box::new(hm)),
            geom,
            Timing::hbm2(),
            0,
            geom.addr_bits(),
        )
        .unwrap();
        t.settle();
        let _ = t.access(0);
        // Different channel: a closed access, not a conflict.
        assert_eq!(t.access(probe), Timing::hbm2().closed_latency());
    }
}
