//! Timing-fidelity tests: can the timing model actually support
//! black-box recovery?
//!
//! The probe protocol needs three pairwise-separable latency classes —
//! row hit, closed-bank miss, and row conflict. These tests prove the
//! separation holds across every shipped timing preset and under
//! cross-channel noise, and *pin* the two conditions where it is
//! genuinely coarse (no `#[should_panic]`; the coarse behaviour is the
//! asserted behaviour, with the workarounds documented in DESIGN.md
//! §16):
//!
//! 1. a merged-RCD part (`t_rcd = 0`) cannot distinguish hits from
//!    closed misses, so permutation/hash recovery reports
//!    `NotSeparable` — but the conflict boundary survives and bank-fold
//!    recovery still works;
//! 2. concurrent traffic *on the probed channel* inflates a hit past
//!    the closed-miss band — the reason the agent settles between
//!    experiments and spaces arrivals by `t_ras` instead of pipelining.

use sdam_hbm::{Geometry, Hbm, Timing};
use sdam_probe::{Agent, Calibrator, LatencyClass, RecoveryError};
use sdam_sys::{EngineTarget, MappingEngine};

fn presets() -> Vec<(&'static str, Timing)> {
    vec![
        ("hbm2", Timing::hbm2()),
        ("hbm2+refresh", Timing::hbm2_with_refresh()),
        ("ddr4", Timing::ddr4()),
        ("hbm2/2", Timing::hbm2().scaled(2)),
    ]
}

fn target(geom: Geometry, timing: Timing) -> EngineTarget {
    EngineTarget::new(MappingEngine::identity(), geom, timing, 0, geom.addr_bits())
        .expect("a full-width window at base 0 is valid")
}

#[test]
fn latency_classes_are_pairwise_separable_in_every_preset() {
    for (name, t) in presets() {
        assert!(
            t.hit_latency() < t.closed_latency(),
            "{name}: hit not below closed"
        );
        assert!(
            t.closed_latency() < t.conflict_latency(),
            "{name}: closed not below conflict"
        );
        let mut tgt = target(Geometry::hbm2_8gb(), t);
        let cal = Calibrator::train(&mut tgt);
        assert!(cal.separable(), "{name}: calibrator found merged classes");
        assert_eq!(cal.classify(t.hit_latency()), LatencyClass::Hit, "{name}");
        assert_eq!(
            cal.classify(t.closed_latency()),
            LatencyClass::Miss,
            "{name}"
        );
        assert_eq!(
            cal.classify(t.conflict_latency()),
            LatencyClass::Conflict,
            "{name}"
        );
    }
}

#[test]
fn cross_channel_noise_does_not_perturb_the_classes() {
    // Channels are independent FR-FCFS queues: traffic on channel 1
    // must not move a probe pair on channel 0 out of its class.
    let geom = Geometry::hbm2_8gb();
    let timing = Timing::hbm2();
    let mut hbm = Hbm::new(geom, timing);
    let probe = geom.decode(sdam_hbm::HardwareAddr(0));
    let mut noise = probe;
    noise.channel = 1;
    let mut now = 0;
    // Base access opens the row; background access lands on the other
    // channel at the same instant; the re-access is still a clean hit.
    let done = hbm.service(probe, now);
    assert_eq!(done - now, timing.closed_latency());
    let _ = hbm.service(noise, now);
    now = done + timing.t_ras;
    let done = hbm.service(probe, now);
    assert_eq!(done - now, timing.hit_latency(), "hit survived noise");
}

#[test]
fn same_channel_noise_inflates_hits_known_coarse() {
    // Pinned coarse behaviour: a concurrent request on the *same*
    // channel occupies the data bus, and an otherwise-hit probe pays
    // the queueing delay — it leaves the hit band. This is why the
    // probe protocol serialises accesses (settle + t_ras spacing)
    // instead of pipelining them.
    let geom = Geometry::hbm2_8gb();
    let timing = Timing::hbm2();
    let mut hbm = Hbm::new(geom, timing);
    let probe = geom.decode(sdam_hbm::HardwareAddr(0));
    let mut noise = probe;
    noise.bank = 1;
    let done = hbm.service(probe, 0);
    let noise_done = hbm.service(noise, done);
    assert!(noise_done > done);
    // The probe arrives while the noise request holds the channel.
    let measured = hbm.service(probe, done) - done;
    let cal = {
        let mut t = target(geom, timing);
        Calibrator::train(&mut t)
    };
    assert!(
        measured > timing.hit_latency(),
        "same-channel noise must delay the hit for this pin to matter"
    );
    assert_ne!(
        cal.classify(measured),
        LatencyClass::Hit,
        "pinned: an in-flight same-channel request pushes a hit out of its band"
    );
}

#[test]
fn merged_rcd_part_is_not_separable_but_fold_recovery_survives() {
    // Pinned coarse behaviour: with t_rcd = 0 a hit and a closed miss
    // are the same number, so the calibrator reports NotSeparable and
    // the permutation recovery refuses to guess.
    let geom = Geometry::hbm2_8gb();
    let mut timing = Timing::hbm2();
    timing.t_rcd = 0;
    assert_eq!(timing.hit_latency(), timing.closed_latency());

    let mut tgt = target(geom, timing);
    let cal = Calibrator::train(&mut tgt);
    assert!(!cal.separable());

    let err = Agent::new(geom)
        .recover_permutation(&mut tgt, geom.line_bits(), 9)
        .unwrap_err();
    assert_eq!(err, RecoveryError::NotSeparable);

    // The conflict boundary does not involve t_rcd, so the bank-fold
    // function is still recoverable on the merged part.
    let rec = Agent::new(geom).recover_bank_fold(&mut tgt).unwrap();
    let bank_bits = geom.bank_bits();
    assert!(rec
        .classes
        .iter()
        .enumerate()
        .all(|(j, c)| *c == Some(j as u32 % bank_bits)));
}
