//! The black-box recovery agent.
//!
//! Everything here runs against `&mut dyn ProbeTarget` — the agent
//! knows the device *datasheet* (the [`Geometry`] field layout and the
//! controller's fold policy, both public) but reaches the mapping only
//! through timed accesses. Each recovery is exact up to the
//! timing-canonical gauge (see the `timing_canonical` helpers in
//! `sdam-mapping`), which is the information-theoretic limit of a
//! latency-only observer.

use sdam_hbm::{bank_hashed, Geometry, HardwareAddr};
use sdam_mapping::{timing_classes, BitPermutation};

use crate::calibrate::{Calibrator, LatencyClass};
use crate::gf2::{Gf2Solution, Gf2System};
use crate::target::ProbeTarget;

/// Why a recovery could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryError {
    /// The calibrator could not separate hit from closed latencies —
    /// the timing model is too coarse for this protocol (a fidelity
    /// finding, recorded in DESIGN.md §16).
    NotSeparable,
    /// The probe window does not fit the target's probe space or the
    /// device's decoded fields.
    WindowOutOfRange {
        /// First window bit (absolute).
        lo: u32,
        /// Window length in bits.
        len: u32,
        /// Bits the target lets the agent vary.
        probe_bits: u32,
    },
    /// No identity pass-through row bit above the window lands in this
    /// fold class, so sources destined there cannot be labelled.
    MissingAnchor {
        /// The unanchorable fold class.
        class: u32,
    },
    /// A probe scan returned no (or more than one) non-miss outcome
    /// where exactly one was expected.
    AmbiguousProbe {
        /// The absolute address bit under probe.
        bit: u32,
    },
    /// Per-class source counts disagree with the device layout, or the
    /// GF(2) system did not have a unique solution.
    Inconsistent(String),
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::NotSeparable => {
                write!(f, "hit and closed latencies are not separable")
            }
            RecoveryError::WindowOutOfRange {
                lo,
                len,
                probe_bits,
            } => write!(
                f,
                "window [{lo}, {}) outside probe space of {probe_bits} bits",
                lo + len
            ),
            RecoveryError::MissingAnchor { class } => {
                write!(f, "no pass-through anchor for fold class {class}")
            }
            RecoveryError::AmbiguousProbe { bit } => {
                write!(f, "ambiguous scan outcome for address bit {bit}")
            }
            RecoveryError::Inconsistent(why) => write!(f, "inconsistent recovery: {why}"),
        }
    }
}

impl std::error::Error for RecoveryError {}

/// A recovered AMU window permutation.
#[derive(Debug, Clone, PartialEq)]
pub struct PermRecovery {
    /// The recovered permutation, in timing-canonical form.
    pub perm: BitPermutation,
    /// Accesses issued (calibration + probing + validation).
    pub probes: u64,
    /// Fraction of held-out validation probes whose latency class
    /// matched the recovered model's prediction.
    pub confidence: f64,
    /// The latency thresholds trained on the target.
    pub calibration: Calibrator,
}

/// A recovered XOR channel-hash.
#[derive(Debug, Clone, PartialEq)]
pub struct HashRecovery {
    /// Per channel bit, the recovered absolute source bits (ascending),
    /// in the canonical gauge (bank-field columns zeroed).
    pub sources: Vec<Vec<u32>>,
    /// Lowest absolute bit of the channel field.
    pub channel_lo: u32,
    /// Accesses issued (calibration + probing + validation).
    pub probes: u64,
    /// Fraction of held-out validation probes whose latency class
    /// matched the recovered model's prediction.
    pub confidence: f64,
    /// The latency thresholds trained on the target.
    pub calibration: Calibrator,
}

/// The controller's recovered row→bank fold structure.
#[derive(Debug, Clone, PartialEq)]
pub struct FoldRecovery {
    /// For each row bit (by row index), the fold class it collides
    /// with, or `None` if no bank bit produced a conflict.
    pub classes: Vec<Option<u32>>,
    /// Accesses issued (calibration + probing).
    pub probes: u64,
    /// Fraction of row bits that received a unique class.
    pub confidence: f64,
    /// The latency thresholds trained on the target.
    pub calibration: Calibrator,
}

/// Held-out validation probes per recovery.
const VALIDATION_SAMPLES: u64 = 64;

/// The recovery agent: geometry knowledge of the device it probes.
#[derive(Debug, Clone, Copy)]
pub struct Agent {
    geom: Geometry,
}

/// One recovery's experiments on a target: calibration, then probe
/// pairs. Counts every access.
struct Session<'a> {
    target: &'a mut dyn ProbeTarget,
    cal: Calibrator,
    probes: u64,
}

impl<'a> Session<'a> {
    /// Trains the calibrator on `target`; the training accesses open
    /// the probe count.
    fn open(target: &'a mut dyn ProbeTarget) -> Session<'a> {
        let cal = Calibrator::train(target);
        Session {
            target,
            cal,
            probes: Calibrator::TRAIN_PROBES,
        }
    }

    /// `settle(); access(base); access(base ^ delta)` — classifies the
    /// second latency. The settle guarantees the first access is a
    /// closed-bank prime and the pair is independent of all earlier
    /// probes, so one target serves every experiment of a recovery.
    fn pair(&mut self, base: u64, delta: u64) -> LatencyClass {
        self.target.settle();
        let _ = self.target.access(base);
        let lat = self.target.access(base ^ delta);
        self.probes += 2;
        self.cal.classify(lat)
    }
}

/// A deterministic splitmix-style stream for validation sampling: the
/// `i`-th sample is a pure function of the index and the salt.
fn sample64(index: u64, salt: u64) -> u64 {
    let mut z = index
        .wrapping_add(salt)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(0x2545_f491_4f6c_dd1d);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Predicts the pair-protocol latency class of a *hardware-address*
/// delta under the controller's fold policy. `None` means the delta is
/// zero (no experiment). The fold is GF(2)-linear, so the folded delta
/// is the delta between the two accesses' folded addresses.
fn class_of_ha_delta(geom: Geometry, d: u64) -> Option<LatencyClass> {
    let f = bank_hashed(geom, geom.decode(HardwareAddr(d)));
    if f.channel != 0 || f.bank != 0 {
        Some(LatencyClass::Miss)
    } else if f.row != 0 {
        Some(LatencyClass::Conflict)
    } else if f.col != 0 {
        Some(LatencyClass::Hit)
    } else {
        None
    }
}

impl Agent {
    /// An agent for a device with the given (public) geometry.
    pub fn new(geom: Geometry) -> Agent {
        Agent { geom }
    }

    /// The device geometry this agent assumes.
    pub fn geometry(&self) -> Geometry {
        self.geom
    }

    /// Measures agreement between the recovered model (`ha_of_delta`
    /// maps a probe delta to its predicted hardware-address delta) and
    /// the target, over deterministic held-out samples.
    fn validate(
        &self,
        session: &mut Session<'_>,
        probe_hi: u32,
        ha_of_delta: impl Fn(u64) -> u64,
    ) -> f64 {
        let geom = self.geom;
        let lo = geom.line_bits();
        let delta_mask = (1u64 << probe_hi) - (1u64 << lo);
        let ok = (0..VALIDATION_SAMPLES)
            .filter(|&i| {
                let mut delta = sample64(i, 0xd3) & delta_mask;
                if delta == 0 {
                    delta = 1 << lo;
                }
                let base = sample64(i, 0xb5) & delta_mask;
                match class_of_ha_delta(geom, ha_of_delta(delta)) {
                    Some(expect) => session.pair(base, delta) == expect,
                    None => true,
                }
            })
            .count();
        ok as f64 / VALIDATION_SAMPLES as f64
    }

    /// Recovers the controller's row→bank fold structure from a target
    /// whose mapping is the identity: row bit `j` and bank bit `k`
    /// flipped together produce a row conflict exactly when the fold
    /// sends `j` to class `k` (the effective-bank deltas cancel).
    ///
    /// Needs only the conflict boundary, so it works even when hit and
    /// closed latencies merge.
    pub fn recover_bank_fold(
        &self,
        target: &mut dyn ProbeTarget,
    ) -> Result<FoldRecovery, RecoveryError> {
        let geom = self.geom;
        let probe_bits = target.probe_bits();
        let mut session = Session::open(target);
        if probe_bits < geom.addr_bits() {
            return Err(RecoveryError::WindowOutOfRange {
                lo: 0,
                len: geom.addr_bits(),
                probe_bits,
            });
        }
        let bank_lo = geom.line_bits() + geom.channel_bits() + geom.col_bits();
        let row_lo = bank_lo + geom.bank_bits();
        let bank_bits = geom.bank_bits();
        let row_bits = geom.row_bits();
        let classes: Vec<Option<u32>> = (0..row_bits)
            .map(|j| {
                let hits: Vec<u32> = (0..bank_bits)
                    .filter(|&k| {
                        let delta = (1u64 << (row_lo + j)) | (1u64 << (bank_lo + k));
                        session.pair(0, delta) == LatencyClass::Conflict
                    })
                    .collect();
                match hits.as_slice() {
                    [k] => Some(*k),
                    _ => None,
                }
            })
            .collect();
        let classified = classes.iter().filter(|c| c.is_some()).count();
        Ok(FoldRecovery {
            confidence: classified as f64 / row_bits.max(1) as f64,
            classes,
            probes: session.probes,
            calibration: session.cal,
        })
    }

    /// Recovers a global XOR channel-hash's source sets (canonical
    /// gauge: bank-field columns zero).
    ///
    /// For every candidate source bit `b` above the channel field the
    /// agent forms a *compensated* delta `t(b)` that keeps the
    /// effective bank fixed (row candidates pair with their fold-class
    /// bank bit), then scans all channel corrections `c`: the unique
    /// `c` whose probe is not a miss equals the hash of `t(b)`. Each
    /// scan yields one GF(2) equation over the unknown columns;
    /// Gaussian elimination with the gauge rows pinned to zero produces
    /// the canonical source sets.
    pub fn recover_channel_hash(
        &self,
        target: &mut dyn ProbeTarget,
    ) -> Result<HashRecovery, RecoveryError> {
        let geom = self.geom;
        let probe_bits = target.probe_bits();
        let mut session = Session::open(target);
        if !session.cal.separable() {
            return Err(RecoveryError::NotSeparable);
        }
        if probe_bits < geom.addr_bits() {
            return Err(RecoveryError::WindowOutOfRange {
                lo: 0,
                len: geom.addr_bits(),
                probe_bits,
            });
        }
        let ch_lo = geom.line_bits();
        let ch_bits = geom.channel_bits();
        let ch_hi = ch_lo + ch_bits;
        let bank_lo = ch_hi + geom.col_bits();
        let row_lo = bank_lo + geom.bank_bits();
        let width = geom.addr_bits();
        let bank_bits = geom.bank_bits();

        // Candidates: every bit above the channel field except the bank
        // field (bank columns carry the gauge freedom and their
        // compensated deltas would duplicate the row equations).
        let candidates = (ch_hi..width).filter(|&b| !(bank_lo..row_lo).contains(&b));
        let mut system = Gf2System::new(width - ch_hi);
        for b in candidates {
            let (t, expect) = if b < bank_lo {
                (1u64 << b, LatencyClass::Hit)
            } else {
                let class = (b - row_lo) % bank_bits;
                (
                    (1u64 << b) | (1u64 << (bank_lo + class)),
                    LatencyClass::Conflict,
                )
            };
            let found: Vec<(u64, LatencyClass)> = (0..1u64 << ch_bits)
                .filter_map(|c| {
                    let cls = session.pair(0, t ^ (c << ch_lo));
                    (cls != LatencyClass::Miss).then_some((c, cls))
                })
                .collect();
            let value = match found.as_slice() {
                [(c, cls)] if *cls == expect => *c,
                _ => return Err(RecoveryError::AmbiguousProbe { bit: b }),
            };
            let mut mask = 1u64 << (b - ch_hi);
            if b >= row_lo {
                mask |= 1u64 << (bank_lo + (b - row_lo) % bank_bits - ch_hi);
            }
            system.equation(mask, value);
        }
        for k in 0..bank_bits {
            system.equation(1u64 << (bank_lo + k - ch_hi), 0);
        }
        let columns = match system.solve() {
            Gf2Solution::Unique(x) => x,
            other => {
                return Err(RecoveryError::Inconsistent(format!(
                    "hash system did not solve uniquely: {other:?}"
                )))
            }
        };
        let sources: Vec<Vec<u32>> = (0..ch_bits)
            .map(|i| {
                (ch_hi..width)
                    .filter(|&b| (columns[(b - ch_hi) as usize] >> i) & 1 == 1)
                    .collect()
            })
            .collect();

        let confidence = self.validate(&mut session, width, |delta| {
            let mut h = 0u64;
            for (i, set) in sources.iter().enumerate() {
                let parity = set.iter().fold(0u64, |p, &b| p ^ ((delta >> b) & 1));
                h ^= parity << i;
            }
            delta ^ (h << ch_lo)
        });
        Ok(HashRecovery {
            sources,
            channel_lo: ch_lo,
            probes: session.probes,
            confidence,
            calibration: session.cal,
        })
    }

    /// Recovers the AMU [`BitPermutation`] over the window
    /// `[lo, lo + len)` by adaptive bit-flip probing, returning the
    /// timing-canonical form.
    ///
    /// Per source bit: a **single** flip separates column destinations
    /// (row hit) from everything else (the flip lands in channel, bank,
    /// or row — all a closed-bank miss, because one flipped fold-class
    /// member changes the effective bank). An **anchor pair** — the
    /// source flipped together with an identity pass-through row bit
    /// above the window — then produces a conflict exactly when the
    /// source's destination folds into the anchor's class, labelling
    /// each non-column source's fold class; sources that never conflict
    /// are channel bits. Within each timing class the assignment is
    /// provably unobservable, so the canonical (ascending) order is
    /// emitted.
    pub fn recover_permutation(
        &self,
        target: &mut dyn ProbeTarget,
        lo: u32,
        len: u32,
    ) -> Result<PermRecovery, RecoveryError> {
        let geom = self.geom;
        let probe_bits = target.probe_bits();
        let mut session = Session::open(target);
        if !session.cal.separable() {
            return Err(RecoveryError::NotSeparable);
        }
        if lo < geom.line_bits() || lo + len > geom.addr_bits() || lo + len > probe_bits {
            return Err(RecoveryError::WindowOutOfRange {
                lo,
                len,
                probe_bits,
            });
        }
        let bank_lo = geom.line_bits() + geom.channel_bits() + geom.col_bits();
        let row_lo = bank_lo + geom.bank_bits();
        let bank_bits = geom.bank_bits();
        let probe_hi = probe_bits.min(geom.addr_bits());

        // One identity pass-through row bit above the window per fold
        // class, to label where non-column sources land.
        let mut anchors = vec![None; bank_bits as usize];
        for m in (lo + len).max(row_lo)..probe_hi {
            let class = ((m - row_lo) % bank_bits) as usize;
            if anchors[class].is_none() {
                anchors[class] = Some(m);
            }
        }
        let anchors: Vec<u64> = anchors
            .into_iter()
            .enumerate()
            .map(|(class, m)| {
                m.map(|m| 1u64 << m).ok_or(RecoveryError::MissingAnchor {
                    class: class as u32,
                })
            })
            .collect::<Result<_, _>>()?;

        /// Where one source bit's destination was observed to land.
        #[derive(Clone, Copy, PartialEq, Eq)]
        enum Landing {
            Column,
            Channel,
            Fold(u32),
        }
        let resolved: Vec<Landing> = (lo..lo + len)
            .map(|bit| {
                let flip = 1u64 << bit;
                if session.pair(0, flip) == LatencyClass::Hit {
                    return Ok(Landing::Column);
                }
                let folds: Vec<u32> = (0..bank_bits)
                    .filter(|&k| {
                        session.pair(0, flip ^ anchors[k as usize]) == LatencyClass::Conflict
                    })
                    .collect();
                match folds.as_slice() {
                    [] => Ok(Landing::Channel),
                    [k] => Ok(Landing::Fold(*k)),
                    _ => Err(RecoveryError::AmbiguousProbe { bit }),
                }
            })
            .collect::<Result<_, _>>()?;

        // Assemble the canonical table: within each timing class,
        // ascending sources onto ascending destinations.
        let classes = timing_classes(geom, lo, len);
        let mut groups: Vec<(Landing, &[u32])> = vec![
            (Landing::Channel, classes.channel.as_slice()),
            (Landing::Column, classes.column.as_slice()),
        ];
        for (k, dests) in classes.fold.iter().enumerate() {
            groups.push((Landing::Fold(k as u32), dests.as_slice()));
        }
        let mut table = vec![u32::MAX; len as usize];
        for (landing, dests) in groups {
            let sources: Vec<u32> = (0..len)
                .filter(|&i| resolved[i as usize] == landing)
                .collect();
            if sources.len() != dests.len() {
                return Err(RecoveryError::Inconsistent(format!(
                    "{} sources landed in a class of {} destinations",
                    sources.len(),
                    dests.len()
                )));
            }
            for (&d, &s) in dests.iter().zip(sources.iter()) {
                table[d as usize] = s;
            }
        }
        let perm = BitPermutation::new(lo, table)
            .map_err(|e| RecoveryError::Inconsistent(e.to_string()))?;

        let confidence = self.validate(&mut session, probe_hi, |delta| perm.apply(delta));
        Ok(PermRecovery {
            perm,
            probes: session.probes,
            confidence,
            calibration: session.cal,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdam_mapping::{AddressMapping, HashMapping};

    /// A functional model of the memory path: an arbitrary GF(2)-linear
    /// PA→HA map, the controller bank fold, and three fixed latency
    /// classes — the minimal oracle for the agent's algebra. The real
    /// FR-FCFS-backed target lives in `sdam-sys` and is exercised by
    /// the integration suite.
    struct Model<F: Fn(u64) -> u64> {
        geom: Geometry,
        map: F,
        probe_bits: u32,
        open: std::collections::HashMap<(u64, u64), u64>,
    }

    impl<F: Fn(u64) -> u64> ProbeTarget for Model<F> {
        fn probe_bits(&self) -> u32 {
            self.probe_bits
        }
        fn settle(&mut self) {
            self.open.clear();
        }
        fn access(&mut self, va: u64) -> u64 {
            let ha = (self.map)(va & ((1u64 << self.probe_bits) - 1));
            let d = sdam_hbm::bank_hashed(self.geom, self.geom.decode(sdam_hbm::HardwareAddr(ha)));
            let lat = match self.open.get(&(d.channel, d.bank)) {
                Some(&row) if row == d.row => 18,
                Some(_) => 46,
                None => 32,
            };
            self.open.insert((d.channel, d.bank), d.row);
            lat
        }
    }

    fn model<F: Fn(u64) -> u64>(geom: Geometry, probe_bits: u32, map: F) -> Model<F> {
        Model {
            geom,
            map,
            probe_bits,
            open: Default::default(),
        }
    }

    #[test]
    fn recovers_identity_fold() {
        let geom = Geometry::hbm2_8gb();
        let agent = Agent::new(geom);
        let fold = agent
            .recover_bank_fold(&mut model(geom, geom.addr_bits(), |a| a))
            .unwrap();
        assert_eq!(fold.confidence, 1.0);
        for (j, class) in fold.classes.iter().enumerate() {
            assert_eq!(*class, Some(j as u32 % geom.bank_bits()), "row bit {j}");
        }
    }

    #[test]
    fn recovers_default_hash_in_canonical_gauge() {
        let geom = Geometry::hbm2_8gb();
        let truth = HashMapping::for_geometry(geom);
        let agent = Agent::new(geom);
        let mut target = model(geom, geom.addr_bits(), |a| {
            truth.map(sdam_mapping::PhysAddr(a)).raw()
        });
        let got = agent.recover_channel_hash(&mut target).unwrap();
        assert_eq!(got.sources, truth.timing_canonical(geom).sources());
        assert_eq!(got.confidence, 1.0);
    }

    #[test]
    fn recovers_a_window_permutation_canonically() {
        let geom = Geometry::hbm2_8gb();
        // Window [6, 21) as in a 2 MB chunk; 4 anchor bits above it.
        let mut table: Vec<u32> = (0..15).collect();
        table.reverse();
        let truth = BitPermutation::new(6, table).unwrap();
        let agent = Agent::new(geom);
        let mut target = model(geom, 25, |a| truth.apply(a));
        let got = agent.recover_permutation(&mut target, 6, 15).unwrap();
        assert_eq!(got.perm, truth.timing_canonical(geom));
        assert_eq!(got.confidence, 1.0);
        // The canonical forward model reproduces every probe the truth
        // would produce, even where the tables differ.
        assert_ne!(got.perm, truth, "reversal is not canonical");
    }

    #[test]
    fn window_outside_probe_space_is_an_error() {
        let geom = Geometry::hbm2_8gb();
        let err = Agent::new(geom)
            .recover_permutation(&mut model(geom, 12, |a| a), 6, 15)
            .unwrap_err();
        assert!(matches!(err, RecoveryError::WindowOutOfRange { .. }));
    }
}
