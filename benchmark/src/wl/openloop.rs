//! `openloop`: five 1 M-line streams (uniform random; strides 1, 4, 16,
//! 32 lines), each under the identity mapping and under a
//! `select::shuffle_for_bfrv` shuffle chosen in set-up, each drained with
//! FR-FCFS windows 16 and 64. A run is `AddressMapping::map_block` →
//! decode → `Hbm::run_open_loop_windowed`: the global-mapping translate
//! and the reorder-window drain behind Figs. 1/3/4/11. `replay` never
//! drains, so this is the same `sdam-hbm` used differently.

use std::time::Instant;

use sdam_hbm::{DecodedAddr, Geometry, HardwareAddr, Hbm, Timing};
use sdam_mapping::{
    select, AddressMapping, BitFlipRateVector, BitShuffleMapping, IdentityMapping, PhysAddr,
};

use super::{rate, splitmix, Digest, Item, PassOut, Workload};
use crate::span::Recorder;
use crate::stats::geomean;

const STRIDES: [u64; 4] = [1, 4, 16, 32];
const WINDOWS: [(usize, &str); 2] = [(16, "hbm.drain.w16"), (64, "hbm.drain.w64")];

/// The open-loop workload at a given seed.
pub struct OpenLoop {
    seed: u64,
    lines: u64,
    geom: Geometry,
}

impl OpenLoop {
    /// 1 M lines per stream; `smoke` uses 64 K.
    pub fn new(seed: u64, smoke: bool) -> Self {
        OpenLoop {
            seed,
            lines: if smoke { 1 << 16 } else { 1 << 20 },
            geom: Geometry::hbm2_8gb(),
        }
    }
}

/// The streams (physical byte addresses), the shuffle chosen for each,
/// and reused scratch buffers.
pub struct State {
    streams: Vec<Vec<u64>>,
    shuffles: Vec<BitShuffleMapping>,
    pas: Vec<u64>,
    decoded: Vec<DecodedAddr>,
}

impl Workload for OpenLoop {
    type State = State;

    fn setup(&self) -> (State, u64) {
        let total_lines = self.geom.capacity_bytes() / 64;
        let mut rng = self.seed;
        let mut streams = vec![(0..self.lines)
            .map(|_| (splitmix(&mut rng) % total_lines) * 64)
            .collect::<Vec<u64>>()];
        for stride in STRIDES {
            let base = splitmix(&mut rng) % total_lines;
            streams.push(
                (0..self.lines)
                    .map(|i| ((base + i * stride) % total_lines) * 64)
                    .collect(),
            );
        }
        let shuffles: Vec<BitShuffleMapping> = streams
            .iter()
            .map(|s| {
                let bfrv = BitFlipRateVector::from_addrs(s.iter().copied(), self.geom.addr_bits());
                select::shuffle_for_bfrv(&bfrv, self.geom)
            })
            .collect();
        let mut d = Digest::default();
        for (s, m) in streams.iter().zip(&shuffles) {
            for &a in s {
                d.push(a);
            }
            for bit in 0..self.geom.addr_bits() {
                d.push(m.map(PhysAddr(1 << bit)).raw());
            }
        }
        let state = State {
            streams,
            shuffles,
            pas: Vec::new(),
            decoded: Vec::new(),
        };
        (state, d.value())
    }

    fn pass(&self, st: &mut State, rec: &mut Recorder) -> PassOut {
        let geom = self.geom;
        let mut out = PassOut::default();
        let (mut requests, mut hits, mut conflicts) = (0u64, 0u64, 0u64);
        let mut speedups = Vec::new();
        for (stream, shuffle) in st.streams.iter().zip(&st.shuffles) {
            let mappings: [&dyn AddressMapping; 2] = [&IdentityMapping, shuffle];
            for (w, &(window, drain)) in WINDOWS.iter().enumerate() {
                let mut makespans = [0u64; 2];
                for (m, mapping) in mappings.iter().enumerate() {
                    rec.set_cell(out.items.len() as u32);
                    let t0 = Instant::now();
                    st.pas.clear();
                    st.pas.extend_from_slice(stream);
                    rec.span("mapping.map_block", |_| mapping.map_block(&mut st.pas));
                    rec.span("hbm.decode", |_| {
                        st.decoded.clear();
                        st.decoded
                            .extend(st.pas.iter().map(|&a| geom.decode(HardwareAddr(a))));
                    });
                    let stats = rec.span(drain, |_| {
                        Hbm::new(geom, Timing::hbm2())
                            .run_open_loop_windowed(st.decoded.iter().copied(), window)
                    });
                    let secs = t0.elapsed().as_secs_f64();
                    let mut d = Digest::default();
                    d.push_sim(&stats);
                    let served = stats.per_channel.iter().map(|c| c.requests).sum::<u64>();
                    out.items.push(Item {
                        secs,
                        digest: d.value(),
                        ok: stats.requests == self.lines && served == self.lines,
                        kind: 0,
                    });
                    out.work += stats.requests;
                    requests += stats.requests;
                    hits += stats.per_channel.iter().map(|c| c.row_hits).sum::<u64>();
                    conflicts += stats
                        .per_channel
                        .iter()
                        .map(|c| c.row_conflicts)
                        .sum::<u64>();
                    makespans[m] = stats.makespan;
                }
                if w == 0 {
                    speedups.push(makespans[0] as f64 / makespans[1].max(1) as f64);
                }
            }
        }
        out.facts = vec![
            ("sim.speedup_shuffle_w16", geomean(&speedups)),
            ("hbm.row_hit_rate", rate(hits, requests)),
            ("hbm.row_conflict_rate", rate(conflicts, requests)),
        ];
        out
    }

    fn work_unit(&self) -> &'static str {
        "requests"
    }

    fn item_unit(&self) -> &'static str {
        "run"
    }

    fn nominal_pass_s(&self) -> f64 {
        1.15
    }
}
