//! Extension: SDAM on the *other* 3D memory — a Hybrid Memory Cube
//! organization (16 vaults, 8 banks each).
//!
//! The paper's title is "a case on 3D memory"; HBM is the instantiated
//! case and HMC the named alternative. The mechanism is
//! geometry-agnostic: the CMT/AMU carry a permutation of the chunk
//! offset, and the selection logic reads the field layout from the
//! [`sdam_hbm::Geometry`]. This bin replays the stride-collapse and
//! mapping-fix experiments on the HMC geometry.

use sdam::{pipeline, Experiment, SystemConfig};
use sdam_bench::{exit_on_err, f2, gbps, header, row, scale_from_args};
use sdam_hbm::{Geometry, HardwareAddr, Hbm, Timing};
use sdam_workloads::datacopy::DataCopy;
use sdam_workloads::Scale;

fn main() {
    let geom = Geometry::hmc_4gb();
    header("Extension: SDAM on an HMC organization");
    println!("device: {geom} (16 vaults as channels)");

    // Stride collapse under the boot-time mapping, as Fig. 3(a).
    header("Stride sweep, default mapping (vault-level parallelism)");
    row(&["stride".into(), "GB/s".into(), "vaults".into()]);
    for stride in [1u64, 2, 4, 8, 16] {
        let mut dev = Hbm::new(geom, Timing::hbm2());
        let stats =
            dev.run_open_loop((0..32_768u64).map(|i| geom.decode(HardwareAddr(i * stride * 64))));
        row(&[
            stride.to_string(),
            gbps(stats.throughput_gbps()),
            stats.channels_touched().to_string(),
        ]);
    }

    // End-to-end: the hostile stride fixed by SDAM, on HMC.
    header("End-to-end on HMC: stride-16 data copy");
    let mut exp = Experiment::quick();
    exp.geometry = geom;
    exp.scale = scale_from_args(Scale::tiny());
    let w = DataCopy::new(vec![16]);
    let cmp = exit_on_err(pipeline::try_compare(
        &w,
        &[SystemConfig::BsHm, SystemConfig::SdmBsm],
        &exp,
    ));
    for (config, speedup) in cmp.speedups().expect("try_compare runs BS+DM") {
        println!("  {config:<10} {}x", f2(speedup));
    }
    println!(
        "\nthe same selection and allocation stack runs unmodified on the\n\
         HMC geometry — only the Geometry value changed"
    );
}
