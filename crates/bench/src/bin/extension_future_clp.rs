//! Extension: future-generation 3D memory with more channels.
//!
//! Paper §1: "Such CLP is expected to grow more for future-generation
//! 3D memory devices" (citing fine-grained DRAM). This bin scales the
//! device from 16 to 64 channels and measures how the gap between the
//! boot-time mapping and SDAM widens: more channels means more
//! parallelism for a bad mapping to waste.

use sdam::{pipeline, Experiment, SystemConfig};
use sdam_bench::{exit_on_err, f2, header, row, scale_from_args};
use sdam_hbm::Geometry;
use sdam_workloads::datacopy::DataCopy;
use sdam_workloads::Scale;

fn main() {
    let mut base = Experiment::quick();
    base.scale = scale_from_args(Scale::tiny());
    header("Extension: SDAM benefit vs channel count (future CLP growth)");
    row(&[
        "channels".into(),
        "SDM+BSM+ML(4)".into(),
        "hostile stride".into(),
    ]);
    // Keep capacity at 8 GB; trade row bits for channel bits.
    for (ch_bits, row_bits) in [(4u32, 17u32), (5, 16), (6, 15)] {
        let geom = Geometry::new(2, ch_bits, 4, row_bits).expect("valid geometry");
        let channels = geom.num_channels() as u64;
        // The hostile stride pins one channel on THIS device: stride ==
        // channel count.
        let w = DataCopy::new(vec![channels]);
        let mut exp = base.clone();
        exp.geometry = geom;
        let cmp = exit_on_err(pipeline::try_compare(
            &w,
            &[SystemConfig::SdmBsmMl { clusters: 4 }],
            &exp,
        ));
        row(&[
            channels.to_string(),
            f2(cmp
                .speedup_of(SystemConfig::SdmBsmMl { clusters: 4 })
                .expect("config ran")),
            format!("{channels} lines"),
        ]);
    }
    println!(
        "the more channels the device has, the more a fixed mapping can\n\
         waste and the more software-defined mapping recovers — the\n\
         paper's closing argument for future devices"
    );
}
