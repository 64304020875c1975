//! Ablation: the chunk-size trade-off (paper §4).
//!
//! Larger chunks shrink the CMT but can only be tracked coarsely and
//! strand more memory per mapping (internal fragmentation); smaller
//! chunks do the reverse and leave fewer offset bits for the AMU to
//! shuffle. The paper picks 2 MB; this sweep shows why.

use sdam::{pipeline, Experiment, SystemConfig};
use sdam_bench::{exit_on_err, f2, header, scale_from_args};
use sdam_mapping::Cmt;
use sdam_workloads::datacopy::DataCopy;
use sdam_workloads::Scale;

fn main() {
    let scale = scale_from_args(Scale::tiny());
    header("Ablation: chunk size (paper picks 2 MB = 21 bits)");
    println!(
        "{:<10} {:>10} {:>12} {:>14} {:>12}",
        "chunk", "CMT KB", "frag pages*", "offset bits", "SDAM speedup"
    );
    let w = DataCopy::new(vec![1, 32]);
    for chunk_bits in [16u32, 18, 21, 23, 25] {
        let cmt = Cmt::new(33, chunk_bits);
        let mut exp = Experiment::quick();
        exp.scale = scale;
        exp.chunk_bits = chunk_bits;
        let cmp = exit_on_err(pipeline::try_compare(
            &w,
            &[SystemConfig::SdmBsmMl { clusters: 4 }],
            &exp,
        ));
        let speedup = cmp
            .speedup_of(SystemConfig::SdmBsmMl { clusters: 4 })
            .expect("config ran");
        // Worst-case stranded pages for the paper's 256 mappings.
        let frag = 256u64 * ((1u64 << (chunk_bits - 12)) - 1);
        println!(
            "{:<10} {:>10.1} {:>12} {:>14} {:>12}",
            format!("{} KB", (1u64 << chunk_bits) >> 10),
            cmt.storage_bits_two_level() as f64 / 8.0 / 1000.0,
            frag,
            chunk_bits - 6,
            f2(speedup),
        );
    }
    println!(
        "* worst-case internal fragmentation at 256 concurrent mappings\n\
         paper: 2 MB balances CMT storage (68 KB) against a 6.25 % worst-case\n\
         fragmentation bound; tiny chunks can no longer cover large strides\n\
         inside one chunk, huge chunks bloat fragmentation"
    );
}
