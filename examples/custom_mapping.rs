//! The programmer path (paper §6.2): "for programs with simple
//! repetitive data access such as element size and stride, programmers
//! can identify the access pattern and select the address mapping
//! directly from the source code."
//!
//! This example builds an AMU crossbar configuration by hand, registers
//! it in a CMT, and measures throughput on the raw HBM simulator —
//! no profiling, no ML, just the hardware layers.
//!
//! ```text
//! cargo run --release --example custom_mapping
//! ```

use sdam_hbm::{Geometry, Hbm, Timing};
use sdam_mapping::descriptor::MappingDescriptor;
use sdam_mapping::{AmuConfig, Cmt, MappingId, PhysAddr};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let geom = Geometry::hbm2_8gb();

    // Our data structure is a matrix of 2 KB rows, walked column-wise:
    // stride 32 lines. Under the boot-time mapping every access lands on
    // one channel. We know bits 11..16 vary fastest, so we declare that
    // they should drive the channel selector; the descriptor compiles
    // the intent into a validated AMU crossbar configuration.
    let perm = MappingDescriptor::new(geom)
        .channel_bits([11, 12, 13, 14, 15])
        .compile_windowed(21)?; // 2 MB chunk scope
    println!(
        "declared AMU config ({} crossbar switches, {}-bit encoding)",
        perm.len() * perm.len(),
        AmuConfig::pack(&perm).storage_bits()
    );

    // Register it as mapping 1 and point chunk 0 at it.
    let mut cmt = Cmt::new(geom.addr_bits(), 21);
    cmt.register(MappingId(1), &perm);
    cmt.assign_chunk(0, MappingId(1))?;

    // Compare throughput of the column walk with and without the custom
    // mapping (the walk stays within chunk 0: 2 MB / 2 KB = 1024 rows).
    let stride = 32u64 * 64;
    let walk: Vec<u64> = (0..1024u64).map(|i| i * stride).collect();
    for (name, chunk) in [("default (chunk 1)", 1u64 << 21), ("custom (chunk 0)", 0)] {
        let mut hbm = Hbm::new(geom, Timing::hbm2());
        let stats = hbm.run_open_loop(
            walk.iter()
                .map(|&a| geom.decode(cmt.translate(PhysAddr(chunk + a)))),
        );
        println!(
            "{name:<18}: {:6.1} GB/s on {} channels",
            stats.throughput_gbps(),
            stats.channels_touched()
        );
    }
    println!(
        "\nCMT after setup: {} mappings registered, {:.1} KB of SRAM",
        cmt.registered_ids().count(),
        cmt.storage_bits_two_level() as f64 / 8.0 / 1000.0
    );
    Ok(())
}
