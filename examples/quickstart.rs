//! Quickstart: allocate two data structures under different address
//! mappings and watch how their accesses land on the memory channels.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use sdam::{ProcessId, SdamError, SdamSystem};
use sdam_hbm::Geometry;
use sdam_mem::VirtAddr;

fn main() -> Result<(), SdamError> {
    // The paper's device: 8 GB HBM2, 32 channels, 2 MB chunks.
    let geom = Geometry::hbm2_8gb();
    let mut sys = SdamSystem::try_new(geom, 21)?;
    println!("device: {geom}");
    // Every allocation names its process; pid 0 is the primordial one.
    let pid = ProcessId(0);

    // A streaming buffer is happy with the boot-time default mapping.
    let streaming = sys.malloc_in(pid, 1 << 20, None)?;

    // A matrix walked column-wise strides 2 KB (32 lines) per access —
    // the worst case for the default mapping. Ask the system for a
    // mapping tuned to that stride (the paper's `add_addr_map()` path).
    let stride_lines = 32;
    let perm = sys.permutation_for_stride(stride_lines);
    let id = sys.add_mapping(&perm)?;
    let column_major = sys.malloc_in(pid, 1 << 20, Some(id))?;
    println!("registered mapping {id} for a stride-{stride_lines} structure");

    // Touch both structures with their natural patterns and count the
    // channels each one reaches.
    let channels_of = |sys: &mut SdamSystem, base: VirtAddr, stride: u64| {
        let mut set = std::collections::HashSet::new();
        for i in 0..64u64 {
            let va = VirtAddr(base.raw() + i * stride * 64);
            set.insert(sys.access_in(pid, va).expect("mapped").channel);
        }
        set.len()
    };

    let s_chans = channels_of(&mut sys, streaming, 1);
    let m_chans = channels_of(&mut sys, column_major, stride_lines);
    println!("streaming buffer, stride 1:   {s_chans}/32 channels");
    println!(
        "column walk, stride {stride_lines}:      {m_chans}/32 channels (default would use 1)"
    );

    println!(
        "page faults: {}, internal fragmentation: {} pages",
        sys.page_faults(),
        sys.fragmentation_stats().stranded_pages
    );
    Ok(())
}
