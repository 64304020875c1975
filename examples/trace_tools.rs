//! Trace tooling: capture a workload's access trace to a file, read it
//! back, and inspect it — stride histogram, working set, reuse-distance
//! profile, and the channel-balance histogram under two mappings.
//!
//! ```text
//! cargo run --release --example trace_tools
//! ```

use sdam_hbm::{Geometry, Hbm, Timing};
use sdam_mapping::{select, AddressMapping, BitFlipRateVector, PhysAddr};
use sdam_trace::io::{read_trace, write_trace, TraceReader, TraceWriter};
use sdam_trace::stats::{ReuseProfile, StrideHistogram, WorkingSet};
use sdam_trace::{MemAccess, VariableId};
use sdam_workloads::analytics::HashJoin;
use sdam_workloads::{Scale, Workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Capture: generate and persist a trace.
    let trace = HashJoin.generate(Scale::tiny());
    let path = std::env::temp_dir().join("hash_join.sdamtrc");
    write_trace(&trace, std::fs::File::create(&path)?)?;
    let on_disk = std::fs::metadata(&path)?.len();
    println!(
        "captured {} accesses to {} ({} KB)",
        trace.len(),
        path.display(),
        on_disk / 1024
    );

    // 2. Replay: read it back and verify.
    let replayed = read_trace(std::fs::File::open(&path)?)?;
    assert_eq!(replayed, trace);

    // 3. Inspect.
    let strides = StrideHistogram::from_trace(&replayed);
    if let Some((stride, share)) = strides.dominant() {
        println!(
            "dominant stride: {stride} lines ({:.0}% of {} samples)",
            share * 100.0,
            strides.samples()
        );
    }
    let ws = WorkingSet::of(&replayed);
    println!(
        "working set: {} lines / {} pages ({} KB)",
        ws.lines,
        ws.pages,
        ws.bytes() / 1024
    );
    let reuse = ReuseProfile::of(&replayed);
    for lines in [128u64, 1024, 8192] {
        println!(
            "  LRU cache of {:>5} lines would hit {:>5.1}% of accesses",
            lines,
            reuse.hit_rate_at(lines) * 100.0
        );
    }

    // 4. Where does the traffic land? Channel histograms under the
    // default mapping and a profile-selected one.
    let geom = Geometry::hbm2_8gb();
    let bfrv = BitFlipRateVector::from_addrs(replayed.addrs(), geom.addr_bits());
    let tuned = select::shuffle_for_bfrv(&bfrv, geom);
    for (name, remap) in [
        ("default mapping", None),
        ("profile-selected", Some(&tuned)),
    ] {
        let mut hbm = Hbm::new(geom, Timing::hbm2());
        let stats = hbm.run_open_loop(replayed.addrs().map(|a| {
            let ha = match remap {
                Some(m) => m.map(PhysAddr(a)),
                None => sdam_hbm::HardwareAddr(a),
            };
            geom.decode(ha)
        }));
        println!(
            "\n{name}: {:.1} GB/s, imbalance {:.2}",
            stats.throughput_gbps(),
            stats.channel_imbalance()
        );
        // Print the first 8 channels of the histogram to keep it short.
        for line in stats.channel_histogram().lines().take(8) {
            println!("  {line}");
        }
    }
    std::fs::remove_file(&path)?;

    // 5. Streaming: traces that never fit in memory. Write a large
    // synthetic trace record-at-a-time (the header declares the count
    // up front, so no in-memory Trace exists at any point), then replay
    // it straight off disk into the simulator. Resident memory is one
    // 64 KiB I/O block plus the simulator's bounded pending queues,
    // independent of trace length.
    let big_path = std::env::temp_dir().join("streaming.sdamtrc");
    let records: u64 = 1 << 20;
    let mut writer = TraceWriter::with_count(std::fs::File::create(&big_path)?, records)?;
    for i in 0..records {
        // A mix of two strided streams, like the capture above but 4000x
        // longer than Scale::tiny().
        let addr = if i % 4 == 0 {
            (i / 4) * 4096
        } else {
            i * 64 % (1 << 28)
        };
        writer.push(&MemAccess::read(addr, VariableId((i % 4 == 0) as u32)))?;
    }
    let file = writer.finish()?;
    drop(file);
    println!(
        "\nstreamed {} records to disk ({} MB)",
        records,
        std::fs::metadata(&big_path)?.len() >> 20
    );

    let reader = TraceReader::new(std::io::BufReader::new(std::fs::File::open(&big_path)?))?;
    assert_eq!(reader.expected_records(), records);
    let mut hbm = Hbm::new(geom, Timing::hbm2());
    let stats = hbm.run_open_loop_windowed(
        reader.map(|r| geom.decode(sdam_hbm::HardwareAddr(r.expect("trace corrupt").addr))),
        16,
    );
    println!(
        "replayed off disk: {} requests, {:.1} GB/s, row-hit rate {:.0}%",
        stats.requests,
        stats.throughput_gbps(),
        stats.row_hit_rate().unwrap_or(0.0) * 100.0
    );
    std::fs::remove_file(&big_path)?;
    Ok(())
}
