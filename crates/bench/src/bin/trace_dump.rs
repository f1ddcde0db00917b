//! Utility: run a workload and dump the adversary's bus trace.
//!
//! Produces the raw material of the security analysis as an artifact:
//! every observable bus event of an H-ORAM run (JSON, written event by
//! event), plus the summary statistics the leakage tests compute —
//! shape, per-device histograms, serial correlation of the storage-read
//! address sequence.
//!
//! ```sh
//! cargo run --release -p bench --bin trace_dump -- [--out <path>]
//! ```

use bench::json::write_pretty_seq;
use horam::analysis::autocorr::{serial_correlation, zero_correlation_band};
use horam::analysis::leakage::TraceShape;
use horam::analysis::table::Table;
use horam::prelude::*;
use horam::storage::calibration::device_ids;
use horam::storage::device::AccessKind;
use horam::workload::WorkloadGenerator;
use std::fs::File;
use std::io::{BufWriter, Write};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out_path = bench::BenchArgs::parse().out_or("trace.json");

    // A small but period-crossing run.
    let config = HOramConfig::new(4096, 32, 512).with_seed(99);
    let mut oram = HOram::new(
        config,
        MemoryHierarchy::dac2019().recording(),
        MasterKey::from_bytes([0x11; 32]),
    )?;
    let mut generator = HotspotWorkload::paper_default(4096, 12);
    let requests = generator.generate(2_000);
    oram.run_batch(&requests)?;

    let events = oram.trace().snapshot();
    let mut file = BufWriter::new(File::create(&out_path)?);
    write_pretty_seq(&mut file, &events)?;
    file.flush()?;
    println!(
        "wrote {} bus events to {}\n",
        events.len(),
        out_path.display()
    );

    // Shape summary.
    let shape = TraceShape::of(&events);
    let mut table = Table::new(vec![
        "device",
        "reads",
        "writes",
        "bytes read",
        "bytes written",
    ]);
    for ((device, reads, writes), (_, bytes_read, bytes_written)) in
        shape.ops_per_device.iter().zip(&shape.bytes_per_device)
    {
        table.row(vec![
            device.to_string(),
            reads.to_string(),
            writes.to_string(),
            bytes_read.to_string(),
            bytes_written.to_string(),
        ]);
    }
    println!("{table}");

    // Serial correlation of storage read addresses (block-granular loads
    // only; streaming shuffle runs are deterministic sweeps by design).
    let loads: Vec<u64> = events
        .iter()
        .filter(|e| {
            e.device == device_ids::STORAGE && e.kind == AccessKind::Read && e.bytes <= 1024
        })
        .map(|e| e.addr)
        .collect();
    match serial_correlation(&loads, 1) {
        Some(r) => {
            let band = zero_correlation_band(loads.len());
            println!(
                "storage-load serial correlation (lag 1): {r:+.4} over {} loads (|r| < {band:.4} ⇒ clean)",
                loads.len()
            );
            if r.abs() < band {
                println!("verdict: consistent with zero — no sequential structure leaks");
            } else {
                println!("verdict: CORRELATED — investigate the permutation layer!");
            }
        }
        None => println!("not enough block loads for correlation analysis"),
    }
    Ok(())
}
