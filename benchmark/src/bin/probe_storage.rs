//! Probe of `oram-storage`: the storage `Device`, alone, over the
//! volatile `BlockStore` and (for a file-backed workload) over a
//! `FileStore`: streaming `write_run` of one partition, `read_scatter`
//! of a 16-slot window, and `sync`. Prints `name value` lines.

use horam_benchmark::gen::SplitMix64;
use horam_benchmark::{time_per_call, Flags};
use oram_crypto::keys::MasterKey;
use oram_crypto::seal::{BlockSealer, SealedBlock};
use oram_protocols::types::BlockContent;
use oram_storage::calibration::MachineConfig;
use oram_storage::clock::SimClock;
use oram_storage::device::Device;
use oram_storage::file::{FileStore, FileStoreConfig};
use std::hint::black_box;
use std::time::Instant;

/// Slots per scatter read: the engine's default cycle window.
const SCATTER: u64 = 16;
const SCATTERS: u64 = 2_000;
const RUNS: u64 = 8;

/// Returns `(read ns per block, write ns per block)`.
fn measure(device: &mut Device, slots: u64, run: &[SealedBlock]) -> Result<(f64, f64), String> {
    let run_len = run.len() as u64;
    let starts = slots / run_len;
    // Built before timing: `write_run` consumes its blocks.
    let mut copies: Vec<Vec<SealedBlock>> = (0..RUNS + RUNS / 10).map(|_| run.to_vec()).collect();
    let write_ns = time_per_call(RUNS, |i| {
        let blocks = copies.pop().expect("one copy per call");
        device
            .write_run((i % starts) * run_len, blocks)
            .expect("write_run");
    });
    let written = RUNS.min(starts) * run_len;
    let mut rng = SplitMix64::new(1);
    let read_ns = time_per_call(SCATTERS, |_| {
        let addrs: Vec<u64> = (0..SCATTER).map(|_| rng.below(written)).collect();
        black_box(device.read_scatter(&addrs).expect("read_scatter"));
    });
    Ok((read_ns / SCATTER as f64, write_ns / run_len as f64))
}

fn main() -> Result<(), String> {
    let flags = Flags::from_env()?;
    let payload: usize = flags.get("payload", 1024)?;
    let slots: u64 = flags.get("storage-slots", 32_768)?;
    let run_len: u64 = flags.get("partition-slots", 1_024)?;
    let body_len = BlockContent::encoded_len(payload);
    let sealer = BlockSealer::new(&MasterKey::from_bytes([7; 32]).derive("probe/storage", 0));
    let run: Vec<SealedBlock> = (0..run_len)
        .map(|i| sealer.seal(i, 1, &vec![i as u8; body_len]))
        .collect();
    let machine = MachineConfig::dac2019();

    let mut volatile = machine.build_storage(SimClock::new(), None);
    let (read_ns, write_ns) = measure(&mut volatile, slots, &run)?;
    println!("storage.scatter_read_ns_per_block {read_ns}");
    println!("storage.write_run_ns_per_block {write_ns}");

    if flags.get("file", 0u8)? == 1 {
        let dir = flags.str("scratch").ok_or("--scratch is required")?;
        std::fs::create_dir_all(dir).map_err(|e| format!("create {dir}: {e}"))?;
        let store = FileStore::open(
            format!("{dir}/device.horam"),
            FileStoreConfig::new(slots, body_len).with_write_back_slots(64),
        )
        .map_err(|e| format!("open file store: {e}"))?;
        let mut durable = machine.build_storage_with_store(SimClock::new(), None, Box::new(store));
        let (get_ns, put_ns) = measure(&mut durable, slots, &run)?;
        let start = Instant::now();
        durable.sync().map_err(|e| format!("sync: {e}"))?;
        let sync_ms = start.elapsed().as_secs_f64() * 1e3;
        println!("storage.file_get_ns_per_block {get_ns}");
        println!("storage.file_put_ns_per_block {put_ns}");
        println!("storage.file_sync_ms {sync_ms}");
    }
    Ok(())
}
