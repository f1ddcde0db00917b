//! Probe of `oram-protocols`: the memory tree's `PathOram`, alone, with
//! the workload's slot budget and payload on the simulated DRAM device.
//! Times one path access (host and simulated) and `evict_all`. Prints
//! `name value` lines.

use horam_benchmark::gen::SplitMix64;
use horam_benchmark::{time_per_call, Flags};
use oram_crypto::keys::MasterKey;
use oram_protocols::path_oram::PathOram;
use oram_protocols::types::BlockId;
use oram_storage::calibration::MachineConfig;
use oram_storage::clock::{SimClock, SimDuration};
use std::hint::black_box;
use std::time::Instant;

const ACCESSES: u64 = 10_000;

fn main() -> Result<(), String> {
    let flags = Flags::from_env()?;
    let capacity: u64 = flags.get("capacity", 16_384)?;
    let payload: usize = flags.get("payload", 1024)?;
    let slots: u64 = flags.get("slots", 2_048)?;

    let device = MachineConfig::dac2019().build_memory(SimClock::new(), None);
    let keys = MasterKey::from_bytes([7; 32]).derive("probe/protocols", 0);
    let mut oram = PathOram::for_slot_budget(slots, Some(capacity), payload, device, &keys, 1)
        .map_err(|e| format!("build: {e}"))?;

    // Half of the tree's resident capacity, which is half its slots.
    let resident = slots / 4;
    for id in 0..resident {
        oram.insert_block(BlockId(id), vec![id as u8; payload])
            .map_err(|e| format!("insert: {e}"))?;
    }
    let mut rng = SplitMix64::new(1);
    let mut sim = SimDuration::ZERO;
    let mut timed = 0u64;
    let access_ns = time_per_call(ACCESSES, |_| {
        let id = BlockId(rng.below(resident));
        let (data, receipt) = oram.access_read(id).expect("access");
        black_box(data);
        sim += receipt.memory;
        timed += 1;
    });

    let start = Instant::now();
    let (blocks, _) = oram.evict_all().map_err(|e| format!("evict_all: {e}"))?;
    let evict_ms = start.elapsed().as_secs_f64() * 1e3;
    if blocks.len() as u64 != resident {
        return Err(format!("evicted {} of {resident} blocks", blocks.len()));
    }

    println!("protocols.path_access_us {}", access_ns / 1e3);
    println!(
        "protocols.path_access_sim_us {}",
        sim.as_micros_f64() / timed as f64
    );
    println!("protocols.evict_all_ms {evict_ms}");
    Ok(())
}
