//! Probe of `horam-core`'s position map, alone: `build_posmap` (flat or
//! recursive, as the workload configures it) at the workload's capacity,
//! then `location` queries on uniformly random blocks and one
//! `rebuild_all`. The recursive map also reports the cost of one level
//! checkout (query time over checkouts made), which is what the engine
//! pays per checkout whatever its own cache hit ratio. Prints
//! `name value` lines.

use horam_benchmark::gen::SplitMix64;
use horam_benchmark::{time_per_call, Flags};
use horam_core::{build_posmap, HOramConfig, PosmapMode, RecursivePosmapConfig};
use oram_crypto::keys::MasterKey;
use oram_protocols::types::BlockId;
use std::hint::black_box;
use std::time::Instant;

const QUERIES: u64 = 20_000;

fn main() -> Result<(), String> {
    let flags = Flags::from_env()?;
    let capacity: u64 = flags.get("capacity", 16_384)?;
    let mut config = HOramConfig::new(
        capacity,
        flags.get("payload", 1024)?,
        flags.get("slots", 2_048)?,
    )
    .with_seed(2019);
    if flags.get("recursive", 0u8)? == 1 {
        let dir = flags.str("scratch").ok_or("--scratch is required")?;
        // File-backed levels, as `cold_durable` configures them.
        let backing = (flags.get("file", 0u8)? == 1).then(|| format!("{dir}/posmap"));
        config = config.with_posmap(PosmapMode::Recursive(RecursivePosmapConfig {
            backing_dir: backing,
            ..RecursivePosmapConfig::default()
        }));
    }
    let master = MasterKey::from_bytes([7; 32]);
    let mut posmap = build_posmap(&config, &master, false).map_err(|e| format!("build: {e}"))?;

    // Block i at slot i; the remaining slots are empty.
    let owners: Vec<Option<BlockId>> = (0..posmap.total_slots())
        .map(|slot| (slot < capacity).then_some(BlockId(slot)))
        .collect();
    posmap
        .rebuild_all(&owners)
        .map_err(|e| format!("rebuild_all: {e}"))?;

    let mut rng = SplitMix64::new(1);
    let checkouts_before = posmap.stats().checkouts;
    let query_ns = time_per_call(QUERIES, |_| {
        let id = BlockId(rng.below(capacity));
        black_box(posmap.location(id).expect("location"));
    });
    // `time_per_call` makes a tenth more calls than it times.
    let checkouts = (posmap.stats().checkouts - checkouts_before) as f64 / 1.1;
    let start = Instant::now();
    posmap
        .rebuild_all(&owners)
        .map_err(|e| format!("rebuild_all: {e}"))?;
    let rebuild_ms = start.elapsed().as_secs_f64() * 1e3;

    println!("core.posmap_query_ns {query_ns}");
    if checkouts > 0.0 {
        println!(
            "core.posmap_checkout_ns {}",
            query_ns * QUERIES as f64 / checkouts
        );
    }
    println!("core.posmap_rebuild_ms {rebuild_ms}");
    Ok(())
}
