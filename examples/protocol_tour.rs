//! Tour of every ORAM protocol in the workspace on one workload.
//!
//! Runs the same 400-request hotspot trace through Path ORAM, the paper's
//! tree-top-cache baseline and H-ORAM, printing the storage-side cost of each — a miniature of the
//! paper's comparison tables and a demonstration of the shared `Oram`
//! trait.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example protocol_tour
//! ```

use horam::analysis::table::Table;
use horam::prelude::*;
use horam::protocols::{build_tree_top_cache, PathOram, PathOramConfig, TreeBackend};
use horam::storage::calibration::MachineConfig;
use horam::storage::clock::SimClock;
use horam::workload::WorkloadGenerator;

const CAPACITY: u64 = 1024;
const PAYLOAD: usize = 32;
const MEMORY_SLOTS: u64 = 256;

fn trace() -> Vec<Request> {
    HotspotWorkload::paper_default(CAPACITY, 77).generate(400)
}

fn run(oram: &mut dyn Oram, requests: &[Request]) -> Result<(), OramError> {
    for request in requests {
        oram.access(request)?;
    }
    Ok(())
}

fn main() -> Result<(), OramError> {
    let requests = trace();
    let machine = MachineConfig::dac2019();
    let master = MasterKey::from_bytes([9u8; 32]);
    let mut table = Table::new(vec!["protocol", "storage ops", "storage busy", "notes"]);

    // Path ORAM entirely on the slow device: the worst case.
    {
        let device = machine.build_storage(SimClock::new(), None);
        let mut oram = PathOram::new(
            PathOramConfig::new(CAPACITY, PAYLOAD),
            device,
            &master.derive("tour/path", 0),
        )?;
        run(&mut oram, &requests)?;
        let stats = oram.device().stats();
        table.row(vec![
            "Path ORAM (all on HDD)".into(),
            stats.ops().to_string(),
            stats.busy.to_string(),
            "every path fully on storage".into(),
        ]);
    }

    // The paper's baseline: tree-top cache.
    {
        let clock = SimClock::new();
        let (mut oram, split) = build_tree_top_cache(
            PathOramConfig::new(CAPACITY, PAYLOAD),
            MEMORY_SLOTS,
            machine.build_memory(clock.clone(), None),
            machine.build_storage(clock, None),
            &master.derive("tour/ttc", 0),
        )?;
        run(&mut oram, &requests)?;
        let (_, storage) = oram.backend().stats();
        table.row(vec![
            "Tree-top-cache Path ORAM".into(),
            storage.ops().to_string(),
            storage.busy.to_string(),
            format!("{} levels on storage", split.storage_levels),
        ]);
    }

    // H-ORAM: the cacheable interface.
    {
        let config = HOramConfig::new(CAPACITY, PAYLOAD, MEMORY_SLOTS).with_seed(6);
        let mut oram = HOram::new(config, MemoryHierarchy::dac2019(), master)?;
        oram.run_batch(&requests)?;
        let stats = oram.storage_device_stats();
        table.row(vec![
            "H-ORAM".into(),
            stats.ops().to_string(),
            stats.busy.to_string(),
            format!(
                "{:.1} requests per I/O load",
                oram.stats().requests_per_io()
            ),
        ]);
    }

    println!(
        "{} requests, hotspot 80/20, {CAPACITY} blocks x {PAYLOAD} B\n",
        requests.len()
    );
    println!("{table}");
    Ok(())
}
