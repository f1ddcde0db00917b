//! Cache sweep: hit rate versus cache capacity across Zipf skews — and
//! the honest negative result it documents.
//!
//! A conventional block cache converts workload skew into hit rate: the
//! hotter the head of the Zipf distribution, the more a small cache
//! captures. H-ORAM's obliviousness deliberately destroys that signal.
//! Within one access period every storage slot is read at most once
//! (`tests/leakage.rs` pins this down), so a cached slot is never
//! re-read before the next shuffle rewrites the partition — request
//! popularity cannot concentrate physical accesses. Hits come only from
//! the shuffle's own write-through population, which touches every slot
//! uniformly; the steady-state hit rate is therefore ≈ capacity / slots
//! for **every** θ, and only the hit-bound point (capacity ≥ slots)
//! collapses access-period I/O time — the regime the `cache` gate
//! checks in CI.
//!
//! ```sh
//! cargo run --release -p bench --bin cache_sweep [-- --quick]
//! ```

use bench::BenchArgs;
use horam::analysis::table::Table;
use horam::prelude::*;
use horam::storage::cache::CacheConfig;
use horam::workload::{WorkloadGenerator, ZipfWorkload};

const CAPACITY: u64 = 4096;
const MEMORY_SLOTS: u64 = 1024;
const PAYLOAD_LEN: usize = 16;
const WRITE_RATIO: f64 = 0.2;
const SEED: u64 = 0x5EE9;

const THETAS: [f64; 4] = [0.6, 0.8, 0.99, 1.2];

fn run_point(theta: f64, cache_blocks: u64, requests: usize) -> (f64, SimDuration) {
    let config = HOramConfig::new(CAPACITY, PAYLOAD_LEN, MEMORY_SLOTS)
        .with_seed(SEED)
        .with_cache(CacheConfig::lru(cache_blocks));
    let mut oram = HOram::new(
        config,
        MemoryHierarchy::dac2019(),
        MasterKey::from_bytes([0x5E; 32]),
    )
    .expect("builds");
    let mut generator =
        ZipfWorkload::new(CAPACITY, theta, WRITE_RATIO, SEED).with_payload_len(PAYLOAD_LEN);
    let trace = generator.generate(requests);
    oram.run_batch(&trace).expect("runs");
    let stats = oram.cache_stats().expect("cache installed");
    (stats.hit_rate(), oram.stats().io_time)
}

fn main() {
    let args = BenchArgs::parse();
    let mut requests = 4_000usize;
    if args.quick {
        requests /= 8;
        println!("(--quick: scaled to 1/8)\n");
    }
    let slots = {
        let config = HOramConfig::new(CAPACITY, PAYLOAD_LEN, MEMORY_SLOTS);
        config.partition_count() * config.partition_slots()
    };
    let sizes = [slots / 64, slots / 16, slots / 4, slots];

    println!(
        "Cache sweep — {CAPACITY} blocks, {MEMORY_SLOTS} memory slots, {slots} storage \
         slots, {requests} requests per point, write ratio {WRITE_RATIO}\n"
    );

    let mut header = vec!["cache blocks".to_string(), "of slots".to_string()];
    for theta in THETAS {
        header.push(format!("hit rate θ={theta}"));
    }
    header.push("io busy θ=1.2".into());
    let mut table = Table::new(header.iter().map(String::as_str).collect::<Vec<_>>());

    for &size in &sizes {
        let mut row = vec![
            size.to_string(),
            format!("{:.0}%", size as f64 / slots as f64 * 100.0),
        ];
        let mut last_io = SimDuration::from_nanos(0);
        for theta in THETAS {
            let (hit_rate, io_time) = run_point(theta, size, requests);
            row.push(format!("{:.1}%", hit_rate * 100.0));
            last_io = io_time;
        }
        row.push(last_io.to_string());
        table.row(row);
    }
    println!("{table}");
    println!("Hit rate tracks capacity/slots and is flat across θ: the once-per-period");
    println!("invariant means popularity never reaches the physical access stream, so a");
    println!("partial cache buys little and the hit-bound row is where I/O time collapses.");
    println!("That flatness is itself a leakage check — a skew-correlated hit rate would");
    println!("mean physical accesses correlate with request popularity.");
}
