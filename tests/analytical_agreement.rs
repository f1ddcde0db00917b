//! The simulation must agree with the paper's closed-form model where the
//! model applies: I/O volumes per period, shuffle traffic, and the
//! baseline's per-access cost.

use horam::analysis::model::OramModel;
use horam::prelude::*;
use horam::protocols::{build_tree_top_cache, Oram, PathOramConfig, TreeBackend};
use horam::storage::calibration::MachineConfig;
use horam::storage::clock::SimClock;
use horam::workload::{UniformWorkload, WorkloadGenerator};

/// Tree-top-cache baseline: measured I/O blocks per access must equal the
/// model's `Z·log₂(2N/n)` in each direction.
#[test]
fn baseline_io_per_access_matches_model() {
    let capacity: u64 = 1 << 14; // 16384 blocks
    let memory_slots: u64 = 1 << 11; // 2048 slots
    let machine = MachineConfig::dac2019();
    let clock = SimClock::new();
    let (mut oram, split) = build_tree_top_cache(
        PathOramConfig::new(capacity, 8),
        memory_slots,
        machine.build_memory(clock.clone(), None),
        machine.build_storage(clock, None),
        &MasterKey::from_bytes([41u8; 32]).derive("aa/ttc", 0),
    )
    .expect("baseline builds");

    let model = OramModel::new(capacity, memory_slots, 4, 4.0);
    assert_eq!(split.storage_levels as f64, model.storage_levels());

    let accesses = 50u64;
    let before = oram.tree().backend().stats().1;
    for i in 0..accesses {
        oram.read(BlockId(i * 37 % capacity)).expect("read");
    }
    let after = oram.tree().backend().stats().1;
    let reads_per_access = (after.reads - before.reads) as f64 / accesses as f64;
    let writes_per_access = (after.writes - before.writes) as f64 / accesses as f64;
    let expected = model.path_oram_io_per_request();
    assert_eq!(reads_per_access, expected.reads, "baseline read volume");
    assert_eq!(writes_per_access, expected.writes, "baseline write volume");
}

/// H-ORAM: exactly `n/2` I/O loads per period, and the shuffle's byte
/// traffic within the model's `(N−resident)` read / `N·headroom` write
/// envelope.
#[test]
fn horam_period_volumes_match_model() {
    let capacity: u64 = 1 << 10;
    let memory_slots: u64 = 1 << 6; // period = 32 loads
    let config = HOramConfig::new(capacity, 8, memory_slots).with_seed(3);
    let period_limit = config.period_io_limit();
    let mut oram = HOram::new(
        config,
        MemoryHierarchy::dac2019(),
        MasterKey::from_bytes([42u8; 32]),
    )
    .expect("h-oram builds");

    let mut generator = UniformWorkload::new(capacity, 0.0, 8);
    // Enough to finish exactly one shuffle.
    let requests = generator.generate(40);
    oram.run_batch(&requests).expect("batch");
    let stats = oram.stats();
    assert_eq!(
        stats.shuffles, 1,
        "setup: exactly one period boundary expected"
    );
    // Loads in the first period equal the period limit exactly.
    assert!(stats.total_io_loads() >= period_limit);

    // Shuffle traffic: the full pass reads and writes every partition slot
    // once (model: N reads + N writes, plus the configured headroom).
    let storage = oram.storage_device_stats();
    let block = 1024u64; // charged block bytes
    let total_slots_bytes = oram.storage_bytes();
    let shuffle_reads = storage.bytes_read - stats.total_io_loads() * block;
    assert_eq!(
        shuffle_reads, total_slots_bytes,
        "shuffle reads every slot once"
    );
    assert_eq!(
        storage.bytes_written, total_slots_bytes,
        "shuffle writes every slot once"
    );
}

/// The measured mean I/O latency must sit in the band the calibrated seek
/// model predicts for the region size (paper: 77 µs at 64 MB spans,
/// 107 µs at 1 GB spans).
#[test]
fn io_latency_sits_in_the_calibrated_band() {
    let capacity: u64 = 1 << 16; // 64 Mi"B" at 1 KB blocks
    let config = HOramConfig::new(capacity, 8, 1 << 13).with_seed(4);
    let mut oram = HOram::new(
        config,
        MemoryHierarchy::dac2019(),
        MasterKey::from_bytes([43u8; 32]),
    )
    .expect("h-oram builds");
    let mut generator = UniformWorkload::new(capacity, 0.0, 9);
    let requests = generator.generate(300);
    oram.run_batch(&requests).expect("batch");
    let mean = oram.stats().mean_io_latency().as_micros_f64();
    assert!(
        (55.0..95.0).contains(&mean),
        "mean I/O latency {mean} µs outside the 64 MB-span calibration band"
    );
}

/// Theoretical Table 5-1 invariants at the paper's parameter point.
#[test]
fn table_5_1_model_point() {
    let model = OramModel::new(1 << 20, 1 << 17, 4, 4.0);
    assert_eq!(model.requests_per_period(), 262_144.0);
    let horam = model.horam_io_per_access();
    assert!((horam.reads - 4.5).abs() < 1e-9);
    assert!((horam.writes - 4.0).abs() < 1e-9);
    let path = model.path_oram_io_per_request();
    assert_eq!(path.reads, 16.0);
}
