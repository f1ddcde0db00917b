//! End-to-end guarantees of the batched I/O pipeline: the
//! windowed scheduler must be a pure *timing* optimization — responses,
//! storage access patterns, and the once-per-period invariant are all
//! byte-identical to the sequential per-block path.

use horam::analysis::leakage::once_per_period;
use horam::core::shard::{ShardedConfig, ShardedOram};
use horam::core::storage_layer::LoadPlan;
use horam::core::StorageLayer;
use horam::crypto::keys::KeyHierarchy;
use horam::prelude::*;
use horam::storage::calibration::{device_ids, MachineConfig};
use horam::storage::clock::SimClock;
use horam_server::{FairSharePolicy, OramService, ServiceConfig};

use horam::core::{Permission, UserId};
use horam::crypto::rng::DeterministicRng;
use rand::Rng;

fn config(io_batch: u64) -> HOramConfig {
    HOramConfig::new(512, 8, 128)
        .with_seed(23)
        .with_io_batch(io_batch)
}

fn build_with(config: HOramConfig) -> HOram {
    HOram::new(
        config,
        MemoryHierarchy::dac2019(),
        MasterKey::from_bytes([5u8; 32]),
    )
    .expect("construction succeeds")
}

fn build(io_batch: u64) -> HOram {
    build_with(config(io_batch))
}

fn build_sharded(config: HOramConfig, shards: u64) -> ShardedOram {
    ShardedOram::new(
        ShardedConfig::new(config, shards),
        MasterKey::from_bytes([5u8; 32]),
        |_| MemoryHierarchy::dac2019(),
    )
    .expect("sharded instance builds")
}

fn mixed_workload(len: usize) -> Vec<Request> {
    let mut rng = DeterministicRng::from_u64_seed(77);
    (0..len)
        .map(|_| {
            let id = rng.gen_range(0..512u64);
            if rng.gen_bool(0.25) {
                Request::write(id, vec![rng.gen::<u8>(); 8])
            } else {
                Request::read(id)
            }
        })
        .collect()
}

/// Batched windows and the per-block path are observably identical: same
/// responses, same storage-device access sequence, same load counts —
/// only simulated I/O time (and host allocations) differ.
#[test]
fn batched_pipeline_is_observably_identical_to_per_block() {
    let requests = mixed_workload(400);

    let mut per_block = build(1);
    let per_block_responses = per_block.run_batch(&requests).expect("per-block run");
    let per_block_addrs = per_block.trace().address_sequence(device_ids::STORAGE);

    let mut batched = build(32);
    let batched_responses = batched.run_batch(&requests).expect("batched run");
    let batched_addrs = batched.trace().address_sequence(device_ids::STORAGE);

    assert_eq!(per_block_responses, batched_responses, "responses diverged");
    assert_eq!(
        per_block_addrs, batched_addrs,
        "storage access patterns diverged"
    );
    let (seq, bat) = (per_block.stats(), batched.stats());
    assert!(seq.shuffles >= 1, "setup: must cross a shuffle period");
    assert_eq!(seq.total_io_loads(), bat.total_io_loads());
    assert_eq!(seq.real_io_loads, bat.real_io_loads);
    assert!(
        bat.io_time < seq.io_time,
        "batching must win simulated I/O time"
    );
}

/// §4.4.1 under batching: within one access period no storage slot is
/// read twice, even when whole windows of loads are committed at once.
#[test]
fn batched_loads_keep_the_once_per_period_invariant() {
    let mut oram = build(32);
    // Hot-set hammering maximizes dummy loads — the risky case.
    let requests: Vec<Request> = (0..180u64).map(|i| Request::read(i % 12)).collect();
    oram.run_batch(&requests).expect("batch");
    assert_eq!(
        oram.stats().shuffles,
        0,
        "setup: stay within one period (budget 64)"
    );
    let events = oram.trace().snapshot();
    assert_eq!(
        once_per_period(&events, device_ids::STORAGE, &[]),
        None,
        "a storage slot was read twice within a period under batching"
    );
}

/// The storage layer's `load_batch` drives the same machinery as
/// `fetch`/`dummy_load` — spot-check at this level too, over a fresh
/// layer with misses and dummies interleaved (the crate-level property
/// test covers arbitrary interleavings).
#[test]
fn storage_layer_load_batch_equals_sequential_calls() {
    let build_layer = || {
        let config = HOramConfig::new(128, 8, 64).with_seed(3);
        let device = MachineConfig::dac2019().build_storage(SimClock::new(), None);
        let master = MasterKey::from_bytes([2u8; 32]);
        let keys = KeyHierarchy::new(master.clone(), "io-pipeline-test");
        let posmap = horam::core::build_posmap(&config, &master, false).expect("posmap builds");
        StorageLayer::new(&config, device, keys, posmap).expect("layer builds")
    };
    let plan = [
        LoadPlan::Dummy,
        LoadPlan::Miss(BlockId(100)),
        LoadPlan::Dummy,
        LoadPlan::Dummy,
        LoadPlan::Miss(BlockId(7)),
        LoadPlan::Dummy,
    ];
    let mut sequential = build_layer();
    let mut seq_blocks = Vec::new();
    for &step in &plan {
        let load = match step {
            LoadPlan::Miss(id) => sequential.fetch(id).expect("fetch"),
            LoadPlan::Dummy => sequential.dummy_load().expect("dummy"),
        };
        seq_blocks.push(load.block);
    }
    let mut batched = build_layer();
    let batch = batched.load_batch(&plan).expect("batch");
    let bat_blocks: Vec<_> = batch.loads.iter().map(|l| l.block.clone()).collect();
    assert_eq!(seq_blocks, bat_blocks);
    assert_eq!(
        sequential.device().stats().reads,
        batched.device().stats().reads
    );
    assert!(batched.device().stats().busy < sequential.device().stats().busy);
}

/// The multi-tenant server rides the same pipeline: a windowed service
/// produces byte-identical responses to a per-cycle service.
#[test]
fn windowed_service_matches_per_cycle_service() {
    let serve = |io_batch: u64| {
        let oram = build_sharded(config(1), 1);
        let mut service = OramService::new(
            oram,
            Box::new(FairSharePolicy::default()),
            ServiceConfig {
                io_batch,
                ..ServiceConfig::default()
            },
        );
        for tenant in 0..4u32 {
            service.register_tenant(UserId(tenant), 0..512, Permission::ReadWrite);
        }
        let arrivals: Vec<(UserId, Request)> = mixed_workload(160)
            .into_iter()
            .enumerate()
            .map(|(i, request)| (UserId(i as u32 % 4), request))
            .collect();
        let (tickets, _report) = service.serve_all(arrivals).expect("serves");
        tickets
            .into_iter()
            .map(|t| service.take_response(t).expect("completed"))
            .collect::<Vec<_>>()
    };
    assert_eq!(serve(1), serve(16));
}

/// `run_cycle_window` is the only cycle driver: pumping an engine one
/// explicit window at a time — what `OramService::pump` does — leaves it
/// exactly where `run_batch` leaves it. Responses, every statistic, the
/// bus trace (timestamps included) and the simulated clock agree, on one
/// instance and on four shards, with the flat and the recursive position
/// map, across several shuffle periods.
#[test]
fn window_pumping_matches_batch_draining() {
    const IO_BATCH: u64 = 8;
    // `HOram` and `ShardedOram` share the method names but no trait.
    macro_rules! pump {
        ($engine:expr, $requests:expr, |$e:ident| $pending:expr) => {{
            let $e = &mut $engine;
            let tickets: Vec<u64> = $requests
                .iter()
                .map(|request: &Request| $e.enqueue(request.clone()).expect("enqueues"))
                .collect();
            while $pending > 0 {
                $e.run_cycle_window(IO_BATCH).expect("window runs");
            }
            tickets
                .iter()
                .map(|ticket| $e.take_response(*ticket).expect("response ready"))
                .collect::<Vec<_>>()
        }};
    }

    let requests = mixed_workload(400);
    for recursive in [false, true] {
        let config = if recursive {
            config(IO_BATCH).with_recursive_posmap(4)
        } else {
            config(IO_BATCH)
        };

        let mut drained = build_with(config.clone());
        let expected = drained.run_batch(&requests).expect("batch runs");
        assert!(drained.stats().shuffles >= 2, "setup: must cross periods");
        let mut pumped = build_with(config.clone());
        assert_eq!(pump!(pumped, requests, |e| e.queue().pending()), expected);
        assert_eq!(pumped.stats(), drained.stats());
        assert_eq!(pumped.trace().snapshot(), drained.trace().snapshot());
        assert_eq!(pumped.clock().now(), drained.clock().now());

        let mut drained = build_sharded(config.clone(), 4);
        let expected = drained.run_batch(&requests).expect("batch runs");
        let mut pumped = build_sharded(config, 4);
        assert_eq!(pump!(pumped, requests, |e| e.pending()), expected);
        assert_eq!(pumped.stats(), drained.stats());
        for (a, b) in pumped.shards().iter().zip(drained.shards()) {
            assert_eq!(a.trace().snapshot(), b.trace().snapshot());
        }
        assert_eq!(pumped.clock().now(), drained.clock().now());
    }
}
