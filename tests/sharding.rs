//! End-to-end guarantees of the sharded scale-out path: a sharded
//! instance must be functionally indistinguishable from a single
//! instance (byte-identical responses over any request sequence), every
//! shard must independently keep the once-per-period shuffle invariant,
//! and the serving layer's shard router must preserve the single-engine
//! service semantics while aggregating per-shard statistics.

use horam::analysis::leakage::once_per_period;
use horam::core::shard::{ShardedConfig, ShardedOram};
use horam::core::{Permission, UserId};
use horam::crypto::rng::DeterministicRng;
use horam::prelude::*;
use horam::storage::calibration::device_ids;
use horam::workload::{TenantSchedule, ZipfWorkload};
use horam_server::{FairSharePolicy, OramService, ServiceConfig, ServiceTicket};
use rand::Rng;

fn sharded(capacity: u64, memory_slots: u64, shards: u64, seed: u64) -> ShardedOram {
    let config = ShardedConfig::new(
        HOramConfig::new(capacity, 8, memory_slots).with_seed(seed),
        shards,
    );
    ShardedOram::new(config, MasterKey::from_bytes([0x6A; 32]), |_| {
        MemoryHierarchy::dac2019().recording()
    })
    .expect("sharded instance builds")
}

fn single(capacity: u64, memory_slots: u64, seed: u64) -> HOram {
    HOram::new(
        HOramConfig::new(capacity, 8, memory_slots).with_seed(seed),
        MemoryHierarchy::dac2019(),
        MasterKey::from_bytes([0x6A; 32]),
    )
    .expect("single instance builds")
}

fn mixed_workload(capacity: u64, len: usize, seed: u64) -> Vec<Request> {
    let mut rng = DeterministicRng::from_u64_seed(seed);
    (0..len)
        .map(|_| {
            let id = rng.gen_range(0..capacity);
            if rng.gen_bool(0.3) {
                Request::write(id, vec![rng.gen::<u8>(); 8])
            } else {
                Request::read(id)
            }
        })
        .collect()
}

/// Sharding is a pure scale-out change: the same mixed read/write
/// sequence produces byte-identical responses on one instance and on
/// 2/4/8 shards, across several shuffle periods.
#[test]
fn sharded_responses_match_single_instance() {
    let requests = mixed_workload(256, 400, 41);
    let mut reference = single(256, 64, 17);
    let expected = reference.run_batch(&requests).expect("single runs");
    assert!(reference.stats().shuffles >= 1, "setup: cross periods");

    for shards in [2u64, 4, 8] {
        let mut oram = sharded(256, 64, shards, 17);
        let responses = oram.run_batch(&requests).expect("sharded runs");
        assert_eq!(responses, expected, "{shards}-shard responses diverged");
    }
}

/// Every shard independently honours the once-per-period invariant:
/// exactly one I/O load per cycle, and a shuffle exactly each time the
/// shard's own period budget is spent.
#[test]
fn each_shard_keeps_the_shuffle_schedule() {
    let mut oram = sharded(256, 64, 4, 23);
    let requests = mixed_workload(256, 300, 91);
    oram.run_batch(&requests).expect("runs");

    let period = oram.config().shard_config(0).period_io_limit();
    assert_eq!(period, 8, "setup: 64/4 = 16 slots per shard, period 8");
    let mut total_shuffles = 0;
    for (i, stats) in oram.shard_stats().iter().enumerate() {
        assert_eq!(
            stats.total_io_loads(),
            stats.cycles,
            "shard {i}: one load per cycle"
        );
        assert_eq!(
            stats.shuffles,
            stats.cycles / period,
            "shard {i}: a shuffle exactly once per spent period budget"
        );
        total_shuffles += stats.shuffles;
    }
    assert!(
        total_shuffles >= 4,
        "setup: the workload must cross periods"
    );
}

/// Within a single access period, no shard reads the same storage slot
/// twice — the core obliviousness invariant, checked per shard on its
/// own bus trace.
#[test]
fn within_a_period_no_shard_rereads_a_slot() {
    let mut oram = sharded(256, 256, 4, 29);
    // 24 requests over an 8-block hot set: even if every request landed
    // on one shard, its cycle count stays below the per-shard period
    // budget of 32, so every shard remains inside its first period.
    let requests: Vec<Request> = (0..24u64).map(|i| Request::read(i % 8)).collect();
    oram.run_batch(&requests).expect("runs");

    for (i, shard) in oram.shards().iter().enumerate() {
        assert_eq!(
            shard.stats().shuffles,
            0,
            "shard {i}: setup stays in one period"
        );
        let events = shard.trace().snapshot();
        // One boundary at usize::MAX (clamped to the read count) makes
        // the whole run a single checked window; an empty boundary list
        // would check nothing.
        assert_eq!(
            once_per_period(&events, device_ids::STORAGE, &[usize::MAX]),
            None,
            "shard {i} read a storage slot twice within its period"
        );
    }
}

/// One shard is a single instance behind the router — not a
/// byte-identical one. `ShardedOram` derives its shard's master key from
/// the instance key and PRP-permutes block ids, which moves the storage
/// layout and with it the order of dummy prefetches. On the serving
/// gate's schedule that shifts three I/O counters (`real_io_loads`,
/// `dummy_io_loads`, `prefetched_blocks`) and the I/O time and clock
/// they drive, by a fraction of a percent. Everything the schedule
/// determines on its own is identical: the responses and the eight
/// fields below.
#[test]
fn one_shard_engine_matches_single_instance_on_the_schedule() {
    let config = HOramConfig::new(4096, 16, 1024)
        .with_seed(0x5e57)
        .with_worker_threads(1);
    let key = MasterKey::from_bytes([0xA5; 32]);
    let mut generator = ZipfWorkload::new(4096, 1.2, 0.2, 0x5e57).with_payload_len(16);
    let requests = TenantSchedule::shard(&mut generator, 8, 3_000).requests();

    let mut instance =
        HOram::new(config.clone(), MemoryHierarchy::dac2019(), key.clone()).expect("builds");
    let mut one_shard = ShardedOram::new(ShardedConfig::new(config, 1), key, |_| {
        MemoryHierarchy::dac2019()
    })
    .expect("builds");
    assert_eq!(
        instance.run_batch(&requests).expect("instance runs"),
        one_shard.run_batch(&requests).expect("one shard runs"),
    );
    let (a, b) = (instance.stats(), one_shard.stats());
    assert!(a.shuffles >= 1, "setup: cross a period");
    assert_eq!(
        (a.requests, a.writes, a.cycles, a.memory_hits),
        (b.requests, b.writes, b.cycles, b.memory_hits)
    );
    assert_eq!(a.dummy_memory_accesses, b.dummy_memory_accesses);
    assert_eq!(a.memory_time, b.memory_time);
    assert_eq!(a.shuffles, b.shuffles);
    assert_eq!(a.shuffle_wall_time, b.shuffle_wall_time);
}

fn zipf_schedule(capacity: u64, tenants: u32, requests: usize) -> TenantSchedule {
    let mut generator = ZipfWorkload::new(capacity, 1.1, 0.2, 0x51ed).with_payload_len(8);
    TenantSchedule::shard(&mut generator, tenants, requests)
}

fn collect(
    service_responses: &mut dyn FnMut(ServiceTicket) -> Option<Vec<u8>>,
    tickets: &[ServiceTicket],
) -> Vec<Vec<u8>> {
    tickets
        .iter()
        .map(|t| service_responses(*t).expect("response completed"))
        .collect()
}

/// The shard router behind `OramService` is semantics-preserving: the
/// same tenant schedule (with dedup on) completes with byte-identical
/// per-ticket responses on a 1-shard engine and a 4-shard engine.
#[test]
fn shard_router_preserves_service_semantics() {
    let schedule = zipf_schedule(256, 6, 500);
    let config = ServiceConfig {
        batch_size: 32,
        ..ServiceConfig::default()
    };

    let mut single_service = OramService::new(
        sharded(256, 64, 1, 31),
        Box::new(FairSharePolicy::default()),
        config.clone(),
    );
    let mut sharded_service = OramService::new(
        sharded(256, 64, 4, 31),
        Box::new(FairSharePolicy::default()),
        config,
    );
    for tenant in schedule.tenants() {
        single_service.register_tenant(UserId(tenant), 0..256, Permission::ReadWrite);
        sharded_service.register_tenant(UserId(tenant), 0..256, Permission::ReadWrite);
    }

    let arrivals = || {
        schedule
            .arrivals
            .iter()
            .map(|a| (UserId(a.tenant), a.request.clone()))
    };
    let (single_tickets, _) = single_service.serve_all(arrivals()).expect("single serves");
    let (sharded_tickets, _) = sharded_service
        .serve_all(arrivals())
        .expect("sharded serves");

    let single_responses = collect(&mut |t| single_service.take_response(t), &single_tickets);
    let sharded_responses = collect(&mut |t| sharded_service.take_response(t), &sharded_tickets);
    assert_eq!(
        single_responses, sharded_responses,
        "router changed responses"
    );
}

/// Per-shard statistics surface through the service and sum to the
/// aggregate the existing service accounting tracks.
#[test]
fn service_aggregates_per_shard_stats() {
    let schedule = zipf_schedule(256, 4, 300);
    let mut service = OramService::new(
        sharded(256, 64, 4, 37),
        Box::new(FairSharePolicy::default()),
        ServiceConfig::default(),
    );
    for tenant in schedule.tenants() {
        service.register_tenant(UserId(tenant), 0..256, Permission::ReadWrite);
    }
    let arrivals = schedule
        .arrivals
        .iter()
        .map(|a| (UserId(a.tenant), a.request.clone()));
    service.serve_all(arrivals).expect("serves");

    assert_eq!(service.oram().shards().len(), 4);
    let per_shard = service.shard_stats();
    assert_eq!(per_shard.len(), 4);
    let aggregate = service.stats().oram;
    assert_eq!(
        per_shard.iter().map(|s| s.requests).sum::<u64>(),
        aggregate.requests,
        "per-shard requests must sum to the service aggregate"
    );
    assert_eq!(
        per_shard.iter().map(|s| s.cycles).sum::<u64>(),
        aggregate.cycles,
        "per-shard cycles must sum to the service aggregate"
    );
    assert!(
        per_shard.iter().filter(|s| s.requests > 0).count() >= 2,
        "a Zipf schedule must touch several shards"
    );
}

/// The hot-shard stress: a schedule funnelled entirely into one shard
/// (via the instance's own mapper) drives work on that shard alone —
/// the router never touches banks that own none of the addressed blocks.
#[test]
fn hot_shard_schedule_stays_on_one_shard() {
    let mut oram = sharded(256, 64, 4, 43);
    let target = 2usize;
    let mut generator = ZipfWorkload::new(256, 1.1, 0.0, 7).with_payload_len(8);
    let mapper = oram.mapper().clone();
    let schedule = TenantSchedule::single_shard(
        &mut generator,
        2,
        40,
        |id| mapper.shard_of(id).expect("in range") as usize,
        target,
    );
    let requests: Vec<Request> = schedule
        .arrivals
        .iter()
        .map(|a| a.request.clone())
        .collect();
    oram.run_batch(&requests).expect("runs");

    for (i, stats) in oram.shard_stats().iter().enumerate() {
        if i == target {
            assert_eq!(stats.requests, 40, "target shard serves everything");
        } else {
            assert_eq!(stats.cycles, 0, "shard {i} must stay idle");
        }
    }
    // Scale-out degenerates gracefully: the shared clock equals the hot
    // shard's timeline.
    assert_eq!(
        oram.clock().now(),
        oram.shards()[target].clock().now(),
        "frontier follows the only busy shard"
    );
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// For arbitrary read/write interleavings and shard counts, the
        /// sharded instance's responses are byte-identical to a single
        /// instance over the same sequence (both against tiny memory
        /// trees, so every shard crosses shuffle periods).
        #[test]
        fn sharded_equals_single_for_arbitrary_sequences(
            ops in proptest::collection::vec((0u64..64, proptest::option::of(any::<u8>())), 1..70),
            shards in 2u64..5,
        ) {
            let requests: Vec<Request> = ops
                .iter()
                .map(|(id, write)| match write {
                    Some(byte) => Request::write(*id, vec![*byte; 8]),
                    None => Request::read(*id),
                })
                .collect();

            let mut reference = single(64, 16, 53);
            let expected = reference.run_batch(&requests).expect("single runs");

            let mut oram = sharded(64, 16, shards, 53);
            let responses = oram.run_batch(&requests).expect("sharded runs");
            prop_assert_eq!(responses, expected);
        }

        /// The once-per-period schedule holds per shard for arbitrary
        /// read sequences: one load per cycle, one shuffle per spent
        /// period budget, on every shard.
        #[test]
        fn per_shard_period_schedule_holds(
            ids in proptest::collection::vec(0u64..128, 1..60),
            shards in 2u64..5,
        ) {
            let mut oram = sharded(128, 32, shards, 59);
            let requests: Vec<Request> = ids.into_iter().map(Request::read).collect();
            oram.run_batch(&requests).expect("runs");
            let period = oram.config().shard_config(0).period_io_limit();
            for stats in oram.shard_stats() {
                prop_assert_eq!(stats.total_io_loads(), stats.cycles);
                prop_assert_eq!(stats.shuffles, stats.cycles / period);
            }
        }
    }
}
