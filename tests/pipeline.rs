//! Differential battery for the pipelined cycle scheduler: at any
//! pipeline depth — any shard count, with or without the block cache,
//! flat or recursive position map — the engine must be **byte-identical**
//! to the sequential (depth-1) engine on *everything*:
//!
//! * byte-identical responses over arbitrary request sequences;
//! * identical protocol counters (requests, loads, dummies, shuffles…);
//! * an identical bus trace — same devices, op kinds, physical slots,
//!   byte counts, in the same order;
//! * an **identical simulated clock** (unlike the cache differential in
//!   `tests/cache.rs`, which only bounds the clock, the pipeline is
//!   host-side overlap: simulated device charges must not move at all).
//!
//! Checked across the full configuration grid by example and by
//! property, and the battery's teeth are proven on a deliberately leaky
//! fixture (`HOram::set_hazard_skip`) that plans lookahead windows
//! across period boundaries — the battery must *detect* that leak.

use horam::core::shard::{ShardedConfig, ShardedOram};
use horam::crypto::rng::DeterministicRng;
use horam::prelude::*;
use horam::storage::cache::CacheConfig;
use horam::storage::device::AccessKind;
use horam::storage::trace::TraceEvent;
use rand::Rng;

const CAPACITY: u64 = 256;
const PAYLOAD: usize = 8;
const MEMORY_SLOTS: u64 = 64;
const IO_BATCH: u64 = 8;

/// One point in the configuration grid the battery sweeps.
#[derive(Clone, Copy)]
struct Point {
    cached: bool,
    recursive: bool,
}

impl Point {
    fn label(&self) -> String {
        format!(
            "{}/{} posmap",
            if self.cached { "cached" } else { "uncached" },
            if self.recursive { "recursive" } else { "flat" },
        )
    }
}

const GRID: [Point; 4] = [
    Point {
        cached: false,
        recursive: false,
    },
    Point {
        cached: true,
        recursive: false,
    },
    Point {
        cached: false,
        recursive: true,
    },
    Point {
        cached: true,
        recursive: true,
    },
];

fn config(point: Point, depth: u64) -> HOramConfig {
    let mut config = HOramConfig::new(CAPACITY, PAYLOAD, MEMORY_SLOTS)
        .with_seed(0x91e)
        .with_io_batch(IO_BATCH)
        .with_pipeline_depth(depth);
    if point.cached {
        config = config.with_cache(CacheConfig::lru(16));
    }
    if point.recursive {
        config = config.with_recursive_posmap(4);
    }
    config
}

fn build(point: Point, depth: u64) -> HOram {
    HOram::new(
        config(point, depth),
        MemoryHierarchy::dac2019(),
        MasterKey::from_bytes([0x5D; 32]),
    )
    .expect("construction succeeds")
}

fn build_sharded(point: Point, depth: u64, shards: u64) -> ShardedOram {
    ShardedOram::new(
        ShardedConfig::new(config(point, depth), shards),
        MasterKey::from_bytes([0x5D; 32]),
        |_| MemoryHierarchy::dac2019(),
    )
    .expect("sharded instance builds")
}

/// A deterministic mixed read/write workload.
fn workload(len: usize, seed: u64) -> Vec<Request> {
    let mut rng = DeterministicRng::from_u64_seed(seed);
    (0..len)
        .map(|_| {
            let id = rng.gen_range(0..CAPACITY);
            if rng.gen_bool(0.3) {
                Request::write(id, vec![rng.gen::<u8>(); PAYLOAD])
            } else {
                Request::read(id)
            }
        })
        .collect()
}

/// The adversary-visible part of an event: everything except the
/// timestamp, which is asserted separately (and exactly) through the
/// clock frontier.
fn shape(events: &[TraceEvent]) -> Vec<(u16, bool, u64, u64)> {
    events
        .iter()
        .map(|e| (e.device.0, e.kind == AccessKind::Read, e.addr, e.bytes))
        .collect()
}

/// Every protocol counter in [`HOramStats`] that the pipeline must not
/// move. Time fields ride the clock assertion instead, where the pipeline
/// contract is *equality*, not a bound.
fn counters(stats: &HOramStats) -> [u64; 10] {
    [
        stats.requests,
        stats.writes,
        stats.cycles,
        stats.memory_hits,
        stats.dummy_memory_accesses,
        stats.real_io_loads,
        stats.dummy_io_loads,
        stats.prefetched_blocks,
        stats.shuffles,
        stats.spilled_blocks,
    ]
}

struct Observed {
    responses: Vec<Vec<u8>>,
    counters: [u64; 10],
    shapes: Vec<Vec<(u16, bool, u64, u64)>>,
    clock: u64,
}

fn observe(point: Point, depth: u64, requests: &[Request]) -> Observed {
    let mut oram = build(point, depth);
    let responses = oram.run_batch(requests).expect("batch runs");
    Observed {
        responses,
        counters: counters(&oram.stats()),
        shapes: vec![shape(&oram.trace().snapshot())],
        clock: oram.clock().now().as_nanos(),
    }
}

fn observe_sharded(point: Point, depth: u64, shards: u64, requests: &[Request]) -> Observed {
    let mut oram = build_sharded(point, depth, shards);
    let responses = oram.run_batch(requests).expect("batch runs");
    Observed {
        responses,
        counters: counters(&oram.stats()),
        shapes: oram
            .shards()
            .iter()
            .map(|shard| shape(&shard.trace().snapshot()))
            .collect(),
        clock: oram.clock().now().as_nanos(),
    }
}

fn assert_identical(observed: &Observed, reference: &Observed, label: &str) {
    assert_eq!(
        observed.responses, reference.responses,
        "{label}: responses diverged"
    );
    assert_eq!(
        observed.counters, reference.counters,
        "{label}: counters diverged"
    );
    assert_eq!(
        observed.shapes, reference.shapes,
        "{label}: bus trace diverged"
    );
    assert_eq!(
        observed.clock, reference.clock,
        "{label}: simulated clock diverged"
    );
}

/// The headline differential: over the full grid — cached/uncached ×
/// flat/recursive posmap, at 1 and 4 shards — depths 2 and 4 are
/// byte-identical to depth 1 on responses, counters, every per-shard bus
/// trace, and the simulated clock.
#[test]
fn any_depth_is_byte_identical_to_sequential() {
    let requests = workload(300, 0xA1);
    for point in GRID {
        let reference = observe(point, 1, &requests);
        assert!(
            reference.counters[8] >= 2,
            "{}: setup must cross shuffle periods",
            point.label()
        );
        for depth in [2u64, 4] {
            let observed = observe(point, depth, &requests);
            assert_identical(
                &observed,
                &reference,
                &format!("1 shard, {}, depth {depth}", point.label()),
            );
        }

        let sharded_reference = observe_sharded(point, 1, 4, &requests);
        for depth in [2u64, 4] {
            let observed = observe_sharded(point, depth, 4, &requests);
            assert_identical(
                &observed,
                &sharded_reference,
                &format!("4 shards, {}, depth {depth}", point.label()),
            );
        }
    }
}

/// The differential above is not vacuous: at depth 4 the pipeline
/// actually engages — windows are planned ahead and commits overlap
/// planning — while a depth-1 run never plans ahead.
#[test]
fn deep_runs_actually_pipeline() {
    let requests = workload(300, 0xA1);

    let mut sequential = build(GRID[0], 1);
    sequential.run_batch(&requests).expect("batch runs");
    assert_eq!(sequential.pipeline_stats().planned_ahead_windows, 0);

    let mut piped = build(GRID[0], 4);
    piped.run_batch(&requests).expect("batch runs");
    let stats = piped.pipeline_stats();
    assert!(
        stats.planned_ahead_windows > 0,
        "depth-4 run planned nothing ahead: {stats:?}"
    );
    assert!(
        stats.period_stalls > 0,
        "workload crosses periods, so lookahead must have stalled at \
         boundaries: {stats:?}"
    );

    // Sharded engagement needs a per-shard access period that holds more
    // than one window: at the grid geometry each shard's period I/O limit
    // equals the window size, so lookahead (correctly) stalls at every
    // boundary. Double the memory budget so each shard fits two windows
    // per period.
    let config = HOramConfig::new(CAPACITY, PAYLOAD, 2 * MEMORY_SLOTS)
        .with_seed(0x91e)
        .with_io_batch(IO_BATCH)
        .with_pipeline_depth(4);
    let mut sharded = ShardedOram::new(
        ShardedConfig::new(config, 4),
        MasterKey::from_bytes([0x5D; 32]),
        |_| MemoryHierarchy::dac2019(),
    )
    .expect("sharded instance builds");
    sharded.run_batch(&requests).expect("batch runs");
    let engaged: u64 = sharded
        .shards()
        .iter()
        .map(|shard| shard.pipeline_stats().planned_ahead_windows)
        .sum();
    assert!(engaged > 0, "sharded depth-4 run planned nothing ahead");
}

/// Teeth check: a deliberately leaky scheduler — lookahead planning that
/// ignores the period boundary (`HOram::set_hazard_skip`) — must be
/// *caught* by this battery's observables. The leak delays shuffles, so
/// the trace and clock diverge from the honest depth-1 reference.
#[test]
fn battery_detects_period_hazard_violations() {
    let requests = workload(300, 0xA1);
    let reference = observe(GRID[0], 1, &requests);

    // At depth 1 there is no lookahead, so the broken clamp is dead code
    // and the leak is invisible: a single-depth test suite would pass.
    let mut sequential = build(GRID[0], 1);
    sequential.set_hazard_skip(true);
    let responses = sequential.run_batch(&requests).expect("batch runs");
    assert_eq!(responses, reference.responses);
    assert_eq!(shape(&sequential.trace().snapshot()), reference.shapes[0]);
    assert_eq!(sequential.clock().now().as_nanos(), reference.clock);

    // At depth 4 lookahead planning crosses the period boundary and the
    // cross-depth differential catches it.
    let mut leaky = build(GRID[0], 4);
    leaky.set_hazard_skip(true);
    let responses = leaky.run_batch(&requests).expect("batch runs");
    let diverged = responses != reference.responses
        || counters(&leaky.stats()) != reference.counters
        || shape(&leaky.trace().snapshot()) != reference.shapes[0]
        || leaky.clock().now().as_nanos() != reference.clock;
    assert!(
        diverged,
        "the hazard-skip leak went undetected: a depth-4 run with \
         period-boundary clamping disabled matched the sequential \
         reference on every observable"
    );
}

/// Depth composes with the serving layer's burst pump: driving the
/// engine through explicit `run_cycle_burst` windows (as `OramService`
/// does) reaches the same final state as `run_batch`, at both 1 and 4
/// shards.
#[test]
fn burst_pumping_matches_batch_draining() {
    use horam::core::engine::OramEngine;
    let requests = workload(120, 0xB7);
    let reference = observe(GRID[0], 1, &requests);

    let mut pumped = build(GRID[0], 4);
    let tickets: Vec<u64> = requests
        .iter()
        .map(|request| pumped.enqueue(request.clone()).expect("enqueues"))
        .collect();
    while OramEngine::pending_requests(&pumped) > 0 {
        OramEngine::run_cycle_burst(&mut pumped, IO_BATCH, 4).expect("burst runs");
    }
    let responses: Vec<Vec<u8>> = tickets
        .iter()
        .map(|ticket| pumped.take_response(*ticket).expect("response ready"))
        .collect();
    assert_eq!(responses, reference.responses, "pumped responses diverged");
    assert_eq!(counters(&pumped.stats()), reference.counters);
    assert_eq!(shape(&pumped.trace().snapshot()), reference.shapes[0]);
    assert_eq!(pumped.clock().now().as_nanos(), reference.clock);

    let sharded_reference = observe_sharded(GRID[0], 1, 4, &requests);
    let mut sharded = build_sharded(GRID[0], 4, 4);
    let tickets: Vec<u64> = requests
        .iter()
        .map(|request| sharded.enqueue(request.clone()).expect("enqueues"))
        .collect();
    while OramEngine::pending_requests(&sharded) > 0 {
        OramEngine::run_cycle_burst(&mut sharded, IO_BATCH, 4).expect("burst runs");
    }
    let responses: Vec<Vec<u8>> = tickets
        .iter()
        .map(|ticket| sharded.take_response(*ticket).expect("response ready"))
        .collect();
    assert_eq!(responses, sharded_reference.responses);
    assert_eq!(counters(&sharded.stats()), sharded_reference.counters);
    assert_eq!(sharded.clock().now().as_nanos(), sharded_reference.clock);
}

/// The serving layer has no depth of its own: `OramService::pump` bursts
/// at whatever depth the *engine* runs at, so the two cannot drift — not
/// when the depth is set directly on the engine's `HOramConfig`, and not
/// across a checkpoint → restore, where the engine keeps its snapshot's
/// depth. (Before the service asked the engine, a default `ServiceConfig`
/// burst one window at a time over a depth-2 engine, so lookahead never
/// engaged.)
#[test]
fn service_bursts_at_the_engines_depth_across_restore() {
    use horam::core::{Permission, UserId};
    use horam_server::{FifoPolicy, OramService, ServiceConfig};

    // Two windows per shard period (as in `deep_runs_actually_pipeline`).
    let build = |depth: u64| {
        let config = HOramConfig::new(CAPACITY, PAYLOAD, 2 * MEMORY_SLOTS)
            .with_seed(0x91e)
            .with_pipeline_depth(depth);
        ShardedOram::new(
            ShardedConfig::new(config, 2),
            MasterKey::from_bytes([0x5D; 32]),
            |_| MemoryHierarchy::dac2019(),
        )
        .expect("sharded instance builds")
    };
    let wrap = |oram: ShardedOram| {
        let mut service = OramService::new(oram, Box::new(FifoPolicy), ServiceConfig::default());
        service.register_tenant(UserId(0), 0..CAPACITY, Permission::ReadWrite);
        service
    };
    let serve = |service: &mut OramService<ShardedOram>, requests: &[Request]| {
        let arrivals = requests.iter().cloned().map(|r| (UserId(0), r));
        let (tickets, _report) = service.serve_all(arrivals).expect("serves");
        tickets
            .into_iter()
            .map(|t| service.take_response(t).expect("completed"))
            .collect::<Vec<_>>()
    };
    let planned_ahead = |service: &OramService<ShardedOram>| -> u64 {
        let shards = service.oram().shards().iter();
        shards
            .map(|shard| shard.pipeline_stats().planned_ahead_windows)
            .sum()
    };

    let (first, second) = (workload(300, 0xC3), workload(300, 0xC4));
    let mut sequential = wrap(build(1));
    let expected_first = serve(&mut sequential, &first);
    let expected_second = serve(&mut sequential, &second);
    assert_eq!(planned_ahead(&sequential), 0);

    let mut piped = wrap(build(2));
    assert_eq!(serve(&mut piped, &first), expected_first);
    assert!(
        planned_ahead(&piped) > 0,
        "default ServiceConfig over a depth-2 engine never planned ahead"
    );

    // Pipeline counters are volatile, so the restored engine starts from
    // zero: any lookahead below happened at the snapshot's depth.
    let snapshot = piped.checkpoint().expect("checkpoints");
    let restored = ShardedOram::restore(
        MasterKey::from_bytes([0x5D; 32]),
        |_| MemoryHierarchy::dac2019(),
        &snapshot,
    )
    .expect("restores");
    let mut restored = wrap(restored);
    assert_eq!(planned_ahead(&restored), 0);
    assert_eq!(serve(&mut restored, &second), expected_second);
    assert!(
        planned_ahead(&restored) > 0,
        "restored depth-2 engine never planned ahead"
    );
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    fn arbitrary_ops(max: usize) -> impl Strategy<Value = Vec<(u64, Option<u8>)>> {
        proptest::collection::vec((0u64..64, proptest::option::of(any::<u8>())), 1..max)
    }

    fn requests_from(ops: &[(u64, Option<u8>)]) -> Vec<Request> {
        ops.iter()
            .map(|(id, write)| match write {
                Some(byte) => Request::write(*id, vec![*byte; PAYLOAD]),
                None => Request::read(*id),
            })
            .collect()
    }

    /// A tiny geometry (16 memory slots) so arbitrary sequences cross
    /// shuffle periods — the regime where pipelined planning must stall
    /// and re-plan deterministically.
    fn small(depth: u64, recursive: bool) -> HOram {
        let mut config = HOramConfig::new(64, PAYLOAD, 16)
            .with_seed(0x97)
            .with_io_batch(4)
            .with_pipeline_depth(depth);
        if recursive {
            config = config.with_recursive_posmap(4);
        }
        HOram::new(
            config,
            MemoryHierarchy::dac2019(),
            MasterKey::from_bytes([0x5D; 32]),
        )
        .expect("construction succeeds")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// For arbitrary read/write interleavings, every pipeline depth
        /// is byte-identical to the sequential engine on responses,
        /// counters, the bus trace, and the simulated clock — for both
        /// position-map implementations.
        #[test]
        fn any_depth_identical_for_arbitrary_sequences(
            ops in arbitrary_ops(70),
        ) {
            let requests = requests_from(&ops);
            for recursive in [false, true] {
                let mut reference = small(1, recursive);
                let expected = reference.run_batch(&requests).expect("sequential runs");
                let expected_counters = counters(&reference.stats());
                let expected_shape = shape(&reference.trace().snapshot());
                let expected_clock = reference.clock().now();

                for depth in [2u64, 4] {
                    let label = format!("depth {depth} recursive {recursive}");
                    let mut oram = small(depth, recursive);
                    let responses = oram.run_batch(&requests).expect("pipelined runs");
                    prop_assert_eq!(&responses, &expected, "{}: responses", label);
                    prop_assert_eq!(
                        counters(&oram.stats()), expected_counters, "{}: counters", label
                    );
                    prop_assert_eq!(
                        &shape(&oram.trace().snapshot()), &expected_shape, "{}: shape", label
                    );
                    prop_assert_eq!(
                        oram.clock().now(), expected_clock, "{}: clock", label
                    );
                }
            }
        }

        /// The same equivalence at 4 shards: per-shard pipelines compose
        /// with routing, and every shard's trace stays byte-identical.
        #[test]
        fn sharded_depth_identical_for_arbitrary_sequences(
            ops in arbitrary_ops(60),
        ) {
            let requests = requests_from(&ops);
            let sharded = |depth: u64| {
                let config = HOramConfig::new(64, PAYLOAD, 16)
                    .with_seed(0x97)
                    .with_io_batch(4)
                    .with_pipeline_depth(depth);
                ShardedOram::new(
                    ShardedConfig::new(config, 4),
                    MasterKey::from_bytes([0x5D; 32]),
                    |_| MemoryHierarchy::dac2019(),
                )
                .expect("sharded instance builds")
            };

            let mut reference = sharded(1);
            let expected = reference.run_batch(&requests).expect("sequential runs");

            let mut piped = sharded(4);
            let responses = piped.run_batch(&requests).expect("pipelined runs");
            prop_assert_eq!(responses, expected);
            prop_assert_eq!(counters(&piped.stats()), counters(&reference.stats()));
            for (i, (a, b)) in piped.shards().iter().zip(reference.shards()).enumerate() {
                prop_assert_eq!(
                    shape(&a.trace().snapshot()),
                    shape(&b.trace().snapshot()),
                    "shard {} trace diverged", i
                );
            }
            prop_assert_eq!(piped.clock().now(), reference.clock().now());
        }
    }
}
