//! Differential battery for the oblivious block cache: with caching
//! enabled, at any capacity, the engine must be **observably identical** to an uncached run on
//! everything except simulated time:
//!
//! * byte-identical responses over arbitrary request sequences;
//! * identical protocol counters (requests, loads, dummies, shuffles…);
//! * an identical bus trace *shape* — same devices, op kinds, physical
//!   slots, byte counts, in the same submission order;
//! * a simulated clock that never runs *slower* than the uncached run
//!   (hits only remove charged device time, never add it).
//!
//! Checked at 1 and 4 shards, by example and by property. The leakage
//! suite (`tests/leakage.rs`) covers the adversarial side: hit-heavy and
//! miss-heavy schedules are indistinguishable on the bus.

use horam::core::shard::{ShardedConfig, ShardedOram};
use horam::crypto::rng::DeterministicRng;
use horam::prelude::*;
use horam::storage::cache::CacheConfig;
use horam::storage::device::{AccessKind, DeviceId};
use rand::Rng;

const CAPACITY: u64 = 256;
const PAYLOAD: usize = 8;
const MEMORY_SLOTS: u64 = 64;

fn config(cache: Option<CacheConfig>) -> HOramConfig {
    let base = HOramConfig::new(CAPACITY, PAYLOAD, MEMORY_SLOTS).with_seed(0x6cac);
    match cache {
        Some(cache) => base.with_cache(cache),
        None => base,
    }
}

fn build(cache: Option<CacheConfig>) -> HOram {
    HOram::new(
        config(cache),
        MemoryHierarchy::dac2019().recording(),
        MasterKey::from_bytes([0x2B; 32]),
    )
    .expect("construction succeeds")
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

/// Every protocol counter in [`HOramStats`] — the fields that must not
/// move when a cache is installed. Time fields are deliberately absent:
/// saving simulated device time is the cache's whole point.
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
    shape: Vec<(DeviceId, AccessKind, u64, u64)>,
    clock: u64,
}

fn observe(cache: Option<CacheConfig>, requests: &[Request]) -> Observed {
    let mut oram = build(cache);
    let responses = oram.run_batch(requests).expect("batch runs");
    Observed {
        responses,
        counters: counters(&oram.stats()),
        shape: oram.trace().untimed(),
        clock: oram.clock().now().as_nanos(),
    }
}

/// The headline differential: a small LRU cache changes nothing the
/// protocol (or an adversary) can see, and never slows the clock.
#[test]
fn cached_run_is_observably_identical_to_uncached() {
    let requests = workload(400, 71);
    let uncached = observe(None, &requests);
    let cached = observe(Some(CacheConfig::lru(16)), &requests);

    assert_eq!(cached.responses, uncached.responses, "responses diverged");
    assert_eq!(cached.counters, uncached.counters, "counters diverged");
    assert_eq!(cached.shape, uncached.shape, "bus shape diverged");
    assert!(
        cached.clock <= uncached.clock,
        "cache slowed the clock: {} > {}",
        cached.clock,
        uncached.clock
    );
}

/// In the hit-bound regime (capacity covers every storage slot) the
/// cache actually hits — the differential above is not vacuous — and the
/// saved device time shows up on the simulated clock.
#[test]
fn hit_bound_cache_hits_and_saves_simulated_time() {
    let requests = workload(600, 73);
    let uncached = observe(None, &requests);

    let mut oram = build(Some(CacheConfig::lru(1 << 20)));
    let responses = oram.run_batch(&requests).expect("batch runs");
    let stats = oram.cache_stats().expect("cache installed");

    assert!(oram.stats().shuffles >= 2, "setup: periods must turn");
    assert!(
        stats.hits > 0,
        "hit-bound run produced no hits: {stats:?} (hits come from shuffle population)"
    );
    assert_eq!(stats.evictions, 0, "hit-bound cache must never evict");
    assert_eq!(responses, uncached.responses);
    assert_eq!(counters(&oram.stats()), uncached.counters);
    assert!(
        oram.clock().now().as_nanos() < uncached.clock,
        "hits saved no simulated time"
    );
}

/// Capacity is a pure performance knob: every capacity returns
/// byte-identical responses and an identical bus shape.
#[test]
fn responses_identical_across_capacities() {
    let requests = workload(300, 79);
    let reference = observe(None, &requests);

    for capacity in [1u64, 4, 8, 64, 1 << 20] {
        let label = format!("cap {capacity}");
        let observed = observe(Some(CacheConfig::lru(capacity)), &requests);
        assert_eq!(
            observed.responses, reference.responses,
            "{label}: responses diverged"
        );
        assert_eq!(
            observed.counters, reference.counters,
            "{label}: counters diverged"
        );
        assert_eq!(observed.shape, reference.shape, "{label}: shape diverged");
        // Hits are strictly cheaper than any device access, so the
        // clock can only speed up.
        assert!(observed.clock <= reference.clock, "{label}: clock slowed");
    }
}

/// Per-shard caches aggregate and stay semantics-preserving: a 4-shard
/// cached engine matches a 4-shard uncached engine byte for byte, and
/// the merged cache statistics are visible at the top.
#[test]
fn sharded_cached_equals_sharded_uncached() {
    let requests = workload(400, 83);
    let sharded = |cache: Option<CacheConfig>| {
        let base = config(cache);
        ShardedOram::new(
            ShardedConfig::new(base, 4),
            MasterKey::from_bytes([0x2B; 32]),
            |_| MemoryHierarchy::dac2019().recording(),
        )
        .expect("sharded instance builds")
    };

    let mut uncached = sharded(None);
    let expected = uncached.run_batch(&requests).expect("uncached runs");
    assert_eq!(uncached.cache_stats(), None, "no cache configured");

    let mut cached = sharded(Some(CacheConfig::lru(1 << 20)));
    let responses = cached.run_batch(&requests).expect("cached runs");

    assert_eq!(responses, expected, "responses diverged");
    assert_eq!(
        counters(&cached.stats()),
        counters(&uncached.stats()),
        "aggregate counters diverged"
    );
    for (i, (a, b)) in cached.shards().iter().zip(uncached.shards()).enumerate() {
        assert_eq!(
            a.trace().untimed(),
            b.trace().untimed(),
            "shard {i} bus shape diverged"
        );
    }
    let stats = cached.cache_stats().expect("merged stats surface");
    assert!(stats.hits > 0, "hit-bound sharded run produced no hits");
    assert!(cached.clock().now() <= uncached.clock().now());
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

    fn small(cache: Option<CacheConfig>) -> HOram {
        let base = HOramConfig::new(64, PAYLOAD, 16).with_seed(97);
        let config = match cache {
            Some(cache) => base.with_cache(cache),
            None => base,
        };
        HOram::new(
            config,
            MemoryHierarchy::dac2019().recording(),
            MasterKey::from_bytes([0x2B; 32]),
        )
        .expect("construction succeeds")
    }

    fn cache_points() -> Vec<CacheConfig> {
        vec![
            CacheConfig::lru(2),
            CacheConfig::lru(8),
            CacheConfig::lru(1 << 16),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// For arbitrary read/write interleavings, every cache point is
        /// observably identical to the uncached engine (tiny memory tree,
        /// so sequences cross shuffle periods and the cache populates).
        #[test]
        fn cached_equals_uncached_for_arbitrary_sequences(
            ops in arbitrary_ops(70),
        ) {
            let requests = requests_from(&ops);
            let mut reference = small(None);
            let expected = reference.run_batch(&requests).expect("uncached runs");
            let expected_counters = counters(&reference.stats());
            let expected_shape = reference.trace().untimed();

            for cache in cache_points() {
                let label = format!("cap {}", cache.capacity_blocks);
                let mut oram = small(Some(cache));
                let responses = oram.run_batch(&requests).expect("cached runs");
                prop_assert_eq!(&responses, &expected, "{}: responses", label);
                prop_assert_eq!(counters(&oram.stats()), expected_counters, "{}: counters", label);
                prop_assert_eq!(&oram.trace().untimed(), &expected_shape, "{}: shape", label);
                prop_assert!(
                    oram.clock().now() <= reference.clock().now(),
                    "{}: clock slowed", label
                );
            }
        }

        /// The same equivalence at 4 shards, through per-shard caches.
        #[test]
        fn sharded_cached_equals_sharded_uncached_for_arbitrary_sequences(
            ops in arbitrary_ops(60),
        ) {
            let requests = requests_from(&ops);
            let sharded = |cache: Option<CacheConfig>| {
                let base = HOramConfig::new(64, PAYLOAD, 16).with_seed(97);
                let config = match cache {
                    Some(cache) => base.with_cache(cache),
                    None => base,
                };
                ShardedOram::new(
                    ShardedConfig::new(config, 4),
                    MasterKey::from_bytes([0x2B; 32]),
                    |_| MemoryHierarchy::dac2019().recording(),
                )
                .expect("sharded instance builds")
            };

            let mut reference = sharded(None);
            let expected = reference.run_batch(&requests).expect("uncached runs");

            let mut cached = sharded(Some(CacheConfig::lru(1 << 16)));
            let responses = cached.run_batch(&requests).expect("cached runs");
            prop_assert_eq!(responses, expected);
            prop_assert_eq!(counters(&cached.stats()), counters(&reference.stats()));
            for (i, (a, b)) in cached.shards().iter().zip(reference.shards()).enumerate() {
                prop_assert_eq!(
                    a.trace().untimed(),
                    b.trace().untimed(),
                    "shard {} shape diverged", i
                );
            }
            prop_assert!(cached.clock().now() <= reference.clock().now());
        }
    }
}
