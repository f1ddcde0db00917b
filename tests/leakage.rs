//! Security tests over recorded bus traces: the paper's §4.4 claims,
//! checked statistically against the adversary's actual view.

use horam::analysis::leakage::{
    chi_square_critical_p001, chi_square_uniform, once_per_period, TraceShape,
};
use horam::prelude::*;
use horam::storage::cache::CacheConfig;
use horam::storage::calibration::device_ids;
use horam::storage::device::AccessKind;
use horam::storage::trace::TraceEvent;
use horam::workload::WorkloadGenerator;

fn build(capacity: u64, memory_slots: u64, seed: u64) -> HOram {
    let config = HOramConfig::new(capacity, 8, memory_slots).with_seed(seed);
    HOram::new(
        config,
        MemoryHierarchy::dac2019(),
        MasterKey::from_bytes([31u8; 32]),
    )
    .expect("construction succeeds")
}

fn build_cached(capacity: u64, memory_slots: u64, seed: u64, cache: CacheConfig) -> HOram {
    let config = HOramConfig::new(capacity, 8, memory_slots)
        .with_seed(seed)
        .with_cache(cache);
    HOram::new(
        config,
        MemoryHierarchy::dac2019(),
        MasterKey::from_bytes([31u8; 32]),
    )
    .expect("construction succeeds")
}

/// The adversary's per-event view, minus timestamps: device, direction,
/// physical slot, byte count, in submission order.
fn observable(events: &[TraceEvent]) -> Vec<(u16, bool, u64, u64)> {
    events
        .iter()
        .map(|e| (e.device.0, e.kind == AccessKind::Read, e.addr, e.bytes))
        .collect()
}

/// §4.4.1 (access security, storage side): within one access period, no
/// storage slot is read twice.
#[test]
fn storage_slots_read_at_most_once_per_period() {
    let mut oram = build(256, 64, 1);
    // Hammer a small hot set so shelter hits force dummy loads — the
    // dangerous case for slot reuse.
    let requests: Vec<Request> = (0..120u64).map(|i| Request::read(i % 10)).collect();
    oram.run_batch(&requests).expect("batch");

    // Recover period boundaries from the shuffle count: each period issued
    // exactly `period_io_limit` storage reads (loads) — but shuffles add
    // streaming reads too. Simplest sound check: no shuffle happened ⇒ the
    // whole trace is one period. Run a second, period-free workload.
    let mut single_period = build(256, 256, 2); // period = 128 > workload
    let requests: Vec<Request> = (0..100u64).map(|i| Request::read(i % 10)).collect();
    single_period.run_batch(&requests).expect("batch");
    assert_eq!(
        single_period.stats().shuffles,
        0,
        "setup: must stay in one period"
    );
    let events = single_period.trace().snapshot();
    assert_eq!(
        once_per_period(&events, device_ids::STORAGE, &[]),
        None,
        "a storage slot was read twice within a period"
    );
}

/// §4.4.1 (access security, memory side): path-*leaf* choices are uniform.
/// Upper tree levels are shared by every path (the root is read on each
/// access — that is by design, not a leak); the randomized quantity is the
/// leaf each access descends to. Chi-square the leaf-bucket visit counts.
#[test]
fn memory_path_leaf_choices_are_uniform() {
    let mut oram = build(512, 128, 3);
    let mut generator = HotspotWorkload::paper_default(512, 4);
    // Heavily skewed logical workload...
    let requests = generator.generate(400);
    oram.run_batch(&requests).expect("batch");

    // ...must still pick uniform leaves. Memory tree for a 128-slot budget
    // (Z=4): depth 5, 31 buckets, leaf buckets 15..31 ⇒ slots 60..124.
    let leaf_first_slot = 60u64;
    let leaf_count = 16usize;
    let mut visits = vec![0u64; leaf_count];
    for event in oram.trace().snapshot() {
        if event.device == device_ids::MEMORY
            && event.kind == AccessKind::Read
            && event.addr >= leaf_first_slot
            && event.addr % 4 == 0
            && event.bytes <= 1024
        {
            let leaf = ((event.addr - leaf_first_slot) / 4) as usize;
            if leaf < leaf_count {
                visits[leaf] += 1;
            }
        }
    }
    assert!(
        visits.iter().sum::<u64>() > 300,
        "setup: need enough path reads"
    );
    let (stat, df) = chi_square_uniform(&visits);
    assert!(
        stat < chi_square_critical_p001(df),
        "leaf visits too skewed: chi2 {stat}, visits {visits:?}"
    );
}

/// §4.4.2 (scheduler security): two workloads with the same length and
/// cold/warm profile are observably identical — same device op counts,
/// same bytes, cycle for cycle.
#[test]
fn different_workloads_same_profile_are_indistinguishable() {
    let run = |targets: Vec<u64>, seed: u64| {
        let mut oram = build(256, 64, seed);
        let requests: Vec<Request> = targets.into_iter().map(Request::read).collect();
        oram.run_batch(&requests).expect("batch");
        (TraceShape::of(&oram.trace().snapshot()), oram.stats())
    };

    // Workload A: 40 distinct cold blocks, ascending.
    let (shape_a, stats_a) = run((0..40).collect(), 7);
    // Workload B: 40 *different* distinct cold blocks, scattered.
    let (shape_b, stats_b) = run((0..40).map(|i| 255 - i * 3).collect(), 7);

    assert_eq!(
        shape_a, shape_b,
        "bus shapes must not depend on which blocks are read"
    );
    assert_eq!(stats_a.cycles, stats_b.cycles);
    assert_eq!(stats_a.total_io_loads(), stats_b.total_io_loads());
}

/// §4.4.3 (shuffle obliviousness): the shuffle period's storage pass is a
/// fixed sequential sweep — identical op counts and byte volumes no matter
/// which blocks were hot.
#[test]
fn shuffle_pass_shape_is_workload_independent() {
    let run = |targets: Vec<u64>| {
        let mut oram = build(256, 32, 9); // period = 16 loads
        let requests: Vec<Request> = targets.into_iter().map(Request::read).collect();
        oram.run_batch(&requests).expect("batch");
        assert!(oram.stats().shuffles >= 1, "setup: must shuffle");
        oram.storage_device_stats()
    };
    let a = run((0..40).collect());
    let b = run((100..140).collect());
    assert_eq!(a.reads, b.reads, "shuffle read ops differ");
    assert_eq!(a.writes, b.writes, "shuffle write ops differ");
    assert_eq!(a.bytes(), b.bytes(), "shuffle byte volume differs");
}

/// Logical identifiers must never appear as physical addresses in any
/// systematic way: reading blocks 0..k in order must not touch storage
/// addresses 0..k in order.
#[test]
fn physical_addresses_are_decorrelated_from_logical_ids() {
    let mut oram = build(256, 256, 11);
    let requests: Vec<Request> = (0..64u64).map(Request::read).collect();
    oram.run_batch(&requests).expect("batch");
    let reads: Vec<u64> = oram
        .trace()
        .snapshot()
        .iter()
        .filter(|e| e.device == device_ids::STORAGE && e.kind == AccessKind::Read)
        .map(|e| e.addr)
        .collect();
    assert!(reads.len() >= 64);
    // Count order-preserving adjacent pairs; a permuted layout leaves ~50 %.
    let ascending = reads.windows(2).filter(|w| w[1] > w[0]).count();
    let fraction = ascending as f64 / (reads.len() - 1) as f64;
    assert!(
        (0.25..0.75).contains(&fraction),
        "storage read order correlates with logical order: {fraction}"
    );
}

/// Dummy and real I/O loads must be indistinguishable per event: same
/// direction, same size, addresses from the same permuted space.
#[test]
fn dummy_loads_look_like_real_loads() {
    let mut oram = build(256, 128, 13);
    // All-hit tail forces dummy loads after the initial misses.
    let requests: Vec<Request> = (0..80u64).map(|i| Request::read(i % 4)).collect();
    oram.run_batch(&requests).expect("batch");
    let stats = oram.stats();
    assert!(stats.dummy_io_loads > 0, "setup: dummies must occur");
    let events = oram.trace().snapshot();
    let sizes: std::collections::HashSet<u64> = events
        .iter()
        .filter(|e| e.device == device_ids::STORAGE && e.kind == AccessKind::Read)
        // Ignore streaming shuffle reads (aggregated into large run events)
        .filter(|e| e.bytes <= 1024)
        .map(|e| e.bytes)
        .collect();
    assert_eq!(sizes.len(), 1, "load sizes vary: {sizes:?}");
}

/// Cache obliviousness, schedule side: §4.4.2's indistinguishability
/// survives a hit-bound cache. Two same-profile schedules over disjoint
/// block sets — whose physical slots hit the cache differently — still
/// produce identical bus shapes and cycle counts. (Schedules with
/// *different* warm/cold profiles differ by scheduler design, cache or
/// no cache; the capacity test below isolates the cache axis.)
#[test]
fn cached_same_profile_schedules_stay_indistinguishable() {
    let run = |targets: Vec<u64>| {
        let mut oram = build_cached(256, 64, 19, CacheConfig::lru(1 << 20));
        let requests: Vec<Request> = targets.into_iter().map(Request::read).collect();
        oram.run_batch(&requests).expect("batch");
        assert!(oram.stats().shuffles >= 1, "setup: periods must turn");
        (
            TraceShape::of(&oram.trace().snapshot()),
            oram.stats().cycles,
            oram.cache_stats().expect("cache installed"),
        )
    };

    // Same profile (60 distinct cold blocks each), disjoint identities.
    let (shape_a, cycles_a, cache_a) = run((0..60).collect());
    let (shape_b, cycles_b, cache_b) = run((0..60).map(|i| 255 - i * 3).collect());

    assert_eq!(shape_a, shape_b, "bus shape depends on which blocks hit");
    assert_eq!(cycles_a, cycles_b);
    assert!(
        cache_a.hits + cache_b.hits > 0,
        "setup: the cache must see hits ({cache_a:?} vs {cache_b:?})"
    );
}

/// Cache obliviousness, capacity side: the **same** schedule against a
/// hit-bound cache (capacity covers every slot) and a trivial one-block
/// cache produces the identical event sequence — device, direction,
/// slot, bytes, order. Capacity moves only simulated time.
#[test]
fn cache_capacity_is_invisible_on_the_bus() {
    let run = |cache: CacheConfig| {
        let mut oram = build_cached(256, 64, 19, cache);
        let requests: Vec<Request> = (0..150u64).map(|i| Request::read(i % 10)).collect();
        oram.run_batch(&requests).expect("batch");
        (
            observable(&oram.trace().snapshot()),
            oram.cache_stats().expect("cache installed"),
        )
    };
    let (hit_heavy, hit_stats) = run(CacheConfig::lru(1 << 20));
    let (miss_heavy, miss_stats) = run(CacheConfig::lru(1));
    assert!(
        hit_stats.hits > miss_stats.hits,
        "setup: the regimes must actually differ ({hit_stats:?} vs {miss_stats:?})"
    );
    assert_eq!(hit_heavy, miss_heavy, "cache capacity leaked onto the bus");
}

/// The same two checks at 4 shards: per-shard caches must not let hit
/// rate or capacity show through any shard's trace.
#[test]
fn sharded_cache_traces_are_hit_rate_independent() {
    use horam::core::shard::{ShardedConfig, ShardedOram};

    let run = |cache_capacity: u64| {
        let config = HOramConfig::new(256, 8, 64)
            .with_seed(19)
            .with_cache(CacheConfig::lru(cache_capacity));
        let mut oram = ShardedOram::new(
            ShardedConfig::new(config, 4),
            MasterKey::from_bytes([31u8; 32]),
            |_| MemoryHierarchy::dac2019(),
        )
        .expect("sharded instance builds");
        let requests: Vec<Request> = (0..200u64).map(|i| Request::read(i % 16)).collect();
        oram.run_batch(&requests).expect("batch");
        let traces: Vec<_> = oram
            .shards()
            .iter()
            .map(|s| observable(&s.trace().snapshot()))
            .collect();
        (traces, oram.cache_stats().expect("cache installed"))
    };

    let (hit_traces, hit_stats) = run(1 << 20);
    let (miss_traces, miss_stats) = run(1);
    assert!(
        hit_stats.hits > miss_stats.hits,
        "setup: regimes must differ"
    );
    for (i, (a, b)) in hit_traces.iter().zip(&miss_traces).enumerate() {
        assert_eq!(a, b, "shard {i}: cache capacity leaked onto the bus");
    }
}

/// Fault-retry obliviousness: a run whose storage store injects seeded
/// transient faults (absorbed by the device's retry/backoff layer) must
/// present the **identical** bus view — device, direction, slot, bytes,
/// order — as the fault-free run. Retries are charged in simulated time
/// only; the adversary sees latency, never a changed access pattern.
#[test]
fn retries_are_timing_only_on_the_bus() {
    use horam::storage::fault::FaultConfig;

    let run = |fault: Option<FaultConfig>| {
        let config = HOramConfig::new(256, 8, 64).with_seed(23);
        let hierarchy = MemoryHierarchy::dac2019();
        let hierarchy = match fault {
            Some(config) => hierarchy.with_storage_faults(config),
            None => hierarchy,
        };
        let mut oram = HOram::new(config, hierarchy, MasterKey::from_bytes([31u8; 32]))
            .expect("construction succeeds");
        // A deep budget keeps this 150‰ plan fully absorbed: the probe
        // is about the bus view of *successful* retries, not exhaustion.
        oram.storage_device_mut()
            .set_retry_policy(horam::storage::device::RetryPolicy {
                max_attempts: 10,
                ..Default::default()
            });
        oram.reset_accounting();
        let requests: Vec<Request> = (0..120u64).map(|i| Request::read(i % 30)).collect();
        oram.run_batch(&requests).expect("batch");
        (
            observable(&oram.trace().snapshot()),
            oram.clock().now().as_nanos(),
            oram.storage_retry_stats(),
        )
    };

    let (clean_trace, clean_nanos, clean_retries) = run(None);
    let (faulted_trace, faulted_nanos, faulted_retries) = run(Some(FaultConfig::transient(5, 150)));
    assert_eq!(clean_retries.retries, 0, "setup: clean run never retries");
    assert!(
        faulted_retries.retries > 0,
        "setup: the fault plan must actually trigger retries"
    );
    assert_eq!(
        faulted_retries.exhausted, 0,
        "setup: this seed must stay within the retry budget"
    );
    assert_eq!(
        clean_trace, faulted_trace,
        "retries changed the observable access pattern"
    );
    assert!(
        faulted_nanos > clean_nanos,
        "backoff must be charged in simulated time ({faulted_nanos} vs {clean_nanos})"
    );
}

/// The retry battery can fail: the doc-hidden `leaky_retry` fixture
/// re-records each retry attempt as its own bus event, and exactly the
/// trace comparison above catches it — the leaky trace grows by one
/// event per retry.
#[test]
fn leaky_retry_fixture_is_detected() {
    use horam::storage::fault::FaultConfig;

    let run = |leaky: bool| {
        let config = HOramConfig::new(256, 8, 64).with_seed(23);
        let hierarchy =
            MemoryHierarchy::dac2019().with_storage_faults(FaultConfig::transient(5, 150));
        let mut oram = HOram::new(config, hierarchy, MasterKey::from_bytes([31u8; 32]))
            .expect("construction succeeds");
        oram.storage_device_mut()
            .set_retry_policy(horam::storage::device::RetryPolicy {
                max_attempts: 10,
                ..Default::default()
            });
        oram.storage_device_mut().set_leaky_retry(leaky);
        oram.reset_accounting();
        let requests: Vec<Request> = (0..120u64).map(|i| Request::read(i % 30)).collect();
        oram.run_batch(&requests).expect("batch");
        (
            observable(&oram.trace().snapshot()),
            oram.storage_retry_stats(),
        )
    };

    let (honest, honest_retries) = run(false);
    let (leaky, leaky_retries) = run(true);
    assert!(honest_retries.retries > 0, "setup: retries must occur");
    assert_eq!(
        honest_retries.retries, leaky_retries.retries,
        "the fixture must not change retry behaviour, only visibility"
    );
    assert_ne!(
        honest, leaky,
        "a retry implementation that leaks onto the bus must be visible to this battery"
    );
    assert_eq!(
        leaky.len(),
        honest.len() + leaky_retries.retries as usize,
        "the leak is exactly one extra bus event per retry"
    );
}

/// The battery can fail: a deliberately broken cache that serves RAM
/// hits *without* emitting the padded bus event (`leaky_hits`) is caught
/// by exactly the comparison the tests above run — its trace visibly
/// shrinks in the hit-bound regime.
#[test]
fn leaky_cache_fixture_is_detected() {
    let run = |leaky: bool| {
        let mut cache = CacheConfig::lru(1 << 20);
        cache.leaky_hits = leaky;
        let mut oram = build_cached(256, 64, 19, cache);
        let requests: Vec<Request> = (0..150u64).map(|i| Request::read(i % 10)).collect();
        oram.run_batch(&requests).expect("batch");
        (
            observable(&oram.trace().snapshot()),
            oram.cache_stats().expect("cache installed"),
        )
    };
    let (honest, honest_stats) = run(false);
    let (leaky, leaky_stats) = run(true);
    assert!(honest_stats.hits > 0, "setup: hits must occur");
    assert_eq!(honest_stats.hits, leaky_stats.hits, "same hit pattern");
    assert_ne!(
        honest, leaky,
        "a cache that skips hit padding must be visible to this battery"
    );
    // The leak is precisely the missing hit events: the leaky trace is
    // shorter by the number of events the honest cache padded.
    assert!(
        leaky.len() < honest.len(),
        "leaky trace should drop events ({} vs {})",
        leaky.len(),
        honest.len()
    );
}

/// §4.4 extended to the recursive position map: the recursion must add
/// nothing to the data ORAM's bus, and each level's own trace must be a
/// well-formed oblivious path sequence.
mod recursive_posmap {
    use super::*;
    use horam::core::PosmapMode;

    fn build_recursive(capacity: u64, memory_slots: u64, seed: u64) -> HOram {
        let config = HOramConfig::new(capacity, 8, memory_slots)
            .with_seed(seed)
            .with_recursive_posmap(4);
        HOram::new(
            config,
            MemoryHierarchy::dac2019(),
            MasterKey::from_bytes([31u8; 32]),
        )
        .expect("construction succeeds")
    }

    /// The map mode is invisible on the data bus: flat and recursive
    /// engines produce byte-identical traces (addresses, directions,
    /// sizes — and simulated timestamps) over the same workload.
    #[test]
    fn recursion_is_invisible_on_the_data_bus() {
        let requests: Vec<Request> = (0..160u64).map(|i| Request::read(i * 7 % 64)).collect();
        let mut flat = build(256, 64, 9);
        flat.run_batch(&requests).expect("flat batch");
        let mut recursive = build_recursive(256, 64, 9);
        recursive.run_batch(&requests).expect("recursive batch");
        assert!(
            matches!(recursive.config().posmap, PosmapMode::Recursive(_)),
            "setup: recursive mode must be installed"
        );
        assert_eq!(
            flat.trace().snapshot(),
            recursive.trace().snapshot(),
            "recursive position map altered the data ORAM's bus trace"
        );
        assert_eq!(flat.clock().now(), recursive.clock().now());
    }

    /// Each level's trace is a well-formed path-ORAM view: every event
    /// moves one fixed-size page, addresses stay inside the level's
    /// bucket tree, and path reads are matched by path write-backs.
    #[test]
    fn level_traces_are_uniform_and_bounded() {
        let mut oram = build_recursive(256, 64, 10);
        // Drop the construction-time bulk-build traffic so the checked
        // trace is pure steady-state checkout/check-in traffic.
        oram.reset_accounting();
        let requests: Vec<Request> = (0..200u64).map(|i| Request::read(i * 11 % 256)).collect();
        oram.run_batch(&requests).expect("batch");

        let views = oram.posmap().level_views();
        assert!(!views.is_empty(), "recursive map must expose levels");
        let mut some_level_active = false;
        for view in &views {
            let events = view.trace.snapshot();
            if events.is_empty() {
                continue; // a fully cache-resident level is legitimate
            }
            some_level_active = true;
            let tree_slots = ((1u64 << view.depth) - 1) * view.z as u64;
            // Events are run-granular (a path segment or a rebuild
            // stream), so sizes are multiples of one sealed page — the
            // smallest transfer observed.
            let page_bytes = events.iter().map(|e| e.bytes).min().unwrap();
            let mut read_bytes = 0u64;
            let mut write_bytes = 0u64;
            for event in &events {
                assert!(
                    event.bytes > 0 && event.bytes % page_bytes == 0,
                    "level {} moved a fractional page ({} bytes, page {})",
                    view.name,
                    event.bytes,
                    page_bytes
                );
                assert!(
                    event.addr < tree_slots,
                    "level {} touched address {} outside its {} tree slots",
                    view.name,
                    event.addr,
                    tree_slots
                );
                match event.kind {
                    AccessKind::Read => read_bytes += event.bytes,
                    AccessKind::Write => write_bytes += event.bytes,
                }
            }
            // Every path read is written back; rebuild streams only add
            // writes — so read traffic never exceeds write traffic.
            assert!(
                read_bytes <= write_bytes,
                "level {}: {} bytes read but only {} written back",
                view.name,
                read_bytes,
                write_bytes
            );
        }
        assert!(
            some_level_active,
            "workload must exercise at least one level"
        );
    }

    /// Level traces depend only on the access schedule, never on the data:
    /// two runs over the same ids with different written payloads produce
    /// byte-identical level traces (timestamps included).
    #[test]
    fn level_traces_are_payload_independent() {
        let run = |fill: u8| {
            let mut oram = build_recursive(256, 64, 12);
            let requests: Vec<Request> = (0..150u64)
                .map(|i| {
                    if i % 3 == 0 {
                        Request::write(i % 256, vec![fill; 8])
                    } else {
                        Request::read((i * 13) % 256)
                    }
                })
                .collect();
            oram.run_batch(&requests).expect("batch");
            oram.posmap()
                .level_views()
                .into_iter()
                .map(|view| (view.name, view.trace.snapshot()))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            run(0x00),
            run(0xFF),
            "posmap level traffic leaked written data"
        );
    }
}
