//! Dead-knob detector: every `HOramConfig` knob that is *meant* to change
//! behaviour must change something an observer of the engine can see —
//! statistics, the simulated clock, or the bus trace — when moved off its
//! default. A documented, validated, persisted field that nothing reads
//! (two such fields were deleted in PR 13) fails here.
//!
//! Six of `HOramConfig`'s eleven fields are such knobs; three are the
//! geometry. The remaining two are byte-identical by contract and covered
//! the other way round: `worker_threads` by `tests/parallel.rs` and
//! `posmap` by `tests/posmap.rs`.

use horam::crypto::rng::DeterministicRng;
use horam::prelude::*;
use horam::storage::cache::CacheConfig;
use rand::Rng;

const CAPACITY: u64 = 256;
const PAYLOAD: usize = 8;
const MEMORY_SLOTS: u64 = 64;

fn defaults() -> HOramConfig {
    HOramConfig::new(CAPACITY, PAYLOAD, MEMORY_SLOTS)
}

/// One fixed 300-request mixed workload; returns everything an observer
/// can see of the run (the bus trace as its length and digest).
fn observe(config: HOramConfig) -> (HOramStats, u64, (usize, u64)) {
    let mut rng = DeterministicRng::from_u64_seed(0xD3AD);
    let requests: Vec<Request> = (0..300)
        .map(|_| {
            let id = rng.gen_range(0..CAPACITY);
            if rng.gen_bool(0.3) {
                Request::write(id, vec![rng.gen::<u8>(); PAYLOAD])
            } else {
                Request::read(id)
            }
        })
        .collect();
    let mut oram = HOram::new(
        config,
        MemoryHierarchy::dac2019(),
        MasterKey::from_bytes([0x4B; 32]),
    )
    .expect("construction succeeds");
    oram.run_batch(&requests).expect("batch runs");
    (
        oram.stats(),
        oram.clock().now().as_nanos(),
        (oram.trace().len(), oram.trace().digest()),
    )
}

#[test]
fn every_behavioural_knob_changes_something_observable() {
    let moved: [(&str, HOramConfig); 6] = [
        ("stages", defaults().with_fixed_c(2)),
        ("prefetch_distance", defaults().with_prefetch_distance(6)),
        (
            "partial_shuffle_ratio",
            defaults().with_partial_shuffle(0.25),
        ),
        ("io_batch", defaults().with_io_batch(8)),
        ("cache", defaults().with_cache(CacheConfig::lru(64))),
        ("seed", defaults().with_seed(1)),
    ];
    let reference = observe(defaults());
    assert_eq!(
        reference,
        observe(defaults()),
        "setup: the observation must be deterministic"
    );
    for (knob, config) in moved {
        assert_ne!(config, defaults(), "{knob}: the row must move the knob");
        assert!(
            observe(config) != reference,
            "{knob} is a dead knob: moving it off its default changed neither \
             stats, nor the clock, nor the trace"
        );
    }
}
