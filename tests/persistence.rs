//! Durability and crash-consistent recovery: the invariant this suite
//! pins down is
//!
//! > kill the engine at an arbitrary cycle boundary, restore from the
//! > latest snapshot + the on-disk device file, and replay — responses,
//! > traces, and statistics are **byte-identical** to an uninterrupted
//! > run.
//!
//! Three layers of evidence:
//!
//! * proptests over arbitrary access prefixes: `snapshot → restore` is
//!   the identity on all observable behavior, at 1 and 4 shards;
//! * torn-write tests: a snapshot truncated at *every* byte boundary (or
//!   bit-flipped anywhere) must fail restore with an error — never a
//!   panic, never wrong data;
//! * a real kill: a file-backed engine is dropped mid-workload with its
//!   write-back buffer half flushed; reopening rolls the undo journal
//!   back to the checkpoint and replay matches the uninterrupted run.

use horam::core::shard::{ShardedConfig, ShardedOram};
use horam::crypto::rng::DeterministicRng;
use horam::prelude::*;
use horam::protocols::types::BlockContent;
use horam::storage::cache::CacheConfig;
use horam::storage::calibration::MachineConfig;
use horam::storage::file::{scratch_dir, FileStoreConfig};
use horam::storage::trace::TraceEvent;
use rand::Rng;
use std::path::{Path, PathBuf};

const CAPACITY: u64 = 64;
const PAYLOAD: usize = 8;
const MEMORY_SLOTS: u64 = 16; // period = 8 I/O loads: shuffles happen often

fn config() -> HOramConfig {
    HOramConfig::new(CAPACITY, PAYLOAD, MEMORY_SLOTS)
        .with_seed(1213)
        .with_worker_threads(1)
}

fn master() -> MasterKey {
    MasterKey::from_bytes([0x5A; 32])
}

fn build() -> HOram {
    HOram::new(config(), MemoryHierarchy::dac2019(), master()).unwrap()
}

/// Splits a generated op list into requests.
fn requests_from(ops: &[(u64, Option<u8>)]) -> Vec<Request> {
    ops.iter()
        .map(|(id, write)| match write {
            Some(byte) => Request::write(*id, vec![*byte; PAYLOAD]),
            None => Request::read(*id),
        })
        .collect()
}

/// A deterministic mixed read/write workload.
fn workload(len: usize, seed: u64) -> Vec<Request> {
    let mut rng = DeterministicRng::from_u64_seed(seed);
    (0..len)
        .map(|_| {
            let id = rng.gen_range(0..CAPACITY);
            if rng.gen_bool(0.35) {
                Request::write(id, vec![rng.gen::<u8>(); PAYLOAD])
            } else {
                Request::read(id)
            }
        })
        .collect()
}

/// The file-backed hierarchy for this suite's geometry. `write_back` is
/// kept tiny so mid-workload kills catch the buffer half flushed.
fn file_hierarchy(path: &Path) -> MemoryHierarchy {
    let cfg = config();
    let slots = cfg.partition_count() * cfg.partition_slots();
    let body = BlockContent::encoded_len(cfg.payload_len);
    MemoryHierarchy::with_file_storage(
        MachineConfig::dac2019(),
        path,
        FileStoreConfig::new(slots, body).with_write_back_slots(8),
    )
    .unwrap()
}

struct Scratch(PathBuf);
impl Scratch {
    fn new(label: &str) -> Self {
        Self(scratch_dir(label))
    }
    fn device(&self) -> PathBuf {
        self.0.join("storage.horam")
    }
}
impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn strip_times(events: &[TraceEvent]) -> Vec<(u16, u64, u64)> {
    events
        .iter()
        .map(|e| (e.device.0, e.addr, e.bytes))
        .collect()
}

#[test]
fn snapshot_restore_continues_byte_identically() {
    let prefix = workload(60, 7);
    let suffix = workload(90, 8);

    let mut original = build();
    original.run_batch(&prefix).unwrap();
    let snapshot = original.snapshot().unwrap();
    let trace_mark = original.trace().snapshot().len();
    let original_suffix_responses = original.run_batch(&suffix).unwrap();
    let original_suffix_trace = original.trace().snapshot()[trace_mark..].to_vec();

    let restored = HOram::restore(MemoryHierarchy::dac2019(), master(), &snapshot);
    let mut restored = restored.unwrap();
    let restored_responses = restored.run_batch(&suffix).unwrap();

    assert_eq!(original_suffix_responses, restored_responses);
    assert_eq!(
        original_suffix_trace,
        restored.trace().snapshot(),
        "bus trace diverged after restore (timestamps included)"
    );
    assert_eq!(original.stats(), restored.stats());
    assert_eq!(original.clock().now(), restored.clock().now());
    assert!(
        original.stats().shuffles >= 2,
        "workload must cross period boundaries for the test to mean anything"
    );
}

#[test]
fn snapshot_requires_a_drained_queue() {
    let mut oram = build();
    oram.enqueue(Request::read(1u64)).unwrap();
    assert!(matches!(
        oram.snapshot(),
        Err(OramError::SnapshotInvalid { .. })
    ));
    // Draining unblocks it.
    while !oram.queue().is_drained() {
        oram.run_cycle().unwrap();
    }
    oram.snapshot().unwrap();
}

#[test]
fn torn_snapshot_errors_at_every_byte_boundary() {
    let mut oram = build();
    oram.run_batch(&workload(20, 3)).unwrap();
    let snapshot = oram.snapshot().unwrap();

    for cut in 0..snapshot.len() {
        let result = HOram::restore(MemoryHierarchy::dac2019(), master(), &snapshot[..cut]);
        assert!(
            matches!(result, Err(OramError::SnapshotInvalid { .. })),
            "truncation at byte {cut} did not error"
        );
    }
}

#[test]
fn corrupted_and_wrong_key_snapshots_error() {
    let mut oram = build();
    oram.run_batch(&workload(16, 5)).unwrap();
    let snapshot = oram.snapshot().unwrap();

    let mut rng = DeterministicRng::from_u64_seed(11);
    for _ in 0..64 {
        let mut corrupt = snapshot.clone();
        let at = rng.gen_range(0..corrupt.len());
        corrupt[at] ^= 1 << rng.gen_range(0..8u32);
        assert!(
            HOram::restore(MemoryHierarchy::dac2019(), master(), &corrupt).is_err(),
            "bit flip at byte {at} accepted"
        );
    }
    let wrong_key = MasterKey::from_bytes([0x77; 32]);
    assert!(HOram::restore(MemoryHierarchy::dac2019(), wrong_key, &snapshot).is_err());
}

/// Envelope versions 2, 3 and 4 each dropped fields from the embedded config
/// codec, which shifts every later byte: a snapshot or drain checkpoint of
/// an older version must be refused with the typed version error by every
/// restore path, never mis-parsed. The reader checks the version before
/// anything else it trusts, so rewriting the field on a fresh snapshot
/// takes exactly the path a genuine old one does.
fn assert_old_envelopes_are_refused(version: u32) {
    let as_old = |mut sealed: Vec<u8>| {
        sealed[8..12].copy_from_slice(&version.to_le_bytes());
        sealed
    };
    let assert_refused = |refused: Option<OramError>, path: &str| match refused {
        Some(OramError::SnapshotInvalid { reason }) => {
            assert!(
                reason.contains(&format!("version {version}")),
                "{path}: {reason}"
            )
        }
        Some(other) => panic!("{path}: untyped refusal {other}"),
        None => panic!("{path}: version-{version} envelope accepted"),
    };

    let mut oram = build();
    oram.run_batch(&workload(16, 5)).unwrap();
    let single = as_old(oram.snapshot().unwrap());
    assert_refused(
        HOram::restore(MemoryHierarchy::dac2019(), master(), &single).err(),
        "HOram::restore",
    );

    let mut sharded = ShardedOram::new(ShardedConfig::new(config(), 2), master(), |_| {
        MemoryHierarchy::dac2019()
    })
    .unwrap();
    sharded.run_batch(&workload(16, 5)).unwrap();
    let manifest = as_old(sharded.snapshot().unwrap());
    let restore =
        |snapshot: &[u8]| ShardedOram::restore(master(), |_| MemoryHierarchy::dac2019(), snapshot);
    assert_refused(restore(&manifest).err(), "ShardedOram::restore");

    // The daemon's drain-checkpoint container is unchanged, so it still
    // parses; the sealed engine state inside it is what gets refused.
    let checkpoint = horam_rpc::server::Checkpoint {
        snapshot: manifest,
        window: Vec::new(),
        epoch: 0,
    };
    let parsed = horam_rpc::server::Checkpoint::from_bytes(&checkpoint.to_bytes()).unwrap();
    assert_refused(restore(&parsed.snapshot).err(), "Checkpoint → restore");
}

#[test]
fn version_1_envelopes_are_refused_by_every_restore_path() {
    assert_old_envelopes_are_refused(1);
}

#[test]
fn version_2_envelopes_are_refused_by_every_restore_path() {
    assert_old_envelopes_are_refused(2);
}

#[test]
fn version_3_envelopes_are_refused_by_every_restore_path() {
    assert_old_envelopes_are_refused(3);
}

#[test]
fn kill_at_arbitrary_cycle_boundary_with_file_backend() {
    // One uninterrupted reference run against a file-backed device, and
    // many killed-and-recovered runs that must match it exactly.
    let pre = workload(40, 21);
    let post = workload(70, 22);

    let reference_scratch = Scratch::new("persist-reference");
    let mut reference = HOram::new(
        config(),
        file_hierarchy(&reference_scratch.device()),
        master(),
    )
    .unwrap();
    reference.run_batch(&pre).unwrap();
    let _ = reference.snapshot().unwrap();
    let ref_mark = reference.trace().snapshot().len();
    let ref_responses = reference.run_batch(&post).unwrap();
    let ref_trace = reference.trace().snapshot()[ref_mark..].to_vec();
    let ref_stats = reference.stats();
    assert!(ref_stats.shuffles >= 2, "setup: periods must turn");

    for kill_after_cycles in [0u64, 1, 3, 7, 13, 29] {
        let scratch = Scratch::new("persist-kill");
        let mut engine = HOram::new(config(), file_hierarchy(&scratch.device()), master()).unwrap();
        engine.run_batch(&pre).unwrap();
        let snapshot = engine.snapshot().unwrap();

        // Run past the checkpoint, then kill at a cycle boundary: enqueue
        // the post-snapshot work and execute only some of its cycles, so
        // the shuffle stream and write-back buffer are mid-flight.
        for request in &post {
            engine.enqueue(request.clone()).unwrap();
        }
        for _ in 0..kill_after_cycles {
            if engine.queue().is_drained() {
                break;
            }
            engine.run_cycle().unwrap();
        }
        drop(engine); // the kill: no sync, no checkpoint

        // Recovery: reopen the device file (undo journal rolls partial
        // writes back), restore the snapshot, replay the post-snapshot
        // requests from scratch.
        let mut recovered =
            HOram::restore(file_hierarchy(&scratch.device()), master(), &snapshot).unwrap();
        let responses = recovered.run_batch(&post).unwrap();
        assert_eq!(
            ref_responses, responses,
            "kill after {kill_after_cycles} cycles: responses diverged"
        );
        assert_eq!(
            ref_trace,
            recovered.trace().snapshot(),
            "kill after {kill_after_cycles} cycles: trace diverged"
        );
        assert_eq!(
            ref_stats,
            recovered.stats(),
            "kill after {kill_after_cycles} cycles: stats diverged"
        );
        assert_eq!(reference.clock().now(), recovered.clock().now());
    }
}

#[test]
fn file_backed_run_matches_in_memory_run_exactly() {
    // The backend must be invisible to the protocol: same responses,
    // same trace shape, same simulated time as the in-memory store.
    let requests = workload(80, 31);
    let mut volatile = build();
    let volatile_responses = volatile.run_batch(&requests).unwrap();

    let scratch = Scratch::new("persist-backend-equiv");
    let mut durable = HOram::new(config(), file_hierarchy(&scratch.device()), master()).unwrap();
    let durable_responses = durable.run_batch(&requests).unwrap();

    assert_eq!(volatile_responses, durable_responses);
    assert_eq!(
        strip_times(&volatile.trace().snapshot()),
        strip_times(&durable.trace().snapshot())
    );
    assert_eq!(volatile.stats(), durable.stats());
    assert_eq!(volatile.clock().now(), durable.clock().now());
}

mod cached {
    //! The same recovery invariant with the block cache in the loop: a
    //! snapshot must flush dirty cached blocks into the durable store
    //! before fingerprinting it, restore must re-install the cache and
    //! repopulate its residency from the recovered store, and a kill
    //! that strands dirty blocks in RAM must lose nothing the snapshot
    //! promised to keep.

    use super::*;
    use horam::crypto::persist::{StateReader, StateWriter};
    use horam::crypto::seal::BlockSealer;
    use horam::storage::clock::SimClock;
    use horam::storage::device::Device;
    use horam::storage::device::DeviceId;
    use horam::storage::file::FileStore;
    use horam::storage::hdd::HddModel;

    fn cached_config() -> HOramConfig {
        // Hit-bound capacity: after the first shuffle every slot is
        // cached, so restore must rebuild real residency to stay
        // byte-identical on the clock.
        config().with_cache(CacheConfig::lru(1 << 20))
    }

    /// The engine-level kill test, with a cache installed on both the
    /// reference and every killed run.
    #[test]
    fn kill_with_cache_installed_recovers_byte_identically() {
        let pre = workload(40, 121);
        let post = workload(70, 122);

        let reference_scratch = Scratch::new("persist-cache-reference");
        let mut reference = HOram::new(
            cached_config(),
            file_hierarchy(&reference_scratch.device()),
            master(),
        )
        .unwrap();
        reference.run_batch(&pre).unwrap();
        let _ = reference.snapshot().unwrap();
        let ref_mark = reference.trace().snapshot().len();
        let ref_responses = reference.run_batch(&post).unwrap();
        let ref_trace = reference.trace().snapshot()[ref_mark..].to_vec();
        let ref_stats = reference.stats();
        assert!(ref_stats.shuffles >= 2, "setup: periods must turn");
        assert!(
            reference.cache_stats().unwrap().hits > 0,
            "setup: the cache must be live"
        );

        for kill_after_cycles in [0u64, 5, 17] {
            let scratch = Scratch::new("persist-cache-kill");
            let mut engine =
                HOram::new(cached_config(), file_hierarchy(&scratch.device()), master()).unwrap();
            engine.run_batch(&pre).unwrap();
            let snapshot = engine.snapshot().unwrap();

            for request in &post {
                engine.enqueue(request.clone()).unwrap();
            }
            for _ in 0..kill_after_cycles {
                if engine.queue().is_drained() {
                    break;
                }
                engine.run_cycle().unwrap();
            }
            drop(engine); // the kill: cached state dies with the process

            let mut recovered =
                HOram::restore(file_hierarchy(&scratch.device()), master(), &snapshot).unwrap();
            let responses = recovered.run_batch(&post).unwrap();
            assert_eq!(
                ref_responses, responses,
                "kill after {kill_after_cycles} cycles: responses diverged"
            );
            assert_eq!(
                ref_trace,
                recovered.trace().snapshot(),
                "kill after {kill_after_cycles} cycles: trace diverged"
            );
            assert_eq!(ref_stats, recovered.stats());
            assert_eq!(reference.clock().now(), recovered.clock().now());
        }
    }

    /// A cached file-backed run equals a cached in-memory run equals an
    /// uncached run on responses — the cache and the backend compose
    /// without touching protocol semantics.
    #[test]
    fn cached_file_backed_run_matches_in_memory_run() {
        let requests = workload(80, 131);
        let mut volatile =
            HOram::new(cached_config(), MemoryHierarchy::dac2019(), master()).unwrap();
        let volatile_responses = volatile.run_batch(&requests).unwrap();

        let scratch = Scratch::new("persist-cache-backend-equiv");
        let mut durable =
            HOram::new(cached_config(), file_hierarchy(&scratch.device()), master()).unwrap();
        let durable_responses = durable.run_batch(&requests).unwrap();

        assert_eq!(volatile_responses, durable_responses);
        assert_eq!(
            strip_times(&volatile.trace().snapshot()),
            strip_times(&durable.trace().snapshot())
        );
        assert_eq!(volatile.stats(), durable.stats());
        assert_eq!(volatile.clock().now(), durable.clock().now());
        assert_eq!(volatile.cache_stats(), durable.cache_stats());
    }

    // ---- Device-level: the dirty write-back path under a kill. The
    // engine writes storage write-through (shuffle rebuilds), so dirty
    // cached blocks only arise for direct Device users; this pins the
    // contract down where it lives.

    const SLOTS: u64 = 64;
    const BODY: usize = 256;

    fn sealer() -> BlockSealer {
        BlockSealer::new(&master().derive("cache-persist-test", 0))
    }

    fn open_device(path: &Path, clock: SimClock) -> Device {
        let store = FileStore::open(path, FileStoreConfig::new(SLOTS, BODY)).unwrap();
        let mut dev = Device::with_store(
            DeviceId(7),
            "cold",
            Box::new(HddModel::paper_calibrated()),
            clock,
            None,
            Box::new(store),
        );
        dev.install_cache(CacheConfig::lru(8));
        dev
    }

    /// Write-back dirty blocks + a kill: `sync` + `save_state` is the
    /// commit point (it flushes the cache into the journaled file);
    /// dirty blocks absorbed *after* it die with the process, and the
    /// reopened device reads back exactly the committed bytes.
    #[test]
    fn dirty_write_back_blocks_flush_at_snapshot_and_roll_back_after() {
        let scratch = Scratch::new("persist-cache-dirty");
        let committed: Vec<_> = (0..SLOTS)
            .map(|a| sealer().seal(a, 0, format!("committed {a}").as_bytes()))
            .collect();

        let mut dev = open_device(&scratch.device(), SimClock::new());
        for (a, block) in committed.iter().enumerate() {
            // write_block absorbs into the cache dirty; evictions beyond
            // the 8-slot capacity write back as we go.
            dev.write_block(a as u64, block.clone()).unwrap();
        }
        dev.sync().unwrap(); // commit point: flush + file sync
        let mut w = StateWriter::new();
        dev.save_state(&mut w).unwrap();
        let saved = w.into_bytes();

        // Post-snapshot dirty writes: stranded in RAM, never synced.
        for a in 0..16u64 {
            dev.write_block(a, sealer().seal(a, 1, b"doomed")).unwrap();
        }
        assert!(
            dev.cache_stats().unwrap().writebacks < SLOTS + 16,
            "setup: some post-snapshot writes must still sit dirty in RAM"
        );
        drop(dev); // the kill: no sync, no state save

        // Reopen: the journal rolls the file back to the commit point,
        // load_state re-installs residency, and every slot reads the
        // committed value — the doomed writes are gone without a trace.
        let mut recovered = open_device(&scratch.device(), SimClock::new());
        let mut r = StateReader::new(&saved);
        recovered.load_state(&mut r).unwrap();
        r.finish().unwrap();
        for (a, block) in committed.iter().enumerate() {
            assert_eq!(
                recovered.read_block(a as u64).unwrap(),
                *block,
                "slot {a} lost the committed bytes"
            );
        }
    }

    /// A torn state blob never panics and never half-loads: the device
    /// state (cache section included — it sits at the end) errors at
    /// every truncation boundary.
    #[test]
    fn torn_device_state_with_cache_errors_at_every_boundary() {
        let scratch = Scratch::new("persist-cache-torn");
        let mut dev = open_device(&scratch.device(), SimClock::new());
        for a in 0..SLOTS {
            dev.write_block(a, sealer().seal(a, 0, b"payload")).unwrap();
        }
        dev.sync().unwrap();
        let mut w = StateWriter::new();
        dev.save_state(&mut w).unwrap();
        let saved = w.into_bytes();

        for cut in 0..saved.len() {
            let mut torn = open_device(&scratch.device(), SimClock::new());
            let mut r = StateReader::new(&saved[..cut]);
            assert!(
                torn.load_state(&mut r).and_then(|_| r.finish()).is_err(),
                "truncation at byte {cut} accepted"
            );
        }
    }
}

mod sharded {
    use super::*;

    const SHARDS: u64 = 4;

    fn sharded_config() -> ShardedConfig {
        ShardedConfig::new(
            HOramConfig::new(256, PAYLOAD, 64)
                .with_seed(4242)
                .with_worker_threads(1),
            SHARDS,
        )
    }

    fn build_sharded() -> ShardedOram {
        ShardedOram::new(sharded_config(), master(), |_| MemoryHierarchy::dac2019()).unwrap()
    }

    fn sharded_workload(len: usize, seed: u64) -> Vec<Request> {
        let mut rng = DeterministicRng::from_u64_seed(seed);
        (0..len)
            .map(|_| {
                let id = rng.gen_range(0..256u64);
                if rng.gen_bool(0.35) {
                    Request::write(id, vec![rng.gen::<u8>(); PAYLOAD])
                } else {
                    Request::read(id)
                }
            })
            .collect()
    }

    #[test]
    fn snapshot_restore_continues_byte_identically_across_shards() {
        let prefix = sharded_workload(80, 91);
        let suffix = sharded_workload(120, 92);

        let mut original = build_sharded();
        original.run_batch(&prefix).unwrap();
        let snapshot = original.snapshot().unwrap();
        let marks: Vec<usize> = original
            .shards()
            .iter()
            .map(|s| s.trace().snapshot().len())
            .collect();
        let original_responses = original.run_batch(&suffix).unwrap();

        let mut restored =
            ShardedOram::restore(master(), |_| MemoryHierarchy::dac2019(), &snapshot).unwrap();
        let restored_responses = restored.run_batch(&suffix).unwrap();

        assert_eq!(original_responses, restored_responses);
        assert_eq!(original.stats(), restored.stats());
        assert_eq!(original.shard_stats(), restored.shard_stats());
        assert_eq!(original.clock().now(), restored.clock().now());
        for (i, ((a, mark), b)) in original
            .shards()
            .iter()
            .zip(marks)
            .zip(restored.shards())
            .enumerate()
        {
            assert_eq!(
                a.trace().snapshot()[mark..].to_vec(),
                b.trace().snapshot(),
                "shard {i} trace diverged"
            );
        }
        assert!(original.stats().shuffles >= SHARDS, "periods must turn");
    }

    #[test]
    fn sharded_manifest_rejects_truncation_and_single_kind() {
        let mut oram = build_sharded();
        oram.run_batch(&sharded_workload(30, 77)).unwrap();
        let manifest = oram.snapshot().unwrap();
        // Stride through boundaries (every byte is covered by the single-
        // instance torn test; the manifest adds the nested layer).
        for cut in (0..manifest.len()).step_by(97).chain([manifest.len() - 1]) {
            assert!(
                ShardedOram::restore(master(), |_| MemoryHierarchy::dac2019(), &manifest[..cut])
                    .is_err(),
                "cut at {cut}"
            );
        }
        // A sharded manifest is not a single-instance snapshot.
        assert!(HOram::restore(MemoryHierarchy::dac2019(), master(), &manifest).is_err());
    }

    /// The corruption → quarantine → restore round trip: a shard whose
    /// storage returns bit-rotted blocks fails authentication, is
    /// quarantined (its tickets resolve to typed failures, the healthy
    /// shards keep serving byte-exact answers, and a new checkpoint is
    /// refused), and a pre-failure snapshot restores the full instance
    /// to byte-exact health.
    #[test]
    fn corrupted_shard_quarantines_and_restores_from_snapshot() {
        use horam::storage::fault::FaultConfig;

        let prefix = sharded_workload(80, 93);
        let mut oram = build_sharded();
        oram.run_batch(&prefix).unwrap();
        let snapshot = oram.snapshot().unwrap();

        // A deterministic twin provides the expected value of every block.
        let mut twin = build_sharded();
        twin.run_batch(&prefix).unwrap();

        let target = 0usize;
        oram.inject_storage_faults(
            target,
            FaultConfig {
                seed: 17,
                corrupt_permille: 1000,
                ..FaultConfig::default()
            },
        );

        let tickets: Vec<(u64, u64)> = (0..256u64)
            .map(|id| (id, oram.enqueue(Request::read(id)).unwrap()))
            .collect();
        let mut rounds = 0;
        while !oram.is_drained() {
            oram.run_cycle_window(8).unwrap();
            rounds += 1;
            assert!(rounds < 100_000, "pump stalled");
        }

        assert_eq!(
            oram.degraded_shards(),
            vec![target],
            "bit rot must quarantine exactly the corrupted shard"
        );
        let mut failed = 0;
        for (id, ticket) in tickets {
            match oram.take_response(ticket) {
                Some(bytes) => assert_eq!(
                    bytes,
                    twin.read(BlockId(id)).unwrap(),
                    "a served answer must stay byte-exact"
                ),
                None => {
                    oram.take_failure(ticket)
                        .expect("lost tickets resolve to typed failures");
                    failed += 1;
                    assert_eq!(
                        oram.mapper().shard_of(BlockId(id)).unwrap() as usize,
                        target,
                        "only the corrupted shard may lose tickets"
                    );
                }
            }
        }
        assert!(failed > 0, "the corrupted shard must actually fail");

        // Quarantined: a checkpoint would lose the degraded shard's
        // blocks, so it is refused typed.
        assert!(matches!(
            oram.snapshot(),
            Err(OramError::SnapshotInvalid { .. })
        ));

        // The pre-failure snapshot restores full byte-exact health.
        let mut restored =
            ShardedOram::restore(master(), |_| MemoryHierarchy::dac2019(), &snapshot).unwrap();
        assert!(restored.degraded_shards().is_empty());
        for id in 0..256u64 {
            assert_eq!(
                restored.read(BlockId(id)).unwrap(),
                twin.read(BlockId(id)).unwrap(),
                "block {id} diverged after restore"
            );
        }
    }
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    fn arbitrary_ops(max: usize) -> impl Strategy<Value = Vec<(u64, Option<u8>)>> {
        proptest::collection::vec((0u64..CAPACITY, proptest::option::of(any::<u8>())), 1..max)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// `snapshot → restore` is the identity over arbitrary access
        /// prefixes: the restored instance and the original produce
        /// byte-identical responses, traces, stats, and clocks on any
        /// continuation.
        #[test]
        fn restore_is_identity_on_arbitrary_prefixes(
            prefix in arbitrary_ops(50),
            suffix in arbitrary_ops(40),
        ) {
            let prefix = requests_from(&prefix);
            let suffix = requests_from(&suffix);

            let mut original = build();
            original.run_batch(&prefix).expect("prefix");
            let snapshot = original.snapshot().expect("snapshot");
            let mark = original.trace().snapshot().len();
            let original_responses = original.run_batch(&suffix).expect("suffix");

            let mut restored =
                HOram::restore(MemoryHierarchy::dac2019(), master(), &snapshot).expect("restore");
            let restored_responses = restored.run_batch(&suffix).expect("replay");

            prop_assert_eq!(original_responses, restored_responses);
            prop_assert_eq!(
                original.trace().snapshot()[mark..].to_vec(),
                restored.trace().snapshot()
            );
            prop_assert_eq!(original.stats(), restored.stats());
            prop_assert_eq!(original.clock().now(), restored.clock().now());
        }

        /// The same identity at 4 shards, through the manifest path.
        #[test]
        fn sharded_restore_is_identity(
            prefix in proptest::collection::vec((0u64..256, proptest::option::of(any::<u8>())), 1..40),
            suffix in proptest::collection::vec((0u64..256, proptest::option::of(any::<u8>())), 1..30),
        ) {
            let config = ShardedConfig::new(
                HOramConfig::new(256, PAYLOAD, 64).with_seed(5151).with_worker_threads(1),
                4,
            );
            let prefix = requests_from(&prefix);
            let suffix = requests_from(&suffix);

            let mut original =
                ShardedOram::new(config, master(), |_| MemoryHierarchy::dac2019()).expect("builds");
            original.run_batch(&prefix).expect("prefix");
            let snapshot = original.snapshot().expect("snapshot");
            let original_responses = original.run_batch(&suffix).expect("suffix");

            let mut restored =
                ShardedOram::restore(master(), |_| MemoryHierarchy::dac2019(), &snapshot)
                    .expect("restore");
            let restored_responses = restored.run_batch(&suffix).expect("replay");

            prop_assert_eq!(original_responses, restored_responses);
            prop_assert_eq!(original.stats(), restored.stats());
            prop_assert_eq!(original.shard_stats(), restored.shard_stats());
            prop_assert_eq!(original.clock().now(), restored.clock().now());
        }
    }
}

mod service {
    use super::*;
    use horam::core::{Permission, UserId};
    use horam_server::{FifoPolicy, OramService, ServiceConfig};

    #[test]
    fn service_checkpoint_drains_then_snapshots() {
        let engine = ShardedOram::new(ShardedConfig::new(config(), 1), master(), |_| {
            MemoryHierarchy::dac2019()
        })
        .expect("builds");
        let mut service = OramService::new(
            engine,
            Box::new(FifoPolicy),
            ServiceConfig {
                batch_size: 16,
                ..ServiceConfig::default()
            },
        );
        service.register_tenant(UserId(0), 0..CAPACITY, Permission::ReadWrite);
        let mut tickets = Vec::new();
        for request in workload(40, 61) {
            tickets.push(service.submit(UserId(0), request).unwrap());
        }
        // Checkpoint with everything still queued: it must drain first.
        let snapshot = service.checkpoint().unwrap();
        for ticket in tickets {
            assert!(
                service.take_response(ticket).is_some(),
                "checkpoint must have completed queued work"
            );
        }

        // The snapshot restores into a working engine that continues the
        // same timeline.
        let mut restored =
            ShardedOram::restore(master(), |_| MemoryHierarchy::dac2019(), &snapshot).unwrap();
        let continuation = workload(20, 62);
        let responses = restored.run_batch(&continuation).unwrap();
        assert_eq!(responses.len(), continuation.len());
    }
}

/// The PR-5 durability stack with the recursive position map installed:
/// snapshots seal the per-level ORAM state (or the full level devices
/// when the levels are volatile), and recovery must stay byte-identical
/// to the uninterrupted run in both modes.
mod recursive_posmap {
    use super::*;
    use horam::core::{PosmapMode, RecursivePosmapConfig};

    fn recursive_config(backing: Option<&Path>) -> HOramConfig {
        config().with_posmap(PosmapMode::Recursive(RecursivePosmapConfig {
            cache_pages: 4,
            backing_dir: backing.map(|p| p.to_string_lossy().into_owned()),
            ..RecursivePosmapConfig::default()
        }))
    }

    /// Volatile levels (no backing dir): the snapshot embeds the level
    /// blocks, and restore continues the same timeline byte-for-byte.
    #[test]
    fn volatile_levels_snapshot_restores_byte_identically() {
        let prefix = workload(60, 71);
        let suffix = workload(90, 72);

        let mut original =
            HOram::new(recursive_config(None), MemoryHierarchy::dac2019(), master()).unwrap();
        original.run_batch(&prefix).unwrap();
        let snapshot = original.snapshot().unwrap();
        let trace_mark = original.trace().snapshot().len();
        let original_responses = original.run_batch(&suffix).unwrap();
        let original_trace = original.trace().snapshot()[trace_mark..].to_vec();
        assert!(original.stats().shuffles >= 2, "setup: periods must turn");

        let mut restored = HOram::restore(MemoryHierarchy::dac2019(), master(), &snapshot).unwrap();
        let restored_responses = restored.run_batch(&suffix).unwrap();

        assert_eq!(original_responses, restored_responses);
        assert_eq!(original_trace, restored.trace().snapshot());
        assert_eq!(original.stats(), restored.stats());
        assert_eq!(original.clock().now(), restored.clock().now());
    }

    /// Durable levels + durable data device: kill the engine mid-workload
    /// at several cycle boundaries (level write-back and shuffle stream in
    /// flight), recover from snapshot + files, replay — byte-identical to
    /// the uninterrupted reference.
    #[test]
    fn kill_mid_workload_with_durable_levels_recovers_byte_identically() {
        let pre = workload(40, 73);
        let post = workload(70, 74);

        let reference_scratch = Scratch::new("persist-rec-reference");
        let reference_config = recursive_config(Some(&reference_scratch.0.join("posmap")));
        let mut reference = HOram::new(
            reference_config,
            file_hierarchy(&reference_scratch.device()),
            master(),
        )
        .unwrap();
        reference.run_batch(&pre).unwrap();
        let _ = reference.snapshot().unwrap();
        let ref_mark = reference.trace().snapshot().len();
        let ref_responses = reference.run_batch(&post).unwrap();
        let ref_trace = reference.trace().snapshot()[ref_mark..].to_vec();
        let ref_stats = reference.stats();
        assert!(ref_stats.shuffles >= 2, "setup: periods must turn");

        for kill_after_cycles in [0u64, 2, 5, 11, 23] {
            let scratch = Scratch::new("persist-rec-kill");
            let victim_config = recursive_config(Some(&scratch.0.join("posmap")));
            let mut engine =
                HOram::new(victim_config, file_hierarchy(&scratch.device()), master()).unwrap();
            engine.run_batch(&pre).unwrap();
            let snapshot = engine.snapshot().unwrap();

            for request in &post {
                engine.enqueue(request.clone()).unwrap();
            }
            for _ in 0..kill_after_cycles {
                if engine.queue().is_drained() {
                    break;
                }
                engine.run_cycle().unwrap();
            }
            drop(engine); // the kill: no sync, no checkpoint

            let mut recovered =
                HOram::restore(file_hierarchy(&scratch.device()), master(), &snapshot).unwrap();
            let responses = recovered.run_batch(&post).unwrap();
            assert_eq!(
                ref_responses, responses,
                "kill after {kill_after_cycles} cycles: responses diverged"
            );
            assert_eq!(
                ref_trace,
                recovered.trace().snapshot(),
                "kill after {kill_after_cycles} cycles: trace diverged"
            );
            assert_eq!(
                ref_stats,
                recovered.stats(),
                "kill after {kill_after_cycles} cycles: stats diverged"
            );
            assert_eq!(reference.clock().now(), recovered.clock().now());
        }
    }

    /// Durable levels shrink the snapshot: the same engine state seals to
    /// far fewer bytes when the level blocks live in files instead of
    /// being embedded in the snapshot.
    #[test]
    fn durable_levels_keep_level_blocks_out_of_the_snapshot() {
        let scratch = Scratch::new("persist-rec-size");
        let mut durable = HOram::new(
            recursive_config(Some(&scratch.0.join("posmap"))),
            file_hierarchy(&scratch.device()),
            master(),
        )
        .unwrap();
        durable.run_batch(&workload(30, 75)).unwrap();
        let durable_snapshot = durable.snapshot().unwrap();

        let mut volatile =
            HOram::new(recursive_config(None), MemoryHierarchy::dac2019(), master()).unwrap();
        volatile.run_batch(&workload(30, 75)).unwrap();
        let volatile_snapshot = volatile.snapshot().unwrap();

        assert!(
            durable_snapshot.len() * 2 < volatile_snapshot.len(),
            "durable-level snapshot ({}) must be far smaller than the volatile one ({})",
            durable_snapshot.len(),
            volatile_snapshot.len()
        );
    }
}
