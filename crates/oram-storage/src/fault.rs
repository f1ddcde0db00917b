//! Deterministic fault injection between a device and its backing store.
//!
//! A [`FaultyStore`] wraps any [`DataStore`] and injects failures according
//! to a seeded [`FaultPlan`]: transient read/write errors (retryable),
//! permanent slot failures (dead sectors), bit-flip corruption of the
//! sealed bytes a read returns, fsync failures, and latency spikes. Every
//! decision is a pure function of `(seed, operation counter, op kind,
//! address)` via SipHash-2-4, so a chaos run is exactly replayable from its
//! seed — and a retry of the same logical access naturally re-rolls,
//! because each store call advances the counter.
//!
//! Faults are injected only on the *access* paths (`get`/`put`/`remove`/
//! `sync`). The snapshot plumbing (`snapshot_blocks`, `install_blocks`,
//! `clear`) delegates fault-free: those are simulator-internal transfers
//! (fingerprinting, restore) that model trusted-host memory traffic, not
//! device I/O.
//!
//! Corruption is modeled as a *read glitch*: the store's copy stays
//! intact, but the bytes handed back have one deterministic bit flipped.
//! The sealed-block authenticator catches this downstream
//! (`BlockSealer::open` fails with a tag mismatch), which is exactly the
//! detection path the quarantine-and-restore machinery exercises.

use crate::store::DataStore;
use crate::StorageError;
use oram_crypto::seal::SealedBlock;
use oram_crypto::siphash::SipHash24;

/// Seeded fault schedule parameters. All rates are per-mille (0–1000);
/// zero disables that fault class. The default injects nothing.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultConfig {
    /// Seed for the deterministic decision stream.
    pub seed: u64,
    /// Per-mille probability that a `get`/`remove` fails transiently.
    pub transient_read_permille: u32,
    /// Per-mille probability that a `put` fails transiently.
    pub transient_write_permille: u32,
    /// Slots that fail permanently: every access errors, always.
    pub permanent_slots: Vec<u64>,
    /// Per-mille probability that a successful `get` returns bytes with
    /// one bit flipped (the store's own copy stays intact).
    pub corrupt_permille: u32,
    /// Per-mille probability that a `sync` fails (transient — a retry
    /// re-rolls).
    pub fsync_fail_permille: u32,
    /// Per-mille probability that an access accrues a latency spike.
    pub latency_spike_permille: u32,
    /// Simulated nanoseconds one latency spike adds.
    pub latency_spike_nanos: u64,
}

impl FaultConfig {
    /// A schedule of transient faults only: reads and writes both fail
    /// with probability `permille`/1000.
    pub fn transient(seed: u64, permille: u32) -> Self {
        Self {
            seed,
            transient_read_permille: permille,
            transient_write_permille: permille,
            ..Self::default()
        }
    }
}

/// The deterministic decision stream of one [`FaultConfig`].
///
/// Each query hashes `(op counter, op tag, address)` under a key derived
/// from the seed and advances the counter, so the fault sequence is a
/// replayable function of the seed and the exact sequence of store calls.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    config: FaultConfig,
    key: [u8; 16],
    counter: u64,
}

impl FaultPlan {
    /// Builds the decision stream for `config`.
    pub fn new(config: FaultConfig) -> Self {
        let mut key = [0u8; 16];
        key[..8].copy_from_slice(&config.seed.to_le_bytes());
        key[8..].copy_from_slice(&(config.seed ^ 0x666c_6970_2d62_6974).to_le_bytes());
        Self {
            config,
            key,
            counter: 0,
        }
    }

    /// The schedule parameters.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// One raw 64-bit roll for `(op, addr)` at the current counter.
    fn roll(&mut self, op: &'static str, addr: u64) -> u64 {
        let mut mac = SipHash24::new(&self.key);
        mac.write_u64(self.counter);
        mac.write(op.as_bytes());
        mac.write_u64(addr);
        self.counter = self.counter.wrapping_add(1);
        mac.finish()
    }

    /// Whether an event with probability `permille`/1000 fires for this
    /// `(op, addr)` roll.
    fn fires(&mut self, op: &'static str, addr: u64, permille: u32) -> bool {
        if permille == 0 {
            return false;
        }
        (self.roll(op, addr) % 1000) < u64::from(permille)
    }
}

/// Counters of injected faults, for test assertions and chaos reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Transient `get`/`remove` failures injected.
    pub transient_reads: u64,
    /// Transient `put` failures injected.
    pub transient_writes: u64,
    /// Accesses refused because the slot is permanently failed.
    pub permanent_hits: u64,
    /// Reads whose returned bytes were bit-flipped.
    pub corruptions: u64,
    /// `sync` calls that failed.
    pub fsync_failures: u64,
    /// Latency spikes accrued.
    pub latency_spikes: u64,
}

/// A [`DataStore`] adapter that injects the faults of a [`FaultPlan`]
/// between a device and its inner store. See the [module docs](self).
#[derive(Debug)]
pub struct FaultyStore {
    inner: Box<dyn DataStore>,
    plan: FaultPlan,
    pending_latency_nanos: u64,
    stats: FaultStats,
}

impl FaultyStore {
    /// Wraps `inner` with the fault schedule of `config`.
    pub fn new(inner: Box<dyn DataStore>, config: FaultConfig) -> Self {
        Self {
            inner,
            plan: FaultPlan::new(config),
            pending_latency_nanos: 0,
            stats: FaultStats::default(),
        }
    }

    /// Counters of faults injected so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// The decision stream (for replay assertions).
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Unwraps the adapter, returning the inner store.
    pub fn into_inner(self) -> Box<dyn DataStore> {
        self.inner
    }

    fn check_permanent(&mut self, addr: u64) -> Result<(), StorageError> {
        if self.plan.config.permanent_slots.contains(&addr) {
            self.stats.permanent_hits += 1;
            return Err(StorageError::PermanentFault {
                device: "fault-injector".into(),
                addr,
            });
        }
        Ok(())
    }

    fn maybe_spike(&mut self, op: &'static str, addr: u64) {
        let permille = self.plan.config.latency_spike_permille;
        if self.plan.fires(op, addr, permille) {
            self.pending_latency_nanos += self.plan.config.latency_spike_nanos;
            self.stats.latency_spikes += 1;
        }
    }

    /// The shared read-side schedule of `get` and `remove`.
    fn read_faults(&mut self, op: &'static str, addr: u64) -> Result<(), StorageError> {
        self.check_permanent(addr)?;
        self.maybe_spike("spike", addr);
        let permille = self.plan.config.transient_read_permille;
        if self.plan.fires(op, addr, permille) {
            self.stats.transient_reads += 1;
            return Err(StorageError::TransientFault {
                device: "fault-injector".into(),
                addr,
                op,
            });
        }
        Ok(())
    }
}

impl DataStore for FaultyStore {
    fn get(&mut self, addr: u64) -> Result<Option<SealedBlock>, StorageError> {
        self.read_faults("get", addr)?;
        let mut block = self.inner.get(addr)?;
        if let Some(block) = &mut block {
            let permille = self.plan.config.corrupt_permille;
            if permille > 0 {
                let roll = self.plan.roll("corrupt", addr);
                if roll % 1000 < u64::from(permille) {
                    // Flip a roll-selected bit of the returned copy; the
                    // store keeps the good bytes (a read glitch, not rot).
                    block.corrupt_bit((roll >> 10) as usize);
                    self.stats.corruptions += 1;
                }
            }
        }
        Ok(block)
    }

    fn put(&mut self, addr: u64, block: SealedBlock) -> Result<(), StorageError> {
        self.check_permanent(addr)?;
        self.maybe_spike("spike", addr);
        let permille = self.plan.config.transient_write_permille;
        if self.plan.fires("put", addr, permille) {
            self.stats.transient_writes += 1;
            return Err(StorageError::TransientFault {
                device: "fault-injector".into(),
                addr,
                op: "put",
            });
        }
        self.inner.put(addr, block)
    }

    fn remove(&mut self, addr: u64) -> Result<Option<SealedBlock>, StorageError> {
        self.read_faults("remove", addr)?;
        self.inner.remove(addr)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn clear(&mut self) -> Result<(), StorageError> {
        self.inner.clear()
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        let permille = self.plan.config.fsync_fail_permille;
        if self.plan.fires("sync", 0, permille) {
            self.stats.fsync_failures += 1;
            return Err(StorageError::TransientFault {
                device: "fault-injector".into(),
                addr: 0,
                op: "sync",
            });
        }
        self.inner.sync()
    }

    fn durable(&self) -> bool {
        self.inner.durable()
    }

    fn snapshot_blocks(&mut self) -> Result<Vec<(u64, SealedBlock)>, StorageError> {
        self.inner.snapshot_blocks()
    }

    fn install_blocks(&mut self, blocks: Vec<(u64, SealedBlock)>) -> Result<(), StorageError> {
        self.inner.install_blocks(blocks)
    }

    fn take_injected_latency_nanos(&mut self) -> u64 {
        std::mem::take(&mut self.pending_latency_nanos)
    }

    fn can_fault(&self) -> bool {
        true
    }

    fn fault_stats(&self) -> Option<FaultStats> {
        Some(self.stats)
    }
}

// --------------------------------------------------------------- transport
//
// The PR-7 chaos methodology — seeded, replayable fault schedules between
// two honest layers — extended to the wire. A [`FaultyConn`] sits between
// an RPC endpoint and its byte stream exactly as a [`FaultyStore`] sits
// between a device and its blocks: every decision is a pure function of
// `(seed, frame counter, fault class)`, so a network chaos run replays
// from its seed.
//
// Decisions advance on *writes only* (the RPC layers send exactly one
// frame per `write` call, so the counter counts frames). Reads never roll
// the stream: a polling reader calls `read` a timing-dependent number of
// times, and letting those calls advance the schedule would make the
// fault sequence — and therefore the run — nondeterministic. Reads fail
// only as a *consequence* of an injected disconnect/truncation, which
// breaks the connection for both directions.

use std::io::{self, Read, Write};
use std::sync::{Arc, Mutex};

/// Seeded transport-fault schedule parameters. Rates are per-mille
/// (0–1000) per frame written; zero disables the class. The default
/// injects nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConnFaultConfig {
    /// Seed for the deterministic decision stream.
    pub seed: u64,
    /// Per-mille probability a written frame is silently dropped: the
    /// write reports success but no bytes reach the peer (the receiver
    /// times out and must retry).
    pub drop_permille: u32,
    /// Per-mille probability a written frame is truncated: half its
    /// bytes reach the peer, then the connection breaks (the receiver
    /// sees a half-written frame followed by EOF).
    pub truncate_permille: u32,
    /// Per-mille probability the connection breaks before the frame is
    /// written (both directions die; the writer sees `ConnectionReset`).
    pub disconnect_permille: u32,
    /// Per-mille probability the frame is delayed by
    /// [`delay_micros`](Self::delay_micros) of real time before writing.
    pub delay_permille: u32,
    /// Host microseconds one injected delay sleeps.
    pub delay_micros: u64,
}

/// Counters of injected transport faults.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnFaultStats {
    /// Frames silently dropped.
    pub dropped: u64,
    /// Frames truncated mid-write (connection broken after).
    pub truncated: u64,
    /// Connections broken before a frame.
    pub disconnects: u64,
    /// Frames delayed.
    pub delays: u64,
    /// Frames that went through unharmed.
    pub delivered: u64,
}

/// The deterministic decision stream of one [`ConnFaultConfig`],
/// **shared across reconnects**: a client that redials after an injected
/// disconnect wraps its fresh stream around the same plan, so one seed
/// describes one uninterrupted fault schedule for the whole chaos run —
/// the property the run-twice determinism battery keys on.
#[derive(Debug)]
pub struct ConnFaultPlan {
    config: ConnFaultConfig,
    key: [u8; 16],
    counter: u64,
    stats: ConnFaultStats,
}

impl ConnFaultPlan {
    /// Builds the decision stream for `config`.
    pub fn new(config: ConnFaultConfig) -> Self {
        let mut key = [0u8; 16];
        key[..8].copy_from_slice(&config.seed.to_le_bytes());
        key[8..].copy_from_slice(&(config.seed ^ 0x6672_616d_652d_6e66).to_le_bytes());
        Self {
            config,
            key,
            counter: 0,
            stats: ConnFaultStats::default(),
        }
    }

    /// A plan behind the shared handle [`FaultyConn`] expects, so redials
    /// continue the schedule where the broken connection left it.
    pub fn shared(config: ConnFaultConfig) -> Arc<Mutex<ConnFaultPlan>> {
        Arc::new(Mutex::new(Self::new(config)))
    }

    /// The schedule parameters.
    pub fn config(&self) -> &ConnFaultConfig {
        &self.config
    }

    /// Counters of faults injected so far.
    pub fn stats(&self) -> ConnFaultStats {
        self.stats
    }

    /// Frames observed so far (each `write` call advances the stream).
    pub fn frames_observed(&self) -> u64 {
        self.counter
    }

    fn fires(&mut self, class: &'static str, permille: u32) -> bool {
        if permille == 0 {
            return false;
        }
        let mut mac = SipHash24::new(&self.key);
        mac.write_u64(self.counter);
        mac.write(class.as_bytes());
        (mac.finish() % 1000) < u64::from(permille)
    }

    /// Rolls the whole per-frame schedule: exactly one counter advance
    /// per frame regardless of which classes fire, so the schedule is a
    /// pure function of the frame index.
    fn roll_frame(&mut self) -> FrameFate {
        let fate = if self.fires("disconnect", self.config.disconnect_permille) {
            self.stats.disconnects += 1;
            FrameFate::Disconnect
        } else if self.fires("truncate", self.config.truncate_permille) {
            self.stats.truncated += 1;
            FrameFate::Truncate
        } else if self.fires("drop", self.config.drop_permille) {
            self.stats.dropped += 1;
            FrameFate::Drop
        } else if self.fires("delay", self.config.delay_permille) {
            self.stats.delays += 1;
            FrameFate::Delay(self.config.delay_micros)
        } else {
            self.stats.delivered += 1;
            FrameFate::Deliver
        };
        self.counter += 1;
        fate
    }
}

/// What the schedule decided for one written frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrameFate {
    Deliver,
    Drop,
    Truncate,
    Disconnect,
    Delay(u64),
}

/// A byte stream with the faults of a [`ConnFaultPlan`] injected on its
/// write path. Wraps anything `Read + Write` (a `TcpStream`, a
/// `UnixStream`, a test loopback); see the module-level transport notes
/// for why only writes roll the schedule.
#[derive(Debug)]
pub struct FaultyConn<S> {
    inner: S,
    plan: Arc<Mutex<ConnFaultPlan>>,
    broken: bool,
}

impl<S> FaultyConn<S> {
    /// Wraps `inner` with the shared fault schedule `plan`.
    pub fn new(inner: S, plan: Arc<Mutex<ConnFaultPlan>>) -> Self {
        Self {
            inner,
            plan,
            broken: false,
        }
    }

    /// Whether an injected fault has severed this connection (subsequent
    /// reads and writes fail until the caller redials).
    pub fn is_broken(&self) -> bool {
        self.broken
    }

    /// A reference to the inner stream (e.g. to set socket timeouts).
    pub fn get_ref(&self) -> &S {
        &self.inner
    }

    fn severed() -> io::Error {
        io::Error::new(
            io::ErrorKind::ConnectionReset,
            "fault-injector: connection severed",
        )
    }
}

impl<S: Read + Write> Read for FaultyConn<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.broken {
            return Err(Self::severed());
        }
        self.inner.read(buf)
    }
}

impl<S: Read + Write> Write for FaultyConn<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.broken {
            return Err(Self::severed());
        }
        let fate = {
            let mut plan = self.plan.lock().unwrap_or_else(|e| e.into_inner());
            plan.roll_frame()
        };
        match fate {
            // Deliver the whole frame under one schedule roll: a partial
            // inner write would make `write_all` callers re-enter and
            // re-roll, tying the schedule to TCP buffer timing.
            FrameFate::Deliver => self.inner.write_all(buf).map(|()| buf.len()),
            FrameFate::Delay(micros) => {
                std::thread::sleep(std::time::Duration::from_micros(micros));
                self.inner.write_all(buf).map(|()| buf.len())
            }
            FrameFate::Drop => Ok(buf.len()),
            FrameFate::Truncate => {
                let half = buf.len() / 2;
                self.inner.write_all(&buf[..half])?;
                let _ = self.inner.flush();
                self.broken = true;
                Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "fault-injector: frame truncated mid-write",
                ))
            }
            FrameFate::Disconnect => {
                self.broken = true;
                Err(Self::severed())
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.broken {
            return Err(Self::severed());
        }
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::BlockStore;
    use oram_crypto::keys::MasterKey;
    use oram_crypto::seal::BlockSealer;

    fn sealer() -> BlockSealer {
        BlockSealer::new(&MasterKey::from_bytes([7u8; 32]).derive("fault-test", 0))
    }

    fn stocked(n: u64) -> Box<dyn DataStore> {
        let mut store = BlockStore::new();
        let sealer = sealer();
        for addr in 0..n {
            store.put(addr, sealer.seal(addr, 0, &addr.to_le_bytes()));
        }
        Box::new(store)
    }

    fn drive(config: FaultConfig) -> (Vec<Result<bool, StorageError>>, FaultStats) {
        let mut store = FaultyStore::new(stocked(64), config);
        let results = (0..64)
            .map(|addr| store.get(addr).map(|b| b.is_some()))
            .collect();
        (results, store.stats())
    }

    #[test]
    fn inert_schedule_injects_nothing() {
        let (results, stats) = drive(FaultConfig::default());
        assert!(results.iter().all(|r| matches!(r, Ok(true))));
        assert_eq!(stats, FaultStats::default());
    }

    #[test]
    fn same_seed_replays_identically() {
        let config = FaultConfig {
            corrupt_permille: 100,
            latency_spike_permille: 100,
            latency_spike_nanos: 1_000,
            ..FaultConfig::transient(42, 200)
        };
        let (a, stats_a) = drive(config.clone());
        let (b, stats_b) = drive(config);
        assert_eq!(a, b);
        assert_eq!(stats_a, stats_b);
        assert!(stats_a.transient_reads > 0, "200 permille over 64 reads");
    }

    #[test]
    fn different_seeds_differ() {
        let (a, _) = drive(FaultConfig::transient(1, 300));
        let (b, _) = drive(FaultConfig::transient(2, 300));
        assert_ne!(a, b);
    }

    #[test]
    fn retry_rerolls_the_stream() {
        let mut store = FaultyStore::new(stocked(8), FaultConfig::transient(9, 500));
        // Hammer one address: the per-call counter means outcomes vary,
        // so a retry loop eventually succeeds.
        let mut saw_err = false;
        let mut saw_ok = false;
        for _ in 0..64 {
            match store.get(3) {
                Ok(_) => saw_ok = true,
                Err(e) => {
                    assert!(e.is_transient());
                    saw_err = true;
                }
            }
        }
        assert!(saw_ok && saw_err, "50% faults must mix over 64 attempts");
    }

    #[test]
    fn permanent_slot_always_fails_and_others_serve() {
        let config = FaultConfig {
            permanent_slots: vec![5],
            ..FaultConfig::default()
        };
        let mut store = FaultyStore::new(stocked(8), config);
        for _ in 0..4 {
            let err = store.get(5).unwrap_err();
            assert!(matches!(err, StorageError::PermanentFault { addr: 5, .. }));
            assert!(!err.is_transient());
        }
        assert!(store.get(4).unwrap().is_some());
        assert!(store.put(5, sealer().seal(5, 0, &[0u8; 8])).is_err());
        assert_eq!(store.stats().permanent_hits, 5);
    }

    #[test]
    fn corruption_glitches_the_read_not_the_store() {
        let config = FaultConfig {
            seed: 11,
            corrupt_permille: 1000,
            ..FaultConfig::default()
        };
        let mut store = FaultyStore::new(stocked(4), config);
        let glitched = store.get(2).unwrap().expect("slot stocked");
        assert!(sealer().open(&glitched).is_err(), "tag must catch the flip");
        assert_eq!(store.stats().corruptions, 1);
        // The store's own copy is intact: disable corruption and re-read.
        let mut honest = FaultyStore::new(store.into_inner(), FaultConfig::default());
        let clean = honest.get(2).unwrap().expect("slot still stocked");
        assert_eq!(sealer().open(&clean).unwrap(), 2u64.to_le_bytes());
    }

    #[test]
    fn fsync_failure_is_transient_and_counted() {
        let config = FaultConfig {
            seed: 3,
            fsync_fail_permille: 1000,
            ..FaultConfig::default()
        };
        let mut store = FaultyStore::new(stocked(1), config);
        let err = store.sync().unwrap_err();
        assert!(err.is_transient());
        assert_eq!(store.stats().fsync_failures, 1);
    }

    #[test]
    fn latency_spikes_accrue_and_drain() {
        let config = FaultConfig {
            seed: 4,
            latency_spike_permille: 1000,
            latency_spike_nanos: 2_500,
            ..FaultConfig::default()
        };
        let mut store = FaultyStore::new(stocked(4), config);
        store.get(0).unwrap();
        store.get(1).unwrap();
        assert_eq!(store.take_injected_latency_nanos(), 5_000);
        assert_eq!(store.take_injected_latency_nanos(), 0);
        assert_eq!(store.stats().latency_spikes, 2);
    }

    #[test]
    fn snapshot_paths_are_fault_free() {
        let mut store = FaultyStore::new(stocked(16), FaultConfig::transient(5, 1000));
        // Every access faults, but the snapshot plumbing must not.
        assert!(store.get(0).is_err());
        let blocks = store.snapshot_blocks().unwrap();
        assert_eq!(blocks.len(), 16);
        store.install_blocks(blocks).unwrap();
        assert_eq!(store.len(), 16);
    }

    // ----------------------------------------------------- transport

    /// A loopback stream: writes append to an owned buffer, reads drain
    /// it — enough surface for the write-path fault semantics.
    #[derive(Debug, Default)]
    struct Loopback {
        buf: std::collections::VecDeque<u8>,
    }

    impl Read for Loopback {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = out.len().min(self.buf.len());
            for slot in out.iter_mut().take(n) {
                *slot = self.buf.pop_front().expect("counted");
            }
            Ok(n)
        }
    }

    impl Write for Loopback {
        fn write(&mut self, data: &[u8]) -> io::Result<usize> {
            self.buf.extend(data);
            Ok(data.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Drives `frames` fixed-size writes through a fresh conn on a shared
    /// plan, reporting each frame's observable outcome.
    fn drive_conn(config: ConnFaultConfig, frames: usize) -> (Vec<String>, ConnFaultStats) {
        let plan = ConnFaultPlan::shared(config);
        let mut outcomes = Vec::new();
        let mut conn = FaultyConn::new(Loopback::default(), Arc::clone(&plan));
        for i in 0..frames {
            let frame = [i as u8; 16];
            let outcome = match conn.write(&frame) {
                Ok(n) => format!("ok{n}"),
                Err(e) => format!("err:{:?}", e.kind()),
            };
            outcomes.push(outcome);
            if conn.is_broken() {
                // Redial: fresh stream, same plan — the schedule
                // continues where the broken connection left it.
                conn = FaultyConn::new(Loopback::default(), Arc::clone(&plan));
            }
        }
        let stats = plan.lock().unwrap().stats();
        (outcomes, stats)
    }

    #[test]
    fn inert_conn_schedule_delivers_everything() {
        let (outcomes, stats) = drive_conn(ConnFaultConfig::default(), 32);
        assert!(outcomes.iter().all(|o| o == "ok16"));
        assert_eq!(stats.delivered, 32);
        assert_eq!(stats.disconnects + stats.dropped + stats.truncated, 0);
    }

    #[test]
    fn conn_same_seed_replays_identically() {
        let config = ConnFaultConfig {
            seed: 77,
            drop_permille: 200,
            truncate_permille: 100,
            disconnect_permille: 100,
            ..ConnFaultConfig::default()
        };
        let (a, stats_a) = drive_conn(config.clone(), 128);
        let (b, stats_b) = drive_conn(config, 128);
        assert_eq!(a, b);
        assert_eq!(stats_a, stats_b);
        assert!(stats_a.dropped > 0 && stats_a.disconnects > 0);
    }

    #[test]
    fn conn_different_seeds_differ() {
        let mix = |seed| ConnFaultConfig {
            seed,
            drop_permille: 300,
            disconnect_permille: 300,
            ..ConnFaultConfig::default()
        };
        let (a, _) = drive_conn(mix(1), 64);
        let (b, _) = drive_conn(mix(2), 64);
        assert_ne!(a, b);
    }

    #[test]
    fn dropped_frame_reports_success_but_delivers_nothing() {
        let plan = ConnFaultPlan::shared(ConnFaultConfig {
            seed: 5,
            drop_permille: 1000,
            ..ConnFaultConfig::default()
        });
        let mut conn = FaultyConn::new(Loopback::default(), plan);
        assert_eq!(conn.write(&[9u8; 8]).unwrap(), 8, "write claims success");
        assert_eq!(conn.get_ref().buf.len(), 0, "no bytes reached the peer");
    }

    #[test]
    fn truncated_frame_delivers_half_then_severs() {
        let plan = ConnFaultPlan::shared(ConnFaultConfig {
            seed: 6,
            truncate_permille: 1000,
            ..ConnFaultConfig::default()
        });
        let mut conn = FaultyConn::new(Loopback::default(), plan);
        let err = conn.write(&[3u8; 10]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        assert_eq!(conn.get_ref().buf.len(), 5, "half the frame got through");
        assert!(conn.is_broken());
        // Both directions are dead until redial.
        assert!(conn.read(&mut [0u8; 4]).is_err());
        assert!(conn.write(&[0u8; 4]).is_err());
        assert!(conn.flush().is_err());
    }

    #[test]
    fn disconnect_severs_before_any_byte() {
        let plan = ConnFaultPlan::shared(ConnFaultConfig {
            seed: 7,
            disconnect_permille: 1000,
            ..ConnFaultConfig::default()
        });
        let mut conn = FaultyConn::new(Loopback::default(), plan);
        let err = conn.write(&[1u8; 4]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        assert_eq!(conn.get_ref().buf.len(), 0);
        assert!(conn.is_broken());
    }

    #[test]
    fn reads_never_advance_the_schedule() {
        let plan = ConnFaultPlan::shared(ConnFaultConfig {
            seed: 8,
            drop_permille: 500,
            ..ConnFaultConfig::default()
        });
        let mut conn = FaultyConn::new(Loopback::default(), Arc::clone(&plan));
        // A polling reader hammers read; the frame counter must not move,
        // or fault schedules would depend on poll timing.
        for _ in 0..100 {
            let _ = conn.read(&mut [0u8; 16]);
        }
        assert_eq!(plan.lock().unwrap().frames_observed(), 0);
        let _ = conn.write(&[0u8; 8]);
        assert_eq!(plan.lock().unwrap().frames_observed(), 1);
    }
}
