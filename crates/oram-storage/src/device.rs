//! The simulated block device: data + timing + observability.
//!
//! A [`Device`] couples four concerns that the experiments need to stay in
//! lockstep:
//!
//! 1. **Data** — a [`crate::store::DataStore`] holding sealed blocks at
//!    physical slot addresses (by default the dense in-memory
//!    [`crate::store::BlockStore`]).
//! 2. **Timing** — a [`TimingModel`] charging each access a simulated cost
//!    (seek + transfer for HDDs, latency + bandwidth for DRAM/SSD).
//! 3. **Observability** — every access is appended to the shared
//!    [`crate::trace::AccessTrace`], which is precisely the adversary's view.
//! 4. **Accounting** — per-device [`crate::stats::DeviceStats`].
//!
//! Devices support *payload scaling* (`charged_block_bytes`): experiments
//! can store small payloads (fast to encrypt/copy) while timing is charged
//! for the paper's full logical block size, keeping simulated time faithful
//! at a fraction of the host cost. The [`crate::calibration`] presets
//! charge the paper's 1 KB block.

use crate::cache::{BlockCache, CacheConfig, CacheStats};
use crate::clock::{SimClock, SimDuration};
use crate::stats::DeviceStats;
use crate::store::{BlockStore, DataStore};
use crate::trace::{AccessTrace, TraceEvent};
use crate::StorageError;
use oram_crypto::persist::{PersistError, StateReader, StateWriter};
use oram_crypto::seal::SealedBlock;
use std::fmt;

/// Read or write direction of an access, as visible on the bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Data flows device → controller.
    Read,
    /// Data flows controller → device.
    Write,
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => write!(f, "read"),
            AccessKind::Write => write!(f, "write"),
        }
    }
}

/// Identifier distinguishing devices within one experiment's trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub u16);

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dev{}", self.0)
    }
}

/// A device timing model: charges simulated time per access.
///
/// Implementations track internal mechanical state (e.g. HDD head position)
/// and must be deterministic: the same access sequence always yields the
/// same costs.
pub trait TimingModel: fmt::Debug + Send {
    /// Cost of one access of `bytes` bytes at byte-offset `offset`.
    ///
    /// `offset` is an absolute device byte address; models use it for
    /// locality effects (seeks). Implementations should update internal
    /// head/locality state.
    fn access_cost(&mut self, kind: AccessKind, offset: u64, bytes: u64) -> SimDuration;

    /// Cost of a *streaming* access of `bytes` at `offset`: the caller
    /// guarantees the transfer is one sequential run. Defaults to
    /// [`access_cost`](Self::access_cost).
    fn streaming_cost(&mut self, kind: AccessKind, offset: u64, bytes: u64) -> SimDuration {
        self.access_cost(kind, offset, bytes)
    }

    /// Per-operation costs of a *queued batch* of same-size accesses: the
    /// caller submits all `offsets` at once, so the device may schedule
    /// them internally (elevator sweeps, command-queue overlap) while the
    /// returned costs stay aligned with the submission order. Returns one
    /// cost per offset; implementations must leave internal state exactly
    /// as if the batch completed.
    ///
    /// Defaults to charging each access independently in submission order
    /// (no batching benefit) — models with per-op overhead that command
    /// queuing can coalesce (HDD seeks, SSD/NVMe doorbell latency)
    /// override this.
    fn scatter_costs(
        &mut self,
        kind: AccessKind,
        offsets: &[u64],
        bytes_per_op: u64,
    ) -> Vec<SimDuration> {
        offsets
            .iter()
            .map(|&offset| self.access_cost(kind, offset, bytes_per_op))
            .collect()
    }

    /// Peak sequential bandwidth in bytes/second, for analytical models.
    fn sequential_bandwidth(&self, kind: AccessKind) -> f64;

    /// Forgets locality state (e.g. parks the head). Used between
    /// experiment phases.
    fn reset(&mut self);

    /// The model's internal locality state as plain words, for snapshots.
    /// Stateless models return an empty vector (the default); stateful
    /// models (HDD head position, page caches) must round-trip through
    /// [`restore_state_words`](Self::restore_state_words) so that a
    /// restored run charges byte-identical costs.
    fn state_words(&self) -> Vec<u64> {
        Vec::new()
    }

    /// Restores state previously captured by
    /// [`state_words`](Self::state_words). The default ignores the words
    /// (stateless models).
    fn restore_state_words(&mut self, _words: &[u64]) {}
}

/// Retry policy for transient store faults: capped exponential backoff,
/// charged in **simulated** time. Attempt `k` (0-based) that fails
/// transiently adds `min(base · 2^k, cap)` nanoseconds of backoff to the
/// access's cost; the trace still records exactly one event per logical
/// access, so retries are timing-only and leak nothing beyond what the
/// access itself already reveals (the same argument as timing-padded
/// cache hits — see the leakage battery's retry probe).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per store operation (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry, simulated nanoseconds.
    pub base_nanos: u64,
    /// Backoff ceiling per retry, simulated nanoseconds.
    pub cap_nanos: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_nanos: 100_000,  // 100 µs
            cap_nanos: 5_000_000, // 5 ms
        }
    }
}

impl RetryPolicy {
    /// Backoff charged after failed attempt `attempt` (0-based).
    fn backoff_step(&self, attempt: u32) -> SimDuration {
        let scaled = self.base_nanos.saturating_mul(1u64 << attempt.min(20));
        SimDuration::from_nanos(scaled.min(self.cap_nanos))
    }
}

/// Counters of retry activity. Deliberately **not** part of
/// [`DeviceStats`] (and not persisted in snapshots — the format is
/// frozen); a restored device starts these at zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Individual retries performed (attempts beyond the first).
    pub retries: u64,
    /// Total simulated backoff charged, nanoseconds.
    pub backoff_nanos: u64,
    /// Operations that exhausted every attempt and surfaced their error.
    pub exhausted: u64,
}

/// One element of a [`Device::read_scatter`] result: the block found at
/// the requested slot (if any) and the simulated cost attributed to that
/// command within the batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScatterItem {
    /// The stored block, or `None` for an empty slot.
    pub block: Option<SealedBlock>,
    /// Simulated cost of this command (batch scheduling already applied).
    pub cost: SimDuration,
}

/// A simulated block device.
///
/// See the [module docs](self) for the design; see
/// [`crate::hierarchy::MemoryHierarchy`] for the standard two-device
/// (DRAM + HDD) experiment setup.
#[derive(Debug)]
pub struct Device {
    id: DeviceId,
    name: String,
    timing: Box<dyn TimingModel>,
    store: Box<dyn DataStore>,
    stats: DeviceStats,
    trace: Option<AccessTrace>,
    clock: SimClock,
    /// Slot width in bytes used to map slot addresses to byte offsets and,
    /// when set, the charged size of every block access (payload scaling).
    charged_block_bytes: u64,
    /// Optional capacity bound in slots; `None` = unbounded.
    capacity_slots: Option<u64>,
    /// Optional block-cache tier(s) in front of the store. See
    /// [`crate::cache`]: hits are timing-padded (the trace event is
    /// recorded unconditionally with the same shape), never elided.
    cache: Option<BlockCache>,
    /// Transient-fault retry policy (see [`RetryPolicy`]).
    retry: RetryPolicy,
    /// Retry counters; volatile (never snapshotted).
    retry_stats: RetryStats,
}

impl Device {
    /// Default charged block size: the paper's 1 KB block.
    pub const DEFAULT_BLOCK_BYTES: u64 = 1024;

    /// Creates a device.
    ///
    /// `trace` may be shared across devices so one recorder observes the
    /// whole bus. The charged block size defaults to 1 KB; override with
    /// [`set_charged_block_bytes`](Self::set_charged_block_bytes).
    pub fn new(
        id: DeviceId,
        name: impl Into<String>,
        timing: Box<dyn TimingModel>,
        clock: SimClock,
        trace: Option<AccessTrace>,
    ) -> Self {
        Self::with_store(id, name, timing, clock, trace, Box::new(BlockStore::new()))
    }

    /// Creates a device over an explicit data store — the file-backed
    /// durable store, or any other [`DataStore`]. Timing, tracing, and
    /// accounting are identical regardless of where the bytes live; the
    /// store changes only durability (and host cost).
    pub fn with_store(
        id: DeviceId,
        name: impl Into<String>,
        timing: Box<dyn TimingModel>,
        clock: SimClock,
        trace: Option<AccessTrace>,
        store: Box<dyn DataStore>,
    ) -> Self {
        Self {
            id,
            name: name.into(),
            timing,
            store,
            stats: DeviceStats::default(),
            trace,
            clock,
            charged_block_bytes: Self::DEFAULT_BLOCK_BYTES,
            capacity_slots: None,
            cache: None,
            retry: RetryPolicy::default(),
            retry_stats: RetryStats::default(),
        }
    }

    /// Installs a block cache in front of the store, replacing any
    /// existing one. Residency starts empty; the cache warms from
    /// subsequent traffic ([`write_run`](Self::write_run) populates it
    /// write-through, random reads promote on miss).
    pub fn install_cache(&mut self, config: CacheConfig) {
        self.cache = Some(BlockCache::new(config));
    }

    /// The installed cache's counters, if any.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// The device identifier used in traces.
    pub fn id(&self) -> DeviceId {
        self.id
    }

    /// Human-readable device name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sets the logical block size charged per access (payload scaling).
    pub fn set_charged_block_bytes(&mut self, bytes: u64) {
        assert!(bytes > 0, "charged block size must be positive");
        self.charged_block_bytes = bytes;
    }

    /// The logical block size charged per access.
    pub fn charged_block_bytes(&self) -> u64 {
        self.charged_block_bytes
    }

    /// Bounds the device to `slots` block slots; accesses beyond return
    /// [`StorageError::OutOfCapacity`].
    pub fn set_capacity_slots(&mut self, slots: u64) {
        self.capacity_slots = Some(slots);
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    /// Sets the transient-fault retry policy.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        assert!(policy.max_attempts > 0, "at least one attempt is required");
        self.retry = policy;
    }

    /// The transient-fault retry policy in effect.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Retry counters (volatile; not part of snapshots).
    pub fn retry_stats(&self) -> RetryStats {
        self.retry_stats
    }

    /// Replaces the backing store with `wrap(store)` — the seam for
    /// interposing an adapter (e.g. [`crate::fault::FaultyStore`])
    /// between a built device and its data.
    pub fn wrap_store(&mut self, wrap: impl FnOnce(Box<dyn DataStore>) -> Box<dyn DataStore>) {
        let inner = std::mem::replace(&mut self.store, Box::new(BlockStore::new()));
        self.store = wrap(inner);
    }

    /// Counters of injected faults, when the backing store is a
    /// [`crate::fault::FaultyStore`].
    pub fn fault_stats(&self) -> Option<crate::fault::FaultStats> {
        self.store.fault_stats()
    }

    /// Resets statistics and timing-model locality state. Cache
    /// *counters* reset too; cache *residency* is deliberately kept —
    /// benches reset accounting after warm-up precisely to measure the
    /// warm cache.
    pub fn reset_accounting(&mut self) {
        self.stats = DeviceStats::default();
        self.retry_stats = RetryStats::default();
        self.timing.reset();
        if let Some(cache) = &mut self.cache {
            cache.reset_stats();
        }
    }

    /// Number of blocks currently stored.
    pub fn stored_blocks(&self) -> usize {
        self.store.len()
    }

    /// Peak sequential bandwidth of the underlying model, bytes/second.
    pub fn sequential_bandwidth(&self, kind: AccessKind) -> f64 {
        self.timing.sequential_bandwidth(kind)
    }

    fn check_capacity(&self, addr: u64) -> Result<(), StorageError> {
        if let Some(cap) = self.capacity_slots {
            if addr >= cap {
                return Err(StorageError::OutOfCapacity {
                    device: self.name.clone(),
                    addr,
                    capacity: cap,
                });
            }
        }
        Ok(())
    }

    fn record(&mut self, kind: AccessKind, addr: u64, bytes: u64, cost: SimDuration) {
        // Fold in latency the store injected since the last access (fault
        // simulation): spikes stretch the access's cost, never its shape.
        let injected = self.store.take_injected_latency_nanos();
        let cost = cost + SimDuration::from_nanos(injected);
        self.stats.record(kind, bytes, cost);
        if let Some(trace) = &self.trace {
            trace.record(TraceEvent {
                at: self.clock.now(),
                device: self.id,
                kind,
                addr,
                bytes,
            });
        }
    }

    /// Runs `op` against the store, retrying transient faults under the
    /// device's [`RetryPolicy`]. Returns the result plus the simulated
    /// backoff accrued, which the caller folds into the access's recorded
    /// cost — retries never add trace events, so the adversary-visible
    /// shape is that of a single access that took longer.
    fn with_store_retry<T>(
        &mut self,
        mut op: impl FnMut(&mut dyn DataStore) -> Result<T, StorageError>,
    ) -> Result<(T, SimDuration), StorageError> {
        let policy = self.retry;
        let mut backoff = SimDuration::ZERO;
        let mut attempt: u32 = 0;
        loop {
            match op(&mut *self.store) {
                Ok(value) => {
                    self.note_retries(attempt, backoff, false);
                    return Ok((value, backoff));
                }
                Err(e) if e.is_transient() && attempt + 1 < policy.max_attempts => {
                    backoff += policy.backoff_step(attempt);
                    attempt += 1;
                }
                Err(e) => {
                    self.note_retries(attempt, backoff, e.is_transient());
                    return Err(e);
                }
            }
        }
    }

    /// Books retry activity into the volatile counters. Nothing reaches
    /// the trace: a retried access records its one event like any other.
    fn note_retries(&mut self, retries: u32, backoff: SimDuration, exhausted: bool) {
        if retries == 0 && !exhausted {
            return;
        }
        self.retry_stats.retries += u64::from(retries);
        self.retry_stats.backoff_nanos += backoff.as_nanos();
        if exhausted {
            self.retry_stats.exhausted += 1;
        }
    }

    /// Reads the sealed block at slot `addr` into `out`, charging one
    /// random-capable access. `out`'s buffer is reused: a caller that
    /// keeps its block reads without allocating.
    ///
    /// # Errors
    ///
    /// [`StorageError::MissingBlock`] if the slot is empty,
    /// [`StorageError::OutOfCapacity`] if beyond a configured capacity.
    pub fn read_block(&mut self, addr: u64, out: &mut SealedBlock) -> Result<(), StorageError> {
        self.check_capacity(addr)?;
        let bytes = self.charged_block_bytes;
        if let Some(cache) = &mut self.cache {
            if cache.contains(addr) {
                cache.serve_hit(addr, out);
                let cost = cache.hit_cost();
                self.record(AccessKind::Read, addr, bytes, cost);
                return Ok(());
            }
            cache.note_miss();
        }
        let (found, backoff) = self.with_store_retry(|s| s.get(addr, out))?;
        if !found {
            return Err(StorageError::MissingBlock {
                device: self.name.clone(),
                addr,
            });
        }
        if let Some(cache) = &mut self.cache {
            cache.promote_cold(addr, out, &mut *self.store)?;
        }
        let cost = self
            .timing
            .access_cost(AccessKind::Read, addr * bytes, bytes);
        self.record(AccessKind::Read, addr, bytes, cost + backoff);
        Ok(())
    }

    /// Writes a copy of `block` to slot `addr`, charging one
    /// random-capable access.
    ///
    /// # Errors
    ///
    /// [`StorageError::OutOfCapacity`] if beyond a configured capacity.
    pub fn write_block(&mut self, addr: u64, block: &SealedBlock) -> Result<(), StorageError> {
        self.check_capacity(addr)?;
        let bytes = self.charged_block_bytes;
        // The cold cost is computed in both paths: the write eventually
        // lands on the device, so its timing model must see the command
        // (head/locality state advances identically).
        let cold_cost = self
            .timing
            .access_cost(AccessKind::Write, addr * bytes, bytes);
        let cost = if let Some(cache) = &mut self.cache {
            // Write-back absorb: the cache becomes the authority; the
            // caller pays the DRAM copy plus the synchronous fraction of
            // the cold write, the rest being flushed in the background
            // (eviction/sync move the data without further charge).
            cache.absorb_write(addr, block, &mut *self.store)?;
            let sync_nanos =
                (cold_cost.as_nanos() as f64 * cache.writeback_sync_fraction()).round() as u64;
            cache.hit_cost() + SimDuration::from_nanos(sync_nanos)
        } else {
            cold_cost + self.with_store_retry(|s| s.put(addr, block))?.1
        };
        self.record(AccessKind::Write, addr, bytes, cost);
        Ok(())
    }

    /// Reads the sealed blocks at the given slots as **one queued batch**:
    /// the device sees all commands at once and schedules them internally
    /// (see [`TimingModel::scatter_costs`]), so the per-op overhead
    /// coalesces. Observably identical to issuing
    /// [`read_block`](Self::read_block) per slot in the same order — the
    /// trace records one event per slot, in submission order, with the
    /// same addresses and byte counts — only the simulated costs shrink.
    /// Empty slots yield `None` (they still pay and trace their access).
    ///
    /// # Errors
    ///
    /// [`StorageError::OutOfCapacity`] if any slot is beyond a configured
    /// capacity (checked before any access is charged).
    pub fn read_scatter(&mut self, addrs: &[u64]) -> Result<Vec<ScatterItem>, StorageError> {
        if addrs.is_empty() {
            return Ok(Vec::new());
        }
        for &addr in addrs {
            self.check_capacity(addr)?;
        }
        let bytes = self.charged_block_bytes;
        if self.cache.is_some() {
            return self.read_scatter_cached(addrs, bytes);
        }
        let offsets: Vec<u64> = addrs.iter().map(|&addr| addr * bytes).collect();
        let costs = self.timing.scatter_costs(AccessKind::Read, &offsets, bytes);
        let mut out = Vec::with_capacity(addrs.len());
        for (&addr, base_cost) in addrs.iter().zip(costs) {
            let mut block = SealedBlock::default();
            let (found, backoff) = self.with_store_retry(|s| s.get(addr, &mut block))?;
            let block = found.then_some(block);
            let cost = base_cost + backoff;
            self.record(AccessKind::Read, addr, bytes, cost);
            out.push(ScatterItem { block, cost });
        }
        Ok(out)
    }

    /// The cached half of [`read_scatter`](Self::read_scatter): the batch
    /// splits into cache hits at the flat hit cost and cold misses priced
    /// by the device's queued-batch timing, while the *recorded* op sequence
    /// stays exactly the uncached one: one event per slot, in submission
    /// order, same addresses and byte counts. Only the attributed costs
    /// change; see [`crate::cache`] for the obliviousness argument.
    fn read_scatter_cached(
        &mut self,
        addrs: &[u64],
        bytes: u64,
    ) -> Result<Vec<ScatterItem>, StorageError> {
        let cache = self.cache.as_mut().expect("caller checked");
        let hits: Vec<bool> = addrs.iter().map(|&a| cache.contains(a)).collect();
        let hit_cost = cache.hit_cost();

        // Serve hits *before* any cold promotion can evict a planned hit
        // out from under the batch.
        let mut blocks: Vec<Option<SealedBlock>> = addrs
            .iter()
            .zip(&hits)
            .map(|(&addr, &hit)| {
                hit.then(|| {
                    let mut block = SealedBlock::default();
                    cache.serve_hit(addr, &mut block);
                    block
                })
            })
            .collect();
        // The device prices the misses as the command sequence it
        // actually receives, in submission order.
        let cold_offsets: Vec<u64> = addrs
            .iter()
            .zip(&hits)
            .filter(|(_, &hit)| !hit)
            .map(|(&a, _)| a * bytes)
            .collect();
        let mut cold_costs = self
            .timing
            .scatter_costs(AccessKind::Read, &cold_offsets, bytes)
            .into_iter();
        let mut backoffs = vec![SimDuration::ZERO; addrs.len()];
        for (i, (&addr, &hit)) in addrs.iter().zip(&hits).enumerate() {
            if !hit {
                self.cache.as_mut().expect("caller checked").note_miss();
                let mut block = SealedBlock::default();
                let (found, backoff) = self.with_store_retry(|s| s.get(addr, &mut block))?;
                backoffs[i] = backoff;
                if found {
                    let cache = self.cache.as_mut().expect("caller checked");
                    cache.promote_cold(addr, &block, &mut *self.store)?;
                    blocks[i] = Some(block);
                }
            }
        }
        let mut out = Vec::with_capacity(addrs.len());
        for (i, ((&addr, &hit), block)) in addrs.iter().zip(&hits).zip(blocks).enumerate() {
            let cost = if hit {
                hit_cost
            } else {
                cold_costs.next().expect("one cost per cold op") + backoffs[i]
            };
            self.record(AccessKind::Read, addr, bytes, cost);
            out.push(ScatterItem { block, cost });
        }
        Ok(out)
    }

    /// Removes and returns the block at `addr` without charging time
    /// (used by shuffle logic that has already paid for a streaming read).
    ///
    /// # Errors
    ///
    /// Backend errors propagate (transient faults are retried first).
    pub fn take_block(&mut self, addr: u64) -> Result<Option<SealedBlock>, StorageError> {
        // The cache is the authority for slots it holds dirty; either way
        // every tier's copy must go.
        let dirty = self.cache.as_mut().and_then(|c| c.invalidate(addr));
        let (stored, _) = self.with_store_retry(|s| s.remove(addr))?;
        Ok(dirty.or(stored))
    }

    /// Reads `count` consecutive slots starting at `start` as one streaming
    /// run: a single seek, then sequential transfer. Empty slots yield
    /// `None` entries (the run still pays full transfer time, exactly like
    /// reading a raw region).
    pub fn read_run(
        &mut self,
        start: u64,
        count: u64,
    ) -> Result<Vec<Option<SealedBlock>>, StorageError> {
        if count == 0 {
            return Ok(Vec::new());
        }
        self.check_capacity(start + count - 1)?;
        // Merge the cache's dirty copies over the stored run: the cache is
        // the authority for slots it absorbed write-back.
        let mut backoff_total = SimDuration::ZERO;
        let mut blocks: Vec<Option<SealedBlock>> = Vec::with_capacity(count as usize);
        for a in start..start + count {
            if let Some(dirty) = self.cache.as_ref().and_then(|c| c.dirty_copy(a)) {
                blocks.push(Some(dirty.clone()));
                continue;
            }
            let mut block = SealedBlock::default();
            let (found, backoff) = self.with_store_retry(|s| s.get(a, &mut block))?;
            backoff_total += backoff;
            blocks.push(found.then_some(block));
        }
        let bytes = self.charged_block_bytes * count;
        let cost =
            self.timing
                .streaming_cost(AccessKind::Read, start * self.charged_block_bytes, bytes);
        self.record(AccessKind::Read, start, bytes, cost + backoff_total);
        Ok(blocks)
    }

    /// Reads `count` consecutive slots starting at `start` as one
    /// streaming run, **removing** the blocks from the store — identical
    /// charge and trace to [`read_run`](Self::read_run), but the slots
    /// are emptied as they are read. The shuffle uses this: every taken
    /// slot is rewritten before the pass ends.
    ///
    /// # Errors
    ///
    /// As [`read_run`](Self::read_run).
    pub fn take_run(
        &mut self,
        start: u64,
        count: u64,
    ) -> Result<Vec<Option<SealedBlock>>, StorageError> {
        if count == 0 {
            return Ok(Vec::new());
        }
        self.check_capacity(start + count - 1)?;
        // Taking a slot removes every tier's copy; the cache's dirty copy
        // (when it holds one) is the authoritative value handed back.
        let mut backoff_total = SimDuration::ZERO;
        let mut blocks: Vec<Option<SealedBlock>> = Vec::with_capacity(count as usize);
        for a in start..start + count {
            let dirty = self.cache.as_mut().and_then(|c| c.invalidate(a));
            let (stored, backoff) = self.with_store_retry(|s| s.remove(a))?;
            backoff_total += backoff;
            blocks.push(dirty.or(stored));
        }
        let bytes = self.charged_block_bytes * count;
        let cost =
            self.timing
                .streaming_cost(AccessKind::Read, start * self.charged_block_bytes, bytes);
        self.record(AccessKind::Read, start, bytes, cost + backoff_total);
        Ok(blocks)
    }

    /// Writes `blocks` to consecutive slots starting at `start` as one
    /// streaming run. Accepts any exact-size iterator, so sealing
    /// pipelines can stream blocks in without materializing an extra
    /// vector.
    pub fn write_run<I>(&mut self, start: u64, blocks: I) -> Result<(), StorageError>
    where
        I: IntoIterator<Item = SealedBlock>,
        I::IntoIter: ExactSizeIterator,
    {
        let blocks = blocks.into_iter();
        let count = blocks.len() as u64;
        if count == 0 {
            return Ok(());
        }
        self.check_capacity(start + count - 1)?;
        // Streaming runs are write-*through*: the store is updated
        // immediately (shuffle rebuilds make cold storage authoritative),
        // and the cache keeps clean copies of the run — this population
        // is exactly where next period's hits come from, since the
        // once-per-period invariant means a promoted random read is never
        // re-read before the next shuffle rewrites it.
        let mut backoff_total = SimDuration::ZERO;
        for (i, block) in blocks.enumerate() {
            let addr = start + i as u64;
            if let Some(cache) = &mut self.cache {
                cache.populate(addr, block.clone(), &mut *self.store)?;
            }
            backoff_total += self.with_store_retry(|s| s.put(addr, &block))?.1;
        }
        let bytes = self.charged_block_bytes * count;
        let cost =
            self.timing
                .streaming_cost(AccessKind::Write, start * self.charged_block_bytes, bytes);
        self.record(AccessKind::Write, start, bytes, cost + backoff_total);
        Ok(())
    }

    /// Charges an access of `bytes` at slot `addr` without touching data.
    ///
    /// Protocols use this for accesses whose data movement is modelled
    /// elsewhere (e.g. dummy reads that discard their result).
    pub fn charge(&mut self, kind: AccessKind, addr: u64, bytes: u64) -> SimDuration {
        let cost = self
            .timing
            .access_cost(kind, addr * self.charged_block_bytes, bytes);
        self.record(kind, addr, bytes, cost);
        cost
    }

    /// Drops all stored blocks, in every cache tier and the store (data
    /// only; stats and timing state remain).
    ///
    /// # Errors
    ///
    /// Backend I/O errors propagate.
    pub fn clear(&mut self) -> Result<(), StorageError> {
        if let Some(cache) = &mut self.cache {
            cache.clear();
        }
        self.store.clear()
    }

    /// Durability barrier: flushes and commits the underlying store
    /// (no-op for volatile stores). Checkpoints call this before sealing
    /// the trusted-state snapshot, so the on-disk image a recovery adopts
    /// is exactly the one the snapshot describes.
    ///
    /// # Errors
    ///
    /// Backend I/O errors propagate.
    pub fn sync(&mut self) -> Result<(), StorageError> {
        if let Some(cache) = &mut self.cache {
            cache.flush(&mut *self.store)?;
        }
        // Sync is not a traced access; the backoff is dropped (checkpoint
        // time is not part of the serving-time model).
        let ((), _backoff) = self.with_store_retry(|s| s.sync())?;
        Ok(())
    }

    /// Keyed fingerprint over the store's full logical contents (slot
    /// order), used to pin a snapshot to the exact device image it was
    /// taken against. The key is fixed and non-secret — this is an
    /// integrity cross-check between two locally produced artifacts, not
    /// an authenticator (the blocks are already sealed).
    fn store_fingerprint(&mut self) -> Result<u64, StorageError> {
        let blocks = self.store.snapshot_blocks()?;
        let mut mac = oram_crypto::siphash::SipHash24::new(b"horam-dev-fngrpt");
        mac.write_u64(blocks.len() as u64);
        for (addr, block) in blocks {
            mac.write_u64(addr);
            mac.write_u64(block.block_id());
            mac.write_u64(block.epoch());
            mac.write_u64(block.tag());
            mac.write_u64(block.ciphertext().len() as u64);
            mac.write(block.ciphertext());
        }
        Ok(mac.finish())
    }

    /// Serializes the device's mutable state: statistics, timing-model
    /// locality state, and — for volatile stores only — the stored
    /// blocks. Durable stores persist their own data; the snapshot
    /// records their occupancy count and a content fingerprint, so a
    /// restore against a device file from a *different* checkpoint fails
    /// closed instead of adopting mismatched state.
    ///
    /// # Errors
    ///
    /// Backend I/O errors propagate.
    pub fn save_state(&mut self, w: &mut StateWriter) -> Result<(), StorageError> {
        // Flush the cache's dirty blocks first, so the store contents the
        // snapshot embeds (or fingerprints) already include every
        // absorbed write — the cache section then only needs residency
        // metadata, never block bytes.
        if let Some(cache) = &mut self.cache {
            cache.flush(&mut *self.store)?;
        }
        let stats = self.stats;
        w.put_u64(stats.reads);
        w.put_u64(stats.writes);
        w.put_u64(stats.bytes_read);
        w.put_u64(stats.bytes_written);
        w.put_u64(stats.busy.as_nanos());
        w.put_u64(stats.busy_read.as_nanos());
        w.put_u64(stats.busy_write.as_nanos());
        let words = self.timing.state_words();
        w.put_usize(words.len());
        for word in words {
            w.put_u64(word);
        }
        w.put_u64(self.charged_block_bytes);
        w.put_bool(self.store.durable());
        if self.store.durable() {
            w.put_usize(self.store.len());
            w.put_u64(self.store_fingerprint()?);
        } else {
            let blocks = self.store.snapshot_blocks()?;
            w.put_usize(blocks.len());
            for (addr, block) in blocks {
                w.put_u64(addr);
                w.put_u64(block.block_id());
                w.put_u64(block.epoch());
                w.put_u64(block.tag());
                w.put_bytes(block.ciphertext());
            }
        }
        w.put_bool(self.cache.is_some());
        if let Some(cache) = &self.cache {
            cache.save_state(w);
        }
        Ok(())
    }

    /// Restores state captured by [`save_state`](Self::save_state) onto a
    /// freshly built device of the same shape. For durable stores the
    /// on-disk contents are adopted as-is, after the occupancy count
    /// *and* content fingerprint are verified against the snapshot — a
    /// device file committed at a different checkpoint than the snapshot
    /// (e.g. restoring an old snapshot over a file whose journal rolled
    /// back to a newer sync) is rejected here; for volatile stores the
    /// snapshot's blocks replace the store contents.
    ///
    /// # Errors
    ///
    /// [`PersistError`] for malformed snapshots or a durability/occupancy
    /// mismatch between snapshot and device.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), PersistError> {
        let stats = DeviceStats {
            reads: r.get_u64()?,
            writes: r.get_u64()?,
            bytes_read: r.get_u64()?,
            bytes_written: r.get_u64()?,
            busy: SimDuration::from_nanos(r.get_u64()?),
            busy_read: SimDuration::from_nanos(r.get_u64()?),
            busy_write: SimDuration::from_nanos(r.get_u64()?),
        };
        let word_count = r.get_usize()?;
        let mut words = Vec::with_capacity(word_count);
        for _ in 0..word_count {
            words.push(r.get_u64()?);
        }
        let charged = r.get_u64()?;
        let durable = r.get_bool()?;
        if durable != self.store.durable() {
            return Err(PersistError::Malformed(format!(
                "snapshot taken on a {} store, restoring onto a {} one",
                if durable { "durable" } else { "volatile" },
                if self.store.durable() {
                    "durable"
                } else {
                    "volatile"
                },
            )));
        }
        if durable {
            let expected = r.get_usize()?;
            let expected_fingerprint = r.get_u64()?;
            if self.store.len() != expected {
                return Err(PersistError::Malformed(format!(
                    "durable store holds {} blocks, snapshot expects {expected} \
                     (device file does not match the snapshot's checkpoint)",
                    self.store.len()
                )));
            }
            let fingerprint = self
                .store_fingerprint()
                .map_err(|e| PersistError::Malformed(format!("fingerprinting store: {e}")))?;
            if fingerprint != expected_fingerprint {
                return Err(PersistError::Malformed(
                    "durable store contents do not match the snapshot's checkpoint \
                     (the device file was committed at a different sync point)"
                        .to_string(),
                ));
            }
        } else {
            let count = r.get_usize()?;
            let mut blocks = Vec::with_capacity(count);
            for _ in 0..count {
                let addr = r.get_u64()?;
                let block_id = r.get_u64()?;
                let epoch = r.get_u64()?;
                let tag = r.get_u64()?;
                let body = r.get_bytes()?.to_vec();
                blocks.push((addr, SealedBlock::from_parts(block_id, epoch, body, tag)));
            }
            self.store
                .install_blocks(blocks)
                .map_err(|e| PersistError::Malformed(format!("installing blocks: {e}")))?;
        }
        let has_cache = r.get_bool()?;
        if has_cache != self.cache.is_some() {
            return Err(PersistError::Malformed(format!(
                "snapshot taken with a cache {}, restoring onto a device {} one",
                if has_cache { "installed" } else { "absent" },
                if self.cache.is_some() {
                    "with"
                } else {
                    "without"
                },
            )));
        }
        // Temporarily take the cache so it can repopulate from the store
        // without aliasing `self`.
        if let Some(mut cache) = self.cache.take() {
            let result = cache.load_state(r, &mut *self.store);
            self.cache = Some(cache);
            result?;
        }
        self.stats = stats;
        self.timing.restore_state_words(&words);
        self.charged_block_bytes = charged;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::DramModel;
    use crate::hdd::HddModel;
    use oram_crypto::keys::MasterKey;
    use oram_crypto::seal::BlockSealer;

    fn sealer() -> BlockSealer {
        BlockSealer::new(&MasterKey::from_bytes([1u8; 32]).derive("dev-test", 0))
    }

    fn read(dev: &mut Device, addr: u64) -> Result<SealedBlock, StorageError> {
        let mut block = SealedBlock::default();
        dev.read_block(addr, &mut block).map(|()| block)
    }

    fn dram_device(trace: Option<AccessTrace>) -> Device {
        Device::new(
            DeviceId(1),
            "dram",
            Box::new(DramModel::ddr4_2133()),
            SimClock::new(),
            trace,
        )
    }

    #[test]
    fn read_back_what_was_written() {
        let mut dev = dram_device(None);
        let sealed = sealer().seal(7, 0, b"contents");
        dev.write_block(7, &sealed).unwrap();
        assert_eq!(read(&mut dev, 7).unwrap(), sealed);
        assert_eq!(dev.stored_blocks(), 1);
    }

    #[test]
    fn missing_block_errors() {
        let mut dev = dram_device(None);
        assert!(matches!(
            read(&mut dev, 3),
            Err(StorageError::MissingBlock { addr: 3, .. })
        ));
    }

    #[test]
    fn capacity_is_enforced() {
        let mut dev = dram_device(None);
        dev.set_capacity_slots(4);
        let sealed = sealer().seal(4, 0, b"x");
        assert!(matches!(
            dev.write_block(4, &sealed),
            Err(StorageError::OutOfCapacity {
                addr: 4,
                capacity: 4,
                ..
            })
        ));
    }

    #[test]
    fn stats_accumulate_reads_and_writes() {
        let mut dev = dram_device(None);
        dev.write_block(0, &sealer().seal(0, 0, b"a")).unwrap();
        read(&mut dev, 0).unwrap();
        read(&mut dev, 0).unwrap();
        let stats = dev.stats();
        assert_eq!(stats.reads, 2);
        assert_eq!(stats.writes, 1);
        assert_eq!(stats.bytes_read, 2 * Device::DEFAULT_BLOCK_BYTES);
        assert!(stats.busy > SimDuration::ZERO);
    }

    #[test]
    fn trace_records_bus_view() {
        let trace = AccessTrace::recording();
        let mut dev = dram_device(Some(trace.clone()));
        dev.write_block(5, &sealer().seal(5, 0, b"abc")).unwrap();
        read(&mut dev, 5).unwrap();
        let events = trace.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, AccessKind::Write);
        assert_eq!(events[0].addr, 5);
        assert_eq!(events[1].kind, AccessKind::Read);
    }

    #[test]
    fn charged_bytes_scale_timing_not_data() {
        let mut small = dram_device(None);
        let mut big = dram_device(None);
        big.set_charged_block_bytes(64 * 1024);
        let sealed = sealer().seal(0, 0, b"tiny");
        small.write_block(0, &sealed).unwrap();
        big.write_block(0, &sealed).unwrap();
        assert!(big.stats().busy > small.stats().busy);
        assert_eq!(
            read(&mut big, 0).unwrap().ciphertext(),
            read(&mut small, 0).unwrap().ciphertext()
        );
    }

    #[test]
    fn streaming_run_is_cheaper_than_random_on_hdd() {
        let mk_hdd = || {
            Device::new(
                DeviceId(0),
                "hdd",
                Box::new(HddModel::paper_calibrated()),
                SimClock::new(),
                None,
            )
        };
        let mut random = mk_hdd();
        let mut streaming = mk_hdd();
        let s = sealer();
        for addr in 0..64u64 {
            random
                .write_block(addr * 97 % 64, &s.seal(addr, 0, b"d"))
                .unwrap();
        }
        streaming
            .write_run(0, (0..64).map(|a| s.seal(a, 0, b"d")).collect::<Vec<_>>())
            .unwrap();
        assert!(
            streaming.stats().busy.as_nanos() * 5 < random.stats().busy.as_nanos(),
            "streaming {} vs random {}",
            streaming.stats().busy,
            random.stats().busy
        );
    }

    #[test]
    fn read_run_returns_gaps_as_none() {
        let mut dev = dram_device(None);
        dev.write_block(2, &sealer().seal(2, 0, b"x")).unwrap();
        let run = dev.read_run(0, 4).unwrap();
        assert_eq!(run.len(), 4);
        assert!(run[0].is_none() && run[1].is_none() && run[3].is_none());
        assert!(run[2].is_some());
    }

    #[test]
    fn empty_runs_are_free() {
        let mut dev = dram_device(None);
        assert!(dev.read_run(0, 0).unwrap().is_empty());
        dev.write_run(9, Vec::new()).unwrap();
        assert_eq!(dev.stats().reads + dev.stats().writes, 0);
    }

    #[test]
    fn read_scatter_trace_and_counts_match_sequential_reads() {
        let s = sealer();
        let addrs: Vec<u64> = vec![9, 3, 27, 14];
        let build = |trace: AccessTrace| {
            let mut dev = Device::new(
                DeviceId(0),
                "hdd",
                Box::new(HddModel::paper_calibrated()),
                SimClock::new(),
                Some(trace),
            );
            for &a in &addrs {
                dev.write_block(a, &s.seal(a, 0, b"x")).unwrap();
            }
            dev.reset_accounting();
            dev
        };
        let seq_trace = AccessTrace::recording();
        let mut sequential = build(seq_trace.clone());
        seq_trace.clear();
        let seq_blocks: Vec<SealedBlock> = addrs
            .iter()
            .map(|&a| read(&mut sequential, a).unwrap())
            .collect();

        let bat_trace = AccessTrace::recording();
        let mut batched = build(bat_trace.clone());
        bat_trace.clear();
        let bat_items = batched.read_scatter(&addrs).unwrap();

        // Identical adversary view: same events, same order (timestamps
        // aside — the shared clock is advanced by the caller).
        assert_eq!(seq_trace.untimed(), bat_trace.untimed());
        // Identical data and op/byte accounting.
        let bat_blocks: Vec<SealedBlock> =
            bat_items.into_iter().map(|i| i.block.unwrap()).collect();
        assert_eq!(seq_blocks, bat_blocks);
        assert_eq!(sequential.stats().reads, batched.stats().reads);
        assert_eq!(sequential.stats().bytes_read, batched.stats().bytes_read);
        // Strictly cheaper in simulated time (queued scheduling).
        assert!(batched.stats().busy < sequential.stats().busy);
    }

    #[test]
    fn scatter_on_empty_input_is_free() {
        let mut dev = dram_device(None);
        assert!(dev.read_scatter(&[]).unwrap().is_empty());
        assert_eq!(dev.stats().ops(), 0);
    }

    #[test]
    fn scatter_capacity_checked_before_any_charge() {
        let mut dev = dram_device(None);
        dev.set_capacity_slots(4);
        assert!(matches!(
            dev.read_scatter(&[1, 9]),
            Err(StorageError::OutOfCapacity { addr: 9, .. })
        ));
        assert_eq!(dev.stats().ops(), 0);
    }

    #[test]
    fn take_run_charges_like_read_run_and_removes() {
        let s = sealer();
        let mut reader = dram_device(None);
        let mut taker = dram_device(None);
        for dev in [&mut reader, &mut taker] {
            for a in 0..4u64 {
                dev.write_block(a, &s.seal(a, 0, b"r")).unwrap();
            }
            dev.reset_accounting();
        }
        let read = reader.read_run(0, 4).unwrap();
        let taken = taker.take_run(0, 4).unwrap();
        assert_eq!(read, taken);
        assert_eq!(reader.stats(), taker.stats());
        assert_eq!(reader.stored_blocks(), 4, "read_run clones");
        assert_eq!(taker.stored_blocks(), 0, "take_run removes");
        assert!(taker.take_run(0, 0).unwrap().is_empty());
    }

    #[test]
    fn charge_records_without_data() {
        let mut dev = dram_device(None);
        let cost = dev.charge(AccessKind::Read, 11, 1024);
        assert!(cost > SimDuration::ZERO);
        assert_eq!(dev.stats().reads, 1);
        assert_eq!(dev.stored_blocks(), 0);
    }

    #[test]
    fn reset_accounting_clears_stats_but_not_data() {
        let mut dev = dram_device(None);
        dev.write_block(0, &sealer().seal(0, 0, b"keep")).unwrap();
        dev.reset_accounting();
        assert_eq!(dev.stats().writes, 0);
        assert_eq!(dev.stored_blocks(), 1);
    }

    use crate::fault::{FaultConfig, FaultyStore};

    /// Builds a traced HDD device pre-loaded with `blocks` addresses, then
    /// interposes the given fault schedule and clears all accounting so
    /// only the faulted phase is observed.
    fn faulted_device(trace: AccessTrace, config: FaultConfig, blocks: u64) -> Device {
        let s = sealer();
        let mut dev = Device::new(
            DeviceId(0),
            "hdd",
            Box::new(HddModel::paper_calibrated()),
            SimClock::new(),
            Some(trace.clone()),
        );
        for a in 0..blocks {
            dev.write_block(a, &s.seal(a, 0, b"r")).unwrap();
        }
        dev.wrap_store(|inner| Box::new(FaultyStore::new(inner, config)));
        dev.reset_accounting();
        trace.clear();
        dev
    }

    #[test]
    fn transient_faults_are_retried_and_charged_as_backoff() {
        let trace = AccessTrace::new();
        // 20% fault rate, 8 attempts: the chance of any of 64 reads
        // exhausting is negligible, and the run is seeded/deterministic.
        let mut dev = faulted_device(trace, FaultConfig::transient(11, 200), 64);
        dev.set_retry_policy(RetryPolicy {
            max_attempts: 8,
            ..RetryPolicy::default()
        });
        for a in 0..64u64 {
            read(&mut dev, a).unwrap();
        }
        let rs = dev.retry_stats();
        assert!(rs.retries > 0, "seed 11 at 20% must fault at least once");
        assert!(rs.backoff_nanos > 0);
        assert_eq!(rs.exhausted, 0);
        // Backoff is charged into device busy time.
        let clean = faulted_device(AccessTrace::new(), FaultConfig::default(), 64);
        let mut clean = clean;
        for a in 0..64u64 {
            read(&mut clean, a).unwrap();
        }
        assert_eq!(
            dev.stats().busy.as_nanos(),
            clean.stats().busy.as_nanos() + rs.backoff_nanos
        );
    }

    #[test]
    fn retry_trace_shape_matches_fault_free_run() {
        let clean_trace = AccessTrace::recording();
        let mut clean = faulted_device(clean_trace.clone(), FaultConfig::default(), 32);
        let faulty_trace = AccessTrace::recording();
        let mut faulty = faulted_device(faulty_trace.clone(), FaultConfig::transient(7, 200), 32);
        faulty.set_retry_policy(RetryPolicy {
            max_attempts: 8,
            ..RetryPolicy::default()
        });
        let s = sealer();
        for dev in [&mut clean, &mut faulty] {
            for a in 0..32u64 {
                read(dev, a).unwrap();
                dev.write_block(a, &s.seal(a, 1, b"w")).unwrap();
            }
            dev.read_scatter(&[3, 17, 9]).unwrap();
            dev.take_block(5).unwrap();
        }
        assert!(
            faulty.retry_stats().retries > 0,
            "fixture must exercise retries"
        );
        // Same events, same order, same sizes: retries are timing-only.
        assert_eq!(clean_trace.untimed(), faulty_trace.untimed());
    }

    #[test]
    fn exhausted_retries_surface_the_transient_error() {
        // 100% fault rate: every attempt fails, the policy runs dry.
        let mut dev = faulted_device(AccessTrace::new(), FaultConfig::transient(3, 1000), 4);
        let max = dev.retry_policy().max_attempts;
        let err = read(&mut dev, 2).unwrap_err();
        assert!(
            err.is_transient(),
            "exhaustion surfaces the last error: {err}"
        );
        let rs = dev.retry_stats();
        assert_eq!(rs.exhausted, 1);
        assert_eq!(rs.retries, u64::from(max) - 1);
    }

    #[test]
    fn permanent_faults_are_not_retried() {
        let config = FaultConfig {
            permanent_slots: vec![2],
            ..FaultConfig::default()
        };
        let mut dev = faulted_device(AccessTrace::new(), config, 4);
        assert!(matches!(
            read(&mut dev, 2),
            Err(StorageError::PermanentFault { addr: 2, .. })
        ));
        assert_eq!(dev.retry_stats().retries, 0, "dead slots retry nothing");
        // Other slots keep serving.
        read(&mut dev, 1).unwrap();
    }

    #[test]
    fn latency_spikes_charge_time_without_trace_changes() {
        let config = FaultConfig {
            seed: 5,
            latency_spike_permille: 1000,
            latency_spike_nanos: 1_000_000,
            ..FaultConfig::default()
        };
        let trace = AccessTrace::recording();
        let mut dev = faulted_device(trace.clone(), config, 8);
        for a in 0..8u64 {
            read(&mut dev, a).unwrap();
        }
        assert_eq!(trace.snapshot().len(), 8);
        let clean = {
            let mut d = faulted_device(AccessTrace::new(), FaultConfig::default(), 8);
            for a in 0..8u64 {
                read(&mut d, a).unwrap();
            }
            d.stats().busy
        };
        assert_eq!(
            dev.stats().busy.as_nanos(),
            clean.as_nanos() + 8 * 1_000_000,
            "every read pays its spike in simulated time"
        );
    }

    #[test]
    fn retry_stats_survive_wrapping_but_not_restore() {
        let mut dev = faulted_device(AccessTrace::new(), FaultConfig::transient(3, 1000), 2);
        let _ = read(&mut dev, 0);
        assert!(dev.retry_stats().exhausted > 0);
        let mut w = StateWriter::new();
        dev.save_state(&mut w).unwrap();
        let bytes = w.into_bytes();
        let mut fresh = faulted_device(AccessTrace::new(), FaultConfig::default(), 0);
        let mut r = StateReader::new(&bytes);
        fresh.load_state(&mut r).unwrap();
        assert_eq!(
            fresh.retry_stats(),
            RetryStats::default(),
            "retry counters are volatile, never snapshotted"
        );
    }
}
