//! H-ORAM's storage layer: flat, permuted, partitioned.
//!
//! Paper §4.1.3: "the data inside is organized into N data blocks, each of
//! which stores a small, encrypted and permuted data block"; §4.3.2 divides
//! it into `√N` partitions of `√N` blocks for the group+partition shuffle.
//!
//! Layout: partition `i` occupies slots `[i·S, (i+1)·S)` where `S` is the
//! partition size including headroom (dummy slots absorb the occupancy
//! drift caused by evicted blocks landing in random partitions; overflow
//! spills into the next partition's rebuild pass and is counted).
//!
//! # The batched I/O pipeline
//!
//! Loads go through a **plan/commit** split: [`StorageLayer::plan_io`]
//! performs all control-layer state transitions for one load (slot
//! resolution, once-per-period marking, liveness and location updates)
//! without touching the device, and [`StorageLayer::commit_io`] issues
//! every planned load as **one scatter read**
//! ([`Device::read_scatter`]) so per-op device overhead coalesces.
//! [`StorageLayer::load_batch`] wraps the two, and
//! [`StorageLayer::fetch`] / [`StorageLayer::dummy_load`] are
//! single-element batches — the sequential and batched paths are the same
//! code, which is what the trace-equality tests pin down: a batch records
//! the identical adversary view (device, direction, slot, bytes, order) as
//! the per-block path, only its simulated cost shrinks.
//!
//! Decryption is zero-copy end to end: scattered blocks are opened in
//! place ([`BlockSealer::open_in_place`]), the shuffle re-seals decrypted
//! wire bodies without re-encoding ([`BlockSealer::seal_into`]), and
//! discarded ciphertext buffers recycle through a
//! [`BufferPool`] into the dummies and hot blocks the next
//! partition pass writes.
//!
//! Security invariants maintained here and asserted by tests:
//!
//! * **once per period** — every slot is read at most once between
//!   shuffles (misses read the block's permuted slot; dummy loads consume
//!   a PRP-ordered sequence of untouched slots, materialized lazily by a
//!   cycle-walking Feistel cursor instead of an O(total-slots) table);
//! * **sequential shuffle** — partitions are rebuilt in order `0..√N`
//!   (§4.3.3 argues this order leaks nothing beyond Partition ORAM's
//!   random choice, because partition access is uniform either way);
//! * **fresh epoch per full shuffle** — every rebuild re-seals under new
//!   keys, so ciphertexts cannot be correlated across periods.

use crate::config::HOramConfig;
use crate::permutation_list::Location;
use crate::pool::WorkerPool;
use crate::posmap::PositionMap;
use oram_crypto::keys::KeyHierarchy;
use oram_crypto::pool::BufferPool;
use oram_crypto::prf::Prf;
use oram_crypto::prp::FeistelPrp;
use oram_crypto::seal::{BlockSealer, SealedBlock};
use oram_protocols::error::OramError;
use oram_protocols::types::{BlockContent, BlockContentRef, BlockId};
use oram_shuffle::permutation::Permutation;
use oram_storage::clock::SimDuration;
use oram_storage::device::Device;
use oram_storage::stats::DeviceStats;
use oram_storage::StorageError;
use std::sync::Arc;

/// Result of one I/O load (real miss or dummy/prefetch load).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoLoad {
    /// The block the load produced, if the slot held a live block
    /// (dummy slots and stale copies yield `None`).
    pub block: Option<(BlockId, Vec<u8>)>,
    /// Simulated storage time of the load.
    pub duration: SimDuration,
}

/// One load of a batch: a real miss for a specific block, or a dummy load
/// consuming the next slot of the period's PRP order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadPlan {
    /// Fetch the named block from its permuted slot.
    Miss(BlockId),
    /// Read the next untouched slot in the PRP dummy order.
    Dummy,
}

/// Result of committing one planned batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchLoad {
    /// Per-plan results, aligned with the planning order.
    pub loads: Vec<IoLoad>,
    /// Total storage occupancy of the batch (what the scheduler overlaps
    /// against the batch's memory halves).
    pub io_time: SimDuration,
}

/// A load staged by [`StorageLayer::plan_io`], waiting for the batch
/// commit. All control-layer effects have already been applied; the
/// scheduler reads [`expect`](Self::expect) to know, at plan time, whether
/// the load will deliver a block to the memory tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedIo {
    /// Slot the commit will read; `None` when every slot is already
    /// touched (the over-long-period degenerate case — the commit is a
    /// zero-cost no-op, like the sequential path's).
    pub slot: Option<u64>,
    /// The block whose current copy the slot held at plan time (miss
    /// target, or opportunistic prefetch for a dummy hitting a live slot).
    pub expect: Option<BlockId>,
}

/// Timing breakdown of one shuffle pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShuffleReport {
    /// Wall-clock time with the read stream pipelined against the write
    /// stream (`max(read, write)` — §5.1's discussion of sequential
    /// shuffle speed).
    pub wall_time: SimDuration,
    /// Total storage read occupancy.
    pub read_time: SimDuration,
    /// Total storage write occupancy.
    pub write_time: SimDuration,
    /// Partitions rebuilt.
    pub partitions: u64,
    /// Blocks that overflowed a partition and spilled to the next.
    pub spilled: u64,
}

/// One slot's content between the open and seal halves of a rebuild pass.
#[derive(Debug)]
enum PassEntry {
    /// A live cold block: its decrypted wire body, carried through the
    /// permutation and re-sealed without re-encoding.
    Wire(BlockId, Vec<u8>),
    /// An evicted hot block: raw payload bytes, encoded onto a pooled
    /// buffer at seal time.
    Hot(BlockId, Vec<u8>),
}

impl PassEntry {
    fn id(&self) -> BlockId {
        match self {
            PassEntry::Wire(id, _) | PassEntry::Hot(id, _) => *id,
        }
    }
}

/// A decrypted slot of the read stream: `None` for stale/dummy slots.
type OpenedSlot = Option<(BlockId, Vec<u8>)>;

/// Crypto parameters shared by every slot of one rebuild pass. `Copy`
/// borrows only, so the parallel chunks can each carry one.
#[derive(Clone, Copy)]
struct PassCrypto<'a> {
    /// Sealer for the outgoing epoch (the pass reads under it).
    read_sealer: &'a BlockSealer,
    /// Sealer for the fresh epoch (the pass writes under it).
    write_sealer: &'a BlockSealer,
    payload_len: usize,
    wire_len: usize,
    /// Device name for fail-stop error reports.
    device: &'a str,
}

/// Returns a spent buffer to `pool`. Undersized buffers (e.g. bare
/// payloads) are dropped rather than recycled — pooling them would just
/// turn the next take into a reallocation.
fn recycle_wire_buffer(ctx: &PassCrypto<'_>, pool: &mut BufferPool, buffer: Vec<u8>) {
    if buffer.capacity() >= ctx.wire_len {
        pool.recycle(buffer);
    }
}

/// The open half of one slot: verify+decrypt a live block into its wire
/// body, recycle a discarded stale ciphertext, fail-stop on a slot the
/// metadata calls live but the device lost. Pure over `(ctx, inputs)` —
/// safe to run on any worker in any order.
fn open_pass_slot(
    ctx: &PassCrypto<'_>,
    pool: &mut BufferPool,
    addr: u64,
    owner: Option<BlockId>,
    sealed: Option<SealedBlock>,
) -> Result<OpenedSlot, OramError> {
    let Some(sealed) = sealed else {
        // A slot the metadata calls live must hold a block; fail-stop
        // (like `commit_io`) rather than silently dropping it and
        // corrupting the occupancy counts.
        if owner.is_some() {
            return Err(OramError::Storage(StorageError::MissingBlock {
                device: ctx.device.to_string(),
                addr,
            }));
        }
        return Ok(None);
    };
    match owner {
        None => {
            recycle_wire_buffer(ctx, pool, sealed.into_body());
            Ok(None)
        }
        Some(owner) => {
            let body = ctx.read_sealer.open_in_place(sealed)?;
            match BlockContent::decode_ref(&body, addr)? {
                BlockContentRef::Real { id, .. } if id == owner => Ok(Some((id, body))),
                _ => Err(OramError::MalformedBlock { slot: addr }),
            }
        }
    }
}

/// The seal half of one slot: re-home the permuted entry (or a dummy)
/// under the fresh epoch. `seq` is assigned by the caller in slot order,
/// so the ciphertext depends only on `(addr, seq, body)` — byte-identical
/// whichever worker seals it.
fn seal_pass_slot(
    ctx: &PassCrypto<'_>,
    pool: &mut BufferPool,
    addr: u64,
    seq: u64,
    entry: Option<PassEntry>,
) -> SealedBlock {
    let body = match entry {
        Some(PassEntry::Wire(_, mut body)) => {
            BlockContent::patch_wire_leaf(&mut body, 0);
            body
        }
        Some(PassEntry::Hot(id, payload)) => {
            let mut body = pool.take(ctx.wire_len);
            let content = BlockContent::Real {
                id,
                leaf: 0,
                payload,
            };
            content.encode_into(ctx.payload_len, &mut body);
            if let BlockContent::Real { payload, .. } = content {
                recycle_wire_buffer(ctx, pool, payload);
            }
            body
        }
        None => {
            let mut body = pool.take(ctx.wire_len);
            BlockContent::Dummy.encode_into(ctx.payload_len, &mut body);
            body
        }
    };
    ctx.write_sealer.seal_into(addr, seq, body)
}

/// Chunk length for splitting one pass's slots across `threads` workers.
/// Deterministic in `(len, threads)` — both phases of a pass and the
/// pre-stocking sweep must agree on it.
fn chunk_len(len: usize, threads: usize) -> usize {
    len.div_ceil(threads).max(1)
}

/// Runs `per_slot` over every `(inputs[i], outputs[i])` pair, chunked
/// across the worker pool — the shared scaffolding of both crypto halves
/// of a rebuild pass. Chunk boundaries depend only on `(len, threads)`,
/// each chunk gets exclusive use of one per-worker buffer pool, and every
/// worker pool is drained back into `shared` before returning, so buffer
/// pooling stays globally balanced and results land in slot order.
fn dispatch_chunks<I: Send, O: Send>(
    pool: &WorkerPool,
    worker_pools: &mut [BufferPool],
    shared: &mut BufferPool,
    inputs: &mut [I],
    outputs: &mut [O],
    per_slot: impl Fn(&mut BufferPool, usize, &mut I, &mut O) + Sync,
) {
    let chunk = chunk_len(inputs.len(), pool.threads());
    let per_slot = &per_slot;
    pool.scope(|scope| {
        for (chunk_index, ((in_chunk, out_chunk), wpool)) in inputs
            .chunks_mut(chunk)
            .zip(outputs.chunks_mut(chunk))
            .zip(worker_pools.iter_mut())
            .enumerate()
        {
            let chunk_base = chunk_index * chunk;
            scope.spawn(move || {
                for (j, (input, output)) in in_chunk.iter_mut().zip(out_chunk).enumerate() {
                    per_slot(wpool, chunk_base + j, input, output);
                }
            });
        }
    });
    for wpool in worker_pools {
        wpool.drain_into(shared);
    }
}

/// The storage layer. See the [module docs](self).
#[derive(Debug)]
pub struct StorageLayer {
    device: Device,
    keys: KeyHierarchy,
    sealer: BlockSealer,
    epoch: u64,
    seal_seq: u64,
    /// The position map: logical-block locations plus the slot→owner
    /// inverse (`Some(id)` while a slot holds the *current* copy of block
    /// `id`; fetching clears it, stale ciphertext remains). Flat table or
    /// recursive ORAM per [`crate::config::PosmapMode`] — built by the
    /// engine via [`crate::posmap::build_posmap`].
    posmap: Box<dyn PositionMap>,
    /// First position-map failure observed by the infallible scheduler
    /// hit test, deferred to the next [`plan_io`](Self::plan_io) call
    /// (position-map errors are instance-fatal either way).
    posmap_error: Option<OramError>,
    /// Per-partition live-block counts, maintained incrementally so
    /// rebuild capacity checks are O(1) per partition instead of a scan.
    partition_live: Vec<u64>,
    /// Read-this-period markers (the once-per-period invariant).
    touched: Vec<bool>,
    /// Lazy PRP cursor backing the dummy-load order: slot `i` of the
    /// period's order is `dummy_prp.permute(i)`, computed on demand.
    dummy_prp: FeistelPrp,
    dummy_cursor: u64,
    /// PRF from which each period's dummy-order PRP key is derived.
    dummy_prf: Prf,
    /// The current period's dummy-order PRP key, kept so snapshots can
    /// rebuild the cursor exactly (the key depends on the shuffle seed of
    /// the period that installed it, which is not otherwise recoverable).
    dummy_key: [u8; 16],
    /// Loads staged by [`plan_io`](Self::plan_io) awaiting commit.
    pending: Vec<PlannedIo>,
    /// Recycled wire-body buffers for the in-place seal/open stream.
    pool: BufferPool,
    /// Wall-clock worker pool for the rebuild stream's data-parallel
    /// crypto (`None` at `worker_threads = 1` — the serial path).
    workers: Option<Arc<WorkerPool>>,
    /// Per-chunk buffer pools for the parallel stream. Between passes the
    /// buffers live in [`pool`](Self::pool); each seal phase pre-stocks
    /// chunk `i`'s pool with exactly the buffers its slots will take, so
    /// chunked execution allocates no more than the serial path.
    worker_pools: Vec<BufferPool>,
    partition_count: u64,
    partition_slots: u64,
    capacity: u64,
    payload_len: usize,
    /// Rotating window start for partial shuffles.
    partial_window_start: u64,
    /// Monotone period counter (varies the dummy-load order even across
    /// partial shuffles, which keep the epoch key).
    period_counter: u64,
}

impl StorageLayer {
    /// Builds the layer and installs the initial permuted layout of all
    /// `N` zero-filled blocks (construction charge is reset by the caller).
    /// `posmap` must match the config's geometry — the engine builds it
    /// with [`crate::posmap::build_posmap`].
    ///
    /// # Errors
    ///
    /// Propagates storage errors from the initial layout write.
    pub fn new(
        config: &HOramConfig,
        mut device: Device,
        keys: KeyHierarchy,
        posmap: Box<dyn PositionMap>,
    ) -> Result<Self, OramError> {
        if let Some(cache) = &config.cache {
            device.install_cache(cache.clone());
        }
        let partition_count = config.partition_count();
        let partition_slots = config.partition_slots();
        let total_slots = partition_count * partition_slots;
        debug_assert_eq!(posmap.capacity(), config.capacity);
        debug_assert_eq!(posmap.total_slots(), total_slots);
        let epoch = 0;
        let sealer = BlockSealer::new(&keys.epoch_keys(epoch));
        let dummy_prf = Prf::new(*keys.epoch_keys(0).prf());
        let mut layer = Self {
            device,
            keys,
            sealer,
            epoch,
            seal_seq: 0,
            posmap,
            posmap_error: None,
            partition_live: vec![0; partition_count as usize],
            touched: vec![false; total_slots as usize],
            dummy_prp: FeistelPrp::new([0u8; 16], total_slots)?,
            dummy_cursor: 0,
            dummy_prf,
            dummy_key: [0u8; 16],
            pending: Vec::new(),
            pool: BufferPool::new(),
            workers: WorkerPool::for_threads(config.worker_threads),
            worker_pools: (0..config.worker_threads)
                .map(|_| BufferPool::new())
                .collect(),
            partition_count,
            partition_slots,
            capacity: config.capacity,
            payload_len: config.payload_len,
            partial_window_start: 0,
            period_counter: 0,
        };
        // Initial build: treat every block as "hot" with zero payloads and
        // run the standard full shuffle machinery.
        let all: Vec<(BlockId, Vec<u8>)> = (0..config.capacity)
            .map(|id| (BlockId(id), vec![0u8; config.payload_len]))
            .collect();
        layer.rebuild_full(all, config.seed)?;
        Ok(layer)
    }

    /// Total physical slots (`√N · S`).
    pub fn total_slots(&self) -> u64 {
        self.partition_count * self.partition_slots
    }

    /// Storage bytes occupied (for the paper's storage-overhead rows).
    pub fn storage_bytes(&self, block_bytes: u64) -> u64 {
        self.total_slots() * block_bytes
    }

    /// The position map (control-layer view).
    pub fn posmap(&self) -> &dyn PositionMap {
        self.posmap.as_ref()
    }

    /// Mutable position map access (lookups on the recursive variant walk
    /// its level ORAMs, so even reads need `&mut`).
    pub fn posmap_mut(&mut self) -> &mut dyn PositionMap {
        self.posmap.as_mut()
    }

    /// Current key epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The underlying device (experiment accounting).
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Mutable device access (used for redundancy charges in the partial
    /// shuffle and by tests).
    pub fn device_mut(&mut self) -> &mut Device {
        &mut self.device
    }

    /// Block-cache counters of the storage device, when a cache is
    /// installed.
    pub fn cache_stats(&self) -> Option<oram_storage::cache::CacheStats> {
        self.device.cache_stats()
    }

    /// Whether the scheduler should treat `id` as a memory hit. The hit
    /// test is infallible by contract; a position-map failure (possible on
    /// the recursive variant) answers `false` and is re-raised by the next
    /// [`plan_io`](Self::plan_io) — the error is instance-fatal, deferral
    /// only moves where it surfaces.
    pub fn is_in_memory(&mut self, id: BlockId) -> bool {
        match self.posmap.is_in_memory(id) {
            Ok(hit) => hit,
            Err(error) => {
                if self.posmap_error.is_none() {
                    self.posmap_error = Some(error);
                }
                false
            }
        }
    }

    /// Dataset size `N` in blocks.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Number of partitions (`√N`).
    pub fn partition_count(&self) -> u64 {
        self.partition_count
    }

    fn storage_delta(&self, before: &DeviceStats) -> DeviceStats {
        self.device.stats().delta_since(before)
    }

    /// Places `id` at `slot` in the position map and bumps the partition
    /// live count.
    fn place_tracked(&mut self, id: BlockId, slot: u64) -> Result<(), OramError> {
        self.posmap.place(id, slot)?;
        self.partition_live[(slot / self.partition_slots) as usize] += 1;
        Ok(())
    }

    /// Clears `slot`'s ownership, returning the block it held (if live)
    /// and keeping the partition live count in step.
    fn take_owner_tracked(&mut self, slot: u64) -> Result<Option<BlockId>, OramError> {
        let owner = self.posmap.take_owner(slot)?;
        if owner.is_some() {
            self.partition_live[(slot / self.partition_slots) as usize] -= 1;
        }
        Ok(owner)
    }

    /// The next untouched slot of the period's PRP dummy order, walking
    /// the lazy Feistel cursor past slots consumed by real misses.
    fn next_dummy_slot(&mut self) -> Result<Option<u64>, OramError> {
        let total = self.total_slots();
        while self.dummy_cursor < total {
            let slot = self.dummy_prp.permute(self.dummy_cursor)?;
            self.dummy_cursor += 1;
            if !self.touched[slot as usize] {
                return Ok(Some(slot));
            }
        }
        Ok(None)
    }

    /// Re-keys the dummy-order PRP for a fresh period.
    fn reset_dummy_order(&mut self, seed: u64) -> Result<(), OramError> {
        let words = [seed, self.epoch, self.period_counter];
        let lo = self.dummy_prf.eval_words("dummy-order-lo", &words);
        let hi = self.dummy_prf.eval_words("dummy-order-hi", &words);
        let mut key = [0u8; 16];
        key[..8].copy_from_slice(&lo.to_le_bytes());
        key[8..].copy_from_slice(&hi.to_le_bytes());
        self.dummy_key = key;
        self.dummy_prp = FeistelPrp::new(key, self.total_slots())?;
        self.dummy_cursor = 0;
        Ok(())
    }

    /// Serializes the layer's mutable control state plus the device state
    /// (see [`Device::save_state`]). Requires no I/O batch in flight.
    ///
    /// # Errors
    ///
    /// Storage backend errors propagate.
    /// [`OramError::SnapshotInvalid`] if loads are planned but uncommitted
    /// (snapshots are taken between batches).
    pub fn save_state(
        &mut self,
        w: &mut oram_crypto::persist::StateWriter,
    ) -> Result<(), OramError> {
        if !self.pending.is_empty() {
            return Err(OramError::SnapshotInvalid {
                reason: "snapshot while a planned I/O batch is uncommitted".into(),
            });
        }
        w.put_u64(self.epoch);
        w.put_u64(self.seal_seq);
        w.put_u64(self.period_counter);
        w.put_u64(self.partial_window_start);
        w.put_u64(self.dummy_cursor);
        w.put_bytes(&self.dummy_key);
        self.posmap.save_state(w)?;
        w.put_usize(self.partition_live.len());
        for &live in &self.partition_live {
            w.put_u64(live);
        }
        w.put_usize(self.touched.len());
        for &touched in &self.touched {
            w.put_bool(touched);
        }
        self.device.save_state(w).map_err(OramError::Storage)
    }

    /// Rebuilds a layer from a snapshot **without** writing the initial
    /// layout: derived structures (keys, sealers, pools) are constructed
    /// exactly as [`new`](Self::new) does, mutable state comes from the
    /// snapshot, and the device's stored blocks come from the snapshot
    /// (volatile store) or from the device's own durable file. `posmap`
    /// must be freshly built in restore mode
    /// ([`crate::posmap::build_posmap`] with `restore = true`) — its
    /// state loads from the snapshot here.
    ///
    /// # Errors
    ///
    /// [`OramError::SnapshotInvalid`] on geometry mismatch or malformed
    /// state.
    pub fn restore(
        config: &HOramConfig,
        mut device: Device,
        keys: KeyHierarchy,
        mut posmap: Box<dyn PositionMap>,
        r: &mut oram_crypto::persist::StateReader<'_>,
    ) -> Result<Self, OramError> {
        let partition_count = config.partition_count();
        let partition_slots = config.partition_slots();
        let total_slots = (partition_count * partition_slots) as usize;

        let epoch = r.get_u64()?;
        let seal_seq = r.get_u64()?;
        let period_counter = r.get_u64()?;
        let partial_window_start = r.get_u64()?;
        let dummy_cursor = r.get_u64()?;
        let key_bytes = r.get_bytes()?;
        let dummy_key: [u8; 16] = key_bytes
            .try_into()
            .map_err(|_| OramError::SnapshotInvalid {
                reason: "dummy-order key is not 16 bytes".into(),
            })?;
        posmap.load_state(r)?;
        let live_count = r.get_usize()?;
        if live_count != partition_count as usize {
            return Err(OramError::SnapshotInvalid {
                reason: format!(
                    "{live_count} partition live counts for {partition_count} partitions"
                ),
            });
        }
        let mut partition_live = Vec::with_capacity(partition_count as usize);
        for _ in 0..partition_count {
            partition_live.push(r.get_u64()?);
        }
        let touched_count = r.get_usize()?;
        if touched_count != total_slots {
            return Err(OramError::SnapshotInvalid {
                reason: format!("{touched_count} period markers for {total_slots} slots"),
            });
        }
        let mut touched = Vec::with_capacity(total_slots);
        for _ in 0..total_slots {
            touched.push(r.get_bool()?);
        }
        // Install the configured cache *before* the device state loads:
        // the snapshot's cache section repopulates residency from the
        // restored store, and a presence mismatch fails closed inside
        // `load_state`.
        if let Some(cache) = &config.cache {
            device.install_cache(cache.clone());
        }
        device.load_state(r)?;

        let sealer = BlockSealer::new(&keys.epoch_keys(epoch));
        let dummy_prf = Prf::new(*keys.epoch_keys(0).prf());
        Ok(Self {
            device,
            keys,
            sealer,
            epoch,
            seal_seq,
            posmap,
            posmap_error: None,
            partition_live,
            touched,
            dummy_prp: FeistelPrp::new(dummy_key, (total_slots as u64).max(1))?,
            dummy_cursor,
            dummy_prf,
            dummy_key,
            pending: Vec::new(),
            pool: BufferPool::new(),
            workers: WorkerPool::for_threads(config.worker_threads),
            worker_pools: (0..config.worker_threads)
                .map(|_| BufferPool::new())
                .collect(),
            partition_count,
            partition_slots,
            capacity: config.capacity,
            payload_len: config.payload_len,
            partial_window_start,
            period_counter,
        })
    }

    /// Stages one load: applies every control-layer state transition now
    /// (so later plans — and the scheduler's hit test — observe it) and
    /// queues the device read for [`commit_io`](Self::commit_io).
    ///
    /// # Errors
    ///
    /// For a [`LoadPlan::Miss`], [`OramError::Internal`] if the block is
    /// already marked in-memory (the scheduler must classify hits before
    /// issuing I/O) or if its slot was already read this period (the
    /// once-per-period invariant would be violated). Either means the
    /// instance's control state is damaged: fail-stop, quarantine, restore
    /// from a checkpoint.
    pub fn plan_io(&mut self, plan: LoadPlan) -> Result<PlannedIo, OramError> {
        // A position-map failure swallowed by the infallible hit test
        // surfaces here, before any further control-state transitions.
        if let Some(error) = self.posmap_error.take() {
            return Err(error);
        }
        let planned = match plan {
            LoadPlan::Miss(id) => {
                let Location::Storage { slot } = self.posmap.location(id)? else {
                    return Err(OramError::internal(format!(
                        "fetch of in-memory block {id} — scheduler hit classification broken"
                    )));
                };
                if self.touched[slot as usize] {
                    return Err(OramError::internal(format!(
                        "slot {slot} read twice in one period — invariant broken"
                    )));
                }
                self.touched[slot as usize] = true;
                let owner = self.take_owner_tracked(slot)?;
                debug_assert_eq!(owner, Some(id), "location table and slot owners diverged");
                self.posmap.set_in_memory(id)?;
                PlannedIo {
                    slot: Some(slot),
                    expect: Some(id),
                }
            }
            LoadPlan::Dummy => match self.next_dummy_slot()? {
                // Every slot touched: the period is over-long; the caller's
                // period accounting forces a shuffle before this can happen
                // in a correct configuration. Commit treats it as a
                // zero-cost no-op.
                None => PlannedIo {
                    slot: None,
                    expect: None,
                },
                Some(slot) => {
                    self.touched[slot as usize] = true;
                    let expect = self.take_owner_tracked(slot)?;
                    if let Some(id) = expect {
                        self.posmap.set_in_memory(id)?;
                    }
                    PlannedIo {
                        slot: Some(slot),
                        expect,
                    }
                }
            },
        };
        self.pending.push(planned);
        Ok(planned)
    }

    /// Number of loads staged and not yet committed.
    pub fn pending_io(&self) -> usize {
        self.pending.len()
    }

    /// Issues every staged load as one scatter read and returns the
    /// per-load results in planning order. Blocks expected live are
    /// verified and decrypted (in place); stale/dummy reads discard their
    /// bytes unopened, exactly like the sequential path.
    ///
    /// # Errors
    ///
    /// [`OramError::MalformedBlock`] if a slot does not hold the expected
    /// block (protocol invariant violation);
    /// [`StorageError::MissingBlock`] if a slot the metadata calls live
    /// came back empty; storage/crypto errors propagate. Every error here
    /// is **fail-stop**: planning already applied the loads' control-state
    /// transitions (period markers, locations), and they are not rolled
    /// back — a corrupted or missing block means the device no longer
    /// matches the trusted metadata, so the instance must be discarded,
    /// not retried.
    pub fn commit_io(&mut self) -> Result<BatchLoad, OramError> {
        let planned: Vec<PlannedIo> = self.pending.drain(..).collect();
        let before = *self.device.stats();
        let mut loads = Vec::with_capacity(planned.len());
        if let [PlannedIo {
            slot: Some(slot),
            expect,
        }] = planned[..]
        {
            // Per-block fast path: the sequential configuration
            // (io_batch = 1) commits one load at a time — skip the batch
            // bookkeeping and issue a plain read (a singleton scatter
            // charges exactly the same cost, so timing and trace are
            // unchanged).
            let sealed = self.device.read_block(slot)?;
            let duration = self.storage_delta(&before).busy;
            let block = self.open_load(slot, expect, Some(sealed))?;
            loads.push(IoLoad { block, duration });
        } else {
            let slots: Vec<u64> = planned.iter().filter_map(|p| p.slot).collect();
            let mut items = self.device.read_scatter(&slots)?.into_iter();
            for planned in planned {
                let Some(slot) = planned.slot else {
                    loads.push(IoLoad {
                        block: None,
                        duration: SimDuration::ZERO,
                    });
                    continue;
                };
                let item = items
                    .next()
                    .ok_or_else(|| OramError::internal("fewer scatter items than planned slots"))?;
                loads.push(IoLoad {
                    block: self.open_load(slot, planned.expect, item.block)?,
                    duration: item.cost,
                });
            }
        }
        let io_time = self.storage_delta(&before).busy;
        Ok(BatchLoad { loads, io_time })
    }

    /// The crypto half of one committed load: verify, decrypt, decode and
    /// identity-check the block `expect` names; a stale or dummy read
    /// (`expect` is `None`) discards its bytes unopened.
    fn open_load(
        &self,
        slot: u64,
        expect: Option<BlockId>,
        sealed: Option<SealedBlock>,
    ) -> Result<OpenedSlot, OramError> {
        let Some(id) = expect else {
            return Ok(None);
        };
        let Some(sealed) = sealed else {
            return Err(OramError::Storage(StorageError::MissingBlock {
                device: self.device.name().to_string(),
                addr: slot,
            }));
        };
        let body = self.sealer.open_in_place(sealed)?;
        match BlockContent::decode_owned(body, slot)? {
            BlockContent::Real {
                id: stored,
                payload,
                ..
            } if stored == id => Ok(Some((id, payload))),
            _ => Err(OramError::MalformedBlock { slot }),
        }
    }

    /// Plans and commits `plans` as one batch — the one-call form of
    /// [`plan_io`](Self::plan_io) + [`commit_io`](Self::commit_io).
    ///
    /// # Errors
    ///
    /// As [`plan_io`](Self::plan_io) and [`commit_io`](Self::commit_io) —
    /// fail-stop, not retryable; also [`OramError::Internal`] if loads are
    /// already staged (mixing the two interfaces mid-batch is a caller
    /// bug).
    pub fn load_batch(&mut self, plans: &[LoadPlan]) -> Result<BatchLoad, OramError> {
        if !self.pending.is_empty() {
            return Err(OramError::internal(
                "load_batch while a planned batch is uncommitted",
            ));
        }
        for &plan in plans {
            self.plan_io(plan)?;
        }
        self.commit_io()
    }

    /// Fetches the block `id` from its permuted slot (a **miss** load).
    /// Marks the block in-memory; the caller inserts it into the memory
    /// ORAM's stash. Equivalent to a single-element
    /// [`load_batch`](Self::load_batch).
    ///
    /// # Errors
    ///
    /// Returns [`OramError::MalformedBlock`] if the slot does not hold the
    /// expected block (protocol invariant violation); storage/crypto
    /// errors propagate; invariant violations surface as
    /// [`OramError::Internal`] (see [`plan_io`](Self::plan_io)).
    pub fn fetch(&mut self, id: BlockId) -> Result<IoLoad, OramError> {
        let mut batch = self.load_batch(&[LoadPlan::Miss(id)])?;
        batch
            .loads
            .pop()
            .ok_or_else(|| OramError::internal("one-load batch committed no load"))
    }

    /// A **dummy** load: reads the next untouched slot in the PRP order.
    /// If the slot holds a live block, that block migrates to memory as an
    /// opportunistic prefetch (the caller inserts it); stale or dummy
    /// slots produce no block but an indistinguishable bus access.
    /// Equivalent to a single-element [`load_batch`](Self::load_batch).
    ///
    /// # Errors
    ///
    /// Storage/crypto errors propagate.
    pub fn dummy_load(&mut self) -> Result<IoLoad, OramError> {
        let mut batch = self.load_batch(&[LoadPlan::Dummy])?;
        batch
            .loads
            .pop()
            .ok_or_else(|| OramError::internal("one-load batch committed no load"))
    }

    /// Full group+partition shuffle (§4.3.2): rebuild every partition in
    /// order `0..√N`, folding the evicted `hot` blocks (already
    /// obliviously shuffled by the tree evict) into per-partition pieces.
    /// Starts a fresh epoch: new keys, new intra-partition permutations,
    /// cleared period markers.
    ///
    /// # Errors
    ///
    /// Storage/crypto errors propagate.
    pub fn rebuild_full(
        &mut self,
        hot: Vec<(BlockId, Vec<u8>)>,
        seed: u64,
    ) -> Result<ShuffleReport, OramError> {
        let window: Vec<u64> = (0..self.partition_count).collect();
        self.rebuild_window(hot, &window, seed)
    }

    /// Partial shuffle (§5.3.1): rebuild only the next `window_len`
    /// partitions of a rotating window (partition `i` is reshuffled once
    /// every `1/r` periods). All evicted hot blocks are absorbed by the
    /// window's partitions — the paper's "evicted data keeps concatenating
    /// on top of each partition" realized as concentration into the
    /// currently-shuffled window, which is why partial shuffling trades
    /// shuffle time against extra redundancy (window partitions run
    /// fuller, lengthening their rebuild and the dummy-load tail). If the
    /// window's free capacity cannot absorb the evicted set, the window is
    /// extended partition by partition (counted in
    /// [`ShuffleReport::spilled`]).
    ///
    /// # Errors
    ///
    /// Storage/crypto errors propagate.
    pub fn rebuild_partial(
        &mut self,
        hot: Vec<(BlockId, Vec<u8>)>,
        window_len: u64,
        seed: u64,
    ) -> Result<ShuffleReport, OramError> {
        let window_len = window_len.clamp(1, self.partition_count);
        let mut window: Vec<u64> = (0..window_len)
            .map(|i| (self.partial_window_start + i) % self.partition_count)
            .collect();

        // Extend the window until its free capacity covers the hot set
        // (capacity is control-layer metadata: live counts per partition).
        let mut capacity: u64 = window.iter().map(|&p| self.partition_free_slots(p)).sum();
        while capacity < hot.len() as u64 && (window.len() as u64) < self.partition_count {
            let next = (self.partial_window_start + window.len() as u64) % self.partition_count;
            capacity += self.partition_free_slots(next);
            window.push(next);
        }

        self.partial_window_start =
            (self.partial_window_start + window.len() as u64) % self.partition_count;
        let extended = window.len() as u64 - window_len;
        let mut report = self.rebuild_window(hot, &window, seed)?;
        report.spilled += extended;
        Ok(report)
    }

    /// Free (dummy) slots of one partition — O(1) from the incrementally
    /// maintained live counts.
    fn partition_free_slots(&self, partition: u64) -> u64 {
        self.partition_slots - self.partition_live[partition as usize]
    }

    /// Rebuilds the given partitions in ascending pass order, distributing
    /// `hot` across them as contiguous pieces sized to each partition's
    /// free capacity (the evict shuffle already randomized piece
    /// membership, so contiguous capacity-aware splitting keeps piece
    /// assignment uniform over identities).
    ///
    /// Each pass is a double-buffered stream: the partition's ciphertexts
    /// are taken off the device in one streaming read (the read buffer),
    /// opened in place, permuted into the write-side image, re-sealed in
    /// place under the fresh epoch, and streamed back out — no partition-
    /// sized plaintext image is ever materialized, and in steady state no
    /// per-block allocation happens (buffers recycle through the pool).
    /// The simulated read and write streams overlap (`max(read, write)`
    /// wall time); the in-enclave crypto is charged as zero simulated time
    /// per the paper's model, and the in-place pipeline keeps its host
    /// cost from dominating wall-clock runs.
    ///
    /// Capacity violations ([`OramError::Internal`]) cannot happen from
    /// the public callers — full windows by the `N ≤ P·S` invariant,
    /// partial windows by extension — but surface as typed errors rather
    /// than panics so a damaged instance can be quarantined.
    fn rebuild_window(
        &mut self,
        hot: Vec<(BlockId, Vec<u8>)>,
        window: &[u64],
        seed: u64,
    ) -> Result<ShuffleReport, OramError> {
        if !self.pending.is_empty() {
            return Err(OramError::internal(
                "shuffle while a planned I/O batch is uncommitted",
            ));
        }
        let before = *self.device.stats();
        // New epoch unless this is a partial pass (partial passes keep the
        // epoch key so untouched partitions remain readable). Partitions
        // are still sealed under the old epoch, so reads during this pass
        // use the outgoing sealer while writes use the fresh one.
        let read_sealer = self.sealer.clone();
        let full = window.len() as u64 == self.partition_count;
        if full {
            self.epoch += 1;
            self.sealer = BlockSealer::new(&self.keys.epoch_keys(self.epoch));
        }
        // A window over every partition installs the new layout with one
        // bulk position-map rebuild at the end (the recursive map turns
        // this into a public linear level sweep instead of O(N) chain
        // walks); partial windows re-home per entry.
        let mut full_image: Vec<Option<BlockId>> = if full {
            vec![None; self.total_slots() as usize]
        } else {
            Vec::new()
        };
        let piece_prf = Prf::new(Prf::new([0u8; 16]).subkey("piece-split", seed ^ self.epoch));

        // Capacity-aware contiguous split of the hot list (§4.3.2's "i-th
        // piece of evicted data"): each partition's piece is its fair share
        // clamped to its free slots, with the remainder flowing onward.
        let free: Vec<u64> = window
            .iter()
            .map(|&p| self.partition_free_slots(p))
            .collect();
        let total_free: u64 = free.iter().sum();
        if hot.len() as u64 > total_free {
            return Err(OramError::internal(format!(
                "window free capacity {total_free} cannot hold {} evicted blocks",
                hot.len()
            )));
        }
        let fair_share = (hot.len() as u64).div_ceil(window.len() as u64);
        let mut pieces: Vec<Vec<(BlockId, Vec<u8>)>> =
            (0..window.len()).map(|_| Vec::new()).collect();
        {
            let mut hot_iter = hot.into_iter();
            let mut remaining = hot_iter.len() as u64;
            for (pass, &cap) in free.iter().enumerate() {
                let passes_left = (window.len() - pass) as u64;
                let fair = remaining.div_ceil(passes_left);
                let take = fair.min(cap).min(remaining);
                pieces[pass].extend(hot_iter.by_ref().take(take as usize));
                remaining -= take;
            }
            // Clamping can leave a residue; sweep it into any free space.
            let mut residue: Vec<(BlockId, Vec<u8>)> = hot_iter.collect();
            for (pass, &cap) in free.iter().enumerate() {
                if residue.is_empty() {
                    break;
                }
                let room = cap as usize - pieces[pass].len();
                let take = room.min(residue.len());
                pieces[pass].extend(residue.drain(..take));
            }
            if !residue.is_empty() {
                return Err(OramError::internal("capacity accounting failed"));
            }
        }

        let wire_len = BlockContent::encoded_len(self.payload_len);
        let slots_per_pass = self.partition_slots as usize;
        let workers = self.workers.clone();
        let mut spilled_total = 0u64;
        for (pass, &partition) in window.iter().enumerate() {
            let base = partition * self.partition_slots;

            // Read stream: one streaming op that takes the ciphertexts
            // out of the store (every slot is rewritten below).
            let mut taken = self.device.take_run(base, self.partition_slots)?;

            // Control sweep: release every slot's ownership up front so
            // the crypto half below is pure over its inputs (the order of
            // releases within one pass is immaterial — re-ownership only
            // happens in the seal sweep).
            let owners = self.posmap.take_pass_owners(base, self.partition_slots)?;
            let live = owners.iter().flatten().count() as u64;
            self.partition_live[partition as usize] -= live;
            debug_assert_eq!(self.partition_live[partition as usize], 0);

            // Open: keep only live blocks (cold data) as decrypted wire
            // bodies; discarded ciphertext buffers refill the pool. With
            // a worker pool the per-slot crypto runs data-parallel over
            // deterministic chunks; results land in slot order either way.
            let mut opened: Vec<OpenedSlot> = Vec::with_capacity(slots_per_pass);
            {
                let ctx = PassCrypto {
                    read_sealer: &read_sealer,
                    write_sealer: &self.sealer,
                    payload_len: self.payload_len,
                    wire_len,
                    device: self.device.name(),
                };
                match &workers {
                    None => {
                        for (offset, (sealed, owner)) in
                            taken.drain(..).zip(owners.iter()).enumerate()
                        {
                            let addr = base + offset as u64;
                            opened.push(open_pass_slot(
                                &ctx,
                                &mut self.pool,
                                addr,
                                *owner,
                                sealed,
                            )?);
                        }
                    }
                    Some(pool_handle) => {
                        let mut results: Vec<Option<Result<OpenedSlot, OramError>>> =
                            (0..slots_per_pass).map(|_| None).collect();
                        let owners = owners.as_slice();
                        dispatch_chunks(
                            pool_handle,
                            &mut self.worker_pools,
                            &mut self.pool,
                            &mut taken,
                            &mut results,
                            |wpool, offset, sealed, out| {
                                *out = Some(open_pass_slot(
                                    &ctx,
                                    wpool,
                                    base + offset as u64,
                                    owners[offset],
                                    sealed.take(),
                                ));
                            },
                        );
                        // Errors surface in slot order — the same slot the
                        // serial path would fail on first.
                        for result in results {
                            let result = result.ok_or_else(|| {
                                OramError::internal("worker left a shuffle slot unprocessed")
                            })?;
                            opened.push(result?);
                        }
                    }
                }
            }
            let mut union: Vec<PassEntry> = opened
                .into_iter()
                .flatten()
                .map(|(id, body)| PassEntry::Wire(id, body))
                .collect();

            // Concatenate the hot piece (sized to fit by construction);
            // payload bytes are encoded onto recycled buffers at seal
            // time. Blocks beyond the fair equal split indicate
            // capacity-driven redistribution and are reported as `spilled`.
            let piece = std::mem::take(&mut pieces[pass]);
            spilled_total += (piece.len() as u64).saturating_sub(fair_share);
            union.extend(
                piece
                    .into_iter()
                    .map(|(id, payload)| PassEntry::Hot(id, payload)),
            );
            debug_assert!(
                union.len() <= slots_per_pass,
                "piece sizing exceeded partition capacity"
            );

            // Fresh intra-partition permutation: a seeded Fisher–Yates
            // draw in trusted memory (the paper used a cache shuffle here;
            // either costs little next to the streaming I/O).
            // `image[offset]` holds the entry destined for slot
            // `base + offset`; unfilled slots become dummies below.
            let perm = Permutation::random(
                slots_per_pass,
                piece_prf.eval_words("partition-perm", &[partition, self.epoch]),
            );
            let mut image: Vec<Option<PassEntry>> = perm.scatter(union);

            // Control sweep: re-home ownership and reset the read-once
            // budget before the crypto half (slots in partitions outside
            // a partial window keep their markers until their own
            // rebuild). Full windows only record the image here — the
            // bulk rebuild after the loop installs it.
            for (offset, entry) in image.iter().enumerate() {
                let addr = base + offset as u64;
                if let Some(entry) = entry {
                    if full {
                        full_image[addr as usize] = Some(entry.id());
                        self.partition_live[partition as usize] += 1;
                    } else {
                        self.place_tracked(entry.id(), addr)?;
                    }
                }
                self.touched[addr as usize] = false;
            }

            // Seal + write stream: re-home every slot under the fresh
            // epoch — real blocks re-seal their decrypted body in place,
            // dummies and hot blocks encode onto pooled buffers — and
            // stream the run out. Seal sequence numbers are assigned in
            // slot order *before* dispatch, so the ciphertext of every
            // slot is byte-identical at any worker count.
            let seq_base = self.seal_seq;
            self.seal_seq += slots_per_pass as u64;
            let ctx = PassCrypto {
                read_sealer: &read_sealer,
                write_sealer: &self.sealer,
                payload_len: self.payload_len,
                wire_len,
                device: self.device.name(),
            };
            let sealed_run: Vec<SealedBlock> = match &workers {
                None => image
                    .iter_mut()
                    .enumerate()
                    .map(|(offset, entry)| {
                        seal_pass_slot(
                            &ctx,
                            &mut self.pool,
                            base + offset as u64,
                            seq_base + offset as u64,
                            entry.take(),
                        )
                    })
                    .collect(),
                Some(pool_handle) => {
                    // Pre-stock each chunk's pool with exactly the buffers
                    // its dummy/hot slots will take, so the chunked stream
                    // allocates no more than the serial one (chunk
                    // boundaries match `dispatch_chunks` by construction).
                    let chunk = chunk_len(slots_per_pass, pool_handle.threads());
                    for (chunk_index, image_chunk) in image.chunks(chunk).enumerate() {
                        let need = image_chunk
                            .iter()
                            .filter(|entry| !matches!(entry, Some(PassEntry::Wire(..))))
                            .count();
                        self.pool
                            .transfer_to(&mut self.worker_pools[chunk_index], need);
                    }
                    let mut outputs: Vec<Option<SealedBlock>> =
                        (0..slots_per_pass).map(|_| None).collect();
                    dispatch_chunks(
                        pool_handle,
                        &mut self.worker_pools,
                        &mut self.pool,
                        &mut image,
                        &mut outputs,
                        |wpool, offset, entry, out| {
                            *out = Some(seal_pass_slot(
                                &ctx,
                                wpool,
                                base + offset as u64,
                                seq_base + offset as u64,
                                entry.take(),
                            ));
                        },
                    );
                    outputs
                        .into_iter()
                        .map(|sealed| {
                            sealed.ok_or_else(|| {
                                OramError::internal("worker left a shuffle slot unsealed")
                            })
                        })
                        .collect::<Result<Vec<_>, OramError>>()?
                }
            };
            self.device.write_run(base, sealed_run)?;
        }
        if full {
            self.posmap.rebuild_all(&full_image)?;
        }
        // New period: fresh PRP key for the lazy dummy order (touched
        // slots are skipped at consumption time).
        self.period_counter += 1;
        self.reset_dummy_order(seed)?;

        let delta = self.storage_delta(&before);
        Ok(ShuffleReport {
            wall_time: delta.busy_read.max(delta.busy_write),
            read_time: delta.busy_read,
            write_time: delta.busy_write,
            partitions: window.len() as u64,
            spilled: spilled_total,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oram_crypto::keys::MasterKey;
    use oram_storage::calibration::MachineConfig;
    use oram_storage::clock::SimClock;
    use oram_storage::trace::AccessTrace;
    use std::collections::HashSet;

    fn build_threaded(
        capacity: u64,
        trace: Option<AccessTrace>,
        worker_threads: usize,
    ) -> StorageLayer {
        let config = HOramConfig::new(capacity, 8, 64).with_worker_threads(worker_threads);
        let device = MachineConfig::dac2019().build_storage(SimClock::new(), trace);
        let master = MasterKey::from_bytes([8; 32]);
        let keys = KeyHierarchy::new(master.clone(), "storage-layer-test");
        let posmap = crate::posmap::build_posmap(&config, &master, false).unwrap();
        StorageLayer::new(&config, device, keys, posmap).unwrap()
    }

    // The baseline fixtures pin `worker_threads = 1` (the serial path) so
    // assertions about the shared pool's counters stay machine-independent;
    // the `parallel_*` tests below compare the threaded path against them.
    fn build_with(capacity: u64, trace: Option<AccessTrace>) -> StorageLayer {
        build_threaded(capacity, trace, 1)
    }

    fn build(capacity: u64) -> StorageLayer {
        build_with(capacity, None)
    }

    fn build_traced(capacity: u64) -> (StorageLayer, AccessTrace) {
        let trace = AccessTrace::new();
        let layer = build_with(capacity, Some(trace.clone()));
        trace.clear();
        (layer, trace)
    }

    #[test]
    fn initial_layout_places_every_block() {
        let mut layer = build(100);
        for id in 0..100 {
            assert!(
                matches!(
                    layer.posmap_mut().location(BlockId(id)).unwrap(),
                    Location::Storage { .. }
                ),
                "block {id} missing"
            );
        }
        assert_eq!(layer.posmap().in_memory_count(), 0);
    }

    #[test]
    fn initial_slots_are_distinct() {
        let mut layer = build(64);
        let slots: HashSet<u64> = (0..64)
            .map(
                |id| match layer.posmap_mut().location(BlockId(id)).unwrap() {
                    Location::Storage { slot } => slot,
                    Location::Memory => panic!("unexpected memory residence"),
                },
            )
            .collect();
        assert_eq!(slots.len(), 64);
    }

    #[test]
    fn fetch_returns_payload_and_migrates() {
        let mut layer = build(64);
        let load = layer.fetch(BlockId(5)).unwrap();
        let (id, payload) = load.block.unwrap();
        assert_eq!(id, BlockId(5));
        assert_eq!(payload, vec![0u8; 8]);
        assert!(load.duration > SimDuration::ZERO);
        assert!(layer.is_in_memory(BlockId(5)));
    }

    #[test]
    fn double_fetch_is_a_typed_invariant_error() {
        let mut layer = build(64);
        layer.fetch(BlockId(5)).unwrap();
        let err = layer.fetch(BlockId(5)).unwrap_err();
        let OramError::Internal { context } = err else {
            panic!("expected Internal, got {err:?}");
        };
        assert!(context.contains("scheduler hit classification broken"));
    }

    #[test]
    fn dummy_loads_never_repeat_slots() {
        let mut layer = build(49);
        let trace_start = layer.device().stats().reads;
        let mut produced = 0;
        for _ in 0..30 {
            if layer.dummy_load().unwrap().block.is_some() {
                produced += 1;
            }
        }
        assert_eq!(layer.device().stats().reads - trace_start, 30);
        assert!(
            produced > 0,
            "dummy loads should prefetch live blocks sometimes"
        );
    }

    #[test]
    fn lazy_dummy_order_is_deterministic_and_covers_every_slot() {
        let (mut a, trace_a) = build_traced(49);
        let (mut b, trace_b) = build_traced(49);
        let total = a.total_slots();
        for _ in 0..total {
            a.dummy_load().unwrap();
            b.dummy_load().unwrap();
        }
        let order_a = trace_a.address_sequence(a.device().id());
        assert_eq!(
            order_a,
            trace_b.address_sequence(b.device().id()),
            "order must be replayable"
        );
        let distinct: HashSet<u64> = order_a.iter().copied().collect();
        assert_eq!(
            distinct.len() as u64,
            total,
            "each slot consumed exactly once"
        );
        // Exhausted period: further dummies are zero-cost no-ops.
        let exhausted = a.dummy_load().unwrap();
        assert_eq!(
            exhausted,
            IoLoad {
                block: None,
                duration: SimDuration::ZERO
            }
        );
        assert_eq!(trace_a.len() as u64, total);
        // A new period re-keys the order.
        a.rebuild_full(Vec::new(), 3).unwrap();
        trace_a.clear();
        for _ in 0..8 {
            a.dummy_load().unwrap();
        }
        assert_ne!(
            trace_a.address_sequence(a.device().id()),
            order_a[..8].to_vec()
        );
    }

    #[test]
    fn load_batch_matches_sequential_path_exactly() {
        use LoadPlan::{Dummy, Miss};
        let plan: Vec<LoadPlan> = vec![
            Miss(BlockId(3)),
            Dummy,
            Dummy,
            Miss(BlockId(17)),
            Dummy,
            Miss(BlockId(60)),
            Dummy,
            Dummy,
        ];
        let (mut sequential, seq_trace) = build_traced(64);
        let mut seq_loads = Vec::new();
        let seq_before = *sequential.device().stats();
        for &step in &plan {
            seq_loads.push(match step {
                Miss(id) => sequential.fetch(id).unwrap(),
                Dummy => sequential.dummy_load().unwrap(),
            });
        }
        let seq_stats = sequential.device().stats().delta_since(&seq_before);

        let (mut batched, bat_trace) = build_traced(64);
        let bat_before = *batched.device().stats();
        let batch = batched.load_batch(&plan).unwrap();
        let bat_stats = batched.device().stats().delta_since(&bat_before);

        // Byte-identical results (timing aside) ...
        let blocks = |loads: &[IoLoad]| loads.iter().map(|l| l.block.clone()).collect::<Vec<_>>();
        assert_eq!(blocks(&seq_loads), blocks(&batch.loads));
        // ... identical adversary view (same slots, same order, same op
        // shape — oblivious-trace equality) ...
        let strip = |t: &AccessTrace| {
            t.snapshot()
                .into_iter()
                .map(|e| (e.device, e.kind, e.addr, e.bytes))
                .collect::<Vec<_>>()
        };
        assert_eq!(strip(&seq_trace), strip(&bat_trace));
        // ... identical op/byte accounting, strictly cheaper in simulated
        // time (queued scheduling is the whole point).
        assert_eq!(seq_stats.reads, bat_stats.reads);
        assert_eq!(seq_stats.bytes_read, bat_stats.bytes_read);
        assert!(
            bat_stats.busy < seq_stats.busy,
            "batched {:?} !< {:?}",
            bat_stats.busy,
            seq_stats.busy
        );
        assert_eq!(batch.io_time, bat_stats.busy);
    }

    #[test]
    fn batched_loads_honor_once_per_period() {
        use LoadPlan::{Dummy, Miss};
        let (mut layer, trace) = build_traced(64);
        layer
            .load_batch(&[Miss(BlockId(1)), Dummy, Dummy, Miss(BlockId(9)), Dummy])
            .unwrap();
        layer
            .load_batch(&[Dummy, Dummy, Miss(BlockId(30)), Dummy])
            .unwrap();
        let addrs = trace.address_sequence(layer.device().id());
        let distinct: HashSet<u64> = addrs.iter().copied().collect();
        assert_eq!(
            distinct.len(),
            addrs.len(),
            "a slot was read twice within the period"
        );
        // After the shuffle the budget resets: the same blocks load again.
        layer
            .rebuild_full(
                vec![
                    (BlockId(1), vec![0u8; 8]),
                    (BlockId(9), vec![0u8; 8]),
                    (BlockId(30), vec![0u8; 8]),
                ],
                5,
            )
            .unwrap();
        layer.load_batch(&[Miss(BlockId(1)), Dummy]).unwrap();
    }

    #[test]
    fn batched_dummy_exhaustion_is_a_zero_cost_no_op() {
        let mut layer = build(16);
        let total = layer.total_slots() as usize;
        let plan: Vec<LoadPlan> = std::iter::repeat_n(LoadPlan::Dummy, total + 5).collect();
        let before_reads = layer.device().stats().reads;
        let batch = layer.load_batch(&plan).unwrap();
        assert_eq!(batch.loads.len(), total + 5);
        assert_eq!(layer.device().stats().reads - before_reads, total as u64);
        for load in &batch.loads[total..] {
            assert_eq!(
                *load,
                IoLoad {
                    block: None,
                    duration: SimDuration::ZERO
                }
            );
        }
    }

    #[test]
    fn plan_commit_interface_matches_load_batch() {
        let (mut split, split_trace) = build_traced(64);
        split.plan_io(LoadPlan::Miss(BlockId(2))).unwrap();
        split.plan_io(LoadPlan::Dummy).unwrap();
        assert_eq!(split.pending_io(), 2);
        let split_batch = split.commit_io().unwrap();
        assert_eq!(split.pending_io(), 0);

        let (mut whole, whole_trace) = build_traced(64);
        let whole_batch = whole
            .load_batch(&[LoadPlan::Miss(BlockId(2)), LoadPlan::Dummy])
            .unwrap();
        assert_eq!(split_batch, whole_batch);
        assert_eq!(
            split_trace.address_sequence(split.device().id()),
            whole_trace.address_sequence(whole.device().id())
        );
    }

    #[test]
    fn partition_live_counts_stay_consistent() {
        let mut layer = build(256);
        layer.fetch(BlockId(3)).unwrap();
        layer.fetch(BlockId(77)).unwrap();
        for _ in 0..12 {
            layer.dummy_load().unwrap();
        }
        layer
            .rebuild_partial(vec![(BlockId(3), vec![0u8; 8])], 4, 6)
            .unwrap();
        // Cross-check the incremental counts against the location table:
        // a slot is live iff some block's current location maps to it.
        let mut scanned = vec![0u64; layer.partition_count() as usize];
        for id in 0..256 {
            if let Location::Storage { slot } = layer.posmap_mut().location(BlockId(id)).unwrap() {
                scanned[(slot / layer.partition_slots) as usize] += 1;
            }
        }
        for partition in 0..layer.partition_count() {
            assert_eq!(
                layer.partition_live[partition as usize], scanned[partition as usize],
                "partition {partition} live count drifted"
            );
            assert_eq!(
                layer.partition_free_slots(partition),
                layer.partition_slots - scanned[partition as usize]
            );
        }
    }

    #[test]
    fn steady_state_shuffle_recycles_buffers() {
        let mut layer = build(256);
        // One warm-up period with real traffic (misses + dummies + a hot
        // set folding back in) fills the pool to its working set...
        let period = |layer: &mut StorageLayer, seed: u64| {
            let mut hot = Vec::new();
            for id in [seed % 256, (seed + 100) % 256] {
                if !layer.is_in_memory(BlockId(id)) {
                    hot.push(layer.fetch(BlockId(id)).unwrap().block.unwrap());
                }
            }
            for _ in 0..6 {
                if let Some(block) = layer.dummy_load().unwrap().block {
                    hot.push(block);
                }
            }
            layer.rebuild_full(hot, seed).unwrap();
        };
        period(&mut layer, 1);
        let (_, allocated_before) = layer.pool.counters();
        // ...after which whole periods — hot blocks included — must run
        // allocation-free off recycled buffers.
        period(&mut layer, 2);
        period(&mut layer, 3);
        let (reused, allocated_after) = layer.pool.counters();
        assert_eq!(
            allocated_after, allocated_before,
            "steady-state shuffle must not allocate"
        );
        assert!(reused > 0, "pool must actually be exercised");
    }

    /// Drives one instance through misses, dummies and a rebuild; returns
    /// the storage trace and a probe fetch for cross-config comparison.
    fn shuffle_fingerprint(layer: &mut StorageLayer, trace: &AccessTrace) -> (Vec<u64>, Vec<u8>) {
        let mut hot = Vec::new();
        for id in [3u64, 77, 150] {
            hot.push(layer.fetch(BlockId(id)).unwrap().block.unwrap());
        }
        for _ in 0..10 {
            if let Some(block) = layer.dummy_load().unwrap().block {
                hot.push(block);
            }
        }
        hot[0].1 = vec![9u8; 8];
        layer.rebuild_full(hot, 21).unwrap();
        let probe = layer.fetch(BlockId(3)).unwrap().block.unwrap().1;
        (trace.address_sequence(layer.device().id()), probe)
    }

    #[test]
    fn parallel_rebuild_is_byte_identical_to_serial() {
        // The data-parallel seal/open stream must leave no observable
        // difference: same storage trace, same device bytes, same data.
        let (mut serial, serial_trace) = build_traced(256);
        let serial_fp = shuffle_fingerprint(&mut serial, &serial_trace);
        for threads in [2usize, 4] {
            let trace = AccessTrace::new();
            let mut layer = build_threaded(256, Some(trace.clone()), threads);
            trace.clear();
            let fp = shuffle_fingerprint(&mut layer, &trace);
            assert_eq!(serial_fp, fp, "threads={threads} diverged");
            assert_eq!(
                serial.device().stats(),
                layer.device().stats(),
                "threads={threads} device accounting diverged"
            );
        }
    }

    #[test]
    fn parallel_steady_state_shuffle_recycles_buffers() {
        // The per-worker pools (pre-stocked per chunk, drained back each
        // phase) must preserve the zero-allocation steady state: after a
        // warm-up period, whole periods allocate nothing across the shared
        // pool and every worker pool combined.
        let mut layer = build_threaded(256, None, 4);
        let period = |layer: &mut StorageLayer, seed: u64| {
            let mut hot = Vec::new();
            for id in [seed % 256, (seed + 100) % 256] {
                if !layer.is_in_memory(BlockId(id)) {
                    hot.push(layer.fetch(BlockId(id)).unwrap().block.unwrap());
                }
            }
            for _ in 0..6 {
                if let Some(block) = layer.dummy_load().unwrap().block {
                    hot.push(block);
                }
            }
            layer.rebuild_full(hot, seed).unwrap();
        };
        let total_counters = |layer: &StorageLayer| {
            let (mut reused, mut allocated) = layer.pool.counters();
            for pool in &layer.worker_pools {
                let (r, a) = pool.counters();
                reused += r;
                allocated += a;
            }
            (reused, allocated)
        };
        period(&mut layer, 1);
        let (_, allocated_before) = total_counters(&layer);
        period(&mut layer, 2);
        period(&mut layer, 3);
        let (reused, allocated_after) = total_counters(&layer);
        assert_eq!(
            allocated_after, allocated_before,
            "steady-state parallel shuffle must not allocate"
        );
        assert!(reused > 0, "worker pools must actually be exercised");
    }

    #[test]
    fn rebuild_full_brings_everything_home() {
        let mut layer = build(64);
        let mut hot = Vec::new();
        for id in [1u64, 7, 30, 63] {
            hot.push(layer.fetch(BlockId(id)).unwrap().block.unwrap());
        }
        // Overwrite one payload as the memory layer would.
        hot[0].1 = vec![9u8; 8];
        let report = layer.rebuild_full(hot, 33).unwrap();
        assert_eq!(report.partitions, layer.partition_count);
        assert_eq!(layer.posmap().in_memory_count(), 0);
        // Refetch the updated block and verify the new payload survived.
        let load = layer.fetch(BlockId(1)).unwrap();
        assert_eq!(load.block.unwrap().1, vec![9u8; 8]);
    }

    #[test]
    fn rebuild_repermutes_slots() {
        let mut layer = build(256);
        let before: Vec<u64> = (0..256)
            .map(
                |id| match layer.posmap_mut().location(BlockId(id)).unwrap() {
                    Location::Storage { slot } => slot,
                    Location::Memory => unreachable!(),
                },
            )
            .collect();
        layer.rebuild_full(Vec::new(), 77).unwrap();
        let after: Vec<u64> = (0..256)
            .map(
                |id| match layer.posmap_mut().location(BlockId(id)).unwrap() {
                    Location::Storage { slot } => slot,
                    Location::Memory => unreachable!(),
                },
            )
            .collect();
        let moved = before.iter().zip(&after).filter(|(a, b)| a != b).count();
        assert!(moved > 200, "only {moved}/256 blocks moved");
    }

    #[test]
    fn rebuild_rotates_epoch_and_resets_touched() {
        let mut layer = build(64);
        let epoch = layer.epoch();
        layer.fetch(BlockId(3)).unwrap();
        let hot = vec![(BlockId(3), vec![0u8; 8])];
        layer.rebuild_full(hot, 1).unwrap();
        assert_eq!(layer.epoch(), epoch + 1);
        // The block is fetchable again (its new slot is untouched).
        layer.fetch(BlockId(3)).unwrap();
    }

    #[test]
    fn shuffle_wall_time_is_pipelined_max() {
        let mut layer = build(1024);
        let report = layer.rebuild_full(Vec::new(), 5).unwrap();
        assert_eq!(report.wall_time, report.read_time.max(report.write_time));
        assert!(report.wall_time < report.read_time + report.write_time);
    }

    #[test]
    fn partial_rebuild_covers_a_window_and_rotates() {
        let mut layer = build(256); // 16 partitions
        let r1 = layer.rebuild_partial(Vec::new(), 4, 9).unwrap();
        assert_eq!(r1.partitions, 4);
        let r2 = layer.rebuild_partial(Vec::new(), 4, 10).unwrap();
        assert_eq!(r2.partitions, 4);
        // After 4 windows the rotation wraps.
        layer.rebuild_partial(Vec::new(), 4, 11).unwrap();
        layer.rebuild_partial(Vec::new(), 4, 12).unwrap();
        let wrapped = layer.rebuild_partial(Vec::new(), 4, 13).unwrap();
        assert_eq!(wrapped.partitions, 4);
    }

    #[test]
    fn partial_rebuild_keeps_unshuffled_blocks_fetchable_once() {
        let mut layer = build(256);
        // Fetch a block, then partially shuffle a window. The fetched
        // block's home partition may not be rewritten; it must remain
        // marked in-memory either way.
        layer.fetch(BlockId(100)).unwrap();
        let hot = vec![(BlockId(100), vec![0u8; 8])];
        layer.rebuild_partial(hot, 2, 3).unwrap();
        // Block 100 went into the window, so it is on storage again.
        assert!(!layer.is_in_memory(BlockId(100)));
        layer.fetch(BlockId(100)).unwrap();
    }

    #[test]
    fn storage_footprint_has_headroom_only() {
        let layer = build(1 << 12);
        let slots = layer.total_slots();
        let ratio = slots as f64 / (1u64 << 12) as f64;
        assert!(ratio < 1.35, "storage blowup {ratio}");
        assert!(ratio >= 1.0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            /// Batching equivalence over arbitrary miss/dummy interleavings:
            /// identical blocks, identical device trace, identical op and
            /// byte counts, never more simulated time than sequential.
            #[test]
            fn load_batch_equals_sequential(
                miss_ids in proptest::collection::vec(0u64..64, 0..12),
                gaps in proptest::collection::vec(0usize..4, 0..13),
            ) {
                let mut intended: Vec<LoadPlan> = vec![LoadPlan::Dummy];
                let mut seen = HashSet::new();
                let mut gaps = gaps.into_iter();
                for id in miss_ids {
                    if !seen.insert(id) {
                        continue; // each block can only miss once per period
                    }
                    for _ in 0..gaps.next().unwrap_or(0) {
                        intended.push(LoadPlan::Dummy);
                    }
                    intended.push(LoadPlan::Miss(BlockId(id)));
                }
                intended.extend(gaps.flat_map(|n| std::iter::repeat_n(LoadPlan::Dummy, n)));

                // Run the sequential reference, downgrading misses whose
                // block an earlier dummy already prefetched (the scheduler
                // never issues I/O for in-memory blocks); the surviving
                // plan is what the batch replays.
                let (mut sequential, seq_trace) = build_traced(64);
                let mut plan: Vec<LoadPlan> = Vec::with_capacity(intended.len());
                let mut seq_blocks = Vec::new();
                for step in intended {
                    let step = match step {
                        LoadPlan::Miss(id) if sequential.is_in_memory(id) => LoadPlan::Dummy,
                        other => other,
                    };
                    plan.push(step);
                    let load = match step {
                        LoadPlan::Miss(id) => sequential.fetch(id).unwrap(),
                        LoadPlan::Dummy => sequential.dummy_load().unwrap(),
                    };
                    seq_blocks.push(load.block);
                }
                let (mut batched, bat_trace) = build_traced(64);
                let batch = batched.load_batch(&plan).unwrap();

                let bat_blocks: Vec<_> = batch.loads.iter().map(|l| l.block.clone()).collect();
                prop_assert_eq!(seq_blocks, bat_blocks);
                prop_assert_eq!(
                    seq_trace.address_sequence(sequential.device().id()),
                    bat_trace.address_sequence(batched.device().id())
                );
                let seq_stats = sequential.device().stats();
                let bat_stats = batched.device().stats();
                prop_assert_eq!(seq_stats.reads, bat_stats.reads);
                prop_assert_eq!(seq_stats.bytes_read, bat_stats.bytes_read);
                prop_assert!(bat_stats.busy <= seq_stats.busy);
            }
        }
    }
}
