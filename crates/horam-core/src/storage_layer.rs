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
//! resolution, once-per-period marking, slot-owner and liveness updates)
//! without touching the device, and [`StorageLayer::commit_io`] issues
//! every planned load as **one scatter read**
//! ([`Device::read_scatter`]) so per-op device overhead coalesces.
//! A window of one cycle commits a single load — the sequential and
//! batched paths are the same code, which is what the trace-equality
//! tests pin down: a batch records the identical adversary view (device,
//! direction, slot, bytes, order) as per-load commits, only its simulated
//! cost shrinks.
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
        Some(PassEntry::Hot(id, mut payload)) => {
            if payload.is_empty() {
                // An initial-build block (see `new`).
                payload.resize(ctx.payload_len, 0);
            }
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

/// Runs `per_slot` over every input of one rebuild phase, cut into one
/// contiguous chunk per pool thread, and returns the outputs in slot
/// order — the shared scaffolding of both crypto halves of a rebuild
/// pass. Chunk boundaries depend only on the input length and the pool
/// width, each chunk gets exclusive use of one of `chunk_pools`, and every
/// chunk pool is drained back into `shared` before returning, so buffer
/// pooling stays globally balanced.
fn map_chunked<I: Send, O: Send>(
    workers: &WorkerPool,
    chunk_pools: &mut [BufferPool],
    shared: &mut BufferPool,
    inputs: &mut [I],
    per_slot: impl Fn(&mut BufferPool, usize, &mut I) -> O + Sync,
) -> Vec<O> {
    let chunk = chunk_len(inputs.len(), workers.width());
    let mut chunks: Vec<(&mut [I], &mut BufferPool)> = inputs
        .chunks_mut(chunk)
        .zip(chunk_pools.iter_mut())
        .collect();
    let outputs = workers.fork_join(&mut chunks, |index, (inputs, pool)| {
        let first = index * chunk;
        inputs
            .iter_mut()
            .enumerate()
            .map(|(j, input)| per_slot(pool, first + j, input))
            .collect::<Vec<O>>()
    });
    for pool in chunk_pools {
        pool.drain_into(shared);
    }
    outputs.into_iter().flatten().collect()
}

/// Slots per chunk when `len` slots are cut into `width` chunks —
/// shared by [`map_chunked`] and the seal phase's pre-stocking sweep.
fn chunk_len(len: usize, width: usize) -> usize {
    len.div_ceil(width).max(1)
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
    /// crypto, [`HOramConfig::worker_width`] wide.
    workers: WorkerPool,
    /// One buffer pool per chunk of the rebuild stream. Between phases
    /// the buffers live in [`pool`](Self::pool); each seal phase
    /// pre-stocks chunk `i`'s pool with exactly the buffers its slots
    /// will take, so the chunked stream allocates no more at any width.
    chunk_pools: Vec<BufferPool>,
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
            partition_live: vec![0; partition_count as usize],
            touched: vec![false; total_slots as usize],
            dummy_prp: FeistelPrp::new([0u8; 16], total_slots)?,
            dummy_cursor: 0,
            dummy_prf,
            dummy_key: [0u8; 16],
            pending: Vec::new(),
            pool: BufferPool::new(),
            workers: WorkerPool::new(config.worker_width()),
            chunk_pools: (0..config.worker_width())
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
        // run the standard full shuffle machinery. The payloads enter empty
        // and are zero-filled as each is sealed, so the whole dataset's
        // plaintext never exists at once beside the storage arena.
        let all: Vec<(BlockId, Vec<u8>)> = (0..config.capacity)
            .map(|id| (BlockId(id), Vec::new()))
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

    /// The owner of `slot`, read by a take and a re-place.
    #[cfg(test)]
    pub(crate) fn slot_owner(&mut self, slot: u64) -> Option<BlockId> {
        let owner = self.posmap.take_owner(slot).unwrap();
        if let Some(id) = owner {
            self.posmap.place(id, slot).unwrap();
        }
        owner
    }

    /// Whether `id` is resident: the slot its permutation-list entry names
    /// does not name it back.
    #[cfg(test)]
    pub(crate) fn is_resident(&mut self, id: BlockId) -> bool {
        let slot = self.posmap.location(id).unwrap();
        self.slot_owner(slot) != Some(id)
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
            partition_live,
            touched,
            dummy_prp: FeistelPrp::new(dummy_key, (total_slots as u64).max(1))?,
            dummy_cursor,
            dummy_prf,
            dummy_key,
            pending: Vec::new(),
            pool: BufferPool::new(),
            workers: WorkerPool::new(config.worker_width()),
            chunk_pools: (0..config.worker_width())
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
    /// (so later plans observe it; the hit test reads [`PlannedIo::expect`])
    /// and queues the device read for [`commit_io`](Self::commit_io).
    ///
    /// # Errors
    ///
    /// For a [`LoadPlan::Miss`], [`OramError::Internal`] if the block's
    /// slot was already read this period (the once-per-period invariant
    /// would be violated) or no longer names the block as its owner (the
    /// block is resident: the scheduler must classify hits before issuing
    /// I/O). Either means the instance's control state is damaged:
    /// fail-stop, quarantine, restore from a checkpoint.
    pub fn plan_io(&mut self, plan: LoadPlan) -> Result<PlannedIo, OramError> {
        let planned = match plan {
            LoadPlan::Miss(id) => {
                let slot = self.posmap.location(id)?;
                if self.touched[slot as usize] {
                    return Err(OramError::internal(format!(
                        "slot {slot} read twice in one period — invariant broken"
                    )));
                }
                self.touched[slot as usize] = true;
                let owner = self.take_owner_tracked(slot)?;
                if owner != Some(id) {
                    return Err(OramError::internal(format!(
                        "fetch of block {id} whose slot {slot} holds {owner:?} — \
                         resident block or diverged owner table"
                    )));
                }
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
    /// transitions (period markers, slot owners), and they are not rolled
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
            let mut sealed = SealedBlock::default();
            self.device.read_block(slot, &mut sealed)?;
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
            // bodies; discarded ciphertext buffers refill the pool. The
            // per-slot crypto runs data-parallel over deterministic chunks
            // and its results land in slot order, so errors surface at the
            // lowest failing slot.
            let ctx = PassCrypto {
                read_sealer: &read_sealer,
                write_sealer: &self.sealer,
                payload_len: self.payload_len,
                wire_len,
                device: self.device.name(),
            };
            let opened = map_chunked(
                &self.workers,
                &mut self.chunk_pools,
                &mut self.pool,
                &mut taken,
                |pool, offset, sealed| {
                    let addr = base + offset as u64;
                    open_pass_slot(&ctx, pool, addr, owners[offset], sealed.take())
                },
            );
            let mut union: Vec<PassEntry> = Vec::with_capacity(slots_per_pass);
            for slot in opened {
                if let Some((id, body)) = slot? {
                    union.push(PassEntry::Wire(id, body));
                }
            }

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
            // Pre-stock each chunk's pool with exactly the buffers its
            // dummy/hot slots will take, so the chunked stream allocates
            // no more than one chunk would (chunk boundaries match
            // `map_chunked` by construction).
            let chunk = chunk_len(slots_per_pass, self.workers.width());
            for (image_chunk, pool) in image.chunks(chunk).zip(&mut self.chunk_pools) {
                let need = image_chunk
                    .iter()
                    .filter(|entry| !matches!(entry, Some(PassEntry::Wire(..))))
                    .count();
                self.pool.transfer_to(pool, need);
            }
            let sealed_run = map_chunked(
                &self.workers,
                &mut self.chunk_pools,
                &mut self.pool,
                &mut image,
                |pool, offset, entry| {
                    let (addr, seq) = (base + offset as u64, seq_base + offset as u64);
                    seal_pass_slot(&ctx, pool, addr, seq, entry.take())
                },
            );
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

    // The baseline fixtures pin `worker_threads = 1`, one chunk per
    // phase; the `parallel_*` tests below compare wider pools against it.
    fn build_with(capacity: u64, trace: Option<AccessTrace>) -> StorageLayer {
        build_threaded(capacity, trace, 1)
    }

    fn build(capacity: u64) -> StorageLayer {
        build_with(capacity, None)
    }

    /// Plans `plans` and commits them as one scatter read.
    fn load(layer: &mut StorageLayer, plans: &[LoadPlan]) -> Result<BatchLoad, OramError> {
        for &plan in plans {
            layer.plan_io(plan)?;
        }
        layer.commit_io()
    }

    /// Plans one load and commits it on its own.
    fn load_one(layer: &mut StorageLayer, plan: LoadPlan) -> Result<IoLoad, OramError> {
        let mut batch = load(layer, &[plan])?;
        Ok(batch.loads.pop().expect("one load per plan"))
    }

    fn build_traced(capacity: u64) -> (StorageLayer, AccessTrace) {
        let trace = AccessTrace::recording();
        let layer = build_with(capacity, Some(trace.clone()));
        trace.clear();
        (layer, trace)
    }

    #[test]
    fn initial_layout_places_every_block() {
        let mut layer = build(100);
        for id in 0..100 {
            assert!(!layer.is_resident(BlockId(id)), "block {id} missing");
        }
    }

    #[test]
    fn initial_slots_are_distinct() {
        let mut layer = build(64);
        let slots: HashSet<u64> = (0..64)
            .map(|id| layer.posmap_mut().location(BlockId(id)).unwrap())
            .collect();
        assert_eq!(slots.len(), 64);
    }

    #[test]
    fn fetch_returns_payload_and_migrates() {
        let mut layer = build(64);
        let load = load_one(&mut layer, LoadPlan::Miss(BlockId(5))).unwrap();
        let (id, payload) = load.block.unwrap();
        assert_eq!(id, BlockId(5));
        assert_eq!(payload, vec![0u8; 8]);
        assert!(load.duration > SimDuration::ZERO);
        assert!(layer.is_resident(BlockId(5)));
    }

    #[test]
    fn double_fetch_is_a_typed_invariant_error() {
        let mut layer = build(64);
        load_one(&mut layer, LoadPlan::Miss(BlockId(5))).unwrap();
        let err = load_one(&mut layer, LoadPlan::Miss(BlockId(5))).unwrap_err();
        let OramError::Internal { context } = err else {
            panic!("expected Internal, got {err:?}");
        };
        assert!(context.contains("read twice"), "{context}");
    }

    /// A miss whose slot no longer names the block is a typed invariant
    /// error in every build, never a fetch of whatever the slot holds.
    #[test]
    fn cleared_slot_owner_fails_the_fetch_typed() {
        let mut layer = build(64);
        let id = BlockId(5);
        let slot = layer.posmap_mut().location(id).unwrap();
        assert_eq!(layer.posmap_mut().take_owner(slot).unwrap(), Some(id));
        let err = load_one(&mut layer, LoadPlan::Miss(id)).unwrap_err();
        let OramError::Internal { context } = err else {
            panic!("expected Internal, got {err:?}");
        };
        assert!(context.contains("diverged owner table"), "{context}");
    }

    /// A slot that opens cleanly but holds a different block than the
    /// position map names is a typed invariant violation, never a payload.
    #[test]
    fn slot_holding_another_block_is_malformed() {
        let mut layer = build(64);
        let (a, b) = (BlockId(5), BlockId(9));
        let posmap = layer.posmap_mut();
        let slot = posmap.location(b).unwrap();
        assert_eq!(posmap.take_owner(slot).unwrap(), Some(b));
        posmap.place(a, slot).unwrap();
        let err = load_one(&mut layer, LoadPlan::Miss(a)).unwrap_err();
        assert!(
            matches!(err, OramError::MalformedBlock { slot: s } if s == slot),
            "expected MalformedBlock {{ slot: {slot} }}, got {err:?}"
        );
    }

    #[test]
    fn dummy_loads_never_repeat_slots() {
        let mut layer = build(49);
        let trace_start = layer.device().stats().reads;
        let mut produced = 0;
        for _ in 0..30 {
            if load_one(&mut layer, LoadPlan::Dummy)
                .unwrap()
                .block
                .is_some()
            {
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
            load_one(&mut a, LoadPlan::Dummy).unwrap();
            load_one(&mut b, LoadPlan::Dummy).unwrap();
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
        let exhausted = load_one(&mut a, LoadPlan::Dummy).unwrap();
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
            load_one(&mut a, LoadPlan::Dummy).unwrap();
        }
        assert_ne!(
            trace_a.address_sequence(a.device().id()),
            order_a[..8].to_vec()
        );
    }

    #[test]
    fn one_batched_commit_matches_per_plan_commits_exactly() {
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
            seq_loads.push(load_one(&mut sequential, step).unwrap());
        }
        let seq_stats = sequential.device().stats().delta_since(&seq_before);

        let (mut batched, bat_trace) = build_traced(64);
        let bat_before = *batched.device().stats();
        let batch = load(&mut batched, &plan).unwrap();
        let bat_stats = batched.device().stats().delta_since(&bat_before);

        // Byte-identical results (timing aside) ...
        let blocks = |loads: &[IoLoad]| loads.iter().map(|l| l.block.clone()).collect::<Vec<_>>();
        assert_eq!(blocks(&seq_loads), blocks(&batch.loads));
        // ... identical adversary view (same slots, same order, same op
        // shape — oblivious-trace equality) ...
        assert_eq!(seq_trace.untimed(), bat_trace.untimed());
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
        load(
            &mut layer,
            &[Miss(BlockId(1)), Dummy, Dummy, Miss(BlockId(9)), Dummy],
        )
        .unwrap();
        load(&mut layer, &[Dummy, Dummy, Miss(BlockId(30)), Dummy]).unwrap();
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
        load(&mut layer, &[Miss(BlockId(1)), Dummy]).unwrap();
    }

    #[test]
    fn batched_dummy_exhaustion_is_a_zero_cost_no_op() {
        let mut layer = build(16);
        let total = layer.total_slots() as usize;
        let plan: Vec<LoadPlan> = std::iter::repeat_n(LoadPlan::Dummy, total + 5).collect();
        let before_reads = layer.device().stats().reads;
        let batch = load(&mut layer, &plan).unwrap();
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

    /// Planning touches only control state: the device sees nothing until
    /// the commit, which issues every staged load in planning order.
    #[test]
    fn planned_loads_reach_the_device_only_at_commit() {
        let (mut split, split_trace) = build_traced(64);
        let before = split.device().stats().reads;
        split.plan_io(LoadPlan::Miss(BlockId(2))).unwrap();
        split.plan_io(LoadPlan::Dummy).unwrap();
        assert_eq!(split.device().stats().reads, before);
        assert_eq!(split_trace.len(), 0);
        let split_batch = split.commit_io().unwrap();
        assert_eq!(split.device().stats().reads, before + 2);
        assert_eq!(split_batch.loads.len(), 2);
        assert_eq!(split_batch.loads[0].block.as_ref().unwrap().0, BlockId(2));
        // A second commit has nothing staged.
        assert!(split.commit_io().unwrap().loads.is_empty());
        assert_eq!(split_trace.len(), 2);
    }

    #[test]
    fn partition_live_counts_stay_consistent() {
        let mut layer = build(256);
        load_one(&mut layer, LoadPlan::Miss(BlockId(3))).unwrap();
        load_one(&mut layer, LoadPlan::Miss(BlockId(77))).unwrap();
        for _ in 0..12 {
            load_one(&mut layer, LoadPlan::Dummy).unwrap();
        }
        layer
            .rebuild_partial(vec![(BlockId(3), vec![0u8; 8])], 4, 6)
            .unwrap();
        // Cross-check the incremental counts against the owner table: a
        // slot is live iff it has an owner.
        let mut scanned = vec![0u64; layer.partition_count() as usize];
        for slot in 0..layer.total_slots() {
            if layer.slot_owner(slot).is_some() {
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

    /// Whole periods — hot blocks included — run allocation-free off
    /// recycled buffers after a warm-up, at one chunk per phase and at
    /// four (pre-stocked per chunk, drained back each phase), counting
    /// the shared pool and every chunk pool.
    #[test]
    fn steady_state_shuffle_recycles_buffers() {
        let period = |layer: &mut StorageLayer, seed: u64| {
            let mut hot = Vec::new();
            for id in [seed % 256, (seed + 100) % 256] {
                if !layer.is_resident(BlockId(id)) {
                    hot.push(
                        load_one(layer, LoadPlan::Miss(BlockId(id)))
                            .unwrap()
                            .block
                            .unwrap(),
                    );
                }
            }
            for _ in 0..6 {
                if let Some(block) = load_one(layer, LoadPlan::Dummy).unwrap().block {
                    hot.push(block);
                }
            }
            layer.rebuild_full(hot, seed).unwrap();
        };
        let counters = |layer: &StorageLayer| {
            let (mut reused, mut allocated) = layer.pool.counters();
            for pool in &layer.chunk_pools {
                let (r, a) = pool.counters();
                reused += r;
                allocated += a;
            }
            (reused, allocated)
        };
        for threads in [1, 4] {
            let mut layer = build_threaded(256, None, threads);
            period(&mut layer, 1);
            let (_, allocated_before) = counters(&layer);
            period(&mut layer, 2);
            period(&mut layer, 3);
            let (reused, allocated_after) = counters(&layer);
            assert_eq!(
                allocated_after, allocated_before,
                "threads={threads}: steady-state shuffle must not allocate"
            );
            assert!(reused > 0, "threads={threads}: pools must be exercised");
        }
    }

    /// Drives one instance through misses, dummies and a rebuild; returns
    /// the storage trace and a probe fetch for cross-config comparison.
    fn shuffle_fingerprint(layer: &mut StorageLayer, trace: &AccessTrace) -> (Vec<u64>, Vec<u8>) {
        let mut hot = Vec::new();
        for id in [3u64, 77, 150] {
            hot.push(
                load_one(layer, LoadPlan::Miss(BlockId(id)))
                    .unwrap()
                    .block
                    .unwrap(),
            );
        }
        for _ in 0..10 {
            if let Some(block) = load_one(layer, LoadPlan::Dummy).unwrap().block {
                hot.push(block);
            }
        }
        hot[0].1 = vec![9u8; 8];
        layer.rebuild_full(hot, 21).unwrap();
        let probe = load_one(layer, LoadPlan::Miss(BlockId(3)))
            .unwrap()
            .block
            .unwrap()
            .1;
        (trace.address_sequence(layer.device().id()), probe)
    }

    #[test]
    fn parallel_rebuild_is_byte_identical_to_serial() {
        // The data-parallel seal/open stream must leave no observable
        // difference: same storage trace, same device bytes, same data.
        let (mut serial, serial_trace) = build_traced(256);
        let serial_fp = shuffle_fingerprint(&mut serial, &serial_trace);
        for threads in [2usize, 4] {
            let trace = AccessTrace::recording();
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
    fn rebuild_full_brings_everything_home() {
        let mut layer = build(64);
        let mut hot = Vec::new();
        for id in [1u64, 7, 30, 63] {
            hot.push(
                load_one(&mut layer, LoadPlan::Miss(BlockId(id)))
                    .unwrap()
                    .block
                    .unwrap(),
            );
        }
        // Overwrite one payload as the memory layer would.
        hot[0].1 = vec![9u8; 8];
        let report = layer.rebuild_full(hot, 33).unwrap();
        assert_eq!(report.partitions, layer.partition_count);
        assert!((0..64).all(|id| !layer.is_resident(BlockId(id))));
        // Refetch the updated block and verify the new payload survived.
        let load = load_one(&mut layer, LoadPlan::Miss(BlockId(1))).unwrap();
        assert_eq!(load.block.unwrap().1, vec![9u8; 8]);
    }

    #[test]
    fn rebuild_repermutes_slots() {
        let mut layer = build(256);
        let slots = |layer: &mut StorageLayer| -> Vec<u64> {
            (0..256)
                .map(|id| layer.posmap_mut().location(BlockId(id)).unwrap())
                .collect()
        };
        let before = slots(&mut layer);
        layer.rebuild_full(Vec::new(), 77).unwrap();
        let after = slots(&mut layer);
        let moved = before.iter().zip(&after).filter(|(a, b)| a != b).count();
        assert!(moved > 200, "only {moved}/256 blocks moved");
    }

    #[test]
    fn rebuild_rotates_epoch_and_resets_touched() {
        let mut layer = build(64);
        let epoch = layer.epoch();
        load_one(&mut layer, LoadPlan::Miss(BlockId(3))).unwrap();
        let hot = vec![(BlockId(3), vec![0u8; 8])];
        layer.rebuild_full(hot, 1).unwrap();
        assert_eq!(layer.epoch(), epoch + 1);
        // The block is fetchable again (its new slot is untouched).
        load_one(&mut layer, LoadPlan::Miss(BlockId(3))).unwrap();
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
        // resident either way.
        load_one(&mut layer, LoadPlan::Miss(BlockId(100))).unwrap();
        let hot = vec![(BlockId(100), vec![0u8; 8])];
        layer.rebuild_partial(hot, 2, 3).unwrap();
        // Block 100 went into the window, so it is on storage again.
        assert!(!layer.is_resident(BlockId(100)));
        load_one(&mut layer, LoadPlan::Miss(BlockId(100))).unwrap();
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
            fn one_commit_equals_per_load_commits(
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
                // block an earlier dummy already prefetched — its slot's
                // owner no longer names it (the scheduler never issues I/O
                // for resident blocks); the surviving
                // plan is what the batch replays.
                let (mut sequential, seq_trace) = build_traced(64);
                let mut plan: Vec<LoadPlan> = Vec::with_capacity(intended.len());
                let mut seq_blocks = Vec::new();
                for step in intended {
                    let step = match step {
                        LoadPlan::Miss(id) if sequential.is_resident(id) => LoadPlan::Dummy,
                        other => other,
                    };
                    plan.push(step);
                    seq_blocks.push(load_one(&mut sequential, step).unwrap().block);
                }
                let (mut batched, bat_trace) = build_traced(64);
                let batch = load(&mut batched, &plan).unwrap();

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
