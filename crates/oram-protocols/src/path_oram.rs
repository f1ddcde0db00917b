//! Path ORAM (Stefanov et al.) over a pluggable tree backend.
//!
//! The protocol the paper builds on twice: as the **in-memory cache layer**
//! of H-ORAM (tree on DRAM, §4.1.2) and — in its *tree-top-cache* placement
//! (see [`crate::tree_top_cache`]) — as the **baseline** every evaluation
//! table compares against.
//!
//! Per access (paper §2.1.2): look up the block's leaf in the position map,
//! read the whole root→leaf path into the stash, remap the block to a fresh
//! uniformly random leaf, serve the request from the stash, and write the
//! path back greedily (each bucket takes up to `Z` stash blocks whose
//! current leaf keeps them on this path; empty slots become dummies). Every
//! slot that leaves the trusted boundary is sealed, so real and dummy
//! ciphertexts are indistinguishable.
//!
//! Two layers: [`PathTree`] is the tree — geometry, backend, stash,
//! sealer — and its caller names every leaf; [`PathOramCore`] adds the
//! id → leaf table, the RNG and the statistics. `horam-core`'s recursive
//! position map drives one `PathTree` per level, whose pages' leaves live
//! in their parent pages.
//!
//! Additions for the H-ORAM memory layer (used in `horam-core`):
//!
//! * [`PathOramCore::insert_block`] — place an I/O-fetched block directly
//!   into the stash with a fresh leaf (no device access; the block enters
//!   the tree through later write-backs), matching §4.1 "the I/O access
//!   brings data to the stash of the in-memory path ORAM";
//! * [`PathOramCore::dummy_access`] — a full path read+write-back of a
//!   random leaf, used by the secure scheduler to pad short cycles;
//! * [`PathOramCore::evict_all`] — stream every slot out, returning the
//!   real blocks (the oblivious-evict step performs the shuffle);
//! * [`PathOramCore::rebuild_empty`] — re-initialize an all-dummy tree for
//!   the next access period.

use crate::backend::{SingleDeviceBackend, TreeBackend};
use crate::bucket_tree::TreeGeometry;
use crate::error::OramError;
use crate::oram_trait::Oram;
use crate::position_map::PositionMap;
use crate::stash::{Stash, StashEntry};
use crate::types::{BlockContent, BlockContentRef, BlockId};
use oram_crypto::keys::SubKeys;
use oram_crypto::persist::{StateReader, StateWriter};
use oram_crypto::rng::DeterministicRng;
use oram_crypto::seal::{BlockSealer, SealedBlock};
use oram_storage::clock::SimDuration;
use oram_storage::device::Device;

/// Time spent by one logical operation, split by device class.
///
/// Protocols compose these into wall-clock time: the tree-top-cache
/// baseline adds them (dependent accesses), H-ORAM overlaps memory time of
/// hits with the storage time of the cycle's miss.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessReceipt {
    /// Simulated time on the memory device.
    pub memory: SimDuration,
    /// Simulated time on the storage device.
    pub storage: SimDuration,
}

impl AccessReceipt {
    /// Component-wise sum.
    pub fn merged(&self, other: &AccessReceipt) -> AccessReceipt {
        AccessReceipt {
            memory: self.memory + other.memory,
            storage: self.storage + other.storage,
        }
    }

    /// Serial wall-clock interpretation (`memory + storage`).
    pub fn serial(&self) -> SimDuration {
        self.memory + self.storage
    }
}

/// Configuration of a Path ORAM instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathOramConfig {
    /// Number of logical blocks (N).
    pub capacity: u64,
    /// Bucket size; the paper uses Z = 4 throughout.
    pub z: u32,
    /// Application payload bytes per block.
    pub payload_len: usize,
    /// Stash bound (entries) before [`OramError::StashOverflow`].
    pub stash_limit: usize,
    /// Seed for leaf-remapping randomness.
    pub seed: u64,
}

impl PathOramConfig {
    /// A conventional configuration: Z=4, generous stash, given capacity
    /// and payload size.
    pub fn new(capacity: u64, payload_len: usize) -> Self {
        Self {
            capacity,
            z: 4,
            payload_len,
            stash_limit: 4096,
            seed: 0x0_5e_ed,
        }
    }
}

/// Statistics of one Path ORAM instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathOramStats {
    /// Logical accesses served (reads + writes).
    pub accesses: u64,
    /// Dummy (padding) path accesses performed.
    pub dummy_accesses: u64,
    /// Blocks inserted directly into the stash (H-ORAM I/O arrivals).
    pub stash_inserts: u64,
    /// Tree rebuilds (H-ORAM periods).
    pub rebuilds: u64,
}

/// Plaintext blocks returned by [`PathOramCore::evict_all`]:
/// `(logical id, payload)` pairs.
pub type EvictedBlocks = Vec<(BlockId, Vec<u8>)>;

/// The tree half of Path ORAM — everything but the id → leaf table and
/// the randomness, which the caller owns. A path access is
/// [`read_path`](Self::read_path), stash work ([`take`](Self::take),
/// [`put`](Self::put)), then [`write_back`](Self::write_back).
#[derive(Debug)]
pub struct PathTree<B: TreeBackend> {
    geometry: TreeGeometry,
    backend: B,
    stash: Stash,
    sealer: BlockSealer,
    payload_len: usize,
    /// Monotonic sequence number making every seal nonce unique.
    seal_seq: u64,
    /// One block per slot of a root-to-leaf path, reused by every access:
    /// the read copies the path's records in and opens them in place, the
    /// write-back seals the new contents into it.
    path: Vec<SealedBlock>,
}

impl<B: TreeBackend> PathTree<B> {
    /// A tree over `backend` sealing under `keys`, with `payload_len`-byte
    /// blocks and a stash of at most `stash_limit`. Writes nothing.
    pub fn new(
        geometry: TreeGeometry,
        backend: B,
        keys: &SubKeys,
        payload_len: usize,
        stash_limit: usize,
    ) -> Self {
        Self {
            geometry,
            backend,
            stash: Stash::new(stash_limit),
            sealer: BlockSealer::new(keys),
            payload_len,
            seal_seq: 0,
            path: vec![SealedBlock::default(); (geometry.depth() * geometry.z()) as usize],
        }
    }

    /// The tree geometry.
    pub fn geometry(&self) -> TreeGeometry {
        self.geometry
    }

    /// The backend (device accounting).
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Mutable access to the backend (experiment plumbing, fault tests).
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// Payload bytes per block.
    pub fn payload_len(&self) -> usize {
        self.payload_len
    }

    /// Current stash occupancy.
    pub fn stash_len(&self) -> usize {
        self.stash.len()
    }

    /// Peak stash occupancy (the bounded-stash invariant's witness).
    pub fn stash_peak(&self) -> usize {
        self.stash.peak()
    }

    /// Seals everything written from now on under `keys` (a new epoch).
    pub fn rekey(&mut self, keys: &SubKeys) {
        self.sealer = BlockSealer::new(keys);
    }

    /// Takes block `id` out of the stash, returning its payload.
    pub fn take(&mut self, id: BlockId) -> Option<Vec<u8>> {
        self.stash.remove(id).map(|entry| entry.payload)
    }

    /// Files block `id` in the stash under `leaf` (no device access),
    /// replacing any entry of that id. A wrong payload length or a full
    /// stash is a typed error that leaves the stash unchanged. Panics if
    /// `leaf` is outside the tree.
    pub fn put(&mut self, id: BlockId, leaf: u64, payload: Vec<u8>) -> Result<(), OramError> {
        assert!(leaf < self.geometry.leaf_count(), "leaf out of range");
        self.check_payload(payload.len())?;
        self.stash.insert(StashEntry { id, leaf, payload })
    }

    fn check_payload(&self, len: usize) -> Result<(), OramError> {
        if len != self.payload_len {
            return Err(OramError::PayloadSize {
                expected: self.payload_len,
                got: len,
            });
        }
        Ok(())
    }

    /// The slot addresses of the path to `leaf`, root first.
    fn path_slots(&self, leaf: u64) -> Vec<u64> {
        let geometry = self.geometry;
        let nodes = geometry.path_nodes(leaf);
        nodes
            .into_iter()
            .flat_map(|node| (0..geometry.z()).map(move |slot| geometry.slot_addr(node, slot)))
            .collect()
    }

    /// Reads the path to `leaf` slot by slot, root first, into the path
    /// buffer, opens it in place as one batch, and files every real block
    /// in the stash under `relabel(id, stored leaf)`. Fail-closed: the
    /// whole path is verified before anything is decrypted, so on a
    /// corrupt slot the stash is exactly what it was and the buffer holds
    /// only ciphertext.
    pub fn read_path(
        &mut self,
        leaf: u64,
        relabel: impl Fn(BlockId, u64) -> u64,
    ) -> Result<(), OramError> {
        let addrs = self.path_slots(leaf);
        for (&addr, block) in addrs.iter().zip(&mut self.path) {
            self.backend.read_slot(addr, block)?;
        }
        self.sealer.open_blocks(&mut self.path)?;
        for (&addr, block) in addrs.iter().zip(&self.path) {
            if let BlockContentRef::Real { id, leaf, payload } =
                BlockContent::decode_ref(block.ciphertext(), addr)?
            {
                self.stash.insert(StashEntry {
                    id,
                    leaf: relabel(id, leaf),
                    payload: payload.to_vec(),
                })?;
            }
        }
        Ok(())
    }

    /// Fills the path to `leaf` from the stash leaf-first, encoding each
    /// slot into the path buffer under the next seal sequence number,
    /// seals the buffer as one batch, and writes the slots in the order
    /// they were filled.
    pub fn write_back(&mut self, leaf: u64) -> Result<(), OramError> {
        let geometry = self.geometry;
        let z = geometry.z() as usize;
        // Leaf-first: deepest buckets take the most constrained blocks.
        let mut nodes = geometry.path_nodes(leaf);
        nodes.reverse();
        let mut buffer = self.path.iter_mut();
        for node in nodes {
            let selected = self
                .stash
                .take_matching(z, |entry| geometry.node_on_path(node, entry.leaf));
            let mut selected = selected.into_iter();
            for slot in 0..geometry.z() {
                let content = match selected.next() {
                    Some(StashEntry { id, leaf, payload }) => {
                        BlockContent::Real { id, leaf, payload }
                    }
                    None => BlockContent::Dummy,
                };
                // A slot's seal is bound to its address.
                let block = buffer.next().expect("one buffer entry per path slot");
                let body = block.rebind(geometry.slot_addr(node, slot), self.seal_seq);
                content.encode_into(self.payload_len, body);
                self.seal_seq += 1;
            }
        }
        self.sealer.seal_blocks(&mut self.path);
        for block in &self.path {
            self.backend.write_slot(block.block_id(), block)?;
        }
        Ok(())
    }

    /// Replaces the tree and the stash with `(id, leaf, payload)` blocks:
    /// each, in the order given, goes into the deepest bucket on its path
    /// with room, else into the stash. Every slot then streams out in
    /// address order as one write run, sealed in batches of
    /// `STREAM_CHUNK` as the run consumes it (one batch exists outside
    /// the device) under sequence numbers drawn slot by slot.
    pub fn write_greedy_image(
        &mut self,
        blocks: impl IntoIterator<Item = (BlockId, u64, Vec<u8>)>,
    ) -> Result<(), OramError> {
        let geometry = self.geometry;
        let z = geometry.z() as usize;
        let mut staged: Vec<Vec<StashEntry>> = vec![Vec::new(); geometry.bucket_count() as usize];
        self.stash.drain_all();
        for (id, leaf, payload) in blocks {
            self.check_payload(payload.len())?;
            // Deepest-first greedy placement.
            match geometry
                .path_nodes(leaf)
                .into_iter()
                .rev()
                .find(|&node| staged[node as usize].len() < z)
            {
                Some(node) => staged[node as usize].push(StashEntry { id, leaf, payload }),
                None => self.put(id, leaf, payload)?,
            }
        }
        let mut slots = (0u64..).zip(staged).flat_map(|(node, bucket)| {
            let mut bucket = bucket.into_iter();
            (0..geometry.z()).map(move |slot| {
                let content = match bucket.next() {
                    Some(StashEntry { id, leaf, payload }) => {
                        BlockContent::Real { id, leaf, payload }
                    }
                    None => BlockContent::Dummy,
                };
                (geometry.slot_addr(node, slot), content)
            })
        });
        let (sealer, seal_seq, payload_len) = (&self.sealer, &mut self.seal_seq, self.payload_len);
        let mut batch = Vec::new().into_iter();
        let image = (0..geometry.total_slots() as usize).map(|_| {
            if batch.len() == 0 {
                let mut blocks: Vec<SealedBlock> = (&mut slots)
                    .take(STREAM_CHUNK)
                    .map(|(addr, content)| {
                        *seal_seq += 1;
                        SealedBlock::from_parts(addr, *seal_seq - 1, content.encode(payload_len), 0)
                    })
                    .collect();
                sealer.seal_blocks(&mut blocks);
                batch = blocks.into_iter();
            }
            batch.next().expect("one content per tree slot")
        });
        self.backend.init_all_slots(image)?;
        Ok(())
    }
}

impl PathTree<SingleDeviceBackend> {
    /// Serializes the seal sequence, the stash (plaintext — the caller
    /// seals the snapshot) and its peak, and the device image.
    pub fn save_state(&mut self, w: &mut StateWriter) -> Result<(), OramError> {
        w.put_u64(self.seal_seq);
        w.put_usize(self.stash.len());
        for entry in self.stash.iter() {
            w.put_u64(entry.id.0);
            w.put_u64(entry.leaf);
            w.put_bytes(&entry.payload);
        }
        w.put_usize(self.stash.peak());
        self.backend
            .device_mut()
            .save_state(w)
            .map_err(OramError::Storage)
    }

    /// Restores [`save_state`](Self::save_state)'s output onto a tree of
    /// the same shape, refusing stash ids from `id_bound` up; a malformed
    /// state is refused before the seal sequence or stash is adopted.
    pub fn load_state(&mut self, r: &mut StateReader<'_>, id_bound: u64) -> Result<(), OramError> {
        let seal_seq = r.get_u64()?;
        let stash_count = r.get_usize()?;
        if stash_count > self.stash.limit() {
            return Err(OramError::SnapshotInvalid {
                reason: "stash beyond configured bound".into(),
            });
        }
        let mut entries = Vec::with_capacity(stash_count);
        for _ in 0..stash_count {
            let id = BlockId(r.get_u64()?);
            let leaf = r.get_u64()?;
            let payload = r.get_bytes()?.to_vec();
            if id.0 >= id_bound
                || leaf >= self.geometry.leaf_count()
                || payload.len() != self.payload_len
            {
                return Err(OramError::SnapshotInvalid {
                    reason: format!("stash entry {id} out of range or of the wrong length"),
                });
            }
            entries.push(StashEntry { id, leaf, payload });
        }
        let stash_peak = r.get_usize()?;
        self.backend.device_mut().load_state(r)?;
        self.seal_seq = seal_seq;
        self.stash.restore(entries, stash_peak);
        Ok(())
    }
}

/// Path ORAM over a generic backend: a [`PathTree`] plus the position
/// map, the leaf RNG and the statistics. See the [module docs](self).
#[derive(Debug)]
pub struct PathOramCore<B: TreeBackend> {
    tree: PathTree<B>,
    position_map: PositionMap,
    rng: DeterministicRng,
    capacity: u64,
    stats: PathOramStats,
}

/// Path ORAM with the whole tree on one device — the H-ORAM memory layer
/// (DRAM device) or a single-device baseline.
pub type PathOram = PathOramCore<SingleDeviceBackend>;

impl PathOram {
    /// Builds a Path ORAM wholly on `device`, sized for
    /// `config.capacity` real blocks (≈2N slots), with an all-dummy tree.
    ///
    /// # Errors
    ///
    /// Propagates storage errors from the initial tree write.
    pub fn new(config: PathOramConfig, device: Device, keys: &SubKeys) -> Result<Self, OramError> {
        let geometry = TreeGeometry::for_capacity(config.capacity, config.z);
        Self::with_geometry(config, geometry, SingleDeviceBackend::new(device), keys)
    }

    /// Builds a Path ORAM constrained to `slot_budget` device slots (the
    /// H-ORAM memory layer: largest tree that fits the memory budget).
    ///
    /// `capacity` is the *logical id range* the position map covers, which
    /// may far exceed the tree's resident capacity — H-ORAM keeps at most
    /// `slot_budget/2` blocks resident but any of the N dataset blocks can
    /// be cached. When `capacity` is `None`, it defaults to half the slot
    /// count (a standalone 50 %-utilization tree).
    ///
    /// # Errors
    ///
    /// Propagates storage errors from the initial tree write.
    pub fn for_slot_budget(
        slot_budget: u64,
        capacity: Option<u64>,
        payload_len: usize,
        device: Device,
        keys: &SubKeys,
        seed: u64,
    ) -> Result<Self, OramError> {
        let geometry = TreeGeometry::for_slot_budget(slot_budget, 4);
        let config = PathOramConfig {
            capacity: capacity.unwrap_or(geometry.total_slots() / 2),
            z: 4,
            payload_len,
            stash_limit: 16384,
            seed,
        };
        Self::with_geometry(config, geometry, SingleDeviceBackend::new(device), keys)
    }

    /// The underlying device (experiment accounting).
    pub fn device(&self) -> &Device {
        self.tree.backend.device()
    }

    /// Mutable access to the underlying device (experiment plumbing, e.g.
    /// charging the oblivious-evict buffer shuffle to DRAM).
    pub fn device_mut(&mut self) -> &mut Device {
        self.tree.backend_mut().device_mut()
    }

    /// Serializes every piece of mutable state a restore needs to resume
    /// byte-identically: position map, RNG stream position, statistics,
    /// and [`PathTree::save_state`].
    ///
    /// # Errors
    ///
    /// Storage backend errors propagate.
    pub fn save_state(&mut self, w: &mut StateWriter) -> Result<(), OramError> {
        w.put_u64(self.capacity);
        w.put_usize(self.tree.payload_len);
        w.put_u64(self.tree.geometry.total_slots());
        let (counter, cursor) = self.rng.stream_pos();
        w.put_u32(counter);
        w.put_usize(cursor);
        w.put_u64(self.stats.accesses);
        w.put_u64(self.stats.dummy_accesses);
        w.put_u64(self.stats.stash_inserts);
        w.put_u64(self.stats.rebuilds);
        w.put_usize(self.position_map.assigned());
        for (id, tag) in self.position_map.assigned_entries() {
            w.put_u64(id);
            w.put_u64(tag);
        }
        self.tree.save_state(w)
    }

    /// Restores state captured by [`save_state`](Self::save_state) onto a
    /// freshly constructed instance of the same configuration. After this
    /// returns, the instance behaves byte-identically to the one the
    /// state was captured from.
    ///
    /// # Errors
    ///
    /// [`OramError::SnapshotInvalid`] on geometry mismatch or malformed
    /// state; nothing is partially adopted on error paths that matter
    /// (validation happens before mutation).
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), OramError> {
        let capacity = r.get_u64()?;
        let payload_len = r.get_usize()?;
        let total_slots = r.get_u64()?;
        let geometry = self.tree.geometry;
        let (snapshot, instance) = (
            (capacity, payload_len, total_slots),
            (self.capacity, self.tree.payload_len, geometry.total_slots()),
        );
        if snapshot != instance {
            return Err(OramError::SnapshotInvalid {
                reason: format!(
                    "memory-tree geometry mismatch: (blocks, payload bytes, slots) \
                     {snapshot:?} in the snapshot, {instance:?} here"
                ),
            });
        }
        let rng_counter = r.get_u32()?;
        let rng_cursor = r.get_usize()?;
        if rng_cursor > 64 || (rng_cursor < 64 && rng_counter == 0) {
            return Err(OramError::SnapshotInvalid {
                reason: "rng stream position out of range".into(),
            });
        }
        let stats = PathOramStats {
            accesses: r.get_u64()?,
            dummy_accesses: r.get_u64()?,
            stash_inserts: r.get_u64()?,
            rebuilds: r.get_u64()?,
        };
        let position_count = r.get_usize()?;
        if position_count as u64 > self.capacity {
            return Err(OramError::SnapshotInvalid {
                reason: format!("{position_count} position entries beyond capacity"),
            });
        }
        let mut positions = Vec::with_capacity(position_count);
        for _ in 0..position_count {
            let id = r.get_u64()?;
            let tag = r.get_u64()?;
            if id >= self.capacity || tag >= geometry.leaf_count() {
                return Err(OramError::SnapshotInvalid {
                    reason: format!("position entry ({id}, {tag}) out of range"),
                });
            }
            positions.push((id, tag));
        }
        self.tree.load_state(r, self.capacity)?;
        self.rng.seek_to(rng_counter, rng_cursor);
        self.stats = stats;
        self.position_map.restore(positions);
        Ok(())
    }
}

impl<B: TreeBackend> PathOramCore<B> {
    /// Builds a Path ORAM with an explicit geometry over `backend`.
    ///
    /// # Errors
    ///
    /// Propagates storage errors from the initial tree write.
    pub(crate) fn with_geometry(
        config: PathOramConfig,
        geometry: TreeGeometry,
        backend: B,
        keys: &SubKeys,
    ) -> Result<Self, OramError> {
        assert!(config.capacity > 0, "capacity must be positive");
        let mut oram = Self {
            tree: PathTree::new(
                geometry,
                backend,
                keys,
                config.payload_len,
                config.stash_limit,
            ),
            position_map: PositionMap::new(config.capacity),
            rng: DeterministicRng::from_u64_seed(config.seed),
            capacity: config.capacity,
            stats: PathOramStats::default(),
        };
        oram.tree.write_greedy_image([])?;
        Ok(oram)
    }

    /// The tree: geometry, backend (device accounting), stash occupancy.
    pub fn tree(&self) -> &PathTree<B> {
        &self.tree
    }

    /// Statistics of this instance.
    pub fn stats(&self) -> PathOramStats {
        self.stats
    }

    /// Number of logical blocks currently resident (position-map entries).
    pub fn resident_blocks(&self) -> usize {
        self.position_map.assigned()
    }

    fn check_range(&self, id: BlockId) -> Result<(), OramError> {
        if id.0 >= self.capacity {
            return Err(OramError::BlockOutOfRange {
                id: id.0,
                capacity: self.capacity,
            });
        }
        Ok(())
    }

    fn busy_delta(&self, before: (SimDuration, SimDuration)) -> AccessReceipt {
        let (mem, storage) = self.tree.backend.busy();
        AccessReceipt {
            memory: mem - before.0,
            storage: storage - before.1,
        }
    }

    /// A path access that draws its own randomness: the block's leaf is
    /// looked up (a never-seen block reads a uniformly random path), then
    /// the remap target is drawn — in that order, which is the pinned RNG
    /// stream — and [`access_explicit`](Self::access_explicit) does the
    /// work.
    fn path_access(
        &mut self,
        id: BlockId,
        op: impl FnMut(&mut StashEntry) -> Vec<u8>,
    ) -> Result<(Vec<u8>, AccessReceipt), OramError> {
        self.check_range(id)?;
        let leaf = match self.position_map.get(id) {
            Some(leaf) => leaf,
            None => self.draw_leaf(),
        };
        let new_leaf = self.draw_leaf();
        self.access_explicit(id, leaf, new_leaf, op)
    }

    /// The one path-access body (paper §2.1.2): read the path of `leaf`
    /// into the stash, remap block `id` to `new_leaf`, serve `op` from the
    /// stash, write the path back.
    ///
    /// `op` receives the stash entry (created zero-filled on first touch)
    /// and returns the bytes handed to the caller. `id` is in range and
    /// `leaf` on the tree (callers took it from the position map or the
    /// RNG). Nothing trusted-side changes before the path has been read
    /// and verified and the stash has accepted the block.
    fn access_explicit(
        &mut self,
        id: BlockId,
        leaf: u64,
        new_leaf: u64,
        mut op: impl FnMut(&mut StashEntry) -> Vec<u8>,
    ) -> Result<(Vec<u8>, AccessReceipt), OramError> {
        assert!(
            new_leaf < self.tree.geometry.leaf_count(),
            "new leaf out of range"
        );
        let busy_before = self.tree.backend.busy();
        // The position map is authoritative; the stored leaf should match
        // it for tree-resident blocks.
        let position_map = &self.position_map;
        self.tree
            .read_path(leaf, |id, stored| position_map.get(id).unwrap_or(stored))?;

        let stash = &mut self.tree.stash;
        if !stash.contains(id) {
            // First access to this block: materialize zero-filled content
            // (the ORAM stores the whole logical array, lazily).
            stash.insert(StashEntry {
                id,
                leaf: new_leaf,
                payload: vec![0u8; self.tree.payload_len],
            })?;
        }
        // Remap before serving so the stash entry carries the new leaf.
        self.position_map.set(id, new_leaf);
        let entry = stash.get_mut(id).expect("just ensured present");
        entry.leaf = new_leaf;
        let out = op(entry);

        self.tree.write_back(leaf)?;
        self.stats.accesses += 1;
        Ok((out, self.busy_delta(busy_before)))
    }

    /// Reads block `id`, returning its payload and timing receipt.
    ///
    /// # Errors
    ///
    /// [`OramError::BlockOutOfRange`] for ids ≥ capacity; storage/crypto
    /// errors propagate.
    pub fn access_read(&mut self, id: BlockId) -> Result<(Vec<u8>, AccessReceipt), OramError> {
        self.path_access(id, |entry| entry.payload.clone())
    }

    /// A uniformly random leaf drawn from this instance's seeded RNG —
    /// exposed so H-ORAM's scheduler can **pre-draw** an access's
    /// randomness at plan time (see the `*_at` access variants).
    pub fn draw_leaf(&mut self) -> u64 {
        self.tree.geometry.random_leaf(&mut self.rng)
    }

    /// The RNG stream position `(block counter, byte cursor)` — exposed
    /// for determinism audits: H-ORAM's regression tests pin the position
    /// after a fixed workload, so a change to how many leaves the
    /// scheduler pre-draws at plan time fails a test.
    pub fn rng_stream_pos(&self) -> (u32, usize) {
        self.rng.stream_pos()
    }

    /// The assigned leaf of `id`, or an error if the block was never
    /// assigned — the lookup backing the pinned-randomness access
    /// variants, which exist precisely for blocks whose position is
    /// already known at plan time.
    fn pinned_leaf(&self, id: BlockId) -> Result<u64, OramError> {
        self.check_range(id)?;
        self.position_map.get(id).ok_or_else(|| {
            OramError::internal(format!("pre-drawn access to unassigned block {id}"))
        })
    }

    /// [`access_read`](Self::access_read) with **pre-drawn** remap
    /// randomness: the block must already be assigned (H-ORAM hit blocks
    /// always are — their I/O arrival assigned a leaf), and `new_leaf`
    /// replaces the draw [`path_access`](Self::access_read) would make.
    /// Device accesses, stash transitions, and statistics are identical
    /// to `access_read`; callers drawing `new_leaf` from
    /// [`draw_leaf`](Self::draw_leaf) in the same order the unpinned path
    /// would preserve the RNG stream byte for byte.
    ///
    /// # Errors
    ///
    /// [`OramError::BlockOutOfRange`] for ids ≥ capacity;
    /// [`OramError::Internal`] for unassigned blocks (the caller's
    /// hit classification is broken); storage/crypto errors propagate.
    pub fn access_read_at(
        &mut self,
        id: BlockId,
        new_leaf: u64,
    ) -> Result<(Vec<u8>, AccessReceipt), OramError> {
        let leaf = self.pinned_leaf(id)?;
        self.access_explicit(id, leaf, new_leaf, |entry| entry.payload.clone())
    }

    /// [`access_write`](Self::access_write) with pre-drawn remap
    /// randomness; see [`access_read_at`](Self::access_read_at).
    ///
    /// # Errors
    ///
    /// As [`access_read_at`](Self::access_read_at), plus
    /// [`OramError::PayloadSize`] for a wrong-length payload.
    pub fn access_write_at(
        &mut self,
        id: BlockId,
        new_leaf: u64,
        data: &[u8],
    ) -> Result<(Vec<u8>, AccessReceipt), OramError> {
        self.tree.check_payload(data.len())?;
        let leaf = self.pinned_leaf(id)?;
        let data = data.to_vec();
        self.access_explicit(id, leaf, new_leaf, move |entry| {
            std::mem::replace(&mut entry.payload, data.clone())
        })
    }

    /// The position-map entry for `id`, if assigned (fault-injection tests
    /// use it to find the path an access will read).
    pub fn leaf_hint(&self, id: BlockId) -> Option<u64> {
        if id.0 >= self.capacity {
            return None;
        }
        self.position_map.get(id)
    }

    /// Writes block `id`, returning the previous payload and timing
    /// receipt.
    ///
    /// # Errors
    ///
    /// [`OramError::PayloadSize`] if `data` has the wrong length;
    /// [`OramError::BlockOutOfRange`] for ids ≥ capacity.
    pub fn access_write(
        &mut self,
        id: BlockId,
        data: &[u8],
    ) -> Result<(Vec<u8>, AccessReceipt), OramError> {
        self.tree.check_payload(data.len())?;
        let data = data.to_vec();
        self.path_access(id, move |entry| {
            std::mem::replace(&mut entry.payload, data.clone())
        })
    }

    /// A padding access: full read+write-back of a uniformly random path,
    /// touching no logical block. Indistinguishable from a real access on
    /// the bus.
    ///
    /// # Errors
    ///
    /// Storage/crypto errors propagate.
    pub fn dummy_access(&mut self) -> Result<AccessReceipt, OramError> {
        let leaf = self.draw_leaf();
        self.dummy_access_at(leaf)
    }

    /// [`dummy_access`](Self::dummy_access) with a **pre-drawn** path:
    /// reads and writes back the path of `leaf` instead of drawing one.
    /// H-ORAM's scheduler draws the leaf (via
    /// [`draw_leaf`](Self::draw_leaf)) when it plans the cycle.
    ///
    /// # Errors
    ///
    /// Storage/crypto errors propagate.
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is outside the tree.
    pub fn dummy_access_at(&mut self, leaf: u64) -> Result<AccessReceipt, OramError> {
        let busy_before = self.tree.backend.busy();
        let position_map = &self.position_map;
        self.tree
            .read_path(leaf, |id, stored| position_map.get(id).unwrap_or(stored))?;
        self.tree.write_back(leaf)?;
        self.stats.dummy_accesses += 1;
        Ok(self.busy_delta(busy_before))
    }

    /// Places an externally fetched block into the stash with a fresh
    /// random leaf (H-ORAM I/O arrival). Costs no device access.
    ///
    /// # Errors
    ///
    /// [`OramError::StashOverflow`] if the stash bound is hit;
    /// [`OramError::PayloadSize`] on wrong payload length.
    pub fn insert_block(&mut self, id: BlockId, payload: Vec<u8>) -> Result<(), OramError> {
        let leaf = self.draw_leaf();
        self.insert_block_at(id, payload, leaf)
    }

    /// [`insert_block`](Self::insert_block) with a **pre-drawn** leaf
    /// assignment — H-ORAM's I/O-arrival path, where the leaf was drawn
    /// at plan time (see [`draw_leaf`](Self::draw_leaf)).
    ///
    /// # Errors
    ///
    /// As [`insert_block`](Self::insert_block).
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is outside the tree.
    pub fn insert_block_at(
        &mut self,
        id: BlockId,
        payload: Vec<u8>,
        leaf: u64,
    ) -> Result<(), OramError> {
        self.check_range(id)?;
        // Stash first: a refused block must not become `contains`-visible.
        self.tree.put(id, leaf, payload)?;
        self.position_map.set(id, leaf);
        self.stats.stash_inserts += 1;
        Ok(())
    }

    /// Whether block `id` is resident (in tree or stash).
    pub fn contains(&self, id: BlockId) -> bool {
        id.0 < self.capacity && self.position_map.get(id).is_some()
    }

    /// Streams the whole tree out and drains the stash, returning every
    /// resident real block. The tree is left empty (torn down); call
    /// [`rebuild_empty`](Self::rebuild_empty) before reusing it.
    ///
    /// This is step 1 of H-ORAM's shuffle period ("read all the blocks,
    /// both real and dummy, into a temporary buffer" — the caller runs the
    /// oblivious shuffle on the result).
    ///
    /// # Errors
    ///
    /// Storage/crypto errors propagate.
    pub fn evict_all(&mut self) -> Result<(EvictedBlocks, AccessReceipt), OramError> {
        let busy_before = self.tree.backend.busy();
        let tree = &mut self.tree;
        let slots = tree.backend.read_all_slots(tree.geometry.total_slots())?;
        let mut blocks = Vec::new();
        let mut occupied = (0u64..)
            .zip(slots)
            .filter_map(|(addr, slot)| Some((addr, slot?)))
            .peekable();
        while occupied.peek().is_some() {
            let (addrs, mut sealed): (Vec<u64>, Vec<SealedBlock>) =
                occupied.by_ref().take(STREAM_CHUNK).unzip();
            // One batch: every tag is verified before any body is decrypted.
            tree.sealer.open_blocks(&mut sealed)?;
            for (addr, block) in addrs.into_iter().zip(&sealed) {
                if let BlockContent::Real { id, payload, .. } =
                    BlockContent::decode(block.ciphertext(), addr)?
                {
                    blocks.push((id, payload));
                }
            }
        }
        for entry in tree.stash.drain_all() {
            blocks.push((entry.id, entry.payload));
        }
        tree.backend.clear()?;
        self.position_map.clear_all();
        Ok((blocks, self.busy_delta(busy_before)))
    }

    /// Writes a fresh all-dummy tree image and resets the position map —
    /// step 3 of the shuffle period ("initialize a new Path ORAM tree").
    ///
    /// # Errors
    ///
    /// Storage errors propagate.
    pub fn rebuild_empty(&mut self) -> Result<AccessReceipt, OramError> {
        let busy_before = self.tree.backend.busy();
        self.position_map.clear_all();
        self.tree.write_greedy_image([])?;
        self.stats.rebuilds += 1;
        Ok(self.busy_delta(busy_before))
    }

    /// Replaces the contents with a dataset: every block gets a random
    /// leaf, in the order given, and [`PathTree::write_greedy_image`]
    /// writes them in one streaming device pass.
    ///
    /// Used by baselines that start full (tree-top-cache Path ORAM); the
    /// H-ORAM memory layer starts empty instead.
    ///
    /// # Errors
    ///
    /// [`OramError::StashOverflow`] if more than the stash bound fails
    /// placement (practically impossible at ≤50 % utilization);
    /// [`OramError::PayloadSize`] on wrong payload length;
    /// [`OramError::BlockOutOfRange`] for ids ≥ capacity.
    pub fn bulk_load(
        &mut self,
        blocks: impl IntoIterator<Item = (BlockId, Vec<u8>)>,
    ) -> Result<AccessReceipt, OramError> {
        let busy_before = self.tree.backend.busy();
        let mut placed = Vec::new();
        self.position_map.clear_all();
        for (id, payload) in blocks {
            self.check_range(id)?;
            let leaf = self.draw_leaf();
            self.position_map.set(id, leaf);
            placed.push((id, leaf, payload));
        }
        self.tree.write_greedy_image(placed)?;
        Ok(self.busy_delta(busy_before))
    }
}

impl<B: TreeBackend> Oram for PathOramCore<B> {
    fn capacity(&self) -> u64 {
        self.capacity
    }

    fn payload_len(&self) -> usize {
        self.tree.payload_len
    }

    fn read(&mut self, id: BlockId) -> Result<Vec<u8>, OramError> {
        self.access_read(id).map(|(data, _)| data)
    }

    fn write(&mut self, id: BlockId, data: &[u8]) -> Result<Vec<u8>, OramError> {
        self.access_write(id, data).map(|(prev, _)| prev)
    }
}

/// Slots a whole-tree stream (`evict_all`, the dummy image, the greedy
/// image) seals or opens per batch: enough to keep every SIMD lane full,
/// few enough that a chunk's bodies (≈ 270 KB at 1 KB blocks) stay in
/// cache and a tree of any size adds only this much plaintext in flight.
const STREAM_CHUNK: usize = 256;
#[cfg(test)]
mod tests {
    use super::*;
    use oram_crypto::keys::MasterKey;
    use oram_storage::calibration::MachineConfig;
    use oram_storage::clock::SimClock;
    use proptest::prelude::*;

    fn keys() -> SubKeys {
        MasterKey::from_bytes([7u8; 32]).derive("path-oram-test", 0)
    }

    fn memory_oram(capacity: u64, payload_len: usize) -> PathOram {
        let device = MachineConfig::dac2019().build_memory(SimClock::new(), None);
        PathOram::new(PathOramConfig::new(capacity, payload_len), device, &keys()).unwrap()
    }

    #[test]
    fn fresh_blocks_read_as_zeros() {
        let mut oram = memory_oram(16, 8);
        assert_eq!(oram.read(BlockId(3)).unwrap(), vec![0u8; 8]);
    }

    #[test]
    fn read_your_writes() {
        let mut oram = memory_oram(16, 4);
        oram.write(BlockId(2), &[9, 8, 7, 6]).unwrap();
        assert_eq!(oram.read(BlockId(2)).unwrap(), vec![9, 8, 7, 6]);
    }

    #[test]
    fn write_returns_previous() {
        let mut oram = memory_oram(16, 2);
        let prev = oram.write(BlockId(0), &[1, 1]).unwrap();
        assert_eq!(prev, vec![0, 0]);
        let prev = oram.write(BlockId(0), &[2, 2]).unwrap();
        assert_eq!(prev, vec![1, 1]);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut oram = memory_oram(4, 2);
        assert!(matches!(
            oram.read(BlockId(4)),
            Err(OramError::BlockOutOfRange { id: 4, capacity: 4 })
        ));
    }

    #[test]
    fn wrong_payload_length_rejected() {
        let mut oram = memory_oram(4, 2);
        assert!(matches!(
            oram.write(BlockId(0), &[1, 2, 3]),
            Err(OramError::PayloadSize {
                expected: 2,
                got: 3
            })
        ));
    }

    #[test]
    fn many_blocks_roundtrip_through_tree() {
        let mut oram = memory_oram(64, 8);
        for i in 0..64u64 {
            let payload: Vec<u8> = (0..8).map(|b| (i as u8).wrapping_add(b)).collect();
            oram.write(BlockId(i), &payload).unwrap();
        }
        for i in (0..64u64).rev() {
            let expected: Vec<u8> = (0..8).map(|b| (i as u8).wrapping_add(b)).collect();
            assert_eq!(oram.read(BlockId(i)).unwrap(), expected, "block {i}");
        }
    }

    #[test]
    fn stash_stays_bounded_under_load() {
        let mut oram = memory_oram(128, 4);
        let mut rng = DeterministicRng::from_u64_seed(99);
        use rand::Rng;
        for _ in 0..2000 {
            let id = BlockId(rng.gen_range(0..128));
            if rng.gen_bool(0.5) {
                oram.write(id, &[1, 2, 3, 4]).unwrap();
            } else {
                oram.read(id).unwrap();
            }
        }
        // The classic Path ORAM result: stash stays O(log N)·ω(1); for
        // N=128 a peak beyond 40 would indicate a protocol bug.
        assert!(
            oram.tree().stash_peak() < 40,
            "stash peak {}",
            oram.tree().stash_peak()
        );
    }

    #[test]
    fn access_touches_z_times_depth_slots() {
        let mut oram = memory_oram(32, 4);
        let reads_before = oram.device().stats().reads;
        oram.read(BlockId(0)).unwrap();
        let reads = oram.device().stats().reads - reads_before;
        let expected = (oram.tree().geometry().depth() * oram.tree().geometry().z()) as u64;
        assert_eq!(reads, expected);
    }

    #[test]
    fn dummy_access_is_bus_equivalent_to_real() {
        let mut oram = memory_oram(32, 4);
        oram.read(BlockId(0)).unwrap();
        let before = *oram.device().stats();
        oram.dummy_access().unwrap();
        let after_dummy = *oram.device().stats();
        oram.read(BlockId(1)).unwrap();
        let after_real = *oram.device().stats();
        assert_eq!(
            after_dummy.reads - before.reads,
            after_real.reads - after_dummy.reads,
            "dummy and real accesses must read the same number of slots"
        );
        assert_eq!(
            after_dummy.writes - before.writes,
            after_real.writes - after_dummy.writes,
        );
    }

    #[test]
    fn insert_block_costs_no_device_access() {
        let mut oram = memory_oram(32, 4);
        let ops_before = oram.device().stats().ops();
        oram.insert_block(BlockId(5), vec![1, 2, 3, 4]).unwrap();
        assert_eq!(oram.device().stats().ops(), ops_before);
        assert!(oram.contains(BlockId(5)));
        assert_eq!(oram.read(BlockId(5)).unwrap(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn pinned_variants_match_drawing_variants_exactly() {
        // Two same-seed instances: one uses the drawing entry points, the
        // other pre-draws each access's randomness in the same order and
        // feeds it to the `*_at` variants. Results, device access counts,
        // statistics, and the RNG stream position must all be identical —
        // the contract the H-ORAM scheduler's pre-draw rests on.
        let mut drawing = memory_oram(32, 4);
        let mut pinned = memory_oram(32, 4);

        drawing.insert_block(BlockId(3), vec![1, 2, 3, 4]).unwrap();
        let leaf = pinned.draw_leaf();
        pinned
            .insert_block_at(BlockId(3), vec![1, 2, 3, 4], leaf)
            .unwrap();

        let (a, _) = drawing.access_read(BlockId(3)).unwrap();
        let leaf = pinned.draw_leaf();
        let (b, _) = pinned.access_read_at(BlockId(3), leaf).unwrap();
        assert_eq!(a, b);

        let (a, _) = drawing.access_write(BlockId(3), &[9; 4]).unwrap();
        let leaf = pinned.draw_leaf();
        let (b, _) = pinned.access_write_at(BlockId(3), leaf, &[9; 4]).unwrap();
        assert_eq!(a, b);

        drawing.dummy_access().unwrap();
        let leaf = pinned.draw_leaf();
        pinned.dummy_access_at(leaf).unwrap();

        assert_eq!(drawing.rng_stream_pos(), pinned.rng_stream_pos());
        assert_eq!(drawing.stats(), pinned.stats());
        assert_eq!(
            drawing.device().stats().ops(),
            pinned.device().stats().ops()
        );
        assert_eq!(
            drawing.read(BlockId(3)).unwrap(),
            pinned.read(BlockId(3)).unwrap()
        );
    }

    #[test]
    fn pinned_access_to_unassigned_block_is_rejected() {
        let mut oram = memory_oram(8, 4);
        assert!(matches!(
            oram.access_read_at(BlockId(1), 0),
            Err(OramError::Internal { .. })
        ));
        assert!(matches!(
            oram.access_write_at(BlockId(1), 0, &[0; 4]),
            Err(OramError::Internal { .. })
        ));
    }

    #[test]
    fn evict_all_returns_resident_blocks_and_empties() {
        let mut oram = memory_oram(32, 4);
        for i in 0..10u64 {
            oram.write(BlockId(i), &[i as u8; 4]).unwrap();
        }
        let (blocks, _) = oram.evict_all().unwrap();
        assert_eq!(blocks.len(), 10);
        let mut ids: Vec<u64> = blocks.iter().map(|(id, _)| id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
        for (id, payload) in &blocks {
            assert_eq!(payload, &vec![id.0 as u8; 4]);
        }
        assert_eq!(oram.resident_blocks(), 0);
    }

    #[test]
    fn rebuild_after_evict_gives_fresh_tree() {
        let mut oram = memory_oram(32, 4);
        oram.write(BlockId(1), &[5; 4]).unwrap();
        let _ = oram.evict_all().unwrap();
        oram.rebuild_empty().unwrap();
        // Fresh tree: block 1 is gone; first read materializes zeros.
        assert_eq!(oram.read(BlockId(1)).unwrap(), vec![0; 4]);
        assert_eq!(oram.stats().rebuilds, 1);
    }

    #[test]
    fn bulk_load_places_everything() {
        let device = MachineConfig::dac2019().build_memory(SimClock::new(), None);
        let mut oram = PathOram::new(PathOramConfig::new(256, 4), device, &keys()).unwrap();
        oram.bulk_load((0..256u64).map(|i| (BlockId(i), vec![i as u8; 4])))
            .unwrap();
        for i in [0u64, 17, 100, 255] {
            assert_eq!(
                oram.read(BlockId(i)).unwrap(),
                vec![i as u8; 4],
                "block {i}"
            );
        }
    }

    #[test]
    fn for_slot_budget_respects_budget() {
        let device = MachineConfig::dac2019().build_memory(SimClock::new(), None);
        let oram = PathOram::for_slot_budget(8192, None, 16, device, &keys(), 1).unwrap();
        assert!(oram.tree().geometry().total_slots() <= 8192);
        assert_eq!(oram.tree().geometry().depth(), 11);
    }

    #[test]
    fn slot_budget_with_wide_capacity_caches_any_id() {
        // H-ORAM's memory layer: tiny tree, huge logical id range.
        let device = MachineConfig::dac2019().build_memory(SimClock::new(), None);
        let mut oram =
            PathOram::for_slot_budget(128, Some(1 << 20), 4, device, &keys(), 2).unwrap();
        assert_eq!(oram.capacity(), 1 << 20);
        oram.insert_block(BlockId(999_999), vec![7; 4]).unwrap();
        assert_eq!(oram.read(BlockId(999_999)).unwrap(), vec![7; 4]);
    }

    /// The adversary's view of the memory tree, pinned: for a fixed seed the
    /// `(kind, addr, bytes)` event sequence over 200 mixed accesses, one
    /// `evict_all` and one `rebuild_empty` hashes to the value recorded at
    /// the commit before path crypto was batched (`00ad881`, where this
    /// test was first run). Batching may change when blocks are sealed and
    /// opened, never what crosses the bus.
    #[test]
    fn bus_trace_is_pinned_to_the_unbatched_build() {
        use oram_crypto::siphash::SipHash24;
        use oram_storage::device::AccessKind;
        use oram_storage::trace::AccessTrace;
        use rand::Rng;

        let trace = AccessTrace::recording();
        let device = MachineConfig::dac2019().build_memory(SimClock::new(), Some(trace.clone()));
        let mut oram = PathOram::new(PathOramConfig::new(64, 16), device, &keys()).unwrap();
        let mut rng = DeterministicRng::from_u64_seed(0x7ace);
        for step in 0..200u64 {
            let id = BlockId(rng.gen_range(0..64));
            match step % 4 {
                0 => drop(oram.write(id, &[step as u8; 16]).unwrap()),
                1 => drop(oram.read(id).unwrap()),
                2 => drop(oram.dummy_access().unwrap()),
                _ => oram.insert_block(id, vec![step as u8; 16]).unwrap(),
            }
        }
        oram.evict_all().unwrap();
        oram.rebuild_empty().unwrap();

        let events = trace.snapshot();
        let mut hash = SipHash24::new(&[0x5a; 16]);
        for event in &events {
            hash.write(&[matches!(event.kind, AccessKind::Write) as u8]);
            hash.write_u64(event.addr);
            hash.write_u64(event.bytes);
        }
        assert_eq!(
            (events.len(), hash.finish()),
            (6003, 10_680_691_977_424_824_159),
            "memory-bus trace changed shape"
        );
    }

    /// Corrupting slot `k` of a path — first, middle, last — makes the
    /// access return the tag error of exactly that slot's address and
    /// changes nothing: stash, position map and statistics are those of
    /// before the access (slot by slot, the blocks of the path before `k`
    /// used to be left half-absorbed in the stash). All of the path's
    /// reads are on the bus by then, and none of its writes.
    #[test]
    fn corrupt_path_slot_fails_closed() {
        use oram_crypto::CryptoError;

        let geometry = memory_oram(64, 8).tree().geometry();
        let slots_on_path = (geometry.depth() * geometry.z()) as usize;
        for id in [BlockId(5), BlockId(40)] {
            for k in [0, slots_on_path / 2, slots_on_path - 1] {
                let mut oram = memory_oram(64, 8);
                for i in 0..32u64 {
                    oram.write(BlockId(i), &[i as u8; 8]).unwrap();
                }
                // Block 5 is resident; block 40 has never been seen, so
                // its access draws its path first — replay the draw.
                let leaf = oram
                    .leaf_hint(id)
                    .unwrap_or_else(|| geometry.random_leaf(&mut oram.rng.clone()));
                let addr = oram.tree.path_slots(leaf)[k];
                let mut block = oram.device_mut().take_block(addr).unwrap().unwrap();
                block.corrupt_bit(9);
                oram.device_mut().write_block(addr, &block).unwrap();

                let stash_before: Vec<StashEntry> = oram.tree.stash.iter().cloned().collect();
                let positions_before: Vec<(u64, u64)> =
                    oram.position_map.assigned_entries().collect();
                let (stats_before, device_before) = (oram.stats(), *oram.device().stats());

                let result = oram.read(id);
                assert!(
                    matches!(
                        result,
                        Err(OramError::Crypto(CryptoError::TagMismatch { block_id })) if block_id == addr
                    ),
                    "block {id}, slot {k}: {result:?}"
                );
                let stash_after: Vec<StashEntry> = oram.tree.stash.iter().cloned().collect();
                assert_eq!(stash_after, stash_before, "block {id}, slot {k}");
                assert_eq!(
                    oram.position_map.assigned_entries().collect::<Vec<_>>(),
                    positions_before,
                    "block {id}, slot {k}"
                );
                assert_eq!(oram.stats(), stats_before);
                let device_after = *oram.device().stats();
                assert_eq!(
                    device_after.reads - device_before.reads,
                    slots_on_path as u64
                );
                assert_eq!(device_after.writes, device_before.writes);
            }
        }
    }

    /// A block the stash refuses leaves nothing behind: after the typed
    /// error the instance is what it was before the call. The position map
    /// used to be set first, so the refused block was `contains`-visible
    /// and, once the stash had drained, read back as zeros.
    #[test]
    fn refused_insert_fails_closed() {
        let device = MachineConfig::dac2019().build_memory(SimClock::new(), None);
        let config = PathOramConfig {
            stash_limit: 2,
            ..PathOramConfig::new(64, 8)
        };
        let mut oram = PathOram::new(config, device, &keys()).unwrap();
        oram.insert_block_at(BlockId(1), vec![1; 8], 0).unwrap();
        oram.insert_block_at(BlockId(2), vec![2; 8], 1).unwrap();

        let observe = |oram: &PathOram| {
            (
                oram.tree().stash_len(),
                oram.resident_blocks(),
                oram.stats(),
                oram.contains(BlockId(3)),
                oram.leaf_hint(BlockId(3)),
            )
        };
        let before = observe(&oram);
        assert!(matches!(
            oram.insert_block_at(BlockId(3), vec![3; 8], 2),
            Err(OramError::StashOverflow { limit: 2 })
        ));
        assert_eq!(observe(&oram), before);

        // With room in the stash again, block 3 is still a block that never
        // arrived — not a zero-filled one.
        oram.dummy_access_at(0).unwrap();
        assert!(matches!(
            oram.access_read_at(BlockId(3), 5),
            Err(OramError::Internal { .. })
        ));
    }

    /// `load_state` rejects a state it cannot hold before allocating for
    /// it or adopting any of it: a position count beyond capacity, a stash
    /// count beyond the bound (both used to size a `Vec` first), and a
    /// stash payload of the wrong length (used to be adopted, and the next
    /// write-back died in `BlockContent::encode_into`'s length assertion).
    #[test]
    fn load_state_rejects_malformed_counts_and_payloads() {
        use oram_crypto::persist::{StateReader, StateWriter};

        let mut oram = memory_oram(64, 8);
        oram.write(BlockId(9), &[9; 8]).unwrap();
        let mut pristine = StateWriter::new();
        oram.save_state(&mut pristine).unwrap();
        let pristine = pristine.into_bytes();

        // What follows the header, up to the device image.
        type Tail = fn(&mut StateWriter);
        let cases: [(&str, Tail); 3] = [
            ("position count beyond capacity", |w| {
                w.put_usize(usize::MAX >> 1)
            }),
            ("stash count beyond the bound", |w| {
                w.put_usize(0);
                w.put_u64(0); // seal sequence
                w.put_usize(usize::MAX >> 1);
            }),
            ("stash payload one byte short", |w| {
                w.put_usize(0);
                w.put_u64(0); // seal sequence
                w.put_usize(1);
                w.put_u64(9);
                w.put_u64(0);
                w.put_bytes(&[0; 7]);
                w.put_usize(1); // stash peak
            }),
        ];
        for (what, tail) in cases {
            let mut w = StateWriter::new();
            w.put_u64(64);
            w.put_usize(8);
            w.put_u64(oram.tree().geometry().total_slots());
            w.put_u32(0); // rng counter
            w.put_usize(64); // rng cursor
            (0..4).for_each(|_| w.put_u64(0)); // stats
            tail(&mut w);
            oram.device_mut().save_state(&mut w).unwrap();
            let bytes = w.into_bytes();
            let result = oram.load_state(&mut StateReader::new(&bytes));
            assert!(
                matches!(result, Err(OramError::SnapshotInvalid { .. })),
                "{what}: {result:?}"
            );
            let mut after = StateWriter::new();
            oram.save_state(&mut after).unwrap();
            assert_eq!(after.into_bytes(), pristine, "{what}: instance changed");
        }
    }

    #[test]
    fn receipts_report_memory_time_only_for_dram_tree() {
        let mut oram = memory_oram(32, 4);
        let (_, receipt) = oram.access_read(BlockId(0)).unwrap();
        assert!(receipt.memory > SimDuration::ZERO);
        assert_eq!(receipt.storage, SimDuration::ZERO);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn matches_reference_model(ops in proptest::collection::vec((0u64..32, proptest::option::of(0u8..255)), 1..60)) {
            let mut oram = memory_oram(32, 4);
            let mut reference = std::collections::HashMap::new();
            for (id, write_byte) in ops {
                match write_byte {
                    Some(b) => {
                        let payload = vec![b; 4];
                        let prev = oram.write(BlockId(id), &payload).unwrap();
                        let expected_prev = reference.insert(id, payload).unwrap_or(vec![0u8; 4]);
                        prop_assert_eq!(prev, expected_prev);
                    }
                    None => {
                        let got = oram.read(BlockId(id)).unwrap();
                        let expected = reference.get(&id).cloned().unwrap_or(vec![0u8; 4]);
                        prop_assert_eq!(got, expected);
                    }
                }
            }
        }
    }
}
