//! Position maps: where every logical block currently lives.
//!
//! H-ORAM's control layer keeps two per-block tables (paper §4.1): the
//! **permutation list** (block id → storage slot, or "in memory") and the
//! **slot owner table** (storage slot → block id), used to resolve dummy
//! prefetches at plan time. Together they are the *position map* of the
//! system, and this module puts them behind one trait with two
//! implementations:
//!
//! * [`FlatPositionMap`] — both tables as plain in-RAM vectors, O(N)
//!   trusted bytes. This is the seed behaviour and the default.
//! * [`RecursivePositionMap`] — the classic Path ORAM recursion: position
//!   entries are packed into pages, pages are stored in a small ORAM whose
//!   own (much smaller) position table is packed into pages of an even
//!   smaller ORAM, … terminating in a tiny flat root. Steady-state trusted
//!   memory is O(log N): the root, a bounded stash, and a pinned page
//!   cache per level. The level ORAMs live on their *own* devices with
//!   their own clock and traces, so the data ORAM's observable trace and
//!   simulated time are byte-identical between the two implementations —
//!   `tests/posmap.rs` proves this differentially.
//!
//! # Example
//!
//! ```
//! use horam_core::posmap::{build_posmap, PositionMap};
//! use horam_core::permutation_list::Location;
//! use horam_core::HOramConfig;
//! use oram_crypto::keys::MasterKey;
//! use oram_protocols::BlockId;
//!
//! # fn main() -> Result<(), oram_protocols::OramError> {
//! let config = HOramConfig::new(256, 16, 64).with_recursive_posmap(8);
//! let mut map = build_posmap(&config, &MasterKey::from_bytes([7; 32]), false)?;
//! map.place(BlockId(3), 42)?;
//! assert_eq!(map.location(BlockId(3))?, Location::Storage { slot: 42 });
//! assert_eq!(map.take_owner(42)?, Some(BlockId(3)));
//! # Ok(())
//! # }
//! ```
//!
//! # Leakage of the recursive levels
//!
//! Every level access is a full root→leaf path read followed by a full
//! path write on the level's own bus — the standard Path ORAM shape, which
//! `tests/leakage.rs` checks structurally. Queries come from the storage
//! layer only — one load per scheduling cycle and the shuffle's sweeps;
//! the scheduler's hit test reads the memory layer's own id → leaf table,
//! so how far its scan reaches never shows on a level bus. The pinned
//! page cache suppresses *repeat* chain walks for hot pages, so the
//! **number** of level accesses (not their addresses) correlates with
//! load locality — the same bounded timing channel Freecursive-style
//! caches accept; `docs/ARCHITECTURE.md` §12 quantifies it. Full shuffles
//! rebuild all levels with one public linear sweep, leaking nothing beyond
//! the (public) shuffle schedule.

use crate::config::{HOramConfig, PosmapMode, RecursivePosmapConfig};
use crate::permutation_list::{Location, PermutationList};
use oram_crypto::keys::{KeyHierarchy, MasterKey};
use oram_crypto::persist::{PersistError, StateReader, StateWriter};
use oram_crypto::rng::DeterministicRng;
use oram_crypto::seal::BlockSealer;
use oram_protocols::bucket_tree::TreeGeometry;
use oram_protocols::error::OramError;
use oram_protocols::types::{BlockContent, BlockId};
use oram_storage::calibration::paper_dram;
use oram_storage::clock::{SimClock, SimDuration};
use oram_storage::device::{Device, DeviceId};
use oram_storage::file::{FileStore, FileStoreConfig};
use oram_storage::trace::AccessTrace;
use std::collections::{HashMap, VecDeque};

/// Bucket size of the position-map level ORAMs (paper default Z).
const POSMAP_Z: u32 = 4;
/// Hard bound on a level's plaintext stash; exceeding it is a protocol
/// failure ([`OramError::StashOverflow`]), the same stance the memory
/// layer's Path ORAM takes.
const POSMAP_STASH_LIMIT: usize = 256;
/// Device-id base for position-map level devices: forward levels get
/// `100 + 2·level`, inverse levels `101 + 2·level`, well clear of the data
/// devices (`0`/`1`).
const POSMAP_DEVICE_ID_BASE: u16 = 100;

/// Volatile counters of position-map activity. Reported separately from
/// [`crate::stats::HOramStats`] (they describe the control layer's own
/// I/O, which never touches the data ORAM's bus).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PosmapStats {
    /// Logical queries answered (lookups, updates, owner takes).
    pub queries: u64,
    /// Level-ORAM path accesses (checkouts) across all levels.
    pub checkouts: u64,
    /// Queries absorbed by the pinned page caches.
    pub cache_hits: u64,
    /// Bulk level rebuilds (one per full shuffle, plus the initial build).
    pub bulk_rebuilds: u64,
}

/// A read-only view of one recursive level, for leakage analyses and
/// reporting. [`FlatPositionMap`] has no levels and returns an empty list.
#[derive(Debug, Clone)]
pub struct PosmapLevelView {
    /// Level name, e.g. `posmap-fwd-l0`.
    pub name: String,
    /// Device id the level's accesses appear under.
    pub device_id: DeviceId,
    /// Bucket-tree depth of the level.
    pub depth: u32,
    /// Bucket size of the level.
    pub z: u32,
    /// Number of position pages the level stores.
    pub page_count: u64,
    /// The level's own bus trace (separate from the data ORAM's); it
    /// retains events iff the engine's hierarchy is recording.
    pub trace: AccessTrace,
}

/// The position-map contract the storage layer drives.
///
/// All mutating lookups are fallible because the recursive implementation
/// performs real (simulated) ORAM I/O per query; the flat implementation
/// never returns an error. Implementations must keep the forward table
/// (id → location) and the inverse table (slot → owner) consistent under
/// the call discipline the storage layer uses:
///
/// * a **miss** is `location` → `take_owner` → `set_in_memory`;
/// * a **dummy prefetch** is `take_owner` (+ `set_in_memory` if it hit a
///   real block);
/// * a **shuffle pass** is `take_pass_owners` over the pass's slot range,
///   then either per-entry `place` calls (partial windows) or one
///   [`rebuild_all`](Self::rebuild_all) (full windows).
///
/// The scheduler's hit test is not a caller: it reads the memory layer's
/// own id → leaf table and the window's staged loads.
pub trait PositionMap: std::fmt::Debug + Send {
    /// Number of logical blocks tracked.
    fn capacity(&self) -> u64;

    /// Number of physical storage slots tracked by the inverse table.
    fn total_slots(&self) -> u64;

    /// The current location of `id`.
    fn location(&mut self, id: BlockId) -> Result<Location, OramError>;

    /// Number of blocks currently marked in-memory (O(1); maintained).
    fn in_memory_count(&self) -> u64;

    /// Records that `id` migrated into the memory layer (idempotent).
    fn set_in_memory(&mut self, id: BlockId) -> Result<(), OramError>;

    /// Records that `id` now lives at storage `slot`: updates the forward
    /// entry and claims the slot in the inverse table.
    fn place(&mut self, id: BlockId, slot: u64) -> Result<(), OramError>;

    /// Removes and returns the owner of `slot`, if any. Does **not**
    /// touch the forward table — callers decide (a real miss already knew
    /// the owner; a dummy prefetch promotes it via
    /// [`set_in_memory`](Self::set_in_memory)).
    fn take_owner(&mut self, slot: u64) -> Result<Option<BlockId>, OramError>;

    /// Bulk [`take_owner`](Self::take_owner) over the contiguous slot
    /// range `[base, base + len)` — the shuffle's control sweep.
    fn take_pass_owners(&mut self, base: u64, len: u64) -> Result<Vec<Option<BlockId>>, OramError> {
        let mut out = Vec::with_capacity(len as usize);
        for slot in base..base + len {
            out.push(self.take_owner(slot)?);
        }
        Ok(out)
    }

    /// Replaces the whole map from a full slot→owner image (one entry per
    /// physical slot; `owners.len()` must equal
    /// [`total_slots`](Self::total_slots)) at the end of a shuffle pass
    /// that swept every partition. A block may appear at most once;
    /// blocks absent from the image are marked in-memory (a full-extent
    /// *partial* shuffle legitimately leaves cached blocks out of
    /// storage). The recursive implementation rebuilds all levels in one
    /// public linear sweep instead of O(N) per-entry chain walks.
    ///
    /// # Errors
    ///
    /// [`OramError::Internal`] if the image is mis-sized or places a
    /// block twice; level build errors propagate.
    fn rebuild_all(&mut self, owners: &[Option<BlockId>]) -> Result<(), OramError>;

    /// Trusted in-enclave bytes currently held (the capacity gate's
    /// subject). Flat: O(N). Recursive: root + stash + pinned caches,
    /// O(log N) in steady state.
    fn memory_bytes(&self) -> u64;

    /// Activity counters.
    fn stats(&self) -> PosmapStats;

    /// Per-level views (empty for the flat map).
    fn level_views(&self) -> Vec<PosmapLevelView>;

    /// Simulated time spent on position-map I/O (its own clock; never
    /// part of the engine's timeline).
    fn sim_time(&self) -> SimDuration;

    /// Clears timing/tracing/statistics state (not data).
    fn reset_accounting(&mut self);

    /// Durability barrier for file-backed levels (no-op otherwise).
    fn sync(&mut self) -> Result<(), OramError>;

    /// Serializes the map into a snapshot stream.
    fn save_state(&mut self, w: &mut StateWriter) -> Result<(), OramError>;

    /// Restores state serialized by [`save_state`](Self::save_state).
    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), OramError>;
}

/// Builds the position map `config` asks for. With `restore = true` the
/// recursive variant skips its initial level build (construction must not
/// write to possibly-durable level devices that
/// [`PositionMap::load_state`] is about to validate and adopt). Its level
/// traces keep only their count and digest.
///
/// # Errors
///
/// Level build or backing-file errors from the recursive variant.
pub fn build_posmap(
    config: &HOramConfig,
    master: &MasterKey,
    restore: bool,
) -> Result<Box<dyn PositionMap>, OramError> {
    build_posmap_on(config, master, restore, &AccessTrace::new())
}

/// [`build_posmap`] for an engine whose data bus is `bus`: the recursive
/// levels' traces retain events iff `bus` does.
pub(crate) fn build_posmap_on(
    config: &HOramConfig,
    master: &MasterKey,
    restore: bool,
    bus: &AccessTrace,
) -> Result<Box<dyn PositionMap>, OramError> {
    let total_slots = config.partition_count() * config.partition_slots();
    match &config.posmap {
        PosmapMode::Flat => Ok(Box::new(FlatPositionMap::new(config.capacity, total_slots))),
        PosmapMode::Recursive(rcfg) => Ok(Box::new(RecursivePositionMap::new(
            config.capacity,
            total_slots,
            rcfg,
            master,
            config.seed,
            restore,
            bus,
        )?)),
    }
}

// ---------------------------------------------------------------------------
// Flat implementation
// ---------------------------------------------------------------------------

/// The seed behaviour: both tables as plain vectors in trusted memory.
#[derive(Debug)]
pub struct FlatPositionMap {
    list: PermutationList,
    owners: Vec<Option<BlockId>>,
    stats: PosmapStats,
}

impl FlatPositionMap {
    /// Creates a flat map for `capacity` blocks over `total_slots`
    /// physical slots, every block provisionally at slot 0 and every slot
    /// unowned (construction installs the real layout via the first full
    /// shuffle).
    pub fn new(capacity: u64, total_slots: u64) -> Self {
        Self {
            list: PermutationList::new(capacity),
            owners: vec![None; total_slots as usize],
            stats: PosmapStats::default(),
        }
    }
}

impl PositionMap for FlatPositionMap {
    fn capacity(&self) -> u64 {
        self.list.capacity()
    }

    fn total_slots(&self) -> u64 {
        self.owners.len() as u64
    }

    fn location(&mut self, id: BlockId) -> Result<Location, OramError> {
        self.stats.queries += 1;
        Ok(self.list.location(id))
    }

    fn in_memory_count(&self) -> u64 {
        self.list.in_memory_count()
    }

    fn set_in_memory(&mut self, id: BlockId) -> Result<(), OramError> {
        self.stats.queries += 1;
        self.list.set_in_memory(id);
        Ok(())
    }

    fn place(&mut self, id: BlockId, slot: u64) -> Result<(), OramError> {
        self.stats.queries += 1;
        debug_assert!(
            self.owners[slot as usize].is_none(),
            "slot {slot} doubly owned"
        );
        self.list.set_storage_slot(id, slot);
        self.owners[slot as usize] = Some(id);
        Ok(())
    }

    fn take_owner(&mut self, slot: u64) -> Result<Option<BlockId>, OramError> {
        self.stats.queries += 1;
        Ok(self.owners[slot as usize].take())
    }

    fn rebuild_all(&mut self, owners: &[Option<BlockId>]) -> Result<(), OramError> {
        validate_full_image(owners, self.capacity(), self.total_slots())?;
        let mut placed = vec![false; self.list.capacity() as usize];
        for (slot, owner) in owners.iter().enumerate() {
            if let Some(id) = owner {
                self.list.set_storage_slot(*id, slot as u64);
                placed[id.0 as usize] = true;
            }
            self.owners[slot] = *owner;
        }
        for (id, was_placed) in placed.iter().enumerate() {
            if !was_placed {
                self.list.set_in_memory(BlockId(id as u64));
            }
        }
        self.stats.bulk_rebuilds += 1;
        Ok(())
    }

    fn memory_bytes(&self) -> u64 {
        (self.list.memory_bytes() + self.owners.len() * std::mem::size_of::<Option<BlockId>>())
            as u64
    }

    fn stats(&self) -> PosmapStats {
        self.stats
    }

    fn level_views(&self) -> Vec<PosmapLevelView> {
        Vec::new()
    }

    fn sim_time(&self) -> SimDuration {
        SimDuration::ZERO
    }

    fn reset_accounting(&mut self) {
        self.stats = PosmapStats::default();
    }

    fn sync(&mut self) -> Result<(), OramError> {
        Ok(())
    }

    fn save_state(&mut self, w: &mut StateWriter) -> Result<(), OramError> {
        self.list.save_state(w);
        w.put_usize(self.owners.len());
        for owner in &self.owners {
            w.put_opt_u64(owner.map(|id| id.0));
        }
        Ok(())
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), OramError> {
        self.list.load_state(r)?;
        let owner_count = r.get_usize()?;
        if owner_count != self.owners.len() {
            return Err(snapshot_err(format!(
                "owner table of {owner_count} slots for geometry with {}",
                self.owners.len()
            )));
        }
        for owner in &mut self.owners {
            *owner = r.get_opt_u64()?.map(BlockId);
        }
        Ok(())
    }
}

/// Shared full-image validation: correct size, no block placed twice.
/// Blocks absent from the image are legitimate — they remain in memory.
fn validate_full_image(
    owners: &[Option<BlockId>],
    capacity: u64,
    total_slots: u64,
) -> Result<(), OramError> {
    if owners.len() as u64 != total_slots {
        return Err(OramError::internal(format!(
            "full rebuild image covers {} slots, geometry has {total_slots}",
            owners.len()
        )));
    }
    let mut seen = vec![false; capacity as usize];
    for owner in owners.iter().flatten() {
        if owner.0 >= capacity {
            return Err(OramError::internal(format!(
                "full rebuild places unknown block {owner:?} (capacity {capacity})"
            )));
        }
        if std::mem::replace(&mut seen[owner.0 as usize], true) {
            return Err(OramError::internal(format!(
                "full rebuild places block {owner:?} twice"
            )));
        }
    }
    Ok(())
}

fn snapshot_err(reason: String) -> OramError {
    OramError::SnapshotInvalid { reason }
}

// ---------------------------------------------------------------------------
// Recursive implementation
// ---------------------------------------------------------------------------

/// One page checked into a level's plaintext stash (trusted memory),
/// awaiting write-back onto a tree path.
#[derive(Debug, Clone)]
struct StashPage {
    page: u64,
    leaf: u64,
    data: Vec<u64>,
}

/// One page pinned in a level's cache. `return_leaf` was already written
/// into the parent entry at checkout time, so eviction is a plain stash
/// check-in with no upward cascade.
#[derive(Debug, Clone)]
struct CachedPage {
    data: Vec<u64>,
    return_leaf: u64,
}

/// One recursion level: a bucket-tree ORAM over position pages, with its
/// own device, sealer epoch, stash, and pinned LRU page cache.
#[derive(Debug)]
struct MapLevel {
    name: String,
    geometry: TreeGeometry,
    device: Device,
    clock: SimClock,
    keys: KeyHierarchy,
    sealer: BlockSealer,
    epoch: u64,
    seal_seq: u64,
    page_count: u64,
    fanout: u64,
    payload_len: usize,
    stash: Vec<StashPage>,
    stash_peak: usize,
    cache: HashMap<u64, CachedPage>,
    cache_order: VecDeque<u64>,
    cache_budget: usize,
    checkouts: u64,
    cache_hits: u64,
    trace: AccessTrace,
}

impl MapLevel {
    #[allow(clippy::too_many_arguments)]
    fn new(
        name: String,
        device_id: DeviceId,
        page_count: u64,
        fanout: u64,
        cache_budget: usize,
        master: &MasterKey,
        clock: &SimClock,
        backing_dir: Option<&std::path::Path>,
        bus: &AccessTrace,
    ) -> Result<Self, OramError> {
        let geometry = TreeGeometry::for_capacity(page_count, POSMAP_Z);
        let payload_len = fanout as usize * 8;
        let wire_len = BlockContent::encoded_len(payload_len);
        let trace = if bus.is_recording() {
            AccessTrace::recording()
        } else {
            AccessTrace::new()
        };
        let mut device = match backing_dir {
            None => Device::new(
                device_id,
                name.clone(),
                Box::new(paper_dram()),
                clock.clone(),
                Some(trace.clone()),
            ),
            Some(dir) => {
                let path = dir.join(format!("{name}.dev"));
                let store =
                    FileStore::open(path, FileStoreConfig::new(geometry.total_slots(), wire_len))?;
                Device::with_store(
                    device_id,
                    name.clone(),
                    Box::new(paper_dram()),
                    clock.clone(),
                    Some(trace.clone()),
                    Box::new(store),
                )
            }
        };
        device.set_capacity_slots(geometry.total_slots());
        device.set_charged_block_bytes(wire_len as u64);
        let keys = KeyHierarchy::new(master.clone(), format!("horam/posmap/{name}"));
        let sealer = BlockSealer::new(&keys.epoch_keys(0));
        Ok(Self {
            name,
            geometry,
            device,
            clock: clock.clone(),
            keys,
            sealer,
            epoch: 0,
            seal_seq: 0,
            page_count,
            fanout,
            payload_len,
            stash: Vec::new(),
            stash_peak: 0,
            cache: HashMap::new(),
            cache_order: VecDeque::new(),
            cache_budget,
            checkouts: 0,
            cache_hits: 0,
            trace,
        })
    }

    /// Advances the posmap clock by the device occupancy accrued since
    /// `busy_before` (the devices record costs; callers own the clock).
    fn advance_clock_since(&mut self, busy_before: SimDuration) {
        let delta = self.device.stats().busy.saturating_sub(busy_before);
        self.clock.advance(delta);
    }

    fn next_seq(&mut self) -> u64 {
        let seq = self.seal_seq;
        self.seal_seq += 1;
        seq
    }

    fn seal_page(&mut self, addr: u64, content: &BlockContent) -> oram_crypto::seal::SealedBlock {
        let wire = content.encode(self.payload_len);
        let seq = self.next_seq();
        self.sealer.seal(addr, seq, &wire)
    }

    /// Rebuilds the whole level from scratch: fresh epoch keys, a fresh
    /// leaf per page drawn from `rng`, greedy deepest-first placement, and
    /// one streaming write of every tree slot (a public linear sweep).
    /// Returns the leaf assigned to each page. Stash and cache are
    /// discarded — the caller supplies complete, current page contents.
    fn bulk_build(
        &mut self,
        pages: &[Vec<u64>],
        rng: &mut DeterministicRng,
    ) -> Result<Vec<u64>, OramError> {
        debug_assert_eq!(pages.len() as u64, self.page_count);
        let busy_before = self.device.stats().busy;
        self.epoch += 1;
        self.sealer = BlockSealer::new(&self.keys.epoch_keys(self.epoch));
        self.stash.clear();
        self.cache.clear();
        self.cache_order.clear();

        let leaves: Vec<u64> = pages
            .iter()
            .map(|_| self.geometry.random_leaf(rng))
            .collect();
        let z = self.geometry.z() as usize;
        let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); self.geometry.bucket_count() as usize];
        for (page, &leaf) in leaves.iter().enumerate() {
            let mut placed = false;
            for &node in self.geometry.path_nodes(leaf).iter().rev() {
                if buckets[node as usize].len() < z {
                    buckets[node as usize].push(page as u64);
                    placed = true;
                    break;
                }
            }
            if !placed {
                // ≈50 % utilization makes this rare; spill to the stash.
                self.stash.push(StashPage {
                    page: page as u64,
                    leaf,
                    data: pages[page].clone(),
                });
                if self.stash.len() > POSMAP_STASH_LIMIT {
                    return Err(OramError::StashOverflow {
                        limit: POSMAP_STASH_LIMIT,
                    });
                }
            }
        }
        self.stash_peak = self.stash_peak.max(self.stash.len());

        let mut blocks = Vec::with_capacity(self.geometry.total_slots() as usize);
        for node in 0..self.geometry.bucket_count() {
            for slot in 0..z {
                let addr = self.geometry.slot_addr(node, slot as u32);
                let content = match buckets[node as usize].get(slot) {
                    Some(&page) => BlockContent::Real {
                        id: BlockId(page),
                        leaf: leaves[page as usize],
                        payload: pack_entries(&pages[page as usize]),
                    },
                    None => BlockContent::Dummy,
                };
                blocks.push(self.seal_page(addr, &content));
            }
        }
        self.device.write_run(0, blocks)?;
        self.advance_clock_since(busy_before);
        Ok(leaves)
    }

    /// Fetches `page` (tagged `leaf`) out of the level: reads the full
    /// root→leaf path, absorbs every real page into the stash, extracts
    /// the target, then greedily writes the path back from the stash. The
    /// target is *not* written back — it moves to the pinned cache until
    /// [`checkin`](Self::checkin).
    fn checkout(&mut self, page: u64, leaf: u64) -> Result<Vec<u64>, OramError> {
        self.checkouts += 1;
        let busy_before = self.device.stats().busy;
        let z = self.geometry.z() as u64;
        let path = self.geometry.path_nodes(leaf);
        for &node in &path {
            let run = self.device.read_run(node * z, z)?;
            for (offset, block) in run.into_iter().enumerate() {
                let addr = node * z + offset as u64;
                let Some(block) = block else {
                    return Err(OramError::internal(format!(
                        "posmap level {} slot {addr} empty — level never built",
                        self.name
                    )));
                };
                let wire = self.sealer.open_in_place(block)?;
                match BlockContent::decode_owned(wire, addr)? {
                    BlockContent::Dummy => {}
                    BlockContent::Real { id, leaf, payload } => {
                        self.stash.push(StashPage {
                            page: id.0,
                            leaf,
                            data: unpack_entries(&payload),
                        });
                    }
                }
            }
        }
        let position = self
            .stash
            .iter()
            .position(|entry| entry.page == page)
            .ok_or_else(|| {
                OramError::internal(format!(
                    "posmap level {} page {page} missing from path to leaf {leaf}",
                    self.name
                ))
            })?;
        let target = self.stash.remove(position);

        // Greedy write-back, leaf-first, from the stash.
        for &node in path.iter().rev() {
            let mut bucket = Vec::with_capacity(z as usize);
            let mut index = 0;
            while index < self.stash.len() && bucket.len() < z as usize {
                if self.geometry.node_on_path(node, self.stash[index].leaf) {
                    let entry = self.stash.remove(index);
                    let addr = node * z + bucket.len() as u64;
                    let content = BlockContent::Real {
                        id: BlockId(entry.page),
                        leaf: entry.leaf,
                        payload: pack_entries(&entry.data),
                    };
                    bucket.push(self.seal_page(addr, &content));
                } else {
                    index += 1;
                }
            }
            while bucket.len() < z as usize {
                let addr = node * z + bucket.len() as u64;
                bucket.push(self.seal_page(addr, &BlockContent::Dummy));
            }
            self.device.write_run(node * z, bucket)?;
        }
        self.stash_peak = self.stash_peak.max(self.stash.len());
        if self.stash.len() > POSMAP_STASH_LIMIT {
            return Err(OramError::StashOverflow {
                limit: POSMAP_STASH_LIMIT,
            });
        }
        self.advance_clock_since(busy_before);
        Ok(target.data)
    }

    /// Returns an evicted page to the stash under the leaf that was
    /// reserved for it at checkout. No device access — the page rides a
    /// later checkout's write-back.
    fn checkin(&mut self, page: u64, return_leaf: u64, data: Vec<u64>) -> Result<(), OramError> {
        self.stash.push(StashPage {
            page,
            leaf: return_leaf,
            data,
        });
        self.stash_peak = self.stash_peak.max(self.stash.len());
        if self.stash.len() > POSMAP_STASH_LIMIT {
            return Err(OramError::StashOverflow {
                limit: POSMAP_STASH_LIMIT,
            });
        }
        Ok(())
    }

    /// Marks `page` most-recently-used.
    fn touch(&mut self, page: u64) {
        if let Some(pos) = self.cache_order.iter().position(|&p| p == page) {
            self.cache_order.remove(pos);
        }
        self.cache_order.push_front(page);
    }

    fn trusted_bytes(&self) -> u64 {
        let per_page = 24 + self.fanout * 8;
        (self.stash.len() as u64 + self.cache.len() as u64) * per_page
    }

    fn save_state(&mut self, w: &mut StateWriter) -> Result<(), OramError> {
        w.put_u64(self.epoch);
        w.put_u64(self.seal_seq);
        w.put_usize(self.stash.len());
        for entry in &self.stash {
            w.put_u64(entry.page);
            w.put_u64(entry.leaf);
            put_entries(w, &entry.data);
        }
        w.put_usize(self.cache_order.len());
        for &page in &self.cache_order {
            let cached = &self.cache[&page];
            w.put_u64(page);
            w.put_u64(cached.return_leaf);
            put_entries(w, &cached.data);
        }
        self.device.save_state(w)?;
        Ok(())
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), OramError> {
        self.epoch = r.get_u64()?;
        self.seal_seq = r.get_u64()?;
        self.sealer = BlockSealer::new(&self.keys.epoch_keys(self.epoch));
        let stash_len = r.get_usize()?;
        if stash_len > POSMAP_STASH_LIMIT {
            return Err(snapshot_err(format!(
                "posmap level {} stash of {stash_len} beyond bound {POSMAP_STASH_LIMIT}",
                self.name
            )));
        }
        let mut stash = Vec::with_capacity(stash_len);
        for _ in 0..stash_len {
            let page = r.get_u64()?;
            let leaf = r.get_u64()?;
            stash.push(StashPage {
                page,
                leaf,
                data: get_entries(r, self.fanout)?,
            });
        }
        self.stash = stash;
        let cache_len = r.get_usize()?;
        if cache_len > self.cache_budget {
            return Err(snapshot_err(format!(
                "posmap level {} cache of {cache_len} beyond budget {}",
                self.name, self.cache_budget
            )));
        }
        self.cache.clear();
        self.cache_order.clear();
        for _ in 0..cache_len {
            let page = r.get_u64()?;
            let return_leaf = r.get_u64()?;
            let data = get_entries(r, self.fanout)?;
            self.cache.insert(page, CachedPage { data, return_leaf });
            self.cache_order.push_back(page);
        }
        self.device.load_state(r)?;
        Ok(())
    }
}

fn pack_entries(entries: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(entries.len() * 8);
    for value in entries {
        out.extend_from_slice(&value.to_le_bytes());
    }
    out
}

fn unpack_entries(bytes: &[u8]) -> Vec<u64> {
    bytes
        .chunks_exact(8)
        .map(|chunk| u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")))
        .collect()
}

fn put_entries(w: &mut StateWriter, entries: &[u64]) {
    for &value in entries {
        w.put_u64(value);
    }
}

fn get_entries(r: &mut StateReader<'_>, fanout: u64) -> Result<Vec<u64>, PersistError> {
    let mut out = Vec::with_capacity(fanout as usize);
    for _ in 0..fanout {
        out.push(r.get_u64()?);
    }
    Ok(out)
}

/// One recursive table: progressively smaller levels over packed `u64`
/// entries, terminating in a tiny flat root of page leaves.
#[derive(Debug)]
struct RecursiveTable {
    entries: u64,
    fanout: u64,
    levels: Vec<MapLevel>,
    root: Vec<u64>,
    rng: DeterministicRng,
    bulk_rebuilds: u64,
}

impl RecursiveTable {
    #[allow(clippy::too_many_arguments)]
    fn new(
        label: &str,
        entries: u64,
        rcfg: &RecursivePosmapConfig,
        master: &MasterKey,
        clock: &SimClock,
        device_id_base: u16,
        seed: u64,
        backing_dir: Option<&std::path::Path>,
        bus: &AccessTrace,
    ) -> Result<Self, OramError> {
        let fanout = rcfg.effective_fanout();
        let page_counts = level_page_counts(entries, fanout, rcfg.root_threshold);
        let mut levels = Vec::with_capacity(page_counts.len());
        for (index, &page_count) in page_counts.iter().enumerate() {
            levels.push(MapLevel::new(
                format!("posmap-{label}-l{index}"),
                DeviceId(device_id_base + 2 * index as u16),
                page_count,
                fanout,
                rcfg.cache_pages,
                master,
                clock,
                backing_dir,
                bus,
            )?);
        }
        let root_len = *page_counts.last().expect("at least one level") as usize;
        Ok(Self {
            entries,
            fanout,
            levels,
            root: vec![0; root_len],
            rng: DeterministicRng::from_u64_seed(
                seed ^ (device_id_base as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            ),
            bulk_rebuilds: 0,
        })
    }

    /// Rebuilds every level from a complete entry image (`values.len() ==
    /// entries`). O(entries) *transient* host memory — an honest stand-in
    /// for an oblivious external-memory build pass; steady-state trusted
    /// memory is what [`trusted_bytes`](Self::trusted_bytes) reports.
    fn bulk_load(&mut self, values: &[u64]) -> Result<(), OramError> {
        debug_assert_eq!(values.len() as u64, self.entries);
        let mut current = chunk_pages(values, self.fanout);
        for index in 0..self.levels.len() {
            debug_assert_eq!(current.len() as u64, self.levels[index].page_count);
            let leaves = self.levels[index].bulk_build(&current, &mut self.rng)?;
            if index + 1 == self.levels.len() {
                self.root = leaves;
            } else {
                current = chunk_pages(&leaves, self.fanout);
            }
        }
        self.bulk_rebuilds += 1;
        Ok(())
    }

    /// Pins `page` of `level` in that level's cache, walking the chain of
    /// parent pages upward as needed. At fetch time the parent entry (or
    /// root slot) is rewritten to a freshly drawn *return leaf*, so a
    /// later eviction is a plain check-in with no further accesses.
    fn ensure_cached(&mut self, level: usize, page: u64) -> Result<(), OramError> {
        if self.levels[level].cache.contains_key(&page) {
            self.levels[level].cache_hits += 1;
            self.levels[level].touch(page);
            return Ok(());
        }
        let fresh = self.levels[level].geometry.random_leaf(&mut self.rng);
        let leaf = if level + 1 == self.levels.len() {
            std::mem::replace(&mut self.root[page as usize], fresh)
        } else {
            let parent_page = page / self.fanout;
            self.ensure_cached(level + 1, parent_page)?;
            let slot = (page % self.fanout) as usize;
            let parent = self.levels[level + 1]
                .cache
                .get_mut(&parent_page)
                .expect("parent pinned by ensure_cached");
            std::mem::replace(&mut parent.data[slot], fresh)
        };
        let data = self.levels[level].checkout(page, leaf)?;
        let map_level = &mut self.levels[level];
        map_level.cache.insert(
            page,
            CachedPage {
                data,
                return_leaf: fresh,
            },
        );
        map_level.cache_order.push_front(page);
        while map_level.cache.len() > map_level.cache_budget {
            let victim = map_level
                .cache_order
                .pop_back()
                .expect("cache non-empty beyond budget");
            let evicted = map_level
                .cache
                .remove(&victim)
                .expect("ordered page cached");
            map_level.checkin(victim, evicted.return_leaf, evicted.data)?;
        }
        Ok(())
    }

    fn get(&mut self, index: u64) -> Result<u64, OramError> {
        let page = index / self.fanout;
        self.ensure_cached(0, page)?;
        Ok(self.levels[0].cache[&page].data[(index % self.fanout) as usize])
    }

    fn set(&mut self, index: u64, value: u64) -> Result<(), OramError> {
        let page = index / self.fanout;
        self.ensure_cached(0, page)?;
        let cached = self.levels[0]
            .cache
            .get_mut(&page)
            .expect("page pinned by ensure_cached");
        cached.data[(index % self.fanout) as usize] = value;
        Ok(())
    }

    fn trusted_bytes(&self) -> u64 {
        let root = self.root.len() as u64 * 8;
        root + self.levels.iter().map(MapLevel::trusted_bytes).sum::<u64>()
    }

    fn save_state(&mut self, w: &mut StateWriter) -> Result<(), OramError> {
        w.put_usize(self.root.len());
        for &leaf in &self.root {
            w.put_u64(leaf);
        }
        let (counter, cursor) = self.rng.stream_pos();
        w.put_u64(counter as u64);
        w.put_usize(cursor);
        w.put_u64(self.bulk_rebuilds);
        for level in &mut self.levels {
            level.save_state(w)?;
        }
        Ok(())
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), OramError> {
        let root_len = r.get_usize()?;
        if root_len != self.root.len() {
            return Err(snapshot_err(format!(
                "posmap root of {root_len} pages for geometry with {}",
                self.root.len()
            )));
        }
        for leaf in &mut self.root {
            *leaf = r.get_u64()?;
        }
        let counter = u32::try_from(r.get_u64()?)
            .map_err(|_| snapshot_err("posmap rng counter beyond u32".into()))?;
        let cursor = r.get_usize()?;
        self.rng.seek_to(counter, cursor);
        self.bulk_rebuilds = r.get_u64()?;
        for level in &mut self.levels {
            level.load_state(r)?;
        }
        Ok(())
    }
}

/// Splits a flat entry array into fanout-sized pages, zero-padding the
/// last one (entry value 0 is "unassigned" in both tables).
fn chunk_pages(values: &[u64], fanout: u64) -> Vec<Vec<u64>> {
    values
        .chunks(fanout as usize)
        .map(|chunk| {
            let mut page = chunk.to_vec();
            page.resize(fanout as usize, 0);
            page
        })
        .collect()
}

/// Page counts per level: level 0 packs the entries; each further level
/// packs the previous level's page leaves; recursion stops once a level
/// fits under the root threshold.
fn level_page_counts(entries: u64, fanout: u64, root_threshold: u64) -> Vec<u64> {
    let mut counts = Vec::new();
    let mut pages = entries.div_ceil(fanout).max(1);
    loop {
        counts.push(pages);
        if pages <= root_threshold {
            return counts;
        }
        pages = pages.div_ceil(fanout);
    }
}

/// The recursive position map: a forward table (id → encoded location)
/// and an inverse table (slot → encoded owner), kept in lockstep, each
/// stored recursively. Encodings: forward `0` = in memory, else
/// `slot + 1`; inverse `0` = unowned, else `id + 1`.
#[derive(Debug)]
pub struct RecursivePositionMap {
    capacity: u64,
    slots: u64,
    in_memory: u64,
    forward: RecursiveTable,
    inverse: RecursiveTable,
    clock: SimClock,
    queries: u64,
}

impl RecursivePositionMap {
    /// Builds a recursive map for `capacity` blocks over `slots` physical
    /// slots. With `restore = false` the levels are bulk-built to the
    /// all-unassigned image (every block "in memory", every slot
    /// unowned); with `restore = true` construction performs no device
    /// writes — [`PositionMap::load_state`] adopts the snapshot.
    ///
    /// # Errors
    ///
    /// Backing-file and level build errors propagate.
    pub fn new(
        capacity: u64,
        slots: u64,
        rcfg: &RecursivePosmapConfig,
        master: &MasterKey,
        seed: u64,
        restore: bool,
        bus: &AccessTrace,
    ) -> Result<Self, OramError> {
        let clock = SimClock::new();
        let backing_dir = match &rcfg.backing_dir {
            None => None,
            Some(dir) => {
                let path = std::path::PathBuf::from(dir);
                std::fs::create_dir_all(&path).map_err(|e| {
                    OramError::Storage(oram_storage::StorageError::Backend {
                        path: dir.clone(),
                        reason: format!("creating posmap backing dir: {e}"),
                    })
                })?;
                Some(path)
            }
        };
        let backing = backing_dir.as_deref();
        let mut forward = RecursiveTable::new(
            "fwd",
            capacity,
            rcfg,
            master,
            &clock,
            POSMAP_DEVICE_ID_BASE,
            seed,
            backing,
            bus,
        )?;
        let mut inverse = RecursiveTable::new(
            "inv",
            slots,
            rcfg,
            master,
            &clock,
            POSMAP_DEVICE_ID_BASE + 1,
            seed,
            backing,
            bus,
        )?;
        if !restore {
            forward.bulk_load(&vec![0; capacity as usize])?;
            inverse.bulk_load(&vec![0; slots as usize])?;
        }
        Ok(Self {
            capacity,
            slots,
            in_memory: capacity,
            forward,
            inverse,
            clock,
            queries: 0,
        })
    }

    /// Peak stash occupancy across all levels (test instrumentation).
    pub fn stash_peak(&self) -> usize {
        self.forward
            .levels
            .iter()
            .chain(self.inverse.levels.iter())
            .map(|level| level.stash_peak)
            .max()
            .unwrap_or(0)
    }

    fn tables(&mut self) -> [&mut RecursiveTable; 2] {
        [&mut self.forward, &mut self.inverse]
    }
}

impl PositionMap for RecursivePositionMap {
    fn capacity(&self) -> u64 {
        self.capacity
    }

    fn total_slots(&self) -> u64 {
        self.slots
    }

    fn location(&mut self, id: BlockId) -> Result<Location, OramError> {
        self.queries += 1;
        Ok(match self.forward.get(id.0)? {
            0 => Location::Memory,
            encoded => Location::Storage { slot: encoded - 1 },
        })
    }

    fn in_memory_count(&self) -> u64 {
        self.in_memory
    }

    fn set_in_memory(&mut self, id: BlockId) -> Result<(), OramError> {
        self.queries += 1;
        if self.forward.get(id.0)? != 0 {
            self.forward.set(id.0, 0)?;
            self.in_memory += 1;
        }
        Ok(())
    }

    fn place(&mut self, id: BlockId, slot: u64) -> Result<(), OramError> {
        self.queries += 1;
        if self.forward.get(id.0)? == 0 {
            self.in_memory -= 1;
        }
        self.forward.set(id.0, slot + 1)?;
        self.inverse.set(slot, id.0 + 1)?;
        Ok(())
    }

    fn take_owner(&mut self, slot: u64) -> Result<Option<BlockId>, OramError> {
        self.queries += 1;
        match self.inverse.get(slot)? {
            0 => Ok(None),
            encoded => {
                self.inverse.set(slot, 0)?;
                Ok(Some(BlockId(encoded - 1)))
            }
        }
    }

    fn rebuild_all(&mut self, owners: &[Option<BlockId>]) -> Result<(), OramError> {
        validate_full_image(owners, self.capacity, self.slots)?;
        let mut forward_values = vec![0u64; self.capacity as usize];
        let mut inverse_values = vec![0u64; self.slots as usize];
        let mut placed: u64 = 0;
        for (slot, owner) in owners.iter().enumerate() {
            if let Some(id) = owner {
                forward_values[id.0 as usize] = slot as u64 + 1;
                inverse_values[slot] = id.0 + 1;
                placed += 1;
            }
        }
        self.forward.bulk_load(&forward_values)?;
        self.inverse.bulk_load(&inverse_values)?;
        self.in_memory = self.capacity - placed;
        Ok(())
    }

    fn memory_bytes(&self) -> u64 {
        self.forward.trusted_bytes() + self.inverse.trusted_bytes()
    }

    fn stats(&self) -> PosmapStats {
        let mut stats = PosmapStats {
            queries: self.queries,
            bulk_rebuilds: self.forward.bulk_rebuilds + self.inverse.bulk_rebuilds,
            ..PosmapStats::default()
        };
        for level in self.forward.levels.iter().chain(self.inverse.levels.iter()) {
            stats.checkouts += level.checkouts;
            stats.cache_hits += level.cache_hits;
        }
        stats
    }

    fn level_views(&self) -> Vec<PosmapLevelView> {
        self.forward
            .levels
            .iter()
            .chain(self.inverse.levels.iter())
            .map(|level| PosmapLevelView {
                name: level.name.clone(),
                device_id: level.device.id(),
                depth: level.geometry.depth(),
                z: level.geometry.z(),
                page_count: level.page_count,
                trace: level.trace.clone(),
            })
            .collect()
    }

    fn sim_time(&self) -> SimDuration {
        SimDuration::from_nanos(self.clock.now().as_nanos())
    }

    fn reset_accounting(&mut self) {
        self.queries = 0;
        for table in self.tables() {
            table.bulk_rebuilds = 0;
            for level in &mut table.levels {
                level.checkouts = 0;
                level.cache_hits = 0;
                level.device.reset_accounting();
                level.trace.clear();
            }
        }
        self.clock.reset();
    }

    fn sync(&mut self) -> Result<(), OramError> {
        for table in self.tables() {
            for level in &mut table.levels {
                level.device.sync().map_err(OramError::Storage)?;
            }
        }
        Ok(())
    }

    fn save_state(&mut self, w: &mut StateWriter) -> Result<(), OramError> {
        w.put_u64(self.capacity);
        w.put_u64(self.slots);
        w.put_u64(self.in_memory);
        w.put_u64(self.queries);
        w.put_u64(self.clock.now().as_nanos());
        self.forward.save_state(w)?;
        self.inverse.save_state(w)?;
        Ok(())
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), OramError> {
        let capacity = r.get_u64()?;
        let slots = r.get_u64()?;
        if capacity != self.capacity || slots != self.slots {
            return Err(snapshot_err(format!(
                "recursive posmap of {capacity}×{slots} for geometry {}×{}",
                self.capacity, self.slots
            )));
        }
        self.in_memory = r.get_u64()?;
        self.queries = r.get_u64()?;
        let clock_nanos = r.get_u64()?;
        self.clock.reset();
        self.clock.advance(SimDuration::from_nanos(clock_nanos));
        self.forward.load_state(r)?;
        self.inverse.load_state(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recursive_map(capacity: u64, slots: u64) -> RecursivePositionMap {
        let rcfg = RecursivePosmapConfig {
            fanout: Some(8),
            root_threshold: 4,
            cache_pages: 2,
            backing_dir: None,
        };
        RecursivePositionMap::new(
            capacity,
            slots,
            &rcfg,
            &MasterKey::from_bytes([5; 32]),
            11,
            false,
            &AccessTrace::recording(),
        )
        .expect("build")
    }

    fn full_image(capacity: u64, slots: u64) -> Vec<Option<BlockId>> {
        // Block i at slot 2i (interleaved with empty slots).
        let mut owners = vec![None; slots as usize];
        for id in 0..capacity {
            owners[(id * 2) as usize] = Some(BlockId(id));
        }
        owners
    }

    #[test]
    fn geometry_shrinks_to_the_root() {
        assert_eq!(level_page_counts(1 << 16, 32, 64), vec![2048, 64]);
        assert_eq!(level_page_counts(100, 32, 64), vec![4]);
        assert_eq!(level_page_counts(1, 32, 64), vec![1]);
        assert_eq!(level_page_counts(1 << 20, 32, 64), vec![32768, 1024, 32]);
    }

    #[test]
    fn flat_and_recursive_agree_on_a_mixed_sequence() {
        let capacity = 128u64;
        let slots = 300u64;
        let mut flat: Box<dyn PositionMap> = Box::new(FlatPositionMap::new(capacity, slots));
        let mut recursive: Box<dyn PositionMap> = Box::new(recursive_map(capacity, slots));
        let image = full_image(capacity, slots);
        flat.rebuild_all(&image).unwrap();
        recursive.rebuild_all(&image).unwrap();

        let mut rng = DeterministicRng::from_u64_seed(3);
        use rand::Rng;
        for _ in 0..500 {
            let id = BlockId(rng.gen_range(0..capacity));
            match rng.gen_range(0..4u32) {
                0 => {
                    assert_eq!(
                        flat.location(id).unwrap(),
                        recursive.location(id).unwrap(),
                        "location of {id:?}"
                    );
                }
                1 => {
                    flat.set_in_memory(id).unwrap();
                    recursive.set_in_memory(id).unwrap();
                }
                2 => {
                    let slot = rng.gen_range(0..slots);
                    assert_eq!(
                        flat.take_owner(slot).unwrap(),
                        recursive.take_owner(slot).unwrap(),
                        "owner of slot {slot}"
                    );
                }
                _ => {
                    // Re-place the block at a fresh slot if it owns none.
                    let slot = rng.gen_range(0..slots);
                    if flat.take_owner(slot).unwrap().is_none() {
                        assert!(recursive.take_owner(slot).unwrap().is_none());
                        flat.place(id, slot).unwrap();
                        recursive.place(id, slot).unwrap();
                    } else {
                        // Slot was owned: mirror the take on the other map
                        // and push the prior owner to memory on both.
                        let prior = recursive.take_owner(slot).unwrap().expect("mirrored");
                        flat.set_in_memory(prior).unwrap();
                        recursive.set_in_memory(prior).unwrap();
                        flat.place(id, slot).unwrap();
                        recursive.place(id, slot).unwrap();
                    }
                }
            }
            assert_eq!(flat.in_memory_count(), recursive.in_memory_count());
        }
    }

    #[test]
    fn take_pass_owners_matches_slotwise_takes() {
        let capacity = 64u64;
        let slots = 150u64;
        let image = full_image(capacity, slots);
        let mut a = recursive_map(capacity, slots);
        a.rebuild_all(&image).unwrap();
        let mut b = FlatPositionMap::new(capacity, slots);
        b.rebuild_all(&image).unwrap();
        assert_eq!(
            a.take_pass_owners(10, 40).unwrap(),
            b.take_pass_owners(10, 40).unwrap()
        );
        // Second sweep over the same range: everything already taken.
        assert!(a
            .take_pass_owners(10, 40)
            .unwrap()
            .iter()
            .all(Option::is_none));
    }

    #[test]
    fn rebuild_all_rejects_bad_images() {
        let mut map = FlatPositionMap::new(4, 10);
        // Wrong size.
        assert!(matches!(
            map.rebuild_all(&[None; 3]),
            Err(OramError::Internal { .. })
        ));
        // Duplicate placement.
        let mut owners = vec![None; 10];
        owners[0] = Some(BlockId(1));
        owners[1] = Some(BlockId(1));
        assert!(matches!(
            map.rebuild_all(&owners),
            Err(OramError::Internal { .. })
        ));
        // Blocks absent from the image are legal: they go to memory.
        let mut owners = vec![None; 10];
        owners[0] = Some(BlockId(1));
        map.rebuild_all(&owners).unwrap();
        assert_eq!(map.in_memory_count(), 3);
        assert_eq!(
            map.location(BlockId(1)).unwrap(),
            Location::Storage { slot: 0 }
        );
        assert_eq!(map.location(BlockId(2)).unwrap(), Location::Memory);
    }

    #[test]
    fn recursive_trusted_bytes_stay_bounded() {
        let capacity = 4096u64;
        let slots = 8192u64;
        let mut map = recursive_map(capacity, slots);
        map.rebuild_all(&full_image(capacity, slots)).unwrap();
        use rand::Rng;
        let mut rng = DeterministicRng::from_u64_seed(9);
        for _ in 0..300 {
            let id = BlockId(rng.gen_range(0..capacity));
            let _ = map.location(id).unwrap();
        }
        let flat_bytes = FlatPositionMap::new(capacity, slots).memory_bytes();
        let recursive_bytes = map.memory_bytes();
        assert!(
            recursive_bytes * 4 < flat_bytes,
            "recursive {recursive_bytes} B not ≪ flat {flat_bytes} B"
        );
        assert!(map.stash_peak() <= POSMAP_STASH_LIMIT);
    }

    #[test]
    fn level_accesses_are_full_paths() {
        let capacity = 512u64;
        let slots = 1100u64;
        let mut map = recursive_map(capacity, slots);
        map.rebuild_all(&full_image(capacity, slots)).unwrap();
        map.reset_accounting();
        use rand::Rng;
        let mut rng = DeterministicRng::from_u64_seed(4);
        for _ in 0..64 {
            let _ = map.location(BlockId(rng.gen_range(0..capacity))).unwrap();
        }
        let views = map.level_views();
        assert!(!views.is_empty());
        for view in views {
            let events = view.trace.snapshot();
            // Every checkout is one bucket-run read per path node, then
            // one bucket-run write per path node; the whole trace must
            // decompose into such path groups.
            let per_access = view.depth as usize;
            assert_eq!(
                events.len() % (2 * per_access),
                0,
                "level {} trace of {} events is not whole path accesses",
                view.name,
                events.len()
            );
        }
        assert!(map.stats().checkouts > 0);
        assert!(map.sim_time() > SimDuration::ZERO);
    }

    #[test]
    fn snapshot_roundtrip_preserves_behaviour() {
        let capacity = 256u64;
        let slots = 600u64;
        let mut map = recursive_map(capacity, slots);
        map.rebuild_all(&full_image(capacity, slots)).unwrap();
        use rand::Rng;
        let mut rng = DeterministicRng::from_u64_seed(7);
        for _ in 0..100 {
            let id = BlockId(rng.gen_range(0..capacity));
            map.set_in_memory(id).unwrap();
        }

        let mut w = StateWriter::new();
        map.save_state(&mut w).unwrap();
        let bytes = w.into_bytes();

        let rcfg = RecursivePosmapConfig {
            fanout: Some(8),
            root_threshold: 4,
            cache_pages: 2,
            backing_dir: None,
        };
        let mut restored = RecursivePositionMap::new(
            capacity,
            slots,
            &rcfg,
            &MasterKey::from_bytes([5; 32]),
            11,
            true,
            &AccessTrace::new(),
        )
        .unwrap();
        let mut r = StateReader::new(&bytes);
        restored.load_state(&mut r).unwrap();
        r.finish().map_err(OramError::from).unwrap();

        assert_eq!(map.in_memory_count(), restored.in_memory_count());
        for id in 0..capacity {
            assert_eq!(
                map.location(BlockId(id)).unwrap(),
                restored.location(BlockId(id)).unwrap(),
                "block {id} after restore"
            );
        }
    }

    #[test]
    fn snapshot_size_tracks_trusted_state_not_n() {
        // Volatile level devices embed their blocks, so only the
        // file-backed mode gets the small-snapshot claim; compare like
        // for like by measuring the non-device portion.
        let capacity = 2048u64;
        let slots = 4200u64;
        let mut map = recursive_map(capacity, slots);
        map.rebuild_all(&full_image(capacity, slots)).unwrap();
        let mut flat = FlatPositionMap::new(capacity, slots);
        flat.rebuild_all(&full_image(capacity, slots)).unwrap();

        let mut w = StateWriter::new();
        flat.save_state(&mut w).unwrap();
        let flat_len = w.into_bytes().len();
        // Trusted part of the recursive map (root + stash + cache) is far
        // smaller than the flat table.
        assert!(
            map.memory_bytes() as usize * 4 < flat_len,
            "recursive trusted {} B vs flat snapshot {} B",
            map.memory_bytes(),
            flat_len
        );
    }
}
