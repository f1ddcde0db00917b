//! The oblivious block cache.
//!
//! The paper's thesis is a *cacheable* ORAM interface: the permuted flat
//! layout lets a block-device cache sit under the ORAM without touching
//! the security argument. This module supplies that cache as a device
//! tier: `BlockCache`, a RAM tier of **sealed** blocks in front of a
//! [`crate::device::Device`]'s backing store, with LRU replacement over a
//! configurable capacity and write-back with dirty tracking.
//!
//! **Obliviousness.** The cache changes *when* an access completes, never
//! *what the bus shows*: every device operation records exactly the same
//! trace event — device, direction, slot, byte count, submission order —
//! whether it hit the RAM tier or went to cold storage. Hits
//! are timing-padded, not elided: the op is recorded unconditionally and
//! only its charged [`SimDuration`] differs. Which tier serves a slot is
//! a function of the *physical slot access history* alone, which the
//! ORAM layer above already guarantees is independent of the logical
//! request stream — so the timing difference carries no information the
//! adversary did not already have. `docs/ARCHITECTURE.md` §10 states the
//! full argument; `tests/leakage.rs` checks trace equality between
//! hit-heavy and miss-heavy schedules, and `tests/cache.rs` checks
//! response/trace equivalence against the uncached device.
//!
//! **Authority.** The RAM tier is the authority for slots it holds dirty;
//! everywhere else the cold store is authoritative and the cache holds
//! clean copies. Streamed shuffle writes (`write_run`) are write-through
//! (cold is updated immediately, the cache keeps a clean copy); random
//! writes (`write_block`) are write-back (absorbed dirty,
//! flushed on eviction or [`sync`](crate::device::Device::sync)).

use crate::clock::SimDuration;
use crate::store::DataStore;
use crate::StorageError;
use oram_crypto::seal::SealedBlock;
use std::collections::{BTreeMap, HashMap};

/// Configuration of the block cache.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheConfig {
    /// RAM-tier capacity in blocks.
    pub capacity_blocks: u64,
    /// Cost of serving one cached block (DRAM copy + lookup).
    pub hit_nanos: u64,
    /// Fraction of the cold write cost charged synchronously when a
    /// random write is absorbed write-back (the rest is assumed flushed
    /// in the background). `1.0` = fully synchronous.
    pub writeback_sync_fraction: f64,
    /// **Test fixture — deliberately insecure.** When set, RAM-tier hits
    /// skip the device trace and statistics entirely, so the bus shape
    /// depends on the hit pattern. Exists only so the leakage tests in
    /// `tests/leakage.rs` can prove they *would* catch a cache that
    /// elides hits instead of padding them. Never enable outside tests.
    #[doc(hidden)]
    pub leaky_hits: bool,
}

impl CacheConfig {
    /// An LRU cache of `capacity_blocks` blocks with DRAM-copy hit cost
    /// (1 µs) and mostly asynchronous write-back.
    pub fn lru(capacity_blocks: u64) -> Self {
        Self {
            capacity_blocks,
            hit_nanos: 1_000,
            writeback_sync_fraction: 0.2,
            leaky_hits: false,
        }
    }

    /// Checks invariants; called by device installation.
    ///
    /// # Panics
    ///
    /// Panics on a zero capacity or an out-of-range write-back fraction.
    pub fn validate(&self) {
        assert!(self.capacity_blocks > 0, "cache must hold at least 1 block");
        assert!(
            (0.0..=1.0).contains(&self.writeback_sync_fraction),
            "writeback_sync_fraction must be within [0, 1]"
        );
    }
}

/// Counters of the cache, surfaced through
/// [`crate::device::Device::cache_stats`] and the ORAM layers above.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CacheStats {
    /// Random reads served by the RAM tier.
    pub hits: u64,
    /// Random reads that went to cold storage.
    pub misses: u64,
    /// RAM-tier evictions.
    pub evictions: u64,
    /// Dirty blocks flushed to cold storage (eviction or sync).
    pub writebacks: u64,
}

impl CacheStats {
    /// Hit rate of random reads.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Merges another instance's counters (sharded aggregation).
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.writebacks += other.writebacks;
    }
}

/// One RAM-tier entry.
#[derive(Debug, Clone)]
struct Entry {
    block: SealedBlock,
    dirty: bool,
    /// LRU use tick.
    tick: u64,
}

/// The RAM cache tier. Lives inside a
/// [`crate::device::Device`]; all methods are crate-internal — the public
/// surface is the device's, which keeps trace/stat recording and cache
/// consultation in lockstep.
#[derive(Debug)]
pub(crate) struct BlockCache {
    config: CacheConfig,
    entries: HashMap<u64, Entry>,
    /// tick → slot reverse index for O(log n) LRU eviction; `BTreeMap`
    /// keeps eviction order independent of hash state.
    by_tick: BTreeMap<u64, u64>,
    /// Monotone use counter.
    tick: u64,
    stats: CacheStats,
}

impl BlockCache {
    /// Builds the cache.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration (see [`CacheConfig::validate`]).
    pub fn new(config: CacheConfig) -> Self {
        config.validate();
        Self {
            config,
            entries: HashMap::new(),
            by_tick: BTreeMap::new(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Accumulated counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets the counters only; residency (and therefore timing
    /// behavior) is preserved, mirroring
    /// [`crate::device::Device::reset_accounting`] semantics — benches
    /// reset accounting after warm-up precisely to measure the warm
    /// cache.
    pub(crate) fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    pub(crate) fn hit_cost(&self) -> SimDuration {
        SimDuration::from_nanos(self.config.hit_nanos)
    }

    pub(crate) fn leaky_hits(&self) -> bool {
        self.config.leaky_hits
    }

    pub(crate) fn writeback_sync_fraction(&self) -> f64 {
        self.config.writeback_sync_fraction
    }

    /// Whether a random read of `addr` will hit (no state change, no LRU
    /// touch) — the planning half of a scatter's hit/miss split.
    pub(crate) fn contains(&self, addr: u64) -> bool {
        self.entries.contains_key(&addr)
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    fn touch_entry(&mut self, addr: u64) {
        let tick = self.next_tick();
        if let Some(entry) = self.entries.get_mut(&addr) {
            self.by_tick.remove(&entry.tick);
            entry.tick = tick;
            self.by_tick.insert(tick, addr);
        }
    }

    /// Picks and removes the least-recently-used entry. Caller guarantees
    /// the cache is non-empty.
    fn evict_victim(&mut self) -> (u64, Entry) {
        let (_, victim) = self.by_tick.pop_first().expect("cache non-empty");
        let entry = self.entries.remove(&victim).expect("victim resident");
        self.stats.evictions += 1;
        (victim, entry)
    }

    /// Inserts (or refreshes) an entry, evicting to capacity. Evicted
    /// dirty blocks are flushed to `cold` (data movement only — the sync
    /// fraction was charged when the write was absorbed); evicted clean
    /// copies are dropped.
    pub(crate) fn insert(
        &mut self,
        addr: u64,
        block: SealedBlock,
        dirty: bool,
        cold: &mut dyn DataStore,
    ) -> Result<(), StorageError> {
        if let Some(entry) = self.entries.get_mut(&addr) {
            entry.block = block;
            entry.dirty = entry.dirty || dirty;
            self.touch_entry(addr);
            return Ok(());
        }
        while self.entries.len() as u64 >= self.config.capacity_blocks {
            let (victim, entry) = self.evict_victim();
            if entry.dirty {
                cold.put(victim, entry.block)?;
                self.stats.writebacks += 1;
            }
        }
        let tick = self.next_tick();
        self.entries.insert(addr, Entry { block, dirty, tick });
        self.by_tick.insert(tick, addr);
        Ok(())
    }

    /// Serves a hit: clones the block, touches recency, counts the hit.
    /// Caller guarantees residency ([`contains`](Self::contains) said so
    /// and no insertion happened since).
    pub(crate) fn serve_hit(&mut self, addr: u64) -> SealedBlock {
        let block = self.entries[&addr].block.clone();
        self.touch_entry(addr);
        self.stats.hits += 1;
        block
    }

    /// Counts a cold miss (the device serves it from its own store and
    /// then calls [`promote_cold`](Self::promote_cold)).
    pub(crate) fn note_miss(&mut self) {
        self.stats.misses += 1;
    }

    /// Serves a random read. Cold misses return `None` — resolution and
    /// promotion stay with the caller.
    #[cfg(test)]
    pub(crate) fn read(&mut self, addr: u64) -> Option<SealedBlock> {
        if self.contains(addr) {
            Some(self.serve_hit(addr))
        } else {
            self.note_miss();
            None
        }
    }

    /// Populates a clean copy after a write-through (`write_run`): the
    /// cold store already holds the new bytes, so the RAM entry enters
    /// clean.
    pub(crate) fn populate(
        &mut self,
        addr: u64,
        block: SealedBlock,
        cold: &mut dyn DataStore,
    ) -> Result<(), StorageError> {
        if let Some(entry) = self.entries.get_mut(&addr) {
            // Overwrite in place: the old copy (dirty or not) is obsolete.
            entry.block = block;
            entry.dirty = false;
            self.touch_entry(addr);
            return Ok(());
        }
        self.insert(addr, block, false, cold)
    }

    /// Promotes a block just served by cold storage into the RAM tier.
    pub(crate) fn promote_cold(
        &mut self,
        addr: u64,
        block: &SealedBlock,
        cold: &mut dyn DataStore,
    ) -> Result<(), StorageError> {
        self.insert(addr, block.clone(), false, cold)
    }

    /// Absorbs a random write write-back: the RAM entry becomes the
    /// authority for `addr` until flushed.
    pub(crate) fn absorb_write(
        &mut self,
        addr: u64,
        block: SealedBlock,
        cold: &mut dyn DataStore,
    ) -> Result<(), StorageError> {
        self.insert(addr, block, true, cold)
    }

    /// Removes `addr` from the cache, returning the RAM copy if it was
    /// the authority (dirty).
    pub(crate) fn invalidate(&mut self, addr: u64) -> Option<SealedBlock> {
        let removed = self.entries.remove(&addr);
        if let Some(entry) = &removed {
            self.by_tick.remove(&entry.tick);
        }
        removed.and_then(|e| e.dirty.then_some(e.block))
    }

    /// The RAM copy of `addr` when the cache is the authority for it
    /// (dirty), without touching recency — read-path merging for runs.
    pub(crate) fn dirty_copy(&self, addr: u64) -> Option<&SealedBlock> {
        self.entries
            .get(&addr)
            .and_then(|e| e.dirty.then_some(&e.block))
    }

    /// Flushes every dirty entry to `cold` (data movement only) and
    /// marks them clean. Called by the device's durability barrier
    /// before the backing store syncs.
    pub(crate) fn flush(&mut self, cold: &mut dyn DataStore) -> Result<(), StorageError> {
        let mut dirty: Vec<u64> = self
            .entries
            .iter()
            .filter_map(|(&a, e)| e.dirty.then_some(a))
            .collect();
        dirty.sort_unstable();
        for addr in dirty {
            let entry = self.entries.get_mut(&addr).expect("just listed");
            cold.put(addr, entry.block.clone())?;
            entry.dirty = false;
            self.stats.writebacks += 1;
        }
        Ok(())
    }

    /// Drops the cache's contents (device [`clear`]).
    ///
    /// [`clear`]: crate::device::Device::clear
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.by_tick.clear();
    }

    /// Serializes residency metadata + counters. Blocks are **not**
    /// embedded: the caller flushes dirty entries first, after which
    /// every cached byte equals the authoritative store's copy and the
    /// restore side repopulates from there — so a snapshot stays the
    /// same size whatever the cache holds.
    ///
    /// # Panics
    ///
    /// Panics if a dirty entry survives the pre-snapshot flush.
    pub(crate) fn save_state(&self, w: &mut oram_crypto::persist::StateWriter) {
        assert!(
            self.entries.values().all(|e| !e.dirty),
            "cache snapshot requires a prior flush"
        );
        w.put_u64(self.tick);
        let CacheStats {
            hits,
            misses,
            evictions,
            writebacks,
        } = self.stats;
        for word in [hits, misses, evictions, writebacks] {
            w.put_u64(word);
        }
        w.put_usize(self.by_tick.len());
        for (&tick, &addr) in &self.by_tick {
            w.put_u64(addr);
            w.put_u64(tick);
        }
    }

    /// Restores metadata written by [`save_state`](Self::save_state),
    /// repopulating block bytes from the authoritative `cold` store.
    ///
    /// # Errors
    ///
    /// [`oram_crypto::persist::PersistError`] when the snapshot references
    /// a slot the store does not hold (snapshot/device mismatch).
    pub(crate) fn load_state(
        &mut self,
        r: &mut oram_crypto::persist::StateReader<'_>,
        cold: &mut dyn DataStore,
    ) -> Result<(), oram_crypto::persist::PersistError> {
        use oram_crypto::persist::PersistError;
        self.clear();
        self.tick = r.get_u64()?;
        self.stats = CacheStats {
            hits: r.get_u64()?,
            misses: r.get_u64()?,
            evictions: r.get_u64()?,
            writebacks: r.get_u64()?,
        };
        let count = r.get_usize()?;
        for _ in 0..count {
            let addr = r.get_u64()?;
            let tick = r.get_u64()?;
            let block = cold
                .get(addr)
                .map_err(|e| PersistError::Malformed(format!("repopulating cache: {e}")))?
                .ok_or_else(|| {
                    PersistError::Malformed(format!(
                        "cache snapshot references slot {addr}, absent from the store"
                    ))
                })?;
            self.entries.insert(
                addr,
                Entry {
                    block,
                    dirty: false,
                    tick,
                },
            );
            self.by_tick.insert(tick, addr);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::BlockStore;
    use oram_crypto::keys::MasterKey;
    use oram_crypto::seal::BlockSealer;

    fn sealer() -> BlockSealer {
        BlockSealer::new(&MasterKey::from_bytes([3u8; 32]).derive("cache-test", 0))
    }

    fn sealed(id: u64) -> SealedBlock {
        sealer().seal(id, 0, &id.to_le_bytes())
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut cold = BlockStore::new();
        let mut cache = BlockCache::new(CacheConfig::lru(2));
        cache.insert(1, sealed(1), false, &mut cold).unwrap();
        cache.insert(2, sealed(2), false, &mut cold).unwrap();
        cache.read(1); // 2 is now LRU
        cache.insert(3, sealed(3), false, &mut cold).unwrap();
        assert!(cache.contains(1) && cache.contains(3) && !cache.contains(2));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn dirty_eviction_writes_back_to_cold() {
        let mut cold = BlockStore::new();
        let mut cache = BlockCache::new(CacheConfig::lru(1));
        cache.absorb_write(7, sealed(7), &mut cold).unwrap();
        assert!(
            DataStore::get(&mut cold, 7).unwrap().is_none(),
            "write-back absorbed"
        );
        cache.absorb_write(8, sealed(8), &mut cold).unwrap();
        assert_eq!(
            DataStore::get(&mut cold, 7).unwrap().unwrap().block_id(),
            7,
            "eviction flushed the dirty block"
        );
        assert_eq!(cache.stats().writebacks, 1);
    }

    #[test]
    fn flush_cleans_every_dirty_entry() {
        let mut cold = BlockStore::new();
        let mut cache = BlockCache::new(CacheConfig::lru(8));
        for a in 0..4u64 {
            cache.absorb_write(a, sealed(a), &mut cold).unwrap();
        }
        cache.flush(&mut cold).unwrap();
        assert_eq!(cold.len(), 4);
        assert_eq!(cache.stats().writebacks, 4);
        // Entries remain resident and clean.
        for a in 0..4u64 {
            assert!(cache.contains(a));
            assert!(cache.dirty_copy(a).is_none());
        }
    }

    #[test]
    fn invalidate_returns_dirty_authority_only() {
        let mut cold = BlockStore::new();
        let mut cache = BlockCache::new(CacheConfig::lru(4));
        cache.insert(1, sealed(1), false, &mut cold).unwrap();
        cache.absorb_write(2, sealed(2), &mut cold).unwrap();
        assert!(cache.invalidate(1).is_none(), "clean copy is not authority");
        assert_eq!(cache.invalidate(2).unwrap().block_id(), 2);
        assert!(!cache.contains(1) && !cache.contains(2));
    }

    #[test]
    fn state_roundtrip_preserves_residency_and_stats() {
        let config = CacheConfig::lru(3);
        let mut cold = BlockStore::new();
        let mut cache = BlockCache::new(config.clone());
        for a in 0..6u64 {
            DataStore::put(&mut cold, a, sealed(a)).unwrap();
            cache.insert(a, sealed(a), false, &mut cold).unwrap();
        }
        cache.read(3); // 4 is now LRU
        let mut w = oram_crypto::persist::StateWriter::new();
        cache.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut restored = BlockCache::new(config);
        let mut r = oram_crypto::persist::StateReader::new(&bytes);
        restored.load_state(&mut r, &mut cold).unwrap();
        assert_eq!(restored.stats(), cache.stats());
        for a in 0..6u64 {
            assert_eq!(restored.contains(a), cache.contains(a), "slot {a}");
        }
        // Replacement behavior continues identically.
        cache.insert(100, sealed(100), false, &mut cold).unwrap();
        restored.insert(100, sealed(100), false, &mut cold).unwrap();
        for a in 0..6u64 {
            assert_eq!(
                restored.contains(a),
                cache.contains(a),
                "post-insert slot {a}"
            );
        }
    }

    #[test]
    fn load_state_rejects_missing_store_slot() {
        let mut cold = BlockStore::new();
        let mut cache = BlockCache::new(CacheConfig::lru(2));
        cache.insert(9, sealed(9), false, &mut cold).unwrap();
        let mut w = oram_crypto::persist::StateWriter::new();
        cache.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut empty = BlockStore::new();
        let mut restored = BlockCache::new(CacheConfig::lru(2));
        let mut r = oram_crypto::persist::StateReader::new(&bytes);
        assert!(restored.load_state(&mut r, &mut empty).is_err());
    }

    #[test]
    #[should_panic(expected = "at least 1 block")]
    fn zero_capacity_rejected() {
        let _ = BlockCache::new(CacheConfig::lru(0));
    }
}
