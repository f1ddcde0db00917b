//! Block-addressed backing stores: the pluggable *data* half of a device.
//!
//! A [`crate::device::Device`] couples a [`DataStore`] (where the sealed
//! bytes live) with a timing model (what an access costs). Two stores
//! exist:
//!
//! * [`BlockStore`] — a sparse in-memory map, the simulation default: a
//!   500 GB device costs memory only for slots actually written.
//! * [`crate::file::FileStore`] — a slot-indexed real file with a
//!   write-back buffer and an undo journal, for durable experiments that
//!   must survive a restart (see the `file` module docs).
//!
//! The trait is deliberately owned-value (`get` returns a clone):
//! file-backed stores cannot hand out references into the file, and the
//! protocol paths either clone anyway or take ownership via `remove`.

use crate::StorageError;
use oram_crypto::seal::SealedBlock;
use std::collections::HashMap;
use std::fmt;

/// Where a device's sealed blocks physically live.
///
/// Implementations must behave like a map from slot address to block:
/// `put` then `get` round-trips, `remove` empties the slot. I/O-backed
/// stores surface failures as [`StorageError::Backend`]; the in-memory
/// store is infallible.
pub trait DataStore: fmt::Debug + Send {
    /// The block at `addr`, if present (cloned/decoded out of the store).
    fn get(&mut self, addr: u64) -> Result<Option<SealedBlock>, StorageError>;

    /// Stores `block` at `addr`.
    fn put(&mut self, addr: u64, block: SealedBlock) -> Result<(), StorageError>;

    /// Removes and returns the block at `addr`.
    fn remove(&mut self, addr: u64) -> Result<Option<SealedBlock>, StorageError>;

    /// Number of occupied slots.
    fn len(&self) -> usize;

    /// Whether no slot is occupied.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes all blocks.
    fn clear(&mut self) -> Result<(), StorageError>;

    /// Durability barrier: flush buffered writes to stable storage and
    /// commit them (checkpoint point for crash recovery). No-op for
    /// volatile stores.
    fn sync(&mut self) -> Result<(), StorageError>;

    /// Whether the store's contents survive process exit. Durable stores
    /// are *excluded* from state snapshots (the on-disk file is the
    /// authoritative copy); volatile stores embed their blocks.
    fn durable(&self) -> bool;

    /// Every occupied `(addr, block)` pair, for embedding a volatile
    /// store's contents into a snapshot, in ascending slot order so that
    /// equal contents snapshot to equal bytes.
    fn snapshot_blocks(&mut self) -> Result<Vec<(u64, SealedBlock)>, StorageError>;

    /// Replaces the store's contents with `blocks` (snapshot restore).
    fn install_blocks(&mut self, blocks: Vec<(u64, SealedBlock)>) -> Result<(), StorageError> {
        self.clear()?;
        for (addr, block) in blocks {
            self.put(addr, block)?;
        }
        Ok(())
    }

    /// Drains simulated latency (nanoseconds) the store accrued since the
    /// last drain — e.g. injected latency spikes from
    /// [`crate::fault::FaultyStore`]. The device folds the drained time
    /// into the *cost* of the access that incurred it, so spikes slow the
    /// simulation down without changing the trace shape. Defaults to zero
    /// for stores that never stall.
    fn take_injected_latency_nanos(&mut self) -> u64 {
        0
    }

    /// Whether this store can return [`StorageError::TransientFault`].
    /// Stores that can MUST return `true`: the device then preserves
    /// write payloads across attempts (a clone per `put`) so transient
    /// write faults are retryable. Stores that answer `false` get the
    /// zero-copy write path and, by contract, never fault transiently.
    fn can_fault(&self) -> bool {
        false
    }

    /// Counters of injected faults, when this store (or a store it wraps)
    /// is a [`crate::fault::FaultyStore`]. `None` for honest stores.
    fn fault_stats(&self) -> Option<crate::fault::FaultStats> {
        None
    }
}

/// A sparse map from slot address to sealed block.
#[derive(Debug, Clone, Default)]
pub struct BlockStore {
    slots: HashMap<u64, SealedBlock>,
}

impl BlockStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no slot is occupied.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The block at `addr`, if present.
    pub fn get(&self, addr: u64) -> Option<&SealedBlock> {
        self.slots.get(&addr)
    }

    /// Stores `block` at `addr`, returning the previous occupant.
    pub fn put(&mut self, addr: u64, block: SealedBlock) -> Option<SealedBlock> {
        self.slots.insert(addr, block)
    }

    /// Removes and returns the block at `addr`.
    pub fn remove(&mut self, addr: u64) -> Option<SealedBlock> {
        self.slots.remove(&addr)
    }

    /// Whether `addr` is occupied.
    pub fn contains(&self, addr: u64) -> bool {
        self.slots.contains_key(&addr)
    }

    /// Iterates over `(addr, block)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &SealedBlock)> {
        self.slots.iter().map(|(a, b)| (*a, b))
    }

    /// Removes all blocks.
    pub fn clear(&mut self) {
        self.slots.clear();
    }
}

impl DataStore for BlockStore {
    fn get(&mut self, addr: u64) -> Result<Option<SealedBlock>, StorageError> {
        Ok(BlockStore::get(self, addr).cloned())
    }

    fn put(&mut self, addr: u64, block: SealedBlock) -> Result<(), StorageError> {
        BlockStore::put(self, addr, block);
        Ok(())
    }

    fn remove(&mut self, addr: u64) -> Result<Option<SealedBlock>, StorageError> {
        Ok(BlockStore::remove(self, addr))
    }

    fn len(&self) -> usize {
        BlockStore::len(self)
    }

    fn clear(&mut self) -> Result<(), StorageError> {
        BlockStore::clear(self);
        Ok(())
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        Ok(())
    }

    fn durable(&self) -> bool {
        false
    }

    fn snapshot_blocks(&mut self) -> Result<Vec<(u64, SealedBlock)>, StorageError> {
        let mut blocks: Vec<_> = self.iter().map(|(a, b)| (a, b.clone())).collect();
        blocks.sort_unstable_by_key(|&(addr, _)| addr);
        Ok(blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oram_crypto::keys::MasterKey;
    use oram_crypto::seal::BlockSealer;

    fn sealed(id: u64) -> SealedBlock {
        BlockSealer::new(&MasterKey::from_bytes([0u8; 32]).derive("store", 0)).seal(
            id,
            0,
            &id.to_le_bytes(),
        )
    }

    #[test]
    fn put_get_remove_roundtrip() {
        let mut store = BlockStore::new();
        assert!(store.is_empty());
        assert!(store.put(5, sealed(5)).is_none());
        assert!(store.contains(5));
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(5).unwrap().block_id(), 5);
        let removed = store.remove(5).unwrap();
        assert_eq!(removed.block_id(), 5);
        assert!(store.is_empty());
    }

    #[test]
    fn put_replaces_and_returns_previous() {
        let mut store = BlockStore::new();
        store.put(1, sealed(10));
        let prev = store.put(1, sealed(20)).unwrap();
        assert_eq!(prev.block_id(), 10);
        assert_eq!(store.get(1).unwrap().block_id(), 20);
    }

    #[test]
    fn sparse_addresses_cost_no_intermediate_slots() {
        let mut store = BlockStore::new();
        store.put(0, sealed(0));
        store.put(u64::MAX - 1, sealed(1));
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn iter_visits_all() {
        let mut store = BlockStore::new();
        for a in 0..10 {
            store.put(a, sealed(a));
        }
        let mut addrs: Vec<u64> = store.iter().map(|(a, _)| a).collect();
        addrs.sort_unstable();
        assert_eq!(addrs, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clear_empties() {
        let mut store = BlockStore::new();
        store.put(3, sealed(3));
        store.clear();
        assert!(store.is_empty());
        assert!(!store.contains(3));
    }
}
