//! Block-addressed backing stores: the pluggable *data* half of a device.
//!
//! A [`crate::device::Device`] couples a [`DataStore`] (where the sealed
//! bytes live) with a timing model (what an access costs). Two stores
//! exist:
//!
//! * [`BlockStore`] — a dense in-memory arena of fixed-length records
//!   indexed by slot, the simulation default: it spans slot 0 up to the
//!   highest slot written.
//! * [`crate::file::FileStore`] — a slot-indexed real file with a
//!   write-back buffer and an undo journal, for durable experiments that
//!   must survive a restart (see the `file` module docs).
//!
//! Access is by borrow: `get` copies a slot into the caller's block and
//! `put` copies the caller's block into the slot, so a caller that reuses
//! its blocks moves bytes without allocating. `remove` hands back an owned
//! block, for the shuffle that takes slots out of the store.

use crate::StorageError;
use oram_crypto::seal::SealedBlock;
use std::fmt;

/// Where a device's sealed blocks physically live.
///
/// Implementations must behave like a map from slot address to block:
/// `put` then `get` round-trips, `remove` empties the slot. I/O-backed
/// stores surface failures as [`StorageError::Backend`].
pub trait DataStore: fmt::Debug + Send {
    /// Copies the block at `addr` into `out` and returns `true`, or
    /// returns `false` (leaving `out` as it was) if the slot is empty.
    fn get(&mut self, addr: u64, out: &mut SealedBlock) -> Result<bool, StorageError>;

    /// Stores a copy of `block` at `addr`.
    fn put(&mut self, addr: u64, block: &SealedBlock) -> Result<(), StorageError>;

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
            self.put(addr, &block)?;
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

    /// Counters of injected faults, when this store (or a store it wraps)
    /// is a [`crate::fault::FaultyStore`]. `None` for honest stores.
    fn fault_stats(&self) -> Option<crate::fault::FaultStats> {
        None
    }
}

/// Bytes of a record before its body: block id, epoch, tag.
const RECORD_HEADER: usize = 24;

/// A dense arena of sealed blocks: slot `s` is the fixed-length record at
/// `s · record_len` in one byte vector — block id, epoch and tag
/// (little-endian), then the body — plus one occupancy bit per slot.
///
/// The first `put` fixes the body length; a block of another length is
/// refused with [`StorageError::RecordLength`]. The arena grows to the
/// highest slot written and keeps its size across
/// [`clear`](DataStore::clear), so a tree rebuilt every period reuses it.
#[derive(Clone, Default)]
pub struct BlockStore {
    /// Bytes per record, header included; 0 until the first `put`.
    record_len: usize,
    records: Vec<u8>,
    /// Bit `s % 64` of word `s / 64` is set when slot `s` holds a block.
    occupied: Vec<u64>,
    len: usize,
}

impl fmt::Debug for BlockStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BlockStore")
            .field("record_len", &self.record_len)
            .field("slots", &self.slots())
            .field("len", &self.len)
            .finish()
    }
}

impl BlockStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Slots the arena spans: one past the highest slot ever written.
    fn slots(&self) -> u64 {
        self.records.len().checked_div(self.record_len).unwrap_or(0) as u64
    }

    fn is_occupied(&self, slot: u64) -> bool {
        self.occupied
            .get((slot / 64) as usize)
            .is_some_and(|word| word & (1 << (slot % 64)) != 0)
    }

    fn set_occupied(&mut self, slot: u64, occupied: bool) {
        let (word, bit) = (&mut self.occupied[(slot / 64) as usize], 1 << (slot % 64));
        if occupied {
            *word |= bit;
        } else {
            *word &= !bit;
        }
    }

    /// Copies the block at an occupied slot into `out`.
    fn read_into(&self, slot: u64, out: &mut SealedBlock) {
        let start = slot as usize * self.record_len;
        let record = &self.records[start..start + self.record_len];
        let word = |i: usize| u64::from_le_bytes(record[i..i + 8].try_into().expect("8 bytes"));
        out.assign(word(0), word(8), &record[RECORD_HEADER..], word(16));
    }
}

impl DataStore for BlockStore {
    fn get(&mut self, addr: u64, out: &mut SealedBlock) -> Result<bool, StorageError> {
        let occupied = self.is_occupied(addr);
        if occupied {
            self.read_into(addr, out);
        }
        Ok(occupied)
    }

    fn put(&mut self, addr: u64, block: &SealedBlock) -> Result<(), StorageError> {
        if self.record_len == 0 {
            self.record_len = RECORD_HEADER + block.len();
        }
        let len = self.record_len;
        if RECORD_HEADER + block.len() != len {
            return Err(StorageError::RecordLength {
                addr,
                expected: len - RECORD_HEADER,
                got: block.len(),
            });
        }
        let end = usize::try_from(addr)
            .ok()
            .and_then(|slot| slot.checked_add(1)?.checked_mul(len))
            .ok_or_else(|| StorageError::OutOfCapacity {
                device: "memory arena".into(),
                addr,
                capacity: (usize::MAX / len) as u64,
            })?;
        if end > self.records.len() {
            self.records.resize(end, 0);
            self.occupied.resize((addr / 64 + 1) as usize, 0);
        }
        if !self.is_occupied(addr) {
            self.set_occupied(addr, true);
            self.len += 1;
        }
        let record = &mut self.records[end - len..end];
        record[..8].copy_from_slice(&block.block_id().to_le_bytes());
        record[8..16].copy_from_slice(&block.epoch().to_le_bytes());
        record[16..24].copy_from_slice(&block.tag().to_le_bytes());
        record[RECORD_HEADER..].copy_from_slice(block.ciphertext());
        Ok(())
    }

    fn remove(&mut self, addr: u64) -> Result<Option<SealedBlock>, StorageError> {
        if !self.is_occupied(addr) {
            return Ok(None);
        }
        let mut block = SealedBlock::default();
        self.read_into(addr, &mut block);
        self.set_occupied(addr, false);
        self.len -= 1;
        Ok(Some(block))
    }

    fn len(&self) -> usize {
        self.len
    }

    fn clear(&mut self) -> Result<(), StorageError> {
        self.occupied.fill(0);
        self.len = 0;
        Ok(())
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        Ok(())
    }

    fn durable(&self) -> bool {
        false
    }

    fn snapshot_blocks(&mut self) -> Result<Vec<(u64, SealedBlock)>, StorageError> {
        let mut blocks = Vec::with_capacity(self.len);
        for slot in (0..self.slots()).filter(|&slot| self.is_occupied(slot)) {
            let mut block = SealedBlock::default();
            self.read_into(slot, &mut block);
            blocks.push((slot, block));
        }
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

    fn get(store: &mut BlockStore, addr: u64) -> Option<SealedBlock> {
        let mut out = SealedBlock::default();
        store.get(addr, &mut out).unwrap().then_some(out)
    }

    #[test]
    fn put_get_remove_roundtrip() {
        let mut store = BlockStore::new();
        assert!(store.is_empty());
        store.put(5, &sealed(5)).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(get(&mut store, 5), Some(sealed(5)));
        assert_eq!(get(&mut store, 4), None, "a slot below is empty");
        assert_eq!(store.remove(5).unwrap(), Some(sealed(5)));
        assert!(store.is_empty());
        assert_eq!(get(&mut store, 5), None, "removed slots read empty");
        assert_eq!(store.remove(5).unwrap(), None);
    }

    #[test]
    fn put_replaces() {
        let mut store = BlockStore::new();
        store.put(1, &sealed(10)).unwrap();
        store.put(1, &sealed(20)).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(get(&mut store, 1), Some(sealed(20)));
    }

    /// The arena spans slot 0 to the highest slot written — whatever the
    /// order of the writes, and across a clear — and holds one record
    /// length: a body of another length is a typed error that changes
    /// nothing.
    #[test]
    fn the_arena_follows_the_highest_slot_and_holds_one_record_length() {
        let mut store = BlockStore::new();
        assert_eq!(store.slots(), 0);
        assert_eq!(get(&mut store, 0), None);
        store.put(9, &sealed(9)).unwrap();
        assert_eq!(store.slots(), 10);
        store.put(3, &sealed(3)).unwrap();
        assert_eq!(store.slots(), 10);
        store.put(200, &sealed(200)).unwrap();
        assert_eq!(store.slots(), 201);
        store.clear().unwrap();
        assert_eq!((store.len(), store.slots()), (0, 201));

        store.put(7, &sealed(7)).unwrap();
        let longer = BlockSealer::new(&MasterKey::from_bytes([0u8; 32]).derive("store", 0))
            .seal(7, 1, &[0u8; 9]);
        assert_eq!(
            store.put(7, &longer),
            Err(StorageError::RecordLength {
                addr: 7,
                expected: 8,
                got: 9
            })
        );
        assert_eq!(get(&mut store, 7), Some(sealed(7)));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn snapshot_is_ascending_and_installs_back() {
        let mut store = BlockStore::new();
        for a in [6, 0, 3, 64, 65] {
            store.put(a, &sealed(a)).unwrap();
        }
        let blocks = store.snapshot_blocks().unwrap();
        let addrs: Vec<u64> = blocks.iter().map(|(a, _)| *a).collect();
        assert_eq!(addrs, [0, 3, 6, 64, 65]);
        assert!(blocks.iter().all(|(a, b)| *b == sealed(*a)));
        let mut copy = BlockStore::new();
        copy.install_blocks(blocks.clone()).unwrap();
        assert_eq!(copy.snapshot_blocks().unwrap(), blocks);
    }

    #[test]
    fn clear_empties() {
        let mut store = BlockStore::new();
        store.put(3, &sealed(3)).unwrap();
        store.clear().unwrap();
        assert!(store.is_empty());
        assert_eq!(get(&mut store, 3), None);
    }
}
