//! The permutation list: H-ORAM's storage-side position map.
//!
//! Paper §4.1: "the permutation list records: 1) a Boolean bit representing
//! whether a block is loaded into memory already, 2) its file address if in
//! storage (or the position map id if in memory)." This module implements
//! exactly that table: per logical block, either the storage slot holding
//! its current sealed copy, or a marker that the block is resident in the
//! in-memory Path ORAM (whose own position map takes over from there).
//!
//! The list lives in the trusted control layer; lookups generate no
//! observable accesses.

use oram_protocols::types::BlockId;

/// Where a logical block currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Location {
    /// In the storage layer, at the given physical slot.
    Storage {
        /// Physical slot address on the storage device.
        slot: u64,
    },
    /// Resident in the in-memory Path ORAM (tree or its stash).
    Memory,
}

/// The per-block location table.
#[derive(Debug, Clone)]
pub struct PermutationList {
    locations: Vec<Location>,
    in_memory: u64,
}

impl PermutationList {
    /// Creates a list with every block provisionally at storage slot 0;
    /// callers install the real layout via [`set_storage_slot`]
    /// (storage-layer construction does this for every block).
    ///
    /// [`set_storage_slot`]: Self::set_storage_slot
    pub fn new(capacity: u64) -> Self {
        Self {
            locations: vec![Location::Storage { slot: 0 }; capacity as usize],
            in_memory: 0,
        }
    }

    /// Number of blocks tracked.
    pub fn capacity(&self) -> u64 {
        self.locations.len() as u64
    }

    /// Number of blocks currently marked in-memory.
    pub fn in_memory_count(&self) -> u64 {
        self.in_memory
    }

    /// The current location of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range (callers validate first).
    pub fn location(&self, id: BlockId) -> Location {
        self.locations[id.0 as usize]
    }

    /// Records that `id` now lives at storage `slot`.
    pub fn set_storage_slot(&mut self, id: BlockId, slot: u64) {
        if matches!(self.locations[id.0 as usize], Location::Memory) {
            self.in_memory -= 1;
        }
        self.locations[id.0 as usize] = Location::Storage { slot };
    }

    /// Records that `id` migrated into the memory layer.
    pub fn set_in_memory(&mut self, id: BlockId) {
        if !matches!(self.locations[id.0 as usize], Location::Memory) {
            self.in_memory += 1;
        }
        self.locations[id.0 as usize] = Location::Memory;
    }

    /// In-enclave footprint in bytes (control-layer budget reporting).
    pub fn memory_bytes(&self) -> usize {
        self.locations.len() * std::mem::size_of::<Location>()
    }

    /// Serializes the table (snapshot support): one entry per block,
    /// `Memory` encoded as an absent slot.
    pub fn save_state(&self, w: &mut oram_crypto::persist::StateWriter) {
        w.put_usize(self.locations.len());
        for location in &self.locations {
            match location {
                Location::Memory => w.put_opt_u64(None),
                Location::Storage { slot } => w.put_opt_u64(Some(*slot)),
            }
        }
    }

    /// Restores a table serialized by [`save_state`](Self::save_state).
    ///
    /// # Errors
    ///
    /// [`oram_crypto::persist::PersistError`] on length mismatch or
    /// malformed entries.
    pub fn load_state(
        &mut self,
        r: &mut oram_crypto::persist::StateReader<'_>,
    ) -> Result<(), oram_crypto::persist::PersistError> {
        let len = r.get_usize()?;
        if len != self.locations.len() {
            return Err(oram_crypto::persist::PersistError::Malformed(format!(
                "permutation list of {len} entries for capacity {}",
                self.locations.len()
            )));
        }
        let mut locations = Vec::with_capacity(len);
        let mut in_memory = 0;
        for _ in 0..len {
            locations.push(match r.get_opt_u64()? {
                None => {
                    in_memory += 1;
                    Location::Memory
                }
                Some(slot) => Location::Storage { slot },
            });
        }
        self.locations = locations;
        self.in_memory = in_memory;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_migrations_and_counts() {
        let mut list = PermutationList::new(4);
        assert_eq!(list.in_memory_count(), 0);
        list.set_storage_slot(BlockId(0), 42);
        assert_eq!(list.location(BlockId(0)), Location::Storage { slot: 42 });

        list.set_in_memory(BlockId(0));
        assert_eq!(list.location(BlockId(0)), Location::Memory);
        assert_eq!(list.in_memory_count(), 1);

        // Idempotent in-memory marking.
        list.set_in_memory(BlockId(0));
        assert_eq!(list.in_memory_count(), 1);

        // Back to storage after a shuffle.
        list.set_storage_slot(BlockId(0), 7);
        assert_eq!(list.in_memory_count(), 0);
        assert_eq!(list.location(BlockId(0)), Location::Storage { slot: 7 });
    }

    #[test]
    #[should_panic]
    fn out_of_range_panics() {
        PermutationList::new(2).location(BlockId(2));
    }

    #[test]
    fn footprint_reported() {
        assert!(PermutationList::new(1000).memory_bytes() >= 1000);
    }
}
