//! The position map: logical block → current position tag.
//!
//! For Path ORAM the tag is the block's current leaf. The map lives inside
//! the trusted control layer (the paper reserves 4 MB for it in Figure
//! 4-1), so lookups cost no observable accesses.

use crate::types::BlockId;

/// A dense logical-id → tag map with lazy assignment.
#[derive(Debug, Clone)]
pub struct PositionMap {
    tags: Vec<Option<u64>>,
    assigned: usize,
}

impl PositionMap {
    /// Creates an unassigned map for `capacity` blocks.
    pub fn new(capacity: u64) -> Self {
        Self {
            tags: vec![None; capacity as usize],
            assigned: 0,
        }
    }

    /// Number of blocks with an assigned tag.
    pub fn assigned(&self) -> usize {
        self.assigned
    }

    /// The tag of `id`, if assigned.
    ///
    /// # Panics
    ///
    /// Panics if `id` is beyond capacity (callers validate range first).
    pub fn get(&self, id: BlockId) -> Option<u64> {
        self.tags[id.0 as usize]
    }

    /// Sets the tag of `id`, returning the previous tag.
    pub fn set(&mut self, id: BlockId, tag: u64) -> Option<u64> {
        let slot = &mut self.tags[id.0 as usize];
        let prev = slot.replace(tag);
        if prev.is_none() {
            self.assigned += 1;
        }
        prev
    }

    /// Drops all assignments (tree teardown between H-ORAM periods).
    pub fn clear_all(&mut self) {
        self.tags.iter_mut().for_each(|t| *t = None);
        self.assigned = 0;
    }

    /// The assigned `(id, tag)` pairs in id order (snapshot serialization;
    /// sparse on purpose — most H-ORAM memory-layer maps are mostly
    /// unassigned between periods).
    pub fn assigned_entries(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.tags
            .iter()
            .enumerate()
            .filter_map(|(id, tag)| tag.map(|t| (id as u64, t)))
    }

    /// Replaces all assignments with the given `(id, tag)` pairs
    /// (snapshot restore).
    ///
    /// # Panics
    ///
    /// Panics if any id is beyond capacity.
    pub fn restore(&mut self, entries: impl IntoIterator<Item = (u64, u64)>) {
        self.clear_all();
        for (id, tag) in entries {
            self.set(BlockId(id), tag);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_unassigned() {
        let map = PositionMap::new(10);
        assert_eq!(map.assigned(), 0);
        assert_eq!(map.get(BlockId(3)), None);
    }

    #[test]
    fn set_and_get() {
        let mut map = PositionMap::new(4);
        assert_eq!(map.set(BlockId(1), 99), None);
        assert_eq!(map.get(BlockId(1)), Some(99));
        assert_eq!(map.set(BlockId(1), 7), Some(99));
        assert_eq!(map.assigned(), 1);
    }

    #[test]
    fn clear_all_drops_every_assignment() {
        let mut map = PositionMap::new(4);
        map.set(BlockId(0), 1);
        map.set(BlockId(1), 2);
        map.clear_all();
        assert_eq!(map.assigned(), 0);
        assert_eq!(map.get(BlockId(1)), None);
    }

    #[test]
    #[should_panic]
    fn out_of_range_panics() {
        PositionMap::new(2).get(BlockId(2));
    }
}
