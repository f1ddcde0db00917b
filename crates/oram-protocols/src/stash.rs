//! The stash: trusted overflow buffer for in-flight blocks.
//!
//! Blocks decrypted from a path live here until they are written back along
//! a later path. The stash lives in the trusted control layer; its
//! *occupancy* must stay bounded (Path ORAM's main theorem), which
//! [`Stash::insert`] enforces and tests assert.

use crate::error::OramError;
use crate::types::BlockId;
use std::collections::BTreeMap;

/// One stash entry: a decrypted block and its current position tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StashEntry {
    /// Logical identifier.
    pub id: BlockId,
    /// Current position tag (leaf for tree protocols).
    pub leaf: u64,
    /// Plaintext payload.
    pub payload: Vec<u8>,
}

/// A bounded, id-indexed stash.
#[derive(Debug, Clone)]
pub struct Stash {
    entries: BTreeMap<BlockId, StashEntry>,
    limit: usize,
    peak: usize,
}

impl Stash {
    /// Creates a stash bounded at `limit` entries.
    pub fn new(limit: usize) -> Self {
        Self {
            entries: BTreeMap::new(),
            limit,
            peak: 0,
        }
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Highest occupancy ever observed (the statistic Path ORAM's security
    /// parameter bounds).
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// The configured bound.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Whether `id` is present.
    pub fn contains(&self, id: BlockId) -> bool {
        self.entries.contains_key(&id)
    }

    /// Mutable view of the entry for `id` (payload updates, leaf remaps).
    pub fn get_mut(&mut self, id: BlockId) -> Option<&mut StashEntry> {
        self.entries.get_mut(&id)
    }

    /// Inserts or replaces an entry.
    ///
    /// # Errors
    ///
    /// Returns [`OramError::StashOverflow`] if a *new* entry would exceed
    /// the bound (replacement never grows the stash).
    pub fn insert(&mut self, entry: StashEntry) -> Result<(), OramError> {
        if !self.entries.contains_key(&entry.id) && self.entries.len() >= self.limit {
            return Err(OramError::StashOverflow { limit: self.limit });
        }
        self.entries.insert(entry.id, entry);
        self.peak = self.peak.max(self.entries.len());
        Ok(())
    }

    /// Removes up to `max` entries satisfying `pred`, returning them.
    ///
    /// This is the write-back selector: Path ORAM calls it per bucket with
    /// a path-compatibility predicate.
    pub fn take_matching(
        &mut self,
        max: usize,
        mut pred: impl FnMut(&StashEntry) -> bool,
    ) -> Vec<StashEntry> {
        let ids: Vec<BlockId> = self
            .entries
            .values()
            .filter(|e| pred(e))
            .take(max)
            .map(|e| e.id)
            .collect();
        ids.into_iter()
            .filter_map(|id| self.entries.remove(&id))
            .collect()
    }

    /// Replaces the stash contents and peak watermark (snapshot restore).
    ///
    /// # Panics
    ///
    /// Panics if `entries` exceeds the configured bound — a snapshot from
    /// a compatible instance cannot (inserts enforced the bound).
    pub fn restore(&mut self, entries: Vec<StashEntry>, peak: usize) {
        assert!(
            entries.len() <= self.limit,
            "restored stash exceeds its bound"
        );
        self.entries = entries.into_iter().map(|e| (e.id, e)).collect();
        self.peak = peak.max(self.entries.len());
    }

    /// Removes and returns all entries, ordered by block id.
    pub fn drain_all(&mut self) -> Vec<StashEntry> {
        std::mem::take(&mut self.entries).into_values().collect()
    }

    /// Iterates over entries in block-id order (deterministic iteration is
    /// what keeps whole simulation runs replayable).
    pub fn iter(&self) -> impl Iterator<Item = &StashEntry> {
        self.entries.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: u64, leaf: u64) -> StashEntry {
        StashEntry {
            id: BlockId(id),
            leaf,
            payload: vec![id as u8],
        }
    }

    #[test]
    fn insert_get_take() {
        let mut stash = Stash::new(10);
        stash.insert(entry(1, 5)).unwrap();
        assert!(stash.contains(BlockId(1)));
        assert_eq!(stash.get_mut(BlockId(1)).unwrap().leaf, 5);
        let removed = stash.take_matching(1, |e| e.id == BlockId(1));
        assert_eq!(removed[0].payload, vec![1]);
        assert_eq!(stash.len(), 0);
    }

    #[test]
    fn replacement_does_not_grow() {
        let mut stash = Stash::new(1);
        stash.insert(entry(1, 5)).unwrap();
        stash.insert(entry(1, 9)).unwrap(); // replace at capacity: fine
        assert_eq!(stash.len(), 1);
        assert_eq!(stash.get_mut(BlockId(1)).unwrap().leaf, 9);
    }

    #[test]
    fn overflow_is_detected() {
        let mut stash = Stash::new(2);
        stash.insert(entry(1, 0)).unwrap();
        stash.insert(entry(2, 0)).unwrap();
        assert_eq!(
            stash.insert(entry(3, 0)),
            Err(OramError::StashOverflow { limit: 2 })
        );
    }

    #[test]
    fn peak_tracks_high_water() {
        let mut stash = Stash::new(10);
        stash.insert(entry(1, 0)).unwrap();
        stash.insert(entry(2, 0)).unwrap();
        stash.take_matching(1, |e| e.id == BlockId(1));
        stash.insert(entry(3, 0)).unwrap();
        assert_eq!(stash.len(), 2);
        assert_eq!(stash.peak(), 2);
    }

    #[test]
    fn take_matching_respects_max_and_pred() {
        let mut stash = Stash::new(10);
        for i in 0..6 {
            stash.insert(entry(i, i % 2)).unwrap();
        }
        let taken = stash.take_matching(2, |e| e.leaf == 0);
        assert_eq!(taken.len(), 2);
        assert!(taken.iter().all(|e| e.leaf == 0));
        assert_eq!(stash.len(), 4);
    }

    #[test]
    fn drain_all_empties() {
        let mut stash = Stash::new(10);
        stash.insert(entry(1, 0)).unwrap();
        stash.insert(entry(2, 0)).unwrap();
        let mut drained = stash.drain_all();
        drained.sort_by_key(|e| e.id);
        assert_eq!(drained.len(), 2);
        assert_eq!(stash.len(), 0);
        assert_eq!(stash.peak(), 2, "peak survives draining");
    }

    #[test]
    fn update_payload_via_get_mut() {
        let mut stash = Stash::new(4);
        stash.insert(entry(1, 3)).unwrap();
        stash.get_mut(BlockId(1)).unwrap().payload = vec![9, 9];
        assert_eq!(stash.get_mut(BlockId(1)).unwrap().payload, vec![9, 9]);
    }
}
