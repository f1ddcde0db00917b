//! The stash: trusted overflow buffer for in-flight blocks.
//!
//! Blocks decrypted from a path live here until they are written back along
//! a later path. The stash lives in the trusted control layer; its
//! *occupancy* must stay bounded (Path ORAM's main theorem), which
//! [`Stash::insert`] enforces and tests assert.

use crate::error::OramError;
use crate::types::BlockId;

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

/// A bounded, id-indexed stash: a flat vector kept sorted by block id,
/// so every walk over it is in block-id order.
#[derive(Debug, Clone)]
pub struct Stash {
    entries: Vec<StashEntry>,
    limit: usize,
    peak: usize,
}

impl Stash {
    /// Creates a stash bounded at `limit` entries.
    pub fn new(limit: usize) -> Self {
        Self {
            entries: Vec::new(),
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

    /// Where `id` sits, or where it would be inserted.
    fn position(&self, id: BlockId) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&id, |e| e.id)
    }

    /// Whether `id` is present.
    pub fn contains(&self, id: BlockId) -> bool {
        self.position(id).is_ok()
    }

    /// Mutable view of the entry for `id` (payload updates, leaf remaps).
    pub fn get_mut(&mut self, id: BlockId) -> Option<&mut StashEntry> {
        let index = self.position(id).ok()?;
        Some(&mut self.entries[index])
    }

    /// Removes and returns the entry for `id`.
    pub fn remove(&mut self, id: BlockId) -> Option<StashEntry> {
        let index = self.position(id).ok()?;
        Some(self.entries.remove(index))
    }

    /// Inserts or replaces an entry.
    ///
    /// # Errors
    ///
    /// Returns [`OramError::StashOverflow`] if a *new* entry would exceed
    /// the bound (replacement never grows the stash).
    pub fn insert(&mut self, entry: StashEntry) -> Result<(), OramError> {
        match self.position(entry.id) {
            Ok(index) => self.entries[index] = entry,
            Err(_) if self.entries.len() >= self.limit => {
                return Err(OramError::StashOverflow { limit: self.limit })
            }
            Err(index) => self.entries.insert(index, entry),
        }
        self.peak = self.peak.max(self.entries.len());
        Ok(())
    }

    /// Removes up to `max` entries satisfying `pred`, returning them in
    /// block-id order.
    ///
    /// This is the write-back selector: Path ORAM calls it per bucket with
    /// a path-compatibility predicate.
    pub fn take_matching(
        &mut self,
        max: usize,
        mut pred: impl FnMut(&StashEntry) -> bool,
    ) -> Vec<StashEntry> {
        let mut taken = 0;
        self.entries
            .extract_if(.., |entry| {
                let take = taken < max && pred(entry);
                taken += usize::from(take);
                take
            })
            .collect()
    }

    /// Replaces the stash contents and peak watermark (snapshot restore);
    /// of two entries with one id, the later wins.
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
        self.entries.clear();
        for entry in entries {
            self.insert(entry).expect("within the bound checked above");
        }
        self.peak = peak.max(self.entries.len());
    }

    /// Removes and returns all entries, ordered by block id.
    pub fn drain_all(&mut self) -> Vec<StashEntry> {
        std::mem::take(&mut self.entries)
    }

    /// Iterates over entries in block-id order (deterministic iteration is
    /// what keeps whole simulation runs replayable).
    pub fn iter(&self) -> impl Iterator<Item = &StashEntry> {
        self.entries.iter()
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
    fn walks_are_in_id_order_whatever_the_insert_order() {
        let mut stash = Stash::new(10);
        for id in [5, 1, 9, 3] {
            stash.insert(entry(id, id % 2)).unwrap();
        }
        let ids = |entries: Vec<StashEntry>| entries.iter().map(|e| e.id.0).collect::<Vec<_>>();
        assert_eq!(ids(stash.take_matching(2, |e| e.leaf == 1)), [1, 3]);
        stash.restore(vec![entry(7, 0), entry(2, 0), entry(7, 1)], 0);
        assert_eq!(stash.get_mut(BlockId(7)).unwrap().leaf, 1); // the later one wins
        assert_eq!(ids(stash.drain_all()), [2, 7]);
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
