//! Oblivious tree evict (paper §4.3.1).
//!
//! When an access period ends, the in-memory Path ORAM tree must return
//! its resident blocks to storage without revealing which tree slots held
//! real data. The paper's procedure, implemented here:
//!
//! 1. read **every** slot of the tree (real and dummy) into a temporary
//!    buffer — one streaming memory pass;
//! 2. run an **oblivious shuffle** over that buffer — a bitonic network,
//!    whose touch sequence is data-independent, so the adversary learns
//!    nothing;
//! 3. scan the shuffled buffer and drop the dummies — positions of
//!    survivors are now uncorrelated with their tree positions.
//!
//! The shuffled order also determines which storage partition each block
//! joins (piece `i` of the output concatenates with partition `i`,
//! §4.3.2), so the shuffle's uniformity doubles as the randomizer of the
//! group+partition shuffle.

use oram_protocols::path_oram::PathOram;
use oram_protocols::types::BlockId;
use oram_protocols::OramError;
use oram_shuffle::BitonicShuffle;
use oram_storage::clock::SimDuration;
use oram_storage::device::AccessKind;

/// Outcome of one oblivious tree evict.
#[derive(Debug)]
pub struct EvictOutcome {
    /// The evicted real blocks, in obliviously shuffled order.
    pub blocks: Vec<(BlockId, Vec<u8>)>,
    /// Memory-device time: streaming tree read + shuffle touches.
    pub memory_time: SimDuration,
    /// Number of buffer slots the shuffle touched (observable work).
    pub shuffle_touches: u64,
}

/// Runs the oblivious evict against the memory-layer Path ORAM.
///
/// The tree is left torn down; the caller rebuilds it with
/// [`PathOram::rebuild_empty`] after the storage shuffle completes.
///
/// # Errors
///
/// Storage/crypto errors from the tree read propagate.
pub fn oblivious_tree_evict(memory: &mut PathOram, seed: u64) -> Result<EvictOutcome, OramError> {
    let total_slots = memory.geometry().total_slots();
    let (blocks, receipt) = memory.evict_all()?;

    // Reconstitute the buffer the paper shuffles: every tree slot, real or
    // dummy. (evict_all returns the decrypt of the same streamed read.)
    // The buffer must cover *every* resident block, not just the tree
    // image: with a tiny tree the stash can hold spill beyond the slot
    // count at period end, and sizing the buffer to `total_slots` alone
    // would silently drop those blocks (the position map would keep
    // claiming them memory-resident — permanent data loss). Pad to at
    // least the tree image; in healthy configurations (period budget ≤
    // tree slots) the length is exactly `total_slots` and behaviour is
    // unchanged. When spill does push the buffer longer, the extra
    // touches reveal only the stash-spill count, which the stash bound
    // already caps.
    let mut buffer: Vec<Option<(BlockId, Vec<u8>)>> = blocks.into_iter().map(Some).collect();
    let buffer_len = buffer.len().max(total_slots as usize);
    buffer.resize_with(buffer_len, || None);

    let touches = BitonicShuffle::new().shuffle(&mut buffer, seed);

    // The buffer lives in (untrusted) memory during the shuffle: charge its
    // touches to the memory device as one streaming transfer.
    let block_bytes = memory.device().charged_block_bytes();
    let shuffle_cost =
        memory
            .device_mut()
            .charge(AccessKind::Read, 0, touches.max(1) * block_bytes);

    let survivors: Vec<(BlockId, Vec<u8>)> = buffer.into_iter().flatten().collect();
    Ok(EvictOutcome {
        blocks: survivors,
        memory_time: receipt.memory + shuffle_cost,
        shuffle_touches: touches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use oram_crypto::keys::MasterKey;
    use oram_protocols::path_oram::PathOram;
    use oram_protocols::Oram;
    use oram_storage::calibration::MachineConfig;
    use oram_storage::clock::SimClock;
    use std::collections::HashSet;

    fn memory_oram() -> PathOram {
        let device = MachineConfig::dac2019().build_memory(SimClock::new(), None);
        let keys = MasterKey::from_bytes([6; 32]).derive("evict-test", 0);
        PathOram::for_slot_budget(256, Some(1 << 16), 8, device, &keys, 3).unwrap()
    }

    fn populate(oram: &mut PathOram, ids: &[u64]) {
        for &id in ids {
            oram.insert_block(BlockId(id), vec![id as u8; 8]).unwrap();
        }
        // Drive a few accesses so blocks migrate from stash into the tree.
        for &id in ids.iter().take(4) {
            oram.read(BlockId(id)).unwrap();
        }
    }

    #[test]
    fn evict_returns_every_resident_block() {
        let mut oram = memory_oram();
        let ids: Vec<u64> = (0..40).map(|i| i * 31 % 1000).collect();
        populate(&mut oram, &ids);
        let outcome = oblivious_tree_evict(&mut oram, 1).unwrap();
        let got: HashSet<u64> = outcome.blocks.iter().map(|(id, _)| id.0).collect();
        let want: HashSet<u64> = ids.iter().copied().collect();
        assert_eq!(got, want);
        for (id, payload) in &outcome.blocks {
            assert_eq!(payload, &vec![id.0 as u8; 8], "payload of {id}");
        }
    }

    #[test]
    fn evict_is_lossless_when_residents_exceed_tree_slots() {
        // A one-bucket tree (slot budget 10 → 4 slots at z = 4) whose
        // stash holds more blocks than the tree has slots: the evict
        // buffer must grow past the tree image rather than truncate.
        let device = MachineConfig::dac2019().build_memory(SimClock::new(), None);
        let keys = MasterKey::from_bytes([6; 32]).derive("evict-test", 0);
        let mut oram = PathOram::for_slot_budget(10, Some(64), 8, device, &keys, 3).unwrap();
        assert!(
            oram.geometry().total_slots() < 6,
            "fixture needs a tiny tree"
        );
        for id in 0..6u64 {
            oram.insert_block(BlockId(id), vec![id as u8; 8]).unwrap();
        }
        let outcome = oblivious_tree_evict(&mut oram, 11).unwrap();
        let got: HashSet<u64> = outcome.blocks.iter().map(|(id, _)| id.0).collect();
        assert_eq!(got, (0..6).collect::<HashSet<u64>>());
    }

    #[test]
    fn evict_order_is_shuffled() {
        let mut oram = memory_oram();
        let ids: Vec<u64> = (0..64).collect();
        populate(&mut oram, &ids);
        let outcome = oblivious_tree_evict(&mut oram, 42).unwrap();
        let order: Vec<u64> = outcome.blocks.iter().map(|(id, _)| id.0).collect();
        assert_ne!(order, ids, "order should not be the insertion order");
    }

    #[test]
    fn different_seeds_give_different_orders() {
        let mk = |seed| {
            let mut oram = memory_oram();
            populate(&mut oram, &(0..64).collect::<Vec<_>>());
            oblivious_tree_evict(&mut oram, seed)
                .unwrap()
                .blocks
                .iter()
                .map(|(id, _)| id.0)
                .collect::<Vec<_>>()
        };
        assert_ne!(mk(1), mk(2));
    }

    #[test]
    fn shuffle_work_is_size_dependent_not_content_dependent() {
        // Same tree size, different resident sets: identical touch counts.
        let mut a = memory_oram();
        populate(&mut a, &[1, 2, 3]);
        let mut b = memory_oram();
        populate(&mut b, &(100..160).collect::<Vec<_>>());
        let oa = oblivious_tree_evict(&mut a, 5).unwrap();
        let ob = oblivious_tree_evict(&mut b, 9).unwrap();
        assert_eq!(oa.shuffle_touches, ob.shuffle_touches);
    }

    #[test]
    fn evict_charges_memory_time() {
        let mut oram = memory_oram();
        populate(&mut oram, &[1, 2, 3, 4, 5]);
        let outcome = oblivious_tree_evict(&mut oram, 7).unwrap();
        assert!(outcome.memory_time > SimDuration::ZERO);
    }

    #[test]
    fn tree_is_reusable_after_rebuild() {
        let mut oram = memory_oram();
        populate(&mut oram, &[1, 2, 3]);
        oblivious_tree_evict(&mut oram, 3).unwrap();
        oram.rebuild_empty().unwrap();
        oram.insert_block(BlockId(9), vec![9; 8]).unwrap();
        assert_eq!(oram.read(BlockId(9)).unwrap(), vec![9; 8]);
    }
}
