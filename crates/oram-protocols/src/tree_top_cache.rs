//! Tree-top-cache Path ORAM — the paper's baseline (§3.1, Figure 3-1a).
//!
//! When the ORAM dataset outgrows main memory, the straightforward design
//! (used e.g. by ZeroTrace) keeps the *top* levels of the Path ORAM tree in
//! memory and extends the *bottom* levels onto storage. Every path access
//! then decomposes into several fast memory bucket accesses plus several
//! slow I/O bucket accesses — and because the deep levels hold most of the
//! tree, the I/O portion cannot be avoided or cached. This is precisely the
//! inefficiency H-ORAM attacks.
//!
//! The implementation reuses [`PathOramCore`] over a [`SplitBackend`] whose
//! boundary is the largest whole number of tree levels fitting the memory
//! budget. For the paper's Table 5-1 parameters (1 GB data, 128 MB memory,
//! 1 KB blocks, Z=4) this yields 15 in-memory levels and 4 storage levels:
//! `Z·4 = 16 KB` read + 16 KB written per access on the I/O bus, matching
//! the paper's stated access overhead.

use crate::backend::SplitBackend;
use crate::bucket_tree::TreeGeometry;
use crate::error::OramError;
use crate::path_oram::{PathOramConfig, PathOramCore};
use oram_crypto::keys::SubKeys;
use oram_storage::device::Device;

/// Path ORAM with the tree split across memory and storage.
pub type TreeTopCachePathOram = PathOramCore<SplitBackend>;

/// Sizing computed for a tree-top-cache instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeTopSplit {
    /// Total tree depth (bucket levels).
    pub depth: u32,
    /// Number of top levels resident in memory.
    pub memory_levels: u32,
    /// Number of bottom levels on storage.
    pub storage_levels: u32,
    /// First slot address on the storage device.
    pub boundary_addr: u64,
    /// Storage-resident buckets touched per access (reads; writes equal).
    pub io_buckets_per_access: u32,
}

impl TreeTopSplit {
    /// Computes the split for `capacity` real blocks with a memory budget
    /// of `memory_slots` block slots.
    ///
    /// # Panics
    ///
    /// Panics if the memory budget cannot hold even the root bucket.
    pub fn compute(capacity: u64, memory_slots: u64, z: u32) -> Self {
        let geometry = TreeGeometry::for_capacity(capacity, z);
        let depth = geometry.depth();
        // Largest k with (2^k − 1)·Z ≤ memory_slots, capped at the depth.
        let mut memory_levels = 0u32;
        while memory_levels < depth
            && ((1u64 << (memory_levels + 1)) - 1) * z as u64 <= memory_slots
        {
            memory_levels += 1;
        }
        assert!(
            memory_levels > 0,
            "memory budget smaller than the root bucket"
        );
        let boundary_buckets = (1u64 << memory_levels) - 1;
        TreeTopSplit {
            depth,
            memory_levels,
            storage_levels: depth - memory_levels,
            boundary_addr: boundary_buckets * z as u64,
            io_buckets_per_access: depth - memory_levels,
        }
    }
}

/// Builds the paper's baseline: a full dataset in a split tree.
///
/// `memory_slots` is the in-memory budget in block slots (e.g. 128 MB of
/// 1 KB blocks → 131 072 slots). The returned ORAM starts zero-initialized;
/// call [`PathOramCore::bulk_load`] to install a dataset.
///
/// # Errors
///
/// Propagates storage errors from writing the initial tree image.
pub fn build_tree_top_cache(
    config: PathOramConfig,
    memory_slots: u64,
    memory_device: Device,
    storage_device: Device,
    keys: &SubKeys,
) -> Result<(TreeTopCachePathOram, TreeTopSplit), OramError> {
    let split = TreeTopSplit::compute(config.capacity, memory_slots, config.z);
    let geometry = TreeGeometry::for_capacity(config.capacity, config.z);
    let backend = SplitBackend::new(memory_device, storage_device, split.boundary_addr);
    let oram = PathOramCore::with_geometry(config, geometry, backend, keys)?;
    Ok((oram, split))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::TreeBackend;
    use crate::oram_trait::Oram;
    use crate::types::BlockId;
    use oram_crypto::keys::MasterKey;
    use oram_crypto::rng::DeterministicRng;
    use oram_storage::calibration::MachineConfig;
    use oram_storage::clock::SimClock;
    use rand::Rng;

    fn keys() -> SubKeys {
        MasterKey::from_bytes([3u8; 32]).derive("ttc-test", 0)
    }

    fn build(capacity: u64, memory_slots: u64) -> (TreeTopCachePathOram, TreeTopSplit) {
        let config = MachineConfig::dac2019();
        let clock = SimClock::new();
        build_tree_top_cache(
            PathOramConfig::new(capacity, 8),
            memory_slots,
            config.build_memory(clock.clone(), None),
            config.build_storage(clock, None),
            &keys(),
        )
        .unwrap()
    }

    #[test]
    fn paper_table_5_1_split() {
        // 1 GB data = 2^20 blocks of 1 KB; 128 MB memory = 131 072 slots.
        let split = TreeTopSplit::compute(1 << 20, 131_072, 4);
        assert_eq!(split.depth, 19);
        assert_eq!(split.memory_levels, 15);
        assert_eq!(split.storage_levels, 4);
        // 4 buckets × Z=4 blocks × 1 KB = 16 KB per direction (Table 5-1).
        assert_eq!(split.io_buckets_per_access * 4, 16);
    }

    #[test]
    fn small_split_reads_and_writes_correctly() {
        let (mut oram, split) = build(256, 64);
        assert!(
            split.storage_levels > 0,
            "test should exercise both regions"
        );
        for i in 0..32u64 {
            oram.write(BlockId(i), &[i as u8; 8]).unwrap();
        }
        for i in 0..32u64 {
            assert_eq!(oram.read(BlockId(i)).unwrap(), vec![i as u8; 8]);
        }
    }

    #[test]
    fn io_bucket_count_matches_split() {
        let (mut oram, split) = build(256, 64);
        let (_, storage_before) = oram.tree().backend().stats();
        oram.read(BlockId(0)).unwrap();
        let (_, storage_after) = oram.tree().backend().stats();
        let io_reads = storage_after.reads - storage_before.reads;
        let io_writes = storage_after.writes - storage_before.writes;
        assert_eq!(io_reads, (split.io_buckets_per_access * 4) as u64);
        assert_eq!(io_writes, (split.io_buckets_per_access * 4) as u64);
    }

    #[test]
    fn storage_time_dominates_access_receipts() {
        let (mut oram, _) = build(256, 64);
        let (_, receipt) = oram.access_read(BlockId(1)).unwrap();
        assert!(receipt.storage.as_nanos() > 10 * receipt.memory.as_nanos());
    }

    #[test]
    fn stash_bounded_with_split_backend() {
        let (mut oram, _) = build(128, 32);
        let mut rng = DeterministicRng::from_u64_seed(5);
        for _ in 0..800 {
            let id = BlockId(rng.gen_range(0..128));
            if rng.gen_bool(0.3) {
                oram.write(id, &[1; 8]).unwrap();
            } else {
                oram.read(id).unwrap();
            }
        }
        assert!(
            oram.tree().stash_peak() < 40,
            "stash peak {}",
            oram.tree().stash_peak()
        );
    }

    #[test]
    fn bulk_load_spans_both_devices() {
        let (mut oram, _) = build(256, 64);
        oram.bulk_load((0..256u64).map(|i| (BlockId(i), vec![i as u8; 8])))
            .unwrap();
        for i in [0u64, 63, 128, 255] {
            assert_eq!(oram.read(BlockId(i)).unwrap(), vec![i as u8; 8]);
        }
    }

    #[test]
    #[should_panic(expected = "smaller than the root bucket")]
    fn tiny_memory_budget_panics() {
        TreeTopSplit::compute(256, 2, 4);
    }
}
