//! Bucket-tree geometry for Path ORAM.
//!
//! A Path ORAM tree of depth `d` has `2^d − 1` buckets of `Z` slots in heap
//! order (node 0 is the root; node `i` has children `2i+1`, `2i+2`); the
//! `2^(d−1)` leaves sit at level `d−1`. Slot `s` of node `n` maps to device
//! slot address `n·Z + s`, so buckets are contiguous on the device — a
//! bucket read is one seek plus `Z` sequential block transfers, matching
//! how the paper's implementation lays buckets out on disk.
//!
//! Sizing follows the paper's §2.1.2: "storing N real blocks requires 2N
//! space" (≈50 % utilization), i.e. the tree is the smallest depth whose
//! slot count is at least `2N` (within one bucket, see
//! [`TreeGeometry::for_capacity`]).

use oram_crypto::rng::DeterministicRng;
use rand::Rng;

/// Immutable shape of a bucket tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeGeometry {
    depth: u32,
    z: u32,
}

impl TreeGeometry {
    /// Creates a geometry of explicit depth and bucket size.
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0`, `depth > 48`, or `z == 0`.
    pub fn new(depth: u32, z: u32) -> Self {
        assert!(depth > 0, "tree depth must be positive");
        assert!(depth <= 48, "tree depth beyond simulation scale");
        assert!(z > 0, "bucket size must be positive");
        Self { depth, z }
    }

    /// Smallest tree storing `real_blocks` at ≈50 % utilization
    /// (slot count ≥ 2·real_blocks − Z, i.e. within one bucket of 2N).
    pub fn for_capacity(real_blocks: u64, z: u32) -> Self {
        assert!(real_blocks > 0, "capacity must be positive");
        let target_slots = 2 * real_blocks;
        let mut depth = 1;
        while Self::new(depth, z).total_slots() + u64::from(z) < target_slots {
            depth += 1;
        }
        Self::new(depth, z)
    }

    /// Largest tree whose slots fit within `slot_budget` (the H-ORAM
    /// memory layer: "the memory can store up to n data blocks").
    ///
    /// # Panics
    ///
    /// Panics if even a depth-1 tree does not fit.
    pub fn for_slot_budget(slot_budget: u64, z: u32) -> Self {
        let mut depth = 1;
        assert!(
            Self::new(1, z).total_slots() <= slot_budget,
            "slot budget {slot_budget} smaller than one bucket"
        );
        while depth < 48 && Self::new(depth + 1, z).total_slots() <= slot_budget {
            depth += 1;
        }
        Self::new(depth, z)
    }

    /// Number of bucket levels (root = level 0 … leaves = level `depth−1`).
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Slots per bucket.
    pub fn z(&self) -> u32 {
        self.z
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> u64 {
        1u64 << (self.depth - 1)
    }

    /// Number of buckets.
    pub fn bucket_count(&self) -> u64 {
        (1u64 << self.depth) - 1
    }

    /// Total block slots.
    pub fn total_slots(&self) -> u64 {
        self.bucket_count() * self.z as u64
    }

    /// Heap index of the bucket holding leaf `leaf`.
    ///
    /// # Panics
    ///
    /// Panics if `leaf >= leaf_count()`.
    pub(crate) fn leaf_node(&self, leaf: u64) -> u64 {
        assert!(leaf < self.leaf_count(), "leaf {leaf} out of range");
        (self.leaf_count() - 1) + leaf
    }

    /// Bucket level of heap node `node` (root = 0).
    pub(crate) fn node_level(&self, node: u64) -> u32 {
        63 - (node + 1).leading_zeros()
    }

    /// Nodes on the path root → leaf, in root-first order.
    pub fn path_nodes(&self, leaf: u64) -> Vec<u64> {
        let mut nodes = Vec::with_capacity(self.depth as usize);
        let mut node = self.leaf_node(leaf);
        loop {
            nodes.push(node);
            if node == 0 {
                break;
            }
            node = (node - 1) / 2;
        }
        nodes.reverse();
        nodes
    }

    /// Whether `node` lies on the root→`leaf` path.
    pub fn node_on_path(&self, node: u64, leaf: u64) -> bool {
        let level = self.node_level(node);
        let leaf1 = self.leaf_node(leaf) + 1;
        (leaf1 >> (self.depth - 1 - level)) == node + 1
    }

    /// Device slot address of `(node, slot)`.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= z`.
    pub fn slot_addr(&self, node: u64, slot: u32) -> u64 {
        assert!(slot < self.z, "slot {slot} out of bucket");
        node * self.z as u64 + slot as u64
    }

    /// A uniformly random leaf.
    pub fn random_leaf(&self, rng: &mut DeterministicRng) -> u64 {
        rng.gen_range(0..self.leaf_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_counts() {
        let g = TreeGeometry::new(3, 4);
        assert_eq!(g.leaf_count(), 4);
        assert_eq!(g.bucket_count(), 7);
        assert_eq!(g.total_slots(), 28);
    }

    #[test]
    fn for_capacity_is_about_2n() {
        // N = 2^20 blocks, Z=4: depth 19 gives 2,097,148 slots ≈ 2N.
        let g = TreeGeometry::for_capacity(1 << 20, 4);
        assert_eq!(g.depth(), 19);
        let slots = g.total_slots();
        let ratio = slots as f64 / (1u64 << 20) as f64;
        assert!((1.9..2.1).contains(&ratio), "slots/N = {ratio}");
    }

    #[test]
    fn for_capacity_small_sizes() {
        for n in [1u64, 2, 3, 5, 10, 100] {
            let g = TreeGeometry::for_capacity(n, 4);
            assert!(
                g.total_slots() + 4 >= 2 * n,
                "n={n}: {} slots",
                g.total_slots()
            );
        }
    }

    #[test]
    fn for_slot_budget_fits() {
        // 8 MB of 1 KB blocks = 8192 slots, Z=4: depth 11 = 2047 buckets =
        // 8188 slots.
        let g = TreeGeometry::for_slot_budget(8192, 4);
        assert_eq!(g.depth(), 11);
        assert!(g.total_slots() <= 8192);
        // The next depth would not fit.
        assert!(TreeGeometry::new(g.depth() + 1, 4).total_slots() > 8192);
    }

    #[test]
    #[should_panic(expected = "smaller than one bucket")]
    fn slot_budget_below_bucket_panics() {
        TreeGeometry::for_slot_budget(3, 4);
    }

    #[test]
    fn path_walks_root_to_leaf() {
        let g = TreeGeometry::new(3, 1);
        // Leaves are nodes 3,4,5,6.
        assert_eq!(g.path_nodes(0), vec![0, 1, 3]);
        assert_eq!(g.path_nodes(1), vec![0, 1, 4]);
        assert_eq!(g.path_nodes(2), vec![0, 2, 5]);
        assert_eq!(g.path_nodes(3), vec![0, 2, 6]);
    }

    #[test]
    fn node_on_path_matches_path_nodes() {
        let g = TreeGeometry::new(5, 4);
        for leaf in 0..g.leaf_count() {
            let path = g.path_nodes(leaf);
            for node in 0..g.bucket_count() {
                assert_eq!(
                    g.node_on_path(node, leaf),
                    path.contains(&node),
                    "node {node} leaf {leaf}"
                );
            }
        }
    }

    #[test]
    fn node_levels() {
        let g = TreeGeometry::new(3, 4);
        assert_eq!(g.node_level(0), 0);
        assert_eq!(g.node_level(1), 1);
        assert_eq!(g.node_level(2), 1);
        assert_eq!(g.node_level(3), 2);
        assert_eq!(g.node_level(6), 2);
    }

    #[test]
    fn slot_addresses_are_contiguous_per_bucket() {
        let g = TreeGeometry::new(4, 4);
        assert_eq!(g.slot_addr(2, 0), 8);
        assert_eq!(g.slot_addr(2, 3), 11);
        assert_eq!(g.slot_addr(3, 0), 12);
    }

    #[test]
    fn random_leaf_in_range_and_covers() {
        let g = TreeGeometry::new(4, 4);
        let mut rng = DeterministicRng::from_u64_seed(1);
        let mut seen = vec![false; g.leaf_count() as usize];
        for _ in 0..500 {
            let leaf = g.random_leaf(&mut rng);
            seen[leaf as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "some leaf never drawn");
    }

    #[test]
    #[should_panic(expected = "leaf 4 out of range")]
    fn leaf_out_of_range_panics() {
        TreeGeometry::new(3, 4).leaf_node(4);
    }
}
