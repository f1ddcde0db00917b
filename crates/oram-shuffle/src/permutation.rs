//! Explicit permutations: the intra-partition placement of the shuffle
//! epoch.
//!
//! Each partition rebuild draws a fresh [`Permutation`] in trusted memory
//! and [`scatter`](Permutation::scatter)s the pass's live and hot blocks
//! through it; the PRP in `oram-crypto` provides the implicit (computed)
//! variant for huge domains.

use oram_crypto::rng::DeterministicRng;
use rand::Rng;

/// An explicit permutation `π` of `{0, …, n−1}` with O(1) forward lookups.
///
/// # Example
///
/// ```
/// use oram_shuffle::permutation::Permutation;
///
/// let perm = Permutation::random(10, 42);
/// let table = perm.scatter(["a", "b"]);
/// assert_eq!(table[perm.apply(0)], Some("a"));
/// assert_eq!(table.iter().flatten().count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    forward: Vec<u32>,
}

impl Permutation {
    /// A uniformly random permutation of `n` elements, deterministic in
    /// `seed` (Fisher–Yates over the identity).
    ///
    /// # Panics
    ///
    /// Panics if `n > u32::MAX as usize` (explicit permutations are bounded
    /// to 2³²−1 elements; use the PRP for larger domains).
    pub fn random(n: usize, seed: u64) -> Self {
        assert!(
            n <= u32::MAX as usize,
            "explicit permutation too large; use FeistelPrp"
        );
        let mut forward: Vec<u32> = (0..n as u32).collect();
        let mut rng = DeterministicRng::from_u64_seed(seed ^ PERMUTATION_SEED_TWEAK);
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            forward.swap(i, j);
        }
        Self { forward }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.forward.len()
    }

    /// Whether the permutation is on the empty set.
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }

    /// Forward image: `π(i)`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn apply(&self, i: usize) -> usize {
        self.forward[i] as usize
    }

    /// Scatters a *prefix* of the domain into a full-length table: slot
    /// `π(i)` receives `items[i]`, every other slot is `None`. This is
    /// the partition-rebuild placement primitive (a pass's live+hot union
    /// is usually shorter than the partition), taking items by value so
    /// large payloads move instead of cloning.
    ///
    /// # Panics
    ///
    /// Panics if `items` is longer than the permutation's domain.
    pub fn scatter<T>(&self, items: impl IntoIterator<Item = T>) -> Vec<Option<T>> {
        let mut out: Vec<Option<T>> = Vec::with_capacity(self.len());
        out.resize_with(self.len(), || None);
        for (dense, item) in items.into_iter().enumerate() {
            assert!(dense < self.len(), "scatter input longer than domain");
            let target = self.apply(dense);
            debug_assert!(out[target].is_none(), "permutation collision");
            out[target] = Some(item);
        }
        out
    }
}

/// Seed tweak so permutation sampling never collides with other users of
/// the deterministic RNG stream.
const PERMUTATION_SEED_TWEAK: u64 = 0x9e37_79b9_7f4a_7c15;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn random_is_seed_deterministic() {
        assert_eq!(Permutation::random(64, 3), Permutation::random(64, 3));
        assert_ne!(Permutation::random(64, 3), Permutation::random(64, 4));
    }

    /// The forward mapping is pinned: every partition image the shuffle
    /// epoch builds depends on it.
    #[test]
    fn random_draws_a_pinned_mapping() {
        let perm = Permutation::random(8, 7);
        let images: Vec<usize> = (0..8).map(|i| perm.apply(i)).collect();
        assert_eq!(images, [3, 6, 4, 0, 5, 1, 2, 7]);
        // A partition-sized draw, pinned by a position-weighted checksum.
        let perm = Permutation::random(1127, 0xfeed);
        let checksum: u64 = (0..perm.len())
            .map(|i| (i as u64 + 1) * perm.apply(i) as u64)
            .sum();
        assert_eq!(checksum, 350_668_398);
    }

    #[test]
    fn scatter_places_a_prefix_and_pads_with_none() {
        let perm = Permutation::random(4, 5);
        let table = perm.scatter(["x".to_string(), "y".to_string()]);
        assert_eq!(table[perm.apply(0)].as_deref(), Some("x"));
        assert_eq!(table[perm.apply(1)].as_deref(), Some("y"));
        assert_eq!(table.iter().filter(|slot| slot.is_none()).count(), 2);
    }

    #[test]
    #[should_panic(expected = "longer than domain")]
    fn scatter_rejects_oversized_input() {
        let perm = Permutation::random(2, 0);
        let _ = perm.scatter([1, 2, 3]);
    }

    #[test]
    fn empty_and_singleton() {
        assert!(Permutation::random(0, 9).is_empty());
        let one = Permutation::random(1, 9);
        assert_eq!(one.len(), 1);
        assert_eq!(one.apply(0), 0);
    }

    #[test]
    fn random_permutations_have_few_fixed_points() {
        let perm = Permutation::random(10_000, 11);
        let fixed = (0..perm.len()).filter(|&i| perm.apply(i) == i).count();
        // Expected number of fixed points of a uniform permutation is 1.
        assert!(fixed < 10, "too many fixed points: {fixed}");
    }

    proptest! {
        #[test]
        fn random_is_a_bijection(n in 1usize..500, seed in any::<u64>()) {
            let perm = Permutation::random(n, seed);
            let full: Vec<usize> = perm
                .scatter(0..n)
                .into_iter()
                .map(|slot| slot.expect("bijection fills every slot"))
                .collect();
            for (slot, &i) in full.iter().enumerate() {
                prop_assert_eq!(perm.apply(i), slot);
            }
        }
    }
}
