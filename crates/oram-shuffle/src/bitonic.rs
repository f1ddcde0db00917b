//! Bitonic-network oblivious shuffle.
//!
//! Sorting each element by a fresh pseudo-random key through a **bitonic
//! sorting network** yields a uniform permutation whose access pattern — the
//! sequence of compare-exchange index pairs — is a fixed function of the
//! input length. This is the textbook oblivious shuffle (a permutation
//! network in the paper's terminology, §3.2) and the one the tree evict
//! runs on its buffer.
//!
//! Cost: `O(n log² n)` compare-exchanges on a power-of-two padded array.

use oram_crypto::prf::Prf;

/// The bitonic-network shuffle (see module docs).
#[derive(Debug, Clone, Default)]
pub struct BitonicShuffle {
    _private: (),
}

impl BitonicShuffle {
    /// Creates the shuffle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Shuffles `items` in place, deterministically in `seed`, and returns
    /// the number of element reads+writes the network performed on the
    /// (untrusted) buffer. That count depends only on `items.len()` — the
    /// observable-cost half of the obliviousness argument.
    pub fn shuffle<T>(&self, items: &mut Vec<T>, seed: u64) -> u64 {
        let n = items.len();
        if n < 2 {
            return 0;
        }

        let prf = Prf::new(key_from_seed(seed));
        // Tag with random keys; pad to a power of two with +∞ keys so the
        // dummies sink to the tail and the network shape is canonical.
        let padded = n.next_power_of_two();
        let mut tagged: Vec<(u64, Option<T>)> = items
            .drain(..)
            .enumerate()
            // Shift real keys down so the u64::MAX pad keys strictly dominate.
            .map(|(i, item)| (prf.eval_words("bitonic-key", &[i as u64]) >> 1, Some(item)))
            .collect();
        tagged.extend((0..padded - n).map(|_| (u64::MAX, None)));

        let mut touches = 0u64;
        // Iterative bitonic sort: stage sizes k, sub-stages j.
        let mut k = 2;
        while k <= padded {
            let mut j = k / 2;
            while j > 0 {
                for i in 0..padded {
                    let partner = i ^ j;
                    if partner > i {
                        let ascending = i & k == 0;
                        let (a, b) = (tagged[i].0, tagged[partner].0);
                        if (ascending && a > b) || (!ascending && a < b) {
                            tagged.swap(i, partner);
                        }
                        touches += 2;
                    }
                }
                j /= 2;
            }
            k *= 2;
        }

        // Dummies (None) hold the maximal keys, so the first n slots are the
        // real items in random-key order.
        items.extend(
            tagged
                .into_iter()
                .take(n)
                .map(|(_, item)| item.expect("dummy sorted into the real prefix — network broken")),
        );
        touches
    }
}

/// Domain-separation constant mixed into the seed's upper key half.
const BITONIC_KEY_TWEAK: u64 = 0xb170_41c5;

fn key_from_seed(seed: u64) -> [u8; 16] {
    let mut key = [0u8; 16];
    key[..8].copy_from_slice(&seed.to_le_bytes());
    key[8..].copy_from_slice(&(seed ^ BITONIC_KEY_TWEAK).to_le_bytes());
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    #[test]
    fn permutes_without_loss_power_of_two() {
        let mut items: Vec<u32> = (0..1024).collect();
        BitonicShuffle::new().shuffle(&mut items, 5);
        let set: HashSet<u32> = items.iter().copied().collect();
        assert_eq!(set.len(), 1024);
    }

    #[test]
    fn permutes_without_loss_odd_sizes() {
        for n in [3usize, 5, 100, 1000, 1023, 1025] {
            let mut items: Vec<usize> = (0..n).collect();
            BitonicShuffle::new().shuffle(&mut items, 9);
            let set: HashSet<usize> = items.iter().copied().collect();
            assert_eq!(set.len(), n, "size {n} broken");
        }
    }

    #[test]
    fn empty_and_singleton_inputs_are_noops() {
        let mut empty: Vec<u8> = Vec::new();
        BitonicShuffle::new().shuffle(&mut empty, 1);
        assert!(empty.is_empty());
        let mut one = vec![42u8];
        BitonicShuffle::new().shuffle(&mut one, 1);
        assert_eq!(one, vec![42]);
    }

    #[test]
    fn deterministic_in_seed() {
        let mut a: Vec<u32> = (0..200).collect();
        let mut b: Vec<u32> = (0..200).collect();
        BitonicShuffle::new().shuffle(&mut a, 13);
        BitonicShuffle::new().shuffle(&mut b, 13);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..200).collect();
        BitonicShuffle::new().shuffle(&mut c, 14);
        assert_ne!(a, c, "a different seed must give a different order");
    }

    #[test]
    fn uniform_over_small_permutations() {
        let shuffle = BitonicShuffle::new();
        let mut counts: HashMap<Vec<u8>, u32> = HashMap::new();
        let trials = 6000;
        for seed in 0..trials {
            let mut items = vec![0u8, 1, 2];
            shuffle.shuffle(&mut items, seed);
            *counts.entry(items).or_default() += 1;
        }
        assert_eq!(counts.len(), 6);
        let expected = trials as f64 / 6.0;
        for (perm, count) in counts {
            let dev = (count as f64 - expected).abs() / expected;
            assert!(dev < 0.2, "ordering {perm:?} off by {dev:.2}");
        }
    }

    #[test]
    fn network_size_depends_only_on_length() {
        let shuffle = BitonicShuffle::new();
        let mut a: Vec<u64> = vec![0; 300];
        let mut b: Vec<u64> = (0..300).rev().collect();
        let s1 = shuffle.shuffle(&mut a, 1);
        let s2 = shuffle.shuffle(&mut b, 999);
        assert_eq!(
            s1, s2,
            "compare-exchange count must be data- and seed-independent"
        );
    }

    #[test]
    fn touch_count_is_n_log2_n_scale() {
        let mut items: Vec<u32> = (0..256).collect();
        let touches = BitonicShuffle::new().shuffle(&mut items, 0);
        // 256 = 2^8: stages sum 1+2+..+8 = 36 substages × 128 comparisons × 2 touches.
        assert_eq!(touches, 36 * 128 * 2);
    }
}
