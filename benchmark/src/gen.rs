//! Request-stream generators owned by the benchmark.
//!
//! They live here, not in `oram-workload`, so a later change to the
//! repository cannot alter the inputs the benchmark feeds it: the same
//! `--seed` always produces the same operations.

/// SplitMix64 — the whole benchmark's only source of randomness.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; the modulo bias is below 2^-40 for every `n`
    /// the benchmark uses.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Which block the next operation touches.
#[derive(Debug, Clone)]
pub enum KeyDist {
    /// Every block equally likely.
    Uniform { blocks: u64 },
    /// `hot_share` of operations fall in `[0, hot_blocks)`, the rest are
    /// uniform over the whole range (the paper's calibration workload).
    Hotspot {
        blocks: u64,
        hot_blocks: u64,
        hot_share: f64,
    },
    /// Zipf over `[0, cdf.len())` by inverse-CDF table lookup; rank `r`
    /// is block `r`.
    Zipf { cdf: Vec<f64> },
}

impl KeyDist {
    pub fn zipf(blocks: u64, theta: f64) -> Self {
        let mut cdf = Vec::with_capacity(blocks as usize);
        let mut total = 0.0;
        for rank in 1..=blocks {
            total += 1.0 / (rank as f64).powf(theta);
            cdf.push(total);
        }
        for p in &mut cdf {
            *p /= total;
        }
        KeyDist::Zipf { cdf }
    }

    fn sample(&self, rng: &mut SplitMix64) -> u64 {
        match self {
            KeyDist::Uniform { blocks } => rng.below(*blocks),
            KeyDist::Hotspot {
                blocks,
                hot_blocks,
                hot_share,
            } => {
                if rng.next_f64() < *hot_share {
                    rng.below(*hot_blocks)
                } else {
                    rng.below(*blocks)
                }
            }
            KeyDist::Zipf { cdf } => {
                let u = rng.next_f64();
                (cdf.partition_point(|p| *p <= u) as u64).min(cdf.len() as u64 - 1)
            }
        }
    }
}

/// One generated operation. `write` is the *value seed* of the payload to
/// write ([`payload`] expands it); `None` is a read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub block: u64,
    pub write: Option<u64>,
}

/// An endless, seed-determined stream of operations over
/// `[base, base + dist range)`.
#[derive(Debug, Clone)]
pub struct OpStream {
    rng: SplitMix64,
    dist: KeyDist,
    base: u64,
    write_share: f64,
}

impl OpStream {
    pub fn new(seed: u64, dist: KeyDist, base: u64, write_share: f64) -> Self {
        Self {
            rng: SplitMix64::new(seed),
            dist,
            base,
            write_share,
        }
    }

    pub fn next_op(&mut self) -> Op {
        let block = self.base + self.dist.sample(&mut self.rng);
        // Drawn on every operation so the key sequence does not depend on
        // the write share.
        let coin = self.rng.next_f64();
        let value = self.rng.next_u64() | 1;
        Op {
            block,
            write: (coin < self.write_share).then_some(value),
        }
    }
}

/// Expands a value seed into a payload. Seed `0` is the all-zero payload
/// every block holds before its first write.
pub fn payload(value: u64, len: usize) -> Vec<u8> {
    let mut out = vec![0u8; len];
    if value != 0 {
        let mut rng = SplitMix64::new(value);
        for chunk in out.chunks_mut(8) {
            let word = rng.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_ops(seed: u64, dist: KeyDist, n: usize) -> Vec<Op> {
        let mut stream = OpStream::new(seed, dist, 0, 0.5);
        (0..n).map(|_| stream.next_op()).collect()
    }

    #[test]
    fn splitmix_matches_reference_vector() {
        // First outputs of SplitMix64 seeded with 1234567 (Vigna's
        // reference implementation).
        let mut rng = SplitMix64::new(1_234_567);
        assert_eq!(rng.next_u64(), 6_457_827_717_110_365_317);
        assert_eq!(rng.next_u64(), 3_203_168_211_198_807_973);
    }

    #[test]
    fn streams_are_seed_stable() {
        for dist in [
            KeyDist::zipf(1000, 0.99),
            KeyDist::Hotspot {
                blocks: 1000,
                hot_blocks: 50,
                hot_share: 0.8,
            },
            KeyDist::Uniform { blocks: 1000 },
        ] {
            assert_eq!(
                first_ops(7, dist.clone(), 500),
                first_ops(7, dist.clone(), 500)
            );
            assert_ne!(first_ops(7, dist.clone(), 500), first_ops(8, dist, 500));
        }
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let ops = first_ops(1, KeyDist::zipf(1000, 0.99), 20_000);
        assert!(ops.iter().all(|op| op.block < 1000));
        let top10 = ops.iter().filter(|op| op.block < 10).count() as f64 / ops.len() as f64;
        // H(10)/H(1000) at theta 0.99 is about 0.39.
        assert!((0.34..0.44).contains(&top10), "top-10 share {top10}");
    }

    #[test]
    fn hotspot_share_is_respected() {
        let dist = KeyDist::Hotspot {
            blocks: 16_384,
            hot_blocks: 256,
            hot_share: 0.8,
        };
        let ops = first_ops(3, dist, 20_000);
        let hot = ops.iter().filter(|op| op.block < 256).count() as f64 / ops.len() as f64;
        // 0.8 + 0.2 * 256/16384.
        assert!((0.78..0.83).contains(&hot), "hot share {hot}");
    }

    #[test]
    fn payloads_are_deterministic_and_distinct() {
        assert_eq!(payload(0, 64), vec![0u8; 64]);
        assert_eq!(payload(9, 1024), payload(9, 1024));
        assert_ne!(payload(9, 64), payload(11, 64));
        assert_eq!(payload(9, 13).len(), 13);
    }
}
