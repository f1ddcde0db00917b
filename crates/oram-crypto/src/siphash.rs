//! SipHash-2-4 keyed pseudo-random function (Aumasson & Bernstein).
//!
//! SipHash is the workhorse PRF of this workspace: it keys the Feistel
//! permutation rounds ([`crate::prp`]), authenticates sealed blocks
//! ([`crate::seal`]) and backs the general PRF helpers ([`crate::prf`]).
//!
//! The implementation is the standard 2 compression / 4 finalization round
//! variant with a 128-bit key and 64-bit output, validated against the
//! reference test vectors (regenerated with `openssl mac SipHash`).
//!
//! # Four messages at a time
//!
//! A MAC is one serial dependency chain per message — every round needs
//! the round before it — so a single message cannot use SIMD lanes at all.
//! Four *different* messages can: [`SipHash24::finish4`] finishes four
//! messages that share a prefix (the hasher's state), then differ by a
//! few head words and an equally long tail each, with one message per
//! 64-bit lane of an AVX2 register (the private `x86` module). That is
//! the shape of a path's worth of sealed blocks: one key, a three-word
//! header and an equal-length body per block. Anything the kernel does
//! not cover — tails of different lengths, a hasher holding a partial
//! word, no AVX2, another architecture — is computed by the scalar
//! hasher, which stays the reference the kernel is tested against.

/// Key length in bytes (128-bit key).
pub const KEY_LEN: usize = 16;

/// An incremental SipHash-2-4 hasher.
///
/// # Example
///
/// ```
/// use oram_crypto::siphash::{siphash24, SipHash24};
///
/// let key = [0u8; 16];
/// let mut hasher = SipHash24::new(&key);
/// hasher.write(b"split ");
/// hasher.write(b"input");
/// assert_eq!(hasher.finish(), siphash24(&key, b"split input"));
/// ```
#[derive(Debug, Clone)]
pub struct SipHash24 {
    v0: u64,
    v1: u64,
    v2: u64,
    v3: u64,
    /// Bytes not yet forming a full 8-byte word.
    buffer: [u8; 8],
    buffered: usize,
    /// Total message length in bytes (mod 2^64), folded into finalization.
    length: u64,
}

impl SipHash24 {
    /// Creates a hasher from a 16-byte key.
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        let k0 = u64::from_le_bytes(key[..8].try_into().expect("8-byte half"));
        let k1 = u64::from_le_bytes(key[8..].try_into().expect("8-byte half"));
        Self::from_key_words(k0, k1)
    }

    /// Creates a hasher from the two 64-bit key words `k0 || k1`.
    pub fn from_key_words(k0: u64, k1: u64) -> Self {
        Self {
            v0: k0 ^ 0x736f_6d65_7073_6575,
            v1: k1 ^ 0x646f_7261_6e64_6f6d,
            v2: k0 ^ 0x6c79_6765_6e65_7261,
            v3: k1 ^ 0x7465_6462_7974_6573,
            buffer: [0u8; 8],
            buffered: 0,
            length: 0,
        }
    }

    /// Absorbs `bytes` into the hash state.
    pub fn write(&mut self, bytes: &[u8]) {
        self.length = self.length.wrapping_add(bytes.len() as u64);
        let mut rest = bytes;

        if self.buffered > 0 {
            let need = 8 - self.buffered;
            let take = need.min(rest.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&rest[..take]);
            self.buffered += take;
            rest = &rest[take..];
            if self.buffered < 8 {
                // Input exhausted without completing a word.
                return;
            }
            let word = u64::from_le_bytes(self.buffer);
            self.compress(word);
            self.buffered = 0;
        }

        let mut chunks = rest.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            self.compress(word);
        }
        let tail = chunks.remainder();
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffered = tail.len();
    }

    /// Absorbs a little-endian `u64` — one compression when no partial
    /// word is buffered, as in a sealed block's all-`u64` MAC header.
    #[inline]
    pub fn write_u64(&mut self, value: u64) {
        if self.buffered == 0 {
            self.length = self.length.wrapping_add(8);
            self.compress(value);
        } else {
            self.write(&value.to_le_bytes());
        }
    }

    /// Completes the hash and returns the 64-bit digest.
    ///
    /// The hasher is not consumed; further writes continue from the absorbed
    /// prefix (finalization operates on a copy of the state).
    pub fn finish(&self) -> u64 {
        let mut state = self.clone();
        state.compress(Self::last_word(
            state.length,
            &state.buffer[..state.buffered],
        ));

        state.v2 ^= 0xff;
        for _ in 0..4 {
            state.round();
        }
        state.v0 ^ state.v1 ^ state.v2 ^ state.v3
    }

    /// Finishes four messages at once: digest `j` is what this hasher
    /// would return from [`finish`](Self::finish) after absorbing the words
    /// `heads[j]` (each as by [`write_u64`](Self::write_u64)) and then
    /// `tails[j]`. The hasher itself is not advanced.
    ///
    /// With AVX2, tails of one length and no partial word buffered in the
    /// hasher (it has absorbed a multiple of 8 bytes so far) the four run
    /// one per vector lane; otherwise each is computed by the scalar
    /// hasher. Same digests either way.
    pub fn finish4<const H: usize>(&self, heads: [[u64; H]; 4], tails: [&[u8]; 4]) -> [u64; 4] {
        #[cfg(target_arch = "x86_64")]
        if let Some(digests) = x86::finish4(self, &heads, tails) {
            return digests;
        }
        std::array::from_fn(|j| self.finish_with(heads[j], tails[j]))
    }

    /// The digest after absorbing the words `head` (each as by
    /// [`write_u64`](Self::write_u64)) and then `tail`, on the scalar
    /// hasher; the hasher itself is not advanced. One lane of
    /// [`finish4`](Self::finish4).
    pub fn finish_with<const H: usize>(&self, head: [u64; H], tail: &[u8]) -> u64 {
        let mut hasher = self.clone();
        for word in head {
            hasher.write_u64(word);
        }
        hasher.write(tail);
        hasher.finish()
    }

    /// The width [`finish4`](Self::finish4) runs at on this host, for logs:
    /// a runner without AVX2 should say so, not be silently scalar.
    pub fn finish4_dispatch() -> &'static str {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            return "AVX2 x4 (one message per 64-bit lane)";
        }
        "scalar (no AVX2 on this host: the x4 kernel is NOT used)"
    }

    /// The final message word: the `tail` bytes that did not fill a word,
    /// with the total length (mod 256) in the top byte.
    fn last_word(length: u64, tail: &[u8]) -> u64 {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        last[7] = (length & 0xff) as u8;
        u64::from_le_bytes(last)
    }

    fn compress(&mut self, word: u64) {
        self.v3 ^= word;
        self.round();
        self.round();
        self.v0 ^= word;
    }

    #[inline(always)]
    fn round(&mut self) {
        self.v0 = self.v0.wrapping_add(self.v1);
        self.v1 = self.v1.rotate_left(13);
        self.v1 ^= self.v0;
        self.v0 = self.v0.rotate_left(32);
        self.v2 = self.v2.wrapping_add(self.v3);
        self.v3 = self.v3.rotate_left(16);
        self.v3 ^= self.v2;
        self.v0 = self.v0.wrapping_add(self.v3);
        self.v3 = self.v3.rotate_left(21);
        self.v3 ^= self.v0;
        self.v2 = self.v2.wrapping_add(self.v1);
        self.v1 = self.v1.rotate_left(17);
        self.v1 ^= self.v2;
        self.v2 = self.v2.rotate_left(32);
    }
}

/// One-shot SipHash-2-4 of `data` under `key`.
pub fn siphash24(key: &[u8; KEY_LEN], data: &[u8]) -> u64 {
    let mut hasher = SipHash24::new(key);
    hasher.write(data);
    hasher.finish()
}

/// The four-message kernel — all of this module's `unsafe`.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::SipHash24;
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi64 as add, _mm256_loadu_si256, _mm256_or_si256 as or,
        _mm256_permute2x128_si256 as permute128, _mm256_set1_epi64x as set1, _mm256_set_epi64x,
        _mm256_shuffle_epi32, _mm256_slli_epi64 as slli, _mm256_srli_epi64 as srli,
        _mm256_storeu_si256, _mm256_unpackhi_epi64 as unpackhi, _mm256_unpacklo_epi64 as unpacklo,
        _mm256_xor_si256 as xor,
    };

    /// The safe front of the kernel: `None` when it does not apply (no
    /// AVX2, tails of different lengths, or a partial word buffered in
    /// `hasher`), and the caller takes the scalar hasher.
    pub(super) fn finish4<const H: usize>(
        hasher: &SipHash24,
        heads: &[[u64; H]; 4],
        tails: [&[u8]; 4],
    ) -> Option<[u64; 4]> {
        let len = tails[0].len();
        if !is_x86_feature_detected!("avx2")
            || tails.iter().any(|tail| tail.len() != len)
            || hasher.buffered != 0
        {
            return None;
        }
        let words = len / 8;
        let length = hasher.length.wrapping_add((8 * H + len) as u64);
        let last = tails.map(|tail| SipHash24::last_word(length, &tail[8 * words..]));
        let state = [hasher.v0, hasher.v1, hasher.v2, hasher.v3];
        // SAFETY: AVX2 was detected above, and every tail is a live slice
        // of `len >= 8 * words` bytes.
        Some(unsafe { absorb4(state, heads, tails.map(<[u8]>::as_ptr), words, last) })
    }

    macro_rules! rotl {
        ($v:expr, $n:literal) => {{
            let v = $v;
            or(slli::<$n>(v), srli::<{ 64 - $n }>(v))
        }};
    }

    /// One SipRound on four states, one per 64-bit lane.
    macro_rules! round {
        ($v:ident) => {
            $v[0] = add($v[0], $v[1]);
            $v[1] = xor(rotl!($v[1], 13), $v[0]);
            $v[0] = rotl32($v[0]);
            $v[2] = add($v[2], $v[3]);
            $v[3] = xor(rotl!($v[3], 16), $v[2]);
            $v[0] = add($v[0], $v[3]);
            $v[3] = xor(rotl!($v[3], 21), $v[0]);
            $v[2] = add($v[2], $v[1]);
            $v[1] = xor(rotl!($v[1], 17), $v[2]);
            $v[2] = rotl32($v[2]);
        };
    }

    /// Absorbs one message word per lane.
    macro_rules! compress {
        ($v:ident, $word:expr) => {
            let word = $word;
            $v[3] = xor($v[3], word);
            round!($v);
            round!($v);
            $v[0] = xor($v[0], word);
        };
    }

    /// Rotating a 64-bit lane by 32 swaps its halves: one shuffle.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn rotl32(v: __m256i) -> __m256i {
        _mm256_shuffle_epi32::<0b10_11_00_01>(v)
    }

    /// `[lanes[0], lanes[1], lanes[2], lanes[3]]` as one vector.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn pack(lanes: [u64; 4]) -> __m256i {
        _mm256_set_epi64x(
            lanes[3] as i64,
            lanes[2] as i64,
            lanes[1] as i64,
            lanes[0] as i64,
        )
    }

    /// SipHash-2-4 over four messages from the common state `state`
    /// (`v0..v3`): message `j` is the words `heads[j]`, then `words` whole
    /// little-endian words at `messages[j]`, then the final word
    /// `last[j]`. Compression, finalization, digest `j` in element `j`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, and every `messages[j]` must be valid
    /// for reads of `8 * words` bytes.
    #[target_feature(enable = "avx2")]
    unsafe fn absorb4<const H: usize>(
        state: [u64; 4],
        heads: &[[u64; H]; 4],
        messages: [*const u8; 4],
        words: usize,
        last: [u64; 4],
    ) -> [u64; 4] {
        let mut v = state.map(|word| set1(word as i64));
        for h in 0..H {
            compress!(v, pack(heads.map(|head| head[h])));
        }
        let mut at = 0;
        // Four words of each message per step: 4×4 transposed, vector `w`
        // holds word `at + w` of every message.
        while at + 4 <= words {
            // SAFETY: `at + 4 <= words`, so 32 bytes at byte `8 * at` are
            // inside each message; the load is unaligned.
            let [a, b, c, d] =
                messages.map(|message| unsafe { _mm256_loadu_si256(message.add(8 * at).cast()) });
            let (ab_lo, ab_hi) = (unpacklo(a, b), unpackhi(a, b));
            let (cd_lo, cd_hi) = (unpacklo(c, d), unpackhi(c, d));
            compress!(v, permute128::<0x20>(ab_lo, cd_lo));
            compress!(v, permute128::<0x20>(ab_hi, cd_hi));
            compress!(v, permute128::<0x31>(ab_lo, cd_lo));
            compress!(v, permute128::<0x31>(ab_hi, cd_hi));
            at += 4;
        }
        while at < words {
            // SAFETY: `at < words`, so 8 bytes at byte `8 * at` are inside
            // each message; the read is unaligned.
            let word = messages
                .map(|message| unsafe { message.add(8 * at).cast::<u64>().read_unaligned() });
            compress!(v, pack(word.map(u64::from_le)));
            at += 1;
        }
        compress!(v, pack(last));

        v[2] = xor(v[2], set1(0xff));
        for _ in 0..4 {
            round!(v);
        }
        let digest = xor(xor(v[0], v[1]), xor(v[2], v[3]));
        let mut out = [0u64; 4];
        // SAFETY: `out` is exactly the 32 bytes of one vector, and the
        // store is unaligned.
        unsafe { _mm256_storeu_si256(out.as_mut_ptr().cast(), digest) };
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_key() -> [u8; KEY_LEN] {
        let mut key = [0u8; KEY_LEN];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        key
    }

    /// Reference vectors for key 000102...0f and input 00 01 02 ... (i bytes),
    /// regenerated with `openssl mac -macopt size:8 SipHash`. Digest bytes are
    /// the little-endian encoding of the returned u64.
    #[test]
    fn reference_vectors() {
        let key = reference_key();
        let cases: [(usize, [u8; 8]); 4] = [
            (0, [0x31, 0x0e, 0x0e, 0xdd, 0x47, 0xdb, 0x6f, 0x72]),
            (1, [0xfd, 0x67, 0xdc, 0x93, 0xc5, 0x39, 0xf8, 0x74]),
            (3, [0x2d, 0x7e, 0xfb, 0xd7, 0x96, 0x66, 0x67, 0x85]),
            (15, [0xe5, 0x45, 0xbe, 0x49, 0x61, 0xca, 0x29, 0xa1]),
        ];
        for (len, expected) in cases {
            let input: Vec<u8> = (0..len as u8).collect();
            let digest = siphash24(&key, &input);
            assert_eq!(
                digest.to_le_bytes(),
                expected,
                "vector mismatch for {len}-byte input"
            );
        }
    }

    /// Message `j` of the four-lane tests: patterned, and different in
    /// every lane, so a kernel that mixes lanes up cannot pass.
    fn lane_message(j: usize, len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 7 + 3 + j * 29) as u8).collect()
    }

    /// `finish4` — whatever it dispatches to on this host, which it prints
    /// — against the scalar hasher: every tail length that exercises the
    /// four-word steps, the single-word steps and the final partial word,
    /// without head words and with a header that differs in every lane (as
    /// a sealed block's does), from a fresh hasher and from one that has
    /// absorbed a prefix; then the inputs the kernel must hand to the
    /// scalar hasher (unequal tails, a buffered partial word).
    #[test]
    fn finish4_matches_the_scalar_reference() {
        eprintln!(
            "siphash24 finish4 dispatch on this host: {}",
            SipHash24::finish4_dispatch()
        );
        fn scalar<const H: usize>(hasher: &SipHash24, head: [u64; H], tail: &[u8]) -> u64 {
            let mut hasher = hasher.clone();
            for word in head {
                hasher.write_u64(word);
            }
            hasher.write(tail);
            hasher.finish()
        }
        let fresh = SipHash24::new(&reference_key());
        let mut prefixed = fresh.clone();
        prefixed.write(b"sixteen byte pre");
        let heads: [[u64; 3]; 4] =
            std::array::from_fn(|j| [j as u64 * 0x0101_0101, !(j as u64), 81 + j as u64]);
        for hasher in [&fresh, &prefixed] {
            for len in (0..=72).chain([81, 105, 128, 529, 1041, 1065]) {
                let messages: [Vec<u8>; 4] = std::array::from_fn(|j| lane_message(j, len));
                let tails: [&[u8]; 4] = std::array::from_fn(|j| &messages[j][..]);
                assert_eq!(
                    hasher.finish4([[]; 4], tails),
                    tails.map(|tail| scalar(hasher, [], tail)),
                    "no head, {len} bytes"
                );
                assert_eq!(
                    hasher.finish4(heads, tails),
                    std::array::from_fn(|j| scalar(hasher, heads[j], tails[j])),
                    "three head words, {len} bytes"
                );
            }
        }

        let messages: [Vec<u8>; 4] = std::array::from_fn(|j| lane_message(j, 40 + j));
        let tails: [&[u8]; 4] = std::array::from_fn(|j| &messages[j][..]);
        assert_eq!(
            fresh.finish4(heads, tails),
            std::array::from_fn(|j| scalar(&fresh, heads[j], tails[j])),
            "tails of different lengths"
        );
        let mut buffered = fresh.clone();
        buffered.write(b"abc");
        let tails = [&messages[0][..40]; 4];
        assert_eq!(
            buffered.finish4(heads, tails),
            std::array::from_fn(|j| scalar(&buffered, heads[j], tails[j])),
            "a hasher with a buffered partial word"
        );
    }

    /// Four 1 065-byte messages (a sealed 1 KB tree block's MAC input is
    /// that long: 33 four-word steps, one single word, one byte) pinned to
    /// `openssl mac -macopt size:8 -macopt hexkey:000102…0f SipHash`
    /// (OpenSSL 3.5) over `(7 i + 3 + 29 j) mod 256`, so full lanes are
    /// checked against an outside implementation and not only against
    /// this file's scalar hasher. Taken whole as tails, and with the first
    /// 24 bytes as three head words, as the sealer passes a block's header.
    #[test]
    fn openssl_vectors_cover_full_lanes() {
        let key = reference_key();
        let expected: [[u8; 8]; 4] = [
            [0x5f, 0x38, 0x37, 0x8c, 0x25, 0x55, 0xb4, 0x35],
            [0x94, 0x6d, 0x5f, 0xe0, 0x67, 0xfe, 0x01, 0x6f],
            [0x00, 0x0c, 0xd2, 0xe7, 0xa3, 0x6c, 0xcf, 0x35],
            [0x8f, 0x58, 0x3a, 0xab, 0x5b, 0xe6, 0x1e, 0x00],
        ];
        let messages: [Vec<u8>; 4] = std::array::from_fn(|j| lane_message(j, 1065));
        let tails: [&[u8]; 4] = std::array::from_fn(|j| &messages[j][..]);
        let fresh = SipHash24::new(&key);
        assert_eq!(
            fresh.finish4([[]; 4], tails).map(u64::to_le_bytes),
            expected
        );
        let heads: [[u64; 3]; 4] = std::array::from_fn(|j| {
            std::array::from_fn(|w| {
                u64::from_le_bytes(messages[j][8 * w..8 * w + 8].try_into().expect("8 bytes"))
            })
        });
        assert_eq!(
            fresh
                .finish4(heads, tails.map(|tail| &tail[24..]))
                .map(u64::to_le_bytes),
            expected
        );
        assert_eq!(
            tails.map(|tail| siphash24(&key, tail).to_le_bytes()),
            expected
        );
    }

    /// The kernel itself, called directly wherever AVX2 exists, so the
    /// differential above cannot pass by always falling back.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn x4_kernel_is_taken_when_it_applies() {
        let fresh = SipHash24::new(&reference_key());
        let messages: [Vec<u8>; 4] = std::array::from_fn(|j| lane_message(j, 81));
        let tails: [&[u8]; 4] = std::array::from_fn(|j| &messages[j][..]);
        let digests = x86::finish4(&fresh, &[[7u64]; 4], tails);
        assert_eq!(digests.is_some(), is_x86_feature_detected!("avx2"));
        if let Some(digests) = digests {
            let mut headed = fresh.clone();
            headed.write_u64(7);
            assert_eq!(
                digests,
                tails.map(|tail| {
                    let mut hasher = headed.clone();
                    hasher.write(tail);
                    hasher.finish()
                })
            );
        }
        let uneven = [tails[0], tails[1], &tails[2][..80], tails[3]];
        assert_eq!(x86::finish4(&fresh, &[[7u64]; 4], uneven), None);
    }

    #[test]
    fn incremental_equals_one_shot() {
        let key = reference_key();
        let data: Vec<u8> = (0..100u8).collect();
        for split in [0usize, 1, 7, 8, 9, 50, 99, 100] {
            let mut hasher = SipHash24::new(&key);
            hasher.write(&data[..split]);
            hasher.write(&data[split..]);
            assert_eq!(hasher.finish(), siphash24(&key, &data), "split at {split}");
        }
    }

    #[test]
    fn byte_at_a_time_equals_one_shot() {
        let key = reference_key();
        let data: Vec<u8> = (0..33u8).collect();
        let mut hasher = SipHash24::new(&key);
        for b in &data {
            hasher.write(std::slice::from_ref(b));
        }
        assert_eq!(hasher.finish(), siphash24(&key, &data));
    }

    #[test]
    fn finish_is_idempotent_and_non_consuming() {
        let key = reference_key();
        let mut hasher = SipHash24::new(&key);
        hasher.write(b"abc");
        let first = hasher.finish();
        assert_eq!(first, hasher.finish());
        hasher.write(b"def");
        assert_eq!(hasher.finish(), siphash24(&key, b"abcdef"));
    }

    #[test]
    fn distinct_keys_give_distinct_digests() {
        let a = siphash24(&[0u8; KEY_LEN], b"payload");
        let b = siphash24(&[1u8; KEY_LEN], b"payload");
        assert_ne!(a, b);
    }

    #[test]
    fn length_extension_of_zero_bytes_changes_digest() {
        // Messages "ab" and "ab\0" must hash differently (length is mixed in).
        let key = reference_key();
        assert_ne!(siphash24(&key, b"ab"), siphash24(&key, b"ab\0"));
    }

    #[test]
    fn write_u64_matches_le_bytes() {
        let key = reference_key();
        let mut a = SipHash24::new(&key);
        a.write_u64(0x0123_4567_89ab_cdef);
        let mut b = SipHash24::new(&key);
        b.write(&0x0123_4567_89ab_cdefu64.to_le_bytes());
        assert_eq!(a.finish(), b.finish());
    }
}
