//! ChaCha20 stream cipher (RFC 8439).
//!
//! Used throughout the workspace for block encryption ([`crate::seal`]), key
//! derivation ([`crate::keys`]) and deterministic simulation randomness
//! ([`crate::rng`]). The implementation follows the RFC 8439 construction:
//! a 256-bit key, a 96-bit nonce and a 32-bit block counter, 20 rounds.
//!
//! Test vectors were generated with OpenSSL 3.5 (`openssl enc -chacha20`),
//! which agrees byte-for-byte with the RFC 8439 block-function vector.
//!
//! # The batch hot path
//!
//! A memory-tree path access seals and opens ~80 one-kilobyte blocks per
//! request, and the rebuild stream every physical slot once per shuffle
//! period, so the keystream is the top line of a request's CPU cost. Three
//! things keep it down, all byte-identical to the scalar block function:
//!
//! * **cached key schedule** — [`ChaChaKey`] parses the 32 key bytes into
//!   state words once; long-lived callers (`BlockSealer`) construct
//!   streams from it instead of re-parsing the raw key per block;
//! * **explicit SIMD keystream** — on x86_64 one `std::arch` *vertical*
//!   kernel (the private `x86` module) keeps state word `i` of N
//!   consecutive blocks in vector `i`, runs the 20 rounds on all N at once,
//!   adds the initial state, transposes 4×4 in registers and XORs straight
//!   from source to destination. One kernel source is instantiated at two
//!   widths: `__m256i` × 8 blocks (512 B per pass, when
//!   `is_x86_feature_detected!("avx2")`) and `__m128i` × 4 blocks (256 B,
//!   SSE2, which x86_64 guarantees). The dispatcher takes whole 512-byte
//!   passes, then whole 256-byte passes, and leaves the rest (< 256 B) to
//!   the scalar [`ChaCha20::keystream_block`] — also the reference the
//!   kernels are tested against, and the whole path on other
//!   architectures. A pass costs its full width whatever it is asked for
//!   (one ×4 pass takes about as long as two scalar blocks), so a body of
//!   one or two blocks — the serving layer's 81-byte wire body — is
//!   cheapest on the scalar function and never reaches a kernel. The
//!   kernel is explicit because plain `u32` lane loops are *not*
//!   auto-vectorized: they measured 1.93 ns/B, scalar speed;
//! * **fused copy+XOR** — [`ChaCha20::apply_keystream_into`] writes
//!   `src ⊕ keystream` straight into a destination buffer; in-place
//!   [`ChaCha20::apply_keystream`] is the same kernel with the source
//!   pointer equal to the destination.

/// Key length in bytes (256-bit key).
pub const KEY_LEN: usize = 32;
/// Nonce length in bytes (96-bit nonce, RFC 8439 layout).
pub const NONCE_LEN: usize = 12;
/// Keystream block length in bytes.
pub const BLOCK_LEN: usize = 64;

/// The four ChaCha constants: ASCII `"expand 32-byte k"` as little-endian words.
const CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// A parsed ChaCha20 key schedule: the eight little-endian state words of
/// a 256-bit key.
///
/// Parsing is trivial but shows up when done once per sealed block; a
/// [`ChaChaKey`] is computed once per key lifetime (e.g. per
/// `BlockSealer` epoch) and shared by every stream built from it.
#[derive(Clone, PartialEq, Eq)]
pub struct ChaChaKey {
    words: [u32; 8],
}

impl std::fmt::Debug for ChaChaKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaChaKey")
            .field("words", &"<redacted>")
            .finish()
    }
}

impl ChaChaKey {
    /// Parses a raw 256-bit key into its state words.
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        let mut words = [0u32; 8];
        for (i, word) in words.iter_mut().enumerate() {
            *word = u32::from_le_bytes(key[4 * i..4 * i + 4].try_into().expect("4-byte chunk"));
        }
        Self { words }
    }

    /// The key's eight state words (rows 4..12 of the ChaCha state).
    pub fn words(&self) -> &[u32; 8] {
        &self.words
    }
}

/// A ChaCha20 keystream generator bound to one key and nonce.
///
/// The type is cheap to clone; cloning captures the current stream position.
///
/// # Example
///
/// ```
/// use oram_crypto::chacha::ChaCha20;
///
/// let key = [1u8; 32];
/// let nonce = [2u8; 12];
/// let mut data = *b"attack at dawn";
///
/// ChaCha20::new(&key, &nonce).apply_keystream(&mut data);
/// assert_ne!(&data, b"attack at dawn");
/// ChaCha20::new(&key, &nonce).apply_keystream(&mut data);
/// assert_eq!(&data, b"attack at dawn");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaCha20 {
    key: [u32; 8],
    nonce: [u32; 3],
    counter: u32,
}

impl ChaCha20 {
    /// Creates a keystream generator starting at block counter 0.
    pub fn new(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN]) -> Self {
        Self::with_counter(key, nonce, 0)
    }

    /// Creates a keystream generator starting at the given block counter.
    ///
    /// RFC 8439 uses an initial counter of 1 for AEAD payloads; plain stream
    /// encryption conventionally starts at 0.
    pub fn with_counter(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], counter: u32) -> Self {
        Self::from_key(&ChaChaKey::new(key), nonce, counter)
    }

    /// Creates a keystream generator from a pre-parsed key schedule —
    /// the batch entry point (no per-call key parsing).
    pub fn from_key(key: &ChaChaKey, nonce: &[u8; NONCE_LEN], counter: u32) -> Self {
        let mut nonce_words = [0u32; 3];
        for (i, word) in nonce_words.iter_mut().enumerate() {
            *word = u32::from_le_bytes(nonce[4 * i..4 * i + 4].try_into().expect("4-byte chunk"));
        }
        Self {
            key: key.words,
            nonce: nonce_words,
            counter,
        }
    }

    /// Returns the current block counter (the next block to be produced by
    /// [`apply_keystream`](Self::apply_keystream)).
    pub fn counter(&self) -> u32 {
        self.counter
    }

    /// Repositions the stream at the given block counter.
    pub fn seek(&mut self, counter: u32) {
        self.counter = counter;
    }

    /// The initial 16-word state for an explicit counter value.
    #[inline(always)]
    fn state(&self, counter: u32) -> [u32; 16] {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&CONSTANTS);
        state[4..12].copy_from_slice(&self.key);
        state[12] = counter;
        state[13..16].copy_from_slice(&self.nonce);
        state
    }

    /// Produces the 64-byte keystream block for an explicit counter value,
    /// without touching the stream position.
    pub fn keystream_block(&self, counter: u32) -> [u8; BLOCK_LEN] {
        let state = self.state(counter);
        let mut working = state;
        for _ in 0..10 {
            // Column round.
            quarter_round(&mut working, 0, 4, 8, 12);
            quarter_round(&mut working, 1, 5, 9, 13);
            quarter_round(&mut working, 2, 6, 10, 14);
            quarter_round(&mut working, 3, 7, 11, 15);
            // Diagonal round.
            quarter_round(&mut working, 0, 5, 10, 15);
            quarter_round(&mut working, 1, 6, 11, 12);
            quarter_round(&mut working, 2, 7, 8, 13);
            quarter_round(&mut working, 3, 4, 9, 14);
        }

        let mut out = [0u8; BLOCK_LEN];
        for i in 0..16 {
            let word = working[i].wrapping_add(state[i]);
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// XORs the keystream into `data`, advancing the stream position.
    ///
    /// Encryption and decryption are the same operation. The stream position
    /// advances by whole blocks, so interleaving calls with non-multiple-of-64
    /// lengths produces a *block-aligned* stream per call; callers that need
    /// byte-granular resume should buffer externally (the ORAM stack always
    /// encrypts whole blocks in one call).
    ///
    /// # Panics
    ///
    /// Panics if the counter would overflow `u32` (more than 256 GiB of
    /// keystream from a single (key, nonce) pair), which indicates key
    /// management misuse.
    pub fn apply_keystream(&mut self, data: &mut [u8]) {
        self.xor_runs(None, data);
    }

    /// Writes `src ⊕ keystream` into `dst`, advancing the stream position —
    /// the fused copy+XOR used by the borrowing seal path (one pass over
    /// the bytes instead of copy-then-encrypt-in-place). Bit-identical to
    /// copying `src` into `dst` and calling
    /// [`apply_keystream`](Self::apply_keystream).
    ///
    /// # Panics
    ///
    /// Panics if the buffer lengths differ, or on counter overflow as
    /// [`apply_keystream`](Self::apply_keystream).
    pub fn apply_keystream_into(&mut self, src: &[u8], dst: &mut [u8]) {
        assert_eq!(src.len(), dst.len(), "src/dst length mismatch");
        self.xor_runs(Some(src), dst);
    }

    /// `dst = src ⊕ keystream` (`src` is `dst` itself when `None`),
    /// advancing the stream position: whole SIMD passes where the
    /// architecture has a kernel, the scalar block function for the rest.
    fn xor_runs(&mut self, src: Option<&[u8]>, dst: &mut [u8]) {
        // Before any byte is written: an exhausted stream must not leave a
        // half-encrypted buffer behind.
        assert!(
            u64::from(self.counter) + dst.len().div_ceil(BLOCK_LEN) as u64 <= 1 << 32,
            "chacha20 counter overflow: keystream exhausted for this (key, nonce)"
        );
        #[cfg(target_arch = "x86_64")]
        let done = x86::xor_passes(self, src, dst);
        #[cfg(not(target_arch = "x86_64"))]
        let done = 0;
        if let Some(src) = src {
            dst[done..].copy_from_slice(&src[done..]);
        }
        for chunk in dst[done..].chunks_mut(BLOCK_LEN) {
            let ks = self.keystream_block(self.counter);
            for (byte, k) in chunk.iter_mut().zip(ks.iter()) {
                *byte ^= k;
            }
            self.counter = self.counter.wrapping_add(1);
        }
    }

    /// One-shot convenience: XORs the keystream for `(key, nonce, counter)`
    /// into `data`.
    pub fn apply(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], counter: u32, data: &mut [u8]) {
        Self::with_counter(key, nonce, counter).apply_keystream(data);
    }
}

/// The ChaCha quarter round on state indices `(a, b, c, d)`.
#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// The explicit SIMD keystream kernels — the only `unsafe` in this crate.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{ChaCha20, BLOCK_LEN};

    // `rotl!`, `quarter_round!` and `vertical_kernel!` are written once
    // against width-neutral names (`V`, `add32`, `slli`, …). Item names in
    // a `macro_rules!` body resolve where the macro is expanded, so each
    // width module below binds them to its own intrinsics.

    macro_rules! rotl {
        ($v:expr, $n:literal) => {{
            let v = $v;
            or(slli::<$n>(v), srli::<{ 32 - $n }>(v))
        }};
    }

    /// The quarter round on state rows `(a, b, c, d)`, one block per lane.
    macro_rules! quarter_round {
        ($x:ident, $a:literal, $b:literal, $c:literal, $d:literal) => {
            $x[$a] = add32($x[$a], $x[$b]);
            $x[$d] = rotl!(xor($x[$d], $x[$a]), 16);
            $x[$c] = add32($x[$c], $x[$d]);
            $x[$b] = rotl!(xor($x[$b], $x[$c]), 12);
            $x[$a] = add32($x[$a], $x[$b]);
            $x[$d] = rotl!(xor($x[$d], $x[$a]), 8);
            $x[$c] = add32($x[$c], $x[$d]);
            $x[$b] = rotl!(xor($x[$b], $x[$c]), 7);
        };
    }

    macro_rules! vertical_kernel {
        ($feature:literal) => {
            /// Bytes one pass covers.
            pub const PASS: usize = BLOCKS * BLOCK_LEN;

            /// `dst = src ⊕ keystream` for the `BLOCKS` consecutive blocks
            /// whose first counter is `init[12]`. Vector `i` holds state
            /// word `i` of every block, one block per 32-bit lane.
            ///
            /// # Safety
            ///
            /// The CPU must support the enabled target feature, `src` must
            /// be valid for reads and `dst` for writes of `PASS` bytes, and
            /// the two must be the same address or not overlap.
            #[target_feature(enable = $feature)]
            pub unsafe fn xor_pass(init: &[u32; 16], src: *const [u8; PASS], dst: *mut [u8; PASS]) {
                let mut start = [set1(0); 16];
                for (row, word) in start.iter_mut().zip(init) {
                    *row = set1(*word as i32);
                }
                start[12] = add32(start[12], lane_counters());

                let mut x = start;
                for _ in 0..10 {
                    // Column round.
                    quarter_round!(x, 0, 4, 8, 12);
                    quarter_round!(x, 1, 5, 9, 13);
                    quarter_round!(x, 2, 6, 10, 14);
                    quarter_round!(x, 3, 7, 11, 15);
                    // Diagonal round.
                    quarter_round!(x, 0, 5, 10, 15);
                    quarter_round!(x, 1, 6, 11, 12);
                    quarter_round!(x, 2, 7, 8, 13);
                    quarter_round!(x, 3, 4, 9, 14);
                }
                for (row, first) in x.iter_mut().zip(&start) {
                    *row = add32(*row, *first);
                }

                // Rows 4g..4g+4 are a 4×4 word matrix per 128-bit lane:
                // transposed, vector `j` holds 16 contiguous keystream
                // bytes of block `j` (and of block `j + 4` in the upper
                // lane at ×8), at byte `16 * g` of the block.
                for (g, rows) in x.chunks_exact(4).enumerate() {
                    let (ab_lo, ab_hi) =
                        (unpacklo32(rows[0], rows[1]), unpackhi32(rows[0], rows[1]));
                    let (cd_lo, cd_hi) =
                        (unpacklo32(rows[2], rows[3]), unpackhi32(rows[2], rows[3]));
                    let columns = [
                        unpacklo64(ab_lo, cd_lo),
                        unpackhi64(ab_lo, cd_lo),
                        unpacklo64(ab_hi, cd_hi),
                        unpackhi64(ab_hi, cd_hi),
                    ];
                    for (j, column) in columns.into_iter().enumerate() {
                        let at = j * BLOCK_LEN + 16 * g;
                        // SAFETY: `at + 16 <= 4 * BLOCK_LEN`, and `xor_store`
                        // touches those 16 bytes of each 4-block group of
                        // the `PASS` bytes the caller vouches for.
                        unsafe { xor_store(column, src.cast(), dst.cast(), at) };
                    }
                }
            }
        };
    }

    /// ×4 blocks in `__m128i`: SSE2, which every x86_64 CPU has.
    pub(super) mod sse2 {
        use super::BLOCK_LEN;
        use std::arch::x86_64::{
            __m128i as V, _mm_add_epi32 as add32, _mm_loadu_si128, _mm_or_si128 as or,
            _mm_set1_epi32 as set1, _mm_set_epi32, _mm_slli_epi32 as slli, _mm_srli_epi32 as srli,
            _mm_storeu_si128, _mm_unpackhi_epi32 as unpackhi32, _mm_unpackhi_epi64 as unpackhi64,
            _mm_unpacklo_epi32 as unpacklo32, _mm_unpacklo_epi64 as unpacklo64,
            _mm_xor_si128 as xor,
        };

        /// Keystream blocks per pass.
        pub const BLOCKS: usize = 4;

        #[target_feature(enable = "sse2")]
        fn lane_counters() -> V {
            _mm_set_epi32(3, 2, 1, 0)
        }

        /// `dst[at..at + 16] = src[at..at + 16] ⊕ bytes`.
        ///
        /// # Safety
        ///
        /// `src + at` must be valid for a 16-byte read and `dst + at` for
        /// a 16-byte write.
        #[inline]
        #[target_feature(enable = "sse2")]
        pub(super) unsafe fn xor_store(bytes: V, src: *const u8, dst: *mut u8, at: usize) {
            // SAFETY: the caller vouches for both 16-byte ranges; the
            // unaligned load/store intrinsics need nothing more.
            unsafe {
                let plain = _mm_loadu_si128(src.add(at).cast());
                _mm_storeu_si128(dst.add(at).cast(), xor(plain, bytes));
            }
        }

        vertical_kernel!("sse2");
    }

    /// ×8 blocks in `__m256i`: AVX2, detected at run time.
    pub(super) mod avx2 {
        use super::BLOCK_LEN;
        use std::arch::x86_64::{
            __m256i as V, _mm256_add_epi32 as add32, _mm256_castsi256_si128,
            _mm256_extracti128_si256, _mm256_or_si256 as or, _mm256_set1_epi32 as set1,
            _mm256_set_epi32, _mm256_slli_epi32 as slli, _mm256_srli_epi32 as srli,
            _mm256_unpackhi_epi32 as unpackhi32, _mm256_unpackhi_epi64 as unpackhi64,
            _mm256_unpacklo_epi32 as unpacklo32, _mm256_unpacklo_epi64 as unpacklo64,
            _mm256_xor_si256 as xor,
        };

        /// Keystream blocks per pass.
        pub const BLOCKS: usize = 8;

        #[target_feature(enable = "avx2")]
        fn lane_counters() -> V {
            _mm256_set_epi32(7, 6, 5, 4, 3, 2, 1, 0)
        }

        /// As [`super::sse2::xor_store`] for each 128-bit lane: the lower
        /// lane is block `j`, the upper lane block `j + 4`.
        ///
        /// # Safety
        ///
        /// The CPU must support AVX2; 16 bytes at `at` and at
        /// `at + 4 * BLOCK_LEN` must be valid for reads from `src` and for
        /// writes to `dst`.
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn xor_store(bytes: V, src: *const u8, dst: *mut u8, at: usize) {
            // SAFETY: the caller vouches for all four 16-byte ranges.
            unsafe {
                super::sse2::xor_store(_mm256_castsi256_si128(bytes), src, dst, at);
                let upper = _mm256_extracti128_si256::<1>(bytes);
                super::sse2::xor_store(upper, src, dst, at + 4 * BLOCK_LEN);
            }
        }

        vertical_kernel!("avx2");
    }

    /// XORs `stream`'s keystream over as many whole SIMD passes as fit in
    /// `dst`, reading `src` (`dst` itself when `None`) and advancing the
    /// stream. Returns the number of bytes done; the caller finishes the
    /// rest with the scalar block function.
    #[inline]
    pub(super) fn xor_passes(stream: &mut ChaCha20, src: Option<&[u8]>, dst: &mut [u8]) -> usize {
        let len = dst.len();
        if len < sse2::PASS {
            // Keeps a one- or two-block body at the scalar path's cost.
            return 0;
        }
        assert!(
            src.is_none_or(|src| src.len() == len),
            "src/dst length mismatch"
        );
        let mut state = stream.state(stream.counter);
        let to = dst.as_mut_ptr();
        let from = src.map_or(to.cast_const(), <[u8]>::as_ptr);
        let mut done = 0;
        macro_rules! whole_passes {
            ($width:ident) => {
                while len - done >= $width::PASS {
                    // SAFETY: the feature of `$width` is baseline (SSE2) or
                    // was detected by the caller of this macro (AVX2);
                    // `done + PASS <= len` keeps both ranges inside
                    // slices of `len` bytes (asserted above); `from` is
                    // `to` itself or a shared borrow, which cannot overlap
                    // the exclusive borrow `dst`.
                    unsafe {
                        $width::xor_pass(&state, from.add(done).cast(), to.add(done).cast());
                    }
                    state[12] = state[12].wrapping_add($width::BLOCKS as u32);
                    done += $width::PASS;
                }
            };
        }
        if is_x86_feature_detected!("avx2") {
            whole_passes!(avx2);
        }
        whole_passes!(sse2);
        stream.counter = state[12];
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn rfc_key() -> [u8; KEY_LEN] {
        let mut key = [0u8; KEY_LEN];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        key
    }

    fn rfc_nonce() -> [u8; NONCE_LEN] {
        [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0]
    }

    /// RFC 8439 §2.3.2 block-function vector, regenerated with OpenSSL 3.5:
    /// key 00..1f, nonce 000000090000004a00000000, counter 1.
    #[test]
    fn rfc8439_block_counter_1() {
        let cipher = ChaCha20::new(&rfc_key(), &rfc_nonce());
        let block = cipher.keystream_block(1);
        assert_eq!(
            hex(&block),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        );
    }

    /// Second block of the same stream (counter 2), from OpenSSL 3.5.
    #[test]
    fn rfc8439_block_counter_2() {
        let cipher = ChaCha20::new(&rfc_key(), &rfc_nonce());
        let block = cipher.keystream_block(2);
        assert_eq!(
            hex(&block),
            "0a88837739d7bf4ef8ccacb0ea2bb9d69d56c394aa351dfda5bf459f0a2e9fe8\
             e721f89255f9c486bf21679c683d4f9c5cf2fa27865526005b06ca374c86af3b"
        );
    }

    /// The well-known all-zero key/nonce first keystream block.
    #[test]
    fn zero_key_zero_nonce_block_0() {
        let cipher = ChaCha20::new(&[0u8; KEY_LEN], &[0u8; NONCE_LEN]);
        let block = cipher.keystream_block(0);
        assert_eq!(
            hex(&block),
            "76b8e0ada0f13d90405d6ae55386bd28bdd219b8a08ded1aa836efcc8b770dc7\
             da41597c5157488d7724e03fb8d84a376a43b8f41518a11cc387b669b2ee6586"
        );
    }

    #[test]
    fn streaming_matches_per_block_generation() {
        let mut stream = ChaCha20::with_counter(&rfc_key(), &rfc_nonce(), 1);
        let mut data = [0u8; 128];
        stream.apply_keystream(&mut data);
        let reference = ChaCha20::new(&rfc_key(), &rfc_nonce());
        assert_eq!(data[..64], reference.keystream_block(1));
        assert_eq!(data[64..], reference.keystream_block(2));
        assert_eq!(stream.counter(), 3);
    }

    #[test]
    fn cached_key_schedule_matches_raw_key() {
        let schedule = ChaChaKey::new(&rfc_key());
        let from_schedule = ChaCha20::from_key(&schedule, &rfc_nonce(), 1);
        let from_raw = ChaCha20::with_counter(&rfc_key(), &rfc_nonce(), 1);
        assert_eq!(from_schedule, from_raw);
        assert_eq!(
            from_schedule.keystream_block(1),
            from_raw.keystream_block(1)
        );
    }

    /// A patterned plaintext, so a kernel that drops or misplaces a source
    /// byte cannot hide behind an all-zero input.
    fn patterned(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 7 + 3) as u8).collect()
    }

    /// `src ⊕ keystream`, byte by byte, from the scalar block function.
    fn reference_xor(stream: &ChaCha20, counter: u32, src: &[u8]) -> Vec<u8> {
        let blocks = src.len().div_ceil(BLOCK_LEN) as u32;
        let keystream = (0..blocks).flat_map(|b| stream.keystream_block(counter + b));
        src.iter().zip(keystream).map(|(s, k)| s ^ k).collect()
    }

    #[test]
    fn dispatched_paths_match_the_scalar_reference() {
        #[cfg(target_arch = "x86_64")]
        let kernel = if is_x86_feature_detected!("avx2") {
            "AVX2 x8, then SSE2 x4, then scalar"
        } else {
            "SSE2 x4, then scalar (no AVX2 on this host: the x8 kernel is NOT tested)"
        };
        #[cfg(not(target_arch = "x86_64"))]
        let kernel = "scalar only (no kernel for this architecture)";
        eprintln!("chacha20 keystream dispatch on this host: {kernel}");

        let src = patterned(1100);
        for counter in [0, 1, 7, u32::MAX - 20] {
            let fresh = ChaCha20::with_counter(&rfc_key(), &rfc_nonce(), counter);
            let expected = reference_xor(&fresh, counter, &src);
            for len in 0..=src.len() {
                let end = counter + len.div_ceil(BLOCK_LEN) as u32;

                let mut in_place = src[..len].to_vec();
                let mut stream = fresh.clone();
                stream.apply_keystream(&mut in_place);
                assert_eq!(in_place, expected[..len], "in place: {counter}, {len}");
                assert_eq!(stream.counter(), end, "in place: {counter}, {len}");

                let mut fused = vec![0xEE; len];
                let mut stream = fresh.clone();
                stream.apply_keystream_into(&src[..len], &mut fused);
                assert_eq!(fused, expected[..len], "into: {counter}, {len}");
                assert_eq!(stream.counter(), end, "into: {counter}, {len}");
            }
        }
    }

    /// Both kernels called directly, whatever the dispatcher would pick
    /// on this host: `src → dst` and in place (`src == dst`).
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn each_kernel_width_matches_the_scalar_reference() {
        macro_rules! check_kernel {
            ($width:ident) => {
                let src: [u8; x86::$width::PASS] = patterned(x86::$width::PASS)
                    .try_into()
                    .expect("one pass of plaintext");
                for counter in [0, 1, 7, u32::MAX - 20, u32::MAX - 7] {
                    let stream = ChaCha20::with_counter(&rfc_key(), &rfc_nonce(), counter);
                    let expected = reference_xor(&stream, counter, &src);
                    let mut dst = [0xEE; x86::$width::PASS];
                    // SAFETY: the caller checked the CPU feature; `src` and
                    // `dst` are distinct arrays of exactly `PASS` bytes.
                    unsafe { x86::$width::xor_pass(&stream.state(counter), &src, &mut dst) };
                    assert_eq!(dst[..], expected[..], "{counter}, src to dst");
                    let mut data = src;
                    let both: *mut [u8; x86::$width::PASS] = &mut data;
                    // SAFETY: as above, with one pointer as source and
                    // destination, which the kernel allows.
                    unsafe { x86::$width::xor_pass(&stream.state(counter), both, both) };
                    assert_eq!(data[..], expected[..], "{counter}, in place");
                }
            };
        }
        check_kernel!(sse2);
        if is_x86_feature_detected!("avx2") {
            check_kernel!(avx2);
        }
    }

    /// 1 041 bytes (the benchmark's sealed 1 KB body: two 512-byte passes
    /// and a 17-byte scalar tail) against OpenSSL 3.5:
    /// `openssl enc -chacha20 -K 00..1f -iv 01000000000000090000004a00000000`
    /// over the plaintext `(7 i + 3) mod 256`.
    #[test]
    fn openssl_vector_covers_full_simd_passes() {
        let src = patterned(1041);
        let mut fused = vec![0u8; src.len()];
        ChaCha20::with_counter(&rfc_key(), &rfc_nonce(), 1).apply_keystream_into(&src, &mut fused);
        assert_eq!(
            hex(&fused),
            "13fbf6fcce1d74216b4d944ff47e14a8b4ab754fbc56f5a7af90135a041ab992\
             316895bef899a71d0fe0fe35eeb547eee648fdb9b160333d40421a4805fe89f2\
             c94252afe63152ba03cea5a0fd359cfaae6c82dce5634099cecd3c1f8da00a74\
             448b492aea3f095264c38e6c9fc34a904fe8db0fa9631b44105493572be8da47\
             5f352c531c18c83295170bde7984a6c8ee9093d262dc873140d06bd7b2527244\
             e9ec6febb3bc668601d4f03b1b73e289e91c75f3a4b8e35558bbe7c97a359532\
             2a9ace556c0215beebeabaca752daca5b641ce2d1b87c8d3f6e0975baf508c38\
             1158ab9fe83b910a67a4e0a833229f3bc73de136470841ef16eab1329880ef24\
             aa13aeffbcbbc2384736d149059373db0af3d8f687f103f3caedc0a9de887053\
             1a275afb880bdb1fee01d0cb9183e3407526b89441ecf8754f81ad1e44a3e233\
             dbe1e456d689f9455fb9d579226469606c002c0631fe0a18cca3e78547db925e\
             e34273b5b28351b304752123adaf46318118c23b57e962e9c45ed83cdd35540a\
             4955338ec82f2718adc1415521dc40074e87b582f3190f283778e40de6419f84\
             87c973fef4fe0c48a572c9230d2b841a816d808394d817683459c6b77e7e2cf9\
             004ea6dcd7977b74736b91cd64388791c37a1a6788f4aba638c3b770080e7206\
             ab8f85a5ef38a416b99feaae8ef45a577dddefb95fafa80e0dbcd67a0eca5868\
             2f60cff12755c9a2d1139f23fdbd1968441fbf6ac6f95ad66bf23cb53ba4a18b\
             458612b26677ee0e990665578e8bce1ca160a81f383f55b30178de9cc2af3e69\
             81ad487d13de4550618d0358045768fb5f71927b4571d7526132ddd55dadd4e2\
             b9cabb97150df5fa59588d5c865e28415466007b7f126d5ff465db168c031aa1\
             6202c4931d26f7688eebf26af806d9a4fec29c87e888355fc3453db2949602f8\
             bf54838fd484d89a8702457c02e604191792877d68e076fb265afb15025b570e\
             3079fe9e2c487acb40e9c2413117c18f4ec16143d21dfc7cf77eb27f3e0fc94d\
             ef97a984489364a5b355aa6a2ff7e933799f268b29e525fd478fec65d41472dc\
             dd6cd64c37d8c48b28dde31b9c94e4424468e4f6caf0d1af24fadd3a866cc830\
             9472ee1cd838df8b4b3b9ae2b1680809fdbe2b920555a7a7b8e971410988b8c4\
             88612e6c0a34ab19dd991901a2651866920ca69f078ab35e40719cbd467353d7\
             8df01d0ef07f25d611dee068e340e1c11bf97cf4cbd11565ab00e816b1380f21\
             8fcf78d0d2e6f9e0d45db711ad44f70da0d55c03af28e4de4e5f8203e249028e\
             02006acccf3513a375205cab7f3c96ec86055679d72e9f83835d3f8dad74f077\
             fd3c8504fc7907dba7f7f8506c16f9b1606f1bb69b8f5b68fc19685f18994782\
             2b9e52dfd1199286bd365561558cfb3080efbe81283c840aa4b50871ab48f2f9\
             7fea1b03c0c7c7342e3a0541fb7c11cb74"
        );
        let mut in_place = src;
        ChaCha20::with_counter(&rfc_key(), &rfc_nonce(), 1).apply_keystream(&mut in_place);
        assert_eq!(in_place, fused);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn apply_keystream_into_checks_lengths() {
        let mut stream = ChaCha20::new(&rfc_key(), &rfc_nonce());
        let mut dst = [0u8; 3];
        stream.apply_keystream_into(&[0u8; 4], &mut dst);
    }

    #[test]
    fn roundtrip_restores_plaintext() {
        let key = [0xAB; KEY_LEN];
        let nonce = [0xCD; NONCE_LEN];
        let original: Vec<u8> = (0..300).map(|i| (i * 7 % 256) as u8).collect();
        let mut data = original.clone();
        ChaCha20::apply(&key, &nonce, 5, &mut data);
        assert_ne!(data, original);
        ChaCha20::apply(&key, &nonce, 5, &mut data);
        assert_eq!(data, original);
    }

    #[test]
    fn different_nonces_produce_unrelated_streams() {
        let key = [3u8; KEY_LEN];
        let a = ChaCha20::new(&key, &[0u8; NONCE_LEN]).keystream_block(0);
        let b = ChaCha20::new(&key, &[1u8; NONCE_LEN]).keystream_block(0);
        assert_ne!(a, b);
        // Keystream blocks should differ in roughly half their bits.
        let differing: u32 = a
            .iter()
            .zip(b.iter())
            .map(|(x, y)| (x ^ y).count_ones())
            .sum();
        assert!(differing > 150, "only {differing} differing bits");
    }

    #[test]
    fn seek_repositions_stream() {
        let key = rfc_key();
        let nonce = rfc_nonce();
        let mut stream = ChaCha20::new(&key, &nonce);
        let mut first = [0u8; 64];
        stream.apply_keystream(&mut first);
        stream.seek(0);
        let mut again = [0u8; 64];
        stream.apply_keystream(&mut again);
        assert_eq!(first, again);
    }

    #[test]
    fn partial_block_lengths_are_prefixes() {
        let key = rfc_key();
        let nonce = rfc_nonce();
        let mut long = [0u8; 64];
        ChaCha20::new(&key, &nonce).apply_keystream(&mut long);
        for len in [1usize, 13, 31, 63] {
            let mut short = vec![0u8; len];
            ChaCha20::new(&key, &nonce).apply_keystream(&mut short);
            assert_eq!(short[..], long[..len], "length {len} not a prefix");
        }
    }

    #[test]
    fn debug_redacts_key_schedule() {
        let debug = format!("{:?}", ChaChaKey::new(&rfc_key()));
        assert!(debug.contains("redacted"));
        assert!(!debug.contains("0x"));
    }

    #[test]
    #[should_panic(expected = "counter overflow")]
    fn counter_overflow_panics() {
        let mut stream = ChaCha20::with_counter(&[0u8; KEY_LEN], &[0u8; NONCE_LEN], u32::MAX);
        let mut data = [0u8; 128]; // needs 2 blocks, only 1 remains
        stream.apply_keystream(&mut data);
    }

    /// At every run size — scalar, one ×4 pass, one ×8 pass, passes plus a
    /// tail — a stream one block short panics *before* writing a byte, and
    /// a stream with exactly enough blocks left is used to its last block.
    #[test]
    fn wide_path_respects_counter_budget() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        for len in [65usize, 256, 512, 1041] {
            let blocks = len.div_ceil(BLOCK_LEN) as u32;
            let src = patterned(len);

            let short = ChaCha20::with_counter(&rfc_key(), &rfc_nonce(), u32::MAX - blocks + 2);
            let mut data = src.clone();
            let mut stream = short.clone();
            let panic = catch_unwind(AssertUnwindSafe(|| stream.apply_keystream(&mut data)))
                .expect_err("one block short must panic");
            assert!(panic
                .downcast_ref::<&str>()
                .is_some_and(|message| message.contains("counter overflow")));
            assert_eq!(data, src, "len {len}: in place wrote before panicking");
            let mut dst = vec![0xEE; len];
            let mut stream = short.clone();
            catch_unwind(AssertUnwindSafe(|| {
                stream.apply_keystream_into(&src, &mut dst)
            }))
            .expect_err("one block short must panic");
            assert_eq!(
                dst,
                vec![0xEE; len],
                "len {len}: into wrote before panicking"
            );

            let first = u32::MAX - blocks + 1;
            let mut exact = ChaCha20::with_counter(&rfc_key(), &rfc_nonce(), first);
            let mut data = src.clone();
            exact.apply_keystream(&mut data);
            assert_eq!(data, reference_xor(&exact, first, &src), "len {len}");
        }
    }
}
