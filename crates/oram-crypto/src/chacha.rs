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
//! A memory-tree path access opens and then seals every block of a
//! root-to-leaf path — ≈ 40 bodies of 1 041 bytes each way in the paper's
//! geometry, 32 of 81 bytes in the serving one — and the rebuild stream
//! every physical slot once per shuffle period, so the keystream is the top
//! line of a request's CPU cost. All of it is byte-identical to the scalar
//! block function:
//!
//! * **cached key schedule** — [`ChaChaKey`] parses the 32 key bytes into
//!   state words once; long-lived callers (`BlockSealer`) build streams
//!   from it instead of re-parsing the raw key per block;
//! * **one explicit SIMD kernel, lanes across bodies** — on x86_64 one
//!   `std::arch` *vertical* kernel (the private `x86` module) keeps state
//!   word `i` of N keystream blocks in vector `i`, runs the 20 rounds on
//!   all N at once, adds the initial state, transposes 4×4 in registers
//!   and XORs each block into its 64 bytes. Rows 0–11 of the state
//!   (constants, key) are shared by the lanes; rows 12–15 (counter, nonce)
//!   and the data pointer are **per lane**, so the N blocks of a *pass*
//!   need not belong to one stream. One kernel source is instantiated at
//!   three widths, the widest the host has: `__m512i` × 16 blocks with
//!   AVX-512F (each rotate one `vprold`), `__m256i` × 8 with AVX2, and
//!   `__m128i` × 4 on the SSE2 every x86_64 has;
//! * **the scheduler** ([`ChaChaKey::apply_keystreams`], and a single
//!   [`ChaCha20::apply_keystream`] as a batch of one) cuts every body into
//!   one-block *jobs* `(body, counter)`, in order. A body that still has a
//!   whole pass of blocks fills passes by itself — "same nonce, counters
//!   `c..c + N`, pointers 64 bytes apart" is just one way to fill the
//!   lanes; the blocks it has left (a 1 041-byte body's 17-byte tail, both
//!   blocks of an 81-byte body) wait for jobs of the following bodies and
//!   share passes with them. A job shorter than a block never lets the
//!   kernel near its neighbours' bytes: its lane runs on a scratch block
//!   and the job takes the bytes it needs from that. Lane assignment
//!   depends only on the bodies' order and lengths;
//! * **scalar = reference + remainder** — the fewer-than-N jobs left when
//!   the bodies run out take one more pass (empty lanes are discarded), or
//!   the scalar block function when there is only one: a pass costs its
//!   full width, 1.6–2 scalar blocks, however few lanes are used. So a
//!   *single* 81-byte seal is one pass with 14 empty lanes at ×16 — but 32
//!   of them in one batch are four full passes. The scalar function is
//!   also what every kernel test compares against, and the whole path on
//!   other architectures. The kernel is explicit because plain `u32` lane
//!   loops are *not* auto-vectorized: they measured 1.93 ns/B, scalar
//!   speed.

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

    /// The keystream kernel this host dispatches, for logs: a runner
    /// without AVX-512F or AVX2 should say so, not silently run narrower.
    pub fn dispatch() -> &'static str {
        #[cfg(target_arch = "x86_64")]
        match x86::detected() {
            x86::Width::X16 => "AVX-512F x16 passes, scalar remainder",
            x86::Width::X8 => {
                "AVX2 x8 passes, scalar remainder (no AVX-512F on this host: the x16 kernel is NOT used)"
            }
            x86::Width::X4 => {
                "SSE2 x4 passes, scalar remainder (no AVX-512F or AVX2 on this host: the x16 and x8 kernels are NOT used)"
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        "scalar only (no kernel for this architecture)"
    }

    /// XORs every body with the keystream of its own nonce, each from
    /// block counter 0 — the multi-buffer entry point. Byte-identical to
    /// `ChaCha20::from_key(self, &nonce, 0).apply_keystream(body)` per
    /// body in order, but the SIMD lanes run *across* the bodies (see the
    /// [module docs](self)), so many short bodies cost what one long one
    /// does.
    ///
    /// # Panics
    ///
    /// Panics before writing to a body longer than one nonce's keystream
    /// (256 GiB).
    pub fn apply_keystreams<'a>(
        &self,
        bodies: impl IntoIterator<Item = ([u8; NONCE_LEN], &'a mut [u8])>,
    ) {
        let streams = bodies.into_iter().map(|(nonce, data)| {
            assert!(
                data.len().div_ceil(BLOCK_LEN) as u64 <= 1 << 32,
                "chacha20 counter overflow: keystream exhausted for this (key, nonce)"
            );
            let [n0, n1, n2] = nonce_words(&nonce);
            Stream {
                tail: [0, n0, n1, n2],
                data,
            }
        });
        xor_streams(&self.words, streams);
    }
}

/// The three little-endian state words of a nonce.
fn nonce_words(nonce: &[u8; NONCE_LEN]) -> [u32; 3] {
    let mut words = [0u32; 3];
    for (i, word) in words.iter_mut().enumerate() {
        *word = u32::from_le_bytes(nonce[4 * i..4 * i + 4].try_into().expect("4-byte chunk"));
    }
    words
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
        Self {
            key: key.words,
            nonce: nonce_words(nonce),
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

    /// Produces the 64-byte keystream block for an explicit counter value,
    /// without touching the stream position.
    pub fn keystream_block(&self, counter: u32) -> [u8; BLOCK_LEN] {
        let [n0, n1, n2] = self.nonce;
        block(&self.key, [counter, n0, n1, n2])
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
        let blocks = data.len().div_ceil(BLOCK_LEN) as u64;
        // Before any byte is written: an exhausted stream must not leave a
        // half-encrypted buffer behind.
        assert!(
            u64::from(self.counter) + blocks <= 1 << 32,
            "chacha20 counter overflow: keystream exhausted for this (key, nonce)"
        );
        let tail = [self.counter, self.nonce[0], self.nonce[1], self.nonce[2]];
        // A batch of one stream.
        xor_streams(&self.key, [Stream { tail, data }]);
        self.counter = self.counter.wrapping_add(blocks as u32);
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

/// The scalar block function: 20 rounds over the initial state —
/// constants, `key`, then `tail` (rows 12–15: the block counter and the
/// three nonce words) — plus that state, serialized little-endian. The
/// reference every kernel is tested against, the remainder path, and the
/// whole path off x86_64.
fn block(key: &[u32; 8], tail: [u32; 4]) -> [u8; BLOCK_LEN] {
    let mut state = [0u32; 16];
    state[..4].copy_from_slice(&CONSTANTS);
    state[4..12].copy_from_slice(key);
    state[12..].copy_from_slice(&tail);
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

/// One keystream to apply: `data ^= keystream` for the stream whose first
/// block has state rows 12–15 `tail` (counter, then nonce); later blocks
/// count up from it.
struct Stream<'a> {
    tail: [u32; 4],
    data: &'a mut [u8],
}

/// `data ^= keystream`, for at most one block.
fn xor_keystream(keystream: &[u8; BLOCK_LEN], data: &mut [u8]) {
    for (byte, k) in data.iter_mut().zip(keystream) {
        *byte ^= k;
    }
}

/// Applies every stream's keystream, taking SIMD lanes *across* streams:
/// the streams are cut into one-block jobs in order — stream 0's blocks,
/// then stream 1's, … — and each kernel pass takes the next jobs, one per
/// lane, whichever streams they belong to. Which lane a byte lands in
/// depends on the streams' order and lengths only. What is left at the end
/// (fewer jobs than lanes) takes one more pass, or the scalar block
/// function when that is cheaper; off x86_64 every job is scalar.
///
/// Callers check each stream's counter budget; counters here wrap.
fn xor_streams<'a>(key: &[u32; 8], streams: impl IntoIterator<Item = Stream<'a>>) {
    #[cfg(target_arch = "x86_64")]
    x86::xor_streams(key, streams);
    #[cfg(not(target_arch = "x86_64"))]
    for Stream { mut tail, data } in streams {
        for data in data.chunks_mut(BLOCK_LEN) {
            xor_keystream(&block(key, tail), data);
            tail[0] = tail[0].wrapping_add(1);
        }
    }
}

/// The explicit SIMD keystream kernel — all of this module's `unsafe`.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{block, xor_keystream, Stream, BLOCK_LEN, CONSTANTS};
    use std::marker::PhantomData;

    /// What one kernel pass works on, one keystream block per lane `j`:
    /// state rows 12–15 are `tail[..][j]` (rows 0–11 — constants and key —
    /// are shared), and the block is XORed into the 64 bytes at `data[j]`.
    /// A single stream is the case "same nonce, counters `c..c + N`,
    /// pointers 64 bytes apart"; a batch of short bodies puts a different
    /// nonce and an unrelated pointer in every lane.
    pub(super) struct Lanes<const N: usize> {
        pub tail: [[u32; N]; 4],
        /// Added to every lane's block counter (`tail[0]`, wrapping): a
        /// stream's next pass is this one store away. (Rewriting the
        /// counter row word by word right before the kernel loads it as a
        /// vector costs a store-forwarding stall per pass, ≈ 4 %.)
        pub advance: u32,
        pub data: [*mut u8; N],
    }

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
            /// `data[j] ^= keystream block j` for every lane `j` of
            /// `lanes`, under `key`. Vector `i` holds state word `i` of
            /// every lane's block, one block per 32-bit lane.
            ///
            /// # Safety
            ///
            /// The CPU must support the enabled target feature. Every
            /// `data[j]` must be valid for reads and writes of `BLOCK_LEN`
            /// bytes, and no two lanes' bytes may overlap.
            #[target_feature(enable = $feature)]
            pub unsafe fn xor_pass(key: &[u32; 8], lanes: &Lanes<BLOCKS>) {
                let mut start = [set1(0); 16];
                for (row, word) in start.iter_mut().zip(CONSTANTS.iter().chain(key)) {
                    *row = set1(*word as i32);
                }
                for (row, words) in start[12..].iter_mut().zip(&lanes.tail) {
                    // SAFETY: `words` is a `[u32; BLOCKS]`, exactly the
                    // bytes of one vector, and the load is unaligned.
                    *row = unsafe { loadu(words.as_ptr().cast()) };
                }
                start[12] = add32(start[12], set1(lanes.advance as i32));

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
                // bytes of lane `j + 4 q`'s block in 128-bit quarter `q`,
                // at byte `16 * g` of the block.
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
                        // SAFETY: `16 * g + 16 <= BLOCK_LEN`, and
                        // `xor_store` touches those 16 bytes of lanes
                        // `j + 4 q`, which the caller vouches for.
                        unsafe { xor_store(column, &lanes.data, j, 16 * g) };
                    }
                }
            }
        };
    }

    /// ×4 blocks in `__m128i`: SSE2, which every x86_64 CPU has.
    pub(super) mod sse2 {
        use super::{Lanes, CONSTANTS};
        use std::arch::x86_64::{
            __m128i as V, _mm_add_epi32 as add32, _mm_loadu_si128 as loadu, _mm_or_si128 as or,
            _mm_set1_epi32 as set1, _mm_slli_epi32 as slli, _mm_srli_epi32 as srli,
            _mm_storeu_si128, _mm_unpackhi_epi32 as unpackhi32, _mm_unpackhi_epi64 as unpackhi64,
            _mm_unpacklo_epi32 as unpacklo32, _mm_unpacklo_epi64 as unpacklo64,
            _mm_xor_si128 as xor,
        };

        /// Keystream blocks per pass.
        pub const BLOCKS: usize = 4;

        /// `data[at..at + 16] ^= bytes`.
        ///
        /// # Safety
        ///
        /// `data + at` must be valid for a 16-byte read and write.
        #[inline]
        #[target_feature(enable = "sse2")]
        pub(super) unsafe fn xor16(bytes: V, data: *mut u8, at: usize) {
            // SAFETY: the caller vouches for the 16 bytes; the unaligned
            // load/store intrinsics need nothing more.
            unsafe {
                let plain = loadu(data.add(at).cast());
                _mm_storeu_si128(data.add(at).cast(), xor(plain, bytes));
            }
        }

        /// [`xor16`] on lane `j`.
        ///
        /// # Safety
        ///
        /// 16 bytes at `at` must be valid for reads and writes at
        /// `data[j]`.
        #[inline]
        #[target_feature(enable = "sse2")]
        unsafe fn xor_store(bytes: V, data: &[*mut u8; BLOCKS], j: usize, at: usize) {
            // SAFETY: exactly the caller's guarantee.
            unsafe { xor16(bytes, data[j], at) };
        }

        vertical_kernel!("sse2");
    }

    /// ×16 blocks in `__m512i`: AVX-512F, detected at run time. At this
    /// width `rotl!` compiles to one `vprold`.
    pub(super) mod avx512 {
        use super::sse2::xor16;
        use super::{Lanes, CONSTANTS};
        use std::arch::x86_64::{
            __m512i as V, _mm512_add_epi32 as add32, _mm512_castsi512_si128,
            _mm512_extracti32x4_epi32, _mm512_loadu_si512 as loadu, _mm512_or_si512 as or,
            _mm512_set1_epi32 as set1, _mm512_slli_epi32 as slli, _mm512_srli_epi32 as srli,
            _mm512_unpackhi_epi32 as unpackhi32, _mm512_unpackhi_epi64 as unpackhi64,
            _mm512_unpacklo_epi32 as unpacklo32, _mm512_unpacklo_epi64 as unpacklo64,
            _mm512_xor_si512 as xor,
        };

        /// Keystream blocks per pass.
        pub const BLOCKS: usize = 16;

        /// As [`super::sse2::xor16`] for each 128-bit quarter `q`, which
        /// is lane `j + 4 q`.
        ///
        /// # Safety
        ///
        /// The CPU must support AVX-512F; 16 bytes at `at` must be valid
        /// for reads and writes at `data[j]`, `data[j + 4]`, `data[j + 8]`
        /// and `data[j + 12]`.
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn xor_store(bytes: V, data: &[*mut u8; BLOCKS], j: usize, at: usize) {
            // SAFETY: the caller vouches for the four 16-byte ranges.
            unsafe {
                xor16(_mm512_castsi512_si128(bytes), data[j], at);
                xor16(_mm512_extracti32x4_epi32::<1>(bytes), data[j + 4], at);
                xor16(_mm512_extracti32x4_epi32::<2>(bytes), data[j + 8], at);
                xor16(_mm512_extracti32x4_epi32::<3>(bytes), data[j + 12], at);
            }
        }

        vertical_kernel!("avx512f");
    }

    /// ×8 blocks in `__m256i`: AVX2, detected at run time.
    pub(super) mod avx2 {
        use super::sse2::xor16;
        use super::{Lanes, CONSTANTS};
        use std::arch::x86_64::{
            __m256i as V, _mm256_add_epi32 as add32, _mm256_castsi256_si128,
            _mm256_extracti128_si256, _mm256_loadu_si256 as loadu, _mm256_or_si256 as or,
            _mm256_set1_epi32 as set1, _mm256_slli_epi32 as slli, _mm256_srli_epi32 as srli,
            _mm256_unpackhi_epi32 as unpackhi32, _mm256_unpackhi_epi64 as unpackhi64,
            _mm256_unpacklo_epi32 as unpacklo32, _mm256_unpacklo_epi64 as unpacklo64,
            _mm256_xor_si256 as xor,
        };

        /// Keystream blocks per pass.
        pub const BLOCKS: usize = 8;

        /// As [`super::sse2::xor16`] for each 128-bit half: the lower
        /// half is lane `j`, the upper half lane `j + 4`.
        ///
        /// # Safety
        ///
        /// The CPU must support AVX2; 16 bytes at `at` must be valid for
        /// reads and writes at `data[j]` and at `data[j + 4]`.
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn xor_store(bytes: V, data: &[*mut u8; BLOCKS], j: usize, at: usize) {
            // SAFETY: the caller vouches for both 16-byte ranges.
            unsafe {
                xor16(_mm256_castsi256_si128(bytes), data[j], at);
                xor16(_mm256_extracti128_si256::<1>(bytes), data[j + 4], at);
            }
        }

        vertical_kernel!("avx2");
    }

    /// Fewest jobs worth a kernel pass of their own. A pass costs its full
    /// width however few lanes carry a job: medians of 41 interleaved
    /// rounds on a 2-vCPU AVX-512 x86_64 host put a scalar block at
    /// 163–169 ns and a pass at 1.69–1.72 of them (×16), 1.63–1.67 (×8)
    /// and 1.94–1.97 (×4). Under two at every width, so two leftover jobs
    /// take a pass (one 81-byte body: 0.82–0.91× the time of two scalar
    /// blocks) and only a single one takes the scalar function.
    const MIN_PASS_JOBS: usize = 2;

    /// The kernel widths, in blocks per pass.
    #[derive(Debug, PartialEq)]
    pub(super) enum Width {
        X16,
        X8,
        X4,
    }

    /// The widest kernel a CPU with these features can run — a pure
    /// function, so every feature set is testable on any host.
    pub(super) fn width(avx512f: bool, avx2: bool) -> Width {
        if avx512f {
            Width::X16
        } else if avx2 {
            Width::X8
        } else {
            Width::X4
        }
    }

    /// [`width`] on this CPU.
    pub(super) fn detected() -> Width {
        width(
            is_x86_feature_detected!("avx512f"),
            is_x86_feature_detected!("avx2"),
        )
    }

    /// [`super::xor_streams`] on the widest kernel this CPU has.
    pub(super) fn xor_streams<'a>(key: &[u32; 8], streams: impl IntoIterator<Item = Stream<'a>>) {
        match detected() {
            // SAFETY: `detected` saw AVX-512F.
            Width::X16 => unsafe { Scheduler::new(key, avx512::xor_pass) }.run(streams),
            // SAFETY: `detected` saw AVX2.
            Width::X8 => unsafe { Scheduler::new(key, avx2::xor_pass) }.run(streams),
            // SAFETY: SSE2 is part of the x86_64 baseline.
            Width::X4 => unsafe { Scheduler::new(key, sse2::xor_pass) }.run(streams),
        }
    }

    /// The jobs waiting for a pass of an `N`-lane kernel. Job `j` — at most
    /// one block of one stream — is lane `j` of `lanes`: its state rows
    /// 12–15 are `lanes.tail[..][j]`, and it XORs the `len[j]` bytes at
    /// `lanes.data[j]`, which are bytes of the `data` slice of a
    /// [`Stream`] given to [`push_stream`](Self::push_stream) that no other
    /// job covers.
    pub(super) struct Scheduler<'a, const N: usize> {
        key: [u32; 8],
        kernel: unsafe fn(&[u32; 8], &Lanes<N>),
        lanes: Lanes<N>,
        len: [u8; N],
        filled: usize,
        /// The streams' `&'a mut [u8]`, held as the pointers above until
        /// their jobs have run.
        _jobs: PhantomData<&'a mut [u8]>,
    }

    impl<'a, const N: usize> Scheduler<'a, N> {
        /// An empty scheduler over `kernel`.
        ///
        /// # Safety
        ///
        /// The CPU must support the target feature `kernel` was compiled
        /// for.
        pub(super) unsafe fn new(key: &[u32; 8], kernel: unsafe fn(&[u32; 8], &Lanes<N>)) -> Self {
            Self {
                key: *key,
                kernel,
                lanes: Lanes {
                    tail: [[0; N]; 4],
                    advance: 0,
                    data: [std::ptr::null_mut(); N],
                },
                len: [0; N],
                filled: 0,
                _jobs: PhantomData,
            }
        }

        /// Runs every stream, in order.
        pub(super) fn run(&mut self, streams: impl IntoIterator<Item = Stream<'a>>) {
            for stream in streams {
                self.push_stream(stream);
            }
            self.finish();
        }

        /// Runs the whole passes `stream` fills by itself — lane `j` is the
        /// stream's next block but `j`: consecutive counters, pointers 64
        /// bytes apart — and queues the blocks it has left after that,
        /// fewer than `N`, as jobs.
        pub(super) fn push_stream(&mut self, Stream { tail, data }: Stream<'a>) {
            let len = data.len();
            let data = data.as_mut_ptr();
            let [counter, nonce @ ..] = tail;
            let mut at = 0;
            if len >= N * BLOCK_LEN {
                let mut lanes = Lanes {
                    tail: [
                        std::array::from_fn(|j| counter.wrapping_add(j as u32)),
                        [nonce[0]; N],
                        [nonce[1]; N],
                        [nonce[2]; N],
                    ],
                    advance: 0,
                    data: [data; N],
                };
                while len - at >= N * BLOCK_LEN {
                    lanes.advance = (at / BLOCK_LEN) as u32;
                    for (j, lane) in lanes.data.iter_mut().enumerate() {
                        // Inside the slice, so the offset cannot wrap.
                        *lane = data.wrapping_add(at + j * BLOCK_LEN);
                    }
                    // SAFETY: `new`'s caller vouched for the CPU feature.
                    // Lane `j` covers bytes `at + 64 j .. at + 64 (j + 1)`
                    // of the exclusive borrow `data`, which
                    // `at + N * BLOCK_LEN <= len` keeps inside it, so the
                    // lanes do not overlap each other.
                    unsafe { (self.kernel)(&self.key, &lanes) };
                    at += N * BLOCK_LEN;
                }
            }
            while at < len {
                let j = self.filled;
                self.lanes.tail[0][j] = counter.wrapping_add((at / BLOCK_LEN) as u32);
                for (row, word) in self.lanes.tail[1..].iter_mut().zip(nonce) {
                    row[j] = word;
                }
                self.len[j] = BLOCK_LEN.min(len - at) as u8;
                // Inside the slice (`at < len`), so the offset cannot wrap.
                self.lanes.data[j] = data.wrapping_add(at);
                self.filled += 1;
                if self.filled == N {
                    self.pass();
                }
                at += BLOCK_LEN;
            }
        }

        /// Runs what is queued: one more pass, or the scalar block
        /// function when that is cheaper.
        pub(super) fn finish(&mut self) {
            if self.filled >= MIN_PASS_JOBS {
                self.pass();
            }
            for j in 0..self.filled {
                let keystream = block(&self.key, self.lanes.tail.map(|row| row[j]));
                // SAFETY: `j < filled`, so this is a queued job's pointer
                // and length (see the struct's invariant), the job has not
                // run, and `'a` has not ended.
                xor_keystream(&keystream, unsafe {
                    job_bytes(self.lanes.data[j], self.len[j])
                });
            }
            self.filled = 0;
        }

        /// One kernel pass over the queued jobs, which empties the queue.
        /// A whole-block job is XORed in place. A shorter one (a body's
        /// last block) has its lane XOR a block of zeros — which leaves
        /// the lane's keystream block there — and takes the bytes it needs
        /// from that, so the kernel never touches a byte outside a job's
        /// slice. Lanes without a job do the same and are discarded.
        fn pass(&mut self) {
            let mut keystream = [[0u8; BLOCK_LEN]; N];
            // From here to the kernel's return `keystream` is reached only
            // through this pointer.
            let keystream_at: *mut [u8; BLOCK_LEN] = keystream.as_mut_ptr();
            // The jobs' own pointers; in `lanes`, a lane that does not
            // cover a whole block is pointed at its element of `keystream`.
            let data = self.lanes.data;
            for j in 0..N {
                if j >= self.filled || usize::from(self.len[j]) < BLOCK_LEN {
                    self.lanes.data[j] = keystream_at.wrapping_add(j).cast();
                }
            }
            // SAFETY: `new`'s caller vouched for the CPU feature. Every
            // lane's `data` is `BLOCK_LEN` readable and writable bytes — a
            // whole-block job's, which no other job covers, or the lane's
            // own element of `keystream` — so no two lanes overlap.
            unsafe { (self.kernel)(&self.key, &self.lanes) };
            for (j, keystream) in keystream.iter().enumerate().take(self.filled) {
                if usize::from(self.len[j]) < BLOCK_LEN {
                    // SAFETY: as in `finish`.
                    xor_keystream(keystream, unsafe { job_bytes(data[j], self.len[j]) });
                }
            }
            self.filled = 0;
        }
    }

    /// A job's bytes as a slice.
    ///
    /// # Safety
    ///
    /// `data` must be valid for reads and writes of `len` bytes that
    /// nothing else accesses while the slice lives.
    unsafe fn job_bytes<'s>(data: *mut u8, len: u8) -> &'s mut [u8] {
        // SAFETY: exactly the caller's guarantee.
        unsafe { std::slice::from_raw_parts_mut(data, usize::from(len)) }
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
        eprintln!(
            "chacha20 keystream dispatch on this host: {}",
            ChaChaKey::dispatch()
        );

        let src = patterned(1100);
        for counter in [0, 1, 7, u32::MAX - 20] {
            let fresh = ChaCha20::with_counter(&rfc_key(), &rfc_nonce(), counter);
            let expected = reference_xor(&fresh, counter, &src);
            for len in 0..=src.len() {
                let end = counter + len.div_ceil(BLOCK_LEN) as u32;

                let mut data = src[..len].to_vec();
                let mut stream = fresh.clone();
                stream.apply_keystream(&mut data);
                assert_eq!(data, expected[..len], "{counter}, {len}");
                assert_eq!(stream.counter(), end, "{counter}, {len}");
            }
        }
    }

    /// Every kernel width this host can run, driven directly, whatever the
    /// dispatcher would pick, against the scalar block function, on the
    /// two shapes a pass takes: one stream (consecutive counters up to the
    /// wrap, pointers 64 bytes apart) and lanes across bodies (a different
    /// nonce and counter in every lane, unrelated buffers, short last
    /// blocks, lanes with no job). Prints the widths it ran.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn each_kernel_width_matches_the_scalar_reference() {
        fn check<const N: usize>(kernel: unsafe fn(&[u32; 8], &x86::Lanes<N>)) {
            let key = ChaChaKey::new(&rfc_key());
            let src = patterned(2 * N * BLOCK_LEN + 17);
            for counter in [0, 1, 7, u32::MAX - 20, u32::MAX - 3] {
                let stream = ChaCha20::from_key(&key, &rfc_nonce(), counter);
                let expected: Vec<u8> = (0..2 * N as u32 + 1)
                    .flat_map(|b| stream.keystream_block(counter.wrapping_add(b)))
                    .zip(&src)
                    .map(|(k, s)| k ^ s)
                    .collect();
                let [n0, n1, n2] = stream.nonce;
                let mut data = src.clone();
                // SAFETY: the caller checked the CPU feature.
                let mut scheduler = unsafe { x86::Scheduler::new(key.words(), kernel) };
                scheduler.run([Stream {
                    tail: [counter, n0, n1, n2],
                    data: &mut data,
                }]);
                assert_eq!(data, expected, "one stream from counter {counter}");
            }

            // Lanes across bodies: job `j` has its own nonce, counter and
            // length; every job count from none to two passes' worth is
            // tried, so the last pass has every number of empty lanes.
            let lens = [64usize, 17, 64, 1, 63, 64, 0, 33];
            for count in 0..=2 * N {
                let mut bodies: Vec<Vec<u8>> = (0..count)
                    .map(|j| patterned(lens[j % 8] + j)[j..].to_vec())
                    .collect();
                let tail = |j: usize| [j as u32 * 3, 0xA0 + j as u32, !(j as u32), 7];
                let expected: Vec<Vec<u8>> = bodies
                    .iter()
                    .enumerate()
                    .map(|(j, body)| {
                        let keystream = block(key.words(), tail(j));
                        body.iter().zip(keystream).map(|(s, k)| s ^ k).collect()
                    })
                    .collect();
                // SAFETY: the caller checked the CPU feature.
                let mut scheduler = unsafe { x86::Scheduler::new(key.words(), kernel) };
                for (j, body) in bodies.iter_mut().enumerate() {
                    scheduler.push_stream(Stream {
                        tail: tail(j),
                        data: body,
                    });
                }
                scheduler.finish();
                assert_eq!(bodies, expected, "{count} jobs on {N} lanes");
            }
        }
        let mut ran = vec!["SSE2 x4"];
        check(x86::sse2::xor_pass);
        if is_x86_feature_detected!("avx2") {
            check(x86::avx2::xor_pass);
            ran.push("AVX2 x8");
        }
        if is_x86_feature_detected!("avx512f") {
            check(x86::avx512::xor_pass);
            ran.push("AVX-512F x16");
        }
        eprintln!(
            "chacha20 kernel widths tested on this host: {}",
            ran.join(", ")
        );
    }

    /// The width choice on every (AVX-512F, AVX2) combination, whatever
    /// this host has: the widest kernel the features allow.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn dispatch_picks_the_widest_supported_kernel() {
        use x86::Width::{X16, X4, X8};
        for (avx512f, avx2, expected) in [
            (true, true, X16),
            (true, false, X16),
            (false, true, X8),
            (false, false, X4),
        ] {
            assert_eq!(
                x86::width(avx512f, avx2),
                expected,
                "avx512f {avx512f}, avx2 {avx2}"
            );
        }
    }

    /// `apply_keystreams` against one scalar stream per body, for every
    /// count 0..=19 of equal-length bodies at the lengths the stack seals,
    /// and for a batch whose bodies all differ in length.
    #[test]
    fn keystreams_across_bodies_match_one_stream_per_body() {
        let key = ChaChaKey::new(&rfc_key());
        let nonce = |i: usize| {
            let mut nonce = rfc_nonce();
            nonce[0] = i as u8;
            nonce[11] = 0x80 | i as u8;
            nonce
        };
        let check = |lens: &[usize]| {
            let mut bodies: Vec<Vec<u8>> = lens.iter().map(|&len| patterned(len)).collect();
            let expected: Vec<Vec<u8>> = bodies
                .iter()
                .enumerate()
                .map(|(i, body)| reference_xor(&ChaCha20::from_key(&key, &nonce(i), 0), 0, body))
                .collect();
            key.apply_keystreams(
                bodies
                    .iter_mut()
                    .enumerate()
                    .map(|(i, body)| (nonce(i), &mut body[..])),
            );
            assert_eq!(bodies, expected, "lengths {lens:?}");
        };
        for len in [0usize, 1, 17, 63, 64, 65, 81, 128, 529, 1041] {
            for count in 0..=19 {
                check(&vec![len; count]);
            }
        }
        check(&[81, 0, 1041, 64, 1, 65, 529, 63, 128, 17, 1041, 81, 2]);
    }

    /// 1 041 bytes (the benchmark's sealed 1 KB body: two 512-byte passes
    /// and a 17-byte scalar tail) against OpenSSL 3.5:
    /// `openssl enc -chacha20 -K 00..1f -iv 01000000000000090000004a00000000`
    /// over the plaintext `(7 i + 3) mod 256`.
    #[test]
    fn openssl_vector_covers_full_simd_passes() {
        let mut data = patterned(1041);
        ChaCha20::with_counter(&rfc_key(), &rfc_nonce(), 1).apply_keystream(&mut data);
        assert_eq!(
            hex(&data),
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

    /// At every run size — a remainder of two jobs, a padded pass, one
    /// whole ×8 pass, one whole ×16 pass, passes plus a tail at each width
    /// — a stream one block short panics *before* writing a byte, and a
    /// stream with exactly enough blocks left is used to its last block.
    #[test]
    fn wide_path_respects_counter_budget() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        for len in [65usize, 256, 512, 1024, 1041, 2065] {
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
            assert_eq!(data, src, "len {len}: wrote before panicking");

            let first = u32::MAX - blocks + 1;
            let mut exact = ChaCha20::with_counter(&rfc_key(), &rfc_nonce(), first);
            let mut data = src.clone();
            exact.apply_keystream(&mut data);
            assert_eq!(data, reference_xor(&exact, first, &src), "len {len}");
        }
    }
}
