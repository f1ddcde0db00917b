//! Snapshot serialization: a tiny byte codec plus the sealed envelope.
//!
//! The durability subsystem (`horam-core::persist`) serializes trusted
//! client state — stash, position and permutation tables, key epochs,
//! clocks, statistics — into flat byte strings. This module provides the
//! two layers every component shares:
//!
//! * [`StateWriter`] / [`StateReader`] — a minimal little-endian codec
//!   (fixed-width integers, length-prefixed byte strings). No reflection,
//!   no self-description: reader and writer must agree on the layout,
//!   which the versioned envelope header pins.
//! * [`seal_envelope`] / [`open_envelope`] — the encrypt-then-MAC
//!   envelope around a serialized state body: a plaintext header (magic,
//!   version, kind, sequence number, body length), a ChaCha20-encrypted
//!   body, and a SipHash-2-4 tag over header and ciphertext. A snapshot
//!   at rest therefore leaks nothing beyond its size and sequence
//!   number, and any truncation, bit flip, or cross-instance replay is
//!   rejected at open time — never a panic, never wrong data.
//!
//! The envelope nonce is derived from `(kind, seq)`; callers must never
//! seal two *different* bodies under the same `(key, kind, seq)`. The
//! engines guarantee this SIV-style, deriving `seq` as a keyed PRF of
//! the body itself: distinct states get distinct nonces, and identical
//! states produce identical ciphertexts (leaking only that equality) —
//! robust even when execution forks at a restore point, where any
//! monotone counter would repeat.

use crate::chacha::{ChaCha20, NONCE_LEN};
use crate::keys::SubKeys;
use crate::siphash::SipHash24;
use std::error::Error;
use std::fmt;

/// Magic bytes opening every sealed snapshot.
pub const ENVELOPE_MAGIC: [u8; 8] = *b"HORAMSNP";
/// Envelope format version. Bumped on any layout change; readers reject
/// versions they do not know.
pub const ENVELOPE_VERSION: u32 = 10;
/// Plaintext header length: magic + version + kind + seq + body length.
const HEADER_LEN: usize = 8 + 4 + 4 + 8 + 8;
/// Authentication tag length.
const TAG_LEN: usize = 8;
/// Bytes an envelope adds to its body: the plaintext header and the tag.
pub const ENVELOPE_OVERHEAD: usize = HEADER_LEN + TAG_LEN;

/// Errors surfaced while reading or verifying persisted state.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PersistError {
    /// The byte string ended before the expected field.
    UnexpectedEof,
    /// The envelope does not start with [`ENVELOPE_MAGIC`].
    BadMagic,
    /// The envelope version is not understood by this build.
    BadVersion {
        /// Version found in the header.
        found: u32,
        /// Version this build reads.
        expected: u32,
    },
    /// The envelope kind does not match what the caller expects (e.g. a
    /// sharded manifest offered to a single-instance restore).
    WrongKind {
        /// Kind found in the header.
        found: u32,
        /// Kind the caller expected.
        expected: u32,
    },
    /// The authentication tag failed to verify: the snapshot was
    /// truncated, corrupted, or sealed under different keys.
    TagMismatch,
    /// A structurally invalid field value.
    Malformed(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::UnexpectedEof => write!(f, "unexpected end of persisted state"),
            PersistError::BadMagic => write!(f, "not a sealed snapshot (bad magic)"),
            PersistError::BadVersion { found, expected } => {
                write!(f, "snapshot version {found} (this build reads {expected})")
            }
            PersistError::WrongKind { found, expected } => {
                write!(f, "snapshot kind {found} where kind {expected} expected")
            }
            PersistError::TagMismatch => {
                write!(
                    f,
                    "snapshot failed authentication (truncated, corrupted, or wrong key)"
                )
            }
            PersistError::Malformed(reason) => write!(f, "malformed snapshot field: {reason}"),
        }
    }
}

impl Error for PersistError {}

/// Append-only little-endian state writer.
#[derive(Debug, Default)]
pub struct StateWriter {
    buf: Vec<u8>,
}

impl StateWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The serialized bytes so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a boolean as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Writes a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes an `f64` by bit pattern (exact round trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes an optional `u64` (presence byte + value).
    pub fn put_opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.put_u8(0),
            Some(v) => {
                self.put_u8(1);
                self.put_u64(v);
            }
        }
    }

    /// Writes a length-prefixed byte string.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_usize(bytes.len());
        self.buf.extend_from_slice(bytes);
    }
}

/// Cursor-based reader over a serialized state body.
#[derive(Debug)]
pub struct StateReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> StateReader<'a> {
    /// Wraps a byte string for reading.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(PersistError::UnexpectedEof);
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a boolean; values other than 0/1 are malformed.
    pub fn get_bool(&mut self) -> Result<bool, PersistError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(PersistError::Malformed(format!("bool byte {other}"))),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a `usize` stored as `u64`, rejecting values beyond the host.
    pub fn get_usize(&mut self) -> Result<usize, PersistError> {
        usize::try_from(self.get_u64()?)
            .map_err(|_| PersistError::Malformed("usize beyond host width".into()))
    }

    /// Reads an item count and checks it against the bytes left, at
    /// `min_item_bytes` (at least 1) per item, so that nothing is ever
    /// sized by a count the body cannot hold.
    ///
    /// # Errors
    ///
    /// [`PersistError::Malformed`] for a count the remaining bytes cannot
    /// hold.
    pub fn get_count(&mut self, min_item_bytes: usize) -> Result<usize, PersistError> {
        let count = self.get_usize()?;
        if count > self.remaining() / min_item_bytes {
            return Err(PersistError::Malformed(format!(
                "{count} items of at least {min_item_bytes} B exceed the {} B left",
                self.remaining()
            )));
        }
        Ok(count)
    }

    /// Reads an `f64` by bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads an optional `u64`.
    pub fn get_opt_u64(&mut self) -> Result<Option<u64>, PersistError> {
        Ok(if self.get_bool()? {
            Some(self.get_u64()?)
        } else {
            None
        })
    }

    /// Reads a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], PersistError> {
        let len = self.get_usize()?;
        self.take(len)
    }

    /// Asserts every byte was consumed (trailing garbage is malformed).
    pub fn finish(self) -> Result<(), PersistError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(PersistError::Malformed(format!(
                "{} trailing bytes",
                self.remaining()
            )))
        }
    }
}

fn envelope_nonce(kind: u32, seq: u64) -> [u8; NONCE_LEN] {
    let mut nonce = [0u8; NONCE_LEN];
    nonce[..4].copy_from_slice(&kind.to_le_bytes());
    nonce[4..].copy_from_slice(&seq.to_le_bytes());
    nonce
}

fn envelope_tag(keys: &SubKeys, header: &[u8], ciphertext: &[u8]) -> u64 {
    let mut mac = SipHash24::new(keys.mac());
    mac.write(header);
    mac.write_u64(ciphertext.len() as u64);
    mac.write(ciphertext);
    mac.finish()
}

/// Seals a serialized state body into an authenticated envelope.
///
/// `kind` distinguishes snapshot flavors (single instance, sharded
/// manifest, …); `seq` doubles as the encryption nonce, so the caller
/// must never reuse one `(keys, kind, seq)` triple for different bodies
/// (see the [module docs](self) for the PRF-of-body derivation the
/// engines use).
pub fn seal_envelope(keys: &SubKeys, kind: u32, seq: u64, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + ENVELOPE_OVERHEAD);
    out.extend_from_slice(&ENVELOPE_MAGIC);
    out.extend_from_slice(&ENVELOPE_VERSION.to_le_bytes());
    out.extend_from_slice(&kind.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    let cipher_start = out.len();
    out.extend_from_slice(body);
    ChaCha20::with_counter(keys.encryption(), &envelope_nonce(kind, seq), 0)
        .apply_keystream(&mut out[cipher_start..]);
    let tag = envelope_tag(keys, &out[..HEADER_LEN], &out[HEADER_LEN..]);
    out.extend_from_slice(&tag.to_le_bytes());
    out
}

/// Verifies and decrypts an envelope sealed by [`seal_envelope`].
///
/// Returns the plaintext body. Every malformed input — short, truncated,
/// bit-flipped, wrong version, wrong kind, wrong key — yields an error;
/// this function never panics on untrusted bytes.
///
/// # Errors
///
/// See [`PersistError`].
pub fn open_envelope(
    keys: &SubKeys,
    expected_kind: u32,
    sealed: &[u8],
) -> Result<Vec<u8>, PersistError> {
    if sealed.len() < HEADER_LEN + TAG_LEN {
        return Err(PersistError::UnexpectedEof);
    }
    let mut header = StateReader::new(&sealed[..HEADER_LEN]);
    let magic = header.take(8)?;
    if magic != ENVELOPE_MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = header.get_u32()?;
    if version != ENVELOPE_VERSION {
        return Err(PersistError::BadVersion {
            found: version,
            expected: ENVELOPE_VERSION,
        });
    }
    let kind = header.get_u32()?;
    let seq = header.get_u64()?;
    let body_len = header.get_u64()?;
    if body_len != (sealed.len() - HEADER_LEN - TAG_LEN) as u64 {
        // Truncated or padded relative to its own header. The tag check
        // below would also catch it, but failing early keeps the error
        // precise for torn-write diagnostics. The length field is not yet
        // authenticated, so it is only compared, never added to.
        return Err(PersistError::UnexpectedEof);
    }
    let body_len = body_len as usize;
    let ciphertext = &sealed[HEADER_LEN..HEADER_LEN + body_len];
    let tag = u64::from_le_bytes(
        sealed[HEADER_LEN + body_len..]
            .try_into()
            .expect("8-byte tag"),
    );
    if envelope_tag(keys, &sealed[..HEADER_LEN], ciphertext) != tag {
        return Err(PersistError::TagMismatch);
    }
    // Authenticated: kind mismatch is now a caller-level (not attacker)
    // condition, reported distinctly.
    if kind != expected_kind {
        return Err(PersistError::WrongKind {
            found: kind,
            expected: expected_kind,
        });
    }
    let mut body = ciphertext.to_vec();
    ChaCha20::with_counter(keys.encryption(), &envelope_nonce(kind, seq), 0)
        .apply_keystream(&mut body);
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::MasterKey;

    fn keys() -> SubKeys {
        MasterKey::from_bytes([5u8; 32]).derive("persist-test", 0)
    }

    #[test]
    fn writer_reader_roundtrip() {
        let mut w = StateWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX - 3);
        w.put_usize(12345);
        w.put_f64(1.25);
        w.put_opt_u64(None);
        w.put_opt_u64(Some(9));
        w.put_bytes(b"hello");
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_usize().unwrap(), 12345);
        assert_eq!(r.get_f64().unwrap(), 1.25);
        assert_eq!(r.get_opt_u64().unwrap(), None);
        assert_eq!(r.get_opt_u64().unwrap(), Some(9));
        assert_eq!(r.get_bytes().unwrap(), b"hello");
        r.finish().unwrap();
    }

    #[test]
    fn reader_rejects_eof_and_trailing_bytes() {
        let mut r = StateReader::new(&[1, 2]);
        assert_eq!(r.get_u64().unwrap_err(), PersistError::UnexpectedEof);
        let mut r = StateReader::new(&[1, 2]);
        r.get_u8().unwrap();
        assert!(matches!(r.finish(), Err(PersistError::Malformed(_))));
    }

    #[test]
    fn counts_are_bounded_by_the_bytes_left() {
        let mut w = StateWriter::new();
        w.put_usize(2);
        w.put_u64(1);
        w.put_u64(2);
        let bytes = w.into_bytes();
        assert_eq!(StateReader::new(&bytes).get_count(8).unwrap(), 2);
        assert!(matches!(
            StateReader::new(&bytes).get_count(9),
            Err(PersistError::Malformed(_))
        ));
        let huge = u64::MAX.to_le_bytes();
        assert!(matches!(
            StateReader::new(&huge).get_count(1),
            Err(PersistError::Malformed(_))
        ));
    }

    /// The body length in the header is not authenticated when it is read:
    /// a value whose `header + body + tag` sum overflows (wholly, or in
    /// its first addition, which wraps to zero) or merely disagrees with
    /// the envelope's size is a typed error, never an arithmetic panic.
    #[test]
    fn forged_body_lengths_are_typed_errors() {
        let sealed = seal_envelope(&keys(), 1, 5, b"some body bytes");
        let wraps_to_zero = u64::MAX - HEADER_LEN as u64 + 1;
        for forged in [u64::MAX, wraps_to_zero, 1 << 63] {
            let mut bad = sealed.clone();
            bad[24..32].copy_from_slice(&forged.to_le_bytes());
            assert_eq!(
                open_envelope(&keys(), 1, &bad).unwrap_err(),
                PersistError::UnexpectedEof,
                "length field {forged:#x}"
            );
        }
    }

    #[test]
    fn envelope_roundtrip() {
        let body = b"trusted state bytes".to_vec();
        let sealed = seal_envelope(&keys(), 3, 17, &body);
        assert_eq!(open_envelope(&keys(), 3, &sealed).unwrap(), body);
    }

    /// The snapshot envelope, pinned like `seal::tests::sealed_bytes_are_pinned`:
    /// ciphertext recorded from the scalar-keystream build (PR 11); the tag
    /// covers the header, so it was re-recorded at `ENVELOPE_VERSION` 10.
    #[test]
    fn envelope_bytes_are_pinned() {
        let body: Vec<u8> = (0..1041).map(|i| (i * 7 + 3) as u8).collect();
        let sealed = seal_envelope(&keys(), 3, 0x0123_4567_89ab_cdef, &body);
        assert_eq!(sealed.len(), HEADER_LEN + 1041 + TAG_LEN);
        let ciphertext = &sealed[HEADER_LEN..HEADER_LEN + 1041];
        assert_eq!(
            ciphertext[..16],
            0x07ff8d40_885812d8_1593f5ed_cb054111_u128.to_be_bytes()
        );
        assert_eq!(
            ciphertext[1025..],
            0xe7cc11a3_003d83b8_4ebee45e_edeaa715_u128.to_be_bytes()
        );
        assert_eq!(
            sealed[HEADER_LEN + 1041..],
            0xf7f9_2e2c_3e0f_e3e0_u64.to_le_bytes()
        );
        assert_eq!(open_envelope(&keys(), 3, &sealed).unwrap(), body);
    }

    #[test]
    fn envelope_hides_the_body() {
        let body = b"a very secret stash".to_vec();
        let sealed = seal_envelope(&keys(), 1, 0, &body);
        let window = sealed.windows(body.len()).any(|w| w == body.as_slice());
        assert!(!window, "plaintext leaked into the envelope");
    }

    #[test]
    fn truncation_at_every_boundary_errors() {
        let sealed = seal_envelope(&keys(), 1, 5, b"some body bytes to cover");
        for cut in 0..sealed.len() {
            assert!(
                open_envelope(&keys(), 1, &sealed[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
    }

    #[test]
    fn corruption_and_wrong_key_and_kind_error() {
        let sealed = seal_envelope(&keys(), 2, 9, b"payload");
        for i in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[i] ^= 1;
            assert!(open_envelope(&keys(), 2, &bad).is_err(), "flip at {i}");
        }
        let other = MasterKey::from_bytes([6u8; 32]).derive("persist-test", 0);
        assert_eq!(
            open_envelope(&other, 2, &sealed).unwrap_err(),
            PersistError::TagMismatch
        );
        assert_eq!(
            open_envelope(&keys(), 4, &sealed).unwrap_err(),
            PersistError::WrongKind {
                found: 2,
                expected: 4
            }
        );
    }

    #[test]
    fn rng_seek_resumes_the_stream() {
        use crate::rng::DeterministicRng;
        use rand::RngCore;
        let mut rng = DeterministicRng::from_u64_seed(77);
        let mut burn = vec![0u8; 133];
        rng.fill_bytes(&mut burn);
        let (counter, cursor) = rng.stream_pos();
        let mut expected = vec![0u8; 200];
        rng.fill_bytes(&mut expected);

        let mut resumed = DeterministicRng::from_u64_seed(77);
        resumed.seek_to(counter, cursor);
        let mut got = vec![0u8; 200];
        resumed.fill_bytes(&mut got);
        assert_eq!(expected, got);

        // Fresh-state position also round-trips.
        let fresh = DeterministicRng::from_u64_seed(3);
        let (c0, k0) = fresh.stream_pos();
        let mut seeked = DeterministicRng::from_u64_seed(3);
        seeked.seek_to(c0, k0);
        let mut a = DeterministicRng::from_u64_seed(3);
        assert_eq!(a.next_u64(), seeked.next_u64());
    }
}
