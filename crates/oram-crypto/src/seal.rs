//! Authenticated block sealing (encrypt-then-MAC).
//!
//! Every block leaving the trusted control layer — whether to the in-memory
//! Path ORAM tree or to the flat storage layer — is *sealed*: its payload is
//! encrypted with ChaCha20 under a per-epoch key and authenticated together
//! with its header by a SipHash-2-4 tag. Dummy blocks are sealed through the
//! identical code path, so real and dummy ciphertexts are indistinguishable
//! on the bus.

use crate::chacha::{ChaCha20, ChaChaKey, NONCE_LEN};
use crate::keys::SubKeys;
use crate::siphash::SipHash24;
use crate::CryptoError;
use std::fmt;

/// A sealed (encrypted + authenticated) ORAM block.
///
/// The header fields (`block_id`, `epoch`) are authenticated but not
/// encrypted: the ORAM protocols deliberately expose *physical* identifiers
/// on the bus while hiding the logical ones, and the sealing layer is used
/// with physical identifiers only.
#[derive(Clone, PartialEq, Eq)]
pub struct SealedBlock {
    block_id: u64,
    epoch: u64,
    body: Vec<u8>,
    tag: u64,
}

impl fmt::Debug for SealedBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SealedBlock")
            .field("block_id", &self.block_id)
            .field("epoch", &self.epoch)
            .field("len", &self.body.len())
            .field("tag", &format_args!("{:#018x}", self.tag))
            .finish()
    }
}

impl SealedBlock {
    /// The (physical) block identifier the seal is bound to.
    pub fn block_id(&self) -> u64 {
        self.block_id
    }

    /// The key epoch the block was sealed under.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The ciphertext length in bytes.
    pub fn len(&self) -> usize {
        self.body.len()
    }

    /// Whether the ciphertext is empty.
    pub fn is_empty(&self) -> bool {
        self.body.is_empty()
    }

    /// Read-only view of the ciphertext body.
    pub fn ciphertext(&self) -> &[u8] {
        &self.body
    }

    /// Total on-device size in bytes (header + body + tag), used by the
    /// storage simulator for timing.
    pub fn wire_size(&self) -> usize {
        8 + 8 + 8 + self.body.len()
    }

    /// The authentication tag (encrypt-then-MAC SipHash-2-4). Exposed so
    /// storage backends can serialize a block verbatim; forging a block
    /// requires forging this tag, which [`BlockSealer::open`] checks.
    pub fn tag(&self) -> u64 {
        self.tag
    }

    /// Reassembles a block from serialized parts (a storage backend
    /// reading its file, a snapshot restore). No validation happens here:
    /// a tampered block is rejected by [`BlockSealer::open`] when the
    /// trusted layer next touches it.
    pub fn from_parts(block_id: u64, epoch: u64, body: Vec<u8>, tag: u64) -> Self {
        Self {
            block_id,
            epoch,
            body,
            tag,
        }
    }

    /// Consumes the block, returning its ciphertext buffer. Used to
    /// recycle discarded blocks' allocations through a
    /// [`crate::pool::BufferPool`] (the bytes are ciphertext under a key
    /// that is being retired, so handing them back is harmless).
    pub fn into_body(self) -> Vec<u8> {
        self.body
    }

    /// Test-and-fault-injection hook: flips one bit of the ciphertext.
    ///
    /// Exposed so integration tests can verify that corruption is detected;
    /// not part of the protocol.
    pub fn corrupt_bit(&mut self, bit: usize) {
        if self.body.is_empty() {
            self.tag ^= 1;
            return;
        }
        let idx = (bit / 8) % self.body.len();
        self.body[idx] ^= 1 << (bit % 8);
    }
}

/// Seals and opens blocks under one epoch's keys.
///
/// # Example
///
/// ```
/// use oram_crypto::{keys::MasterKey, seal::BlockSealer};
///
/// # fn main() -> Result<(), oram_crypto::CryptoError> {
/// let keys = MasterKey::from_bytes([3u8; 32]).derive("storage", 0);
/// let sealer = BlockSealer::new(&keys);
/// let sealed = sealer.seal(7, 0, b"hello");
/// assert_eq!(sealer.open(&sealed)?, b"hello");
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct BlockSealer {
    /// Cached ChaCha20 key schedule: the 32 raw key bytes are parsed into
    /// state words **once per sealer**, not once per `seal_into`/`open`
    /// call. The rebuild stream seals every physical slot each period, so
    /// the per-call setup cost is measurable — see
    /// `crates/bench/benches/crypto.rs` (`sealer_key_schedule`).
    enc_key: ChaChaKey,
    /// Prepared SipHash-2-4 initial state for the MAC key; cloned per tag
    /// instead of re-deriving `v0..v3` from the raw key bytes.
    mac: SipHash24,
}

impl fmt::Debug for BlockSealer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BlockSealer")
            .field("keys", &"<redacted>")
            .finish()
    }
}

impl BlockSealer {
    /// Creates a sealer from an epoch key bundle.
    pub fn new(keys: &SubKeys) -> Self {
        Self::from_raw_keys(*keys.encryption(), *keys.mac())
    }

    /// Creates a sealer from raw keys (used by unit tests and tooling).
    pub fn from_raw_keys(enc_key: [u8; 32], mac_key: [u8; 16]) -> Self {
        Self {
            enc_key: ChaChaKey::new(&enc_key),
            mac: SipHash24::new(&mac_key),
        }
    }

    /// Seals `plaintext` as block `block_id` under `epoch`.
    ///
    /// The (block_id, epoch) pair must be unique per sealer key lifetime —
    /// the ORAM reshuffle discipline guarantees this by bumping the epoch
    /// whenever blocks are rewritten.
    pub fn seal(&self, block_id: u64, epoch: u64, plaintext: &[u8]) -> SealedBlock {
        // Fused copy+XOR: the ciphertext buffer is filled in one pass over
        // the plaintext instead of copy-then-encrypt-in-place.
        let mut body = vec![0u8; plaintext.len()];
        ChaCha20::from_key(&self.enc_key, &Self::nonce(block_id, epoch), 0)
            .apply_keystream_into(plaintext, &mut body);
        let tag = self.compute_tag(block_id, epoch, &body);
        SealedBlock {
            block_id,
            epoch,
            body,
            tag,
        }
    }

    /// Seals a caller-provided plaintext buffer, encrypting it **in place**
    /// — the buffer becomes the ciphertext body without a copy. This is the
    /// zero-copy core of [`seal`](Self::seal); the shuffle stream feeds it
    /// buffers recycled through a [`crate::pool::BufferPool`].
    pub fn seal_into(&self, block_id: u64, epoch: u64, mut body: Vec<u8>) -> SealedBlock {
        ChaCha20::from_key(&self.enc_key, &Self::nonce(block_id, epoch), 0)
            .apply_keystream(&mut body);
        let tag = self.compute_tag(block_id, epoch, &body);
        SealedBlock {
            block_id,
            epoch,
            body,
            tag,
        }
    }

    /// Verifies and decrypts a sealed block.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::TagMismatch`] if the tag does not verify —
    /// i.e. the block was corrupted, truncated, replayed across epochs, or
    /// sealed under different keys. No plaintext is returned in that case.
    pub fn open(&self, block: &SealedBlock) -> Result<Vec<u8>, CryptoError> {
        // Tag first, on the borrowed body: a forged block costs one MAC
        // pass and allocates nothing.
        self.verify(block.block_id, block.epoch, &block.body, block.tag)?;
        let mut plaintext = block.body.clone();
        ChaCha20::from_key(&self.enc_key, &Self::nonce(block.block_id, block.epoch), 0)
            .apply_keystream(&mut plaintext);
        Ok(plaintext)
    }

    /// Verifies and decrypts a sealed block the caller owns, reusing its
    /// ciphertext buffer as the plaintext output — no copy.
    /// Bulk paths (batched loads, the shuffle stream) call this on blocks
    /// taken out of the device; [`open`](Self::open) serves a borrowed one.
    ///
    /// # Errors
    ///
    /// As [`open`](Self::open); the buffer is dropped on tag mismatch.
    pub fn open_in_place(&self, block: SealedBlock) -> Result<Vec<u8>, CryptoError> {
        let SealedBlock {
            block_id,
            epoch,
            mut body,
            tag,
        } = block;
        self.verify(block_id, epoch, &body, tag)?;
        ChaCha20::from_key(&self.enc_key, &Self::nonce(block_id, epoch), 0)
            .apply_keystream(&mut body);
        Ok(body)
    }

    /// Re-seals an already-open payload under a new identity, the common
    /// operation during shuffles (decrypt under old epoch done by caller).
    pub fn reseal(&self, block_id: u64, epoch: u64, plaintext: &[u8]) -> SealedBlock {
        self.seal(block_id, epoch, plaintext)
    }

    fn nonce(block_id: u64, epoch: u64) -> [u8; NONCE_LEN] {
        // 12-byte nonce: block id (8 bytes) || low 4 bytes of epoch. High
        // epoch bits are folded into the MAC; encryption-nonce uniqueness
        // holds for 2^32 epochs per block id, far beyond any simulation.
        let mut nonce = [0u8; NONCE_LEN];
        nonce[..8].copy_from_slice(&block_id.to_le_bytes());
        nonce[8..].copy_from_slice(&(epoch as u32).to_le_bytes());
        nonce
    }

    fn verify(&self, block_id: u64, epoch: u64, body: &[u8], tag: u64) -> Result<(), CryptoError> {
        if self.compute_tag(block_id, epoch, body) == tag {
            Ok(())
        } else {
            Err(CryptoError::TagMismatch { block_id })
        }
    }

    fn compute_tag(&self, block_id: u64, epoch: u64, ciphertext: &[u8]) -> u64 {
        let mut mac = self.mac.clone();
        mac.write_u64(block_id);
        mac.write_u64(epoch);
        mac.write_u64(ciphertext.len() as u64);
        mac.write(ciphertext);
        mac.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::MasterKey;
    use proptest::prelude::*;

    fn sealer() -> BlockSealer {
        BlockSealer::new(&MasterKey::from_bytes([1u8; 32]).derive("test", 0))
    }

    #[test]
    fn roundtrip() {
        let sealer = sealer();
        let sealed = sealer.seal(1, 0, b"payload");
        assert_eq!(sealer.open(&sealed).unwrap(), b"payload");
    }

    /// The on-disk format, pinned: device files and snapshots written by
    /// one build must open under the next, whatever computes the
    /// keystream. Values recorded from the scalar-keystream build (PR 11).
    #[test]
    fn sealed_bytes_are_pinned() {
        let sealer = BlockSealer::from_raw_keys([0x42; 32], [0x17; 16]);
        let body: Vec<u8> = (0..1041).map(|i| (i * 7 + 3) as u8).collect();
        let sealed = sealer.seal(0x0123_4567_89ab_cdef, 0x1_0000_0002, &body);
        assert_eq!(
            sealed,
            sealer.seal_into(sealed.block_id, sealed.epoch, body.clone())
        );
        assert_eq!(sealed.tag(), 0x5999_6d04_789e_e8d7);
        assert_eq!(
            sealed.ciphertext()[..16],
            0x266c12bb_f0a90f63_cf1f58d6_a7cc415a_u128.to_be_bytes()
        );
        assert_eq!(
            sealed.ciphertext()[1025..],
            0x4ad57789_0a388e37_1b5804d3_e9de8037_u128.to_be_bytes()
        );
        assert_eq!(sealer.open(&sealed).unwrap(), body);
        assert_eq!(sealer.open_in_place(sealed).unwrap(), body);
    }

    #[test]
    fn seal_into_matches_seal_and_reuses_the_buffer() {
        let sealer = sealer();
        let by_ref = sealer.seal(3, 2, b"same bytes");
        let buffer = b"same bytes".to_vec();
        let pointer = buffer.as_ptr();
        let owned = sealer.seal_into(3, 2, buffer);
        assert_eq!(by_ref, owned);
        // Zero-copy: the ciphertext body is the caller's buffer.
        assert_eq!(owned.ciphertext().as_ptr(), pointer);
    }

    #[test]
    fn open_in_place_matches_open_and_reuses_the_buffer() {
        let sealer = sealer();
        let sealed = sealer.seal(4, 1, b"plaintext");
        assert_eq!(sealer.open(&sealed).unwrap(), b"plaintext");
        let pointer = sealed.ciphertext().as_ptr();
        let plain = sealer.open_in_place(sealed).unwrap();
        assert_eq!(plain, b"plaintext");
        assert_eq!(plain.as_ptr(), pointer);
    }

    #[test]
    fn open_in_place_rejects_corruption() {
        let sealer = sealer();
        let mut sealed = sealer.seal(6, 0, b"checked");
        sealed.corrupt_bit(3);
        assert_eq!(
            sealer.open_in_place(sealed).unwrap_err(),
            CryptoError::TagMismatch { block_id: 6 }
        );
    }

    #[test]
    fn into_body_returns_the_ciphertext() {
        let sealer = sealer();
        let sealed = sealer.seal(1, 0, b"abc");
        let ciphertext = sealed.ciphertext().to_vec();
        assert_eq!(sealed.into_body(), ciphertext);
    }

    #[test]
    fn empty_payload_roundtrips() {
        let sealer = sealer();
        let sealed = sealer.seal(1, 0, b"");
        assert!(sealed.is_empty());
        assert_eq!(sealer.open(&sealed).unwrap(), b"");
    }

    #[test]
    fn ciphertext_differs_from_plaintext() {
        let sealer = sealer();
        let sealed = sealer.seal(1, 0, b"a secret payload!");
        assert_ne!(sealed.ciphertext(), b"a secret payload!");
    }

    #[test]
    fn same_payload_different_ids_gives_different_ciphertexts() {
        let sealer = sealer();
        let a = sealer.seal(1, 0, b"identical");
        let b = sealer.seal(2, 0, b"identical");
        assert_ne!(a.ciphertext(), b.ciphertext());
    }

    #[test]
    fn same_payload_different_epochs_gives_different_ciphertexts() {
        let sealer = sealer();
        let a = sealer.seal(1, 0, b"identical");
        let b = sealer.seal(1, 1, b"identical");
        assert_ne!(a.ciphertext(), b.ciphertext());
    }

    #[test]
    fn corruption_is_detected() {
        let sealer = sealer();
        let mut sealed = sealer.seal(5, 0, b"integrity matters");
        sealed.corrupt_bit(13);
        assert_eq!(
            sealer.open(&sealed).unwrap_err(),
            CryptoError::TagMismatch { block_id: 5 }
        );
    }

    #[test]
    fn truncation_is_detected() {
        let sealer = sealer();
        let sealed = sealer.seal(5, 0, b"integrity matters");
        let truncated = SealedBlock {
            block_id: sealed.block_id,
            epoch: sealed.epoch,
            body: sealed.body[..sealed.body.len() - 1].to_vec(),
            tag: sealed.tag,
        };
        assert!(sealer.open(&truncated).is_err());
    }

    #[test]
    fn wrong_key_is_detected() {
        let sealed = sealer().seal(5, 0, b"integrity");
        let other = BlockSealer::new(&MasterKey::from_bytes([2u8; 32]).derive("test", 0));
        assert!(other.open(&sealed).is_err());
    }

    #[test]
    fn cross_epoch_replay_is_detected() {
        // A block sealed under epoch 0 must not open if presented as epoch 1.
        let sealer = sealer();
        let sealed = sealer.seal(5, 0, b"epoch bound");
        let replayed = SealedBlock { epoch: 1, ..sealed };
        assert!(sealer.open(&replayed).is_err());
    }

    #[test]
    fn wire_size_accounts_for_header_and_tag() {
        let sealed = sealer().seal(1, 0, &[0u8; 100]);
        assert_eq!(sealed.wire_size(), 100 + 24);
    }

    #[test]
    fn debug_shows_metadata_not_contents() {
        let sealed = sealer().seal(42, 3, b"secret");
        let debug = format!("{sealed:?}");
        assert!(debug.contains("block_id: 42"));
        assert!(debug.contains("epoch: 3"));
        assert!(!debug.contains("secret"));
    }

    proptest! {
        #[test]
        fn roundtrip_arbitrary_payloads(id in any::<u64>(), epoch in any::<u64>(), payload in proptest::collection::vec(any::<u8>(), 0..512)) {
            let sealer = sealer();
            let sealed = sealer.seal(id, epoch, &payload);
            prop_assert_eq!(sealer.open(&sealed).unwrap(), payload);
        }

        #[test]
        fn any_single_bit_flip_is_detected(payload in proptest::collection::vec(any::<u8>(), 1..64), bit in any::<usize>()) {
            let sealer = sealer();
            let mut sealed = sealer.seal(9, 2, &payload);
            sealed.corrupt_bit(bit);
            prop_assert!(sealer.open(&sealed).is_err());
        }
    }
}
