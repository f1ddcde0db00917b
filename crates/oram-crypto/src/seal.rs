//! Authenticated block sealing (encrypt-then-MAC).
//!
//! Every block leaving the trusted control layer — whether to the in-memory
//! Path ORAM tree or to the flat storage layer — is *sealed*: its payload is
//! encrypted with ChaCha20 under a per-epoch key and authenticated together
//! with its header by a SipHash-2-4 tag. Dummy blocks are sealed through the
//! identical code path, so real and dummy ciphertexts are indistinguishable
//! on the bus.
//!
//! # The batch contract
//!
//! Path ORAM's unit of work is a whole root-to-leaf path — Z·(L+1)
//! equal-length blocks opened, then as many sealed — so the sealer's real
//! entry points are [`BlockSealer::open_blocks`] and
//! [`BlockSealer::seal_blocks`], in place over a slice the caller reuses
//! (the memory tree's path buffer); the one-block calls are the same
//! routines on a batch of one. A batch takes its SIMD lanes
//! *across* its blocks: ChaCha20 ×16 over the bodies' keystream blocks
//! (×8 or ×4 on hosts without AVX-512F; [`ChaChaKey::apply_keystreams`])
//! and SipHash-2-4 ×4 over the blocks
//! ([`SipHash24::finish4`]). What a caller may rely on:
//!
//! * **same bytes** — the output equals one [`BlockSealer::seal_into`] /
//!   [`BlockSealer::open_in_place`] per item, in order. A caller that
//!   draws its epochs (seal sequence numbers) in the order it always did
//!   writes the bytes it always did;
//! * **verify all, then decrypt** — `open_blocks` checks every tag before
//!   it decrypts any body. If a block fails it returns the
//!   [`CryptoError::TagMismatch`] of the first failing block in order and
//!   releases no plaintext, of that block or of any other;
//! * **position-only lanes** — which lane a block lands in depends on its
//!   position in the batch and the (public) body lengths, never on
//!   whether its content is real or dummy: the sealer cannot tell.

use crate::chacha::{ChaChaKey, NONCE_LEN};
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
#[derive(Clone, Default, PartialEq, Eq)]
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

    /// [`from_parts`](Self::from_parts) into an existing block, copying
    /// `body` into its buffer — the borrowed form stores read into: no
    /// allocation once the buffer is large enough.
    pub fn assign(&mut self, block_id: u64, epoch: u64, body: &[u8], tag: u64) {
        self.rebind(block_id, epoch).extend_from_slice(body);
        self.tag = tag;
    }

    /// Binds the block to `(block_id, epoch)` with an empty body and no
    /// tag, and hands back the body buffer for the caller to fill with
    /// plaintext before [`BlockSealer::seal_blocks`] seals it in place.
    pub fn rebind(&mut self, block_id: u64, epoch: u64) -> &mut Vec<u8> {
        self.block_id = block_id;
        self.epoch = epoch;
        self.tag = 0;
        self.body.clear();
        &mut self.body
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
        self.seal_into(block_id, epoch, plaintext.to_vec())
    }

    /// Seals a caller-provided plaintext buffer, encrypting it **in place**
    /// — the buffer becomes the ciphertext body without a copy. The
    /// shuffle stream feeds it buffers recycled through a
    /// [`crate::pool::BufferPool`].
    pub fn seal_into(&self, block_id: u64, epoch: u64, body: Vec<u8>) -> SealedBlock {
        let mut block = SealedBlock::from_parts(block_id, epoch, body, 0);
        self.seal_blocks(std::slice::from_mut(&mut block));
        block
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
        self.verify(std::slice::from_ref(block))?;
        let mut copy = block.clone();
        self.apply_keystreams(std::slice::from_mut(&mut copy));
        Ok(copy.body)
    }

    /// Verifies and decrypts a sealed block the caller owns, reusing its
    /// ciphertext buffer as the plaintext output — no copy.
    /// Bulk paths (batched loads, the shuffle stream) call this on blocks
    /// taken out of the device; [`open`](Self::open) serves a borrowed one.
    ///
    /// # Errors
    ///
    /// As [`open`](Self::open); the buffer is dropped on tag mismatch.
    pub fn open_in_place(&self, mut block: SealedBlock) -> Result<Vec<u8>, CryptoError> {
        self.open_blocks(std::slice::from_mut(&mut block))?;
        Ok(block.body)
    }

    /// Seals every block in place as one batch — see the
    /// [module docs](self) for the contract: each body comes in as
    /// plaintext bound to its block's id and epoch (see
    /// [`SealedBlock::rebind`]) and leaves as ciphertext under a fresh tag,
    /// byte-identical to one [`seal_into`](Self::seal_into) per block in
    /// order.
    pub fn seal_blocks(&self, blocks: &mut [SealedBlock]) {
        self.apply_keystreams(blocks);
        for group in blocks.chunks_mut(MAC_LANES) {
            let tags = self.tags(group);
            for (block, tag) in group.iter_mut().zip(tags) {
                block.tag = tag;
            }
        }
    }

    /// Verifies and decrypts every block in place as one batch; on success
    /// each body ([`SealedBlock::ciphertext`]) holds its plaintext, what
    /// [`open_in_place`](Self::open_in_place) gives for that block.
    ///
    /// # Errors
    ///
    /// [`CryptoError::TagMismatch`] carrying the `block_id` of the first
    /// block in order whose tag does not verify. Every tag is checked
    /// before any body is decrypted, so on error every body is still
    /// ciphertext.
    pub fn open_blocks(&self, blocks: &mut [SealedBlock]) -> Result<(), CryptoError> {
        self.verify(blocks)?;
        self.apply_keystreams(blocks);
        Ok(())
    }

    /// XORs every body with its block's keystream (encryption and
    /// decryption alike), lanes across the bodies.
    fn apply_keystreams(&self, blocks: &mut [SealedBlock]) {
        self.enc_key
            .apply_keystreams(blocks.iter_mut().map(|block| {
                (
                    Self::nonce(block.block_id, block.epoch),
                    &mut block.body[..],
                )
            }));
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

    /// Checks every block's tag, in order.
    fn verify(&self, blocks: &[SealedBlock]) -> Result<(), CryptoError> {
        for group in blocks.chunks(MAC_LANES) {
            let tags = self.tags(group);
            if let Some((block, _)) = group
                .iter()
                .zip(tags)
                .find(|(block, tag)| block.tag != *tag)
            {
                return Err(CryptoError::TagMismatch {
                    block_id: block.block_id,
                });
            }
        }
        Ok(())
    }

    /// The tags the blocks of `group` (at most [`MAC_LANES`]) should carry;
    /// element `i` is block `i`'s, elements past the group are zero. A full
    /// group is one four-lane MAC; a group's lanes are its blocks in order.
    fn tags(&self, group: &[SealedBlock]) -> [u64; MAC_LANES] {
        let head = |block: &SealedBlock| [block.block_id, block.epoch, block.body.len() as u64];
        if let Ok(group) = <&[SealedBlock; MAC_LANES]>::try_from(group) {
            let blocks = group.each_ref();
            return self
                .mac
                .finish4(blocks.map(head), blocks.map(|block| &block.body[..]));
        }
        let mut tags = [0; MAC_LANES];
        for (tag, block) in tags.iter_mut().zip(group) {
            *tag = self.mac.finish_with(head(block), &block.body);
        }
        tags
    }
}

/// Blocks one MAC pass authenticates ([`SipHash24::finish4`]).
const MAC_LANES: usize = 4;

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

    /// Patterned plaintext `i` of a batch, `len` bytes.
    fn plaintext(i: usize, len: usize) -> Vec<u8> {
        (0..len).map(|b| (b * 7 + i * 13 + 3) as u8).collect()
    }

    /// Item `i` of a test batch: ids and epochs that differ in every lane.
    fn item(i: usize, len: usize) -> (u64, u64, Vec<u8>) {
        (
            1000 + i as u64,
            (i as u64) << 33 | i as u64,
            plaintext(i, len),
        )
    }

    /// `items` as plaintext blocks bound to their ids and epochs, ready
    /// for [`BlockSealer::seal_blocks`].
    fn unsealed(items: &[(u64, u64, Vec<u8>)]) -> Vec<SealedBlock> {
        items
            .iter()
            .map(|(id, epoch, body)| SealedBlock::from_parts(*id, *epoch, body.clone(), 0))
            .collect()
    }

    fn bodies(blocks: Vec<SealedBlock>) -> Vec<Vec<u8>> {
        blocks.into_iter().map(SealedBlock::into_body).collect()
    }

    /// The batch contract's first clause: for every count 0..=19 (no
    /// block, a scalar remainder, full MAC groups, full and partial
    /// keystream passes) at every length the stack seals, `seal_blocks`
    /// is one `seal` per item and `open_blocks` gives the plaintexts back.
    #[test]
    fn batch_matches_one_call_per_item() {
        let sealer = sealer();
        for len in [0usize, 1, 17, 63, 64, 65, 81, 128, 529, 1041] {
            for count in 0..=19 {
                let items: Vec<_> = (0..count).map(|i| item(i, len)).collect();
                let singly: Vec<SealedBlock> = items
                    .iter()
                    .map(|(id, epoch, body)| sealer.seal(*id, *epoch, body))
                    .collect();
                let mut batch = unsealed(&items);
                sealer.seal_blocks(&mut batch);
                assert_eq!(batch, singly, "{count} blocks of {len} bytes");
                sealer.open_blocks(&mut batch).unwrap();
                let plain: Vec<Vec<u8>> = items.into_iter().map(|(_, _, body)| body).collect();
                assert_eq!(bodies(batch), plain, "{count} blocks of {len} bytes");
            }
        }
    }

    /// A batch whose bodies differ in length — what a damaged device file
    /// yields: a `from_parts` body shorter or longer than its batch mates —
    /// is MAC'd block by block exactly as alone. The kernels take raw
    /// pointers and one length per group, so this is the case that must
    /// never reach them: a group with an odd body out goes to the scalar
    /// hasher (`siphash::tests::x4_kernel_is_taken_when_it_applies` pins
    /// the refusal), and a keystream job carries its own length.
    #[test]
    fn mixed_length_batches_match_one_call_per_item() {
        let sealer = sealer();
        let lens = [
            81usize, 81, 80, 81, 1041, 17, 1041, 1041, 0, 81, 82, 81, 81, 64,
        ];
        let items: Vec<_> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| item(i, len))
            .collect();
        let singly: Vec<SealedBlock> = items
            .iter()
            .map(|(id, epoch, body)| sealer.seal(*id, *epoch, body))
            .collect();
        let mut batch = unsealed(&items);
        sealer.seal_blocks(&mut batch);
        assert_eq!(batch, singly);
        let plain: Vec<Vec<u8>> = items.into_iter().map(|(_, _, body)| body).collect();
        sealer.open_blocks(&mut batch).unwrap();
        assert_eq!(bodies(batch), plain);

        // A group of four equal-length blocks, one of which came back from
        // the device a byte short / a byte long: its tag must fail, and it
        // must be the one reported.
        for (k, resize) in [(1usize, 80usize), (2, 82), (0, 0), (3, 1041)] {
            let mut blocks: Vec<SealedBlock> = (0..8)
                .map(|i| {
                    let (id, epoch, body) = item(i, 81);
                    sealer.seal_into(id, epoch, body)
                })
                .collect();
            let damaged = &blocks[k];
            let mut body = damaged.ciphertext().to_vec();
            body.resize(resize, 0xA5);
            body.shrink_to_fit();
            blocks[k] =
                SealedBlock::from_parts(damaged.block_id(), damaged.epoch(), body, damaged.tag());
            assert_eq!(
                sealer.open_blocks(&mut blocks).unwrap_err(),
                CryptoError::TagMismatch {
                    block_id: 1000 + k as u64
                },
                "block {k} resized to {resize}"
            );
        }
    }

    /// Verify-all-then-decrypt: a flipped bit in item `k` — wherever `k`
    /// falls in its MAC group, and in the scalar remainder — is reported
    /// as `k`'s block id; with two bad items the first in order wins; and
    /// no body was decrypted when the error came back.
    #[test]
    fn open_blocks_reports_the_first_bad_block_and_releases_nothing() {
        let sealer = sealer();
        let count = 11;
        let items: Vec<_> = (0..count).map(|i| item(i, 81)).collect();
        let mut sealed = unsealed(&items);
        sealer.seal_blocks(&mut sealed);
        for k in 0..count {
            let mut blocks = sealed.clone();
            blocks[k].corrupt_bit(5 * k + 1);
            assert_eq!(
                sealer.open_blocks(&mut blocks).unwrap_err(),
                CryptoError::TagMismatch {
                    block_id: 1000 + k as u64
                }
            );
        }
        let mut blocks = sealed.clone();
        blocks[9].corrupt_bit(0);
        blocks[6].corrupt_bit(0);
        assert_eq!(
            sealer.open_blocks(&mut blocks).unwrap_err(),
            CryptoError::TagMismatch { block_id: 1006 }
        );

        // Seen from inside: the failing call leaves every body ciphertext,
        // the good blocks' before and after the bad one included.
        let mut blocks = sealed.clone();
        blocks[10].corrupt_bit(0);
        let before = blocks.clone();
        assert!(sealer.open_blocks(&mut blocks).is_err());
        assert_eq!(
            blocks, before,
            "a body was decrypted before the last tag was checked"
        );
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
