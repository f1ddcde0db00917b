//! Shared protocol types: block identifiers, requests, and the sealed
//! block wire format.

use crate::error::OramError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A logical block identifier — the address the *application* uses.
///
/// Logical identifiers never appear on any bus: protocols translate them to
/// physical slots through position maps and permutation lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BlockId(pub u64);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

impl From<u64> for BlockId {
    fn from(v: u64) -> Self {
        BlockId(v)
    }
}

/// The operation of one ORAM request.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RequestOp {
    /// Fetch the block's payload.
    Read,
    /// Replace the block's payload, returning the previous bytes.
    Write(Vec<u8>),
}

impl RequestOp {
    /// Whether this is a write.
    pub fn is_write(&self) -> bool {
        matches!(self, RequestOp::Write(_))
    }
}

/// One application request against an ORAM.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Request {
    /// Target logical block.
    pub id: BlockId,
    /// Operation.
    pub op: RequestOp,
}

impl Request {
    /// A read request.
    pub fn read(id: impl Into<BlockId>) -> Self {
        Self {
            id: id.into(),
            op: RequestOp::Read,
        }
    }

    /// A write request.
    pub fn write(id: impl Into<BlockId>, payload: Vec<u8>) -> Self {
        Self {
            id: id.into(),
            op: RequestOp::Write(payload),
        }
    }
}

/// Plaintext content of one tree/storage slot, before sealing.
///
/// Real and dummy contents encode to the **same length**, so their sealed
/// ciphertexts are indistinguishable on the bus — the foundation of every
/// obliviousness argument in this workspace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockContent {
    /// A slot holding no data (padding). Carries the payload length so the
    /// encoding pads to the uniform size.
    Dummy,
    /// A slot holding application data.
    Real {
        /// Logical identifier.
        id: BlockId,
        /// Current position-map tag (Path ORAM leaf, or partition index for
        /// flat protocols; unused fields are zero).
        leaf: u64,
        /// Application payload.
        payload: Vec<u8>,
    },
}

/// A borrowed view of one encoded slot — [`BlockContent`] without the
/// payload allocation. The zero-copy I/O pipeline decodes into this view
/// and keeps working on the decrypted wire buffer itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockContentRef<'a> {
    /// A slot holding no data (padding).
    Dummy,
    /// A slot holding application data.
    Real {
        /// Logical identifier.
        id: BlockId,
        /// Current position-map tag (see [`BlockContent::Real`]).
        leaf: u64,
        /// Application payload, borrowed from the wire bytes.
        payload: &'a [u8],
    },
}

impl BlockContentRef<'_> {
    /// Copies the view into an owned [`BlockContent`].
    pub fn to_owned(self) -> BlockContent {
        match self {
            BlockContentRef::Dummy => BlockContent::Dummy,
            BlockContentRef::Real { id, leaf, payload } => BlockContent::Real {
                id,
                leaf,
                payload: payload.to_vec(),
            },
        }
    }
}

const TAG_DUMMY: u8 = 0;
const TAG_REAL: u8 = 1;
/// Bytes of header: tag + id + leaf.
const HEADER_LEN: usize = 1 + 8 + 8;

impl BlockContent {
    /// Encoded length for a given payload length.
    pub const fn encoded_len(payload_len: usize) -> usize {
        HEADER_LEN + payload_len
    }

    /// Serializes to the uniform wire size for `payload_len`.
    ///
    /// # Panics
    ///
    /// Panics if a real payload's length differs from `payload_len` — the
    /// caller (protocol code) validates application input first.
    pub fn encode(&self, payload_len: usize) -> Vec<u8> {
        let mut out = vec![0u8; Self::encoded_len(payload_len)];
        self.encode_into(payload_len, &mut out);
        out
    }

    /// Serializes into a caller-provided buffer, which is resized to the
    /// uniform wire size — the allocation-free variant of
    /// [`encode`](Self::encode) for pooled buffers.
    ///
    /// # Panics
    ///
    /// As [`encode`](Self::encode).
    pub fn encode_into(&self, payload_len: usize, out: &mut Vec<u8>) {
        out.clear();
        out.resize(Self::encoded_len(payload_len), 0);
        match self {
            BlockContent::Dummy => {
                out[0] = TAG_DUMMY;
            }
            BlockContent::Real { id, leaf, payload } => {
                assert_eq!(
                    payload.len(),
                    payload_len,
                    "payload length invariant broken"
                );
                out[0] = TAG_REAL;
                out[1..9].copy_from_slice(&id.0.to_le_bytes());
                out[9..17].copy_from_slice(&leaf.to_le_bytes());
                out[HEADER_LEN..].copy_from_slice(payload);
            }
        }
    }

    /// Parses from wire bytes.
    ///
    /// # Errors
    ///
    /// Returns [`OramError::MalformedBlock`] (tagged with `slot` for
    /// diagnosis) if the bytes are shorter than a header or carry an
    /// unknown tag.
    pub fn decode(bytes: &[u8], slot: u64) -> Result<Self, OramError> {
        Self::decode_ref(bytes, slot).map(BlockContentRef::to_owned)
    }

    /// Parses wire bytes into a borrowed view — no payload copy. The
    /// owned [`decode`](Self::decode) is a thin wrapper over this.
    ///
    /// # Errors
    ///
    /// As [`decode`](Self::decode).
    pub fn decode_ref(bytes: &[u8], slot: u64) -> Result<BlockContentRef<'_>, OramError> {
        if bytes.len() < HEADER_LEN {
            return Err(OramError::MalformedBlock { slot });
        }
        match bytes[0] {
            TAG_DUMMY => Ok(BlockContentRef::Dummy),
            TAG_REAL => {
                let id = u64::from_le_bytes(bytes[1..9].try_into().expect("8 bytes"));
                let leaf = u64::from_le_bytes(bytes[9..17].try_into().expect("8 bytes"));
                Ok(BlockContentRef::Real {
                    id: BlockId(id),
                    leaf,
                    payload: &bytes[HEADER_LEN..],
                })
            }
            _ => Err(OramError::MalformedBlock { slot }),
        }
    }

    /// Parses an owned wire buffer, reusing it as the payload allocation:
    /// for a real block the header bytes are drained off the front and the
    /// remainder *is* the payload (one `memmove`, zero allocations).
    ///
    /// # Errors
    ///
    /// As [`decode`](Self::decode).
    pub fn decode_owned(mut bytes: Vec<u8>, slot: u64) -> Result<Self, OramError> {
        match Self::decode_ref(&bytes, slot)? {
            BlockContentRef::Dummy => Ok(BlockContent::Dummy),
            BlockContentRef::Real { id, leaf, .. } => {
                bytes.drain(..HEADER_LEN);
                Ok(BlockContent::Real {
                    id,
                    leaf,
                    payload: bytes,
                })
            }
        }
    }

    /// Rewrites the `leaf` field of an encoded **real** block in place —
    /// the shuffle stream re-homes blocks on their decrypted wire buffers
    /// without re-encoding.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not an encoded real block.
    pub fn patch_wire_leaf(bytes: &mut [u8], leaf: u64) {
        assert!(
            bytes.len() >= HEADER_LEN && bytes[0] == TAG_REAL,
            "not an encoded real block"
        );
        bytes[9..17].copy_from_slice(&leaf.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_roundtrip() {
        let content = BlockContent::Real {
            id: BlockId(42),
            leaf: 7,
            payload: vec![1, 2, 3, 4],
        };
        let bytes = content.encode(4);
        assert_eq!(bytes.len(), BlockContent::encoded_len(4));
        assert_eq!(BlockContent::decode(&bytes, 0).unwrap(), content);
    }

    #[test]
    fn dummy_roundtrip_and_uniform_length() {
        let dummy = BlockContent::Dummy.encode(16);
        let real = BlockContent::Real {
            id: BlockId(1),
            leaf: 0,
            payload: vec![9u8; 16],
        }
        .encode(16);
        assert_eq!(
            dummy.len(),
            real.len(),
            "dummy and real must be indistinguishable by size"
        );
        assert_eq!(
            BlockContent::decode(&dummy, 3).unwrap(),
            BlockContent::Dummy
        );
    }

    #[test]
    fn decode_ref_borrows_the_payload() {
        let content = BlockContent::Real {
            id: BlockId(9),
            leaf: 2,
            payload: vec![5, 6, 7],
        };
        let bytes = content.encode(3);
        match BlockContent::decode_ref(&bytes, 0).unwrap() {
            BlockContentRef::Real { id, leaf, payload } => {
                assert_eq!(id, BlockId(9));
                assert_eq!(leaf, 2);
                assert_eq!(payload, &[5, 6, 7]);
                assert_eq!(
                    payload.as_ptr(),
                    bytes[17..].as_ptr(),
                    "payload must borrow"
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            BlockContent::decode_ref(&bytes, 0).unwrap().to_owned(),
            content
        );
    }

    #[test]
    fn decode_owned_reuses_the_buffer() {
        let content = BlockContent::Real {
            id: BlockId(4),
            leaf: 0,
            payload: vec![1; 8],
        };
        let bytes = content.encode(8);
        assert_eq!(BlockContent::decode_owned(bytes, 0).unwrap(), content);
        let dummy = BlockContent::Dummy.encode(8);
        assert_eq!(
            BlockContent::decode_owned(dummy, 0).unwrap(),
            BlockContent::Dummy
        );
    }

    #[test]
    fn encode_into_matches_encode_and_reuses_capacity() {
        let content = BlockContent::Real {
            id: BlockId(1),
            leaf: 3,
            payload: vec![2; 4],
        };
        let mut buffer = Vec::with_capacity(64);
        buffer.extend_from_slice(&[0xFF; 30]); // stale contents must not leak through
        content.encode_into(4, &mut buffer);
        assert_eq!(buffer, content.encode(4));
        let mut dummy_buffer = buffer.clone();
        BlockContent::Dummy.encode_into(4, &mut dummy_buffer);
        assert_eq!(dummy_buffer, BlockContent::Dummy.encode(4));
    }

    #[test]
    fn patch_wire_leaf_rewrites_in_place() {
        let content = BlockContent::Real {
            id: BlockId(7),
            leaf: 11,
            payload: vec![3; 4],
        };
        let mut bytes = content.encode(4);
        BlockContent::patch_wire_leaf(&mut bytes, 0);
        assert_eq!(
            BlockContent::decode(&bytes, 0).unwrap(),
            BlockContent::Real {
                id: BlockId(7),
                leaf: 0,
                payload: vec![3; 4]
            }
        );
    }

    #[test]
    #[should_panic(expected = "not an encoded real block")]
    fn patch_wire_leaf_rejects_dummies() {
        let mut bytes = BlockContent::Dummy.encode(4);
        BlockContent::patch_wire_leaf(&mut bytes, 0);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(matches!(
            BlockContent::decode(&[9u8; 32], 5),
            Err(OramError::MalformedBlock { slot: 5 })
        ));
        assert!(matches!(
            BlockContent::decode(&[1u8; 4], 6),
            Err(OramError::MalformedBlock { slot: 6 })
        ));
    }

    #[test]
    #[should_panic(expected = "payload length invariant")]
    fn encode_validates_payload_length() {
        BlockContent::Real {
            id: BlockId(0),
            leaf: 0,
            payload: vec![1],
        }
        .encode(8);
    }

    #[test]
    fn request_constructors() {
        let r = Request::read(3u64);
        assert_eq!(r.id, BlockId(3));
        assert!(!r.op.is_write());
        let w = Request::write(4u64, vec![1]);
        assert!(w.op.is_write());
    }

    #[test]
    fn block_id_display_and_from() {
        assert_eq!(BlockId::from(9u64).to_string(), "b9");
    }

    #[test]
    fn request_serde_roundtrip() {
        let w = Request::write(4u64, vec![1, 2]);
        let json = serde_json::to_string(&w).unwrap();
        let back: Request = serde_json::from_str(&json).unwrap();
        assert_eq!(w, back);
    }
}
