//! Cryptographic primitives for the H-ORAM reproduction.
//!
//! The offline dependency allowlist for this reproduction contains no
//! cryptography crates, so this crate implements the small set of primitives
//! that the ORAM stack needs **from scratch**, each validated against
//! authoritative test vectors (generated with OpenSSL 3.5 and cross-checked
//! against the published reference vectors):
//!
//! * [`chacha::ChaCha20`] — the RFC 8439 stream cipher, used for block
//!   encryption and key derivation (SIMD lanes across the bodies of a
//!   batch).
//! * [`siphash::SipHash24`] — SipHash-2-4, used as the keyed PRF/MAC (four
//!   messages per AVX2 pass).
//! * [`prp::FeistelPrp`] — a cycle-walking Feistel permutation over an
//!   arbitrary domain `[0, n)`, used to permute storage positions
//!   (the "permutation list" of the paper is backed by this PRP plus an
//!   explicit table once blocks migrate).
//! * [`seal::BlockSealer`] — encrypt-then-MAC sealing of ORAM blocks, one
//!   at a time or a whole path per call.
//! * [`keys::KeyHierarchy`] — epoch/domain sub-key derivation from a master
//!   key.
//! * [`rng::DeterministicRng`] — a reproducible ChaCha20-based CSPRNG
//!   implementing [`rand::RngCore`], so every simulation run is replayable.
//!
//! # Security disclaimer
//!
//! These implementations are **research-grade**: they are functionally
//! correct (vector-tested) but make no constant-time guarantees and the MAC
//! is 64-bit. They model the cryptography of the paper's system faithfully
//! for simulation and security-*analysis* purposes; do not reuse them as a
//! production cryptography library.
//!
//! # Example
//!
//! ```
//! use oram_crypto::{keys::MasterKey, seal::BlockSealer};
//!
//! # fn main() -> Result<(), oram_crypto::CryptoError> {
//! let master = MasterKey::from_bytes([7u8; 32]);
//! let sealer = BlockSealer::new(&master.derive("example", 0));
//! let sealed = sealer.seal(42, 0, b"secret payload");
//! let plain = sealer.open(&sealed)?;
//! assert_eq!(plain, b"secret payload");
//! # Ok(())
//! # }
//! ```
#![warn(missing_docs)]
// The crate's only `unsafe` is in its two SIMD kernels — the ChaCha20
// keystream (private module `chacha::x86`) and the four-lane SipHash MAC
// (private module `siphash::x86`); every block of it must say why it is
// sound.
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod chacha;
pub mod keys;
pub mod persist;
pub mod pool;
pub mod prf;
pub mod prp;
pub mod rng;
pub mod seal;
pub mod siphash;

pub use chacha::ChaCha20;
pub use keys::{KeyHierarchy, MasterKey, SubKeys};
pub use persist::{PersistError, StateReader, StateWriter};
pub use pool::BufferPool;
pub use prf::Prf;
pub use prp::FeistelPrp;
pub use rng::DeterministicRng;
pub use seal::{BlockSealer, SealedBlock};
pub use siphash::SipHash24;

use std::error::Error;
use std::fmt;

/// Errors produced by cryptographic operations in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CryptoError {
    /// Authentication tag verification failed when opening a sealed block.
    ///
    /// The block was corrupted, truncated, or sealed under different keys.
    TagMismatch {
        /// Logical identifier carried in the block header.
        block_id: u64,
    },
    /// A permutation was requested over an empty domain.
    EmptyDomain,
    /// An input value lies outside the permutation domain.
    OutOfDomain {
        /// The offending value.
        value: u64,
        /// The (exclusive) domain bound.
        domain: u64,
    },
}

impl fmt::Display for CryptoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CryptoError::TagMismatch { block_id } => {
                write!(f, "authentication tag mismatch for block {block_id}")
            }
            CryptoError::EmptyDomain => write!(f, "permutation domain must be non-empty"),
            CryptoError::OutOfDomain { value, domain } => {
                write!(
                    f,
                    "value {value} outside permutation domain of size {domain}"
                )
            }
        }
    }
}

impl Error for CryptoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_lowercase_and_specific() {
        let err = CryptoError::TagMismatch { block_id: 9 };
        assert_eq!(err.to_string(), "authentication tag mismatch for block 9");
        assert_eq!(
            CryptoError::EmptyDomain.to_string(),
            "permutation domain must be non-empty"
        );
        let err = CryptoError::OutOfDomain {
            value: 10,
            domain: 4,
        };
        assert!(err.to_string().contains("outside permutation domain"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CryptoError>();
    }
}
