//! The protocol-level error type.

use oram_crypto::CryptoError;
use oram_storage::StorageError;
use std::error::Error;
use std::fmt;

/// Errors surfaced by ORAM protocol operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum OramError {
    /// A logical block identifier beyond the instance capacity.
    BlockOutOfRange {
        /// The offending identifier.
        id: u64,
        /// Instance capacity in blocks.
        capacity: u64,
    },
    /// A write payload whose length does not match the configured size.
    PayloadSize {
        /// Configured payload length in bytes.
        expected: usize,
        /// Supplied payload length in bytes.
        got: usize,
    },
    /// The stash exceeded its configured bound — a protocol invariant
    /// violation (or an adversarial workload beyond the security parameter).
    StashOverflow {
        /// Configured bound.
        limit: usize,
    },
    /// A sealed block failed to parse after decryption — storage returned
    /// bytes that were never produced by this instance.
    MalformedBlock {
        /// Physical slot the block was read from.
        slot: u64,
    },
    /// A response ticket that is unknown or whose response was already
    /// collected.
    UnknownTicket {
        /// The offending ticket.
        ticket: u64,
    },
    /// An underlying storage error.
    Storage(StorageError),
    /// An underlying cryptographic error (tag mismatch, PRP misuse).
    Crypto(CryptoError),
    /// A state snapshot could not be taken or restored: truncated,
    /// corrupted, wrong key, wrong geometry, or the instance was not in a
    /// snapshottable state (e.g. requests in flight). Restores fail
    /// closed — no partial state is ever adopted.
    SnapshotInvalid {
        /// What was wrong.
        reason: String,
    },
    /// A protocol invariant was violated — scheduler misclassification,
    /// broken once-per-period accounting, impossible geometry. These used
    /// to be panics; they now surface as typed errors so a damaged shard
    /// can be quarantined instead of taking the whole process down. The
    /// instance that raised one must be considered unrecoverable (restore
    /// from a checkpoint or rebuild).
    Internal {
        /// Which invariant broke, and where.
        context: String,
    },
    /// The shard that owns the request failed and is out of service: its
    /// uncollected tickets and every later request routed to it fail with
    /// this error, while requests routed to other shards keep serving.
    /// The shard stays out until the whole instance is restored from its
    /// last snapshot.
    ShardDegraded {
        /// The degraded shard's index.
        shard: usize,
        /// Why the shard was taken out of service.
        reason: String,
    },
}

impl OramError {
    /// Shorthand for an [`OramError::Internal`] invariant report.
    pub fn internal(context: impl Into<String>) -> Self {
        OramError::Internal {
            context: context.into(),
        }
    }
}

impl fmt::Display for OramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OramError::BlockOutOfRange { id, capacity } => {
                write!(f, "block {id} out of range for capacity {capacity}")
            }
            OramError::PayloadSize { expected, got } => {
                write!(
                    f,
                    "payload length {got} does not match configured {expected}"
                )
            }
            OramError::StashOverflow { limit } => {
                write!(f, "stash exceeded its bound of {limit} entries")
            }
            OramError::MalformedBlock { slot } => {
                write!(f, "malformed block content at slot {slot}")
            }
            OramError::UnknownTicket { ticket } => {
                write!(f, "ticket {ticket} is unknown or already collected")
            }
            OramError::Storage(e) => write!(f, "storage error: {e}"),
            OramError::Crypto(e) => write!(f, "crypto error: {e}"),
            OramError::SnapshotInvalid { reason } => {
                write!(f, "snapshot invalid: {reason}")
            }
            OramError::Internal { context } => {
                write!(f, "internal invariant violated: {context}")
            }
            OramError::ShardDegraded { shard, reason } => {
                write!(f, "shard {shard} degraded: {reason}")
            }
        }
    }
}

impl Error for OramError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            OramError::Storage(e) => Some(e),
            OramError::Crypto(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for OramError {
    fn from(e: StorageError) -> Self {
        OramError::Storage(e)
    }
}

impl From<CryptoError> for OramError {
    fn from(e: CryptoError) -> Self {
        OramError::Crypto(e)
    }
}

impl From<oram_crypto::persist::PersistError> for OramError {
    fn from(e: oram_crypto::persist::PersistError) -> Self {
        OramError::SnapshotInvalid {
            reason: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_specific() {
        let e = OramError::BlockOutOfRange {
            id: 10,
            capacity: 4,
        };
        assert!(e.to_string().contains("block 10"));
        let e = OramError::PayloadSize {
            expected: 64,
            got: 3,
        };
        assert!(e.to_string().contains("64"));
        let e = OramError::StashOverflow { limit: 100 };
        assert!(e.to_string().contains("100"));
        let e = OramError::ShardDegraded {
            shard: 2,
            reason: "dead sector".into(),
        };
        assert_eq!(e.to_string(), "shard 2 degraded: dead sector");
    }

    #[test]
    fn sources_chain() {
        let inner = StorageError::MissingBlock {
            device: "hdd".into(),
            addr: 1,
        };
        let err = OramError::from(inner.clone());
        assert_eq!(err.source().unwrap().to_string(), inner.to_string());
        let inner = CryptoError::TagMismatch { block_id: 3 };
        let err = OramError::from(inner);
        assert!(err.source().is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<OramError>();
    }
}
