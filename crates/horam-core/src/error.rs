//! The system-level error taxonomy.
//!
//! [`HOramError`] is what the serving boundary sees: either a protocol
//! error bubbled up from one instance ([`OramError`], itself wrapping
//! [`StorageError`](oram_storage::StorageError) /
//! [`CryptoError`](oram_crypto::CryptoError) / persistence failures), or
//! the sharded layer's own verdict that a shard has been taken out of
//! service. Every fallible hot path in this crate reports through this
//! taxonomy instead of panicking, so one lying disk degrades one shard's
//! tenants instead of aborting the process — see `docs/ARCHITECTURE.md`
//! §11 for the failure model.

use oram_protocols::error::OramError;
use std::error::Error;
use std::fmt;

/// Errors surfaced by the assembled H-ORAM system (single or sharded).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum HOramError {
    /// A protocol-level failure from the instance serving the request:
    /// geometry violations, storage faults, authentication failures,
    /// snapshot problems, or internal invariant violations.
    Protocol(OramError),
    /// The shard that owns the request failed and has been quarantined:
    /// its uncollected tickets and every later request routed to it fail
    /// with this error, while requests routed to other shards keep
    /// serving. The shard stays out of service until an operator
    /// restores the whole instance from its last snapshot.
    ShardDegraded {
        /// The degraded shard's index.
        shard: usize,
        /// Why the shard was taken out of service.
        reason: String,
    },
}

impl HOramError {
    /// Collapses into a protocol error (for callers on the plain
    /// [`Oram`](oram_protocols::oram_trait::Oram) interface, which
    /// predates sharding). A degraded shard reports as
    /// [`OramError::Internal`] — from a single-interface caller's view
    /// the instance is unrecoverable either way.
    pub fn into_protocol(self) -> OramError {
        match self {
            HOramError::Protocol(e) => e,
            HOramError::ShardDegraded { shard, reason } => {
                OramError::internal(format!("shard {shard} degraded: {reason}"))
            }
        }
    }
}

impl fmt::Display for HOramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HOramError::Protocol(e) => write!(f, "{e}"),
            HOramError::ShardDegraded { shard, reason } => {
                write!(f, "shard {shard} degraded: {reason}")
            }
        }
    }
}

impl Error for HOramError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            HOramError::Protocol(e) => Some(e),
            HOramError::ShardDegraded { .. } => None,
        }
    }
}

impl From<OramError> for HOramError {
    fn from(e: OramError) -> Self {
        HOramError::Protocol(e)
    }
}

impl From<oram_storage::StorageError> for HOramError {
    fn from(e: oram_storage::StorageError) -> Self {
        HOramError::Protocol(OramError::Storage(e))
    }
}

impl From<oram_crypto::CryptoError> for HOramError {
    fn from(e: oram_crypto::CryptoError) -> Self {
        HOramError::Protocol(OramError::Crypto(e))
    }
}

impl From<oram_crypto::persist::PersistError> for HOramError {
    fn from(e: oram_crypto::persist::PersistError) -> Self {
        HOramError::Protocol(OramError::from(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oram_storage::StorageError;

    #[test]
    fn wraps_every_lower_layer() {
        let storage: HOramError = StorageError::PermanentFault {
            device: "hdd".into(),
            addr: 9,
        }
        .into();
        assert!(storage.to_string().contains("permanent slot failure"));
        let crypto: HOramError = oram_crypto::CryptoError::TagMismatch { block_id: 3 }.into();
        assert!(matches!(crypto, HOramError::Protocol(OramError::Crypto(_))));
    }

    #[test]
    fn degraded_collapses_to_internal() {
        let e = HOramError::ShardDegraded {
            shard: 2,
            reason: "dead sector".into(),
        };
        assert!(e.to_string().contains("shard 2"));
        let OramError::Internal { context } = e.into_protocol() else {
            panic!("expected Internal");
        };
        assert!(context.contains("dead sector"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<HOramError>();
    }
}
