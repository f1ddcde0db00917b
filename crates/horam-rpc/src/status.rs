//! Stable numeric wire codes for request outcomes.
//!
//! Every [`Frame::Response`] carries one
//! `u16` status. Codes are **stable** — they are part of the protocol
//! and must never be renumbered. The space is split in two:
//!
//! * `0..100` — serving-layer outcomes, one per
//!   [`ServeError`] variant (plus
//!   [`OK`]). [`serve_error_code`] is an *exhaustive* match, so adding a
//!   `ServeError` variant without assigning it a wire code is a compile
//!   error — a variant can never ship uncoded.
//! * `100..` — transport/server outcomes that exist only at the RPC
//!   boundary (admission, deadlines, drain) and never come from the
//!   serving layer.

use crate::wire::Frame;
use horam_server::service::ServeError;

/// Success; the response payload carries the block bytes.
pub const OK: u16 = 0;
/// [`ServeError::UnknownTenant`] — the tenant was never registered.
pub const UNKNOWN_TENANT: u16 = 1;
/// [`ServeError::Denied`] — access control rejected the request.
pub const DENIED: u16 = 2;
/// [`ServeError::QueueFull`] — the tenant hit its backpressure bound;
/// retryable after backoff.
pub const QUEUE_FULL: u16 = 3;
/// [`ServeError::Oram`] — geometry validation or the ORAM itself failed.
pub const ORAM: u16 = 4;
/// [`ServeError::Degraded`] — the owning shard is quarantined. The
/// response's `shard` field carries the shard index and its `message`
/// the quarantine reason.
pub const DEGRADED: u16 = 5;
/// [`ServeError::Timeout`] — a bounded server-side wait elapsed.
pub const TIMEOUT: u16 = 6;

/// The server is at its in-flight bound; retryable after backoff.
pub const BUSY: u16 = 100;
/// The request's deadline budget was already spent when it would have
/// been admitted; it was shed before reaching the ORAM engine.
pub const DEADLINE_EXPIRED: u16 = 101;
/// The server is draining toward a checkpoint; the request was **not**
/// executed and is safe to replay against the restarted server.
pub const SHUTTING_DOWN: u16 = 102;
/// The peer sent bytes that do not decode as a protocol frame.
pub const BAD_FRAME: u16 = 103;
/// The connection's `Hello` token did not verify.
pub const AUTH_FAILED: u16 = 104;

/// The stable wire code for a serving-layer error.
///
/// Exhaustive by construction: a new `ServeError` variant fails to
/// compile here until it is assigned a code, which is exactly the
/// property the wire needs.
pub fn serve_error_code(error: &ServeError) -> u16 {
    match error {
        ServeError::UnknownTenant(_) => UNKNOWN_TENANT,
        ServeError::Denied(_) => DENIED,
        ServeError::QueueFull { .. } => QUEUE_FULL,
        ServeError::Oram(_) => ORAM,
        ServeError::Degraded { .. } => DEGRADED,
        ServeError::Timeout { .. } => TIMEOUT,
    }
}

/// Builds the response frame for a serving-layer error, preserving the
/// `Degraded { shard, reason }` detail: the shard index travels in the
/// response's `shard` field and the reason in `message`.
pub fn serve_error_response(req_id: u64, error: &ServeError) -> Frame {
    let shard = match error {
        ServeError::Degraded { shard, .. } => *shard as u32,
        _ => 0,
    };
    Frame::Response {
        req_id,
        status: serve_error_code(error),
        shard,
        message: error.to_string(),
        payload: Vec::new(),
    }
}

/// Builds a transport-layer error response.
pub fn transport_error_response(req_id: u64, status: u16, message: String) -> Frame {
    Frame::Response {
        req_id,
        status,
        shard: 0,
        message,
        payload: Vec::new(),
    }
}

/// Human-readable name for a wire code (unknown codes report as such —
/// a newer server may emit codes an older client has no name for).
pub fn name(code: u16) -> &'static str {
    match code {
        OK => "OK",
        UNKNOWN_TENANT => "UNKNOWN_TENANT",
        DENIED => "DENIED",
        QUEUE_FULL => "QUEUE_FULL",
        ORAM => "ORAM",
        DEGRADED => "DEGRADED",
        TIMEOUT => "TIMEOUT",
        BUSY => "BUSY",
        DEADLINE_EXPIRED => "DEADLINE_EXPIRED",
        SHUTTING_DOWN => "SHUTTING_DOWN",
        BAD_FRAME => "BAD_FRAME",
        AUTH_FAILED => "AUTH_FAILED",
        _ => "UNKNOWN_CODE",
    }
}

/// Whether a client may safely retry the same request id after this
/// code. `BUSY`/`QUEUE_FULL` are load shedding (nothing executed);
/// `SHUTTING_DOWN` and `DEADLINE_EXPIRED` also shed before execution,
/// but retrying them is a policy decision (the next attempt needs a new
/// server or a new budget), so they are not auto-retryable.
pub fn is_retryable(code: u16) -> bool {
    matches!(code, BUSY | QUEUE_FULL)
}

#[cfg(test)]
mod tests {
    use super::*;
    use horam_core::access_control::{AccessDenied, UserId};
    use horam_server::service::ServiceTicket;
    use oram_protocols::error::OramError;
    use oram_protocols::types::BlockId;

    /// One representative value per `ServeError` variant. Written as an
    /// exhaustive list that the test below checks for distinct, stable
    /// codes; if `serve_error_code` itself gains a variant (compile
    /// error forces that), this list is where the new code's stability
    /// gets pinned.
    fn exemplars() -> Vec<(ServeError, u16)> {
        vec![
            (ServeError::UnknownTenant(UserId(3)), UNKNOWN_TENANT),
            (
                ServeError::Denied(AccessDenied::NoGrant {
                    user: UserId(2),
                    block: BlockId(11),
                }),
                DENIED,
            ),
            (
                ServeError::QueueFull {
                    tenant: UserId(1),
                    limit: 8,
                },
                QUEUE_FULL,
            ),
            (
                ServeError::Oram(OramError::BlockOutOfRange { id: 9, capacity: 4 }),
                ORAM,
            ),
            (
                ServeError::Degraded {
                    shard: 2,
                    reason: "tag mismatch".into(),
                },
                DEGRADED,
            ),
            (
                ServeError::Timeout {
                    ticket: ServiceTicket(7),
                    pumps: 64,
                },
                TIMEOUT,
            ),
        ]
    }

    #[test]
    fn codes_are_stable_and_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for (error, expected) in exemplars() {
            let code = serve_error_code(&error);
            assert_eq!(code, expected, "code drifted for {error}");
            assert!(seen.insert(code), "code {code} assigned twice");
            assert!(code < 100, "serving-layer codes live below 100");
            assert_ne!(name(code), "UNKNOWN_CODE");
        }
        // Transport codes are distinct from serving codes by range.
        for code in [
            BUSY,
            DEADLINE_EXPIRED,
            SHUTTING_DOWN,
            BAD_FRAME,
            AUTH_FAILED,
        ] {
            assert!(code >= 100);
            assert!(seen.insert(code), "transport code {code} collides");
            assert_ne!(name(code), "UNKNOWN_CODE");
        }
    }

    #[test]
    fn degraded_detail_survives_the_wire() {
        let error = ServeError::Degraded {
            shard: 5,
            reason: "seal tag mismatch during rebuild".into(),
        };
        let frame = serve_error_response(42, &error);
        let encoded = crate::wire::encode_frame(&frame);
        let decoded = crate::wire::decode_frame(encoded[4], &encoded[5..]).expect("decodes");
        match decoded {
            Frame::Response {
                req_id,
                status,
                shard,
                message,
                payload,
            } => {
                assert_eq!(req_id, 42);
                assert_eq!(status, DEGRADED);
                assert_eq!(shard, 5);
                assert!(message.contains("seal tag mismatch"));
                assert!(payload.is_empty());
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }

    #[test]
    fn retryability_is_conservative() {
        assert!(is_retryable(BUSY));
        assert!(is_retryable(QUEUE_FULL));
        for code in [
            OK,
            UNKNOWN_TENANT,
            DENIED,
            ORAM,
            DEGRADED,
            TIMEOUT,
            DEADLINE_EXPIRED,
            SHUTTING_DOWN,
            BAD_FRAME,
            AUTH_FAILED,
        ] {
            assert!(!is_retryable(code), "{} must not auto-retry", name(code));
        }
    }
}
