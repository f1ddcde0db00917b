//! Users and access control for multi-user sharing (paper §5.3.2).
//!
//! The flat storage layer "inherently supports multiple users sharing one
//! ORAM": the scheduler already groups requests, so requests from
//! different users interleave into the same cycles without changing the
//! observable pattern. The session layer that does the interleaving is
//! `horam-server`'s `OramService`; this module holds what it checks.
//!
//! "To protect the access pattern from potential malicious users, some
//! access control protection is required and can be added to our
//! scheduler." This module adds it: a per-user block-range capability
//! table checked in the trusted control layer **before** requests enter
//! the ROB, so a rejected request produces *no observable access at all*
//! (rejections cost only trusted-side work — an adversary cannot learn a
//! victim's ranges by timing probe rejections).

use oram_protocols::types::{BlockId, Request, RequestOp};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::ops::Range;

/// A user (tenant) of a shared H-ORAM instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UserId(pub u32);

impl fmt::Display for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "user{}", self.0)
    }
}

/// Rights a user can hold on a block range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Permission {
    /// Read-only access.
    ReadOnly,
    /// Read and write access.
    ReadWrite,
}

impl Permission {
    fn allows(&self, op: &RequestOp) -> bool {
        match (self, op) {
            (_, RequestOp::Read) => true,
            (Permission::ReadWrite, RequestOp::Write(_)) => true,
            (Permission::ReadOnly, RequestOp::Write(_)) => false,
        }
    }
}

/// Why a request was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessDenied {
    /// No grant covers the block.
    NoGrant {
        /// The requesting user.
        user: UserId,
        /// The block requested.
        block: BlockId,
    },
    /// A grant covers the block but forbids writing.
    ReadOnly {
        /// The requesting user.
        user: UserId,
        /// The block requested.
        block: BlockId,
    },
}

impl fmt::Display for AccessDenied {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessDenied::NoGrant { user, block } => {
                write!(f, "{user} holds no grant covering {block}")
            }
            AccessDenied::ReadOnly { user, block } => {
                write!(f, "{user} may not write {block} (read-only grant)")
            }
        }
    }
}

impl Error for AccessDenied {}

/// A per-user capability table over block ranges.
///
/// # Example
///
/// ```
/// use horam_core::access_control::{AccessControl, Permission, UserId};
/// use oram_protocols::types::Request;
///
/// let mut acl = AccessControl::new();
/// acl.grant(UserId(0), 0..100, Permission::ReadWrite);
/// acl.grant(UserId(1), 50..100, Permission::ReadOnly);
///
/// assert!(acl.check(UserId(0), &Request::write(10u64, vec![1])).is_ok());
/// assert!(acl.check(UserId(1), &Request::read(60u64)).is_ok());
/// assert!(acl.check(UserId(1), &Request::write(60u64, vec![1])).is_err());
/// assert!(acl.check(UserId(1), &Request::read(10u64)).is_err());
/// ```
#[derive(Debug, Clone, Default)]
pub struct AccessControl {
    /// user → (range start → (range end, permission)); ranges may overlap,
    /// the most permissive covering grant wins.
    grants: BTreeMap<UserId, Vec<(Range<u64>, Permission)>>,
}

impl AccessControl {
    /// An empty table (everything denied).
    pub fn new() -> Self {
        Self::default()
    }

    /// Grants `user` the permission over `range` (half-open block ids).
    ///
    /// # Panics
    ///
    /// Panics on an empty range.
    pub fn grant(&mut self, user: UserId, range: Range<u64>, permission: Permission) {
        assert!(range.start < range.end, "grant range must be non-empty");
        self.grants
            .entry(user)
            .or_default()
            .push((range, permission));
    }

    /// Checks one request.
    ///
    /// # Errors
    ///
    /// [`AccessDenied::NoGrant`] when no range covers the block,
    /// [`AccessDenied::ReadOnly`] when coverage exists but writing is
    /// forbidden.
    pub fn check(&self, user: UserId, request: &Request) -> Result<(), AccessDenied> {
        let Some(grants) = self.grants.get(&user) else {
            return Err(AccessDenied::NoGrant {
                user,
                block: request.id,
            });
        };
        let covering: Vec<&(Range<u64>, Permission)> = grants
            .iter()
            .filter(|(range, _)| range.contains(&request.id.0))
            .collect();
        if covering.is_empty() {
            return Err(AccessDenied::NoGrant {
                user,
                block: request.id,
            });
        }
        if covering.iter().any(|(_, p)| p.allows(&request.op)) {
            Ok(())
        } else {
            Err(AccessDenied::ReadOnly {
                user,
                block: request.id,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_deny() {
        let acl = AccessControl::new();
        let err = acl.check(UserId(0), &Request::read(1u64)).unwrap_err();
        assert!(matches!(err, AccessDenied::NoGrant { .. }));
    }

    #[test]
    fn read_write_grants() {
        let mut acl = AccessControl::new();
        acl.grant(UserId(1), 10..20, Permission::ReadWrite);
        assert!(acl.check(UserId(1), &Request::read(15u64)).is_ok());
        assert!(acl
            .check(UserId(1), &Request::write(15u64, vec![0]))
            .is_ok());
        assert!(
            acl.check(UserId(1), &Request::read(20u64)).is_err(),
            "end is exclusive"
        );
    }

    #[test]
    fn read_only_rejects_writes() {
        let mut acl = AccessControl::new();
        acl.grant(UserId(2), 0..5, Permission::ReadOnly);
        assert!(acl.check(UserId(2), &Request::read(3u64)).is_ok());
        let err = acl
            .check(UserId(2), &Request::write(3u64, vec![0]))
            .unwrap_err();
        assert!(matches!(err, AccessDenied::ReadOnly { .. }));
    }

    #[test]
    fn overlapping_grants_take_the_most_permissive() {
        let mut acl = AccessControl::new();
        acl.grant(UserId(3), 0..10, Permission::ReadOnly);
        acl.grant(UserId(3), 5..10, Permission::ReadWrite);
        assert!(acl.check(UserId(3), &Request::write(7u64, vec![0])).is_ok());
        assert!(acl
            .check(UserId(3), &Request::write(2u64, vec![0]))
            .is_err());
    }

    #[test]
    fn users_are_isolated() {
        let mut acl = AccessControl::new();
        acl.grant(UserId(0), 0..10, Permission::ReadWrite);
        assert!(acl.check(UserId(1), &Request::read(5u64)).is_err());
    }

    #[test]
    fn denial_messages_are_specific() {
        let mut acl = AccessControl::new();
        acl.grant(UserId(4), 0..2, Permission::ReadOnly);
        let err = acl
            .check(UserId(4), &Request::write(1u64, vec![0]))
            .unwrap_err();
        assert!(err.to_string().contains("read-only"));
    }
}
