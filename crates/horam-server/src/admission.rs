//! Pluggable admission policies for the serving layer.
//!
//! Each [`OramService::pump`](crate::service::OramService::pump) builds
//! one oblivious batch. The *admission policy* decides which queued
//! requests fill it: the service snapshots every tenant's pending queue
//! (in per-tenant FIFO order) and the policy returns the interleaving —
//! a sequence of tenant ids, each occurrence popping one request from
//! that tenant's queue front. Popping only from queue fronts means *no
//! policy can reorder a single tenant's requests*, so per-tenant
//! read-your-writes ordering holds under every policy.
//!
//! Two policies ship:
//!
//! * [`FifoPolicy`] — global arrival order; simplest, but a hot tenant
//!   can starve everyone behind it;
//! * [`FairSharePolicy`] — round-robin across tenants with pending work
//!   (the arrival order §5.3.2's discussion assumes), with a rotating
//!   start so no tenant is structurally favoured.

use horam_core::access_control::UserId;
use std::fmt;

/// One queued request as the policy sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedSnapshot {
    /// The owning tenant.
    pub tenant: UserId,
    /// Global arrival sequence number (monotone across tenants).
    pub arrival_seq: u64,
    /// Position within the tenant's queue (0 = front).
    pub position: usize,
}

/// Decides which queued requests fill the next batch.
///
/// Implementations return a sequence of tenant ids of length at most
/// `batch_size`; each occurrence admits the request at that tenant's
/// queue front (at the time of the pop). Returning a tenant more often
/// than it has queued requests is tolerated — excess pops are skipped.
pub trait AdmissionPolicy: fmt::Debug + Send {
    /// A short display name for reports.
    fn name(&self) -> &'static str;

    /// Plans the interleaving for one batch.
    fn plan_batch(&mut self, queued: &[QueuedSnapshot], batch_size: usize) -> Vec<UserId>;
}

/// Global first-in-first-out admission.
#[derive(Debug, Default)]
pub struct FifoPolicy;

impl AdmissionPolicy for FifoPolicy {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn plan_batch(&mut self, queued: &[QueuedSnapshot], batch_size: usize) -> Vec<UserId> {
        let mut by_arrival: Vec<&QueuedSnapshot> = queued.iter().collect();
        by_arrival.sort_by_key(|entry| entry.arrival_seq);
        by_arrival
            .iter()
            .take(batch_size)
            .map(|entry| entry.tenant)
            .collect()
    }
}

/// Round-robin across tenants with pending work.
///
/// The starting tenant rotates every batch, so when the batch size does
/// not divide evenly across tenants the extra slot moves around instead
/// of always favouring the lowest tenant id.
#[derive(Debug, Default)]
pub struct FairSharePolicy {
    rotation: usize,
}

impl AdmissionPolicy for FairSharePolicy {
    fn name(&self) -> &'static str {
        "fair-share"
    }

    fn plan_batch(&mut self, queued: &[QueuedSnapshot], batch_size: usize) -> Vec<UserId> {
        // One pass: per-tenant occupancy, tenants in ascending order
        // (BTreeMap iteration).
        let mut occupancy = std::collections::BTreeMap::new();
        for entry in queued {
            *occupancy.entry(entry.tenant).or_insert(0usize) += 1;
        }
        if occupancy.is_empty() {
            return Vec::new();
        }
        let (tenants, mut remaining): (Vec<UserId>, Vec<usize>) = occupancy.into_iter().unzip();

        let start = self.rotation % tenants.len();
        self.rotation = self.rotation.wrapping_add(1);

        let mut total: usize = remaining.iter().sum();
        let mut plan = Vec::with_capacity(batch_size);
        let mut idx = start;
        while plan.len() < batch_size && total > 0 {
            if remaining[idx] > 0 {
                remaining[idx] -= 1;
                total -= 1;
                plan.push(tenants[idx]);
            }
            idx = (idx + 1) % tenants.len();
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(tenant: u32, arrival: u64) -> QueuedSnapshot {
        QueuedSnapshot {
            tenant: UserId(tenant),
            arrival_seq: arrival,
            position: 0,
        }
    }

    #[test]
    fn fifo_follows_arrival_order() {
        let queued = vec![snap(1, 5), snap(0, 2), snap(1, 3), snap(2, 4)];
        let plan = FifoPolicy.plan_batch(&queued, 3);
        assert_eq!(plan, vec![UserId(0), UserId(1), UserId(2)]);
    }

    #[test]
    fn fair_share_interleaves_a_hot_tenant() {
        // Tenant 0 has 6 queued, tenants 1 and 2 have 2 each.
        let mut queued = Vec::new();
        for i in 0..6 {
            queued.push(snap(0, i));
        }
        queued.push(snap(1, 6));
        queued.push(snap(1, 7));
        queued.push(snap(2, 8));
        queued.push(snap(2, 9));

        let mut policy = FairSharePolicy::default();
        let plan = policy.plan_batch(&queued, 6);
        let hot = plan.iter().filter(|t| **t == UserId(0)).count();
        assert_eq!(plan.len(), 6);
        assert!(hot <= 2, "hot tenant took {hot}/6 slots under fair share");
        assert_eq!(plan.iter().filter(|t| **t == UserId(1)).count(), 2);
        assert_eq!(plan.iter().filter(|t| **t == UserId(2)).count(), 2);
    }

    #[test]
    fn fair_share_rotates_the_extra_slot() {
        let queued = vec![snap(0, 0), snap(0, 1), snap(1, 2), snap(1, 3)];
        let mut policy = FairSharePolicy::default();
        let first = policy.plan_batch(&queued, 3);
        let second = policy.plan_batch(&queued, 3);
        let extra_first = first.iter().filter(|t| **t == UserId(0)).count();
        let extra_second = second.iter().filter(|t| **t == UserId(0)).count();
        assert_ne!(extra_first, extra_second, "rotation moves the odd slot");
    }

    #[test]
    fn plans_never_exceed_batch_size() {
        let queued: Vec<QueuedSnapshot> = (0..50).map(|i| snap(i % 5, i as u64)).collect();
        for policy in [
            &mut FifoPolicy as &mut dyn AdmissionPolicy,
            &mut FairSharePolicy::default(),
        ] {
            assert!(
                policy.plan_batch(&queued, 8).len() <= 8,
                "{}",
                policy.name()
            );
        }
    }
}
