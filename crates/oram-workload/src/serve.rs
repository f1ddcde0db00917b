//! Multi-tenant arrival schedules — the serving-layer workload path.
//!
//! The generators in this crate produce single request streams. A serving
//! layer needs more: *who* submits each request and in what interleaved
//! order. [`TenantSchedule`] is that shape — a deterministic sequence of
//! `(tenant, request)` arrivals buildable from any
//! [`WorkloadGenerator`], so the Zipf/hotspot/burst generators drive the
//! multi-tenant server exactly as they drive the single-user evaluation:
//!
//! * [`TenantSchedule::shard`] — deal one stream round-robin across `t`
//!   tenants (tenants share the dataset and its hot set);
//! * [`TenantSchedule::interleave`] — per-tenant generators merged
//!   round-robin (tenants with disjoint or different-skew traffic);
//! * [`TenantSchedule::with_hot_tenant`] — one tenant submits `weight`×
//!   as often as each other tenant, the fairness stress case.
//!
//! Schedules convert back to flat request lists (for the sequential
//! baseline), so every execution mode sees byte-identical requests.

use crate::WorkloadGenerator;
use oram_protocols::types::{BlockId, Request};

/// One arrival: which tenant submits which request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantArrival {
    /// The submitting tenant's index.
    pub tenant: u32,
    /// The request.
    pub request: Request,
}

/// A deterministic multi-tenant arrival sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSchedule {
    /// The arrivals, in submission order.
    pub arrivals: Vec<TenantArrival>,
}

impl TenantSchedule {
    /// Deals `count` requests from one generator round-robin across
    /// `tenants` tenants: request `i` goes to tenant `i % tenants`.
    ///
    /// All tenants address the same block space, so a skewed generator's
    /// hot set is *shared* — the case batching and dedup exploit.
    ///
    /// # Panics
    ///
    /// Panics if `tenants` is zero.
    pub fn shard(generator: &mut dyn WorkloadGenerator, tenants: u32, count: usize) -> Self {
        assert!(tenants > 0, "at least one tenant required");
        let arrivals = (0..count)
            .map(|i| TenantArrival {
                tenant: i as u32 % tenants,
                request: generator.next_request(),
            })
            .collect();
        Self { arrivals }
    }

    /// Merges per-tenant generators round-robin, `count_each` requests
    /// per tenant.
    pub fn interleave(
        mut generators: Vec<(u32, &mut dyn WorkloadGenerator)>,
        count_each: usize,
    ) -> Self {
        let mut arrivals = Vec::with_capacity(generators.len() * count_each);
        for _ in 0..count_each {
            for (tenant, generator) in &mut generators {
                arrivals.push(TenantArrival {
                    tenant: *tenant,
                    request: generator.next_request(),
                });
            }
        }
        Self { arrivals }
    }

    /// Like [`shard`](Self::shard), but tenant 0 submits `weight` requests
    /// for every single request of each other tenant — the hot-tenant
    /// fairness stress.
    ///
    /// # Panics
    ///
    /// Panics if `tenants` or `weight` is zero.
    pub fn with_hot_tenant(
        generator: &mut dyn WorkloadGenerator,
        tenants: u32,
        weight: u32,
        count: usize,
    ) -> Self {
        assert!(tenants > 0, "at least one tenant required");
        assert!(weight > 0, "hot-tenant weight must be positive");
        // One round = `weight` arrivals from tenant 0 plus one from each
        // other tenant.
        let round: Vec<u32> = std::iter::repeat_n(0, weight as usize)
            .chain(1..tenants)
            .collect();
        let arrivals = (0..count)
            .map(|i| TenantArrival {
                tenant: round[i % round.len()],
                request: generator.next_request(),
            })
            .collect();
        Self { arrivals }
    }

    /// Number of arrivals.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// The distinct tenants, ascending.
    pub fn tenants(&self) -> Vec<u32> {
        let mut tenants: Vec<u32> = self.arrivals.iter().map(|a| a.tenant).collect();
        tenants.sort_unstable();
        tenants.dedup();
        tenants
    }

    /// The flat request stream in arrival order (the sequential
    /// baseline's input — byte-identical to what the server sees).
    pub fn requests(&self) -> Vec<Request> {
        self.arrivals.iter().map(|a| a.request.clone()).collect()
    }

    /// How this schedule's requests spread over `shards` shards under the
    /// given routing function: returns per-shard request counts.
    ///
    /// The routing function is a closure (not a concrete mapper type) so
    /// workloads stay decoupled from the ORAM stack — pass
    /// `|id| mapper.shard_of(id)` from a sharded instance's keyed mapper,
    /// or any synthetic split. Benches use this to report load balance
    /// next to throughput.
    ///
    /// # Panics
    ///
    /// Panics if `route` returns an index `≥ shards`.
    pub fn route_counts(
        &self,
        shards: usize,
        mut route: impl FnMut(BlockId) -> usize,
    ) -> Vec<usize> {
        let mut counts = vec![0usize; shards];
        for arrival in &self.arrivals {
            let shard = route(arrival.request.id);
            assert!(shard < shards, "route returned shard {shard} of {shards}");
            counts[shard] += 1;
        }
        counts
    }

    /// Deals `count` arrivals round-robin across `tenants` tenants,
    /// keeping only generated requests that `route` sends to
    /// `target_shard` — the **hot-shard stress**: every request funnels
    /// into one bank of a sharded instance, so scale-out degenerates to a
    /// single instance plus routing overhead. The generator keeps
    /// drawing until `count` matching requests are found.
    ///
    /// # Panics
    ///
    /// Panics if `tenants` is zero, or if the generator fails to produce
    /// a matching request within a generous draw budget (a routing
    /// function that never selects `target_shard`).
    pub fn single_shard(
        generator: &mut dyn WorkloadGenerator,
        tenants: u32,
        count: usize,
        mut route: impl FnMut(BlockId) -> usize,
        target_shard: usize,
    ) -> Self {
        assert!(tenants > 0, "at least one tenant required");
        // A uniform S-way split needs ~S draws per hit; 4096 covers any
        // plausible shard count with huge margin while still terminating
        // on a route that can never match.
        let budget_per_request = 4096usize;
        let mut arrivals = Vec::with_capacity(count);
        for i in 0..count {
            let mut drawn = 0usize;
            let request = loop {
                let candidate = generator.next_request();
                drawn += 1;
                if route(candidate.id) == target_shard {
                    break candidate;
                }
                assert!(
                    drawn < budget_per_request,
                    "route never selected shard {target_shard} in {budget_per_request} draws"
                );
            };
            arrivals.push(TenantArrival {
                tenant: i as u32 % tenants,
                request,
            });
        }
        Self { arrivals }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zipf::ZipfWorkload;

    fn zipf() -> ZipfWorkload {
        ZipfWorkload::new(256, 1.1, 0.2, 7)
    }

    #[test]
    fn shard_deals_round_robin() {
        let schedule = TenantSchedule::shard(&mut zipf(), 4, 40);
        assert_eq!(schedule.len(), 40);
        assert_eq!(schedule.tenants(), vec![0, 1, 2, 3]);
        for (i, arrival) in schedule.arrivals.iter().enumerate() {
            assert_eq!(arrival.tenant, i as u32 % 4);
        }
    }

    #[test]
    fn shard_is_deterministic() {
        let a = TenantSchedule::shard(&mut zipf(), 4, 50);
        let b = TenantSchedule::shard(&mut zipf(), 4, 50);
        assert_eq!(a, b);
    }

    #[test]
    fn hot_tenant_dominates_arrivals() {
        let schedule = TenantSchedule::with_hot_tenant(&mut zipf(), 4, 5, 80);
        let hot = schedule.arrivals.iter().filter(|a| a.tenant == 0).count();
        // One round is 5 hot + 3 cold arrivals.
        assert!(
            hot * 10 >= schedule.len() * 5,
            "hot tenant got {hot}/{}",
            schedule.len()
        );
    }

    #[test]
    fn trace_matches_arrival_order() {
        let schedule = TenantSchedule::shard(&mut zipf(), 2, 20);
        let requests = schedule.requests();
        assert_eq!(requests.len(), 20);
        for (arrival, request) in schedule.arrivals.iter().zip(&requests) {
            assert_eq!(&arrival.request, request);
        }
    }

    #[test]
    fn interleave_merges_generators() {
        let mut a = zipf();
        let mut b = ZipfWorkload::new(256, 0.8, 0.0, 9);
        let schedule = TenantSchedule::interleave(vec![(7, &mut a), (9, &mut b)], 10);
        assert_eq!(schedule.len(), 20);
        assert_eq!(schedule.tenants(), vec![7, 9]);
        assert_eq!(schedule.arrivals[0].tenant, 7);
        assert_eq!(schedule.arrivals[1].tenant, 9);
    }

    #[test]
    fn route_counts_cover_every_arrival() {
        let schedule = TenantSchedule::shard(&mut zipf(), 4, 100);
        let counts = schedule.route_counts(4, |id| (id.0 % 4) as usize);
        assert_eq!(counts.iter().sum::<usize>(), 100);
        // The Zipf stream touches more than one residue class.
        assert!(counts.iter().filter(|&&c| c > 0).count() > 1);
    }

    #[test]
    #[should_panic(expected = "route returned shard")]
    fn route_counts_reject_out_of_range_shards() {
        let schedule = TenantSchedule::shard(&mut zipf(), 2, 10);
        schedule.route_counts(2, |_| 5);
    }

    #[test]
    fn single_shard_funnels_every_request() {
        let route = |id: BlockId| (id.0 % 4) as usize;
        let schedule = TenantSchedule::single_shard(&mut zipf(), 3, 60, route, 2);
        assert_eq!(schedule.len(), 60);
        assert!(schedule.arrivals.iter().all(|a| route(a.request.id) == 2));
        // Round-robin tenant dealing is preserved.
        for (i, arrival) in schedule.arrivals.iter().enumerate() {
            assert_eq!(arrival.tenant, i as u32 % 3);
        }
        assert_eq!(schedule.route_counts(4, route), vec![0, 0, 60, 0]);
    }

    #[test]
    #[should_panic(expected = "never selected shard")]
    fn single_shard_detects_impossible_routes() {
        TenantSchedule::single_shard(&mut zipf(), 1, 1, |_| 0, 1);
    }
}
