//! Workload generation for the H-ORAM reproduction.
//!
//! The paper's evaluation drives both systems with a synthetic request
//! stream: "we randomly generate a sequence of requests in which 80 % of
//! chance it will distribute in a certain area, and 20 % of chance it
//! requests a random data" (§5.2.1). [`hotspot::HotspotWorkload`] is that
//! generator; the other generators support ablations beyond the paper:
//!
//! * [`uniform::UniformWorkload`] — worst case for caching (every access
//!   equally likely to miss);
//! * [`zipf::ZipfWorkload`] — heavy-tailed popularity, the standard
//!   realistic skew model;
//! * [`sequential::SequentialWorkload`] — scan patterns (file serving);
//! * [`burst::BurstWorkload`] — a hot region that periodically jumps,
//!   stressing the cache across periods.
//!
//! All generators are deterministic in their seed and implement
//! [`WorkloadGenerator`], so experiments are exactly repeatable across
//! systems (H-ORAM and the Path ORAM baseline see byte-identical request
//! sequences).
//!
//! For the multi-tenant serving layer, [`serve::TenantSchedule`] turns
//! any generator into a deterministic `(tenant, request)` arrival
//! sequence — sharded, interleaved per tenant, or with a deliberately
//! hot tenant — that the `horam-server` crate and the sequential
//! baselines consume in byte-identical form.

pub mod burst;
pub mod hotspot;
pub mod sequential;
pub mod serve;
pub mod uniform;
pub mod zipf;

pub use burst::BurstWorkload;
pub use hotspot::HotspotWorkload;
pub use sequential::SequentialWorkload;
pub use serve::{TenantArrival, TenantSchedule};
pub use uniform::UniformWorkload;
pub use zipf::ZipfWorkload;

use oram_protocols::types::Request;

/// A deterministic stream of ORAM requests.
pub trait WorkloadGenerator {
    /// Produces the next request.
    fn next_request(&mut self) -> Request;

    /// Number of distinct logical blocks the generator addresses.
    fn capacity(&self) -> u64;

    /// Produces `count` requests.
    fn generate(&mut self, count: usize) -> Vec<Request> {
        (0..count).map(|_| self.next_request()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_collects_from_next_request() {
        let mut workload = UniformWorkload::new(100, 0.0, 1);
        let requests = workload.generate(25);
        assert_eq!(requests.len(), 25);
        assert!(requests.iter().all(|r| r.id.0 < 100));
    }

    #[test]
    fn generators_are_object_safe() {
        let mut boxed: Box<dyn WorkloadGenerator> = Box::new(HotspotWorkload::paper_default(64, 2));
        let request = boxed.next_request();
        assert!(request.id.0 < 64);
    }
}
