//! Batched multi-tenant serving layer for the H-ORAM reproduction.
//!
//! `horam-core` gives one caller a synchronous `enqueue`/`drain` view of
//! an H-ORAM instance. Production traffic looks different: many logical
//! tenants submit concurrently, and the scheduler's grouping factor `c`
//! only pays off when the ROB actually holds enough requests to fill
//! scheduling groups. This crate adds that front-end:
//!
//! * [`OramService`] — accepts requests from registered tenants, checks
//!   them against `horam-core`'s per-tenant [`AccessControl`] table,
//!   coalesces duplicate reads, and drives the shared
//!   [`RequestQueue`](horam_core::queue::RequestQueue)/scheduler on a
//!   deterministic pump loop. Responses come back through
//!   [`ServiceTicket`]s, so tenants never block each other. The engine
//!   behind it is a [`ShardedOram`](horam_core::shard::ShardedOram): the
//!   service is a shard router, splitting each admitted batch across
//!   independent instances (one, at one shard) and pumping them
//!   concurrently in simulated time.
//! * [`admission`] — pluggable batch-filling policies:
//!   [`FifoPolicy`] and [`FairSharePolicy`] (starvation-free
//!   round-robin).
//! * [`stats`] — per-tenant and service-wide accounting in the style of
//!   `horam_core::stats`, including simulated submission-to-completion
//!   latency and the dedup amplification factor.
//!
//! See `docs/ARCHITECTURE.md` at the repository root for the full
//! request lifecycle and the `serving` gate in `crates/bench/src/gates.rs`
//! for the batched-vs-sequential comparison.
//!
//! [`AccessControl`]: horam_core::access_control::AccessControl

#![warn(missing_docs)]

pub mod admission;
pub mod service;
pub mod stats;

pub use admission::{AdmissionPolicy, FairSharePolicy, FifoPolicy, QueuedSnapshot};
pub use service::{OramService, PumpReport, ServeError, ServeReport, ServiceConfig, ServiceTicket};
pub use stats::{ServiceStats, TenantStats};
