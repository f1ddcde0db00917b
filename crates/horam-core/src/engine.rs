//! The pumpable-engine interface the serving layer drives.
//!
//! `horam-server`'s `OramService` multiplexes tenants onto *some* ORAM
//! back-end: a single [`HOram`] instance, or a [`ShardedOram`] spreading
//! the address space over many instances. Both expose the same ticketed
//! enqueue/pump/collect machinery; [`OramEngine`] is that contract, so the
//! serving layer is generic over the back-end instead of hard-wired to one
//! instance.
//!
//! The trait deliberately mirrors the subset of [`HOram`]'s inherent API
//! the serving layer actually uses — geometry validation, ticketed
//! submission, windowed pumping, response collection, stats and the
//! simulated clock — and nothing else, so implementing it for a new
//! back-end (a remote pool, a replicated group) stays small.
//!
//! [`HOram`]: crate::horam::HOram
//! [`ShardedOram`]: crate::shard::ShardedOram

use crate::error::HOramError;
use crate::stats::HOramStats;
use oram_protocols::error::OramError;
use oram_protocols::types::Request;
use oram_storage::clock::SimTime;

/// A ticketed ORAM back-end the serving layer can pump.
///
/// Semantics every implementation must honour:
///
/// * tickets are unique per engine and collect exactly one response;
/// * [`validate`](Self::validate) accepts exactly the requests
///   [`enqueue`](Self::enqueue) would accept, without observable accesses;
/// * [`run_cycle_window`](Self::run_cycle_window) makes progress whenever
///   [`pending_requests`](Self::pending_requests) is non-zero;
/// * requests to the same block complete in submission order (the
///   read-your-writes guarantee batches rely on).
pub trait OramEngine {
    /// Checks a request against the engine's geometry without queueing it.
    ///
    /// # Errors
    ///
    /// [`OramError::BlockOutOfRange`] / [`OramError::PayloadSize`] exactly
    /// as [`enqueue`](Self::enqueue) would report them.
    fn validate(&self, request: &Request) -> Result<(), OramError>;

    /// Queues a request; returns the ticket to collect its response.
    ///
    /// # Errors
    ///
    /// As [`validate`](Self::validate); invalid requests never produce
    /// observable accesses. Sharded engines additionally report
    /// [`HOramError::ShardDegraded`] when the request routes to a shard
    /// that has been quarantined — still with no observable access.
    fn enqueue(&mut self, request: Request) -> Result<u64, HOramError>;

    /// Removes and returns the response for `ticket`, if serviced.
    fn take_response(&mut self, ticket: u64) -> Option<Vec<u8>>;

    /// Removes and returns the *failure* recorded for `ticket`, if its
    /// request was lost to a shard failure instead of completing. A
    /// ticket resolves through exactly one of
    /// [`take_response`](Self::take_response) or this method. Engines
    /// without partial-failure handling (a single instance is all-or-
    /// nothing) never record any.
    fn take_failure(&mut self, _ticket: u64) -> Option<HOramError> {
        None
    }

    /// Indices of shards currently quarantined (empty for healthy or
    /// single-instance engines). Degraded shards serve no requests but
    /// the engine keeps pumping the rest.
    fn degraded_shards(&self) -> Vec<usize> {
        Vec::new()
    }

    /// Runs up to `max_cycles` scheduling cycles (per shard, for sharded
    /// engines) as one I/O window; returns the cycles executed.
    ///
    /// Engines may execute the window on real worker threads (see
    /// `HOramConfig::worker_threads`); the contract requires that
    /// responses, statistics, and simulated time stay byte-identical at
    /// any thread count, so the serving layer never observes *how* a
    /// window ran — only that it did.
    ///
    /// # Errors
    ///
    /// Storage/crypto/protocol errors propagate and are fail-stop for the
    /// failing instance. Engines with independent shards absorb per-shard
    /// failures instead (quarantining the shard and recording failures
    /// for its tickets — see [`take_failure`](Self::take_failure)), so an
    /// `Err` from a sharded engine means the engine as a whole cannot
    /// continue.
    fn run_cycle_window(&mut self, max_cycles: u64) -> Result<u64, HOramError>;

    /// Requests queued and not yet serviced.
    fn pending_requests(&self) -> usize;

    /// Aggregate run statistics (summed across shards for sharded
    /// engines; every counter stays monotone, so deltas attribute work to
    /// pump windows exactly as for a single instance).
    fn aggregate_stats(&self) -> HOramStats;

    /// Per-shard statistics breakdown; a single instance reports itself
    /// as one shard.
    fn per_shard_stats(&self) -> Vec<HOramStats>;

    /// The engine's simulated wall-clock frontier. For sharded engines
    /// this is the shared clock the round-robin pump advances, not any
    /// individual shard's timeline.
    fn now(&self) -> SimTime;

    /// Number of independent instances behind this engine.
    fn shard_count(&self) -> usize {
        1
    }

    /// Seals the engine's complete trusted state into an encrypted,
    /// authenticated snapshot (committing durable devices first). The
    /// engine must be drained; the serving layer's checkpoint operation
    /// guarantees it. Restore goes through the concrete type
    /// ([`HOram::restore`](crate::horam::HOram::restore) /
    /// [`ShardedOram::restore`](crate::shard::ShardedOram::restore)) —
    /// it needs the master key and fresh devices, which the trait
    /// deliberately does not model.
    ///
    /// # Errors
    ///
    /// [`OramError::SnapshotInvalid`] when requests are in flight;
    /// storage backend errors propagate.
    fn snapshot(&mut self) -> Result<Vec<u8>, OramError>;
}

impl OramEngine for crate::horam::HOram {
    fn validate(&self, request: &Request) -> Result<(), OramError> {
        self.queue().validate(request)
    }

    fn enqueue(&mut self, request: Request) -> Result<u64, HOramError> {
        self.enqueue(request).map_err(HOramError::from)
    }

    fn take_response(&mut self, ticket: u64) -> Option<Vec<u8>> {
        self.take_response(ticket)
    }

    fn run_cycle_window(&mut self, max_cycles: u64) -> Result<u64, HOramError> {
        self.run_cycle_window(max_cycles).map_err(HOramError::from)
    }

    fn pending_requests(&self) -> usize {
        self.queue().pending()
    }

    fn aggregate_stats(&self) -> HOramStats {
        self.stats()
    }

    fn per_shard_stats(&self) -> Vec<HOramStats> {
        vec![self.stats()]
    }

    fn now(&self) -> SimTime {
        self.clock().now()
    }

    fn snapshot(&mut self) -> Result<Vec<u8>, OramError> {
        self.snapshot()
    }
}
