//! The multi-tenant serving front-end.
//!
//! [`OramService`] multiplexes many logical tenants onto one
//! [`ShardedOram`] — the address space spread over one or more
//! independent H-ORAM instances (one shard is a single instance behind
//! the router). The flow for each request:
//!
//! 1. **submit** — access control ([`AccessControl`]) and geometry
//!    validation run in the trusted control layer; rejected requests
//!    produce *no observable access*. Accepted requests join their
//!    tenant's FIFO queue and get a [`ServiceTicket`].
//! 2. **pump** — the admission policy fills one batch (up to
//!    `batch_size` requests across tenants), duplicate reads of the same
//!    block are coalesced onto one ORAM request, the batch enters the
//!    shared [`RequestQueue`](horam_core::queue::RequestQueue), and
//!    scheduling cycles run until the batch drains.
//! 3. **collect** — responses are buffered per ticket;
//!    [`OramService::take_response`] hands them back in any order while
//!    later batches run.
//!
//! Obliviousness: batch boundaries depend only on queue *lengths* and the
//! policy, never on block ids, and every scheduling cycle keeps the
//! paper's fixed observable shape. **Read coalescing is a deliberate
//! trade-off on top of that**: with [`ServiceConfig::dedup`] enabled
//! (the default), the *number* of ORAM requests a batch issues — and so
//! its cycle count and completion timing — depends on cross-tenant
//! duplicate structure, which a co-resident tenant could probe to learn
//! that *someone* shares its hot blocks. Deployments where tenants are
//! mutually distrusting should set `dedup: false`, restoring one ORAM
//! access per request at the cost of the amplification win the
//! `serving` bench gate measures.

use crate::admission::{AdmissionPolicy, QueuedSnapshot};
use crate::stats::{ServiceStats, TenantStats};
use horam_core::access_control::{AccessControl, AccessDenied, Permission, UserId};
use horam_core::error::HOramError;
use horam_core::shard::ShardedOram;
use horam_core::stats::HOramStats;
use oram_protocols::error::OramError;
use oram_protocols::types::{BlockId, Request, RequestOp};
use oram_storage::clock::{SimDuration, SimTime};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::error::Error;
use std::fmt;
use std::ops::Range;

/// Handle for collecting one submitted request's response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServiceTicket(pub u64);

/// Serving-layer tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Maximum requests admitted per pumped batch.
    pub batch_size: usize,
    /// Per-tenant bound on queued-but-unadmitted requests (backpressure).
    pub max_pending_per_tenant: usize,
    /// Coalesce duplicate same-block reads within a batch. Saves ORAM
    /// accesses on shared hot sets, but makes batch timing depend on
    /// cross-tenant duplicates — a side channel between mutually
    /// distrusting tenants (see the [module docs](self)); disable it
    /// when that matters more than throughput.
    pub dedup: bool,
    /// Scheduling cycles drained per I/O window: each pump plans up to
    /// this many cycles and issues their storage loads as one scatter
    /// read (`HOram::run_cycle_window`), coalescing per-op device
    /// overhead. Every window's observable shape matches the per-cycle
    /// path cycle for cycle; `1` reproduces the per-cycle drain exactly,
    /// while larger windows check the pump's low watermark only between
    /// windows (so a drain can run up to one window past it).
    pub io_batch: u64,
    /// Wall-clock worker threads the deployment should build its engine
    /// with (`HOramConfig::worker_threads`): the engine pumps busy shards
    /// concurrently on real OS threads, and each shard parallelizes its
    /// shuffle stream. The service only sees the built engine — consume
    /// this through
    /// [`engine_config`](Self::engine_config) when constructing the
    /// engine, so engine and service are sized from one configuration.
    /// Responses and stats are byte-identical at any value. Defaults to
    /// the host's available parallelism.
    pub worker_threads: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            batch_size: 64,
            max_pending_per_tenant: 4096,
            dedup: true,
            io_batch: 16,
            worker_threads: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        }
    }
}

impl ServiceConfig {
    /// Applies the serving deployment's sizing to the engine configuration
    /// it is about to build — currently the wall-clock thread count. This
    /// is the supported way to consume
    /// [`worker_threads`](Self::worker_threads): build the engine from
    /// `config.engine_config(base)` and pass the same `config` to
    /// [`OramService::new`], and the two cannot drift apart.
    pub fn engine_config(
        &self,
        base: horam_core::config::HOramConfig,
    ) -> horam_core::config::HOramConfig {
        base.with_worker_threads(self.worker_threads)
    }
}

/// Why the service rejected a submission.
#[derive(Debug)]
pub enum ServeError {
    /// The tenant was never registered.
    UnknownTenant(UserId),
    /// Access control rejected the request.
    Denied(AccessDenied),
    /// The tenant's queue is at its backpressure bound.
    QueueFull {
        /// The tenant whose queue is full.
        tenant: UserId,
        /// The configured bound.
        limit: usize,
    },
    /// The request failed geometry validation or the ORAM failed.
    Oram(OramError),
    /// The shard owning the request is quarantined (or was quarantined
    /// while the request was in flight). Requests to other shards keep
    /// serving; the tenant should retry elsewhere or wait for operator
    /// intervention.
    Degraded {
        /// The degraded shard's index.
        shard: usize,
        /// Why the shard was taken out of service.
        reason: String,
    },
    /// A bounded wait elapsed before the ticket resolved — either the
    /// pump budget ran out, or the admission policy stalled with the
    /// ticket still queued. Raised only by
    /// [`OramService::take_result_timeout`]; the ticket stays collectable
    /// by a later wait (the request is *not* cancelled — an admitted
    /// write may already have been applied, so cancellation could never
    /// be idempotent).
    Timeout {
        /// The ticket that failed to resolve within the budget.
        ticket: ServiceTicket,
        /// Pump iterations the bounded wait consumed before giving up.
        pumps: u64,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownTenant(tenant) => write!(f, "{tenant} is not registered"),
            ServeError::Denied(denial) => write!(f, "denied: {denial}"),
            ServeError::QueueFull { tenant, limit } => {
                write!(f, "{tenant} queue full (limit {limit})")
            }
            ServeError::Oram(error) => write!(f, "oram: {error}"),
            ServeError::Degraded { shard, reason } => {
                write!(f, "shard {shard} degraded: {reason}")
            }
            ServeError::Timeout { ticket, pumps } => {
                write!(
                    f,
                    "ticket {} unresolved after {pumps} bounded pump(s)",
                    ticket.0
                )
            }
        }
    }
}

impl Error for ServeError {}

impl From<OramError> for ServeError {
    fn from(error: OramError) -> Self {
        ServeError::Oram(error)
    }
}

impl From<HOramError> for ServeError {
    fn from(error: HOramError) -> Self {
        match error {
            HOramError::Protocol(e) => ServeError::Oram(e),
            HOramError::ShardDegraded { shard, reason } => ServeError::Degraded { shard, reason },
            // `HOramError` is non-exhaustive; future variants collapse to
            // their protocol view.
            other => ServeError::Oram(other.into_protocol()),
        }
    }
}

impl From<AccessDenied> for ServeError {
    fn from(denial: AccessDenied) -> Self {
        ServeError::Denied(denial)
    }
}

/// What one [`OramService::pump`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PumpReport {
    /// Requests admitted into this batch.
    pub admitted: u64,
    /// Of those, served by piggybacking on another request's access.
    pub deduped: u64,
    /// Responses completed by this batch.
    pub completed: u64,
    /// Requests resolved to a typed failure by this batch (shard
    /// degraded at admission, or lost to a shard failure in flight) —
    /// collect them via [`OramService::take_result`].
    pub failed: u64,
    /// Scheduling cycles the batch consumed.
    pub cycles: u64,
    /// Simulated wall-clock time the batch consumed.
    pub wall_time: SimDuration,
}

/// Result of serving a whole workload to completion.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeReport {
    /// Batches pumped.
    pub batches: u64,
    /// Responses completed.
    pub completed: u64,
    /// Simulated wall-clock time consumed.
    pub wall_time: SimDuration,
}

#[derive(Debug)]
struct Pending {
    ticket: ServiceTicket,
    request: Request,
    arrival_seq: u64,
    submitted_at: SimTime,
}

#[derive(Debug, Default)]
struct TenantState {
    pending: VecDeque<Pending>,
    stats: TenantStats,
}

/// One admitted request while its batch is in flight.
#[derive(Debug)]
struct InFlight {
    tenant: UserId,
    ticket: ServiceTicket,
    is_write: bool,
    submitted_at: SimTime,
    /// The ORAM ticket carrying this request, and whether this request is
    /// the one that issued it (`false` ⇒ piggybacked on another's access).
    oram_ticket: u64,
    piggybacked: bool,
}

/// The batched multi-tenant front-end over one [`ShardedOram`].
///
/// The service is a **shard router**: admitted batches split across
/// shards at `enqueue` (each request routed by the engine's keyed address
/// partition), the pump drives every busy shard round-robin against the
/// engine's shared simulated clock, and responses merge back through the
/// per-ticket collection path in arrival order. With one shard the
/// router fronts a single H-ORAM instance; the paper's multi-user mode
/// (§5.3.2) is exactly that.
///
/// The type parameter is not a choice of engine: its default is the only
/// type the service is implemented for, and the fields are private, so
/// no other instantiation can be built. It exists because the benchmark
/// harness under `benchmark/` spells the type `OramService<ShardedOram>`.
///
/// # Example
///
/// ```
/// use horam_core::{HOramConfig, ShardedConfig, ShardedOram, UserId};
/// use horam_core::access_control::Permission;
/// use horam_server::{FairSharePolicy, OramService, ServiceConfig};
/// use oram_protocols::types::Request;
/// use oram_storage::hierarchy::MemoryHierarchy;
/// use oram_crypto::keys::MasterKey;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let oram = ShardedOram::new(
///     ShardedConfig::new(HOramConfig::new(256, 8, 64).with_seed(1), 1),
///     MasterKey::from_bytes([1; 32]),
///     |_| MemoryHierarchy::dac2019(),
/// )?;
/// let mut service = OramService::new(
///     oram,
///     Box::new(FairSharePolicy::default()),
///     ServiceConfig::default(),
/// );
/// service.register_tenant(UserId(0), 0..256, Permission::ReadWrite);
///
/// let w = service.submit(UserId(0), Request::write(7u64, vec![42; 8]))?;
/// let r = service.submit(UserId(0), Request::read(7u64))?;
/// service.pump_until_idle()?;
/// assert_eq!(service.take_response(w), Some(vec![0; 8])); // previous bytes
/// assert_eq!(service.take_response(r), Some(vec![42; 8]));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct OramService<E = ShardedOram> {
    oram: E,
    acl: AccessControl,
    policy: Box<dyn AdmissionPolicy>,
    config: ServiceConfig,
    tenants: BTreeMap<UserId, TenantState>,
    next_ticket: u64,
    arrival_seq: u64,
    in_flight: Vec<InFlight>,
    responses: HashMap<ServiceTicket, Vec<u8>>,
    /// Typed failures for tickets that will never produce a response
    /// (shard degraded at admission or failed in flight); delivered
    /// through [`take_result`](Self::take_result).
    failures: HashMap<ServiceTicket, HOramError>,
    stats: ServiceStats,
}

impl OramService {
    /// Wraps an ORAM engine with the given policy and config.
    pub fn new(oram: ShardedOram, policy: Box<dyn AdmissionPolicy>, config: ServiceConfig) -> Self {
        assert!(config.batch_size > 0, "batch_size must be positive");
        assert!(
            config.max_pending_per_tenant > 0,
            "backpressure bound must be positive"
        );
        assert!(config.io_batch > 0, "io_batch must be positive");
        assert!(config.worker_threads > 0, "worker_threads must be positive");
        Self {
            oram,
            acl: AccessControl::new(),
            policy,
            config,
            tenants: BTreeMap::new(),
            next_ticket: 0,
            arrival_seq: 0,
            in_flight: Vec::new(),
            responses: HashMap::new(),
            failures: HashMap::new(),
            stats: ServiceStats::default(),
        }
    }

    /// Registers a tenant with an initial grant.
    pub fn register_tenant(&mut self, tenant: UserId, range: Range<u64>, permission: Permission) {
        self.acl.grant(tenant, range, permission);
        self.tenants.entry(tenant).or_default();
    }

    /// Adds a further grant to a registered tenant.
    pub fn grant(&mut self, tenant: UserId, range: Range<u64>, permission: Permission) {
        self.acl.grant(tenant, range, permission);
    }

    /// Queues a request for a tenant.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`] for unregistered tenants,
    /// [`ServeError::Denied`] when access control rejects,
    /// [`ServeError::QueueFull`] at the backpressure bound and
    /// [`ServeError::Oram`] for geometry violations. None of these
    /// produce observable accesses.
    pub fn submit(
        &mut self,
        tenant: UserId,
        request: Request,
    ) -> Result<ServiceTicket, ServeError> {
        if !self.tenants.contains_key(&tenant) {
            return Err(ServeError::UnknownTenant(tenant));
        }
        if let Err(denial) = self.acl.check(tenant, &request) {
            self.tenants.get_mut(&tenant).expect("checked").stats.denied += 1;
            return Err(denial.into());
        }
        self.oram.validate(&request)?;
        let state = self.tenants.get_mut(&tenant).expect("checked");
        if state.pending.len() >= self.config.max_pending_per_tenant {
            state.stats.rejected_backpressure += 1;
            return Err(ServeError::QueueFull {
                tenant,
                limit: self.config.max_pending_per_tenant,
            });
        }

        let ticket = ServiceTicket(self.next_ticket);
        self.next_ticket += 1;
        let arrival_seq = self.arrival_seq;
        self.arrival_seq += 1;
        state.pending.push_back(Pending {
            ticket,
            request,
            arrival_seq,
            submitted_at: self.oram.clock().now(),
        });
        state.stats.submitted += 1;
        state.stats.queue_peak = state.stats.queue_peak.max(state.pending.len());
        Ok(ticket)
    }

    /// Pumps once: admit → coalesce → schedule → collect.
    ///
    /// Admission tops the shared ROB up to `batch_size` in-flight
    /// requests; the scheduler then runs until the ROB falls back to half
    /// the batch size — or drains completely when no further work is
    /// queued. Keeping the ROB at depth (instead of draining every batch
    /// to empty) means scheduling groups stay full across batch
    /// boundaries, which is where batching beats sequential `run_batch`.
    /// Completed responses are collected incrementally each pump.
    ///
    /// Returns a zeroed report when nothing is queued or in flight.
    ///
    /// # Errors
    ///
    /// ORAM storage/crypto errors propagate.
    pub fn pump(&mut self) -> Result<PumpReport, ServeError> {
        let baseline: HOramStats = self.oram.stats();
        let wall_start = self.oram.clock().now();

        // Admission: fill the ROB up to the batch size.
        let space = self.config.batch_size.saturating_sub(self.oram.pending());
        let mut deduped = 0u64;
        let mut admitted_count = 0u64;
        let mut failed_count = 0u64;
        if space > 0 && self.pending_total() > 0 {
            let plan = {
                let snapshot = self.snapshot(space);
                self.policy.plan_batch(&snapshot, space)
            };

            // Pop the planned requests from their queue fronts, in plan
            // order, coalescing duplicate reads. `read_carriers` maps a
            // block to the ORAM ticket of an earlier read in this
            // admission round; a write to the block invalidates the entry
            // (later reads must observe the new value through their own
            // access).
            let mut read_carriers: HashMap<BlockId, u64> = HashMap::new();
            let mut batch_tenants: Vec<UserId> = Vec::new();
            for tenant in plan.into_iter().take(space) {
                let Some(state) = self.tenants.get_mut(&tenant) else {
                    continue;
                };
                let Some(pending) = state.pending.pop_front() else {
                    continue;
                };
                state.stats.admitted += 1;
                if !batch_tenants.contains(&tenant) {
                    batch_tenants.push(tenant);
                    state.stats.batches += 1;
                }
                admitted_count += 1;

                let is_write = pending.request.op.is_write();
                let block = pending.request.id;
                let enqueued = match (&pending.request.op, self.config.dedup) {
                    (RequestOp::Read, true) => match read_carriers.get(&block) {
                        Some(carrier) => {
                            deduped += 1;
                            Ok((*carrier, true))
                        }
                        None => self.oram.enqueue(pending.request.clone()).map(|ticket| {
                            read_carriers.insert(block, ticket);
                            (ticket, false)
                        }),
                    },
                    _ => self.oram.enqueue(pending.request.clone()).map(|ticket| {
                        if is_write {
                            read_carriers.remove(&block);
                        }
                        (ticket, false)
                    }),
                };
                // A degraded target shard fails the request typed at
                // admission — no observable access, the batch goes on.
                let (oram_ticket, piggybacked) = match enqueued {
                    Ok(pair) => pair,
                    Err(error) => {
                        failed_count += 1;
                        self.failures.insert(pending.ticket, error);
                        continue;
                    }
                };
                self.in_flight.push(InFlight {
                    tenant,
                    ticket: pending.ticket,
                    is_write,
                    submitted_at: pending.submitted_at,
                    oram_ticket,
                    piggybacked,
                });
            }
        }

        if self.in_flight.is_empty() {
            // Nothing runnable — but admissions that failed typed (all
            // routed to degraded shards) must still be reported, or an
            // idle-pump loop would stall with healthy work queued.
            return Ok(PumpReport {
                admitted: admitted_count,
                deduped,
                completed: 0,
                failed: failed_count,
                cycles: 0,
                wall_time: self.oram.clock().now().duration_since(wall_start),
            });
        }

        // Schedule: drain to the low watermark — or fully, when no more
        // admissions can refill the pipeline (or an empty admission round
        // left the ROB below the watermark, which must still progress).
        let watermark = if self.pending_total() > 0 && admitted_count > 0 {
            self.config.batch_size / 2
        } else {
            0
        };
        // Each window plans up to `io_batch` cycles and issues their
        // storage loads as one scatter read — the batched I/O pipeline
        // under the multi-tenant path. Windows are clamped to the request
        // count above the watermark, so deep queues get full batches
        // while near the watermark the drain falls back to short windows.
        // The watermark is still checked at window granularity: because a
        // cycle can retire up to `c` hits, a window may drain past it by
        // up to a window's worth of retirements before the next check —
        // a deliberate trade (full scatter batches) over stopping
        // per-cycle.
        while self.oram.pending() > watermark {
            let above = (self.oram.pending() - watermark) as u64;
            self.oram
                .run_cycle_window(self.config.io_batch.min(above))?;
        }

        // Collect every response that completed. Piggybackers share their
        // carrier's ORAM ticket (and were admitted in the same round), so
        // each completed ticket is taken once and fanned out.
        let now = self.oram.clock().now();
        let mut completed = 0u64;
        let mut ready: HashMap<u64, Vec<u8>> = HashMap::new();
        let mut lost: HashMap<u64, HOramError> = HashMap::new();
        for flight in &self.in_flight {
            if ready.contains_key(&flight.oram_ticket) || lost.contains_key(&flight.oram_ticket) {
                continue;
            }
            if let Some(payload) = self.oram.take_response(flight.oram_ticket) {
                ready.insert(flight.oram_ticket, payload);
            } else if let Some(error) = self.oram.take_failure(flight.oram_ticket) {
                lost.insert(flight.oram_ticket, error);
            }
        }
        let mut still_in_flight = Vec::with_capacity(self.in_flight.len());
        for flight in self.in_flight.drain(..) {
            if let Some(payload) = ready.get(&flight.oram_ticket) {
                completed += 1;
                let latency = now.duration_since(flight.submitted_at);
                let state = self.tenants.get_mut(&flight.tenant).expect("registered");
                state
                    .stats
                    .record_completion(flight.is_write, flight.piggybacked, latency);
                self.responses.insert(flight.ticket, payload.clone());
            } else if let Some(error) = lost.get(&flight.oram_ticket) {
                // The carrying shard failed in flight; every piggybacker
                // inherits the carrier's typed failure.
                failed_count += 1;
                self.failures.insert(flight.ticket, error.clone());
            } else {
                still_in_flight.push(flight);
            }
        }
        self.in_flight = still_in_flight;

        let oram_delta = self.oram.stats().delta_since(&baseline);
        let wall_time = now.duration_since(wall_start);
        self.stats.batches += 1;
        self.stats.admitted += admitted_count;
        self.stats.completed += completed;
        self.stats.deduped += deduped;
        self.stats.oram += oram_delta;

        Ok(PumpReport {
            admitted: admitted_count,
            deduped,
            completed,
            failed: failed_count,
            cycles: oram_delta.cycles,
            wall_time,
        })
    }

    /// Pumps until every tenant queue is empty and every admitted request
    /// has completed.
    ///
    /// # Errors
    ///
    /// ORAM storage/crypto errors propagate.
    pub fn pump_until_idle(&mut self) -> Result<ServeReport, ServeError> {
        let mut report = ServeReport::default();
        while self.pending_total() > 0 || !self.in_flight.is_empty() {
            let pump = self.pump()?;
            report.batches += 1;
            report.completed += pump.completed;
            report.wall_time += pump.wall_time;
            if pump.admitted == 0 && pump.completed == 0 && pump.failed == 0 {
                // A policy that refuses to admit queued work would
                // otherwise spin forever; stop and leave the queues as
                // they are. (Typed failures count as progress — their
                // requests left the pipeline.)
                break;
            }
        }
        Ok(report)
    }

    /// Checkpoint: drains every in-flight batch and queued request
    /// ([`pump_until_idle`](Self::pump_until_idle)), then seals the
    /// engine's complete trusted state into an encrypted, authenticated
    /// snapshot ([`ShardedOram::snapshot`]) — committing durable storage
    /// devices first, so snapshot and device file describe one consistent
    /// recovery point.
    ///
    /// Deployment-side restore builds a fresh engine from the snapshot
    /// ([`ShardedOram::restore`]) and wraps it in a new
    /// service. Service-level state — tenant registrations, grants,
    /// uncollected [`ServiceTicket`] responses — is configuration and
    /// delivery state outside the ORAM trust boundary; re-register
    /// tenants on the new service and collect responses before
    /// checkpointing.
    ///
    /// # Errors
    ///
    /// ORAM storage/crypto errors propagate; the engine reports
    /// `SnapshotInvalid` if an admission-policy stall left requests
    /// queued (see [`pump_until_idle`](Self::pump_until_idle)).
    pub fn checkpoint(&mut self) -> Result<Vec<u8>, ServeError> {
        self.pump_until_idle()?;
        Ok(self.oram.snapshot()?)
    }

    /// Submits a whole arrival sequence and serves it to completion,
    /// returning each arrival's ticket in submission order. This is the
    /// entry point workload `TenantSchedule`s feed (see
    /// `oram_workload::serve`).
    ///
    /// The loop pumps whenever a batch's worth of work is queued *or*
    /// the next arrival's tenant queue is at its backpressure bound, so
    /// `serve_all` never fails with [`ServeError::QueueFull`] regardless
    /// of how `batch_size` relates to `max_pending_per_tenant`.
    ///
    /// # Errors
    ///
    /// Validation errors ([`ServeError::UnknownTenant`],
    /// [`ServeError::Denied`], geometry) abort mid-stream: already
    /// submitted requests stay queued but their tickets are lost with the
    /// returned error — validate tenants/grants up front, or use
    /// [`submit`](Self::submit)/[`pump`](Self::pump) directly for
    /// per-request error handling. ORAM errors propagate from the pump
    /// loop.
    pub fn serve_all(
        &mut self,
        arrivals: impl IntoIterator<Item = (UserId, Request)>,
    ) -> Result<(Vec<ServiceTicket>, ServeReport), ServeError> {
        let mut tickets = Vec::new();
        let mut report = ServeReport::default();
        let track = |report: &mut ServeReport, pump: PumpReport| {
            report.batches += 1;
            report.completed += pump.completed;
            report.wall_time += pump.wall_time;
        };
        for (tenant, request) in arrivals {
            // Make room before submitting: a full tenant queue would turn
            // into a spurious QueueFull otherwise.
            while self
                .tenants
                .get(&tenant)
                .is_some_and(|state| state.pending.len() >= self.config.max_pending_per_tenant)
            {
                let pump = self.pump()?;
                let stalled = pump.admitted == 0 && pump.completed == 0 && pump.failed == 0;
                track(&mut report, pump);
                if stalled {
                    break; // policy refuses to admit; surface the QueueFull
                }
            }
            tickets.push(self.submit(tenant, request)?);
            // Keep queues within the backpressure bound by pumping as
            // batches fill up.
            if self.pending_total() >= self.config.batch_size {
                let pump = self.pump()?;
                track(&mut report, pump);
            }
        }
        let tail = self.pump_until_idle()?;
        report.batches += tail.batches;
        report.completed += tail.completed;
        report.wall_time += tail.wall_time;
        Ok((tickets, report))
    }

    /// Removes and returns a completed response.
    pub fn take_response(&mut self, ticket: ServiceTicket) -> Option<Vec<u8>> {
        self.responses.remove(&ticket)
    }

    /// Removes and returns a ticket's outcome: `Ok(response)` when it
    /// completed, `Err` with the typed per-tenant failure when its shard
    /// was degraded at admission or failed in flight, `None` while still
    /// queued/in flight (or for tickets already taken). Prefer this over
    /// [`take_response`](Self::take_response) when the engine can
    /// degrade — a `None` from `take_response` cannot distinguish "not
    /// yet" from "never".
    pub fn take_result(&mut self, ticket: ServiceTicket) -> Option<Result<Vec<u8>, ServeError>> {
        if let Some(payload) = self.responses.remove(&ticket) {
            return Some(Ok(payload));
        }
        self.failures
            .remove(&ticket)
            .map(|error| Err(ServeError::from(error)))
    }

    /// Pumps the service until `ticket` resolves, bounded by `max_pumps`
    /// scheduling iterations — the deadline-bounded companion of
    /// [`take_result`](Self::take_result). Every wait inside is bounded:
    /// a ticket that can never resolve (never issued, already collected,
    /// or silently lost) returns
    /// [`OramError::UnknownTicket`] immediately instead of spinning, and
    /// a pump that makes no progress while the ticket is still queued (an
    /// admission policy refusing to admit it) fails fast rather than
    /// burning the remaining budget on identical no-op pumps.
    ///
    /// On [`ServeError::Timeout`] the request is **not** cancelled — an
    /// admitted write may already have been applied, so the only
    /// idempotent behaviour is to leave the ticket collectable by a later
    /// [`take_result`](Self::take_result) or a retried wait. The RPC
    /// front end builds its server-side deadline machinery on exactly
    /// this contract.
    ///
    /// # Errors
    ///
    /// [`ServeError::Timeout`] when the budget elapses or admission
    /// stalls; [`ServeError::Oram`] ([`OramError::UnknownTicket`]) for
    /// unresolvable tickets; pump errors propagate; and a ticket whose
    /// request failed typed (degraded shard) yields that failure, exactly
    /// as [`take_result`](Self::take_result) would.
    pub fn take_result_timeout(
        &mut self,
        ticket: ServiceTicket,
        max_pumps: u64,
    ) -> Result<Vec<u8>, ServeError> {
        if ticket.0 >= self.next_ticket {
            return Err(ServeError::Oram(OramError::UnknownTicket {
                ticket: ticket.0,
            }));
        }
        let mut pumps = 0u64;
        loop {
            if let Some(outcome) = self.take_result(ticket) {
                return outcome;
            }
            if !self.ticket_live(ticket) {
                // Issued once but no longer queued, in flight, or
                // buffered: it was already collected (or lost) and no
                // amount of pumping can resolve it.
                return Err(ServeError::Oram(OramError::UnknownTicket {
                    ticket: ticket.0,
                }));
            }
            if pumps >= max_pumps {
                return Err(ServeError::Timeout { ticket, pumps });
            }
            let report = self.pump()?;
            pumps += 1;
            if report.admitted == 0 && report.completed == 0 && report.failed == 0 {
                // No progress and the ticket is still unresolved: the
                // admission policy is refusing the queue. Further pumps
                // are byte-identical no-ops, so fail fast.
                if let Some(outcome) = self.take_result(ticket) {
                    return outcome;
                }
                return Err(ServeError::Timeout { ticket, pumps });
            }
        }
    }

    /// Whether a response is ready to take.
    pub fn response_ready(&self, ticket: ServiceTicket) -> bool {
        self.responses.contains_key(&ticket)
    }

    /// Whether `ticket` is still moving through the pipeline (queued
    /// behind admission or in flight in a batch). Resolved tickets —
    /// response buffered, typed failure recorded, or already taken — are
    /// not live.
    fn ticket_live(&self, ticket: ServiceTicket) -> bool {
        self.in_flight.iter().any(|flight| flight.ticket == ticket)
            || self
                .tenants
                .values()
                .any(|state| state.pending.iter().any(|pending| pending.ticket == ticket))
    }

    /// Total queued-but-unadmitted requests across tenants.
    pub fn pending_total(&self) -> usize {
        self.tenants.values().map(|state| state.pending.len()).sum()
    }

    /// A tenant's accounting, if registered.
    pub fn tenant_stats(&self, tenant: UserId) -> Option<&TenantStats> {
        self.tenants.get(&tenant).map(|state| &state.stats)
    }

    /// Service-wide accounting.
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// The underlying ORAM engine (stats, clock, config, shards).
    pub fn oram(&self) -> &ShardedOram {
        &self.oram
    }

    /// Per-shard ORAM statistics, in shard-index order. The aggregate
    /// across shards accumulates into
    /// [`ServiceStats::oram`](crate::stats::ServiceStats::oram) as
    /// batches pump.
    pub fn shard_stats(&self) -> Vec<HOramStats> {
        self.oram.shard_stats()
    }

    /// Snapshots at most `limit` entries per tenant: policies only ever
    /// pop queue fronts and admit at most `limit` requests total, so
    /// deeper entries cannot be admitted this round and need not be
    /// materialized (keeps each pump O(tenants × batch), not O(queued)).
    fn snapshot(&self, limit: usize) -> Vec<QueuedSnapshot> {
        let mut snapshot = Vec::new();
        for (tenant, state) in &self.tenants {
            for (position, pending) in state.pending.iter().take(limit).enumerate() {
                snapshot.push(QueuedSnapshot {
                    tenant: *tenant,
                    arrival_seq: pending.arrival_seq,
                    position,
                });
            }
        }
        snapshot
    }
}
