//! Sharded H-ORAM: the logical address space partitioned across `N`
//! fully independent instances.
//!
//! One [`HOram`] funnels every request through a
//! single storage device and one shuffle schedule, so aggregate
//! throughput is capped by one device queue no matter how many tenants
//! submit. [`ShardedOram`] removes that ceiling the way parallel
//! oblivious memories do (Palermo, BIOS ORAM): split the address space
//! into `N` banks, give each bank its *own* complete H-ORAM instance —
//! private storage device, memory tree, stash, permutation list and
//! shuffle schedule — and drive the banks concurrently in simulated time.
//!
//! **Address partitioning.** A keyed Feistel PRP π over the padded
//! domain `shards · ⌈N/shards⌉` maps each logical id to
//! `(shard, local) = (π(id) / cap, π(id) mod cap)`. The PRP is keyed from
//! the instance master key, so the shard an address lands on is
//! pseudorandom and balanced: each shard owns exactly `cap` images, and
//! any workload's blocks spread near-uniformly. Because π is a secret
//! bijection, the adversary's view of *which shard* serves an access is
//! the image of the request sequence under a secret permutation — the
//! partition-repeat pattern of Stefanov-style partition ORAMs. Within
//! each shard, the full H-ORAM obliviousness argument applies unchanged;
//! see `docs/ARCHITECTURE.md` §7 for the complete leakage discussion.
//!
//! **Clock interleaving.** Each shard keeps its own device clock, which
//! advances only while that shard works. The sharded instance exposes one
//! shared clock — the **frontier**, the maximum over the per-shard
//! timelines — updated after every
//! [`run_cycle_window`](ShardedOram::run_cycle_window) round-robin round.
//! The shards have no cross-shard data dependencies, so their windows
//! (and the shuffle periods they trigger) execute fully concurrently in
//! simulated time: elapsed time is the *busiest* shard's busy time, not
//! the sum, and aggregate I/O time approaches max-per-shard — which is
//! where the throughput scaling comes from (see the `sharding` gate of `bench --bin suite`).
//! Per-shard device time stays exact; what the frontier abstracts away is
//! arrival timing (a request is processed where its shard's timeline
//! stands, even if other shards have advanced further), matching the
//! deep-queue regime the serving layer and benches operate in.

use crate::config::HOramConfig;
use crate::error::HOramError;
use crate::horam::HOram;
use crate::persist::{self, KIND_SHARDED, SNAPSHOT_DOMAIN};
use crate::pool::WorkerPool;
use crate::stats::HOramStats;
use oram_crypto::keys::{MasterKey, SubKeys};
use oram_crypto::persist::{open_envelope, seal_envelope, StateReader, StateWriter};
use oram_crypto::prp::FeistelPrp;
use oram_protocols::error::OramError;
use oram_protocols::oram_trait::Oram;
use oram_protocols::types::{BlockId, Request, RequestOp};
use oram_storage::clock::{SimClock, SimTime};
use oram_storage::hierarchy::MemoryHierarchy;
use std::collections::HashMap;
use std::sync::Arc;

/// Configuration of a sharded instance: the aggregate geometry plus the
/// shard count.
///
/// The aggregate `capacity` and `memory_slots` of [`base`](Self::base)
/// are *divided* across the shards (each shard gets
/// `⌈capacity/shards⌉` blocks and `⌊memory_slots/shards⌋` tree slots),
/// so a sharded instance never exceeds the total memory budget of the
/// single instance it replaces — the comparison the sharding bench
/// makes. The floor division drops up to `shards − 1` remainder slots
/// (conservative for that comparison); a budget too small to give every
/// shard at least one bucket is rejected by [`validate`](Self::validate)
/// rather than silently inflated.
///
/// # Example
///
/// ```
/// use horam_core::config::HOramConfig;
/// use horam_core::shard::ShardedConfig;
///
/// let config = ShardedConfig::new(HOramConfig::new(4096, 16, 1024), 4);
/// assert_eq!(config.shard_capacity(), 1024);
/// assert_eq!(config.shard_config(0).memory_slots, 256);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedConfig {
    /// Aggregate geometry and scheduling knobs; every per-shard option
    /// (stage schedule, prefetch distance, `io_batch`, shuffles) is
    /// inherited unchanged.
    pub base: HOramConfig,
    /// Number of independent instances the address space is split over.
    pub shards: u64,
}

impl ShardedConfig {
    /// Wraps an aggregate configuration with a shard count.
    pub fn new(base: HOramConfig, shards: u64) -> Self {
        Self { base, shards }
    }

    /// Validates cross-field constraints. Called by [`ShardedOram::new`].
    ///
    /// # Panics
    ///
    /// Panics on a zero shard count, more shards than blocks, or an
    /// inconsistent per-shard configuration (see [`HOramConfig::validate`]).
    pub fn validate(&self) {
        assert!(self.shards >= 1, "at least one shard required");
        assert!(
            self.shards <= self.base.capacity,
            "more shards ({}) than blocks ({})",
            self.shards,
            self.base.capacity
        );
        self.shard_config(0).validate();
    }

    /// Blocks per shard: `⌈capacity / shards⌉`.
    pub fn shard_capacity(&self) -> u64 {
        self.base.capacity.div_ceil(self.shards)
    }

    /// The padded PRP domain (`shards · shard_capacity ≥ capacity`).
    pub fn mapped_domain(&self) -> u64 {
        self.shard_capacity() * self.shards
    }

    /// The configuration one shard runs under: per-shard capacity and
    /// memory budget, a shard-distinct protocol seed, everything else
    /// inherited from [`base`](Self::base).
    pub fn shard_config(&self, shard: u64) -> HOramConfig {
        let mut config = self.base.clone();
        config.capacity = self.shard_capacity();
        // Floor division: the sharded instance may under-use, but never
        // exceed, the aggregate budget. A share below one bucket fails
        // the per-shard validation instead of being clamped up.
        config.memory_slots = self.base.memory_slots / self.shards;
        // Distinct per-shard seeds keep dummy/permutation randomness
        // independent across shards (key material is separately derived
        // from the master key; the seed only decorrelates replayable
        // protocol choices).
        config.seed = self
            .base
            .seed
            .wrapping_add(shard.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        // One level of wall-clock parallelism: the sharded instance owns
        // the worker pool and dispatches whole shards onto it, so each
        // shard runs its own crypto serially (nesting pools would only
        // oversubscribe the same cores). A standalone instance keeps the
        // base thread count and parallelizes its shuffle stream instead.
        config.worker_threads = 1;
        // A durable recursive position map gets a per-shard subdirectory
        // so the shards' level files never collide.
        if let crate::config::PosmapMode::Recursive(rcfg) = &mut config.posmap {
            if let Some(dir) = &rcfg.backing_dir {
                rcfg.backing_dir = Some(format!("{dir}/shard-{shard}"));
            }
        }
        config
    }
}

/// Where the mapper routed a logical address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSlot {
    /// The owning shard's index.
    pub shard: u64,
    /// The shard-local block id.
    pub local: BlockId,
}

/// The keyed address-space partition: a Feistel PRP over the padded
/// domain, split contiguously into per-shard ranges.
///
/// Routing is a pure function of `(key, id)`: deterministic for the
/// instance lifetime (a block's shard never changes), bijective (distinct
/// ids never collide on `(shard, local)`), and pseudorandom (the shard an
/// id lands on is unpredictable without the key, and shard loads are
/// balanced for *any* workload, adversarial or not).
#[derive(Debug, Clone)]
pub struct ShardMapper {
    prp: FeistelPrp,
    shards: u64,
    shard_capacity: u64,
}

impl ShardMapper {
    /// Builds a mapper for `capacity` logical blocks over `shards` shards,
    /// keyed by `key`.
    ///
    /// # Errors
    ///
    /// Propagates PRP construction errors (empty domain).
    pub fn new(key: [u8; 16], capacity: u64, shards: u64) -> Result<Self, OramError> {
        assert!(shards >= 1, "at least one shard required");
        let shard_capacity = capacity.div_ceil(shards);
        let prp = FeistelPrp::new(key, shard_capacity * shards)?;
        Ok(Self {
            prp,
            shards,
            shard_capacity,
        })
    }

    /// Number of shards addresses are split across.
    pub fn shards(&self) -> u64 {
        self.shards
    }

    /// Blocks per shard.
    pub fn shard_capacity(&self) -> u64 {
        self.shard_capacity
    }

    /// Routes a logical id to its `(shard, local)` slot.
    ///
    /// # Errors
    ///
    /// Propagates [`OramError::Crypto`] for ids outside the padded domain
    /// (callers validate against the logical capacity first).
    pub fn route(&self, id: BlockId) -> Result<ShardSlot, OramError> {
        let image = self.prp.permute(id.0)?;
        Ok(ShardSlot {
            shard: image / self.shard_capacity,
            local: BlockId(image % self.shard_capacity),
        })
    }

    /// The shard a logical id lives on (workload-balance reporting).
    ///
    /// # Errors
    ///
    /// As [`route`](Self::route).
    pub fn shard_of(&self, id: BlockId) -> Result<u64, OramError> {
        Ok(self.route(id)?.shard)
    }
}

/// A response ticket's routing entry: which shard carries it, under which
/// shard-local ticket.
#[derive(Debug, Clone, Copy)]
struct TicketRoute {
    shard: usize,
    local_ticket: u64,
}

/// The quarantine-and-restore machinery: a factory for fresh per-shard
/// hierarchies plus the last per-shard checkpoint, captured by
/// [`ShardedOram::enable_recovery`] /
/// [`ShardedOram::refresh_checkpoints`]. With a kit installed, a shard
/// that fails authentication (or any other non-permanent fault) is
/// rebuilt from its checkpoint instead of degrading.
struct RecoveryKit {
    hierarchy_for: Box<dyn FnMut(u64) -> MemoryHierarchy + Send>,
    /// One sealed [`HOram::snapshot`] per shard.
    checkpoints: Vec<Vec<u8>>,
}

impl std::fmt::Debug for RecoveryKit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecoveryKit")
            .field("checkpoints", &self.checkpoints.len())
            .finish_non_exhaustive()
    }
}

/// `N` independent H-ORAM instances behind one address space.
///
/// See the [module docs](self) for the partitioning and timing model.
///
/// # Example
///
/// ```
/// use horam_core::config::HOramConfig;
/// use horam_core::shard::{ShardedConfig, ShardedOram};
/// use oram_crypto::keys::MasterKey;
/// use oram_protocols::{BlockId, Oram};
/// use oram_storage::MemoryHierarchy;
///
/// # fn main() -> Result<(), oram_protocols::OramError> {
/// let config = ShardedConfig::new(HOramConfig::new(256, 16, 64).with_seed(1), 4);
/// let mut oram = ShardedOram::new(config, MasterKey::from_bytes([1; 32]), |_| {
///     MemoryHierarchy::dac2019()
/// })?;
/// oram.write(BlockId(3), &[7u8; 16])?;
/// assert_eq!(oram.read(BlockId(3))?, vec![7u8; 16]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ShardedOram {
    config: ShardedConfig,
    mapper: ShardMapper,
    shards: Vec<HOram>,
    clock: SimClock,
    routes: HashMap<u64, TicketRoute>,
    next_ticket: u64,
    /// Wall-clock worker pool the pump dispatches shard windows onto
    /// (`None` at `worker_threads = 1` — the serial round-robin).
    workers: Option<Arc<WorkerPool>>,
    /// Keys sealing this instance's manifest snapshots.
    snapshot_keys: SubKeys,
    /// Per-shard derived master keys, retained so a quarantined shard can
    /// be restored from its checkpoint without the instance master.
    shard_masters: Vec<MasterKey>,
    /// Quarantine-and-restore state; `None` until
    /// [`enable_recovery`](Self::enable_recovery).
    recovery: Option<RecoveryKit>,
    /// Per-shard degradation reason; `Some` marks the shard out of
    /// service (its requests fail typed, the rest keep serving).
    degraded: Vec<Option<String>>,
    /// Failures recorded for tickets lost to a shard failure, collected
    /// via [`take_failure`](Self::take_failure).
    failures: HashMap<u64, HOramError>,
    /// Checkpoint restores performed after shard failures.
    recoveries: u64,
}

/// Shard instances are moved onto pool workers by reference; everything
/// inside an [`HOram`] is owned or `Arc`-shared (clock, trace), so this
/// holds by construction — the compile-time check keeps it that way.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<HOram>();
    assert_send::<ShardedOram>();
};

impl ShardedOram {
    /// The address-partition PRP key, derived from the instance master.
    /// One derivation site shared by [`new`](Self::new) and
    /// [`restore`](Self::restore) — the two construction paths must
    /// agree byte-for-byte or restored instances route to wrong shards.
    fn derive_map_key(master: &MasterKey) -> [u8; 16] {
        *master.derive("horam/shard-map", 0).prp()
    }

    /// One shard's computationally independent master key, derived from
    /// the instance master. Shared by [`new`](Self::new) and
    /// [`restore`](Self::restore) for the same reason as
    /// [`derive_map_key`](Self::derive_map_key).
    fn derive_shard_master(master: &MasterKey, shard: u64) -> MasterKey {
        MasterKey::from_bytes(*master.derive("horam/shard", shard).encryption())
    }

    /// Builds the sharded instance: one full [`HOram`] per shard, each on
    /// its own hierarchy from `hierarchy_for`, all keyed from independent
    /// derivations of `master`.
    ///
    /// # Errors
    ///
    /// Propagates storage errors from any shard's initial layout.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent
    /// (see [`ShardedConfig::validate`]).
    pub fn new(
        config: ShardedConfig,
        master: MasterKey,
        mut hierarchy_for: impl FnMut(u64) -> MemoryHierarchy,
    ) -> Result<Self, OramError> {
        config.validate();
        let mapper = ShardMapper::new(
            Self::derive_map_key(&master),
            config.base.capacity,
            config.shards,
        )?;
        let mut shards = Vec::with_capacity(config.shards as usize);
        let mut shard_masters = Vec::with_capacity(config.shards as usize);
        for shard in 0..config.shards {
            // Each shard gets a computationally independent master key, so
            // shard devices never share encryption/PRP material.
            let shard_master = Self::derive_shard_master(&master, shard);
            shards.push(HOram::new(
                config.shard_config(shard),
                hierarchy_for(shard),
                shard_master.clone(),
            )?);
            shard_masters.push(shard_master);
        }
        let workers = WorkerPool::for_threads(config.base.worker_threads);
        let snapshot_keys = master.derive(SNAPSHOT_DOMAIN, 0);
        let degraded = vec![None; shards.len()];
        Ok(Self {
            config,
            mapper,
            shards,
            clock: SimClock::new(),
            routes: HashMap::new(),
            next_ticket: 0,
            workers,
            snapshot_keys,
            shard_masters,
            recovery: None,
            degraded,
            failures: HashMap::new(),
            recoveries: 0,
        })
    }

    /// Seals the sharded instance's trusted state: a manifest (geometry,
    /// ticket routing, shared clock) plus one embedded
    /// [`HOram::snapshot`] per shard, each sealed under its own shard's
    /// derived keys. Every shard's durable device commits before its
    /// snapshot is taken, so one manifest describes one consistent
    /// checkpoint across all shards.
    ///
    /// # Errors
    ///
    /// [`OramError::SnapshotInvalid`] if any shard has requests queued;
    /// storage backend errors propagate.
    pub fn snapshot(&mut self) -> Result<Vec<u8>, OramError> {
        if let Some(shard) = self.degraded_shards().first() {
            return Err(OramError::SnapshotInvalid {
                reason: format!("shard {shard} is degraded; a checkpoint would lose its blocks"),
            });
        }
        if !self.is_drained() {
            return Err(OramError::SnapshotInvalid {
                reason: format!(
                    "{} requests still queued; drain before snapshotting",
                    self.pending()
                ),
            });
        }
        let mut w = StateWriter::new();
        persist::save_config(&self.config.base, &mut w);
        w.put_u64(self.config.shards);
        w.put_u64(self.clock.now().as_nanos());
        w.put_u64(self.next_ticket);
        // Outstanding ticket routes (responses produced but not yet
        // collected), in ticket order for byte-stable manifests.
        let mut routes: Vec<(u64, TicketRoute)> =
            self.routes.iter().map(|(t, r)| (*t, *r)).collect();
        routes.sort_unstable_by_key(|(t, _)| *t);
        w.put_usize(routes.len());
        for (ticket, route) in routes {
            w.put_u64(ticket);
            w.put_usize(route.shard);
            w.put_u64(route.local_ticket);
        }
        for shard in &mut self.shards {
            let sealed = shard.snapshot()?;
            w.put_bytes(&sealed);
        }
        let body = w.into_bytes();
        let seq = persist::envelope_seq(&self.snapshot_keys, &body);
        Ok(seal_envelope(&self.snapshot_keys, KIND_SHARDED, seq, &body))
    }

    /// Rebuilds a sharded instance from a manifest sealed by
    /// [`snapshot`](Self::snapshot), the same master key, and one fresh
    /// hierarchy per shard (durable shards' device files roll back to the
    /// manifest's checkpoint on open). Byte-equivalent continuation, as
    /// for [`HOram::restore`].
    ///
    /// # Errors
    ///
    /// [`OramError::SnapshotInvalid`] for truncated, corrupted,
    /// wrong-key, or geometry-incompatible manifests; restores fail
    /// closed.
    pub fn restore(
        master: MasterKey,
        mut hierarchy_for: impl FnMut(u64) -> MemoryHierarchy,
        snapshot: &[u8],
    ) -> Result<Self, OramError> {
        let snapshot_keys = master.derive(SNAPSHOT_DOMAIN, 0);
        let body = open_envelope(&snapshot_keys, KIND_SHARDED, snapshot)?;
        let mut r = StateReader::new(&body);
        let base = persist::load_config(&mut r)?;
        let shard_count = r.get_u64()?;
        let config = ShardedConfig::new(base, shard_count);
        config.validate();
        let clock_nanos = r.get_u64()?;
        let next_ticket = r.get_u64()?;
        let route_count = r.get_usize()?;
        let mut routes = HashMap::with_capacity(route_count);
        for _ in 0..route_count {
            let ticket = r.get_u64()?;
            let shard = r.get_usize()?;
            let local_ticket = r.get_u64()?;
            if shard >= shard_count as usize {
                return Err(OramError::SnapshotInvalid {
                    reason: format!("ticket route to shard {shard} of {shard_count}"),
                });
            }
            routes.insert(
                ticket,
                TicketRoute {
                    shard,
                    local_ticket,
                },
            );
        }
        let mapper = ShardMapper::new(
            Self::derive_map_key(&master),
            config.base.capacity,
            config.shards,
        )?;
        let mut shards = Vec::with_capacity(shard_count as usize);
        let mut shard_masters = Vec::with_capacity(shard_count as usize);
        for shard in 0..shard_count {
            let sealed = r.get_bytes()?;
            let shard_master = Self::derive_shard_master(&master, shard);
            shards.push(HOram::restore(
                hierarchy_for(shard),
                shard_master.clone(),
                sealed,
            )?);
            shard_masters.push(shard_master);
        }
        r.finish()?;
        let clock = SimClock::new();
        clock.advance(oram_storage::clock::SimDuration::from_nanos(clock_nanos));
        let workers = WorkerPool::for_threads(config.base.worker_threads);
        let degraded = vec![None; shards.len()];
        Ok(Self {
            config,
            mapper,
            shards,
            clock,
            routes,
            next_ticket,
            workers,
            snapshot_keys,
            shard_masters,
            recovery: None,
            degraded,
            failures: HashMap::new(),
            recoveries: 0,
        })
    }

    /// The configuration in effect.
    pub fn config(&self) -> &ShardedConfig {
        &self.config
    }

    /// The address-space partition (for balance reporting and tests).
    pub fn mapper(&self) -> &ShardMapper {
        &self.mapper
    }

    /// The shard instances, in index order.
    pub fn shards(&self) -> &[HOram] {
        &self.shards
    }

    /// The shared simulated clock the round-robin pump advances.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Per-shard run statistics, in shard-index order.
    pub fn shard_stats(&self) -> Vec<HOramStats> {
        self.shards.iter().map(HOram::stats).collect()
    }

    /// Aggregate run statistics: the field-wise sum over shards. Counter
    /// fields aggregate exactly; the time fields are summed *busy* time
    /// across shards, which exceeds elapsed time when shards overlap — use
    /// [`clock`](Self::clock) for the concurrent-elapsed view.
    pub fn stats(&self) -> HOramStats {
        self.shards
            .iter()
            .map(HOram::stats)
            .fold(HOramStats::default(), |acc, s| acc + s)
    }

    /// Aggregate block-cache counters over shards whose storage device
    /// has a cache installed; `None` when no shard is cached.
    pub fn cache_stats(&self) -> Option<oram_storage::cache::CacheStats> {
        let mut merged: Option<oram_storage::cache::CacheStats> = None;
        for shard in &self.shards {
            if let Some(stats) = shard.cache_stats() {
                merged.get_or_insert_with(Default::default).merge(&stats);
            }
        }
        merged
    }

    /// Checks a request against the *aggregate* geometry without queueing
    /// it (errors report logical, not shard-local, coordinates).
    ///
    /// # Errors
    ///
    /// [`OramError::BlockOutOfRange`] / [`OramError::PayloadSize`], as
    /// [`enqueue`](Self::enqueue).
    pub fn validate(&self, request: &Request) -> Result<(), OramError> {
        if request.id.0 >= self.config.base.capacity {
            return Err(OramError::BlockOutOfRange {
                id: request.id.0,
                capacity: self.config.base.capacity,
            });
        }
        if let RequestOp::Write(payload) = &request.op {
            if payload.len() != self.config.base.payload_len {
                return Err(OramError::PayloadSize {
                    expected: self.config.base.payload_len,
                    got: payload.len(),
                });
            }
        }
        Ok(())
    }

    /// Routes and queues a request on its owning shard; returns a ticket
    /// scoped to the sharded instance.
    ///
    /// # Errors
    ///
    /// As [`validate`](Self::validate) — invalid requests are rejected
    /// before routing, so they never reach (or reveal) a shard.
    /// [`HOramError::ShardDegraded`] when the owning shard is quarantined;
    /// the request is rejected without any observable access, and requests
    /// to healthy shards keep flowing.
    pub fn enqueue(&mut self, request: Request) -> Result<u64, HOramError> {
        self.validate(&request).map_err(HOramError::from)?;
        let slot = self.mapper.route(request.id).map_err(HOramError::from)?;
        if let Some(reason) = &self.degraded[slot.shard as usize] {
            return Err(HOramError::ShardDegraded {
                shard: slot.shard as usize,
                reason: reason.clone(),
            });
        }
        let local = Request {
            id: slot.local,
            op: request.op,
        };
        let local_ticket = self.shards[slot.shard as usize]
            .enqueue(local)
            .map_err(HOramError::from)?;
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.routes.insert(
            ticket,
            TicketRoute {
                shard: slot.shard as usize,
                local_ticket,
            },
        );
        Ok(ticket)
    }

    /// Removes and returns the response for `ticket`, if it has been
    /// serviced.
    pub fn take_response(&mut self, ticket: u64) -> Option<Vec<u8>> {
        let route = *self.routes.get(&ticket)?;
        let response = self.shards[route.shard].take_response(route.local_ticket)?;
        self.routes.remove(&ticket);
        Some(response)
    }

    /// Total requests queued and not yet serviced, across *healthy*
    /// shards. A degraded shard's queue is abandoned (its tickets already
    /// resolved to typed failures), so it never keeps the pump spinning.
    pub fn pending(&self) -> usize {
        self.shards
            .iter()
            .zip(&self.degraded)
            .filter(|(_, d)| d.is_none())
            .map(|(s, _)| s.queue().pending())
            .sum()
    }

    /// Whether every healthy shard's queue has drained.
    pub fn is_drained(&self) -> bool {
        self.pending() == 0
    }

    /// One round-robin pump round: every shard with pending work runs one
    /// I/O window of up to `max_cycles` cycles
    /// ([`HOram::run_cycle_window`]), then the shared clock advances to
    /// the **frontier** — the maximum over the per-shard timelines. The
    /// shards' windows (and any shuffle periods they trigger) execute
    /// fully concurrently in simulated time; idle shards cost nothing.
    /// Returns the total cycles executed this round.
    ///
    /// With `worker_threads > 1` the busy shards' windows also execute
    /// concurrently in **wall-clock** time: each is dispatched to the
    /// worker pool, and the round barriers before the frontier merge.
    /// Shards share no mutable state (own device, tree, stash, RNG), so
    /// responses, traces, and stats are byte-identical to the serial
    /// round at any thread count — only real elapsed time changes. The
    /// frontier merge itself is unchanged: per-shard clocks advance only
    /// while their shard works, whichever OS thread does the working.
    ///
    /// # Errors
    ///
    /// Per-shard failures do **not** propagate: a shard whose window
    /// errors is handed to the quarantine machinery — every uncollected
    /// ticket routed to it resolves to a typed failure (see
    /// [`take_failure`](Self::take_failure)), and the shard is either
    /// restored from its checkpoint (when a [recovery
    /// kit](Self::enable_recovery) is installed and the fault is not
    /// permanent media failure) or marked degraded while the remaining
    /// shards keep serving. `Err` from this method therefore means the
    /// engine as a whole cannot continue, which the current absorption
    /// policy never concludes — the signature reserves the channel.
    /// When several shards fail in one threaded round they are processed
    /// in shard-index order (the order the serial round encounters them).
    ///
    /// # Panics
    ///
    /// Panics if `max_cycles` is zero. A panic inside a threaded shard
    /// task propagates to this caller after the round's barrier — it
    /// cannot deadlock the pump.
    pub fn run_cycle_window(&mut self, max_cycles: u64) -> Result<u64, HOramError> {
        assert!(
            max_cycles >= 1,
            "a cycle window must cover at least one cycle"
        );
        let busy = self
            .shards
            .iter()
            .zip(&self.degraded)
            .filter(|(shard, down)| down.is_none() && !shard.queue().is_drained())
            .count();
        let mut executed = 0;
        let mut failed: Vec<(usize, OramError)> = Vec::new();
        match self.workers.clone() {
            // Threading pays only when two or more shards have work this
            // round; a lone busy shard runs on the caller, serially.
            Some(pool) if busy > 1 => {
                let mut results: Vec<Option<Result<u64, OramError>>> =
                    (0..self.shards.len()).map(|_| None).collect();
                let degraded = &self.degraded;
                pool.scope(|scope| {
                    for (index, (shard, slot)) in
                        self.shards.iter_mut().zip(results.iter_mut()).enumerate()
                    {
                        if degraded[index].is_some() || shard.queue().is_drained() {
                            continue;
                        }
                        scope.spawn(move || {
                            *slot = Some(shard.run_cycle_window(max_cycles));
                        });
                    }
                });
                // Merge in shard-index order — deterministic totals and
                // deterministic failure-handling order.
                for (index, result) in results.into_iter().enumerate() {
                    match result {
                        Some(Ok(cycles)) => executed += cycles,
                        Some(Err(e)) => failed.push((index, e)),
                        None => {}
                    }
                }
            }
            _ => {
                for (index, shard) in self.shards.iter_mut().enumerate() {
                    if self.degraded[index].is_some() || shard.queue().is_drained() {
                        continue;
                    }
                    match shard.run_cycle_window(max_cycles) {
                        Ok(cycles) => executed += cycles,
                        Err(e) => failed.push((index, e)),
                    }
                }
            }
        }
        for (index, error) in failed {
            self.handle_shard_failure(index, error);
        }
        self.advance_to_frontier();
        Ok(executed)
    }

    /// Absorbs one shard's window failure: fails every uncollected ticket
    /// routed to it with a typed error, then either restores the shard
    /// from its checkpoint or quarantines it. Permanent media failures
    /// ([`StorageError::PermanentFault`](oram_storage::StorageError))
    /// always degrade — re-mounting the same dead device would fail the
    /// same way; anything else (authentication failures from corrupted
    /// blocks, exhausted transient faults, invariant violations) is
    /// recoverable from the last checkpoint when a kit is installed.
    fn handle_shard_failure(&mut self, shard: usize, error: OramError) {
        let lost: Vec<u64> = self
            .routes
            .iter()
            .filter(|(_, route)| route.shard == shard)
            .map(|(ticket, _)| *ticket)
            .collect();
        let permanent = matches!(
            &error,
            OramError::Storage(oram_storage::StorageError::PermanentFault { .. })
        );
        let restored = !permanent
            && match self.recovery.as_mut() {
                Some(kit) => {
                    let hierarchy = (kit.hierarchy_for)(shard as u64);
                    match HOram::restore(
                        hierarchy,
                        self.shard_masters[shard].clone(),
                        &kit.checkpoints[shard],
                    ) {
                        Ok(fresh) => {
                            self.shards[shard] = fresh;
                            self.recoveries += 1;
                            true
                        }
                        Err(_) => false,
                    }
                }
                None => false,
            };
        let ticket_error = if restored {
            HOramError::Protocol(error)
        } else {
            let reason = error.to_string();
            self.degraded[shard] = Some(reason.clone());
            HOramError::ShardDegraded { shard, reason }
        };
        for ticket in lost {
            self.routes.remove(&ticket);
            self.failures.insert(ticket, ticket_error.clone());
        }
    }

    /// Advances the shared clock to the busiest shard's timeline. Each
    /// shard clock only moves while that shard works, so the frontier is
    /// exactly `max_i(busy_i)` — the fully-concurrent elapsed time.
    fn advance_to_frontier(&self) {
        let frontier = self
            .shards
            .iter()
            .map(|s| s.clock().now())
            .max()
            .unwrap_or(SimTime::ZERO);
        let now = self.clock.now();
        if frontier > now {
            self.clock.advance(frontier.duration_since(now));
        }
    }

    /// Pumps round-robin until every healthy shard drains, then returns
    /// responses for the given tickets in order.
    ///
    /// # Errors
    ///
    /// A ticket lost to a shard failure reports its recorded typed
    /// failure; [`OramError::UnknownTicket`] for tickets never issued or
    /// already collected.
    pub fn drain(&mut self, tickets: &[u64]) -> Result<Vec<Vec<u8>>, HOramError> {
        while !self.is_drained() {
            self.run_cycle_window(self.config.base.io_batch)?;
        }
        let mut out = Vec::with_capacity(tickets.len());
        for ticket in tickets {
            match self.take_response(*ticket) {
                Some(response) => out.push(response),
                None => {
                    return Err(self.take_failure(*ticket).unwrap_or(HOramError::Protocol(
                        OramError::UnknownTicket { ticket: *ticket },
                    )));
                }
            }
        }
        Ok(out)
    }

    /// Queues a whole batch and drains it — the shard-level counterpart
    /// of [`HOram::run_batch`].
    ///
    /// # Errors
    ///
    /// As [`drain`](Self::drain).
    pub fn run_batch(&mut self, requests: &[Request]) -> Result<Vec<Vec<u8>>, HOramError> {
        let tickets: Vec<u64> = requests
            .iter()
            .map(|r| self.enqueue(r.clone()))
            .collect::<Result<_, _>>()?;
        self.drain(&tickets)
    }

    /// Installs the quarantine-and-restore machinery: a factory producing
    /// a fresh hierarchy for any shard index, plus one checkpoint per
    /// shard captured *now*. After this, a shard failing with anything
    /// other than permanent media failure is rebuilt from its checkpoint
    /// (rolling back to it) instead of degrading; call
    /// [`refresh_checkpoints`](Self::refresh_checkpoints) after writes
    /// you want a future restore to keep.
    ///
    /// # Errors
    ///
    /// [`OramError::SnapshotInvalid`] while requests are in flight or a
    /// shard is already degraded; storage errors propagate.
    pub fn enable_recovery(
        &mut self,
        hierarchy_for: impl FnMut(u64) -> MemoryHierarchy + Send + 'static,
    ) -> Result<(), OramError> {
        let mut kit = RecoveryKit {
            hierarchy_for: Box::new(hierarchy_for),
            checkpoints: Vec::new(),
        };
        self.recovery = None;
        kit.checkpoints = self.capture_checkpoints()?;
        self.recovery = Some(kit);
        Ok(())
    }

    /// Re-captures every shard's checkpoint so future restores roll back
    /// to the current state rather than the one
    /// [`enable_recovery`](Self::enable_recovery) saw.
    ///
    /// # Errors
    ///
    /// [`OramError::SnapshotInvalid`] while requests are in flight, a
    /// shard is degraded, or no kit is installed; on error the previous
    /// checkpoints stay in effect.
    pub fn refresh_checkpoints(&mut self) -> Result<(), OramError> {
        if self.recovery.is_none() {
            return Err(OramError::SnapshotInvalid {
                reason: "no recovery kit installed".into(),
            });
        }
        let checkpoints = self.capture_checkpoints()?;
        if let Some(kit) = self.recovery.as_mut() {
            kit.checkpoints = checkpoints;
        }
        Ok(())
    }

    /// One [`HOram::snapshot`] per shard, for the recovery kit.
    fn capture_checkpoints(&mut self) -> Result<Vec<Vec<u8>>, OramError> {
        if let Some(shard) = self.degraded_shards().first() {
            return Err(OramError::SnapshotInvalid {
                reason: format!("shard {shard} is degraded; nothing left to checkpoint"),
            });
        }
        if !self.is_drained() {
            return Err(OramError::SnapshotInvalid {
                reason: format!(
                    "{} requests still queued; drain before checkpointing",
                    self.pending()
                ),
            });
        }
        self.shards.iter_mut().map(HOram::snapshot).collect()
    }

    /// Removes and returns the typed failure recorded for `ticket`, if
    /// its request was lost to a shard failure. A ticket resolves through
    /// exactly one of [`take_response`](Self::take_response) or this.
    pub fn take_failure(&mut self, ticket: u64) -> Option<HOramError> {
        self.failures.remove(&ticket)
    }

    /// Indices of quarantined shards, ascending. Empty while healthy.
    pub fn degraded_shards(&self) -> Vec<usize> {
        self.degraded
            .iter()
            .enumerate()
            .filter(|(_, d)| d.is_some())
            .map(|(i, _)| i)
            .collect()
    }

    /// Checkpoint restores performed after shard failures so far.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Wraps one shard's storage store in a deterministic fault injector
    /// ([`HOram::inject_storage_faults`]) — the chaos tests' entry point
    /// for failing a single shard of a healthy, populated instance.
    pub fn inject_storage_faults(
        &mut self,
        shard: usize,
        config: oram_storage::fault::FaultConfig,
    ) {
        self.shards[shard].inject_storage_faults(config);
    }

    /// Injected-fault counters summed over shards with an injector
    /// installed; `None` when no shard is faulted.
    pub fn storage_fault_stats(&self) -> Option<oram_storage::fault::FaultStats> {
        let mut merged: Option<oram_storage::fault::FaultStats> = None;
        for shard in &self.shards {
            if let Some(stats) = shard.storage_fault_stats() {
                let acc = merged.get_or_insert_with(Default::default);
                acc.transient_reads += stats.transient_reads;
                acc.transient_writes += stats.transient_writes;
                acc.permanent_hits += stats.permanent_hits;
                acc.corruptions += stats.corruptions;
                acc.fsync_failures += stats.fsync_failures;
                acc.latency_spikes += stats.latency_spikes;
            }
        }
        merged
    }

    /// Storage retry counters summed over shards (volatile).
    pub fn storage_retry_stats(&self) -> oram_storage::device::RetryStats {
        let mut acc = oram_storage::device::RetryStats::default();
        for shard in &self.shards {
            let s = shard.storage_retry_stats();
            acc.retries += s.retries;
            acc.backoff_nanos += s.backoff_nanos;
            acc.exhausted += s.exhausted;
        }
        acc
    }

    /// Clears all timing/tracing/statistics state on every shard and the
    /// shared clock (not data).
    pub fn reset_accounting(&mut self) {
        for shard in &mut self.shards {
            shard.reset_accounting();
        }
        self.clock.reset();
    }
}

impl Oram for ShardedOram {
    fn capacity(&self) -> u64 {
        self.config.base.capacity
    }

    fn payload_len(&self) -> usize {
        self.config.base.payload_len
    }

    fn read(&mut self, id: BlockId) -> Result<Vec<u8>, OramError> {
        let mut out = self
            .run_batch(&[Request::read(id)])
            .map_err(HOramError::into_protocol)?;
        out.pop()
            .ok_or_else(|| OramError::internal("one-request batch returned no response"))
    }

    fn write(&mut self, id: BlockId, data: &[u8]) -> Result<Vec<u8>, OramError> {
        let mut out = self
            .run_batch(&[Request::write(id, data.to_vec())])
            .map_err(HOramError::into_protocol)?;
        out.pop()
            .ok_or_else(|| OramError::internal("one-request batch returned no response"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oram_crypto::rng::DeterministicRng;
    use rand::Rng;
    use std::collections::HashMap;

    fn build_threaded(
        capacity: u64,
        memory_slots: u64,
        shards: u64,
        worker_threads: usize,
    ) -> ShardedOram {
        let config = ShardedConfig::new(
            HOramConfig::new(capacity, 8, memory_slots)
                .with_seed(17)
                .with_worker_threads(worker_threads),
            shards,
        );
        ShardedOram::new(config, MasterKey::from_bytes([9; 32]), |_| {
            MemoryHierarchy::dac2019()
        })
        .unwrap()
    }

    fn build(capacity: u64, memory_slots: u64, shards: u64) -> ShardedOram {
        build_threaded(capacity, memory_slots, shards, 1)
    }

    #[test]
    fn read_your_writes_across_shards() {
        let mut oram = build(256, 64, 4);
        for id in [0u64, 1, 77, 200, 255] {
            oram.write(BlockId(id), &[id as u8; 8]).unwrap();
        }
        for id in [0u64, 1, 77, 200, 255] {
            assert_eq!(oram.read(BlockId(id)).unwrap(), vec![id as u8; 8]);
        }
    }

    #[test]
    fn mapper_is_a_bijection_onto_shard_slots() {
        let mapper = ShardMapper::new([3u8; 16], 300, 4).unwrap();
        assert_eq!(mapper.shard_capacity(), 75);
        let mut seen = std::collections::HashSet::new();
        for id in 0..300u64 {
            let slot = mapper.route(BlockId(id)).unwrap();
            assert!(slot.shard < 4);
            assert!(slot.local.0 < 75);
            assert!(
                seen.insert((slot.shard, slot.local.0)),
                "collision at id {id}"
            );
        }
    }

    #[test]
    fn mapper_balances_shards() {
        let mapper = ShardMapper::new([5u8; 16], 4096, 4).unwrap();
        let mut counts = [0usize; 4];
        for id in 0..4096u64 {
            counts[mapper.shard_of(BlockId(id)).unwrap() as usize] += 1;
        }
        // The PRP covers the domain exactly: perfect balance.
        assert_eq!(counts, [1024; 4]);
    }

    #[test]
    fn distinct_keys_give_distinct_routings() {
        let a = ShardMapper::new([1u8; 16], 1 << 12, 8).unwrap();
        let b = ShardMapper::new([2u8; 16], 1 << 12, 8).unwrap();
        let differing = (0..1u64 << 12)
            .filter(|&x| a.shard_of(BlockId(x)).unwrap() != b.shard_of(BlockId(x)).unwrap())
            .count();
        // Two independent 8-way routings agree on ~1/8 of points.
        assert!(
            differing > 3000,
            "routings too similar: {differing} differences"
        );
    }

    #[test]
    fn geometry_validation_reports_logical_coordinates() {
        let mut oram = build(256, 64, 4);
        assert!(matches!(
            oram.enqueue(Request::read(999u64)),
            Err(HOramError::Protocol(OramError::BlockOutOfRange {
                id: 999,
                capacity: 256
            }))
        ));
        assert!(matches!(
            oram.enqueue(Request::write(3u64, vec![0; 2])),
            Err(HOramError::Protocol(OramError::PayloadSize {
                expected: 8,
                got: 2
            }))
        ));
        assert_eq!(oram.pending(), 0);
    }

    #[test]
    fn responses_match_a_reference_map_across_periods() {
        // Small per-shard trees (64/4 = 16 slots ⇒ period 8) force several
        // shuffle periods on every shard.
        let mut oram = build(256, 64, 4);
        let mut rng = DeterministicRng::from_u64_seed(3);
        let mut reference: HashMap<u64, Vec<u8>> = HashMap::new();
        for _ in 0..300 {
            let id = rng.gen_range(0..256u64);
            if rng.gen_bool(0.3) {
                let payload = vec![rng.gen::<u8>(); 8];
                oram.write(BlockId(id), &payload).unwrap();
                reference.insert(id, payload);
            } else {
                let got = oram.read(BlockId(id)).unwrap();
                let expected = reference.get(&id).cloned().unwrap_or(vec![0u8; 8]);
                assert_eq!(got, expected, "block {id}");
            }
        }
        assert!(
            oram.stats().shuffles >= 4,
            "each shard must cross period boundaries"
        );
    }

    #[test]
    fn shared_clock_tracks_max_not_sum() {
        let mut oram = build(1024, 256, 4);
        let requests: Vec<Request> = (0..200u64).map(Request::read).collect();
        oram.run_batch(&requests).unwrap();
        let elapsed = oram.clock().now().as_nanos();
        let busy_sum: u64 = oram
            .shard_stats()
            .iter()
            .map(|s| s.total_wall_time().as_nanos())
            .sum();
        let busy_max = oram
            .shard_stats()
            .iter()
            .map(|s| s.total_wall_time().as_nanos())
            .max()
            .unwrap();
        assert!(
            elapsed < busy_sum,
            "clock {elapsed} should undercut serial sum {busy_sum}"
        );
        assert!(
            elapsed >= busy_max,
            "clock {elapsed} cannot undercut the slowest shard {busy_max}"
        );
    }

    #[test]
    fn one_shard_degenerates_to_a_single_instance() {
        let mut oram = build(256, 64, 1);
        assert_eq!(oram.shards().len(), 1);
        let requests: Vec<Request> = (0..40u64).map(Request::read).collect();
        let responses = oram.run_batch(&requests).unwrap();
        assert!(responses.iter().all(|r| r == &vec![0u8; 8]));
        // The shared clock mirrors the lone shard's timeline exactly.
        assert_eq!(
            oram.clock().now().as_nanos(),
            oram.shards()[0].clock().now().as_nanos()
        );
    }

    #[test]
    fn tickets_collect_once_and_unknown_tickets_error() {
        let mut oram = build(256, 64, 2);
        let ticket = oram.enqueue(Request::read(1u64)).unwrap();
        while !oram.is_drained() {
            oram.run_cycle_window(4).unwrap();
        }
        assert_eq!(oram.take_response(ticket), Some(vec![0u8; 8]));
        assert!(matches!(
            oram.drain(&[ticket]),
            Err(HOramError::Protocol(OramError::UnknownTicket { ticket: t })) if t == ticket
        ));
        assert!(matches!(
            oram.drain(&[999]),
            Err(HOramError::Protocol(OramError::UnknownTicket {
                ticket: 999
            }))
        ));
    }

    #[test]
    fn aggregate_stats_sum_per_shard_counters() {
        let mut oram = build(256, 64, 4);
        let requests: Vec<Request> = (0..60u64).map(Request::read).collect();
        oram.run_batch(&requests).unwrap();
        let per_shard = oram.shard_stats();
        let aggregate = oram.stats();
        assert_eq!(aggregate.requests, 60);
        assert_eq!(
            aggregate.cycles,
            per_shard.iter().map(|s| s.cycles).sum::<u64>()
        );
        // Every shard keeps the one-I/O-per-cycle invariant.
        for (i, stats) in per_shard.iter().enumerate() {
            assert_eq!(stats.total_io_loads(), stats.cycles, "shard {i}");
        }
    }

    #[test]
    fn threaded_pump_matches_serial_byte_for_byte() {
        // The wall-clock pump must be invisible in every observable:
        // responses, per-shard traces, per-shard and aggregate stats, and
        // the shared frontier clock.
        let mut rng = DeterministicRng::from_u64_seed(29);
        let requests: Vec<Request> = (0..180)
            .map(|_| {
                let id = rng.gen_range(0..256u64);
                if rng.gen_bool(0.3) {
                    Request::write(id, vec![rng.gen::<u8>(); 8])
                } else {
                    Request::read(id)
                }
            })
            .collect();
        let mut serial = build_threaded(256, 64, 4, 1);
        let serial_responses = serial.run_batch(&requests).unwrap();
        assert!(serial.stats().shuffles >= 4, "setup: periods must turn");
        for threads in [2usize, 4] {
            let mut threaded = build_threaded(256, 64, 4, threads);
            let responses = threaded.run_batch(&requests).unwrap();
            assert_eq!(serial_responses, responses, "threads={threads}");
            assert_eq!(serial.stats(), threaded.stats(), "threads={threads}");
            assert_eq!(
                serial.shard_stats(),
                threaded.shard_stats(),
                "threads={threads}"
            );
            assert_eq!(
                serial.clock().now(),
                threaded.clock().now(),
                "threads={threads} frontier diverged"
            );
            for (i, (a, b)) in serial.shards().iter().zip(threaded.shards()).enumerate() {
                assert_eq!(
                    a.trace().snapshot(),
                    b.trace().snapshot(),
                    "threads={threads} shard {i} trace diverged"
                );
            }
        }
    }

    #[test]
    fn shard_configs_keep_their_crypto_serial() {
        // The pool lives at the sharded instance; nesting per-shard pools
        // would only oversubscribe the same cores.
        let config = ShardedConfig::new(HOramConfig::new(1000, 16, 256).with_worker_threads(8), 4);
        assert_eq!(config.shard_config(0).worker_threads, 1);
        assert_eq!(config.base.worker_threads, 8);
    }

    #[test]
    fn config_plumbing_divides_the_budget() {
        let config = ShardedConfig::new(HOramConfig::new(1000, 16, 256), 4);
        config.validate();
        assert_eq!(config.shard_capacity(), 250);
        assert_eq!(config.mapped_domain(), 1000);
        let shard0 = config.shard_config(0);
        assert_eq!(shard0.capacity, 250);
        assert_eq!(shard0.memory_slots, 64);
        assert_ne!(shard0.seed, config.shard_config(1).seed);
    }

    #[test]
    #[should_panic(expected = "memory budget smaller than one bucket")]
    fn under_bucket_memory_share_rejected() {
        // 16 slots over 8 shards = 2 per shard < one bucket (z = 4):
        // rejected instead of silently inflating the aggregate budget.
        ShardedConfig::new(HOramConfig::new(4096, 16, 16), 8).validate();
    }

    #[test]
    #[should_panic(expected = "more shards")]
    fn more_shards_than_blocks_rejected() {
        ShardedConfig::new(HOramConfig::new(4, 8, 8), 8).validate();
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        ShardedConfig::new(HOramConfig::new(256, 8, 64), 0).validate();
    }

    /// Always-failing reads: every retry re-rolls and fails, so the first
    /// storage load exhausts the retry budget and errors the shard.
    fn dead_reads() -> oram_storage::fault::FaultConfig {
        oram_storage::fault::FaultConfig {
            seed: 99,
            transient_read_permille: 1000,
            ..Default::default()
        }
    }

    /// A block routed to `shard` plus one routed elsewhere, with the
    /// payloads written for both.
    fn pick_blocks(oram: &mut ShardedOram, shard: u64) -> (BlockId, BlockId) {
        let on = (0..256u64)
            .map(BlockId)
            .find(|id| oram.mapper().shard_of(*id).unwrap() == shard)
            .expect("shard owns some block");
        let off = (0..256u64)
            .map(BlockId)
            .find(|id| oram.mapper().shard_of(*id).unwrap() != shard)
            .expect("other shards own some block");
        (on, off)
    }

    #[test]
    fn failed_shard_degrades_while_others_keep_serving() {
        let mut oram = build(256, 64, 4);
        let (on, off) = pick_blocks(&mut oram, 2);
        oram.write(on, &[7u8; 8]).unwrap();
        oram.write(off, &[9u8; 8]).unwrap();

        oram.inject_storage_faults(2, dead_reads());
        let doomed = oram.enqueue(Request::read(on)).unwrap();
        let healthy = oram.enqueue(Request::read(off)).unwrap();
        while !oram.is_drained() {
            oram.run_cycle_window(4).unwrap();
        }

        // No kit installed: the shard quarantines, its ticket fails typed.
        assert_eq!(oram.degraded_shards(), vec![2]);
        assert_eq!(oram.take_response(doomed), None);
        assert!(matches!(
            oram.take_failure(doomed),
            Some(HOramError::ShardDegraded { shard: 2, .. })
        ));
        // The healthy shard's response is unaffected.
        assert_eq!(oram.take_response(healthy), Some(vec![9u8; 8]));

        // New requests to the degraded shard fail typed with no access;
        // the rest of the address space keeps serving.
        assert!(matches!(
            oram.enqueue(Request::read(on)),
            Err(HOramError::ShardDegraded { shard: 2, .. })
        ));
        assert_eq!(oram.read(off).unwrap(), vec![9u8; 8]);

        // A degraded instance cannot checkpoint — that would lose blocks.
        assert!(matches!(
            oram.snapshot(),
            Err(OramError::SnapshotInvalid { .. })
        ));
    }

    #[test]
    fn recovery_kit_restores_a_failed_shard_from_its_checkpoint() {
        let mut oram = build(256, 64, 4);
        let (on, off) = pick_blocks(&mut oram, 1);
        oram.write(on, &[5u8; 8]).unwrap();
        oram.write(off, &[6u8; 8]).unwrap();
        oram.enable_recovery(|_| MemoryHierarchy::dac2019())
            .unwrap();

        oram.inject_storage_faults(1, dead_reads());
        let doomed = oram.enqueue(Request::read(on)).unwrap();
        while !oram.is_drained() {
            oram.run_cycle_window(4).unwrap();
        }

        // The transient-exhaustion failure is recoverable: the shard was
        // rebuilt from its checkpoint and stays in service.
        assert_eq!(oram.recoveries(), 1);
        assert!(oram.degraded_shards().is_empty());
        // The in-flight ticket still failed — the restore rolled the
        // shard back, so its answer cannot be produced.
        assert!(matches!(
            oram.take_failure(doomed),
            Some(HOramError::Protocol(OramError::Storage(
                oram_storage::StorageError::TransientFault { .. }
            )))
        ));
        // Post-restore the shard serves the checkpointed bytes again.
        assert_eq!(oram.read(on).unwrap(), vec![5u8; 8]);
        assert_eq!(oram.read(off).unwrap(), vec![6u8; 8]);
    }

    #[test]
    fn permanent_faults_degrade_even_with_a_recovery_kit() {
        let mut oram = build(256, 64, 4);
        let (on, _) = pick_blocks(&mut oram, 3);
        oram.write(on, &[4u8; 8]).unwrap();
        oram.enable_recovery(|_| MemoryHierarchy::dac2019())
            .unwrap();

        // Every slot permanently dead: re-mounting the device would fail
        // identically, so restore is pointless and the shard degrades.
        oram.inject_storage_faults(
            3,
            oram_storage::fault::FaultConfig {
                seed: 7,
                permanent_slots: (0..8192).collect(),
                ..Default::default()
            },
        );
        let doomed = oram.enqueue(Request::read(on)).unwrap();
        while !oram.is_drained() {
            oram.run_cycle_window(4).unwrap();
        }
        assert_eq!(oram.recoveries(), 0);
        assert_eq!(oram.degraded_shards(), vec![3]);
        assert!(matches!(
            oram.take_failure(doomed),
            Some(HOramError::ShardDegraded { shard: 3, .. })
        ));
    }

    #[test]
    fn refreshed_checkpoints_preserve_later_writes() {
        let mut oram = build(256, 64, 2);
        let (on, _) = pick_blocks(&mut oram, 0);
        oram.write(on, &[1u8; 8]).unwrap();
        oram.enable_recovery(|_| MemoryHierarchy::dac2019())
            .unwrap();
        oram.write(on, &[2u8; 8]).unwrap();
        // Without a refresh a restore would roll back to [1; 8]; the
        // refreshed checkpoint keeps the later write.
        oram.refresh_checkpoints().unwrap();

        oram.inject_storage_faults(0, dead_reads());
        let doomed = oram.enqueue(Request::read(on)).unwrap();
        while !oram.is_drained() {
            oram.run_cycle_window(4).unwrap();
        }
        assert_eq!(oram.recoveries(), 1);
        assert!(oram.take_failure(doomed).is_some());
        assert_eq!(oram.read(on).unwrap(), vec![2u8; 8]);
    }
}
