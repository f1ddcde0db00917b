//! The H-ORAM instance: control + memory + storage layers, scheduled.
//!
//! [`HOram`] wires together the pieces the paper's Figure 4-1 draws:
//!
//! * the **control layer** — ROB table, secure scheduler, permutation
//!   list, position map (all trusted-side, no observable accesses);
//! * the **memory layer** — an in-memory Path ORAM tree used as a cache
//!   ([`PathOram`] on the DRAM device);
//! * the **storage layer** — the flat permuted partition grid on the slow
//!   device ([`StorageLayer`]).
//!
//! Execution alternates between **access periods** (scheduling cycles of
//! `c` memory path accesses overlapped with one I/O load, until `n/2`
//! loads have been issued) and **shuffle periods** (oblivious tree evict →
//! group+partition shuffle → fresh tree), exactly as §4.1 describes.
//!
//! # Example
//!
//! ```
//! use horam_core::{HOram, HOramConfig};
//! use oram_protocols::{Oram, BlockId, Request};
//! use oram_storage::MemoryHierarchy;
//! use oram_crypto::keys::MasterKey;
//!
//! # fn main() -> Result<(), oram_protocols::OramError> {
//! let config = HOramConfig::new(256, 16, 64).with_seed(1);
//! let mut oram = HOram::new(config, MemoryHierarchy::dac2019(),
//!                           MasterKey::from_bytes([1; 32]))?;
//! oram.write(BlockId(3), &[7u8; 16])?;
//! assert_eq!(oram.read(BlockId(3))?, vec![7u8; 16]);
//! # Ok(())
//! # }
//! ```

use crate::config::HOramConfig;
use crate::evict::oblivious_tree_evict;
use crate::persist::{self, KIND_SINGLE, SNAPSHOT_DOMAIN};
use crate::queue::RequestQueue;
use crate::scheduler::CyclePlan;
use crate::stats::{HOramStats, PipelineStats};
use crate::storage_layer::{BatchLoad, LoadPlan, StorageLayer};
use oram_crypto::keys::{KeyHierarchy, MasterKey, SubKeys};
use oram_crypto::persist::{open_envelope, seal_envelope, StateReader, StateWriter};
use oram_crypto::prf::Prf;
use oram_protocols::error::OramError;
use oram_protocols::oram_trait::Oram;
use oram_protocols::path_oram::PathOram;
use oram_protocols::types::{BlockId, Request, RequestOp};
use oram_storage::clock::{SimClock, SimDuration};
use oram_storage::hierarchy::MemoryHierarchy;
use oram_storage::trace::AccessTrace;

/// One planned scheduling cycle, carried from the plan phase to the
/// execute phase of its window: the control-layer decisions and the
/// cycle's **pre-drawn** memory-layer randomness. Drawing at plan time
/// fixes the memory RNG stream to plan order (all of a window's leaves
/// before any of its path accesses) — the order every pinned trace and
/// snapshot was recorded under.
#[derive(Debug)]
struct PlannedCycle {
    plan: CyclePlan,
    /// One remap leaf per hit, in hit order.
    hit_leaves: Vec<u64>,
    /// One path per padding access, in issue order.
    dummy_leaves: Vec<u64>,
    /// The arriving block's tree position (exactly when the cycle's I/O
    /// load is expected to return a real block).
    insert_leaf: Option<u64>,
}

/// The hybrid ORAM. See the [module docs](self).
#[derive(Debug)]
pub struct HOram {
    config: HOramConfig,
    memory: PathOram,
    storage: StorageLayer,
    clock: SimClock,
    trace: AccessTrace,
    queue: RequestQueue,
    io_used_in_period: u64,
    period_seq: u64,
    seed_prf: Prf,
    stats: HOramStats,
    /// Keys sealing this instance's snapshots (derived from the master).
    snapshot_keys: SubKeys,
}

impl HOram {
    /// Builds an H-ORAM instance on the given machine.
    ///
    /// Construction installs the initial storage layout and an empty
    /// memory tree, then **resets all accounting** (clock, traces, device
    /// stats), so reported numbers cover steady-state operation only.
    ///
    /// # Errors
    ///
    /// Propagates storage errors from the initial layout writes.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent
    /// (see [`HOramConfig::validate`]).
    pub fn new(
        config: HOramConfig,
        hierarchy: MemoryHierarchy,
        master: MasterKey,
    ) -> Result<Self, OramError> {
        config.validate();
        let clock = hierarchy.clock().clone();
        let trace = hierarchy.trace().clone();
        let MemoryHierarchy {
            memory: memory_device,
            storage: storage_device,
            ..
        } = hierarchy;

        let memory = Self::build_memory_layer(&config, memory_device, &master)?;
        let posmap = crate::posmap::build_posmap_on(&config, &master, false, &trace)?;
        let storage = StorageLayer::new(
            &config,
            storage_device,
            KeyHierarchy::new(master.clone(), "horam/storage"),
            posmap,
        )?;

        let seed_prf = Prf::new(master.derive("horam/seeds", 0).prf().to_owned());
        let queue = RequestQueue::new(config.capacity, config.payload_len);
        let snapshot_keys = master.derive(SNAPSHOT_DOMAIN, 0);
        let mut horam = Self {
            config,
            memory,
            storage,
            clock,
            trace,
            queue,
            io_used_in_period: 0,
            period_seq: 0,
            seed_prf,
            stats: HOramStats::default(),
            snapshot_keys,
        };
        horam.reset_accounting();
        Ok(horam)
    }

    /// Builds the in-memory Path ORAM cache layer the way [`new`](Self::new)
    /// does — shared with [`restore`](Self::restore) so derived key and
    /// seed material cannot drift between the two construction paths.
    fn build_memory_layer(
        config: &HOramConfig,
        device: oram_storage::device::Device,
        master: &MasterKey,
    ) -> Result<PathOram, OramError> {
        let memory_keys = master.derive("horam/memory", 0);
        PathOram::for_slot_budget(
            config.memory_slots,
            Some(config.capacity),
            config.payload_len,
            device,
            &memory_keys,
            config.seed ^ 0x6d65_6d6f,
        )
    }

    /// Seals the complete trusted client state into an encrypted,
    /// authenticated snapshot — stash, position map, permutation list,
    /// key epochs, scheduling counters, clock, and statistics — and
    /// **commits the storage device** first (a durable device flushes its
    /// write-back buffer, fsyncs, and truncates its undo journal), so the
    /// on-disk image a later recovery adopts is exactly the one this
    /// snapshot describes. The snapshot is one envelope around the
    /// instance's plain state body.
    ///
    /// The snapshot leaks nothing beyond its size (and whether two
    /// snapshots captured identical state — the envelope nonce is a
    /// keyed PRF of the body); see `docs/ARCHITECTURE.md` §9 for the
    /// trust-boundary argument.
    ///
    /// # Errors
    ///
    /// [`OramError::SnapshotInvalid`] if requests are still queued
    /// (snapshots are taken at batch boundaries — the serving layer's
    /// checkpoint drains first); storage backend errors propagate.
    pub fn snapshot(&mut self) -> Result<Vec<u8>, OramError> {
        let mut w = StateWriter::new();
        self.save_state(&mut w)?;
        let body = w.into_bytes();
        let seq = persist::envelope_seq(&self.snapshot_keys, &body);
        Ok(seal_envelope(&self.snapshot_keys, KIND_SINGLE, seq, &body))
    }

    /// Commits the devices and writes the plain state body that
    /// [`snapshot`](Self::snapshot) seals, or a sharded snapshot inlines.
    /// Errors as `snapshot`'s; on error `w` may hold a partial body.
    pub(crate) fn save_state(&mut self, w: &mut StateWriter) -> Result<(), OramError> {
        if !self.queue.is_drained() {
            return Err(OramError::SnapshotInvalid {
                reason: format!(
                    "{} requests still queued; drain before snapshotting",
                    self.queue.pending()
                ),
            });
        }
        // Commit point: everything the snapshot's control state refers to
        // must be on stable storage before the snapshot exists.
        self.memory
            .device_mut()
            .sync()
            .map_err(OramError::Storage)?;
        self.storage
            .device_mut()
            .sync()
            .map_err(OramError::Storage)?;
        self.storage.posmap_mut().sync()?;

        persist::save_config(&self.config, w);
        w.put_u64(self.clock.now().as_nanos());
        w.put_u64(self.io_used_in_period);
        w.put_u64(self.period_seq);
        self.stats.save_state(w);
        self.queue.save_state(w);
        self.memory.save_state(w)?;
        self.storage.save_state(w)
    }

    /// Rebuilds an instance from a snapshot sealed by
    /// [`snapshot`](Self::snapshot), the same master key, and a hierarchy
    /// whose storage device holds the snapshot's data: the durable device
    /// file for a file-backed hierarchy (its undo journal rolls partial
    /// post-snapshot writes back on open), or nothing for a fully
    /// volatile hierarchy (the snapshot embeds the data).
    ///
    /// The restored instance is byte-equivalent to the one the snapshot
    /// captured: replaying the same request stream produces identical
    /// responses, an identical bus trace (timestamps continue from the
    /// snapshot's clock), and identical statistics —
    /// `tests/persistence.rs` property-tests this end to end.
    ///
    /// # Errors
    ///
    /// [`OramError::SnapshotInvalid`] for a truncated, corrupted,
    /// wrong-key, or geometry-incompatible snapshot. Restores fail
    /// closed: an error never yields a partially restored instance.
    ///
    /// The snapshot does not carry
    /// [`worker_threads`](HOramConfig::worker_threads), a property of the
    /// host: the restored instance takes the default.
    pub fn restore(
        hierarchy: MemoryHierarchy,
        master: MasterKey,
        snapshot: &[u8],
    ) -> Result<Self, OramError> {
        let body = open_envelope(&master.derive(SNAPSHOT_DOMAIN, 0), KIND_SINGLE, snapshot)?;
        let mut r = StateReader::new(&body);
        let oram = Self::load_state(hierarchy, master, &mut r, crate::config::host_threads())?;
        r.finish()?;
        Ok(oram)
    }

    /// [`restore`](Self::restore) from a plain [`save_state`](Self::save_state)
    /// body, at the `worker_threads` a sharded instance gives its shards.
    pub(crate) fn load_state(
        hierarchy: MemoryHierarchy,
        master: MasterKey,
        r: &mut StateReader<'_>,
        worker_threads: usize,
    ) -> Result<Self, OramError> {
        let config = persist::load_config(r)?.with_worker_threads(worker_threads);
        config.validate();

        let clock = hierarchy.clock().clone();
        let trace = hierarchy.trace().clone();
        let MemoryHierarchy {
            memory: memory_device,
            storage: storage_device,
            ..
        } = hierarchy;

        let clock_nanos = r.get_u64()?;
        let io_used_in_period = r.get_u64()?;
        let period_seq = r.get_u64()?;
        let stats = HOramStats::load_state(r)?;
        let mut queue = RequestQueue::new(config.capacity, config.payload_len);
        queue.load_state(r)?;
        let mut memory = Self::build_memory_layer(&config, memory_device, &master)?;
        memory.load_state(r)?;
        let posmap = crate::posmap::build_posmap_on(&config, &master, true, &trace)?;
        let storage = StorageLayer::restore(
            &config,
            storage_device,
            KeyHierarchy::new(master.clone(), "horam/storage"),
            posmap,
            r,
        )?;

        // The hierarchy's accounting restarts at the snapshot's instant:
        // the trace is empty (the adversary's pre-crash view is already
        // recorded elsewhere) and the clock continues where it stopped,
        // so post-restore trace timestamps line up with an uninterrupted
        // run.
        trace.clear();
        clock.reset();
        clock.advance(SimDuration::from_nanos(clock_nanos));

        let seed_prf = Prf::new(master.derive("horam/seeds", 0).prf().to_owned());
        let snapshot_keys = master.derive(SNAPSHOT_DOMAIN, 0);
        Ok(Self {
            config,
            memory,
            storage,
            clock,
            trace,
            queue,
            io_used_in_period,
            period_seq,
            seed_prf,
            stats,
            snapshot_keys,
        })
    }

    /// The configuration in effect.
    pub fn config(&self) -> &HOramConfig {
        &self.config
    }

    /// Run statistics.
    pub fn stats(&self) -> HOramStats {
        self.stats
    }

    /// The shared bus trace (adversary view) of this instance.
    pub fn trace(&self) -> &AccessTrace {
        &self.trace
    }

    /// The simulated clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Memory-layer device statistics.
    pub fn memory_device_stats(&self) -> oram_storage::stats::DeviceStats {
        *self.memory.device().stats()
    }

    /// Storage-layer device statistics.
    pub fn storage_device_stats(&self) -> oram_storage::stats::DeviceStats {
        *self.storage.device().stats()
    }

    /// Block-cache counters of the storage device, when a cache is
    /// installed (via [`HOramConfig::cache`] or the machine description).
    ///
    /// [`HOramConfig::cache`]: crate::config::HOramConfig::cache
    pub fn cache_stats(&self) -> Option<oram_storage::cache::CacheStats> {
        self.storage.cache_stats()
    }

    /// Peak stash occupancy of the memory layer.
    pub fn memory_stash_peak(&self) -> usize {
        self.memory.tree().stash_peak()
    }

    /// The position map (control-layer view): trusted-byte accounting,
    /// activity counters, and — on the recursive variant — per-level
    /// oblivious traces.
    pub fn posmap(&self) -> &dyn crate::posmap::PositionMap {
        self.storage.posmap()
    }

    /// Total storage footprint in bytes (for the paper's size rows).
    pub fn storage_bytes(&self) -> u64 {
        self.storage
            .storage_bytes(self.storage.device().charged_block_bytes())
    }

    /// Wraps the storage device's backing store in a deterministic fault
    /// injector ([`oram_storage::fault::FaultyStore`]) — the entry point
    /// fault-injection tests use to make an already-populated, healthy
    /// instance start failing mid-run. Calling again stacks another
    /// injector over the first.
    pub fn inject_storage_faults(&mut self, config: oram_storage::fault::FaultConfig) {
        self.storage
            .device_mut()
            .wrap_store(|inner| Box::new(oram_storage::fault::FaultyStore::new(inner, config)));
    }

    /// Counters of injected storage faults, when
    /// [`inject_storage_faults`](Self::inject_storage_faults) (or a
    /// faulted hierarchy) is in effect.
    pub fn storage_fault_stats(&self) -> Option<oram_storage::fault::FaultStats> {
        self.storage.device().fault_stats()
    }

    /// Transient-fault retry counters of the storage device (volatile;
    /// not part of snapshots).
    pub fn storage_retry_stats(&self) -> oram_storage::device::RetryStats {
        self.storage.device().retry_stats()
    }

    /// Constant zero — benchmark-frozen remnant, see [`PipelineStats`].
    pub fn pipeline_stats(&self) -> PipelineStats {
        PipelineStats::default()
    }

    /// Clears all timing/tracing/statistics state (not data).
    pub fn reset_accounting(&mut self) {
        self.memory.device_mut().reset_accounting();
        self.storage.device_mut().reset_accounting();
        self.storage.posmap_mut().reset_accounting();
        self.trace.clear();
        self.clock.reset();
        self.stats = HOramStats::default();
    }

    fn period_seed(&self, purpose: u64) -> u64 {
        self.seed_prf
            .eval_words("period-seed", &[self.period_seq, purpose, self.config.seed])
    }

    /// The admission queue: pending count, per-ticket response readiness.
    pub fn queue(&self) -> &RequestQueue {
        &self.queue
    }

    /// Queues a request; returns the ticket to collect its response.
    ///
    /// # Errors
    ///
    /// [`OramError::BlockOutOfRange`] for ids beyond the capacity and
    /// [`OramError::PayloadSize`] for mis-sized write payloads — requests
    /// are validated before they can reach the scheduler (see
    /// [`RequestQueue::submit`]).
    pub fn enqueue(&mut self, request: Request) -> Result<u64, OramError> {
        self.queue.submit(request)
    }

    /// Removes and returns the response for `ticket`, if it has been
    /// serviced. The serving layer uses this to collect responses
    /// incrementally while batches from other tenants are still queued.
    pub fn take_response(&mut self, ticket: u64) -> Option<Vec<u8>> {
        self.queue.take_response(ticket)
    }

    /// Runs scheduling cycles until the ROB drains, then returns responses
    /// for the given tickets in order.
    ///
    /// # Errors
    ///
    /// Storage/crypto/protocol errors propagate; queued requests that were
    /// already serviced keep their responses.
    /// [`OramError::UnknownTicket`] for a ticket that was never issued or
    /// whose response was already collected (e.g. via
    /// [`take_response`](Self::take_response)).
    pub fn drain(&mut self, tickets: &[u64]) -> Result<Vec<Vec<u8>>, OramError> {
        while !self.queue.is_drained() {
            self.run_cycle_window(self.config.io_batch)?;
        }
        let mut out = Vec::with_capacity(tickets.len());
        for ticket in tickets {
            let response = self
                .queue
                .take_response(*ticket)
                .ok_or(OramError::UnknownTicket { ticket: *ticket })?;
            out.push(response);
        }
        Ok(out)
    }

    /// Queues a whole batch and drains it — the paper's evaluation mode
    /// (a request trace pushed through the scheduler).
    ///
    /// # Errors
    ///
    /// As [`drain`](Self::drain).
    pub fn run_batch(&mut self, requests: &[Request]) -> Result<Vec<Vec<u8>>, OramError> {
        let tickets: Vec<u64> = requests
            .iter()
            .map(|r| self.enqueue(r.clone()))
            .collect::<Result<_, _>>()?;
        self.drain(&tickets)
    }

    /// Executes up to `max_cycles` scheduling cycles as one I/O window —
    /// the only cycle driver; [`drain`](Self::drain) and the serving
    /// layer's pump loop over it. One cycle is up to `c` memory accesses
    /// overlapped with exactly one I/O load (real or dummy); a window of
    /// one runs a single cycle and commits its load on its own:
    ///
    /// 1. **plan** — each cycle is planned exactly as in the sequential
    ///    path (hit hoisting, miss selection, padding). Planning mutates
    ///    control-layer state only — the ROB, the permutation list, the
    ///    period markers ([`StorageLayer::plan_io`]) — and cycle `j+1`'s
    ///    hit test counts cycle `j`'s staged load as resident, so the per-cycle
    ///    decisions are *identical* to running `max_cycles` windows of
    ///    one. Each cycle's
    ///    memory-layer leaves (hit remaps, padding paths, the arrival's
    ///    position) are drawn here, in plan order;
    /// 2. **commit** — the window's loads go to the storage device as one
    ///    queued scatter read ([`StorageLayer::commit_io`]), coalescing
    ///    per-op device overhead;
    /// 3. **execute** — the memory halves run in plan order, each cycle's
    ///    loaded block landing in the tree before the next cycle's hits
    ///    are served;
    /// 4. **shuffle** — if the window spent the period's I/O budget.
    ///
    /// The observable storage access sequence (slots, order, sizes) is
    /// byte-identical to the sequential path — only the simulated cost
    /// shrinks. The window never crosses a period boundary (it is clamped
    /// to the period's remaining I/O budget) and stops early when the ROB
    /// drains; an empty ROB still runs one padded (all-dummy) cycle.
    /// Returns the number of cycles executed.
    ///
    /// [`StorageLayer::plan_io`]: crate::storage_layer::StorageLayer::plan_io
    /// [`StorageLayer::commit_io`]: crate::storage_layer::StorageLayer::commit_io
    ///
    /// # Errors
    ///
    /// Storage/crypto/protocol errors propagate and are **fail-stop**:
    /// planned cycles have already mutated the ROB and location table, so
    /// after an error the instance's trusted metadata no longer matches
    /// the device and the instance must be discarded (the same corruption
    /// cases were fatal to the request on the sequential path).
    ///
    /// # Panics
    ///
    /// Panics if `max_cycles` is zero.
    pub fn run_cycle_window(&mut self, max_cycles: u64) -> Result<u64, OramError> {
        assert!(
            max_cycles >= 1,
            "a cycle window must cover at least one cycle"
        );
        let cycles = self.plan_window(max_cycles)?;
        let batch = self.storage.commit_io()?;
        let executed = self.execute_window(&cycles, batch)?;
        if self.io_used_in_period >= self.config.period_io_limit() {
            self.shuffle_period()?;
        }
        Ok(executed)
    }

    /// Plans one I/O window: the control sweep of up to `max_cycles`
    /// cycles, clamped to the period's remaining I/O budget. Mutates
    /// control-layer state only — ROB, permutation-list markers, position
    /// map, and the memory layer's RNG (pre-drawn here, consumed at
    /// execute).
    fn plan_window(&mut self, max_cycles: u64) -> Result<Vec<PlannedCycle>, OramError> {
        let window = max_cycles.min(
            self.config
                .period_io_limit()
                .saturating_sub(self.io_used_in_period),
        );
        let d = self.config.prefetch_distance;
        let mut cycles: Vec<PlannedCycle> = Vec::with_capacity(window as usize);
        // A hit is a block in the memory layer's id → leaf table (never
        // the position map) or one an earlier cycle of this window staged:
        // staged loads reach the tree only at execute.
        let mut arrivals: Vec<BlockId> = Vec::new();
        for offset in 0..window {
            if offset > 0 && self.queue.is_drained() {
                break;
            }
            let c = self.config.stage_c(self.io_used_in_period + offset);
            let memory = &self.memory;
            let plan: CyclePlan = self
                .queue
                .plan(c, d, |id| memory.contains(id) || arrivals.contains(&id));
            let io = self.storage.plan_io(match plan.miss_block {
                Some(id) => LoadPlan::Miss(id),
                None => LoadPlan::Dummy,
            })?;
            // Pre-draw the cycle's memory-layer randomness in execution
            // order — hit remaps, then padding paths, then the arrival's
            // tree position — pinning the RNG stream at plan time.
            let hit_leaves: Vec<u64> = plan.hits.iter().map(|_| self.memory.draw_leaf()).collect();
            let dummy_leaves: Vec<u64> = (0..plan.dummy_memory)
                .map(|_| self.memory.draw_leaf())
                .collect();
            let insert_leaf = io.expect.map(|_| self.memory.draw_leaf());
            arrivals.extend(io.expect);
            cycles.push(PlannedCycle {
                plan,
                hit_leaves,
                dummy_leaves,
                insert_leaf,
            });
        }
        Ok(cycles)
    }

    /// Executes one planned window's memory half in plan order, consuming
    /// the pre-drawn randomness, then advances the simulated clock by the
    /// overlapped wall time.
    fn execute_window(
        &mut self,
        cycles: &[PlannedCycle],
        batch: BatchLoad,
    ) -> Result<u64, OramError> {
        let mut memory_total = SimDuration::ZERO;
        for (cycle, io_load) in cycles.iter().zip(batch.loads) {
            let mut memory_time = SimDuration::ZERO;
            for (entry, &new_leaf) in cycle.plan.hits.iter().zip(&cycle.hit_leaves) {
                let (data, receipt) = match &entry.request.op {
                    RequestOp::Read => self.memory.access_read_at(entry.request.id, new_leaf)?,
                    RequestOp::Write(payload) => {
                        self.stats.writes += 1;
                        self.memory
                            .access_write_at(entry.request.id, new_leaf, payload)?
                    }
                };
                memory_time += receipt.memory;
                self.queue.complete(entry.ticket, data);
                self.stats.memory_hits += 1;
                self.stats.requests += 1;
            }
            for &leaf in &cycle.dummy_leaves {
                memory_time += self.memory.dummy_access_at(leaf)?.memory;
                self.stats.dummy_memory_accesses += 1;
            }
            match cycle.plan.miss_block {
                Some(_) => self.stats.real_io_loads += 1,
                None => {
                    self.stats.dummy_io_loads += 1;
                    if io_load.block.is_some() {
                        self.stats.prefetched_blocks += 1;
                    }
                }
            }
            if let Some((id, payload)) = io_load.block {
                let leaf = cycle
                    .insert_leaf
                    .ok_or_else(|| OramError::internal("I/O arrival without a pre-drawn leaf"))?;
                self.memory.insert_block_at(id, payload, leaf)?;
            }
            memory_total += memory_time;
            self.stats.cycles += 1;
        }

        // Wall clock: the paper overlaps the path accesses with the loads
        // ("the I/O loads and in-memory reads are conducted simultaneously");
        // a window overlaps its whole memory stream with its whole batch.
        let executed = cycles.len() as u64;
        let wall = memory_total.max(batch.io_time);
        self.clock.advance(wall);
        self.stats.access_wall_time += wall;
        self.stats.memory_time += memory_total;
        self.stats.io_time += batch.io_time;
        self.io_used_in_period += executed;
        Ok(executed)
    }

    /// Runs the shuffle period now (normally triggered automatically when
    /// the period's I/O budget is spent): oblivious tree evict →
    /// group+partition shuffle (full or partial) → fresh memory tree.
    ///
    /// # Errors
    ///
    /// Storage/crypto errors propagate.
    pub fn shuffle_period(&mut self) -> Result<(), OramError> {
        // 1. Oblivious tree evict (§4.3.1).
        let evict_seed = self.period_seed(1);
        let outcome = oblivious_tree_evict(&mut self.memory, evict_seed)?;

        // 2. Group + partition shuffle (§4.3.2 / §5.3.1).
        let shuffle_seed = self.period_seed(2);
        let report = match self.config.partial_shuffle_ratio {
            None => self.storage.rebuild_full(outcome.blocks, shuffle_seed)?,
            Some(_) => self.storage.rebuild_partial(
                outcome.blocks,
                self.config.partitions_per_shuffle(),
                shuffle_seed,
            )?,
        };

        // 3. Fresh in-memory tree (§4.1.2: "evicted back to the storage and
        //    will be reconstructed again").
        let rebuild = self.memory.rebuild_empty()?;

        // Evict and tree rebuild are memory-side and serialize with the
        // pipelined storage pass.
        let wall = outcome.memory_time + report.wall_time + rebuild.memory;
        self.clock.advance(wall);
        self.stats.shuffle_wall_time += wall;
        self.stats.shuffles += 1;
        self.stats.spilled_blocks += report.spilled;
        self.io_used_in_period = 0;
        self.period_seq += 1;
        // The evict returned every cached block to storage: in-flight loads
        // are void, pending misses must be re-issueable.
        self.queue.void_in_flight_io();
        Ok(())
    }
}

impl Oram for HOram {
    fn capacity(&self) -> u64 {
        self.config.capacity
    }

    fn payload_len(&self) -> usize {
        self.config.payload_len
    }

    fn read(&mut self, id: BlockId) -> Result<Vec<u8>, OramError> {
        let mut out = self.run_batch(&[Request::read(id)])?;
        out.pop()
            .ok_or_else(|| OramError::internal("one-request batch returned no response"))
    }

    fn write(&mut self, id: BlockId, data: &[u8]) -> Result<Vec<u8>, OramError> {
        let mut out = self.run_batch(&[Request::write(id, data.to_vec())])?;
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

    fn build(capacity: u64, memory_slots: u64) -> HOram {
        let config = HOramConfig::new(capacity, 8, memory_slots).with_seed(17);
        HOram::new(
            config,
            MemoryHierarchy::dac2019().recording(),
            MasterKey::from_bytes([9; 32]),
        )
        .unwrap()
    }

    #[test]
    fn read_your_writes_single() {
        let mut oram = build(256, 64);
        oram.write(BlockId(5), &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        assert_eq!(oram.read(BlockId(5)).unwrap(), vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn batch_preserves_request_order() {
        let mut oram = build(256, 64);
        let requests: Vec<Request> = (0..20u64)
            .map(|i| Request::write(i, vec![i as u8; 8]))
            .chain((0..20u64).map(Request::read))
            .collect();
        let responses = oram.run_batch(&requests).unwrap();
        assert_eq!(responses.len(), 40);
        for (i, response) in responses.iter().skip(20).enumerate() {
            assert_eq!(response, &vec![i as u8; 8], "read-back of block {i}");
        }
    }

    #[test]
    fn survives_shuffle_periods() {
        // Memory 64 slots ⇒ period = 32 I/O loads; 300 requests with a
        // small hot set forces several periods.
        let mut oram = build(256, 64);
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
            oram.stats().shuffles >= 1,
            "workload must cross a period boundary"
        );
    }

    fn build_batched(capacity: u64, memory_slots: u64, io_batch: u64) -> HOram {
        let config = HOramConfig::new(capacity, 8, memory_slots)
            .with_seed(17)
            .with_io_batch(io_batch);
        HOram::new(
            config,
            MemoryHierarchy::dac2019().recording(),
            MasterKey::from_bytes([9; 32]),
        )
        .unwrap()
    }

    #[test]
    fn windowed_drain_matches_sequential_exactly() {
        // Identical responses, identical storage access sequence
        // (oblivious-trace equality), identical cycle/load/shuffle counts;
        // strictly less simulated I/O time. The workload crosses several
        // shuffle periods (memory 64 ⇒ period 32) and mixes hits, misses
        // and writes.
        let mut rng = DeterministicRng::from_u64_seed(41);
        let requests: Vec<Request> = (0..220)
            .map(|_| {
                let id = rng.gen_range(0..256u64);
                if rng.gen_bool(0.3) {
                    Request::write(id, vec![rng.gen::<u8>(); 8])
                } else {
                    Request::read(id)
                }
            })
            .collect();

        let mut sequential = build(256, 64);
        let seq_responses = sequential.run_batch(&requests).unwrap();
        let storage_id = sequential.storage.device().id();
        let seq_addrs = sequential.trace().address_sequence(storage_id);

        let mut batched = build_batched(256, 64, 8);
        let bat_responses = batched.run_batch(&requests).unwrap();
        let bat_addrs = batched.trace().address_sequence(storage_id);

        assert_eq!(seq_responses, bat_responses);
        assert_eq!(seq_addrs, bat_addrs, "storage access patterns diverged");
        let (seq_stats, bat_stats) = (sequential.stats(), batched.stats());
        assert!(seq_stats.shuffles >= 2, "setup: must cross periods");
        assert_eq!(seq_stats.cycles, bat_stats.cycles);
        assert_eq!(seq_stats.total_io_loads(), bat_stats.total_io_loads());
        assert_eq!(seq_stats.real_io_loads, bat_stats.real_io_loads);
        assert_eq!(seq_stats.shuffles, bat_stats.shuffles);
        assert_eq!(seq_stats.memory_time, bat_stats.memory_time);
        assert!(
            bat_stats.io_time < seq_stats.io_time,
            "batched I/O {:?} !< sequential {:?}",
            bat_stats.io_time,
            seq_stats.io_time
        );
        assert!(bat_stats.access_wall_time <= seq_stats.access_wall_time);
    }

    #[test]
    fn cycle_window_never_crosses_a_period_boundary() {
        // Period = 8 loads ≪ window of 64, queue deeper than two periods:
        // every window stops at the period's remaining budget, and the
        // shuffle runs exactly when the budget is spent.
        let mut oram = build_batched(256, 16, 64);
        let period = oram.config().period_io_limit();
        for id in 0..40u64 {
            oram.enqueue(Request::read(id)).unwrap();
        }
        let mut used = 0;
        while !oram.queue().is_drained() {
            let shuffles = oram.stats().shuffles;
            used += oram.run_cycle_window(64).unwrap();
            assert!(
                used <= period,
                "window planned {used} loads into a period of {period}"
            );
            if oram.stats().shuffles > shuffles {
                assert_eq!(used, period, "shuffle before the budget was spent");
                used = 0;
            }
        }
        let stats = oram.stats();
        assert!(stats.shuffles >= 2);
        assert_eq!(stats.total_io_loads(), stats.cycles);
    }

    #[test]
    fn cycle_window_stops_when_the_rob_drains() {
        let mut oram = build_batched(256, 64, 32);
        oram.enqueue(Request::read(1u64)).unwrap();
        oram.enqueue(Request::read(2u64)).unwrap();
        let executed = oram.run_cycle_window(32).unwrap();
        assert!(
            executed < 32,
            "window should stop early, ran {executed} cycles"
        );
        assert!(oram.queue().is_drained());
    }

    #[test]
    fn every_cycle_issues_exactly_one_io() {
        let mut oram = build(256, 64);
        let requests: Vec<Request> = (0..30u64).map(Request::read).collect();
        oram.run_batch(&requests).unwrap();
        let stats = oram.stats();
        assert_eq!(stats.total_io_loads(), stats.cycles);
    }

    #[test]
    fn hot_workload_hits_in_memory() {
        let mut oram = build(256, 128);
        // Touch 4 blocks repeatedly: after the first misses, everything is
        // a hit and I/O loads become dummies.
        let requests: Vec<Request> = (0..100u64).map(|i| Request::read(i % 4)).collect();
        oram.run_batch(&requests).unwrap();
        let stats = oram.stats();
        assert_eq!(stats.real_io_loads, 4, "only the cold misses hit storage");
        assert!(stats.requests_per_io() > 2.0);
    }

    #[test]
    fn grouping_overlaps_memory_under_io() {
        let mut oram = build(1024, 256);
        let requests: Vec<Request> = (0..200u64).map(|i| Request::read(i % 8)).collect();
        oram.run_batch(&requests).unwrap();
        let stats = oram.stats();
        // Wall time of the access period must be below the serial sum.
        assert!(stats.access_wall_time < stats.memory_time + stats.io_time);
        // And at least the larger component.
        assert!(stats.access_wall_time >= stats.io_time.max(stats.memory_time));
    }

    #[test]
    fn period_limit_triggers_shuffles() {
        let mut oram = build(256, 16); // period = 8 I/O loads
        let requests: Vec<Request> = (0..40u64).map(Request::read).collect();
        oram.run_batch(&requests).unwrap();
        assert!(oram.stats().shuffles >= 2);
        assert!(oram.stats().shuffle_wall_time > SimDuration::ZERO);
    }

    #[test]
    fn partial_shuffle_mode_works_end_to_end() {
        let config = HOramConfig::new(256, 8, 16)
            .with_seed(5)
            .with_partial_shuffle(0.25);
        let mut oram = HOram::new(
            config,
            MemoryHierarchy::dac2019(),
            MasterKey::from_bytes([8; 32]),
        )
        .unwrap();
        let mut reference: HashMap<u64, Vec<u8>> = HashMap::new();
        let mut rng = DeterministicRng::from_u64_seed(6);
        for _ in 0..120 {
            let id = rng.gen_range(0..256u64);
            if rng.gen_bool(0.4) {
                let payload = vec![rng.gen::<u8>(); 8];
                oram.write(BlockId(id), &payload).unwrap();
                reference.insert(id, payload);
            } else {
                let got = oram.read(BlockId(id)).unwrap();
                assert_eq!(got, reference.get(&id).cloned().unwrap_or(vec![0u8; 8]));
            }
        }
        assert!(oram.stats().shuffles >= 1);
    }

    fn mixed_workload(seed: u64, count: usize, capacity: u64) -> Vec<Request> {
        let mut rng = DeterministicRng::from_u64_seed(seed);
        (0..count)
            .map(|_| {
                let id = rng.gen_range(0..capacity);
                if rng.gen_bool(0.3) {
                    Request::write(id, vec![rng.gen::<u8>(); 8])
                } else {
                    Request::read(id)
                }
            })
            .collect()
    }

    #[test]
    fn memory_rng_stream_and_bus_trace_are_pinned() {
        // Each cycle's leaves are drawn at plan time — one per hit, dummy
        // and arrival, a whole window before any of its path accesses —
        // and that order is part of every recorded trace and snapshot.
        // The constants are what commit 7267d57 (the last with the
        // pipelined driver, at its default depth 1) produces for this
        // workload: a change to how many leaves are drawn moves the stream
        // position, a change to when they are drawn moves the trace hash.
        use oram_crypto::siphash::SipHash24;
        use oram_storage::device::AccessKind;

        let mut oram = build_batched(256, 64, 8);
        oram.run_batch(&mixed_workload(23, 150, 256)).unwrap();
        assert_eq!(oram.memory.rng_stream_pos(), (170, 32));

        let events = oram.trace().snapshot();
        let mut hash = SipHash24::new(&[0x5a; 16]);
        for event in &events {
            hash.write(&[matches!(event.kind, AccessKind::Write) as u8]);
            hash.write_u64(u64::from(event.device.0));
            hash.write_u64(event.addr);
            hash.write_u64(event.bytes);
        }
        assert_eq!(
            (events.len(), hash.finish()),
            (17_403, 6_593_260_453_281_361_593),
            "bus trace changed"
        );
    }

    #[test]
    fn stash_stays_bounded() {
        let mut oram = build(512, 64);
        let mut rng = DeterministicRng::from_u64_seed(12);
        let requests: Vec<Request> = (0..400)
            .map(|_| Request::read(rng.gen_range(0..512u64)))
            .collect();
        oram.run_batch(&requests).unwrap();
        assert!(
            oram.memory_stash_peak() < 200,
            "stash peak {}",
            oram.memory_stash_peak()
        );
    }

    #[test]
    fn accounting_reset_zeroes_reports() {
        let mut oram = build(256, 64);
        oram.read(BlockId(1)).unwrap();
        oram.reset_accounting();
        assert_eq!(oram.stats(), HOramStats::default());
        assert_eq!(oram.clock().now().as_nanos(), 0);
        assert!(oram.trace().is_empty());
    }

    #[test]
    fn payload_validation() {
        let mut oram = build(256, 64);
        assert!(matches!(
            oram.write(BlockId(0), &[1, 2]),
            Err(OramError::PayloadSize {
                expected: 8,
                got: 2
            })
        ));
    }

    /// Every count an authentic body sizes an allocation by is checked
    /// against the bytes left first: a count of `u64::MAX` at each such
    /// site, sealed under the right key, is a typed `SnapshotInvalid`.
    #[test]
    fn state_counts_are_bounded_before_allocating() {
        let master = MasterKey::from_bytes([9; 32]);
        let mut oram = build(256, 64);
        oram.run_batch(&(0..40u64).map(Request::read).collect::<Vec<_>>())
            .unwrap();
        oram.enqueue(Request::read(3u64)).unwrap();
        while !oram.queue().is_drained() {
            oram.run_cycle_window(1).unwrap();
        }
        let keys = master.derive(SNAPSHOT_DOMAIN, 0);
        let body = open_envelope(&keys, KIND_SINGLE, &oram.snapshot().unwrap()).unwrap();
        let field = |at: usize| u64::from_le_bytes(body[at..at + 8].try_into().unwrap());

        // The queue's response count follows the config, clock, I/O
        // budget, period, stats, and the queue's geometry, ticket counter
        // and submission counters.
        let mut head = StateWriter::new();
        persist::save_config(&oram.config, &mut head);
        (0..3).for_each(|_| head.put_u64(0));
        oram.stats.save_state(&mut head);
        let responses_at = head.len() + 5 * 8;
        assert_eq!(field(responses_at), 1, "one uncollected response");
        // The storage device's state closes the body: seven stats words,
        // the timing-word count and words, the charged bytes, the
        // durability flag, then the volatile store's block count.
        let mut device = StateWriter::new();
        oram.storage.device_mut().save_state(&mut device).unwrap();
        let device = device.into_bytes();
        assert!(body.ends_with(&device));
        let words_at = body.len() - device.len() + 7 * 8;
        let blocks_at = words_at + 8 + 8 * field(words_at) as usize + 8 + 1;
        assert_eq!(body[blocks_at - 1], 0, "volatile store");
        assert!(field(blocks_at) > 0, "stored blocks");

        for (site, at) in [
            ("queue responses", responses_at),
            ("device timing words", words_at),
            ("device blocks", blocks_at),
        ] {
            let mut bad = body.clone();
            bad[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            let seq = persist::envelope_seq(&keys, &bad);
            let sealed = seal_envelope(&keys, KIND_SINGLE, seq, &bad);
            let result = HOram::restore(MemoryHierarchy::dac2019(), master.clone(), &sealed);
            assert!(
                matches!(result, Err(OramError::SnapshotInvalid { .. })),
                "{site}: {result:?}"
            );
        }
    }

    #[test]
    fn drain_of_collected_or_unknown_ticket_is_an_error() {
        let mut oram = build(256, 64);
        let ticket = oram.enqueue(Request::read(1u64)).unwrap();
        while !oram.queue().is_drained() {
            oram.run_cycle_window(1).unwrap();
        }
        assert_eq!(oram.take_response(ticket), Some(vec![0u8; 8]));
        // Already collected incrementally: a later drain must not panic.
        assert!(matches!(
            oram.drain(&[ticket]),
            Err(OramError::UnknownTicket { ticket: t }) if t == ticket
        ));
        assert!(matches!(
            oram.drain(&[999]),
            Err(OramError::UnknownTicket { ticket: 999 })
        ));
    }

    /// Holds the hit test's source — the memory layer's id → leaf table —
    /// to slot ownership for every id: a block is resident exactly when
    /// the slot its permutation-list entry names does not name it back.
    fn assert_residency_matches_slot_owners(oram: &mut HOram) {
        for id in (0..oram.config.capacity).map(BlockId) {
            assert_eq!(
                oram.memory.contains(id),
                oram.storage.is_resident(id),
                "block {id} after {} cycles",
                oram.stats().cycles
            );
        }
    }

    #[test]
    fn residency_and_slot_ownership_agree() {
        // A hot set of 16 ids keeps repeats inside one 16-cycle window.
        let mut rng = DeterministicRng::from_u64_seed(29);
        let requests: Vec<Request> = (0..300)
            .map(|_| {
                let range = if rng.gen_bool(0.6) { 16 } else { 256u64 };
                let id = rng.gen_range(0..range);
                if rng.gen_bool(0.3) {
                    Request::write(id, vec![rng.gen::<u8>(); 8])
                } else {
                    Request::read(id)
                }
            })
            .collect();
        for recursive in [false, true] {
            for io_batch in [1, 16] {
                for partial in [None, Some(0.5)] {
                    let mut config = HOramConfig::new(256, 8, 64)
                        .with_seed(17)
                        .with_io_batch(io_batch);
                    if recursive {
                        config = config.with_recursive_posmap(2);
                    }
                    if let Some(ratio) = partial {
                        config = config.with_partial_shuffle(ratio);
                    }
                    let leg = format!("recursive {recursive}, io_batch {io_batch}, {partial:?}");
                    let master = MasterKey::from_bytes([9; 32]);
                    let mut oram = HOram::new(config, MemoryHierarchy::dac2019(), master).unwrap();
                    for request in &requests {
                        oram.enqueue(request.clone()).unwrap();
                    }
                    while !oram.queue().is_drained() {
                        if let Err(error) = oram.run_cycle_window(io_batch) {
                            panic!("{leg}: {error}");
                        }
                        assert_residency_matches_slot_owners(&mut oram);
                    }
                    assert!(oram.stats().shuffles >= 2, "{leg}: must cross periods");
                }
            }
        }

        // Staged arrivals: cycle 0 of a 16-cycle window stages block 7's
        // load, and cycle 1's scan must count it resident although the tree
        // receives it only at execute — otherwise the second read issues a
        // fetch of a resident block.
        let mut oram = build_batched(256, 64, 16);
        oram.enqueue(Request::read(7u64)).unwrap();
        oram.enqueue(Request::read(7u64)).unwrap();
        assert!(oram.run_cycle_window(16).unwrap() >= 2);
        assert!(oram.queue().is_drained(), "both reads served in one window");
        let stats = oram.stats();
        assert_eq!((stats.real_io_loads, stats.memory_hits), (1, 2));
        assert_residency_matches_slot_owners(&mut oram);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            /// Arbitrary batched read/write interleavings agree with a
            /// plain map, across period boundaries.
            #[test]
            fn batches_match_reference(
                ops in proptest::collection::vec((0u64..64, proptest::option::of(any::<u8>())), 1..80),
                splits in proptest::collection::vec(1usize..20, 0..4),
            ) {
                let mut oram = build(64, 16); // period = 8 loads: shuffles happen
                let mut reference: HashMap<u64, Vec<u8>> = HashMap::new();

                // Split ops into batches at the given points.
                let mut batches: Vec<Vec<(u64, Option<u8>)>> = Vec::new();
                let mut rest = ops.as_slice();
                for &split in &splits {
                    let take = split.min(rest.len());
                    let (head, tail) = rest.split_at(take);
                    if !head.is_empty() {
                        batches.push(head.to_vec());
                    }
                    rest = tail;
                }
                if !rest.is_empty() {
                    batches.push(rest.to_vec());
                }

                for batch in batches {
                    let requests: Vec<Request> = batch
                        .iter()
                        .map(|(id, write)| match write {
                            Some(byte) => Request::write(*id, vec![*byte; 8]),
                            None => Request::read(*id),
                        })
                        .collect();
                    let responses = oram.run_batch(&requests).expect("batch");
                    for ((id, write), response) in batch.iter().zip(responses) {
                        let expected = match write {
                            Some(byte) => reference
                                .insert(*id, vec![*byte; 8])
                                .unwrap_or(vec![0u8; 8]),
                            None => {
                                reference.get(id).cloned().unwrap_or(vec![0u8; 8])
                            }
                        };
                        prop_assert_eq!(response, expected, "block {}", id);
                    }
                }
            }

            /// The cycle invariant holds for any workload shape: exactly
            /// one I/O load per cycle.
            #[test]
            fn one_io_per_cycle(ids in proptest::collection::vec(0u64..128, 1..60)) {
                let mut oram = build(128, 32);
                let requests: Vec<Request> = ids.into_iter().map(Request::read).collect();
                oram.run_batch(&requests).expect("batch");
                let stats = oram.stats();
                prop_assert_eq!(stats.total_io_loads(), stats.cycles);
            }

            /// Memory-resident count never exceeds the tree's real-block
            /// budget within a period (the n/2 invariant behind the
            /// period length).
            #[test]
            fn resident_blocks_bounded(ids in proptest::collection::vec(0u64..256, 1..50)) {
                let mut oram = build(256, 64);
                for id in ids {
                    oram.read(BlockId(id)).expect("read");
                    let resident = oram.memory.resident_blocks() as u64;
                    prop_assert!(
                        resident <= oram.config.period_io_limit() + oram.config().memory_slots,
                        "resident {} beyond budget",
                        resident
                    );
                }
            }
        }
    }
}
