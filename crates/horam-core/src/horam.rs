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
//! Beyond the paper, the cycle driver is **pipelined** (see
//! [`crate::pipeline`] and `docs/PIPELINE.md`): while one window's device
//! and crypto phases are in flight, the next windows' control sweeps run
//! ahead, with every observable — responses, bus trace, statistics,
//! simulated clock — byte-identical at any pipeline depth.
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
use crate::pipeline::{HazardTracker, PipelineStats};
use crate::queue::RequestQueue;
use crate::scheduler::CyclePlan;
use crate::stats::HOramStats;
use crate::storage_layer::{BatchLoad, BatchOpener, LoadPlan, RawBatch, StorageLayer};
use oram_crypto::keys::{KeyHierarchy, MasterKey, SubKeys};
use oram_crypto::persist::{open_envelope, seal_envelope, StateReader, StateWriter};
use oram_crypto::prf::Prf;
use oram_protocols::error::OramError;
use oram_protocols::oram_trait::Oram;
use oram_protocols::path_oram::{AccessReceipt, PathOram};
use oram_protocols::types::{BlockId, Request, RequestOp};
use oram_storage::clock::{SimClock, SimDuration};
use oram_storage::hierarchy::MemoryHierarchy;
use oram_storage::trace::AccessTrace;
use std::collections::VecDeque;

/// One planned scheduling cycle, carried from the plan phase to the
/// execute phase of its window: the control-layer decisions, the storage
/// half's reservation, and the cycle's **pre-drawn** memory-layer
/// randomness. Pre-drawing at plan time pins the memory RNG stream to
/// plan order — which is the same at every pipeline depth — so overlapped
/// execution consumes exactly the randomness the sequential path would.
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

/// A fully planned I/O window — the unit the pipeline keeps in flight.
#[derive(Debug)]
struct PlannedWindow {
    cycles: Vec<PlannedCycle>,
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
    /// I/O loads *planned* in the current period, including windows still
    /// in flight. Equal to `io_used_in_period` whenever no window is in
    /// flight; transient, never persisted (snapshots require a drained,
    /// settled instance where the two coincide).
    io_planned_in_period: u64,
    period_seq: u64,
    seed_prf: Prf,
    stats: HOramStats,
    /// Structural-hazard ledger for in-flight windows.
    hazards: HazardTracker,
    /// Volatile pipeline counters (never part of snapshots or
    /// [`HOramStats`] — they describe *how* windows ran, which is exactly
    /// what the determinism contract keeps unobservable).
    pipeline_stats: PipelineStats,
    /// Doc-hidden leaky fixture: lookahead ignores the period boundary.
    hazard_skip: bool,
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
        let posmap = crate::posmap::build_posmap(&config, &master, false)?;
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
            io_planned_in_period: 0,
            period_seq: 0,
            seed_prf,
            stats: HOramStats::default(),
            hazards: HazardTracker::new(),
            pipeline_stats: PipelineStats::default(),
            hazard_skip: false,
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
    /// snapshot describes.
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

        let mut w = StateWriter::new();
        persist::save_config(&self.config, &mut w);
        w.put_u64(self.clock.now().as_nanos());
        w.put_u64(self.io_used_in_period);
        w.put_u64(self.period_seq);
        self.stats.save_state(&mut w);
        self.queue.save_state(&mut w);
        self.memory.save_state(&mut w)?;
        self.storage.save_state(&mut w)?;

        let body = w.into_bytes();
        let seq = persist::envelope_seq(&self.snapshot_keys, &body);
        Ok(seal_envelope(&self.snapshot_keys, KIND_SINGLE, seq, &body))
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
    pub fn restore(
        hierarchy: MemoryHierarchy,
        master: MasterKey,
        snapshot: &[u8],
    ) -> Result<Self, OramError> {
        let snapshot_keys = master.derive(SNAPSHOT_DOMAIN, 0);
        let body = open_envelope(&snapshot_keys, KIND_SINGLE, snapshot)?;
        let mut r = StateReader::new(&body);
        let config = persist::load_config(&mut r)?;
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
        let stats = HOramStats::load_state(&mut r)?;
        let mut queue = RequestQueue::new(config.capacity, config.payload_len);
        queue.load_state(&mut r)?;
        let mut memory = Self::build_memory_layer(&config, memory_device, &master)?;
        memory.load_state(&mut r)?;
        let posmap = crate::posmap::build_posmap(&config, &master, true)?;
        let storage = StorageLayer::restore(
            &config,
            storage_device,
            KeyHierarchy::new(master.clone(), "horam/storage"),
            posmap,
            &mut r,
        )?;
        r.finish()?;

        // The hierarchy's accounting restarts at the snapshot's instant:
        // the trace is empty (the adversary's pre-crash view is already
        // recorded elsewhere) and the clock continues where it stopped,
        // so post-restore trace timestamps line up with an uninterrupted
        // run.
        trace.clear();
        clock.reset();
        clock.advance(SimDuration::from_nanos(clock_nanos));

        let seed_prf = Prf::new(master.derive("horam/seeds", 0).prf().to_owned());
        Ok(Self {
            config,
            memory,
            storage,
            clock,
            trace,
            queue,
            io_used_in_period,
            // Snapshots are taken drained and settled, so planned == used.
            io_planned_in_period: io_used_in_period,
            period_seq,
            seed_prf,
            stats,
            hazards: HazardTracker::new(),
            pipeline_stats: PipelineStats::default(),
            hazard_skip: false,
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
        self.memory.stash_peak()
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

    /// Test fixture access to the storage device (e.g. the doc-hidden
    /// leaky-retry fixture the leakage battery must detect).
    #[doc(hidden)]
    pub fn storage_device_mut(&mut self) -> &mut oram_storage::device::Device {
        self.storage.device_mut()
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

    /// The cycle-pipeline depth this instance runs at
    /// ([`HOramConfig::pipeline_depth`]; 1 = sequential). A restored
    /// instance keeps the depth of the configuration in its snapshot.
    ///
    /// [`HOramConfig::pipeline_depth`]: crate::config::HOramConfig::pipeline_depth
    pub fn pipeline_depth(&self) -> u64 {
        self.config.pipeline_depth
    }

    /// Volatile pipeline counters: overlapped commits, windows planned
    /// ahead, period-boundary stalls, overlapped shuffles. Diagnostic
    /// only — never part of [`HOramStats`] or snapshots, because they
    /// describe scheduling mechanics the determinism contract keeps out
    /// of every observable.
    pub fn pipeline_stats(&self) -> PipelineStats {
        self.pipeline_stats
    }

    /// Test fixture: makes *lookahead* planning ignore the period
    /// boundary, so at depths ≥ 2 windows are planned across a pending
    /// shuffle and the shuffle is delayed — a deliberate determinism
    /// leak the pipeline battery must detect (head windows stay clamped,
    /// so depth-1 behavior is unchanged and the leak is invisible to
    /// everything but a cross-depth differential test).
    #[doc(hidden)]
    pub fn set_hazard_skip(&mut self, enabled: bool) {
        self.hazard_skip = enabled;
    }

    /// Clears all timing/tracing/statistics state (not data).
    pub fn reset_accounting(&mut self) {
        self.memory.device_mut().reset_accounting();
        self.storage.device_mut().reset_accounting();
        self.storage.posmap_mut().reset_accounting();
        self.trace.clear();
        self.clock.reset();
        self.stats = HOramStats::default();
        self.pipeline_stats = PipelineStats::default();
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
            self.run_cycle_burst(self.config.io_batch, u64::MAX)?;
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

    /// Executes one scheduling cycle: up to `c` memory accesses overlapped
    /// with exactly one I/O load (real or dummy), then period bookkeeping.
    /// Equivalent to [`run_cycle_window`](Self::run_cycle_window) with a
    /// window of one.
    ///
    /// # Errors
    ///
    /// Storage/crypto/protocol errors propagate.
    pub fn run_cycle(&mut self) -> Result<(), OramError> {
        self.run_cycle_window(1).map(|_| ())
    }

    /// Executes up to `max_cycles` scheduling cycles as one I/O window:
    ///
    /// 1. **plan** — each cycle is planned exactly as in the sequential
    ///    path (hit hoisting, miss selection, padding). Planning mutates
    ///    control-layer state only — the ROB, the permutation list, the
    ///    period markers ([`StorageLayer::plan_io`]) — so cycle `j+1`'s
    ///    hit test already observes cycle `j`'s load, and the per-cycle
    ///    decisions are *identical* to running
    ///    [`run_cycle`](Self::run_cycle) `max_cycles` times;
    /// 2. **commit** — the window's loads go to the storage device as one
    ///    queued scatter read ([`StorageLayer::commit_io`]), coalescing
    ///    per-op device overhead;
    /// 3. **execute** — the memory halves run in plan order, each cycle's
    ///    loaded block landing in the tree before the next cycle's hits
    ///    are served.
    ///
    /// The observable storage access sequence (slots, order, sizes) is
    /// byte-identical to the sequential path — only the simulated cost
    /// shrinks. The window never crosses a period boundary (it is clamped
    /// to the period's remaining I/O budget) and stops early when the ROB
    /// drains. Returns the number of cycles executed.
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
        self.run_cycle_burst(max_cycles, 1)
    }

    /// Runs up to `max_windows` I/O windows of up to `max_cycles` cycles
    /// each through the **pipelined cycle driver**, stopping early when
    /// the ROB drains. Returns the total number of cycles executed.
    ///
    /// While one window's device scatter and crypto open are in flight,
    /// up to `pipeline depth − 1` further windows are planned ahead
    /// (control sweep: hit classification, I/O reservation, randomness
    /// pre-draw, hazard registration). The contract — enforced by
    /// `tests/pipeline.rs` — is that every observable is **byte-identical
    /// at any depth**: planning mutates only control-layer state, device
    /// and memory phases run on the driver thread in canonical order, and
    /// each cycle's randomness is pre-drawn at plan time, so only host
    /// wall-clock behavior changes. A burst of `w` windows executes
    /// exactly the cycles `w` successive [`run_cycle_window`] calls
    /// would.
    ///
    /// Lookahead planning stalls (deterministically) at a period
    /// boundary: a window of the next period is never planned while this
    /// period's windows are in flight, so the shuffle always runs at the
    /// same cycle index as the sequential path.
    ///
    /// [`run_cycle_window`]: Self::run_cycle_window
    ///
    /// # Errors
    ///
    /// As [`run_cycle_window`](Self::run_cycle_window): fail-stop.
    ///
    /// # Panics
    ///
    /// Panics if `max_cycles` or `max_windows` is zero.
    pub fn run_cycle_burst(&mut self, max_cycles: u64, max_windows: u64) -> Result<u64, OramError> {
        assert!(
            max_cycles >= 1,
            "a cycle window must cover at least one cycle"
        );
        assert!(max_windows >= 1, "a burst must cover at least one window");
        let mut planned_windows: u64 = 1;
        let mut executed_total: u64 = 0;
        let mut queued: VecDeque<PlannedWindow> = VecDeque::new();
        // The head window is planned unconditionally: an empty queue
        // still runs one padded (all-dummy) cycle, exactly as the
        // sequential path always has.
        queued.push_back(self.plan_window(max_cycles, true)?);

        while let Some(window) = queued.pop_front() {
            // Device half on the driver thread, in canonical order.
            let opener = self.storage.batch_opener();
            let raw = self.storage.commit_scatter(window.cycles.len())?;
            // Crypto half (decrypt + verify), overlapped with planning
            // the next windows when the pipeline is deeper than one.
            let batch = self.open_window(
                opener,
                raw,
                max_cycles,
                max_windows,
                &mut planned_windows,
                &mut queued,
            )?;
            // Memory half in plan order.
            executed_total += self.execute_window(&window, batch)?;

            if queued.is_empty() {
                // Nothing in flight: period boundaries are safe to cross.
                if self.io_used_in_period >= self.config.period_io_limit() {
                    self.shuffle_period()?;
                }
                if planned_windows < max_windows && !self.queue.is_drained() {
                    queued.push_back(self.plan_window(max_cycles, true)?);
                    planned_windows += 1;
                }
            }
        }
        Ok(executed_total)
    }

    /// Plans one I/O window: the control sweep of up to `max_cycles`
    /// cycles (clamped to the period's remaining *planned* I/O budget
    /// when `clamp_to_period`, which is always except for the doc-hidden
    /// leaky fixture's lookahead). Mutates control-layer state only —
    /// ROB, permutation-list markers, position map, hazard ledger, and
    /// the memory layer's RNG (pre-drawn here, consumed at execute).
    fn plan_window(
        &mut self,
        max_cycles: u64,
        clamp_to_period: bool,
    ) -> Result<PlannedWindow, OramError> {
        let window = if clamp_to_period {
            max_cycles.min(
                self.config
                    .period_io_limit()
                    .saturating_sub(self.io_planned_in_period),
            )
        } else {
            max_cycles
        };
        let d = self.config.prefetch_distance;
        let mut cycles: Vec<PlannedCycle> = Vec::with_capacity(window as usize);
        let mut slots: Vec<u64> = Vec::new();
        let mut inserts = 0u64;
        for offset in 0..window {
            if offset > 0 && self.queue.is_drained() {
                break;
            }
            let c = self.config.stage_c(self.io_planned_in_period + offset);
            let storage = &mut self.storage;
            let plan: CyclePlan = self.queue.plan(c, d, |id| storage.is_in_memory(id));
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
            if let Some(slot) = io.slot {
                slots.push(slot);
            }
            inserts += u64::from(io.expect.is_some());
            cycles.push(PlannedCycle {
                plan,
                hit_leaves,
                dummy_leaves,
                insert_leaf,
            });
        }
        self.hazards.reserve_window(&slots, inserts)?;
        self.pipeline_stats.max_windows_in_flight = self
            .pipeline_stats
            .max_windows_in_flight
            .max(self.hazards.in_flight() as u64);
        self.pipeline_stats.stash_reserved_peak = self
            .pipeline_stats
            .stash_reserved_peak
            .max(self.hazards.stash_reserved_peak());
        self.io_planned_in_period += cycles.len() as u64;
        Ok(PlannedWindow { cycles })
    }

    /// Plans further windows while the in-flight window's crypto open
    /// runs: refills the lookahead queue to `pipeline depth − 1`
    /// windows, stopping — deterministically, independent of how fast
    /// the open finishes — when the ROB drains, the burst's window
    /// allowance is spent, or the period's I/O budget is exhausted (a
    /// **period stall**: the next window belongs after the shuffle).
    fn top_up(
        &mut self,
        max_cycles: u64,
        max_windows: u64,
        planned_windows: &mut u64,
        queued: &mut VecDeque<PlannedWindow>,
    ) -> Result<(), OramError> {
        while (queued.len() as u64) < self.pipeline_depth().saturating_sub(1)
            && *planned_windows < max_windows
            && !self.queue.is_drained()
        {
            let budget = self
                .config
                .period_io_limit()
                .saturating_sub(self.io_planned_in_period);
            if budget == 0 && !self.hazard_skip {
                self.pipeline_stats.period_stalls += 1;
                break;
            }
            let window = self.plan_window(max_cycles, !self.hazard_skip)?;
            if window.cycles.is_empty() {
                break;
            }
            *planned_windows += 1;
            self.pipeline_stats.planned_ahead_windows += 1;
            queued.push_back(window);
        }
        Ok(())
    }

    /// Opens a committed scatter batch (decrypt + verify), overlapping
    /// the open with lookahead planning when the pipeline is deeper than
    /// one window. The open is a pure function of the raw batch and the
    /// (cloned) sealer, and planning touches control state only, so the
    /// two are disjoint; without a worker pool the same two steps run on
    /// this thread in the same control-transition order.
    fn open_window(
        &mut self,
        opener: BatchOpener,
        raw: RawBatch,
        max_cycles: u64,
        max_windows: u64,
        planned_windows: &mut u64,
        queued: &mut VecDeque<PlannedWindow>,
    ) -> Result<BatchLoad, OramError> {
        if self.pipeline_depth() <= 1 {
            return opener.open(raw);
        }
        match self.storage.workers() {
            None => {
                let batch = opener.open(raw)?;
                self.top_up(max_cycles, max_windows, planned_windows, queued)?;
                Ok(batch)
            }
            Some(pool) => {
                let mut opened: Option<Result<BatchLoad, OramError>> = None;
                let mut planned: Result<(), OramError> = Ok(());
                {
                    let opened = &mut opened;
                    pool.scope(|scope| {
                        scope.spawn(move || *opened = Some(opener.open(raw)));
                        planned = self.top_up(max_cycles, max_windows, planned_windows, queued);
                    });
                }
                planned?;
                self.pipeline_stats.overlapped_commits += 1;
                opened
                    .ok_or_else(|| OramError::internal("overlapped batch open returned nothing"))?
            }
        }
    }

    /// Executes one planned window's memory half in plan order, consuming
    /// the pre-drawn randomness, then advances the simulated clock by the
    /// overlapped wall time and retires the window's hazard claims.
    fn execute_window(
        &mut self,
        window: &PlannedWindow,
        batch: BatchLoad,
    ) -> Result<u64, OramError> {
        let mut memory_total = SimDuration::ZERO;
        for (cycle, io_load) in window.cycles.iter().zip(batch.loads) {
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
        self.hazards.retire_window();

        // Wall clock: the paper overlaps the path accesses with the loads
        // ("the I/O loads and in-memory reads are conducted simultaneously");
        // a window overlaps its whole memory stream with its whole batch.
        let executed = window.cycles.len() as u64;
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
    /// At pipeline depths above one (with a worker pool available), the
    /// full shuffle's position-map rewrite is overlapped with installing
    /// the fresh in-memory tree: the position map owns its own clock and
    /// per-level trace, and the tree rebuild touches only the memory
    /// device, so the two rebuilds are disjoint and the overlap is
    /// invisible in every observable (see `docs/PIPELINE.md`).
    ///
    /// # Errors
    ///
    /// Storage/crypto errors propagate.
    pub fn shuffle_period(&mut self) -> Result<(), OramError> {
        // 1. Oblivious tree evict (§4.3.1).
        let evict_seed = self.period_seed(1);
        let outcome =
            oblivious_tree_evict(&mut self.memory, self.config.evict_shuffle, evict_seed)?;

        // 2. Group + partition shuffle (§4.3.2 / §5.3.1), then
        // 3. fresh in-memory tree (§4.1.2: "evicted back to the storage
        //    and will be reconstructed again") — overlapped with the
        //    shuffle's position-map rewrite when pipelining allows.
        let shuffle_seed = self.period_seed(2);
        let pool = if self.pipeline_depth() > 1 && self.config.partial_shuffle_ratio.is_none() {
            self.storage.workers()
        } else {
            None
        };
        let (report, rebuild) = match pool {
            Some(pool) => {
                let (report, image) = self
                    .storage
                    .rebuild_full_deferred(outcome.blocks, shuffle_seed)?;
                let mut posmap_done: Option<Result<(), OramError>> = None;
                let mut rebuilt: Option<Result<AccessReceipt, OramError>> = None;
                {
                    let posmap = self.storage.posmap_mut();
                    let memory = &mut self.memory;
                    let posmap_done = &mut posmap_done;
                    pool.scope(|scope| {
                        scope.spawn(move || *posmap_done = Some(posmap.rebuild_all(&image)));
                        rebuilt = Some(memory.rebuild_empty());
                    });
                }
                posmap_done.ok_or_else(|| {
                    OramError::internal("overlapped posmap rebuild went missing")
                })??;
                let rebuild = rebuilt
                    .ok_or_else(|| OramError::internal("overlapped tree rebuild went missing"))??;
                self.pipeline_stats.shuffle_overlaps += 1;
                (report, rebuild)
            }
            None => {
                let report = match self.config.partial_shuffle_ratio {
                    None => self.storage.rebuild_full(outcome.blocks, shuffle_seed)?,
                    Some(_) => self.storage.rebuild_partial(
                        outcome.blocks,
                        self.config.partitions_per_shuffle(),
                        shuffle_seed,
                    )?,
                };
                (report, self.memory.rebuild_empty()?)
            }
        };

        // Evict and tree rebuild are memory-side and serialize with the
        // pipelined storage pass.
        let wall = outcome.memory_time + report.wall_time + rebuild.memory;
        self.clock.advance(wall);
        self.stats.shuffle_wall_time += wall;
        self.stats.shuffles += 1;
        self.stats.spilled_blocks += report.spilled;
        self.io_used_in_period = 0;
        self.io_planned_in_period = 0;
        self.period_seq += 1;
        self.hazards.clear();
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
            MemoryHierarchy::dac2019(),
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
            MemoryHierarchy::dac2019(),
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
        let mut oram = build_batched(256, 16, 64); // period = 8 ≪ window
        let requests: Vec<Request> = (0..40u64).map(Request::read).collect();
        oram.run_batch(&requests).unwrap();
        let stats = oram.stats();
        assert!(stats.shuffles >= 2);
        // One load per cycle still holds under windows, and the period
        // limit was honored (each window clamps to the remaining budget).
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

    fn build_piped(capacity: u64, memory_slots: u64, io_batch: u64, depth: u64) -> HOram {
        let config = HOramConfig::new(capacity, 8, memory_slots)
            .with_seed(17)
            .with_io_batch(io_batch)
            .with_pipeline_depth(depth);
        HOram::new(
            config,
            MemoryHierarchy::dac2019(),
            MasterKey::from_bytes([9; 32]),
        )
        .unwrap()
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
    fn pipelined_burst_is_byte_identical_to_depth_one() {
        // The tentpole invariant at unit scale: responses, the storage
        // trace, every statistic, and the simulated clock agree between a
        // depth-1 (sequential) and a depth-4 (pipelined) instance on a
        // period-crossing workload. The full matrix lives in
        // tests/pipeline.rs; this pins the core engine alone.
        let requests = mixed_workload(41, 220, 256);

        let mut baseline = build_piped(256, 64, 8, 1);
        let base_responses = baseline.run_batch(&requests).unwrap();
        let storage_id = baseline.storage.device().id();

        let mut piped = build_piped(256, 64, 8, 4);
        let piped_responses = piped.run_batch(&requests).unwrap();

        assert_eq!(base_responses, piped_responses);
        assert_eq!(
            baseline.trace().address_sequence(storage_id),
            piped.trace().address_sequence(storage_id),
            "storage access patterns diverged"
        );
        assert_eq!(baseline.stats(), piped.stats());
        assert_eq!(baseline.clock().now(), piped.clock().now());
        assert!(baseline.stats().shuffles >= 2, "setup: must cross periods");
        assert!(
            piped.pipeline_stats().planned_ahead_windows > 0,
            "pipeline never engaged: {:?}",
            piped.pipeline_stats()
        );
    }

    #[test]
    fn pipeline_depth_one_plans_no_lookahead() {
        let requests = mixed_workload(41, 100, 256);
        let mut oram = build_piped(256, 64, 8, 1);
        oram.run_batch(&requests).unwrap();
        assert_eq!(oram.pipeline_stats().planned_ahead_windows, 0);
        assert_eq!(oram.pipeline_stats().overlapped_commits, 0);
    }

    #[test]
    fn lookahead_stalls_at_period_boundaries() {
        // Period = 8 loads, windows of 4, depth 4: lookahead regularly
        // meets an exhausted period budget and must stall rather than
        // plan across the epoch rebuild.
        let mut oram = build_piped(256, 16, 4, 4);
        let requests: Vec<Request> = (0..60u64).map(Request::read).collect();
        oram.run_batch(&requests).unwrap();
        assert!(oram.stats().shuffles >= 2);
        assert!(
            oram.pipeline_stats().period_stalls > 0,
            "no period stall recorded: {:?}",
            oram.pipeline_stats()
        );
    }

    #[test]
    fn memory_rng_stream_positions_are_pinned_across_depths() {
        // The pre-draw audit's regression test: the memory layer's RNG
        // stream position after a fixed workload must not depend on the
        // pipeline depth (plan order is depth-invariant, and every leaf
        // is drawn at plan time — one per hit, dummy, and arrival).
        let requests = mixed_workload(23, 150, 256);
        let mut positions = Vec::new();
        for depth in [1, 2, 4] {
            let mut oram = build_piped(256, 64, 8, depth);
            oram.run_batch(&requests).unwrap();
            positions.push(oram.memory.rng_stream_pos());
        }
        assert_eq!(positions[0], positions[1], "depth 2 moved the rng stream");
        assert_eq!(positions[0], positions[2], "depth 4 moved the rng stream");
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

    #[test]
    fn drain_of_collected_or_unknown_ticket_is_an_error() {
        let mut oram = build(256, 64);
        let ticket = oram.enqueue(Request::read(1u64)).unwrap();
        while !oram.queue().is_drained() {
            oram.run_cycle().unwrap();
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
                    let resident = oram.storage.posmap().in_memory_count();
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
