//! H-ORAM configuration.
//!
//! **The paper's parameters:** dataset size `N`, block payload, memory
//! tree budget `n`, the stage schedule for the grouping factor `c` (§4.2,
//! evaluated with `{c₁=1, c₂=3, c₃=5}` over fractions `{0.20, 0.13,
//! 0.67}` of the period, ĉ ≈ 3.94), the prefetch distance `d > c`, and
//! the partial-shuffle ratio of §5.3.1. The tree evict's oblivious
//! shuffle (§4.3.1) is always the bitonic network and has no knob.
//!
//! **Deployment settings** (not in the paper; each changes cost, never
//! answers or the bus trace): the I/O batch window, the block cache, the
//! position-map implementation, the worker-thread count, and the seed.
//! `docs/TUNING.md` says when to move each.

/// One stage of the scheduler's `c` schedule (§4.2): during the given
/// fraction of the access period, each cycle groups `c` in-memory requests
/// with one I/O load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StagePlan {
    /// Grouping factor for this stage.
    pub c: u32,
    /// Fraction of the period's I/O budget this stage covers (0, 1].
    pub fraction: f64,
}

/// Full-system configuration. Build with [`HOramConfig::new`] and adjust
/// fields through the `with_*` methods.
///
/// # Example
///
/// ```
/// use horam_core::config::HOramConfig;
///
/// let config = HOramConfig::new(1 << 16, 64, 1 << 12)
///     .with_seed(7)
///     .with_prefetch_distance(20);
/// assert_eq!(config.period_io_limit(), 1 << 11);
/// assert!((config.average_c() - 3.94).abs() < 0.01);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HOramConfig {
    /// Dataset size `N` in blocks.
    pub capacity: u64,
    /// Application payload bytes per block.
    pub payload_len: usize,
    /// Memory tree budget `n` in block slots.
    pub memory_slots: u64,
    /// The `c` schedule (paper default: 1/3/5 over 0.20/0.13/0.67).
    pub stages: Vec<StagePlan>,
    /// Prefetch window `d` in ROB entries; must exceed every stage `c`.
    pub prefetch_distance: usize,
    /// Partial-shuffle ratio `r` (§5.3.1): shuffle `⌈r·√N⌉` partitions per
    /// period. `None` (the default) shuffles every partition.
    pub partial_shuffle_ratio: Option<f64>,
    /// I/O loads issued per [`StorageLayer::load_batch`] scatter read when
    /// the scheduler drains in windowed mode: up to `io_batch` scheduling
    /// cycles are planned control-side, their loads submitted to the
    /// device as one queued batch, and their memory halves executed in
    /// plan order. `1` (the default) reproduces the per-block sequential
    /// path cycle for cycle; higher values coalesce per-op device overhead
    /// without changing the observable access pattern.
    ///
    /// [`StorageLayer::load_batch`]: crate::storage_layer::StorageLayer::load_batch
    pub io_batch: u64,
    /// Wall-clock worker threads for the parallel execution engine:
    /// per-shard cycle windows (`ShardedOram`) and the shuffle's
    /// data-parallel seal/open stream (`StorageLayer::rebuild_window`)
    /// run across this many OS threads. `1` is the fully serial path;
    /// the default is the host's available parallelism. On error-free
    /// runs, responses, storage traces, and statistics are
    /// **byte-identical for every value** — the thread count changes
    /// wall-clock time only (see `docs/ARCHITECTURE.md` §8 and
    /// `tests/parallel.rs`). Errors are fail-stop everywhere (the
    /// instance must be discarded); only on those discarded-instance
    /// paths may internal state differ by thread count, because a
    /// threaded round finishes its sibling shards before reporting where
    /// the serial round stops at the first failure.
    pub worker_threads: usize,
    /// Optional block cache installed in front of the storage device;
    /// `None` (the default) reproduces the paper's uncached setup.
    /// Caching changes simulated I/O time only: responses, protocol
    /// counters, and the device-visible trace shape are byte-identical
    /// cache-on vs. cache-off (see `oram_storage::cache` and
    /// `docs/ARCHITECTURE.md` §10).
    pub cache: Option<oram_storage::cache::CacheConfig>,
    /// Position-map implementation: flat in-RAM tables (the default) or
    /// the recursive O(log N)-trusted-memory variant (see
    /// [`crate::posmap`] and `docs/ARCHITECTURE.md` §12). The choice is
    /// invisible on the data ORAM's bus: responses, storage traces, and
    /// simulated time are byte-identical either way.
    pub posmap: PosmapMode,
    /// Master seed for all protocol randomness (fully replayable runs).
    pub seed: u64,
}

/// Which position-map implementation the engine builds.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum PosmapMode {
    /// Both per-block tables as plain vectors in trusted memory: O(N)
    /// trusted bytes, zero per-query overhead. The seed behaviour.
    #[default]
    Flat,
    /// Path ORAM-style recursion: position entries packed into pages and
    /// stored in progressively smaller ORAMs, O(log N) steady-state
    /// trusted bytes.
    Recursive(RecursivePosmapConfig),
}

/// Sizing knobs for the recursive position map.
#[derive(Debug, Clone, PartialEq)]
pub struct RecursivePosmapConfig {
    /// Position entries packed per page. `None` (the default) means 32.
    /// Must be ≥ 2 when given.
    pub fanout: Option<u64>,
    /// Recursion stops once a level has at most this many pages; their
    /// leaf labels form the flat trusted root. Default 64.
    pub root_threshold: u64,
    /// Pinned page-cache budget per level, in pages (≥ 1). Trusted memory
    /// per level is `cache_pages + stash` pages. Default 8.
    pub cache_pages: usize,
    /// Directory for file-backed level devices. `None` keeps levels in
    /// volatile stores (snapshots then embed the level blocks); `Some`
    /// persists them like the data device, shrinking snapshots to the
    /// trusted state. Sharded configs append `shard-{i}/` per shard.
    pub backing_dir: Option<String>,
}

impl Default for RecursivePosmapConfig {
    fn default() -> Self {
        Self {
            fanout: None,
            root_threshold: 64,
            cache_pages: 8,
            backing_dir: None,
        }
    }
}

impl RecursivePosmapConfig {
    /// The fanout actually used: an explicit [`fanout`](Self::fanout),
    /// otherwise 32.
    pub fn effective_fanout(&self) -> u64 {
        self.fanout.unwrap_or(32).max(2)
    }

    /// Validates the knobs (called from [`HOramConfig::validate`]).
    ///
    /// # Panics
    ///
    /// Panics on a fanout below 2, a zero cache budget, or a zero root
    /// threshold.
    pub fn validate(&self) {
        if let Some(fanout) = self.fanout {
            assert!(fanout >= 2, "posmap fanout must be at least 2");
        }
        assert!(
            self.root_threshold >= 1,
            "posmap root threshold must be at least 1"
        );
        assert!(
            self.cache_pages >= 1,
            "posmap cache budget must be at least 1 page"
        );
    }
}

impl HOramConfig {
    /// A configuration with the paper's defaults for everything but the
    /// three sizing parameters.
    pub fn new(capacity: u64, payload_len: usize, memory_slots: u64) -> Self {
        Self {
            capacity,
            payload_len,
            memory_slots,
            stages: Self::paper_stages(),
            prefetch_distance: 15, // 3 × c_max, like the paper's d=9 for c=3
            partial_shuffle_ratio: None,
            io_batch: 1,
            worker_threads: default_worker_threads(),
            cache: None,
            posmap: PosmapMode::Flat,
            seed: DEFAULT_SEED,
        }
    }

    /// The paper's evaluation schedule: `{c=1: 20 %, c=3: 13 %, c=5: 67 %}`.
    pub fn paper_stages() -> Vec<StagePlan> {
        vec![
            StagePlan {
                c: 1,
                fraction: 0.20,
            },
            StagePlan {
                c: 3,
                fraction: 0.13,
            },
            StagePlan {
                c: 5,
                fraction: 0.67,
            },
        ]
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the stage schedule.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is empty, any `c` is zero, or fractions do not
    /// sum to ≈1.
    pub fn with_stages(mut self, stages: Vec<StagePlan>) -> Self {
        assert!(!stages.is_empty(), "at least one stage required");
        assert!(stages.iter().all(|s| s.c >= 1), "stage c must be ≥ 1");
        let total: f64 = stages.iter().map(|s| s.fraction).sum();
        assert!(
            (total - 1.0).abs() < 1e-6,
            "stage fractions must sum to 1, got {total}"
        );
        self.stages = stages;
        self
    }

    /// Uses a single fixed `c` for the whole period.
    pub fn with_fixed_c(self, c: u32) -> Self {
        self.with_stages(vec![StagePlan { c, fraction: 1.0 }])
    }

    /// Replaces the prefetch distance `d`.
    pub fn with_prefetch_distance(mut self, d: usize) -> Self {
        self.prefetch_distance = d;
        self
    }

    /// Enables partial shuffling at ratio `r` (§5.3.1).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < r ≤ 1`.
    pub fn with_partial_shuffle(mut self, r: f64) -> Self {
        assert!(
            r > 0.0 && r <= 1.0,
            "partial shuffle ratio must be in (0, 1]"
        );
        self.partial_shuffle_ratio = Some(r);
        self
    }

    /// Sets the I/O batch window (see [`io_batch`](Self::io_batch)).
    ///
    /// # Panics
    ///
    /// Panics if `io_batch` is zero.
    pub fn with_io_batch(mut self, io_batch: u64) -> Self {
        assert!(io_batch >= 1, "io_batch must be at least 1");
        self.io_batch = io_batch;
        self
    }

    /// Sets the wall-clock worker-thread count (see
    /// [`worker_threads`](Self::worker_threads); `1` = serial).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn with_worker_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "worker_threads must be at least 1");
        self.worker_threads = threads;
        self
    }

    /// Installs a block cache in front of the storage device (see
    /// [`cache`](Self::cache)).
    pub fn with_cache(mut self, cache: oram_storage::cache::CacheConfig) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Switches to the recursive position map with `cache_pages` pinned
    /// pages per level and the default fanout and root threshold. For
    /// full control (fanout, root threshold, file backing) use
    /// [`with_posmap`](Self::with_posmap).
    ///
    /// # Panics
    ///
    /// Panics if `cache_pages` is zero.
    pub fn with_recursive_posmap(mut self, cache_pages: usize) -> Self {
        let rcfg = RecursivePosmapConfig {
            cache_pages,
            ..RecursivePosmapConfig::default()
        };
        rcfg.validate();
        self.posmap = PosmapMode::Recursive(rcfg);
        self
    }

    /// Replaces the position-map mode wholesale (see
    /// [`posmap`](Self::posmap)).
    pub fn with_posmap(mut self, posmap: PosmapMode) -> Self {
        self.posmap = posmap;
        self
    }

    /// Validates cross-field constraints. Called by `HOram::new`.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent sizing (zero capacity, memory budget smaller
    /// than one bucket, `d` not exceeding the largest `c`).
    pub fn validate(&self) {
        assert!(self.capacity > 0, "capacity must be positive");
        assert!(self.payload_len > 0, "payload length must be positive");
        assert!(
            self.memory_slots >= MEMORY_BUCKET_SLOTS,
            "memory budget smaller than one bucket"
        );
        let c_max = self
            .stages
            .iter()
            .map(|s| s.c)
            .max()
            .expect("non-empty stages");
        assert!(
            self.prefetch_distance > c_max as usize,
            "prefetch distance d={} must exceed the largest stage c={c_max}",
            self.prefetch_distance
        );
        if let Some(cache) = &self.cache {
            cache.validate();
        }
        if let PosmapMode::Recursive(rcfg) = &self.posmap {
            rcfg.validate();
        }
        assert!(self.io_batch >= 1, "io_batch must be at least 1");
        assert!(
            self.worker_threads >= 1,
            "worker_threads must be at least 1"
        );
        let total: f64 = self.stages.iter().map(|s| s.fraction).sum();
        assert!((total - 1.0).abs() < 1e-6, "stage fractions must sum to 1");
    }

    /// I/O loads allowed per access period: `n/2` (paper §4.1: the tree
    /// supports up to n/2 I/O fetches before the next shuffle).
    pub fn period_io_limit(&self) -> u64 {
        (self.memory_slots / 2).max(1)
    }

    /// The schedule-weighted average ĉ (paper Eq. 5-1).
    pub fn average_c(&self) -> f64 {
        self.stages.iter().map(|s| s.c as f64 * s.fraction).sum()
    }

    /// The stage in effect after `io_used` of the period's I/O budget.
    pub fn stage_c(&self, io_used: u64) -> u32 {
        let limit = self.period_io_limit() as f64;
        let progress = io_used as f64 / limit;
        let mut cumulative = 0.0;
        for stage in &self.stages {
            cumulative += stage.fraction;
            if progress < cumulative {
                return stage.c;
            }
        }
        self.stages.last().expect("non-empty stages").c
    }

    /// Number of storage partitions: `⌈√N⌉` (paper §4.3.2).
    pub fn partition_count(&self) -> u64 {
        (self.capacity as f64).sqrt().ceil() as u64
    }

    /// Slots per storage partition including headroom.
    pub fn partition_slots(&self) -> u64 {
        let balanced = self.capacity.div_ceil(self.partition_count());
        ((balanced as f64 * PARTITION_HEADROOM).ceil() as u64).max(balanced + 2)
    }

    /// Partitions reshuffled per period under the configured ratio.
    pub fn partitions_per_shuffle(&self) -> u64 {
        match self.partial_shuffle_ratio {
            None => self.partition_count(),
            Some(r) => ((self.partition_count() as f64 * r).ceil() as u64).max(1),
        }
    }
}

/// Bucket size of the memory tree (`PathOram::for_slot_budget` fixes
/// `Z = 4`, the paper's value); the memory budget must hold one bucket.
pub const MEMORY_BUCKET_SLOTS: u64 = 4;

/// Extra slot headroom per storage partition. The tree evict randomizes
/// which partition each hot block lands in, so partition occupancy
/// drifts; headroom absorbs it (excess flows to later partitions via
/// capacity-aware piece sizing). Per-period flux is ~√(2·hot/√N) blocks
/// per partition, well under 10 % for every evaluated configuration, and
/// the shuffle streams every physical slot, so headroom directly scales
/// shuffle time.
const PARTITION_HEADROOM: f64 = 1.10;

/// Default protocol seed (arbitrary; fixed for replayability).
const DEFAULT_SEED: u64 = 0x04a3_2019;

/// Default worker-thread count: everything the host offers. Results are
/// byte-identical at any count, so the default trades nothing but CPUs.
fn default_worker_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let config = HOramConfig::new(1 << 20, 1024, 1 << 17);
        config.validate();
        assert!((config.average_c() - 3.94).abs() < 1e-9);
        assert_eq!(config.period_io_limit(), 65_536);
        assert_eq!(config.partition_count(), 1024);
        assert_eq!(config.partitions_per_shuffle(), 1024);
    }

    #[test]
    fn stage_schedule_progression() {
        let config = HOramConfig::new(1 << 20, 1024, 1 << 17);
        let limit = config.period_io_limit();
        assert_eq!(config.stage_c(0), 1);
        assert_eq!(config.stage_c(limit / 10), 1); // 10 % < 20 %
        assert_eq!(config.stage_c(limit / 4), 3); // 25 % in (20, 33]
        assert_eq!(config.stage_c(limit / 2), 5); // 50 % > 33 %
        assert_eq!(config.stage_c(limit), 5); // beyond the end: last stage
    }

    #[test]
    fn fixed_c_schedule() {
        let config = HOramConfig::new(1024, 64, 256).with_fixed_c(4);
        assert_eq!(config.average_c(), 4.0);
        assert_eq!(config.stage_c(0), 4);
        assert_eq!(config.stage_c(100), 4);
    }

    #[test]
    fn partial_shuffle_partitions() {
        let config = HOramConfig::new(1 << 20, 1024, 1 << 17).with_partial_shuffle(0.25);
        assert_eq!(config.partitions_per_shuffle(), 256);
    }

    #[test]
    fn partition_headroom_slots() {
        let config = HOramConfig::new(1 << 20, 1024, 1 << 17);
        // balanced = 1024; headroom 1.10 → 1127 slots.
        assert_eq!(config.partition_slots(), 1127);
    }

    #[test]
    fn io_pipeline_knobs() {
        let config = HOramConfig::new(1024, 64, 256).with_io_batch(32);
        config.validate();
        assert_eq!(config.io_batch, 32);
        let defaults = HOramConfig::new(1024, 64, 256);
        assert_eq!(
            defaults.io_batch, 1,
            "default must reproduce the sequential path"
        );
    }

    #[test]
    #[should_panic(expected = "io_batch must be at least 1")]
    fn zero_io_batch_rejected() {
        let _ = HOramConfig::new(1024, 64, 256).with_io_batch(0);
    }

    #[test]
    fn worker_thread_knob() {
        let defaults = HOramConfig::new(1024, 64, 256);
        assert!(defaults.worker_threads >= 1, "auto default is at least 1");
        let serial = defaults.clone().with_worker_threads(1);
        serial.validate();
        assert_eq!(serial.worker_threads, 1);
        assert_eq!(
            HOramConfig::new(1024, 64, 256)
                .with_worker_threads(4)
                .worker_threads,
            4
        );
    }

    #[test]
    #[should_panic(expected = "worker_threads must be at least 1")]
    fn zero_worker_threads_rejected() {
        let _ = HOramConfig::new(1024, 64, 256).with_worker_threads(0);
    }

    #[test]
    #[should_panic(expected = "must exceed the largest stage c")]
    fn validate_checks_prefetch_distance() {
        HOramConfig::new(1024, 64, 256)
            .with_prefetch_distance(3)
            .validate();
    }

    #[test]
    #[should_panic(expected = "fractions must sum to 1")]
    fn stage_fractions_must_sum_to_one() {
        HOramConfig::new(1024, 64, 256).with_stages(vec![StagePlan {
            c: 1,
            fraction: 0.5,
        }]);
    }

    #[test]
    #[should_panic(expected = "ratio must be in")]
    fn partial_ratio_validated() {
        HOramConfig::new(1024, 64, 256).with_partial_shuffle(0.0);
    }

    #[test]
    fn posmap_defaults_to_flat() {
        let config = HOramConfig::new(1024, 64, 256);
        assert_eq!(config.posmap, PosmapMode::Flat);
        config.validate();
    }

    #[test]
    fn recursive_posmap_builder() {
        let config = HOramConfig::new(1 << 16, 64, 1 << 10).with_recursive_posmap(4);
        config.validate();
        let PosmapMode::Recursive(rcfg) = &config.posmap else {
            panic!("expected recursive mode");
        };
        assert_eq!(rcfg.cache_pages, 4);
        assert_eq!(rcfg.effective_fanout(), 32);
    }

    #[test]
    #[should_panic(expected = "cache budget must be at least 1")]
    fn zero_posmap_cache_rejected() {
        let _ = HOramConfig::new(1024, 64, 256).with_recursive_posmap(0);
    }
}
