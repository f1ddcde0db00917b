//! `hotspot_read` and `cold_durable`: the raw `HOram` engine driven
//! through `enqueue` / `run_cycle_window` / `take_response` with a
//! sliding window of outstanding requests.

use crate::layers::{engine_values, CycleTimes};
use crate::probes::Geometry;
use crate::{answer_is_right, request, Oracle, Pass, Workload};
use horam_benchmark::gen::{KeyDist, OpStream, SplitMix64};
use horam_benchmark::stats::median;
use horam_benchmark::trace::Tracer;
use horam_benchmark::{remove_dir, Values};
use horam_core::posmap::PosmapStats;
use horam_core::{
    HOram, HOramConfig, HOramStats, PipelineStats, PosmapMode, RecursivePosmapConfig,
};
use oram_crypto::keys::MasterKey;
use oram_protocols::types::{BlockContent, BlockId, Request};
use oram_storage::calibration::MachineConfig;
use oram_storage::file::FileStoreConfig;
use oram_storage::hierarchy::MemoryHierarchy;
use oram_storage::stats::DeviceStats;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Engine seed: fixed, so that only the request stream varies with
/// `--seed`.
const ENGINE_SEED: u64 = 2019;
/// Scheduling cycles per `run_cycle_window` call.
const CYCLE_WINDOW: u64 = 16;
/// Writes issued after the last checkpoint and lost by the kill.
const POST_CHECKPOINT_WRITES: u64 = 200;
/// Blocks read back after the restore.
const RESTORE_SAMPLES: u64 = 512;

pub struct Spec {
    capacity: u64,
    payload: usize,
    slots: u64,
    /// Requests kept outstanding (closed loop).
    window: usize,
    write_share: f64,
    /// `Some(n)`: file-backed device and recursive position map with
    /// file-backed levels, uniform keys, `snapshot()` every `n`
    /// operations, and a kill / restore / read-back at the end. `None`:
    /// volatile device, flat position map, hotspot keys.
    checkpoint_every: Option<u64>,
}

pub const HOTSPOT_READ: Spec = Spec {
    capacity: 16_384,
    payload: 1024,
    slots: 2_048,
    window: 1024,
    write_share: 0.0,
    checkpoint_every: None,
};

pub const COLD_DURABLE: Spec = Spec {
    capacity: 32_768,
    payload: 1024,
    slots: 2_048,
    window: 500,
    write_share: 0.5,
    checkpoint_every: Some(1_000),
};

impl Spec {
    fn durable(&self) -> bool {
        self.checkpoint_every.is_some()
    }

    fn stream(&self, seed: u64) -> OpStream {
        let dist = if self.durable() {
            KeyDist::Uniform {
                blocks: self.capacity,
            }
        } else {
            // The paper's calibration: the hot region is an eighth of the
            // memory tree.
            KeyDist::Hotspot {
                blocks: self.capacity,
                hot_blocks: self.slots / 8,
                hot_share: 0.8,
            }
        };
        OpStream::new(seed, dist, 0, self.write_share)
    }

    fn config(&self, dir: &Path) -> HOramConfig {
        let config =
            HOramConfig::new(self.capacity, self.payload, self.slots).with_seed(ENGINE_SEED);
        if !self.durable() {
            return config;
        }
        config.with_posmap(PosmapMode::Recursive(RecursivePosmapConfig {
            backing_dir: Some(dir.join("posmap").to_string_lossy().into_owned()),
            ..RecursivePosmapConfig::default()
        }))
    }

    /// Opens (never truncates) the machine: volatile, or with the storage
    /// device in `dir/oram.horam`.
    fn hierarchy(&self, dir: &Path) -> Result<MemoryHierarchy, String> {
        if !self.durable() {
            return Ok(MemoryHierarchy::dac2019());
        }
        let config = self.config(dir);
        let slots = config.partition_count() * config.partition_slots();
        let body = BlockContent::encoded_len(self.payload);
        MemoryHierarchy::with_file_storage(
            MachineConfig::dac2019(),
            dir.join("oram.horam"),
            FileStoreConfig::new(slots, body).with_write_back_slots(64),
        )
        .map_err(|e| format!("open device file: {e}"))
    }

    /// Reads sampled blocks from the restored engine and counts those
    /// that do not hold their checkpoint-time value: un-checkpointed
    /// writes must be gone, checkpointed ones present.
    fn read_back(
        &self,
        restored: &mut HOram,
        at_checkpoint: &Oracle,
        seed: u64,
    ) -> Result<u64, String> {
        let mut rng = SplitMix64::new(seed ^ 0x7265_6164);
        let mut failed = 0;
        for _ in 0..RESTORE_SAMPLES {
            let block = rng.below(self.capacity);
            let ticket = restored
                .enqueue(Request::read(BlockId(block)))
                .map_err(|e| format!("post-restore enqueue: {e}"))?;
            let data = loop {
                restored
                    .run_cycle_window(CYCLE_WINDOW)
                    .map_err(|e| format!("post-restore cycle: {e}"))?;
                if let Some(data) = restored.take_response(ticket) {
                    break data;
                }
            };
            if !answer_is_right(
                block,
                at_checkpoint.value(block),
                self.payload,
                Ok::<_, String>(data),
            ) {
                eprintln!("(read back after the restore)");
                failed += 1;
            }
        }
        Ok(failed)
    }
}

fn master() -> MasterKey {
    MasterKey::from_bytes([0x42; 32])
}

pub struct Engine {
    oram: HOram,
    dir: PathBuf,
}

struct Outstanding {
    ticket: u64,
    block: u64,
    expected: u64,
    submitted: Option<Instant>,
}

/// The request loop's state across its warm-up, timed and
/// post-checkpoint phases.
struct Driver<'a> {
    spec: &'a Spec,
    oram: HOram,
    stream: OpStream,
    oracle: Oracle,
    outstanding: Vec<Outstanding>,
    windows: u64,
    attempted: u64,
    failed: u64,
    latencies_ns: Vec<u64>,
    // Filled only while tracing.
    gen_ns: u64,
    enqueue_ns: u64,
    cycle_times: CycleTimes,
}

impl Driver<'_> {
    /// Issues `ops` operations with the spec's window outstanding and
    /// returns once every response is taken and checked. Latencies are
    /// recorded only when `timed`.
    fn run(&mut self, ops: u64, timed: bool, tracer: &mut Tracer) -> Result<(), String> {
        let traced = tracer.enabled();
        let len = self.spec.payload;
        let mut issued = 0;
        while issued < ops || !self.outstanding.is_empty() {
            self.windows += 1;
            let window_id = self.windows;

            let span = tracer.begin("core.enqueue", window_id);
            while issued < ops && self.outstanding.len() < self.spec.window {
                let t0 = traced.then(Instant::now);
                let op = self.stream.next_op();
                let request = request(op, len);
                let t1 = traced.then(Instant::now);
                let expected = self.oracle.apply(op);
                let submitted = (timed || traced).then(Instant::now);
                let ticket = self
                    .oram
                    .enqueue(request)
                    .map_err(|e| format!("enqueue: {e}"))?;
                if let (Some(t0), Some(t1), Some(t2)) = (t0, t1, submitted) {
                    self.gen_ns += (t1 - t0).as_nanos() as u64;
                    self.enqueue_ns += t2.elapsed().as_nanos() as u64;
                }
                self.outstanding.push(Outstanding {
                    ticket,
                    block: op.block,
                    expected,
                    submitted: submitted.filter(|_| timed),
                });
                issued += 1;
            }
            tracer.end(span);

            let before = traced.then(|| (Instant::now(), self.oram.stats().shuffles));
            let span = tracer.begin("core.run_cycle_window", window_id);
            let cycles = self
                .oram
                .run_cycle_window(CYCLE_WINDOW)
                .map_err(|e| format!("run_cycle_window: {e}"))?;
            if let Some((start, shuffles)) = before {
                let shuffled = self.oram.stats().shuffles > shuffles;
                if shuffled {
                    tracer.tag(span, "shuffle");
                }
                self.cycle_times.record(start.elapsed(), cycles, shuffled);
            }
            tracer.end(span);

            // Responses complete out of order (hits are hoisted), so every
            // outstanding ticket is polled; checking happens outside the
            // span.
            let span = tracer.begin("core.take_response", window_id);
            let mut taken = Vec::new();
            let (oram, latencies) = (&mut self.oram, &mut self.latencies_ns);
            self.outstanding
                .retain(|o| match oram.take_response(o.ticket) {
                    None => true,
                    Some(data) => {
                        if let Some(submitted) = o.submitted {
                            latencies.push(submitted.elapsed().as_nanos() as u64);
                        }
                        taken.push((o.block, o.expected, data));
                        false
                    }
                });
            tracer.end(span);
            for (block, expected, data) in taken {
                self.attempted += 1;
                if !answer_is_right(block, expected, len, Ok::<_, String>(data)) {
                    self.failed += 1;
                }
            }
        }
        Ok(())
    }
}

impl Workload for Spec {
    type System = Engine;

    /// Builds the engine; for a durable spec this creates the device
    /// file and the position-map levels under `dir`.
    fn setup(&self, dir: &Path) -> Result<Engine, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {dir:?}: {e}"))?;
        let oram = HOram::new(self.config(dir), self.hierarchy(dir)?, master())
            .map_err(|e| format!("build engine: {e}"))?;
        Ok(Engine {
            oram,
            dir: dir.to_path_buf(),
        })
    }

    fn discard(&self, engine: Engine) -> Result<(), String> {
        drop(engine.oram);
        remove_dir(&engine.dir);
        Ok(())
    }

    fn run(
        &self,
        engine: Engine,
        seed: u64,
        ops: u64,
        tracer: &mut Tracer,
    ) -> Result<Pass, String> {
        let Engine { oram, dir } = engine;
        let mut driver = Driver {
            spec: self,
            oram,
            stream: self.stream(seed),
            oracle: Oracle::default(),
            outstanding: Vec::with_capacity(self.window),
            windows: 0,
            attempted: 0,
            failed: 0,
            latencies_ns: Vec::with_capacity(ops as usize),
            gen_ns: 0,
            enqueue_ns: 0,
            cycle_times: CycleTimes::default(),
        };
        let warm = ops / 10;
        let timed_ops = ops - warm;
        // Warm-up is never traced: spans and counters cover the timed phase.
        driver.run(warm, false, &mut Tracer::new(false))?;

        let before = Counters::read(&driver.oram);
        let mut checkpoint_ms = Vec::new();
        let mut snapshot = Vec::new();
        let cpu_start = crate::own_cpu_seconds();
        let start = Instant::now();
        match self.checkpoint_every {
            None => driver.run(timed_ops, true, tracer)?,
            Some(every) => {
                let mut left = timed_ops;
                while left > 0 {
                    let chunk = left.min(every);
                    driver.run(chunk, true, tracer)?;
                    left -= chunk;
                    let span = tracer.begin("core.snapshot", driver.windows);
                    let t = Instant::now();
                    snapshot = driver
                        .oram
                        .snapshot()
                        .map_err(|e| format!("snapshot: {e}"))?;
                    checkpoint_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    tracer.end(span);
                }
            }
        }
        let elapsed = start.elapsed();
        let cpu_s = crate::own_cpu_seconds() - cpu_start;

        let mut values = Counters::read(&driver.oram).per_request(&before, self, timed_ops);
        let per_req = |ns: u64| ns as f64 / timed_ops as f64;
        if tracer.enabled() {
            values.insert("harness.gen_ns_per_req", per_req(driver.gen_ns));
            values.insert("core.enqueue_ns_per_req", per_req(driver.enqueue_ns));
            values.insert(
                "core.take_ns_per_req",
                per_req(tracer.total_ns("core.take_response")),
            );
            driver.cycle_times.values(elapsed, &mut values);
        }
        let user_bytes = self.capacity * self.payload as u64;
        values.insert(
            "storage_bytes_per_user_byte",
            driver.oram.storage_bytes() as f64 / user_bytes as f64,
        );
        values.insert("trusted_bytes", driver.oram.posmap().memory_bytes() as f64);
        values.insert(
            "protocols.stash_peak",
            driver.oram.memory_stash_peak() as f64,
        );

        // The oracle as of the last checkpoint, for the restore check.
        let mut at_checkpoint = None;
        if self.durable() {
            values.insert("checkpoint_ms", median(&checkpoint_ms));
            values.insert("core.snapshot_bytes", snapshot.len() as f64);
            let file_bytes = std::fs::metadata(dir.join("oram.horam"))
                .map_err(|e| format!("stat device file: {e}"))?
                .len();
            values.insert("storage.file_bytes", file_bytes as f64);

            // Writes past the last checkpoint, which the kill must lose.
            at_checkpoint = Some(driver.oracle.clone());
            let blocks = self.capacity;
            driver.stream = OpStream::new(seed ^ 0x6b69_6c6c, KeyDist::Uniform { blocks }, 0, 1.0);
            driver.run(POST_CHECKPOINT_WRITES, false, &mut Tracer::new(false))?;
        }
        let Driver {
            oram,
            mut attempted,
            mut failed,
            latencies_ns,
            windows,
            ..
        } = driver;
        // For a durable spec this is the kill: no sync, no checkpoint; the
        // write-back buffer and the undo journal are mid-flight.
        drop(oram);
        if let Some(at_checkpoint) = &at_checkpoint {
            let span = tracer.begin("core.restore", windows);
            let t = Instant::now();
            let mut restored = HOram::restore(self.hierarchy(&dir)?, master(), &snapshot)
                .map_err(|e| format!("restore: {e}"))?;
            values.insert("core.restore_ms", t.elapsed().as_secs_f64() * 1e3);
            tracer.end(span);
            attempted += RESTORE_SAMPLES;
            failed += self.read_back(&mut restored, at_checkpoint, seed)?;
        }
        remove_dir(&dir);

        Ok(Pass {
            attempted,
            failed,
            timed_ops,
            elapsed,
            cpu_s,
            latencies_ns,
            values,
            engine_rss_mib: None,
        })
    }

    fn probe_geometry(&self) -> Geometry {
        let config = self.config(Path::new(""));
        Geometry {
            capacity: self.capacity,
            payload: self.payload,
            slots: self.slots,
            partition_slots: config.partition_slots(),
            storage_slots: config.partition_count() * config.partition_slots(),
            recursive_posmap: self.durable(),
            file_backed: self.durable(),
            rpc: false,
        }
    }
}

/// The public statistics read at the timed phase's boundaries.
struct Counters {
    stats: HOramStats,
    memory: DeviceStats,
    storage: DeviceStats,
    posmap: PosmapStats,
    pipeline: PipelineStats,
    retries: u64,
}

impl Counters {
    fn read(oram: &HOram) -> Self {
        Self {
            stats: oram.stats(),
            memory: oram.memory_device_stats(),
            storage: oram.storage_device_stats(),
            posmap: oram.posmap().stats(),
            pipeline: oram.pipeline_stats(),
            retries: oram.storage_retry_stats().retries,
        }
    }

    fn per_request(&self, before: &Counters, spec: &Spec, requests: u64) -> Values {
        let per_req = |n: u64| n as f64 / requests as f64;
        let storage = self.storage.delta_since(&before.storage);
        let mut values = engine_values(
            &self.stats.delta_since(&before.stats),
            &self.memory.delta_since(&before.memory),
            &storage,
            requests,
        );
        let queries = self.posmap.queries - before.posmap.queries;
        values.insert("core.posmap_queries_per_req", per_req(queries));
        // Share of level lookups the pinned page caches absorbed.
        let checkouts = self.posmap.checkouts - before.posmap.checkouts;
        let cache_hits = self.posmap.cache_hits - before.posmap.cache_hits;
        values.insert("core.posmap_checkouts_per_req", per_req(checkouts));
        if cache_hits + checkouts > 0 {
            values.insert(
                "core.posmap_cache_hit_ratio",
                cache_hits as f64 / (cache_hits + checkouts) as f64,
            );
        }
        values.insert(
            "core.pipeline_planned_ahead_windows",
            (self.pipeline.planned_ahead_windows - before.pipeline.planned_ahead_windows) as f64,
        );
        values.insert(
            "core.pipeline_period_stalls",
            (self.pipeline.period_stalls - before.pipeline.period_stalls) as f64,
        );
        values.insert("storage.retries", (self.retries - before.retries) as f64);
        values.insert(
            "storage.bytes_written_per_user_byte",
            storage.bytes_written as f64 / (requests * spec.payload as u64) as f64,
        );
        values
    }
}
