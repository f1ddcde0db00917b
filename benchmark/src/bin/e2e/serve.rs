//! `serve_zipf`: the in-process `OramService<ShardedOram>` driven in
//! rounds of `submit` ×64 per tenant → `pump` until idle → `take_result`.

use crate::layers::{engine_values, CycleTimes};
use crate::probes::Geometry;
use crate::{answer_is_right, request, Oracle, Pass, Workload};
use horam_benchmark::gen::{KeyDist, OpStream};
use horam_benchmark::trace::Tracer;
use horam_benchmark::Values;
use horam_core::{HOramConfig, HOramStats, Permission, ShardedConfig, ShardedOram, UserId};
use horam_server::{FifoPolicy, OramService, ServiceConfig, ServiceTicket};
use oram_crypto::keys::MasterKey;
use oram_storage::hierarchy::MemoryHierarchy;
use oram_storage::stats::DeviceStats;
use std::path::Path;
use std::time::Instant;

// The geometry `rpc_zipf` passes to `horam-serverd` as flags.
pub const CAPACITY: u64 = 16_384;
pub const PAYLOAD: usize = 64;
pub const SLOTS: u64 = 4_096;
pub const SHARDS: u64 = 4;
pub const TENANTS: u32 = 2;
/// The daemon's `--seed` / `--key` defaults, so both surfaces run the
/// same engine.
pub const ENGINE_SEED: u64 = 7;
pub const KEY_BYTE: u8 = 0xB2;
/// Requests a tenant has outstanding per round.
pub const BATCH: usize = 64;
const ZIPF_THETA: f64 = 0.99;
const WRITE_SHARE: f64 = 0.1;

/// Tenant `tenant`'s request stream over its own half of the blocks —
/// shared with `rpc_zipf`, which issues the identical operations.
pub fn tenant_stream(seed: u64, tenant: u32) -> OpStream {
    let blocks = CAPACITY / u64::from(TENANTS);
    OpStream::new(
        seed.wrapping_add(u64::from(tenant)),
        KeyDist::zipf(blocks, ZIPF_THETA),
        u64::from(tenant) * blocks,
        WRITE_SHARE,
    )
}

/// One shard's geometry: each of the four engines is probed alone.
pub fn geometry(rpc: bool) -> Geometry {
    let shard = sharded_config(&ServiceConfig::default()).shard_config(0);
    Geometry {
        capacity: shard.capacity,
        payload: PAYLOAD,
        slots: shard.memory_slots,
        partition_slots: shard.partition_slots(),
        storage_slots: shard.partition_count() * shard.partition_slots(),
        recursive_posmap: false,
        file_backed: false,
        rpc,
    }
}

fn sharded_config(service: &ServiceConfig) -> ShardedConfig {
    let base = service
        .engine_config(HOramConfig::new(CAPACITY, PAYLOAD, SLOTS))
        .with_seed(ENGINE_SEED);
    ShardedConfig::new(base, SHARDS)
}

pub struct ServeZipf;

struct Outstanding {
    ticket: ServiceTicket,
    block: u64,
    expected: u64,
    submitted: Option<Instant>,
}

impl Workload for ServeZipf {
    type System = OramService<ShardedOram>;

    fn setup(&self, _dir: &Path) -> Result<Self::System, String> {
        let config = ServiceConfig::default();
        let oram = ShardedOram::new(
            sharded_config(&config),
            MasterKey::from_bytes([KEY_BYTE; 32]),
            |_| MemoryHierarchy::dac2019(),
        )
        .map_err(|e| format!("build sharded engine: {e}"))?;
        let mut service = OramService::new(oram, Box::new(FifoPolicy), config);
        let per_tenant = CAPACITY / u64::from(TENANTS);
        for tenant in 0..TENANTS {
            let start = u64::from(tenant) * per_tenant;
            service.register_tenant(
                UserId(tenant),
                start..start + per_tenant,
                Permission::ReadWrite,
            );
        }
        Ok(service)
    }

    fn discard(&self, _service: Self::System) -> Result<(), String> {
        Ok(())
    }

    fn run(
        &self,
        mut service: Self::System,
        seed: u64,
        ops: u64,
        tracer: &mut Tracer,
    ) -> Result<Pass, String> {
        let mut tenants: Vec<(OpStream, Oracle)> = (0..TENANTS)
            .map(|t| (tenant_stream(seed, t), Oracle::default()))
            .collect();
        let round = BATCH as u64 * u64::from(TENANTS);
        let warm_rounds = (ops / 10).div_ceil(round);
        let timed_rounds = (ops - ops / 10).div_ceil(round);
        let timed_ops = timed_rounds * round;

        let mut attempted = 0;
        let mut failed = 0;
        let mut latencies_ns = Vec::with_capacity(timed_ops as usize);
        let (mut gen_ns, mut submit_ns, mut pumps) = (0u64, 0u64, 0u64);
        let mut cycle_times = CycleTimes::default();
        let mut before = None;
        let mut start = Instant::now();
        let mut cpu_start = 0.0;
        let mut off = Tracer::new(false);

        for round_id in 0..warm_rounds + timed_rounds {
            let timed = round_id >= warm_rounds;
            if round_id == warm_rounds {
                before = Some(Counters::read(&service));
                start = Instant::now();
                cpu_start = crate::own_cpu_seconds();
            }
            // Warm-up is never traced.
            let tracer = if timed { &mut *tracer } else { &mut off };
            let traced = tracer.enabled();

            let mut outstanding = Vec::with_capacity(round as usize);
            let span = tracer.begin("server.submit", round_id);
            for (tenant, (stream, oracle)) in tenants.iter_mut().enumerate() {
                for _ in 0..BATCH {
                    let t0 = traced.then(Instant::now);
                    let op = stream.next_op();
                    let request = request(op, PAYLOAD);
                    let t1 = traced.then(Instant::now);
                    let expected = oracle.apply(op);
                    let submitted = (timed || traced).then(Instant::now);
                    attempted += 1;
                    match service.submit(UserId(tenant as u32), request) {
                        Ok(ticket) => outstanding.push(Outstanding {
                            ticket,
                            block: op.block,
                            expected,
                            submitted: submitted.filter(|_| timed),
                        }),
                        Err(e) => {
                            eprintln!("REFUSED block {}: {e}", op.block);
                            failed += 1;
                        }
                    }
                    if let (Some(t0), Some(t1), Some(t2)) = (t0, t1, submitted) {
                        gen_ns += (t1 - t0).as_nanos() as u64;
                        submit_ns += t2.elapsed().as_nanos() as u64;
                    }
                }
            }
            tracer.end(span);

            while !outstanding.is_empty() {
                let before_pump = traced.then(|| (Instant::now(), service.stats().oram.shuffles));
                let span = tracer.begin("server.pump", round_id);
                let report = service.pump().map_err(|e| format!("pump: {e}"))?;
                if let Some((t, shuffles)) = before_pump {
                    let shuffled = service.stats().oram.shuffles > shuffles;
                    if shuffled {
                        tracer.tag(span, "shuffle");
                    }
                    cycle_times.record(t.elapsed(), report.cycles, shuffled);
                    pumps += 1;
                }
                tracer.end(span);

                let span = tracer.begin("server.take_result", round_id);
                let mut taken = Vec::new();
                outstanding.retain(|o| match service.take_result(o.ticket) {
                    None => true,
                    Some(result) => {
                        if let Some(submitted) = o.submitted {
                            latencies_ns.push(submitted.elapsed().as_nanos() as u64);
                        }
                        taken.push((o.block, o.expected, result));
                        false
                    }
                });
                tracer.end(span);
                if taken.is_empty()
                    && report.admitted == 0
                    && report.completed == 0
                    && report.failed == 0
                {
                    return Err("pump made no progress with requests outstanding".into());
                }
                for (block, expected, result) in taken {
                    if !answer_is_right(block, expected, PAYLOAD, result) {
                        failed += 1;
                    }
                }
            }
        }
        let elapsed = start.elapsed();
        let cpu_s = crate::own_cpu_seconds() - cpu_start;

        let before = before.expect("at least one timed round");
        let mut values = Counters::read(&service).per_request(&before, timed_ops);
        let per_req = |ns: u64| ns as f64 / timed_ops as f64;
        if tracer.enabled() {
            values.insert("harness.gen_ns_per_req", per_req(gen_ns));
            values.insert("server.submit_ns_per_req", per_req(submit_ns));
            values.insert(
                "server.take_ns_per_req",
                per_req(tracer.total_ns("server.take_result")),
            );
            values.insert(
                "server.pump_us_per_req",
                per_req(tracer.total_ns("server.pump")) / 1e3,
            );
            values.insert("server.reqs_per_pump", timed_ops as f64 / pumps as f64);
            cycle_times.values(elapsed, &mut values);
        }
        let stash_peak = service
            .oram()
            .shards()
            .iter()
            .map(|s| s.memory_stash_peak());
        values.insert("protocols.stash_peak", stash_peak.max().unwrap_or(0) as f64);

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
        geometry(false)
    }
}

/// The service's and its shards' public statistics at a phase boundary.
struct Counters {
    oram: HOramStats,
    deduped: u64,
    completed: u64,
    per_shard_requests: Vec<u64>,
    memory: DeviceStats,
    storage: DeviceStats,
    posmap_queries: u64,
    planned_ahead: u64,
    period_stalls: u64,
    retries: u64,
}

impl Counters {
    fn read(service: &OramService<ShardedOram>) -> Self {
        let shards = service.oram().shards();
        let sum = |f: &dyn Fn(&horam_core::HOram) -> u64| shards.iter().map(f).sum::<u64>();
        let merged = |f: &dyn Fn(&horam_core::HOram) -> DeviceStats| {
            shards
                .iter()
                .fold(DeviceStats::default(), |acc, s| acc.merged(&f(s)))
        };
        Self {
            oram: service.stats().oram,
            deduped: service.stats().deduped,
            completed: service.stats().completed,
            per_shard_requests: service.shard_stats().iter().map(|s| s.requests).collect(),
            memory: merged(&|s| s.memory_device_stats()),
            storage: merged(&|s| s.storage_device_stats()),
            posmap_queries: sum(&|s| s.posmap().stats().queries),
            planned_ahead: sum(&|s| s.pipeline_stats().planned_ahead_windows),
            period_stalls: sum(&|s| s.pipeline_stats().period_stalls),
            retries: service.oram().storage_retry_stats().retries,
        }
    }

    fn per_request(&self, before: &Counters, requests: u64) -> Values {
        let storage = self.storage.delta_since(&before.storage);
        let mut values = engine_values(
            &self.oram.delta_since(&before.oram),
            &self.memory.delta_since(&before.memory),
            &storage,
            requests,
        );
        values.insert(
            "server.dedup_ratio",
            (self.deduped - before.deduped) as f64 / (self.completed - before.completed) as f64,
        );
        let per_shard: Vec<f64> = self
            .per_shard_requests
            .iter()
            .zip(&before.per_shard_requests)
            .map(|(now, then)| (now - then) as f64)
            .collect();
        let mean = per_shard.iter().sum::<f64>() / per_shard.len() as f64;
        values.insert(
            "core.shard_imbalance",
            per_shard.iter().cloned().fold(0.0, f64::max) / mean,
        );
        values.insert(
            "core.posmap_queries_per_req",
            (self.posmap_queries - before.posmap_queries) as f64 / requests as f64,
        );
        values.insert(
            "core.pipeline_planned_ahead_windows",
            (self.planned_ahead - before.planned_ahead) as f64,
        );
        values.insert(
            "core.pipeline_period_stalls",
            (self.period_stalls - before.period_stalls) as f64,
        );
        values.insert("storage.retries", (self.retries - before.retries) as f64);
        values.insert(
            "storage.bytes_written_per_user_byte",
            storage.bytes_written as f64 / (requests * PAYLOAD as u64) as f64,
        );
        values
    }
}
