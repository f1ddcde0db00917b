//! The CI bench gates as data: [`GATES`] holds one row per gate — its
//! name, its trend keys and its experiment — and [`run_gate`] prints any
//! row's report as tables, prints its verdict with the failed conditions,
//! and builds its [`GateOutcome`]. The paper's rows
//! ([`crate::paper::PAPER`]) are the same [`Gate`] type with no pass
//! conditions and no trend keys. Everything runs on the simulated clock
//! except the `parallel` and `rpc` bars and the `*_ms` fields. `suite`
//! merges the reports ([`merge_outcomes`]) and diffs the trend metrics
//! against `BENCH_baseline.json` ([`baseline_regressions`]).

use crate::json::{self, json_struct, ToJson, Value};
use horam::analysis::table::Table;
use horam::core::shard::{ShardedConfig, ShardedOram};
use horam::core::{Permission, UserId};
use horam::prelude::*;
use horam::protocols::types::BlockContent;
use horam::storage::calibration::MachineConfig;
use horam::storage::clock::SimTime;
use horam::storage::file::{scratch_dir, FileStoreConfig};
use horam::storage::trace::TraceEvent;
use horam::workload::{SequentialWorkload, TenantSchedule, WorkloadGenerator, ZipfWorkload};
use horam_server::{AdmissionPolicy, FairSharePolicy, FifoPolicy, OramService, ServiceConfig};
use std::path::Path;
use std::time::Instant;

/// One CI gate, or one paper row.
pub struct Gate {
    /// What `suite <name>` selects, and the merged report's `gate` field.
    pub name: &'static str,
    /// Report fields the trend check tracks, as `<name>.<key>`. A key
    /// `rows[].key` tracks `key` of every element of the sequence `rows`,
    /// as `<name>.<label>.<key>`; the label is the element's first field.
    pub trend: &'static [&'static str],
    /// Runs the experiment; `true` scales it down (`--quick`).
    pub run: fn(bool) -> Report,
}

/// Every CI gate, in the order the suite runs them. `parallel` and `rpc`
/// measure host wall-clock and `persistence` gates on equality, so those
/// three track no trend key.
pub const GATES: &[Gate] = &[
    gate(
        "serving",
        &["vs_sequential", "vs_per_request"],
        serving::run,
    ),
    gate(
        "io_pipeline",
        &["workloads[].io_speedup", "workloads[].wall_speedup"],
        io_pipeline::run,
    ),
    gate("sharding", &["io_speedup", "wall_speedup"], sharding::run),
    gate("parallel", &[], parallel::run),
    gate("persistence", &[], persistence::run),
    gate("cache", &["io_speedup"], cache::run),
    gate("chaos", &["throughput_ratio"], chaos::run),
    gate(
        "capacity",
        &["throughput_ratio", "trusted_shrink", "snapshot_shrink"],
        capacity::run,
    ),
    gate("rpc", &[], rpc::run),
];

pub(crate) const fn gate(
    name: &'static str,
    trend: &'static [&'static str],
    run: fn(bool) -> Report,
) -> Gate {
    Gate { name, trend, run }
}

/// A gate experiment's result.
pub struct Report {
    /// The machine-readable report.
    pub value: Value,
    /// The pass conditions that did not hold; the gate passes when empty.
    pub failed: Vec<&'static str>,
}

impl Report {
    pub(crate) fn new(summary: &impl ToJson, failed: Vec<&'static str>) -> Self {
        Self {
            value: summary.to_json(),
            failed,
        }
    }
}

/// The names of the `checks` that do not hold.
fn failures(checks: &[(&'static str, bool)]) -> Vec<&'static str> {
    checks
        .iter()
        .filter(|(_, holds)| !holds)
        .map(|(name, _)| *name)
        .collect()
}

/// One gate's verdict and machine-readable report.
#[derive(Debug, Clone)]
pub struct GateOutcome {
    /// The gate's [`Gate::name`].
    pub name: &'static str,
    /// Whether every pass condition held.
    pub pass: bool,
    /// The full report, ready for JSON serialization.
    pub report: Value,
}

/// Runs one gate, prints its report as tables and its verdict, and
/// returns the outcome.
pub fn run_gate(gate: &Gate, quick: bool) -> GateOutcome {
    println!("== gate {} ==\n", gate.name);
    let Report { value, failed } = (gate.run)(quick);
    print_report(&value);
    let pass = failed.is_empty();
    if pass {
        println!("gate {} PASS\n", gate.name);
    } else {
        println!("gate {} FAIL: {}\n", gate.name, failed.join(", "));
    }
    GateOutcome {
        name: gate.name,
        pass,
        report: value,
    }
}

/// Prints a report's scalar fields as one table, then each sequence of
/// rows as a table (row by row when rows hold rows of their own).
fn print_report(report: &Value) {
    let fields = report.as_map().unwrap_or(&[]);
    let mut scalars = Table::new(vec!["field", "value"]);
    for (key, value) in fields.iter().filter(|(_, value)| rows(value).is_none()) {
        scalars.row(vec![key.clone(), cell(value)]);
    }
    if !scalars.is_empty() {
        println!("{scalars}");
    }
    let nested = |item: &Value| {
        let fields = item.as_map().unwrap_or(&[]);
        fields.iter().any(|(_, value)| rows(value).is_some())
    };
    for (key, items) in fields.iter().filter_map(|(k, v)| Some((k, rows(v)?))) {
        if items.iter().any(nested) {
            for item in items {
                println!("{key}: {}", label(item));
                print_report(item);
            }
            continue;
        }
        let header = items[0].as_map().unwrap_or(&[]);
        let mut table = Table::new(header.iter().map(|(name, _)| name.as_str()).collect());
        for item in items {
            let fields = item.as_map().unwrap_or(&[]);
            table.row(fields.iter().map(|(_, value)| cell(value)).collect());
        }
        println!("{key}:\n{table}");
    }
}

/// The elements of a sequence of maps; `None` for any other value.
fn rows(value: &Value) -> Option<&[Value]> {
    match value {
        Value::Seq(items) if matches!(items.first(), Some(Value::Map(_))) => Some(items),
        _ => None,
    }
}

/// A row's label: its first field.
fn label(row: &Value) -> String {
    row.as_map()
        .and_then(|fields| fields.first())
        .map_or_else(String::new, |(_, value)| cell(value))
}

/// The one number format of every gate table.
fn cell(value: &Value) -> String {
    match value {
        Value::Null => "-".into(),
        Value::Bool(b) => b.to_string(),
        Value::UInt(n) => n.to_string(),
        Value::Float(f) => format!("{f:.3}"),
        Value::Str(s) => s.clone(),
        Value::Seq(items) => {
            let cells: Vec<String> = items.iter().map(cell).collect();
            format!("[{}]", cells.join(", "))
        }
        Value::Map(_) => "{…}".into(),
    }
}

/// Merges gate outcomes into one suite report; returns it and whether
/// every gate passed.
pub fn merge_outcomes(outcomes: &[GateOutcome]) -> (Value, bool) {
    let pass = outcomes.iter().all(|o| o.pass);
    let gates: Vec<Value> = outcomes
        .iter()
        .map(|o| {
            Value::Map(vec![
                ("gate".into(), Value::Str(o.name.into())),
                ("pass".into(), Value::Bool(o.pass)),
                ("report".into(), o.report.clone()),
            ])
        })
        .collect();
    let report = Value::Map(vec![
        ("bench".into(), Value::Str("suite".into())),
        ("pass".into(), Value::Bool(pass)),
        ("gates".into(), Value::Seq(gates)),
    ]);
    (report, pass)
}

/// Serializes `report` to pretty JSON at `path`.
///
/// # Panics
///
/// Panics if the file cannot be written (CI treats that as a failed
/// gate run).
pub fn write_report(path: &Path, report: &Value) {
    std::fs::write(path, json::to_pretty(report))
        .unwrap_or_else(|e| panic!("writes {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

/// The trend metrics of a merged suite report: the [`Gate::trend`] keys
/// of every gate in it. They are simulated-time ratios (no host
/// wall-clock enters them), so a fresh run on any machine reproduces the
/// committed baseline exactly; the trend check fails on >25 % regression.
pub fn trend_metrics(suite_report: &Value) -> Vec<(String, f64)> {
    let mut metrics = Vec::new();
    let gates = suite_report.field("gates").and_then(Value::as_seq);
    for gate in gates.unwrap_or(&[]) {
        let (Some(name), Some(report)) = (
            gate.field("gate").and_then(Value::as_str),
            gate.field("report"),
        ) else {
            continue;
        };
        let keys = GATES
            .iter()
            .find(|g| g.name == name)
            .map_or(&[][..], |g| g.trend);
        for key in keys {
            let Some((seq, key)) = key.split_once("[].") else {
                metrics.extend(
                    report
                        .field(key)
                        .and_then(Value::as_f64)
                        .map(|v| (format!("{name}.{key}"), v)),
                );
                continue;
            };
            for row in report.field(seq).and_then(Value::as_seq).unwrap_or(&[]) {
                if let Some(v) = row.field(key).and_then(Value::as_f64) {
                    metrics.push((format!("{name}.{}.{key}", label(row)), v));
                }
            }
        }
    }
    metrics
}

/// Diffs a fresh suite report against a committed baseline: a trend
/// metric below `(1 - tolerance)` of its baseline value, or present in
/// only one of the two reports, is a regression.
pub fn baseline_regressions(fresh: &Value, baseline: &Value, tolerance: f64) -> Vec<String> {
    let fresh_metrics = trend_metrics(fresh);
    let baseline_metrics = trend_metrics(baseline);
    let mut regressions = Vec::new();
    for (name, base) in &baseline_metrics {
        match fresh_metrics.iter().find(|(n, _)| n == name) {
            None => regressions.push(format!("metric {name} missing from fresh report")),
            Some((_, now)) if *now < base * (1.0 - tolerance) => {
                regressions.push(format!(
                    "{name} regressed: {now:.3} vs baseline {base:.3} \
                     (allowed floor {:.3})",
                    base * (1.0 - tolerance)
                ));
            }
            Some(_) => {}
        }
    }
    for (name, _) in &fresh_metrics {
        if !baseline_metrics.iter().any(|(n, _)| n == name) {
            regressions.push(format!(
                "metric {name} absent from the baseline — re-commit BENCH_baseline.json"
            ));
        }
    }
    regressions
}

// Shared workload shape: every gate drives the same simulated machine
// and the same hit-bound Zipf mix, so their numbers are comparable and
// cannot drift apart. Seeds and thresholds stay per-gate.
pub(crate) const CAPACITY: u64 = 4096;
pub(crate) const MEMORY_SLOTS: u64 = 1024;
pub(crate) const PAYLOAD_LEN: usize = 16;
const TENANTS: u32 = 8;
const BATCH_SIZE: usize = 128;
const ZIPF_EXPONENT: f64 = 1.2;
pub(crate) const WRITE_RATIO: f64 = 0.2;

/// The shared multi-tenant arrival sequence: `requests` Zipf draws dealt
/// round-robin across the tenants.
fn zipf_schedule(requests: usize, seed: u64) -> TenantSchedule {
    let mut generator =
        ZipfWorkload::new(CAPACITY, ZIPF_EXPONENT, WRITE_RATIO, seed).with_payload_len(PAYLOAD_LEN);
    TenantSchedule::shard(&mut generator, TENANTS, requests)
}

/// `num / den`, or 0 when `den` is not positive.
pub(crate) fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub(crate) fn throughput(requests: usize, wall: SimDuration) -> f64 {
    ratio(requests as f64, wall.as_secs_f64())
}

/// `full`, divided by `divisor` under `--quick`.
fn scaled(full: usize, quick: bool, divisor: usize) -> usize {
    full / if quick { divisor } else { 1 }
}

/// Runs `work`; returns its result and the host wall-clock it took, ms.
fn timed<T>(work: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let result = work();
    (result, started.elapsed().as_secs_f64() * 1e3)
}

/// A single instance on the paper's simulated machine.
fn horam(config: HOramConfig, key: u8) -> HOram {
    HOram::new(
        config,
        MemoryHierarchy::dac2019(),
        MasterKey::from_bytes([key; 32]),
    )
    .expect("builds")
}

/// A sharded engine on the paper's simulated machine.
fn sharded(config: HOramConfig, shards: u64, key: u8) -> ShardedOram {
    ShardedOram::new(
        ShardedConfig::new(config, shards),
        MasterKey::from_bytes([key; 32]),
        |_| MemoryHierarchy::dac2019(),
    )
    .expect("builds")
}

/// Simulated time since the start of a clock that reads `now`.
fn since_start(now: SimTime) -> SimDuration {
    now.duration_since(SimTime::ZERO)
}

/// Host cores the wall-clock bars scale with.
fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Storage slots across `config`'s partitions.
fn storage_slots(config: &HOramConfig) -> u64 {
    config.partition_count() * config.partition_slots()
}

/// A file-backed hierarchy at `path`, sized for `config`'s storage.
fn file_hierarchy(config: &HOramConfig, path: &Path) -> MemoryHierarchy {
    let body = BlockContent::encoded_len(config.payload_len);
    MemoryHierarchy::with_file_storage(
        MachineConfig::dac2019(),
        path,
        FileStoreConfig::new(storage_slots(config), body).with_write_back_slots(64),
    )
    .expect("file hierarchy builds")
}

/// The bus trace with timestamps: what the byte-identity checks compare.
fn trace_shape(events: &[TraceEvent]) -> Vec<(u16, u64, u64, u64)> {
    events
        .iter()
        .map(|e| (e.device.0, e.addr, e.bytes, e.at.as_nanos()))
        .collect()
}

/// Runs `body` in a fresh scratch directory, removed even on a panic.
fn in_scratch<T>(name: &str, body: impl FnOnce(&Path) -> T) -> T {
    let scratch = scratch_dir(name);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&scratch)));
    let _ = std::fs::remove_dir_all(&scratch);
    result.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

/// The service configuration every serving gate uses.
fn batched() -> ServiceConfig {
    ServiceConfig {
        batch_size: BATCH_SIZE,
        ..ServiceConfig::default()
    }
}

/// Registers `schedule`'s tenants on every block, serves it, and returns
/// the responses in order with the host ms serving took.
fn serve_schedule(service: &mut OramService, schedule: &TenantSchedule) -> (Vec<Vec<u8>>, f64) {
    for tenant in schedule.tenants() {
        service.register_tenant(UserId(tenant), 0..CAPACITY, Permission::ReadWrite);
    }
    let arrivals = schedule
        .arrivals
        .iter()
        .map(|arrival| (UserId(arrival.tenant), arrival.request.clone()));
    let ((tickets, _), host_ms) = timed(|| service.serve_all(arrivals).expect("serves"));
    let responses = tickets
        .into_iter()
        .map(|ticket| service.take_response(ticket).expect("completed"))
        .collect();
    (responses, host_ms)
}

/// The batched multi-tenant server must meet or beat sequential
/// `run_batch` on the shared-hot-set Zipf schedule.
mod serving {
    use super::*;

    const SEED: u64 = 0x5e57;

    json_struct! {
        struct ModeRow {
            mode: String,
            sim_wall_us: f64,
            /// Host-side wall clock of the mode's run, ms.
            wall_ms: f64,
            throughput_rps: f64,
            oram_requests: u64,
            deduped: u64,
            /// Submission-to-completion latency; `null` without a server.
            mean_latency_us: Option<f64>,
            worst_tenant_latency_us: Option<f64>,
        }

        struct Summary {
            bench: &'static str,
            requests: usize,
            tenants: u32,
            batch_size: usize,
            pass: bool,
            /// Fair-share server throughput over sequential `run_batch`, and
            /// over per-request callers.
            vs_sequential: f64,
            vs_per_request: f64,
            modes: Vec<ModeRow>,
        }
    }

    /// Every mode runs the same one-shard engine: the gate compares ways
    /// of serving, not engines.
    fn fresh_oram() -> ShardedOram {
        let config = HOramConfig::new(CAPACITY, PAYLOAD_LEN, MEMORY_SLOTS).with_seed(SEED);
        sharded(config, 1, 0xA5)
    }

    /// A mode without a server: `run_batch` over `chunk` requests at a
    /// time (1: a blocking caller; all: the paper's evaluation mode).
    fn unserved(mode: &str, requests: &[Request], chunk: usize) -> ModeRow {
        let mut oram = fresh_oram();
        let ((), wall_ms) = timed(|| {
            for batch in requests.chunks(chunk) {
                oram.run_batch(batch).expect("runs");
            }
        });
        let wall = oram.stats().total_wall_time();
        ModeRow {
            mode: mode.into(),
            sim_wall_us: wall.as_micros_f64(),
            wall_ms,
            throughput_rps: throughput(requests.len(), wall),
            oram_requests: requests.len() as u64,
            deduped: 0,
            mean_latency_us: None,
            worst_tenant_latency_us: None,
        }
    }

    fn served(schedule: &TenantSchedule, policy: Box<dyn AdmissionPolicy>) -> ModeRow {
        let mode = format!("server ({})", policy.name());
        let config = batched();
        let mut service = OramService::new(fresh_oram(), policy, config);
        let (_, wall_ms) = serve_schedule(&mut service, schedule);
        let (mut latency_sum, mut completed, mut worst) =
            (SimDuration::ZERO, 0u64, SimDuration::ZERO);
        for tenant in schedule.tenants() {
            let stats = service.tenant_stats(UserId(tenant)).expect("registered");
            latency_sum += stats.latency_total;
            completed += stats.completed;
            worst = worst.max(stats.mean_latency());
        }
        let mean = latency_sum / completed.max(1);
        let wall = service.oram().stats().total_wall_time();
        ModeRow {
            mode,
            sim_wall_us: wall.as_micros_f64(),
            wall_ms,
            throughput_rps: throughput(schedule.len(), wall),
            oram_requests: service.stats().oram.requests,
            deduped: service.stats().deduped,
            mean_latency_us: Some(mean.as_micros_f64()),
            worst_tenant_latency_us: Some(worst.as_micros_f64()),
        }
    }

    pub(super) fn run(quick: bool) -> Report {
        let requests = scaled(6_000, quick, 8);
        let schedule = zipf_schedule(requests, SEED);
        let flat = schedule.requests();
        let per_request = unserved("per-request (sync caller)", &flat, 1);
        let sequential = unserved("sequential run_batch", &flat, flat.len().max(1));
        let fifo = served(&schedule, Box::new(FifoPolicy));
        let fair = served(&schedule, Box::new(FairSharePolicy::default()));
        let vs_sequential = fair.throughput_rps / sequential.throughput_rps.max(1e-9);
        let vs_per_request = fair.throughput_rps / per_request.throughput_rps.max(1e-9);
        let failed = failures(&[("vs_sequential", vs_sequential >= 1.0)]);
        Report::new(
            &Summary {
                bench: "serving",
                requests,
                tenants: TENANTS,
                batch_size: BATCH_SIZE,
                pass: failed.is_empty(),
                vs_sequential,
                vs_per_request,
                modes: vec![per_request, sequential, fifo, fair],
            },
            failed,
        )
    }
}

/// The batched window must keep ≥ 1.5× simulated I/O speedup over the
/// per-block path, with byte-identical responses.
mod io_pipeline {
    use super::*;

    const IO_BATCH: u64 = 32;
    const SEED: u64 = 0x10b1;
    const MIN_IO_SPEEDUP: f64 = 1.5;

    json_struct! {
        struct ModeRow {
            mode: &'static str,
            io_batch: u64,
            /// Simulated access-period storage time, mean load latency, and
            /// end-to-end wall time, µs; host wall clock, ms.
            sim_io_us: f64,
            mean_io_latency_us: f64,
            sim_wall_us: f64,
            host_ms: f64,
        }

        struct WorkloadReport {
            workload: &'static str,
            requests: usize,
            modes: Vec<ModeRow>,
            /// per-block simulated I/O time over batched.
            io_speedup: f64,
            /// per-block simulated wall time over batched.
            wall_speedup: f64,
            responses_match: bool,
        }

        struct Summary {
            bench: &'static str,
            gate_workload: &'static str,
            min_io_speedup: f64,
            pass: bool,
            workloads: Vec<WorkloadReport>,
        }
    }

    fn run_mode(
        mode: &'static str,
        io_batch: u64,
        requests: &[Request],
    ) -> (ModeRow, Vec<Vec<u8>>) {
        let config = HOramConfig::new(CAPACITY, PAYLOAD_LEN, MEMORY_SLOTS)
            .with_seed(SEED)
            .with_io_batch(io_batch);
        let mut oram = horam(config, 0xC7);
        let (responses, host_ms) = timed(|| oram.run_batch(requests).expect("runs"));
        let stats = oram.stats();
        let row = ModeRow {
            mode,
            io_batch,
            sim_io_us: stats.io_time.as_micros_f64(),
            mean_io_latency_us: stats.mean_io_latency().as_micros_f64(),
            sim_wall_us: stats.total_wall_time().as_micros_f64(),
            host_ms,
        };
        (row, responses)
    }

    fn run_workload(workload: &'static str, requests: Vec<Request>) -> WorkloadReport {
        let (per_block, base_responses) = run_mode("per-block", 1, &requests);
        let (batched, batched_responses) = run_mode("batched", IO_BATCH, &requests);
        WorkloadReport {
            workload,
            requests: requests.len(),
            io_speedup: per_block.sim_io_us / batched.sim_io_us.max(f64::MIN_POSITIVE),
            wall_speedup: per_block.sim_wall_us / batched.sim_wall_us.max(f64::MIN_POSITIVE),
            modes: vec![per_block, batched],
            responses_match: base_responses == batched_responses,
        }
    }

    pub(super) fn run(quick: bool) -> Report {
        let requests = scaled(6_000, quick, 4);
        let zipf = ZipfWorkload::new(CAPACITY, ZIPF_EXPONENT, WRITE_RATIO, SEED)
            .with_payload_len(PAYLOAD_LEN)
            .generate(requests);
        let scan = SequentialWorkload::new(CAPACITY).generate(requests);
        let workloads = vec![
            run_workload("zipf-hit-bound", zipf),
            run_workload("sequential-scan", scan),
        ];
        let failed = failures(&[
            ("io_speedup", workloads[0].io_speedup >= MIN_IO_SPEEDUP),
            (
                "responses_match",
                workloads.iter().all(|w| w.responses_match),
            ),
        ]);
        Report::new(
            &Summary {
                bench: "io_pipeline",
                gate_workload: workloads[0].workload,
                min_io_speedup: MIN_IO_SPEEDUP,
                pass: failed.is_empty(),
                workloads,
            },
            failed,
        )
    }
}

/// Four shards must deliver ≥ 2.5× one instance's simulated-I/O
/// throughput, with identical responses at every shard count.
mod sharding {
    use super::*;

    const SEED: u64 = 0x54a6d;
    const SHARD_COUNTS: [u64; 4] = [1, 2, 4, 8];
    const GATE_SHARDS: u64 = 4;
    const MIN_IO_SPEEDUP: f64 = 2.5;

    json_struct! {
        struct ShardRow {
            shards: u64,
            /// The busiest shard's access-period storage time, µs.
            sim_io_us: f64,
            /// Elapsed simulated time on the shared clock, µs.
            sim_wall_us: f64,
            /// Requests per second of `sim_io_us` and of `sim_wall_us`.
            io_throughput_rps: f64,
            wall_throughput_rps: f64,
            /// Busiest shard's request share over the ideal 1/shards share.
            balance: f64,
            /// Reads served by batch dedup instead of their own ORAM access.
            deduped: u64,
            /// Host-side wall clock of the run, ms.
            host_ms: f64,
        }

        struct Summary {
            bench: &'static str,
            requests: usize,
            tenants: u32,
            batch_size: usize,
            gate_shards: u64,
            min_io_speedup: f64,
            pass: bool,
            /// The gate row's throughputs over the 1-shard row's.
            io_speedup: f64,
            wall_speedup: f64,
            responses_match: bool,
            rows: Vec<ShardRow>,
        }
    }

    /// Serves the schedule through the shard router; returns the row and
    /// every response in submission order (the equivalence check).
    fn run_sharded(schedule: &TenantSchedule, shards: u64) -> (ShardRow, Vec<Vec<u8>>) {
        let service_config = batched();
        let base = HOramConfig::new(CAPACITY, PAYLOAD_LEN, MEMORY_SLOTS).with_seed(SEED);
        let oram = sharded(base, shards, 0xD4);
        let balance = {
            let counts = schedule.route_counts(shards as usize, |id| {
                oram.mapper().shard_of(id).expect("in range") as usize
            });
            let max = *counts.iter().max().expect("non-empty") as f64;
            max / (schedule.len() as f64 / shards as f64)
        };
        let policy = Box::new(FairSharePolicy::default());
        let mut service = OramService::new(oram, policy, service_config);
        let (responses, host_ms) = serve_schedule(&mut service, schedule);

        // Shards run concurrently: the busiest shard's I/O time counts.
        let concurrent_io = service
            .shard_stats()
            .iter()
            .map(|s| s.io_time)
            .fold(SimDuration::ZERO, SimDuration::max);
        let elapsed = since_start(service.oram().clock().now());
        let row = ShardRow {
            shards,
            sim_io_us: concurrent_io.as_micros_f64(),
            sim_wall_us: elapsed.as_micros_f64(),
            io_throughput_rps: throughput(schedule.len(), concurrent_io),
            wall_throughput_rps: throughput(schedule.len(), elapsed),
            balance,
            deduped: service.stats().deduped,
            host_ms,
        };
        (row, responses)
    }

    pub(super) fn run(quick: bool) -> Report {
        let requests = scaled(6_000, quick, 4);
        let schedule = zipf_schedule(requests, SEED);
        let (rows, responses): (Vec<ShardRow>, Vec<Vec<Vec<u8>>>) = SHARD_COUNTS
            .iter()
            .map(|&shards| run_sharded(&schedule, shards))
            .unzip();
        let responses_match = responses.iter().all(|r| r == &responses[0]);
        let single = &rows[0];
        let gate_row = rows
            .iter()
            .find(|r| r.shards == GATE_SHARDS)
            .expect("gate shard count measured");
        let io_speedup = gate_row.io_throughput_rps / single.io_throughput_rps.max(1e-9);
        let wall_speedup = gate_row.wall_throughput_rps / single.wall_throughput_rps.max(1e-9);
        let failed = failures(&[
            ("io_speedup", io_speedup >= MIN_IO_SPEEDUP),
            ("responses_match", responses_match),
        ]);
        Report::new(
            &Summary {
                bench: "sharding",
                requests,
                tenants: TENANTS,
                batch_size: BATCH_SIZE,
                gate_shards: GATE_SHARDS,
                min_io_speedup: MIN_IO_SPEEDUP,
                pass: failed.is_empty(),
                io_speedup,
                wall_speedup,
                responses_match,
                rows,
            },
            failed,
        )
    }
}

/// Four worker threads must beat one on host wall-clock by a host-scaled
/// bar, with identical responses and statistics at every thread count.
/// Four threads run at the host's width (`HOramConfig::worker_width`),
/// which the report states.
mod parallel {
    use super::*;

    const SEED: u64 = 0x9a11;
    const SHARDS: u64 = 4;
    const IO_BATCH: u64 = 32;
    const GATE_THREADS: usize = 4;
    /// Alternating 1 / [`GATE_THREADS`] pairs; the bar is their median,
    /// since one shot per side flaked on an unchanged build.
    const BAR_PAIRS: usize = 5;

    /// The wall-clock speedup demanded at 4 threads vs 1, scaled to what
    /// the host can deliver: one core only bounds the overhead.
    fn min_wall_speedup(cores: usize) -> f64 {
        if cores >= GATE_THREADS {
            1.5
        } else if cores >= 2 {
            1.15
        } else {
            0.5
        }
    }

    json_struct! {
        struct ThreadRow {
            threads: usize,
            /// The width the engine ran at: `threads` capped at the host's
            /// cores.
            width: usize,
            /// Host wall clock of the drained batch, ms, and its rate.
            wall_ms: f64,
            wall_throughput_rps: f64,
            /// Elapsed simulated time (identical across rows by design).
            sim_wall_us: f64,
            cycles: u64,
            shuffles: u64,
        }

        struct Summary {
            bench: &'static str,
            requests: usize,
            shards: u64,
            io_batch: u64,
            available_parallelism: usize,
            gate_threads: usize,
            /// The width the gate's threaded side ran at.
            gate_width: usize,
            min_wall_speedup: f64,
            /// wall_ms(1 thread) / wall_ms(4 threads) of each alternating pair.
            pair_speedups: Vec<f64>,
            /// Median of `pair_speedups` — what the bar is held against.
            wall_speedup: f64,
            responses_match: bool,
            stats_match: bool,
            pass: bool,
            rows: Vec<ThreadRow>,
        }
    }

    /// Drains the schedule at a pump width of `threads`.
    fn run_threads(requests: &[Request], threads: usize) -> (ThreadRow, Vec<Vec<u8>>, HOramStats) {
        let config = HOramConfig::new(CAPACITY, PAYLOAD_LEN, MEMORY_SLOTS)
            .with_seed(SEED)
            .with_io_batch(IO_BATCH)
            .with_worker_threads(threads);
        let width = config.worker_width();
        let mut oram = sharded(config, SHARDS, 0xE1);
        let (responses, wall_ms) = timed(|| oram.run_batch(requests).expect("runs"));
        let stats = oram.stats();
        let row = ThreadRow {
            threads,
            width,
            wall_ms,
            wall_throughput_rps: ratio(requests.len() as f64, wall_ms / 1e3),
            sim_wall_us: since_start(oram.clock().now()).as_micros_f64(),
            cycles: stats.cycles,
            shuffles: stats.shuffles,
        };
        (row, responses, stats)
    }

    pub(super) fn run(quick: bool) -> Report {
        let requests = scaled(24_000, quick, 6);
        let thread_counts: &[usize] = if quick { &[1, 2, 4] } else { &[1, 2, 4, 8] };
        let cores = host_cores();
        let threshold = min_wall_speedup(cores);
        let flat = zipf_schedule(requests, SEED).requests();

        // The bar's pair alternates `BAR_PAIRS` times, the rest run once;
        // every run must reproduce the first one's responses and stats.
        let mut order: Vec<usize> = [1, GATE_THREADS].repeat(BAR_PAIRS);
        order.extend(
            thread_counts
                .iter()
                .filter(|t| ![1, GATE_THREADS].contains(t)),
        );
        let mut rows: Vec<ThreadRow> = Vec::new();
        let mut reference: Option<(Vec<Vec<u8>>, HOramStats)> = None;
        let (mut responses_match, mut stats_match) = (true, true);
        for threads in order {
            let (row, response, stat) = run_threads(&flat, threads);
            rows.push(row);
            match &reference {
                None => reference = Some((response, stat)),
                Some((first_response, first_stat)) => {
                    responses_match &= &response == first_response;
                    stats_match &= &stat == first_stat;
                }
            }
        }
        // `order` starts 1, GATE_THREADS: row 1 is the bar's threaded side.
        let gate_width = rows[1].width;
        let pair_speedups: Vec<f64> = rows[..2 * BAR_PAIRS]
            .chunks(2)
            .map(|pair| pair[0].wall_ms / pair[1].wall_ms.max(f64::MIN_POSITIVE))
            .collect();
        let mut sorted = pair_speedups.clone();
        sorted.sort_by(f64::total_cmp);
        let wall_speedup = sorted[BAR_PAIRS / 2];
        let failed = failures(&[
            ("wall_speedup", wall_speedup >= threshold),
            ("responses_match", responses_match),
            ("stats_match", stats_match),
        ]);
        Report::new(
            &Summary {
                bench: "parallel",
                requests,
                shards: SHARDS,
                io_batch: IO_BATCH,
                available_parallelism: cores,
                gate_threads: GATE_THREADS,
                gate_width,
                min_wall_speedup: threshold,
                pair_speedups,
                wall_speedup,
                responses_match,
                stats_match,
                pass: failed.is_empty(),
                rows,
            },
            failed,
        )
    }
}

/// Checkpoint a file-backed engine, kill it mid-workload, recover and
/// replay: everything observable equals the uninterrupted run's.
mod persistence {
    use super::*;

    const SEED: u64 = 0x9e25;
    const KEY: u8 = 0xC9;
    /// Small enough that the period turns several times: a shuffle is
    /// the only phase that rewrites the device file.
    const GATE_MEMORY_SLOTS: u64 = 128;
    /// Host budget for one snapshot + one restore, ms: they take a few
    /// ms, so this only catches pathological regressions.
    const MAX_CHECKPOINT_MS: f64 = 2_000.0;
    /// Cycles past the checkpoint before the kill: past a shuffle.
    const KILL_AFTER_CYCLES: u64 = 600;

    json_struct! {
        struct Summary {
            bench: &'static str,
            requests: usize,
            pass: bool,
            snapshot_bytes: usize,
            /// Host ms of the checkpoint and of recovery (journal rollback +
            /// state restore).
            snapshot_ms: f64,
            restore_ms: f64,
            max_checkpoint_ms: f64,
            kill_after_cycles: u64,
            replayed_requests: usize,
            responses_match: bool,
            trace_match: bool,
            stats_match: bool,
            clock_match: bool,
        }
    }

    fn engine_config() -> HOramConfig {
        HOramConfig::new(CAPACITY, PAYLOAD_LEN, GATE_MEMORY_SLOTS)
            .with_seed(SEED)
            .with_io_batch(16)
    }

    fn build(path: &Path) -> HOram {
        let hierarchy = file_hierarchy(&engine_config(), path).recording();
        HOram::new(engine_config(), hierarchy, MasterKey::from_bytes([KEY; 32])).expect("builds")
    }

    pub(super) fn run(quick: bool) -> Report {
        let requests = scaled(6_000, quick, 8);
        let trace = zipf_schedule(requests, SEED).requests();
        let (pre, post) = trace.split_at(requests / 2);
        in_scratch("bench-persistence", |scratch| {
            drive(scratch, pre, post, requests)
        })
    }

    fn drive(scratch: &Path, pre: &[Request], post: &[Request], requests: usize) -> Report {
        // Reference: the uninterrupted run (same file backend).
        let mut reference = build(&scratch.join("reference.horam"));
        reference.run_batch(pre).expect("reference prefix");
        reference.snapshot().expect("reference snapshot");
        let mark = reference.trace().snapshot().len();
        let reference_responses = reference.run_batch(post).expect("reference suffix");
        let reference_trace = trace_shape(&reference.trace().snapshot()[mark..]);
        let reference_stats = reference.stats();
        assert!(
            reference_stats.shuffles >= 2,
            "gate workload must cross shuffle periods"
        );

        // The run that dies: checkpoint, keep working, kill mid-flight.
        let victim_path = scratch.join("victim.horam");
        let mut victim = build(&victim_path);
        victim.run_batch(pre).expect("victim prefix");
        let (snapshot, snapshot_ms) = timed(|| victim.snapshot().expect("victim snapshot"));
        for request in post {
            victim.enqueue(request.clone()).expect("enqueue");
        }
        let mut ran = 0;
        while ran < KILL_AFTER_CYCLES && !victim.queue().is_drained() {
            ran += victim.run_cycle_window(16).expect("cycles before the kill");
        }
        drop(victim); // the kill: no sync, no checkpoint, buffer mid-flight

        // Recovery: reopen the device file (journal rollback) + restore.
        let (mut recovered, restore_ms) = timed(|| {
            let hierarchy = file_hierarchy(&engine_config(), &victim_path).recording();
            HOram::restore(hierarchy, MasterKey::from_bytes([KEY; 32]), &snapshot).expect("restore")
        });
        let responses = recovered.run_batch(post).expect("replay");

        let responses_match = responses == reference_responses;
        let trace_match = trace_shape(&recovered.trace().snapshot()) == reference_trace;
        let stats_match = recovered.stats() == reference_stats;
        let clock_match = recovered.clock().now() == reference.clock().now();
        let failed = failures(&[
            ("responses_match", responses_match),
            ("trace_match", trace_match),
            ("stats_match", stats_match),
            ("clock_match", clock_match),
            (
                "max_checkpoint_ms",
                snapshot_ms + restore_ms <= MAX_CHECKPOINT_MS,
            ),
        ]);
        Report::new(
            &Summary {
                bench: "persistence",
                requests,
                pass: failed.is_empty(),
                snapshot_bytes: snapshot.len(),
                snapshot_ms,
                restore_ms,
                max_checkpoint_ms: MAX_CHECKPOINT_MS,
                kill_after_cycles: ran,
                replayed_requests: post.len(),
                responses_match,
                trace_match,
                stats_match,
                clock_match,
            },
            failed,
        )
    }
}

/// A hit-bound LRU block cache: identical responses and counters, and
/// ≥ 1.5× less access-period storage time.
mod cache {
    use super::*;
    use horam::storage::cache::CacheConfig;

    const SEED: u64 = 0xCA4E;
    /// The cache warms only from shuffles: a 128-load period turns
    /// several times even at `--quick`.
    const GATE_MEMORY_SLOTS: u64 = 256;
    /// Simulated-I/O speedup floor of the hit-bound cache (a hit is a
    /// DRAM copy, a miss an HDD access), well under the observed one.
    const MIN_IO_SPEEDUP: f64 = 1.5;

    json_struct! {
        struct Summary {
            bench: &'static str,
            requests: usize,
            pass: bool,
            /// Cache capacity in blocks (covers every storage slot — the
            /// hit-bound point of the sweep in `cache_sweep`).
            cache_blocks: u64,
            hit_rate: f64,
            io_ms_uncached: f64,
            io_ms_cached: f64,
            io_speedup: f64,
            min_io_speedup: f64,
            responses_match: bool,
            counters_match: bool,
        }
    }

    /// Every protocol counter — the fields a cache must not move.
    fn counters(stats: &HOramStats) -> [u64; 10] {
        [
            stats.requests,
            stats.writes,
            stats.cycles,
            stats.memory_hits,
            stats.dummy_memory_accesses,
            stats.real_io_loads,
            stats.dummy_io_loads,
            stats.prefetched_blocks,
            stats.shuffles,
            stats.spilled_blocks,
        ]
    }

    pub(super) fn run(quick: bool) -> Report {
        let requests = scaled(6_000, quick, 8);
        let config = HOramConfig::new(CAPACITY, PAYLOAD_LEN, GATE_MEMORY_SLOTS).with_seed(SEED);
        let slots = storage_slots(&config);
        let trace = zipf_schedule(requests, SEED).requests();

        let mut uncached = horam(config.clone(), 0xCA);
        let uncached_responses = uncached.run_batch(&trace).expect("uncached runs");
        let uncached_stats = uncached.stats();
        assert!(
            uncached_stats.shuffles >= 2,
            "gate workload must cross shuffle periods (hits come from shuffle population)"
        );

        let mut cached = horam(config.with_cache(CacheConfig::lru(slots)), 0xCA);
        let cached_responses = cached.run_batch(&trace).expect("cached runs");
        let cached_stats = cached.stats();
        let cache_stats = cached.cache_stats().expect("cache installed");

        let responses_match = cached_responses == uncached_responses;
        let counters_match = counters(&cached_stats) == counters(&uncached_stats);
        let io_ms_uncached = uncached_stats.io_time.as_secs_f64() * 1e3;
        let io_ms_cached = cached_stats.io_time.as_secs_f64() * 1e3;
        let io_speedup = ratio(io_ms_uncached, io_ms_cached);
        let failed = failures(&[
            ("responses_match", responses_match),
            ("counters_match", counters_match),
            ("hit_rate", cache_stats.hits > 0),
            ("io_speedup", io_speedup >= MIN_IO_SPEEDUP),
        ]);
        Report::new(
            &Summary {
                bench: "cache",
                requests,
                pass: failed.is_empty(),
                cache_blocks: slots,
                hit_rate: cache_stats.hit_rate(),
                io_ms_uncached,
                io_ms_cached,
                io_speedup,
                min_io_speedup: MIN_IO_SPEEDUP,
                responses_match,
                counters_match,
            },
            failed,
        )
    }
}

/// Seeded 1 % transient storage faults on 4 shards: every ticket is a
/// typed error or the fault-free response, at ≥ 90 % of its throughput.
mod chaos {
    use super::*;
    use horam::storage::fault::FaultConfig;

    const SEED: u64 = 0xC4A0;
    const SHARDS: u64 = 4;
    /// 1 % of storage reads and writes fail transiently.
    const FAULT_PERMILLE: u32 = 10;
    /// Faulted / fault-free simulated throughput floor: backoff is cheap.
    const MIN_THROUGHPUT_RATIO: f64 = 0.9;

    json_struct! {
        struct Summary {
            bench: &'static str,
            requests: usize,
            shards: u64,
            fault_permille: u32,
            pass: bool,
            /// Transient faults raised, the retries they caused, and the
            /// simulated backoff charged, ms.
            injected_transients: u64,
            retries: u64,
            backoff_ms: f64,
            /// Retry budgets exhausted (each fails one shard window).
            exhausted: u64,
            /// Tickets resolved to a typed failure.
            failed_tickets: u64,
            /// Shards quarantined by the end of the run.
            degraded_shards: usize,
            throughput_clean_rps: f64,
            throughput_faulted_rps: f64,
            /// faulted / clean simulated throughput — the trend metric.
            throughput_ratio: f64,
            min_throughput_ratio: f64,
            /// Every completed ticket byte-identical to the fault-free run.
            responses_match: bool,
        }
    }

    fn engine(fault: Option<u32>) -> ShardedOram {
        let config = ShardedConfig::new(
            HOramConfig::new(CAPACITY, PAYLOAD_LEN, MEMORY_SLOTS).with_seed(SEED),
            SHARDS,
        );
        ShardedOram::new(config, MasterKey::from_bytes([0xFA; 32]), |shard| {
            let hierarchy = MemoryHierarchy::dac2019();
            match fault {
                Some(permille) => hierarchy
                    .with_storage_faults(FaultConfig::transient(SEED ^ (shard + 1), permille)),
                None => hierarchy,
            }
        })
        .expect("builds")
    }

    /// Runs the trace to completion: each ticket resolves to a response
    /// or, as `None`, to a typed failure.
    fn drive(oram: &mut ShardedOram, trace: &[Request]) -> Vec<Option<Vec<u8>>> {
        let tickets: Vec<Result<u64, OramError>> = trace
            .iter()
            .map(|request| oram.enqueue(request.clone()))
            .collect();
        while !oram.is_drained() {
            oram.run_cycle_window(16).expect("engine-level failure");
        }
        tickets
            .into_iter()
            .map(|ticket| {
                let ticket = ticket.ok()?;
                match oram.take_response(ticket) {
                    Some(response) => Some(response),
                    None => {
                        // A lost ticket must carry its typed failure.
                        oram.take_failure(ticket)
                            .expect("ticket resolved with neither response nor failure");
                        None
                    }
                }
            })
            .collect()
    }

    pub(super) fn run(quick: bool) -> Report {
        let requests = scaled(6_000, quick, 8);
        let trace = zipf_schedule(requests, SEED).requests();

        let mut clean = engine(None);
        let clean_outcomes = drive(&mut clean, &trace);
        assert!(
            clean_outcomes.iter().all(Option::is_some),
            "fault-free run must complete every ticket"
        );

        let mut faulted = engine(Some(FAULT_PERMILLE));
        let faulted_outcomes = drive(&mut faulted, &trace);
        let fault_stats = faulted.storage_fault_stats().unwrap_or_default();
        let retry_stats = faulted.storage_retry_stats();

        let failed_tickets = faulted_outcomes.iter().filter(|o| o.is_none()).count() as u64;
        // A typed failure is allowed; a wrong answer is not.
        let responses_match = clean_outcomes
            .iter()
            .zip(&faulted_outcomes)
            .all(|(clean, faulted)| faulted.is_none() || clean == faulted);
        let throughput_clean = throughput(requests, since_start(clean.clock().now()));
        let throughput_faulted = throughput(requests, since_start(faulted.clock().now()));
        let throughput_ratio = ratio(throughput_faulted, throughput_clean);
        let injected = fault_stats.transient_reads + fault_stats.transient_writes;
        let failed = failures(&[
            ("responses_match", responses_match),
            ("injected_transients", injected > 0),
            ("retries", retry_stats.retries > 0),
            ("throughput_ratio", throughput_ratio >= MIN_THROUGHPUT_RATIO),
        ]);
        Report::new(
            &Summary {
                bench: "chaos",
                requests,
                shards: SHARDS,
                fault_permille: FAULT_PERMILLE,
                pass: failed.is_empty(),
                injected_transients: injected,
                retries: retry_stats.retries,
                backoff_ms: retry_stats.backoff_nanos as f64 / 1e6,
                exhausted: retry_stats.exhausted,
                failed_tickets,
                degraded_shards: faulted.degraded_shards().len(),
                throughput_clean_rps: throughput_clean,
                throughput_faulted_rps: throughput_faulted,
                throughput_ratio,
                min_throughput_ratio: MIN_THROUGHPUT_RATIO,
                responses_match,
            },
            failed,
        )
    }
}

/// The recursive position map changes trusted-memory scaling and nothing
/// else: byte-identical to flat at small N, and at 16× N a durable engine
/// round-trips, restores, and holds ≥ 8× fewer trusted bytes.
mod capacity {
    use super::*;
    use horam::core::{PosmapMode, RecursivePosmapConfig};

    const SEED: u64 = 0xCA9;
    /// Small enough that the parity leg crosses shuffles (map rebuilds).
    const PARITY_MEMORY_SLOTS: u64 = 256;
    /// 16× `CAPACITY`, the largest any other gate touches.
    const LARGE_CAPACITY: u64 = 65_536;
    const LARGE_MEMORY_SLOTS: u64 = 2_048;
    /// Prime stride of the large engine's write/read-back sweep, which
    /// writes `spot_payload(id)` to block `id`.
    const LARGE_STRIDE: usize = 509;
    /// At `LARGE_CAPACITY` the recursive map's trusted bytes must undercut
    /// the flat table's by at least this factor.
    const MIN_TRUSTED_SHRINK: f64 = 8.0;
    /// Growing N 16× may grow the recursive map's trusted bytes by at
    /// most this factor.
    const MAX_TRUSTED_GROWTH: f64 = 8.0;
    /// The flat engine's snapshot (it carries the O(N) table) over the
    /// durable recursive one's, at the same N.
    const MIN_SNAPSHOT_SHRINK: f64 = 2.0;
    /// Recursive / flat simulated throughput floor; it is exactly 1.0,
    /// since the map's I/O never enters the engine clock.
    const MIN_THROUGHPUT_RATIO: f64 = 0.99;

    json_struct! {
        struct Summary {
            bench: &'static str,
            requests: usize,
            pass: bool,
            // Small-N parity: flat vs recursive on the shared Zipf mix.
            parity_capacity: u64,
            responses_match: bool,
            trace_match: bool,
            stats_match: bool,
            clock_match: bool,
            throughput_flat_rps: f64,
            throughput_recursive_rps: f64,
            throughput_ratio: f64,
            min_throughput_ratio: f64,
            // Large-N demonstration: durable devices, recursive posmap.
            large_capacity: u64,
            capacity_factor: f64,
            posmap_levels: usize,
            large_roundtrip_ok: bool,
            restore_roundtrip_ok: bool,
            flat_trusted_bytes: u64,
            recursive_trusted_bytes: u64,
            trusted_shrink: f64,
            min_trusted_shrink: f64,
            recursive_small_trusted_bytes: u64,
            trusted_growth: f64,
            max_trusted_growth: f64,
            flat_snapshot_bytes: usize,
            recursive_snapshot_bytes: usize,
            snapshot_shrink: f64,
            min_snapshot_shrink: f64,
        }
    }

    fn recursive_mode(backing: Option<&Path>) -> PosmapMode {
        PosmapMode::Recursive(RecursivePosmapConfig {
            backing_dir: backing.map(|p| p.to_string_lossy().into_owned()),
            ..RecursivePosmapConfig::default()
        })
    }

    fn parity_engine(posmap: PosmapMode) -> HOram {
        let config = HOramConfig::new(CAPACITY, PAYLOAD_LEN, PARITY_MEMORY_SLOTS)
            .with_seed(SEED)
            .with_io_batch(16)
            .with_posmap(posmap);
        horam(config, 0xCA)
    }

    fn large_config(posmap: PosmapMode) -> HOramConfig {
        HOramConfig::new(LARGE_CAPACITY, PAYLOAD_LEN, LARGE_MEMORY_SLOTS)
            .with_seed(SEED)
            .with_io_batch(16)
            .with_posmap(posmap)
    }

    fn large_engine(scratch: &Path, name: &str, posmap: PosmapMode) -> HOram {
        let config = large_config(posmap);
        let hierarchy = file_hierarchy(&config, &scratch.join(format!("{name}.horam")));
        HOram::new(config, hierarchy, MasterKey::from_bytes([0xCB; 32]))
            .expect("large engine builds")
    }

    fn spot_payload(id: u64) -> Vec<u8> {
        let mut payload = vec![0u8; PAYLOAD_LEN];
        payload[..8].copy_from_slice(&id.to_le_bytes());
        payload
    }

    pub(super) fn run(quick: bool) -> Report {
        let requests = scaled(6_000, quick, 8);
        in_scratch("bench-capacity", |scratch| drive(scratch, requests))
    }

    fn drive(scratch: &Path, requests: usize) -> Report {
        // Leg 1 — parity at small N: the posmap mode is invisible on the
        // data ORAM (responses, timed bus trace, counters, clock).
        let trace = zipf_schedule(requests, SEED).requests();

        let mut flat = parity_engine(PosmapMode::Flat);
        let flat_responses = flat.run_batch(&trace).expect("flat parity run");
        let flat_trace = (flat.trace().len(), flat.trace().digest());
        let flat_stats = flat.stats();
        assert!(
            flat_stats.shuffles >= 1,
            "parity leg must cross a shuffle period"
        );

        let mut recursive = parity_engine(recursive_mode(None));
        let recursive_responses = recursive.run_batch(&trace).expect("recursive parity run");
        let recursive_trace = (recursive.trace().len(), recursive.trace().digest());

        let responses_match = recursive_responses == flat_responses;
        let trace_match = recursive_trace == flat_trace;
        let stats_match = recursive.stats() == flat_stats;
        let clock_match = recursive.clock().now() == flat.clock().now();
        let throughput_flat_rps = throughput(requests, since_start(flat.clock().now()));
        let throughput_recursive_rps = throughput(requests, since_start(recursive.clock().now()));
        let throughput_ratio = ratio(throughput_recursive_rps, throughput_flat_rps);
        let recursive_small_trusted_bytes = recursive.posmap().memory_bytes();

        // Leg 2 — a durable large engine: sweep, snapshot, restore.
        let ids: Vec<u64> = (0..LARGE_CAPACITY).step_by(LARGE_STRIDE).collect();
        let posmap_dir = scratch.join("posmap");
        let mut large = large_engine(scratch, "recursive", recursive_mode(Some(&posmap_dir)));
        let writes: Vec<Request> = ids
            .iter()
            .map(|&id| Request::write(id, spot_payload(id)))
            .collect();
        large.run_batch(&writes).expect("large writes");
        let reads: Vec<Request> = ids.iter().map(|&id| Request::read(id)).collect();
        let read_back = large.run_batch(&reads).expect("large reads");
        let large_roundtrip_ok = ids
            .iter()
            .zip(&read_back)
            .all(|(&id, got)| *got == spot_payload(id));
        let recursive_trusted_bytes = large.posmap().memory_bytes();
        let posmap_levels = large.posmap().level_views().len();
        let snapshot = large.snapshot().expect("large snapshot");
        let recursive_snapshot_bytes = snapshot.len();
        drop(large);

        // Restore from the snapshot + device files; re-read some blocks.
        let restore_hierarchy = file_hierarchy(
            &large_config(PosmapMode::Flat),
            &scratch.join("recursive.horam"),
        );
        let mut restored = HOram::restore(
            restore_hierarchy,
            MasterKey::from_bytes([0xCB; 32]),
            &snapshot,
        )
        .expect("large restore");
        let spot_checks: Vec<Request> = ids
            .iter()
            .step_by(16)
            .map(|&id| Request::read(id))
            .collect();
        let spot_responses = restored.run_batch(&spot_checks).expect("restored reads");
        let restore_roundtrip_ok = ids
            .iter()
            .step_by(16)
            .zip(&spot_responses)
            .all(|(&id, got)| *got == spot_payload(id));
        drop(restored);

        // The flat yardstick at the same N.
        let mut flat_large = large_engine(scratch, "flat", PosmapMode::Flat);
        flat_large.run_batch(&writes).expect("flat large writes");
        let flat_trusted_bytes = flat_large.posmap().memory_bytes();
        let flat_snapshot_bytes = flat_large.snapshot().expect("flat snapshot").len();
        drop(flat_large);

        let trusted_shrink = flat_trusted_bytes as f64 / recursive_trusted_bytes.max(1) as f64;
        let trusted_growth =
            recursive_trusted_bytes as f64 / recursive_small_trusted_bytes.max(1) as f64;
        let snapshot_shrink = flat_snapshot_bytes as f64 / recursive_snapshot_bytes.max(1) as f64;
        let failed = failures(&[
            ("responses_match", responses_match),
            ("trace_match", trace_match),
            ("stats_match", stats_match),
            ("clock_match", clock_match),
            ("throughput_ratio", throughput_ratio >= MIN_THROUGHPUT_RATIO),
            ("large_roundtrip_ok", large_roundtrip_ok),
            ("restore_roundtrip_ok", restore_roundtrip_ok),
            ("trusted_shrink", trusted_shrink >= MIN_TRUSTED_SHRINK),
            ("trusted_growth", trusted_growth <= MAX_TRUSTED_GROWTH),
            ("snapshot_shrink", snapshot_shrink >= MIN_SNAPSHOT_SHRINK),
        ]);
        Report::new(
            &Summary {
                bench: "capacity",
                requests,
                pass: failed.is_empty(),
                parity_capacity: CAPACITY,
                responses_match,
                trace_match,
                stats_match,
                clock_match,
                throughput_flat_rps,
                throughput_recursive_rps,
                throughput_ratio,
                min_throughput_ratio: MIN_THROUGHPUT_RATIO,
                large_capacity: LARGE_CAPACITY,
                capacity_factor: LARGE_CAPACITY as f64 / CAPACITY as f64,
                posmap_levels,
                large_roundtrip_ok,
                restore_roundtrip_ok,
                flat_trusted_bytes,
                recursive_trusted_bytes,
                trusted_shrink,
                min_trusted_shrink: MIN_TRUSTED_SHRINK,
                recursive_small_trusted_bytes,
                trusted_growth,
                max_trusted_growth: MAX_TRUSTED_GROWTH,
                flat_snapshot_bytes,
                recursive_snapshot_bytes,
                snapshot_shrink,
                min_snapshot_shrink: MIN_SNAPSHOT_SHRINK,
            },
            failed,
        )
    }
}

/// Four client processes over TCP must reach the host-scaled fraction of
/// in-process throughput with identical responses; then a server process
/// is SIGTERMed mid-load, and restoring its checkpoint and replaying the
/// shed writes must reach the uninterrupted run's state.
mod rpc {
    use super::*;
    use horam::crypto::persist::StateReader;
    use horam_rpc::server::{
        bind_signals_to_drain, run_server, Checkpoint, ServerConfig, ServerOutcome,
    };
    use horam_rpc::{status, ClientConfig, Endpoint, Listener, RpcClient, RpcError};
    use std::io::BufRead;
    use std::process::{Command, Stdio};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    const SEED: u64 = 0x59C0;
    /// Real client processes in the throughput phase, one per tenant.
    const CLIENTS: u32 = 4;
    const SHARDS: u64 = 4;
    /// Ops in flight per connection: under the per-tenant queue bound.
    const PIPELINE: usize = 200;
    /// Writes landed before the SIGTERM in the drain phase.
    const DRAIN_PREFIX: usize = 32;
    /// Writes racing the drain, in chunks of [`DRAIN_CHUNK`]: one
    /// pipelined batch would be admitted whole before SIGTERM lands.
    const DRAIN_SUFFIX: usize = 256;
    const DRAIN_CHUNK: usize = 8;

    /// Routes a re-exec of this binary into [`role_hook`].
    const ROLE_ENV: &str = "HORAM_RPC_BENCH_ROLE";
    const ENDPOINT_ENV: &str = "HORAM_RPC_BENCH_ENDPOINT";
    const CLIENT_ENV: &str = "HORAM_RPC_BENCH_CLIENT";
    const OPS_ENV: &str = "HORAM_RPC_BENCH_OPS";
    const CHECKPOINT_ENV: &str = "HORAM_RPC_BENCH_CHECKPOINT";

    /// RPC-vs-in-process throughput floor, host-scaled like the parallel
    /// bar: below 4 cores the client processes time-share the server's.
    fn min_ratio(cores: usize) -> f64 {
        if cores >= 4 {
            0.8
        } else if cores >= 2 {
            0.4
        } else {
            0.2
        }
    }

    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

    /// FNV-1a over the length prefix then the bytes, so response
    /// streams that differ only in framing hash differently.
    fn fnv_update(mut digest: u64, bytes: &[u8]) -> u64 {
        for byte in (bytes.len() as u64)
            .to_le_bytes()
            .into_iter()
            .chain(bytes.iter().copied())
        {
            digest ^= u64::from(byte);
            digest = digest.wrapping_mul(0x0100_0000_01b3);
        }
        digest
    }

    /// Write payload: a pure function of `(client, index)`.
    fn op_payload(client: u32, index: usize) -> Vec<u8> {
        let mut payload = vec![0u8; PAYLOAD_LEN];
        let tag = (u64::from(client) << 32) | index as u64;
        payload[..8].copy_from_slice(&tag.to_le_bytes());
        let mix = (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        payload[8..16].copy_from_slice(&mix.to_le_bytes());
        payload
    }

    /// Client `c`'s ops (one write in four) over its tenant's own block
    /// range, so interleaving across clients cannot change a response.
    fn client_ops(client: u32, count: usize) -> Vec<(u64, Option<Vec<u8>>)> {
        let span = CAPACITY / u64::from(CLIENTS);
        let base = u64::from(client) * span;
        (0..count)
            .map(|i| {
                let block = base + (i as u64).wrapping_mul(0x9E37_79B9) % span;
                let payload = (i % 4 == 0).then(|| op_payload(client, i));
                (block, payload)
            })
            .collect()
    }

    /// The master key of every side: it seals the engine and the drain
    /// checkpoint.
    fn master() -> MasterKey {
        MasterKey::from_bytes([0xEC; 32])
    }

    /// The service every side serves: gate, reference and server role.
    fn fresh_service(engine: Option<&[u8]>) -> OramService {
        let config = batched();
        let base = config
            .engine_config(HOramConfig::new(CAPACITY, PAYLOAD_LEN, MEMORY_SLOTS))
            .with_seed(SEED);
        let oram = match engine {
            Some(engine) => {
                let mut r = StateReader::new(engine);
                let oram =
                    ShardedOram::load_state(master(), |_| MemoryHierarchy::dac2019(), &mut r)
                        .expect("checkpoint restores");
                r.finish().expect("nothing follows the engine body");
                oram
            }
            None => sharded(base, SHARDS, 0xEC),
        };
        let mut service = OramService::new(oram, Box::new(FifoPolicy), config);
        let span = CAPACITY / u64::from(CLIENTS);
        for tenant in 0..CLIENTS {
            let start = u64::from(tenant) * span;
            service.register_tenant(UserId(tenant), start..start + span, Permission::ReadWrite);
        }
        service
    }

    fn server_config() -> ServerConfig {
        ServerConfig {
            // Four pipelined clients never trip backpressure.
            max_inflight: 4096,
            dedup_window: 8192,
            ..ServerConfig::default()
        }
    }

    /// An in-process server thread; only the SIGTERM victim is a child.
    struct GateServer {
        endpoint: Endpoint,
        drain: Arc<AtomicBool>,
        join: std::thread::JoinHandle<ServerOutcome>,
    }

    fn spawn_server(service: OramService, config: ServerConfig, endpoint: &Endpoint) -> GateServer {
        let listener = Listener::bind(endpoint).expect("gate server binds");
        let endpoint = listener.local_endpoint().expect("local endpoint");
        let drain = Arc::clone(&config.drain);
        let join = std::thread::spawn(move || {
            let mut service = service;
            run_server(&mut service, &listener, &config).expect("gate server drains")
        });
        GateServer {
            endpoint,
            drain,
            join,
        }
    }

    impl GateServer {
        fn drain_join(self) -> ServerOutcome {
            self.drain.store(true, Ordering::Release);
            self.join.join().expect("gate server thread")
        }
    }

    fn gate_client(endpoint: &Endpoint, client_id: u64, tenant: u32) -> RpcClient {
        let mut config = ClientConfig::new(endpoint.clone(), client_id, tenant);
        config.call_deadline = Duration::from_secs(120);
        config.resend_after = Duration::from_secs(2);
        config.backoff = Duration::from_millis(2);
        config.max_redials = 200;
        RpcClient::new(config)
    }

    /// Runs this process as a gate worker, if it is one, and exits.
    pub(super) fn role_hook() {
        match std::env::var(ROLE_ENV).ok().as_deref() {
            None => {}
            Some("client") => run_client_role(),
            Some("server") => run_server_role(),
            Some(other) => {
                eprintln!("unknown {ROLE_ENV} role {other:?}");
                std::process::exit(2);
            }
        }
    }

    fn role_env(name: &str) -> String {
        std::env::var(name).unwrap_or_else(|_| panic!("{name} must be set for the worker role"))
    }

    /// The client role: run the op stream, print ops, ms and digest.
    fn run_client_role() -> ! {
        let endpoint = Endpoint::parse(&role_env(ENDPOINT_ENV)).expect("role endpoint parses");
        let client_index: u32 = role_env(CLIENT_ENV).parse().expect("client index parses");
        let count: usize = role_env(OPS_ENV).parse().expect("op count parses");
        let ops = client_ops(client_index, count);
        let mut client = gate_client(&endpoint, 1_000 + u64::from(client_index), client_index);
        let mut digest = FNV_OFFSET;
        let ((), elapsed_ms) = timed(|| {
            for chunk in ops.chunks(PIPELINE) {
                let outcomes = client.call_many(chunk.to_vec()).expect("batch transport");
                for outcome in outcomes {
                    digest = fnv_update(digest, &outcome.expect("op serves"));
                }
            }
        });
        println!("RESULT {count} {elapsed_ms:.3} {digest:016x}");
        std::process::exit(0);
    }

    /// The server role, the SIGTERM victim: serve, drain, checkpoint.
    fn run_server_role() -> ! {
        let endpoint = Endpoint::parse(&role_env(ENDPOINT_ENV)).expect("role endpoint parses");
        let checkpoint_path = std::path::PathBuf::from(role_env(CHECKPOINT_ENV));
        let mut service = fresh_service(None);
        let drain = Arc::new(AtomicBool::new(false));
        bind_signals_to_drain(Arc::clone(&drain));
        let config = ServerConfig {
            drain,
            ..server_config()
        };
        let listener = Listener::bind(&endpoint).expect("role server binds");
        println!("READY");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        let outcome = run_server(&mut service, &listener, &config).expect("role server drains");
        std::fs::write(&checkpoint_path, outcome.checkpoint.to_bytes(&master()))
            .expect("checkpoint file writes");
        if let Endpoint::Unix(path) = &endpoint {
            let _ = std::fs::remove_file(path);
        }
        std::process::exit(0);
    }

    json_struct! {
        struct ClientRow {
            client: u32,
            ops: usize,
            /// Host wall clock of the op loop inside the client process.
            elapsed_ms: f64,
            digest: String,
            matches_reference: bool,
        }

        struct Summary {
            bench: &'static str,
            clients: u32,
            ops_per_client: usize,
            pipeline: usize,
            available_parallelism: usize,
            /// Host wall-clock rates: outside the trend file.
            in_process_rps: f64,
            rpc_rps: f64,
            throughput_ratio: f64,
            min_ratio: f64,
            digests_match: bool,
            served: u64,
            connections: u64,
            rows: Vec<ClientRow>,
            drain_writes: usize,
            landed_before_exit: usize,
            suffix_shed_typed: bool,
            drain_exit_ok: bool,
            checkpoint_bytes: usize,
            window_entries: usize,
            restored_epoch: u64,
            epoch_visible: bool,
            replayed: usize,
            state_match: bool,
            pass: bool,
        }
    }

    pub(super) fn run(quick: bool) -> Report {
        let ops_per_client = scaled(1_200, quick, 4);
        in_scratch("bench-rpc", |scratch| drive(scratch, ops_per_client))
    }

    fn drive(scratch: &Path, ops_per_client: usize) -> Report {
        let cores = host_cores();
        let threshold = min_ratio(cores);
        // Phase 1 — N real client processes vs the in-process service.
        let server = spawn_server(
            fresh_service(None),
            server_config(),
            &Endpoint::Tcp("127.0.0.1:0".into()),
        );
        let exe = std::env::current_exe().expect("current exe");
        let children: Vec<_> = (0..CLIENTS)
            .map(|client| {
                Command::new(&exe)
                    .env(ROLE_ENV, "client")
                    .env(ENDPOINT_ENV, server.endpoint.to_string())
                    .env(CLIENT_ENV, client.to_string())
                    .env(OPS_ENV, ops_per_client.to_string())
                    .stdout(Stdio::piped())
                    .stderr(Stdio::inherit())
                    .spawn()
                    .expect("client process spawns")
            })
            .collect();

        let mut measured: Vec<(usize, f64, u64)> = Vec::new();
        for child in children {
            let output = child.wait_with_output().expect("client process runs");
            assert!(
                output.status.success(),
                "client process failed: {:?}",
                output.status
            );
            let stdout = String::from_utf8_lossy(&output.stdout);
            let line = stdout
                .lines()
                .rev()
                .find(|line| line.starts_with("RESULT "))
                .unwrap_or_else(|| panic!("no RESULT line in {stdout:?}"));
            let fields: Vec<&str> = line.split_whitespace().skip(1).collect();
            let [ops, elapsed_ms, digest] = fields[..] else {
                panic!("malformed {line:?}")
            };
            let ops: usize = ops.parse().expect("ops");
            let elapsed_ms: f64 = elapsed_ms.parse().expect("elapsed");
            let digest = u64::from_str_radix(digest, 16).expect("digest");
            measured.push((ops, elapsed_ms, digest));
        }
        let outcome = server.drain_join();

        // In-process yardstick: the identical four streams through an
        // identical service, no sockets, same pipelining depth.
        let mut service = fresh_service(None);
        let (reference_digests, in_process_ms) = timed(|| {
            (0..CLIENTS)
                .map(|client| {
                    let mut digest = FNV_OFFSET;
                    for chunk in client_ops(client, ops_per_client).chunks(PIPELINE) {
                        let tickets: Vec<_> = chunk
                            .iter()
                            .map(|(block, payload)| {
                                let request = match payload {
                                    Some(bytes) => Request::write(*block, bytes.clone()),
                                    None => Request::read(*block),
                                };
                                service
                                    .submit(UserId(client), request)
                                    .expect("reference submit")
                            })
                            .collect();
                        for ticket in tickets {
                            let response = service
                                .take_result_timeout(ticket, 1_000_000)
                                .expect("reference serves");
                            digest = fnv_update(digest, &response);
                        }
                    }
                    digest
                })
                .collect::<Vec<u64>>()
        });

        let total_ops = ops_per_client * CLIENTS as usize;
        let rpc_ms = measured.iter().map(|(_, ms, _)| *ms).fold(0.0f64, f64::max);
        let rpc_rps = total_ops as f64 / (rpc_ms / 1e3).max(f64::MIN_POSITIVE);
        let in_process_rps = total_ops as f64 / (in_process_ms / 1e3).max(f64::MIN_POSITIVE);
        let ratio = rpc_rps / in_process_rps.max(f64::MIN_POSITIVE);

        let rows: Vec<ClientRow> = measured
            .iter()
            .enumerate()
            .map(|(i, (ops, elapsed_ms, digest))| ClientRow {
                client: i as u32,
                ops: *ops,
                elapsed_ms: *elapsed_ms,
                digest: format!("{digest:016x}"),
                matches_reference: *digest == reference_digests[i],
            })
            .collect();
        let digests_match = rows.iter().all(|row| row.matches_reference);

        // Phase 2 — SIGTERM a real server process mid-load, then
        // restore its checkpoint and replay what the drain shed.
        let sock = scratch.join("drain.sock");
        let ckpt_path = scratch.join("drain.ckpt");
        let mut child = Command::new(&exe)
            .env(ROLE_ENV, "server")
            .env(ENDPOINT_ENV, format!("unix://{}", sock.display()))
            .env(CHECKPOINT_ENV, &ckpt_path)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("server process spawns");
        {
            let stdout = child.stdout.as_mut().expect("server stdout");
            let mut line = String::new();
            std::io::BufReader::new(stdout)
                .read_line(&mut line)
                .expect("server READY line");
            assert!(line.starts_with("READY"), "server role said {line:?}");
        }

        let span = CAPACITY / u64::from(CLIENTS);
        let drain_ops: Vec<(u64, Option<Vec<u8>>)> = (0..DRAIN_PREFIX + DRAIN_SUFFIX)
            .map(|i| ((i as u64).wrapping_mul(13) % span, Some(op_payload(9, i))))
            .collect();
        let mut pusher = gate_client(&Endpoint::Unix(sock.clone()), 9_000, 0);
        for op in pusher
            .call_many(drain_ops[..DRAIN_PREFIX].to_vec())
            .expect("pre-drain batch")
        {
            op.expect("pre-drain write lands");
        }

        let kill = Command::new("kill")
            .args(["-TERM", &child.id().to_string()])
            .status()
            .expect("kill spawns");
        assert!(kill.success(), "kill -TERM failed");
        // Drain is monotonic and admission FIFO per connection: a prefix
        // lands, the rest sheds with SHUTTING_DOWN or joins the replay.
        let mut landed_suffix = 0usize;
        let mut suffix_shed_typed = true;
        'racing: for chunk in drain_ops[DRAIN_PREFIX..].chunks(DRAIN_CHUNK) {
            match pusher.call_many(chunk.to_vec()) {
                Ok(outcomes) => {
                    let mut seen_shed = false;
                    for op in outcomes {
                        match op {
                            Ok(_) if !seen_shed => landed_suffix += 1,
                            Ok(_) => suffix_shed_typed = false,
                            Err(RpcError::Status { code, .. }) if code == status::SHUTTING_DOWN => {
                                seen_shed = true;
                            }
                            Err(_) => suffix_shed_typed = false,
                        }
                    }
                    if seen_shed {
                        break 'racing;
                    }
                }
                // The server exited under this chunk: replay all of it.
                Err(_) => break 'racing,
            }
        }

        let drain_exit_ok = child.wait().expect("server role exits").success();
        let ckpt_bytes = std::fs::read(&ckpt_path).expect("checkpoint file");
        let checkpoint = Checkpoint::from_bytes(&master(), &ckpt_bytes).expect("checkpoint parses");
        let window_entries = checkpoint.window.len();

        let restored_epoch = checkpoint.epoch + 1;
        let restored = spawn_server(
            fresh_service(Some(&checkpoint.engine)),
            ServerConfig {
                epoch: restored_epoch,
                preload_window: checkpoint.window,
                ..server_config()
            },
            &Endpoint::Unix(scratch.join("restart.sock")),
        );
        let mut replayer = gate_client(&restored.endpoint, 9_001, 0);
        let landed = DRAIN_PREFIX + landed_suffix;
        let replay = drain_ops[landed..].to_vec();
        let replayed = replay.len();
        if !replay.is_empty() {
            for op in replayer.call_many(replay).expect("replay batch") {
                op.expect("replayed write lands");
            }
        }

        // Last-write-wins oracle: the uninterrupted run's final state.
        let expected: std::collections::BTreeMap<u64, &Option<Vec<u8>>> = drain_ops
            .iter()
            .map(|(block, payload)| (*block, payload))
            .collect();
        let mut state_match = true;
        for (block, payload) in expected {
            let got = replayer.read(block).expect("post-restore read-back");
            state_match &= Some(got) == *payload;
        }
        let epoch_visible = replayer.epoch() == Some(restored_epoch);
        restored.drain_join();

        let failed = failures(&[
            ("digests_match", digests_match),
            ("throughput_ratio", ratio >= threshold),
            ("drain_exit_ok", drain_exit_ok),
            ("suffix_shed_typed", suffix_shed_typed),
            ("state_match", state_match),
            ("epoch_visible", epoch_visible),
        ]);
        Report::new(
            &Summary {
                bench: "rpc",
                clients: CLIENTS,
                ops_per_client,
                pipeline: PIPELINE,
                available_parallelism: cores,
                in_process_rps,
                rpc_rps,
                throughput_ratio: ratio,
                min_ratio: threshold,
                digests_match,
                served: outcome.counters.served,
                connections: outcome.counters.connections,
                rows,
                drain_writes: drain_ops.len(),
                landed_before_exit: landed,
                suffix_shed_typed,
                drain_exit_ok,
                checkpoint_bytes: ckpt_bytes.len(),
                window_entries,
                restored_epoch,
                epoch_visible,
                replayed,
                state_match,
                pass: failed.is_empty(),
            },
            failed,
        )
    }
}

/// Re-exec hook for the rpc gate's worker processes: `suite` calls it
/// first, and a worker runs its role and exits.
pub fn rpc_role_hook() {
    rpc::role_hook();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    const BASELINE: &str = include_str!("../../../BENCH_baseline.json");

    fn parse(json: &str) -> Value {
        json::parse(json).expect("suite report parses")
    }

    #[test]
    fn gate_rows_and_trend_keys_match_the_committed_baseline() {
        let baseline = parse(BASELINE);
        let entries = baseline
            .field("gates")
            .and_then(Value::as_seq)
            .expect("gates");
        let mut expected = BTreeSet::new();
        for gate in GATES {
            let report = entries
                .iter()
                .find(|entry| entry.field("gate").and_then(Value::as_str) == Some(gate.name))
                .unwrap_or_else(|| panic!("gate {} has no baseline entry", gate.name))
                .field("report")
                .expect("report");
            for key in gate.trend {
                let Some((seq, key)) = key.split_once("[].") else {
                    expected.insert(format!("{}.{key}", gate.name));
                    continue;
                };
                let rows = report.field(seq).and_then(Value::as_seq).expect(seq);
                assert!(!rows.is_empty(), "{}.{seq} has no rows", gate.name);
                for row in rows {
                    expected.insert(format!("{}.{}.{key}", gate.name, label(row)));
                }
            }
        }
        let tracked: BTreeSet<String> = trend_metrics(&baseline)
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        assert_eq!(tracked, expected);
    }

    #[test]
    fn baseline_diff_flags_regressions_and_missing_metrics() {
        let baseline = parse(BASELINE);
        assert!(baseline_regressions(&baseline, &baseline, 0.25).is_empty());
        // The file's first `io_speedup` is io_pipeline's zipf-hit-bound row.
        let at = BASELINE.find("\"io_speedup\": ").expect("io_speedup") + 14;
        let end = at + BASELINE[at..].find(',').expect("number ends");
        let base: f64 = BASELINE[at..end].parse().expect("io_speedup is a number");
        let with = |v: f64| parse(&format!("{}{v}{}", &BASELINE[..at], &BASELINE[end..]));
        // Within tolerance (20 % below, floor is 25 % below): clean.
        assert!(baseline_regressions(&with(0.8 * base), &baseline, 0.25).is_empty());
        // Just under the floor trips.
        assert_eq!(
            baseline_regressions(&with(0.74 * base), &baseline, 0.25).len(),
            1
        );
        let regressions = baseline_regressions(&with(0.1), &baseline, 0.25);
        assert_eq!(
            regressions.len(),
            1,
            "only io_pipeline.zipf-hit-bound.io_speedup: {regressions:?}"
        );
        assert!(regressions[0].starts_with("io_pipeline.zipf-hit-bound.io_speedup regressed"));
        // A gate missing from the fresh report trips too.
        let (empty, _) = merge_outcomes(&[]);
        let regressions = baseline_regressions(&empty, &baseline, 0.25);
        assert!(regressions
            .iter()
            .any(|r| r.contains("sharding.io_speedup missing")));
    }
}
