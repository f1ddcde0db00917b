//! The CI bench gates — serving, I/O pipeline, sharding, wall-clock
//! parallel engine, durability/recovery, oblivious block cache,
//! fault-injection chaos, recursive-posmap capacity, network serving — as
//! library functions.
//!
//! Each gate runs a deterministic simulated experiment, prints the
//! human-readable comparison table, and returns a [`GateOutcome`]: a
//! machine-readable report (a `serde` value tree, serialized to JSON by
//! the binaries) plus the pass/fail verdict CI keys on. The per-gate
//! binaries (`serving_throughput`, `io_pipeline`, `sharding`,
//! `parallel`, `persistence`) are thin wrappers over these functions;
//! the consolidated `suite` binary runs all of them, merges their reports
//! into one `BENCH.json` artifact, and (with `--baseline`) diffs the
//! deterministic throughput ratios against the committed
//! `BENCH_baseline.json` ([`baseline_regressions`]), so CI has a single
//! gate step and a single trend file. The `parallel` and `persistence`
//! gates are the ones measuring *host* wall-clock time (`Instant`);
//! everything else stays on the simulated clock.

use crate::BenchArgs;
use horam::analysis::table::Table;
use horam::core::shard::{ShardedConfig, ShardedOram};
use horam::core::{Permission, UserId};
use horam::prelude::*;
use horam::workload::{SequentialWorkload, TenantSchedule, WorkloadGenerator, ZipfWorkload};
use horam_server::{AdmissionPolicy, FairSharePolicy, FifoPolicy, OramService, ServiceConfig};
use serde::{Serialize, Value};
use std::time::Instant;

/// One gate's verdict and machine-readable report.
#[derive(Debug, Clone)]
pub struct GateOutcome {
    /// Gate identifier (`serving`, `io_pipeline`, `sharding`).
    pub name: &'static str,
    /// Whether the gate's regression threshold held.
    pub pass: bool,
    /// The full report, ready for JSON serialization.
    pub report: Value,
}

/// Merges gate outcomes into the consolidated suite report: one JSON
/// object with the overall verdict and every gate's report under its
/// name. Returns the report and whether every gate passed.
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
pub fn write_report(path: &std::path::Path, report: &Value) {
    let json = serde_json::to_string_pretty(report).expect("serializes");
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("writes {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

/// Runs one gate binary's standard main: gate, report file, exit code.
///
/// Parses the shared [`BenchArgs`] flags (`--quick`, `--out`); exits
/// nonzero when the gate fails, after writing the report either way.
pub fn gate_main(default_out: &str, gate: impl FnOnce(bool) -> GateOutcome) -> ! {
    let args = BenchArgs::parse();
    let outcome = gate(args.quick);
    write_report(&args.out_or(default_out), &outcome.report);
    std::process::exit(if outcome.pass { 0 } else { 1 });
}

/// The deterministic trend metrics of a merged suite report: the
/// simulated-time throughput ratios each gate computes. These are pure
/// functions of the simulation (no host wall-clock enters them), so a
/// fresh run on any machine must reproduce the committed baseline within
/// noise-free equality — the trend job fails on >25 % regression.
pub fn trend_metrics(suite_report: &Value) -> Vec<(String, f64)> {
    fn ratio(value: &Value) -> Option<f64> {
        match value {
            Value::Num(serde::Number::F(f)) => Some(*f),
            Value::Num(serde::Number::U(u)) => Some(*u as f64),
            Value::Num(serde::Number::I(i)) => Some(*i as f64),
            _ => None,
        }
    }
    let mut metrics = Vec::new();
    let Ok(gates) = suite_report.field("gates").and_then(Value::as_seq) else {
        return metrics;
    };
    for gate in gates {
        let Ok(name) = gate.field("gate").and_then(Value::as_str) else {
            continue;
        };
        let Ok(report) = gate.field("report") else {
            continue;
        };
        let keys: &[&str] = match name {
            "serving" => &["vs_sequential", "vs_per_request"],
            "sharding" => &["io_speedup", "wall_speedup"],
            "cache" => &["io_speedup"],
            "chaos" => &["throughput_ratio"],
            "capacity" => &["throughput_ratio", "trusted_shrink", "snapshot_shrink"],
            // `parallel` measures host wall-clock; `persistence` gates on
            // equality, not a ratio — neither belongs in the trend file.
            _ => &[],
        };
        for key in keys {
            if let Some(v) = report.field(key).ok().and_then(ratio) {
                metrics.push((format!("{name}.{key}"), v));
            }
        }
        // The io_pipeline report nests its ratios per workload row; track
        // every row's pair under `io_pipeline.<workload>.<key>`.
        if name == "io_pipeline" {
            let rows = report
                .field("workloads")
                .and_then(Value::as_seq)
                .unwrap_or(&[]);
            for row in rows {
                let Ok(workload) = row.field("workload").and_then(Value::as_str) else {
                    continue;
                };
                for key in ["io_speedup", "wall_speedup"] {
                    if let Some(v) = row.field(key).ok().and_then(ratio) {
                        metrics.push((format!("{name}.{workload}.{key}"), v));
                    }
                }
            }
        }
    }
    metrics
}

/// Diffs a fresh suite report against a committed baseline: any tracked
/// throughput ratio that fell below `(1 - tolerance)` of its baseline
/// value is a regression. Metrics present in only one report are
/// reported too (a silently vanished gate is a regression of the CI
/// itself).
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
const CAPACITY: u64 = 4096;
const MEMORY_SLOTS: u64 = 1024;
const PAYLOAD_LEN: usize = 16;
const TENANTS: u32 = 8;
const BATCH_SIZE: usize = 128;
const ZIPF_EXPONENT: f64 = 1.2;
const WRITE_RATIO: f64 = 0.2;

/// The shared multi-tenant arrival sequence: `requests` Zipf draws dealt
/// round-robin across the tenants.
fn zipf_schedule(requests: usize, seed: u64) -> TenantSchedule {
    let mut generator =
        ZipfWorkload::new(CAPACITY, ZIPF_EXPONENT, WRITE_RATIO, seed).with_payload_len(PAYLOAD_LEN);
    TenantSchedule::shard(
        format!("zipf(α={ZIPF_EXPONENT})×{TENANTS} tenants"),
        &mut generator,
        TENANTS,
        requests,
    )
}

fn throughput(requests: usize, wall: SimDuration) -> f64 {
    let secs = wall.as_secs_f64();
    if secs > 0.0 {
        requests as f64 / secs
    } else {
        0.0
    }
}

// ------------------------------------------------------------- serving

mod serving {
    use super::*;

    const SEED: u64 = 0x5e57;

    #[derive(Debug, Clone, Serialize)]
    struct ModeRow {
        mode: String,
        sim_wall_us: f64,
        /// Host-side wall clock of the mode's run, ms (`Instant`-based).
        wall_ms: f64,
        throughput_rps: f64,
        oram_requests: u64,
        deduped: u64,
        /// Submission-to-completion latency; `null` for the two modes with
        /// no server (nothing queues, so there is no latency to report).
        mean_latency_us: Option<f64>,
        worst_tenant_latency_us: Option<f64>,
    }

    #[derive(Debug, Serialize)]
    struct Report {
        bench: &'static str,
        requests: usize,
        tenants: u32,
        batch_size: usize,
        pass: bool,
        /// fair-share server throughput over sequential `run_batch`.
        vs_sequential: f64,
        /// fair-share server throughput over per-request callers.
        vs_per_request: f64,
        modes: Vec<ModeRow>,
    }

    /// Every mode runs the same engine — one shard, a single instance
    /// behind the router — so the gate compares ways of serving, not
    /// engines.
    fn fresh_oram() -> ShardedOram {
        let config = HOramConfig::new(CAPACITY, PAYLOAD_LEN, MEMORY_SLOTS).with_seed(SEED);
        ShardedOram::new(
            ShardedConfig::new(config, 1),
            MasterKey::from_bytes([0xA5; 32]),
            |_| MemoryHierarchy::dac2019(),
        )
        .expect("builds")
    }

    /// One blocking caller: submit, drain, repeat.
    fn run_per_request(requests: &[Request]) -> (SimDuration, f64) {
        let mut oram = fresh_oram();
        let started = Instant::now();
        for request in requests {
            oram.run_batch(std::slice::from_ref(request)).expect("runs");
        }
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        (oram.stats().total_wall_time(), wall_ms)
    }

    /// The paper's evaluation mode: the whole trace as one batch.
    fn run_sequential_batch(requests: &[Request]) -> (SimDuration, f64) {
        let mut oram = fresh_oram();
        let started = Instant::now();
        oram.run_batch(requests).expect("runs");
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        (oram.stats().total_wall_time(), wall_ms)
    }

    struct ServerRun {
        wall: SimDuration,
        wall_ms: f64,
        deduped: u64,
        oram_requests: u64,
        mean_latency: SimDuration,
        worst_tenant_latency: SimDuration,
    }

    fn run_server(schedule: &TenantSchedule, policy: Box<dyn AdmissionPolicy>) -> ServerRun {
        let mut service = OramService::new(
            fresh_oram(),
            policy,
            ServiceConfig {
                batch_size: BATCH_SIZE,
                ..ServiceConfig::default()
            },
        );
        for tenant in schedule.tenants() {
            service.register_tenant(UserId(tenant), 0..CAPACITY, Permission::ReadWrite);
        }
        let arrivals = schedule
            .arrivals
            .iter()
            .map(|arrival| (UserId(arrival.tenant), arrival.request.clone()));
        let started = Instant::now();
        let (_tickets, _report) = service.serve_all(arrivals).expect("serves");
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;

        let mut latency_sum = SimDuration::ZERO;
        let mut completed = 0u64;
        let mut worst = SimDuration::ZERO;
        for tenant in schedule.tenants() {
            let stats = service.tenant_stats(UserId(tenant)).expect("registered");
            latency_sum += stats.latency_total;
            completed += stats.completed;
            worst = worst.max(stats.mean_latency());
        }
        ServerRun {
            wall: service.oram().stats().total_wall_time(),
            wall_ms,
            deduped: service.stats().deduped,
            oram_requests: service.stats().oram.requests,
            mean_latency: if completed == 0 {
                SimDuration::ZERO
            } else {
                latency_sum / completed
            },
            worst_tenant_latency: worst,
        }
    }

    pub(super) fn gate(quick: bool) -> GateOutcome {
        let mut requests = 6_000usize;
        if quick {
            requests /= 8;
            println!("(--quick: scaled to 1/8)\n");
        }
        let schedule = zipf_schedule(requests, SEED);
        let flat = schedule.to_trace();

        println!(
            "Serving-layer throughput — {CAPACITY} blocks, {MEMORY_SLOTS} memory slots, \
             {TENANTS} tenants, batch {BATCH_SIZE}, {} requests ({})\n",
            requests, schedule.label
        );

        let (per_request_wall, per_request_ms) = run_per_request(&flat.requests);
        let (sequential_wall, sequential_ms) = run_sequential_batch(&flat.requests);
        let mut modes = vec![
            ModeRow {
                mode: "per-request (sync caller)".into(),
                sim_wall_us: per_request_wall.as_micros_f64(),
                wall_ms: per_request_ms,
                throughput_rps: throughput(requests, per_request_wall),
                oram_requests: requests as u64,
                deduped: 0,
                mean_latency_us: None,
                worst_tenant_latency_us: None,
            },
            ModeRow {
                mode: "sequential run_batch".into(),
                sim_wall_us: sequential_wall.as_micros_f64(),
                wall_ms: sequential_ms,
                throughput_rps: throughput(requests, sequential_wall),
                oram_requests: requests as u64,
                deduped: 0,
                mean_latency_us: None,
                worst_tenant_latency_us: None,
            },
        ];

        let mut table = Table::new(vec![
            "mode",
            "wall time",
            "throughput (req/s)",
            "oram reqs",
            "deduped",
            "mean latency",
            "worst tenant",
        ]);
        table.row(vec![
            "per-request (sync caller)".into(),
            per_request_wall.to_string(),
            format!("{:.0}", throughput(requests, per_request_wall)),
            requests.to_string(),
            "-".into(),
            "-".into(),
            "-".into(),
        ]);
        table.row(vec![
            "sequential run_batch".into(),
            sequential_wall.to_string(),
            format!("{:.0}", throughput(requests, sequential_wall)),
            requests.to_string(),
            "-".into(),
            "-".into(),
            "-".into(),
        ]);

        let mut batched_wall = None;
        for policy in [
            Box::new(FifoPolicy) as Box<dyn AdmissionPolicy>,
            Box::new(FairSharePolicy::default()),
        ] {
            let name = policy.name();
            let run = run_server(&schedule, policy);
            if name == "fair-share" {
                batched_wall = Some(run.wall);
            }
            table.row(vec![
                format!("server ({name})"),
                run.wall.to_string(),
                format!("{:.0}", throughput(requests, run.wall)),
                run.oram_requests.to_string(),
                run.deduped.to_string(),
                run.mean_latency.to_string(),
                run.worst_tenant_latency.to_string(),
            ]);
            modes.push(ModeRow {
                mode: format!("server ({name})"),
                sim_wall_us: run.wall.as_micros_f64(),
                wall_ms: run.wall_ms,
                throughput_rps: throughput(requests, run.wall),
                oram_requests: run.oram_requests,
                deduped: run.deduped,
                mean_latency_us: Some(run.mean_latency.as_micros_f64()),
                worst_tenant_latency_us: Some(run.worst_tenant_latency.as_micros_f64()),
            });
        }
        println!("{table}");

        let batched_wall = batched_wall.expect("fair-share run present");
        let vs_sequential =
            throughput(requests, batched_wall) / throughput(requests, sequential_wall).max(1e-9);
        let vs_per_request =
            throughput(requests, batched_wall) / throughput(requests, per_request_wall).max(1e-9);
        println!("batched server (fair-share) vs sequential run_batch: {vs_sequential:.2}x");
        println!("batched server (fair-share) vs per-request callers:  {vs_per_request:.2}x");
        let pass = vs_sequential >= 1.0;
        if pass {
            println!(
                "OK: batched serving >= sequential run_batch (dedup of the shared hot set).\n"
            );
        } else {
            println!("REGRESSION: batched serving fell below sequential run_batch.\n");
        }

        let report = Report {
            bench: "serving",
            requests,
            tenants: TENANTS,
            batch_size: BATCH_SIZE,
            pass,
            vs_sequential,
            vs_per_request,
            modes,
        };
        GateOutcome {
            name: "serving",
            pass,
            report: report.to_value(),
        }
    }
}

/// The serving-layer gate: the batched multi-tenant server must meet or
/// beat sequential `run_batch` on the shared-hot-set Zipf schedule.
pub fn serving_gate(quick: bool) -> GateOutcome {
    serving::gate(quick)
}

// --------------------------------------------------------- io_pipeline

mod io_pipeline {
    use super::*;

    const IO_BATCH: u64 = 32;
    const SEED: u64 = 0x10b1;
    const MIN_IO_SPEEDUP: f64 = 1.5;

    #[derive(Debug, Clone, Copy, Serialize)]
    struct ModeRow {
        mode: &'static str,
        io_batch: u64,
        /// Simulated storage occupancy of the access periods' loads, µs.
        sim_io_us: f64,
        /// Mean simulated latency per I/O load, µs.
        mean_io_latency_us: f64,
        /// Simulated end-to-end wall time (access + shuffle), µs.
        sim_wall_us: f64,
        /// Host-side wall clock of the run, ms.
        host_ms: f64,
    }

    #[derive(Debug, Serialize)]
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

    #[derive(Debug, Serialize)]
    struct Report {
        bench: &'static str,
        gate_workload: &'static str,
        min_io_speedup: f64,
        pass: bool,
        workloads: Vec<WorkloadReport>,
    }

    fn run_mode(
        mode: &'static str,
        io_batch: u64,
        requests: &[Request],
    ) -> (ModeRow, Vec<Vec<u8>>) {
        let config = HOramConfig::new(CAPACITY, PAYLOAD_LEN, MEMORY_SLOTS)
            .with_seed(SEED)
            .with_io_batch(io_batch);
        let mut oram = HOram::new(
            config,
            MemoryHierarchy::dac2019(),
            MasterKey::from_bytes([0xC7; 32]),
        )
        .expect("builds");
        let started = Instant::now();
        let responses = oram.run_batch(requests).expect("runs");
        let host_ms = started.elapsed().as_secs_f64() * 1e3;
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

    pub(super) fn gate(quick: bool) -> GateOutcome {
        let mut requests = 6_000usize;
        if quick {
            requests /= 4;
            println!("(--quick: scaled to 1/4)\n");
        }
        println!(
            "I/O pipeline ablation — {CAPACITY} blocks, {MEMORY_SLOTS} memory slots, \
             window {IO_BATCH}, {requests} requests per workload\n"
        );

        let zipf_trace = ZipfWorkload::new(CAPACITY, ZIPF_EXPONENT, WRITE_RATIO, SEED)
            .with_payload_len(PAYLOAD_LEN)
            .generate(requests);
        let scan_trace = SequentialWorkload::new(CAPACITY).generate(requests);
        let reports = vec![
            run_workload("zipf-hit-bound", zipf_trace),
            run_workload("sequential-scan", scan_trace),
        ];

        for report in &reports {
            let mut table = Table::new(vec![
                "mode",
                "sim I/O time",
                "mean load",
                "sim wall",
                "host time",
            ]);
            for row in &report.modes {
                table.row(vec![
                    row.mode.into(),
                    format!("{:.1} ms", row.sim_io_us / 1e3),
                    format!("{:.1} µs", row.mean_io_latency_us),
                    format!("{:.1} ms", row.sim_wall_us / 1e3),
                    format!("{:.1} ms", row.host_ms),
                ]);
            }
            println!(
                "workload: {} ({} requests)",
                report.workload, report.requests
            );
            println!("{table}");
            println!(
                "  sim I/O speedup (per-block / batched): {:.2}x   wall: {:.2}x   \
                 responses match: {}\n",
                report.io_speedup, report.wall_speedup, report.responses_match
            );
        }

        let gate = &reports[0];
        let pass = gate.io_speedup >= MIN_IO_SPEEDUP && reports.iter().all(|r| r.responses_match);
        if pass {
            println!(
                "OK: batched >= {MIN_IO_SPEEDUP}x simulated I/O speedup on the hit-bound \
                 Zipf workload, responses identical across modes.\n"
            );
        } else {
            println!("REGRESSION: pipeline gate failed.\n");
        }
        let report = Report {
            bench: "io_pipeline",
            gate_workload: gate.workload,
            min_io_speedup: MIN_IO_SPEEDUP,
            pass,
            workloads: reports,
        };
        GateOutcome {
            name: "io_pipeline",
            pass,
            report: report.to_value(),
        }
    }
}

/// The I/O-pipeline gate: the batched window must keep ≥ 1.5× simulated
/// I/O speedup over the per-block path, with byte-identical responses.
pub fn io_pipeline_gate(quick: bool) -> GateOutcome {
    io_pipeline::gate(quick)
}

// ------------------------------------------------------------ sharding

mod sharding {
    use super::*;

    const SEED: u64 = 0x54a6d;
    const SHARD_COUNTS: [u64; 4] = [1, 2, 4, 8];
    const GATE_SHARDS: u64 = 4;
    const MIN_IO_SPEEDUP: f64 = 2.5;

    #[derive(Debug, Clone, Serialize)]
    struct ShardRow {
        shards: u64,
        /// Concurrent simulated I/O time: the busiest shard's storage
        /// occupancy during access periods, µs (shards overlap).
        sim_io_us: f64,
        /// Elapsed simulated wall time on the shared clock, µs.
        sim_wall_us: f64,
        /// Requests per second of concurrent simulated I/O time.
        io_throughput_rps: f64,
        /// Requests per second of elapsed simulated wall time.
        wall_throughput_rps: f64,
        /// Busiest shard's request share over the ideal 1/shards share.
        balance: f64,
        /// Reads served by batch dedup instead of their own ORAM access.
        deduped: u64,
        /// Host-side wall clock of the run, ms.
        host_ms: f64,
    }

    #[derive(Debug, Serialize)]
    struct Report {
        bench: &'static str,
        requests: usize,
        tenants: u32,
        batch_size: usize,
        gate_shards: u64,
        min_io_speedup: f64,
        pass: bool,
        /// Concurrent-I/O throughput of the gate row over the 1-shard row.
        io_speedup: f64,
        /// Wall throughput of the gate row over the 1-shard row.
        wall_speedup: f64,
        responses_match: bool,
        rows: Vec<ShardRow>,
    }

    /// Serves the schedule through the shard router; returns the row and
    /// every response in submission order (the equivalence check).
    fn run_sharded(schedule: &TenantSchedule, shards: u64) -> (ShardRow, Vec<Vec<u8>>) {
        let service_config = ServiceConfig {
            batch_size: BATCH_SIZE,
            ..ServiceConfig::default()
        };
        // Engine and service are sized together: the serving layer's
        // `worker_threads` becomes the engine's wall-clock pump width
        // (results are byte-identical at any value).
        let base = service_config
            .engine_config(HOramConfig::new(CAPACITY, PAYLOAD_LEN, MEMORY_SLOTS))
            .with_seed(SEED);
        let oram = ShardedOram::new(
            ShardedConfig::new(base, shards),
            MasterKey::from_bytes([0xD4; 32]),
            |_| MemoryHierarchy::dac2019(),
        )
        .expect("builds");
        let balance = {
            let counts = schedule.route_counts(shards as usize, |id| {
                oram.mapper().shard_of(id).expect("in range") as usize
            });
            let max = *counts.iter().max().expect("non-empty") as f64;
            let ideal = schedule.len() as f64 / shards as f64;
            max / ideal
        };
        let mut service = OramService::new(
            oram,
            Box::new(FairSharePolicy::default()) as Box<dyn AdmissionPolicy>,
            service_config,
        );
        for tenant in schedule.tenants() {
            service.register_tenant(UserId(tenant), 0..CAPACITY, Permission::ReadWrite);
        }
        let started = Instant::now();
        let arrivals = schedule
            .arrivals
            .iter()
            .map(|arrival| (UserId(arrival.tenant), arrival.request.clone()));
        let (tickets, _report) = service.serve_all(arrivals).expect("serves");
        let host_ms = started.elapsed().as_secs_f64() * 1e3;
        let responses: Vec<Vec<u8>> = tickets
            .iter()
            .map(|t| service.take_response(*t).expect("completed"))
            .collect();

        // Shards run concurrently: the aggregate I/O time is the busiest
        // shard's, and elapsed time comes from the shared clock.
        let concurrent_io = service
            .shard_stats()
            .iter()
            .map(|s| s.io_time)
            .fold(SimDuration::ZERO, SimDuration::max);
        let elapsed = service
            .oram()
            .clock()
            .now()
            .duration_since(horam::storage::clock::SimTime::ZERO);
        let deduped = service.stats().deduped;
        let row = ShardRow {
            shards,
            sim_io_us: concurrent_io.as_micros_f64(),
            sim_wall_us: elapsed.as_micros_f64(),
            io_throughput_rps: throughput(schedule.len(), concurrent_io),
            wall_throughput_rps: throughput(schedule.len(), elapsed),
            balance,
            deduped,
            host_ms,
        };
        (row, responses)
    }

    pub(super) fn gate(quick: bool) -> GateOutcome {
        let mut requests = 6_000usize;
        if quick {
            requests /= 4;
            println!("(--quick: scaled to 1/4)\n");
        }
        let schedule = zipf_schedule(requests, SEED);
        println!(
            "Sharded scale-out — {CAPACITY} blocks, {MEMORY_SLOTS} total memory slots, \
             {TENANTS} tenants, batch {BATCH_SIZE}, {requests} requests ({})\n",
            schedule.label
        );

        let mut rows = Vec::new();
        let mut responses: Vec<Vec<Vec<u8>>> = Vec::new();
        for shards in SHARD_COUNTS {
            let (row, response) = run_sharded(&schedule, shards);
            rows.push(row);
            responses.push(response);
        }
        let responses_match = responses.iter().all(|r| r == &responses[0]);

        let mut table = Table::new(vec![
            "shards",
            "concurrent I/O",
            "sim wall",
            "I/O throughput",
            "balance",
            "deduped",
            "host time",
        ]);
        for row in &rows {
            table.row(vec![
                row.shards.to_string(),
                format!("{:.1} ms", row.sim_io_us / 1e3),
                format!("{:.1} ms", row.sim_wall_us / 1e3),
                format!("{:.0} req/s", row.io_throughput_rps),
                format!("{:.2}x ideal", row.balance),
                row.deduped.to_string(),
                format!("{:.1} ms", row.host_ms),
            ]);
        }
        println!("{table}");

        let single = &rows[0];
        let gate_row = rows
            .iter()
            .find(|r| r.shards == GATE_SHARDS)
            .expect("gate shard count measured");
        let io_speedup = gate_row.io_throughput_rps / single.io_throughput_rps.max(1e-9);
        let wall_speedup = gate_row.wall_throughput_rps / single.wall_throughput_rps.max(1e-9);
        println!(
            "{GATE_SHARDS} shards vs 1: concurrent-I/O throughput {io_speedup:.2}x, \
             wall throughput {wall_speedup:.2}x, responses match: {responses_match}"
        );

        let pass = io_speedup >= MIN_IO_SPEEDUP && responses_match;
        if pass {
            println!(
                "OK: {GATE_SHARDS}-shard aggregate simulated-I/O throughput >= \
                 {MIN_IO_SPEEDUP}x the single instance, responses identical.\n"
            );
        } else {
            println!("REGRESSION: sharding gate failed.\n");
        }
        let report = Report {
            bench: "sharding",
            requests,
            tenants: TENANTS,
            batch_size: BATCH_SIZE,
            gate_shards: GATE_SHARDS,
            min_io_speedup: MIN_IO_SPEEDUP,
            pass,
            io_speedup,
            wall_speedup,
            responses_match,
            rows,
        };
        GateOutcome {
            name: "sharding",
            pass,
            report: report.to_value(),
        }
    }
}

/// The sharding gate: 4 shards must deliver ≥ 2.5× the single-instance
/// aggregate simulated-I/O throughput on the hit-bound Zipf schedule,
/// with byte-identical responses at every shard count.
pub fn sharding_gate(quick: bool) -> GateOutcome {
    sharding::gate(quick)
}

// ------------------------------------------------------------ parallel

mod parallel {
    use super::*;
    use horam::core::HOramStats;

    const SEED: u64 = 0x9a11;
    const SHARDS: u64 = 4;
    const IO_BATCH: u64 = 32;
    const GATE_THREADS: usize = 4;
    /// Alternating 1-thread / [`GATE_THREADS`] pairs behind the wall-clock
    /// bar: one shot per side read 0.92–0.96× against a 1.15× bar on an
    /// unchanged build, so the bar is the median pair, not a single one.
    const BAR_PAIRS: usize = 5;

    /// The wall-clock speedup the gate demands at 4 threads vs 1, scaled
    /// to what the runner can physically deliver. On a ≥4-core machine
    /// the threaded pump must win ≥1.5×; on 2–3 cores ≥1.15×; on a
    /// single core a wall-clock speedup is physically impossible, so the
    /// gate degrades to an overhead bound (the threaded path may not be
    /// pathologically slower) while the determinism half — byte-identical
    /// responses and stats at every thread count — is enforced
    /// everywhere, unconditionally.
    fn min_wall_speedup(cores: usize) -> f64 {
        if cores >= GATE_THREADS {
            1.5
        } else if cores >= 2 {
            1.15
        } else {
            0.5
        }
    }

    #[derive(Debug, Clone, Serialize)]
    struct ThreadRow {
        threads: usize,
        /// Host-side wall clock of the drained batch, ms (`Instant`).
        wall_ms: f64,
        /// Requests per second of host wall-clock time.
        wall_throughput_rps: f64,
        /// Elapsed simulated time (identical across rows by design).
        sim_wall_us: f64,
        cycles: u64,
        shuffles: u64,
    }

    #[derive(Debug, Serialize)]
    struct Report {
        bench: &'static str,
        requests: usize,
        shards: u64,
        io_batch: u64,
        available_parallelism: usize,
        gate_threads: usize,
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

    /// Drains the whole Zipf schedule through a 4-shard engine at the
    /// given pump width; returns the timing row plus the observables the
    /// determinism check compares.
    fn run_threads(requests: &[Request], threads: usize) -> (ThreadRow, Vec<Vec<u8>>, HOramStats) {
        let base = HOramConfig::new(CAPACITY, PAYLOAD_LEN, MEMORY_SLOTS)
            .with_seed(SEED)
            .with_io_batch(IO_BATCH)
            .with_worker_threads(threads);
        let mut oram = ShardedOram::new(
            ShardedConfig::new(base, SHARDS),
            MasterKey::from_bytes([0xE1; 32]),
            |_| MemoryHierarchy::dac2019(),
        )
        .expect("builds");
        let started = Instant::now();
        let responses = oram.run_batch(requests).expect("runs");
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        let stats = oram.stats();
        let row = ThreadRow {
            threads,
            wall_ms,
            wall_throughput_rps: if wall_ms > 0.0 {
                requests.len() as f64 / (wall_ms / 1e3)
            } else {
                0.0
            },
            sim_wall_us: oram
                .clock()
                .now()
                .duration_since(horam::storage::clock::SimTime::ZERO)
                .as_micros_f64(),
            cycles: stats.cycles,
            shuffles: stats.shuffles,
        };
        (row, responses, stats)
    }

    pub(super) fn gate(quick: bool) -> GateOutcome {
        let mut requests = 24_000usize;
        let mut thread_counts: Vec<usize> = vec![1, 2, 4, 8];
        if quick {
            requests /= 6;
            thread_counts = vec![1, 2, 4];
            println!("(--quick: scaled to 1/6, thread counts 1/2/4)\n");
        }
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let threshold = min_wall_speedup(cores);
        let flat = zipf_schedule(requests, SEED).to_trace();
        println!(
            "Wall-clock parallel engine — {SHARDS} shards over {CAPACITY} blocks, \
             {MEMORY_SLOTS} total memory slots, window {IO_BATCH}, {requests} requests, \
             {cores} host core(s)\n"
        );

        // The bar's two thread counts alternate `BAR_PAIRS` times; the
        // other thread counts of the sweep run once. Every run is a row
        // of the report and must reproduce the first run's responses and
        // statistics.
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
            let (row, response, stat) = run_threads(&flat.requests, threads);
            rows.push(row);
            match &reference {
                None => reference = Some((response, stat)),
                Some((first_response, first_stat)) => {
                    responses_match &= &response == first_response;
                    stats_match &= &stat == first_stat;
                }
            }
        }
        let pair_speedups: Vec<f64> = rows[..2 * BAR_PAIRS]
            .chunks(2)
            .map(|pair| pair[0].wall_ms / pair[1].wall_ms.max(f64::MIN_POSITIVE))
            .collect();
        let mut sorted = pair_speedups.clone();
        sorted.sort_by(f64::total_cmp);
        let wall_speedup = sorted[BAR_PAIRS / 2];
        let mut table = Table::new(vec![
            "threads",
            "host wall",
            "host throughput",
            "sim wall",
            "cycles",
            "shuffles",
        ]);
        for row in &rows {
            table.row(vec![
                row.threads.to_string(),
                format!("{:.1} ms", row.wall_ms),
                format!("{:.0} req/s", row.wall_throughput_rps),
                format!("{:.1} ms", row.sim_wall_us / 1e3),
                row.cycles.to_string(),
                row.shuffles.to_string(),
            ]);
        }
        println!("{table}");

        println!(
            "{GATE_THREADS} threads vs 1: wall-clock speedup {wall_speedup:.2}x, median of \
             {BAR_PAIRS} alternating pairs {pair_speedups:.2?} (required ≥ {threshold:.2}x on \
             {cores} core(s)), responses match: {responses_match}, stats match: {stats_match}"
        );

        let pass = wall_speedup >= threshold && responses_match && stats_match;
        if pass {
            println!(
                "OK: threaded pump meets the wall-clock bar for this host and is \
                 byte-identical to the serial path.\n"
            );
        } else {
            println!("REGRESSION: parallel gate failed.\n");
        }
        let report = Report {
            bench: "parallel",
            requests,
            shards: SHARDS,
            io_batch: IO_BATCH,
            available_parallelism: cores,
            gate_threads: GATE_THREADS,
            min_wall_speedup: threshold,
            pair_speedups,
            wall_speedup,
            responses_match,
            stats_match,
            pass,
            rows,
        };
        GateOutcome {
            name: "parallel",
            pass,
            report: report.to_value(),
        }
    }
}

/// The parallel-engine gate: 4 worker threads must deliver ≥ 1.5× the
/// 1-thread wall-clock throughput on the 4-shard Zipf schedule when the
/// host has ≥ 4 cores (scaled down on smaller runners — a 1-core machine
/// physically cannot show a wall-clock speedup), as the median of five
/// alternating 1-thread / 4-thread pairs, with byte-identical responses
/// and statistics on every run at every thread count, enforced
/// everywhere.
pub fn parallel_gate(quick: bool) -> GateOutcome {
    parallel::gate(quick)
}

// --------------------------------------------------------- persistence

mod persistence {
    use super::*;
    use horam::protocols::types::BlockContent;
    use horam::storage::calibration::MachineConfig;
    use horam::storage::file::{scratch_dir, FileStoreConfig};
    use horam::storage::trace::TraceEvent;

    const SEED: u64 = 0x9e25;
    /// Memory budget for this gate only: smaller than the shared
    /// `MEMORY_SLOTS` so the period (`n/2` I/O loads) turns several
    /// times even on the hit-bound Zipf mix — a recovery gate that never
    /// crosses a shuffle (the only phase that rewrites the device file)
    /// would not test crash consistency at all.
    const GATE_MEMORY_SLOTS: u64 = 128;
    /// Host wall-clock budget for one snapshot + one restore, ms. The
    /// operations serialize ~100s of KB and replay a journal; on any CI
    /// runner they complete in low single-digit milliseconds, so this
    /// bound only catches pathological regressions (quadratic
    /// serialization, per-slot fsync).
    const MAX_CHECKPOINT_MS: f64 = 2_000.0;
    /// Cycles run past the checkpoint before the kill: enough to cross a
    /// shuffle period at the gate geometry, so the kill lands with the
    /// device file mid-rewrite.
    const KILL_AFTER_CYCLES: u64 = 600;

    #[derive(Debug, Serialize)]
    struct Report {
        bench: &'static str,
        requests: usize,
        pass: bool,
        snapshot_bytes: usize,
        /// Host wall time of the checkpoint (device sync + state seal).
        snapshot_ms: f64,
        /// Host wall time of recovery (journal rollback + state restore).
        restore_ms: f64,
        max_checkpoint_ms: f64,
        kill_after_cycles: u64,
        replayed_requests: usize,
        responses_match: bool,
        trace_match: bool,
        stats_match: bool,
        clock_match: bool,
    }

    fn engine_config() -> HOramConfig {
        HOramConfig::new(CAPACITY, PAYLOAD_LEN, GATE_MEMORY_SLOTS)
            .with_seed(SEED)
            .with_io_batch(16)
    }

    fn file_hierarchy(path: &std::path::Path) -> MemoryHierarchy {
        let config = engine_config();
        let slots = config.partition_count() * config.partition_slots();
        let body = BlockContent::encoded_len(config.payload_len);
        MemoryHierarchy::with_file_storage(
            MachineConfig::dac2019(),
            path,
            FileStoreConfig::new(slots, body).with_write_back_slots(64),
        )
        .expect("file hierarchy builds")
    }

    fn build(path: &std::path::Path) -> HOram {
        HOram::new(
            engine_config(),
            file_hierarchy(path),
            MasterKey::from_bytes([0xC9; 32]),
        )
        .expect("builds")
    }

    fn trace_shape(events: &[TraceEvent]) -> Vec<(u16, u64, u64, u64)> {
        events
            .iter()
            .map(|e| (e.device.0, e.addr, e.bytes, e.at.as_nanos()))
            .collect()
    }

    pub(super) fn gate(quick: bool) -> GateOutcome {
        let mut requests = 6_000usize;
        if quick {
            requests /= 8;
            println!("(--quick: scaled to 1/8)\n");
        }
        println!(
            "Durability — {CAPACITY} blocks, {GATE_MEMORY_SLOTS} memory slots, file-backed \
             storage, {requests} Zipf requests: snapshot, kill mid-workload, restore, replay\n"
        );
        let trace = zipf_schedule(requests, SEED).to_trace().requests;
        let (pre, post) = trace.split_at(requests / 2);

        let scratch = scratch_dir("bench-persistence");
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run(&scratch, pre, post, requests)
        }));
        let _ = std::fs::remove_dir_all(&scratch);
        match result {
            Ok(outcome) => outcome,
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }

    fn run(
        scratch: &std::path::Path,
        pre: &[Request],
        post: &[Request],
        requests: usize,
    ) -> GateOutcome {
        // Reference: the uninterrupted run (same file backend).
        let reference_path = scratch.join("reference.horam");
        let mut reference = build(&reference_path);
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
        let snapshot_started = Instant::now();
        let snapshot = victim.snapshot().expect("victim snapshot");
        let snapshot_ms = snapshot_started.elapsed().as_secs_f64() * 1e3;
        for request in post {
            victim.enqueue(request.clone()).expect("enqueue");
        }
        let mut ran = 0;
        while ran < KILL_AFTER_CYCLES && !victim.queue().is_drained() {
            ran += victim.run_cycle_window(16).expect("cycles before the kill");
        }
        drop(victim); // the kill: no sync, no checkpoint, buffer mid-flight

        // Recovery: reopen the device file (journal rollback) + restore.
        let restore_started = Instant::now();
        let mut recovered = HOram::restore(
            file_hierarchy(&victim_path),
            MasterKey::from_bytes([0xC9; 32]),
            &snapshot,
        )
        .expect("restore");
        let restore_ms = restore_started.elapsed().as_secs_f64() * 1e3;
        let responses = recovered.run_batch(post).expect("replay");

        let responses_match = responses == reference_responses;
        let trace_match = trace_shape(&recovered.trace().snapshot()) == reference_trace;
        let stats_match = recovered.stats() == reference_stats;
        let clock_match = recovered.clock().now() == reference.clock().now();
        let within_budget = snapshot_ms + restore_ms <= MAX_CHECKPOINT_MS;
        let pass = responses_match && trace_match && stats_match && clock_match && within_budget;

        println!(
            "snapshot: {} KB sealed in {snapshot_ms:.1} ms; restore (journal rollback + \
             state rebuild): {restore_ms:.1} ms",
            snapshot.len() / 1024
        );
        println!(
            "replayed {} requests after killing the engine {ran} cycles past the checkpoint",
            post.len()
        );
        println!(
            "byte-identical to the uninterrupted run — responses: {responses_match}, \
             trace(+timestamps): {trace_match}, stats: {stats_match}, clock: {clock_match}"
        );
        if pass {
            println!(
                "OK: kill → restore → replay is byte-identical and checkpointing stays \
                 under {MAX_CHECKPOINT_MS:.0} ms.\n"
            );
        } else {
            println!("REGRESSION: persistence gate failed.\n");
        }

        let report = Report {
            bench: "persistence",
            requests,
            pass,
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
        };
        GateOutcome {
            name: "persistence",
            pass,
            report: report.to_value(),
        }
    }
}

/// The persistence gate: checkpoint a file-backed engine on the Zipf
/// schedule, kill it mid-workload (write-back buffer and shuffle stream
/// in flight), recover from the snapshot + device file, replay — and
/// require byte-identical responses, traces, statistics, and clock
/// versus the uninterrupted run, with snapshot+restore staying within a
/// host wall-clock budget.
pub fn persistence_gate(quick: bool) -> GateOutcome {
    persistence::gate(quick)
}

// --------------------------------------------------------------- cache

mod cache {
    use super::*;
    use horam::storage::cache::CacheConfig;

    const SEED: u64 = 0xCA4E;
    /// Memory budget for this gate only (like the persistence gate's):
    /// the cache warms exclusively from shuffle-period population, so a
    /// run that never turns a period would measure an empty cache. A
    /// 256-slot tree gives a 128-load period — several shuffles even at
    /// `--quick` scale.
    const GATE_MEMORY_SLOTS: u64 = 256;
    /// Required simulated-I/O speedup of the hit-bound cached engine
    /// over the uncached one on the shared Zipf mix. Hits cost a flat
    /// DRAM copy versus a calibrated HDD access, so once the shuffle has
    /// populated the cache the access-period device busy time collapses;
    /// 1.5× is a conservative floor well under the observed margin.
    const MIN_IO_SPEEDUP: f64 = 1.5;

    #[derive(Debug, Serialize)]
    struct Report {
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

    fn engine(cache: Option<CacheConfig>) -> HOram {
        let base = HOramConfig::new(CAPACITY, PAYLOAD_LEN, GATE_MEMORY_SLOTS).with_seed(SEED);
        let config = match cache {
            Some(cache) => base.with_cache(cache),
            None => base,
        };
        HOram::new(
            config,
            MemoryHierarchy::dac2019(),
            MasterKey::from_bytes([0xCA; 32]),
        )
        .expect("builds")
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

    pub(super) fn gate(quick: bool) -> GateOutcome {
        let mut requests = 6_000usize;
        if quick {
            requests /= 8;
            println!("(--quick: scaled to 1/8)\n");
        }
        let slots = {
            let config = HOramConfig::new(CAPACITY, PAYLOAD_LEN, GATE_MEMORY_SLOTS);
            config.partition_count() * config.partition_slots()
        };
        println!(
            "Oblivious block cache — {CAPACITY} blocks, {GATE_MEMORY_SLOTS} memory slots, \
             hit-bound LRU cache ({slots} blocks), {requests} Zipf requests\n"
        );
        let trace = zipf_schedule(requests, SEED).to_trace().requests;

        let mut uncached = engine(None);
        let uncached_responses = uncached.run_batch(&trace).expect("uncached runs");
        let uncached_stats = uncached.stats();
        assert!(
            uncached_stats.shuffles >= 2,
            "gate workload must cross shuffle periods (hits come from shuffle population)"
        );

        let mut cached = engine(Some(CacheConfig::lru(slots)));
        let cached_responses = cached.run_batch(&trace).expect("cached runs");
        let cached_stats = cached.stats();
        let cache_stats = cached.cache_stats().expect("cache installed");

        let responses_match = cached_responses == uncached_responses;
        let counters_match = counters(&cached_stats) == counters(&uncached_stats);
        let io_ms_uncached = uncached_stats.io_time.as_secs_f64() * 1e3;
        let io_ms_cached = cached_stats.io_time.as_secs_f64() * 1e3;
        let io_speedup = if io_ms_cached > 0.0 {
            io_ms_uncached / io_ms_cached
        } else {
            0.0
        };
        let pass = responses_match
            && counters_match
            && cache_stats.hits > 0
            && io_speedup >= MIN_IO_SPEEDUP;

        let mut table = Table::new(vec![
            "engine",
            "storage busy (access periods)",
            "req / s of storage time",
            "cache hit rate",
        ]);
        table.row(vec![
            "uncached".into(),
            uncached_stats.io_time.to_string(),
            format!("{:.0}", throughput(requests, uncached_stats.io_time)),
            "n/a".into(),
        ]);
        table.row(vec![
            "hit-bound LRU".into(),
            cached_stats.io_time.to_string(),
            format!("{:.0}", throughput(requests, cached_stats.io_time)),
            format!("{:.1}%", cache_stats.hit_rate() * 100.0),
        ]);
        println!("{table}");
        println!(
            "byte-identical responses: {responses_match}; protocol counters unchanged: \
             {counters_match}; simulated-I/O speedup {io_speedup:.2}× (floor \
             {MIN_IO_SPEEDUP:.1}×)"
        );
        if pass {
            println!("OK: caching is free on semantics and ≥{MIN_IO_SPEEDUP:.1}× on I/O time.\n");
        } else {
            println!("REGRESSION: cache gate failed.\n");
        }

        let report = Report {
            bench: "cache",
            requests,
            pass,
            cache_blocks: slots,
            hit_rate: cache_stats.hit_rate(),
            io_ms_uncached,
            io_ms_cached,
            io_speedup,
            min_io_speedup: MIN_IO_SPEEDUP,
            responses_match,
            counters_match,
        };
        GateOutcome {
            name: "cache",
            pass,
            report: report.to_value(),
        }
    }
}

/// The cache gate: run the shared Zipf mix uncached and with a hit-bound
/// LRU block cache, require byte-identical responses, unchanged protocol
/// counters, and ≥1.5× less simulated storage busy time during access
/// periods. The speedup ratio feeds the trend file.
pub fn cache_gate(quick: bool) -> GateOutcome {
    cache::gate(quick)
}

// --------------------------------------------------------------- chaos

mod chaos {
    use super::*;
    use horam::core::error::HOramError;
    use horam::storage::clock::SimTime;
    use horam::storage::fault::FaultConfig;

    const SEED: u64 = 0xC4A0;
    const SHARDS: u64 = 4;
    /// 1 % of storage reads *and* writes fail transiently — roughly two
    /// orders of magnitude worse than a badly degraded disk, so the
    /// retry layer is exercised thousands of times per run.
    const FAULT_PERMILLE: u32 = 10;
    /// Floor on the faulted run's simulated throughput relative to the
    /// fault-free run. Retries charge capped exponential backoff in
    /// simulated time; at 1 % incidence the charge must stay small
    /// against calibrated device time.
    const MIN_THROUGHPUT_RATIO: f64 = 0.9;

    #[derive(Debug, Serialize)]
    struct Report {
        bench: &'static str,
        requests: usize,
        shards: u64,
        fault_permille: u32,
        pass: bool,
        /// Transient faults the injector raised (reads + writes).
        injected_transients: u64,
        /// Device-level retries those faults triggered.
        retries: u64,
        /// Simulated backoff charged for them, ms.
        backoff_ms: f64,
        /// Retry budgets exhausted (each fails one shard window).
        exhausted: u64,
        /// Tickets that resolved to a typed failure instead of a
        /// response.
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

    /// Runs the trace to completion, tolerating per-ticket typed
    /// failures: every ticket resolves to `Some(response)` or `None`
    /// (typed failure — recorded, never a panic).
    fn drive(oram: &mut ShardedOram, trace: &[Request]) -> Vec<Option<Vec<u8>>> {
        let tickets: Vec<Result<u64, HOramError>> = trace
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

    pub(super) fn gate(quick: bool) -> GateOutcome {
        let mut requests = 6_000usize;
        if quick {
            requests /= 8;
            println!("(--quick: scaled to 1/8)\n");
        }
        println!(
            "Chaos — {SHARDS} shards, {}‰ transient storage faults, {requests} Zipf requests\n",
            FAULT_PERMILLE
        );
        let trace = zipf_schedule(requests, SEED).to_trace().requests;

        let mut clean = engine(None);
        let clean_outcomes = drive(&mut clean, &trace);
        let clean_elapsed = clean.clock().now();
        assert!(
            clean_outcomes.iter().all(Option::is_some),
            "fault-free run must complete every ticket"
        );

        let mut faulted = engine(Some(FAULT_PERMILLE));
        let faulted_outcomes = drive(&mut faulted, &trace);
        let faulted_elapsed = faulted.clock().now();
        let fault_stats = faulted.storage_fault_stats().unwrap_or_default();
        let retry_stats = faulted.storage_retry_stats();

        let failed_tickets = faulted_outcomes.iter().filter(|o| o.is_none()).count() as u64;
        let responses_match =
            clean_outcomes
                .iter()
                .zip(&faulted_outcomes)
                .all(|(clean, faulted)| match faulted {
                    Some(response) => clean.as_ref() == Some(response),
                    None => true,
                });
        let degraded = faulted.degraded_shards().len();
        let throughput_clean = throughput(requests, clean_elapsed.duration_since(SimTime::ZERO));
        let throughput_faulted =
            throughput(requests, faulted_elapsed.duration_since(SimTime::ZERO));
        let throughput_ratio = if throughput_clean > 0.0 {
            throughput_faulted / throughput_clean
        } else {
            0.0
        };
        let injected = fault_stats.transient_reads + fault_stats.transient_writes;
        let pass = responses_match
            && injected > 0
            && retry_stats.retries > 0
            && throughput_ratio >= MIN_THROUGHPUT_RATIO;

        let mut table = Table::new(vec![
            "engine",
            "elapsed (sim)",
            "req / s",
            "retries",
            "failed tickets",
        ]);
        table.row(vec![
            "fault-free".into(),
            format!("{}", clean_elapsed.duration_since(SimTime::ZERO)),
            format!("{throughput_clean:.0}"),
            "0".into(),
            "0".into(),
        ]);
        table.row(vec![
            format!("{FAULT_PERMILLE}‰ transient"),
            format!("{}", faulted_elapsed.duration_since(SimTime::ZERO)),
            format!("{throughput_faulted:.0}"),
            retry_stats.retries.to_string(),
            failed_tickets.to_string(),
        ]);
        println!("{table}");
        println!(
            "injected {injected} transients; {} exhausted budgets; {degraded} degraded \
             shards; completed responses byte-identical: {responses_match}; throughput \
             ratio {throughput_ratio:.3} (floor {MIN_THROUGHPUT_RATIO:.2})",
            retry_stats.exhausted
        );
        if pass {
            println!("OK: typed errors or identical answers under fault injection.\n");
        } else {
            println!("REGRESSION: chaos gate failed.\n");
        }

        let report = Report {
            bench: "chaos",
            requests,
            shards: SHARDS,
            fault_permille: FAULT_PERMILLE,
            pass,
            injected_transients: injected,
            retries: retry_stats.retries,
            backoff_ms: retry_stats.backoff_nanos as f64 / 1e6,
            exhausted: retry_stats.exhausted,
            failed_tickets,
            degraded_shards: degraded,
            throughput_clean_rps: throughput_clean,
            throughput_faulted_rps: throughput_faulted,
            throughput_ratio,
            min_throughput_ratio: MIN_THROUGHPUT_RATIO,
            responses_match,
        };
        GateOutcome {
            name: "chaos",
            pass,
            report: report.to_value(),
        }
    }
}

/// The chaos gate: serve the shared Zipf mix on a 4-shard engine whose
/// every storage store injects seeded 1 % transient faults, and require
/// the end-to-end contract — no panics, every ticket resolves to a typed
/// error or a response byte-identical to the fault-free run's, and
/// simulated throughput within 10 % of fault-free (retry backoff is the
/// only cost). The throughput ratio feeds the trend file.
pub fn chaos_gate(quick: bool) -> GateOutcome {
    chaos::gate(quick)
}

// ------------------------------------------------------------ capacity

mod capacity {
    use super::*;
    use horam::core::{PosmapMode, RecursivePosmapConfig};
    use horam::protocols::types::BlockContent;
    use horam::storage::calibration::MachineConfig;
    use horam::storage::clock::SimTime;
    use horam::storage::file::{scratch_dir, FileStoreConfig};
    use horam::storage::trace::TraceEvent;

    const SEED: u64 = 0xCA9;
    /// Memory budget for the small parity leg: small enough that the
    /// shared Zipf mix turns shuffle periods, so the recursive map's
    /// rebuild path runs inside the comparison, not just steady serving.
    const PARITY_MEMORY_SLOTS: u64 = 256;
    /// The large leg runs at 16× the shared gate capacity — the largest
    /// any other bench touches is `CAPACITY` (4096).
    const LARGE_CAPACITY: u64 = 65_536;
    const LARGE_MEMORY_SLOTS: u64 = 2_048;
    /// Stride of the write/read-back sweep on the large engine (prime, so
    /// the touched set spreads over every partition).
    const LARGE_STRIDE: usize = 509;
    /// At `LARGE_CAPACITY` the recursive map's trusted bytes must undercut
    /// the flat table's by at least this factor.
    const MIN_TRUSTED_SHRINK: f64 = 8.0;
    /// Growing N by 16× may grow the recursive map's trusted bytes by at
    /// most this factor (sublinearity: root is threshold-bounded, levels
    /// grow logarithmically, caches are per-level constants).
    const MAX_TRUSTED_GROWTH: f64 = 8.0;
    /// With durable data and level devices, the recursive engine's
    /// snapshot must undercut the flat engine's at the same N by at least
    /// this factor (the flat snapshot carries the O(N) position table).
    const MIN_SNAPSHOT_SHRINK: f64 = 2.0;
    /// Simulated-throughput floor, recursive / flat at matched small N.
    /// The recursive map's I/O lives on its own simulated devices and
    /// never enters the engine clock, so the expected ratio is exactly
    /// 1.0 — the floor only catches that invariant breaking.
    const MIN_THROUGHPUT_RATIO: f64 = 0.99;

    #[derive(Debug, Serialize)]
    struct Report {
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

    fn recursive_mode(backing: Option<&std::path::Path>) -> PosmapMode {
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
        HOram::new(
            config,
            MemoryHierarchy::dac2019(),
            MasterKey::from_bytes([0xCA; 32]),
        )
        .expect("parity engine builds")
    }

    fn large_config(posmap: PosmapMode) -> HOramConfig {
        HOramConfig::new(LARGE_CAPACITY, PAYLOAD_LEN, LARGE_MEMORY_SLOTS)
            .with_seed(SEED)
            .with_io_batch(16)
            .with_posmap(posmap)
    }

    fn large_hierarchy(config: &HOramConfig, path: &std::path::Path) -> MemoryHierarchy {
        let slots = config.partition_count() * config.partition_slots();
        let body = BlockContent::encoded_len(config.payload_len);
        MemoryHierarchy::with_file_storage(
            MachineConfig::dac2019(),
            path,
            FileStoreConfig::new(slots, body).with_write_back_slots(64),
        )
        .expect("file hierarchy builds")
    }

    fn large_engine(scratch: &std::path::Path, name: &str, posmap: PosmapMode) -> HOram {
        let config = large_config(posmap);
        let hierarchy = large_hierarchy(&config, &scratch.join(format!("{name}.horam")));
        HOram::new(config, hierarchy, MasterKey::from_bytes([0xCB; 32]))
            .expect("large engine builds")
    }

    fn trace_shape(events: &[TraceEvent]) -> Vec<(u16, u64, u64, u64)> {
        events
            .iter()
            .map(|e| (e.device.0, e.addr, e.bytes, e.at.as_nanos()))
            .collect()
    }

    /// The deterministic payload the large sweep writes to block `id`.
    fn spot_payload(id: u64) -> Vec<u8> {
        let mut payload = vec![0u8; PAYLOAD_LEN];
        payload[..8].copy_from_slice(&id.to_le_bytes());
        payload
    }

    fn spot_ids() -> Vec<u64> {
        (0..LARGE_CAPACITY).step_by(LARGE_STRIDE).collect()
    }

    pub(super) fn gate(quick: bool) -> GateOutcome {
        let mut requests = 6_000usize;
        if quick {
            requests /= 8;
            println!("(--quick: scaled to 1/8)\n");
        }
        println!(
            "Capacity — flat vs recursive position map at {CAPACITY} blocks \
             ({requests} Zipf requests), then a durable recursive engine at \
             {LARGE_CAPACITY} blocks ({}× the largest other bench)\n",
            LARGE_CAPACITY / CAPACITY
        );

        let scratch = scratch_dir("bench-capacity");
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&scratch, requests)));
        let _ = std::fs::remove_dir_all(&scratch);
        match result {
            Ok(outcome) => outcome,
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }

    fn run(scratch: &std::path::Path, requests: usize) -> GateOutcome {
        // Leg 1 — parity at matched small N: the posmap mode must be
        // invisible on the data ORAM. Responses, the full bus trace
        // (addresses *and* timestamps), protocol counters, and the
        // simulated clock must all be byte-identical.
        let trace = zipf_schedule(requests, SEED).to_trace().requests;

        let mut flat = parity_engine(PosmapMode::Flat);
        let flat_responses = flat.run_batch(&trace).expect("flat parity run");
        let flat_trace = trace_shape(&flat.trace().snapshot());
        let flat_stats = flat.stats();
        assert!(
            flat_stats.shuffles >= 1,
            "parity leg must cross a shuffle period"
        );

        let mut recursive = parity_engine(recursive_mode(None));
        let recursive_responses = recursive.run_batch(&trace).expect("recursive parity run");
        let recursive_trace = trace_shape(&recursive.trace().snapshot());
        let recursive_stats = recursive.stats();

        let responses_match = recursive_responses == flat_responses;
        let trace_match = recursive_trace == flat_trace;
        let stats_match = recursive_stats == flat_stats;
        let clock_match = recursive.clock().now() == flat.clock().now();
        let flat_elapsed = flat.clock().now().duration_since(SimTime::ZERO);
        let recursive_elapsed = recursive.clock().now().duration_since(SimTime::ZERO);
        let throughput_flat_rps = throughput(requests, flat_elapsed);
        let throughput_recursive_rps = throughput(requests, recursive_elapsed);
        let throughput_ratio = if throughput_flat_rps > 0.0 {
            throughput_recursive_rps / throughput_flat_rps
        } else {
            0.0
        };
        let recursive_small_trusted_bytes = recursive.posmap().memory_bytes();

        // Leg 2 — the large engine: durable data device + file-backed
        // posmap levels, write/read-back sweep, snapshot, restore.
        let ids = spot_ids();
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

        // Restore from the snapshot + device files and re-verify a few
        // spot blocks: the PR-5 durability stack at 16× scale.
        let restore_hierarchy = large_hierarchy(
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

        // The flat yardstick at the same N, same durable device, same
        // sweep: its snapshot embeds the O(N) position table.
        let mut flat_large = large_engine(scratch, "flat", PosmapMode::Flat);
        flat_large.run_batch(&writes).expect("flat large writes");
        let flat_trusted_bytes = flat_large.posmap().memory_bytes();
        let flat_snapshot_bytes = flat_large.snapshot().expect("flat snapshot").len();
        drop(flat_large);

        let trusted_shrink = flat_trusted_bytes as f64 / recursive_trusted_bytes.max(1) as f64;
        let trusted_growth =
            recursive_trusted_bytes as f64 / recursive_small_trusted_bytes.max(1) as f64;
        let snapshot_shrink = flat_snapshot_bytes as f64 / recursive_snapshot_bytes.max(1) as f64;

        let parity_ok = responses_match && trace_match && stats_match && clock_match;
        let pass = parity_ok
            && throughput_ratio >= MIN_THROUGHPUT_RATIO
            && large_roundtrip_ok
            && restore_roundtrip_ok
            && trusted_shrink >= MIN_TRUSTED_SHRINK
            && trusted_growth <= MAX_TRUSTED_GROWTH
            && snapshot_shrink >= MIN_SNAPSHOT_SHRINK;

        let mut table = Table::new(vec![
            "engine",
            "blocks",
            "trusted posmap bytes",
            "snapshot bytes",
        ]);
        table.row(vec![
            "flat".into(),
            format!("{LARGE_CAPACITY}"),
            format!("{flat_trusted_bytes}"),
            format!("{flat_snapshot_bytes}"),
        ]);
        table.row(vec![
            format!("recursive ({posmap_levels} levels)"),
            format!("{LARGE_CAPACITY}"),
            format!("{recursive_trusted_bytes}"),
            format!("{recursive_snapshot_bytes}"),
        ]);
        table.row(vec![
            "recursive".into(),
            format!("{CAPACITY}"),
            format!("{recursive_small_trusted_bytes}"),
            "n/a".into(),
        ]);
        println!("{table}");
        println!(
            "parity at {CAPACITY} blocks — responses: {responses_match}, \
             trace(+timestamps): {trace_match}, stats: {stats_match}, clock: {clock_match}; \
             simulated throughput ratio {throughput_ratio:.3} (floor {MIN_THROUGHPUT_RATIO:.2})"
        );
        println!(
            "large leg — {} spot blocks round-trip: {large_roundtrip_ok}; \
             restore round-trip: {restore_roundtrip_ok}",
            ids.len()
        );
        println!(
            "trusted bytes shrink {trusted_shrink:.1}× (floor {MIN_TRUSTED_SHRINK:.0}×); \
             growth over 16× N: {trusted_growth:.2}× (ceiling {MAX_TRUSTED_GROWTH:.0}×); \
             snapshot shrink {snapshot_shrink:.1}× (floor {MIN_SNAPSHOT_SHRINK:.0}×)"
        );
        if pass {
            println!(
                "OK: recursive map is invisible on the data bus and holds O(log N) \
                 trusted bytes at {LARGE_CAPACITY} blocks.\n"
            );
        } else {
            println!("REGRESSION: capacity gate failed.\n");
        }

        let report = Report {
            bench: "capacity",
            requests,
            pass,
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
        };
        GateOutcome {
            name: "capacity",
            pass,
            report: report.to_value(),
        }
    }
}

/// The capacity gate: prove the recursive position map changes the
/// engine's trusted-memory scaling and nothing else. A flat-vs-recursive
/// run at the shared small capacity must be byte-identical (responses,
/// full bus trace, statistics, simulated clock); a durable recursive
/// engine at 16× the largest other bench capacity must round-trip a
/// write/read-back sweep, survive snapshot → restore, and hold trusted
/// posmap bytes ≥8× below the flat table with a snapshot bounded by
/// trusted state rather than N. The simulated throughput ratio (expected
/// exactly 1.0) feeds the trend file.
pub fn capacity_gate(quick: bool) -> GateOutcome {
    capacity::gate(quick)
}

// ------------------------------------------------------------------ rpc

mod rpc {
    use super::*;
    use horam::storage::file::scratch_dir;
    use horam_rpc::server::{
        bind_signals_to_drain, run_server, Checkpoint, ServerConfig, ServerOutcome,
    };
    use horam_rpc::{status, ClientConfig, Endpoint, Listener, RpcClient, RpcError};
    use std::io::BufRead;
    use std::path::Path;
    use std::process::{Command, Stdio};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    const SEED: u64 = 0x59C0;
    /// Real client processes in the throughput phase, one per tenant.
    const CLIENTS: u32 = 4;
    const SHARDS: u64 = 4;
    /// Operations kept in flight per connection (`call_many` batch) —
    /// well under the service's per-tenant queue bound, so the pipeline
    /// never sheds and the comparison measures transport, not
    /// backpressure.
    const PIPELINE: usize = 200;
    /// Writes landed before the SIGTERM in the drain phase.
    const DRAIN_PREFIX: usize = 32;
    /// Writes racing the drain: a prefix lands, the rest shed typed.
    /// Issued in chunks of [`DRAIN_CHUNK`] — a fully pipelined batch
    /// would be admitted wholesale before the signal watcher bridges
    /// SIGTERM onto the drain flag (admitted work is finished, not
    /// shed), so small chunks spread admission across the drain window
    /// and the shed + replay path actually runs.
    const DRAIN_SUFFIX: usize = 256;
    const DRAIN_CHUNK: usize = 8;

    /// Worker processes are this same binary re-exec'd via
    /// `current_exe()`; the role env var routes them into
    /// [`role_hook`] before any bench argument parsing happens.
    const ROLE_ENV: &str = "HORAM_RPC_BENCH_ROLE";
    const ENDPOINT_ENV: &str = "HORAM_RPC_BENCH_ENDPOINT";
    const CLIENT_ENV: &str = "HORAM_RPC_BENCH_CLIENT";
    const OPS_ENV: &str = "HORAM_RPC_BENCH_OPS";
    const CHECKPOINT_ENV: &str = "HORAM_RPC_BENCH_CHECKPOINT";

    /// RPC-vs-in-process throughput floor, host-scaled like the
    /// parallel gate's wall-clock bar: with ≥4 cores the client
    /// processes run beside the server and the single-threaded engine
    /// dominates both sides, so real sockets must sustain ≥80 % of
    /// in-process serving; on smaller hosts the processes time-share
    /// cores with the server and the floor degrades to an overhead
    /// bound. Byte-identical responses are enforced everywhere,
    /// unconditionally.
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

    /// Client `c`'s deterministic schedule: a mixed read/write stream
    /// (one write per four ops) over its own tenant's disjoint block
    /// range. Disjoint ranges make cross-client interleaving
    /// irrelevant to response bytes, which is what lets N concurrent
    /// processes be compared byte-for-byte against a serial in-process
    /// run of the same streams.
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

    /// The gate's service: one per-process build shared by the gate,
    /// the in-process reference, and the re-exec'd server role, so
    /// every side serves the identical deterministic engine.
    fn fresh_service(snapshot: Option<&[u8]>) -> OramService<ShardedOram> {
        let config = ServiceConfig {
            batch_size: BATCH_SIZE,
            ..ServiceConfig::default()
        };
        let base = config
            .engine_config(HOramConfig::new(CAPACITY, PAYLOAD_LEN, MEMORY_SLOTS))
            .with_seed(SEED);
        let master = MasterKey::from_bytes([0xEC; 32]);
        let oram = match snapshot {
            Some(bytes) => ShardedOram::restore(master, |_| MemoryHierarchy::dac2019(), bytes)
                .expect("checkpoint restores"),
            None => ShardedOram::new(ShardedConfig::new(base, SHARDS), master, |_| {
                MemoryHierarchy::dac2019()
            })
            .expect("engine builds"),
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
            // Sized so four fully-pipelined clients never trip
            // backpressure — this gate measures transport cost, the
            // backpressure path has its own end-to-end tests.
            max_inflight: 4096,
            dedup_window: 8192,
            ..ServerConfig::default()
        }
    }

    /// An in-gate server thread (the throughput server and the
    /// restored post-drain server run inside the gate process; only
    /// the SIGTERM victim needs to be a real child process).
    struct GateServer {
        endpoint: Endpoint,
        drain: Arc<AtomicBool>,
        join: std::thread::JoinHandle<ServerOutcome>,
    }

    fn spawn_server(
        service: OramService<ShardedOram>,
        config: ServerConfig,
        endpoint: &Endpoint,
    ) -> GateServer {
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

    /// Re-exec hook: when the role env var is set, this process is a
    /// gate worker spawned via `current_exe()`, not the bench — run
    /// the role and exit. Called at the top of every bench `main` that
    /// can host this gate.
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

    /// The client role: run this process's deterministic op stream
    /// through a pipelined [`RpcClient`], then report ops, host
    /// elapsed, and the response digest on stdout for the gate parent.
    fn run_client_role() -> ! {
        let endpoint = Endpoint::parse(&role_env(ENDPOINT_ENV)).expect("role endpoint parses");
        let client_index: u32 = role_env(CLIENT_ENV).parse().expect("client index parses");
        let count: usize = role_env(OPS_ENV).parse().expect("op count parses");
        let ops = client_ops(client_index, count);
        let mut client = gate_client(&endpoint, 1_000 + u64::from(client_index), client_index);
        let started = Instant::now();
        let mut digest = FNV_OFFSET;
        for chunk in ops.chunks(PIPELINE) {
            let outcomes = client.call_many(chunk.to_vec()).expect("batch transport");
            for outcome in outcomes {
                digest = fnv_update(digest, &outcome.expect("op serves"));
            }
        }
        let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
        println!("RESULT {count} {elapsed_ms:.3} {digest:016x}");
        std::process::exit(0);
    }

    /// The server role: the SIGTERM victim. Serves the gate's fresh
    /// engine until the signal-bridged drain completes, then writes
    /// the checkpoint file and exits 0.
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
        std::fs::write(&checkpoint_path, outcome.checkpoint.to_bytes())
            .expect("checkpoint file writes");
        if let Endpoint::Unix(path) = &endpoint {
            let _ = std::fs::remove_file(path);
        }
        std::process::exit(0);
    }

    #[derive(Debug, Serialize)]
    struct ClientRow {
        client: u32,
        ops: usize,
        /// Host wall clock of the op loop inside the client process.
        elapsed_ms: f64,
        digest: String,
        matches_reference: bool,
    }

    #[derive(Debug, Serialize)]
    struct Report {
        bench: &'static str,
        clients: u32,
        ops_per_client: usize,
        pipeline: usize,
        available_parallelism: usize,
        /// Host wall-clock ratios — deliberately absent from the trend
        /// file, like the parallel gate's (runner-dependent).
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

    pub(super) fn gate(quick: bool) -> GateOutcome {
        let mut ops_per_client = 1_200usize;
        if quick {
            ops_per_client /= 4;
            println!("(--quick: scaled to 1/4)\n");
        }
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let threshold = min_ratio(cores);
        println!(
            "Network serving — {CLIENTS} client processes × {ops_per_client} pipelined ops \
             against one server ({SHARDS} shards over {CAPACITY} blocks), then SIGTERM \
             drain → checkpoint → restore → replay; {cores} host core(s)\n"
        );

        let scratch = scratch_dir("bench-rpc");
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run(&scratch, ops_per_client, cores, threshold)
        }));
        let _ = std::fs::remove_dir_all(&scratch);
        match result {
            Ok(outcome) => outcome,
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }

    fn run(scratch: &Path, ops_per_client: usize, cores: usize, threshold: f64) -> GateOutcome {
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
            let mut fields = line.split_whitespace().skip(1);
            let ops: usize = fields.next().expect("ops field").parse().expect("ops");
            let elapsed_ms: f64 = fields
                .next()
                .expect("elapsed field")
                .parse()
                .expect("elapsed");
            let digest =
                u64::from_str_radix(fields.next().expect("digest field"), 16).expect("digest");
            measured.push((ops, elapsed_ms, digest));
        }
        let outcome = server.drain_join();

        // In-process yardstick: the identical four streams through an
        // identical service, no sockets, same pipelining depth.
        let mut service = fresh_service(None);
        let started = Instant::now();
        let mut reference_digests = Vec::new();
        for client in 0..CLIENTS {
            let ops = client_ops(client, ops_per_client);
            let mut digest = FNV_OFFSET;
            for chunk in ops.chunks(PIPELINE) {
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
            reference_digests.push(digest);
        }
        let in_process_ms = started.elapsed().as_secs_f64() * 1e3;

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

        let mut table = Table::new(vec!["client", "ops", "wall", "throughput", "matches ref"]);
        for row in &rows {
            table.row(vec![
                row.client.to_string(),
                row.ops.to_string(),
                format!("{:.1} ms", row.elapsed_ms),
                format!("{:.0} req/s", row.ops as f64 / (row.elapsed_ms / 1e3)),
                row.matches_reference.to_string(),
            ]);
        }
        println!("{table}");
        println!(
            "aggregate: {rpc_rps:.0} req/s over sockets vs {in_process_rps:.0} req/s in-process \
             → ratio {ratio:.2} (required ≥ {threshold:.2} on {cores} core(s)); server served \
             {} over {} connections",
            outcome.counters.served, outcome.counters.connections
        );

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
        let drain_ops: Vec<(u64, Vec<u8>)> = (0..DRAIN_PREFIX + DRAIN_SUFFIX)
            .map(|i| ((i as u64).wrapping_mul(13) % span, op_payload(9, i)))
            .collect();
        let endpoint = Endpoint::Unix(sock.clone());
        let mut pusher = gate_client(&endpoint, 9_000, 0);
        let prefix: Vec<(u64, Option<Vec<u8>>)> = drain_ops[..DRAIN_PREFIX]
            .iter()
            .map(|(block, payload)| (*block, Some(payload.clone())))
            .collect();
        for op in pusher.call_many(prefix).expect("pre-drain batch") {
            op.expect("pre-drain write lands");
        }

        let kill = Command::new("kill")
            .args(["-TERM", &child.id().to_string()])
            .status()
            .expect("kill spawns");
        assert!(kill.success(), "kill -TERM failed");
        let suffix: Vec<(u64, Option<Vec<u8>>)> = drain_ops[DRAIN_PREFIX..]
            .iter()
            .map(|(block, payload)| (*block, Some(payload.clone())))
            .collect();
        // The racing writes: because drain is monotonic and admission
        // is per-connection FIFO, whatever lands must be a prefix and
        // everything after it must shed with the typed SHUTTING_DOWN
        // (or never reach a server at all once it has exited — those
        // ops simply join the replay set).
        let mut landed_suffix = 0usize;
        let mut suffix_shed_typed = true;
        'racing: for chunk in suffix.chunks(DRAIN_CHUNK) {
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
                // The server finished draining under this chunk; its
                // ops never landed. (Replaying a write that did land
                // would be harmless anyway — same payload, same
                // per-block order.)
                Err(_) => break 'racing,
            }
        }

        let drain_exit_ok = child.wait().expect("server role exits").success();
        let ckpt_bytes = std::fs::read(&ckpt_path).expect("checkpoint file");
        let checkpoint = Checkpoint::from_bytes(&ckpt_bytes).expect("checkpoint parses");
        let window_entries = checkpoint.window.len();

        let restored_epoch = checkpoint.epoch + 1;
        let restored = spawn_server(
            fresh_service(Some(&checkpoint.snapshot)),
            ServerConfig {
                epoch: restored_epoch,
                preload_window: checkpoint.window,
                ..server_config()
            },
            &Endpoint::Unix(scratch.join("restart.sock")),
        );
        let mut replayer = gate_client(&restored.endpoint, 9_001, 0);
        let landed = DRAIN_PREFIX + landed_suffix;
        let replay: Vec<(u64, Option<Vec<u8>>)> = drain_ops[landed..]
            .iter()
            .map(|(block, payload)| (*block, Some(payload.clone())))
            .collect();
        let replayed = replay.len();
        if !replay.is_empty() {
            for op in replayer.call_many(replay).expect("replay batch") {
                op.expect("replayed write lands");
            }
        }

        // Last-write-wins oracle: the uninterrupted run's final state,
        // computed analytically. Reading it back through the restored
        // server proves drain → checkpoint → restore → replay converges
        // on exactly the uninterrupted outcome.
        let mut expected: std::collections::BTreeMap<u64, Vec<u8>> =
            std::collections::BTreeMap::new();
        for (block, payload) in &drain_ops {
            expected.insert(*block, payload.clone());
        }
        let mut state_match = true;
        for (block, payload) in &expected {
            let got = replayer.read(*block).expect("post-restore read-back");
            if got != *payload {
                state_match = false;
            }
        }
        let epoch_visible = replayer.epoch() == Some(restored_epoch);
        let restored_outcome = restored.drain_join();

        println!(
            "drain: {landed}/{} writes landed before exit (suffix shed typed: \
             {suffix_shed_typed}), checkpoint {} KB with {window_entries} window entries, \
             restored epoch {restored_epoch} replayed {replayed} and matches the \
             uninterrupted run: {state_match} (restored server served {})",
            drain_ops.len(),
            ckpt_bytes.len() / 1024,
            restored_outcome.counters.served,
        );

        let pass = digests_match
            && ratio >= threshold
            && drain_exit_ok
            && suffix_shed_typed
            && state_match
            && epoch_visible;
        if pass {
            println!(
                "OK: real client processes sustain the in-process floor byte-identically, \
                 and SIGTERM drain → restore → replay converges on the uninterrupted run.\n"
            );
        } else {
            println!("REGRESSION: rpc gate failed.\n");
        }

        let report = Report {
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
            pass,
        };
        GateOutcome {
            name: "rpc",
            pass,
            report: report.to_value(),
        }
    }
}

/// The rpc gate: four real client processes (re-exec'd via
/// `current_exe()`) pipeline deterministic op streams over TCP against
/// one `horam-rpc` server and must sustain the host-scaled fraction
/// (≥80 % on ≥4 cores) of in-process serving throughput with
/// byte-identical responses; then a real server process takes a SIGTERM
/// mid-load, drains gracefully (suffix shed with the typed
/// `SHUTTING_DOWN`), writes its checkpoint, and a restore + replay of
/// the shed writes must converge on exactly the uninterrupted run's
/// state. Host wall-clock ratios stay out of the trend file.
pub fn rpc_gate(quick: bool) -> GateOutcome {
    rpc::gate(quick)
}

/// Re-exec hook for the rpc gate's worker processes. Every bench
/// binary that can host the gate calls this first in `main`; when the
/// role env var is set the process runs as a gate worker (client or
/// SIGTERM-victim server) and exits instead of benching.
pub fn rpc_role_hook() {
    rpc::role_hook();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_suite(serving: f64, io_zipf: f64, sharding: f64) -> Value {
        let gate = |name: &str, report: Value| {
            Value::Map(vec![
                ("gate".into(), Value::Str(name.into())),
                ("pass".into(), Value::Bool(true)),
                ("report".into(), report),
            ])
        };
        let num = |v: f64| Value::Num(serde::Number::F(v));
        Value::Map(vec![(
            "gates".into(),
            Value::Seq(vec![
                gate(
                    "serving",
                    Value::Map(vec![
                        ("vs_sequential".into(), num(serving)),
                        ("vs_per_request".into(), num(serving * 4.0)),
                    ]),
                ),
                gate(
                    "io_pipeline",
                    Value::Map(vec![(
                        "workloads".into(),
                        Value::Seq(vec![Value::Map(vec![
                            ("workload".into(), Value::Str("zipf-hit-bound".into())),
                            ("io_speedup".into(), num(io_zipf)),
                            ("wall_speedup".into(), num(io_zipf / 2.0)),
                        ])]),
                    )]),
                ),
                gate(
                    "sharding",
                    Value::Map(vec![
                        ("io_speedup".into(), num(sharding)),
                        ("wall_speedup".into(), num(sharding)),
                    ]),
                ),
            ]),
        )])
    }

    #[test]
    fn trend_metrics_cover_all_three_gates_including_nested_io_rows() {
        let metrics = trend_metrics(&fake_suite(1.5, 2.0, 3.0));
        let names: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"serving.vs_sequential"));
        assert!(names.contains(&"serving.vs_per_request"));
        assert!(names.contains(&"io_pipeline.zipf-hit-bound.io_speedup"));
        assert!(names.contains(&"io_pipeline.zipf-hit-bound.wall_speedup"));
        assert!(names.contains(&"sharding.io_speedup"));
        assert_eq!(metrics.len(), 6);
    }

    #[test]
    fn baseline_diff_flags_regressions_and_missing_metrics() {
        let baseline = fake_suite(1.5, 2.0, 3.0);
        // Identical: clean.
        assert!(baseline_regressions(&fake_suite(1.5, 2.0, 3.0), &baseline, 0.25).is_empty());
        // Within tolerance: clean.
        assert!(baseline_regressions(&fake_suite(1.2, 1.6, 2.4), &baseline, 0.25).is_empty());
        // The nested io_pipeline ratio regressing below the floor trips.
        let regressions = baseline_regressions(&fake_suite(1.5, 1.0, 3.0), &baseline, 0.25);
        assert!(
            regressions
                .iter()
                .any(|r| r.contains("io_pipeline.zipf-hit-bound.io_speedup")),
            "{regressions:?}"
        );
        // A metric vanishing from the fresh report trips too.
        let gutted = fake_suite(1.5, 2.0, 3.0);
        let Value::Map(mut entries) = gutted else {
            unreachable!()
        };
        let Value::Seq(gates) = &mut entries[0].1 else {
            unreachable!()
        };
        gates.pop(); // drop the sharding gate
        let regressions = baseline_regressions(&Value::Map(entries), &baseline, 0.25);
        assert!(regressions
            .iter()
            .any(|r| r.contains("sharding.io_speedup")));
    }
}
