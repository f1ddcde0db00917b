//! One benchmark run: `e2e --workload NAME --seed N --seconds S --trace 0|1`.
//!
//! `--trace 0` sets the system up several times, runs the workload once
//! with tracing off, checks every response against a plain-map oracle and
//! prints the end-to-end metrics. `--trace 1` runs the workload twice —
//! untraced, then with spans around every call into a layer — runs the
//! per-layer probes, and prints the per-layer metrics. The last line of
//! standard output is the result as one JSON object.

mod layers;
mod probes;
mod raw;
mod rpc;
mod serve;

use horam_benchmark::gen::{payload, Op};
use horam_benchmark::schema::{self, END_TO_END, PER_LAYER};
use horam_benchmark::stats::{median, percentile, samples_beyond, windowed_percentile};
use horam_benchmark::trace::Tracer;
use horam_benchmark::{
    cpu_seconds, fresh_dir, machine_ticks, out_dir, peak_rss_mib, remove_dir, report, Flags, Values,
};
use oram_protocols::types::Request;
use std::collections::HashMap;
use std::fmt::Display;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// `setup_s` is the median of the set-ups a `--trace 0` run times: at
/// least `MIN_SETUPS`, then more while they have taken less than
/// `SETUP_BUDGET` in total — a 15 ms set-up needs more repeats than a
/// 500 ms one for a steady median — up to `MAX_SETUPS`.
/// `p99_us` is the median, over up to `P99_WINDOWS` consecutive windows
/// of the timed phase, of each window's 99th percentile; a window has at
/// least `P99_MIN_WINDOW` samples, so at least ten lie beyond its p99.
/// Eight windows hold about one shuffle epoch each on `hotspot_read`.
const P99_WINDOWS: usize = 8;
const P99_MIN_WINDOW: usize = 1000;
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET: Duration = Duration::from_millis(1500);

/// The plain-map oracle: block → value seed of its current payload
/// (absent = the all-zero payload of a never-written block).
#[derive(Debug, Clone, Default)]
pub struct Oracle(HashMap<u64, u64>);

impl Oracle {
    pub fn value(&self, block: u64) -> u64 {
        self.0.get(&block).copied().unwrap_or(0)
    }

    /// Applies `op` and returns the value its response must carry: reads
    /// return the current payload, writes the previous one.
    pub fn apply(&mut self, op: Op) -> u64 {
        let previous = self.value(op.block);
        if let Some(value) = op.write {
            self.0.insert(op.block, value);
        }
        previous
    }
}

/// The engine request for a generated operation on `len`-byte blocks.
pub fn request(op: Op, len: usize) -> Request {
    match op.write {
        Some(value) => Request::write(op.block, payload(value, len)),
        None => Request::read(op.block),
    }
}

/// Whether `result` is the answer the oracle expects for `block`: the
/// `len`-byte payload of value seed `expected`. Reports a wrong or failed
/// one.
pub fn answer_is_right<E: Display>(
    block: u64,
    expected: u64,
    len: usize,
    result: Result<Vec<u8>, E>,
) -> bool {
    match result {
        Ok(data) if data == payload(expected, len) => true,
        Ok(_) => {
            eprintln!("MISMATCH on block {block}");
            false
        }
        Err(e) => {
            eprintln!("FAILED block {block}: {e}");
            false
        }
    }
}

/// What one pass over a workload measured.
pub struct Pass {
    /// Operations issued, warm-up and post-restore reads included.
    pub attempted: u64,
    /// Errors, refusals and oracle mismatches among them.
    pub failed: u64,
    pub timed_ops: u64,
    /// Host time of the timed phase.
    pub elapsed: Duration,
    /// CPU seconds this process spent in the timed phase (0 when the
    /// engine runs in another process).
    pub cpu_s: f64,
    /// Submit → response-taken host latency of every timed operation.
    pub latencies_ns: Vec<u64>,
    /// Per-layer values read from public counters over the timed phase.
    pub values: Values,
    /// `VmHWM` in MiB of the process that held the engine when it is not
    /// this one (the daemon has exited by the time the pass returns).
    pub engine_rss_mib: Option<f64>,
}

impl Pass {
    fn rps(&self) -> f64 {
        self.timed_ops as f64 / self.elapsed.as_secs_f64()
    }
}

/// A workload: how to build the system and how to drive it.
pub trait Workload {
    type System;
    /// Builds the system under test until it accepts requests; `dir` is
    /// a fresh scratch directory.
    fn setup(&self, dir: &Path) -> Result<Self::System, String>;
    /// Releases a system that will not be driven.
    fn discard(&self, system: Self::System) -> Result<(), String>;
    /// Issues `ops` operations (first tenth untimed) and checks them.
    fn run(
        &self,
        system: Self::System,
        seed: u64,
        ops: u64,
        tracer: &mut Tracer,
    ) -> Result<Pass, String>;
    /// Geometry handed to the per-layer probes.
    fn probe_geometry(&self) -> probes::Geometry;
    /// Extra per-layer values that need a second system, measured only
    /// in the traced run.
    fn extra_layers(&self, _seed: u64, _ops: u64, _traced: &Pass) -> Result<Values, String> {
        Ok(Values::new())
    }
}

struct Options {
    name: &'static str,
    seed: u64,
    ops: u64,
    trace: bool,
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("e2e: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<bool, String> {
    let flags = Flags::from_env()?;
    if flags.str("print-schema").is_some() {
        print!("{}", schema::benchmark_json());
        return Ok(true);
    }
    let name = flags.str("workload").ok_or("--workload is required")?;
    let workload = schema::workload(name).ok_or_else(|| {
        let names: Vec<_> = schema::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; one of {names:?}")
    })?;
    let seconds: u64 = flags.get("seconds", schema::RUN_SECONDS)?;
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds {seconds} outside 1..=60"));
    }
    let options = Options {
        name: workload.name,
        seed: flags.get("seed", 2019)?,
        ops: workload.ops_per_second * seconds,
        trace: match flags.get("trace", 0u8)? {
            0 => false,
            1 => true,
            other => return Err(format!("--trace {other}: expected 0 or 1")),
        },
    };
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("create {:?}: {e}", out_dir()))?;
    match workload.name {
        "hotspot_read" => drive(&raw::HOTSPOT_READ, &options),
        "cold_durable" => drive(&raw::COLD_DURABLE, &options),
        "serve_zipf" => drive(&serve::ServeZipf, &options),
        "rpc_zipf" => drive(&rpc::RpcZipf::locate()?, &options),
        other => unreachable!("workload {other} is in the schema but not dispatched"),
    }
}

fn drive<W: Workload>(workload: &W, options: &Options) -> Result<bool, String> {
    let dir = fresh_dir(options.name).map_err(|e| format!("scratch directory: {e}"))?;
    let result = if options.trace {
        traced_run(workload, options, &dir)
    } else {
        untraced_run(workload, options, &dir)
    };
    remove_dir(&dir);
    result
}

/// CPU seconds this process has consumed so far.
pub fn own_cpu_seconds() -> f64 {
    cpu_seconds(std::process::id()).unwrap_or(0.0)
}

/// The noise report: cores and load average when the run starts, and —
/// from [`NoiseReport::finish`] — the share of the machine's CPU time
/// the hypervisor gave to other guests during the run.
struct NoiseReport {
    name: &'static str,
    ticks: Option<(u64, u64)>,
}

impl NoiseReport {
    fn start(name: &'static str) -> Self {
        let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
        println!("{name} host.nproc {cores} count");
        if let Some(load) = horam_benchmark::load_average() {
            println!("{name} host.loadavg_1m {load} count");
        }
        Self {
            name,
            ticks: machine_ticks(),
        }
    }

    fn finish(self) {
        if let (Some((steal0, total0)), Some((steal1, total1))) = (self.ticks, machine_ticks()) {
            if total1 > total0 {
                let share = (steal1 - steal0) as f64 / (total1 - total0) as f64;
                println!("{} host.steal_share {share} ratio", self.name);
            }
        }
    }
}

fn untraced_run<W: Workload>(workload: &W, options: &Options, dir: &Path) -> Result<bool, String> {
    let name = options.name;
    let noise = NoiseReport::start(name);
    let mut setup_s = Vec::new();
    let mut spent = Duration::ZERO;
    // The first set-up of a process also pays for page faults and
    // allocator growth; it is not timed.
    let mut system = workload.setup(&dir.join("setup-untimed"))?;
    while setup_s.len() < MIN_SETUPS || (spent < SETUP_BUDGET && setup_s.len() < MAX_SETUPS) {
        workload.discard(system)?;
        let start = Instant::now();
        system = workload.setup(&dir.join(format!("setup-{}", setup_s.len())))?;
        spent += start.elapsed();
        setup_s.push(start.elapsed().as_secs_f64());
    }
    println!("{name} setup_samples {} count", setup_s.len());
    let mut pass = workload.run(system, options.seed, options.ops, &mut Tracer::new(false))?;

    let (p99_ns, windows) =
        windowed_percentile(&pass.latencies_ns, 99.0, P99_WINDOWS, P99_MIN_WINDOW);
    println!("{name} p99_windows {windows} count");
    println!(
        "{name} p99_samples_beyond {} count",
        samples_beyond(pass.latencies_ns.len() / windows, 99.0)
    );
    let mut sorted = std::mem::take(&mut pass.latencies_ns);
    sorted.sort_unstable();
    println!("{name} latency_samples {} count", sorted.len());
    let rss = pass
        .engine_rss_mib
        .or_else(|| peak_rss_mib(std::process::id()))
        .ok_or("peak RSS unavailable: /proc/<pid>/status has no VmHWM")?;
    let mut values = Values::new();
    values.insert("rps", pass.rps());
    values.insert("p50_us", percentile(&sorted, 50.0) as f64 / 1e3);
    values.insert("p99_us", p99_ns / 1e3);
    values.insert("peak_rss_mb", rss);
    values.insert("setup_s", median(&setup_s));
    println!(
        "{name} fail_ratio {} ratio",
        pass.failed as f64 / pass.attempted as f64
    );
    noise.finish();
    Ok(finish(name, END_TO_END, &values, &pass))
}

fn traced_run<W: Workload>(workload: &W, options: &Options, dir: &Path) -> Result<bool, String> {
    let name = options.name;
    let noise = NoiseReport::start(name);
    let untraced = workload.run(
        workload.setup(&dir.join("untraced"))?,
        options.seed,
        options.ops,
        &mut Tracer::new(false),
    )?;
    let mut tracer = Tracer::new(true);
    let mut pass = workload.run(
        workload.setup(&dir.join("traced"))?,
        options.seed,
        options.ops,
        &mut tracer,
    )?;
    let trace_path = out_dir().join(format!("trace-{name}.json"));
    tracer
        .write_json(&trace_path, name)
        .map_err(|e| format!("write {trace_path:?}: {e}"))?;

    let mut values = std::mem::take(&mut pass.values);
    values.insert(
        "fail_ratio",
        (pass.failed + untraced.failed) as f64 / (pass.attempted + untraced.attempted) as f64,
    );
    values.insert("harness.trace_overhead_ratio", pass.rps() / untraced.rps());
    values.insert("harness.spans", tracer.spans().len() as f64);
    values.extend(workload.extra_layers(options.seed, options.ops, &pass)?);
    let geometry = workload.probe_geometry();
    values.extend(probes::run_all(&geometry, dir));
    if !geometry.rpc {
        let cpu_us_per_req = pass.cpu_s * 1e6 / pass.timed_ops as f64;
        layers::estimates(&mut values, cpu_us_per_req, geometry.file_backed);
    }

    pass.attempted += untraced.attempted;
    pass.failed += untraced.failed;
    noise.finish();
    Ok(finish(name, PER_LAYER, &values, &pass))
}

/// Prints the metric lines and the result line; `true` when every
/// operation succeeded.
fn finish(name: &str, schema: &[schema::Metric], values: &Values, pass: &Pass) -> bool {
    let correct = pass.failed == 0;
    let metrics = report(name, schema, values);
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        pass.attempted, pass.failed
    );
    correct
}
