//! Shared experiment harness for the table/figure reproduction binaries.
//!
//! Tables 5-3 and 5-4 of the paper compare H-ORAM against the
//! tree-top-cache Path ORAM baseline on the same machine and request
//! trace. [`run_horam`] and [`run_tree_top_baseline`] run those two
//! systems under identical [`TableParams`] on a given machine model, and
//! [`print_system_table`] prints either table.
//!
//! **Payload scaling.** The paper's experiments move gigabytes of 1 KB
//! blocks; the simulator charges timing for full 1 KB blocks while storing
//! small payloads (`TableParams::payload_len`), so the harness reproduces
//! the timing at a small fraction of the host cost.
//!
//! **Workload calibration.** The paper says only that 80 % of requests
//! fall "in a certain area". Working backwards from its measured I/O
//! counts (7 228 of 25 000 and 129 235 of 500 000): subtracting the
//! unavoidable cold-miss floor (20 % uniform traffic) leaves room for a
//! hot region of ≈`n/8` blocks warmed once per period, so the harness
//! uses that sizing. At full scale it measures 7 367 I/O accesses for
//! Table 5-3 (+1.9 %) but 154 445 for Table 5-4 (+19.5 %); ROADMAP item 8
//! tracks that gap.

use horam::analysis::report::ExperimentReport;
use horam::analysis::table::Table;
use horam::prelude::*;
use horam::protocols::{build_tree_top_cache, Oram, PathOramConfig, TreeBackend};
use horam::storage::calibration::MachineConfig;
use horam::storage::clock::SimClock;

pub mod gates;

/// Parameters of one table experiment.
#[derive(Debug, Clone)]
pub struct TableParams {
    /// Dataset size in blocks (1 KB logical blocks).
    pub capacity_blocks: u64,
    /// Memory budget in block slots.
    pub memory_slots: u64,
    /// Number of requests to drive.
    pub requests: usize,
    /// Stored payload bytes (timing always charges the 1 KB block).
    pub payload_len: usize,
    /// Workload / protocol seed.
    pub seed: u64,
}

impl TableParams {
    /// Table 5-3: 64 MB dataset, 8 MB memory, 25 000 requests.
    pub fn table_5_3() -> Self {
        Self {
            capacity_blocks: 64 * 1024, // 64 MB of 1 KB blocks
            memory_slots: 8 * 1024,     // 8 MB
            requests: 25_000,
            payload_len: 16,
            seed: 53,
        }
    }

    /// Table 5-4: 1 GB dataset, 128 MB memory, 500 000 requests.
    pub fn table_5_4() -> Self {
        Self {
            capacity_blocks: 1 << 20, // 1 GB of 1 KB blocks
            memory_slots: 1 << 17,    // 128 MB
            requests: 500_000,
            payload_len: 16,
            seed: 54,
        }
    }

    /// Divides the scale for a smoke-test run (`--quick`).
    pub fn quick(mut self) -> Self {
        self.capacity_blocks /= 8;
        self.memory_slots /= 8;
        self.requests /= 8;
        self
    }

    /// [`quick`](Self::quick) when the command line has `--quick` (and
    /// says so on stdout), unchanged otherwise.
    pub fn with_args(self) -> Self {
        if BenchArgs::parse().quick {
            println!("(--quick: scaled to 1/8)\n");
            self.quick()
        } else {
            self
        }
    }

    /// The paper-calibrated hot-region workload (see module docs).
    pub fn workload(&self) -> Vec<Request> {
        let hot_fraction = (self.memory_slots as f64 / 8.0) / self.capacity_blocks as f64;
        let mut generator =
            HotspotWorkload::new(self.capacity_blocks, 0.8, hot_fraction, 0.0, 0, self.seed);
        generator.generate(self.requests)
    }
}

/// Row quantities of the paper's Tables 5-3/5-4 for one system.
#[derive(Debug, Clone)]
pub struct SystemRow {
    /// Storage footprint in bytes.
    pub storage_bytes: u64,
    /// Memory footprint in bytes.
    pub memory_bytes: u64,
    /// Number of I/O accesses issued.
    pub io_accesses: u64,
    /// Mean storage time per I/O access.
    pub io_latency: SimDuration,
    /// Total shuffle time and shuffle count (zero for the baseline).
    pub shuffle_time: SimDuration,
    /// Number of shuffles.
    pub shuffles: u64,
    /// Total simulated wall-clock time.
    pub total_time: SimDuration,
}

impl SystemRow {
    /// H-ORAM's row, run on `machine` over `params`' workload.
    pub fn horam(params: &TableParams, machine: MachineConfig) -> Self {
        let oram = run_horam(params, machine, 0xB5, &params.workload(), |config| config);
        let stats = oram.stats();
        Self {
            storage_bytes: oram.storage_bytes(),
            memory_bytes: params.memory_slots * 1024,
            io_accesses: stats.total_io_loads(),
            io_latency: stats.mean_io_latency(),
            shuffle_time: stats.shuffle_wall_time,
            shuffles: stats.shuffles,
            total_time: stats.total_wall_time(),
        }
    }
}

/// Runs `requests` as one batch on H-ORAM sized by `params` on `machine`
/// (master-key byte `key`), its config first passed through `configure`
/// (an ablation's knob). Returns the engine.
pub fn run_horam(
    params: &TableParams,
    machine: MachineConfig,
    key: u8,
    requests: &[Request],
    configure: impl FnOnce(HOramConfig) -> HOramConfig,
) -> HOram {
    let config = HOramConfig::new(
        params.capacity_blocks,
        params.payload_len,
        params.memory_slots,
    )
    .with_seed(params.seed);
    let mut oram = HOram::new(
        configure(config),
        MemoryHierarchy::new(machine),
        MasterKey::from_bytes([key; 32]),
    )
    .expect("h-oram builds");
    oram.run_batch(requests).expect("batch completes");
    oram
}

/// Runs the tree-top-cache Path ORAM baseline under `params` on
/// `machine`.
pub fn run_tree_top_baseline(params: &TableParams, machine: MachineConfig) -> SystemRow {
    let clock = SimClock::new();
    let (mut oram, _split) = build_tree_top_cache(
        PathOramConfig::new(params.capacity_blocks, params.payload_len),
        params.memory_slots,
        machine.build_memory(clock.clone(), None),
        machine.build_storage(clock.clone(), None),
        &MasterKey::from_bytes([0xA4; 32]).derive("bench/ttc", 0),
    )
    .expect("baseline builds");

    // The baseline starts with the dataset resident (the paper's setting).
    oram.bulk_load(
        (0..params.capacity_blocks).map(|i| (BlockId(i), vec![0u8; params.payload_len])),
    )
    .expect("bulk load");
    // Construction traffic must not pollute the measured run.
    let (construction_memory, construction_storage) = oram.tree().backend().stats();

    let requests = params.workload();
    for request in &requests {
        oram.access(request).expect("access");
    }

    let (memory, storage) = oram.tree().backend().stats();
    let memory = memory.delta_since(&construction_memory);
    let storage = storage.delta_since(&construction_storage);
    let geometry_slots = oram.tree().geometry().total_slots();
    SystemRow {
        storage_bytes: geometry_slots.saturating_sub(params.memory_slots) * 1024,
        memory_bytes: params.memory_slots * 1024,
        io_accesses: requests.len() as u64,
        io_latency: storage.busy / requests.len() as u64,
        shuffle_time: SimDuration::ZERO,
        shuffles: 0,
        total_time: storage.busy + memory.busy,
    }
}

/// One of the paper's two system tables (Tables 5-3 and 5-4).
#[derive(Debug, Clone)]
pub struct SystemTable {
    /// Heading name, report id and report title, e.g. `Table 5-3`,
    /// `table-5-3`, `Small dataset comparison`.
    pub name: &'static str,
    pub id: &'static str,
    pub title: &'static str,
    /// The experiment (scaled by `--quick`).
    pub params: TableParams,
    /// Formats a byte count: the storage column and the heading's
    /// dataset size (capacity × 1 KB blocks).
    pub storage: fn(u64) -> String,
    /// The paper's I/O count, I/O latency, shuffle time and total time.
    pub paper: [&'static str; 4],
}

/// Runs both systems and prints the table, then paper vs measured.
pub fn print_system_table(table: &SystemTable) {
    let params = table.params.clone().with_args();
    println!(
        "{} — {} dataset, {} requests\n",
        table.name,
        (table.storage)(params.capacity_blocks * 1024),
        params.requests
    );
    let horam = SystemRow::horam(&params, MachineConfig::dac2019());
    let baseline = run_tree_top_baseline(&params, MachineConfig::dac2019());

    let size = |row: &SystemRow| {
        let storage = (table.storage)(row.storage_bytes);
        format!("{storage} / {} MB", row.memory_bytes >> 20)
    };
    let shuffle = format!(
        "{} * {}",
        horam.shuffle_time / horam.shuffles.max(1),
        horam.shuffles
    );
    let mut rows = Table::new(vec!["", "H-ORAM", "Path ORAM"]);
    rows.row(vec![
        "Storage/Memory Size".into(),
        size(&horam),
        size(&baseline),
    ]);
    rows.row(vec![
        "Number of I/O Access".into(),
        horam.io_accesses.to_string(),
        baseline.io_accesses.to_string(),
    ]);
    rows.row(vec![
        "I/O Latency".into(),
        horam.io_latency.to_string(),
        baseline.io_latency.to_string(),
    ]);
    rows.row(vec!["Shuffle Time".into(), shuffle.clone(), "N/A".into()]);
    rows.row(vec![
        "Total Time".into(),
        horam.total_time.to_string(),
        baseline.total_time.to_string(),
    ]);
    println!("{rows}");

    let mut report = ExperimentReport::new(
        table.id,
        table.title,
        format!(
            "{} blocks x 1 KB, memory {} slots, {} hotspot requests (80% to a cache-sized region)",
            params.capacity_blocks, params.memory_slots, params.requests
        ),
    );
    let [io, latency, shuffle_paper, total] = table.paper;
    report.compare(
        "Number of I/O Access",
        io,
        format!("{} vs {}", horam.io_accesses, baseline.io_accesses),
    );
    report.compare(
        "I/O Latency",
        latency,
        format!("{} vs {}", horam.io_latency, baseline.io_latency),
    );
    report.compare("Shuffle Time", shuffle_paper, shuffle);
    report.compare(
        "Total Time",
        total,
        format!(
            "{} vs {} ({})",
            horam.total_time,
            baseline.total_time,
            speedup(baseline.total_time, horam.total_time)
        ),
    );
    report.note("Simulated machine; payload scaling active (timing charges full 1 KB blocks).");
    println!("{}", report.render());
}

/// Command-line options shared by every bench binary. Historically each
/// binary hand-parsed its flags (`--quick` here, `--out` there); this is
/// the one parser they all go through now, so flags cannot drift in
/// meaning between binaries.
///
/// Recognized flags:
///
/// * `--quick` — scale the experiment down for smoke runs;
/// * `--out <path>` — where the machine-readable JSON report goes;
/// * `--baseline <path>` — a previously committed report to diff the
///   fresh one against (the suite's trend-regression check).
///
/// Positional arguments are collected in order (the gates `suite` runs).
/// Unknown flags are ignored (binaries historically tolerated them).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BenchArgs {
    /// `--quick` was given.
    pub quick: bool,
    /// `--out <path>`, if given.
    pub out: Option<std::path::PathBuf>,
    /// `--baseline <path>`, if given.
    pub baseline: Option<std::path::PathBuf>,
    /// The positional arguments, in order.
    pub names: Vec<String>,
}

impl BenchArgs {
    /// Parses the process's command line.
    ///
    /// # Panics
    ///
    /// Panics if `--out` or `--baseline` is given without a following
    /// path (CI treats that as a failed run, loudly).
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses an explicit argument list; panics as [`parse`](Self::parse).
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Self {
        let mut parsed = Self::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => parsed.quick = true,
                "--out" => {
                    parsed.out = Some(args.next().expect("--out requires a path argument").into());
                }
                "--baseline" => {
                    parsed.baseline = Some(
                        args.next()
                            .expect("--baseline requires a path argument")
                            .into(),
                    );
                }
                flag if flag.starts_with("--") => {}
                _ => parsed.names.push(arg),
            }
        }
        parsed
    }

    /// The report path: `--out` if given, else `default`.
    pub fn out_or(&self, default: &str) -> std::path::PathBuf {
        self.out.clone().unwrap_or_else(|| default.into())
    }
}

/// Formats a speedup factor.
pub fn speedup(baseline: SimDuration, ours: SimDuration) -> String {
    if ours.as_nanos() == 0 {
        return "n/a".into();
    }
    format!(
        "{:.1}x",
        baseline.as_nanos() as f64 / ours.as_nanos() as f64
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_args_parse_flags_in_any_order() {
        let args = BenchArgs::parse_from(
            [
                "--out",
                "a.json",
                "rpc",
                "--quick",
                "--baseline",
                "b.json",
                "--junk",
            ]
            .map(String::from),
        );
        assert!(args.quick);
        assert_eq!(args.out_or("x.json"), std::path::PathBuf::from("a.json"));
        assert_eq!(args.baseline, Some("b.json".into()));
        assert_eq!(args.names, ["rpc"]);
        let defaults = BenchArgs::parse_from([]);
        assert!(!defaults.quick);
        assert_eq!(
            defaults.out_or("x.json"),
            std::path::PathBuf::from("x.json")
        );
    }

    #[test]
    #[should_panic(expected = "--out requires a path")]
    fn out_without_path_panics() {
        let _ = BenchArgs::parse_from(["--out".to_string()]);
    }

    #[test]
    fn quick_scales_down() {
        let params = TableParams::table_5_3().quick();
        assert_eq!(params.capacity_blocks, 8 * 1024);
        assert_eq!(params.requests, 3_125);
    }

    #[test]
    fn workload_is_hot_heavy() {
        let params = TableParams::table_5_3().quick();
        let requests = params.workload();
        let hot_bound = params.memory_slots / 2;
        let hot = requests.iter().filter(|r| r.id.0 < hot_bound).count();
        assert!(hot as f64 / requests.len() as f64 > 0.7);
    }

    #[test]
    fn tiny_experiment_shapes_hold() {
        // A miniature of Table 5-3: H-ORAM must beat the baseline on total
        // time and use fewer I/O accesses.
        let params = TableParams {
            capacity_blocks: 2048,
            memory_slots: 256,
            requests: 600,
            payload_len: 8,
            seed: 5,
        };
        let horam = SystemRow::horam(&params, MachineConfig::dac2019());
        let baseline = run_tree_top_baseline(&params, MachineConfig::dac2019());
        assert!(
            horam.io_accesses < baseline.io_accesses,
            "H-ORAM {} vs baseline {} I/O accesses",
            horam.io_accesses,
            baseline.io_accesses
        );
        assert!(
            horam.total_time < baseline.total_time,
            "H-ORAM {} vs baseline {}",
            horam.total_time,
            baseline.total_time
        );
        assert!(horam.io_latency < baseline.io_latency);
    }
}
