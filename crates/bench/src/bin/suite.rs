//! The consolidated CI bench suite: serving, the batched I/O pipeline,
//! sharding, the wall-clock parallel engine, durability/recovery, the
//! oblivious block cache, chaos (failure hardening under fault
//! injection), capacity (recursive position map at 16× scale), and
//! network serving.
//!
//! Runs every regression gate in sequence, merges their machine-readable
//! reports into one `BENCH.json` (or `--out <path>`), and exits nonzero
//! if **any** gate fails — CI runs this one binary and uploads the one
//! artifact instead of a step and file per gate.
//!
//! With `--baseline <path>` the fresh report is additionally diffed
//! against a committed one (`BENCH_baseline.json`): the deterministic
//! simulated-time throughput ratios (serving, I/O pipeline, sharding)
//! must not fall more than 25 % below their baseline values. The ratios
//! are pure functions of the simulation, so this check is runner-
//! independent.
//!
//! ```sh
//! cargo run --release -p bench --bin suite -- \
//!     [--quick] [--out <path>] [--baseline BENCH_baseline.json]
//! ```

use bench::gates::{
    baseline_regressions, cache_gate, capacity_gate, chaos_gate, io_pipeline_gate, merge_outcomes,
    parallel_gate, persistence_gate, rpc_gate, rpc_role_hook, serving_gate, sharding_gate,
    write_report,
};
use bench::BenchArgs;

/// Trend tolerance: fail on >25 % regression of any tracked ratio.
const TREND_TOLERANCE: f64 = 0.25;

fn main() {
    // The rpc gate re-execs this binary as its worker processes; when
    // the role env var routes us there, run the role and exit.
    rpc_role_hook();
    let args = BenchArgs::parse();
    let outcomes = vec![
        serving_gate(args.quick),
        io_pipeline_gate(args.quick),
        sharding_gate(args.quick),
        parallel_gate(args.quick),
        persistence_gate(args.quick),
        cache_gate(args.quick),
        chaos_gate(args.quick),
        capacity_gate(args.quick),
        rpc_gate(args.quick),
    ];

    let (report, mut pass) = merge_outcomes(&outcomes);
    for outcome in &outcomes {
        println!(
            "gate {:<12} {}",
            outcome.name,
            if outcome.pass { "PASS" } else { "FAIL" }
        );
    }

    if let Some(baseline_path) = &args.baseline {
        let baseline_json = std::fs::read_to_string(baseline_path)
            .unwrap_or_else(|e| panic!("reading baseline {}: {e}", baseline_path.display()));
        let baseline: serde::Value = serde_json::from_str(&baseline_json)
            .unwrap_or_else(|e| panic!("parsing baseline {}: {e}", baseline_path.display()));
        let regressions = baseline_regressions(&report, &baseline, TREND_TOLERANCE);
        if regressions.is_empty() {
            println!(
                "trend        PASS (all ratios within {:.0}% of {})",
                TREND_TOLERANCE * 100.0,
                baseline_path.display()
            );
        } else {
            println!("trend        FAIL vs {}:", baseline_path.display());
            for regression in &regressions {
                println!("  {regression}");
            }
            pass = false;
        }
    }

    write_report(&args.out_or("BENCH.json"), &report);
    std::process::exit(if pass { 0 } else { 1 });
}
