//! The CI bench suite: runs the gates of [`bench::gates::GATES`] (all, or
//! those named), merges their reports into one `BENCH.json` (or `--out
//! <path>`), and exits nonzero if any gate fails. `--baseline <path>`
//! also fails on a trend ratio >25 % below the committed baseline's
//! (a partial run reports the skipped gates' ratios as missing).
//!
//! ```sh
//! cargo run --release -p bench --bin suite -- \
//!     [--quick] [--out <path>] [--baseline BENCH_baseline.json] [<gate>...]
//! ```

use bench::gates::{
    baseline_regressions, merge_outcomes, rpc_role_hook, run_gate, write_report, Gate, GATES,
};
use bench::BenchArgs;

/// Trend tolerance: fail on >25 % regression of any tracked ratio.
const TREND_TOLERANCE: f64 = 0.25;

fn main() {
    // The rpc gate re-execs this binary as its worker processes; when
    // the role env var routes us there, run the role and exit.
    rpc_role_hook();
    let args = BenchArgs::parse();
    let gates: Vec<&Gate> = if args.names.is_empty() {
        GATES.iter().collect()
    } else {
        args.names
            .iter()
            .map(|name| {
                GATES
                    .iter()
                    .find(|gate| gate.name == name)
                    .unwrap_or_else(|| {
                        let names: Vec<&str> = GATES.iter().map(|gate| gate.name).collect();
                        eprintln!("unknown gate {name:?}; gates: {}", names.join(" "));
                        std::process::exit(2);
                    })
            })
            .collect()
    };
    let outcomes: Vec<_> = gates
        .iter()
        .map(|gate| run_gate(gate, args.quick))
        .collect();

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
