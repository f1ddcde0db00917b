//! Wall-clock parallel engine: threaded shard pump vs the serial path.
//!
//! Thin wrapper over [`bench::gates::parallel_gate`]: the 4-shard Zipf
//! schedule is drained at 1/2/4(/8) worker threads, host wall-clock time
//! is measured per row, and 4 threads must beat 1 thread by ≥ 1.5× on a
//! ≥ 4-core host — as the median of five alternating pairs (the bar
//! scales down with `available_parallelism` — a single-core runner
//! cannot physically show a wall-clock speedup). Byte-identical
//! responses and statistics across thread counts are enforced
//! unconditionally, on every run. Writes the machine-readable report to
//! `BENCH_parallel.json` (or `--out <path>`) and exits nonzero when the
//! gate fails.
//!
//! ```sh
//! cargo run --release -p bench --bin parallel [-- --quick] [-- --out <path>]
//! ```

use bench::gates::{gate_main, parallel_gate};

fn main() {
    gate_main("BENCH_parallel.json", parallel_gate)
}
