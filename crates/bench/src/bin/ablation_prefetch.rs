//! Ablation: the prefetch distance `d` (paper §4.2, Figure 4-2).
//!
//! The scheduler scans `d > c` ROB entries to find a miss to overlap with
//! the current group. Larger `d` finds misses earlier (fewer dummy I/O
//! loads, fewer padded cycles); the paper's example uses d = 3c. This
//! binary sweeps `d` and reports dummy-padding rates.
//!
//! ```sh
//! cargo run --release -p bench --bin ablation_prefetch
//! ```

use bench::{run_horam, TableParams};
use horam::analysis::table::Table;
use horam::storage::calibration::MachineConfig;

fn main() {
    let params = TableParams {
        requests: 10_000,
        ..TableParams::table_5_3()
    }
    .with_args();
    let requests = params.workload();

    println!(
        "Prefetch-distance sweep — {} blocks, {} requests, stages c = 1/3/5\n",
        params.capacity_blocks,
        requests.len()
    );
    let mut table = Table::new(vec![
        "d",
        "cycles",
        "dummy mem accesses",
        "dummy io loads",
        "access time",
    ]);

    for d in [6usize, 9, 15, 20, 40] {
        let oram = run_horam(&params, MachineConfig::dac2019(), 0xEF, &requests, |c| {
            c.with_prefetch_distance(d)
        });
        let stats = oram.stats();
        table.row(vec![
            d.to_string(),
            stats.cycles.to_string(),
            stats.dummy_memory_accesses.to_string(),
            stats.dummy_io_loads.to_string(),
            stats.access_wall_time.to_string(),
        ]);
    }
    println!("{table}");
    println!("Expected shape: larger d lowers dummy padding (the scheduler finds real");
    println!("work further ahead) with diminishing returns once d covers the typical");
    println!("distance between misses.");
}
