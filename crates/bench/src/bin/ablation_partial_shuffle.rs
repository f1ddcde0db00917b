//! Ablation (§5.3.1): the partial-shuffle ratio sweep.
//!
//! The paper proposes shuffling only a fraction `r` of the partitions per
//! period ("one partition is going to shuffle every 4 periods" for
//! r = 1/4), trading shuffle time against redundancy. This binary sweeps
//! `r ∈ {1, 1/2, 1/4, 1/8}` on the Table 5-3 configuration and prints the
//! resulting shuffle/access balance — the "system profiling" the paper
//! says picks the proper ratio.
//!
//! A window whose free slots cannot hold the evicted blocks is extended
//! (counted in `spilled_blocks`), so below some `r` every smaller ratio
//! gets the same window and the same row (docs/TUNING.md).
//!
//! ```sh
//! cargo run --release -p bench --bin ablation_partial_shuffle
//! ```

use bench::{run_horam, TableParams};
use horam::analysis::table::Table;
use horam::storage::calibration::MachineConfig;
use horam::workload::{UniformWorkload, WorkloadGenerator};

fn main() {
    let params = TableParams::table_5_3().with_args();
    // A miss-heavy uniform workload drives one I/O load per request, so
    // each configuration crosses several period boundaries and the sweep
    // actually measures shuffling (hotspot traffic would mostly hit).
    let request_count = (3 * params.memory_slots as usize) / 2;
    let mut generator = UniformWorkload::new(params.capacity_blocks, 0.0, params.seed);
    let requests = generator.generate(request_count);

    println!(
        "Partial-shuffle sweep — {} blocks, {} requests per configuration\n",
        params.capacity_blocks,
        requests.len()
    );
    let mut table = Table::new(vec![
        "ratio r",
        "requested window ceil(r*P)",
        "shuffles",
        "shuffle time",
        "access time",
        "total time",
        "io loads",
        "spilled_blocks",
    ]);

    for (label, ratio) in [
        ("1 (full)", None),
        ("1/2", Some(0.5)),
        ("1/4", Some(0.25)),
        ("1/8", Some(0.125)),
    ] {
        let oram = run_horam(
            &params,
            MachineConfig::dac2019(),
            0xAB,
            &requests,
            |c| match ratio {
                Some(r) => c.with_partial_shuffle(r),
                None => c,
            },
        );
        let stats = oram.stats();
        table.row(vec![
            label.into(),
            oram.config().partitions_per_shuffle().to_string(),
            stats.shuffles.to_string(),
            stats.shuffle_wall_time.to_string(),
            stats.access_wall_time.to_string(),
            stats.total_wall_time().to_string(),
            stats.total_io_loads().to_string(),
            stats.spilled_blocks.to_string(),
        ]);
    }
    println!("{table}");
    println!("Expected shape (paper §5.3.1): smaller r shrinks per-period shuffle time;");
    println!("the trade-off is more redundancy (fuller window partitions, deferred");
    println!("cold-data refresh), so total time bottoms out at an intermediate r.");
}
