//! Ablation: the oblivious shuffle used by the tree evict (§4.3.1).
//!
//! The paper requires "an oblivious version of shuffle" for the evict
//! buffer but leaves the algorithm open. The engine defaults to the
//! bitonic network (clearly oblivious, O(n log² n)); this ablation swaps
//! in each alternative and measures the impact on shuffle-period time.
//!
//! ```sh
//! cargo run --release -p bench --bin ablation_evict_shuffle
//! ```

use bench::{run_horam, TableParams};
use horam::analysis::table::Table;
use horam::shuffle::ShuffleAlgorithm;
use horam::storage::calibration::MachineConfig;
use horam::workload::{UniformWorkload, WorkloadGenerator};

fn main() {
    let params = TableParams::table_5_3().with_args();
    // Miss-heavy traffic so every configuration shuffles repeatedly.
    let mut generator = UniformWorkload::new(params.capacity_blocks, 0.0, params.seed);
    let requests = generator.generate(params.memory_slots as usize);

    println!(
        "Evict-shuffle ablation — {} blocks, {} requests, memory {} slots\n",
        params.capacity_blocks,
        requests.len(),
        params.memory_slots
    );
    let mut table = Table::new(vec![
        "algorithm",
        "oblivious",
        "shuffles",
        "shuffle time",
        "total time",
    ]);

    for algorithm in ShuffleAlgorithm::ALL {
        let oram = run_horam(&params, MachineConfig::dac2019(), 0x77, &requests, |c| {
            c.with_evict_shuffle(algorithm)
        });
        let stats = oram.stats();
        table.row(vec![
            algorithm.to_string(),
            if algorithm.is_oblivious() {
                "yes".into()
            } else {
                "NO (in-enclave only)".to_string()
            },
            stats.shuffles.to_string(),
            stats.shuffle_wall_time.to_string(),
            stats.total_wall_time().to_string(),
        ]);
    }
    println!("{table}");
    println!("Expected shape: the evict buffer lives in fast memory, so even the");
    println!("O(n log^2 n) bitonic network adds little next to the storage streaming");
    println!("pass — which is exactly why the paper can afford a fully oblivious evict.");
    println!("(fisher-yates is listed for scale; it must only run inside the enclave.)");
}
