//! Figure 5-2: the non-shuffle (client/server offload) case.
//!
//! The paper's Figure 5-2 sketches the deployment where the shuffle runs
//! entirely on the storage server during idle time, so the *client* pays
//! only access-period cost. This binary measures Table 5-3's workload
//! under both accountings and reports the ideal-case speedups §5.1
//! discusses (up to 32× per I/O access at N/n = 8).
//!
//! ```sh
//! cargo run --release -p bench --bin fig_5_2            # Table 5-3 scale
//! cargo run --release -p bench --bin fig_5_2 -- --quick
//! ```

use bench::{run_tree_top_baseline, speedup, SystemRow, TableParams};
use horam::analysis::model::OramModel;
use horam::analysis::report::ExperimentReport;
use horam::analysis::table::Table;
use horam::storage::calibration::MachineConfig;
use horam::storage::clock::SimDuration;

fn main() {
    let params = TableParams::table_5_3().with_args();

    println!("Figure 5-2 — shuffle-offload (client/server) accounting\n");
    let horam = SystemRow::horam(&params, MachineConfig::dac2019());
    let baseline = run_tree_top_baseline(&params, MachineConfig::dac2019());
    let client_time: SimDuration = horam.total_time - horam.shuffle_time;

    let mut table = Table::new(vec!["accounting", "H-ORAM", "Path ORAM", "speedup"]);
    table.row(vec![
        "single machine (total)".into(),
        horam.total_time.to_string(),
        baseline.total_time.to_string(),
        speedup(baseline.total_time, horam.total_time),
    ]);
    table.row(vec![
        "client view (shuffle offloaded)".into(),
        client_time.to_string(),
        baseline.total_time.to_string(),
        speedup(baseline.total_time, client_time),
    ]);
    println!("{table}");

    let model = OramModel::new(params.capacity_blocks, params.memory_slots, 4, 3.94);
    let mut report = ExperimentReport::new(
        "fig-5-2",
        "Non-shuffle (offload) case",
        format!(
            "{} requests on the Table 5-3 configuration",
            params.requests
        ),
    );
    report.compare(
        "ideal per-I/O gain without shuffle (model)",
        "32x",
        format!("{:.0}x", model.gain_ideal_no_shuffle(1.0)),
    );
    report.compare(
        "measured client-view speedup",
        "(not quoted; bounded by 32x)",
        speedup(baseline.total_time, client_time),
    );
    report.note(
        "Client view removes shuffle wall-time only; background server I/O still runs. \
         The paper additionally notes sequential shuffle I/O is ~10-20x faster than \
         random access, which the simulator reproduces (see the HDD model tests).",
    );
    println!("{}", report.render());
}
