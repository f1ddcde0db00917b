//! Table 5-2: experimental machine setup.
//!
//! Prints the simulated machine standing in for the paper's testbed, with
//! the calibration constants the simulator adds: the seek model is fitted
//! to the paper's measured per-access latencies.
//!
//! ```sh
//! cargo run -p bench --bin table_5_2
//! ```

use horam::analysis::table::Table;
use horam::storage::calibration::MachineConfig;

fn main() {
    println!("Table 5-2 — experimental machine setup (simulated substitute)\n");
    let config = MachineConfig::dac2019();
    let mut table = Table::new(vec!["component", "value"]);
    for (key, value) in config.setup_rows() {
        table.row(vec![key, value]);
    }
    println!("{table}");
    println!("Paper's machine: Ubuntu 16.04, Intel i7-7700K, DDR4 PC4-2133 16 GB,");
    println!("HDD 7200RPM 500GB, measured 102.7 MB/s read / 55.2 MB/s write.");
    println!();
    println!("Substitution: a deterministic timing simulator replaces the physical");
    println!("machine (calibration::MachineConfig). Throughputs are the paper's; the seek model");
    println!("(55 us + 1 ms x sqrt(distance/capacity)) is fitted to the paper's measured");
    println!("per-access latencies (77 us @ 64 MB span, 107 us @ 1 GB span).");
}
