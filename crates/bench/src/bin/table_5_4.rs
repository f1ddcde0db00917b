//! Table 5-4: 1 GB dataset with 500 000 requests (simulated).
//!
//! The large-scale companion of Table 5-3; expect a few minutes of host
//! time at full scale (`--quick` runs a 1/8-scale smoke test).
//!
//! ```sh
//! cargo run --release -p bench --bin table_5_4          # full scale
//! cargo run --release -p bench --bin table_5_4 -- --quick
//! ```

use bench::{print_system_table, SystemTable, TableParams};

fn main() {
    print_system_table(&SystemTable {
        name: "Table 5-4",
        id: "table-5-4",
        title: "Large dataset comparison",
        params: TableParams::table_5_4(),
        storage: |bytes| format!("{:.2} GB", bytes as f64 / (1u64 << 30) as f64),
        paper: [
            "129235 vs 500000",
            "107 us vs 1364 us",
            "9743 ms * 2",
            "29657 ms vs 682041 ms (22.9x)",
        ],
    });
}
