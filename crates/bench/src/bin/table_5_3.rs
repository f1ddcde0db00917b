//! Table 5-3: 64 MB dataset with 25 000 requests (simulated).
//!
//! Drives H-ORAM and the tree-top-cache Path ORAM baseline with the same
//! hotspot trace on the calibrated machine model, and prints the paper's
//! rows side by side with the measured values.
//!
//! ```sh
//! cargo run --release -p bench --bin table_5_3          # full scale
//! cargo run --release -p bench --bin table_5_3 -- --quick
//! ```

use bench::{print_system_table, SystemTable, TableParams};

fn main() {
    print_system_table(&SystemTable {
        name: "Table 5-3",
        id: "table-5-3",
        title: "Small dataset comparison",
        params: TableParams::table_5_3(),
        storage: |bytes| format!("{} MB", bytes >> 20),
        paper: [
            "7228 vs 25000",
            "77 us vs 1032 us",
            "729 ms * 1",
            "1290 ms vs 25575 ms (19.8x)",
        ],
    });
}
