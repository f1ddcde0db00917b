//! Table 5-1: overhead comparison for one period.
//!
//! Reconstructs every row of the paper's table from the closed-form model
//! for arbitrary parameter points (the paper's: 1 GB data, 128 MB memory,
//! 1 KB blocks).

use crate::model::OramModel;

/// All quantities of the paper's Table 5-1 for one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PeriodOverhead {
    /// Block size in bytes.
    pub block_bytes: u64,
    /// H-ORAM storage footprint in bytes (`N` blocks; headroom reported
    /// separately by the simulator).
    pub horam_storage_bytes: u64,
    /// Baseline storage footprint in bytes (≈`2N` blocks).
    pub path_storage_bytes: u64,
    /// Memory footprint in bytes (both systems).
    pub memory_bytes: u64,
    /// In-memory tree levels (H-ORAM's whole tree; the baseline's top).
    pub memory_levels: f64,
    /// Baseline tree levels (memory + storage).
    pub path_levels: f64,
    /// Requests serviced per period: H-ORAM `n·ĉ/2` vs. baseline `n/2`
    /// (the paper normalizes the baseline to the same I/O count).
    pub horam_requests_per_period: f64,
    /// Baseline requests for the same I/O budget.
    pub path_requests_per_period: f64,
    /// H-ORAM access overhead per I/O access, KB read.
    pub horam_access_read_kb: f64,
    /// Baseline access overhead per request, KB read (= KB written).
    pub path_access_kb_each_way: f64,
    /// Shuffle overhead per period: bytes read.
    pub shuffle_read_bytes: u64,
    /// Shuffle overhead per period: bytes written.
    pub shuffle_write_bytes: u64,
    /// H-ORAM amortized overhead per I/O access: KB read.
    pub horam_avg_read_kb: f64,
    /// H-ORAM amortized overhead per I/O access: KB written.
    pub horam_avg_write_kb: f64,
}

impl PeriodOverhead {
    /// Computes the table for a model and block size.
    pub fn compute(model: &OramModel, block_bytes: u64) -> Self {
        let horam_access = model.horam_io_per_access();
        let path_access = model.path_oram_io_per_request();
        let shuffle = model.shuffle_traffic();
        let kb = block_bytes as f64 / 1024.0;
        Self {
            block_bytes,
            horam_storage_bytes: model.capacity * block_bytes,
            path_storage_bytes: 2 * model.capacity * block_bytes,
            memory_bytes: model.memory_slots * block_bytes,
            memory_levels: model.memory_levels(),
            path_levels: model.memory_levels() + model.storage_levels(),
            horam_requests_per_period: model.requests_per_period(),
            path_requests_per_period: model.io_per_period(),
            horam_access_read_kb: kb,
            path_access_kb_each_way: path_access.reads * kb,
            shuffle_read_bytes: (shuffle.reads * block_bytes as f64) as u64,
            shuffle_write_bytes: (shuffle.writes * block_bytes as f64) as u64,
            horam_avg_read_kb: horam_access.reads * kb,
            horam_avg_write_kb: horam_access.writes * kb,
        }
    }

    /// The paper's exact parameter point (1 GB / 128 MB / 1 KB, ĉ = 4).
    pub fn paper_point() -> Self {
        Self::compute(&OramModel::new(1 << 20, 1 << 17, 4, 4.0), 1024)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_point_reproduces_table_5_1() {
        let t = PeriodOverhead::paper_point();
        assert_eq!(t.horam_storage_bytes, 1 << 30); // 1 GB
        assert_eq!(t.path_storage_bytes, 2 << 30); // ≈ paper's 1.875 GB (2N convention)
        assert_eq!(t.memory_bytes, 128 << 20); // 128 MB
        assert_eq!(t.path_levels, 19.0); // paper counts 16 + 4 = 20 (inclusive)
        assert_eq!(t.horam_requests_per_period, 262_144.0);
        assert_eq!(t.path_requests_per_period, 65_536.0);
        assert_eq!(t.horam_access_read_kb, 1.0);
        assert_eq!(t.path_access_kb_each_way, 16.0);
        // 0.875 GB read + 1 GB written.
        assert_eq!(t.shuffle_read_bytes, (1u64 << 30) - (128 << 20));
        assert_eq!(t.shuffle_write_bytes, 1 << 30);
        assert!((t.horam_avg_read_kb - 4.5).abs() < 1e-9);
        assert!((t.horam_avg_write_kb - 4.0).abs() < 1e-9);
    }
}
