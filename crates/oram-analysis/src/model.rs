//! Closed-form I/O cost models (paper §5.1, Eqs. 5-1 … 5-4).
//!
//! Notation (the paper's): `N` = total blocks, `n` = in-memory tree slots,
//! `Z` = bucket size, `ĉ` = schedule-averaged grouping factor (Eq. 5-1),
//! block size `B`.
//!
//! * **Tree-top-cache Path ORAM** (Eq. 5-2/5-3): the tree has
//!   `log₂(n/Z) + log₂(2N/n)` levels; the bottom `log₂(2N/n)` levels live
//!   on storage, so each request moves `Z·log₂(2N/n)` blocks in each
//!   direction over the I/O bus.
//! * **H-ORAM** (Eq. 5-4): each I/O access fetches one block; after
//!   `n·ĉ/2` requests (`n/2` loads) the shuffle streams `N − n` block
//!   reads and `N` block writes. Amortized per I/O access:
//!   `1 + 2(N−n)/(n·ĉ)` block reads and `2N/(n·ĉ)` block writes.
//!
//! The paper's Figure 5-1 plots the resulting overhead reduction; see
//! [`crate::gain`] for the exact metric choices (the paper mixes
//! per-request and per-I/O-access units — both are provided, and they
//! bracket the paper's quoted value).

/// Average grouping factor ĉ over a stage schedule (Eq. 5-1): stages are
/// `(c_i, fraction_i)` with fractions summing to 1.
pub fn average_c(stages: &[(u32, f64)]) -> f64 {
    stages
        .iter()
        .map(|&(c, fraction)| c as f64 * fraction)
        .sum()
}

/// I/O cost of one logical operation, in blocks moved per direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessCost {
    /// Blocks read over the I/O bus.
    pub reads: f64,
    /// Blocks written over the I/O bus.
    pub writes: f64,
}

impl AccessCost {
    /// Weighted single-figure cost: `reads + write_cost_ratio · writes`
    /// (the paper's HDD writes ≈2× slower than reads).
    pub fn weighted(&self, write_cost_ratio: f64) -> f64 {
        self.reads + write_cost_ratio * self.writes
    }
}

/// The analytical model for a given parameter point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OramModel {
    /// Total dataset blocks `N`.
    pub capacity: u64,
    /// In-memory tree slots `n`.
    pub memory_slots: u64,
    /// Bucket size `Z`.
    pub z: u32,
    /// Schedule-averaged grouping factor ĉ.
    pub average_c: f64,
}

impl OramModel {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics unless `capacity > memory_slots > 0` and `ĉ ≥ 1`.
    pub fn new(capacity: u64, memory_slots: u64, z: u32, average_c: f64) -> Self {
        assert!(memory_slots > 0, "memory must be positive");
        assert!(
            capacity > memory_slots,
            "model applies when data exceeds memory"
        );
        assert!(average_c >= 1.0, "average c must be ≥ 1");
        assert!(z > 0, "bucket size must be positive");
        Self {
            capacity,
            memory_slots,
            z,
            average_c,
        }
    }

    /// `N/n` — the storage-to-memory ratio the paper's Figure 5-1 sweeps.
    pub fn ratio(&self) -> f64 {
        self.capacity as f64 / self.memory_slots as f64
    }

    /// In-memory tree levels, `log₂(n/Z)` (Eq. 5-2, left term).
    pub fn memory_levels(&self) -> f64 {
        (self.memory_slots as f64 / self.z as f64).log2()
    }

    /// Storage-resident tree levels of the baseline, `log₂(2N/n)`
    /// (Eq. 5-2, right term).
    pub fn storage_levels(&self) -> f64 {
        (2.0 * self.capacity as f64 / self.memory_slots as f64).log2()
    }

    /// Baseline per-request I/O cost (Eq. 5-3): `Z·log₂(2N/n)` blocks in
    /// each direction.
    pub fn path_oram_io_per_request(&self) -> AccessCost {
        let blocks = self.z as f64 * self.storage_levels();
        AccessCost {
            reads: blocks,
            writes: blocks,
        }
    }

    /// H-ORAM per-I/O-access cost (Eq. 5-4): the unit the paper's
    /// Table 5-1 reports ("average overhead 4.5 KB read + 4 KB write").
    pub fn horam_io_per_access(&self) -> AccessCost {
        let n = self.memory_slots as f64;
        let cap = self.capacity as f64;
        let nc = n * self.average_c;
        AccessCost {
            reads: 1.0 + 2.0 * (cap - n) / nc,
            writes: 2.0 * cap / nc,
        }
    }

    /// H-ORAM per-*request* cost: one request is 1/ĉ of an I/O access
    /// (each load accompanies ĉ in-memory hits), so this divides
    /// [`horam_io_per_access`](Self::horam_io_per_access) by ĉ — the unit
    /// commensurable with [`path_oram_io_per_request`](Self::path_oram_io_per_request).
    pub fn horam_io_per_request(&self) -> AccessCost {
        let per_access = self.horam_io_per_access();
        AccessCost {
            reads: per_access.reads / self.average_c,
            writes: per_access.writes / self.average_c,
        }
    }

    /// Requests serviced per period, `n·ĉ/2` (Eq. 5-5).
    pub fn requests_per_period(&self) -> f64 {
        self.memory_slots as f64 * self.average_c / 2.0
    }

    /// I/O loads per period, `n/2`.
    pub fn io_per_period(&self) -> f64 {
        self.memory_slots as f64 / 2.0
    }

    /// Shuffle traffic per period in blocks: `(N − n)` reads + `N` writes
    /// (§5.1's Table 5-1 "shuffle overhead" row).
    pub fn shuffle_traffic(&self) -> AccessCost {
        AccessCost {
            reads: (self.capacity - self.memory_slots) as f64,
            writes: self.capacity as f64,
        }
    }

    /// Overhead-reduction factor per request (Fig. 5-1 family), weighting
    /// writes by `write_cost_ratio`.
    pub fn gain_per_request(&self, write_cost_ratio: f64) -> f64 {
        self.path_oram_io_per_request().weighted(write_cost_ratio)
            / self.horam_io_per_request().weighted(write_cost_ratio)
    }

    /// Overhead-reduction factor per I/O access (the paper's Table 5-1
    /// unit: 32 KB vs 8.5 KB ⇒ ≈3.8, or 32× in the no-shuffle ideal).
    pub fn gain_per_io_access(&self, write_cost_ratio: f64) -> f64 {
        self.path_oram_io_per_request().weighted(write_cost_ratio)
            / self.horam_io_per_access().weighted(write_cost_ratio)
    }

    /// The no-shuffle ideal gain (§5.1 end: "32 times faster" for the
    /// Table 5-1 point): baseline cost over the bare one-block fetch.
    pub fn gain_ideal_no_shuffle(&self, write_cost_ratio: f64) -> f64 {
        self.path_oram_io_per_request().weighted(write_cost_ratio) / 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Table 5-1 parameter point: 1 GB data, 128 MB memory,
    /// 1 KB blocks, Z = 4, ĉ = 4.
    fn table_5_1_model() -> OramModel {
        OramModel::new(1 << 20, 1 << 17, 4, 4.0)
    }

    #[test]
    fn average_c_matches_paper_schedule() {
        let c = average_c(&[(1, 0.20), (3, 0.13), (5, 0.67)]);
        assert!((c - 3.94).abs() < 1e-12);
    }

    #[test]
    fn storage_levels_match_table_5_1() {
        // log2(2N/n) = log2(2·2^20/2^17) = 4 extra levels (paper: "16+4").
        let m = table_5_1_model();
        assert_eq!(m.storage_levels(), 4.0);
        assert_eq!(m.memory_levels(), 15.0);
    }

    #[test]
    fn baseline_cost_is_16kb_each_way() {
        // Z·log2(2N/n) = 16 blocks = 16 KB with 1 KB blocks (Table 5-1).
        let cost = table_5_1_model().path_oram_io_per_request();
        assert_eq!(cost.reads, 16.0);
        assert_eq!(cost.writes, 16.0);
    }

    #[test]
    fn horam_cost_is_4_5_read_4_write() {
        // Table 5-1 average overhead row: 4.5 KB reads + 4 KB writes.
        let cost = table_5_1_model().horam_io_per_access();
        assert!((cost.reads - 4.5).abs() < 1e-9, "reads {}", cost.reads);
        assert!((cost.writes - 4.0).abs() < 1e-9, "writes {}", cost.writes);
    }

    #[test]
    fn requests_per_period_matches_eq_5_5() {
        assert_eq!(table_5_1_model().requests_per_period(), 262_144.0);
        assert_eq!(table_5_1_model().io_per_period(), 65_536.0);
    }

    #[test]
    fn shuffle_traffic_matches_table_5_1() {
        // 0.875 GB reads + 1 GB writes, in blocks.
        let traffic = table_5_1_model().shuffle_traffic();
        assert_eq!(traffic.reads, (1 << 20) as f64 - (1 << 17) as f64);
        assert_eq!(traffic.writes, (1 << 20) as f64);
    }

    #[test]
    fn ideal_no_shuffle_gain_is_32x() {
        // §5.1: "without considering the shuffle … 32 times faster".
        let gain = table_5_1_model().gain_ideal_no_shuffle(1.0);
        assert_eq!(gain, 32.0);
    }

    #[test]
    fn per_access_gain_is_modest_per_request_gain_is_large() {
        let m = table_5_1_model();
        let per_access = m.gain_per_io_access(1.0);
        let per_request = m.gain_per_request(1.0);
        assert!((per_access - 32.0 / 8.5).abs() < 1e-9);
        assert!((per_request - 4.0 * 32.0 / 8.5).abs() < 1e-9);
    }

    #[test]
    fn larger_c_increases_gain() {
        let base = OramModel::new(1 << 20, 1 << 17, 4, 2.0).gain_per_request(1.0);
        let more = OramModel::new(1 << 20, 1 << 17, 4, 8.0).gain_per_request(1.0);
        assert!(more > base);
    }

    #[test]
    fn gain_decays_for_huge_ratios() {
        // Shuffle cost dominates as N/n grows: gain falls.
        let small = OramModel::new(1 << 18, 1 << 17, 4, 4.0).gain_per_request(1.0);
        let huge = OramModel::new(1 << 27, 1 << 17, 4, 4.0).gain_per_request(1.0);
        assert!(small > huge);
    }

    #[test]
    #[should_panic(expected = "data exceeds memory")]
    fn model_requires_overflow_regime() {
        OramModel::new(100, 100, 4, 4.0);
    }
}
