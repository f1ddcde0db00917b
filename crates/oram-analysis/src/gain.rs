//! Figure 5-1: theoretical performance gain of H-ORAM over Path ORAM.
//!
//! The paper plots the overhead-reduction factor against the
//! storage/memory ratio `N/n` with one curve per grouping factor `c`
//! (Z = 4). This module generates those series from the closed-form model
//! in [`crate::model`]. Both gain metrics are emitted (per request and
//! per I/O access). They bracket the paper's quoted ~8× at `c = 4`,
//! `N/n = 8`: ≈ 3.8× per I/O access and ≈ 15.1× per request.

use crate::model::OramModel;
use serde::{Deserialize, Serialize};

/// One point of a Figure 5-1 curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GainPoint {
    /// Grouping factor `c` of the curve.
    pub c: u32,
    /// Storage-to-memory ratio `N/n`.
    pub ratio: u64,
    /// Overhead reduction per request (commensurable units).
    pub gain_per_request: f64,
    /// Overhead reduction per I/O access (the paper's Table 5-1 unit).
    pub gain_per_io_access: f64,
    /// The no-shuffle ideal (client/server offload case, Fig. 5-2).
    pub gain_ideal: f64,
}

/// Generates the Figure 5-1 series: one [`GainPoint`] per `(c, ratio)`.
///
/// `write_cost_ratio` weights writes against reads (1.0 = symmetric;
/// ≈1.86 matches the paper's measured HDD). The memory size is fixed at
/// the paper's 128 MB of 1 KB blocks; the model depends on `N/n` only
/// through the ratio, so this choice does not affect the curves.
pub fn gain_series(cs: &[u32], ratios: &[u64], write_cost_ratio: f64) -> Vec<GainPoint> {
    let memory_slots: u64 = 1 << 17;
    let mut points = Vec::with_capacity(cs.len() * ratios.len());
    for &c in cs {
        for &ratio in ratios {
            let model = OramModel::new(memory_slots * ratio, memory_slots, 4, c as f64);
            points.push(GainPoint {
                c,
                ratio,
                gain_per_request: model.gain_per_request(write_cost_ratio),
                gain_per_io_access: model.gain_per_io_access(write_cost_ratio),
                gain_ideal: model.gain_ideal_no_shuffle(write_cost_ratio),
            });
        }
    }
    points
}

/// The sweep the paper's figure uses: `c ∈ {1, 2, 4, 8, 16}`,
/// `N/n ∈ {2, 4, …, 1024}`.
pub fn paper_sweep(write_cost_ratio: f64) -> Vec<GainPoint> {
    gain_series(
        &[1, 2, 4, 8, 16],
        &[2, 4, 8, 16, 32, 64, 128, 256, 512, 1024],
        write_cost_ratio,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_covers_the_grid() {
        let points = gain_series(&[1, 4], &[2, 8, 32], 1.0);
        assert_eq!(points.len(), 6);
        assert!(points.iter().any(|p| p.c == 4 && p.ratio == 8));
    }

    #[test]
    fn higher_c_dominates_pointwise() {
        let points = paper_sweep(1.0);
        for ratio in [2u64, 8, 64, 1024] {
            let at = |c: u32| {
                points
                    .iter()
                    .find(|p| p.c == c && p.ratio == ratio)
                    .expect("grid point")
                    .gain_per_request
            };
            assert!(at(16) > at(4), "ratio {ratio}");
            assert!(at(4) > at(1), "ratio {ratio}");
        }
    }

    #[test]
    fn paper_quote_is_bracketed_by_the_two_metrics() {
        // The paper quotes ~8× at (c=4, N/n=8). Its Eq. 5-4 mixes
        // per-request and per-I/O-access units; our two clean metrics
        // bracket the quoted value:
        // per-I/O-access ≈ 3.8×, per-request ≈ 15.1×.
        let point = gain_series(&[4], &[8], 1.0)[0];
        assert!(
            (3.5..4.0).contains(&point.gain_per_io_access),
            "{}",
            point.gain_per_io_access
        );
        assert!(
            (14.5..15.5).contains(&point.gain_per_request),
            "{}",
            point.gain_per_request
        );
        assert!(point.gain_per_io_access < 8.0 && 8.0 < point.gain_per_request);
    }

    #[test]
    fn gain_declines_toward_huge_ratios() {
        let points = paper_sweep(1.0);
        let c4 = |ratio: u64| {
            points
                .iter()
                .find(|p| p.c == 4 && p.ratio == ratio)
                .unwrap()
                .gain_per_request
        };
        assert!(c4(2) > c4(64));
        assert!(c4(64) > c4(1024));
    }

    #[test]
    fn ideal_gain_grows_with_ratio() {
        // The no-shuffle case keeps improving as the tree deepens.
        let points = paper_sweep(1.0);
        let ideal = |ratio: u64| {
            points
                .iter()
                .find(|p| p.c == 1 && p.ratio == ratio)
                .unwrap()
                .gain_ideal
        };
        assert!(ideal(1024) > ideal(8));
        // Table 5-1's point (ratio 8): 32×.
        assert_eq!(ideal(8), 32.0);
    }

    #[test]
    fn write_weighting_changes_levels_not_ordering() {
        let even = gain_series(&[4], &[8], 1.0)[0];
        let skewed = gain_series(&[4], &[8], 1.86)[0];
        assert_ne!(even.gain_per_request, skewed.gain_per_request);
        assert!(skewed.gain_per_request > 0.0);
    }
}
