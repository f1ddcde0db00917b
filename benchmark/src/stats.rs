//! Order statistics for latency samples and repeated timings.

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample with at least `p` percent of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice or `p` outside `(0, 100]`.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of range");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Number of samples strictly beyond the `p`-th percentile's rank — the
/// benchmark reports a percentile only with at least ten of them.
pub fn samples_beyond(len: usize, p: f64) -> usize {
    len - ((p / 100.0 * len as f64).ceil() as usize).clamp(1, len.max(1))
}

/// The `p`-th percentile of a typical stretch of the run: `samples`, in
/// completion order, are cut into equal consecutive windows — as many as
/// have at least `min_window` samples each, at most `max_windows` — and
/// the median of the windows' percentiles is returned with the window
/// count.
///
/// A whole-run tail percentile is set by the one or two worst moments of
/// the run (a shuffle epoch that met a host hiccup), so it jumps from run
/// to run; the median over windows that each hold about one epoch moves
/// only when the typical epoch does.
///
/// # Panics
///
/// Panics on no samples, or `p` outside `(0, 100]`.
pub fn windowed_percentile(
    samples: &[u64],
    p: f64,
    max_windows: usize,
    min_window: usize,
) -> (f64, usize) {
    let windows = (samples.len() / min_window).clamp(1, max_windows);
    let per_window: Vec<f64> = samples
        .chunks(samples.len() / windows)
        .take(windows)
        .map(|window| {
            let mut sorted = window.to_vec();
            sorted.sort_unstable();
            percentile(&sorted, p) as f64
        })
        .collect();
    (median(&per_window), windows)
}

/// Median of unsorted values (mean of the two middle ones for an even
/// count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&samples, 50.0), 50);
        assert_eq!(percentile(&samples, 99.0), 99);
        assert_eq!(percentile(&samples, 100.0), 100);
        assert_eq!(percentile(&samples, 0.5), 1);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[1, 2, 3, 4], 50.0), 2);
    }

    #[test]
    fn beyond_counts_the_tail() {
        assert_eq!(samples_beyond(100, 99.0), 1);
        assert_eq!(samples_beyond(2000, 99.0), 20);
        assert_eq!(samples_beyond(1, 99.0), 0);
    }

    #[test]
    fn windowed_percentile_ignores_one_bad_window() {
        // Four windows of 100; one of them is ten times slower.
        let mut samples: Vec<u64> = (0..400).map(|i| 1 + i % 100).collect();
        for slow in &mut samples[100..200] {
            *slow *= 10;
        }
        assert_eq!(windowed_percentile(&samples, 99.0, 8, 100), (99.0, 4));
        // Too few samples for more than one window: the plain percentile.
        assert_eq!(windowed_percentile(&samples, 99.0, 8, 400), (960.0, 1));
        // The window count is capped.
        assert_eq!(windowed_percentile(&samples, 50.0, 2, 10).1, 2);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
