//! Latency-distribution summaries.
//!
//! The paper reports only mean I/O latencies; tail behaviour is what a
//! deployment cares about (a shuffle stall is very different from a slow
//! mean). [`LatencySummary`] condenses a sample of simulated durations
//! into mean/percentile form for the experiment reports and ablations.

use oram_storage::clock::SimDuration;

/// Percentile summary of a duration sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencySummary {
    /// Sample count.
    pub count: usize,
    /// Smallest observation.
    pub min: SimDuration,
    /// Arithmetic mean.
    pub mean: SimDuration,
    /// Median (p50).
    pub p50: SimDuration,
    /// 95th percentile.
    pub p95: SimDuration,
    /// 99th percentile.
    pub p99: SimDuration,
    /// Largest observation.
    pub max: SimDuration,
}

impl LatencySummary {
    /// Summarizes a sample.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample (no meaningful percentiles exist; callers
    /// decide how to report "no data").
    pub fn of(samples: &[SimDuration]) -> Self {
        assert!(
            !samples.is_empty(),
            "latency summary needs at least one sample"
        );
        let mut sorted: Vec<SimDuration> = samples.to_vec();
        sorted.sort_unstable();
        let total_nanos: u64 = sorted.iter().map(|d| d.as_nanos()).sum();
        Self {
            count: sorted.len(),
            min: sorted[0],
            mean: SimDuration::from_nanos(total_nanos / sorted.len() as u64),
            p50: percentile(&sorted, 0.50),
            p95: percentile(&sorted, 0.95),
            p99: percentile(&sorted, 0.99),
            max: *sorted.last().expect("non-empty"),
        }
    }

    /// One-line rendering for reports.
    pub fn render(&self) -> String {
        format!(
            "n={} min={} mean={} p50={} p95={} p99={} max={}",
            self.count, self.min, self.mean, self.p50, self.p95, self.p99, self.max
        )
    }
}

/// Nearest-rank percentile of a sorted sample.
fn percentile(sorted: &[SimDuration], q: f64) -> SimDuration {
    debug_assert!(!sorted.is_empty());
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    #[test]
    fn summary_of_uniform_ramp() {
        let samples: Vec<SimDuration> = (1..=100).map(us).collect();
        let summary = LatencySummary::of(&samples);
        assert_eq!(summary.count, 100);
        assert_eq!(summary.min, us(1));
        assert_eq!(summary.max, us(100));
        assert_eq!(summary.p50, us(50));
        assert_eq!(summary.p95, us(95));
        assert_eq!(summary.p99, us(99));
        // Mean of 1..=100 µs is 50.5 µs = 50 500 ns.
        assert_eq!(summary.mean, SimDuration::from_nanos(50_500));
    }

    #[test]
    fn summary_is_order_invariant() {
        let a = vec![us(3), us(1), us(2)];
        let b = vec![us(1), us(2), us(3)];
        assert_eq!(LatencySummary::of(&a), LatencySummary::of(&b));
    }

    #[test]
    fn singleton_sample() {
        let summary = LatencySummary::of(&[us(7)]);
        assert_eq!(summary.p50, us(7));
        assert_eq!(summary.p99, us(7));
        assert_eq!(summary.mean, us(7));
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_sample_panics() {
        LatencySummary::of(&[]);
    }

    #[test]
    fn tail_dominated_sample() {
        // 99 fast + 1 slow: p95 stays fast, max shows the stall.
        let mut samples = vec![us(10); 99];
        samples.push(us(10_000));
        let summary = LatencySummary::of(&samples);
        assert_eq!(summary.p95, us(10));
        assert_eq!(summary.max, us(10_000));
        assert!(summary.mean > us(10) && summary.mean < us(200));
    }

    #[test]
    fn render_mentions_percentiles() {
        let text = LatencySummary::of(&[us(1), us(2)]).render();
        assert!(text.contains("p95"));
        assert!(text.contains("n=2"));
    }
}
