//! Rotating-disk timing model.
//!
//! The paper's storage backend is a 7200 RPM, 500 GB HDD whose measured
//! throughput is 102.7 MB/s read / 55.2 MB/s write (Table 5-2), and whose
//! decisive property for H-ORAM is that **sequential transfers are 10–20×
//! faster than random page reads** (§5.2.1). This model captures exactly
//! the effects the evaluation depends on:
//!
//! * a **distance-scaled seek penalty** for discontiguous accesses
//!   (`seek_min + seek_coeff · sqrt(distance / capacity)`) — short hops
//!   inside a 64 MB ORAM region cost far less than sweeps across a 1 GB
//!   region, which is why the paper measures 77 µs/I-O on the small dataset
//!   but 107 µs/I-O on the large one;
//! * **asymmetric transfer rates**: reads stream at the measured read
//!   throughput; random writes pay the (slower) measured write throughput,
//!   while streaming writes coalesce to read-rate (write-back caching in
//!   the drive), which reproduces the paper's measured shuffle times;
//! * **head-position tracking**: an access that starts exactly where the
//!   previous one ended is sequential and pays no seek.
//!
//! Calibration constants live in [`crate::calibration`]; the `table_5_3`
//! and `table_5_4` bench binaries print the paper-vs-simulated latency
//! comparison.

use crate::clock::SimDuration;
use crate::device::{AccessKind, TimingModel};

/// Timing parameters for a rotating disk.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HddParams {
    /// Usable capacity in bytes (seek distances are normalized to this).
    pub capacity_bytes: u64,
    /// Minimum positioning cost for any discontiguous access (track switch
    /// + controller overhead), nanoseconds.
    pub seek_min_nanos: u64,
    /// Full-stroke positioning coefficient, nanoseconds; the seek cost is
    /// `seek_min + seek_coeff * sqrt(distance / capacity)`.
    pub seek_coeff_nanos: u64,
    /// Minimum positioning cost for a *queued* discontiguous access
    /// (nanoseconds). With the whole batch visible, the drive services
    /// commands in an elevator sweep: controller overhead overlaps the
    /// previous transfer and the average rotational wait shrinks, so the
    /// effective per-command floor drops well below
    /// [`seek_min_nanos`](Self::seek_min_nanos) — the classic NCQ win at
    /// queue depth ≥ 8.
    pub queued_seek_min_nanos: u64,
    /// Sequential/streaming read bandwidth, bytes per second.
    pub read_bandwidth: f64,
    /// Random write bandwidth (in-place block updates), bytes per second.
    pub write_bandwidth_random: f64,
    /// Streaming write bandwidth (large coalesced runs), bytes per second.
    pub write_bandwidth_streaming: f64,
}

impl HddParams {
    /// The drive of the paper's Table 5-2, calibrated against the measured
    /// per-access latencies of Tables 5-3/5-4 (see [`crate::calibration`]).
    pub fn dac2019() -> Self {
        Self {
            capacity_bytes: 500 * 1000 * 1000 * 1000, // 500 GB, decimal as marketed
            seek_min_nanos: 55_000,                   // 55 µs effective short seek
            seek_coeff_nanos: 1_000_000,              // +1 ms × sqrt(span fraction)
            queued_seek_min_nanos: 22_000,            // NCQ elevator floor (~2.5× lower)
            read_bandwidth: 102.7e6,                  // Table 5-2
            write_bandwidth_random: 55.2e6,           // Table 5-2
            write_bandwidth_streaming: 102.7e6,       // coalesced, see module docs
        }
    }
}

/// A rotating-disk timing model with head tracking.
#[derive(Debug, Clone)]
pub struct HddModel {
    params: HddParams,
    /// Byte address one past the end of the previous access, if any.
    head: Option<u64>,
}

impl HddModel {
    /// Creates a model from explicit parameters.
    pub fn new(params: HddParams) -> Self {
        assert!(params.capacity_bytes > 0, "capacity must be positive");
        assert!(
            params.read_bandwidth > 0.0,
            "read bandwidth must be positive"
        );
        assert!(
            params.write_bandwidth_random > 0.0,
            "write bandwidth must be positive"
        );
        assert!(
            params.write_bandwidth_streaming > 0.0,
            "streaming bandwidth must be positive"
        );
        Self { params, head: None }
    }

    /// The paper-calibrated drive (see [`HddParams::dac2019`]).
    pub fn paper_calibrated() -> Self {
        Self::new(HddParams::dac2019())
    }

    /// The model's parameters.
    pub fn params(&self) -> &HddParams {
        &self.params
    }

    /// Seek cost from the current head position to `offset`.
    fn seek_cost(&self, offset: u64) -> SimDuration {
        match self.head {
            Some(head) if head == offset => SimDuration::ZERO,
            Some(head) => {
                let distance = head.abs_diff(offset);
                let fraction = (distance as f64 / self.params.capacity_bytes as f64).min(1.0);
                let nanos = self.params.seek_min_nanos as f64
                    + self.params.seek_coeff_nanos as f64 * fraction.sqrt();
                SimDuration::from_nanos(nanos.round() as u64)
            }
            // First access after spin-up/reset: charge the minimum seek.
            None => SimDuration::from_nanos(self.params.seek_min_nanos),
        }
    }

    /// Seek cost for a command the drive already holds in its queue: the
    /// hop from the previous (elevator-ordered) position, with the queued
    /// positioning floor instead of the cold per-command minimum. A
    /// zero-distance hop (exactly sequential) stays free.
    fn queued_seek_cost(&self, offset: u64) -> SimDuration {
        match self.head {
            Some(head) if head == offset => SimDuration::ZERO,
            Some(head) => {
                let distance = head.abs_diff(offset);
                let fraction = (distance as f64 / self.params.capacity_bytes as f64).min(1.0);
                let nanos = self.params.queued_seek_min_nanos as f64
                    + self.params.seek_coeff_nanos as f64 * fraction.sqrt();
                SimDuration::from_nanos(nanos.round() as u64)
            }
            None => SimDuration::from_nanos(self.params.queued_seek_min_nanos),
        }
    }

    fn transfer_cost(&self, kind: AccessKind, bytes: u64, streaming: bool) -> SimDuration {
        let bandwidth = match (kind, streaming) {
            (AccessKind::Read, _) => self.params.read_bandwidth,
            (AccessKind::Write, false) => self.params.write_bandwidth_random,
            (AccessKind::Write, true) => self.params.write_bandwidth_streaming,
        };
        SimDuration::from_nanos((bytes as f64 / bandwidth * 1e9).round() as u64)
    }
}

impl TimingModel for HddModel {
    fn access_cost(&mut self, kind: AccessKind, offset: u64, bytes: u64) -> SimDuration {
        let cost = self.seek_cost(offset) + self.transfer_cost(kind, bytes, false);
        self.head = Some(offset + bytes);
        cost
    }

    fn streaming_cost(&mut self, kind: AccessKind, offset: u64, bytes: u64) -> SimDuration {
        let cost = self.seek_cost(offset) + self.transfer_cost(kind, bytes, true);
        self.head = Some(offset + bytes);
        cost
    }

    fn scatter_costs(
        &mut self,
        kind: AccessKind,
        offsets: &[u64],
        bytes_per_op: u64,
    ) -> Vec<SimDuration> {
        // Elevator scheduling: the head visits the batch in address order
        // (one sweep), while each cost is reported against its submission
        // index. The first command pays a cold seek from the current head
        // position; every queued follow-up pays the NCQ floor plus the
        // distance term for its (short) sorted-order hop.
        let mut order: Vec<usize> = (0..offsets.len()).collect();
        order.sort_by_key(|&i| offsets[i]);
        let mut costs = vec![SimDuration::ZERO; offsets.len()];
        for (position, &i) in order.iter().enumerate() {
            let offset = offsets[i];
            let seek = if position == 0 {
                self.seek_cost(offset)
            } else {
                self.queued_seek_cost(offset)
            };
            costs[i] = seek + self.transfer_cost(kind, bytes_per_op, false);
            self.head = Some(offset + bytes_per_op);
        }
        costs
    }

    fn sequential_bandwidth(&self, kind: AccessKind) -> f64 {
        match kind {
            AccessKind::Read => self.params.read_bandwidth,
            AccessKind::Write => self.params.write_bandwidth_streaming,
        }
    }

    fn reset(&mut self) {
        self.head = None;
    }

    fn state_words(&self) -> Vec<u64> {
        // Head position matters: a restored run must charge the same seek
        // costs as the uninterrupted one.
        match self.head {
            None => vec![0],
            Some(head) => vec![1, head],
        }
    }

    fn restore_state_words(&mut self, words: &[u64]) {
        self.head = match words {
            [0] => None,
            [1, head] => Some(*head),
            _ => panic!("malformed HDD timing state"),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> HddModel {
        HddModel::paper_calibrated()
    }

    #[test]
    fn sequential_followup_pays_no_seek() {
        let mut m = model();
        let first = m.access_cost(AccessKind::Read, 0, 1024);
        let second = m.access_cost(AccessKind::Read, 1024, 1024);
        assert!(
            second < first,
            "sequential {second} should beat first {first}"
        );
        // Pure transfer: 1024 B / 102.7 MB/s ≈ 9.97 µs.
        assert_eq!(
            second.as_nanos(),
            (1024.0 / 102.7e6 * 1e9f64).round() as u64
        );
    }

    #[test]
    fn random_read_latency_matches_calibration_small_span() {
        // Head hops within a 64 MB region: seek ≈ 55 µs + 1 ms·sqrt(64e6/500e9)
        // ≈ 66 µs; plus ~10 µs transfer → ≈ 76 µs (paper: 77 µs, Table 5-3).
        let mut m = model();
        m.access_cost(AccessKind::Read, 0, 1024);
        let cost = m.access_cost(AccessKind::Read, 64_000_000, 1024);
        let micros = cost.as_micros_f64();
        assert!((70.0..85.0).contains(&micros), "got {micros} µs");
    }

    #[test]
    fn random_read_latency_matches_calibration_large_span() {
        // Head hops across ~1 GB: ≈ 55 + 1000·sqrt(1e9/500e9) ≈ 100 µs seek
        // + 10 µs transfer (paper: 107 µs, Table 5-4).
        let mut m = model();
        m.access_cost(AccessKind::Read, 0, 1024);
        let cost = m.access_cost(AccessKind::Read, 1_000_000_000, 1024);
        let micros = cost.as_micros_f64();
        assert!((100.0..120.0).contains(&micros), "got {micros} µs");
    }

    #[test]
    fn writes_are_slower_than_reads_randomly() {
        let mut mr = model();
        let mut mw = model();
        mr.access_cost(AccessKind::Read, 0, 1024);
        mw.access_cost(AccessKind::Read, 0, 1024);
        let read = mr.access_cost(AccessKind::Read, 10_000_000, 4096);
        let write = mw.access_cost(AccessKind::Write, 10_000_000, 4096);
        assert!(write > read);
    }

    #[test]
    fn streaming_write_beats_random_write() {
        let mut m = model();
        let random = m.access_cost(AccessKind::Write, 0, 1 << 20);
        m.reset();
        let streaming = m.streaming_cost(AccessKind::Write, 0, 1 << 20);
        assert!(streaming < random);
    }

    #[test]
    fn sequential_streaming_is_an_order_faster_than_random_pages() {
        // The §5.2.1 claim: streaming ≈10–20× faster than random 1 KB pages
        // for the same byte volume.
        let mut m = model();
        let volume = 10u64 << 20; // 10 MiB
        let pages = volume / 1024;
        let mut random_total = SimDuration::ZERO;
        for i in 0..pages {
            // Pseudo-random page offsets within a 1 GB span.
            let offset = (i.wrapping_mul(2654435761) % (1 << 30)) & !1023;
            random_total += m.access_cost(AccessKind::Read, offset, 1024);
        }
        m.reset();
        let streaming = m.streaming_cost(AccessKind::Read, 0, volume);
        let ratio = random_total.as_nanos() as f64 / streaming.as_nanos() as f64;
        assert!(ratio > 8.0, "streaming speedup only {ratio:.1}x");
    }

    #[test]
    fn scatter_singleton_matches_access_cost() {
        let mut a = model();
        let mut b = model();
        a.access_cost(AccessKind::Read, 0, 1024);
        b.access_cost(AccessKind::Read, 0, 1024);
        let single = a.scatter_costs(AccessKind::Read, &[40 << 20], 1024);
        assert_eq!(
            single,
            vec![b.access_cost(AccessKind::Read, 40 << 20, 1024)]
        );
    }

    #[test]
    fn scatter_batch_beats_sequential_random_reads() {
        let offsets: Vec<u64> = (0..64u64)
            .map(|i| (i.wrapping_mul(2654435761) % (64 << 20)) & !1023)
            .collect();
        let mut sequential = model();
        let sequential_total: u64 = offsets
            .iter()
            .map(|&o| sequential.access_cost(AccessKind::Read, o, 1024).as_nanos())
            .sum();
        let mut batched = model();
        let batched_total: u64 = batched
            .scatter_costs(AccessKind::Read, &offsets, 1024)
            .iter()
            .map(|c| c.as_nanos())
            .sum();
        let ratio = sequential_total as f64 / batched_total as f64;
        assert!(ratio > 1.5, "queued batch speedup only {ratio:.2}x");
    }

    #[test]
    fn scatter_costs_align_with_submission_order() {
        // Submit far-then-near: the far offset is *visited* second (sorted
        // sweep) but its cost must be reported at submission index 0.
        let mut m = model();
        m.access_cost(AccessKind::Read, 0, 1024);
        let costs = m.scatter_costs(AccessKind::Read, &[400 << 30, 1 << 20], 1024);
        assert_eq!(costs.len(), 2);
        assert!(
            costs[0] > costs[1],
            "far hop {:?} should exceed near first seek {:?}",
            costs[0],
            costs[1]
        );
    }

    #[test]
    fn longer_seeks_cost_more() {
        let mut near = model();
        near.access_cost(AccessKind::Read, 0, 1024);
        let near_cost = near.access_cost(AccessKind::Read, 1 << 20, 1024);
        let mut far = model();
        far.access_cost(AccessKind::Read, 0, 1024);
        let far_cost = far.access_cost(AccessKind::Read, 100 << 30, 1024);
        assert!(far_cost > near_cost);
    }

    #[test]
    fn reset_forgets_head() {
        let mut m = model();
        m.access_cost(AccessKind::Read, 0, 1024);
        m.reset();
        let after_reset = m.access_cost(AccessKind::Read, 1024, 1024);
        // Not sequential anymore: must include the minimum seek.
        assert!(after_reset.as_nanos() >= m.params().seek_min_nanos);
    }

    #[test]
    fn bandwidth_reporting_matches_params() {
        let m = model();
        assert_eq!(m.sequential_bandwidth(AccessKind::Read), 102.7e6);
        assert_eq!(m.sequential_bandwidth(AccessKind::Write), 102.7e6);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        HddModel::new(HddParams {
            capacity_bytes: 0,
            ..HddParams::dac2019()
        });
    }
}
