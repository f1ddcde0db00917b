//! Solid-state-drive timing model.
//!
//! The paper evaluates on an HDD only, but its discussion (§5.3) invites
//! the question of how H-ORAM's advantage shifts on storage with cheap
//! random reads. This model supports that ablation: constant per-op
//! latency (no seeks), asymmetric read/write bandwidth, and an optional
//! write-amplification factor for sustained random writes.

use crate::clock::SimDuration;
use crate::device::{AccessKind, TimingModel};

/// Timing parameters for an SSD.
#[derive(Debug, Clone, PartialEq)]
pub struct SsdParams {
    /// Per-operation read latency in nanoseconds (flash page read + FTL).
    pub read_latency_nanos: u64,
    /// Per-operation write latency in nanoseconds (program + FTL).
    pub write_latency_nanos: u64,
    /// Read bandwidth, bytes per second.
    pub read_bandwidth: f64,
    /// Write bandwidth, bytes per second.
    pub write_bandwidth: f64,
    /// Multiplier (≥ 1.0) applied to random write transfer time, modelling
    /// garbage-collection amplification.
    pub random_write_amplification: f64,
    /// Per-operation latency for *queued* commands, nanoseconds. Flash
    /// services independent page reads from parallel dies, so at queue
    /// depth ≥ 8 the per-command latency the host observes amortizes to a
    /// fraction of the cold QD1 latency.
    pub queued_latency_nanos: u64,
}

impl SsdParams {
    /// A mid-range 2019 SATA SSD, contemporaneous with the paper's setup.
    pub fn sata_2019() -> Self {
        Self {
            read_latency_nanos: 80_000,  // 80 µs
            write_latency_nanos: 60_000, // 60 µs (DRAM-buffered)
            read_bandwidth: 520.0e6,
            write_bandwidth: 480.0e6,
            random_write_amplification: 1.6,
            queued_latency_nanos: 20_000, // QD≥8 amortized command latency
        }
    }
}

/// A flash-storage timing model.
#[derive(Debug, Clone)]
pub struct SsdModel {
    params: SsdParams,
}

impl SsdModel {
    /// Creates a model from explicit parameters.
    pub fn new(params: SsdParams) -> Self {
        assert!(params.read_bandwidth > 0.0 && params.write_bandwidth > 0.0);
        assert!(params.random_write_amplification >= 1.0);
        Self { params }
    }

    /// A mid-range 2019 SATA SSD.
    pub fn sata_2019() -> Self {
        Self::new(SsdParams::sata_2019())
    }

    /// The model's parameters.
    pub fn params(&self) -> &SsdParams {
        &self.params
    }
}

impl TimingModel for SsdModel {
    fn access_cost(&mut self, kind: AccessKind, _offset: u64, bytes: u64) -> SimDuration {
        let (latency, bandwidth, amp) = match kind {
            AccessKind::Read => (
                self.params.read_latency_nanos,
                self.params.read_bandwidth,
                1.0,
            ),
            AccessKind::Write => (
                self.params.write_latency_nanos,
                self.params.write_bandwidth,
                self.params.random_write_amplification,
            ),
        };
        let transfer = bytes as f64 / bandwidth * 1e9 * amp;
        SimDuration::from_nanos(latency + transfer.round() as u64)
    }

    fn streaming_cost(&mut self, kind: AccessKind, _offset: u64, bytes: u64) -> SimDuration {
        let (latency, bandwidth) = match kind {
            AccessKind::Read => (self.params.read_latency_nanos, self.params.read_bandwidth),
            AccessKind::Write => (self.params.write_latency_nanos, self.params.write_bandwidth),
        };
        let transfer = bytes as f64 / bandwidth * 1e9;
        SimDuration::from_nanos(latency + transfer.round() as u64)
    }

    fn scatter_costs(
        &mut self,
        kind: AccessKind,
        offsets: &[u64],
        bytes_per_op: u64,
    ) -> Vec<SimDuration> {
        // Die-level parallelism: the first command pays the cold latency,
        // queued follow-ups the amortized floor. Transfer terms (and write
        // amplification) are charged per command as for random access.
        offsets
            .iter()
            .enumerate()
            .map(|(position, &offset)| {
                let cost = self.access_cost(kind, offset, bytes_per_op);
                if position == 0 {
                    cost
                } else {
                    let cold = match kind {
                        AccessKind::Read => self.params.read_latency_nanos,
                        AccessKind::Write => self.params.write_latency_nanos,
                    };
                    cost.saturating_sub(SimDuration::from_nanos(
                        cold.saturating_sub(self.params.queued_latency_nanos),
                    ))
                }
            })
            .collect()
    }

    fn sequential_bandwidth(&self, kind: AccessKind) -> f64 {
        match kind {
            AccessKind::Read => self.params.read_bandwidth,
            AccessKind::Write => self.params.write_bandwidth,
        }
    }

    fn reset(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_locality_penalty() {
        let mut m = SsdModel::sata_2019();
        let a = m.access_cost(AccessKind::Read, 0, 1024);
        let b = m.access_cost(AccessKind::Read, 400 << 30, 1024);
        assert_eq!(a, b);
    }

    #[test]
    fn random_writes_pay_amplification() {
        let mut m = SsdModel::sata_2019();
        let random = m.access_cost(AccessKind::Write, 0, 1 << 20);
        let streaming = m.streaming_cost(AccessKind::Write, 0, 1 << 20);
        assert!(random > streaming);
    }

    #[test]
    fn ssd_random_read_beats_hdd_random_read() {
        use crate::hdd::HddModel;
        let mut ssd = SsdModel::sata_2019();
        let mut hdd = HddModel::paper_calibrated();
        hdd.access_cost(AccessKind::Read, 0, 1024);
        let h = hdd.access_cost(AccessKind::Read, 1 << 30, 1024);
        let s = ssd.access_cost(AccessKind::Read, 1 << 30, 1024);
        // HDD random ≈ 100 µs; SSD ≈ 80 µs — close, but SSD wins and has no
        // distance dependence.
        assert!(s < h);
    }

    #[test]
    fn queued_reads_amortize_latency() {
        let mut m = SsdModel::sata_2019();
        let offsets = [0u64, 1 << 20, 2 << 20, 3 << 20];
        let costs = m.scatter_costs(AccessKind::Read, &offsets, 1024);
        assert!(
            costs[1] < costs[0],
            "queued {:?} should beat cold {:?}",
            costs[1],
            costs[0]
        );
        assert_eq!(costs[1], costs[2]);
        let mut cold = SsdModel::sata_2019();
        assert_eq!(costs[0], cold.access_cost(AccessKind::Read, 0, 1024));
    }

    #[test]
    #[should_panic]
    fn sub_unit_amplification_rejected() {
        SsdModel::new(SsdParams {
            random_write_amplification: 0.5,
            ..SsdParams::sata_2019()
        });
    }
}
