//! Main-memory timing model.
//!
//! The paper's memory layer is 16 GB of DDR4-2133 (Table 5-2). For ORAM
//! purposes the relevant behaviour is: accesses cost a fixed device latency
//! plus a bandwidth-proportional transfer term, with no locality penalty
//! worth modelling at block (KB) granularity. DDR4-2133 peaks at
//! 17 GB/s/channel; sustained copy bandwidth on the paper's desktop is
//! ≈15 GB/s, which is what we charge.

use crate::clock::SimDuration;
use crate::device::{AccessKind, TimingModel};

/// Timing parameters for a DRAM device.
#[derive(Debug, Clone, PartialEq)]
pub struct DramParams {
    /// Per-access latency in nanoseconds (row activation + controller).
    pub latency_nanos: u64,
    /// Sustained bandwidth in bytes per second.
    pub bandwidth: f64,
}

impl DramParams {
    /// DDR4-2133 as in the paper's Table 5-2.
    pub fn ddr4_2133() -> Self {
        Self {
            latency_nanos: 70,
            bandwidth: 15.0e9,
        }
    }
}

/// A flat latency+bandwidth DRAM model.
#[derive(Debug, Clone)]
pub struct DramModel {
    params: DramParams,
}

impl DramModel {
    /// Creates a model from explicit parameters.
    pub fn new(params: DramParams) -> Self {
        assert!(params.bandwidth > 0.0, "bandwidth must be positive");
        Self { params }
    }

    /// The paper's DDR4-2133 memory.
    pub fn ddr4_2133() -> Self {
        Self::new(DramParams::ddr4_2133())
    }

    /// The model's parameters.
    pub fn params(&self) -> &DramParams {
        &self.params
    }
}

impl TimingModel for DramModel {
    fn access_cost(&mut self, _kind: AccessKind, _offset: u64, bytes: u64) -> SimDuration {
        let transfer = bytes as f64 / self.params.bandwidth * 1e9;
        SimDuration::from_nanos(self.params.latency_nanos + transfer.round() as u64)
    }

    fn sequential_bandwidth(&self, _kind: AccessKind) -> f64 {
        self.params.bandwidth
    }

    fn reset(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_is_latency_plus_transfer() {
        let mut m = DramModel::ddr4_2133();
        let cost = m.access_cost(AccessKind::Read, 0, 1024);
        // 70 ns + 1024/15e9 s ≈ 70 + 68 ns.
        assert_eq!(cost.as_nanos(), 70 + 68);
    }

    #[test]
    fn reads_and_writes_cost_the_same() {
        let mut m = DramModel::ddr4_2133();
        assert_eq!(
            m.access_cost(AccessKind::Read, 0, 4096),
            m.access_cost(AccessKind::Write, 0, 4096)
        );
    }

    #[test]
    fn no_locality_effects() {
        let mut m = DramModel::ddr4_2133();
        let near = m.access_cost(AccessKind::Read, 0, 1024);
        let far = m.access_cost(AccessKind::Read, 1 << 33, 1024);
        assert_eq!(near, far);
    }

    #[test]
    fn dram_is_orders_faster_than_hdd() {
        use crate::hdd::HddModel;
        let mut dram = DramModel::ddr4_2133();
        let mut hdd = HddModel::paper_calibrated();
        let d = dram.access_cost(AccessKind::Read, 1 << 20, 1024);
        hdd.access_cost(AccessKind::Read, 0, 1024);
        let h = hdd.access_cost(AccessKind::Read, 1 << 20, 1024);
        assert!(h.as_nanos() > 100 * d.as_nanos());
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        DramModel::new(DramParams {
            latency_nanos: 1,
            bandwidth: 0.0,
        });
    }
}
