//! Calibration presets reproducing the paper's experimental machine.
//!
//! Table 5-2 of the paper:
//!
//! | Component | Paper value | Simulated counterpart |
//! |---|---|---|
//! | Operating system | Ubuntu 16.04 | n/a (deterministic simulator) |
//! | CPU | Intel i7-7700K | n/a (host executes the protocol logic) |
//! | Memory | DDR4 PC4-2133, 16 GB | [`DramModel::ddr4_2133`] |
//! | Disk | HDD 7200 RPM, 500 GB | [`HddModel::paper_calibrated`] |
//! | Read/write throughput | 102.7 MB/s / 55.2 MB/s | same values in [`crate::hdd::HddParams::dac2019`] |
//!
//! The HDD seek constants (55 µs base + 1 ms × √(span fraction)) are fitted
//! to the per-access I/O latencies the paper measures in Tables 5-3/5-4
//! (77 µs and 107 µs for single-block reads over 64 MB and 1 GB spans);
//! the `table_5_3` and `table_5_4` rows of the bench `suite` report the
//! simulated latency beside the paper's, so every run shows the fit.

use crate::clock::SimClock;
use crate::device::Device;
use crate::dram::DramModel;
use crate::hdd::HddModel;
use crate::ssd::SsdModel;
use crate::trace::AccessTrace;

/// Conventional device ids used by all experiments.
pub mod device_ids {
    use crate::device::DeviceId;

    /// The in-memory (DRAM) device carrying the Path ORAM tree.
    pub const MEMORY: DeviceId = DeviceId(0);
    /// The storage (HDD/SSD) device carrying the flat ORAM region.
    pub const STORAGE: DeviceId = DeviceId(1);
}

/// The paper's HDD (Table 5-2, calibrated; see module docs).
pub fn paper_hdd() -> HddModel {
    HddModel::paper_calibrated()
}

/// The paper's DDR4-2133 memory.
pub fn paper_dram() -> DramModel {
    DramModel::ddr4_2133()
}

/// A 2019-era SATA SSD for beyond-paper ablations.
pub fn ablation_ssd() -> SsdModel {
    SsdModel::sata_2019()
}

/// Which storage technology backs the flat ORAM region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageKind {
    /// The paper's 7200 RPM HDD.
    PaperHdd,
    /// A 2019-era SATA SSD (ablation).
    Ssd,
}

/// A full machine description for one experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Storage backend technology.
    pub storage: StorageKind,
    /// Logical ORAM block size in bytes, charged per block access
    /// (the paper uses 1 KB).
    pub block_bytes: u64,
}

impl MachineConfig {
    /// The machine of the paper's Table 5-2 with 1 KB blocks.
    pub fn dac2019() -> Self {
        Self {
            storage: StorageKind::PaperHdd,
            block_bytes: 1024,
        }
    }

    /// Same machine with an SSD storage backend (ablation).
    pub fn dac2019_ssd() -> Self {
        Self {
            storage: StorageKind::Ssd,
            block_bytes: 1024,
        }
    }

    /// Builds the memory device (DRAM).
    pub fn build_memory(&self, clock: SimClock, trace: Option<AccessTrace>) -> Device {
        let mut dev = Device::new(
            device_ids::MEMORY,
            "dram",
            Box::new(paper_dram()),
            clock,
            trace,
        );
        dev.set_charged_block_bytes(self.block_bytes);
        dev
    }

    /// Builds the storage device (HDD or SSD per [`StorageKind`]).
    pub fn build_storage(&self, clock: SimClock, trace: Option<AccessTrace>) -> Device {
        let mut dev = match self.storage {
            StorageKind::PaperHdd => Device::new(
                device_ids::STORAGE,
                "hdd",
                Box::new(paper_hdd()),
                clock,
                trace,
            ),
            StorageKind::Ssd => Device::new(
                device_ids::STORAGE,
                "ssd",
                Box::new(ablation_ssd()),
                clock,
                trace,
            ),
        };
        dev.set_charged_block_bytes(self.block_bytes);
        dev
    }

    /// Builds the storage device over an explicit data store (e.g. the
    /// durable [`crate::file::FileStore`]) with this machine's timing
    /// model — timing and trace shape are identical to
    /// [`build_storage`](Self::build_storage); only where the bytes live
    /// changes.
    pub fn build_storage_with_store(
        &self,
        clock: SimClock,
        trace: Option<AccessTrace>,
        store: Box<dyn crate::store::DataStore>,
    ) -> Device {
        let (name, timing): (&str, Box<dyn crate::device::TimingModel>) = match self.storage {
            StorageKind::PaperHdd => ("hdd", Box::new(paper_hdd())),
            StorageKind::Ssd => ("ssd", Box::new(ablation_ssd())),
        };
        let mut dev = Device::with_store(device_ids::STORAGE, name, timing, clock, trace, store);
        dev.set_charged_block_bytes(self.block_bytes);
        dev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::AccessKind;

    #[test]
    fn dac2019_builds_hdd_and_dram() {
        let config = MachineConfig::dac2019();
        let clock = SimClock::new();
        let mem = config.build_memory(clock.clone(), None);
        let storage = config.build_storage(clock, None);
        assert_eq!(mem.id(), device_ids::MEMORY);
        assert_eq!(storage.id(), device_ids::STORAGE);
        assert_eq!(storage.sequential_bandwidth(AccessKind::Read), 102.7e6);
        assert_eq!(mem.charged_block_bytes(), 1024);
    }

    #[test]
    fn ssd_ablation_selects_ssd() {
        let config = MachineConfig::dac2019_ssd();
        let storage = config.build_storage(SimClock::new(), None);
        assert_eq!(storage.name(), "ssd");
    }
}
