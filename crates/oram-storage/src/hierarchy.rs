//! The standard two-device experiment setup: DRAM + storage.
//!
//! Every protocol in this reproduction runs against a [`MemoryHierarchy`]:
//! a fast in-memory device, a slow storage device, one shared clock and one
//! shared bus trace — a count and digest, unless built with
//! [`MemoryHierarchy::recording`]. How a phase's memory and storage time
//! compose into wall-clock time (added for the tree-top-cache baseline,
//! overlapped for H-ORAM's scheduling cycles) is the protocols' business;
//! they advance the shared clock themselves.

use crate::calibration::MachineConfig;
use crate::clock::SimClock;
use crate::device::Device;
use crate::trace::AccessTrace;

/// A DRAM + storage pair with shared clock and trace.
#[derive(Debug)]
pub struct MemoryHierarchy {
    /// Fast device: holds position maps' targets, stash spill, ORAM tree.
    pub memory: Device,
    /// Slow device: holds the flat permuted ORAM region.
    pub storage: Device,
    clock: SimClock,
    trace: AccessTrace,
    config: MachineConfig,
}

impl MemoryHierarchy {
    /// Builds the hierarchy described by `config`, digesting all accesses.
    pub fn new(config: MachineConfig) -> Self {
        let clock = SimClock::new();
        let trace = AccessTrace::new();
        let memory = config.build_memory(clock.clone(), Some(trace.clone()));
        let storage = config.build_storage(clock.clone(), Some(trace.clone()));
        Self {
            memory,
            storage,
            clock,
            trace,
            config,
        }
    }

    /// The paper's testbed with 1 KB blocks.
    pub fn dac2019() -> Self {
        Self::new(MachineConfig::dac2019())
    }

    /// Builds the hierarchy with a **durable, file-backed** storage device:
    /// DRAM stays in memory (it is trusted client state, captured by
    /// snapshots), while the flat ORAM region lives in a real file at
    /// `path` (see [`crate::file::FileStore`]). Timing, tracing, and the
    /// adversary's view are identical to the in-memory hierarchy.
    ///
    /// # Errors
    ///
    /// Propagates file-backend open/recovery errors.
    pub fn with_file_storage(
        config: MachineConfig,
        path: impl Into<std::path::PathBuf>,
        store_config: crate::file::FileStoreConfig,
    ) -> Result<Self, crate::StorageError> {
        let clock = SimClock::new();
        let trace = AccessTrace::new();
        let memory = config.build_memory(clock.clone(), Some(trace.clone()));
        let store = crate::file::FileStore::open(path, store_config)?;
        let storage =
            config.build_storage_with_store(clock.clone(), Some(trace.clone()), Box::new(store));
        Ok(Self {
            memory,
            storage,
            clock,
            trace,
            config,
        })
    }

    /// Interposes a [`crate::fault::FaultyStore`] with the given schedule
    /// between the *storage* device and its backing store (chaos testing:
    /// the flat ORAM region is the part that lives on untrusted, failing
    /// media; DRAM is trusted client state). Returns `self` for builder
    /// chaining.
    pub fn with_storage_faults(mut self, config: crate::fault::FaultConfig) -> Self {
        self.storage
            .wrap_store(|inner| Box::new(crate::fault::FaultyStore::new(inner, config)));
        self
    }

    /// Makes the shared bus trace retain every event, for the tests and
    /// dumps that read it back. Returns `self` for builder chaining.
    pub fn recording(self) -> Self {
        self.trace.start_recording();
        self
    }

    /// The shared simulated clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The shared bus trace (adversary view).
    pub fn trace(&self) -> &AccessTrace {
        &self.trace
    }

    /// The machine configuration this hierarchy was built from.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Overrides the charged block size on both devices (payload scaling).
    pub fn set_charged_block_bytes(&mut self, bytes: u64) {
        self.memory.set_charged_block_bytes(bytes);
        self.storage.set_charged_block_bytes(bytes);
    }

    /// Clears stats, traces, and the clock (between experiment phases);
    /// stored data is preserved.
    pub fn reset_accounting(&mut self) {
        self.memory.reset_accounting();
        self.storage.reset_accounting();
        self.trace.clear();
        self.clock.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::device_ids;
    use crate::clock::SimDuration;
    use oram_crypto::keys::MasterKey;
    use oram_crypto::seal::BlockSealer;

    #[test]
    fn builds_paper_machine() {
        let h = MemoryHierarchy::dac2019();
        assert_eq!(h.memory.id(), device_ids::MEMORY);
        assert_eq!(h.storage.id(), device_ids::STORAGE);
        assert_eq!(h.config().block_bytes, 1024);
    }

    #[test]
    fn shared_trace_observes_both_devices() {
        let mut h = MemoryHierarchy::dac2019().recording();
        let sealer = BlockSealer::new(&MasterKey::from_bytes([1; 32]).derive("h", 0));
        h.memory.write_block(1, &sealer.seal(1, 0, b"m")).unwrap();
        h.storage.write_block(2, &sealer.seal(2, 0, b"s")).unwrap();
        let events = h.trace().snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].device, device_ids::MEMORY);
        assert_eq!(events[1].device, device_ids::STORAGE);
    }

    #[test]
    fn reset_accounting_preserves_data() {
        let mut h = MemoryHierarchy::dac2019();
        let sealer = BlockSealer::new(&MasterKey::from_bytes([1; 32]).derive("h", 0));
        h.storage
            .write_block(7, &sealer.seal(7, 0, b"keep"))
            .unwrap();
        h.clock().advance(SimDuration::from_micros(1));
        h.reset_accounting();
        assert_eq!(h.clock().now().as_nanos(), 0);
        assert!(h.trace().is_empty());
        assert_eq!(h.storage.stats().writes, 0);
        assert_eq!(h.storage.stored_blocks(), 1);
    }
}
