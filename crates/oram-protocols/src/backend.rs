//! Tree storage backends: where the bucket tree physically lives.
//!
//! The same Path ORAM logic runs against two placements:
//!
//! * [`SingleDeviceBackend`] — the whole tree on one device. With a DRAM
//!   device this is H-ORAM's memory layer; with an HDD it is a worst-case
//!   baseline.
//! * [`SplitBackend`] — the paper's *tree-top cache* baseline (§3.1,
//!   Figure 3-1a): the top levels of the tree live in memory, the bottom
//!   levels extend onto storage, so every path access costs a few fast
//!   memory bucket reads **plus** a few slow I/O bucket reads.
//!
//! Backends report cumulative `(memory, storage)` busy time so protocols
//! can compose wall-clock time per their concurrency model.

use oram_crypto::seal::SealedBlock;
use oram_storage::clock::SimDuration;
use oram_storage::device::Device;
use oram_storage::stats::DeviceStats;
use oram_storage::StorageError;
use std::fmt;

/// Physical placement of tree slots.
///
/// Slot addresses are `node · Z + slot` (see
/// [`crate::bucket_tree::TreeGeometry::slot_addr`]).
pub trait TreeBackend: fmt::Debug {
    /// Reads one slot.
    fn read_slot(&mut self, addr: u64) -> Result<SealedBlock, StorageError>;

    /// Writes one slot.
    fn write_slot(&mut self, addr: u64, block: SealedBlock) -> Result<(), StorageError>;

    /// Streams the full initial slot image (tree construction / rebuild).
    fn init_all_slots(&mut self, blocks: Vec<SealedBlock>) -> Result<(), StorageError>;

    /// Streams out all slots (tree eviction reads every block).
    fn read_all_slots(&mut self, total: u64) -> Result<Vec<Option<SealedBlock>>, StorageError>;

    /// Cumulative `(memory, storage)` busy time.
    fn busy(&self) -> (SimDuration, SimDuration);

    /// Cumulative `(memory, storage)` device statistics.
    fn stats(&self) -> (DeviceStats, DeviceStats);

    /// Drops all stored slots (tree teardown).
    fn clear(&mut self) -> Result<(), StorageError>;
}

/// The whole tree on a single device.
#[derive(Debug)]
pub struct SingleDeviceBackend {
    device: Device,
}

impl SingleDeviceBackend {
    /// Wraps a device as the tree's home.
    pub fn new(device: Device) -> Self {
        Self { device }
    }

    /// The underlying device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Mutable access to the underlying device (experiment plumbing).
    pub fn device_mut(&mut self) -> &mut Device {
        &mut self.device
    }
}

impl TreeBackend for SingleDeviceBackend {
    fn read_slot(&mut self, addr: u64) -> Result<SealedBlock, StorageError> {
        self.device.read_block(addr)
    }

    fn write_slot(&mut self, addr: u64, block: SealedBlock) -> Result<(), StorageError> {
        self.device.write_block(addr, block)
    }

    fn init_all_slots(&mut self, blocks: Vec<SealedBlock>) -> Result<(), StorageError> {
        self.device.write_run(0, blocks)
    }

    fn read_all_slots(&mut self, total: u64) -> Result<Vec<Option<SealedBlock>>, StorageError> {
        self.device.read_run(0, total)
    }

    fn busy(&self) -> (SimDuration, SimDuration) {
        (self.device.stats().busy, SimDuration::ZERO)
    }

    fn stats(&self) -> (DeviceStats, DeviceStats) {
        (*self.device.stats(), DeviceStats::default())
    }

    fn clear(&mut self) -> Result<(), StorageError> {
        self.device.clear()
    }
}

/// Tree-top cache: slots below `boundary_addr` in memory, the rest on
/// storage.
#[derive(Debug)]
pub struct SplitBackend {
    memory: Device,
    storage: Device,
    /// First slot address that lives on the storage device.
    boundary_addr: u64,
}

impl SplitBackend {
    /// Creates a split backend with the given memory/storage boundary.
    ///
    /// `boundary_addr` is the first slot address on storage; it must align
    /// with a whole-level boundary for the geometry in use (the
    /// tree-top-cache constructor computes it).
    pub fn new(memory: Device, storage: Device, boundary_addr: u64) -> Self {
        Self {
            memory,
            storage,
            boundary_addr,
        }
    }

    /// The memory device.
    pub fn memory(&self) -> &Device {
        &self.memory
    }

    /// The storage device.
    pub fn storage(&self) -> &Device {
        &self.storage
    }

    fn route(&mut self, addr: u64) -> (&mut Device, u64) {
        if addr < self.boundary_addr {
            (&mut self.memory, addr)
        } else {
            // Storage device addressing starts at 0 for its own region so
            // seek distances reflect the on-disk layout, not tree indices.
            (&mut self.storage, addr - self.boundary_addr)
        }
    }
}

impl TreeBackend for SplitBackend {
    fn read_slot(&mut self, addr: u64) -> Result<SealedBlock, StorageError> {
        let (device, local) = self.route(addr);
        device.read_block(local)
    }

    fn write_slot(&mut self, addr: u64, block: SealedBlock) -> Result<(), StorageError> {
        let (device, local) = self.route(addr);
        device.write_block(local, block)
    }

    fn init_all_slots(&mut self, blocks: Vec<SealedBlock>) -> Result<(), StorageError> {
        let boundary = (self.boundary_addr as usize).min(blocks.len());
        let mut blocks = blocks;
        let storage_part = blocks.split_off(boundary);
        self.memory.write_run(0, blocks)?;
        self.storage.write_run(0, storage_part)
    }

    fn read_all_slots(&mut self, total: u64) -> Result<Vec<Option<SealedBlock>>, StorageError> {
        let memory_count = self.boundary_addr.min(total);
        let mut all = self.memory.read_run(0, memory_count)?;
        if total > memory_count {
            all.extend(self.storage.read_run(0, total - memory_count)?);
        }
        Ok(all)
    }

    fn busy(&self) -> (SimDuration, SimDuration) {
        (self.memory.stats().busy, self.storage.stats().busy)
    }

    fn stats(&self) -> (DeviceStats, DeviceStats) {
        (*self.memory.stats(), *self.storage.stats())
    }

    fn clear(&mut self) -> Result<(), StorageError> {
        self.memory.clear()?;
        self.storage.clear()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oram_crypto::keys::MasterKey;
    use oram_crypto::seal::BlockSealer;
    use oram_storage::calibration::MachineConfig;
    use oram_storage::clock::SimClock;

    fn sealer() -> BlockSealer {
        BlockSealer::new(&MasterKey::from_bytes([1; 32]).derive("backend", 0))
    }

    fn split() -> SplitBackend {
        let config = MachineConfig::dac2019();
        let clock = SimClock::new();
        SplitBackend::new(
            config.build_memory(clock.clone(), None),
            config.build_storage(clock, None),
            4,
        )
    }

    #[test]
    fn split_routes_by_boundary() {
        let mut backend = split();
        let s = sealer();
        backend.write_slot(0, s.seal(0, 0, b"mem")).unwrap();
        backend.write_slot(7, s.seal(7, 0, b"disk")).unwrap();
        assert_eq!(backend.memory().stored_blocks(), 1);
        assert_eq!(backend.storage().stored_blocks(), 1);
        assert_eq!(s.open(&backend.read_slot(0).unwrap()).unwrap(), b"mem");
        assert_eq!(s.open(&backend.read_slot(7).unwrap()).unwrap(), b"disk");
    }

    #[test]
    fn split_storage_accesses_cost_more() {
        let mut backend = split();
        let s = sealer();
        backend.write_slot(0, s.seal(0, 0, b"m")).unwrap();
        backend.write_slot(100, s.seal(100, 0, b"d")).unwrap();
        backend.read_slot(0).unwrap();
        backend.read_slot(100).unwrap();
        let (mem, storage) = backend.busy();
        assert!(storage.as_nanos() > 50 * mem.as_nanos());
    }

    #[test]
    fn split_init_streams_both_regions() {
        let mut backend = split();
        let s = sealer();
        let blocks: Vec<_> = (0..10u64).map(|i| s.seal(i, 0, b"x")).collect();
        backend.init_all_slots(blocks).unwrap();
        assert_eq!(backend.memory().stored_blocks(), 4);
        assert_eq!(backend.storage().stored_blocks(), 6);
        // Streamed: one write op per region.
        assert_eq!(backend.memory().stats().writes, 1);
        assert_eq!(backend.storage().stats().writes, 1);
    }

    #[test]
    fn split_read_all_concatenates_in_order() {
        let mut backend = split();
        let s = sealer();
        let blocks: Vec<_> = (0..10u64).map(|i| s.seal(i, 0, &[i as u8])).collect();
        backend.init_all_slots(blocks).unwrap();
        let all = backend.read_all_slots(10).unwrap();
        for (i, slot) in all.iter().enumerate() {
            let payload = s.open(slot.as_ref().unwrap()).unwrap();
            assert_eq!(payload, vec![i as u8]);
        }
    }

    #[test]
    fn single_device_backend_roundtrip() {
        let config = MachineConfig::dac2019();
        let mut backend = SingleDeviceBackend::new(config.build_memory(SimClock::new(), None));
        let s = sealer();
        backend.write_slot(3, s.seal(3, 0, b"v")).unwrap();
        assert_eq!(s.open(&backend.read_slot(3).unwrap()).unwrap(), b"v");
        let (mem, storage) = backend.busy();
        assert!(mem > SimDuration::ZERO);
        assert_eq!(storage, SimDuration::ZERO);
        backend.clear().unwrap();
        assert_eq!(backend.device().stored_blocks(), 0);
    }
}
