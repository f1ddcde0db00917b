//! Deterministic storage-device timing simulator for the H-ORAM reproduction.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![warn(missing_docs)]
//!
//!
//! The paper evaluates H-ORAM on a real machine (Intel i7-7700K, DDR4-2133,
//! a 7200 RPM HDD with 102.7 MB/s read / 55.2 MB/s write throughput —
//! Table 5-2). This crate substitutes that testbed with a **deterministic
//! timing simulator**: every read and write against a [`device::Device`]
//! stores/retrieves real (sealed) block data *and* is charged a simulated
//! cost by a device [`device::TimingModel`]:
//!
//! * [`hdd::HddModel`] — distance-scaled seek penalty plus asymmetric
//!   sequential/random transfer rates, calibrated in [`calibration`] so the
//!   paper's measured per-access latencies are reproduced within ~10%.
//! * [`dram::DramModel`] — fixed access latency plus bandwidth term.
//! * [`ssd::SsdModel`] — per-op latency and bandwidth, for ablations beyond
//!   the paper's HDD-only setup.
//!
//! Time is tracked in integer nanoseconds ([`clock::SimDuration`]) so runs
//! are exactly reproducible. Devices never advance a global clock
//! themselves — ORAM protocols compose durations (e.g. H-ORAM overlaps
//! in-memory path reads with one storage fetch per scheduling cycle), then
//! advance the shared [`clock::SimClock`].
//!
//! Every access is also recorded on an [`trace::AccessTrace`] — the exact
//! view of an adversary probing the memory/I-O bus: device, direction,
//! physical address, size, timestamp. By default a trace keeps only the
//! event count and an order-sensitive digest, in O(1) memory; one built
//! with [`trace::AccessTrace::recording`] (or a hierarchy built with
//! [`MemoryHierarchy::recording`]) also retains the events, which the
//! leakage tests and `trace_dump` read.
//!
//! The [`fault`] module injects deterministic, seeded failures (transient
//! errors, dead slots, bit flips, fsync failures, latency spikes) between
//! a device and its backing store, so every layer above can be chaos-tested
//! replayably.
//!
//! # Example
//!
//! ```
//! use oram_storage::calibration::paper_hdd;
//! use oram_storage::device::{Device, DeviceId};
//! use oram_storage::trace::AccessTrace;
//! use oram_storage::clock::SimClock;
//! use oram_crypto::{keys::MasterKey, seal::{BlockSealer, SealedBlock}};
//!
//! # fn main() -> Result<(), oram_storage::StorageError> {
//! let trace = AccessTrace::new();
//! let clock = SimClock::new();
//! let mut hdd = Device::new(DeviceId(0), "hdd", Box::new(paper_hdd()), clock, Some(trace.clone()));
//!
//! let sealer = BlockSealer::new(&MasterKey::from_bytes([1; 32]).derive("d", 0));
//! hdd.write_block(3, &sealer.seal(3, 0, b"hello"))?;
//! let mut block = SealedBlock::default();
//! hdd.read_block(3, &mut block)?;
//! let plain = sealer.open(&block).expect("sealed by the same keys");
//! assert_eq!(plain, b"hello");
//! assert_eq!(trace.len(), 2);
//! # Ok(())
//! # }
//! ```

pub mod cache;
pub mod calibration;
pub mod clock;
pub mod device;
pub mod dram;
pub mod fault;
pub mod file;
pub mod hdd;
pub mod hierarchy;
pub mod page_cache;
pub mod ssd;
pub mod stats;
pub mod store;
pub mod trace;

pub use cache::{CacheConfig, CacheStats};
pub use calibration::MachineConfig;
pub use clock::{SimClock, SimDuration, SimTime};
pub use device::{AccessKind, Device, DeviceId, RetryPolicy, RetryStats, ScatterItem, TimingModel};
pub use dram::DramModel;
pub use fault::{
    ConnFaultConfig, ConnFaultPlan, ConnFaultStats, FaultConfig, FaultPlan, FaultStats, FaultyConn,
    FaultyStore,
};
pub use file::{FileStore, FileStoreConfig};
pub use hdd::HddModel;
pub use hierarchy::MemoryHierarchy;
pub use page_cache::PageCacheModel;
pub use ssd::SsdModel;
pub use stats::DeviceStats;
pub use store::{BlockStore, DataStore};
pub use trace::{AccessTrace, TraceEvent};

use std::error::Error;
use std::fmt;

/// Errors surfaced by the storage simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StorageError {
    /// A read addressed a slot that holds no block.
    MissingBlock {
        /// Device that was addressed.
        device: String,
        /// Physical slot address.
        addr: u64,
    },
    /// An access addressed a slot beyond the device capacity.
    OutOfCapacity {
        /// Device that was addressed.
        device: String,
        /// Physical slot address.
        addr: u64,
        /// Device capacity in slots.
        capacity: u64,
    },
    /// A storage backend (e.g. the file-backed store) failed an I/O
    /// operation or rejected malformed on-disk state.
    Backend {
        /// Backing path (or other backend identifier).
        path: String,
        /// What failed.
        reason: String,
    },
    /// A transient device fault (bus glitch, recoverable media error):
    /// the same access may succeed if retried. Injected by
    /// [`fault::FaultyStore`]; [`device::Device`] retries these with
    /// capped exponential backoff charged in simulated time.
    TransientFault {
        /// Device that was addressed.
        device: String,
        /// Physical slot address (0 for whole-device ops like sync).
        addr: u64,
        /// The operation that faulted (`"get"`, `"put"`, `"sync"`, ...).
        op: &'static str,
    },
    /// A permanent slot failure (dead sector): retrying cannot help and
    /// the slot's contents are unrecoverable from this device.
    PermanentFault {
        /// Device that was addressed.
        device: String,
        /// Physical slot address.
        addr: u64,
    },
    /// A write whose sealed body length differs from the one the store's
    /// fixed-length records hold ([`store::BlockStore`]).
    RecordLength {
        /// Physical slot address.
        addr: u64,
        /// Body length of the store's records.
        expected: usize,
        /// Body length of the refused block.
        got: usize,
    },
}

impl StorageError {
    /// Whether retrying the same access may succeed. Only transient
    /// faults qualify; everything else (missing blocks, capacity, backend
    /// I/O failures, dead slots) is deterministic and must surface.
    pub fn is_transient(&self) -> bool {
        matches!(self, StorageError::TransientFault { .. })
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::MissingBlock { device, addr } => {
                write!(f, "no block stored at address {addr} on device {device}")
            }
            StorageError::OutOfCapacity {
                device,
                addr,
                capacity,
            } => {
                write!(
                    f,
                    "address {addr} beyond capacity {capacity} of device {device}"
                )
            }
            StorageError::Backend { path, reason } => {
                write!(f, "storage backend {path}: {reason}")
            }
            StorageError::TransientFault { device, addr, op } => {
                write!(
                    f,
                    "transient {op} fault at address {addr} on device {device}"
                )
            }
            StorageError::PermanentFault { device, addr } => {
                write!(
                    f,
                    "permanent slot failure at address {addr} on device {device}"
                )
            }
            StorageError::RecordLength {
                addr,
                expected,
                got,
            } => {
                write!(
                    f,
                    "a {got}-byte body at address {addr} does not fit {expected}-byte records"
                )
            }
        }
    }
}

impl Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_are_descriptive() {
        let err = StorageError::MissingBlock {
            device: "hdd".into(),
            addr: 12,
        };
        assert!(err.to_string().contains("address 12"));
        let err = StorageError::OutOfCapacity {
            device: "hdd".into(),
            addr: 9,
            capacity: 4,
        };
        assert!(err.to_string().contains("capacity 4"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StorageError>();
    }
}
