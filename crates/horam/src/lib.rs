//! H-ORAM reproduction — umbrella crate.
//!
//! Re-exports the whole public API of the workspace so applications can
//! depend on one crate:
//!
//! * [`core`](mod@crate::core) — the H-ORAM system itself
//!   (`HOram`, `HOramConfig`, scheduler, storage layer, `ShardedOram`,
//!   users and access control).
//! * [`protocols`] — the `Oram` trait, Path ORAM and the tree-top-cache
//!   baseline.
//! * [`storage`] — the device timing simulator and bus traces.
//! * [`crypto`] — the vector-tested primitives (ChaCha20, SipHash, PRP).
//! * [`shuffle`] — the bitonic evict shuffle and partition permutations.
//! * [`workload`] — request generators and traces.
//! * [`analysis`] — the paper's closed-form models and leakage tests.
//!
//! # Quickstart
//!
//! ```
//! use horam::prelude::*;
//!
//! # fn main() -> Result<(), horam::protocols::OramError> {
//! // The paper's machine, scaled down: 256-block dataset, 64-slot memory tree.
//! let config = HOramConfig::new(256, 16, 64).with_seed(42);
//! let mut oram = HOram::new(config, MemoryHierarchy::dac2019(),
//!                           MasterKey::from_bytes([7; 32]))?;
//!
//! oram.write(BlockId(1), &[42u8; 16])?;
//! assert_eq!(oram.read(BlockId(1))?, vec![42u8; 16]);
//!
//! println!("I/O loads: {}", oram.stats().total_io_loads());
//! # Ok(())
//! # }
//! ```

pub use horam_core as core;
pub use oram_analysis as analysis;
pub use oram_crypto as crypto;
pub use oram_protocols as protocols;
pub use oram_shuffle as shuffle;
pub use oram_storage as storage;
pub use oram_workload as workload;

/// The most common imports in one place.
pub mod prelude {
    pub use horam_core::{HOram, HOramConfig, HOramStats, StagePlan};
    pub use oram_crypto::keys::MasterKey;
    pub use oram_protocols::{BlockId, Oram, OramError, Request, RequestOp};
    pub use oram_storage::{MemoryHierarchy, SimDuration};
    pub use oram_workload::{HotspotWorkload, RequestTrace, WorkloadGenerator};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_exposes_all_crates() {
        // Compile-time check that the re-exports resolve.
        let _ = crate::core::HOramConfig::new(16, 8, 8);
        let _ = crate::analysis::model::average_c(&[(1, 1.0)]);
        let _ = crate::shuffle::permutation::Permutation::random(4, 1);
        let _ = crate::storage::calibration::MachineConfig::dac2019();
    }
}
