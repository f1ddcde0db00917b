//! The two shuffles of H-ORAM's shuffle period (paper §4.3):
//!
//! 1. the **oblivious** evict shuffle, [`bitonic::BitonicShuffle`]: the
//!    tree-evict buffer sits in untrusted memory and holds real and dummy
//!    blocks, so its shuffle's access pattern must not depend on the data.
//!    A bitonic network's compare-exchange schedule is a fixed function of
//!    the buffer length, which makes it oblivious by construction;
//! 2. the **in-enclave** per-partition placement,
//!    [`permutation::Permutation`]: "the in-memory shuffle algorithm is
//!    free to choose because memory is fast enough" (the paper used a
//!    cache shuffle), so a seeded Fisher–Yates draw in trusted memory
//!    suffices.
//!
//! Both are **deterministic in their seed**: the same `(data, seed)`
//! yields the same order, which keeps every experiment replayable.

pub mod bitonic;
pub mod permutation;

pub use bitonic::BitonicShuffle;
pub use permutation::Permutation;
