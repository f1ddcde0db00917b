//! H-ORAM: a cacheable ORAM interface for efficient I/O accesses.
//!
//! This crate is the reproduction's implementation of the paper's primary
//! contribution (Liu, "H-ORAM", DAC 2019): a **hybrid ORAM** that splits a
//! large protected dataset between an in-memory Path ORAM tree acting as a
//! *cache* and a flat, permuted storage layer, with a **secure scheduler**
//! that overlaps `c` in-memory accesses with each (single-block) I/O load
//! and a **lightweight group+partition shuffle** replacing the monolithic
//! oblivious reshuffle of square-root ORAM.
//!
//! Module map (one module per architectural element of the paper's §4):
//!
//! | Paper element | Module |
//! |---|---|
//! | configuration & stage schedule (§4.2) | [`config`] |
//! | permutation list (§4.1) | [`permutation_list`] |
//! | position map (flat + recursive, beyond the paper) | [`posmap`] |
//! | request admission queue + tickets | [`queue`] |
//! | ROB table (§4.1) | [`rob`] |
//! | secure scheduler with prefetch (§4.2, Fig. 4-2) | [`scheduler`] |
//! | storage layer + group/partition shuffle (§4.1.3, §4.3.2) | [`storage_layer`] |
//! | oblivious tree evict (§4.3.1) | [`evict`] |
//! | the assembled system (§4.1, Fig. 4-1) | [`horam`] |
//! | partial shuffle (§5.3.1) | [`storage_layer`] + [`config`] |
//! | multi-user identities and access control (§5.3.2) | [`access_control`] |
//! | run statistics (Tables 5-3/5-4 rows) | [`stats`] |
//! | sharded scale-out (beyond the paper) | [`shard`] |
//! | wall-clock worker pool (beyond the paper) | [`pool`] |
//!
//! Multi-user sharing itself — tenants' queues merged into one engine's
//! cycles — is `horam-server`'s `OramService` over a [`ShardedOram`].
//!
//! The memory layer reuses [`oram_protocols::path_oram::PathOram`]; see
//! that crate for the baselines the evaluation compares against.

#![deny(missing_docs)]

pub mod access_control;
pub mod config;
pub mod error;
pub mod evict;
pub mod horam;
pub mod permutation_list;
pub mod persist;
pub mod pool;
pub mod posmap;
pub mod queue;
pub mod rob;
pub mod scheduler;
pub mod shard;
pub mod stats;
pub mod storage_layer;

pub use access_control::{AccessControl, AccessDenied, Permission, UserId};
pub use config::{HOramConfig, PosmapMode, RecursivePosmapConfig, StagePlan};
pub use error::HOramError;
pub use evict::{oblivious_tree_evict, EvictOutcome};
pub use horam::HOram;
pub use permutation_list::{Location, PermutationList};
pub use pool::WorkerPool;
pub use posmap::{
    build_posmap, FlatPositionMap, PositionMap, PosmapLevelView, PosmapStats, RecursivePositionMap,
};
pub use queue::RequestQueue;
pub use rob::{RobEntry, RobTable};
pub use scheduler::{plan_cycle, CyclePlan};
pub use shard::{ShardMapper, ShardSlot, ShardedConfig, ShardedOram};
pub use stats::{HOramStats, PipelineStats};
pub use storage_layer::{BatchLoad, IoLoad, LoadPlan, PlannedIo, ShuffleReport, StorageLayer};
