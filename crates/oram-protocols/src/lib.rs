//! Baseline ORAM protocols for the H-ORAM reproduction.
//!
//! This crate implements the two tree ORAMs the paper evaluates, both
//! against the deterministic device simulator in `oram-storage`:
//!
//! * [`path_oram::PathOram`] — Path ORAM on a single device (§2.1.2); also
//!   the engine of H-ORAM's in-memory cache layer.
//! * [`tree_top_cache`] — the paper's **baseline** (§3.1): a Path ORAM tree
//!   whose top levels live in memory and whose bottom levels extend onto
//!   storage, so every access pays several slow I/O bucket transfers.
//!
//! Both are one [`path_oram::PathOramCore`] over different backends, so
//! they share the [`Oram`] trait, the sealed uniform-size block wire
//! format ([`types::BlockContent`]), the trusted-side position map and
//! stash (private to this crate) and the tree geometry
//! ([`bucket_tree::TreeGeometry`]): the evaluation compares placements —
//! not incidental implementation choices.
#![deny(missing_docs)]

pub mod backend;
pub mod bucket_tree;
pub mod error;
pub mod oram_trait;
pub mod path_oram;
mod position_map;
mod stash;
pub mod tree_top_cache;
pub mod types;

pub use backend::{SingleDeviceBackend, SplitBackend, TreeBackend};
pub use bucket_tree::TreeGeometry;
pub use error::OramError;
pub use oram_trait::Oram;
pub use path_oram::{AccessReceipt, PathOram, PathOramConfig, PathOramCore, PathOramStats};
pub use tree_top_cache::{build_tree_top_cache, TreeTopCachePathOram, TreeTopSplit};
pub use types::{BlockContent, BlockContentRef, BlockId, Request, RequestOp};
