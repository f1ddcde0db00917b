//! Fault-tolerant network serving for the H-ORAM reproduction.
//!
//! This crate puts [`horam-server`'s](horam_server) in-process
//! [`OramService`](horam_server::service::OramService) behind a socket
//! with **failure semantics as the design center**:
//!
//! * [`wire`] — a length-prefixed binary frame codec over TCP or
//!   Unix-domain sockets. Resumable reads, a hard frame-size bound
//!   enforced on the length prefix, and typed errors for every way a
//!   stream can go wrong.
//! * [`status`] — stable numeric wire codes for every serving and
//!   transport outcome; an exhaustive match makes shipping an uncoded
//!   `ServeError` variant a compile error.
//! * [`server`] — thread-per-connection serving on
//!   [`std::thread::scope`] (no async runtime):
//!   server-side deadline shedding, a bounded idempotency window that
//!   makes client retries safe (no duplicated writes), typed
//!   `BUSY`/`QUEUE_FULL` backpressure, and SIGTERM-triggered graceful
//!   drain that finishes in-flight work and emits a restartable
//!   [`Checkpoint`].
//! * [`client`] — a pipelined, retrying client whose every wait is
//!   deadline-bounded: resend on silent loss, redial on disconnect,
//!   back off on shed — all under one per-call budget, all idempotent.
//!
//! The transport chaos methodology mirrors PR 7's storage fault
//! injection: wrap any connection in
//! [`FaultyConn`](oram_storage::fault::FaultyConn) with a seeded
//! schedule and every client call still resolves to a typed error or a
//! correct response — never a hang, never a duplicated write. See
//! `docs/ARCHITECTURE.md` §13 for the protocol state machine and
//! `docs/OPERATIONS.md` for the drain → checkpoint → restart runbook.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![deny(missing_docs)]

pub mod client;
pub mod net;
pub mod server;
pub mod status;
pub mod wire;

pub use client::{ClientConfig, ClientStats, RpcClient, RpcError};
pub use net::{connect, Endpoint, Listener, NetStream};
pub use server::{
    bind_signals_to_drain, run_server, Checkpoint, ServerConfig, ServerError, ServerOutcome,
    WindowEntry,
};
pub use wire::{Accept, Frame, FrameReader, ServerCounters, WireError, MAX_FRAME, VERSION};
