//! The network layer end to end, from library code: run a server on a
//! real socket, drive it with the retrying [`RpcClient`], drain it into
//! a checkpoint, restore, and show that the restarted epoch answers a
//! replayed request identically.
//!
//! This is the in-process twin of the `horam-serverd` / `horam-client`
//! binaries (see `docs/OPERATIONS.md` for the process-level runbook).
//! Everything here is the production code path — the only difference
//! from deployment is that the server runs on a thread instead of in
//! its own process, so the drain "signal" is the shared drain flag
//! rather than SIGTERM.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example rpc_client
//! ```

use horam::core::shard::{ShardedConfig, ShardedOram};
use horam::core::{Permission, UserId};
use horam::crypto::persist::StateReader;
use horam::prelude::*;
use horam::storage::file::scratch_dir;
use horam_rpc::server::{run_server, ServerConfig, ServerOutcome};
use horam_rpc::{ClientConfig, Endpoint, Listener, RpcClient};
use horam_server::{FifoPolicy, OramService, ServiceConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

const CAPACITY: u64 = 256;
const PAYLOAD_LEN: usize = 16;
const TENANTS: u32 = 2;

/// The master key that seals the engine and the drain checkpoint.
fn master() -> MasterKey {
    MasterKey::from_bytes([0x5A; 32])
}

/// The canonical service, fresh or restored from a drain checkpoint's
/// engine body. Building it identically on both sides of the
/// restart is what makes the replay byte-identical: the checkpoint
/// seals *state*, while tenancy and geometry are *configuration*,
/// re-applied here.
fn make_service(engine: Option<&[u8]>) -> OramService<ShardedOram> {
    let config = ServiceConfig {
        batch_size: 16,
        ..ServiceConfig::default()
    };
    let base = HOramConfig::new(CAPACITY, PAYLOAD_LEN, 64).with_seed(9);
    let oram = match engine {
        Some(engine) => {
            let mut r = StateReader::new(engine);
            let oram = ShardedOram::load_state(master(), |_| MemoryHierarchy::dac2019(), &mut r)
                .expect("checkpoint restores");
            r.finish().expect("nothing follows the engine body");
            oram
        }
        None => ShardedOram::new(ShardedConfig::new(base, 2), master(), |_| {
            MemoryHierarchy::dac2019()
        })
        .expect("engine builds"),
    };
    let mut service = OramService::new(oram, Box::new(FifoPolicy), config);
    let per_tenant = CAPACITY / u64::from(TENANTS);
    for tenant in 0..TENANTS {
        let start = u64::from(tenant) * per_tenant;
        service.register_tenant(
            UserId(tenant),
            start..start + per_tenant,
            Permission::ReadWrite,
        );
    }
    service
}

/// Binds `endpoint` and serves `service` on a thread until the drain
/// flag rises; the join handle returns the [`ServerOutcome`] carrying
/// the drain checkpoint.
fn spawn_server(
    service: OramService<ShardedOram>,
    config: ServerConfig,
    endpoint: &Endpoint,
) -> (Endpoint, thread::JoinHandle<ServerOutcome>) {
    let listener = Listener::bind(endpoint).expect("bind");
    let bound = listener.local_endpoint().expect("local endpoint");
    let join = thread::spawn(move || {
        let mut service = service;
        run_server(&mut service, &listener, &config).expect("server runs")
    });
    (bound, join)
}

fn main() {
    let scratch = scratch_dir("example-rpc");
    let socket = Endpoint::Unix(scratch.join("rpc.sock"));

    // ---- Epoch 0: fresh server -------------------------------------
    let drain = Arc::new(AtomicBool::new(false));
    let config = ServerConfig {
        drain: Arc::clone(&drain),
        ..ServerConfig::default()
    };
    let (endpoint, server) = spawn_server(make_service(None), config, &socket);
    println!("serving on {endpoint}");

    // A pipelined, retrying client. Stable `client_id` + per-request
    // ids are what make its retries idempotent server-side. It dials
    // lazily: the handshake (and the epoch it reports) happens on the
    // first call.
    let mut client = RpcClient::new(ClientConfig::new(endpoint.clone(), 42, 0));

    let previous = client.write(7, vec![0xEE; PAYLOAD_LEN]).expect("write");
    assert_eq!(previous, vec![0u8; PAYLOAD_LEN]); // previous contents
    assert_eq!(client.read(7).expect("read"), vec![0xEE; PAYLOAD_LEN]);
    let rtt = client.ping().expect("ping");
    println!(
        "wrote block 7, read it back; ping {rtt:?} (handshake epoch {:?})",
        client.epoch()
    );

    // ---- Drain: finish in-flight work, checkpoint ------------------
    // The process-level equivalent is `kill -TERM` or `horam-client
    // drain`; here we raise the flag the SIGTERM handler would raise.
    drain.store(true, Ordering::Release);
    let outcome = server.join().expect("server thread");
    let checkpoint = outcome.checkpoint;
    println!(
        "drained: served {} requests, checkpoint {} bytes ({} idempotency-window entries)",
        outcome.counters.served,
        checkpoint.to_bytes(&master()).len(),
        checkpoint.window.len(),
    );

    // ---- Epoch 1: restore and replay -------------------------------
    // The checkpoint bundles the engine state AND the idempotency
    // window under one seal, so retries of pre-drain work stay
    // recognized.
    let drain = Arc::new(AtomicBool::new(false));
    let config = ServerConfig {
        epoch: checkpoint.epoch + 1,
        preload_window: checkpoint.window.clone(),
        drain: Arc::clone(&drain),
        ..ServerConfig::default()
    };
    let restored = make_service(Some(&checkpoint.engine));
    let (endpoint, server) = spawn_server(restored, config, &socket);

    // A *new* client session needs a new identity: client 42's pre-drain
    // request ids are in the preloaded window, so reusing them would
    // replay the old cached responses — exactly what makes a genuine
    // retry of pre-drain work safe, and exactly wrong for fresh work.
    let mut client = RpcClient::new(ClientConfig::new(endpoint, 43, 0));
    assert_eq!(client.read(7).expect("read"), vec![0xEE; PAYLOAD_LEN]);
    assert_eq!(client.epoch(), Some(checkpoint.epoch + 1));
    println!(
        "block 7 survived the restart byte-identically (handshake epoch {:?})",
        client.epoch()
    );

    drain.store(true, Ordering::Release);
    server.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&scratch);
}
