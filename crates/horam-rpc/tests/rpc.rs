//! End-to-end failure battery for the RPC layer: real sockets, real
//! threads, seeded transport chaos.
//!
//! The invariants under test, in rough order of appearance:
//!
//! * RPC results are byte-identical to the in-process service on the
//!   same schedule.
//! * A client dying mid-frame (or speaking garbage) never harms other
//!   connections.
//! * Deadlines, backpressure, and auth failures all resolve typed.
//! * Drain → checkpoint → restore → the restarted server still answers
//!   retries of pre-restart work from its idempotency window.
//! * Under seeded `FaultyConn` chaos every call resolves to a typed
//!   error or a correct response, writes are never duplicated, and two
//!   identically-seeded runs end byte-identical.

use horam_core::access_control::Permission;
use horam_core::access_control::UserId;
use horam_core::config::HOramConfig;
use horam_core::shard::{ShardedConfig, ShardedOram};
use horam_rpc::server::{run_server, Checkpoint, ServerConfig, ServerError, ServerOutcome};
use horam_rpc::status;
use horam_rpc::wire::{encode_frame, Frame, FramePoll, FrameReader};
use horam_rpc::{Accept, ClientConfig, Endpoint, Listener, RpcClient, RpcError};
use horam_server::service::{OramService, ServiceConfig};
use horam_server::FifoPolicy;
use oram_crypto::keys::MasterKey;
use oram_crypto::persist::StateReader;
use oram_protocols::types::Request;
use oram_storage::fault::{ConnFaultConfig, ConnFaultPlan};
use oram_storage::hierarchy::MemoryHierarchy;
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

const CAPACITY: u64 = 256;
const PAYLOAD_LEN: usize = 8;
const MEMORY_SLOTS: u64 = 64;
const SHARDS: u64 = 2;
const TENANTS: u32 = 2;
const ENGINE_SEED: u64 = 1;

fn service_config() -> ServiceConfig {
    ServiceConfig {
        batch_size: 8,
        ..ServiceConfig::default()
    }
}

/// A deterministic `PAYLOAD_LEN`-byte payload for `tag`.
fn payload(tag: u64) -> Vec<u8> {
    tag.to_le_bytes().to_vec()
}

/// The master key that seals the engine and the drain checkpoint.
fn master() -> MasterKey {
    MasterKey::from_bytes([0xA7; 32])
}

/// Builds the canonical test service — fresh, or restored from a drain
/// checkpoint's engine body. Identical construction is what makes
/// the in-process-vs-RPC and run-twice comparisons byte-exact.
fn make_service(engine: Option<&[u8]>) -> OramService<ShardedOram> {
    let config = service_config();
    let base = config
        .engine_config(HOramConfig::new(CAPACITY, PAYLOAD_LEN, MEMORY_SLOTS))
        .with_seed(ENGINE_SEED);
    let oram = match engine {
        Some(engine) => {
            let mut r = StateReader::new(engine);
            let oram = ShardedOram::load_state(master(), |_| MemoryHierarchy::dac2019(), &mut r)
                .expect("engine restores");
            r.finish().expect("nothing follows the engine body");
            oram
        }
        None => ShardedOram::new(ShardedConfig::new(base, SHARDS), master(), |_| {
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

struct Server {
    endpoint: Endpoint,
    drain: Arc<std::sync::atomic::AtomicBool>,
    join: thread::JoinHandle<(Result<ServerOutcome, ServerError>, OramService<ShardedOram>)>,
}

/// Binds `endpoint` (port 0 for an ephemeral TCP port), then runs the
/// server on its own thread. The service crosses into the thread and
/// comes back through the join handle after drain.
fn spawn_server(
    service: OramService<ShardedOram>,
    config: ServerConfig,
    endpoint: &Endpoint,
) -> Server {
    let listener = Listener::bind(endpoint).expect("bind");
    let endpoint = listener.local_endpoint().expect("local endpoint");
    let drain = Arc::clone(&config.drain);
    let join = thread::spawn(move || {
        let mut service = service;
        let outcome = run_server(&mut service, &listener, &config);
        (outcome, service)
    });
    Server {
        endpoint,
        drain,
        join,
    }
}

impl Server {
    /// Raises the drain flag (the in-process SIGTERM) and waits for the
    /// graceful exit.
    fn drain_join(self) -> (ServerOutcome, OramService<ShardedOram>) {
        self.drain.store(true, Ordering::Release);
        let (outcome, service) = self.join.join().expect("server thread");
        (outcome.expect("graceful drain"), service)
    }
}

fn tcp() -> Endpoint {
    Endpoint::Tcp("127.0.0.1:0".into())
}

/// A client tuned for fast tests: aggressive resends, tiny backoff, a
/// generous redial budget under one wide call deadline.
fn client(endpoint: &Endpoint, client_id: u64, tenant: u32) -> RpcClient {
    let mut config = ClientConfig::new(endpoint.clone(), client_id, tenant);
    config.resend_after = Duration::from_millis(50);
    config.backoff = Duration::from_millis(2);
    config.call_deadline = Duration::from_secs(30);
    config.max_redials = 500;
    RpcClient::new(config)
}

/// Reads one complete frame from a raw socket, bounded.
fn read_frame_raw(stream: &mut TcpStream, reader: &mut FrameReader) -> Frame {
    stream
        .set_read_timeout(Some(Duration::from_millis(20)))
        .expect("read timeout");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match reader.poll(stream) {
            Ok(FramePoll::Frame(frame)) => return frame,
            Ok(FramePoll::Pending) => assert!(Instant::now() < deadline, "no frame within 10s"),
            other => panic!("raw read: unexpected {other:?}"),
        }
    }
}

/// The same mixed read/write schedule, run over RPC and in-process
/// against identically-built engines, must produce byte-identical
/// results — the network layer adds failure semantics, not semantics.
#[test]
fn rpc_matches_in_process_byte_for_byte() {
    // Same blocks revisited so write-returns-previous actually chains.
    let schedule: Vec<(u64, Option<Vec<u8>>)> = (0..48u64)
        .map(|i| {
            let block = (i * 7) % 16;
            if i % 3 == 0 {
                (block, Some(payload(1_000 + i)))
            } else {
                (block, None)
            }
        })
        .collect();

    let server = spawn_server(make_service(None), ServerConfig::default(), &tcp());
    let mut rpc = client(&server.endpoint, 11, 0);
    let mut remote = Vec::new();
    for (block, write) in &schedule {
        let result = match write {
            Some(bytes) => rpc.write(*block, bytes.clone()),
            None => rpc.read(*block),
        };
        remote.push(result.expect("op resolves"));
    }

    // A pipelined batch over distinct blocks exercises the same path the
    // bench gate uses; every op must land.
    let batch: Vec<(u64, Option<Vec<u8>>)> = (32..64u64).map(|b| (b, Some(payload(b)))).collect();
    let batched = rpc.call_many(batch).expect("batch resolves");
    assert_eq!(batched.len(), 32);
    for result in &batched {
        assert_eq!(result.as_deref().expect("batched op"), &[0u8; PAYLOAD_LEN]);
    }

    let (outcome, _service) = server.drain_join();
    assert_eq!(outcome.counters.served, 48 + 32);

    let mut local_service = make_service(None);
    let mut local = Vec::new();
    for (block, write) in &schedule {
        let request = match write {
            Some(bytes) => Request::write(*block, bytes.clone()),
            None => Request::read(*block),
        };
        let ticket = local_service
            .submit(UserId(0), request)
            .expect("local submit");
        local.push(
            local_service
                .take_result_timeout(ticket, 10_000)
                .expect("local resolve"),
        );
    }
    assert_eq!(remote, local, "RPC and in-process results diverge");
}

/// Two clients on different tenants with disjoint grants serve
/// concurrently; every op lands and the read-back matches the writes.
#[test]
fn concurrent_tenants_are_isolated() {
    let server = spawn_server(make_service(None), ServerConfig::default(), &tcp());
    let endpoint = server.endpoint.clone();
    let per_tenant = CAPACITY / u64::from(TENANTS);

    let workers: Vec<_> = (0..TENANTS)
        .map(|tenant| {
            let endpoint = endpoint.clone();
            thread::spawn(move || {
                let base = u64::from(tenant) * per_tenant;
                let mut c = client(&endpoint, 100 + u64::from(tenant), tenant);
                let ops: Vec<(u64, Option<Vec<u8>>)> = (0..24u64)
                    .map(|i| (base + i, Some(payload(u64::from(tenant) * 10_000 + i))))
                    .collect();
                for result in c.call_many(ops).expect("write batch") {
                    result.expect("write lands");
                }
                for i in 0..24u64 {
                    assert_eq!(
                        c.read(base + i).expect("read back"),
                        payload(u64::from(tenant) * 10_000 + i),
                        "tenant {tenant} block {i}"
                    );
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("tenant worker");
    }

    // Out-of-grant access resolves typed, not silently.
    let mut trespasser = client(&endpoint, 200, 0);
    match trespasser.read(CAPACITY - 1) {
        Err(RpcError::Status { code, .. }) => assert_eq!(code, status::DENIED),
        other => panic!("cross-tenant read: {other:?}"),
    }

    let (outcome, _service) = server.drain_join();
    assert_eq!(outcome.counters.served, u64::from(TENANTS) * 48);
}

/// A client that dies mid-frame — and another that speaks garbage —
/// leave the server fully healthy for everyone else.
#[test]
fn killed_and_garbage_clients_do_not_harm_the_server() {
    let server = spawn_server(make_service(None), ServerConfig::default(), &tcp());
    let addr = match &server.endpoint {
        Endpoint::Tcp(addr) => addr.clone(),
        other => panic!("expected tcp endpoint, got {other}"),
    };

    // Handshake fine, then half a Request frame, then death.
    {
        let mut raw = TcpStream::connect(addr.as_str()).expect("raw connect");
        raw.write_all(&encode_frame(&Frame::Hello {
            client_id: 666,
            tenant: 0,
            token: 0,
        }))
        .expect("raw hello");
        let mut reader = FrameReader::new();
        match read_frame_raw(&mut raw, &mut reader) {
            Frame::HelloAck {
                accept: Accept::Ok, ..
            } => {}
            other => panic!("handshake: {other:?}"),
        }
        let frame = encode_frame(&Frame::Request {
            req_id: 1,
            deadline_nanos: 0,
            block: 0,
            payload: None,
        });
        raw.write_all(&frame[..frame.len() / 2])
            .expect("half frame");
        // Dropped here: the server holds a partial frame and gets EOF.
    }

    // Garbage before the handshake.
    {
        let mut raw = TcpStream::connect(addr.as_str()).expect("raw connect");
        raw.write_all(&[0x02, 0x00, 0x00, 0x00, 0xEE, 0xEE])
            .expect("garbage");
    }

    // A well-behaved client is unaffected.
    let mut c = client(&server.endpoint, 1, 0);
    assert_eq!(
        c.write(3, payload(42)).expect("write"),
        vec![0u8; PAYLOAD_LEN]
    );
    assert_eq!(c.read(3).expect("read"), payload(42));
    c.ping().expect("ping");

    let (outcome, _service) = server.drain_join();
    assert_eq!(outcome.counters.served, 2);
    assert!(outcome.counters.connections >= 3);
}

/// An impossible server-side deadline sheds the request typed, before
/// the engine sees it.
#[test]
fn expired_deadline_is_shed_typed() {
    let server = spawn_server(make_service(None), ServerConfig::default(), &tcp());
    let mut config = ClientConfig::new(server.endpoint.clone(), 5, 0);
    config.server_deadline = Some(Duration::from_nanos(1));
    let mut c = RpcClient::new(config);
    match c.read(3) {
        Err(RpcError::Status { code, .. }) => assert_eq!(code, status::DEADLINE_EXPIRED),
        other => panic!("expected typed deadline shed, got {other:?}"),
    }
    let (outcome, _service) = server.drain_join();
    assert!(outcome.counters.shed_deadline >= 1);
    assert_eq!(outcome.counters.served, 0, "shed work must not execute");
}

/// With the in-flight bound pinned to 1, a pipelined batch is throttled
/// with typed `BUSY` sheds — and still lands completely through the
/// client's backoff ladder.
#[test]
fn busy_backpressure_resolves_through_retries() {
    let config = ServerConfig {
        max_inflight: 1,
        ..ServerConfig::default()
    };
    let server = spawn_server(make_service(None), config, &tcp());
    let mut c = client(&server.endpoint, 9, 0);
    let ops: Vec<(u64, Option<Vec<u8>>)> = (0..16u64).map(|b| (b, Some(payload(b)))).collect();
    for result in c.call_many(ops).expect("batch resolves") {
        result.expect("op lands despite backpressure");
    }
    assert!(c.client_stats().backoffs > 0, "no backoff ever taken");
    let (outcome, _service) = server.drain_join();
    assert_eq!(outcome.counters.served, 16);
    assert!(outcome.counters.busy_rejects > 0, "bound never enforced");
}

/// A token mismatch is refused at the handshake, typed; the right token
/// sails through.
#[test]
fn auth_failure_is_typed() {
    let config = ServerConfig {
        token: Some(0xC0FFEE),
        ..ServerConfig::default()
    };
    let server = spawn_server(make_service(None), config, &tcp());

    let mut bad = ClientConfig::new(server.endpoint.clone(), 1, 0);
    bad.token = 1; // wrong
    bad.max_redials = 0;
    match RpcClient::new(bad).ping() {
        Err(RpcError::Rejected {
            accept: Accept::AuthFailed,
        }) => {}
        other => panic!("expected AuthFailed, got {other:?}"),
    }

    let mut config = ClientConfig::new(server.endpoint.clone(), 2, 0);
    config.token = 0xC0FFEE;
    let mut good = RpcClient::new(config);
    good.ping().expect("authorized ping");
    let (_outcome, _service) = server.drain_join();
}

/// A client that resends a request whose response it never saw gets the
/// *original* outcome replayed from the idempotency window — the write
/// is not applied twice. Deterministic: raw socket, explicit resend.
#[test]
fn resent_request_replays_original_outcome() {
    let server = spawn_server(make_service(None), ServerConfig::default(), &tcp());
    let addr = match &server.endpoint {
        Endpoint::Tcp(addr) => addr.clone(),
        other => panic!("expected tcp endpoint, got {other}"),
    };
    let mut raw = TcpStream::connect(addr.as_str()).expect("connect");
    let mut reader = FrameReader::new();
    raw.write_all(&encode_frame(&Frame::Hello {
        client_id: 77,
        tenant: 0,
        token: 0,
    }))
    .expect("hello");
    match read_frame_raw(&mut raw, &mut reader) {
        Frame::HelloAck {
            accept: Accept::Ok, ..
        } => {}
        other => panic!("handshake: {other:?}"),
    }

    let request = encode_frame(&Frame::Request {
        req_id: 1,
        deadline_nanos: 0,
        block: 2,
        payload: Some(payload(555)),
    });
    raw.write_all(&request).expect("first send");
    let first = read_frame_raw(&mut raw, &mut reader);
    match &first {
        Frame::Response {
            status: code,
            payload,
            ..
        } => {
            assert_eq!(*code, status::OK);
            assert_eq!(payload, &vec![0u8; PAYLOAD_LEN], "previous bytes");
        }
        other => panic!("first response: {other:?}"),
    }

    // Byte-identical resend of the same req_id: the pretend-lost-response
    // retry. A re-execution would return previous = payload(555).
    raw.write_all(&request).expect("resend");
    let second = read_frame_raw(&mut raw, &mut reader);
    assert_eq!(second, first, "resend must replay the cached outcome");

    let (outcome, _service) = server.drain_join();
    assert_eq!(outcome.counters.served, 1, "executed exactly once");
    assert_eq!(outcome.counters.dedup_hits, 1);
}

/// Drain → checkpoint → restore on a fresh server: data survives, the
/// epoch advances under a transparently-redialing client, and the
/// restored idempotency window still answers pre-restart retries
/// without re-executing them. Runs over a Unix socket (doubling as the
/// unix transport smoke test — and sidestepping TCP TIME_WAIT on
/// rebinding the same address).
#[test]
fn drain_checkpoint_restore_replays_across_restart() {
    let dir = std::env::temp_dir().join(format!("horam-rpc-restart-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let endpoint = Endpoint::Unix(dir.join("restart.sock"));

    let server = spawn_server(make_service(None), ServerConfig::default(), &endpoint);
    let mut c = client(&endpoint, 7, 0);
    for i in 0..8u64 {
        assert_eq!(
            c.write(i, payload(100 + i)).expect("pre-drain write"),
            vec![0u8; PAYLOAD_LEN]
        );
    }
    assert_eq!(c.epoch(), Some(0));
    let (outcome, _service) = server.drain_join();
    assert_eq!(outcome.counters.served, 8);

    // The checkpoint file format roundtrips exactly.
    let reparsed = Checkpoint::from_bytes(&master(), &outcome.checkpoint.to_bytes(&master()))
        .expect("reparse");
    assert_eq!(reparsed, outcome.checkpoint);

    let restored = make_service(Some(&outcome.checkpoint.engine));
    let config = ServerConfig {
        epoch: outcome.checkpoint.epoch + 1,
        preload_window: outcome.checkpoint.window.clone(),
        ..ServerConfig::default()
    };
    let server = spawn_server(restored, config, &endpoint);

    // The same client redials transparently and sees its data — and the
    // new epoch.
    for i in 0..8u64 {
        assert_eq!(c.read(i).expect("post-restart read"), payload(100 + i));
    }
    assert_eq!(c.epoch(), Some(1), "restart must be observable");

    // A retry of pre-restart work: same client identity, same req_id 1
    // (the first write), now carrying a *different* payload. The window
    // preloaded from the checkpoint must replay the original outcome —
    // previous bytes all-zero — and must not execute the new write.
    let mut retry = client(&endpoint, 7, 0);
    assert_eq!(
        retry.write(0, payload(999)).expect("replayed retry"),
        vec![0u8; PAYLOAD_LEN],
        "window replay must return the original previous-bytes"
    );
    let mut probe = client(&endpoint, 8, 0);
    assert_eq!(
        probe.read(0).expect("probe read"),
        payload(100),
        "the retried write must not have re-executed"
    );

    let (outcome, _service) = server.drain_join();
    assert!(outcome.counters.dedup_hits >= 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Under seeded frame drops, truncations, and disconnects, a chain of
/// writes to one block still applies exactly once each: every write's
/// returned previous-bytes is exactly the prior write's payload.
#[test]
fn chaos_chain_never_duplicates_a_write() {
    let server = spawn_server(make_service(None), ServerConfig::default(), &tcp());
    let plan = ConnFaultPlan::shared(ConnFaultConfig {
        seed: 0xFA_17,
        drop_permille: 120,
        truncate_permille: 60,
        disconnect_permille: 60,
        delay_permille: 0,
        delay_micros: 0,
    });
    let mut config = ClientConfig::new(server.endpoint.clone(), 21, 0);
    config.fault_plan = Some(Arc::clone(&plan));
    config.resend_after = Duration::from_millis(40);
    config.backoff = Duration::from_millis(2);
    config.call_deadline = Duration::from_secs(30);
    config.max_redials = 500;
    let mut c = RpcClient::new(config);

    let block = 5u64;
    let mut expected_prev = vec![0u8; PAYLOAD_LEN];
    for i in 0..40u64 {
        let next = payload(7_000 + i);
        let prev = c.write(block, next.clone()).expect("write resolves");
        assert_eq!(
            prev, expected_prev,
            "write {i}: previous-bytes chain broken — a write was duplicated or lost"
        );
        expected_prev = next;
    }

    let stats = plan.lock().expect("plan lock").stats();
    assert!(
        stats.dropped + stats.truncated + stats.disconnects > 0,
        "chaos schedule never fired — the test proved nothing"
    );
    let client_stats = c.client_stats();
    assert!(
        client_stats.dials > 1 || client_stats.resends > 0,
        "retry ladder never exercised"
    );
    let (outcome, _service) = server.drain_join();
    assert_eq!(
        outcome.counters.served, 40,
        "each write executed exactly once"
    );
}

/// Everything a chaos run observes: per-op outcomes (payload or wire
/// status), the final tenant-range read-back, and the served count.
type ChaosObservation = (Vec<Result<Vec<u8>, u16>>, Vec<Vec<u8>>, u64);

/// One full chaos run: seeded faults, mixed schedule, then a clean
/// read-back of the whole tenant range.
fn chaos_run(fault_seed: u64) -> ChaosObservation {
    let server = spawn_server(make_service(None), ServerConfig::default(), &tcp());
    let plan = ConnFaultPlan::shared(ConnFaultConfig {
        seed: fault_seed,
        drop_permille: 80,
        truncate_permille: 40,
        disconnect_permille: 40,
        delay_permille: 0,
        delay_micros: 0,
    });
    let mut config = ClientConfig::new(server.endpoint.clone(), 31, 1);
    config.fault_plan = Some(plan);
    config.resend_after = Duration::from_millis(40);
    config.backoff = Duration::from_millis(2);
    config.call_deadline = Duration::from_secs(30);
    config.max_redials = 500;
    let mut c = RpcClient::new(config);

    let base = CAPACITY / u64::from(TENANTS); // tenant 1's range start
    let mut outcomes = Vec::new();
    for i in 0..30u64 {
        let block = base + (i * 11) % 32;
        let result = if i % 2 == 0 {
            c.write(block, payload(i))
        } else {
            c.read(block)
        };
        outcomes.push(result.map_err(|error| match error {
            RpcError::Status { code, .. } => code,
            other => panic!("transport failure escaped the retry ladder: {other}"),
        }));
    }

    // Clean (fault-free) client reads the whole range back.
    let mut probe = client(&server.endpoint, 32, 1);
    let readback: Vec<Vec<u8>> = (base..base + 32)
        .map(|block| probe.read(block).expect("probe read"))
        .collect();
    let (outcome, _service) = server.drain_join();
    (outcomes, readback, outcome.counters.served)
}

/// Two runs with identical seeds — engine and fault schedule — finish
/// with identical per-op outcomes, identical final state, and identical
/// executed-request counts, no matter how the retry timing wobbled in
/// between.
#[test]
fn seeded_chaos_runs_are_deterministic() {
    let first = chaos_run(0xD5EED);
    let second = chaos_run(0xD5EED);
    assert_eq!(first.0, second.0, "per-op outcomes diverged");
    assert_eq!(first.1, second.1, "final state diverged");
    assert_eq!(first.2, second.2, "executed-request counts diverged");
}

/// Draining mid-load sheds the stragglers typed (`SHUTTING_DOWN`) and
/// executes everything admitted — never a half-applied request at the
/// checkpoint boundary.
#[test]
fn drain_under_load_sheds_typed_and_checkpoints() {
    let server = spawn_server(make_service(None), ServerConfig::default(), &tcp());
    let endpoint = server.endpoint.clone();
    let drain = Arc::clone(&server.drain);

    let pusher = thread::spawn(move || {
        let mut config = ClientConfig::new(endpoint, 55, 0);
        config.call_deadline = Duration::from_secs(10);
        config.max_redials = 0;
        let mut c = RpcClient::new(config);
        let mut landed = 0u64;
        let mut shed = 0u64;
        for i in 0..200u64 {
            match c.write(i % 16, payload(3_000 + i)) {
                Ok(_) => landed += 1,
                Err(RpcError::Status { code, .. }) if code == status::SHUTTING_DOWN => shed += 1,
                // Once the server is gone the connection just dies.
                Err(_) => break,
            }
            if i == 20 {
                drain.store(true, Ordering::Release);
            }
        }
        (landed, shed)
    });

    let (landed, _shed) = pusher.join().expect("pusher");
    let (outcome, _service) = server.drain_join();
    assert!(landed >= 21, "writes before the drain flag must land");
    assert_eq!(
        outcome.counters.served, landed,
        "every executed request was answered; everything else was shed typed"
    );
}
