//! `horam-serverd` — the H-ORAM network server daemon.
//!
//! Serves a sharded H-ORAM engine over TCP or a Unix socket until a
//! graceful drain (SIGTERM, or a client `Drain` frame), then writes the
//! drain checkpoint — sealed engine snapshot plus the idempotency
//! window — to `--checkpoint`. Started again with the same flags, it
//! restores from that file and resumes byte-identically; see
//! `docs/OPERATIONS.md` for the runbook.
//!
//! ```text
//! horam-serverd --listen tcp://127.0.0.1:7171 --checkpoint /var/lib/horam/ckpt \
//!               --capacity 4096 --payload-len 16 --memory-slots 1024 \
//!               --shards 4 --tenants 8
//! ```

use horam_core::config::HOramConfig;
use horam_core::multi_user::UserId;
use horam_core::shard::{ShardedConfig, ShardedOram};
use horam_rpc::server::{bind_signals_to_drain, run_server, Checkpoint, ServerConfig};
use horam_rpc::{Endpoint, Listener};
use horam_server::service::{OramService, ServiceConfig};
use horam_server::FifoPolicy;
use oram_crypto::keys::MasterKey;
use oram_storage::hierarchy::MemoryHierarchy;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

struct Args {
    listen: Endpoint,
    checkpoint: Option<PathBuf>,
    capacity: u64,
    payload_len: usize,
    memory_slots: u64,
    shards: u64,
    tenants: u32,
    batch_size: usize,
    max_connections: usize,
    max_inflight: usize,
    dedup_window: usize,
    token: Option<u64>,
    seed: u64,
    key: u8,
    ready_fd_line: bool,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut args = Args {
            listen: Endpoint::Tcp("127.0.0.1:7171".into()),
            checkpoint: None,
            capacity: 4096,
            payload_len: 16,
            memory_slots: 1024,
            shards: 4,
            tenants: 8,
            batch_size: 128,
            max_connections: 16,
            max_inflight: 256,
            dedup_window: 1024,
            token: None,
            seed: 7,
            key: 0xB2,
            ready_fd_line: false,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value =
                |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
            match flag.as_str() {
                "--listen" => {
                    args.listen = Endpoint::parse(&value("--listen")?).map_err(|e| e.to_string())?
                }
                "--checkpoint" => args.checkpoint = Some(PathBuf::from(value("--checkpoint")?)),
                "--capacity" => args.capacity = parse(&value("--capacity")?)?,
                "--payload-len" => args.payload_len = parse(&value("--payload-len")?)?,
                "--memory-slots" => args.memory_slots = parse(&value("--memory-slots")?)?,
                "--shards" => args.shards = parse(&value("--shards")?)?,
                "--tenants" => args.tenants = parse(&value("--tenants")?)?,
                "--batch-size" => args.batch_size = parse(&value("--batch-size")?)?,
                "--max-connections" => args.max_connections = parse(&value("--max-connections")?)?,
                "--max-inflight" => args.max_inflight = parse(&value("--max-inflight")?)?,
                "--dedup-window" => args.dedup_window = parse(&value("--dedup-window")?)?,
                "--token" => args.token = Some(parse(&value("--token")?)?),
                "--seed" => args.seed = parse(&value("--seed")?)?,
                "--key" => args.key = parse(&value("--key")?)?,
                "--ready-line" => args.ready_fd_line = true,
                "--help" | "-h" => {
                    println!("{USAGE}");
                    std::process::exit(0);
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(args)
    }
}

const USAGE: &str = "horam-serverd — H-ORAM network server

  --listen <tcp://host:port | unix://path>   (default tcp://127.0.0.1:7171)
  --checkpoint <path>    restore from this file if present; write the
                         drain checkpoint here on SIGTERM
  --capacity/--payload-len/--memory-slots    engine geometry
  --shards N             sharded engine width (default 4)
  --tenants N            tenants 0..N, equal disjoint block ranges
  --batch-size N         admission batch size (default 128)
  --max-connections / --max-inflight / --dedup-window
  --token T              require this Hello token
  --seed S / --key K     engine seed and master-key byte
  --ready-line           print `READY <endpoint> <epoch>` once serving";

fn parse<T: std::str::FromStr>(raw: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    raw.parse().map_err(|e| format!("bad value {raw:?}: {e}"))
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("horam-serverd: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args = Args::parse()?;

    let service_config = ServiceConfig {
        batch_size: args.batch_size,
        ..ServiceConfig::default()
    };
    let base = service_config
        .engine_config(HOramConfig::new(
            args.capacity,
            args.payload_len,
            args.memory_slots,
        ))
        .with_seed(args.seed);
    let sharded = ShardedConfig::new(base, args.shards);
    let master = MasterKey::from_bytes([args.key; 32]);

    // Restore-or-fresh: a checkpoint file from a previous drain carries
    // the sealed engine state and the idempotency window; tenants and
    // grants are configuration, re-registered deterministically below.
    let mut preload_window = Vec::new();
    let mut epoch = 0u64;
    let oram = match args.checkpoint.as_ref().filter(|path| path.exists()) {
        Some(path) => {
            let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
            let checkpoint = Checkpoint::from_bytes(&bytes).map_err(|e| e.to_string())?;
            epoch = checkpoint.epoch + 1;
            preload_window = checkpoint.window;
            eprintln!(
                "horam-serverd: restoring epoch {epoch} from {} ({} window entries)",
                path.display(),
                preload_window.len()
            );
            ShardedOram::restore(master, |_| MemoryHierarchy::dac2019(), &checkpoint.snapshot)
                .map_err(|e| format!("restore: {e}"))?
        }
        None => ShardedOram::new(sharded, master, |_| MemoryHierarchy::dac2019())
            .map_err(|e| format!("init: {e}"))?,
    };

    let mut service = OramService::new(oram, Box::new(FifoPolicy), service_config);
    let per_tenant = args.capacity / u64::from(args.tenants.max(1));
    for tenant in 0..args.tenants {
        let start = u64::from(tenant) * per_tenant;
        service.register_tenant(
            UserId(tenant),
            start..start + per_tenant,
            horam_core::access_control::Permission::ReadWrite,
        );
    }

    let drain = Arc::new(AtomicBool::new(false));
    let server_config = ServerConfig {
        max_connections: args.max_connections,
        max_inflight: args.max_inflight,
        dedup_window: args.dedup_window,
        token: args.token,
        epoch,
        drain: Arc::clone(&drain),
        preload_window,
        ..ServerConfig::default()
    };

    let listener =
        Listener::bind(&args.listen).map_err(|e| format!("bind {}: {e}", args.listen))?;
    let bound = listener.local_endpoint().map_err(|e| e.to_string())?;
    if args.ready_fd_line {
        // Machine-readable readiness for process supervisors and the
        // bench gate's spawner.
        println!("READY {bound} {epoch}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
    }
    eprintln!("horam-serverd: serving {bound} (epoch {epoch})");

    bind_signals_to_drain(Arc::clone(&drain));

    let outcome =
        run_server(&mut service, &listener, &server_config).map_err(|e| format!("serve: {e}"))?;

    eprintln!(
        "horam-serverd: drained (served {} shed_deadline {} busy {} queue_full {} dedup_hits {} shed_draining {} connections {})",
        outcome.counters.served,
        outcome.counters.shed_deadline,
        outcome.counters.busy_rejects,
        outcome.counters.queue_full_rejects,
        outcome.counters.dedup_hits,
        outcome.counters.shed_draining,
        outcome.counters.connections,
    );
    if let Some(path) = &args.checkpoint {
        std::fs::write(path, outcome.checkpoint.to_bytes())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!("horam-serverd: checkpoint written to {}", path.display());
    }
    if let Endpoint::Unix(path) = &bound {
        let _ = std::fs::remove_file(path);
    }
    Ok(())
}
