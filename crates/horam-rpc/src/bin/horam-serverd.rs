//! `horam-serverd` — the H-ORAM network server daemon.
//!
//! Serves a sharded H-ORAM engine over TCP or a Unix socket until a
//! graceful drain (SIGTERM, or a client `Drain` frame), then writes the
//! drain checkpoint — sealed engine snapshot plus the idempotency
//! window — to `--checkpoint`. Started again with the same flags, it
//! restores from that file and resumes byte-identically; a checkpoint
//! whose geometry differs from the flags is refused. See
//! `docs/OPERATIONS.md` for the runbook.
//!
//! ```text
//! horam-serverd --listen tcp://127.0.0.1:7171 --checkpoint /var/lib/horam/ckpt \
//!               --capacity 4096 --payload-len 16 --memory-slots 1024 \
//!               --shards 4 --tenants 8
//! ```

use horam_core::access_control::UserId;
use horam_core::config::{HOramConfig, MEMORY_BUCKET_SLOTS};
use horam_core::shard::{ShardedConfig, ShardedOram};
use horam_rpc::server::{bind_signals_to_drain, run_server, Checkpoint, ServerConfig, WindowEntry};
use horam_rpc::{Endpoint, Listener};
use horam_server::service::{OramService, ServiceConfig};
use horam_server::FifoPolicy;
use oram_crypto::keys::MasterKey;
use oram_storage::hierarchy::MemoryHierarchy;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

#[derive(Debug)]
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
    fn parse(argv: impl IntoIterator<Item = String>) -> Result<Self, String> {
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
        let mut it = argv.into_iter();
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

    /// Refuses the values the engine and the service would otherwise
    /// reject with a panic, before anything is built.
    fn validate(&self) -> Result<(), String> {
        if self.payload_len == 0 {
            return Err("--payload-len must be positive".into());
        }
        if self.shards == 0 || self.shards > self.capacity {
            return Err(format!(
                "--shards must be between 1 and the capacity ({}), got {}",
                self.capacity, self.shards
            ));
        }
        if self.tenants == 0 || u64::from(self.tenants) > self.capacity {
            return Err(format!(
                "--tenants must be between 1 and the capacity ({}), got {}",
                self.capacity, self.tenants
            ));
        }
        if self.batch_size == 0 {
            return Err("--batch-size must be positive".into());
        }
        let base = HOramConfig::new(self.capacity, self.payload_len, self.memory_slots);
        let share = ShardedConfig::new(base, self.shards)
            .shard_config(0)
            .memory_slots;
        if share < MEMORY_BUCKET_SLOTS {
            return Err(format!(
                "--memory-slots must give every shard at least one bucket \
                 ({MEMORY_BUCKET_SLOTS} slots): {} over {} shards is {share} each",
                self.memory_slots, self.shards
            ));
        }
        Ok(())
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

/// The engine to serve, with the epoch and idempotency window to resume:
/// restored from `--checkpoint` when that file exists (a checkpoint from
/// a previous drain carries the sealed engine state and the window;
/// tenants and grants are configuration, re-registered from the flags),
/// fresh at epoch 0 otherwise.
fn open_engine(
    args: &Args,
    service_config: &ServiceConfig,
) -> Result<(ShardedOram, u64, Vec<WindowEntry>), String> {
    let master = MasterKey::from_bytes([args.key; 32]);
    let Some(path) = args.checkpoint.as_ref().filter(|path| path.exists()) else {
        let base = service_config
            .engine_config(HOramConfig::new(
                args.capacity,
                args.payload_len,
                args.memory_slots,
            ))
            .with_seed(args.seed);
        let oram = ShardedOram::new(ShardedConfig::new(base, args.shards), master, |_| {
            MemoryHierarchy::dac2019()
        })
        .map_err(|e| format!("init: {e}"))?;
        return Ok((oram, 0, Vec::new()));
    };
    let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let checkpoint = Checkpoint::from_bytes(&bytes).map_err(|e| e.to_string())?;
    let epoch = checkpoint.epoch + 1;
    eprintln!(
        "horam-serverd: restoring epoch {epoch} from {} ({} window entries)",
        path.display(),
        checkpoint.window.len()
    );
    let oram = ShardedOram::restore(master, |_| MemoryHierarchy::dac2019(), &checkpoint.snapshot)
        .map_err(|e| format!("restore: {e}"))?;
    // Tenant ranges come from the flags: serving the checkpoint's
    // geometry under other flags would grant blocks of the wrong tenant.
    let stored = &oram.config().base;
    for (flag, given, found) in [
        ("--capacity", args.capacity, stored.capacity),
        (
            "--payload-len",
            args.payload_len as u64,
            stored.payload_len as u64,
        ),
        ("--memory-slots", args.memory_slots, stored.memory_slots),
        ("--shards", args.shards, oram.config().shards),
    ] {
        if given != found {
            return Err(format!(
                "{} was taken with {flag} {found}, not {given}; restart with the checkpoint's geometry",
                path.display()
            ));
        }
    }
    Ok((oram, epoch, checkpoint.window))
}

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
    let args = Args::parse(std::env::args().skip(1))?;
    args.validate()?;

    let service_config = ServiceConfig {
        batch_size: args.batch_size,
        ..ServiceConfig::default()
    };
    let (oram, epoch, preload_window) = open_engine(&args, &service_config)?;

    let mut service = OramService::new(oram, Box::new(FifoPolicy), service_config);
    let per_tenant = args.capacity / u64::from(args.tenants);
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

#[cfg(test)]
mod tests {
    use super::*;
    use oram_storage::file::scratch_dir;

    fn args(flags: &[&str]) -> Result<Args, String> {
        let args = Args::parse(flags.iter().map(|flag| flag.to_string()))?;
        args.validate()?;
        Ok(args)
    }

    #[test]
    fn values_the_engine_would_panic_on_are_usage_errors() {
        for flags in [
            &["--capacity", "4", "--tenants", "8"][..],
            &["--shards", "0"],
            &["--capacity", "64", "--shards", "128"],
            &["--batch-size", "0"],
            &["--memory-slots", "8", "--shards", "4"],
        ] {
            let error = args(flags).expect_err("refused");
            assert!(error.starts_with("--"), "{flags:?}: {error}");
        }
        assert!(args(&[]).is_ok(), "the defaults are valid");
    }

    #[test]
    fn restore_refuses_a_checkpoint_of_another_geometry() {
        let dir = scratch_dir("serverd-geometry");
        let path = dir.join("checkpoint");
        let path = path.to_str().expect("utf-8 path");
        let first = args(&["--checkpoint", path]).expect("defaults: 4096 blocks, 4 shards");
        let config = ServiceConfig::default();
        let (mut oram, epoch, _) = open_engine(&first, &config).expect("fresh engine");
        assert_eq!(epoch, 0);
        let checkpoint = Checkpoint {
            snapshot: oram.snapshot().expect("idle engine snapshots"),
            window: Vec::new(),
            epoch,
        };
        std::fs::write(path, checkpoint.to_bytes()).expect("checkpoint written");

        let resized = args(&["--checkpoint", path, "--capacity", "8192", "--shards", "2"])
            .expect("valid flags on their own");
        let error = open_engine(&resized, &config).expect_err("mismatch refused");
        assert!(
            error.contains("--capacity 4096, not 8192"),
            "names both values: {error}"
        );
        let (_, epoch, _) = open_engine(&first, &config).expect("matching flags restore");
        assert_eq!(epoch, 1);
        std::fs::remove_dir_all(dir).expect("scratch removed");
    }
}
