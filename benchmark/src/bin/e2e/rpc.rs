//! `rpc_zipf`: a `horam-serverd` child process on a loopback TCP port,
//! driven by two client threads (one per tenant) through
//! `RpcClient::call_many(64)` with the same streams as `serve_zipf`.

use crate::probes::Geometry;
use crate::serve::{self, ServeZipf, BATCH, CAPACITY, PAYLOAD, SHARDS, SLOTS, TENANTS};
use crate::{answer_is_right, Oracle, Pass, Workload};
use horam_benchmark::gen::{payload, OpStream};
use horam_benchmark::stats::median;
use horam_benchmark::trace::Tracer;
use horam_benchmark::{peak_rss_mib, Values};
use horam_rpc::{ClientConfig, Endpoint, RpcClient};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Barrier;
use std::time::Instant;

/// Idle pings timed before the load starts (traced run only).
const IDLE_PINGS: usize = 200;
/// Share of the run's operations the in-process reference pass issues
/// to price the RPC layer.
const REFERENCE_DIVISOR: u64 = 4;

pub struct RpcZipf {
    serverd: PathBuf,
}

impl RpcZipf {
    /// Finds the `horam-serverd` executable `run.sh` builds into the
    /// same directory as this one.
    pub fn locate() -> Result<Self, String> {
        let serverd = std::env::current_exe()
            .map_err(|e| format!("current_exe: {e}"))?
            .with_file_name("horam-serverd");
        if !serverd.is_file() {
            return Err(format!(
                "{serverd:?} not found; build it with `cargo build --release -p horam-rpc --bin horam-serverd`"
            ));
        }
        Ok(Self { serverd })
    }
}

/// A running daemon; killed on drop unless it was drained first.
pub struct Daemon {
    child: Child,
    endpoint: Endpoint,
}

impl Daemon {
    fn client(&self, client_id: u64, tenant: u32) -> RpcClient {
        RpcClient::new(ClientConfig::new(self.endpoint.clone(), client_id, tenant))
    }

    /// Asks the daemon to drain and waits for it to exit cleanly.
    fn drain(mut self) -> Result<(), String> {
        self.client(u64::MAX, 0)
            .drain()
            .map_err(|e| format!("drain: {e}"))?;
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        if !status.success() {
            return Err(format!("horam-serverd exited with {status}"));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One tenant's client: its connection, stream, oracle and tallies.
struct TenantClient {
    tenant: u32,
    client: RpcClient,
    stream: OpStream,
    oracle: Oracle,
    tracer: Tracer,
    rounds: u64,
    attempted: u64,
    failed: u64,
    latencies_ns: Vec<u64>,
    batch_rtt_us: Vec<f64>,
    gen_ns: u64,
}

/// What one client thread brings back.
struct ClientOutcome {
    client: TenantClient,
    timed_start: Instant,
    timed_end: Instant,
}

impl TenantClient {
    /// Issues `rounds` batches of [`BATCH`] operations and checks every
    /// result. Only timed rounds are traced and have their latency kept.
    fn run(&mut self, rounds: u64, timed: bool) -> Result<(), String> {
        let traced = timed && self.tracer.enabled();
        for _ in 0..rounds {
            self.rounds += 1;
            let t0 = traced.then(Instant::now);
            let mut expected = Vec::with_capacity(BATCH);
            let ops: Vec<(u64, Option<Vec<u8>>)> = (0..BATCH)
                .map(|_| {
                    let op = self.stream.next_op();
                    expected.push((op.block, self.oracle.apply(op)));
                    (op.block, op.write.map(|value| payload(value, PAYLOAD)))
                })
                .collect();
            if let Some(t0) = t0 {
                self.gen_ns += t0.elapsed().as_nanos() as u64;
            }
            self.attempted += BATCH as u64;

            let window_id = self.rounds * u64::from(TENANTS) + u64::from(self.tenant);
            let span = traced.then(|| self.tracer.begin("rpc.call_many", window_id));
            let sent = Instant::now();
            let results = self
                .client
                .call_many(ops)
                .map_err(|e| format!("call_many (tenant {}): {e}", self.tenant))?;
            let rtt = sent.elapsed();
            if let Some(span) = span {
                self.tracer.end(span);
            }
            if timed {
                self.batch_rtt_us.push(rtt.as_secs_f64() * 1e6);
                self.latencies_ns
                    .extend(std::iter::repeat_n(rtt.as_nanos() as u64, BATCH));
            }
            for ((block, expected), result) in expected.into_iter().zip(results) {
                if !answer_is_right(block, expected, PAYLOAD, result) {
                    self.failed += 1;
                }
            }
        }
        Ok(())
    }
}

fn client_thread(
    mut client: TenantClient,
    warm_rounds: u64,
    timed_rounds: u64,
    barrier: &Barrier,
) -> Result<ClientOutcome, String> {
    let warm = client.run(warm_rounds, false);
    // Both tenants enter the timed phase together. The barrier is reached
    // even if the warm-up failed, so the other thread never waits in vain.
    barrier.wait();
    warm?;
    let timed_start = Instant::now();
    client.run(timed_rounds, true)?;
    Ok(ClientOutcome {
        client,
        timed_start,
        timed_end: Instant::now(),
    })
}

impl Workload for RpcZipf {
    type System = Daemon;

    /// Spawns the daemon with geometry flags only and waits until it
    /// answers a ping.
    fn setup(&self, _dir: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(&self.serverd)
            .args(["--listen", "tcp://127.0.0.1:0", "--ready-line"])
            .args(["--capacity", &CAPACITY.to_string()])
            .args(["--payload-len", &PAYLOAD.to_string()])
            .args(["--memory-slots", &SLOTS.to_string()])
            .args(["--shards", &SHARDS.to_string()])
            .args(["--tenants", &TENANTS.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {:?}: {e}", self.serverd))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let endpoint = match (read, line.split_whitespace().collect::<Vec<_>>().as_slice()) {
            (Ok(_), ["READY", endpoint, _epoch]) => Endpoint::parse(endpoint).ok(),
            _ => None,
        };
        let Some(endpoint) = endpoint else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!(
                "horam-serverd said {line:?}, not READY <endpoint> <epoch>"
            ));
        };
        let daemon = Daemon { child, endpoint };
        daemon
            .client(u64::MAX, 0)
            .ping()
            .map_err(|e| format!("first ping: {e}"))?;
        Ok(daemon)
    }

    fn discard(&self, daemon: Daemon) -> Result<(), String> {
        daemon.drain()
    }

    fn run(
        &self,
        daemon: Daemon,
        seed: u64,
        ops: u64,
        tracer: &mut Tracer,
    ) -> Result<Pass, String> {
        let mut values = Values::new();
        if tracer.enabled() {
            let mut client = daemon.client(u64::MAX - 1, 0);
            client.ping().map_err(|e| format!("ping: {e}"))?;
            let mut rtts = Vec::with_capacity(IDLE_PINGS);
            for i in 0..IDLE_PINGS {
                let span = tracer.begin("rpc.ping", i as u64);
                let rtt = client.ping().map_err(|e| format!("ping: {e}"))?;
                tracer.end(span);
                rtts.push(rtt.as_secs_f64() * 1e6);
            }
            values.insert("rpc.ping_rtt_us", median(&rtts));
        }

        let per_tenant = ops / u64::from(TENANTS);
        let warm_rounds = (per_tenant / 10).div_ceil(BATCH as u64);
        let timed_rounds = (per_tenant - per_tenant / 10).div_ceil(BATCH as u64);
        let barrier = Barrier::new(TENANTS as usize);
        let outcomes: Vec<Result<ClientOutcome, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..TENANTS)
                .map(|tenant| {
                    let client = TenantClient {
                        tenant,
                        client: daemon.client(u64::from(tenant) + 1, tenant),
                        stream: serve::tenant_stream(seed, tenant),
                        oracle: Oracle::default(),
                        tracer: tracer.child(),
                        rounds: 0,
                        attempted: 0,
                        failed: 0,
                        latencies_ns: Vec::with_capacity(timed_rounds as usize * BATCH),
                        batch_rtt_us: Vec::with_capacity(timed_rounds as usize),
                        gen_ns: 0,
                    };
                    let barrier = &barrier;
                    scope.spawn(move || client_thread(client, warm_rounds, timed_rounds, barrier))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("client thread panicked".into()))
                })
                .collect()
        });
        let outcomes = outcomes.into_iter().collect::<Result<Vec<_>, _>>()?;

        let counters = daemon
            .client(u64::MAX - 2, 0)
            .server_stats()
            .map_err(|e| format!("server_stats: {e}"))?;
        let engine_rss_mib = peak_rss_mib(daemon.child.id())
            .ok_or("daemon peak RSS unavailable: /proc/<pid>/status has no VmHWM")?;
        daemon.drain()?;

        let timed_ops = timed_rounds * BATCH as u64 * u64::from(TENANTS);
        let start = outcomes.iter().map(|o| o.timed_start).min().expect("two");
        let end = outcomes.iter().map(|o| o.timed_end).max().expect("two");
        let clients: Vec<TenantClient> = outcomes.into_iter().map(|o| o.client).collect();
        let sum = |f: fn(&TenantClient) -> u64| clients.iter().map(f).sum::<u64>();
        let batch_rtts: Vec<f64> = clients
            .iter()
            .flat_map(|c| c.batch_rtt_us.iter().copied())
            .collect();
        values.insert("rpc.batch_rtt_us", median(&batch_rtts));
        values.insert(
            "rpc.resends",
            sum(|c| c.client.client_stats().resends) as f64,
        );
        values.insert(
            "rpc.redials",
            sum(|c| c.client.client_stats().dials.saturating_sub(1)) as f64,
        );
        values.insert(
            "rpc.backoffs",
            sum(|c| c.client.client_stats().backoffs) as f64,
        );
        values.insert("rpc.server_busy", counters.busy_rejects as f64);
        values.insert("rpc.server_queue_full", counters.queue_full_rejects as f64);
        values.insert("rpc.server_shed_deadline", counters.shed_deadline as f64);
        values.insert("rpc.server_dedup_hits", counters.dedup_hits as f64);
        if tracer.enabled() {
            values.insert(
                "harness.gen_ns_per_req",
                sum(|c| c.gen_ns) as f64 / timed_ops as f64,
            );
        }
        let pass = Pass {
            attempted: sum(|c| c.attempted),
            failed: sum(|c| c.failed),
            timed_ops,
            elapsed: end - start,
            cpu_s: 0.0,
            latencies_ns: clients
                .iter()
                .flat_map(|c| c.latencies_ns.iter().copied())
                .collect(),
            values,
            engine_rss_mib: Some(engine_rss_mib),
        };
        for client in clients {
            tracer.absorb(client.tracer);
        }
        Ok(pass)
    }

    fn probe_geometry(&self) -> Geometry {
        serve::geometry(true)
    }

    /// Prices the RPC layer: host time per request over the socket minus
    /// host time per request of the same streams served in-process.
    fn extra_layers(&self, seed: u64, ops: u64, traced: &Pass) -> Result<Values, String> {
        let reference = ServeZipf.run(
            ServeZipf.setup(Path::new(""))?,
            seed,
            ops / REFERENCE_DIVISOR,
            &mut Tracer::new(false),
        )?;
        if reference.failed > 0 {
            return Err(format!(
                "{} operations failed in the in-process reference pass",
                reference.failed
            ));
        }
        let in_process_us = reference.elapsed.as_secs_f64() * 1e6 / reference.timed_ops as f64;
        let over_rpc_us = traced.elapsed.as_secs_f64() * 1e6 / traced.timed_ops as f64;
        Ok(Values::from([(
            "rpc.overhead_us_per_req",
            over_rpc_us - in_process_us,
        )]))
    }
}
