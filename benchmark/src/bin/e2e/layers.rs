//! Per-layer values derived from the engine's public counters and from
//! the harness's spans.

use horam_benchmark::stats::median;
use horam_benchmark::{Values, UNAVAILABLE};
use horam_core::HOramStats;
use oram_storage::stats::DeviceStats;
use std::time::Duration;

/// Counter-derived values over one timed phase: `stats`, `memory` and
/// `storage` are deltas across it and `requests` is what the harness
/// issued in it.
pub fn engine_values(
    stats: &HOramStats,
    memory: &DeviceStats,
    storage: &DeviceStats,
    requests: u64,
) -> Values {
    let per_req = |n: f64| n / requests as f64;
    let loads = stats.total_io_loads() as f64;
    let cycles = stats.cycles as f64;
    let mut values = Values::new();
    values.insert(
        "sim_us_per_req",
        per_req(stats.total_wall_time().as_micros_f64()),
    );
    values.insert("io_loads_per_req", per_req(loads));
    values.insert("core.cycles_per_req", per_req(cycles));
    values.insert("core.hits_per_cycle", stats.memory_hits as f64 / cycles);
    values.insert(
        "core.path_accesses_per_req",
        per_req((stats.memory_hits + stats.dummy_memory_accesses) as f64),
    );
    values.insert("core.dummy_io_share", stats.dummy_io_loads as f64 / loads);
    values.insert("core.spilled_blocks", stats.spilled_blocks as f64);
    values.insert(
        "core.sim_access_us_per_req",
        per_req(stats.access_wall_time.as_micros_f64()),
    );
    values.insert(
        "core.sim_shuffle_us_per_req",
        per_req(stats.shuffle_wall_time.as_micros_f64()),
    );
    values.insert(
        "core.sim_io_us_per_req",
        per_req(stats.io_time.as_micros_f64()),
    );
    values.insert(
        "core.sim_memory_us_per_req",
        per_req(stats.memory_time.as_micros_f64()),
    );
    values.insert("storage.mem_reads_per_req", per_req(memory.reads as f64));
    values.insert("storage.mem_writes_per_req", per_req(memory.writes as f64));
    values.insert("storage.stor_reads_per_req", per_req(storage.reads as f64));
    values.insert(
        "storage.stor_writes_per_req",
        per_req(storage.writes as f64),
    );
    values.insert(
        "storage.sim_busy_read_us_per_req",
        per_req(storage.busy_read.as_micros_f64()),
    );
    values.insert(
        "storage.sim_busy_write_us_per_req",
        per_req(storage.busy_write.as_micros_f64()),
    );
    values.insert(
        "crypto.blocks_per_req",
        per_req((memory.reads + memory.writes + storage.reads + storage.writes) as f64),
    );
    values
}

/// Host time of the calls that run scheduling cycles, split by whether a
/// shuffle epoch ran inside the call. Filled only in the traced pass.
#[derive(Debug, Default)]
pub struct CycleTimes {
    plain_ns: u64,
    plain_cycles: u64,
    /// `(duration, cycles)` of each call during which `shuffles` advanced.
    with_shuffle: Vec<(u64, u64)>,
}

impl CycleTimes {
    pub fn record(&mut self, duration: Duration, cycles: u64, shuffled: bool) {
        let ns = duration.as_nanos() as u64;
        if shuffled {
            self.with_shuffle.push((ns, cycles));
        } else {
            self.plain_ns += ns;
            self.plain_cycles += cycles;
        }
    }

    /// `core.cycle_host_us`, `core.shuffle_host_ms` (median per epoch,
    /// net of the cycles that shared the call) and
    /// `core.shuffle_host_share` of `elapsed`.
    pub fn values(&self, elapsed: Duration, values: &mut Values) {
        if self.plain_cycles == 0 {
            return;
        }
        let cycle_ns = self.plain_ns as f64 / self.plain_cycles as f64;
        values.insert("core.cycle_host_us", cycle_ns / 1e3);
        let epochs: Vec<f64> = self
            .with_shuffle
            .iter()
            .map(|(ns, cycles)| (*ns as f64 - *cycles as f64 * cycle_ns).max(0.0))
            .collect();
        if !epochs.is_empty() {
            values.insert("core.shuffle_host_ms", median(&epochs) / 1e6);
            values.insert(
                "core.shuffle_host_share",
                epochs.iter().sum::<f64>() / elapsed.as_nanos() as f64,
            );
        }
    }
}

/// Fills the estimates that combine probe costs with counters:
/// `crypto.est_us_per_req` and `harness.unattributed_share`.
///
/// `cpu_us_per_req` is the process's CPU time per request over the timed
/// phase — not wall time, because a sharded engine pumps its shards on
/// several threads while each probe times its layer on one.
///
/// The attributed host time per request is the sum of what the harness
/// can see or probe from outside: its own generator, the service's and
/// the engine's entry points (spans), position-map queries, memory-tree
/// path accesses (which include their own crypto and DRAM-device work),
/// storage-device block transfers with their crypto, and the shuffle's
/// permutation. Everything else inside a cycle or a shuffle epoch —
/// planning, ROB, queues, eviction, rebuild, allocation — is the
/// unattributed share.
pub fn estimates(values: &mut Values, cpu_us_per_req: f64, file_backed: bool) {
    // A probe that could not run left a negative placeholder.
    let v = |name: &str| values.get(name).copied().filter(|v| *v >= 0.0);
    let stor_reads = v("storage.stor_reads_per_req").unwrap_or(0.0);
    let stor_writes = v("storage.stor_writes_per_req").unwrap_or(0.0);
    let mem_reads = v("storage.mem_reads_per_req").unwrap_or(0.0);
    let mem_writes = v("storage.mem_writes_per_req").unwrap_or(0.0);
    let (Some(seal), Some(open)) = (v("crypto.seal_ns_per_block"), v("crypto.open_ns_per_block"))
    else {
        // Without the crypto probe neither estimate can be made.
        values.insert("crypto.est_us_per_req", UNAVAILABLE);
        values.insert("harness.unattributed_share", UNAVAILABLE);
        return;
    };
    let crypto_all = ((stor_reads + mem_reads) * open + (stor_writes + mem_writes) * seal) / 1e3;
    let crypto_storage = (stor_reads * open + stor_writes * seal) / 1e3;

    let (read_ns, write_ns) = if file_backed {
        (
            v("storage.file_get_ns_per_block"),
            v("storage.file_put_ns_per_block"),
        )
    } else {
        (
            v("storage.scatter_read_ns_per_block"),
            v("storage.write_run_ns_per_block"),
        )
    };
    let device =
        (stor_reads * read_ns.unwrap_or(0.0) + stor_writes * write_ns.unwrap_or(0.0)) / 1e3;
    let paths = v("core.path_accesses_per_req").unwrap_or(0.0)
        * v("protocols.path_access_us").unwrap_or(0.0);
    // A recursive map costs one level path access per checkout; a flat
    // one a table lookup per query.
    let posmap = match v("core.posmap_checkouts_per_req") {
        Some(checkouts) if checkouts > 0.0 => {
            checkouts * v("core.posmap_checkout_ns").unwrap_or(0.0)
        }
        _ => {
            v("core.posmap_queries_per_req").unwrap_or(0.0)
                * v("core.posmap_query_ns").unwrap_or(0.0)
        }
    } / 1e3;
    let permute = stor_writes * v("shuffle.permute_ns_per_elem").unwrap_or(0.0) / 1e3;
    let entry_points = [
        "harness.gen_ns_per_req",
        "server.submit_ns_per_req",
        "server.take_ns_per_req",
        "core.enqueue_ns_per_req",
        "core.take_ns_per_req",
    ]
    .iter()
    .filter_map(|name| v(name))
    .sum::<f64>()
        / 1e3;
    let attributed = entry_points + posmap + paths + crypto_storage + device + permute;
    values.insert("crypto.est_us_per_req", crypto_all);
    values.insert(
        "harness.unattributed_share",
        1.0 - attributed / cpu_us_per_req,
    );
}
