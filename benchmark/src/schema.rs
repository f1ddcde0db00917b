//! The benchmark's names: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root is [`benchmark_json`] verbatim (a test checks it), so
//! the file and the program cannot drift apart.

/// How long one run's measured phase lasts on the reference host, and
/// the `--seconds` default. Operation counts scale with `--seconds`
/// (see [`Workload::ops_per_second`]).
pub const RUN_SECONDS: u64 = 10;

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Operations issued per second of `--seconds`: the reference host's
    /// measured rate, rounded, so that a run measures for about
    /// `--seconds`. Counts are fixed, not the time, so that simulated
    /// counters repeat exactly for a seed; the first tenth is untimed
    /// warm-up.
    pub ops_per_second: u64,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "hotspot_read",
        why: "Paper regime: 1 KB blocks, 80% of reads in a hot set that fits the memory tree; path open/seal and memory-tree traffic do most.",
        ops_per_second: 4_000,
    },
    Workload {
        name: "cold_durable",
        why: "Larger than every cache, 50% writes, file-backed device, recursive posmap, checkpoints and a kill/restore; a read-side gain that costs writes shows.",
        ops_per_second: 330,
    },
    Workload {
        name: "serve_zipf",
        why: "64 B blocks through OramService on 4 shards, 2 tenants, Zipf 0.99: per-request fixed costs dominate and keystream bytes are 16x fewer.",
        ops_per_second: 18_000,
    },
    Workload {
        name: "rpc_zipf",
        why: "Same engine work as serve_zipf through a horam-serverd child over TCP: the difference is socket, wire codec and control-thread cadence.",
        ops_per_second: 13_000,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "lower",
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "higher",
        bound: None,
    }
}

/// Host-clock metrics every workload defines. The simulated and count
/// metrics of the issue's table are in [`PER_LAYER`]: they do not exist
/// on `rpc_zipf`, and an end-to-end metric must exist on every workload.
///
/// The bounds are wider than the issue's 0.10 / 0.10 / 0.15: the 2-core
/// reference host slows down by about a tenth for tens of seconds at a
/// time, longer than a run, and the quartile spread over ten seeds
/// reached 0.06 (`rps`) and 0.11 (`p50_us`) in noisy stretches (0.03 and
/// 0.04 in a quiet one); benchmark/README.md records the runs. `setup_s`
/// has the largest bound.
pub const END_TO_END: &[Metric] = &[
    e2e("rps", "req/s", "higher", 0.15),
    e2e("p50_us", "us", "lower", 0.20),
    e2e("p99_us", "us", "lower", 0.20),
    e2e("peak_rss_mb", "MiB", "lower", 0.15),
    e2e("setup_s", "s", "lower", 0.25),
];

pub const PER_LAYER: &[Metric] = &[
    // Whole-engine counts on the simulated DAC'19 machine (exact for a seed).
    lower("fail_ratio", "ratio"),
    lower("sim_us_per_req", "us"),
    lower("io_loads_per_req", "count"),
    lower("storage_bytes_per_user_byte", "ratio"),
    lower("trusted_bytes", "B"),
    lower("checkpoint_ms", "ms"),
    // horam-rpc
    lower("rpc.ping_rtt_us", "us"),
    lower("rpc.batch_rtt_us", "us"),
    lower("rpc.encode_ns_per_frame", "ns"),
    lower("rpc.decode_ns_per_frame", "ns"),
    lower("rpc.overhead_us_per_req", "us"),
    lower("rpc.resends", "count"),
    lower("rpc.redials", "count"),
    lower("rpc.backoffs", "count"),
    lower("rpc.server_busy", "count"),
    lower("rpc.server_queue_full", "count"),
    lower("rpc.server_shed_deadline", "count"),
    lower("rpc.server_dedup_hits", "count"),
    // horam-server
    lower("server.submit_ns_per_req", "ns"),
    lower("server.pump_us_per_req", "us"),
    lower("server.take_ns_per_req", "ns"),
    higher("server.reqs_per_pump", "count"),
    higher("server.dedup_ratio", "ratio"),
    // horam-core
    lower("core.enqueue_ns_per_req", "ns"),
    lower("core.take_ns_per_req", "ns"),
    lower("core.cycle_host_us", "us"),
    lower("core.shuffle_host_ms", "ms"),
    lower("core.shuffle_host_share", "ratio"),
    lower("core.cycles_per_req", "count"),
    higher("core.hits_per_cycle", "count"),
    lower("core.path_accesses_per_req", "count"),
    lower("core.dummy_io_share", "ratio"),
    lower("core.spilled_blocks", "count"),
    lower("core.sim_access_us_per_req", "us"),
    lower("core.sim_shuffle_us_per_req", "us"),
    lower("core.sim_io_us_per_req", "us"),
    lower("core.sim_memory_us_per_req", "us"),
    lower("core.posmap_query_ns", "ns"),
    lower("core.posmap_checkout_ns", "ns"),
    lower("core.posmap_rebuild_ms", "ms"),
    lower("core.posmap_queries_per_req", "count"),
    lower("core.posmap_checkouts_per_req", "count"),
    higher("core.posmap_cache_hit_ratio", "ratio"),
    lower("core.snapshot_bytes", "B"),
    lower("core.restore_ms", "ms"),
    lower("core.shard_imbalance", "ratio"),
    higher("core.pipeline_planned_ahead_windows", "count"),
    lower("core.pipeline_period_stalls", "count"),
    // oram-protocols
    lower("protocols.path_access_us", "us"),
    lower("protocols.path_access_sim_us", "us"),
    lower("protocols.evict_all_ms", "ms"),
    lower("protocols.stash_peak", "count"),
    // oram-crypto
    lower("crypto.seal_ns_per_block", "ns"),
    lower("crypto.open_ns_per_block", "ns"),
    lower("crypto.blocks_per_req", "count"),
    lower("crypto.est_us_per_req", "us"),
    // oram-storage
    lower("storage.mem_reads_per_req", "count"),
    lower("storage.mem_writes_per_req", "count"),
    lower("storage.stor_reads_per_req", "count"),
    lower("storage.stor_writes_per_req", "count"),
    lower("storage.bytes_written_per_user_byte", "ratio"),
    lower("storage.sim_busy_read_us_per_req", "us"),
    lower("storage.sim_busy_write_us_per_req", "us"),
    lower("storage.scatter_read_ns_per_block", "ns"),
    lower("storage.write_run_ns_per_block", "ns"),
    lower("storage.file_get_ns_per_block", "ns"),
    lower("storage.file_put_ns_per_block", "ns"),
    lower("storage.file_sync_ms", "ms"),
    lower("storage.file_bytes", "B"),
    lower("storage.retries", "count"),
    // oram-shuffle
    lower("shuffle.permute_ns_per_elem", "ns"),
    // the harness itself
    lower("harness.gen_ns_per_req", "ns"),
    higher("harness.trace_overhead_ratio", "ratio"),
    lower("harness.spans", "count"),
    lower("harness.unattributed_share", "ratio"),
];

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}\n",
            w.name, w.why
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name,
            m.unit,
            m.better,
            m.bound.expect("end-to-end metrics have a bound"),
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            m.name, m.unit, m.better
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_limits_meet_the_contract() {
        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name))
        {
            assert!(name_ok(name), "bad name {name}");
            assert!(seen.insert(name), "name {name} used twice");
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(m.unit.len() <= 16, "unit of {}", m.name);
            assert!(
                m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit of {}",
                m.name
            );
            assert!(matches!(m.better, "lower" | "higher"));
        }
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        assert!(benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn benchmark_json_at_the_root_is_this_schema() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with: e2e --print-schema 1"
        );
    }
}
