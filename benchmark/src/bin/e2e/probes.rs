//! Runs the per-layer probe binaries (`probe_<layer>`, built next to
//! this executable) and collects the `name value` lines they print. A
//! probe that is missing or fails yields [`UNAVAILABLE`] metrics and a
//! warning, never a failed run: a rename inside one layer must not take
//! the end-to-end numbers down with it.

use horam_benchmark::{Values, UNAVAILABLE};
use std::path::Path;
use std::process::Command;

/// The workload's geometry, at which each layer is probed alone.
pub struct Geometry {
    pub capacity: u64,
    pub payload: usize,
    pub slots: u64,
    /// Slots of one storage partition and of the whole storage device.
    pub partition_slots: u64,
    pub storage_slots: u64,
    pub recursive_posmap: bool,
    pub file_backed: bool,
    /// Whether requests cross `horam-rpc` (only then is it probed).
    pub rpc: bool,
}

struct Probe {
    layer: &'static str,
    metrics: &'static [&'static str],
}

const PROBES: &[Probe] = &[
    Probe {
        layer: "rpc",
        metrics: &["rpc.encode_ns_per_frame", "rpc.decode_ns_per_frame"],
    },
    Probe {
        layer: "core",
        metrics: &[
            "core.posmap_query_ns",
            "core.posmap_checkout_ns",
            "core.posmap_rebuild_ms",
        ],
    },
    Probe {
        layer: "protocols",
        metrics: &[
            "protocols.path_access_us",
            "protocols.path_access_sim_us",
            "protocols.evict_all_ms",
        ],
    },
    Probe {
        layer: "crypto",
        metrics: &["crypto.seal_ns_per_block", "crypto.open_ns_per_block"],
    },
    Probe {
        layer: "storage",
        metrics: &[
            "storage.scatter_read_ns_per_block",
            "storage.write_run_ns_per_block",
            "storage.file_get_ns_per_block",
            "storage.file_put_ns_per_block",
            "storage.file_sync_ms",
        ],
    },
    Probe {
        layer: "shuffle",
        metrics: &["shuffle.permute_ns_per_elem"],
    },
];

/// Runs every probe the geometry calls for; `scratch` is a directory the
/// probes may create files in.
pub fn run_all(geometry: &Geometry, scratch: &Path) -> Values {
    let mut values = Values::new();
    for probe in PROBES {
        if probe.layer == "rpc" && !geometry.rpc {
            continue;
        }
        match run_one(probe, geometry, scratch) {
            Ok(measured) => values.extend(measured),
            Err(reason) => {
                eprintln!(
                    "WARNING: probe_{} unavailable ({reason}); its metrics are reported as {UNAVAILABLE}",
                    probe.layer
                );
                values.extend(probe.metrics.iter().map(|name| (*name, UNAVAILABLE)));
            }
        }
    }
    values
}

fn run_one(probe: &Probe, geometry: &Geometry, scratch: &Path) -> Result<Values, String> {
    let exe = std::env::current_exe()
        .map_err(|e| format!("current_exe: {e}"))?
        .with_file_name(format!("probe_{}", probe.layer));
    let output = Command::new(&exe)
        .args(["--capacity", &geometry.capacity.to_string()])
        .args(["--payload", &geometry.payload.to_string()])
        .args(["--slots", &geometry.slots.to_string()])
        .args(["--partition-slots", &geometry.partition_slots.to_string()])
        .args(["--storage-slots", &geometry.storage_slots.to_string()])
        .args([
            "--recursive",
            &u8::from(geometry.recursive_posmap).to_string(),
        ])
        .args(["--file", &u8::from(geometry.file_backed).to_string()])
        .arg("--scratch")
        .arg(scratch.join(format!("probe-{}", probe.layer)))
        .output()
        .map_err(|e| format!("spawn {exe:?}: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let mut values = Values::new();
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        let (name, value) = line
            .split_once(' ')
            .ok_or_else(|| format!("unparsable line {line:?}"))?;
        let name = probe
            .metrics
            .iter()
            .find(|m| **m == name)
            .ok_or_else(|| format!("unexpected metric {name:?}"))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("unparsable value in {line:?}"))?;
        values.insert(*name, value);
    }
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::PROBES;
    use horam_benchmark::schema::PER_LAYER;

    #[test]
    fn every_probe_metric_is_in_the_schema() {
        for name in PROBES.iter().flat_map(|probe| probe.metrics) {
            assert!(PER_LAYER.iter().any(|m| m.name == *name), "{name}");
        }
    }
}
