//! Harness shared by the `e2e` binary and the per-layer probes: request
//! generators, order statistics, span tracing, the metric schema and the
//! output format. It depends on none of the repository's crates, so an
//! API change in one layer can break only the binary that measures it.

pub mod gen;
pub mod schema;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Measured values keyed by metric name. A metric that does not apply to
/// a workload is absent and reported as 0; one whose probe could not run
/// is [`UNAVAILABLE`].
pub type Values = BTreeMap<&'static str, f64>;

/// Reported for a per-layer metric whose probe failed to build or run.
pub const UNAVAILABLE: f64 = -1.0;

/// Options common to every binary, parsed from `--name value` pairs.
#[derive(Debug, Clone)]
pub struct Flags(BTreeMap<String, String>);

impl Flags {
    /// Parses the process arguments; every flag takes exactly one value.
    pub fn from_env() -> Result<Self, String> {
        Self::parse(std::env::args().skip(1))
    }

    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut map = BTreeMap::new();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {flag:?}"))?;
            let value = it
                .next()
                .ok_or_else(|| format!("--{name} requires a value"))?;
            map.insert(name.to_string(), value);
        }
        Ok(Self(map))
    }

    pub fn str(&self, name: &str) -> Option<&str> {
        self.0.get(name).map(String::as_str)
    }

    /// The flag's value parsed as `T`, or `default` when absent.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.0.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("bad value {raw:?} for --{name}")),
        }
    }
}

/// Where run output (traces, device files, sockets) goes: the directory
/// `benchmark/out/` under the current directory, which the benchmark's
/// callers make the root of the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from("benchmark/out")
}

/// A fresh, empty scratch directory under [`out_dir`].
pub fn fresh_dir(label: &str) -> std::io::Result<PathBuf> {
    let dir = out_dir().join(format!("scratch-{label}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Peak resident set (`VmHWM`) of process `pid` in MiB, read from
/// `/proc`; `None` where that is not available.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// CPU time (user + system, all threads) process `pid` has consumed, in
/// seconds, read from `/proc`; `None` where that is not available.
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    // Linux reports these fields in USER_HZ ticks, which is 100 on every
    // architecture it supports.
    const USER_HZ: f64 = 100.0;
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name (field 2) may contain spaces; fields 3.. follow
    // its closing parenthesis. utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// `(stolen, total)` CPU ticks of the whole machine since boot, from the
/// first line of `/proc/stat`. Time the hypervisor gave to other guests
/// is "stolen"; a run during which its share rises was disturbed from
/// outside.
pub fn machine_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map_while(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal ...
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// The 1-minute load average, for the noise report.
pub fn load_average() -> Option<f64> {
    let raw = std::fs::read_to_string("/proc/loadavg").ok()?;
    raw.split_whitespace().next()?.parse().ok()
}

/// Times `f` over `iters` calls after `iters / 10` untimed ones and
/// returns nanoseconds per call — the probes' common loop.
pub fn time_per_call(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    for i in 0..iters / 10 {
        f(i);
    }
    let start = Instant::now();
    for i in 0..iters {
        f(i);
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Prints one `workload metric value unit` line per metric of `schema`
/// that `values` holds (0 for an absent one) and returns the
/// `"metrics"` JSON object of the result line.
pub fn report(workload: &str, schema: &[schema::Metric], values: &Values) -> String {
    let mut json = String::from("{");
    for (i, metric) in schema.iter().enumerate() {
        let value = values.get(metric.name).copied().unwrap_or(0.0);
        assert!(value.is_finite(), "metric {} is not finite", metric.name);
        println!("{workload} {} {value} {}", metric.name, metric.unit);
        if i > 0 {
            json.push_str(", ");
        }
        json.push_str(&format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            metric.name, metric.unit
        ));
    }
    json.push('}');
    json
}

/// Removes `dir` and everything under it, ignoring a missing directory.
pub fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_parse_pairs_and_reject_strays() {
        let flags = Flags::parse(["--seed", "7", "--workload", "x"].map(String::from)).unwrap();
        assert_eq!(flags.get("seed", 0u64).unwrap(), 7);
        assert_eq!(flags.get("seconds", 10u64).unwrap(), 10);
        assert_eq!(flags.str("workload"), Some("x"));
        assert!(Flags::parse(["stray".to_string()]).is_err());
        assert!(Flags::parse(["--seed".to_string()]).is_err());
        assert!(flags.get::<u64>("workload", 0).is_err());
    }

    #[test]
    fn own_proc_entries_are_readable_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mib(std::process::id()).unwrap() > 0.0);
            assert!(cpu_seconds(std::process::id()).unwrap() >= 0.0);
        }
    }
}
