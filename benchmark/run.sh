#!/usr/bin/env bash
# Builds and runs the benchmark. From the root of the checkout:
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
#
# With --workload and --trace it makes exactly one run, whose last line of
# standard output is the result (see benchmark/README.md). Without
# --workload it runs all four workloads one after the other (never
# concurrently); without --trace it runs each untraced, then traced with
# the per-layer probes. --smoke is --seconds 1, for a validity check of
# every workload in well under a minute. Exits nonzero if any run fails
# or returns a wrong answer.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

workloads=(hotspot_read cold_durable serve_zipf rpc_zipf)
traces=(0 1)
seed=2019
seconds=10
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workloads=("$2"); shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace) traces=("$2"); shift 2 ;;
        --smoke) seconds=1; shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

# One target directory for the daemon (a binary of the repository's
# workspace, which `cargo build --release` at the root does not build)
# and for the benchmark package, so that e2e finds horam-serverd and the
# probes next to itself.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
bin="$CARGO_TARGET_DIR/release"
cargo build --quiet --release --offline -p horam-rpc --bin horam-serverd
cargo build --quiet --release --offline --manifest-path benchmark/Cargo.toml --bin e2e
for trace in "${traces[@]}"; do
    [ "$trace" = 1 ] || continue
    # Each probe builds on its own: one that no longer compiles costs its
    # own metrics, not the run.
    for probe in rpc core protocols crypto storage shuffle; do
        cargo build --quiet --release --offline --manifest-path benchmark/Cargo.toml \
            --bin "probe_$probe" ||
            { echo "WARNING: probe_$probe does not build" >&2; rm -f "$bin/probe_$probe"; }
    done
done

status=0
for workload in "${workloads[@]}"; do
    for trace in "${traces[@]}"; do
        "$bin/e2e" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" ||
            status=$?
    done
done
exit "$status"
