#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance check
computes it: N runs per workload, each with another --seed, and for each
metric the distance between the first and third quartile of its N values
as a share of their median.

    python3 benchmark/spread.py [--runs 10] [--first-seed 1] [--workload NAME ...]

Run from the root of the checkout. Prints one line per workload and
metric, then one JSON document with every value, and exits 1 if a spread
exceeds its bound (setup_s excepted, as in the acceptance check). Also
prints the longest run and the largest share of CPU time the hypervisor
gave to other guests during a run (host.steal_share): a set with a large
one was disturbed from outside.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {"runs": args.runs, "workloads": {}}
    over = []
    for workload in workloads:
        values = {name: [] for name in bounds}
        walls = []
        steals = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            command = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            start = time.monotonic()
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            walls.append(time.monotonic() - start)
            if done.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
            lines = done.stdout.strip().splitlines()
            steals += [float(l.split()[2]) for l in lines if " host.steal_share " in l]
            result = json.loads(lines[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: incorrect")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        entry = {"wall_s_max": max(walls), "steal_share_max": max(steals, default=0.0),
                 "metrics": {}}
        for name, samples in values.items():
            q1, _, q3 = statistics.quantiles(samples, n=4)
            med = statistics.median(samples)
            spread = (q3 - q1) / med
            entry["metrics"][name] = {"median": med, "spread": spread, "values": samples}
            flag = ""
            if spread > bounds[name] and name != "setup_s":
                over.append((workload, name))
                flag = "  OVER BOUND"
            elif spread > bounds[name] / 3:
                flag = "  above bound/3"
            print(f"{workload} {name} median {med:.6g} spread {spread:.4f} "
                  f"bound {bounds[name]}{flag}", flush=True)
        print(f"{workload} wall_s_max {max(walls):.1f} "
              f"steal_share_max {entry['steal_share_max']:.3f}", flush=True)
        report["workloads"][workload] = entry
    print(json.dumps(report))
    sys.exit(1 if over else 0)


if __name__ == "__main__":
    main()
