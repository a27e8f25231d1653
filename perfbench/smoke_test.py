#!/usr/bin/env python3
"""Fast smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json for one second, untraced and traced,
through perfbench/run.py, and checks that each run passes its correctness
checks with no failed call, reports exactly the metrics (names and units)
BENCHMARK.json lists, reports the layers each workload loads as non-zero,
and writes a Chrome trace when traced. Exits non-zero on the first problem.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Per-layer metrics that must be non-zero on the workload that loads them.
LOADED = {
    "invoke-cache": ["runtime.invoke_remote_mean_us",
                     "transport.frames_per_invoke",
                     "objsys.dir_hit_frac", "objsys.dir_lookup_mean_us",
                     "span.invoke.self_us"],
    "visit-social": ["runtime.move_p50_us", "runtime.end_p50_us",
                     "runtime.migrations_per_block",
                     "objsys.dir_updates_per_migration",
                     "store.wal_appends_per_migration", "store.recovery_s",
                     "span.visit.self_us"],
    "sim-fig16": ["sim.events", "sim.host_ns_per_event", "migration.migrations",
                  "core.cell_p50_s", "core.sweep_efficiency",
                  "span.cell.self_us"],
}


def run(workload, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{proc.stderr}\nFAIL {workload} trace={trace}: "
                 f"exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = run(workload, trace)
            units = {m["name"]: m["unit"] for m in listed}
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            problems = []
            if not result["correct"]:
                problems.append("correctness check failed")
            if result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"attempted {result['attempted']}, "
                                f"failed {result['failed']}")
            if got != units:
                problems.append("metric names or units differ from "
                                "BENCHMARK.json")
            values = {k: m["value"] for k, m in result["metrics"].items()}
            if trace == 0:
                problems += [f"{k} is {v}" for k, v in values.items() if v <= 0]
            else:
                problems += [f"{k} is 0" for k in LOADED.get(workload, [])
                             if values.get(k, 0) == 0]
                path = os.path.join(ROOT, ".bench_build", "work",
                                    f"trace-{workload}.json")
                with open(path) as f:
                    if not json.load(f)["traceEvents"]:
                        problems.append("empty trace")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{workload} trace={trace}: {status}", flush=True)
            if problems:
                sys.exit(1)
    print("smoke test passed")


if __name__ == "__main__":
    main()
