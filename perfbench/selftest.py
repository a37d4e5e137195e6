#!/usr/bin/env python3
"""Harness self-test for perfbench at a tiny input size.

    python3 perfbench/selftest.py

Run from the repository root. Runs every workload of BENCHMARK.json
once untraced and once traced on tiny inputs, and checks that

  * the last stdout line has exactly the keys correct/attempted/failed/
    metrics, with correct == true and failed == 0 (fail_ratio == 0);
  * every end-to-end (untraced) or per-layer (traced) metric named in
    BENCHMARK.json is present, finite, and carries its declared unit;
  * the output equality check ran: each clean iteration was compared
    with a reference from the other workload's path, and clean-csv and
    clean-sqb-stream produced the same digest for the same seed;
  * the written result files pass scripts/check_bench_json.py.

Exits 0 when every check holds.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
SEED = 5
TINY = {"PERFBENCH_CLEAN_RECORDS": "6000"}


def run(workload, trace):
    env = dict(os.environ, **TINY)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    digests = {}
    result_files = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            tag = f"{workload} trace={trace}"
            try:
                result = run(workload, trace)
            except (AssertionError, subprocess.TimeoutExpired, ValueError) as err:
                errors.append(f"{tag}: {err}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{tag}: result keys {sorted(result)}")
                continue
            if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                errors.append(f"{tag}: correct={result['correct']} failed={result['failed']} "
                              f"attempted={result['attempted']}")
            metrics = result["metrics"]
            wanted = {m["name"]: m["unit"] for m in declared}
            if set(metrics) != set(wanted):
                errors.append(f"{tag}: metric names differ: missing "
                              f"{sorted(set(wanted) - set(metrics))}, extra "
                              f"{sorted(set(metrics) - set(wanted))}")
            for name, unit in wanted.items():
                m = metrics.get(name)
                if m is None:
                    continue
                value = m.get("value")
                if (not isinstance(value, (int, float)) or isinstance(value, bool)
                        or not math.isfinite(value) or m.get("unit") != unit):
                    errors.append(f"{tag}: metric {name} = {m!r}, want a finite {unit}")
            path = ROOT / ".bench_work" / "results" / f"{workload}-seed{SEED}-trace{trace}.json"
            record = json.loads(path.read_text())
            result_files.append(path)
            if record["fail_ratio"] != 0:
                errors.append(f"{tag}: fail_ratio {record['fail_ratio']}")
            if workload.startswith("clean-"):
                detail = record["detail"]
                ref = detail.get("reference_digest")
                if ref is None or detail.get("output_digests") != [ref]:
                    errors.append(f"{tag}: output equality check did not pass: {detail}")
                digests.setdefault(workload, set()).add(ref)
            print(f"ok   {tag}: {len(metrics)} metrics, attempted={result['attempted']}", flush=True)
    if len(digests) >= 2 and len(set.union(*digests.values())) != 1:
        errors.append(f"clean workloads disagree on the output digest: {digests}")
    check = subprocess.run([sys.executable, "scripts/check_bench_json.py", *map(str, result_files)],
                           cwd=ROOT, capture_output=True, text=True)
    if check.returncode != 0:
        errors.append("check_bench_json.py: " + check.stdout + check.stderr)
    for error in errors:
        print("FAIL " + error)
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
