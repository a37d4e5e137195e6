#!/usr/bin/env python3
"""Repository benchmark for sqlog (see perfbench/README.md).

    python3 perfbench/run.py --workload <clean-csv|clean-sqb-stream>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first run builds the sqlog
library, the shipped `sqlog` CLI and `perfbench_tool` into
.bench_build/perfbench (RelWithDebInfo, as the repository's default
build); inputs and outputs go to .bench_work/.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. A longer result
(provenance, sample counts, every digest) is written to
.bench_work/results/<workload>-seed<n>-trace<t>.json.

Environment knob (for the harness self-test, not for measurements):
PERFBENCH_CLEAN_RECORDS.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_work"

WORKLOADS = ("clean-csv", "clean-sqb-stream")
CLEAN_RECORDS = int(os.environ.get("PERFBENCH_CLEAN_RECORDS", "200000"))
SETUPS = 3
MIN_ITERATIONS = 3
# A clean workload follows each untraced iteration with this many short
# Sec. 6.3 replay windows over its own Stifle rewrites (each window one
# process replaying the fewest whole passes over them that reach 1000
# rewrites, against an out-of-core table); the traced run replays once.
CLEAN_REPLAY_WINDOWS = 2

# Layers whose work is sharded across the thread pool (cpu_util shows
# which of them actually run in parallel).
SHARDED = ("core.dedup", "core.parse", "core.mine", "core.detect", "core.solve")
PIPELINE_LAYERS = ("log.read", "log.sqb_read", "log.write", "core.dedup", "core.parse",
                   "core.mine", "core.detect", "core.sws", "core.solve")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


class Child:
    """Outcome of one child process: exit code, wall/CPU seconds, peak RSS."""

    def __init__(self, argv, env=None, stdout_path=None):
        env = dict(os.environ if env is None else env)
        env["TMPDIR"] = str(WORK)
        out = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
        start = time.perf_counter()
        try:
            proc = subprocess.Popen([str(a) for a in argv], stdout=out, env=env, cwd=ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if stdout_path:
                out.close()
        self.wall = time.perf_counter() - start
        self.rc = proc.returncode
        self.cpu = usage.ru_utime + usage.ru_stime
        self.peak_rss_bytes = usage.ru_maxrss * 1024
        self.ok = self.rc == 0


def tool(*args, **kwargs):
    return Child([BUILD / "perfbench_tool", *args], **kwargs)


def sqlog(*args, **kwargs):
    return Child([BUILD / "sqlog", *args], **kwargs)


def fresh(*paths):
    """Removes files a child is about to write, so a child that exits 0
    without writing them cannot pass on an earlier child's output."""
    for p in paths:
        Path(p).unlink(missing_ok=True)


def digest(*paths):
    """SHA-256 over the files, or None if one is missing."""
    h = hashlib.sha256()
    for p in paths:
        try:
            with open(p, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
        except FileNotFoundError:
            return None
    return h.hexdigest()


def load_json(path):
    """A child's JSON summary, or None if it is missing or malformed."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None


def outputs(prefix):
    return (f"{prefix}.clean.csv", f"{prefix}.removal.csv")


def build():
    needed = [ROOT / "src" / "CMakeLists.txt", ROOT / "tools" / "sqlog.cc",
              BENCH_DIR / "CMakeLists.txt", BENCH_DIR / "tool.cc"]
    missing = [str(p) for p in needed if not p.is_file()]
    if missing:
        log("cannot build, sources missing: " + ", ".join(missing))
        return False
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            return False
    cmd = ["cmake", "--build", str(BUILD), "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode == 0


def source_digest():
    """Content hash of everything the benchmark builds (the checkout may
    not be a git repository, so this stands in for a commit id)."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*")) + [ROOT / "tools" / "sqlog.cc"]
    files += sorted(BENCH_DIR.glob("*"))
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return res.stdout.strip() or None


def provenance(args):
    info_path = WORK / "info.json"
    info = (load_json(info_path) if tool("info", stdout_path=info_path).ok else None) or {}
    force_scalar = os.environ.get("SQLOG_FORCE_SCALAR", "")
    prov = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": info.get("compiler"),
        "build_type": info.get("build_type"),
        "simd_level": info.get("simd_level"),
        "simd_best_level": info.get("simd_best_level"),
        "hardware_threads": info.get("hardware_threads"),
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "sqlog_force_scalar": force_scalar,
    }
    flags = []
    if force_scalar not in ("", "0"):
        flags.append("SQLOG_FORCE_SCALAR is set: SIMD kernels pinned to scalar")
    if not info.get("optimized") or not info.get("ndebug"):
        flags.append("non-optimised build")
    prov["flags"] = flags
    return prov


def median(values):
    return statistics.median(values) if values else 0.0


class Tally:
    """Operations attempted and failed; a failure never aborts the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
            log("FAILED: " + what)
        return ok


# ------------------------------------------------------------- set-up


def clean_setup(args, tally, repeats):
    """Generates the seeded log (and converts it to .sqb for the
    streaming workload) `repeats` times; returns per-repeat seconds and
    the input description."""
    raw_csv, raw_sqb = WORK / "raw.csv", WORK / "raw.sqb"
    times, digests, records = [], set(), 0
    for _ in range(repeats):
        fresh(raw_csv, raw_sqb)
        gen = tool("gen", args.seed, CLEAN_RECORDS, raw_csv, stdout_path=WORK / "gen.json")
        seconds = gen.wall
        summary = load_json(WORK / "gen.json") if gen.ok else None
        if not tally.check(summary is not None and raw_csv.is_file(),
                           f"gen exited {gen.rc} or wrote no log"):
            continue
        records = summary["records"]
        inputs = (raw_csv,)
        if args.workload == "clean-sqb-stream":
            conv = sqlog("convert", raw_csv, raw_sqb)
            seconds += conv.wall
            if not tally.check(conv.ok and raw_sqb.is_file(),
                               f"convert exited {conv.rc} or wrote no .sqb"):
                continue
            inputs = (raw_csv, raw_sqb)
        digests.add(digest(*inputs))
        times.append(seconds)
    tally.check(len(digests) <= 1, "set-up is not deterministic in the seed")
    inp = raw_sqb if args.workload == "clean-sqb-stream" else raw_csv
    return times, {"records": records, "bytes": inp.stat().st_size if inp.exists() else 0,
                   "csv_bytes": raw_csv.stat().st_size if raw_csv.exists() else 0}


def clean_command(workload, prefix):
    if workload == "clean-sqb-stream":
        return ("clean", WORK / "raw.sqb", prefix, "--streaming")
    return ("clean", WORK / "raw.csv", prefix)


def reference_digest(args, tally):
    """Cleans the same input through the *other* workload's path, so
    every measured iteration is checked against an independent run:
    clean-csv against `.sqb` streaming, clean-sqb-stream against the
    in-memory CSV path."""
    prefix = WORK / "ref"
    fresh(*outputs(prefix))
    if args.workload == "clean-sqb-stream":
        run = sqlog(*clean_command("clean-csv", prefix))
    else:
        conv = sqlog("convert", WORK / "raw.csv", WORK / "raw.sqb")
        if not tally.check(conv.ok, f"reference convert exited {conv.rc}"):
            return None
        run = sqlog(*clean_command("clean-sqb-stream", prefix))
    expected = digest(*outputs(prefix)) if run.ok else None
    tally.check(expected is not None, f"reference clean exited {run.rc} or wrote no output")
    return expected


def extract_stifles(tally, clean_log):
    """Copies the DW-Stifle rewrites of a clean log into a small log of
    their own; None if that fails."""
    path = WORK / "stifles.csv"
    fresh(path)
    run = tool("stifles", clean_log, path)
    return path if tally.check(run.ok and path.is_file(),
                               f"stifles exited {run.rc} or wrote no log") else None


def clean_replay(tally, trace, stifles):
    """Sec. 6.3 replay of the DW-Stifle rewrites in the clean log the
    workload produced (`stifles`, see extract_stifles): each rewrite's
    point lookups, then the rewrite, against a paged table about 15
    times the size of its buffer pool."""
    summary = WORK / "clean-replay.json"
    fresh(summary)
    run = tool("replay", stifles, summary, WORK / "spans-clean-replay.tsv", int(trace))
    res = load_json(summary) if run.ok else None
    if not tally.check(res is not None, f"clean-log replay exited {run.rc} or wrote no summary"):
        return None
    count_replay(tally, res)
    return res


def count_replay(tally, res):
    """Adds a replay's statements to the tally; every lookup must have
    used the objid index."""
    tally.attempted += int(res["attempted"])
    tally.failed += int(res["failed"])
    if res["failed"]:
        tally.notes.append(f"{int(res['failed'])} replayed statements failed or returned wrong rows")
    tally.check(res["engine.exec.full_scans"] == 0, "a replayed statement ran a full scan")


LATENCIES = ("point_p50_us", "point_p99_us", "inlist_p50_us", "inlist_p99_us")


def mean_windows(windows):
    """Mean of each figure over replay windows spread across the run.

    A window's latencies follow the host's state while it runs and move
    by up to 40 % from one window to the next, at times in two clusters.
    The mean over windows moves smoothly with the share of slow windows;
    a median would jump between clusters."""
    out = {key: statistics.mean(w[key] for w in windows) if windows else 0.0 for key in LATENCIES}
    for key in ("point_samples", "inlist_samples"):
        out[key] = sum(w[key] for w in windows)
    out["windows"] = len(windows)
    out["fewest_inlist_samples"] = min((w["inlist_samples"] for w in windows), default=0)
    return out


# ---------------------------------------------------------- workloads


def run_clean(args, tally, detail):
    repeats = SETUPS if not args.trace else 1
    setup_times, inp = clean_setup(args, tally, repeats)
    detail["input"] = inp
    records = inp["records"]
    expected = reference_digest(args, tally)
    detail["reference_digest"] = expected
    prefix = WORK / "out"

    iters = []  # untraced: (wall, cpu, peak_rss)
    windows = []  # replay summaries, one per untraced iteration
    traced = []  # (wall, summary)
    digests = set()
    stifles = None  # every iteration's output is checked equal, so one extract serves all
    start = time.perf_counter()
    i = 0
    # At least MIN_ITERATIONS attempts of each kind, counted whether or not
    # they succeed, so a crashing program still ends the run.
    min_attempts = MIN_ITERATIONS * (2 if args.trace else 1)
    while time.perf_counter() - start < args.seconds or i < min_attempts:
        if args.trace and i % 2 == 1:
            summary = WORK / f"trace-{i}.json"
            mode = "sqb-stream" if args.workload == "clean-sqb-stream" else "csv"
            inp_path = WORK / ("raw.sqb" if mode == "sqb-stream" else "raw.csv")
            tprefix = WORK / "traced"
            fresh(*outputs(tprefix))
            run = tool("trace-clean", mode, inp_path, tprefix, summary,
                       WORK / f"spans-{args.workload}-{i}.tsv", i)
            d = digest(*outputs(tprefix)) if run.ok else None
            res = load_json(summary) if run.ok else None
            ok = d is not None and res is not None and d == expected
            if ok:
                digests.add(d)
                traced.append((run.wall, res))
            tally.check(ok, f"traced iteration {i}: exit {run.rc}, "
                            "output missing or digest mismatch")
        else:
            fresh(*outputs(prefix))
            run = sqlog(*clean_command(args.workload, prefix))
            d = digest(*outputs(prefix)) if run.ok else None
            ok = d is not None and d == expected
            if ok:
                digests.add(d)
                iters.append((run.wall, run.cpu, run.peak_rss_bytes))
            if tally.check(ok, f"iteration {i}: exit {run.rc}, output missing or digest mismatch") \
                    and stifles is None:
                stifles = extract_stifles(tally, outputs(prefix)[0])
            for _ in range(CLEAN_REPLAY_WINDOWS if ok and stifles and not args.trace else 0):
                window = clean_replay(tally, False, stifles)
                if window is not None:
                    windows.append(window)
        i += 1
    detail["output_digests"] = sorted(digests)
    detail["iterations"] = [{"wall_s": w, "cpu_s": c, "peak_rss_bytes": r} for w, c, r in iters]
    tally.check(len(digests) == 1, "iterations disagree on the output digest")
    if args.trace:
        replay = (clean_replay(tally, True, stifles)
                  if stifles is not None else None) or {}
    else:
        replay = mean_windows(windows)
        detail["replay_windows"] = windows
    detail["replay"] = replay

    if not args.trace:
        detail["peak_rss_bytes"] = max((r for _, _, r in iters), default=0)
        return {
            "throughput_rps": median([records / w for w, _, _ in iters]),
            "cpu_us_per_rec": median([c / records * 1e6 for _, c, _ in iters]),
            "peak_rss_mb": median([r / 2**20 for _, _, r in iters]),
            "setup_s": median(setup_times),
        }, replay

    untraced = median([w for w, _, _ in iters])
    layer = {}
    for name in PIPELINE_LAYERS:
        self_s = median([s.get(f"{name}.self_s", 0.0) for _, s in traced])
        cpu_s = median([s.get(f"{name}.cpu_s", 0.0) for _, s in traced])
        layer[f"{name}.self_s"] = self_s
        layer[f"{name}.cpu_s"] = cpu_s
        if name in SHARDED:
            layer[f"{name}.cpu_util"] = cpu_s / self_s if self_s > 0 else 0.0
    sums = [sum(s.get(f"{n}.self_s", 0.0) for n in PIPELINE_LAYERS) for _, s in traced]
    layer["core.pipeline.unattributed_s"] = untraced - median(sums)
    layer["trace.overhead_s"] = median([w for w, _ in traced]) - untraced
    for key in ("core.dedup.removed", "core.parse.full_parses", "core.parse.cache_hit_ratio",
                "core.parse.rss_growth_bytes_per_rec", "core.detect.instances",
                "core.solve.instances_solved"):
        layer[key] = median([s[key] for _, s in traced])
    detail["untraced_wall_s"] = untraced
    detail["peak_rss_bytes"] = max((r for _, _, r in iters), default=0)
    return layer, replay


# ------------------------------------------------------------- metrics

def declared(kind):
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def engine_layer(replay):
    """Per-layer engine metrics from a traced replay summary."""
    out = {
        "sql.parse.self_us.point": replay.get("sql.parse.point.median_self_us", 0.0),
        "sql.parse.self_us.inlist": replay.get("sql.parse.inlist.median_self_us", 0.0),
        "engine.exec.self_us.point": replay.get("engine.exec.point.median_self_us", 0.0),
        "engine.exec.self_us.inlist": replay.get("engine.exec.inlist.median_self_us", 0.0),
    }
    for key in ("engine.pool.hit_ratio", "engine.pool.misses_per_stmt", "engine.pool.evictions",
                "engine.exec.index_scans", "engine.exec.full_scans", "engine.populate_s",
                "engine.index_build_s"):
        out[key] = replay.get(key, 0.0)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        log("build failed")
        return 1
    WORK.mkdir(exist_ok=True)
    for stale in WORK.glob("*"):
        if stale.is_file():
            stale.unlink()
    prov = provenance(args)
    log(f"provenance {json.dumps(prov)}")

    tally = Tally()
    detail = {}
    measured, replay = run_clean(args, tally, detail)

    success = 1.0 - tally.failed / max(1, tally.attempted)
    if args.trace:
        units = declared("per_layer")
        values = {name: 0.0 for name in units}  # layers a workload leaves idle read 0
        values.update(engine_layer(replay))
        values.update(measured)
    else:
        units = declared("end_to_end")
        values = {name: 0.0 for name in units}
        values.update(measured)
        values["success_ratio"] = success
        for key in ("point_p50_us", "point_p99_us", "inlist_p50_us", "inlist_p99_us"):
            values[key] = replay.get(key, 0.0)
    metrics = {name: {"value": float(values[name]), "unit": units[name]} for name in units}
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    tally.check(finite, "non-finite metric")
    if replay:
        samples = {key: replay.get(f"{key}_samples", 0) for key in ("point", "inlist")}
        detail["latency_samples"] = samples
        # Each p99 (per replay window, for the clean workloads) needs at
        # least ten samples beyond it.
        fewest = replay.get("fewest_inlist_samples", samples["inlist"])
        tally.check(fewest >= 1000, f"too few latency samples: {samples}, fewest {fewest}")

    correct = tally.failed == 0
    result = {"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": metrics}
    record = {"benchmark": "perfbench", "provenance": prov, "fail_ratio": 1.0 - success,
              "failures": tally.notes, "detail": detail,
              "peak_rss_bytes": detail.get("peak_rss_bytes", 0), **result}
    out = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"provenance: {json.dumps(prov)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
