#!/usr/bin/env python3
"""Repository benchmark: builds the perfbench program from source, runs one
workload and prints the result record as the last line of stdout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The program (perfbench/src/) is built with
CMake into .bench_build/perfbench against the library's own build file; WAL
files and Chrome traces go under .bench_build/perfbench too. With --trace 0
the record carries the end-to-end metrics of BENCHMARK.json, with --trace 1
the per-layer metrics. A traced run also writes
.bench_build/perfbench/traces/<workload>.json and validates it with
scripts/check-trace.py.

Counts that must repeat exactly for one seed (comm bytes, nnz, triangles,
WAL bytes) are compared across the rounds of a run, each of which replays
the seed; the program fails the run on any drift.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the program; returns its path."""
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no library sources at {ROOT} (src/, CMakeLists.txt)")
    build_dir = OUT / "build"
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return build_dir / "perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        raise RuntimeError(f"unknown workload {args.workload!r}; one of {sorted(names)}")

    binary = build()
    scratch = OUT / "scratch" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    trace_path = OUT / "traces" / f"{args.workload}.json"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", str(scratch)]
    if args.trace:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.unlink(missing_ok=True)
        cmd += ["--trace-out", str(trace_path)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("PERFBENCH_RESULT ")]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench exited with {proc.returncode} and no result")
    res = json.loads(lines[-1].split(" ", 1)[1])

    correct = res["correct"]
    if res["error"]:
        log(f"check failed: {res['error']}")
    if args.trace:
        checker = ROOT / "scripts" / "check-trace.py"
        if not trace_path.is_file():
            log("traced run wrote no trace")
            correct = False
        elif checker.is_file():
            ok = subprocess.run([sys.executable, str(checker), str(trace_path),
                                 "--min-events", "100"],
                                stdout=sys.stderr, stderr=sys.stderr).returncode == 0
            correct = correct and ok
        else:
            log("scripts/check-trace.py not found; trace not validated")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = res["layer"] if args.trace else res["e2e"]
    metrics = {}
    for m in wanted:
        value = source.get(m["name"])
        if value is None and not args.trace:
            raise RuntimeError(f"perfbench did not report {m['name']}")
        # Per-layer metrics of layers a workload does not run read 0.
        metrics[m["name"]] = {"value": 0.0 if value is None else value, "unit": m["unit"]}
    attempted = max(1, int(res["attempted"]))
    failed = attempted if not correct else int(res["failed"])
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError, KeyError) as exc:
        log(f"error: {exc}")
        sys.exit(1)
