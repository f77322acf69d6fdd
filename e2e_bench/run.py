#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

Run from the root of a checkout:

    python3 e2e_bench/run.py --workload sim_relay_64 --seed 1 --seconds 30 \
        --trace 0
    python3 e2e_bench/run.py --self-test

The benchmark binary is built from source into .bench_build/e2e (CMake,
RelWithDebInfo) on every invocation; an up-to-date build is a no-op. The
last line of standard output is the binary's JSON result. Span dumps,
flight blobs and per-run result files (with provenance) land in
.bench_build/e2e_bench/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2e")
OUT_DIR = os.path.join(ROOT, ".bench_build", "e2e_bench")
BINARY = os.path.join(BUILD_DIR, "e2e_bench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def source_id():
    """Git commit when the checkout is a repository, plus a digest of src/."""
    commit = "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return f"git:{commit} src-sha256:{digest.hexdigest()[:16]}"


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "leader.h")):
        log("e2e_bench: library sources (src/) not found next to e2e_bench/")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        try:
            res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                 stderr=subprocess.STDOUT, text=True,
                                 timeout=850)
        except (OSError, subprocess.SubprocessError) as e:
            log(f"e2e_bench: build step failed: {e}")
            return False
        if res.returncode != 0:
            log(res.stdout[-4000:])
            log("e2e_bench: build failed")
            return False
    return os.path.isfile(BINARY)


def run_binary(args, capture=False):
    cmd = [BINARY] + args + ["--out-dir", OUT_DIR]
    return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                          stdout=subprocess.PIPE if capture else None,
                          text=True)


def self_test():
    """Checker self-test, then every workload at a tiny size in both modes:
    each must be correct and emit exactly BENCHMARK.json's metrics with
    their units."""
    failures = 0
    if run_binary(["--self-test"]).returncode != 0:
        failures += 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for wl in spec["workloads"]:
        for trace in (0, 1):
            name = f"{wl['name']} --trace {trace}"
            try:
                res = run_binary(["--workload", wl["name"], "--seed", "1",
                                  "--seconds", "1", "--trace", str(trace),
                                  "--tiny", "--source-id", "self-test"],
                                 capture=True)
            except subprocess.TimeoutExpired:
                log(f"FAIL {name}: timed out")
                failures += 1
                continue
            lines = res.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                log(f"FAIL {name}: no JSON result line")
                failures += 1
                continue
            problems = []
            if res.returncode != 0 or result.get("correct") is not True:
                problems.append(f"not correct (exit {res.returncode})")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"result keys {sorted(result)}")
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            for metric, unit in want[trace].items():
                if metric not in got:
                    problems.append(f"missing metric {metric}")
                elif got[metric] != unit:
                    problems.append(f"{metric} unit {got[metric]} != {unit}")
            for metric in got.keys() - want[trace].keys():
                problems.append(f"metric {metric} not in BENCHMARK.json")
            if problems:
                failures += 1
                for p in problems:
                    log(f"FAIL {name}: {p}")
                log("\n".join(lines[-40:]))
            else:
                log(f"ok   {name}: {len(got)} metrics, units match")
    log("self-test " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", default="1")
    p.add_argument("--seconds", default="30")
    p.add_argument("--trace", default="0", choices=["0", "1"])
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if not a.self_test and not a.workload:
        p.error("--workload is required")
    if not build():
        return 3
    if a.self_test:
        return self_test()
    try:
        res = run_binary(["--workload", a.workload, "--seed", a.seed,
                          "--seconds", a.seconds, "--trace", a.trace,
                          "--source-id", source_id()])
    except subprocess.TimeoutExpired:
        log("e2e_bench: run timed out")
        return 4
    return res.returncode


if __name__ == "__main__":
    sys.exit(main())
