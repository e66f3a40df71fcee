#!/usr/bin/env python3
"""Build and run one perfbench workload.

    python3 perfbench/run.py --workload suite|tasks|server --seed N \
        --seconds S --trace 0|1

Builds the benchmark binary from the repository's sources (CMake, Release)
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
workload with the RT_* environment cleared, and prints the binary's output.
The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}. Each run's full record is
also saved under <build dir>/runs/ for compare.py; --trace 1 writes the
benchmark's spans as Chrome-trace JSON under <build dir>/traces/.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "runtime", "scheduler.hpp")):
        fail("the runtime sources (src/) are not in this checkout")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", out, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return os.path.join(out, "perfbench")


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() or "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["suite", "tasks", "server"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    out = build_dir()
    binary = build(out)
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("RT_", "BOTS_"))}
    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--commit", commit(), "--source-digest", source_digest()]
    if a.trace:
        os.makedirs(os.path.join(out, "traces"), exist_ok=True)
        cmd += ["--trace-out", os.path.join(out, "traces", f"{a.workload}-seed{a.seed}.json")]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload {a.workload} did not finish in {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        record = next(json.loads(l.split(" ", 1)[1]) for l in lines
                      if l.startswith("PERFBENCH_RECORD "))
    except (ValueError, StopIteration):
        sys.stdout.write(proc.stdout)
        fail(f"workload {a.workload} exited {proc.returncode} without a result", 1)
    missing = [m for m in expected_metrics(a.trace) if m not in result["metrics"]]
    if missing:
        fail(f"result lacks metrics {missing}", 1)

    os.makedirs(os.path.join(out, "runs"), exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{a.workload}-trace{a.trace}-seed{a.seed}-{stamp}-{os.getpid()}.json"
    with open(os.path.join(out, "runs", name), "w") as f:
        json.dump({"result": result, "record": record}, f)

    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result), flush=True)
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
