#!/usr/bin/env python3
"""Build the repository from source and run one benchmark workload.

    python3 perfbench/run.py --workload field|ingest|live|triage \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It builds `cbi` and the runner with
dune, runs the runner with a scratch directory under `.perfbench/work`,
forwards its report and ends with the runner's JSON result line.  The run
record (and, when traced, the span dump) goes to `.perfbench/out`.  Exits
non-zero without a result when the sources or the toolchain are missing,
the build fails, a check fails or the run overruns its time limit.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("field", "ingest", "live", "triage")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def stop_group(pgid):
    """Kill whatever is left of the runner's process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("dune-project", "bin/dune", "bin/cbi.ml", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("no %s here: run from the root of a full checkout" % need)
    if shutil.which("dune") is None:
        die("dune is not on PATH")

    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled",
         "bin/cbi.exe", "perfbench/pb.exe"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        sys.stderr.write(build.stdout.decode(errors="replace")[-4000:])
        die("build failed")

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    work = os.path.join(".perfbench", "work", "%s-%d" % (tag, os.getpid()))
    out_dir = os.path.join(ROOT, ".perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [
        os.path.join("_build", "default", "perfbench", "pb.exe"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--cbi", os.path.join("_build", "default", "bin", "cbi.exe"),
        "--work", work, "--out", os.path.join(".perfbench", "out", tag + ".txt"),
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.communicate()
        shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
        die("run exceeded %d s" % RUN_TIMEOUT_S, 3)
    stop_group(proc.pid)
    shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)

    text = out.decode(errors="replace")
    sys.stdout.write(text)
    sys.stdout.flush()
    lines = text.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        die("the runner printed no result", 4)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        die("malformed result line", 4)
    if proc.returncode != 0 or not result["correct"]:
        die("correctness check failed (exit %d)" % proc.returncode, 1)


if __name__ == "__main__":
    main()
