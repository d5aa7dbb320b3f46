#!/usr/bin/env python3
"""Run workloads on several seeds and report each metric's spread.

    python3 perfbench/steady.py --workloads field,ingest --seeds 1-10 \
        [--seconds S] [--out FILE]

The spread of a metric is the distance between the first and third
quartiles of its per-run values (statistics.quantiles, n=4) as a share
of their median: the figure BENCHMARK.json's bounds are judged against.
Each run's JSON line is appended to FILE (default
.perfbench/out/steady.jsonl) so that two sets of runs can be compared.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="field,ingest,live,triage")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--out", default=os.path.join(ROOT, ".perfbench", "out", "steady.jsonl"))
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    for w in args.workloads.split(","):
        runs = []
        for seed in seeds_of(args.seeds):
            cmd = ["python3", os.path.join("perfbench", "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE)
            line = p.stdout.decode().strip().splitlines()[-1] if p.stdout.strip() else ""
            if p.returncode != 0:
                print("%s seed %d: exit %d" % (w, seed, p.returncode), file=sys.stderr)
                continue
            r = json.loads(line)
            runs.append(r)
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": w, "seed": seed, "result": r}) + "\n")
        if len(runs) < 2:
            continue
        print("%s: %d runs" % (w, len(runs)))
        for name in bounds:
            vals = [r["metrics"][name]["value"] for r in runs]
            s = spread(vals) if len(vals) >= 2 else float("nan")
            flag = "" if s < bounds[name] / 3 else ("  > bound/3" if s <= bounds[name] else "  > BOUND")
            print("  %-26s median %12.4f  spread %6.3f  bound %.2f%s" % (
                name, statistics.median(vals), s, bounds[name], flag))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
