"""Steadiness check: run one workload N times on one build, each run
with another seed, and print each end-to-end metric's median, quartiles
and spread against its bound in BENCHMARK.json.

    python3 e2ebench/steady.py --workload cold_verified --runs 10

The spread is (Q3 - Q1) / median over the runs, with the quartiles of
statistics.quantiles(values, n=4). A metric is marked "ok" when its
spread is below a third of its bound, "near" when below the bound, and
"WIDE" otherwise (setup_s is reported but has no spread limit). Also
reports whether the failed share of attempted requests was the same in
every run. Run from the root of the source tree.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1, help="first seed; run i uses seed0 + i")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    shares = set()
    for i in range(args.runs):
        seed = args.seed0 + i
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
        t0 = time.time()
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        wall = time.time() - t0
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            print(f"seed {seed}: exit {p.returncode}", file=sys.stderr)
            print(p.stdout, file=sys.stderr)
            sys.exit(1)
        res = json.loads(lines[-1])
        shares.add((res["failed"], res["attempted"]) if res["failed"] else 0)
        row = []
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            row.append(f"{name}={m['value']:.4g}")
        print(f"seed {seed} ({wall:.1f} s, {res['attempted']} requests): " + " ".join(row), flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {seconds} s")
    print(f"{'metric':24} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        if bound is None:
            verdict = ""
        elif name == "setup_s":
            verdict = "(no spread limit)"
        else:
            verdict = "ok" if spread < bound / 3 else ("near" if spread < bound else "WIDE")
        b = f"{bound:.2f}" if bound is not None else "-"
        print(f"{name:24} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} {b:>6} {verdict}")
    print("failed share identical in every run:", "yes" if len(shares) == 1 else f"no {shares}")


if __name__ == "__main__":
    main()
