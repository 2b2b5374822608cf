"""Run the benchmark over several seeds and summarise the spread of each metric.

    python3 perfbench/sweep.py --workloads lattice-coarse,study-reference \
        --seeds 1..10 --seconds 20 --trace 0 --out sweep.json

Each (workload, seed) is one fresh ``run.py`` process, run one after another.
For every metric the summary gives the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread, (q3 - q1) / median.
Runs that are not correct are listed and left out of the statistics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def parse_seeds(text):
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"seed": seed, "returncode": proc.returncode, "stderr": proc.stderr[-2000:]}
    return {"seed": seed, "info": json.loads(lines[-2])["info"], "result": json.loads(lines[-1])}


def summarise(runs):
    good = [r for r in runs if r.get("result", {}).get("correct")]
    names = good[0]["result"]["metrics"] if good else {}
    out = {}
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in good]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1..10")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            t0 = time.perf_counter()
            runs.append(run_once(workload, seed, args.seconds, args.trace))
            ok = runs[-1].get("result", {}).get("correct")
            print(f"{workload} seed {seed}: {'ok' if ok else 'FAILED'} "
                  f"({time.perf_counter() - t0:.1f} s)", file=sys.stderr, flush=True)
        summary = summarise(runs)
        report[workload] = {"summary": summary,
                            "failed_seeds": [r["seed"] for r in runs
                                             if not r.get("result", {}).get("correct")],
                            "runs": runs}
        for name, s in summary.items():
            print(f"{workload:20s} {name:48s} median {s['median']:.6g}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.3f}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
