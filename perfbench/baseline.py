"""Run the benchmark over several seeds and summarise each metric.

Usage, from the root of a checkout::

    python3 perfbench/baseline.py --seeds 1-10 --seconds 45 \\
        --save perfbench/results/BENCH_<label>.json --label <label>

For each workload and seed it runs ``perfbench/run.py`` once, in sequence,
and reports each metric's median, quartiles and spread (the distance
between the quartiles as a share of the median, from
``statistics.quantiles(values, n=4)``).  With ``--save`` it writes every
run's numbers and the summary to a JSON file, so later changes can be read
as a trajectory from committed results.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("exact-scan", "word-verify")


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    info, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return {"seed": seed, "info": info, "result": result}


def summarise(runs) -> dict:
    summary = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = median
        summary[name] = {"unit": runs[0]["result"]["metrics"][name]["unit"],
                         "median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median if median else None}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default="")
    parser.add_argument("--save", help="write runs and summary to this JSON file")
    args = parser.parse_args(argv)
    report = {"label": args.label, "seconds": args.seconds, "trace": args.trace,
              "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            run = run_once(workload, seed, args.seconds, args.trace)
            ok &= run["result"]["correct"]
            runs.append(run)
            values = {k: round(v["value"], 4) for k, v in run["result"]["metrics"].items()}
            print(f"{workload} seed={seed} correct={run['result']['correct']} {values}",
                  flush=True)
        summary = summarise(runs)
        first = runs[0]["info"]
        report["machine"] = {k: first[k] for k in ("python", "nproc", "kernel_backend")}
        report["workloads"][workload] = {"why": first["why"], "summary": summary,
                                         "runs": runs}
        for name, s in summary.items():
            spread = "n/a" if s["spread"] is None else f"{100 * s['spread']:.1f}%"
            print(f"  {workload:12} {name:28} median {s['median']:14.4f} {s['unit']:6} "
                  f"spread {spread}", flush=True)
    if args.save:
        Path(args.save).parent.mkdir(parents=True, exist_ok=True)
        Path(args.save).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
