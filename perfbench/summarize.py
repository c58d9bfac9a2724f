#!/usr/bin/env python3
"""Run every workload over several seeds and write a BENCH_*.json summary.

    python3 perfbench/summarize.py --seeds 101-110 --out perfbench/results/BENCH_1.json

Each seed runs the three workloads and ``verify-defects`` in turn (so slow
spells of the host hit all of them alike), each in its own ``run.py``
process with ``--trace 0``; then one ``--all --trace 1`` run at the first
seed gives the per-layer figures.  For each end-to-end metric the file
holds the median, the quartiles and the interquartile range over the
median, both scaled to the reference host speed and as raw wall time; the
reported-only metrics get median, min and max; outcomes and failure
reasons are summed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"


def run(*args) -> list:
    """stdout lines of one run.py process; raise if it fails."""
    proc = subprocess.run([sys.executable, str(RUN), *args], capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"run.py {' '.join(args)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout.splitlines()


def seeds_arg(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(runs: list) -> dict:
    out = {"seeds": [r["detail"]["provenance"]["seed"] for r in runs],
           "end_to_end": {}, "wall": {}, "reported": {}, "outcomes": {}, "failure_reasons": {},
           "correct_all_runs": all(r["result"]["correct"] for r in runs)}
    def spread(values):
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        return {"median": median, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / median}

    for name, metric in runs[0]["result"]["metrics"].items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        out["end_to_end"][name] = {"unit": metric["unit"], **spread(values)}
    # The same timings before host-speed scaling, to show what it removes.
    for name in runs[0]["detail"]["wall"]:
        out["wall"][name] = spread([r["detail"]["wall"][name] for r in runs])
    out["speed_factor"] = spread([r["detail"]["speed_factor"] for r in runs])
    for name in runs[0]["detail"]["reported"]:
        values = [r["detail"]["reported"][name] for r in runs]
        out["reported"][name] = {"median": statistics.median(values), "min": min(values), "max": max(values)}
    for r in runs:
        for key in ("outcomes", "failure_reasons"):
            for k, v in r["detail"][key].items():
                out[key][k] = out[key].get(k, 0) + v
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("101-110"), help="e.g. 101-110")
    parser.add_argument("--seconds", default="36")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    names = workloads.WORKLOADS + workloads.EXTRA
    runs = {name: [] for name in names}
    for seed in args.seeds:
        for name in names:
            lines = run("--workload", name, "--seed", str(seed), "--seconds", args.seconds, "--trace", "0")
            runs[name].append({"result": json.loads(lines[-1]), "detail": json.loads(lines[-2])["detail"]})
            print(name, seed, json.dumps(runs[name][-1]["result"]["metrics"]), flush=True)
    lines = run("--all", "--seed", str(args.seeds[0]), "--seconds", args.seconds, "--trace", "1")
    traced = json.loads(lines[-1])
    details = [json.loads(ln)["detail"] for ln in lines if ln.startswith('{"detail"')]

    provenance = dict(runs[workloads.WORKLOADS[0]][0]["detail"]["provenance"])
    provenance.pop("seed")
    summary = {
        "provenance": provenance,
        "seconds": float(args.seconds),
        "workloads": {name: summarize(r) for name, r in runs.items()},
        "traced": {d["workload"]: {"seed": args.seeds[0], "attribution": d["attribution"],
                                   "metrics": {k: v["value"] for k, v in traced[d["workload"]]["metrics"].items()}}
                   for d in details},
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    for name, w in summary["workloads"].items():
        print(name, {m: (round(v["median"], 4), round(v["iqr_over_median"], 3)) for m, v in w["end_to_end"].items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
