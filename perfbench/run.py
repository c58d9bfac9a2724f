#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the stefan-reciprocal CLI.

One client drives the CLI in a closed loop: it spawns one invocation, waits
for it to exit, checks nothing yet, and spawns the next.  Outputs are checked
against independent references after the timed loop.

    python3 perfbench/run.py --workload cli-explore --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 36 --trace 0

See perfbench/README.md for the workloads, metrics and the traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

import layers
import reference
import runner
import trace_child
import workloads

#: Fresh-interpreter imports timed per run, spread over the timed loop;
#: setup_s is their median.  Each is paired with a calibration import.
SETUP_REPEATS = 11
#: The calibration import's time at the reference host speed.  Timings are
#: reported at that speed: each is scaled by CALIBRATION_REF_S over the run's
#: median calibration time (README, "Host-speed scaling").  About what the
#: calibration takes on a 2-vCPU Intel Xeon VM, so scaled figures read close
#: to wall seconds there.
CALIBRATION_REF_S = 0.55
#: `-X importtime` profiles per traced run; the import metrics are medians.
IMPORTTIME_REPEATS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("invocation_p50_s", "s"),
    ("peak_rss_mb", "MB"),
)
#: Printed with the end-to-end metrics but not gated: each exists only on
#: some workloads, or has too few samples in one run to be steady.
REPORTED = (
    ("invocation_p90_s", "s"),
    ("invocation_samples", "count"),
    ("invocations_beyond_p90", "count"),
    ("failed_frac", "ratio"),
    ("identities_failed_frac", "ratio"),
    ("oracle_gamma_rel_err", "ratio"),
)

HASHES = runner.WORK / "stdout-sha256.json"


def src_sha256() -> str:
    """sha256 over the paths and bytes of ``src/**/*.py``: the code under test."""
    digest = hashlib.sha256()
    for path in sorted(runner.SRC.rglob("*.py")):
        digest.update(str(path.relative_to(runner.SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int) -> dict:
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=runner.ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(runner.ROOT.parent)},
        )
        commit = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        commit = None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_commit": commit,
        "src_sha256": src_sha256(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "mpmath": metadata.version("mpmath"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
    }


class Invocation:
    def __init__(self, argv, traced, res, spans_text=None, span_cost_ns=None):
        self.argv, self.traced, self.res, self.spans_text = argv, traced, res, spans_text
        self.span_cost_ns = span_cost_ns
        self.key = json.dumps(argv)
        self.check = None


def measure(plan, seconds: float, trace: bool) -> tuple:
    """Closed loop over ``plan``, repeated until ``seconds`` have passed.

    The first round always completes, so every argv has at least one sample;
    after that no invocation starts once the time is up.  Between
    invocations the loop times fresh-interpreter imports of the package and
    of the calibration modules, on a schedule that spreads
    ``SETUP_REPEATS`` pairs evenly over the run, so both see the host's
    speed over the whole run, not over its first seconds.  Returns the
    invocations, the package import times and the calibration times.
    """
    invocations = []
    setup = []
    calibration = []
    start = time.perf_counter()

    def time_imports(until: int) -> None:
        while len(setup) < until:
            setup.append(runner.import_seconds())
            calibration.append(runner.import_seconds(runner.CALIBRATION_MODULES))

    while True:
        for argv in plan:
            elapsed = time.perf_counter() - start
            time_imports(min(SETUP_REPEATS, math.ceil(SETUP_REPEATS * elapsed / seconds)))
            invocations.append(Invocation(argv, False, runner.spawn(runner.cli_args(argv))))
            if trace:
                path = runner.WORK / f"spans-{os.getpid()}.json"
                res = runner.spawn(runner.traced_args(argv, path))
                text = path.read_text(encoding="utf-8") if path.exists() else None
                path.unlink(missing_ok=True)
                # Calibrated here, beside each traced child, so it follows
                # the host's speed; it is not part of any child's wall time.
                invocations.append(Invocation(argv, True, res, text, trace_child.span_cost_ns()))
            if len(invocations) >= len(plan) * (1 + trace) and time.perf_counter() - start >= seconds:
                time_imports(SETUP_REPEATS)
                return invocations, setup, calibration


def per_argv_walls(plan, invocations, traced: bool) -> list:
    """Wall times of each argv of the round, in plan order."""
    walls = {}
    for inv in invocations:
        if inv.traced == traced:
            walls.setdefault(inv.key, []).append(inv.res.wall_s)
    return [walls[json.dumps(argv)] for argv in plan]


def check_outputs(invocations) -> None:
    """Reference checks; determinism within the run and against every earlier
    run of the same source in this checkout.

    Stored hashes are keyed by the sha256 of ``src/``, so a commit whose
    output legitimately differs (a new scheme, a fixed checker) is compared
    only with runs of itself.
    """
    cache = {}
    stored = json.loads(HASHES.read_text()) if HASHES.exists() else {}
    earlier = stored.setdefault(src_sha256(), {})
    seen = {}
    for inv in invocations:
        key = inv.key
        digest = hashlib.sha256(inv.res.stdout.encode()).hexdigest()
        memo = (key, inv.res.returncode, digest, inv.res.stderr)
        if memo not in cache:
            cache[memo] = reference.check(inv.argv, inv.res.returncode, inv.res.stdout, inv.res.stderr)
        inv.check = dict(cache[memo])
        expected = seen.setdefault(key, earlier.get(key, digest))
        if digest != expected:
            inv.check.update(outcome="nondeterministic", reason=f"stdout sha256 {digest[:12]} != {expected[:12]}")
        if inv.traced and inv.spans_text is None and inv.check["outcome"] == "ok":
            inv.check.update(outcome="wrong", reason="traced child wrote no spans")
    oracle_runs = [(inv.argv, inv.check["oracle_rel_err"]) for inv in invocations
                   if inv.check["outcome"] == "ok" and inv.check["oracle_rel_err"] is not None]
    for argv, order in reference.oracle_order(oracle_runs):
        if not order >= reference.ORACLE_MIN_ORDER:
            for inv in invocations:
                if inv.argv == argv and inv.check["outcome"] == "ok":
                    inv.check.update(outcome="wrong", reason=f"oracle spatial order {order:.2f} < 1.8")
    earlier.update(seen)
    tmp = HASHES.with_suffix(".tmp")
    tmp.write_text(json.dumps(stored, sort_keys=True))
    tmp.replace(HASHES)


def run_workload(workload, seed, seconds, trace, max_invocations=None) -> dict:
    plan = workloads.make_plan(workload, seed)[:max_invocations]
    runner.spawn(runner.cli_args(plan[0]))  # untimed warm-up: fills the bytecode caches
    imports = runner.median_breakdown(IMPORTTIME_REPEATS) if trace else {}

    invocations, setup, calibration = measure(plan, seconds, trace)
    check_outputs(invocations)
    # Host-speed scaling: this host's speed drifts by a quarter over minutes,
    # and a fresh import of numpy and scipy, timed between the invocations,
    # drifts with it while no commit of the package can change it.
    speed = CALIBRATION_REF_S / statistics.median(calibration)

    # Per-argv means, combined over one round: every run's figures then
    # cover the same mix of shapes whatever the seed or where the time ran
    # out.  A mean, not a median, because an argv has only two to four
    # samples and the host's speed drifts during a run: the mean weighs
    # every sample, so the figure follows the speed over the whole run.
    argv_walls = per_argv_walls(plan, invocations, traced=False)
    round_walls = [statistics.fmean(w) for w in argv_walls]
    untraced = [inv.res.wall_s for inv in invocations if not inv.traced]
    outcomes = {}
    reasons = {}
    for inv in invocations:
        outcome = inv.check["outcome"]
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
        if outcome != "ok":
            reasons[inv.check["reason"]] = reasons.get(inv.check["reason"], 0) + 1
    attempted = len(invocations)
    failed = attempted - outcomes.get("ok", 0)

    wall = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(plan) / sum(round_walls),
        "invocation_p50_s": statistics.median(round_walls),
    }
    report = {
        "setup_s": wall["setup_s"] * speed,
        "ops_per_s": wall["ops_per_s"] / speed,
        "invocation_p50_s": wall["invocation_p50_s"] * speed,
        "peak_rss_mb": max(inv.res.maxrss_mb for inv in invocations if not inv.traced),
        "failed_frac": failed / attempted,
    }
    if len(untraced) >= 2:
        p90 = statistics.quantiles(untraced, n=10, method="inclusive")[-1]
        wall["invocation_p90_s"] = p90
        report.update(
            invocation_p90_s=p90 * speed,
            invocation_samples=len(untraced),
            invocations_beyond_p90=sum(w > p90 for w in untraced),
        )
    verify_runs = [inv for inv in invocations if inv.argv[0] == "verify"]
    if verify_runs:
        report["identities_failed_frac"] = sum(inv.check["identities_failed"] for inv in verify_runs) / (
            len(reference.IDENTITIES) * len(verify_runs)
        )
    oracle_errs = [inv.check["oracle_rel_err"] for inv in invocations if inv.check["oracle_rel_err"] is not None]
    if oracle_errs:
        report["oracle_gamma_rel_err"] = max(oracle_errs)

    detail = {
        "workload": workload,
        "provenance": provenance(seed),
        "seconds": seconds,
        "trace": int(trace),
        "round_len": len(plan),
        "argv_walls_s": argv_walls,
        "wall": wall,
        "calibration_samples_s": calibration,
        "speed_factor": speed,
        "setup_samples_s": setup,
        "outcomes": outcomes,
        "failure_reasons": reasons,
        "reported": {k: report[k] for k, _ in REPORTED if k in report},
    }
    if trace:
        samples = {}
        for inv in invocations:
            if inv.traced and inv.spans_text is not None:
                samples.setdefault(inv.key, []).append(inv)
        totals = layers.Totals()
        for runs in samples.values():
            for inv in runs:
                spans, dump = inv.spans_text.split("\n")
                totals.add(inv.argv[0], inv.res.wall_s, len(inv.res.stdout.encode()),
                           {**json.loads(spans), **json.loads(dump)}, 1.0 / len(runs), inv.span_cost_ns)
        traced_p50 = speed * statistics.median(
            statistics.fmean(w) for w in per_argv_walls(plan, invocations, traced=True)
        )
        metrics = totals.metrics(imports, traced_p50, report["invocation_p50_s"])
        detail["attribution"] = layers.attribution(workload, metrics, totals.recorder())
        units = dict(layers.metric_names())
    else:
        metrics = report
        units = dict(END_TO_END)
    return {
        "correct": not any(k in outcomes for k in ("wrong", "nondeterministic")),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "detail": detail,
    }


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_table(workload, result, detail) -> None:
    rows = list(result["metrics"].items())
    if not detail["trace"]:
        reported = detail["reported"]
        rows += [(k, {"value": reported[k], "unit": u}) for k, u in REPORTED if k in reported]
    for name, m in rows:
        print(f"{workload:<13} {name:<44} {_fmt(m['value']):>14} {m['unit']}")
    if "attribution" in detail:
        a = detail["attribution"]
        print(f"{workload:<13} attribution: predicted {a['predicted']}, top {a['top']}, "
              f"{a['verdict']}; shares net of the recorder {a['shares']}")
    print(f"{workload:<13} outcomes {detail['outcomes']} correct={result['correct']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--workload", choices=workloads.WORKLOADS + workloads.EXTRA)
    group.add_argument("--all", action="store_true", help="every workload, one table")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-invocations", type=int, default=None,
                        help="cut the round to its first N invocations (self-test)")
    args = parser.parse_args(argv)

    if not (runner.SRC / "stefan_reciprocal" / "cli.py").is_file():
        print(f"error: no package source under {runner.SRC}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.all else (args.workload,)
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.max_invocations)
        results[name] = result
        detail = result.pop("detail")
        print(json.dumps({"detail": detail}, sort_keys=True))
        if args.all:
            print_table(name, result, detail)
        sys.stdout.flush()
    print(json.dumps(results if args.all else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
