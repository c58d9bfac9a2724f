#!/usr/bin/env python3
"""Self-test of the harness: one invocation per workload, untraced and traced.

    python3 perfbench/selftest.py

Runs ``run.py`` on every workload (``verify-defects`` too) with a small seed
and ``--max-invocations 1``, untraced and traced, then asserts the result schema, that every metric
of BENCHMARK.json is present with its unit and a finite value, that the
provenance and the reported failure metrics are there, that the reference
checks reject a corrupted output, and that stored stdout hashes are compared
only within one source tree.  Exits 0 when all of that holds.  Takes about
a minute.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import layers
import reference
import run
import runner
import workloads

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def invoke(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--max-invocations", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(lines[-2])["detail"]
    return json.loads(lines[-1]), detail


def check_schema(result: dict, names: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, set(result)
    assert isinstance(result["correct"], bool)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    assert list(result["metrics"]) == names, sorted(set(names) ^ set(result["metrics"]))
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}, name
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name


def main() -> int:
    assert [m["name"] for m in SPEC["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["name"] for m in SPEC["per_layer"]] == [n for n, _ in layers.metric_names()]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for workload in workloads.WORKLOADS + workloads.EXTRA:
        for trace, spec in ((0, "end_to_end"), (1, "per_layer")):
            result, detail = invoke(workload, trace)
            check_schema(result, [m["name"] for m in SPEC[spec]])
            units = {m["name"]: m["unit"] for m in SPEC[spec]}
            assert all(result["metrics"][k]["unit"] == u for k, u in units.items())
            assert result["correct"], detail["failure_reasons"]
            assert {"git_commit", "seed", "python", "numpy", "scipy", "nproc", "cpu_model"} <= set(
                detail["provenance"]
            )
            if trace == 0:
                assert "failed_frac" in detail["reported"]
                assert detail["speed_factor"] > 0 and set(detail["wall"]) >= {"setup_s", "invocation_p50_s"}
                if workload.startswith("verify"):
                    assert "identities_failed_frac" in detail["reported"]
                if workload == "oracle-march":
                    assert "oracle_gamma_rel_err" in detail["reported"]
            else:
                assert result["metrics"]["trace.spans"]["value"] > 0
                assert detail["attribution"]["verdict"]
            print(f"ok  {workload} trace={trace}  attempted={result['attempted']}")

    # The checks must catch a wrong number, not only a crash.
    argv = ["gamma", "--q", "1", "--l0", "1", "--tm0", "0.5", "--json"]
    margin = float(reference.Closed(reference.parse_argv(argv)).margin())
    for gamma, outcome in ((0.47461192717264611, "ok"), (0.4746119, "wrong")):
        record = json.dumps({"gamma": gamma, "margin": margin, "physical_condition": True})
        assert reference.check(argv, 0, record, "")["outcome"] == outcome, gamma
    assert reference.check(["verify"], 2, "", "error: x*(., t=0.25) is not monotone")["outcome"] == "refused"
    print("ok  reference checks reject a corrupted gamma")

    # Stored stdout hashes count only for the same source tree.
    refusal = runner.Result(1, "", "error: x*(., t=0.25) is not monotone", 1.0, 1.0)
    saved = run.HASHES
    run.HASHES = runner.WORK / "selftest-sha256.json"
    runner.WORK.mkdir(exist_ok=True)
    try:
        for src, outcome in (("another-source-tree", "refused"), (run.src_sha256(), "nondeterministic")):
            run.HASHES.write_text(json.dumps({src: {json.dumps(["verify"]): "0" * 64}}))
            inv = run.Invocation(["verify"], False, refusal)
            run.check_outputs([inv])
            assert inv.check["outcome"] == outcome, (src, inv.check)
    finally:
        run.HASHES.unlink(missing_ok=True)
        run.HASHES = saved
    print("ok  stdout hashes are compared within one source tree only")
    return 0


if __name__ == "__main__":
    sys.exit(main())
