"""Every invocation the benchmark plans must parse with the CLI's own parser.

The plans in ``perfbench/workloads.py`` are read, never changed, so a drift
between the CLI and the benchmark fails here rather than as refused
invocations in a benchmark run.
"""

import runpy
from pathlib import Path

import pytest

from stefan_reciprocal.cli import build_parser

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
workloads = runpy.run_path(str(WORKLOADS_PY))


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", workloads["WORKLOADS"] + workloads["EXTRA"])
def test_plan_parses(workload, seed):
    parser = build_parser()
    plan = workloads["make_plan"](workload, seed)
    assert plan
    for argv in plan:
        args = parser.parse_args(argv)
        assert args.command == argv[0]
