"""Every invocation the benchmark plans must parse with the CLI's own parser.

The plans in ``perfbench/workloads.py`` are read, never changed, so a drift
between the CLI and the benchmark fails here rather than as refused
invocations in a benchmark run.
"""

import runpy
from pathlib import Path

import pytest

from stefan_reciprocal.cli import build_parser, main

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


def test_verify_suite_plan_passes(capsys):
    """Every verify of the gated verify-suite round exits 0 in-process.

    The benchmark counts a nonzero exit as a failed operation, and a gated
    workload must have none.
    """
    for argv in workloads["make_plan"]("verify-suite", 1):
        assert main(argv) == 0, argv
        capsys.readouterr()
