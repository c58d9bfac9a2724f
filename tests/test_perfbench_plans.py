"""Every invocation the benchmark plans must parse with the CLI's own parser,
and take its fast path.

The plans in ``perfbench/workloads.py`` are read, never changed, so a drift
between the CLI and the benchmark fails here rather than as refused
invocations in a benchmark run.  Likewise the benchmark's list of
``verify`` record names must match what the suite emits.
"""

import ast
import runpy
from pathlib import Path

import pytest

from stefan_reciprocal.cli import _parse_fast, build_parser, main
from stefan_reciprocal.verify import GridSpec, run_verification_suite

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS_PY = PERFBENCH / "workloads.py"
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
        # read without argparse, into argparse's namespace
        assert vars(_parse_fast(argv)) == vars(args)


def test_verify_suite_plan_passes(capsys):
    """Every verify of the gated verify-suite round exits 0 in-process.

    The benchmark counts a nonzero exit as a failed operation, and a gated
    workload must have none.
    """
    for argv in workloads["make_plan"]("verify-suite", 1):
        assert main(argv) == 0, argv
        capsys.readouterr()


def test_verify_record_names_match_benchmark(baseline_field):
    """The suite's records carry the names, in the order, the benchmark parses.

    ``IDENTITIES`` is read from ``perfbench/reference.py`` by ``ast``, so the
    reference module (and its mpmath import) is never loaded.
    """
    reference = ast.parse((PERFBENCH / "reference.py").read_text())
    identities = next(
        ast.literal_eval(node.value)
        for node in reference.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "IDENTITIES" for t in node.targets)
    )
    reports = run_verification_suite(baseline_field, GridSpec(n_space=8, n_time=1))
    assert tuple(r.identity for r in reports) == identities
