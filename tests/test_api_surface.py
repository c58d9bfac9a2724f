"""The option count and the line count that ROADMAP.md tracks and the
package's exports, pinned so that a new option, growth of ``src/`` or a
changed export is a deliberate change.

An option is a keyword parameter with a default of a public function or
method of ``roots``, ``similarity``, ``transform``, ``verify`` or ``oracle``, or a field
of ``GridSpec`` or ``OracleConfig``.  When an option is added or removed,
update ``OPTION_COUNT`` here and the count in ROADMAP.md together.  The
lines of ``src/stefan_reciprocal/*.py`` may not exceed ``SRC_LINES``; when
they must, raise it here and the figure in ROADMAP.md together.  When an
export is added or removed, update ``EXPORTS`` and say so in README.md.
"""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import stefan_reciprocal
from stefan_reciprocal import oracle, roots, similarity, transform, verify
from stefan_reciprocal.oracle import OracleConfig
from stefan_reciprocal.verify import GridSpec

OPTION_COUNT = 16

SRC_LINES = 2065

EXPORTS = (
    "BoundaryCoefficients", "DomainError", "GammaRoot", "GridSpec", "InvalidParameters",
    "NonmonotoneFront", "NoSignChange", "NotMonotone", "OracleConfig", "OracleResult",
    "OutOfRange", "PhysicalParams", "PsiField", "QuadratureFailure", "ResidualReport",
    "StabilityViolation", "StefanError", "StefanField",
    "burgers_bc_residuals", "burgers_residual", "c_of_t_general", "compare_to_closed_form",
    "compute_boundary_coefficients", "eval_F", "eval_G", "evolution_residual",
    "h_ratio_residual", "heat_residual", "physical_margin", "psi_bc_residuals",
    "reciprocal_identity_residual", "run_verification_suite", "solve_gamma",
    "solve_oracle", "stefan_bc_residuals", "theta_quadrature",
)

RECORDS = (
    "BoundaryCoefficients", "GammaRoot", "GridSpec", "OracleConfig", "OracleResult",
    "PhysicalParams", "ResidualReport", "StefanField",
)

SUBMODULES = ("cli", "errors", "forms", "oracle", "roots", "similarity", "transform", "verify")


def _options():
    names = [f"{cls.__name__}.{name}" for cls in (GridSpec, OracleConfig) for name in cls._fields]
    for mod in (roots, similarity, transform, verify, oracle):
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                members = [(name, obj)]
            elif inspect.isclass(obj):
                members = [
                    (f"{name}.{attr}", getattr(member, "__func__", member))
                    for attr, member in vars(obj).items()
                    if not attr.startswith("_")
                ]
            else:
                continue
            names += [
                f"{qualname}({param.name})"
                for qualname, fn in members
                if inspect.isfunction(fn)
                for param in inspect.signature(fn).parameters.values()
                if param.default is not inspect.Parameter.empty
            ]
    return names


def test_option_count():
    names = _options()
    assert len(names) == len(set(names))
    assert len(names) == OPTION_COUNT, names


def test_src_line_count():
    """``wc -l src/stefan_reciprocal/*.py`` totals at most SRC_LINES."""
    package = Path(stefan_reciprocal.__file__).resolve().parent
    lines = sum(path.read_bytes().count(b"\n") for path in package.glob("*.py"))
    assert lines <= SRC_LINES


def test_records_are_namedtuples():
    """Every record of the package is an immutable namedtuple, equal to the tuple of its fields."""
    for name in RECORDS:
        cls = getattr(stefan_reciprocal, name)
        assert issubclass(cls, tuple) and cls._fields and vars(cls)["__slots__"] == (), name


def test_exports():
    assert tuple(stefan_reciprocal.__all__) == EXPORTS
    assert all(hasattr(stefan_reciprocal, name) for name in EXPORTS)


def test_exports_resolve_from_a_fresh_import():
    """``import stefan_reciprocal`` loads no submodule; then every export resolves
    to the object its module defines, and every submodule to itself."""
    script = (
        "import json, sys\n"
        "import stefan_reciprocal as pkg\n"
        "before = sorted(m for m in sys.modules if m.startswith('stefan_reciprocal.'))\n"
        "def defined(name):\n"
        "    value = getattr(pkg, name)\n"
        "    return value is getattr(sys.modules[value.__module__], value.__name__)\n"
        "wrong = [n for n in json.loads(sys.argv[1]) if not defined(n)]\n"
        "subs = [getattr(pkg, m) is sys.modules['stefan_reciprocal.' + m]\n"
        "        for m in json.loads(sys.argv[2])]\n"
        "print(json.dumps([before, wrong, subs, hasattr(pkg, 'no_such_export')]))\n"
    )
    src = str(Path(stefan_reciprocal.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    res = subprocess.run(
        [sys.executable, "-c", script, json.dumps(EXPORTS), json.dumps(SUBMODULES)],
        capture_output=True, text=True, env=env, check=True,
    )
    before, wrong, subs, bogus = json.loads(res.stdout.splitlines()[-1])
    assert before == [] and wrong == [] and not bogus
    assert subs == [True] * len(SUBMODULES)
    assert set(EXPORTS) | set(SUBMODULES) <= set(dir(stefan_reciprocal))
