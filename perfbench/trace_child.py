"""Run one CLI invocation with a span around every public call into each layer.

Usage: python perfbench/trace_child.py SPANS_JSON ARG...

Imports ``stefan_reciprocal.cli`` (recorded as the span ``cli.import``),
replaces each traced function under every name it is bound to -- module
attributes of the package and its modules, the ``cli.COMMANDS`` table and the
methods of ``PsiField`` and ``StefanField`` -- then calls ``cli.main(ARGS)``.
Spans are kept in memory as [name, start_ns, end_ns, parent, extra, error]
and written to SPANS_JSON when main returns or raises, followed by a line
with the time the writing took.  ``extra`` carries a
per-call count (points evaluated, root iterations, integrand evaluations,
oracle steps, a failed identity); ``error`` is the class of an exception on
the span that saw it first.

The program's stdout and exit code are unchanged, so the caller can compare
them with an untraced run of the same arguments.
"""

from __future__ import annotations

import json
import sys
import threading
import time

_clock = time.perf_counter_ns
_names: list = []
_ids: dict = {}
_spans: list = []
_local = threading.local()
_main_stack: list = [None]
_local.stack = _main_stack


def _stack() -> list:
    try:
        return _local.stack
    except AttributeError:
        # A pool worker: its spans belong to the call the main thread is
        # blocked in (the `sweep` command waiting on its executor).
        _local.stack = [_main_stack[-1]]
        return _local.stack


def _nid(name: str) -> int:
    if name not in _ids:
        _ids[name] = len(_names)
        _names.append(name)
    return _ids[name]


def _call(nid, fn, args, kwargs, extra, failed_extra=0):
    stack = _stack()
    rec = [nid, 0, 0, stack[-1], 0, None]
    _spans.append(rec)
    stack.append(rec)
    rec[1] = _clock()
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:
        rec[2] = _clock()
        stack.pop()
        rec[4] = failed_extra
        if not getattr(exc, "_span_seen", False):
            rec[5] = type(exc).__name__
            exc._span_seen = True
        raise
    rec[2] = _clock()
    stack.pop()
    if extra is not None:
        rec[4] = extra(args, result)
    return result


def span(name, fn, extra=None, failed_extra=0):
    nid = _nid(name)

    def traced(*args, **kwargs):
        return _call(nid, fn, args, kwargs, extra, failed_extra)

    return traced


def quad_span(name, fn):
    """Like :func:`span`; ``extra`` counts the integrand's evaluations."""
    nid = _nid(name)

    def traced(func, *args, **kwargs):
        evals = [0]

        def integrand(x):
            evals[0] += 1
            return func(x)

        return _call(nid, fn, (integrand, *args), kwargs, lambda a, r: evals[0])

    return traced


def _points(args, result):
    return getattr(args[1], "size", 1)


def span_cost_ns(calls: int = 4000, repeats: int = 5) -> float:
    """Recorder cost of one span, net of the call it wraps, in ns.

    Timed on a method-shaped leaf with a points count, the commonest traced
    call; the least of ``repeats`` trials, since the cost is a floor.  The
    spans it records are discarded.  Nearly all of this cost falls outside
    the span's own interval, in its parent's self time.
    """
    def leaf(obj, y):
        return y

    traced = span("trace.calibrate", leaf, _points)
    mark, best = len(_spans), float("inf")
    for _ in range(repeats):
        t0 = _clock()
        for _ in range(calls):
            leaf(None, 0.5)
        t1 = _clock()
        for _ in range(calls):
            traced(None, 0.5)
        t2 = _clock()
        del _spans[mark:]
        best = min(best, (t2 - t1) - (t1 - t0))
    return best / calls


def install():
    """Wrap every traced function under all of its bindings."""
    import stefan_reciprocal as pkg
    from stefan_reciprocal import cli, oracle, similarity, transform, verify

    modules = (pkg, cli, oracle, similarity, transform, verify)

    def rebind(fn, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
        for key, value in list(cli.COMMANDS.items()):
            if value is fn:
                cli.COMMANDS[key] = wrapper

    def function(mod, attr, name, extra=None, failed_extra=0):
        fn = getattr(mod, attr, None)
        if fn is not None:
            rebind(fn, span(name, fn, extra, failed_extra))

    def method(cls, attr, name, extra=None):
        fn = cls.__dict__.get(attr)
        if fn is not None:
            setattr(cls, attr, span(name, fn, extra))

    for attr in ("temperature", "temperature_gradient"):
        method(similarity.StefanField, attr, "similarity.field", _points)
    for attr in ("psi_parametric", "theta", "x_star", "invert_x_star", "psi_at"):
        method(transform.PsiField, attr, f"transform.{attr}", _points)
    for attr in ("s_from_psi", "h_of_t"):
        method(transform.PsiField, attr, f"transform.{attr}")

    function(similarity, "solve_gamma", "similarity.solve_gamma", lambda a, r: r.iterations)
    for attr in ("theta_quadrature", "c_of_t_general"):
        function(transform, attr, f"transform.{attr}")
    if hasattr(transform, "quad_checked"):
        rebind(transform.quad_checked, quad_span("transform.quad", transform.quad_checked))

    function(verify, "run_verification_suite", "verify.run_verification_suite")
    for attr, identity in IDENTITY_FUNCTIONS.items():
        function(verify, attr, f"verify.{identity}", lambda a, r: int(not r.passed), 1)

    function(
        oracle, "solve", "oracle.solve",
        lambda a, r: [r.steps, r.config.n_xi, r.max_cfl, r.max_principle_violations],
    )
    function(oracle, "compare_to_closed_form", "oracle.compare")

    for command in list(cli.COMMANDS):
        function(cli, f"cmd_{command}", f"cli.{command}")
    return span("cli.main", cli.main)


#: verify's check functions and the ResidualReport.identity each returns.
IDENTITY_FUNCTIONS = {
    "heat_residual": "heat-equation",
    "burgers_residual": "burgers-equation",
    "evolution_residual": "source-equation",
    "stefan_bc_residuals": "stefan-boundary-conditions",
    "burgers_bc_residuals": "burgers-boundary-conditions",
    "psi_bc_residuals": "psi-boundary-conditions",
    "h_ratio_residual": "source-ratio-identity",
    "reciprocal_identity_residual": "reciprocal-identity",
    "theta_consistency_residual": "theta-consistency",
    "c_consistency_residual": "c-consistency",
    "boundary_consistency_residual": "boundary-consistency",
    "s_recovery_residual": "front-recovery",
    "roundtrip_residual": "inversion-roundtrip",
}


def _dump(path):
    """Write the spans as one JSON line, then a line with the time this took."""
    start = _clock()
    index = {id(rec): i for i, rec in enumerate(_spans)}
    spans = [
        [r[0], r[1], r[2], -1 if r[3] is None else index[id(r[3])], r[4], r[5]]
        for r in _spans
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"names": _names, "spans": spans}, fh)
        fh.write("\n")
        json.dump({"dump_ns": _clock() - start}, fh)


def run(path, argv) -> int:
    rec = [_nid("cli.import"), _clock(), 0, None, 0, None]
    _spans.append(rec)
    import stefan_reciprocal.cli  # noqa: F401  (timed as the cli.import span)

    rec[2] = _clock()
    main = install()
    try:
        return main(argv)
    finally:
        sys.stdout.flush()
        _dump(path)


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2:]))
