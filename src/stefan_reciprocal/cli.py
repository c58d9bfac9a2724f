"""Command-line surface: gamma | eval | verify | oracle | sweep.

Exit codes: 0 success (and all identities passing for `verify`);
1 invalid input (parameter invariants, malformed flags);
2 numerical failure (no sign change, quadrature failure, instability).

Output is deterministic: floats are printed with 17 significant digits and
sweep cells are written in parameter order.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import oracle as oracle_mod
from .errors import InvalidParameters, StefanError
from .similarity import PhysicalParams, StefanField, physical_margin, solve_gamma
from .transform import PsiField
from .verify import GridSpec, run_verification_suite

DEFAULTS = {"q": 1.0, "l0": 1.0, "tm0": 0.5, "delta": 1.0, "tol": 1e-12}


def fmt(value) -> str:
    return format(float(value), ".17g")


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 1."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_range(text: str):
    """Parse lo:hi:n into a linspace."""
    parts = text.split(":")
    if len(parts) != 3:
        raise InvalidParameters(f"expected lo:hi:n, got {text!r}")
    lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidParameters(f"range bounds must be finite, got {text!r}")
    if n < 1:
        raise InvalidParameters("range count must be >= 1")
    return np.linspace(lo, hi, n)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="stefan-reciprocal")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--q", type=float, default=None)
        p.add_argument("--l0", type=float, default=None)
        p.add_argument("--tm0", type=float, default=None)
        p.add_argument("--delta", type=float, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--json", action="store_true")
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--config", type=str, default=None)

    p_gamma = sub.add_parser("gamma", help="solve the front coefficient")
    add_common(p_gamma)

    p_eval = sub.add_parser("eval", help="tabulate fields")
    add_common(p_eval)
    p_eval.add_argument(
        "--field",
        required=True,
        choices=["T", "Ty", "S", "xstar", "psi", "theta", "H", "boundaries"],
    )
    p_eval.add_argument("--t", type=float, default=1.0)
    p_eval.add_argument("--t-range", type=str, default="0.25:4:16")
    p_eval.add_argument("--n", type=int, default=101)

    p_verify = sub.add_parser("verify", help="run the identity verification suite")
    add_common(p_verify)
    p_verify.add_argument("--grid", type=str, default="50,5")
    p_verify.add_argument("--margin", type=float, default=0.02)
    p_verify.add_argument("--fd-step", type=float, default=1e-4)

    p_oracle = sub.add_parser("oracle", help="front-fixing cross-check")
    add_common(p_oracle)
    p_oracle.add_argument("--n-xi", type=int, default=256)
    p_oracle.add_argument("--t0", type=float, default=0.1)
    p_oracle.add_argument("--t-end", type=float, default=1.0)
    p_oracle.add_argument("--dt", type=float, default=2e-4)
    p_oracle.add_argument("--seed", choices=["closed", "linear"], default="closed")
    p_oracle.add_argument("--s0", type=float, default=0.05)

    p_sweep = sub.add_parser("sweep", help="gamma over a parameter grid")
    add_common(p_sweep)
    p_sweep.add_argument("--q-range", type=str, default=None)
    p_sweep.add_argument("--l0-range", type=str, default=None)
    p_sweep.add_argument("--tm0-range", type=str, default=None)

    return parser


def _merge_config(args) -> dict:
    merged = dict(DEFAULTS)
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        unknown = set(loaded) - set(DEFAULTS)
        if unknown:
            raise InvalidParameters(f"unknown config keys: {sorted(unknown)}")
        merged.update(loaded)
    for key in DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    return merged


def _params(cfg) -> PhysicalParams:
    return PhysicalParams(q=cfg["q"], l0=cfg["l0"], tm0=cfg["tm0"], delta=cfg["delta"])


class _Sink:
    """stdout or --out file with deterministic newline handling."""

    def __init__(self, path):
        self.path = path
        self.lines = []

    def write(self, line: str):
        self.lines.append(line)

    def flush(self):
        text = "\n".join(self.lines) + "\n" if self.lines else ""
        if self.path:
            with open(self.path, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)


def cmd_gamma(args) -> int:
    cfg = _merge_config(args)
    params = _params(cfg)
    root = solve_gamma(params, cfg["tol"])
    margin = physical_margin(params, root.gamma)
    sink = _Sink(args.out)
    if args.json:
        sink.write(
            json.dumps(
                {
                    "gamma": root.gamma,
                    "residual": root.residual,
                    "bracket_lo": root.bracket_lo,
                    "bracket_hi": root.bracket_hi,
                    "iterations": root.iterations,
                    "margin": margin,
                    "physical_condition": margin > 0,
                },
                sort_keys=True,
            )
        )
    else:
        sink.write(f"gamma = {fmt(root.gamma)}")
        sink.write(f"residual = {fmt(root.residual)}")
        sink.write(f"bracket = [{fmt(root.bracket_lo)}, {fmt(root.bracket_hi)}]")
        sink.write(f"iterations = {root.iterations}")
        sink.write(f"margin = {fmt(margin)}")
    sink.flush()
    return 0


def _emit_rows(sink, header, rows, as_json):
    if as_json:
        for row in rows:
            sink.write(
                json.dumps({k: float(v) for k, v in zip(header, row)}, sort_keys=True)
            )
    else:
        sink.write(",".join(header))
        for row in rows:
            sink.write(",".join(fmt(v) for v in row))


def cmd_eval(args) -> int:
    cfg = _merge_config(args)
    params = _params(cfg)
    field = StefanField.from_params(params, cfg["tol"])
    psi_field = PsiField.from_stefan(field)
    t = args.t
    if not math.isfinite(t):
        raise InvalidParameters(f"t must be finite, got {t}")
    if t <= 0 and args.field not in ("S", "boundaries", "H"):
        raise InvalidParameters("t must be > 0")
    sink = _Sink(args.out)

    if args.field in ("T", "Ty", "xstar", "theta", "psi"):
        y = np.linspace(0.0, field.free_boundary(t), args.n)
        if args.field == "T":
            header, cols = ["y", "T"], (y, field.temperature(y, t))
        elif args.field == "Ty":
            header, cols = ["y", "Ty"], (y, field.temperature_gradient(y, t))
        elif args.field == "xstar":
            header, cols = ["y", "xstar"], (y, psi_field.x_star(y, t))
        elif args.field == "theta":
            header, cols = ["y", "theta"], (y, psi_field.theta(y, t))
        else:
            xs = psi_field.x_star(y, t)
            header, cols = ["xstar", "psi"], (xs, psi_field.psi_parametric(y, t))
        rows = np.column_stack(cols)
    else:
        t_values = _parse_range(args.t_range)
        if np.any(t_values <= 0):
            raise InvalidParameters("t-range must be positive")
        if args.field == "S":
            header = ["t", "S"]
            rows = np.column_stack((t_values, field.free_boundary(t_values)))
        elif args.field == "H":
            header = ["t", "H"]
            rows = np.column_stack(
                (t_values, [psi_field.h_of_t(ti) for ti in t_values])
            )
        else:
            header = ["t", "S", "X0", "X1"]
            rows = np.column_stack(
                (
                    t_values,
                    field.free_boundary(t_values),
                    [psi_field.x0(ti) for ti in t_values],
                    [psi_field.x1(ti) for ti in t_values],
                )
            )
    _emit_rows(sink, header, rows, args.json)
    sink.flush()
    return 0


def cmd_verify(args) -> int:
    cfg = _merge_config(args)
    params = _params(cfg)
    field = StefanField.from_params(params, cfg["tol"])
    try:
        n_space, n_time = (int(v) for v in args.grid.split(","))
    except ValueError as exc:
        raise InvalidParameters(f"--grid expects n_space,n_time: {exc}") from exc
    grid = GridSpec(
        n_space=n_space, n_time=n_time, margin=args.margin, fd_step=args.fd_step
    )
    reports = run_verification_suite(field, grid=grid)
    sink = _Sink(args.out)
    for rep in reports:
        if args.json:
            sink.write(rep.to_json())
        else:
            status = "pass" if rep.passed else "FAIL"
            sink.write(
                f"{rep.identity}: max_abs={fmt(rep.max_abs)} l2={fmt(rep.l2)} "
                f"tol={fmt(rep.tolerance)} [{status}]"
            )
    sink.flush()
    return 0 if all(r.passed for r in reports) else 2


def cmd_oracle(args) -> int:
    cfg = _merge_config(args)
    params = _params(cfg)
    field = StefanField.from_params(params, cfg["tol"])
    config = oracle_mod.OracleConfig(
        n_xi=args.n_xi,
        t0=args.t0,
        t_end=args.t_end,
        dt=args.dt,
        seed_mode="closed_form" if args.seed == "closed" else "linear_profile",
        s0=args.s0,
    )
    result = oracle_mod.solve(config, params)
    report = oracle_mod.compare_to_closed_form(result, field)
    sink = _Sink(args.out)
    if args.out:
        result.to_csv(args.out)
        sink = _Sink(None)
    summary = {
        "gamma_estimate": result.gamma_estimate,
        "gamma_exact": field.gamma.gamma,
        "steps": result.steps,
        "max_cfl": result.max_cfl,
        "max_principle_violations": result.max_principle_violations,
        **report.details,
    }
    if args.json:
        sink.write(json.dumps(summary, sort_keys=True))
    else:
        for key in sorted(summary):
            sink.write(f"{key} = {fmt(summary[key])}")
    sink.flush()
    return 0


def cmd_sweep(args) -> int:
    cfg = _merge_config(args)
    q_values = _parse_range(args.q_range) if args.q_range else [cfg["q"]]
    l0_values = _parse_range(args.l0_range) if args.l0_range else [cfg["l0"]]
    tm0_values = _parse_range(args.tm0_range) if args.tm0_range else [cfg["tm0"]]
    cells = [
        (q, l0, tm0) for q in q_values for l0 in l0_values for tm0 in tm0_values
    ]

    def solve_cell(cell):
        q, l0, tm0 = cell
        params = PhysicalParams(q=q, l0=l0, tm0=tm0, delta=cfg["delta"])
        root = solve_gamma(params, cfg["tol"])
        return (q, l0, tm0, root.gamma, root.residual, physical_margin(params, root.gamma))

    rows = [solve_cell(cell) for cell in cells]
    sink = _Sink(args.out)
    _emit_rows(sink, ["q", "l0", "tm0", "gamma", "residual", "margin"], rows, args.json)
    sink.flush()
    return 0


COMMANDS = {
    "gamma": cmd_gamma,
    "eval": cmd_eval,
    "verify": cmd_verify,
    "oracle": cmd_oracle,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return COMMANDS[args.command](args)
    except InvalidParameters as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (StefanError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
