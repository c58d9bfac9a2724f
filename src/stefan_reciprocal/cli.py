"""Command-line surface: gamma | eval | verify | oracle | sweep.

Exit codes: 0 success (and all identities passing for `verify`);
1 invalid input (parameter invariants, parameters whose x* is not monotone
in y, malformed flags);
2 numerical failure (no sign change, quadrature failure, instability).

Output is deterministic: floats are printed with 17 significant digits and
sweep cells are written in parameter order.

A subcommand imports the layers it uses when it runs: gamma and sweep need
only similarity, eval adds transform, verify adds verify, and oracle adds
oracle (whose report class comes from verify).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import re
import sys

import numpy as np

from .errors import InvalidParameters, NotMonotone, StefanError
from .similarity import PhysicalParams, StefanField, physical_margin, solve_gamma, solve_gammas

DEFAULTS = {"q": 1.0, "l0": 1.0, "tm0": 0.5, "delta": 1.0}

#: The OracleConfig.seed_mode of each --seed value.
SEED_MODES = {"closed": "closed_form", "linear": "linear_profile"}


def fmt(value) -> str:
    return format(float(value), ".17g")


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 1.

    A value that starts with '-' and a digit or '.', or is -inf, -infinity
    or -nan in any case, is a value, not a flag.  This replaces argparse's
    private `_negative_number_matcher`, because the default pattern of some
    Python releases (3.11's is `^-\\d+$|^-\\d*\\.\\d+$`) rejects exponent
    notation and -inf, so `--tm0 -1e-3`, `--tm0-range -1e-3:0.5:3` and
    `--tm0 -inf` would fail there.  The override can go once every supported
    Python's argparse reads these as values; a rename is caught by
    test_negative_values_in_exponent_notation and test_negative_non_finite_values.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"-\.?\d|-(?:inf(?:inity)?|nan)$", re.IGNORECASE
        )

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_range(text: str):
    """Parse lo:hi:n into a linspace."""
    parts = text.split(":")
    if len(parts) != 3:
        raise InvalidParameters(f"expected lo:hi:n, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise InvalidParameters(
            f"expected numbers lo:hi and an integer n, got {text!r}"
        ) from None
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

    # A verify or oracle flag that is not given stays unset (SUPPRESS), and
    # GridSpec or OracleConfig supplies its default: see _grid_spec and _oracle_config.
    unset = argparse.SUPPRESS
    p_verify = sub.add_parser("verify", help="run the identity verification suite")
    add_common(p_verify)
    p_verify.add_argument("--grid", type=str, default=unset)
    p_verify.add_argument("--margin", type=float, default=unset)

    p_oracle = sub.add_parser("oracle", help="front-fixing cross-check")
    add_common(p_oracle)
    p_oracle.add_argument("--n-xi", type=int, default=unset)
    p_oracle.add_argument("--t0", type=float, default=unset)
    p_oracle.add_argument("--t-end", type=float, default=unset)
    p_oracle.add_argument("--dt", type=float, default=unset)
    p_oracle.add_argument("--seed", choices=list(SEED_MODES), default=unset)
    p_oracle.add_argument("--s0", type=float, default=unset)

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
        if not isinstance(loaded, dict):
            raise InvalidParameters("config file must hold a JSON object")
        unknown = set(loaded) - set(DEFAULTS)
        if unknown:
            raise InvalidParameters(f"unknown config keys: {sorted(unknown)}")
        for key, value in loaded.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise InvalidParameters(
                    f"config value of {key} must be a number, got {value!r}"
                )
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
    root = solve_gamma(params)
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
    from .transform import PsiField

    cfg = _merge_config(args)
    params = _params(cfg)
    field = StefanField.from_params(params)
    psi_field = PsiField(field)
    t = args.t
    if not math.isfinite(t):
        raise InvalidParameters(f"t must be finite, got {t}")
    if args.n < 1:
        raise InvalidParameters(f"n must be >= 1, got {args.n}")
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
            rows = np.column_stack((t_values, psi_field.h_of_t(t_values)))
        else:
            header = ["t", "S", "X0", "X1"]
            rows = np.column_stack(
                (
                    t_values,
                    field.free_boundary(t_values),
                    psi_field.x0(t_values),
                    psi_field.x1(t_values),
                )
            )
    _emit_rows(sink, header, rows, args.json)
    sink.flush()
    return 0


def _grid_spec(args):
    """The GridSpec of --grid and --margin, with GridSpec's default for a flag not given."""
    from .verify import GridSpec

    given = {}
    if hasattr(args, "grid"):
        try:
            given["n_space"], given["n_time"] = (int(v) for v in args.grid.split(","))
        except ValueError as exc:
            raise InvalidParameters(f"--grid expects n_space,n_time: {exc}") from exc
    if hasattr(args, "margin"):
        given["margin"] = args.margin
    return GridSpec(**given)


def cmd_verify(args) -> int:
    from .verify import run_verification_suite

    cfg = _merge_config(args)
    params = _params(cfg)
    field = StefanField.from_params(params)
    reports = run_verification_suite(field, grid=_grid_spec(args))
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


def _oracle_config(args):
    """The OracleConfig of the oracle flags, with OracleConfig's default for a flag not given."""
    from .oracle import OracleConfig

    given = {k: getattr(args, k) for k in ("n_xi", "t0", "t_end", "dt", "s0") if hasattr(args, k)}
    if hasattr(args, "seed"):
        given["seed_mode"] = SEED_MODES[args.seed]
    return OracleConfig(**given)


def cmd_oracle(args) -> int:
    from . import oracle

    cfg = _merge_config(args)
    field = StefanField.from_params(_params(cfg))
    result = oracle.solve(_oracle_config(args), field)
    report = oracle.compare_to_closed_form(result, field)
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
    params, invalid = [], None
    for q, l0, tm0 in itertools.product(q_values, l0_values, tm0_values):
        try:
            params.append(PhysicalParams(q=q, l0=l0, tm0=tm0, delta=cfg["delta"]))
        except InvalidParameters as exc:
            invalid = exc  # raised once the cells before it are solved, as cell by cell
            break
    roots = solve_gammas(params)
    if invalid:
        raise invalid
    rows = [(p.q, p.l0, p.tm0, r.gamma, r.residual, physical_margin(p, r.gamma))
            for p, r in zip(params, roots)]
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
    except (InvalidParameters, NotMonotone) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (StefanError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
