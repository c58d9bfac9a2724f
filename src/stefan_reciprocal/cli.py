"""Command-line surface: gamma | eval | verify | oracle | sweep.

Every invocation takes one path.  `main` parses argv and merges the
parameters once (DEFAULTS, then --config, then the flags); the subcommand,
a function of the arguments and that merged config, returns its output
lines and exit code; `main` writes the lines once, newline-terminated, to
the file named by --out or else to stdout.  oracle is the exception: its
--out names the CSV of its snapshots (t,xi,y,T_num,S_num), which it writes
itself, and its summary lines still go to stdout.

Exit codes: 0 success (and all identities passing for `verify`);
1 invalid input (parameter invariants, parameters whose x* is not monotone
in y, malformed flags);
2 numerical failure (no sign change, quadrature failure, instability, an eval
table with a value that is not finite) or a --config file that cannot be read.

Output is deterministic: floats are printed with 17 significant digits and
sweep cells are written in parameter order.

A subcommand imports the layers it uses when it runs.  gamma and sweep need
only roots, so they load neither numpy nor inspect; eval adds forms, whose
closed forms it evaluates on floats, so it loads neither numpy nor similarity
and transform; verify adds those two and verify, and oracle adds similarity
and oracle.  Only --json and --config load json, and numbers loads only with
numpy or for a parameter that is neither an int nor a float.

FLAGS states every subcommand's flags once.  `main` reads a well-formed argv
itself from that table (`_parse_fast`): the command, then `--json` or flags
spelled as in the table, each followed by its value.  Any other argv (-h, an
abbreviation, --flag=value, a missing or bad value, a stray token) goes to
the argparse parser that `build_parser` makes of the same table, which prints
its help or its error, so argparse and gettext load only then.  The pattern of
a value that starts with '-' is compiled only for an argv that has one.

`entry`, the console script and `python -m stefan_reciprocal.cli`, ends the
process with os._exit once main has returned and stdout and stderr are
flushed, so no module teardown, last collection or atexit callback runs, or
with sys.exit where a flush fails or a tracer, a profiler or a sys.monitoring
tool such as cProfile is installed.  stdout is flushed where it is written, so
a closed stdout exits 2 with one `error: [Errno 32] Broken pipe` line, -h too.
"""

import functools
import itertools
import math
import os
import sys
from types import SimpleNamespace

from .errors import InvalidParameters, NotMonotone, StefanError
from .roots import PhysicalParams, physical_margin, solve_gamma

DEFAULTS = {"q": 1.0, "l0": 1.0, "tm0": 0.5, "delta": 1.0}

#: The OracleConfig.seed_mode of each --seed value.
SEED_MODES = {"closed": "closed_form", "linear": "linear_profile"}

#: eval's fields in --field order: (header, sampled on y in [0, S(t)] at --t rather than
#: over --t-range, the row at one sample (y, t) or t of a forms.ClosedForms f on floats).
FIELDS = {
    "T": (("y", "T"), True, lambda f, y, t: (y, f.profile(y, t)[0])),
    "Ty": (("y", "Ty"), True, lambda f, y, t: (y, f.profile(y, t)[1])),
    "S": (("t", "S"), False, lambda f, t: (t, f.front(t))),
    "xstar": (("y", "xstar"), True, lambda f, y, t: (y, f.x_star(f.parts(y, t)))),
    "psi": (("xstar", "psi"), True,
            lambda f, y, t: (f.x_star(parts := f.parts(y, t)), f.psi(parts))),
    "theta": (("y", "theta"), True, lambda f, y, t: (y, f.parts(y, t)[2])),
    "H": (("t", "H"), False, lambda f, t: (t, f.h(t))),
    "boundaries": (("t", "S", "X0", "X1"), False,
                   lambda f, t: (t, f.front(t), f.x_star(f.parts(0.0, t)), f.x1(t))),
}

#: The default of a flag that must be given; any other flag not given reads its default.
REQUIRED = object()

_COMMON = (("--q", float, None), ("--l0", float, None), ("--tm0", float, None),
           ("--delta", float, None), ("--json", bool, False), ("--out", str, None),
           ("--config", str, None))

#: Each subcommand's help line and flags in help order: (spelling, type or choices,
#: default).  A bool flag takes no value and sets True.
FLAGS = {
    "gamma": ("solve the front coefficient", _COMMON),
    "eval": ("tabulate fields", (*_COMMON, ("--field", tuple(FIELDS), REQUIRED),
                                 ("--t", float, 1.0), ("--t-range", str, "0.25:4:16"),
                                 ("--n", int, 101))),
    "verify": ("run the identity verification suite", (*_COMMON, ("--grid", str, None))),
    "oracle": ("front-fixing cross-check", (
        *_COMMON, ("--n-xi", int, None), ("--t0", float, None), ("--t-end", float, None),
        ("--dt", float, None), ("--seed", tuple(SEED_MODES), None), ("--s0", float, None))),
    "sweep": ("gamma over a parameter grid", (*_COMMON, ("--q-range", str, None),
                                              ("--l0-range", str, None),
                                              ("--tm0-range", str, None))),
}

@functools.cache
def negative_number():
    """The one compiled pattern of a token that starts with '-' and is a value, not a flag
    (see build_parser's _Parser), compiled on first use: argvs without one never compile it."""
    import re

    return re.compile(r"-\.?\d|-(?:inf(?:inity)?|nan)$", re.IGNORECASE)


def fmt(value) -> str:
    return format(float(value), ".17g")


def _linspace(lo: float, hi: float, n: int) -> list:
    """The bits of np.linspace(lo, hi, n) as a list, without numpy."""
    # numpy's arithmetic: lo + i*step, or lo + (i/div)*delta where the step
    # underflows to 0, with the last element set to hi
    div, delta = max(n - 1, 1), hi - lo
    step = delta / div
    values = [i * step + lo if step else i / div * delta + lo for i in range(n)]
    if n > 1:
        values[-1] = hi
    return values


def _parse_range(text: str) -> list:
    """Parse lo:hi:n into a list with the bits of np.linspace(lo, hi, n)."""
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
    return _linspace(lo, hi, n)


def build_parser():
    """The argparse parser of FLAGS, which reads the argv that _parse_fast leaves."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """argparse that reports usage problems with exit code 1.

        A value that starts with '-' and a digit or '.', or is -inf, -infinity
        or -nan in any case, is a value, not a flag: negative_number(), which is
        also _parse_fast's rule for such a value.  It replaces argparse's
        private `_negative_number_matcher`, because the default pattern of some
        Python releases (3.11's is `^-\\d+$|^-\\d*\\.\\d+$`) rejects exponent
        notation and -inf, so `--tm0 -1e-3`, `--tm0-range -1e-3:0.5:3` and
        `--tm0 -inf` would fail there.  The override can go once every supported
        Python's argparse reads these as values; a rename is caught by
        test_fast_path_agrees_with_argparse and test_well_formed_argv_takes_the_fast_path.
        """

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._negative_number_matcher = negative_number()

        def error(self, message):
            self.exit(1, f"{self.prog}: error: {message}\n")

        def _print_message(self, message, file=None):  # argparse's swallows OSError
            (file := file or sys.stderr).write(message)
            file.flush()

    parser = _Parser(prog="stefan-reciprocal")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, flags) in FLAGS.items():
        p = sub.add_parser(command, help=help_line)
        for flag, kind, default in flags:
            if kind is bool:
                p.add_argument(flag, action="store_true")
                continue
            checks = {"type": kind} if isinstance(kind, type) else {"choices": list(kind)}
            if default is REQUIRED:
                p.add_argument(flag, required=True, **checks)
            else:
                p.add_argument(flag, default=default, **checks)
    return parser


def _parse_fast(argv):
    """The namespace build_parser() gives a well-formed ``argv``, or None for argparse to read it.

    After the command, each token must be a bool flag or a flag followed by its value,
    spelled as in FLAGS.  A value is converted by the flag's type or checked against its
    choices, and one that starts with '-' must match negative_number(), as argparse's must.
    The last of a repeated flag wins, as in argparse.
    """
    if not argv or argv[0] not in FLAGS:
        return None
    flags = {flag: kind for flag, kind, _ in FLAGS[argv[0]][1]}
    attrs = {flag[2:].replace("-", "_"): default for flag, _, default in FLAGS[argv[0]][1]}
    tokens = iter(argv[1:])
    for token in tokens:
        if token not in flags:
            return None
        kind = flags[token]
        if kind is bool:
            value = True
        else:
            value = next(tokens, None)
            if value is None or value.startswith("-") and not negative_number().match(value):
                return None
            if isinstance(kind, type):
                try:
                    value = kind(value)
                except ValueError:
                    return None
            elif value not in kind:
                return None
        attrs[token[2:].replace("-", "_")] = value
    if any(value is REQUIRED for value in attrs.values()):
        return None
    return SimpleNamespace(command=argv[0], **attrs)


def _json():
    """The json module, imported by the first --json writer or --config reader that runs."""
    import json

    return json


def _merge_config(args) -> dict:
    merged = dict(DEFAULTS)
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = _json().load(fh)
        except ValueError as exc:  # not UTF-8, not JSON, or an int past Python's digit limit
            raise StefanError(str(exc)) from exc
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


def _json_number(value):
    """``value`` as a float, or None (JSON null) where it is not finite, which JSON cannot hold."""
    value = float(value)
    return value if math.isfinite(value) else None


def _rows(header, rows, as_json) -> list:
    """A table as CSV lines under its header, or as one JSON object per row."""
    if as_json:
        dumps = _json().dumps
        return [dumps({k: _json_number(v) for k, v in zip(header, row)}, sort_keys=True)
                for row in rows]
    return [",".join(header), *(",".join(map(fmt, row)) for row in rows)]


def cmd_gamma(args, cfg):
    params = PhysicalParams(**cfg)
    root = solve_gamma(params)
    margin = physical_margin(params, root.gamma)
    if args.json:
        record = {**root._asdict(), "margin": margin, "physical_condition": margin > 0}
        record = {k: _json_number(v) if isinstance(v, float) else v for k, v in record.items()}
        return [_json().dumps(record, sort_keys=True)], 0
    return [
        f"gamma = {fmt(root.gamma)}",
        f"residual = {fmt(root.residual)}",
        f"bracket = [{fmt(root.bracket_lo)}, {fmt(root.bracket_hi)}]",
        f"iterations = {root.iterations}",
        f"margin = {fmt(margin)}",
    ], 0


def cmd_eval(args, cfg):
    from .forms import ClosedForms, amplitude

    params = PhysicalParams(**cfg)
    gamma = solve_gamma(params).gamma
    forms = ClosedForms(params, gamma, amplitude(params, gamma))
    header, on_y, row = FIELDS[args.field]
    t = args.t
    if not math.isfinite(t):
        raise InvalidParameters(f"t must be finite, got {t}")
    if args.n < 1:
        raise InvalidParameters(f"n must be >= 1, got {args.n}")
    if on_y:
        if t <= 0:
            raise InvalidParameters("t must be > 0")
        samples = [(y, t) for y in _linspace(0.0, forms.front(t), args.n)]
    else:
        samples = [(t_value,) for t_value in _parse_range(args.t_range)]
        if any(t_value <= 0 for t_value, in samples):
            raise InvalidParameters("t-range must be positive")
    table = []
    for sample in samples:
        try:
            values = row(forms, *sample)
        except (ZeroDivisionError, OverflowError, ValueError):  # numpy gives an inf or a nan
            values = (math.nan,)
        if not all(map(math.isfinite, values)):
            at = f"t={fmt(sample[-1])}" + (f", y={fmt(sample[0])}" if on_y else "")
            raise StefanError(f"{args.field} is not finite at {at}")
        table.append(values)
    return _rows(header, table, args.json), 0


def _grid_spec(args):
    """The GridSpec of --grid, with GridSpec's default when the flag is not given."""
    from .verify import GridSpec

    given = {}
    if args.grid is not None:
        try:
            given["n_space"], given["n_time"] = (int(v) for v in args.grid.split(","))
        except ValueError as exc:
            raise InvalidParameters(f"--grid expects n_space,n_time: {exc}") from exc
    return GridSpec(**given)


def cmd_verify(args, cfg):
    import numpy as np

    from .similarity import StefanField
    from .verify import run_verification_suite

    field = StefanField.from_params(PhysicalParams(**cfg))
    # an overflowed residual prints as nan or fails its quadrature; numpy's warnings add nothing
    with np.errstate(all="ignore"):
        reports = run_verification_suite(field, grid=_grid_spec(args))
    if args.json:
        lines = [rep.to_json() for rep in reports]
    else:
        lines = [
            f"{rep.identity}: max_abs={fmt(rep.max_abs)} l2={fmt(rep.l2)} "
            f"tol={fmt(rep.tolerance)} [{'pass' if rep.passed else 'FAIL'}]"
            for rep in reports
        ]
    return lines, 0 if all(r.passed for r in reports) else 2


def _oracle_config(args):
    """The OracleConfig of the oracle flags, with OracleConfig's default for a flag not given."""
    from .oracle import OracleConfig

    given = dict(vars(args), seed_mode=SEED_MODES.get(args.seed))
    return OracleConfig(**{k: given[k] for k in OracleConfig._fields if given[k] is not None})


def cmd_oracle(args, cfg):
    """The summary lines; --out names the snapshot CSV, written here."""
    from . import oracle
    from .similarity import StefanField

    field = StefanField.from_params(PhysicalParams(**cfg))
    result = oracle.solve(_oracle_config(args), field)
    report = oracle.compare_to_closed_form(result, field)
    if args.out:
        result.to_csv(args.out)
    summary = {
        "gamma_estimate": result.gamma_estimate,
        "gamma_exact": field.gamma.gamma,
        "steps": result.steps,
        "max_cfl": result.max_cfl,
        "max_principle_violations": result.max_principle_violations,
        **report._asdict(),
    }
    if args.json:
        return [_json().dumps(summary, sort_keys=True)], 0
    return [f"{key} = {fmt(summary[key])}" for key in sorted(summary)], 0


def cmd_sweep(args, cfg):
    # the base parameters are not checked: a range may override them
    q_values = _parse_range(args.q_range) if args.q_range else [cfg["q"]]
    l0_values = _parse_range(args.l0_range) if args.l0_range else [cfg["l0"]]
    tm0_values = _parse_range(args.tm0_range) if args.tm0_range else [cfg["tm0"]]
    rows = []
    for q, l0, tm0 in itertools.product(q_values, l0_values, tm0_values):
        params = PhysicalParams(q=q, l0=l0, tm0=tm0, delta=cfg["delta"])
        root = solve_gamma(params)
        rows.append((q, l0, tm0, root.gamma, root.residual, physical_margin(params, root.gamma)))
    return _rows(["q", "l0", "tm0", "gamma", "residual", "margin"], rows, args.json), 0


COMMANDS = {
    "gamma": cmd_gamma,
    "eval": cmd_eval,
    "verify": cmd_verify,
    "oracle": cmd_oracle,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_fast(argv)
        if args is None:
            try:
                args = build_parser().parse_args(argv)
            except SystemExit as exc:
                return int(exc.code or 0)
        lines, code = COMMANDS[args.command](args, _merge_config(args))
        text = "".join(line + "\n" for line in lines)
        # oracle's --out is its snapshot CSV, so its summary goes to stdout
        if args.out and args.command != "oracle":
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
        return code
    except (InvalidParameters, NotMonotone) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (StefanError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):  # stdout's reader is gone: the rest goes nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    """The console script: main, then os._exit or sys.exit as the module docstring says."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:  # a closed pipe, a closed or missing stream
        sys.exit(code)
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12+; tool ids are 0-5
    if sys.gettrace() or sys.getprofile() or monitoring and any(map(monitoring.get_tool, range(6))):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    entry()
