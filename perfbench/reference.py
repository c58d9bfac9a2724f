"""Independent reference checks of every CLI output, in 30-digit mpmath.

Nothing here imports the package under test.  The closed forms are taken
from the problem statement (README, PAPER): gamma solves
q - l0*x = (tm0/2 + l0*x^2)*exp(x^2)*sqrt(pi)*erf(x),

    T     = A*(2*sqrt(t)*exp(-xi^2) + sqrt(pi)*y*erf(xi)) - q*y,  xi = y/(2 sqrt(t))
    T_y   = A*sqrt(pi)*erf(xi) - q,   A = (q - l0*gamma)/(sqrt(pi)*erf(gamma))
    S     = 2*gamma*sqrt(t),   C = gamma*(l0 - tm0)*t
    Theta = C - integral_S^y T du,   x* = T/(delta*Theta)

and the antiderivative of T used for Theta is derived here:

    int T du = A*(2*t*sqrt(pi)*erf(xi) + sqrt(pi)*((u^2/2 - t)*erf(xi)
               + sqrt(t/pi)*u*exp(-xi^2))) - q*u^2/2.

Psi is checked through the reciprocal identity Psi * dx*/dy = 1, as 1/Psi
against the derivative of the reference x* at each printed y; 1/Psi stays
finite where T_y*Theta + T^2 changes sign and Psi itself has a pole.

``check(argv, returncode, stdout, stderr)`` classifies one invocation as

* ``ok``        - exit 0 and every printed number matches its reference;
* ``refused``   - exit 1/2 with a one-line ``error:`` message and no stdout;
* ``identity``  - ``verify`` exit 2 with well-formed records, some failing;
* ``wrong``     - anything else: a number off its reference, a malformed
  record, a traceback or an exit code that disagrees with the output.
"""

from __future__ import annotations

import json
import math
import re
from functools import lru_cache

import mpmath as mp

mp.mp.dps = 30

#: Order and names of the records `verify` prints (ResidualReport.identity).
IDENTITIES = (
    "heat-equation",
    "burgers-equation",
    "source-equation",
    "stefan-boundary-conditions",
    "burgers-boundary-conditions",
    "psi-boundary-conditions",
    "source-ratio-identity",
    "reciprocal-identity",
    "theta-consistency",
    "c-consistency",
    "boundary-consistency",
    "front-recovery",
    "inversion-roundtrip",
)

DEFAULTS = {"q": 1.0, "l0": 1.0, "tm0": 0.5, "delta": 1.0, "tol": 1e-12}

#: Tolerances, relative to the largest reference magnitude in a column: far
#: above binary64 rounding of the same closed forms, far below the error of
#: a wrong formula or a coarser algorithm.
GAMMA_RTOL = 1e-10  # every printed gamma
FIELD_RTOL = 1e-10  # T, T_y, S, X1*, margin
CHAIN_RTOL = 1e-8  # Theta, x*, X0*, 1/Psi: cancellation in C - int T
H_TOL = 1e-8  # |H*t|: H cancels to rounding for the sqrt(t) family
#: Acceptance criterion 7: closed-form seeds within 1e-3 of gamma, the
#: linear seed within 1e-2 relative, spatial order >= 1.8 over n_xi 32/64/128.
ORACLE_CLOSED_ABS = 1e-3
ORACLE_LINEAR_REL = 1e-2
ORACLE_MIN_ORDER = 1.8


class Mismatch(Exception):
    """An output that disagrees with its reference."""


def parse_argv(argv) -> dict:
    """Flags of one invocation as a dict, with the CLI's defaults filled in."""
    opts = dict(DEFAULTS, command=argv[0], json=False)
    it = iter(argv[1:])
    for flag in it:
        key = flag[2:].replace("-", "_")
        if flag == "--json":
            opts["json"] = True
        else:
            value = next(it)
            try:
                opts[key] = float(value)
            except ValueError:
                opts[key] = value
    return opts


@lru_cache(maxsize=None)
def gamma_ref(q: float, l0: float, tm0: float):
    q, l0, tm0 = mp.mpf(q), mp.mpf(l0), mp.mpf(tm0)

    def f(x):
        return q - l0 * x - (tm0 / 2 + l0 * x * x) * mp.exp(x * x) * mp.sqrt(mp.pi) * mp.erf(x)

    return mp.findroot(f, (mp.mpf(0), q / l0), solver="anderson")


class Closed:
    """The closed-form solution at one parameter point, in mpmath."""

    def __init__(self, opts):
        self.q, self.l0, self.tm0, self.delta = (
            mp.mpf(opts[k]) for k in ("q", "l0", "tm0", "delta")
        )
        self.gamma = gamma_ref(opts["q"], opts["l0"], opts["tm0"])
        self.amp = (self.q - self.l0 * self.gamma) / (mp.sqrt(mp.pi) * mp.erf(self.gamma))

    def S(self, t):
        return 2 * self.gamma * mp.sqrt(t)

    def T(self, y, t):
        xi = y / (2 * mp.sqrt(t))
        return self.amp * (
            2 * mp.sqrt(t) * mp.exp(-xi * xi) + mp.sqrt(mp.pi) * y * mp.erf(xi)
        ) - self.q * y

    def Ty(self, y, t):
        return self.amp * mp.sqrt(mp.pi) * mp.erf(y / (2 * mp.sqrt(t))) - self.q

    def _int_T(self, u, t):
        xi = u / (2 * mp.sqrt(t))
        e = mp.erf(xi)
        return self.amp * (
            2 * t * mp.sqrt(mp.pi) * e
            + mp.sqrt(mp.pi) * ((u * u / 2 - t) * e + mp.sqrt(t / mp.pi) * u * mp.exp(-xi * xi))
        ) - self.q * u * u / 2

    def theta(self, y, t):
        c = self.gamma * (self.l0 - self.tm0) * t
        return c - (self._int_T(y, t) - self._int_T(self.S(t), t))

    def xstar(self, y, t):
        return self.T(y, t) / (self.delta * self.theta(y, t))

    def x1(self, t):
        return self.tm0 * mp.sqrt(t) / (self.delta * self.gamma * (self.l0 - self.tm0) * t)

    def margin(self):
        return self.q - self.l0 * self.gamma - mp.sqrt(mp.pi) * self.tm0 / 2 * mp.erf(self.gamma)


def _close(name, got, ref, rtol, scale=None):
    scale = max(abs(float(r)) for r in ref) if scale is None else scale
    worst = max(abs(float(g - r)) for g, r in zip(got, ref))
    if not worst <= rtol * max(scale, 1e-300):
        raise Mismatch(f"{name}: max deviation {worst:.3e} > {rtol:g} x scale {scale:.3e}")


def _check_gamma(value, opts):
    _close("gamma", [value], [gamma_ref(opts["q"], opts["l0"], opts["tm0"])], GAMMA_RTOL)


def _key_values(stdout) -> dict:
    out = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def _columns(stdout, as_json) -> dict:
    """Columns of an `eval`/`sweep` table, CSV or JSON lines, by name."""
    lines = stdout.splitlines()
    if as_json:
        records = [json.loads(line) for line in lines]
        return {k: [r[k] for r in records] for k in records[0]}
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return dict(zip(header, map(list, zip(*rows))))


def _linspace(lo, hi, n):
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)] if n > 1 else [lo]


def check_gamma(opts, stdout):
    if opts["json"]:
        rec = json.loads(stdout)
        gamma, margin, condition = rec["gamma"], rec["margin"], rec["physical_condition"]
        if condition != (margin > 0):
            raise Mismatch("physical_condition disagrees with margin")
    else:
        kv = _key_values(stdout)
        gamma, margin = float(kv["gamma"]), float(kv["margin"])
    _check_gamma(gamma, opts)
    cf = Closed(opts)
    _close("margin", [margin], [cf.margin()], FIELD_RTOL, scale=max(1.0, opts["q"]))


def check_eval(opts, stdout):
    cf = Closed(opts)
    field = opts["field"]
    cols = _columns(stdout, opts["json"])
    if field in ("T", "Ty", "xstar", "theta", "psi"):
        t, n = opts.get("t", 1.0), int(opts.get("n", 101))
        s = float(cf.S(t))
        y = _linspace(0.0, s, n)
        if len(cols["xstar" if field == "psi" else "y"]) != n:
            raise Mismatch(f"expected {n} rows")
        if field == "psi":
            xs, psi = cols["xstar"], cols["psi"]
            _close("xstar", xs, [cf.xstar(yi, t) for yi in y], CHAIN_RTOL)
            slope = [mp.diff(lambda u: cf.xstar(u, t), yi) for yi in y]
            _close("1/psi against dx*/dy", [1 / p for p in psi], slope, CHAIN_RTOL)
            return
        _close("y", cols["y"], y, FIELD_RTOL)
        ref, rtol = {
            "T": (cf.T, FIELD_RTOL),
            "Ty": (cf.Ty, FIELD_RTOL),
            "xstar": (cf.xstar, CHAIN_RTOL),
            "theta": (cf.theta, CHAIN_RTOL),
        }[field]
        _close(field, cols[field], [ref(yi, t) for yi in y], rtol)
        return
    lo, hi, k = opts.get("t_range", "0.25:4:16").split(":")
    times = _linspace(float(lo), float(hi), int(k))
    _close("t", cols["t"], times, FIELD_RTOL)
    if field == "H":
        worst = max(abs(h * t) for h, t in zip(cols["H"], times))
        if not worst <= H_TOL:
            raise Mismatch(f"H: max |H*t| {worst:.3e} > {H_TOL:g}")
        return
    _close("S", cols["S"], [cf.S(t) for t in times], FIELD_RTOL)
    if field == "boundaries":
        _close("X0", cols["X0"], [cf.xstar(0, t) for t in times], CHAIN_RTOL)
        _close("X1", cols["X1"], [cf.x1(t) for t in times], FIELD_RTOL)


def check_sweep(opts, stdout):
    cols = _columns(stdout, opts["json"])
    grids = []
    for key in ("q", "l0", "tm0"):
        spec = opts.get(f"{key}_range")
        if spec is None:
            grids.append([opts[key]])
        else:
            lo, hi, k = spec.split(":")
            grids.append(_linspace(float(lo), float(hi), int(k)))
    cells = [(q, l0, tm0) for q in grids[0] for l0 in grids[1] for tm0 in grids[2]]
    if len(cols["gamma"]) != len(cells):
        raise Mismatch(f"expected {len(cells)} cells, got {len(cols['gamma'])}")
    for key, ref in zip(("q", "l0", "tm0"), zip(*cells)):
        _close(key, cols[key], ref, FIELD_RTOL)
    for q, l0, tm0, gamma in zip(cols["q"], cols["l0"], cols["tm0"], cols["gamma"]):
        _check_gamma(gamma, {"q": q, "l0": l0, "tm0": tm0})


def check_oracle(opts, stdout):
    """Summary consistency and gamma_exact against mpmath.

    Returns gamma_estimate's relative error and, when it misses criterion 7,
    why; the error is reported either way.
    """
    if opts["json"]:
        rec = json.loads(stdout)
    else:
        rec = {k: float(v) for k, v in _key_values(stdout).items()}
    _check_gamma(rec["gamma_exact"], opts)
    steps = max(1, math.ceil((opts["t_end"] - opts["t0"]) / opts["dt"] - 1e-12))
    if int(rec["steps"]) != steps:
        raise Mismatch(f"steps {rec['steps']} != {steps}")
    if not 0 < rec["max_cfl"] <= 1:
        raise Mismatch(f"max_cfl {rec['max_cfl']} outside (0, 1]")
    gamma = float(gamma_ref(opts["q"], opts["l0"], opts["tm0"]))
    err = abs(rec["gamma_estimate"] - gamma)
    if opts.get("seed") == "linear":
        if not err / gamma <= ORACLE_LINEAR_REL:
            return err / gamma, f"linear-seed gamma relative error {err / gamma:.3e} > {ORACLE_LINEAR_REL:g}"
    elif not err <= ORACLE_CLOSED_ABS:
        return err / gamma, f"gamma error {err:.3e} > {ORACLE_CLOSED_ABS:g}"
    return err / gamma, None


def check_verify(opts, returncode, stdout) -> list:
    """Parse every record; return the names of the failing identities."""
    lines = stdout.splitlines()
    if len(lines) != len(IDENTITIES):
        raise Mismatch(f"expected {len(IDENTITIES)} records, got {len(lines)}")
    failed = []
    for line, name in zip(lines, IDENTITIES):
        if opts["json"]:
            rec = json.loads(line)
            ident, passed, max_abs, tol = rec["identity"], rec["pass"], rec["max_abs"], rec["tolerance"]
        else:
            m = re.fullmatch(r"(\S+): max_abs=(\S+) l2=\S+ tol=(\S+) \[(pass|FAIL)\]", line)
            if m is None:
                raise Mismatch(f"malformed record {line!r}")
            ident, max_abs, tol = m.group(1), float(m.group(2)), float(m.group(3))
            passed = m.group(4) == "pass"
        if ident != name:
            raise Mismatch(f"record {ident!r} where {name!r} was expected")
        if passed != (max_abs <= tol):
            raise Mismatch(f"{name}: pass={passed} but max_abs={max_abs} tol={tol}")
        if not passed:
            failed.append(name)
    if returncode != (2 if failed else 0):
        raise Mismatch(f"exit code {returncode} with {len(failed)} failing identities")
    return failed


def refusal_kind(stderr: str) -> str:
    """The refusal message with its numbers masked, e.g. 'x*(., t=#) is not monotone ...'."""
    return re.sub(r"[-+]?\d[\d.e+-]*", "#", stderr.strip().splitlines()[-1][len("error: "):])


def check(argv, returncode, stdout, stderr) -> dict:
    """Classify one invocation; see the module docstring."""
    opts = parse_argv(argv)
    out = {"outcome": "ok", "identities_failed": 0, "oracle_rel_err": None}
    err_lines = stderr.strip().splitlines()
    refused = (
        returncode in (1, 2)
        and not stdout
        and err_lines
        and err_lines[-1].startswith("error: ")
        and "Traceback" not in stderr
    )
    try:
        if refused:
            out.update(outcome="refused", reason=refusal_kind(stderr))
            if opts["command"] == "verify":
                out["identities_failed"] = len(IDENTITIES)
        elif opts["command"] == "verify":
            failing = check_verify(opts, returncode, stdout)
            out["identities_failed"] = len(failing)
            if failing:
                out.update(outcome="identity", reason="FAIL " + " ".join(failing))
        elif returncode != 0:
            raise Mismatch(f"exit code {returncode}: {stderr.strip()[-300:]}")
        elif opts["command"] == "gamma":
            check_gamma(opts, stdout)
        elif opts["command"] == "eval":
            check_eval(opts, stdout)
        elif opts["command"] == "sweep":
            check_sweep(opts, stdout)
        elif opts["command"] == "oracle":
            out["oracle_rel_err"], miss = check_oracle(opts, stdout)
            if miss:
                raise Mismatch(miss)
        else:
            raise Mismatch(f"unknown command {opts['command']!r}")
    except (Mismatch, ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        out.update(outcome="wrong", reason=f"{type(exc).__name__}: {exc}")
    return out


def oracle_order(records) -> list:
    """Spatial order over each (32, 64, 128) oracle triple at one parameter point.

    ``records`` holds (argv, rel_err) for oracle invocations that passed
    their own check.  Returns (argv of the n_xi=128 run, order) per triple.
    """
    groups = {}
    for argv, rel_err in records:
        opts = parse_argv(argv)
        key = tuple(sorted((k, v) for k, v in opts.items() if k != "n_xi"))
        groups.setdefault(key, {})[int(opts["n_xi"])] = (argv, rel_err)
    out = []
    for by_n in groups.values():
        if all(n in by_n for n in (32, 64, 128)):
            errs = [by_n[n][1] for n in (32, 64, 128)]
            if min(errs) > 0:
                xs = [math.log(n) for n in (32, 64, 128)]
                ys = [math.log(e) for e in errs]
                mx, my = sum(xs) / 3, sum(ys) / 3
                slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
                    (x - mx) ** 2 for x in xs
                )
                out.append((by_n[128][0], -slope))
    return out
