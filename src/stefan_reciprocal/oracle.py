"""Independent front-fixing cross-check of the closed-form solution.

The moving domain 0 <= y <= S(t) is immobilized by xi = y/S(t), turning the
heat equation into an advection-diffusion equation on the unit interval:

    u_t = u_xixi / S^2 + xi*(dS/dt / S) * u_xi

with u_xi(0,t) = -q*S(t) (flux face), u(1,t) = tm0*sqrt(t) (melt face) and
the front advanced by the energy balance dS/dt = -u_xi(1,t)/(S*l0*sqrt(t)).

Diffusion is integrated implicitly (backward Euler, unconditionally
stable).  With r = dt/(S*dxi)^2 its rows are -r, 1 + 2r, -r; the flux-face
row, whose ghost node gives 1 + 2r, -2r, is halved to 0.5 + r, -r, so the
system is symmetric and strictly diagonally dominant with a positive
diagonal, hence positive definite for every r > 0, and LAPACK ptsv solves
it.  The advective front coupling is explicit, one coefficient
dt*(dS/dt)/S per step times the fixed xi/(2*dxi), with its CFL-like bound
checked every step.  The march starts at t0 > 0 because the immobilized
system is singular at S(0) = 0.  Two seeding modes separate consistency
checking (closed_form) from independence (linear_profile, which satisfies
both face conditions at t0 and relaxes onto the similarity solution).

None of this uses the closed form beyond optional seeding, so the recovered
front coefficient S_num(t)/(2*sqrt(t)) is an independent check of gamma.
"""

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
import warnings
from collections import namedtuple

import numpy as np

from .errors import InvalidParameters, NonmonotoneFront, StabilityViolation, StefanError
from .roots import _check_ints, _check_reals, _Checked
from .similarity import StefanField

SEED_MODES = ("closed_form", "linear_profile")

#: Largest march accepted, in time steps ceil((t_end - t0)/dt).
MAX_STEPS = 10**8
#: Snapshots kept, evenly spaced in steps from t0 to t_end inclusive; a march
#: of fewer than N_SNAPSHOTS - 1 steps keeps one per step and t0.
N_SNAPSHOTS = 11
#: Steps whose temperatures are checked together, for finiteness and the
#: discrete maximum principle.
BLOCK = 64


class OracleConfig(_Checked, namedtuple("OracleConfig", "n_xi t0 t_end dt seed_mode s0")):
    """A march: n_xi spatial intervals on the fixed domain, from t0 to t_end in steps of
    about dt (shrunk to divide t_end - t0 exactly), seeded by seed_mode, where
    linear_profile seeding starts the front at s0."""

    __slots__ = ()

    def __new__(cls, n_xi=256, t0=0.1, t_end=1.0, dt=2e-4, seed_mode="closed_form", s0=0.05):
        self = super().__new__(cls, n_xi, t0, t_end, dt, seed_mode, s0)
        _check_reals(self, ("t0", "t_end", "dt", "s0"))
        _check_ints(self, ("n_xi",))
        if n_xi < 32:
            raise InvalidParameters("n_xi must be >= 32")
        if not (t0 > 0 and t_end > t0):
            raise InvalidParameters("need 0 < t0 < t_end")
        if not dt > 0:
            raise InvalidParameters("dt must be > 0")
        steps = (t_end - t0) / dt
        if steps > MAX_STEPS:
            raise InvalidParameters(
                f"(t_end - t0)/dt = {steps:.6g} steps exceeds MAX_STEPS = {MAX_STEPS}"
            )
        if seed_mode not in SEED_MODES:
            raise InvalidParameters(f"seed_mode must be one of {SEED_MODES}")
        if seed_mode == "linear_profile" and not s0 > 0:
            raise InvalidParameters("s0 must be > 0 for linear_profile seeding")
        return self


class OracleResult(namedtuple("OracleResult", "config xi times fronts snapshots gamma_estimate "
                                               "steps max_cfl max_principle_violations")):
    """A march's grid xi and, at each snapshot time, the front S_num and the row of u;
    gamma_estimate = S_num(t_end)/(2*sqrt(t_end))."""

    __slots__ = ()

    def to_csv(self, path) -> None:
        """Write snapshot rows t, xi, y, T_num, S_num."""
        n = len(self.xi)
        columns = (np.repeat(self.times, n), np.tile(self.xi, len(self.times)),
                   np.outer(self.fronts, self.xi), self.snapshots, np.repeat(self.fronts, n))
        np.savetxt(path, np.column_stack([np.ravel(c) for c in columns]), fmt="%.17g",
                   delimiter=",", header="t,xi,y,T_num,S_num", comments="")


def _check_steps(rows, times, bounds):
    """Check consecutive march steps, one row of ``rows`` and time per step.

    Raises StefanError at the first step that is not finite.  Else returns
    the number of steps with a value more than tol = 1e-10*(1 + |hi|)
    outside [lo, hi], the bounds of the previous step's values and this
    step's boundary values (the discrete maximum principle), and the last
    step's (min, max); ``bounds`` is that of the step before the first row.
    """
    step_min, step_max = rows.min(axis=1), rows.max(axis=1)
    finite = np.isfinite(step_min) & np.isfinite(step_max)
    if not finite.all():
        raise StefanError(f"non-finite temperature at t={times[finite.argmin()]:.6g}")
    prev_min = np.concatenate(([bounds[0]], step_min))
    prev_max = np.concatenate(([bounds[1]], step_max))
    face, melt = rows[:, 0], rows[:, -1]
    lo = np.minimum(np.minimum(prev_min[:-1], melt), face)
    hi = np.maximum(np.maximum(prev_max[:-1], melt), face)
    tol = 1e-10 * (1.0 + np.abs(hi))
    # The boundary values lie in [lo, hi], so a row's extremes test its interior.
    broken = (step_min < lo - tol) | (step_max > hi + tol)
    return int(np.count_nonzero(broken)), (prev_min[-1], prev_max[-1])


@functools.cache
def _dptsv():
    """LAPACK dptsv, loaded from scipy's f2py extension ``scipy.linalg._flapack``.

    Importing ``scipy.linalg`` takes ~0.3 s, loading this one file ~10 ms.
    ``find_spec("scipy")`` locates scipy without running its ``__init__``.
    The module is registered under its own name, so a later
    ``import scipy.linalg`` reuses it.  Where the file is not found, this
    falls back to the public import.
    """
    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        spec = importlib.util.find_spec("scipy")
        paths = [
            os.path.join(root, "linalg", "_flapack" + suffix)
            for root in (spec.submodule_search_locations if spec else None) or ()
            for suffix in importlib.machinery.EXTENSION_SUFFIXES
        ]
        path = next(filter(os.path.isfile, paths), None)
        if path is None:
            from scipy.linalg.lapack import dptsv

            return dptsv
        loader = importlib.machinery.ExtensionFileLoader(name, path)
        module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
        loader.exec_module(module)
        sys.modules[name] = module
    return sys.modules[name].dptsv


def solve(config: OracleConfig, field: StefanField) -> OracleResult:
    """March the immobilized system from t0 to t_end.

    q, l0 and tm0 come from ``field.params``; the closed_form seed is
    ``field``'s own temperature, at its gamma.  The march keeps one
    temperature array u of n_xi + 1 values.  Each step adds the advection
    term xi_h*(dt*s_dot/S)*(u[2:] - u[:-2]), xi_h = xi/(2*dxi), to the
    interior, then LAPACK ptsv (``_dptsv``) overwrites u[:n_xi] with the
    implicit solve, whose flux-face row 0.5 + r, -r | 0.5*u[0] + r*dxi*q*S
    is exactly half of the unhalved row (module docstring), and u[n_xi]
    takes the melt-face value.  The diagonals and the advection term are
    preallocated and refilled, so a step allocates no array.

    Finiteness and the discrete maximum principle are checked on blocks of
    BLOCK steps' copies of u, at the end of the march, and before any march
    error is raised, so the first non-finite step is the one reported.
    """
    dptsv = _dptsv()
    n = config.n_xi
    dxi = 1.0 / n
    two_dxi = 2.0 * dxi
    xi = np.linspace(0.0, 1.0, n + 1)
    q, l0, tm0 = field.params.q, field.params.l0, field.params.tm0

    if config.seed_mode == "closed_form":
        front = field.free_boundary(config.t0)
        u = field.temperature(xi * front, config.t0)
    else:
        front = config.s0
        u = tm0 * math.sqrt(config.t0) + q * config.s0 * (1.0 - xi)

    span = config.t_end - config.t0
    steps = max(1, int(math.ceil(span / config.dt - 1e-12)))
    dt = span / steps
    snap_at = set(np.round(np.linspace(0, steps, N_SNAPSHOTS)).astype(int).tolist())

    times, fronts, snaps = [config.t0], [front], [u.copy()]
    t, sqrt_t = config.t0, math.sqrt(config.t0)
    max_cfl = 0.0
    violations = 0
    diag, off_diag = np.empty(n), np.empty(n - 1)
    advect, du = np.empty(n - 1), np.empty(n - 1)
    xi_h = xi[1:n] / two_dxi
    # ptsv's right-hand side and solution, the interior, the centred-difference pair
    head, inner, up, down = u[:n], u[1:n], u[2:], u[: n - 1]
    # The last BLOCK steps' temperatures and end times, checked together
    rows, row_t = np.empty((BLOCK, n + 1)), np.empty(BLOCK)
    bounds = (u.min(), u.max())
    item, sqrt = u.item, math.sqrt

    try:
        for start in range(0, steps, BLOCK):
            for k in range(start, min(start + BLOCK, steps)):
                grad_front = (3.0 * item(n) - 4.0 * item(n - 1) + item(n - 2)) / two_dxi
                s_dot = -grad_front / (front * l0 * sqrt_t)
                cfl = abs(s_dot) / front * dt / dxi
                if cfl > max_cfl:
                    max_cfl = cfl
                if not cfl <= 1.0:
                    raise StabilityViolation(
                        f"advective CFL {cfl:.3f} > 1 at t={t:.6g}; reduce dt"
                    )
                front_new = front + dt * s_dot
                if front_new <= front:
                    raise NonmonotoneFront(f"front stalled at t={t:.6g}")

                # The centred difference reads u before the step writes to it.
                np.subtract(up, down, du)
                np.multiply(xi_h, dt * s_dot / front, advect)
                np.multiply(advect, du, advect)
                np.add(inner, advect, inner)

                t_new = t + dt
                sqrt_t = sqrt(t_new)
                dirichlet = tm0 * sqrt_t
                r = dt / (front_new * front_new * dxi * dxi)
                diag.fill(1.0 + 2.0 * r)
                diag[0] = 0.5 + r
                off_diag.fill(-r)
                u[0] = 0.5 * item(0) + r * dxi * q * front_new
                u[n - 1] = item(n - 1) + r * dirichlet
                info = dptsv(diag, off_diag, head, 1, 1, 1)[3]
                if info != 0:
                    raise StefanError(
                        f"tridiagonal solve failed (ptsv info={info}) at t={t_new:.6g}"
                    )
                u[n] = dirichlet

                rows[k - start] = u
                row_t[k - start] = t_new
                front, t = front_new, t_new
                if k + 1 in snap_at:
                    times.append(t)
                    fronts.append(front)
                    snaps.append(u.copy())
            count, bounds = _check_steps(rows[: k + 1 - start], row_t[: k + 1 - start], bounds)
            violations += count
    except StefanError:
        # A non-finite step earlier in the block is the first fault.
        _check_steps(rows[: k - start], row_t[: k - start], bounds)
        raise

    if violations:
        warnings.warn(
            f"discrete maximum principle violated on {violations} steps",
            RuntimeWarning,
            stacklevel=2,
        )

    return OracleResult(
        config=config,
        xi=xi,
        times=np.array(times),
        fronts=np.array(fronts),
        snapshots=np.array(snaps),
        gamma_estimate=front / (2.0 * math.sqrt(t)),
        steps=steps,
        max_cfl=max_cfl,
        max_principle_violations=violations,
    )


class Comparison(namedtuple("Comparison", "T_max T_l2 front_max gamma_error")):
    """A march's errors against the closed form: max and RMS of T's, max of S's, gamma's."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.T_max <= 5e-4


def compare_to_closed_form(result: OracleResult, field: StefanField) -> Comparison:
    """Max/RMS temperature error, front error and gamma error against the closed form.

    The exact temperature is the profile, evaluated in one call on the
    numerical grids y = xi*S_num(t) of all snapshots, one row per snapshot
    time.  It is the unchecked profile because the numerical front may
    overshoot S(t) slightly; every snapshot time is at least
    OracleConfig.t0 > 0.
    """
    times, fronts = result.times, result.fronts
    t_errs = result.snapshots - field.profile(result.xi * fronts[:, None], times[:, None])[0]
    front_errs = fronts - field.free_boundary(times)
    return Comparison(
        T_max=float(np.max(np.abs(t_errs))),
        T_l2=float(np.sqrt(np.mean(t_errs * t_errs))),
        front_max=float(np.max(np.abs(front_errs))),
        gamma_error=float(abs(result.gamma_estimate - field.gamma.gamma)),
    )
