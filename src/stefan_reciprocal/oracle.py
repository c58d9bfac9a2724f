"""Independent front-fixing cross-check of the closed-form solution.

The moving domain 0 <= y <= S(t) is immobilized by xi = y/S(t), turning the
heat equation into an advection-diffusion equation on the unit interval:

    u_t = u_xixi / S^2 + xi*(dS/dt / S) * u_xi

with u_xi(0,t) = -q*S(t) (flux face), u(1,t) = tm0*sqrt(t) (melt face) and
the front advanced by the energy balance dS/dt = -u_xi(1,t)/(S*l0*sqrt(t)).

Diffusion is integrated implicitly (tridiagonal solve, unconditionally
stable); the advective front coupling is explicit with its CFL-like bound
checked every step.  The march starts at t0 > 0 because the immobilized
system is singular at S(0) = 0.  Two seeding modes separate consistency
checking (closed_form) from independence (linear_profile, which satisfies
both face conditions at t0 and relaxes onto the similarity solution).

None of this uses the closed form beyond optional seeding, so the recovered
front coefficient S_num(t)/(2*sqrt(t)) is an independent check of gamma.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameters, NonmonotoneFront, StabilityViolation, StefanError
from .similarity import PhysicalParams, StefanField
from .verify import ResidualReport, _reduce

SEED_MODES = ("closed_form", "linear_profile")

#: Largest march accepted, in time steps ceil((t_end - t0)/dt).
MAX_STEPS = 10**8


@dataclass(frozen=True)
class OracleConfig:
    n_xi: int = 256  # spatial intervals on the fixed domain
    t0: float = 0.1
    t_end: float = 1.0
    dt: float = 2e-4  # requested step; shrunk to divide t_end - t0 exactly
    seed_mode: str = "closed_form"
    s0: float = 0.05  # initial front for linear_profile seeding
    n_snapshots: int = 11

    def __post_init__(self):
        for name in ("t0", "t_end", "dt", "s0"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InvalidParameters(f"{name} must be finite, got {value}")
        if self.n_xi < 32:
            raise InvalidParameters("n_xi must be >= 32")
        if not (self.t0 > 0 and self.t_end > self.t0):
            raise InvalidParameters("need 0 < t0 < t_end")
        if not self.dt > 0:
            raise InvalidParameters("dt must be > 0")
        steps = (self.t_end - self.t0) / self.dt
        if steps > MAX_STEPS:
            raise InvalidParameters(
                f"(t_end - t0)/dt = {steps:.6g} steps exceeds MAX_STEPS = {MAX_STEPS}"
            )
        if self.seed_mode not in SEED_MODES:
            raise InvalidParameters(f"seed_mode must be one of {SEED_MODES}")
        if self.seed_mode == "linear_profile" and not self.s0 > 0:
            raise InvalidParameters("s0 must be > 0 for linear_profile seeding")
        if self.n_snapshots < 2:
            raise InvalidParameters("n_snapshots must be >= 2")


@dataclass
class OracleResult:
    config: OracleConfig
    xi: np.ndarray
    times: np.ndarray  # snapshot times
    fronts: np.ndarray  # S_num at snapshot times
    snapshots: np.ndarray  # temperatures, shape (n_snapshots, n_xi + 1)
    gamma_estimate: float  # S_num(t_end) / (2*sqrt(t_end))
    steps: int
    effective_dt: float
    max_cfl: float
    max_principle_violations: int

    def to_csv(self, path) -> None:
        """Write snapshot rows t, xi, y, T_num, S_num."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,xi,y,T_num,S_num\n")
            for t, s, u in zip(self.times, self.fronts, self.snapshots):
                for x, uval in zip(self.xi, u):
                    fh.write(
                        ",".join(
                            format(v, ".17g") for v in (t, x, x * s, uval, s)
                        )
                        + "\n"
                    )


def solve(config: OracleConfig, params: PhysicalParams) -> OracleResult:
    """March the immobilized system from t0 to t_end.

    Each step calls LAPACK gtsv on buffers that it overwrites in place: the
    three diagonals are refilled every step, and the two temperature
    buffers swap roles.
    """
    # scipy.linalg takes ~0.3 s to import and only the march needs it.
    from scipy.linalg.lapack import dgtsv

    n = config.n_xi
    dxi = 1.0 / n
    xi = np.linspace(0.0, 1.0, n + 1)
    q, l0, tm0 = params.q, params.l0, params.tm0

    if config.seed_mode == "closed_form":
        seed_field = StefanField.from_params(params)
        front = seed_field.free_boundary(config.t0)
        u = seed_field.temperature(xi * front, config.t0)
    else:
        front = config.s0
        u = tm0 * math.sqrt(config.t0) + q * config.s0 * (1.0 - xi)

    span = config.t_end - config.t0
    steps = max(1, int(math.ceil(span / config.dt - 1e-12)))
    dt = span / steps
    snap_at = set(
        np.round(np.linspace(0, steps, config.n_snapshots)).astype(int).tolist()
    )

    times, fronts, snaps = [config.t0], [front], [u.copy()]
    t = config.t0
    max_cfl = 0.0
    violations = 0
    diag = np.empty(n)
    upper = np.empty(n - 1)
    lower = np.empty(n - 1)
    u_new = np.empty(n + 1)
    u_min, u_max = u.min(), u.max()

    for k in range(steps):
        grad_front = (3.0 * u[n] - 4.0 * u[n - 1] + u[n - 2]) / (2.0 * dxi)
        s_dot = -grad_front / (front * l0 * math.sqrt(t))
        cfl = abs(s_dot) / front * dt / dxi
        max_cfl = max(max_cfl, cfl)
        if not cfl <= 1.0:
            raise StabilityViolation(
                f"advective CFL {cfl:.3f} > 1 at t={t:.6g}; reduce dt"
            )
        front_new = front + dt * s_dot
        if front_new <= front:
            raise NonmonotoneFront(f"front stalled at t={t:.6g}")

        # gtsv overwrites the right-hand side with the solution, so the
        # interior of u_new starts as the right-hand side.
        rhs = u_new[:n]
        rhs[:] = u[:n]
        rhs[1:] += dt * (xi[1:n] * s_dot / front) * (u[2 : n + 1] - u[: n - 1]) / (
            2.0 * dxi
        )

        t_new = t + dt
        dirichlet = tm0 * math.sqrt(t_new)
        r = dt / (front_new * front_new * dxi * dxi)
        diag.fill(1.0 + 2.0 * r)
        upper.fill(-r)
        lower.fill(-r)
        upper[0] = -2.0 * r
        rhs[0] += 2.0 * r * dxi * q * front_new
        rhs[n - 1] += r * dirichlet
        info = dgtsv(
            lower, diag, upper, rhs,
            overwrite_dl=True, overwrite_d=True, overwrite_du=True, overwrite_b=True,
        )[4]
        if info != 0:
            raise StefanError(
                f"tridiagonal solve failed (gtsv info={info}) at t={t_new:.6g}"
            )
        u_new[n] = dirichlet

        inner_min, inner_max = u_new[1:n].min(), u_new[1:n].max()
        if not (math.isfinite(inner_min) and math.isfinite(inner_max)
                and math.isfinite(u_new[0])):
            raise StefanError(f"non-finite temperature at t={t_new:.6g}")
        lo = min(u_min, dirichlet, u_new[0])
        hi = max(u_max, dirichlet, u_new[0])
        tol = 1e-10 * (1.0 + abs(hi))
        if inner_min < lo - tol or inner_max > hi + tol:
            violations += 1

        u_min = min(inner_min, u_new[0], dirichlet)
        u_max = max(inner_max, u_new[0], dirichlet)
        u, u_new = u_new, u
        front, t = front_new, t_new
        if k + 1 in snap_at:
            times.append(t)
            fronts.append(front)
            snaps.append(u.copy())

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
        effective_dt=dt,
        max_cfl=max_cfl,
        max_principle_violations=violations,
    )


def compare_to_closed_form(result: OracleResult, field: StefanField) -> ResidualReport:
    """Max/L2 temperature error and front error against the closed form.

    The exact temperature is evaluated on the numerical grid y = xi*S_num(t)
    without the domain clamp, since the numerical front may overshoot S(t)
    slightly.
    """
    t_errs = []
    front_errs = []
    for t, s, u in zip(result.times, result.fronts, result.snapshots):
        exact = field.temperature(result.xi * s, t, check_domain=False)
        t_errs.append(u - exact)
        front_errs.append(s - field.free_boundary(t))
    t_errs = np.array(t_errs)
    front_errs = np.array(front_errs)
    report = _reduce("oracle-vs-closed-form", t_errs, 5e-4)
    report.details = {
        "T_max": float(np.max(np.abs(t_errs))),
        "T_l2": float(np.sqrt(np.mean(t_errs * t_errs))),
        "front_max": float(np.max(np.abs(front_errs))),
        "gamma_error": float(abs(result.gamma_estimate - field.gamma.gamma)),
    }
    return report
