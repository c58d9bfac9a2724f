"""Finite-difference and quadrature verification of the governing identities.

Every check here recomputes derivatives independently (centered stencils in
the interior, one-sided O(h^3) stencils at boundaries, adaptive quadrature
for integrals) and reduces the pointwise residuals to max/L2 norms.  Grids
avoid the domain edges by a relative margin so centered stencils never leave
the phase region; boundary conditions are checked separately at the exact
boundary points.

Time derivatives of T, x* and Psi are taken at fixed fractional position
s = y/S(t) and corrected by the advective term s*dS/dt*(d/dy).  The Psi
equation and the Psi boundary slopes are written on the forward map (y, t)
through dx*/dy = 1/Psi, so only the front recovery and the inversion round
trip invert x*.  Every identity evaluates all its times at once: one call per
stencil row or sampled quantity, and one quadrature call per integral.

The protocol is fixed.  Boundary and consistency identities are sampled at
:data:`T_SAMPLES`, the grid spans the first to the last of them, quadratures
use :data:`QUAD_TOL`, and the improper time integrals (the X0* identity and
the flux ratio) start at :data:`T0`.  Each identity's tolerance is written
once, at its reduction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .errors import InvalidParameters, QuadratureFailure
from .similarity import StefanField
from .transform import (
    QUAD_TOL,
    PsiField,
    c_of_t_general,
    compute_boundary_coefficients,
    quad_batch,
    theta_quadrature,
)

#: Times at which the boundary and consistency identities are sampled.
T_SAMPLES = (0.25, 1.0, 4.0)
_TIMES = np.array(T_SAMPLES)

#: libm's exp and log on arrays: numpy's differ from them in the last bit on some arguments.
_exp = np.vectorize(math.exp, otypes=[float])
_log = np.vectorize(math.log, otypes=[float])

#: Lower end of the improper time integrals, which scale like 1/t near 0.
T0 = 1e-8

#: Steps of the boundary slopes as fractions of S(t), halving from S/4, where
#: the 5-point stencil spans [0, S(t)], to 2^-26 ~ sqrt(eps), below which
#: rounding costs a first difference half its digits.
SLOPE_STEPS = 2.0 ** -np.arange(2.0, 27.0)


@dataclass(frozen=True)
class GridSpec:
    """Interior verification grid.

    Space is parameterized by the fraction s = y/S(t) (or the analogous
    fraction of the x* interval), restricted to [margin, 1-margin]; time
    by n_time points spanning T_SAMPLES.  fd_step is the relative step of
    the space stencils; time stencils use fd_step/10 relative to t.
    """

    n_space: int = 50
    n_time: int = 5
    margin: float = 0.02
    fd_step: float = 1e-4

    def __post_init__(self):
        if self.n_space < 8:
            raise InvalidParameters("n_space must be >= 8")
        if self.n_time < 1:
            raise InvalidParameters("n_time must be >= 1")
        if not (0.0 < self.margin < 0.5):
            raise InvalidParameters("margin must lie in (0, 0.5)")
        if not (0.0 < self.fd_step < self.margin / 2.0):
            raise InvalidParameters("fd_step must lie in (0, margin/2)")

    @property
    def step_t(self) -> float:
        return self.fd_step * 0.1

    def times(self) -> np.ndarray:
        return np.linspace(T_SAMPLES[0], T_SAMPLES[-1], self.n_time)

    def fractions(self) -> np.ndarray:
        return np.linspace(self.margin, 1.0 - self.margin, self.n_space)

    def as_dict(self) -> dict:
        return {
            "n_space": self.n_space,
            "n_time": self.n_time,
            "t_range": [T_SAMPLES[0], T_SAMPLES[-1]],
            "margin": self.margin,
            "fd_step": self.fd_step,
            "fd_step_t": self.step_t,
        }


@dataclass
class ResidualReport:
    """Norms of one verified identity on one grid."""

    identity: str
    grid: Optional[GridSpec]
    max_abs: float
    l2: float
    tolerance: float
    passed: bool
    t_samples: Optional[tuple] = None
    details: Optional[dict] = None
    per_point: Optional[np.ndarray] = dc_field(default=None, repr=False)

    def as_record(self) -> dict:
        grid = self.grid.as_dict() if self.grid is not None else None
        if grid is None and self.t_samples is not None:
            grid = {"t_samples": list(self.t_samples)}
        return {
            "identity": self.identity,
            "grid": grid,
            "max_abs": self.max_abs,
            "l2": self.l2,
            "pass": self.passed,
            "tolerance": self.tolerance,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_record(), sort_keys=True)


def _reduce(identity, residuals, tolerance, grid=None):
    """Norms of ``residuals``: an array on ``grid``, or named residuals at T_SAMPLES.

    Named residuals have a first axis over T_SAMPLES and are kept in details;
    the residual vector lists each time's entries in order, name by name.
    """
    details = None
    if isinstance(residuals, dict):
        details = {name: np.asarray(v).tolist() for name, v in residuals.items()}
        rows = [np.reshape(v, (len(T_SAMPLES), -1)) for v in residuals.values()]
        residuals = np.column_stack(rows).ravel()
    residuals = np.asarray(residuals, dtype=float)
    max_abs = float(np.max(np.abs(residuals)))
    l2 = float(np.sqrt(np.mean(residuals * residuals)))
    return ResidualReport(
        identity=identity,
        grid=grid,
        max_abs=max_abs,
        l2=l2,
        tolerance=tolerance,
        passed=max_abs <= tolerance,
        t_samples=None if details is None else T_SAMPLES,
        details=details,
        per_point=residuals,
    )


def _rel(lhs, rhs):
    """|lhs - rhs| relative to max(1, |lhs|, |rhs|), elementwise."""
    return abs(lhs - rhs) / np.maximum(1.0, np.maximum(abs(lhs), abs(rhs)))




def _d_dt(f, t):
    """df/dt at t by a centered difference of step 1e-6*t."""
    hc = 1e-6 * t
    return (f(t + hc) - f(t - hc)) / (2.0 * hc)


def _from_t0(rate, t, quad_tol: float, limit: int = 200):
    """integral_{T0}^{t} rate(tau, k) dtau at every element of ``t``, in u = log(tau).

    ``rate`` receives an array of tau and the flat index k in ``t`` of the
    integral each tau belongs to.  A QuadratureFailure names its t.
    """
    lo, hi = math.log(T0), _log(t)
    try:
        return quad_batch(lambda u, k: rate(np.exp(u), k) * np.exp(u), lo, hi, quad_tol, limit)
    except QuadratureFailure as exc:
        raise QuadratureFailure(f"{exc} at t={np.ravel(t)[exc.interval]:g}", exc.interval) from exc


def one_sided_derivative(f, x0, h, direction):
    """First derivative at a domain edge: 5-point one-sided stencil, O(h^4).

    ``direction`` is +1/-1 and points into the domain; ``f`` must accept an
    ndarray of evaluation points.  ``x0``, ``h`` and ``direction`` may be
    arrays of edges: ``f`` then receives the stencil points with a leading
    axis of 5.  The high order keeps boundary derivatives accurate enough for
    the X0* integral identity, whose integrand spans four decades in magnitude.
    """
    d = np.where(np.asarray(direction) > 0, 1.0, -1.0)
    offsets = np.arange(5.0).reshape((5,) + (1,) * np.broadcast(x0, h, d).ndim)
    v = np.asarray(f(x0 + d * h * offsets), dtype=float)
    out = d * (-25.0 * v[0] + 48.0 * v[1] - 36.0 * v[2] + 16.0 * v[3] - 3.0 * v[4]) / (12.0 * h)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# interior PDE residuals
# ---------------------------------------------------------------------------


def _ale_parts(u, s_of, grid):
    """(u_t at fixed y, u_y, u_yy, u) on the interior grid by centered differences.

    u_t is taken at fixed fraction y/S(t) and corrected by the advective term
    fraction*dS/dt*u_y: the ALE stencil of every grid PDE check.  Each array
    has the (n_time, n_space) shape of the grid.
    """
    fracs = grid.fractions()
    t = grid.times()[:, None]
    s_t = s_of(t)
    ht = grid.step_t * t
    hy = grid.fd_step * s_t
    y = fracs * s_t
    s_plus, s_minus = s_of(t + ht), s_of(t - ht)
    d_ale = (u(fracs * s_plus, t + ht) - u(fracs * s_minus, t - ht)) / (2.0 * ht)
    s_dot = (s_plus - s_minus) / (2.0 * ht)
    u_p, u_m, u_c = u(y + hy, t), u(y - hy, t), u(y, t)
    u_y = (u_p - u_m) / (2.0 * hy)
    u_yy = (u_p - 2.0 * u_c + u_m) / (hy * hy)
    return d_ale - fracs * s_dot * u_y, u_y, u_yy, u_c


def heat_residual(field: StefanField, grid: GridSpec = GridSpec()):
    """max |T_t - T_yy| on the interior grid by centered differences."""
    u_t, _, u_yy, _ = _ale_parts(field.temperature, field.free_boundary, grid)
    return _reduce("heat-equation", u_t - u_yy, 1e-5, grid=grid)


def burgers_residual(field: PsiField, grid: GridSpec = GridSpec()):
    """max |x*_t - x*_yy + 2*delta*x* x*_y| on the interior grid."""
    u_t, u_y, u_yy, u = _ale_parts(field.x_star, field.stefan.free_boundary, grid)
    residual = u_t - (u_yy - 2.0 * field.delta * u * u_y)
    return _reduce("burgers-equation", residual, 1e-4, grid=grid)


def evolution_residual(field: PsiField, grid: GridSpec = GridSpec()):
    """max |Psi_t - d/dx*(Psi_x*/Psi^2) - 2*delta|, on the forward map (y, t).

    With P(y, t) = Psi(x*(y, t), t) and dx*/dy = 1/Psi, Psi_t at fixed x* is
    P_t - P*P_y*x*_t and d/dx*(Psi_x*/Psi^2) is P_yy - P_y^2/P, every
    derivative taken by the ALE stencil at fixed y.  The form rests on
    dx*/dy = 1/Psi, which :func:`reciprocal_identity_residual` checks at 1e-6.
    """
    s_of = field.stefan.free_boundary
    p_t, p_y, p_yy, p = _ale_parts(field.psi_parametric, s_of, grid)
    x_t = _ale_parts(field.x_star, s_of, grid)[0]
    residual = p_t - p * p_y * x_t - p_yy + p_y * p_y / p - 2.0 * field.delta
    return _reduce("source-equation", residual, 1e-3, grid=grid)


# ---------------------------------------------------------------------------
# boundary-condition residuals
# ---------------------------------------------------------------------------


def stefan_bc_residuals(field: StefanField):
    """Relative residuals of the three closed-form boundary identities."""
    p = field.params
    g = field.gamma.gamma
    s_t = field.free_boundary(_TIMES)
    tm = p.tm0 * np.sqrt(_TIMES)
    columns = {
        "T(S)": abs(field.temperature(s_t, _TIMES) - tm) / (1.0 + abs(tm)),
        "T_y(0)": abs(field.temperature_gradient(0.0, _TIMES) + p.q) / p.q,
        "T_y(S)": abs(field.temperature_gradient(s_t, _TIMES) + p.l0 * g) / p.l0,
    }
    return _reduce("stefan-boundary-conditions", columns, 1e-11)


def burgers_bc_values(field: PsiField, t) -> dict:
    """Normalized residuals of the transformed boundary conditions; ``t`` may be an array."""
    d = field.delta
    s_t = field.stefan.free_boundary(t)
    c_t = field.c(t)
    lat = field.stefan.latent_heat(t)
    tm = field.stefan.melt_temperature(t)
    x0v = field.x0(t)
    x1v = field.x_star(s_t, t)
    s_dot = _d_dt(field.stefan.free_boundary, t)
    c_dot = _d_dt(field.c, t)

    h = 1e-5 * s_t
    xy_front = one_sided_derivative(lambda yy: field.x_star(yy, t), s_t, h, -1.0)
    xy_face = one_sided_derivative(lambda yy: field.x_star(yy, t), 0.0, h, +1.0)
    exponent = d * quad_batch(lambda u, k: field.x_star(u, np.ravel(t)[k]), s_t, 0.0, QUAD_TOL)
    q = -field.stefan.temperature_gradient(0.0, 1.0)  # flux magnitude at the fixed face
    return {
        "b6": _rel(c_dot, (lat - tm) * s_dot),
        "b7": _rel(xy_front - d * x1v * x1v, -lat * s_dot / (d * c_t)),
        "b8": _rel(x1v, tm / (d * c_t)),
        "b9": _rel(xy_face - d * x0v * x0v, -q * _exp(exponent) / (d * c_t)),
    }


def burgers_bc_residuals(field: PsiField):
    """Aggregate residual of the transformed conditions at the sampled times."""
    return _reduce("burgers-boundary-conditions", burgers_bc_values(field, _TIMES), 1e-6)


def _psi_slope(field: PsiField, t, front: bool, group=0):
    """Psi_x* at X1* (``front``, y = S(t)) or at X0* (y = 0); ``t`` may be an array.

    By the chain rule Psi_x* = Psi*Psi_y, which rests on dx*/dy = 1/Psi
    (checked by :func:`reciprocal_identity_residual` at 1e-6), so no x* is
    inverted.  Psi_y is the one-sided stencil of :func:`one_sided_derivative`
    pointing into [0, S(t)], evaluated at every step of :data:`SLOPE_STEPS`
    in one call.  ``group`` labels the elements of ``t`` with small ints (one
    group by default); each group takes the step h whose largest Richardson
    estimate |D(h) - D(h/2)| plus rounding term eps*|Psi|/h is least.  One
    step per integral keeps the X0* integrand of :func:`psi_bc_values` smooth
    in t; a step chosen per node jumps between neighbouring steps as rounding
    moves the estimates, which multiplies the quadrature's panels.
    """
    t = np.asarray(t, dtype=float)
    s = field.stefan.free_boundary(t)
    edge = s if front else 0.0 * s
    h = SLOPE_STEPS.reshape((-1,) + (1,) * t.ndim) * s
    psi = field.psi_parametric(edge, t)
    slopes = one_sided_derivative(
        lambda yy: field.psi_parametric(yy, t), edge, h, -1.0 if front else 1.0
    )
    error = np.abs(slopes[:-1] - slopes[1:]) + np.finfo(float).eps * np.abs(psi) / h[:-1]
    group = np.broadcast_to(group, t.shape).ravel()
    worst = np.zeros((len(error), group.max() + 1))
    np.maximum.at(worst, (slice(None), group), error.reshape(len(error), -1))
    best = np.argmin(worst, axis=0)[group].reshape(t.shape)
    return psi * np.take_along_axis(slopes, best[None], axis=0)[0]


def psi_bc_values(field: PsiField, t) -> dict:
    """Normalized residuals of the source-equation boundary system; ``t`` may be an array.

    Includes the reconstruction of dS/dt from the Psi side, the two
    free-boundary conditions and the X0* integral identity (integrated from
    T0 after the substitution tau = e^u).  Each time takes the slope steps
    of a call at that time alone.  The flux identity is :func:`h_ratio_value`.
    """
    d = field.delta
    s_t = field.stefan.free_boundary(t)
    c_t = field.c(t)
    lat = field.stefan.latent_heat(t)
    tm = field.stefan.melt_temperature(t)
    x0v = field.x0(t)
    x1v = field.x1(t)
    psi1 = field.psi_parametric(s_t, t)
    psi_x1 = _psi_slope(field, t, front=True, group=np.arange(np.size(t)).reshape(np.shape(t)))
    x1_dot = _d_dt(field.x1, t)
    s_dot_fd = _d_dt(field.stefan.free_boundary, t)
    c_dot_fd = _d_dt(field.c, t)
    s_dot_rec = psi1 * x1_dot + psi_x1 / (psi1 * psi1) + 2.0 * d * x1v

    def boundary_rate(tau, k):
        """Psi_x*/Psi^3 + 2 delta X0*/Psi at X0*, the X0* integrand, on an array of tau."""
        x0_tau = field.x0(tau)
        psi0_tau = field.psi_parametric(0.0, tau)
        px0 = _psi_slope(field, tau, front=False, group=k)
        return px0 / psi0_tau**3 + 2.0 * d * x0_tau / psi0_tau

    integral = _from_t0(boundary_rate, t, 1e-11, limit=300)

    return {
        "c4i": _rel(1.0 / psi1 - d * x1v * x1v, -lat / (d * c_t) * s_dot_rec),
        "c4iii": _rel(c_dot_fd, (lat - tm) * s_dot_rec),
        "esepunto": _rel(s_dot_rec, s_dot_fd),
        "c5": abs(x0v - (field.x0(T0) - integral)) / np.maximum(1.0, abs(x0v)),
    }


def h_ratio_value(field: PsiField, t):
    """|exp(int_{T0}^{t} H) - P(t)/P(T0)| with P(t) = exp(-delta*int_0^S x* dy).

    The time integral of H is improper at 0 (H scales like 1/t), so the
    identity is checked in ratio form from T0 after the substitution
    tau = e^u; absolute integration constants are never asserted.  ``t`` may
    be an array; log P is integrated at its times and T0 in one call.
    """
    times = np.append(t, T0)
    log_p = -field.delta * quad_batch(
        lambda u, k: field.x_star(u, times[k]), 0.0, field.stefan.free_boundary(times), QUAD_TOL
    )
    h_integral = _from_t0(lambda tau, _: field.h_of_t(tau), t, 1e-9)
    return abs(_exp(h_integral) - _exp(log_p[:-1].reshape(np.shape(t)) - log_p[-1]))


def psi_bc_residuals(field: PsiField):
    """Aggregate residual of the c4(i), c4(iii), esepunto and c5 identities.

    The flux identity (checked in ratio form, tighter tolerance) is reported
    separately by :func:`h_ratio_residual`.
    """
    return _reduce("psi-boundary-conditions", psi_bc_values(field, _TIMES), 1e-5)


def h_ratio_residual(field: PsiField):
    """Flux identity in ratio form at the sampled times; see h_ratio_value."""
    return _reduce("source-ratio-identity", {"ratio": h_ratio_value(field, _TIMES)}, 1e-6)


# ---------------------------------------------------------------------------
# transformation consistency residuals
# ---------------------------------------------------------------------------


def reciprocal_identity_residual(field: PsiField, grid: GridSpec = GridSpec()):
    """max |Psi * dx*/dy - 1| with a centered h = 1e-6*S(t) difference."""
    t = grid.times()[:, None]
    s_t = field.stefan.free_boundary(t)
    h = 1e-6 * s_t
    y = grid.fractions() * s_t
    dx = (field.x_star(y + h, t) - field.x_star(y - h, t)) / (2.0 * h)
    residual = field.psi_parametric(y, t) * dx - 1.0
    return _reduce("reciprocal-identity", residual, 1e-6, grid=grid)


def theta_consistency_residual(
    field: PsiField, grid: GridSpec = GridSpec(), quad_tol: float = QUAD_TOL
):
    """Closed-form Theta against the quadrature oracle on the grid."""
    t = grid.times()[:, None]
    y = grid.fractions() * field.stefan.free_boundary(t)
    residual = field.theta(y, t) - theta_quadrature(y, t, field.stefan, quad_tol)
    return _reduce("theta-consistency", residual, 1e-9, grid=grid)


def c_consistency_residual(field: PsiField):
    """Quadrature C(t) against the closed linear form."""
    c_quad = c_of_t_general(field.stefan, _TIMES, 1e-12)
    return _reduce("c-consistency", {"C": c_quad - field.c(_TIMES)}, 1e-10)


def boundary_consistency_residual(field: StefanField):
    """Parametric boundaries against the coefficient forms C0,C1/(delta*sqrt(t))."""
    pf = PsiField(field)
    coeffs = compute_boundary_coefficients(field.params, field.gamma.gamma)
    scale = pf.delta * np.sqrt(_TIMES)
    # with tm0 = 0 both sides vanish identically; compare absolutely then
    x1_dev = np.abs(pf.x1(_TIMES) * scale - coeffs.c1)
    columns = {
        "X0*": np.abs(pf.x0(_TIMES) * scale - coeffs.c0) / abs(coeffs.c0),
        "X1*": x1_dev / abs(coeffs.c1) if coeffs.c1 != 0.0 else x1_dev,
    }
    return _reduce("boundary-consistency", columns, 1e-10)


def s_recovery_residual(field: PsiField):
    """|s_from_psi(t) - S(t)| / sqrt(t): the inverse-direction front recovery."""
    error = field.s_from_psi(_TIMES) - field.stefan.free_boundary(_TIMES)
    return _reduce("front-recovery", {"S": error / np.sqrt(_TIMES)}, 1e-7)


def roundtrip_residual(field: PsiField):
    """|invert_x_star(x*(y,t), t) - y| / S(t) at the fractions 0.1, 0.5, 0.9."""
    t = _TIMES[:, None]
    s_t = field.stefan.free_boundary(t)
    ys = np.array([0.1, 0.5, 0.9]) * s_t
    back = field.invert_x_star(field.x_star(ys, t), t, tol=1e-12)
    return _reduce("inversion-roundtrip", {"y": (back - ys) / s_t}, 1e-9)


def run_verification_suite(field: StefanField, grid: GridSpec = GridSpec()) -> list:
    """Run every identity check and return the reports in a fixed order."""
    pf = PsiField(field)
    pf.monotone_sign  # refuses a non-monotone x* before any identity runs
    return [
        heat_residual(field, grid),
        burgers_residual(pf, grid),
        evolution_residual(pf, grid),
        stefan_bc_residuals(field),
        burgers_bc_residuals(pf),
        psi_bc_residuals(pf),
        h_ratio_residual(pf),
        reciprocal_identity_residual(pf, grid),
        theta_consistency_residual(pf, grid),
        c_consistency_residual(pf),
        boundary_consistency_residual(field),
        s_recovery_residual(pf),
        roundtrip_residual(pf),
    ]
