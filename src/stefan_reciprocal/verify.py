"""Finite-difference and quadrature verification of the governing identities.

Every check here recomputes derivatives independently (centered stencils in
the interior, one-sided O(h^3) stencils at boundaries, adaptive quadrature
for integrals) and reduces the pointwise residuals to max/L2 norms.  Grids
avoid the domain edges by a relative margin so centered stencils never leave
the phase region; boundary conditions are checked separately at the exact
boundary points.

Time derivatives of T and x* are taken at fixed fractional position
s = y/S(t) and corrected by the advective term s*dS/dt*(d/dy); the Psi
equation is checked at fixed x*, which requires re-inverting the parametric
map on every time slice.

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

from .errors import InvalidParameters
from .similarity import StefanField
from .transform import (
    PsiField,
    c_of_t_general,
    compute_boundary_coefficients,
    quad_checked,
    theta_quadrature,
)

#: Times at which the boundary and consistency identities are sampled.
T_SAMPLES = (0.25, 1.0, 4.0)

#: Absolute and relative tolerance of the verification quadratures.
QUAD_TOL = 1e-10

#: Lower end of the improper time integrals, which scale like 1/t near 0.
T0 = 1e-8


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


def _reduce(identity, residuals, tolerance, grid=None, t_samples=None, details=None):
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
        t_samples=t_samples,
        details=details,
        per_point=residuals,
    )


def _rel(lhs, rhs) -> float:
    """|lhs - rhs| relative to max(1, |lhs|, |rhs|)."""
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def _reduce_rows(identity, values, tolerance):
    """Reduce the rows ``values(t)`` over T_SAMPLES, kept in details.

    A row is a dict of named residuals, a list of residuals or one number;
    the residual vector lists each row's entries in order, t by t.
    """
    rows = [values(t) for t in T_SAMPLES]
    flat = [
        np.ravel(list(row.values()) if isinstance(row, dict) else row) for row in rows
    ]
    return _reduce(
        identity,
        np.concatenate(flat),
        tolerance,
        t_samples=T_SAMPLES,
        details={f"t={t:g}": row for t, row in zip(T_SAMPLES, rows)},
    )


def _d_dt(f, t: float) -> float:
    """df/dt at t by a centered difference of step 1e-6*t."""
    hc = 1e-6 * t
    return (f(t + hc) - f(t - hc)) / (2.0 * hc)


def _from_t0(rate, t: float, quad_tol: float, limit: int = 200) -> float:
    """integral_{T0}^{t} rate(tau) dtau, integrated in u = log(tau)."""
    lo, hi = math.log(T0), math.log(t)
    return quad_checked(lambda u: rate(math.exp(u)) * math.exp(u), lo, hi, quad_tol, limit)


def one_sided_derivative(f, x0: float, h: float, direction: float) -> float:
    """First derivative at a domain edge: 5-point one-sided stencil, O(h^4).

    ``direction`` is +1/-1 and points into the domain; ``f`` must accept an
    ndarray of evaluation points.  The high order keeps boundary derivatives
    accurate enough for the X0* integral identity, whose integrand spans four
    decades in magnitude.
    """
    d = 1.0 if direction > 0 else -1.0
    pts = x0 + d * h * np.arange(5.0)
    v = np.asarray(f(pts), dtype=float)
    return float(
        d
        * (-25.0 * v[0] + 48.0 * v[1] - 36.0 * v[2] + 16.0 * v[3] - 3.0 * v[4])
        / (12.0 * h)
    )


# ---------------------------------------------------------------------------
# interior PDE residuals
# ---------------------------------------------------------------------------


def _ale_residual(identity, u, s_of, grid, tolerance, rhs):
    """max |u_t - rhs(u, u_y, u_yy)| on the interior grid by centered differences.

    u_t is taken at fixed fraction y/S(t) and corrected by the advective term
    fraction*dS/dt*u_y (the ALE stencil shared by the heat and Burgers checks).
    """
    fracs = grid.fractions()
    rows = []
    for t in grid.times():
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
        rows.append(d_ale - fracs * s_dot * u_y - rhs(u_c, u_y, u_yy))
    return _reduce(identity, np.array(rows), tolerance, grid=grid)


def heat_residual(field: StefanField, grid: GridSpec = GridSpec()):
    """max |T_t - T_yy| on the interior grid by centered differences."""
    return _ale_residual(
        "heat-equation", field.temperature, field.free_boundary, grid, 1e-5,
        lambda u_c, u_y, u_yy: u_yy,
    )


def burgers_residual(field: PsiField, grid: GridSpec = GridSpec()):
    """max |x*_t - x*_yy + 2*delta*x* x*_y| on the interior grid."""
    d = field.delta
    return _ale_residual(
        "burgers-equation", field.x_star, field.handle.S, grid, 1e-4,
        lambda u_c, u_y, u_yy: u_yy - 2.0 * d * u_c * u_y,
    )


def evolution_residual(field: PsiField, grid: GridSpec = GridSpec()):
    """max |Psi_t - d/dx*(Psi_x*/Psi^2) - 2*delta| at fixed x*.

    Psi(x*, t +/- ht) is obtained by re-inverting the parametric map on each
    time slice, which is what the fixed-x* time derivative requires.
    """
    fracs = grid.fractions()
    rows = []
    for t in grid.times():
        x0v = field.x0(t)
        x1v = field.x1(t)
        width = x1v - x0v
        hx = grid.fd_step * abs(width)
        ht = grid.step_t * t
        inv_tol = 1e-13 * abs(width)
        xs = x0v + width * fracs
        stencil = np.concatenate(
            [xs - 2.0 * hx, xs - hx, xs, xs + hx, xs + 2.0 * hx]
        )
        p = field.psi_at(stencil, t, inv_tol).reshape(5, -1)
        psi_m2, psi_m1, psi_c, psi_p1, psi_p2 = p
        psi_plus = field.psi_at(xs, t + ht, inv_tol)
        psi_minus = field.psi_at(xs, t - ht, inv_tol)
        psi_t = (psi_plus - psi_minus) / (2.0 * ht)
        flux_p = (psi_p2 - psi_c) / (2.0 * hx) / (psi_p1 * psi_p1)
        flux_m = (psi_c - psi_m2) / (2.0 * hx) / (psi_m1 * psi_m1)
        flux_div = (flux_p - flux_m) / (2.0 * hx)
        rows.append(psi_t - flux_div - 2.0 * field.delta)
    return _reduce("source-equation", np.array(rows), 1e-3, grid=grid)


# ---------------------------------------------------------------------------
# boundary-condition residuals
# ---------------------------------------------------------------------------


def stefan_bc_residuals(field: StefanField):
    """Relative residuals of the three closed-form boundary identities."""
    p = field.params
    g = field.gamma.gamma

    def row(t):
        s_t = field.free_boundary(t)
        tm = p.tm0 * math.sqrt(t)
        return [
            abs(field.temperature(s_t, t) - tm) / (1.0 + abs(tm)),
            abs(field.temperature_gradient(0.0, t) + p.q) / p.q,
            abs(field.temperature_gradient(s_t, t) + p.l0 * g) / p.l0,
        ]

    return _reduce_rows("stefan-boundary-conditions", row, 1e-11)


def burgers_bc_values(field: PsiField, t: float) -> dict:
    """Normalized residuals of the transformed boundary conditions at one time."""
    d = field.delta
    s_t = field.handle.S(t)
    c_t = field.c(t)
    lat = field.handle.L(t)
    tm = field.handle.Tm(t)
    x0v = field.x0(t)
    x1v = field.x_star(s_t, t)
    s_dot = _d_dt(field.handle.S, t)
    c_dot = _d_dt(field.c, t)

    h = 1e-5 * s_t
    xy_front = one_sided_derivative(lambda yy: field.x_star(yy, t), s_t, h, -1.0)
    xy_face = one_sided_derivative(lambda yy: field.x_star(yy, t), 0.0, h, +1.0)
    exponent = d * quad_checked(lambda u: field.x_star(u, t), s_t, 0.0, QUAD_TOL)
    q = -field.handle.T_y(0.0, 1.0)  # flux magnitude at the fixed face
    return {
        "b6": _rel(c_dot, (lat - tm) * s_dot),
        "b7": _rel(xy_front - d * x1v * x1v, -lat * s_dot / (d * c_t)),
        "b8": _rel(x1v, tm / (d * c_t)),
        "b9": _rel(xy_face - d * x0v * x0v, -q * math.exp(exponent) / (d * c_t)),
    }


def burgers_bc_residuals(field: PsiField):
    """Aggregate residual of the transformed conditions at the sampled times."""
    return _reduce_rows(
        "burgers-boundary-conditions", lambda t: burgers_bc_values(field, t), 1e-6
    )


def _psi_slope(field: PsiField, t: float, edge: float, other: float) -> float:
    """Psi_x* at the boundary ``edge`` of [X0*, X1*]; ``other`` is the far one.

    One-sided stencil of step 1e-3*|X1* - X0*| pointing into the interval,
    through re-inversion of the parametric map.
    """
    width = abs(other - edge)
    return one_sided_derivative(
        lambda xx: field.psi_at(xx, t, 1e-13 * width), edge, 1e-3 * width, other - edge
    )


def psi_bc_values(field: PsiField, t: float) -> dict:
    """Normalized residuals of the source-equation boundary system at one time.

    Includes the reconstruction of dS/dt from the Psi side, the two
    free-boundary conditions and the X0* integral identity (integrated from
    T0 after the substitution tau = e^u).  The flux identity is checked by
    :func:`h_ratio_value`.
    """
    d = field.delta
    s_t = field.handle.S(t)
    c_t = field.c(t)
    lat = field.handle.L(t)
    tm = field.handle.Tm(t)
    x0v = field.x0(t)
    x1v = field.x1(t)
    psi1 = field.psi_parametric(s_t, t)
    psi_x1 = _psi_slope(field, t, x1v, x0v)
    x1_dot = _d_dt(field.x1, t)
    s_dot_fd = _d_dt(field.handle.S, t)
    c_dot_fd = _d_dt(field.c, t)
    s_dot_rec = psi1 * x1_dot + psi_x1 / (psi1 * psi1) + 2.0 * d * x1v

    def boundary_rate(tau):
        """Integrand of the X0* identity: Psi_x*/Psi^3 + 2 delta X0*/Psi at X0*."""
        x0_tau = field.x0(tau)
        psi0_tau = field.psi_parametric(0.0, tau)
        px0 = _psi_slope(field, tau, x0_tau, field.x1(tau))
        return px0 / psi0_tau**3 + 2.0 * d * x0_tau / psi0_tau

    integral = _from_t0(boundary_rate, t, 1e-11, limit=300)

    return {
        "c4i": _rel(1.0 / psi1 - d * x1v * x1v, -lat / (d * c_t) * s_dot_rec),
        "c4iii": _rel(c_dot_fd, (lat - tm) * s_dot_rec),
        "esepunto": _rel(s_dot_rec, s_dot_fd),
        "c5": abs(x0v - (field.x0(T0) - integral)) / max(1.0, abs(x0v)),
    }


def h_ratio_value(field: PsiField, t: float) -> float:
    """|exp(int_{T0}^{t} H) - P(t)/P(T0)| with P(t) = exp(-delta*int_0^S x* dy).

    The time integral of H is improper at 0 (H scales like 1/t), so the
    identity is checked in ratio form from T0 after the substitution
    tau = e^u; absolute integration constants are never asserted.
    """
    d = field.delta

    def log_p(tau):
        return -d * quad_checked(
            lambda u: field.x_star(u, tau), 0.0, field.handle.S(tau), QUAD_TOL
        )

    h_integral = _from_t0(field.h_of_t, t, 1e-9)
    return abs(math.exp(h_integral) - math.exp(log_p(t) - log_p(T0)))


def psi_bc_residuals(field: PsiField):
    """Aggregate residual of the c4(i), c4(iii), esepunto and c5 identities.

    The flux identity (checked in ratio form, tighter tolerance) is reported
    separately by :func:`h_ratio_residual`.
    """
    return _reduce_rows(
        "psi-boundary-conditions", lambda t: psi_bc_values(field, t), 1e-5
    )


def h_ratio_residual(field: PsiField):
    """Flux identity in ratio form at the sampled times; see h_ratio_value."""
    return _reduce_rows(
        "source-ratio-identity", lambda t: h_ratio_value(field, t), 1e-6
    )


# ---------------------------------------------------------------------------
# transformation consistency residuals
# ---------------------------------------------------------------------------


def reciprocal_identity_residual(field: PsiField, grid: GridSpec = GridSpec()):
    """max |Psi * dx*/dy - 1| with a centered h = 1e-6*S(t) difference."""
    fracs = grid.fractions()
    rows = []
    for t in grid.times():
        s_t = field.handle.S(t)
        h = 1e-6 * s_t
        y = fracs * s_t
        dx = (field.x_star(y + h, t) - field.x_star(y - h, t)) / (2.0 * h)
        rows.append(field.psi_parametric(y, t) * dx - 1.0)
    return _reduce("reciprocal-identity", np.array(rows), 1e-6, grid=grid)


def theta_consistency_residual(
    field: PsiField, grid: GridSpec = GridSpec(), quad_tol: float = QUAD_TOL
):
    """Closed-form Theta against the quadrature oracle on the grid."""
    fracs = grid.fractions()
    rows = []
    for t in grid.times():
        s_t = field.handle.S(t)
        closed = field.theta(fracs * s_t, t)
        rows.append(closed - theta_quadrature(fracs * s_t, t, field.handle, quad_tol))
    return _reduce("theta-consistency", np.array(rows), 1e-9, grid=grid)


def c_consistency_residual(field: PsiField):
    """Quadrature C(t) against the closed linear form."""
    return _reduce_rows(
        "c-consistency",
        lambda t: c_of_t_general(field.handle, t, 1e-12) - field.c(t),
        1e-10,
    )


def boundary_consistency_residual(field: StefanField):
    """Parametric boundaries against the coefficient forms C0,C1/(delta*sqrt(t))."""
    pf = PsiField.from_stefan(field)
    coeffs = compute_boundary_coefficients(field.params, field.gamma.gamma)

    def row(t):
        scale = pf.delta * math.sqrt(t)
        # with tm0 = 0 both sides vanish identically; compare absolutely then
        x1_dev = abs(pf.x1(t) * scale - coeffs.c1)
        return [
            abs(pf.x0(t) * scale - coeffs.c0) / abs(coeffs.c0),
            x1_dev / abs(coeffs.c1) if coeffs.c1 != 0.0 else x1_dev,
        ]

    return _reduce_rows("boundary-consistency", row, 1e-10)


def s_recovery_residual(field: PsiField):
    """|s_from_psi(t) - S(t)| / sqrt(t): the inverse-direction front recovery."""
    return _reduce_rows(
        "front-recovery",
        lambda t: (field.s_from_psi(t, QUAD_TOL) - field.handle.S(t)) / math.sqrt(t),
        1e-7,
    )


def roundtrip_residual(field: PsiField):
    """|invert_x_star(x*(y,t), t) - y| / S(t) at the fractions 0.1, 0.5, 0.9."""

    def row(t):
        s_t = field.handle.S(t)
        ys = [frac * s_t for frac in (0.1, 0.5, 0.9)]
        back = [field.invert_x_star(field.x_star(y, t), t, tol=1e-12) for y in ys]
        return [(yb - y) / s_t for yb, y in zip(back, ys)]

    return _reduce_rows("inversion-roundtrip", row, 1e-9)


def run_verification_suite(field: StefanField, grid: GridSpec = GridSpec()) -> list:
    """Run every identity check and return the reports in a fixed order."""
    pf = PsiField.from_stefan(field)
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
