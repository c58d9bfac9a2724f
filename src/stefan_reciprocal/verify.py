"""Verification of the governing identities by exact derivatives and quadrature.

Every derivative a check needs is read off one evaluation of the closed
form on jets (:class:`similarity._Jet`): truncated Taylor arithmetic that
carries u_y, u_yy and u_t through the same code that computes the value,
so no step is chosen and nothing is truncated.  Each check reduces its
pointwise residuals to max/L2 norms.  The interior grid keeps the relative
margin :data:`MARGIN` from the domain edges; boundary conditions are checked
separately at the exact boundary points.

Time derivatives are taken at fixed y.  The Psi equation and the Psi
boundary slopes are written on the forward map (y, t) through
dx*/dy = 1/Psi, so only the front recovery and the inversion round trip
invert x*.  Every identity evaluates all its times at once: one call per
sampled quantity, and one quadrature call per integral.

The protocol is fixed.  Boundary and consistency identities are sampled at
:data:`T_SAMPLES`, which the grid spans.  Quadratures use :data:`QUAD_TOL`,
except C's in c-consistency (1e-12) and the improper time integrals from
:data:`T0`: the X0* identity's (1e-11, 300 panels) and H's (1e-9).  Each
identity's tolerance is written once, at its reduction.

Every integral goes through :func:`quad_batch`, an adaptive Gauss-Kronrod
(G7/K15) rule written in numpy that integrates a batch of intervals in one
call.  :func:`c_of_t_general` and :func:`theta_quadrature` are the
quadrature oracle for the closed forms of :class:`.transform.PsiField`, and
:func:`s_from_psi` recovers the front from Psi.
"""

import math
from collections import namedtuple

import numpy as np

from .errors import InvalidParameters, QuadratureFailure, StefanError
from .roots import _check_ints, _Checked
from .similarity import StefanField, _check_time, _Jet, _libm, _scalar
from .transform import PsiField, compute_boundary_coefficients

#: Times at which the boundary and consistency identities are sampled.
T_SAMPLES = (0.25, 1.0, 4.0)
_TIMES = np.array(T_SAMPLES)

#: Lower end of the improper time integrals, which scale like 1/t near 0.
T0 = 1e-8

#: Absolute and relative tolerance of the front recovery and the quadrature oracles.
QUAD_TOL = 1e-10

#: Relative distance of the interior grid from y = 0 and y = S(t).
MARGIN = 0.02


class GridSpec(_Checked, namedtuple("GridSpec", "n_space n_time")):
    """Interior verification grid.

    Space is parameterized by the fraction s = y/S(t), restricted to
    [MARGIN, 1-MARGIN]; time by n_time points spanning T_SAMPLES.
    """

    __slots__ = ()

    def __new__(cls, n_space=50, n_time=5):
        self = super().__new__(cls, n_space, n_time)
        _check_ints(self, ("n_space", "n_time"))
        if n_space < 8:
            raise InvalidParameters("n_space must be >= 8")
        if n_time < 1:
            raise InvalidParameters("n_time must be >= 1")
        return self

    def times(self) -> np.ndarray:
        return np.linspace(T_SAMPLES[0], T_SAMPLES[-1], self.n_time)

    def fractions(self) -> np.ndarray:
        return np.linspace(MARGIN, 1.0 - MARGIN, self.n_space)

    def as_dict(self) -> dict:
        return {**self._asdict(), "margin": MARGIN, "t_range": [T_SAMPLES[0], T_SAMPLES[-1]]}


class ResidualReport(namedtuple("ResidualReport", "identity grid max_abs l2 tolerance passed "
                                                   "details per_point", defaults=(None, None))):
    """Norms of one verified identity on ``grid``, or at T_SAMPLES where ``grid`` is None."""

    __slots__ = ()

    def as_record(self) -> dict:
        grid = {"t_samples": list(T_SAMPLES)} if self.grid is None else self.grid.as_dict()
        return {
            "identity": self.identity,
            "grid": grid,
            "max_abs": self.max_abs,
            "l2": self.l2,
            "pass": self.passed,
            "tolerance": self.tolerance,
        }

    def to_json(self) -> str:
        import json  # on first use, so that a text-mode verify never loads json

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
        details=details,
        per_point=residuals,
    )


def _rel(lhs, rhs):
    """|lhs - rhs| relative to max(1, |lhs|, |rhs|), elementwise."""
    return abs(lhs - rhs) / np.maximum(1.0, np.maximum(abs(lhs), abs(rhs)))


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

#: Kronrod abscissae on [0, 1] and the weights of the 15-point Kronrod and
#: 7-point Gauss rules (QUADPACK's qk15; Piessens et al., 1983).  The Gauss
#: nodes are the odd-indexed Kronrod nodes, the centre among them.
_XGK = (
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
)
_WGK = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
)
_NODES = np.concatenate([-np.array(_XGK[:7]), np.array(_XGK[::-1])])
_W_KRONROD = np.concatenate([_WGK[:7], _WGK[::-1]])
_W_GAUSS = np.zeros(15)
_W_GAUSS[1::2] = _WG + _WG[-2::-1]
_EPS = np.finfo(float).eps


def _gk15(func, left, right, owner):
    """G7/K15 values, error estimates and round-off flags of the panels [left, right].

    ``func`` is called once, on the 15 nodes of every panel and each node's ``owner``.
    A panel's error estimate is |K15 - G7|, floored at the round-off level
    50*eps*integral|f| that bisection cannot lower; panels at that floor are
    flagged.  QUADPACK's scaled estimate is not used: on an integrand whose
    rounding noise is far above eps*|f|, such as H(t), a cancellation of
    terms of size 1/t, it stays at the panel's mean deviation however far
    the panel is bisected.
    """
    half = 0.5 * (right - left)
    nodes = (0.5 * (left + right))[:, None] + half[:, None] * _NODES
    fv = np.asarray(func(nodes.ravel(), owner.repeat(15)), dtype=float).reshape(nodes.shape)
    # row sums rather than a matrix product, whose rounding depends on the batch
    kronrod, gauss = (fv * _W_KRONROD).sum(axis=1), (fv * _W_GAUSS).sum(axis=1)
    err = np.abs((kronrod - gauss) * half)
    floor = 50.0 * _EPS * (np.abs(fv) * _W_KRONROD).sum(axis=1) * np.abs(half)
    return kronrod * half, np.maximum(err, floor), err <= floor


def quad_batch(func, a, b, quad_tol: float, limit: int = 200):
    """Adaptive G7/K15 quadrature of ``func`` over the batch of intervals [a, b].

    ``a`` and ``b`` broadcast to the batch's shape, which the result has.
    Every interval is integrated to max(quad_tol, |value|*quad_tol).  Each
    pass calls ``func(x, k)`` once: x holds the nodes of all live panels and
    k the flat index in the batch of each node's interval, and it bisects
    the panels whose error estimate exceeds their length's share of that
    tolerance and is not at the round-off floor.  An integral stops when it
    meets its tolerance or when bisecting would give it more than ``limit``
    panels; its panels do not depend on the rest of the batch.  Raises
    QuadratureFailure, naming the worst interval, when a final error
    estimate is above ten times the tolerance.  A reversed interval gives
    the negated value.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    lo, hi = np.minimum(a, b).ravel(), np.maximum(a, b).ravel()
    n = lo.size
    value, error, panels = np.zeros(n), np.zeros(n), np.ones(n, dtype=int)
    owner = np.flatnonzero(lo != hi)
    left, right = lo[owner], hi[owner]
    while owner.size:
        val, err, roundoff = _gk15(func, left, right, owner)
        tol = np.maximum(quad_tol, np.abs(value + np.bincount(owner, val, n)) * quad_tol)
        split = (err > tol[owner] * (right - left) / (hi - lo)[owner]) & ~roundoff
        stop = (error + np.bincount(owner, err, n) <= tol) | (
            panels + np.bincount(owner[split], minlength=n) > limit
        )
        split &= ~stop[owner]
        value += np.bincount(owner, np.where(split, 0.0, val), n)
        error += np.bincount(owner, np.where(split, 0.0, err), n)
        panels += np.bincount(owner[split], minlength=n)
        mid = 0.5 * (left[split] + right[split])
        owner = np.repeat(owner[split], 2)
        left = np.column_stack((left[split], mid)).ravel()
        right = np.column_stack((mid, right[split])).ravel()
    value = np.where(b.ravel() < a.ravel(), -value, value)
    bound = 10.0 * np.maximum(quad_tol, np.abs(value) * quad_tol)
    if not np.all(error <= bound):
        worst = int(np.argmax(np.where(error <= bound, -np.inf, error)))
        raise QuadratureFailure(
            f"quadrature error estimate {error[worst]:.3e} exceeds tolerance {quad_tol:.3e}"
            f" on [{a.flat[worst]:.6g}, {b.flat[worst]:.6g}]",
            worst,
        )
    return _scalar(value.reshape(a.shape))


def _from_t0(rate, t, quad_tol: float, limit: int = 200):
    """integral_{T0}^{t} rate(tau) dtau at every element of ``t``, in u = log(tau).

    ``rate`` receives an array of tau.  A QuadratureFailure names its t.
    """
    lo, hi = math.log(T0), _libm(math.log, t)
    try:
        return quad_batch(lambda u, _: rate(e := _libm(math.exp, u)) * e, lo, hi, quad_tol, limit)
    except QuadratureFailure as exc:
        raise QuadratureFailure(f"{exc} at t={np.ravel(t)[exc.interval]:g}", exc.interval) from exc


def c_of_t_general(field: StefanField, t, quad_tol: float = 1e-10):
    """C(t) = integral_0^t [L(tau) - Tm(tau)] * dS/dtau dtau by adaptive quadrature.

    Reads the field's latent_heat, melt_temperature and front_speed.
    Integrated in u = sqrt(tau/t), where dtau = 2*t*u du: a front speed that
    blows up like tau^(-1/2), as for sqrt(t) fronts, becomes smooth in u.
    ``t`` may be an array, whose times form one batch; at t = 0 the interval is empty.
    """
    t = _check_time(t)

    def integrand(u, k):
        t_k = t.flat[k]
        tau = t_k * u * u
        rate = field.latent_heat(tau) - field.melt_temperature(tau)
        return rate * field.front_speed(tau) * (2.0 * t_k * u)

    return quad_batch(integrand, 0.0, np.where(t == 0, 0.0, 1.0), quad_tol)


def theta_quadrature(y, t, field: StefanField):
    """Theta(y,t) = C(t) - integral_{S(t)}^{y} T(u,t) du, both by quadrature.

    ``y`` and ``t`` may be arrays that broadcast together: C is integrated
    once per element of ``t``, and the integrals of the field's temperature
    over every [S(t), y] form one batch, all to QUAD_TOL.  Serves as the
    independent oracle for :meth:`PsiField.theta`.
    """
    t = _check_time(t, positive=True)
    c_val = c_of_t_general(field, t, QUAD_TOL)
    t_of = np.broadcast_to(t, np.broadcast_shapes(t.shape, np.shape(y))).ravel()
    return c_val - quad_batch(
        lambda u, k: field.temperature(u, t_of[k]), field.free_boundary(t), y, QUAD_TOL
    )


# ---------------------------------------------------------------------------
# interior PDE residuals
# ---------------------------------------------------------------------------


def _grid_jets(field: StefanField, grid):
    """Jets of the coordinates y and t on the interior grid, shaped (n_time, n_space)."""
    t = grid.times()[:, None]
    return _Jet.in_y(grid.fractions() * field.free_boundary(t)), _Jet.in_t(t)


def heat_residual(field: StefanField, grid: GridSpec = GridSpec()):
    """max |T_t - T_yy| on the interior grid."""
    temp = field.temperature(*_grid_jets(field, grid))
    return _reduce("heat-equation", temp.t - temp.yy, 1e-5, grid=grid)


def burgers_residual(field: PsiField, grid: GridSpec = GridSpec()):
    """max |x*_t - x*_yy + 2*delta*x* x*_y| on the interior grid."""
    x = field.x_star(*_grid_jets(field.stefan, grid))
    residual = x.t - (x.yy - 2.0 * field.delta * x.v * x.y)
    return _reduce("burgers-equation", residual, 1e-4, grid=grid)


def evolution_residual(field: PsiField, grid: GridSpec = GridSpec()):
    """max |Psi_t - d/dx*(Psi_x*/Psi^2) - 2*delta|, on the forward map (y, t).

    With P(y, t) = Psi(x*(y, t), t) and dx*/dy = 1/Psi, Psi_t at fixed x* is
    P_t - P*P_y*x*_t and d/dx*(Psi_x*/Psi^2) is P_yy - P_y^2/P, every
    derivative taken at fixed y.  The form rests on dx*/dy = 1/Psi, which
    :func:`reciprocal_identity_residual` checks at 1e-6.
    """
    y, t = _grid_jets(field.stefan, grid)
    p, x_t = field.psi_parametric(y, t), field.x_star(y, t).t
    residual = p.t - p.v * p.y * x_t - p.yy + p.y * p.y / p.v - 2.0 * field.delta
    return _reduce("source-equation", residual, 1e-3, grid=grid)


# ---------------------------------------------------------------------------
# boundary-condition residuals
# ---------------------------------------------------------------------------


def stefan_bc_residuals(field: StefanField):
    """Relative residuals of the three closed-form boundary identities."""
    p = field.params
    g = field.gamma.gamma
    s_t = field.free_boundary(_TIMES)
    tm = field.melt_temperature(_TIMES)
    columns = {
        "T(S)": abs(field.temperature(s_t, _TIMES) - tm) / (1.0 + abs(tm)),
        "T_y(0)": abs(field.temperature_gradient(0.0, _TIMES) + p.q) / p.q,
        "T_y(S)": abs(field.temperature_gradient(s_t, _TIMES) + p.l0 * g) / p.l0,
    }
    return _reduce("stefan-boundary-conditions", columns, 1e-11)


def burgers_bc_values(field: PsiField, t) -> dict:
    """Normalized residuals of the transformed boundary conditions; ``t`` may be an array."""
    d = field.delta
    s = field.stefan.free_boundary(_Jet.in_t(t))
    c = field.c(_Jet.in_t(t))
    lat = field.stefan.latent_heat(t)
    tm = field.stefan.melt_temperature(t)
    front = field.x_star(_Jet.in_y(s.v), t)
    face = field.x_star(_Jet.in_y(0.0), t)
    exponent = d * quad_batch(lambda u, k: field.x_star(u, np.ravel(t)[k]), s.v, 0.0, QUAD_TOL)
    q = -field.stefan.temperature_gradient(0.0, 1.0)  # flux magnitude at the fixed face
    return {
        "b6": _rel(c.t, (lat - tm) * s.t),
        "b7": _rel(front.y - d * front.v * front.v, -lat * s.t / (d * c.v)),
        "b8": _rel(front.v, tm / (d * c.v)),
        "b9": _rel(face.y - d * face.v * face.v, -q * _libm(math.exp, exponent) / (d * c.v)),
    }


def burgers_bc_residuals(field: PsiField):
    """Aggregate residual of the transformed conditions at the sampled times."""
    return _reduce("burgers-boundary-conditions", burgers_bc_values(field, _TIMES), 1e-6)


def _psi_slope(field: PsiField, t, front: bool):
    """(Psi, Psi_x*) at X1* (``front``, y = S(t)) or at X0* (y = 0); ``t`` may be an array.

    By the chain rule Psi_x* = Psi*Psi_y, which rests on dx*/dy = 1/Psi
    (checked by :func:`reciprocal_identity_residual` at 1e-6), so no x* is
    inverted.  Psi_y is exact, read off one jet evaluation of Psi.
    """
    y = field.stefan.free_boundary(t) if front else 0.0
    psi = field.psi_parametric(_Jet.in_y(y), t)
    return psi.v, psi.v * psi.y


def psi_bc_values(field: PsiField, t) -> dict:
    """Normalized residuals of the source-equation boundary system; ``t`` may be an array.

    Includes the reconstruction of dS/dt from the Psi side, the two
    free-boundary conditions and the X0* integral identity (integrated from
    T0 after the substitution tau = e^u).  The flux identity is
    :func:`h_ratio_value`.
    """
    d = field.delta
    s = field.stefan.free_boundary(_Jet.in_t(t))
    c = field.c(_Jet.in_t(t))
    x1 = field.x1(_Jet.in_t(t))
    lat = field.stefan.latent_heat(t)
    tm = field.stefan.melt_temperature(t)
    x0v = field.x0(t)
    psi1, psi_x1 = _psi_slope(field, t, front=True)
    s_dot_rec = psi1 * x1.t + psi_x1 / (psi1 * psi1) + 2.0 * d * x1.v

    def boundary_rate(tau):
        """Psi_x*/Psi^3 + 2 delta X0*/Psi at X0*, the X0* integrand, on an array of tau.

        Where Psi's powers leave the float range, it refuses with Psi and the inputs.
        """
        psi0, px0 = _psi_slope(field, tau, front=False)
        rate = px0 / psi0**3 + 2.0 * d * field.x0(tau) / psi0
        finite = np.isfinite(rate)
        if not finite.all():
            i = np.argmin(finite)
            raise StefanError(
                f"the X0* integrand Psi_x*/Psi^3 + 2 delta X0*/Psi leaves the float range: "
                f"{rate[i]:g} at t={tau[i]:g}, where Psi at X0* is {psi0[i]:g} and Psi_x* is "
                f"{px0[i]:g} (delta={d:g}, q={field.stefan.params.q:g})")
        return rate

    integral = _from_t0(boundary_rate, t, 1e-11, limit=300)

    return {
        "c4i": _rel(1.0 / psi1 - d * x1.v * x1.v, -lat / (d * c.v) * s_dot_rec),
        "c4iii": _rel(c.t, (lat - tm) * s_dot_rec),
        "esepunto": _rel(s_dot_rec, s.t),
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
    h_integral = _from_t0(field.h_of_t, t, 1e-9)
    p_ratio = _libm(math.exp, log_p[:-1].reshape(np.shape(t)) - log_p[-1])
    return abs(_libm(math.exp, h_integral) - p_ratio)


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
    """max |Psi * dx*/dy - 1| on the interior grid, dx*/dy exact."""
    y, t = _grid_jets(field.stefan, grid)
    residual = field.psi_parametric(y.v, t.v) * field.x_star(y, t.v).y - 1.0
    return _reduce("reciprocal-identity", residual, 1e-6, grid=grid)


def theta_consistency_residual(field: PsiField, grid: GridSpec = GridSpec()):
    """Closed-form Theta against the quadrature oracle on the grid."""
    y, t = (jet.v for jet in _grid_jets(field.stefan, grid))
    residual = field.theta(y, t) - theta_quadrature(y, t, field.stefan)
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


def s_from_psi(field: PsiField, t):
    """Recover S(t) as the directed integral of Psi over [X0*(t), X1*(t)].

    The directed integral is orientation-agnostic: when x* decreases in y
    the boundary order and the sign of Psi flip together.  ``t`` may be an
    array, whose times form one batch.
    """
    x0v, x1v, s = field._orientation(t)

    def integrand(sigma, k):
        t_k, x0_k, x1_k, s_k = (np.ravel(v)[k] for v in (t, x0v, x1v, s))
        return field.psi_parametric(field._invert_array(sigma, t_k, x0_k, x1_k, s_k), t_k)

    return quad_batch(integrand, x0v, x1v, QUAD_TOL)


def s_recovery_residual(field: PsiField):
    """|s_from_psi(t) - S(t)| / sqrt(t): the inverse-direction front recovery."""
    error = s_from_psi(field, _TIMES) - field.stefan.free_boundary(_TIMES)
    return _reduce("front-recovery", {"S": error / np.sqrt(_TIMES)}, 1e-7)


def roundtrip_residual(field: PsiField):
    """|invert_x_star(x*(y,t), t) - y| / S(t) at the fractions 0.1, 0.5, 0.9."""
    t = _TIMES[:, None]
    s_t = field.stefan.free_boundary(t)
    ys = np.array([0.1, 0.5, 0.9]) * s_t
    back = field.invert_x_star(field.x_star(ys, t), t)
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
