"""Reciprocal transformation between the melting problem and the source equation.

Given a solution (T, S) of the moving-boundary heat problem, the chain

    C(t)     = integral_0^t [L - Tm] * dS/dtau dtau
    Theta    = C(t) - integral_{S(t)}^{y} T(u,t) du
    x*(y,t)  = T / (delta * Theta)
    Psi      = delta * Theta^2 / (T_y * Theta + T^2)

produces a parametric solution Psi(x*, t) of the nonlinear evolution
equation Psi_t = d/dx*(Psi_x*/Psi^2) + 2*delta posed between the two free
boundaries X0*(t) = x*(0,t) and X1*(t) = Tm(t)/(delta*C(t)).

The paper solves the problem explicitly only for the sqrt(t) family, and
:class:`PsiField` is a view of one such :class:`StefanField`:
``PsiField(field)`` is its only construction, and C and Theta are its
closed-form methods.  The formulas live in :mod:`.forms`; one core,
``PsiField._parts``, checks (y, t) once and evaluates the field's
``forms.parts`` once for x*, dx*/dy, Psi and Theta.  It does not check
Theta: Theta > 0 on the phase region is a theorem.  In eta = y/(2*sqrt(t)),
Theta/t has second derivative -4*T_y > 0, as T_y runs from -q to -l0*gamma,
and A = (tm0/2 + l0*gamma^2)*exp(gamma^2) > 0 makes T convex and decreasing
in y.  If tm0 >= 0, T >= Tm >= 0 gives Theta >= C(t).  If tm0 < 0, T above
its tangent at S gives Theta >= t*(gamma*(l0 - tm0) - tm0^2/(2*l0*gamma)),
and A > 0 gives |tm0| < 2*l0*gamma^2.  So Theta >= C(t)*l0/(l0 + max(0,
-tm0)) > 0, and Psi is IEEE +-inf only where D = T_y*Theta + T^2 is exactly
0.  D = t*d(eta) has the sign of dx*/dy, so whether x* is monotone on
[0, S(t)] does not depend on t: the first inversion decides it once per
field (:attr:`PsiField.monotone_sign`).  The quadrature oracles for the
closed forms and the front recovery S(t) = integral Psi dx* live in
:mod:`.verify`, which alone reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidParameters, NotMonotone, OutOfRange
from .forms import amplitude
from .roots import SQRT_PI, GammaRoot, PhysicalParams
from .similarity import StefanField, _check_time, _floats, _libm, _scalar

#: Initial and most open cells of the monotonicity certificate on [0, S(1)].
MONOTONE_CELLS = 32
MONOTONE_MAX_CELLS = 4096

#: An inverted point is accepted within this fraction of |X1*(t) - X0*(t)| of its target.
INVERT_RTOL = 1e-13

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class BoundaryCoefficients:
    """Coefficients of the 1/sqrt(t) free boundaries: Xi*(t) = Ci/(delta*sqrt(t))."""

    c0: float
    c1: float


def compute_boundary_coefficients(params: PhysicalParams, gamma) -> BoundaryCoefficients:
    """Closed-form (C0, C1) of the sqrt(t) family.

    gamma may be a float or a GammaRoot; InvalidParameters unless it lies in
    (0, q/l0), where A > 0.  C0 = 2*A/q, as x*(0, t) = 2*A*sqrt(t)/(delta*q*t)
    by the face identity Theta(0, t) = q*t.
    """
    g = gamma.gamma if isinstance(gamma, GammaRoot) else float(gamma)
    if not 0.0 < g < params.q / params.l0:
        raise InvalidParameters(f"gamma must be finite and in (0, q/l0), got {g!r}")
    c1 = params.tm0 / (g * (params.l0 - params.tm0))
    return BoundaryCoefficients(c0=2.0 * amplitude(params, g) / params.q, c1=c1)


class PsiField:
    """The transformed problem as a view of one sqrt(t)-family StefanField.

    ``PsiField(field)`` exposes C and Theta in closed form, the map
    (y,t) -> (x*, Psi), its inversion, the free boundaries and H(t).
    x*, dx*/dy, Psi and Theta read
    :meth:`_parts`, which raises DomainError for t <= 0 or y outside
    [0, S(t)]; Theta > 0 there (module docstring), so no evaluation checks
    it.  The first inversion raises NotMonotone (:attr:`monotone_sign`); the
    forward map does not.  A test fake subclasses PsiField, overrides
    ``_parts`` and ``c``, and passes an object with the field's method names.
    """

    def __init__(self, field: StefanField):
        self.stefan = field
        self.delta = float(field.params.delta)

    # -- evaluation core ----------------------------------------------------

    def _parts(self, y, t):
        """(T, T_y, Theta) as float arrays, or jets for jets: one domain check, one profile."""
        f = self.stefan
        f._check_domain(y, t)
        return f.forms.parts(_floats(y), _floats(t))

    def c(self, t):
        """C(t) = gamma*(l0 - tm0)*t, linear in t for the sqrt(t) family."""
        return _scalar(self.stefan.forms.c(_check_time(t)))

    def theta(self, y, t):
        """Theta(y,t) = C(t) - integral_{S(t)}^{y} T(u,t) du on 0 <= y <= S(t)."""
        return _scalar(self._parts(y, t)[2])

    def x_star(self, y, t):
        """Parametric coordinate x* = T / (delta * Theta)."""
        return _scalar(self.stefan.forms.x_star(self._parts(y, t)))

    def _x_and_slope(self, y, t):
        """x* and Newton's slope dx*/dy = 1/Psi = (T_y*Theta + T^2)/(delta*Theta^2).

        The slope is Psi's formula inverted; reciprocal-identity checks it on jets.
        """
        temp, grad, theta = parts = self._parts(y, t)
        slope = (grad * theta + temp * temp) / (self.delta * theta * theta)
        return self.stefan.forms.x_star(parts), slope

    def psi_parametric(self, y, t):
        """Psi = delta*Theta^2 / (T_y*Theta + T^2), parametrized by (y, t)."""
        return _scalar(self.stefan.forms.psi(self._parts(y, t)))

    def x0(self, t):
        """Left parametric boundary X0*(t) = x*(0, t)."""
        return self.x_star(0.0, t)

    def x1(self, t):
        """Moving-front image X1*(t) = Tm(t) / (delta * C(t)) for t > 0."""
        return _scalar(self.stefan.forms.x1(_check_time(t, positive=True)))

    # -- inversion ----------------------------------------------------------

    @cached_property
    def monotone_sign(self) -> float:
        """+1.0 if x* increases in y on [0, S(t)] for every t, -1.0 if it decreases.

        dx*/dy = D/(delta*Theta^2) and D = t*d(eta), so a certificate that D
        keeps one sign on y in [0, 2*gamma] at t = 1 holds for every t.  On a
        cell [a, b], T_yy = A*exp(-y^2/4) > 0 falls, T and T_y are monotone
        and Theta > 0 is convex, so |D_y| = |T_yy*Theta + T*T_y| <= lip =
        A*exp(-a^2/4)*max Theta + max|T|*max|T_y|, maxima over the two ends,
        and D has no zero there if |D(a)| + |D(b)| > lip*(b - a) + 2*margin.
        margin, 64*eps times the size of D's terms, bounds the rounding of D
        and, as no cell is wider than 2*gamma/MONOTONE_CELLS, of lip*(b - a).
        Open cells are halved.  Raises NotMonotone where a computed D changes
        sign, and where a cell stays undecided: halved to rounding, or one of
        more than MONOTONE_MAX_CELLS open.
        """
        p, g, a = self.stefan.params, self.stefan.gamma.gamma, self.stefan.amplitude
        size_t, size_ty = a * (2.0 + 2.0 * SQRT_PI * g) + 2.0 * p.q * g, a * SQRT_PI + p.q
        size_theta = (g * (p.l0 + abs(p.tm0)) + 4.0 * p.q * g * g
                      + 2.0 * a * (SQRT_PI * (1.0 + 2.0 * g * g) + 2.0 * g))
        margin = 64.0 * _EPS * (size_ty * size_theta + size_t * size_t)

        def at(y):
            """(y, |T|, |T_y|, Theta, D) at t = 1, one row per point."""
            temp, grad, theta = self._parts(y, 1.0)
            return np.stack((y, np.abs(temp), np.abs(grad), theta, grad * theta + temp * temp))

        new = at(np.linspace(0.0, 2.0 * g, MONOTONE_CELLS + 1))
        sign, left, right = np.sign(new[4, 0]), new[:, :-1], new[:, 1:]
        while np.all(np.sign(new[4]) == sign):
            lip = (a * _libm(math.exp, -0.25 * left[0] ** 2) * np.maximum(left[3], right[3])
                   + np.maximum(left[1], right[1]) * np.maximum(left[2], right[2]))
            open_ = np.abs(left[4]) + np.abs(right[4]) <= lip * (right[0] - left[0]) + 2.0 * margin
            if not open_.any():
                return float(sign)
            left, right = left[:, open_], right[:, open_]
            mid = 0.5 * (left[0] + right[0])
            if mid.size > MONOTONE_MAX_CELLS or np.any((mid <= left[0]) | (mid >= right[0])):
                raise NotMonotone("D = T_y*Theta + T^2 stays undecided near 0: "
                                  "x*(., t) is not certified monotone on [0, S(t)]")
            new = at(mid)
            left, right = np.hstack((left, new)), np.hstack((new, right))
        raise NotMonotone("D = T_y*Theta + T^2 changes sign: "
                          "x*(., t) is not monotone on [0, S(t)], for every t")

    def _orientation(self, t):
        """(x*(0, t), x*(S(t), t), S(t)), shaped like t."""
        s = self.stefan.free_boundary(t)
        xv = self.x_star(np.linspace(0.0, s, 2), t)
        return xv[0], xv[1], s

    def _invert_array(self, xs, t, x0v, x1v, s):
        """Vectorized Newton solve of x*(., t) = xs on [0, S(t)] with dx*/dy = 1/Psi.

        Starts from the chord between (0, X0*) and (S, X1*), clamped into
        [0, S(t)]; a step that is not finite or leaves the bisection bracket
        [lo, hi] becomes its midpoint.  Each point is frozen at the first y
        that meets the stopping rule of :meth:`invert_x_star` and is not
        evaluated again, so its result does not depend on the rest of the
        batch.  ``t`` and the orientation values (:meth:`_orientation`)
        broadcast against ``xs``.
        """
        sign = self.monotone_sign
        xs = np.asarray(xs, dtype=float)
        lo_x, hi_x = np.minimum(x0v, x1v), np.maximum(x0v, x1v)
        slack = 1e-9 * (hi_x - lo_x)
        inside = (xs >= lo_x - slack) & (xs <= hi_x + slack)
        if not np.all(inside):
            lo_b, hi_b, t_b = (
                np.broadcast_to(v, inside.shape)[~inside][0] for v in (lo_x, hi_x, t)
            )
            raise OutOfRange(f"target outside [{lo_b:.6g}, {hi_b:.6g}] at t={t_b}")
        target = sign * np.clip(xs, lo_x, hi_x)
        # s*a/b rounds up to an ulp above s at a = b; y stays in [0, S(t)]
        y = np.clip(s * (target - sign * x0v) / (sign * (x1v - x0v)), 0.0, s)
        tol = INVERT_RTOL * (hi_x - lo_x)
        shape = np.broadcast_shapes(y.shape, np.shape(t))
        # flat arrays over the batch; the live ones are indexed by `live`
        y, target, t, tol, s = (np.broadcast_to(v, shape).ravel() for v in (y, target, t, tol, s))
        floor = 16.0 * _EPS * s
        lo, hi, result, live = np.zeros_like(y), s, np.empty_like(y), np.arange(y.size)
        for _ in range(110):
            fx, slope = self._x_and_slope(y, t[live])
            fm = sign * fx
            below = fm < target[live]
            lo = np.where(below, y, lo)
            hi = np.where(below, hi, y)
            with np.errstate(all="ignore"):
                step = y - (fm - target[live]) / (sign * slope)
            inside = np.isfinite(step) & (step > lo) & (step < hi)
            hit = (np.abs(fm - target[live]) <= tol[live]) | (hi - lo <= floor[live])
            hit |= ~inside & (np.abs(step - y) <= floor[live])
            result[live[hit]] = y[hit]
            live, y, lo, hi, step, inside = (v[~hit] for v in (live, y, lo, hi, step, inside))
            if not live.size:
                break
            y = np.where(inside, step, 0.5 * (lo + hi))
        result[live] = y
        return result.reshape(shape)

    def invert_x_star(self, xs, t):
        """Solve x*(y, t) = xs for y: Newton on dx*/dy = 1/Psi inside a bisection bracket.

        A point is accepted once |x*(y,t) - xs| <= INVERT_RTOL*|X1* - X0*|,
        once its bracket is 16*eps*S(t) wide, or once a Newton step that
        leaves the bracket would move y by at most 16*eps*S(t): y is then at
        rounding, and the bracket's far end need not have moved.  All three
        are relative to the map's own scale, so the accepted y does not
        depend on delta (x* is proportional to 1/delta).  ``t`` may be an
        array that broadcasts against ``xs``.  Raises NotMonotone if x* is
        not monotone in y (see :attr:`monotone_sign`) and OutOfRange if xs is
        not finite or lies outside the boundary interval.
        """
        out = self._invert_array(xs, t, *self._orientation(t))
        return _scalar(out)

    # -- derived identities ---------------------------------------------------

    def h_of_t(self, t):
        """Source-equation coefficient H(t) assembled from both boundaries.

        For the sqrt(t) family every term scales as 1/t and the face
        identity Theta(0,t) = q*t makes H vanish with an exact gamma.  With
        gamma bisected to adjacent doubles, H*t is rounding noise that
        changes sign with t: over eval's t in [0.25, 4], max |H*t| is 3.9e-15
        at (q, l0, tm0) = (1, 1, 0.5), 2.6e-9 at (0.1, 1, 0.99) and 1.2e-9
        at (1e-3, 1, 0.5), two points where its first term reaches 3.9e6
        and 1.1e6.  Each time gets the same bits alone as in a batch.
        """
        return _scalar(self.stefan.forms.h(_check_time(t, positive=True)))
