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
and A > 0 gives |tm0| < 2*l0*gamma^2.  So Theta >= C(t)*l0/(l0 + max(0, -tm0))
> 0, and Psi is IEEE +-inf only where D = T_y*Theta + T^2 is exactly 0.

D = t*d(eta) has the sign of dx*/dy, so x* is monotone on [0, S(t)] for
every t or for none; :attr:`PsiField.monotone_sign` decides at t = 1.  Lemma:
D has at most one critical point on [0, S(t)], a minimum, and D_y(0, t) =
A*q*sqrt(t) - 2*A*q*sqrt(t) < 0, as T_yy = A*exp(-eta^2)/sqrt(t).  Proof:
Theta_y = -T gives D_y = T_yy*Theta + T*T_y and D_yy = T_yyy*Theta + T_y^2,
and T_yyy = -eta*T_yy/sqrt(t), so where D_y = 0, D_yy = T_y*g with
g = T_y + eta*T/sqrt(t).  At t = 1, g = -h, with k = -T_y > 0 and
h = (1 + 2*eta^2)*k - 2*A*eta*exp(-eta^2): h'' = 4*k > 0, h = k where h' = 0,
h(0) = q and h(gamma) = gamma*(l0 - tm0), so h > 0 and D_yy = k*h > 0 at every
critical point; two strict minima would enclose a maximum.  So max D is the
larger of D(0, 1) = 4*A^2 - q^2 and D(S, 1) = tm0^2 - l0*gamma^2*(l0 - tm0),
and min D is D(S, 1) if D_y(S, 1) <= 0, else D at the one zero of D_y.
"""

from collections import namedtuple
from functools import cached_property

import numpy as np

from .errors import InvalidParameters, OutOfRange
from .forms import ClosedForms, amplitude
from .roots import GammaRoot, PhysicalParams
from .similarity import StefanField, _check_time, _floats, _scalar

#: An inverted point is accepted within this fraction of |X1*(t) - X0*(t)| of its target.
INVERT_RTOL = 1e-13

_EPS = np.finfo(float).eps


class BoundaryCoefficients(namedtuple("BoundaryCoefficients", "c0 c1")):
    """Coefficients of the 1/sqrt(t) free boundaries: Xi*(t) = Ci/(delta*sqrt(t))."""

    __slots__ = ()


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
    x*, dx*/dy, Psi and Theta read :meth:`_parts`, which raises DomainError
    for t <= 0 or y outside [0, S(t)].  The first inversion raises
    NotMonotone (:attr:`monotone_sign`); the forward map does not.  A test
    fake subclasses PsiField, overrides ``_parts`` and ``c``, and passes an
    object with the field's method names.
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
        """+1.0 if x* increases in y on [0, S(t)] for every t, -1.0 if it decreases:
        the sign of D at t = 1 (module docstring) by :meth:`.ClosedForms.monotone_sign`."""
        f = self.stefan
        return ClosedForms(f.params, f.gamma.gamma, f.amplitude).monotone_sign()

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
