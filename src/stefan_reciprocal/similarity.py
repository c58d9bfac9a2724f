"""Similarity solution of the one-phase melting problem with sqrt(t) data.

The problem is the classical heat equation T_t = T_yy on 0 < y < S(t) with
a prescribed flux -q at the fixed face, melt temperature Tm0*sqrt(t) on the
moving front, and latent heat L0*sqrt(t) in the Stefan condition.  The front
is S(t) = 2*gamma*sqrt(t), where gamma solves G(gamma) = F(gamma) (:mod:`.roots`),
and T(y,t) = A*(2*sqrt(t)*exp(-y^2/4t) + sqrt(pi)*y*erf(y/2sqrt(t))) - q*y.
The root solve and the closed forms (:mod:`.forms`) need no numpy; this
module evaluates the closed forms, checked, on arrays and jets.
"""

import math
import operator
from collections import namedtuple

import numpy as np

from .errors import DomainError
from .forms import ClosedForms, amplitude
from .roots import SQRT_PI, PhysicalParams, solve_gamma

class _Jet:
    """Truncated Taylor jet (u, u_y, u_yy, u_t) of a quantity at a point (y, t).

    Forward-mode differentiation (Griewank & Walther, *Evaluating
    Derivatives*, 2nd ed., SIAM 2008): +, -, *, / and the ufuncs sqrt and
    exp carry the exact first and second y-derivatives and the first
    t-derivative by the product and chain rules, and so does :func:`_erf`.
    The value component takes the float code's operations in its order, so
    its bits are those of a float evaluation.  Components are floats or
    arrays that broadcast together; :meth:`in_y` and :meth:`in_t` seed them.
    """

    __slots__ = ("v", "y", "yy", "t")

    def __init__(self, v, y, yy, t):
        self.v, self.y, self.yy, self.t = v, y, yy, t

    @staticmethod
    def in_y(y):
        """The jet of the coordinate y."""
        return _Jet(y, 1.0, 0.0, 0.0)

    @staticmethod
    def in_t(t):
        """The jet of the coordinate t."""
        return _Jet(t, 0.0, 0.0, 1.0)

    def chain(self, f, df, d2f):
        """The jet of g(self) from the values f, df and d2f of g, g' and g''."""
        return _Jet(f, df * self.y, d2f * self.y * self.y + df * self.yy, df * self.t)

    def __neg__(self):
        return _Jet(-self.v, -self.y, -self.yy, -self.t)

    def __add__(self, o):
        if not isinstance(o, _Jet):
            return _Jet(self.v + o, self.y, self.yy, self.t)
        return _Jet(self.v + o.v, self.y + o.y, self.yy + o.yy, self.t + o.t)

    def __sub__(self, o):
        return self + -o

    def __mul__(self, o):
        if not isinstance(o, _Jet):
            return _Jet(self.v * o, self.y * o, self.yy * o, self.t * o)
        return _Jet(
            self.v * o.v,
            self.y * o.v + self.v * o.y,
            self.yy * o.v + 2.0 * self.y * o.y + self.v * o.yy,
            self.t * o.v + self.v * o.t,
        )

    __radd__, __rmul__ = __add__, __mul__

    def __truediv__(self, o):
        if not isinstance(o, _Jet):
            return _Jet(self.v / o, self.y / o, self.yy / o, self.t / o)
        q = self.v / o.v
        q_y = (self.y - q * o.y) / o.v
        return _Jet(q, q_y, (self.yy - 2.0 * q_y * o.y - q * o.yy) / o.v, (self.t - q * o.t) / o.v)

    def sqrt(self):
        r = np.sqrt(self.v)
        return self.chain(r, 0.5 / r, -0.25 / (r * self.v))

    def exp(self):
        e = _libm(math.exp, self.v)
        return self.chain(e, e, e)

    def __array_ufunc__(self, ufunc, method, *args, **kwargs):
        """np.sqrt, np.exp, and arithmetic with a numpy array or scalar on the left."""
        rule = _JET_UFUNCS.get(ufunc) if method == "__call__" and not kwargs else None
        if rule is None:
            return NotImplemented
        return rule(*(a if isinstance(a, _Jet) else _Jet(a, 0.0, 0.0, 0.0) for a in args))


_JET_UFUNCS = {np.sqrt: _Jet.sqrt, np.exp: _Jet.exp,
               np.add: operator.add, np.subtract: operator.sub,
               np.multiply: operator.mul, np.true_divide: operator.truediv}


def _floats(x):
    """``x`` as a float array; a jet as it is."""
    return x if isinstance(x, _Jet) else np.asarray(x, dtype=float)


def _value(x):
    """The value component of a jet; any other ``x`` as it is."""
    return x.v if isinstance(x, _Jet) else x


def _check_time(t, positive=False):
    """``t`` as :func:`_floats` gives it; DomainError unless t >= 0, or t > 0 if ``positive``.

    S, L, Tm and C take t >= 0; dS/dt, X1*, H and the fields take t > 0.
    Every element must be inside, so a NaN is refused.
    """
    t = _floats(t)
    if not np.all(_value(t) > 0 if positive else _value(t) >= 0):
        raise DomainError("t must be > 0" if positive else "t must be >= 0")
    return t


def _scalar(out):
    """A 0-d result as a float; an array or a jet as it is."""
    return out if isinstance(out, _Jet) or out.ndim else float(out)


def _libm(fn, x):
    """libm's ``fn`` (math.erf, math.exp, ...) of every element of ``x``, in ``x``'s shape.

    numpy has no erf, and its exp and log differ from libm's in the last bit
    on some arguments: np.exp on about 4.6% of arguments in [-40, 0].
    """
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _erf(x):
    """libm's math.erf of every element, in ``x``'s shape; a jet takes
    erf' = (2/sqrt(pi))*exp(-x^2) and erf'' = -2x*erf'."""
    if isinstance(x, _Jet):
        d = 2.0 / SQRT_PI * _libm(math.exp, -x.v * x.v)
        return x.chain(_erf(x.v), d, -2.0 * x.v * d)
    return _libm(math.erf, x)


def _exp(x):
    """libm's math.exp of every element, in ``x``'s shape; a jet's :meth:`_Jet.exp`."""
    return x.exp() if isinstance(x, _Jet) else _libm(math.exp, x)


class StefanField(namedtuple("StefanField", "params gamma amplitude")):
    """Closed-form evaluator bundle for T, T_y and S: the PhysicalParams, their GammaRoot and
    A = (q - l0*gamma)/(sqrt(pi)*erf(gamma)); :meth:`from_params` solves for gamma."""

    __slots__ = ()

    @classmethod
    def from_params(cls, params: PhysicalParams) -> "StefanField":
        root = solve_gamma(params)
        return cls(params, root, amplitude(params, root.gamma))

    @property
    def forms(self) -> ClosedForms:
        """The closed forms on arrays and jets: numpy's sqrt, libm's exp and erf per element."""
        return ClosedForms(self.params, self.gamma.gamma, self.amplitude, np.sqrt, _exp, _erf)

    # -- geometry ---------------------------------------------------------

    def free_boundary(self, t):
        """Front position S(t) = 2*gamma*sqrt(t); S(0) = 0."""
        return _scalar(self.forms.front(_check_time(t)))

    def front_speed(self, t):
        """dS/dt = gamma / sqrt(t) for t > 0."""
        return _scalar(self.gamma.gamma / np.sqrt(_check_time(t, positive=True)))

    def latent_heat(self, t):
        """L(t) = l0*sqrt(t)."""
        return _scalar(self.forms.latent_heat(_check_time(t)))

    def melt_temperature(self, t):
        """Tm(t) = tm0*sqrt(t)."""
        return _scalar(self.forms.melt_temperature(_check_time(t)))

    # -- fields -----------------------------------------------------------

    def _check_domain(self, y, t):
        """DomainError unless every t > 0 and 0 <= y <= S(t), where monotone_sign certifies x*."""
        y, t = _value(_floats(y)), _value(_check_time(t, positive=True))
        if not np.all((y >= 0.0) & (y <= self.forms.front(t))):
            raise DomainError("y outside [0, S(t)]")

    def profile(self, y, t):
        """(T, T_y, eta, erf(eta), exp(-eta^2)), eta = y/(2*sqrt(t)), as arrays or jets for jets;
        unchecked, for any y and t > 0, as numerical fronts overshoot S(t) slightly."""
        return self.forms.profile(_floats(y), _floats(t))

    def temperature(self, y, t):
        """T(y,t) on 0 <= y <= S(t), t > 0."""
        self._check_domain(y, t)
        return _scalar(self.profile(y, t)[0])

    def temperature_gradient(self, y, t):
        """T_y(y,t) = A*sqrt(pi)*erf(y/(2 sqrt(t))) - q.

        The cross terms of differentiating T cancel, leaving this single
        term; it ties both face conditions together: T_y(0,t) = -q and
        T_y(S(t),t) = -l0*gamma.
        """
        self._check_domain(y, t)
        return _scalar(self.profile(y, t)[1])
