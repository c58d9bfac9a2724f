"""Similarity solution of the one-phase melting problem with sqrt(t) data.

The problem is the classical heat equation T_t = T_yy on 0 < y < S(t) with
a prescribed flux -q at the fixed face, melt temperature Tm0*sqrt(t) on the
moving front, and latent heat L0*sqrt(t) in the Stefan condition.  The front
is S(t) = 2*gamma*sqrt(t), where gamma solves the transcendental equation
G(gamma) = F(gamma) with

    G(x) = q - L0*x
    F(x) = (Tm0/2 + L0*x^2) * exp(x^2) * sqrt(pi) * erf(x)

and the temperature is

    T(y,t) = A*(2*sqrt(t)*exp(-y^2/4t) + sqrt(pi)*y*erf(y/2sqrt(t))) - q*y,
    A = (q - L0*gamma) / (sqrt(pi)*erf(gamma)).
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import DomainError, InvalidParameters, NoSignChange

SQRT_PI = math.sqrt(math.pi)

#: Relative slack allowed before a coordinate counts as outside [0, S(t)].
DOMAIN_RTOL = 1e-9

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
        e = np.exp(self.v)
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
    """
    t = _floats(t)
    if np.any(_value(t) <= 0) if positive else np.any(_value(t) < 0):
        raise DomainError("t must be > 0" if positive else "t must be >= 0")
    return t


def _scalar(out):
    """A 0-d result as a float; an array or a jet as it is."""
    return out if isinstance(out, _Jet) or out.ndim else float(out)


def _libm(fn, x):
    """libm's ``fn`` (math.erf, math.exp, ...) of every element of ``x``, in ``x``'s shape.

    numpy has no erf, and its exp and log differ from libm's in the last bit
    on some arguments.
    """
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _erf(x):
    """Error function: libm's math.erf of every element, in ``x``'s shape.

    A jet takes erf' = (2/sqrt(pi))*exp(-x^2) and erf'' = -2x*erf'.
    """
    if isinstance(x, _Jet):
        d = 2.0 / SQRT_PI * np.exp(-x.v * x.v)
        return x.chain(_erf(x.v), d, -2.0 * x.v * d)
    return _libm(math.erf, x)


def _check_reals(obj, names):
    """Refuse a field of ``obj`` that is a bool, not a real number, or not finite."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise InvalidParameters(f"{name} must be a real number, got {value!r}")
        if not math.isfinite(value):
            raise InvalidParameters(f"{name} must be finite, got {value}")


def _check_ints(obj, names):
    """Refuse a field of ``obj`` that is a bool or not an int."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, int):
            raise InvalidParameters(f"{name} must be an int, got {value!r}")


@dataclass(frozen=True)
class PhysicalParams:
    """Problem constants.

    q: flux magnitude at the fixed face (> 0)
    l0: latent-heat coefficient, L(t) = l0*sqrt(t) (> 0)
    tm0: melt-temperature coefficient, Tm(t) = tm0*sqrt(t) (< l0)
    delta: transformation constant (> 0)
    """

    q: float
    l0: float
    tm0: float = 0.0
    delta: float = 1.0

    def __post_init__(self):
        _check_reals(self, ("q", "l0", "tm0", "delta"))
        if not (self.q > 0):
            raise InvalidParameters(f"q must be > 0, got {self.q}")
        if not (self.l0 > 0):
            raise InvalidParameters(f"l0 must be > 0, got {self.l0}")
        if not (self.delta > 0):
            raise InvalidParameters(f"delta must be > 0, got {self.delta}")
        if not (self.l0 > self.tm0):
            raise InvalidParameters(
                f"requires l0 > tm0, got l0={self.l0}, tm0={self.tm0}"
            )


@dataclass(frozen=True)
class GammaRoot:
    """Root of G(gamma) = F(gamma) with solver metadata.

    ``residual`` is |G(gamma) - F(gamma)|: inf where F overflows at gamma,
    and nan where F is nan there (see :func:`eval_F`).
    """

    gamma: float
    residual: float
    bracket_lo: float
    bracket_hi: float
    iterations: int


def eval_G(x, params: PhysicalParams):
    """Left side of the root equation: q - l0*x, strictly decreasing."""
    return _scalar(params.q - params.l0 * np.asarray(x, dtype=float))


def eval_F(x, params: PhysicalParams):
    """Right side of the root equation: (tm0/2 + l0*x^2)*exp(x^2)*sqrt(pi)*erf(x).

    Overflows to +-inf for large x, and is nan where exp(x^2) overflows and
    tm0/2 + l0*x^2 is exactly 0; bracketed root finding tolerates both.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        out = (params.tm0 / 2.0 + params.l0 * x * x) * np.exp(x * x) * SQRT_PI * _erf(x)
    return _scalar(out)


def _g_minus_f(x, params):
    """G(x) - F(x); the fields of ``params`` may be arrays that broadcast against x."""
    return eval_G(x, params) - eval_F(x, params)


def _bisect(params):
    """The GammaRoot fields of every PhysicalParams in the list ``params``, as arrays.

    Each bracket starts at eps and q/l0 - eps with eps = 1e-14*q/l0, so
    G - F is never evaluated outside the open interval, and is halved while
    its midpoint lies strictly inside it: until its ends are adjacent
    doubles, or until G - F is exactly 0 at an end or a midpoint, where the
    bracket closes on that point.  gamma is the last midpoint, an end of the
    bracket.  All cells share one G - F evaluation per halving.
    """
    cells = SimpleNamespace(**{k: np.array([getattr(p, k) for p in params], dtype=float)
                               for k in ("q", "l0", "tm0")})
    upper = cells.q / cells.l0
    eps = 1e-14 * upper
    lo, hi = eps, upper - eps
    f_lo, f_hi = _g_minus_f(lo, cells), _g_minus_f(hi, cells)
    none = (f_lo != 0.0) & (np.sign(f_lo) == np.sign(f_hi))
    if np.any(none):
        i = int(np.argmax(none))
        p, a, b = params[i], lo[i], hi[i]
        raise NoSignChange(
            f"G - F does not change sign on ({a:.3g}, {b:.3g}); "
            f"no admissible gamma for q={p.q}, l0={p.l0}, tm0={p.tm0}"
        )
    # a zero at an end closes the bracket on that end
    at_lo, at_hi = f_lo == 0.0, (f_hi == 0.0) & (f_lo != 0.0)
    hi, f_hi = np.where(at_lo, lo, hi), np.where(at_lo, f_lo, f_hi)
    lo = np.where(at_hi, hi, lo)
    iterations = np.zeros(lo.shape, dtype=int)
    while True:
        mid = 0.5 * (lo + hi)
        inside = (lo < mid) & (mid < hi)
        if not inside.any():
            break
        f_mid = _g_minus_f(mid, cells)
        iterations += inside
        same, zero = np.sign(f_mid) == np.sign(f_lo), f_mid == 0.0
        up, down = inside & (same | zero), inside & ~same
        lo, f_lo = np.where(up, mid, lo), np.where(up, f_mid, f_lo)
        hi, f_hi = np.where(down, mid, hi), np.where(down, f_mid, f_hi)
    return mid, np.abs(np.where(mid == hi, f_hi, f_lo)), lo, hi, iterations


def solve_gamma(params: PhysicalParams) -> GammaRoot:
    """Solve G(gamma) = F(gamma) by bisection on (0, q/l0) to adjacent doubles.

    The bracket endpoints start at eps and q/l0 - eps with
    eps = 1e-14*q/l0, so the function is never evaluated outside the open
    interval.  Bisection halves the bracket until its midpoint is no longer
    strictly inside it, which leaves bracket_lo and bracket_hi adjacent
    doubles and gamma the one of them that the midpoint rounds to; where
    G - F is exactly 0 at an end or a midpoint, the bracket closes on that
    point and the residual is 0.  The result is deterministic for fixed inputs.

    Raises NoSignChange when G - F is single-signed on the bracket, which
    signals inadmissible data (e.g. strongly negative tm0).
    """
    return solve_gammas([params])[0]


def solve_gammas(params: list[PhysicalParams]) -> list[GammaRoot]:
    """:func:`solve_gamma` of every PhysicalParams in ``params``, by one array bisection.

    Raises as solve_gamma does, for the first cell in order without a sign change.
    """
    return [GammaRoot(*root) for root in zip(*(v.tolist() for v in _bisect(params)))]


def physical_margin(params: PhysicalParams, gamma: float) -> float:
    """Margin q - l0*gamma - sqrt(pi)*(tm0/2)*erf(gamma) of the melting condition."""
    return params.q - params.l0 * gamma - SQRT_PI * (params.tm0 / 2.0) * math.erf(gamma)


def check_physical_condition(params: PhysicalParams, gamma: float) -> bool:
    """True iff the front coefficient satisfies the melting (positivity) condition."""
    return physical_margin(params, gamma) > 0.0


@dataclass(frozen=True)
class StefanField:
    """Closed-form evaluator bundle for T, T_y and S.

    Construct via :meth:`from_params`, which solves for gamma.
    """

    params: PhysicalParams
    gamma: GammaRoot
    amplitude: float  # A = (q - l0*gamma) / (sqrt(pi)*erf(gamma))

    @classmethod
    def from_params(cls, params: PhysicalParams) -> "StefanField":
        root = solve_gamma(params)
        g = root.gamma
        amplitude = (params.q - params.l0 * g) / (SQRT_PI * math.erf(g))
        return cls(params, root, amplitude)

    # -- geometry ---------------------------------------------------------

    def free_boundary(self, t):
        """Front position S(t) = 2*gamma*sqrt(t); S(0) = 0."""
        return _scalar(2.0 * self.gamma.gamma * np.sqrt(_check_time(t)))

    def front_speed(self, t):
        """dS/dt = gamma / sqrt(t) for t > 0."""
        return _scalar(self.gamma.gamma / np.sqrt(_check_time(t, positive=True)))

    def latent_heat(self, t):
        """L(t) = l0*sqrt(t)."""
        return _scalar(self.params.l0 * np.sqrt(_check_time(t)))

    def melt_temperature(self, t):
        """Tm(t) = tm0*sqrt(t)."""
        return _scalar(self.params.tm0 * np.sqrt(_check_time(t)))

    # -- fields -----------------------------------------------------------

    def _check_domain(self, y, t):
        y, t = _value(y), _value(_check_time(t, positive=True))
        s = 2.0 * self.gamma.gamma * np.sqrt(t)
        slack = DOMAIN_RTOL * s
        if np.any(y < -slack) or np.any(y > s + slack):
            raise DomainError("y outside [0, S(t)]")

    def profile(self, y, t):
        """(T, T_y, eta, erf(eta), exp(-eta^2)) as arrays, eta = y/(2*sqrt(t)); unchecked.

        The closed form is evaluated as-is for any y and any t > 0, which
        suits numerical fronts that overshoot S(t) slightly.  The eta terms
        are returned so that Theta can be assembled from the same values.
        ``y`` and ``t`` may be jets (:class:`_Jet`); the results are then jets.
        """
        y = _floats(y)
        sqrt_t = np.sqrt(_floats(t))
        eta = y / (2.0 * sqrt_t)
        erf_eta, gauss = _erf(eta), np.exp(-eta * eta)
        temp = (
            self.amplitude * (2.0 * sqrt_t * gauss + SQRT_PI * y * erf_eta)
            - self.params.q * y
        )
        grad = self.amplitude * SQRT_PI * erf_eta - self.params.q
        return temp, grad, eta, erf_eta, gauss

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
