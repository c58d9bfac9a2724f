"""The problem's parameters and the front coefficient gamma, without numpy.

The front of the similarity solution is S(t) = 2*gamma*sqrt(t), where gamma
is the root on (0, q/l0) of G(gamma) = F(gamma) with

    G(x) = q - l0*x
    F(x) = (tm0/2 + l0*x^2) * exp(x^2) * sqrt(pi) * erf(x).

Everything here is scalar libm arithmetic (math.exp, math.erf) on floats, and
the module imports only ``errors`` and the standard library's math and
collections, so the `gamma` and `sweep` subcommands run without importing
numpy or inspect; numbers loads only to check a value that is neither an int
nor a float.  The package's records are immutable namedtuples: equal
to the plain tuple of their fields, with ``_replace`` and ``_asdict``.
"""

import math
from collections import namedtuple

from .errors import InvalidParameters, NoSignChange

SQRT_PI = math.sqrt(math.pi)


def _check_reals(obj, names):
    """Refuse a field of ``obj`` that is a bool, not a real number, or not finite."""
    for name in names:
        value = getattr(obj, name)
        if type(value) not in (int, float):  # a bool, a numpy scalar, a Fraction, ...
            import numbers

            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise InvalidParameters(f"{name} must be a real number, got {value!r}")
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an int or a Fraction beyond the float range
            finite = False
        if not finite:
            raise InvalidParameters(f"{name} must be finite, got {value}")


def _check_ints(obj, names):
    """Refuse a field of ``obj`` that is a bool or not an int."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, int):
            raise InvalidParameters(f"{name} must be an int, got {value!r}")


class _Checked:
    """Base, before the namedtuple, of a record whose ``__new__`` checks its values."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        """Through ``__new__``, so that ``_make`` and ``_replace`` check the values too."""
        return cls(*iterable)


class PhysicalParams(_Checked, namedtuple("PhysicalParams", "q l0 tm0 delta")):
    """Problem constants.

    q: flux magnitude at the fixed face (> 0)
    l0: latent-heat coefficient, L(t) = l0*sqrt(t) (> 0)
    tm0: melt-temperature coefficient, Tm(t) = tm0*sqrt(t) (< l0)
    delta: transformation constant (> 0)

    q/l0, the upper end of gamma's bracket, must be finite.
    """

    __slots__ = ()

    def __new__(cls, q, l0, tm0=0.0, delta=1.0):
        self = super().__new__(cls, q, l0, tm0, delta)
        _check_reals(self, cls._fields)
        for name, value in (("q", q), ("l0", l0), ("delta", delta)):
            if not (value > 0):
                raise InvalidParameters(f"{name} must be > 0, got {value}")
        if not (l0 > tm0):
            raise InvalidParameters(f"requires l0 > tm0, got l0={l0}, tm0={tm0}")
        if not math.isfinite(q / l0):
            raise InvalidParameters(f"q/l0 must be finite, got q={q}, l0={l0}")
        return self


class GammaRoot(namedtuple("GammaRoot", "gamma residual bracket_lo bracket_hi iterations")):
    """Root of G(gamma) = F(gamma) with solver metadata.

    ``residual`` is |G(gamma) - F(gamma)|: inf where F overflows at gamma,
    and nan where F is nan there (see :func:`eval_F`).
    """

    __slots__ = ()


def eval_G(x: float, params: PhysicalParams) -> float:
    """Left side of the root equation: q - l0*x, strictly decreasing."""
    return params.q - params.l0 * x


def eval_F(x: float, params: PhysicalParams) -> float:
    """Right side of the root equation: (tm0/2 + l0*x^2)*exp(x^2)*sqrt(pi)*erf(x).

    IEEE arithmetic on a float x: +-inf where exp(x^2) overflows, and nan where
    that overflow meets tm0/2 + l0*x^2 == 0; bracketed root finding tolerates both.
    """
    try:
        growth = math.exp(x * x)
    except OverflowError:
        growth = math.inf
    return (params.tm0 / 2.0 + params.l0 * x * x) * growth * SQRT_PI * math.erf(x)


def _same_sign(a, b):
    """Both > 0 or both < 0; False where either is 0 or nan."""
    return (a > 0.0 and b > 0.0) or (a < 0.0 and b < 0.0)


def solve_gamma(params: PhysicalParams) -> GammaRoot:
    """Solve G(gamma) = F(gamma) by bisection on (0, q/l0) to adjacent doubles.

    The bracket endpoints start at eps and q/l0 - eps with
    eps = 1e-14*q/l0, so the function is never evaluated outside the open
    interval.  :func:`_bisect` leaves bracket_lo and bracket_hi adjacent
    doubles, or closes them on an exact zero of G - F, where the residual is 0.

    Raises NoSignChange when G - F is single-signed on the bracket, which
    signals inadmissible data (e.g. strongly negative tm0).
    """
    upper = float(params.q) / float(params.l0)
    eps = 1e-14 * upper
    lo, hi = eps, upper - eps

    def gap(x):
        return eval_G(x, params) - eval_F(x, params)
    f_lo, f_hi = gap(lo), gap(hi)
    if _same_sign(f_lo, f_hi):
        raise NoSignChange(
            f"G - F does not change sign on ({lo:.3g}, {hi:.3g}); "
            f"no admissible gamma for q={params.q}, l0={params.l0}, tm0={params.tm0}"
        )
    return GammaRoot(*_bisect(gap, lo, hi, f_lo, f_hi))


def _bisect(f, lo, hi, f_lo, f_hi):
    """Halve [lo, hi], where f changes sign, to adjacent doubles or an exact zero of f:
    (x, |f(x)|, lo, hi, iterations), x the end that the last midpoint rounds to."""
    if f_lo == 0.0:
        hi, f_hi = lo, f_lo
    elif f_hi == 0.0:
        lo = hi
    iterations = 0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        f_mid = f(mid)
        iterations += 1
        if f_mid == 0.0:
            lo = hi = mid
            f_lo = f_hi = f_mid
        elif _same_sign(f_mid, f_lo):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return mid, float(abs(f_hi if mid == hi else f_lo)), lo, hi, iterations


def physical_margin(params: PhysicalParams, gamma: float) -> float:
    """Margin q - l0*gamma - sqrt(pi)*(tm0/2)*erf(gamma) of the melting condition."""
    return params.q - params.l0 * gamma - SQRT_PI * (params.tm0 / 2.0) * math.erf(gamma)
