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
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .errors import DomainError, InvalidParameters, NoSignChange

SQRT_PI = math.sqrt(math.pi)

#: Relative slack allowed before a coordinate counts as outside [0, S(t)].
DOMAIN_RTOL = 1e-9


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
        for name in ("q", "l0", "tm0", "delta"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InvalidParameters(f"{name} must be finite, got {value}")
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
    """Root of G(gamma) = F(gamma) with solver metadata."""

    gamma: float
    residual: float
    bracket_lo: float
    bracket_hi: float
    iterations: int


def eval_G(x, params: PhysicalParams):
    """Left side of the root equation: q - l0*x, strictly decreasing."""
    x = np.asarray(x, dtype=float)
    out = params.q - params.l0 * x
    return float(out) if out.ndim == 0 else out


def eval_F(x, params: PhysicalParams):
    """Right side of the root equation: (tm0/2 + l0*x^2)*exp(x^2)*sqrt(pi)*erf(x).

    Overflows to +inf for large x, which bracketed root finding tolerates.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        out = (params.tm0 / 2.0 + params.l0 * x * x) * np.exp(x * x) * SQRT_PI * erf(x)
    return float(out) if out.ndim == 0 else out


def solve_gamma(params: PhysicalParams, tol: float = 1e-12) -> GammaRoot:
    """Solve G(gamma) = F(gamma) by bisection on (0, q/l0).

    The bracket endpoints start at eps and q/l0 - eps with
    eps = 1e-14*q/l0, so the function is never evaluated outside the open
    interval.  Bisection runs until the bracket width is <= tol and the
    returned gamma is the bracket midpoint, making the result deterministic
    for fixed inputs.

    Raises InvalidParameters unless tol is finite and > 0, and NoSignChange
    when G - F is single-signed on the bracket, which signals inadmissible
    data (e.g. strongly negative tm0).
    """
    if not (tol > 0):
        raise InvalidParameters(f"tol must be > 0, got {tol}")
    if not math.isfinite(tol):
        raise InvalidParameters(f"tol must be finite, got {tol}")
    upper = params.q / params.l0
    eps = 1e-14 * upper
    lo, hi = eps, upper - eps

    def diff(x):
        return eval_G(x, params) - eval_F(x, params)

    f_lo, f_hi = diff(lo), diff(hi)
    if f_lo == 0.0:
        return GammaRoot(lo, 0.0, lo, lo, 0)
    if f_hi == 0.0:
        return GammaRoot(hi, 0.0, hi, hi, 0)
    if np.sign(f_lo) == np.sign(f_hi):
        raise NoSignChange(
            f"G - F does not change sign on ({lo:.3g}, {hi:.3g}); "
            f"no admissible gamma for q={params.q}, l0={params.l0}, tm0={params.tm0}"
        )

    # halve until both the bracket width and the midpoint residual meet tol
    # (the residual needs a few extra halvings when |G' - F'| > 1 at the root)
    iterations = 0
    while iterations < 200:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # bracket at rounding resolution; best effort
        f_mid = diff(mid)
        iterations += 1
        if f_mid == 0.0 or (hi - lo <= tol and abs(f_mid) <= tol):
            return GammaRoot(mid, abs(f_mid), lo, hi, iterations)
        if np.sign(f_mid) == np.sign(f_lo):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid

    gamma = 0.5 * (lo + hi)
    return GammaRoot(gamma, abs(diff(gamma)), lo, hi, iterations)


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
    def from_params(cls, params: PhysicalParams, tol: float = 1e-12) -> "StefanField":
        root = solve_gamma(params, tol)
        g = root.gamma
        amplitude = (params.q - params.l0 * g) / (SQRT_PI * math.erf(g))
        return cls(params, root, amplitude)

    # -- geometry ---------------------------------------------------------

    def free_boundary(self, t):
        """Front position S(t) = 2*gamma*sqrt(t); S(0) = 0."""
        t = np.asarray(t, dtype=float)
        if np.any(t < 0):
            raise DomainError("t must be >= 0")
        out = 2.0 * self.gamma.gamma * np.sqrt(t)
        return float(out) if out.ndim == 0 else out

    def front_speed(self, t):
        """dS/dt = gamma / sqrt(t) for t > 0."""
        t = np.asarray(t, dtype=float)
        if np.any(t <= 0):
            raise DomainError("t must be > 0")
        out = self.gamma.gamma / np.sqrt(t)
        return float(out) if out.ndim == 0 else out

    def latent_heat(self, t):
        """L(t) = l0*sqrt(t)."""
        t = np.asarray(t, dtype=float)
        out = self.params.l0 * np.sqrt(t)
        return float(out) if out.ndim == 0 else out

    def melt_temperature(self, t):
        """Tm(t) = tm0*sqrt(t)."""
        t = np.asarray(t, dtype=float)
        out = self.params.tm0 * np.sqrt(t)
        return float(out) if out.ndim == 0 else out

    # -- fields -----------------------------------------------------------

    def _check_domain(self, y, t):
        t = np.asarray(t, dtype=float)
        if np.any(t <= 0):
            raise DomainError("temperature is defined for t > 0 only")
        s = 2.0 * self.gamma.gamma * np.sqrt(t)
        slack = DOMAIN_RTOL * s
        if np.any(y < -slack) or np.any(y > s + slack):
            raise DomainError("y outside [0, S(t)]")

    def temperature(self, y, t, check_domain: bool = True):
        """T(y,t) on 0 <= y <= S(t), t > 0.

        With check_domain=False the closed form is evaluated as-is, which is
        useful for comparisons against numerical fronts that overshoot S(t)
        slightly.
        """
        y = np.asarray(y, dtype=float)
        t = np.asarray(t, dtype=float)
        if check_domain:
            self._check_domain(y, t)
        elif np.any(t <= 0):
            raise DomainError("temperature is defined for t > 0 only")
        sqrt_t = np.sqrt(t)
        xi = y / (2.0 * sqrt_t)
        out = (
            self.amplitude * (2.0 * sqrt_t * np.exp(-xi * xi) + SQRT_PI * y * erf(xi))
            - self.params.q * y
        )
        return float(out) if out.ndim == 0 else out

    def temperature_gradient(self, y, t):
        """T_y(y,t) = A*sqrt(pi)*erf(y/(2 sqrt(t))) - q.

        The cross terms of differentiating T cancel, leaving this single
        term; it ties both face conditions together: T_y(0,t) = -q and
        T_y(S(t),t) = -l0*gamma.
        """
        y = np.asarray(y, dtype=float)
        t = np.asarray(t, dtype=float)
        self._check_domain(y, t)
        xi = y / (2.0 * np.sqrt(t))
        out = self.amplitude * SQRT_PI * erf(xi) - self.params.q
        return float(out) if out.ndim == 0 else out
