"""Reciprocal transformation between the melting problem and the source equation.

Given a solution (T, S) of the moving-boundary heat problem, the chain

    C(t)     = integral_0^t [L - Tm] * dS/dtau dtau
    Theta    = C(t) - integral_{S(t)}^{y} T(u,t) du
    x*(y,t)  = T / (delta * Theta)
    Psi      = delta * Theta^2 / (T_y * Theta + T^2)

produces a parametric solution Psi(x*, t) of the nonlinear evolution
equation Psi_t = d/dx*(Psi_x*/Psi^2) + 2*delta posed between the two free
boundaries X0*(t) = x*(0,t) and X1*(t) = Tm(t)/(delta*C(t)).

:class:`PsiField` evaluates the chain from two ingredients chosen once, at
construction: Theta(y,t) and C(t).  :meth:`PsiField.from_stefan` supplies
the closed forms of the sqrt(t) family (:func:`closed_form_theta`,
:func:`closed_form_c`); :meth:`PsiField.from_handle` supplies the
quadratures :func:`theta_quadrature` and :func:`c_of_t_general` for any
caller-supplied :class:`StefanSolutionHandle`, whose scalar callables it
vectorizes.  Every other method has a single code path.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from functools import partial
from typing import Callable, Optional

import numpy as np
from scipy.special import erf

from .errors import (
    DegenerateDenominator,
    DomainError,
    InvalidParameters,
    NotMonotone,
    OutOfRange,
    QuadratureFailure,
    SingularDenominator,
    SingularTheta,
)
from .similarity import SQRT_PI, GammaRoot, PhysicalParams, StefanField

#: Theta values below this fraction of C(t) count as a breakdown of the map.
THETA_RTOL = 1e-13

#: Sample count of the monotonicity pre-check used before inversion.
MONOTONE_SAMPLES = 64


def quad_checked(func, a: float, b: float, quad_tol: float, limit: int = 200) -> float:
    """Adaptive quadrature that raises QuadratureFailure when the estimate misses tol."""
    if a == b:
        return 0.0
    # scipy.integrate takes ~0.2 s to import and only quadrature needs it.
    from scipy.integrate import IntegrationWarning, quad

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        value, abserr = quad(func, a, b, epsabs=quad_tol, epsrel=quad_tol, limit=limit)
    if abserr > 10.0 * max(quad_tol, abs(value) * quad_tol):
        raise QuadratureFailure(
            f"quadrature error estimate {abserr:.3e} exceeds tolerance {quad_tol:.3e}"
        )
    return value


@dataclass(frozen=True)
class StefanSolutionHandle:
    """Caller-supplied solution bundle (T, T_y, S, dS/dt, L, Tm)."""

    T: Callable[[float, float], float]
    T_y: Callable[[float, float], float]
    S: Callable[[float], float]
    S_dot: Callable[[float], float]
    L: Callable[[float], float]
    Tm: Callable[[float], float]

    @classmethod
    def from_field(cls, field: StefanField) -> "StefanSolutionHandle":
        return cls(
            T=field.temperature,
            T_y=field.temperature_gradient,
            S=field.free_boundary,
            S_dot=field.front_speed,
            L=field.latent_heat,
            Tm=field.melt_temperature,
        )

    def validate(self, t_samples=(0.5, 1.0, 2.0), tol: float = 1e-8) -> None:
        """Check T(S(t),t) = Tm(t) at the given times; raise on violation."""
        for t in t_samples:
            s = self.S(t)
            if not s > 0:
                raise InvalidParameters(f"S({t}) = {s} is not positive")
            dev = abs(self.T(s, t) - self.Tm(t))
            if dev > tol * (1.0 + abs(self.Tm(t))):
                raise InvalidParameters(
                    f"handle violates T(S(t),t)=Tm(t) at t={t}: deviation {dev:.3e}"
                )


def c_of_t_general(handle: StefanSolutionHandle, t: float, quad_tol: float = 1e-10) -> float:
    """C(t) = integral_0^t [L(tau) - Tm(tau)] * dS/dtau dtau by adaptive quadrature."""
    if t < 0:
        raise DomainError("t must be >= 0")

    def integrand(tau):
        return (handle.L(tau) - handle.Tm(tau)) * handle.S_dot(tau)

    return quad_checked(integrand, 0.0, float(t), quad_tol)


def theta_quadrature(
    y: float, t: float, handle: StefanSolutionHandle, quad_tol: float = 1e-10
) -> float:
    """Theta(y,t) = C(t) - integral_{S(t)}^{y} T(u,t) du, both by quadrature.

    Serves as the independent oracle for the closed-form Theta.
    """
    if t <= 0:
        raise DomainError("t must be > 0")
    c_val = c_of_t_general(handle, t, quad_tol)
    integral = quad_checked(lambda u: handle.T(u, t), handle.S(t), float(y), quad_tol)
    return c_val - integral


def closed_form_c(field: StefanField, t):
    """C(t) = gamma*(l0 - tm0)*t, linear in t for the sqrt(t) family."""
    p = field.params
    g = field.gamma.gamma
    t_arr = np.asarray(t, dtype=float)
    out = g * (p.l0 - p.tm0) * t_arr
    return float(out) if out.ndim == 0 else out


def closed_form_theta(field: StefanField, y, t):
    """Explicit erf/exp form of Theta(y,t) for the sqrt(t) family on 0 <= y <= S(t)."""
    field._check_domain(y, t)
    p = field.params
    g = field.gamma.gamma
    amp = field.amplitude
    y = np.asarray(y, dtype=float)
    t = np.asarray(t, dtype=float)
    xi = y / (2.0 * np.sqrt(t))
    erf_xi, erf_g = erf(xi), math.erf(g)
    bracket = (
        SQRT_PI / 2.0 * (erf_xi - erf_g)
        + SQRT_PI * (xi * xi * erf_xi - g * g * erf_g)
        + xi * np.exp(-xi * xi)
        - g * math.exp(-g * g)
    )
    out = (
        g * (p.l0 - p.tm0)
        + 2.0 * p.q * (xi * xi - g * g)
        - 2.0 * amp * bracket
    ) * t
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class BoundaryCoefficients:
    """Coefficients of the 1/sqrt(t) free boundaries: Xi*(t) = Ci/(delta*sqrt(t))."""

    c0: float
    c1: float


def compute_boundary_coefficients(params: PhysicalParams, gamma) -> BoundaryCoefficients:
    """Closed-form (C0, C1) of the sqrt(t) family.

    gamma may be a float or a GammaRoot.
    """
    g = gamma.gamma if isinstance(gamma, GammaRoot) else float(gamma)
    amp = (params.q - params.l0 * g) / (SQRT_PI * math.erf(g))
    c1 = params.tm0 / (g * (params.l0 - params.tm0))
    den = (
        g * (params.l0 - params.tm0)
        - 2.0 * params.q * g * g
        + 2.0
        * amp
        * (
            SQRT_PI / 2.0 * math.erf(g)
            + SQRT_PI * g * g * math.erf(g)
            + g * math.exp(-g * g)
        )
    )
    if not math.isfinite(den) or abs(den) < 1e-13 * max(1.0, params.q):
        raise DegenerateDenominator(f"C0 denominator degenerate: {den!r}")
    return BoundaryCoefficients(c0=2.0 * amp / den, c1=c1)


class PsiField:
    """Evaluator bundle for the transformed problem.

    Exposes Theta, the parametric map (y,t) -> (x*, Psi), its inversion, the
    free boundaries, H(t) and the inverse-direction front recovery.  ``theta``
    (y, t) -> Theta and ``c`` t -> C must accept arrays, as must the handle's
    callables; build through :meth:`from_stefan` or :meth:`from_handle`.
    """

    def __init__(
        self,
        handle: StefanSolutionHandle,
        delta: float,
        theta: Callable,
        c: Callable,
    ):
        if not delta > 0:
            raise InvalidParameters(f"delta must be > 0, got {delta}")
        self.handle = handle
        self.delta = float(delta)
        self._theta = theta
        self._c = c

    @classmethod
    def from_stefan(cls, field: StefanField, delta: Optional[float] = None) -> "PsiField":
        """Closed-form Theta and C of the sqrt(t) family."""
        return cls(
            StefanSolutionHandle.from_field(field),
            field.params.delta if delta is None else delta,
            partial(closed_form_theta, field),
            partial(closed_form_c, field),
        )

    @classmethod
    def from_handle(
        cls,
        handle: StefanSolutionHandle,
        delta: float,
        quad_tol: float = 1e-10,
        validate: bool = True,
    ) -> "PsiField":
        """Quadrature Theta and C for a caller-supplied solution bundle."""
        if validate:
            handle.validate()
        vec = partial(np.vectorize, otypes=[float])
        vectorized = StefanSolutionHandle(
            **{f.name: vec(getattr(handle, f.name)) for f in fields(handle)}
        )
        return cls(
            vectorized,
            delta,
            vec(lambda y, t: theta_quadrature(y, t, handle, quad_tol)),
            vec(lambda t: c_of_t_general(handle, t, quad_tol)),
        )

    # -- scalar building blocks --------------------------------------------

    def c(self, t):
        """C(t) = integral_0^t [L - Tm] * dS/dtau dtau."""
        return self._c(t)

    def theta(self, y, t):
        """Theta(y,t) = C(t) - integral_{S(t)}^{y} T(u,t) du on 0 <= y <= S(t)."""
        return self._theta(y, t)

    def x_star(self, y, t):
        """Parametric coordinate x* = T / (delta * Theta)."""
        th = self.theta(y, t)
        c_val = self.c(t)
        if np.any(np.abs(th) < THETA_RTOL * np.abs(c_val)):
            raise SingularTheta(
                "Theta below breakdown threshold; the transformation is singular"
            )
        tval = self.handle.T(y, t)
        out = np.asarray(tval, dtype=float) / (self.delta * np.asarray(th, dtype=float))
        return float(out) if out.ndim == 0 else out

    def psi_parametric(self, y, t):
        """Psi = delta*Theta^2 / (T_y*Theta + T^2), parametrized by (y, t)."""
        th = np.asarray(self.theta(y, t), dtype=float)
        tval = np.asarray(self.handle.T(y, t), dtype=float)
        tyval = np.asarray(self.handle.T_y(y, t), dtype=float)
        den = tyval * th + tval * tval
        scale = np.maximum(1.0, np.maximum(np.abs(tyval * th), tval * tval))
        if np.any(np.abs(den) < 1e-14 * scale):
            raise SingularDenominator("T_y*Theta + T^2 vanished; Psi is singular")
        out = self.delta * th * th / den
        return float(out) if out.ndim == 0 else out

    def x0(self, t):
        """Left parametric boundary X0*(t) = x*(0, t)."""
        return self.x_star(0.0, t)

    def x1(self, t):
        """Moving-front image X1*(t) = Tm(t) / (delta * C(t))."""
        return self.handle.Tm(t) / (self.delta * self.c(t))

    # -- inversion ----------------------------------------------------------

    def _orientation(self, t):
        """Sampled monotonicity check; returns (sign, x0, x1, S)."""
        s = self.handle.S(t)
        ys = np.linspace(0.0, s, MONOTONE_SAMPLES)
        xv = self.x_star(ys, t)
        diffs = np.diff(xv)
        if np.all(diffs > 0):
            sign = 1.0
        elif np.all(diffs < 0):
            sign = -1.0
        else:
            raise NotMonotone(f"x*(., t={t}) is not monotone on [0, S(t)]")
        return sign, float(xv[0]), float(xv[-1]), float(s)

    def _invert_array(self, xs, t, tol, sign, x0v, x1v, s):
        """Vectorized bisection of x*(., t) = xs on [0, S(t)].

        Assumes monotonicity has been established; ``sign`` is +1 when x* is
        increasing in y.
        """
        xs = np.asarray(xs, dtype=float)
        lo_x, hi_x = min(x0v, x1v), max(x0v, x1v)
        slack = 1e-9 * (hi_x - lo_x)
        if np.any(xs < lo_x - slack) or np.any(xs > hi_x + slack):
            raise OutOfRange(
                f"target outside [{lo_x:.6g}, {hi_x:.6g}] at t={t}"
            )
        target = sign * np.clip(xs, lo_x, hi_x)
        lo = np.zeros_like(target)
        hi = np.full_like(target, s)
        frozen = np.zeros_like(target, dtype=bool)
        result = np.full_like(target, np.nan)
        floor = 16.0 * np.finfo(float).eps * s
        for _ in range(110):
            mid = 0.5 * (lo + hi)
            fm = sign * np.asarray(self.x_star(mid, t), dtype=float)
            hit = ~frozen & (np.abs(fm - target) <= tol)
            result = np.where(hit, mid, result)
            frozen = frozen | hit
            below = fm < target
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
            if np.all(frozen) or np.max(hi - lo) <= floor:
                break
        return np.where(frozen, result, 0.5 * (lo + hi))

    def invert_x_star(self, xs, t, tol: float = 1e-12):
        """Solve x*(y, t) = xs for y by bracketed bisection.

        The achieved residual |x*(y,t) - xs| is <= max(tol, machine floor).
        Raises NotMonotone if the sampled map is not single-signed and
        OutOfRange if xs lies outside the boundary interval.
        """
        sign, x0v, x1v, s = self._orientation(t)
        out = self._invert_array(xs, t, tol, sign, x0v, x1v, s)
        return float(out) if np.ndim(xs) == 0 else out

    def psi_at(self, xs, t, tol: float = 1e-12):
        """Psi as a function of the x* coordinate (inversion + parametric Psi)."""
        y = self.invert_x_star(xs, t, tol)
        return self.psi_parametric(y, t)

    # -- derived identities ---------------------------------------------------

    def h_of_t(self, t):
        """Source-equation coefficient H(t) assembled from both boundaries.

        For the sqrt(t) family every term scales as 1/t and the sum cancels
        to rounding (the face identity Theta(0,t) = q*t makes H vanish).
        """
        if t <= 0:
            raise DomainError("t must be > 0")
        tm = self.handle.Tm(t)
        lat = self.handle.L(t)
        c_val = self.c(t)
        s = self.handle.S(t)
        psi1 = self.psi_parametric(s, t)
        psi0 = self.psi_parametric(0.0, t)
        x0v = self.x0(t)
        d = self.delta
        return (
            -(tm**3) / (lat * c_val * c_val)
            + d * (tm / lat) / psi1
            - d / psi1
            + tm * tm / (c_val * c_val)
            + d / psi0
            - d * d * x0v * x0v
        )

    def s_from_psi(self, t, quad_tol: float = 1e-10):
        """Recover S(t) as the directed integral of Psi over [X0*(t), X1*(t)].

        The directed integral is orientation-agnostic: when x* decreases in y
        the boundary order and the sign of Psi flip together.
        """
        sign, x0v, x1v, s = self._orientation(t)
        inv_tol = max(1e-13 * abs(x1v - x0v), 1e-15)

        def integrand(sigma):
            y = self._invert_array(sigma, t, inv_tol, sign, x0v, x1v, s)
            return self.psi_parametric(float(y), t)

        return quad_checked(integrand, x0v, x1v, quad_tol)
