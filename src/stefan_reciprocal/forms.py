"""The closed forms of the sqrt(t) family, each written once, without numpy.

:class:`ClosedForms` takes sqrt, exp and erf as fields, libm's by default:
`eval` evaluates it on floats, and ``StefanField.forms`` on arrays and jets
(numpy's sqrt, libm's exp and erf per element), in the same operations and
order, so all three get the same bits.  No domain is checked here; on floats a
division by an exact zero raises ZeroDivisionError where numpy gives inf or nan.
"""

import math
from collections import namedtuple

from .errors import NotMonotone
from .roots import SQRT_PI, _bisect


def amplitude(params, gamma):
    """A = (q - l0*gamma)/(sqrt(pi)*erf(gamma)) of T, > 0 for gamma in (0, q/l0)."""
    return (params.q - params.l0 * gamma) / (SQRT_PI * math.erf(gamma))


class ClosedForms(namedtuple("ClosedForms", "params gamma amplitude sqrt exp erf",
                             defaults=(math.sqrt, math.exp, math.erf))):
    """The closed forms at ``params``, a float ``gamma`` and its amplitude A."""

    __slots__ = ()

    def front(self, t):
        """S(t) = 2*gamma*sqrt(t)."""
        return 2.0 * self.gamma * self.sqrt(t)

    def latent_heat(self, t):
        """L(t) = l0*sqrt(t)."""
        return self.params.l0 * self.sqrt(t)

    def melt_temperature(self, t):
        """Tm(t) = tm0*sqrt(t)."""
        return self.params.tm0 * self.sqrt(t)

    def c(self, t):
        """C(t) = gamma*(l0 - tm0)*t, linear in t for the sqrt(t) family."""
        return self.gamma * (self.params.l0 - self.params.tm0) * t

    def profile(self, y, t):
        """(T, T_y, eta, erf(eta), exp(-eta^2)) with eta = y/(2*sqrt(t))."""
        sqrt_t = self.sqrt(t)
        eta = y / (2.0 * sqrt_t)
        erf_eta, gauss = self.erf(eta), self.exp(-eta * eta)
        a, q = self.amplitude, self.params.q
        temp = a * (2.0 * sqrt_t * gauss + SQRT_PI * y * erf_eta) - q * y
        grad = a * SQRT_PI * erf_eta - q
        return temp, grad, eta, erf_eta, gauss

    def parts(self, y, t):
        """(T, T_y, Theta) from one profile; Theta in its explicit erf/exp form."""
        temp, grad, eta, erf_eta, gauss = self.profile(y, t)
        p, g = self.params, self.gamma
        erf_g = math.erf(g)
        bracket = (
            SQRT_PI / 2.0 * (erf_eta - erf_g)
            + SQRT_PI * (eta * eta * erf_eta - g * g * erf_g)
            + eta * gauss
            - g * math.exp(-g * g)
        )
        theta = (
            g * (p.l0 - p.tm0)
            + 2.0 * p.q * (eta * eta - g * g)
            - 2.0 * self.amplitude * bracket
        ) * t
        return temp, grad, theta

    def x_star(self, parts):
        """x* = T/(delta*Theta) of the parts (T, T_y, Theta)."""
        temp, _, theta = parts
        return temp / (self.params.delta * theta)

    def psi(self, parts):
        """Psi = delta*Theta^2/(T_y*Theta + T^2) of the parts (T, T_y, Theta)."""
        temp, grad, theta = parts
        return self.params.delta * theta * theta / (grad * theta + temp * temp)

    def monotone_sign(self):
        """+1.0 if D = T_y*Theta + T^2 > 0 on [0, S(1)] at t = 1, -1.0 if D < 0: min D
        and max D by :mod:`.transform`'s lemma, the minimum sought only if D(S) >= -margin.
        NotMonotone where they differ in sign, or (undecided) where the one that
        decides is within margin of 0, which bounds the rounding of D."""
        p, g, a = self.params, self.gamma, self.amplitude
        size_t, size_ty = a * (2.0 + 2.0 * SQRT_PI * g) + 2.0 * p.q * g, a * SQRT_PI + p.q
        size_theta = (g * (p.l0 + abs(p.tm0)) + 4.0 * p.q * g * g
                      + 2.0 * a * (SQRT_PI * (1.0 + 2.0 * g * g) + 2.0 * g))
        margin = 64.0 * math.ulp(1.0) * (size_ty * size_theta + size_t * size_t)

        def slope(y):  # D_y = T_yy*Theta + T*T_y at t = 1, where T_yy = A*exp(-y^2/4)
            temp, grad, theta = self.parts(y, 1.0)
            return a * self.exp(-0.25 * y * y) * theta + temp * grad
        front, low = self.front(1.0), p.tm0 * p.tm0 - p.l0 * g * g * (p.l0 - p.tm0)
        high = max(4.0 * a * a - p.q * p.q, low)
        if low >= -margin and (rise := slope(front)) > 0.0:
            temp, grad, theta = self.parts(_bisect(slope, 0.0, front, -a * p.q, rise)[0], 1.0)
            low = grad * theta + temp * temp
        if low > margin or high < -margin:
            return 1.0 if low > margin else -1.0
        if low < -margin < margin < high:
            raise NotMonotone("D = T_y*Theta + T^2 changes sign: "
                              "x*(., t) is not monotone on [0, S(t)], for every t")
        raise NotMonotone("D = T_y*Theta + T^2 stays undecided near 0: "
                          "x*(., t) is not certified monotone on [0, S(t)]")

    def x1(self, t):
        """X1*(t) = Tm(t)/(delta*C(t))."""
        return self.melt_temperature(t) / (self.params.delta * self.c(t))

    def h(self, t):
        """The source-equation coefficient H(t) from both boundaries (``PsiField.h_of_t``)."""
        d, tm, lat, c = self.params.delta, self.melt_temperature(t), self.latent_heat(t), self.c(t)
        face = self.parts(0.0, t)
        psi1, psi0, x0 = self.psi(self.parts(self.front(t), t)), self.psi(face), self.x_star(face)
        return (
            -tm * tm * tm / (lat * c * c)
            + d * (tm / lat) / psi1
            - d / psi1
            + tm * tm / (c * c)
            + d / psi0
            - d * d * x0 * x0
        )
