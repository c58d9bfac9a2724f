import numpy as np
import pytest

import stefan_reciprocal as sr


@pytest.fixture(scope="session")
def baseline_params():
    return sr.PhysicalParams(q=1.0, l0=1.0, tm0=0.5, delta=1.0)


@pytest.fixture(scope="session")
def baseline_field(baseline_params):
    return sr.StefanField.from_params(baseline_params)


@pytest.fixture(scope="session")
def baseline_psi(baseline_field):
    return sr.PsiField(baseline_field)


@pytest.fixture(scope="session")
def zero_tm0_field():
    return sr.StefanField.from_params(sr.PhysicalParams(q=1.0, l0=1.0, tm0=0.0))


@pytest.fixture(scope="session")
def zero_tm0_psi(zero_tm0_field):
    return sr.PsiField(zero_tm0_field)


def _stencil_error(u, stefan, grid, h):
    """Worst |centred difference - jet| of u_y, u_yy and u_t on ``grid``.

    ``u(y, t)`` is a field method; the differences take steps h*S(t) in y and
    h*t in t on its float values, and the reference is its jet at (y, t).
    """
    from stefan_reciprocal.similarity import _Jet

    t = grid.times()[:, None]
    s = stefan.free_boundary(t)
    y = grid.fractions() * s
    jet = u(_Jet.in_y(y), _Jet.in_t(t))
    hy, ht = h * s, h * t
    up, uc, um = u(y + hy, t), u(y, t), u(y - hy, t)
    errors = (
        (up - um) / (2.0 * hy) - jet.y,
        (up - 2.0 * uc + um) / (hy * hy) - jet.yy,
        (u(y, t + ht) - u(y, t - ht)) / (2.0 * ht) - jet.t,
    )
    return max(float(np.max(np.abs(e))) for e in errors)


@pytest.fixture(scope="session")
def stencil_error():
    """The test-local stencil whose refinement measures the jets' derivatives."""
    return _stencil_error
