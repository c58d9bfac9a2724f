import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stefan_reciprocal as sr

mp.mp.dps = 40

# frozen from a 50-digit evaluation (mpmath), see the oracles below
GAMMA_TM0_ZERO = 0.56142535712434718246
GAMMA_BASELINE = 0.47461192717277908806
F_AT_ONE_BASELINE = 5.0751961731967624388  # (0.25+1)*e*sqrt(pi)*erf(1)
MARGIN_BASELINE = 0.30475809426988841002


def mp_F(x, params):
    """High-precision oracle for the right side of the root equation."""
    x = mp.mpf(x)
    return float(
        (mp.mpf(params.tm0) / 2 + params.l0 * x**2)
        * mp.e ** (x**2)
        * mp.sqrt(mp.pi)
        * mp.erf(x)
    )


def test_eval_g_values():
    p = sr.PhysicalParams(q=1.0, l0=1.0)
    assert sr.eval_G(0.0, p) == 1.0
    assert sr.eval_G(1.0, p) == 0.0  # root of the linear part at q/l0
    assert sr.eval_G(0.5, p) == 0.5


def test_eval_f_zero_and_fixture(baseline_params):
    assert sr.eval_F(0.0, baseline_params) == 0.0
    assert sr.eval_F(1.0, baseline_params) == pytest.approx(
        F_AT_ONE_BASELINE, rel=1e-14
    )


@pytest.mark.parametrize("x", [0.3, 1.0, 2.5])
def test_eval_f_matches_high_precision(baseline_params, x):
    assert sr.eval_F(x, baseline_params) == pytest.approx(
        mp_F(x, baseline_params), rel=1e-13
    )


@pytest.mark.parametrize("tm0", [0.0, 0.25, 0.5])
def test_eval_f_monotone(tm0):
    p = sr.PhysicalParams(q=1.0, l0=1.0, tm0=tm0)
    assert sr.eval_F(0.2, p) < sr.eval_F(0.4, p) < sr.eval_F(0.8, p)


def test_eval_f_overflow_returns_inf(baseline_params):
    assert sr.eval_F(40.0, baseline_params) == math.inf


def test_eval_vectorized(baseline_params):
    xs = np.array([0.0, 0.5, 1.0])
    f_vals = sr.eval_F(xs, baseline_params)
    g_vals = sr.eval_G(xs, baseline_params)
    assert f_vals.shape == g_vals.shape == (3,)
    assert f_vals[0] == 0.0 and g_vals[0] == 1.0


class TestSolveGamma:
    def test_regression_tm0_zero(self):
        root = sr.solve_gamma(sr.PhysicalParams(q=1.0, l0=1.0, tm0=0.0), tol=1e-12)
        assert root.gamma == pytest.approx(GAMMA_TM0_ZERO, abs=2e-12)

    def test_bracket_and_residual(self, baseline_params):
        root = sr.solve_gamma(baseline_params, tol=1e-12)
        assert 0.0 < root.gamma < baseline_params.q / baseline_params.l0
        assert root.gamma == pytest.approx(GAMMA_BASELINE, abs=2e-12)
        assert root.bracket_hi - root.bracket_lo <= 1e-12
        assert root.gamma == 0.5 * (root.bracket_lo + root.bracket_hi)
        assert root.residual <= 1e-10 * max(1.0, baseline_params.q)
        assert root.iterations > 0

    def test_monotone_in_q(self):
        roots = [
            sr.solve_gamma(sr.PhysicalParams(q=q, l0=1.0, tm0=0.5)).gamma
            for q in (0.5, 1.0, 2.0)
        ]
        assert roots[0] < roots[1] < roots[2]

    def test_residual_meets_requested_tolerance(self):
        for q in (0.5, 1.0, 2.0):
            root = sr.solve_gamma(sr.PhysicalParams(q=q, l0=1.0, tm0=0.5), tol=1e-12)
            assert root.residual <= 1e-12
            assert root.bracket_hi - root.bracket_lo <= 1e-12

    def test_deterministic(self, baseline_params):
        assert sr.solve_gamma(baseline_params) == sr.solve_gamma(baseline_params)

    def test_tighter_tol(self, baseline_params):
        root = sr.solve_gamma(baseline_params, tol=1e-14)
        assert root.bracket_hi - root.bracket_lo <= 1e-14
        assert root.residual <= 1e-12

    def test_no_sign_change(self):
        with pytest.raises(sr.NoSignChange):
            sr.solve_gamma(sr.PhysicalParams(q=1.0, l0=1.0, tm0=-100.0))

    def test_never_evaluates_outside_bracket(self, baseline_params, monkeypatch):
        from stefan_reciprocal import similarity

        seen = []
        original = similarity.eval_F

        def spy(x, params):
            seen.append(float(x))
            return original(x, params)

        monkeypatch.setattr(similarity, "eval_F", spy)
        similarity.solve_gamma(baseline_params)
        upper = baseline_params.q / baseline_params.l0
        assert seen and all(0.0 < x < upper for x in seen)

    def test_invalid_tol(self, baseline_params):
        with pytest.raises(sr.InvalidParameters):
            sr.solve_gamma(baseline_params, tol=0.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"q": 0.0, "l0": 1.0},
        {"q": -1.0, "l0": 1.0},
        {"q": 1.0, "l0": 0.0},
        {"q": 1.0, "l0": 1.0, "delta": 0.0},
        {"q": 1.0, "l0": 1.0, "tm0": 1.0},
        {"q": 1.0, "l0": 1.0, "tm0": 1.5},
        {"q": math.inf, "l0": 1.0},
        {"q": 1.0, "l0": math.inf},
        {"q": 1.0, "l0": 1.0, "tm0": -math.inf},
        {"q": 1.0, "l0": 1.0, "tm0": math.nan},
        {"q": 1.0, "l0": 1.0, "delta": math.inf},
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(sr.InvalidParameters):
        sr.PhysicalParams(**kwargs)


class TestTemperature:
    def test_face_value(self, baseline_field):
        # T(0,t) = 2*A*sqrt(t): erf(0)=0 collapses the closed form
        for t in (0.25, 1.0, 4.0):
            assert baseline_field.temperature(0.0, t) == pytest.approx(
                2.0 * baseline_field.amplitude * math.sqrt(t), rel=1e-14
            )

    def test_melt_value_on_front(self, baseline_field):
        p = baseline_field.params
        for t in (0.25, 1.0, 4.0):
            s = baseline_field.free_boundary(t)
            tm = p.tm0 * math.sqrt(t)
            assert abs(baseline_field.temperature(s, t) - tm) <= 1e-11 * (1 + abs(tm))

    def test_domain_errors(self, baseline_field):
        s = baseline_field.free_boundary(1.0)
        with pytest.raises(sr.DomainError):
            baseline_field.temperature(1.5 * s, 1.0)
        with pytest.raises(sr.DomainError):
            baseline_field.temperature(-0.1 * s, 1.0)
        with pytest.raises(sr.DomainError):
            baseline_field.temperature(0.1, 0.0)
        # unchecked evaluation extends the closed form smoothly
        assert np.isfinite(baseline_field.temperature(1.01 * s, 1.0, check_domain=False))

    def test_self_similarity(self, baseline_field):
        fracs = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        profiles = []
        for t in (0.25, 1.0, 4.0):
            y = fracs * baseline_field.free_boundary(t)
            profiles.append(baseline_field.temperature(y, t) / math.sqrt(t))
        for other in profiles[1:]:
            assert np.max(np.abs(other - profiles[0])) <= 1e-12 * np.max(
                np.abs(profiles[0])
            )


class TestGradient:
    def test_face_flux(self, baseline_field):
        for t in (0.25, 1.0, 4.0):
            grad = baseline_field.temperature_gradient(0.0, t)
            assert abs(grad + baseline_field.params.q) <= 1e-11 * baseline_field.params.q

    def test_front_flux(self, baseline_field):
        p = baseline_field.params
        g = baseline_field.gamma.gamma
        for t in (0.25, 1.0, 4.0):
            s = baseline_field.free_boundary(t)
            grad = baseline_field.temperature_gradient(s, t)
            assert abs(grad + p.l0 * g) <= 1e-11 * p.l0

    def test_matches_central_difference(self, baseline_field):
        t = 1.0
        y = baseline_field.gamma.gamma * math.sqrt(t)
        h = 1e-6 * math.sqrt(t)
        fd = (
            baseline_field.temperature(y + h, t) - baseline_field.temperature(y - h, t)
        ) / (2 * h)
        exact = baseline_field.temperature_gradient(y, t)
        assert fd == pytest.approx(exact, rel=1e-8)

    def test_difference_convergence_order(self, baseline_field):
        """Second-order agreement, measured where truncation still dominates.

        The h=1e-5 point sits at the double-precision cancellation floor
        (~1e-11 absolute), so the order is taken from the coarser pair and
        the finest level is only required to keep decreasing.
        """
        t = 1.0
        s = baseline_field.free_boundary(t)
        y = np.linspace(0.05, 0.95, 19) * s
        errs = []
        for h_rel in (1e-3, 1e-4, 1e-5):
            h = h_rel * math.sqrt(t)
            fd = (
                baseline_field.temperature(y + h, t)
                - baseline_field.temperature(y - h, t)
            ) / (2 * h)
            errs.append(
                np.max(np.abs(fd - baseline_field.temperature_gradient(y, t)))
            )
        order = math.log10(errs[0] / errs[1])
        assert order >= 1.9
        assert errs[0] > errs[1] > errs[2]


class TestFreeBoundary:
    def test_values_and_scaling(self, baseline_field):
        g = baseline_field.gamma.gamma
        assert baseline_field.free_boundary(0.0) == 0.0
        assert baseline_field.free_boundary(1.0) == pytest.approx(2 * g, rel=1e-15)
        assert baseline_field.free_boundary(4.0) == pytest.approx(
            2 * baseline_field.free_boundary(1.0), rel=1e-15
        )

    def test_negative_time(self, baseline_field):
        with pytest.raises(sr.DomainError):
            baseline_field.free_boundary(-1.0)


class TestPhysicalCondition:
    def test_solved_root_satisfies(self, baseline_params, baseline_field):
        assert sr.check_physical_condition(baseline_params, baseline_field.gamma.gamma)

    def test_margin_regression(self, baseline_params, baseline_field):
        margin = sr.physical_margin(baseline_params, baseline_field.gamma.gamma)
        assert margin == pytest.approx(MARGIN_BASELINE, abs=2e-12)

    def test_endpoint_fails_for_positive_tm0(self, baseline_params):
        artificial = baseline_params.q / baseline_params.l0
        assert not sr.check_physical_condition(baseline_params, artificial)


@settings(max_examples=40, deadline=None)
@given(
    q=st.floats(0.2, 5.0),
    l0=st.floats(0.2, 5.0),
    tm0_frac=st.floats(0.0, 0.9),
)
def test_gamma_properties_random_params(q, l0, tm0_frac):
    params = sr.PhysicalParams(q=q, l0=l0, tm0=tm0_frac * l0)
    root = sr.solve_gamma(params, tol=1e-12)
    assert 0.0 < root.gamma < q / l0
    assert root.residual <= 1e-10 * max(1.0, q)
    assert sr.physical_margin(params, root.gamma) > 0.0
    field = sr.StefanField.from_params(params)
    t = 1.7
    s = field.free_boundary(t)
    tm = params.tm0 * math.sqrt(t)
    assert abs(field.temperature(s, t) - tm) <= 1e-10 * (1.0 + abs(tm))
    assert abs(field.temperature_gradient(0.0, t) + q) <= 1e-10 * q
