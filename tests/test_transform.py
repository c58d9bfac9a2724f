import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import stefan_reciprocal as sr
from stefan_reciprocal import transform
from stefan_reciprocal.forms import ClosedForms
from stefan_reciprocal.roots import SQRT_PI
from stefan_reciprocal.verify import T_SAMPLES, quad_batch, s_from_psi

# frozen from a 50-digit evaluation at the baseline parameters
C0_BASELINE = 1.1906543169306761504
C1_BASELINE = 2.1069845546379560961
PSI_AT_X1_T1 = 0.40993957305072940341
PSI_AT_X0_T1 = 2.3943051790790440424


@st.composite
def admissible_params(draw):
    """(q, l0, tm0) across the admissible region, tm0 < 0 included.

    q is log-uniform on [1e-3, 1e3] and l0 one of 0.01, 1 and 100.  G - F
    changes sign on (0, q/l0) only if F(q/l0) > 0, that is tm0 > -2*q^2/l0,
    so a negative tm0 is log-uniform on 0.999*min(1e3, 2*q^2/l0)*[1e-6, 1];
    a positive one is uniform on [0, 0.999*l0].
    """
    q = 10.0 ** draw(st.floats(-3.0, 3.0))
    l0 = draw(st.sampled_from((0.01, 1.0, 100.0)))
    if draw(st.booleans()):
        tm0 = -0.999 * min(1e3, 2.0 * q * q / l0) * 10.0 ** draw(st.floats(-6.0, 0.0))
    else:
        tm0 = l0 * draw(st.floats(0.0, 0.999))
    return q, l0, tm0


def _psi_or_reject(q, l0, tm0):
    """The PsiField at (q, l0, tm0); hypothesis rejects a draw without a root."""
    try:
        return sr.PsiField(sr.StefanField.from_params(sr.PhysicalParams(q, l0, tm0)))
    except sr.NoSignChange:
        assume(False)


class TestCFunction:
    def test_linear_closed_form(self, baseline_psi, baseline_field):
        g = baseline_field.gamma.gamma
        for t in (0.5, 1.0, 2.0):
            assert baseline_psi.c(t) == pytest.approx(g * 0.5 * t, rel=1e-15)

    def test_quadrature_matches_closed(self, baseline_psi):
        for t in (0.5, 2.0):
            quad_val = sr.c_of_t_general(baseline_psi.stefan, t, quad_tol=1e-12)
            assert abs(quad_val - baseline_psi.c(t)) <= 1e-10

    def test_zero_time(self, baseline_psi):
        assert sr.c_of_t_general(baseline_psi.stefan, 0.0) == 0.0


class TestTheta:
    def test_front_value_is_c(self, baseline_psi, baseline_field):
        for t in (0.25, 1.0, 4.0):
            s = baseline_field.free_boundary(t)
            assert baseline_psi.theta(s, t) == pytest.approx(
                baseline_psi.c(t), rel=1e-13
            )

    def test_face_value(self, baseline_psi, baseline_field):
        # Theta(0,t) collapses to q*t through the root identity
        q = baseline_field.params.q
        for t in (0.25, 1.0, 4.0):
            assert baseline_psi.theta(0.0, t) == pytest.approx(q * t, rel=1e-11)

    def test_quadrature_oracle_interior(self, baseline_psi, baseline_field):
        t = 1.0
        y = baseline_field.gamma.gamma * math.sqrt(t)
        oracle = sr.theta_quadrature(y, t, baseline_psi.stefan)
        assert abs(baseline_psi.theta(y, t) - oracle) <= 1e-9

    def test_linear_in_time(self, baseline_psi, baseline_field):
        fracs = np.linspace(0.0, 1.0, 7)
        per_t = []
        for t in (1.0, 4.0):
            y = fracs * baseline_field.free_boundary(t)
            per_t.append(np.asarray(baseline_psi.theta(y, t)) / t)
        assert np.max(np.abs(per_t[1] - per_t[0])) <= 1e-12 * np.max(np.abs(per_t[0]))

    def test_domain_error(self, baseline_psi, baseline_field):
        s = baseline_field.free_boundary(1.0)
        with pytest.raises(sr.DomainError):
            baseline_psi.theta(1.5 * s, 1.0)

    @pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
    def test_positive_on_phase_region(self, baseline_psi, zero_tm0_psi, t):
        for pf in (baseline_psi, zero_tm0_psi):
            s = pf.stefan.free_boundary(t)
            y = np.linspace(0.0, s, 501)
            assert np.all(np.asarray(pf.theta(y, t)) > 0)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(admissible_params())
    def test_bounded_below_over_admissible_region(self, params):
        """Theta >= C(t)*l0/(l0 + max(0, -tm0)) > 0 on [0, S(t)], the transform module's theorem.

        Checked at t = 1 (Theta is t times a function of eta) on 20,001
        points, less a rounding allowance of 16*eps times the magnitude of
        the terms that Theta is summed from.
        """
        pf = _psi_or_reject(*params)
        p, g, a = pf.stefan.params, pf.stefan.gamma.gamma, pf.stefan.amplitude
        theta = pf.theta(np.linspace(0.0, 2.0 * g, 20_001), 1.0)
        bound = pf.c(1.0) * p.l0 / (p.l0 + max(0.0, -p.tm0))
        terms = (g * (p.l0 + abs(p.tm0)) + 4.0 * p.q * g * g
                 + 2.0 * a * (math.sqrt(math.pi) * (1.0 + 2.0 * g * g) + 2.0 * g))
        assert bound > 0.0
        assert np.min(theta) >= bound - 16.0 * np.finfo(float).eps * terms, params


class TestXStar:
    def test_front_maps_to_x1(self, baseline_psi, baseline_field):
        p = baseline_field.params
        g = baseline_field.gamma.gamma
        for t in (0.25, 1.0, 4.0):
            s = baseline_field.free_boundary(t)
            expected = p.tm0 / (p.delta * g * (p.l0 - p.tm0) * math.sqrt(t))
            # agreement is limited by the root residual carried by T(S,t)
            assert baseline_psi.x_star(s, t) == pytest.approx(expected, rel=1e-11)
            assert baseline_psi.x1(t) == pytest.approx(expected, rel=1e-11)

    def test_face_maps_to_x0_coefficient(self, baseline_psi, baseline_field):
        coeffs = sr.compute_boundary_coefficients(
            baseline_field.params, baseline_field.gamma
        )
        for t in (0.25, 1.0, 4.0):
            lhs = baseline_psi.x_star(0.0, t)
            rhs = coeffs.c0 / (baseline_field.params.delta * math.sqrt(t))
            assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

    def test_monotone_dense_sampling(self, baseline_psi, baseline_field):
        t = 1.0
        y = np.linspace(0.0, baseline_field.free_boundary(t), 10_000)
        xv = baseline_psi.x_star(y, t)
        assert np.all(np.diff(xv) > 0)

    def test_monotone_decreasing_for_zero_tm0(self, zero_tm0_psi, zero_tm0_field):
        t = 1.0
        y = np.linspace(0.0, zero_tm0_field.free_boundary(t), 10_000)
        xv = zero_tm0_psi.x_star(y, t)
        assert np.all(np.diff(xv) < 0)

    def test_array_time_boundaries(self, baseline_psi):
        """x0, x1 and the inversion take an array of t, one time per target."""
        ts = np.array([0.25, 1.0, 4.0])
        for bound in ("x0", "x1"):
            got = getattr(baseline_psi, bound)(ts)
            want = [getattr(baseline_psi, bound)(t) for t in ts]
            assert got.shape == ts.shape
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14
        y = np.array([0.2, 0.5, 0.8]) * baseline_psi.stefan.free_boundary(ts)
        back = baseline_psi.invert_x_star(baseline_psi.x_star(y, ts), ts)
        assert back.shape == ts.shape
        assert np.max(np.abs(back - y) / baseline_psi.stefan.free_boundary(ts)) <= 1e-9

    def test_scalar_target_array_times(self, baseline_psi):
        """A scalar target broadcasts against an array of t, as each time alone."""
        ts = np.array([1.0, 1.5])
        xs = baseline_psi.x_star(0.3 * baseline_psi.stefan.free_boundary(1.0), 1.0)
        back = baseline_psi.invert_x_star(xs, ts)
        assert back.shape == ts.shape
        assert back.tolist() == [baseline_psi.invert_x_star(xs, t) for t in ts]
        assert back[0] == pytest.approx(0.3 * baseline_psi.stefan.free_boundary(1.0), rel=1e-9)

    def test_similarity_scaling(self, baseline_psi, baseline_field):
        fracs = np.linspace(0.0, 1.0, 9)
        scaled = []
        for t in (0.25, 1.0, 4.0):
            y = fracs * baseline_field.free_boundary(t)
            scaled.append(math.sqrt(t) * np.asarray(baseline_psi.x_star(y, t)))
        for other in scaled[1:]:
            assert np.max(np.abs(other - scaled[0])) <= 1e-10 * np.max(
                np.abs(scaled[0])
            )


class TestPsiParametric:
    def test_reciprocal_identity_spot(self, baseline_psi, baseline_field):
        t = 1.0
        y = baseline_field.gamma.gamma * math.sqrt(t)
        h = 1e-6
        dx = (
            baseline_psi.x_star(y + h, t) - baseline_psi.x_star(y - h, t)
        ) / (2 * h)
        assert baseline_psi.psi_parametric(y, t) * dx == pytest.approx(1.0, abs=1e-6)

    def test_front_value_closed_form(self, baseline_psi, baseline_field):
        p = baseline_field.params
        g = baseline_field.gamma.gamma
        t = 1.0
        s = baseline_field.free_boundary(t)
        c_t = baseline_psi.c(t)
        expected = (
            p.delta
            * c_t
            * c_t
            / (-p.l0 * g * math.sqrt(t) * c_t + p.tm0**2 * t)
        )
        # agreement is limited by the root residual carried by T(S,t)
        assert baseline_psi.psi_parametric(s, t) == pytest.approx(expected, rel=1e-10)
        assert baseline_psi.psi_parametric(s, t) == pytest.approx(
            PSI_AT_X1_T1, abs=1e-10
        )

    def test_face_value_regression(self, baseline_psi):
        assert baseline_psi.psi_parametric(0.0, 1.0) == pytest.approx(
            PSI_AT_X0_T1, abs=1e-10
        )

    def test_sign_follows_orientation(self, baseline_psi, zero_tm0_psi, baseline_field, zero_tm0_field):
        t = 1.0
        y = np.linspace(0.05, 0.95, 21) * baseline_field.free_boundary(t)
        assert np.all(np.asarray(baseline_psi.psi_parametric(y, t)) > 0)
        y0 = np.linspace(0.05, 0.95, 21) * zero_tm0_field.free_boundary(t)
        assert np.all(np.asarray(zero_tm0_psi.psi_parametric(y0, t)) < 0)

    def test_scaling_in_time(self, baseline_psi, baseline_field):
        fracs = np.linspace(0.1, 0.9, 9)
        scaled = []
        for t in (0.25, 1.0, 4.0):
            y = fracs * baseline_field.free_boundary(t)
            scaled.append(np.asarray(baseline_psi.psi_parametric(y, t)) / t)
        for other in scaled[1:]:
            assert np.max(np.abs(other - scaled[0])) <= 1e-10 * np.max(
                np.abs(scaled[0])
            )


class TestBoundaryCoefficients:
    def test_c1_closed_form(self, baseline_field):
        p = baseline_field.params
        g = baseline_field.gamma.gamma
        coeffs = sr.compute_boundary_coefficients(p, g)
        assert coeffs.c1 == p.tm0 / (g * (p.l0 - p.tm0))
        assert coeffs.c0 == pytest.approx(C0_BASELINE, abs=1e-11)
        assert coeffs.c1 == pytest.approx(C1_BASELINE, abs=1e-11)

    def test_c0_definitional_consistency(self, baseline_field, baseline_psi):
        # C0 equals 2A divided by Theta(0,1)/1
        coeffs = sr.compute_boundary_coefficients(
            baseline_field.params, baseline_field.gamma
        )
        expected = 2.0 * baseline_field.amplitude / baseline_psi.theta(0.0, 1.0)
        assert coeffs.c0 == pytest.approx(expected, rel=1e-12)

    def test_zero_tm0_collapses_x1(self, zero_tm0_field, zero_tm0_psi):
        coeffs = sr.compute_boundary_coefficients(
            zero_tm0_field.params, zero_tm0_field.gamma
        )
        assert coeffs.c1 == 0.0
        for t in (0.5, 2.0):
            assert zero_tm0_psi.x1(t) == 0.0

    def test_inverse_sqrt_scaling(self, baseline_field, baseline_psi):
        coeffs = sr.compute_boundary_coefficients(
            baseline_field.params, baseline_field.gamma
        )
        d = baseline_field.params.delta
        assert baseline_psi.x1(4.0) == pytest.approx(
            baseline_psi.x1(1.0) / 2.0, rel=1e-15
        )
        assert baseline_psi.x1(1.0) * d == pytest.approx(coeffs.c1, rel=1e-15)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf, 0.0, -0.3, "q/l0", 1.5])
    def test_refuses_gamma_outside_root_bracket(self, baseline_field, gamma):
        """gamma must be finite and in (0, q/l0), where A > 0; the root's float and
        GammaRoot give the same coefficients."""
        p, root = baseline_field.params, baseline_field.gamma
        gamma = p.q / p.l0 if gamma == "q/l0" else gamma
        with pytest.raises(sr.InvalidParameters, match="gamma"):
            sr.compute_boundary_coefficients(p, gamma)
        assert sr.compute_boundary_coefficients(p, root) == sr.compute_boundary_coefficients(
            p, root.gamma
        )

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.floats(-3.0, 3.0), st.floats(0.1, 10.0), st.floats(-0.9, 0.99))
    def test_c0_is_two_a_over_q(self, log_q, l0, tm0_ratio):
        """C0 = 2A/q bit for bit, and the face identity Theta(0, t) = q*t it rests on
        holds within 1e-12 relative at every t of T_SAMPLES, over q in [1e-3, 1e3]
        (log-uniform), l0 in [0.1, 10] and tm0/l0 in [-0.9, 0.99]."""
        p = sr.PhysicalParams(q=10.0**log_q, l0=l0, tm0=tm0_ratio * l0)
        try:
            field = sr.StefanField.from_params(p)
        except sr.NoSignChange:
            assume(False)
        assert sr.compute_boundary_coefficients(p, field.gamma).c0 == 2.0 * field.amplitude / p.q
        pf = sr.PsiField(field)
        for t in T_SAMPLES:
            assert abs(pf.theta(0.0, t) / (p.q * t) - 1.0) <= 1e-12, (p, t)


def _with_delta(field, delta):
    """A PsiField of ``field``'s solution under the transformation constant ``delta``."""
    params = field.params._replace(delta=delta)
    return sr.PsiField(sr.StefanField(params, field.gamma, field.amplitude))


class TestInversion:
    def test_endpoints(self, baseline_psi, baseline_field):
        t = 1.0
        s = baseline_field.free_boundary(t)
        assert baseline_psi.invert_x_star(baseline_psi.x1(t), t) == pytest.approx(
            s, rel=1e-9
        )
        assert abs(baseline_psi.invert_x_star(baseline_psi.x0(t), t)) <= 1e-9 * s

    @pytest.mark.parametrize("frac", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
    def test_roundtrip(self, baseline_field, frac, t):
        """y comes back to 1e-9*S(t) at delta = 1 and far from it (x* scales as 1/delta)."""
        s = baseline_field.free_boundary(t)
        y = frac * s
        for delta in (1.0, 1e-6, 1e6, 1e9):
            pf = _with_delta(baseline_field, delta)
            back = pf.invert_x_star(pf.x_star(y, t), t)
            assert abs(back - y) <= 1e-9 * s, delta

    def test_roundtrip_reversed_orientation(self, zero_tm0_psi, zero_tm0_field):
        t = 1.0
        s = zero_tm0_field.free_boundary(t)
        for frac in (0.2, 0.8):
            y = frac * s
            back = zero_tm0_psi.invert_x_star(zero_tm0_psi.x_star(y, t), t)
            assert abs(back - y) <= 1e-9 * s

    def test_out_of_range(self, baseline_psi):
        with pytest.raises(sr.OutOfRange):
            baseline_psi.invert_x_star(10.0 * baseline_psi.x1(1.0), 1.0)

    @pytest.mark.parametrize("xs", [math.nan, np.array([1.5, math.nan])])
    @pytest.mark.parametrize("method", ["invert_x_star"])
    def test_nan_target_refused(self, baseline_psi, method, xs):
        with pytest.raises(sr.OutOfRange):
            getattr(baseline_psi, method)(xs, 1.0)

    def test_vectorized(self, baseline_psi, baseline_field):
        t = 1.0
        s = baseline_field.free_boundary(t)
        y = np.array([0.2, 0.5, 0.8]) * s
        xs = baseline_psi.x_star(y, t)
        back = baseline_psi.invert_x_star(xs, t)
        assert np.max(np.abs(back - y)) <= 1e-9 * s

    @pytest.mark.parametrize("name", ["baseline_psi", "zero_tm0_psi"])
    @pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("delta", [1e-6, 1e-12, 1.0, 1e6, 1e9])
    def test_residual_within_tol(self, request, name, t, delta):
        """Targets across [X0*, X1*]: y stays in [0, S(t)] and the residual is
        at most INVERT_RTOL*|X1* - X0*|, at every delta."""
        pf = _with_delta(request.getfixturevalue(name).stefan, delta)
        s = pf.stefan.free_boundary(t)
        tol = transform.INVERT_RTOL * abs(np.diff(pf.x_star(np.array([0.0, s]), t))[0])
        xs = np.linspace(pf.x0(t), pf.x1(t), 65)
        scalar = [pf.invert_x_star(x, t) for x in xs]
        for y in (pf.invert_x_star(xs, t), np.array(scalar)):
            assert np.all((y >= 0.0) & (y <= s))
            assert np.max(np.abs(pf.x_star(y, t) - xs)) <= tol

    def test_in_domain_at_the_boundary_targets(self):
        """X0*(t) and X1*(t) invert into [0, S(t)] at every t of T_SAMPLES, on
        293 seeded random fields with q, l0 in [0.5, 2] and tm0/l0 in [0, 0.9]
        on which x* is monotone.  At xs = X1* the chord start
        s*(xs - X0*)/(X1* - X0*) can round an ulp above S(t) and is accepted at
        its first evaluation; unclamped, 33 of these 879 (field, t) pairs did."""
        rng = np.random.default_rng(20261019)
        t = np.array(T_SAMPLES)[:, None]
        fields = 0
        while fields < 293:
            q, l0, frac = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(0.0, 0.9)
            try:
                pf = sr.PsiField(sr.StefanField.from_params(sr.PhysicalParams(q, l0, frac * l0)))
                y = pf.invert_x_star(np.column_stack((pf.x0(t[:, 0]), pf.x1(t[:, 0]))), t)
            except sr.NotMonotone:
                continue
            fields += 1
            assert np.all((y >= 0.0) & (y <= pf.stefan.free_boundary(t))), (q, l0, frac)

    def test_tol_refused(self, baseline_psi):
        """The stopping rule is fixed: invert_x_star takes no tolerance."""
        x, t = baseline_psi.x0(1.0), 1.0
        with pytest.raises(TypeError):
            baseline_psi.invert_x_star(x, t, tol=1e-12)
        with pytest.raises(TypeError):
            baseline_psi.invert_x_star(x, t, 1e-12)

    def test_batch_invariant_at_the_floor(self):
        """A point's y does not depend on the other points of its call.

        At (q, tm0) = (100, 0.99) some brackets of the source-equation
        stencil reach 16*eps*S(t) before the residual rule; each point is
        accepted there, as it is when inverted alone.
        """
        params = sr.PhysicalParams(q=100.0, l0=1.0, tm0=0.99)
        pf = sr.PsiField(sr.StefanField.from_params(params))
        grid = sr.GridSpec(n_space=12, n_time=3)
        t = grid.times()[:, None]
        x0, width = pf.x0(t), pf.x1(t) - pf.x0(t)
        xs = x0 + width * grid.fractions()
        stencil = xs + 1e-4 * np.abs(width) * np.arange(-2.0, 3.0)[:, None, None]
        batched = pf.invert_x_star(stencil, t)
        points = zip(*(a.ravel() for a in np.broadcast_arrays(stencil, t)))
        alone = [pf.invert_x_star(x, ti) for x, ti in points]
        np.testing.assert_array_equal(batched.ravel(), alone)

    @staticmethod
    def _counted(field):
        """A fresh PsiField whose fused x*/slope evaluations are counted."""
        pf = sr.PsiField(field)
        inner, calls = pf._x_and_slope, []

        def counting(y, t):
            calls.append(np.size(y))
            return inner(y, t)

        pf._x_and_slope = counting
        return pf, calls

    def test_newton_evaluation_count(self, baseline_field):
        """A batch evaluates each point until it is frozen, and never after."""
        pf, calls = self._counted(baseline_field)
        for t in (0.25, 1.0, 4.0):
            alone = 0
            for xs in np.linspace(pf.x0(t), pf.x1(t), 17):
                calls.clear()
                pf.invert_x_star(xs, t)
                assert 1 <= len(calls) <= 10
                alone += sum(calls)
            calls.clear()
            pf.invert_x_star(np.linspace(pf.x0(t), pf.x1(t), 17), t)
            assert 1 <= len(calls) <= 10 and calls[0] == 17
            assert sum(calls) == alone

    def test_zero_tol_terminates_at_machine_floor(
        self, baseline_field, zero_tm0_field, monkeypatch
    ):
        """With INVERT_RTOL = 0 the bracket floor alone stops each point, within 8 ulp.

        Interior targets and the end targets X0*, X1* are inverted.  X1* =
        Tm/(delta*C) differs from x*(S(t), t) by the root residual, so it
        may lie just outside [x*(0,t), x*(S,t)]; it is then clamped.
        """
        monkeypatch.setattr(transform, "INVERT_RTOL", 0.0)
        t = 1.0
        for field in (baseline_field, zero_tm0_field):
            pf, calls = self._counted(field)
            x0, x1 = pf.x0(t), pf.x1(t)
            ends = np.sort(pf.x_star(np.array([0.0, pf.stefan.free_boundary(t)]), t))
            ulp = np.spacing(max(abs(x0), abs(x1)))
            for xs in [x0, x1] + [x0 + frac * (x1 - x0) for frac in (0.1, 0.37, 0.5, 0.9)]:
                calls.clear()
                y = pf.invert_x_star(xs, t)
                assert len(calls) <= 12
                assert abs(pf.x_star(y, t) - np.clip(xs, *ends)) <= 8 * ulp


class TestOrientation:
    def test_decided_once_per_field(self, baseline_field, monkeypatch):
        decisions = []
        decide = transform.PsiField.monotone_sign.func
        monkeypatch.setattr(
            transform.PsiField.monotone_sign, "func", lambda pf: decisions.append(pf) or decide(pf)
        )
        pf = sr.PsiField(baseline_field)
        for t in (0.25, 1.0, 4.0):
            pf.invert_x_star(0.5 * (pf.x0(t) + pf.x1(t)), t)
            s_from_psi(pf, t)
        ts = np.array([0.5, 2.0])
        pf.invert_x_star(pf.x_star(0.3 * pf.stefan.free_boundary(ts), ts), ts)
        assert decisions == [pf]
        other = sr.PsiField(baseline_field)
        s_from_psi(other, 1.0)
        assert decisions == [pf, other]

    def test_undecided_where_d_is_zero_at_the_face(self):
        """4*A^2 = q^2 makes D(0) = 4*A^2 - q^2 exactly 0, and D < 0 beyond it:
        the float decision refuses the record as undecided, not as a sign change."""
        forms = ClosedForms(sr.PhysicalParams(q=2.0, l0=1.0, tm0=0.0), gamma=0.5, amplitude=1.0)
        with pytest.raises(sr.NotMonotone, match="undecided"):
            forms.monotone_sign()

    @staticmethod
    def _d_sign(pf, t, n=20_001):
        """Sign of D = T_y*Theta + T^2 (dx*/dy = D/(delta*Theta^2)) at n samples, or None."""
        y = np.linspace(0.0, pf.stefan.free_boundary(t), n)
        temp, grad, theta = pf._parts(y, t)
        d = grad * theta + temp * temp
        return 1.0 if np.all(d > 0) else -1.0 if np.all(d < 0) else None

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(admissible_params(), st.floats(-6.0, 6.0))
    def test_certificate_matches_dense_samples(self, params, log_scale):
        """The certificate's verdict is the sign of D at 20,001 points, at t = 1.

        The verdict is also the same for (q, l0, tm0) times a common scale s in
        [1e-6, 1e6], under which gamma is unchanged and D scales by s^2.
        """
        sign = self._d_sign(_psi_or_reject(*params), 1.0)
        for scale in (1.0, 10.0 ** log_scale):
            pf = _psi_or_reject(*(scale * v for v in params))
            if sign is None:
                with pytest.raises(sr.NotMonotone, match="changes sign"):
                    pf.monotone_sign
            else:
                assert pf.monotone_sign == sign, (params, scale)

    @pytest.mark.parametrize("q, tm0", [(1.0, 0.5), (1.0, 0.0), (1.7, 0.3), (10.0, 0.0)])
    def test_sign_does_not_depend_on_t(self, q, tm0):
        """The sign decided at t = 1 is the sign of D at every t."""
        pf = sr.PsiField(sr.StefanField.from_params(sr.PhysicalParams(q=q, l0=1.0, tm0=tm0)))
        signs = {self._d_sign(pf, t) for t in (1e-3, 1.0, 100.0)}
        assert len(signs) == 1
        sign = signs.pop()
        if sign is None:
            with pytest.raises(sr.NotMonotone, match="for every t"):
                pf.monotone_sign
        else:
            assert pf.monotone_sign == sign

    @pytest.mark.parametrize(
        "q, tm0",
        [(1.0, 0.22), (1.3, 0.18), (1.9, 0.48), (2.0, 0.04), (2.1, 0.02), (2.2, 0.0), (3.6, 0.56)],
    )
    def test_refused_where_x_star_samples_miss_the_turn(self, q, tm0):
        """Refused where D changes sign, though x* at 64 samples moves one way only."""
        pf = sr.PsiField(sr.StefanField.from_params(sr.PhysicalParams(q=q, l0=1.0, tm0=tm0)))
        y = np.linspace(0.0, pf.stefan.free_boundary(1.0), 64)
        diffs = np.diff(pf.x_star(y, 1.0))
        assert np.all(diffs > 0) or np.all(diffs < 0)
        assert self._d_sign(pf, 1.0) is None
        with pytest.raises(sr.NotMonotone, match="changes sign"):
            pf.monotone_sign

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(admissible_params())
    def test_lemma_d_has_one_minimum(self, params):
        """The lemma of transform's docstring at 2,001 points of [0, S(1)]: h > 0,
        so g = T_y + eta*T < 0; D_y(0, 1) = -A*q; and D_y changes sign at most
        once, from - to +.  The allowance, 64*eps times the size of the terms,
        bounds the rounding of h, g and D_y."""
        from stefan_reciprocal.similarity import _Jet

        pf = _psi_or_reject(*params)
        a, q = pf.stefan.amplitude, params[0]
        y = np.linspace(0.0, pf.stefan.free_boundary(1.0), 2001)
        eta, gauss = 0.5 * y, np.exp(-0.25 * y * y)
        temp, grad, theta = pf._parts(_Jet.in_y(y), 1.0)
        g = grad.v + eta * temp.v
        h = (1.0 + 2.0 * eta * eta) * -grad.v - 2.0 * a * eta * gauss
        size = (q + a * SQRT_PI) * (1.0 + 2.0 * eta * eta) + 2.0 * a * eta
        eps = np.finfo(float).eps
        allowance = 64.0 * eps * size
        assert np.all(h > -allowance) and np.all(g < allowance), params
        assert np.all(np.abs(g + h) <= allowance), params
        # D_y's terms are bounded by A*|Theta| + |T|*|T_y|, each factor by the sum
        # of its closed form's terms on [0, S(1)], which cancel near the face
        l0, tm0, gam = params[1], params[2], pf.stefan.gamma.gamma
        size_t, size_ty = a * (2.0 + 2.0 * SQRT_PI * gam) + 2.0 * q * gam, a * SQRT_PI + q
        size_theta = (gam * (l0 + abs(tm0)) + 4.0 * q * gam * gam
                      + 2.0 * a * (SQRT_PI * (1.0 + 2.0 * gam * gam) + 2.0 * gam))
        d_allowance = 64.0 * eps * (a * size_theta + size_t * size_ty)
        d_y = (grad * theta + temp * temp).y
        assert abs(d_y[0] + a * q) <= d_allowance, params
        signs = np.sign(d_y[np.abs(d_y) > d_allowance])
        assert signs[0] == -1.0 and np.count_nonzero(np.diff(signs)) <= 1, params

    @pytest.mark.parametrize("q, tm0", [(9.98, -2.842), (10.0, -2.85), (10.02, -2.86)])
    def test_two_crossings_are_refused(self, q, tm0):
        """D > 0 at both ends and < 0 at its interior minimum: at 40 digits the
        sign of Psi = delta*Theta^2/D, which is the sign of D, says so."""
        pf = sr.PsiField(sr.StefanField.from_params(sr.PhysicalParams(q=q, l0=1.0, tm0=tm0)))
        s = pf.stefan.free_boundary(1.0)
        y = np.linspace(0.0, s, 2001)
        temp, grad, theta = pf._parts(y, 1.0)
        y_min = float(y[np.argmin(grad * theta + temp * temp)])
        with mp.workdps(40):
            psi = TestJets._closed_forms(pf.stefan, mp.mpf(1))[2]
            assert psi(mp.mpf(0), 1) > 0 and psi(2 * mp.mpf(pf.stefan.gamma.gamma), 1) > 0
            assert psi(mp.mpf(y_min), 1) < 0 and 0.0 < y_min < s
        with pytest.raises(sr.NotMonotone, match="changes sign"):
            pf.monotone_sign

    def test_float_decision_without_numpy(self):
        """ClosedForms.monotone_sign on libm floats, with numpy unimportable,
        gives PsiField.monotone_sign's verdict: increasing, decreasing, and
        refused with one and with two crossings."""
        points = [(1.0, 1.0, 0.5), (1.0, 1.0, 0.0), (1.0, 1.0, 0.22), (9.98, 1.0, -2.842)]
        script = (
            "import json, sys\n"
            "sys.modules['numpy'] = None\n"
            "from stefan_reciprocal.errors import NotMonotone\n"
            "from stefan_reciprocal.forms import ClosedForms, amplitude\n"
            "from stefan_reciprocal.roots import PhysicalParams, solve_gamma\n"
            "def verdict(p):\n"
            "    g = solve_gamma(p).gamma\n"
            "    try:\n"
            "        return ClosedForms(p, g, amplitude(p, g)).monotone_sign()\n"
            "    except NotMonotone as exc:\n"
            "        return str(exc)\n"
            "print(json.dumps([verdict(PhysicalParams(*v)) for v in json.loads(sys.argv[1])]))\n"
        )
        src = str(Path(sr.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        res = subprocess.run([sys.executable, "-c", script, json.dumps(points)],
                             capture_output=True, text=True, env=env, check=True)
        expected = []
        for point in points:
            try:
                expected.append(sr.PsiField(sr.StefanField.from_params(sr.PhysicalParams(*point)))
                                .monotone_sign)
            except sr.NotMonotone as exc:
                expected.append(str(exc))
        assert json.loads(res.stdout) == expected
        assert expected[:2] == [1.0, -1.0] and all("changes sign" in v for v in expected[2:])


class TestCore:
    """x*, its slope, Psi and Theta read one domain check and one profile evaluation."""

    @pytest.mark.parametrize("method", ["x_star", "_x_and_slope", "psi_parametric", "theta"])
    def test_one_domain_check_per_evaluation(self, baseline_field, monkeypatch, method):
        inner, calls = sr.StefanField._check_domain, []

        def counting(self, y, t):
            calls.append(t)
            return inner(self, y, t)

        monkeypatch.setattr(sr.StefanField, "_check_domain", counting)
        pf = sr.PsiField(baseline_field)
        for t in (0.25, 1.0):
            calls.clear()
            getattr(pf, method)(np.linspace(0.0, baseline_field.free_boundary(t), 5), t)
            assert calls == [t]

    @pytest.mark.parametrize("method", ["x_star", "psi_parametric"])
    def test_domain_error(self, baseline_psi, method):
        s = baseline_psi.stefan.free_boundary(1.0)
        for y, t in [(1.5 * s, 1.0), (-0.1 * s, 1.0), (np.array([0.5, 1.5]) * s, 1.0), (0.1, 0.0), (0.1, -1.0)]:
            with pytest.raises(sr.DomainError):
                getattr(baseline_psi, method)(y, t)


class TestCheckedDomain:
    """The fields accept exactly 0 <= y <= S(t), t > 0, element by element; NaN is outside."""

    METHODS = ("temperature", "temperature_gradient", "x_star", "theta", "psi_parametric")

    @staticmethod
    def _method(pf, name):
        return getattr(pf.stefan if name.startswith("temperature") else pf, name)

    @pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("name", METHODS)
    def test_accepts_closed_interval(self, baseline_psi, name, t):
        evaluate, s = self._method(baseline_psi, name), baseline_psi.stefan.free_boundary(t)
        for y in (0.0, -0.0, s):
            assert math.isfinite(evaluate(y, t))
        assert np.all(np.isfinite(evaluate(np.array([0.0, -0.0, s]), t)))

    @pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("name", METHODS)
    def test_refuses_outside(self, baseline_psi, name, t):
        evaluate, s = self._method(baseline_psi, name), baseline_psi.stefan.free_boundary(t)
        inside = np.array([0.0, 0.5 * s, s])
        for bad in (np.nextafter(s, np.inf), -5e-324, math.nan):
            with pytest.raises(sr.DomainError):
                evaluate(bad, t)
            for i in range(inside.size):
                y = inside.copy()
                y[i] = bad
                with pytest.raises(sr.DomainError):
                    evaluate(y, t)
        with pytest.raises(sr.DomainError):
            evaluate(0.0, math.nan)
        with pytest.raises(sr.DomainError):
            evaluate(inside, np.array([t, math.nan, t]))

    def test_nan_time_refused(self, baseline_psi):
        for evaluate in (baseline_psi.stefan.free_boundary, baseline_psi.c):
            with pytest.raises(sr.DomainError):
                evaluate(math.nan)


def _time_evaluators(pf):
    """Every evaluator of a time, by name, as a function of t alone (y = 0)."""
    f = pf.stefan
    return {
        "free_boundary": f.free_boundary,
        "latent_heat": f.latent_heat,
        "melt_temperature": f.melt_temperature,
        "c": pf.c,
        "c_of_t_general": lambda t: sr.c_of_t_general(f, t),
        "front_speed": f.front_speed,
        "x1": pf.x1,
        "h_of_t": pf.h_of_t,
        "temperature": lambda t: f.temperature(0.0, t),
        "temperature_gradient": lambda t: f.temperature_gradient(0.0, t),
        "x_star": lambda t: pf.x_star(0.0, t),
        "x0": pf.x0,
        "psi_parametric": lambda t: pf.psi_parametric(0.0, t),
        "theta": lambda t: pf.theta(0.0, t),
        "theta_quadrature": lambda t: sr.theta_quadrature(0.0, t, f),
    }


TIME_EVALUATORS = (
    "free_boundary", "latent_heat", "melt_temperature", "c", "c_of_t_general", "front_speed",
    "x1", "h_of_t", "temperature", "temperature_gradient", "x_star", "x0", "psi_parametric",
    "theta", "theta_quadrature",
)
#: The evaluators defined at t = 0 (S, L, Tm and C); the others take t > 0 only.
DEFINED_AT_ZERO = ("free_boundary", "latent_heat", "melt_temperature", "c", "c_of_t_general")


class TestTimeDomain:
    """One time-domain check: DomainError outside t >= 0 (S, L, Tm, C) or t > 0."""

    @pytest.mark.parametrize("t", [-1.0, np.array([1.0, -1.0])])
    @pytest.mark.parametrize("name", TIME_EVALUATORS)
    def test_negative_time_refused(self, baseline_psi, name, t):
        with pytest.raises(sr.DomainError):
            _time_evaluators(baseline_psi)[name](t)

    @pytest.mark.parametrize("name", TIME_EVALUATORS)
    def test_zero_time(self, baseline_psi, name):
        evaluate = _time_evaluators(baseline_psi)[name]
        if name in DEFINED_AT_ZERO:
            assert evaluate(0.0) == 0.0
        else:
            with pytest.raises(sr.DomainError):
                evaluate(0.0)

    def test_jet_time_refused(self, baseline_psi):
        """The check reads a jet's value."""
        from stefan_reciprocal.similarity import _Jet

        for evaluate in (baseline_psi.x1, baseline_psi.c, baseline_psi.stefan.free_boundary):
            with pytest.raises(sr.DomainError):
                evaluate(_Jet.in_t(-1.0))


class TestJets:
    """Jets through the evaluation core against 30-digit differentiation of the closed forms."""

    @staticmethod
    def _closed_forms(field, delta):
        """T, x* and Psi of ``field`` in mpmath; Theta from the antiderivative of T."""
        p, g = field.params, mp.mpf(field.gamma.gamma)
        q, l0, tm0 = (mp.mpf(v) for v in (p.q, p.l0, p.tm0))
        amp = (q - l0 * g) / (mp.sqrt(mp.pi) * mp.erf(g))

        def temp(y, t):
            eta = y / (2 * mp.sqrt(t))
            gauss = mp.exp(-eta**2)
            return amp * (2 * mp.sqrt(t) * gauss + mp.sqrt(mp.pi) * y * mp.erf(eta)) - q * y

        def grad(y, t):
            return amp * mp.sqrt(mp.pi) * mp.erf(y / (2 * mp.sqrt(t))) - q

        def int_temp(u, t):
            xi = u / (2 * mp.sqrt(t))
            e = mp.erf(xi)
            return amp * (
                2 * t * mp.sqrt(mp.pi) * e
                + mp.sqrt(mp.pi) * ((u * u / 2 - t) * e + mp.sqrt(t / mp.pi) * u * mp.exp(-xi**2))
            ) - q * u * u / 2

        def theta(y, t):
            return g * (l0 - tm0) * t - (int_temp(y, t) - int_temp(2 * g * mp.sqrt(t), t))

        def x_star(y, t):
            return temp(y, t) / (delta * theta(y, t))

        def psi(y, t):
            th = theta(y, t)
            return delta * th**2 / (grad(y, t) * th + temp(y, t) ** 2)

        return temp, x_star, psi

    @pytest.mark.parametrize("q, tm0", [(1.0, 0.5), (0.1, 0.99), (10.0, 0.0)])
    def test_derivatives_match_mpmath(self, q, tm0):
        from stefan_reciprocal.similarity import _Jet

        field = sr.StefanField.from_params(sr.PhysicalParams(q=q, l0=1.0, tm0=tm0))
        pf = sr.PsiField(field)
        methods = (field.temperature, pf.x_star, pf.psi_parametric)
        with mp.workdps(30):
            closed = self._closed_forms(field, mp.mpf(pf.delta))
            for t in T_SAMPLES:
                for frac in (0.0, 0.3, 1.0):
                    y = frac * field.free_boundary(t)
                    for method, ref in zip(methods, closed):
                        jet = method(_Jet.in_y(y), _Jet.in_t(t))
                        assert jet.v == method(y, t)  # the float evaluation's bits
                        refs = (
                            mp.diff(lambda u: ref(u, t), y, 1),
                            mp.diff(lambda u: ref(u, t), y, 2),
                            mp.diff(lambda tau: ref(y, tau), t, 1),
                        )
                        for got, want in zip((jet.y, jet.yy, jet.t), refs):
                            err = abs(got - float(want)) / max(1.0, abs(float(want)))
                            assert err <= 1e-9, (method.__name__, t, frac, got, want)

    @pytest.mark.parametrize("left", [np.float64(1.5), np.array([1.5, -2.0])])
    def test_numpy_left_operand(self, left):
        """A numpy scalar or array on the left acts as a constant jet."""
        import operator

        from stefan_reciprocal.similarity import _Jet

        jet = _Jet(np.array([0.5, 3.0]), np.array([2.0, -1.0]), 0.25, 1.0)
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            got, want = op(left, jet), op(_Jet(left, 0.0, 0.0, 0.0), jet)
            for part in ("v", "y", "yy", "t"):
                np.testing.assert_array_equal(getattr(got, part), getattr(want, part))


class TestHFunction:
    def test_time_scaling(self, baseline_psi):
        # t*H(t) is t-independent; for this family the constant vanishes
        values = [t * baseline_psi.h_of_t(t) for t in (0.5, 1.0, 2.0)]
        assert max(abs(v - values[0]) for v in values) <= 1e-9
        assert all(abs(v) <= 1e-9 for v in values)

    def test_exponential_identity(self, baseline_psi, baseline_field):
        t0, t = 0.5, 2.0
        h_int = quad_batch(lambda u, _: baseline_psi.h_of_t(u), t0, t, 1e-9)
        d = baseline_psi.delta

        def log_p(tau):
            s = baseline_field.free_boundary(tau)
            return -d * quad_batch(
                lambda u, _: baseline_psi.x_star(u, tau), 0.0, s, 1e-11
            )

        assert abs(math.exp(h_int) - math.exp(log_p(t) - log_p(t0))) <= 1e-6


class TestFrontRecovery:
    def test_matches_closed_front(self, baseline_psi, baseline_field):
        g = baseline_field.gamma.gamma
        s1 = s_from_psi(baseline_psi, 1.0)
        assert abs(s1 - 2.0 * g) <= 1e-7
        s4 = s_from_psi(baseline_psi, 4.0)
        assert abs(s4 - 2.0 * s1) <= 1e-7 * 2.0

    def test_reversed_orientation(self, zero_tm0_psi, zero_tm0_field):
        for t in (0.25, 1.0):
            rec = s_from_psi(zero_tm0_psi, t)
            assert abs(rec - zero_tm0_field.free_boundary(t)) <= 1e-7 * math.sqrt(t)

    def test_boundaries_distinct(self, baseline_psi, zero_tm0_psi):
        for pf in (baseline_psi, zero_tm0_psi):
            for t in (0.25, 1.0, 4.0):
                assert pf.x0(t) != pf.x1(t)


class _FakeField:
    """Hand-made T, T_y, S, dS/dt, L and Tm under the method names of StefanField."""

    params = SimpleNamespace(delta=1.0)

    def __init__(self, T, T_y, S, S_dot, L, Tm):
        self.temperature, self.temperature_gradient = T, T_y
        self.free_boundary, self.front_speed = S, S_dot
        self.latent_heat, self.melt_temperature = L, Tm


class _FakePsi(sr.PsiField):
    """A PsiField on a fake field, with Theta and C taken by quadrature."""

    def _parts(self, y, t):
        f = self.stefan
        parts = (f.temperature(y, t), f.temperature_gradient(y, t), sr.theta_quadrature(y, t, f))
        return tuple(np.asarray(v, dtype=float) for v in parts)

    def c(self, t):
        return sr.c_of_t_general(self.stefan, t)


def _fake_psi(**callables):
    return _FakePsi(_FakeField(**callables))


def _singular_theta_callables():
    """Constant negative temperature, which forces Theta through zero.

    The front speed blows up like t^(-1/2): (L - Tm)*S_dot = 0.5/sqrt(t), so
    C(t) = sqrt(t) and Theta(y, t) = sqrt(t) + 10*(y - S(t)).
    """
    return dict(
        T=lambda y, t: -10.0 + 0.0 * y,
        T_y=lambda y, t: 0.0 * y,
        S=lambda t: 2.0 * np.sqrt(t),
        S_dot=lambda t: 1.0 / np.sqrt(t),
        L=lambda t: 1.5 + 0.0 * t,
        Tm=lambda t: 1.0 + 0.0 * t,
    )


class TestSingularities:
    def test_not_monotone(self):
        """D changes sign on a real field, so its first inversion is refused."""
        pf = sr.PsiField(sr.StefanField.from_params(sr.PhysicalParams(q=1.7, l0=1.0, tm0=0.3)))
        with pytest.raises(sr.NotMonotone):
            pf.invert_x_star(0.5 * (pf.x0(1.0) + pf.x1(1.0)), 1.0)


class TestQuadrature:
    def test_reversed_interval_negates(self):
        forward = quad_batch(lambda x, _: np.exp(x), 0.2, 1.7, 1e-12)
        assert quad_batch(lambda x, _: np.exp(x), 1.7, 0.2, 1e-12) == -forward
        assert forward == pytest.approx(math.exp(1.7) - math.exp(0.2), rel=1e-14)

    def test_empty_interval_is_zero(self):
        calls = []

        def f(x, _):
            calls.append(x)
            return np.ones_like(x)

        assert quad_batch(f, 0.5, 0.5, 1e-10) == 0.0
        assert calls == []

    def test_batch_matches_one_at_a_time(self):
        """Each integral of a batch is bit for bit the one it gives alone,
        also when the integrand reads its parameters at k."""
        def f(x, _):
            return np.exp(np.sin(5.0 * x)) / (1.0 + x * x)

        ends = np.array([-2.0, -0.3, 0.0, 0.4, 1.1, 3.0, 7.5])
        batch = quad_batch(f, 0.1, ends, 1e-12)
        single = [quad_batch(f, 0.1, b, 1e-12) for b in ends]
        assert batch.shape == ends.shape
        assert batch.tolist() == single

        freq = np.array([[0.5, 3.0, 10.0], [1.0, 7.0, 20.0]])
        batch = quad_batch(lambda x, k: np.cos(freq.flat[k] * x * x), 0.0, 2.0 + 0.0 * freq, 1e-12)
        single = [
            quad_batch(lambda x, _: np.cos(w * x * x), 0.0, 2.0, 1e-12) for w in freq.ravel()
        ]
        assert batch.shape == freq.shape
        assert batch.ravel().tolist() == single

    def test_failure_names_the_worst_interval(self):
        """One bad interval in a batch: the failure gives its bounds and index."""
        freq = np.array([1.0, 1e4, 2.0])
        with pytest.raises(sr.QuadratureFailure, match=r"on \[0, 3\]") as info:
            quad_batch(lambda x, k: np.sin(freq[k] * x * x), 0.0, [1.0, 3.0, 2.0], 1e-13, limit=8)
        assert info.value.interval == 1

    def test_integrable_endpoint_singularity(self):
        value = quad_batch(lambda x, _: x**-0.5, 0.0, 1.0, 1e-13)
        assert abs(value - 2.0) <= 1e-12 * 2.0

    def test_singular_theta_handle_c_is_exact(self):
        # C(1) = 1 for this fake field, whose Theta(y, 1) = 1 + 10*(y - S) crosses 0
        pf = _fake_psi(**_singular_theta_callables())
        assert abs(pf.c(1.0) - 1.0) <= 1e-13

    def test_failure_when_limit_binds(self):
        def f(x, _):
            return x**-0.5

        assert quad_batch(f, 0.0, 1.0, 1e-10) == pytest.approx(2.0, rel=1e-10)
        with pytest.raises(sr.QuadratureFailure):
            quad_batch(f, 0.0, 1.0, 1e-10, limit=10)


def test_quad_checked_failure():
    with pytest.raises(sr.QuadratureFailure):
        # highly oscillatory integrand with a tiny subdivision budget
        quad_batch(lambda x, _: np.sin(1e4 * x * x), 0.0, 3.0, 1e-13, limit=1)
