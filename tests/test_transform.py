import math

import numpy as np
import pytest

import stefan_reciprocal as sr
from stefan_reciprocal.transform import quad_checked

# frozen from a 50-digit evaluation at the baseline parameters
C0_BASELINE = 1.1906543169306761504
C1_BASELINE = 2.1069845546379560961
PSI_AT_X1_T1 = 0.40993957305072940341
PSI_AT_X0_T1 = 2.3943051790790440424


class TestCFunction:
    def test_linear_closed_form(self, baseline_psi, baseline_field):
        g = baseline_field.gamma.gamma
        for t in (0.5, 1.0, 2.0):
            assert baseline_psi.c(t) == pytest.approx(g * 0.5 * t, rel=1e-15)

    def test_quadrature_matches_closed(self, baseline_psi):
        handle = baseline_psi.handle
        for t in (0.5, 2.0):
            quad_val = sr.c_of_t_general(handle, t, quad_tol=1e-12)
            assert abs(quad_val - baseline_psi.c(t)) <= 1e-10

    def test_zero_time(self, baseline_psi):
        assert sr.c_of_t_general(baseline_psi.handle, 0.0) == 0.0


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
        oracle = sr.theta_quadrature(y, t, baseline_psi.handle, quad_tol=1e-12)
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
            s = pf.handle.S(t)
            y = np.linspace(0.0, s, 501)
            assert np.all(np.asarray(pf.theta(y, t)) > 0)


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
    def test_roundtrip(self, baseline_psi, baseline_field, frac, t):
        s = baseline_field.free_boundary(t)
        y = frac * s
        back = baseline_psi.invert_x_star(baseline_psi.x_star(y, t), t, tol=1e-12)
        assert abs(back - y) <= 1e-9 * s

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
    @pytest.mark.parametrize("method", ["invert_x_star", "psi_at"])
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
    @pytest.mark.parametrize("tol", [1e-6, 1e-12])
    def test_residual_within_tol(self, request, name, t, tol):
        """Targets across [X0*, X1*]: y stays in [0, S(t)] and the residual <= tol."""
        pf = request.getfixturevalue(name)
        s = pf.handle.S(t)
        xs = np.linspace(pf.x0(t), pf.x1(t), 65)
        scalar = [pf.invert_x_star(x, t, tol) for x in xs]
        for y in (pf.invert_x_star(xs, t, tol), np.array(scalar)):
            assert np.all((y >= 0.0) & (y <= s))
            assert np.max(np.abs(pf.x_star(y, t) - xs)) <= tol

    @staticmethod
    def _counted(field):
        """A fresh PsiField whose fused x*/slope evaluations are counted."""
        pf = sr.PsiField.from_stefan(field)
        inner, calls = pf._x_and_slope, []

        def counting(y, t):
            calls.append(np.size(y))
            return inner(y, t)

        pf._x_and_slope = counting
        return pf, calls

    def test_newton_evaluation_count(self, baseline_field):
        pf, calls = self._counted(baseline_field)
        for t in (0.25, 1.0, 4.0):
            for xs in np.linspace(pf.x0(t), pf.x1(t), 17):
                calls.clear()
                pf.invert_x_star(xs, t)
                assert 1 <= len(calls) <= 10
            calls.clear()
            pf.invert_x_star(np.linspace(pf.x0(t), pf.x1(t), 17), t)
            assert 1 <= len(calls) <= 10 and set(calls) == {17}

    def test_zero_tol_terminates_at_machine_floor(self, baseline_field):
        pf, calls = self._counted(baseline_field)
        t = 1.0
        x0, x1 = pf.x0(t), pf.x1(t)
        ulp = np.spacing(max(abs(x0), abs(x1)))
        for frac in (0.1, 0.37, 0.5, 0.9):
            xs = x0 + frac * (x1 - x0)
            calls.clear()
            y = pf.invert_x_star(xs, t, tol=0.0)
            assert len(calls) <= 12
            assert abs(pf.x_star(y, t) - xs) <= 8 * ulp


class TestPsiAt:
    def test_boundary_values(self, baseline_psi, baseline_field):
        t = 1.0
        s = baseline_field.free_boundary(t)
        assert baseline_psi.psi_at(baseline_psi.x1(t), t) == pytest.approx(
            baseline_psi.psi_parametric(s, t), rel=1e-10
        )
        assert baseline_psi.psi_at(baseline_psi.x0(t), t) == pytest.approx(
            baseline_psi.psi_parametric(0.0, t), rel=1e-10
        )

    def test_stable_under_tolerance_refinement(self, baseline_psi):
        t = 1.0
        xs = 0.5 * (baseline_psi.x0(t) + baseline_psi.x1(t))
        coarse = baseline_psi.psi_at(xs, t, tol=1e-6)
        fine = baseline_psi.psi_at(xs, t, tol=1e-10)
        finest = baseline_psi.psi_at(xs, t, tol=1e-12)
        assert abs(coarse - fine) <= 1e-5
        assert abs(fine - finest) <= 1e-9


class TestHFunction:
    def test_time_scaling(self, baseline_psi):
        # t*H(t) is t-independent; for this family the constant vanishes
        values = [t * baseline_psi.h_of_t(t) for t in (0.5, 1.0, 2.0)]
        assert max(abs(v - values[0]) for v in values) <= 1e-9
        assert all(abs(v) <= 1e-9 for v in values)

    def test_exponential_identity(self, baseline_psi, baseline_field):
        t0, t = 0.5, 2.0
        h_int = quad_checked(lambda u: baseline_psi.h_of_t(u), t0, t, 1e-9)
        d = baseline_psi.delta

        def log_p(tau):
            s = baseline_field.free_boundary(tau)
            return -d * quad_checked(
                lambda u: baseline_psi.x_star(u, tau), 0.0, s, 1e-11
            )

        assert abs(math.exp(h_int) - math.exp(log_p(t) - log_p(t0))) <= 1e-6


class TestFrontRecovery:
    def test_matches_closed_front(self, baseline_psi, baseline_field):
        g = baseline_field.gamma.gamma
        s1 = baseline_psi.s_from_psi(1.0)
        assert abs(s1 - 2.0 * g) <= 1e-7
        s4 = baseline_psi.s_from_psi(4.0)
        assert abs(s4 - 2.0 * s1) <= 1e-7 * 2.0

    def test_reversed_orientation(self, zero_tm0_psi, zero_tm0_field):
        for t in (0.25, 1.0):
            rec = zero_tm0_psi.s_from_psi(t)
            assert abs(rec - zero_tm0_field.free_boundary(t)) <= 1e-7 * math.sqrt(t)

    def test_boundaries_distinct(self, baseline_psi, zero_tm0_psi):
        for pf in (baseline_psi, zero_tm0_psi):
            for t in (0.25, 1.0, 4.0):
                assert pf.x0(t) != pf.x1(t)


class TestGeneralHandleMode:
    def test_matches_closed_form(self, baseline_field, baseline_psi):
        handle = sr.StefanSolutionHandle.from_field(baseline_field)
        general = sr.PsiField.from_handle(handle, delta=1.0, quad_tol=1e-12)
        t = 1.0
        y = 0.6 * baseline_field.free_boundary(t)
        assert general.theta(y, t) == pytest.approx(
            baseline_psi.theta(y, t), abs=1e-10
        )
        assert general.x_star(y, t) == pytest.approx(
            baseline_psi.x_star(y, t), rel=1e-9
        )
        assert general.psi_parametric(y, t) == pytest.approx(
            baseline_psi.psi_parametric(y, t), rel=1e-9
        )
        assert general.x1(t) == pytest.approx(baseline_psi.x1(t), rel=1e-9)
        assert general.h_of_t(t) == pytest.approx(0.0, abs=1e-8)

    def test_array_time_and_inversion(self, baseline_field, baseline_psi):
        """The vectorized handle serves array t and array inversion targets."""
        handle = sr.StefanSolutionHandle.from_field(baseline_field)
        general = sr.PsiField.from_handle(handle, delta=1.0)
        ts = np.array([0.25, 1.0, 4.0])
        for bound in ("x0", "x1"):
            got = getattr(general, bound)(ts)
            want = [getattr(baseline_psi, bound)(t) for t in ts]
            assert got.shape == ts.shape
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-9
        t = 1.0
        s = baseline_field.free_boundary(t)
        y = np.array([0.2, 0.5, 0.8]) * s
        back = general.invert_x_star(baseline_psi.x_star(y, t), t)
        assert back.shape == y.shape
        assert np.max(np.abs(back - y)) <= 1e-9 * s
        xs = 0.5 * (baseline_psi.x0(t) + baseline_psi.x1(t))
        assert general.invert_x_star(xs, t) == pytest.approx(
            baseline_psi.invert_x_star(xs, t), rel=1e-9
        )

    def test_validation_rejects_inconsistent_handle(self, baseline_field):
        handle = sr.StefanSolutionHandle.from_field(baseline_field)
        broken = sr.StefanSolutionHandle(
            T=lambda y, t: handle.T(y, t) + 0.1,
            T_y=handle.T_y,
            S=handle.S,
            S_dot=handle.S_dot,
            L=handle.L,
            Tm=handle.Tm,
        )
        with pytest.raises(sr.InvalidParameters):
            sr.PsiField.from_handle(broken, delta=1.0)


class TestSingularities:
    def test_singular_theta(self):
        # constant negative temperature forces Theta through zero
        handle = sr.StefanSolutionHandle(
            T=lambda y, t: -10.0,
            T_y=lambda y, t: 0.0,
            S=lambda t: 2.0 * math.sqrt(t),
            S_dot=lambda t: 1.0 / math.sqrt(t),
            L=lambda t: 1.5,
            Tm=lambda t: 1.0,
        )
        pf = sr.PsiField.from_handle(handle, delta=1.0, validate=False)
        crossing = handle.S(1.0) - 0.1  # Theta(y,1) = 1 + 10*(y - S)
        with pytest.raises(sr.SingularTheta):
            pf.x_star(crossing, 1.0)

    def test_not_monotone(self):
        handle = sr.StefanSolutionHandle(
            T=lambda y, t: 1.0 + 0.5 * math.sin(6.0 * y),
            T_y=lambda y, t: 3.0 * math.cos(6.0 * y),
            S=lambda t: t,
            S_dot=lambda t: 1.0,
            L=lambda t: 3.0,
            Tm=lambda t: 0.0,
        )
        pf = sr.PsiField.from_handle(handle, delta=1.0, validate=False)
        with pytest.raises(sr.NotMonotone):
            pf.invert_x_star(0.3, 1.0)

    def test_singular_denominator(self):
        # T_y*Theta + T^2 = 0 when T = 0 and T_y = 0 at a point
        handle = sr.StefanSolutionHandle(
            T=lambda y, t: 0.0,
            T_y=lambda y, t: 0.0,
            S=lambda t: 2.0 * math.sqrt(t),
            S_dot=lambda t: 1.0 / math.sqrt(t),
            L=lambda t: 1.5,
            Tm=lambda t: 1.0,
        )
        pf = sr.PsiField.from_handle(handle, delta=1.0, validate=False)
        with pytest.raises(sr.SingularDenominator):
            pf.psi_parametric(0.5, 1.0)

    def test_degenerate_denominator_guard(self, baseline_field):
        with pytest.raises(sr.DegenerateDenominator):
            # an absurd gamma makes the closed-form denominator blow up / lose meaning
            sr.compute_boundary_coefficients(
                baseline_field.params, float("nan")
            )


def test_quad_checked_failure():
    with pytest.raises(sr.QuadratureFailure):
        # highly oscillatory integrand with a tiny subdivision budget
        quad_checked(lambda x: math.sin(1e4 * x * x), 0.0, 3.0, 1e-13, limit=1)
