import numpy as np
import pytest

import stefan_reciprocal as sr
from stefan_reciprocal.verify import (
    GridSpec,
    burgers_bc_values,
    burgers_residual,
    c_consistency_residual,
    boundary_consistency_residual,
    evolution_residual,
    h_ratio_residual,
    h_ratio_value,
    heat_residual,
    psi_bc_values,
    reciprocal_identity_residual,
    roundtrip_residual,
    run_verification_suite,
    s_recovery_residual,
    stefan_bc_residuals,
    theta_consistency_residual,
)

SMALL = GridSpec(n_space=16, n_time=3)
COARSE_STEPS = (4e-3, 2e-3, 1e-3)


def slope(errs, steps=COARSE_STEPS):
    fit = np.polyfit(np.log(steps), np.log(errs), 1)
    return fit[0]


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(sr.InvalidParameters):
            GridSpec(n_space=4)
        with pytest.raises(sr.InvalidParameters):
            GridSpec(n_time=0)
        with pytest.raises(sr.InvalidParameters):
            GridSpec(margin=0.6)
        with pytest.raises(sr.InvalidParameters):
            GridSpec(fd_step=0.02, margin=0.02)

    def test_report_record_schema(self, baseline_field):
        report = stefan_bc_residuals(baseline_field)
        record = report.as_record()
        assert set(record) == {"identity", "grid", "max_abs", "l2", "pass", "tolerance"}
        assert record["grid"] == {"t_samples": [0.25, 1.0, 4.0]}
        assert record["pass"] is (record["max_abs"] <= record["tolerance"])


class TestHeatResidual:
    def test_magnitude_at_default_step(self, baseline_field):
        report = heat_residual(baseline_field)
        assert report.passed and report.max_abs <= 1e-5
        assert report.max_abs <= 1e-6  # measured ~1.5e-7; regression headroom

    def test_halving_quarters(self, baseline_field):
        e2 = heat_residual(baseline_field, GridSpec(n_space=16, fd_step=2e-3)).max_abs
        e1 = heat_residual(baseline_field, GridSpec(n_space=16, fd_step=1e-3)).max_abs
        assert 3.3 <= e2 / e1 <= 4.7

    def test_refinement_slope_and_monotone(self, baseline_field):
        errs = [
            heat_residual(baseline_field, GridSpec(fd_step=h)).max_abs
            for h in COARSE_STEPS
        ]
        assert errs[0] > errs[1] > errs[2]
        assert slope(errs) >= 1.9

    def test_detects_cubic_corruption(self, baseline_field):
        eps = 1e-3

        class Corrupted(sr.StefanField):
            def temperature(self, y, t, check_domain=True):
                base = sr.StefanField.temperature(self, y, t, check_domain)
                return base + eps * np.asarray(y) ** 3

        bad = Corrupted(
            baseline_field.params, baseline_field.gamma, baseline_field.amplitude
        )
        grid = GridSpec(n_space=16, n_time=3)
        report = heat_residual(bad, grid)
        # heat operator of eps*y^3 is -6*eps*y, largest at the outermost node
        assert report.max_abs >= 6 * eps * grid.margin
        assert not report.passed

    def test_detects_smooth_bump(self, baseline_field):
        eps = 1e-3

        class Bumped(sr.StefanField):
            def temperature(self, y, t, check_domain=True):
                base = sr.StefanField.temperature(self, y, t, check_domain)
                s = 2.0 * self.gamma.gamma * np.sqrt(np.asarray(t, dtype=float))
                u = (np.asarray(y) - 0.5 * s) / (0.1 * s)
                return base + eps * np.exp(-(u * u))

        bad = Bumped(
            baseline_field.params, baseline_field.gamma, baseline_field.amplitude
        )
        report = heat_residual(bad, GridSpec(n_space=49, n_time=3))
        assert report.max_abs >= eps / 2


class TestBurgersResidual:
    def test_magnitude_at_default_step(self, baseline_psi):
        report = burgers_residual(baseline_psi)
        assert report.passed and report.max_abs <= 1e-4

    def test_refinement_slope_and_monotone(self, baseline_psi):
        errs = [
            burgers_residual(baseline_psi, GridSpec(fd_step=h)).max_abs
            for h in COARSE_STEPS
        ]
        assert errs[0] > errs[1] > errs[2]
        assert slope(errs) >= 1.9

    def test_heat_operator_isolates_advection(self, baseline_psi, baseline_field):
        """The pure heat operator applied to x* equals -2*delta*x* x*_y."""
        t = 1.0
        s = baseline_field.free_boundary(t)
        fracs = np.linspace(0.1, 0.9, 9)
        y = fracs * s
        hy, ht = 1e-4 * s, 1e-5 * t
        pf = baseline_psi
        x_t = (
            pf.x_star(fracs * baseline_field.free_boundary(t + ht), t + ht)
            - pf.x_star(fracs * baseline_field.free_boundary(t - ht), t - ht)
        ) / (2 * ht)
        s_dot = (
            baseline_field.free_boundary(t + ht)
            - baseline_field.free_boundary(t - ht)
        ) / (2 * ht)
        u_p, u_m, u_c = pf.x_star(y + hy, t), pf.x_star(y - hy, t), pf.x_star(y, t)
        u_y = (u_p - u_m) / (2 * hy)
        u_yy = (u_p - 2 * u_c + u_m) / hy**2
        heat_op = x_t - fracs * s_dot * u_y - u_yy
        advection = 2.0 * pf.delta * u_c * u_y
        assert np.max(np.abs(advection)) > 1.0  # the term being isolated is O(1)
        assert np.max(np.abs(heat_op + advection)) <= 1e-4

    def test_detects_smooth_bump(self, baseline_psi, baseline_field):
        eps = 1e-3
        field = baseline_field

        class Bumped(sr.PsiField):
            def x_star(self, y, t):
                base = sr.PsiField.x_star(self, y, t)
                s = field.free_boundary(t)
                u = (np.asarray(y) - 0.5 * s) / (0.1 * s)
                return base + eps * np.exp(-(u * u))

        bad = Bumped.from_stefan(field)
        report = burgers_residual(bad, GridSpec(n_space=49, n_time=3))
        assert report.max_abs >= eps / 2


class TestEvolutionResidual:
    def test_magnitude_at_default_steps(self, baseline_psi):
        report = evolution_residual(baseline_psi)
        assert report.passed and report.max_abs <= 1e-3
        assert report.max_abs <= 1e-4  # measured ~2.3e-5; regression headroom

    def test_joint_refinement_slope(self, baseline_psi):
        errs = [
            evolution_residual(baseline_psi, GridSpec(n_space=16, fd_step=h)).max_abs
            for h in COARSE_STEPS
        ]
        assert errs[0] > errs[1] > errs[2]
        assert slope(errs) >= 1.5

    def test_source_term_isolated(self, baseline_psi):
        report = evolution_residual(baseline_psi, SMALL)
        no_source = report.per_point + 2.0 * baseline_psi.delta
        assert np.allclose(no_source, 2.0 * baseline_psi.delta, atol=1e-3)


class TestBoundaryConditionResiduals:
    def test_stefan_bcs(self, baseline_field):
        report = stefan_bc_residuals(baseline_field)
        assert report.passed and report.max_abs <= 1e-11

    def test_burgers_bcs(self, baseline_psi):
        report = sr.burgers_bc_residuals(baseline_psi)
        assert report.passed and report.max_abs <= 1e-6

    def test_burgers_bc_components(self, baseline_psi):
        vals = burgers_bc_values(baseline_psi, 1.0)
        assert vals["b8"] <= 5e-12  # pure algebra up to the root residual
        assert vals["b7"] <= 1e-7
        assert vals["b9"] <= 1e-6
        assert vals["b6"] <= 1e-9

    def test_psi_bcs(self, baseline_psi):
        report = sr.psi_bc_residuals(baseline_psi)
        assert report.passed and report.max_abs <= 1e-5

    def test_psi_bc_components(self, baseline_psi, baseline_field):
        vals = psi_bc_values(baseline_psi, 1.0)
        assert vals["c4i"] <= 1e-7
        assert vals["c4iii"] <= 1e-7
        assert vals["esepunto"] <= 1e-7
        assert vals["c5"] <= 1e-5
        assert h_ratio_value(baseline_psi, 1.0) <= 1e-6

    def test_front_speed_reconstruction(self, baseline_psi, baseline_field):
        # the esepunto combination reproduces dS/dt = gamma at t=1
        t = 1.0
        vals = psi_bc_values(baseline_psi, t)
        g = baseline_field.gamma.gamma
        assert vals["esepunto"] * max(1.0, g) <= 1e-7

    def test_h_ratio(self, baseline_psi):
        report = h_ratio_residual(baseline_psi)
        assert report.passed and report.max_abs <= 1e-6


class TestConsistencyResiduals:
    def test_reciprocal_identity(self, baseline_psi):
        report = reciprocal_identity_residual(baseline_psi)
        assert report.passed and report.max_abs <= 1e-6

    def test_theta_consistency(self, baseline_psi):
        report = theta_consistency_residual(baseline_psi, SMALL)
        assert report.passed and report.max_abs <= 1e-9

    def test_c_consistency(self, baseline_psi):
        report = c_consistency_residual(baseline_psi)
        assert report.passed and report.max_abs <= 1e-10

    def test_boundary_consistency(self, baseline_field):
        report = boundary_consistency_residual(baseline_field)
        assert report.passed and report.max_abs <= 1e-10

    def test_front_recovery(self, baseline_psi):
        report = s_recovery_residual(baseline_psi)
        assert report.passed and report.max_abs <= 1e-7

    def test_roundtrip(self, baseline_psi):
        report = roundtrip_residual(baseline_psi)
        assert report.passed and report.max_abs <= 1e-9


class TestSuite:
    def test_all_pass_small_grid(self, baseline_field, baseline_psi):
        reports = run_verification_suite(baseline_field, SMALL)
        assert len(reports) == 13
        failing = [r.identity for r in reports if not r.passed]
        assert failing == []

    def test_bit_reproducible(self, baseline_field, baseline_psi):
        grid = GridSpec(n_space=12, n_time=2)
        a = heat_residual(baseline_field, grid)
        b = heat_residual(baseline_field, grid)
        assert a.as_record() == b.as_record()
        assert a.max_abs == b.max_abs and a.l2 == b.l2
        assert np.array_equal(a.per_point, b.per_point)
        ra = sr.psi_bc_residuals(baseline_psi)
        rb = sr.psi_bc_residuals(baseline_psi)
        assert ra.as_record() == rb.as_record()
        assert ra.details == rb.details

    def test_json_roundtrip(self, baseline_field):
        import json

        report = heat_residual(baseline_field, SMALL)
        parsed = json.loads(report.to_json())
        assert parsed["identity"] == "heat-equation"
        assert parsed["pass"] is True
