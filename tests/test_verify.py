from fractions import Fraction

import numpy as np
import pytest

import stefan_reciprocal as sr
from stefan_reciprocal.verify import (
    MARGIN,
    T_SAMPLES,
    GridSpec,
    _psi_slope,
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
    s_from_psi,
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
        for kwargs in ({"n_space": 12.5}, {"n_space": 50.0}, {"n_time": 3.0},
                       {"n_time": True}, {"n_space": "50"}):
            with pytest.raises(sr.InvalidParameters, match=f"{next(iter(kwargs))} must be an int"):
                GridSpec(**kwargs)

    @pytest.mark.parametrize(
        "cls, kwargs, message",
        [(GridSpec, {"n_space": 12.5}, "n_space must be an int, got 12.5"),
         (GridSpec, {"n_time": True}, "n_time must be an int, got True"),
         (sr.OracleConfig, {"n_xi": "64"}, "n_xi must be an int, got '64'")],
    )
    def test_int_field_messages(self, cls, kwargs, message):
        """GridSpec and OracleConfig word a count that is not an int alike."""
        with pytest.raises(sr.InvalidParameters) as info:
            cls(**kwargs)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "cls, name, value, others",
        [(sr.PhysicalParams, "q", 10**400, {"l0": 1.0}),
         (sr.PhysicalParams, "tm0", -Fraction(10**400), {"q": 1.0, "l0": 1.0}),
         (sr.OracleConfig, "dt", -(10**400), {})],
    )
    def test_real_beyond_float_range_is_not_finite(self, cls, name, value, others):
        """PhysicalParams and OracleConfig refuse a real number that no float
        holds as not finite, as they refuse inf."""
        with pytest.raises(sr.InvalidParameters) as info:
            cls(**others, **{name: value})
        assert str(info.value) == f"{name} must be finite, got {value}"

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
        assert report.max_abs <= 1e-12  # measured 6.7e-16; regression headroom

    def test_halving_quarters(self, baseline_field, stencil_error):
        """A centred stencil's distance from the jet's T_y, T_yy, T_t quarters per halving."""
        grid = GridSpec(n_space=16)
        e2 = stencil_error(baseline_field.temperature, baseline_field, grid, 2e-3)
        e1 = stencil_error(baseline_field.temperature, baseline_field, grid, 1e-3)
        assert 3.3 <= e2 / e1 <= 4.7

    def test_refinement_slope_and_monotone(self, baseline_field, stencil_error):
        errs = [
            stencil_error(baseline_field.temperature, baseline_field, GridSpec(), h)
            for h in COARSE_STEPS
        ]
        assert errs[0] > errs[1] > errs[2]
        assert slope(errs) >= 1.9

    def test_detects_cubic_corruption(self, baseline_field):
        eps = 1e-3

        class Corrupted(sr.StefanField):
            def temperature(self, y, t):
                base = sr.StefanField.temperature(self, y, t)
                return base + eps * y * y * y

        bad = Corrupted(
            baseline_field.params, baseline_field.gamma, baseline_field.amplitude
        )
        grid = GridSpec(n_space=16, n_time=3)
        report = heat_residual(bad, grid)
        # heat operator of eps*y^3 is -6*eps*y, largest at the outermost node
        assert report.max_abs >= 6 * eps * MARGIN
        assert not report.passed

    def test_detects_smooth_bump(self, baseline_field):
        eps = 1e-3

        class Bumped(sr.StefanField):
            def temperature(self, y, t):
                base = sr.StefanField.temperature(self, y, t)
                s = self.free_boundary(t)
                u = (y - 0.5 * s) / (0.1 * s)
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

    def test_refinement_slope_and_monotone(self, baseline_psi, stencil_error):
        errs = [
            stencil_error(baseline_psi.x_star, baseline_psi.stefan, GridSpec(), h)
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
                u = (y - 0.5 * s) / (0.1 * s)
                return base + eps * np.exp(-(u * u))

        bad = Bumped(field)
        report = burgers_residual(bad, GridSpec(n_space=49, n_time=3))
        assert report.max_abs >= eps / 2


class TestEvolutionResidual:
    def test_magnitude_at_default_steps(self, baseline_psi):
        report = evolution_residual(baseline_psi)
        assert report.passed and report.max_abs <= 1e-3
        assert report.max_abs <= 1e-9  # measured 1.6e-12; regression headroom

    def test_joint_refinement_slope(self, baseline_psi, stencil_error):
        grid = GridSpec(n_space=16)
        errs = [
            stencil_error(baseline_psi.psi_parametric, baseline_psi.stefan, grid, h)
            for h in COARSE_STEPS
        ]
        assert errs[0] > errs[1] > errs[2]
        assert slope(errs) >= 1.5

    def test_source_term_isolated(self, baseline_psi):
        report = evolution_residual(baseline_psi, SMALL)
        no_source = report.per_point + 2.0 * baseline_psi.delta
        assert np.allclose(no_source, 2.0 * baseline_psi.delta, atol=1e-3)

    def test_detects_smooth_bump(self, baseline_field):
        eps = 1e-3
        field = baseline_field

        class Bumped(sr.PsiField):
            def psi_parametric(self, y, t):
                base = sr.PsiField.psi_parametric(self, y, t)
                s = field.free_boundary(t)
                u = (y - 0.5 * s) / (0.1 * s)
                return base + eps * np.exp(-(u * u))

        report = evolution_residual(Bumped(field), GridSpec(n_space=49, n_time=3))
        assert not report.passed


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

    def test_non_monotone_refused_before_first_identity(self, monkeypatch):
        from stefan_reciprocal import verify

        ran = []
        monkeypatch.setattr(verify, "heat_residual", lambda *args: ran.append(args))
        params = sr.PhysicalParams(q=1.7, l0=1.0, tm0=0.3)
        with pytest.raises(sr.NotMonotone):
            run_verification_suite(sr.StefanField.from_params(params), SMALL)
        assert ran == []

    #: (y, t) checks per identity of the default suite at the baseline, 51 in
    #: all; the monotonicity decision, on floats, checks none (52 when it
    #: sampled D through the field, 55 when H(t) checked its y = 0 and
    #: y = S(t), 81 with finite-difference stencils,
    #: 191 with a quadrature call per sampled time, 254 with the Psi checks
    #: re-inverting x*, 459 with a call per time slice, 1,143 with a check
    #: per T, T_y and Theta).  The round trip makes 8 Newton evaluations.
    DOMAIN_CHECKS = {
        "heat-equation": 1, "burgers-equation": 1, "source-equation": 2,
        "stefan-boundary-conditions": 3, "burgers-boundary-conditions": 5,
        "psi-boundary-conditions": 9, "source-ratio-identity": 2, "reciprocal-identity": 2,
        "theta-consistency": 2, "c-consistency": 0, "boundary-consistency": 1,
        "front-recovery": 15, "inversion-roundtrip": 8,
    }

    @staticmethod
    def _per_identity(monkeypatch, calls):
        """{identity: calls appended while it ran}, filled as the suite runs."""
        from stefan_reciprocal import verify

        counts = {}

        def attributed(check):
            def run(*args):
                before = len(calls)
                report = check(*args)
                counts[report.identity] = len(calls) - before
                return report

            return run

        for name in dir(verify):
            if name.endswith(("_residual", "_residuals")):
                monkeypatch.setattr(verify, name, attributed(getattr(verify, name)))
        return counts

    def test_one_domain_check_per_field_evaluation(self, baseline_field, monkeypatch):
        inner, calls = sr.StefanField._check_domain, []

        def counting(self, y, t):
            calls.append(t)
            return inner(self, y, t)

        monkeypatch.setattr(sr.StefanField, "_check_domain", counting)
        counts = self._per_identity(monkeypatch, calls)
        run_verification_suite(baseline_field)
        assert counts == self.DOMAIN_CHECKS
        assert len(calls) == sum(self.DOMAIN_CHECKS.values()) == 51

    def test_one_quadrature_call_per_integral(self, baseline_field, monkeypatch):
        """The default suite at the baseline integrates in 8 calls, each
        integral over all its times at once (31 with a call per sampled time)."""
        from stefan_reciprocal import verify

        inner, calls = verify.quad_batch, []

        def counting(*args, **kwargs):
            calls.append(args[1:3])
            return inner(*args, **kwargs)

        monkeypatch.setattr(verify, "quad_batch", counting)
        run_verification_suite(baseline_field)
        assert len(calls) <= 8

    def test_only_front_recovery_and_roundtrip_invert(self, baseline_field, monkeypatch):
        """Every other identity reads x* and Psi on the forward map (y, t)."""
        inner, calls = sr.PsiField._invert_array, []

        def counting(self, *args):
            calls.append(args[1])
            return inner(self, *args)

        monkeypatch.setattr(sr.PsiField, "_invert_array", counting)
        counts = self._per_identity(monkeypatch, calls)
        run_verification_suite(baseline_field)
        assert len(counts) == 13
        inverting = {identity for identity, n in counts.items() if n}
        assert inverting == {"front-recovery", "inversion-roundtrip"}

    def test_json_roundtrip(self, baseline_field):
        import json

        report = heat_residual(baseline_field, SMALL)
        parsed = json.loads(report.to_json())
        assert parsed["identity"] == "heat-equation"
        assert parsed["pass"] is True


@pytest.mark.parametrize("q, tm0", [(1.0, 0.5), (100.0, 0.99)])
def test_grid_rows_do_not_depend_on_other_times(q, tm0):
    """Row 0 of each grid identity at n_time = 3 is the one row at n_time = 1.

    Both grids start at t = 0.25; the grid identities evaluate every t in
    one call, so this checks that a row sees only its own time.
    """
    field = sr.StefanField.from_params(sr.PhysicalParams(q=q, l0=1.0, tm0=tm0))
    pf = sr.PsiField(field)
    for check, arg in (
        (heat_residual, field),
        (burgers_residual, pf),
        (reciprocal_identity_residual, pf),
        (evolution_residual, pf),
    ):
        three = check(arg, GridSpec(n_time=3)).per_point
        one = check(arg, GridSpec(n_time=1)).per_point
        assert three.shape == (3, 50) and one.shape == (1, 50)
        np.testing.assert_array_equal(three[0], one[0])


@pytest.mark.parametrize("q, tm0", [(1.0, 0.5), (100.0, 0.99)])
def test_array_t_is_per_t_bit_for_bit(q, tm0):
    """Each function that takes an array t gives at each time the bits of a
    call at that time alone; a scalar t gives a float or a dict of floats."""
    field = sr.StefanField.from_params(sr.PhysicalParams(q=q, l0=1.0, tm0=tm0))
    pf = sr.PsiField(field)
    t = np.array(T_SAMPLES)
    scalar_valued = {
        "c_of_t_general": lambda time: sr.c_of_t_general(field, time),
        "s_from_psi": lambda time: s_from_psi(pf, time),
        "h_ratio_value": lambda time: h_ratio_value(pf, time),
    }
    for name, fn in scalar_valued.items():
        singles = [fn(time) for time in T_SAMPLES]
        assert all(isinstance(v, float) for v in singles), name
        assert fn(t).tolist() == singles, name
    for values in (burgers_bc_values, psi_bc_values):
        batch = values(pf, t)
        for i, time in enumerate(T_SAMPLES):
            single = values(pf, time)
            assert all(isinstance(v, float) for v in single.values())
            assert {k: v[i] for k, v in batch.items()} == single, (values.__name__, time)
    ys = np.linspace(0.1, 0.9, 5) * field.free_boundary(t[:, None])
    theta = sr.theta_quadrature(ys, t[:, None], field)
    for y, time, row in zip(ys, T_SAMPLES, theta):
        assert row.tolist() == sr.theta_quadrature(y, time, field).tolist()
    # H is a small remainder of terms of size 1/t, so its last digits show how
    # Tm^3 was formed; on this grid libm's pow and numpy's power differ at both (q, tm0).
    times = np.linspace(0.1, 4.0, 40)
    singles = [pf.h_of_t(time) for time in times.tolist()]
    assert all(isinstance(v, float) for v in singles)
    assert pf.h_of_t(times).tolist() == singles


#: The 120-point scan of the ROADMAP: l0 = 1, default identities at 12x3.
SCAN_Q = (1e-3, 0.1, 1.0, 10.0, 100.0)
SCAN_TM0 = (-0.5, 0.0, 0.5, 0.99)
SCAN_DELTA = (0.1, 1.0, 10.0, 1e3, 1e6, 1e9)
#: (q, tm0) where every identity passes at every delta of the scan.
SCAN_PASSING = {
    (1e-3, 0.0), (1e-3, 0.5), (0.1, 0.0), (0.1, 0.5), (0.1, 0.99), (1.0, -0.5), (1.0, 0.0),
    (1.0, 0.5), (1.0, 0.99), (10.0, 0.99), (100.0, 0.99),
}


def test_scan_regression_floor():
    """Every scan point ends in reports or a StefanError; the pinned points pass everything.

    Only the passing points are pinned, so checker fixes can add to them.
    """
    grid = GridSpec(n_space=12, n_time=3)
    for q in SCAN_Q:
        for tm0 in SCAN_TM0:
            for delta in SCAN_DELTA:
                params = sr.PhysicalParams(q=q, l0=1.0, tm0=tm0, delta=delta)
                try:
                    reports = run_verification_suite(sr.StefanField.from_params(params), grid)
                except sr.StefanError as exc:
                    assert (q, tm0) not in SCAN_PASSING, (params, exc)
                    continue
                assert len(reports) == 13
                if (q, tm0) in SCAN_PASSING:
                    assert [r.identity for r in reports if not r.passed] == [], params


def test_c_quadrature_is_one_pass_per_time(monkeypatch):
    """At every scan point with a root, c_of_t_general integrates each t in one
    G7/K15 panel of one pass.  On the sqrt(t) family C's integrand is linear in
    u, which K15 integrates exactly, so C needs no tolerance of its own; if this
    fails, C's integrand is no longer a low-degree polynomial in u, and the
    question of a tolerance for it is open again."""
    from stefan_reciprocal import verify

    gk15, panels = verify._gk15, []

    def counted(func, left, right, owner):
        panels.append(left.size)
        return gk15(func, left, right, owner)

    monkeypatch.setattr(verify, "_gk15", counted)
    times = np.concatenate([T_SAMPLES, GridSpec().times(), [1e-8, 0.5, 1e3]])
    points = 0
    for q in SCAN_Q:
        for tm0 in SCAN_TM0:
            for delta in SCAN_DELTA:
                params = sr.PhysicalParams(q=q, l0=1.0, tm0=tm0, delta=delta)
                try:
                    field = sr.StefanField.from_params(params)
                except sr.NoSignChange:
                    continue
                for t in (times, 1.0):
                    panels.clear()
                    sr.c_of_t_general(field, t)
                    assert panels == [np.size(t)], (params, t)
                points += 1
    assert points == 108


@pytest.mark.parametrize("s", [1e-6, 1e-3, 0.1])
def test_scaled_scan_passes(s):
    """The SCAN_PASSING pairs with q, l0 and tm0 all multiplied by s pass at delta = 1.

    gamma, x* and Psi do not depend on s; T, Theta and C scale by s and D by
    s^2.  A per-call guard on D with an absolute floor refused 20 of these
    33 points.  The identities' absolute tolerances still loosen as s falls,
    so this does not show that their residuals are scale-free.
    """
    grid = GridSpec(n_space=12, n_time=3)
    for q, tm0 in sorted(SCAN_PASSING):
        params = sr.PhysicalParams(q=s * q, l0=s, tm0=s * tm0)
        reports = run_verification_suite(sr.StefanField.from_params(params), grid)
        assert [r.identity for r in reports if not r.passed] == [], params


#: The identities whose max_abs and l2 are exactly homogeneous today, with the power p
#: of the factor 2^k that each carries: at (2^k q, 2^k l0, 2^k tm0) (SCALE_EXACT) or at
#: delta * 2^k (DELTA_EXACT, per k) they are the baseline's times 2^(k*p), bit for bit.
#: The identities left out are not exact yet (ROADMAP item 25); an identity joins as it
#: becomes exact and is never taken off.
SCALE_EXACT = {
    "heat-equation": 1, "c-consistency": 1, "burgers-equation": 0, "source-equation": 0,
    "burgers-boundary-conditions": 0, "source-ratio-identity": 0, "reciprocal-identity": 0,
    "boundary-consistency": 0, "front-recovery": 0, "inversion-roundtrip": 0,
}
_DELTA_BOTH = {
    "heat-equation": 0, "theta-consistency": 0, "c-consistency": 0, "reciprocal-identity": 0,
    "inversion-roundtrip": 0, "front-recovery": 0, "stefan-boundary-conditions": 0,
    "boundary-consistency": 0, "burgers-equation": -1, "source-equation": 1,
}
DELTA_EXACT = {-20: {**_DELTA_BOTH, "source-ratio-identity": 0}, 20: _DELTA_BOTH}


def _norms(q, l0, tm0, delta=1.0):
    field = sr.StefanField.from_params(sr.PhysicalParams(q=q, l0=l0, tm0=tm0, delta=delta))
    return {r.identity: (r.max_abs, r.l2)
            for r in run_verification_suite(field, GridSpec(n_space=12, n_time=3))}


def test_power_of_two_scaling_is_exact():
    """Scaling q, l0 and tm0 by 2^k, k in {-20, 10, 20}, at the SCAN_PASSING pairs
    (delta = 1) scales each SCALE_EXACT identity's norms by exactly 2^(k*p)."""
    for q, tm0 in sorted(SCAN_PASSING):
        base = _norms(q, 1.0, tm0)
        for k in (-20, 10, 20):
            s = 2.0 ** k
            scaled = _norms(s * q, s, s * tm0)
            for identity, p in SCALE_EXACT.items():
                want = tuple(v * s**p for v in base[identity])
                assert scaled[identity] == want, (q, tm0, k, identity)


@pytest.mark.parametrize("k", sorted(DELTA_EXACT))
def test_power_of_two_delta_is_exact(k):
    """delta = 2^k at the baseline scales each DELTA_EXACT identity's norms by 2^(k*p)."""
    base, scaled = _norms(1.0, 1.0, 0.5), _norms(1.0, 1.0, 0.5, 2.0 ** k)
    for identity, p in DELTA_EXACT[k].items():
        assert scaled[identity] == tuple(v * 2.0 ** (k * p) for v in base[identity]), identity


def test_small_flux_passes_on_default_grid():
    """At q = 1e-3, tm0 = 0.5 every identity passes on the 50x5 grid too.

    H*t and the source ratio amplify the root's error here; a root stopped at
    a 1e-12 bracket width failed four identities (source-ratio-identity by 5e-2).
    """
    params = sr.PhysicalParams(q=1e-3, l0=1.0, tm0=0.5, delta=0.1)
    reports = run_verification_suite(sr.StefanField.from_params(params), GridSpec())
    assert len(reports) == 13
    assert [r.identity for r in reports if not r.passed] == []


@pytest.mark.parametrize("q", SCAN_Q[1:])
def test_psi_slope_is_the_chain_rule(q):
    """The boundary slope equals an analytic Psi*Psi_y at y = 0 and y = S(t).

    Psi = delta*Theta^2/D with D = T_y*Theta + T^2, Theta_y = -T and
    T_yy = A*exp(-eta^2)/sqrt(t), so D_y = T_yy*Theta + T*T_y.  Scan points
    whose field is refused are skipped.
    """
    checked = 0
    for tm0 in SCAN_TM0:
        try:
            pf = sr.PsiField(sr.StefanField.from_params(sr.PhysicalParams(q=q, l0=1.0, tm0=tm0)))
            pf.monotone_sign
        except (sr.NoSignChange, sr.NotMonotone):
            continue
        field = pf.stefan
        for t in T_SAMPLES:
            for front in (False, True):
                y = field.free_boundary(t) if front else 0.0
                temp, grad, _, _, gauss = field.profile(y, t)
                theta = pf.theta(y, t)
                d = grad * theta + temp * temp
                d_y = field.amplitude * gauss / np.sqrt(t) * theta + temp * grad
                psi = pf.delta * theta * theta / d
                psi_y = pf.delta * theta * (-2.0 * temp * d - theta * d_y) / (d * d)
                got = _psi_slope(pf, t, front)[1]
                assert abs(got - psi * psi_y) <= 1e-8 * abs(psi * psi_y), (q, tm0, t, front)
                checked += 1
    assert checked
