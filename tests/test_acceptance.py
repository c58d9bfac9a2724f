"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import time

import numpy as np

import stefan_reciprocal as sr
from stefan_reciprocal.oracle import OracleConfig, solve
from stefan_reciprocal.verify import (
    GridSpec,
    burgers_bc_values,
    burgers_residual,
    evolution_residual,
    h_ratio_value,
    heat_residual,
    psi_bc_values,
    reciprocal_identity_residual,
    roundtrip_residual,
    s_recovery_residual,
)

T_SAMPLES = (0.25, 1.0, 4.0)
FULL_GRID = GridSpec(n_space=50, n_time=5)
SLOPE_STEPS = (4e-3, 2e-3, 1e-3)


def _report(number, name, ok, detail):
    line = f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _slope(errs):
    return np.polyfit(np.log(SLOPE_STEPS), np.log(errs), 1)[0]


def test_criterion_1_root_correctness():
    start = time.perf_counter()
    worst_resid, worst_margin = 0.0, math.inf
    for q in (0.5, 1.0, 2.0):
        for tm0 in (0.0, 0.25, 0.5):
            params = sr.PhysicalParams(q=q, l0=1.0, tm0=tm0)
            root = sr.solve_gamma(params)
            in_bracket = 0.0 < root.gamma < q / params.l0
            resid = abs(
                sr.eval_G(root.gamma, params) - sr.eval_F(root.gamma, params)
            )
            margin = sr.physical_margin(params, root.gamma)
            worst_resid = max(worst_resid, resid)
            worst_margin = min(worst_margin, margin)
            assert in_bracket
    elapsed = time.perf_counter() - start
    ok = worst_resid <= 1e-10 and worst_margin > 0 and elapsed < 1.0
    _report(
        1,
        "root correctness over 9 parameter sets",
        ok,
        f"max|G-F|={worst_resid:.2e}, min margin={worst_margin:.3f}, {elapsed:.2f}s",
    )


def test_criterion_2_boundary_identities(baseline_field):
    start = time.perf_counter()
    p = baseline_field.params
    g = baseline_field.gamma.gamma
    worst = 0.0
    for t in T_SAMPLES:
        s = baseline_field.free_boundary(t)
        tm = p.tm0 * math.sqrt(t)
        worst = max(
            worst,
            abs(baseline_field.temperature(s, t) - tm) / (1.0 + abs(tm)),
            abs(baseline_field.temperature_gradient(0.0, t) + p.q) / p.q,
            abs(baseline_field.temperature_gradient(s, t) + p.l0 * g) / p.l0,
        )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-11 and elapsed < 1.0
    _report(
        2,
        "exact boundary identities",
        ok,
        f"max relative residual={worst:.2e} at t in {T_SAMPLES}, {elapsed:.2f}s",
    )


def test_criterion_3_pde_residuals(baseline_field, baseline_psi, stencil_error):
    start = time.perf_counter()
    heat = heat_residual(baseline_field, FULL_GRID)
    burg = burgers_residual(baseline_psi, FULL_GRID)
    evo = evolution_residual(baseline_psi, FULL_GRID)

    def order(u, grid):
        """Refinement order of centred differences of u towards the jet derivatives above."""
        return _slope([stencil_error(u, baseline_field, grid, h) for h in SLOPE_STEPS])

    heat_slope = order(baseline_field.temperature, FULL_GRID)
    burg_slope = order(baseline_psi.x_star, FULL_GRID)
    evo_slope = order(baseline_psi.psi_parametric, GridSpec(n_space=16))
    elapsed = time.perf_counter() - start
    ok = (
        heat.max_abs <= 1e-5
        and burg.max_abs <= 1e-4
        and evo.max_abs <= 1e-3
        and heat_slope >= 1.9
        and burg_slope >= 1.9
        and evo_slope >= 1.5
        and elapsed < 10.0
    )
    _report(
        3,
        "interior PDE residuals with refinement orders",
        ok,
        f"heat={heat.max_abs:.2e} (slope {heat_slope:.2f}), "
        f"burgers={burg.max_abs:.2e} (slope {burg_slope:.2f}), "
        f"evolution={evo.max_abs:.2e} (slope {evo_slope:.2f}), {elapsed:.1f}s",
    )


def test_criterion_4_transformation_round_trips(baseline_psi):
    start = time.perf_counter()
    recip = reciprocal_identity_residual(baseline_psi, FULL_GRID)
    rt = roundtrip_residual(baseline_psi)
    rec = s_recovery_residual(baseline_psi)
    elapsed = time.perf_counter() - start
    ok = (
        recip.max_abs <= 1e-6
        and rt.max_abs <= 1e-9
        and rec.max_abs <= 1e-7
        and elapsed < 5.0
    )
    _report(
        4,
        "transformation round trips",
        ok,
        f"Psi*dx*/dy-1={recip.max_abs:.2e}, inversion={rt.max_abs:.2e}, "
        f"front recovery={rec.max_abs:.2e}, {elapsed:.1f}s",
    )


def test_criterion_5_boundary_coefficients(baseline_field, baseline_psi):
    p = baseline_field.params
    g = baseline_field.gamma.gamma
    coeffs = sr.compute_boundary_coefficients(p, g)
    assert coeffs.c1 == p.tm0 / (g * (p.l0 - p.tm0))  # closed form, exact
    worst = 0.0
    for t in T_SAMPLES:
        scale = p.delta * math.sqrt(t)
        s = baseline_field.free_boundary(t)
        worst = max(
            worst,
            abs(baseline_psi.x_star(0.0, t) * scale - coeffs.c0) / abs(coeffs.c0),
            abs(baseline_psi.x_star(s, t) * scale - coeffs.c1) / abs(coeffs.c1),
        )
    ok = worst <= 1e-10
    _report(
        5,
        "boundary-coefficient consistency",
        ok,
        f"max relative deviation={worst:.2e}, C0={coeffs.c0:.12f}, C1={coeffs.c1:.12f}",
    )


def test_criterion_6_transformed_boundary_conditions(baseline_psi):
    start = time.perf_counter()
    worst_bc = 0.0
    worst_ratio = 0.0
    for t in T_SAMPLES:
        bvals = burgers_bc_values(baseline_psi, t)
        pvals = psi_bc_values(baseline_psi, t)
        worst_bc = max(
            worst_bc,
            bvals["b7"],
            bvals["b8"],
            bvals["b9"],
            pvals["c4i"],
            pvals["c4iii"],
            pvals["esepunto"],
            pvals["c5"],
        )
        worst_ratio = max(worst_ratio, h_ratio_value(baseline_psi, t))
    elapsed = time.perf_counter() - start
    ok = worst_bc <= 1e-5 and worst_ratio <= 1e-6 and elapsed < 10.0
    _report(
        6,
        "transformed boundary conditions",
        ok,
        f"max residual={worst_bc:.2e}, ratio-form={worst_ratio:.2e}, {elapsed:.1f}s",
    )


def test_criterion_7_independent_oracle(baseline_field):
    start = time.perf_counter()
    g = baseline_field.gamma.gamma
    closed = solve(OracleConfig(n_xi=256, t0=0.1, t_end=1.0, dt=2e-4), baseline_field)
    gamma_err = abs(closed.gamma_estimate - g)
    errs = [
        abs(
            solve(
                OracleConfig(n_xi=n, t0=0.1, t_end=0.5, dt=1e-5), baseline_field
            ).gamma_estimate
            - g
        )
        for n in (32, 64, 128)
    ]
    order = -np.polyfit(np.log([32, 64, 128]), np.log(errs), 1)[0]
    linear = solve(
        OracleConfig(
            n_xi=128, t0=0.02, t_end=4.0, dt=3e-5, seed_mode="linear_profile", s0=0.05
        ),
        baseline_field,
    )
    linear_dev = abs(linear.gamma_estimate - g) / g
    elapsed = time.perf_counter() - start
    ok = gamma_err <= 1e-3 and order >= 1.8 and linear_dev <= 1e-2 and elapsed < 30.0
    _report(
        7,
        "independent front-fixing oracle",
        ok,
        f"gamma error={gamma_err:.2e}, spatial order={order:.2f}, "
        f"independent-start deviation={linear_dev:.2e}, {elapsed:.1f}s",
    )


def test_criterion_8_theta_cross_check(baseline_psi):
    t = FULL_GRID.times()[:, None]
    y = FULL_GRID.fractions() * baseline_psi.stefan.free_boundary(t)
    oracle = sr.theta_quadrature(y, t, baseline_psi.stefan)
    worst_theta = np.max(np.abs(baseline_psi.theta(y, t) - oracle))
    worst_c = max(
        abs(sr.c_of_t_general(baseline_psi.stefan, t) - baseline_psi.c(t))
        for t in T_SAMPLES
    )
    ok = worst_theta <= 1e-9 and worst_c <= 1e-10
    _report(
        8,
        "theta and C quadrature cross-checks",
        ok,
        f"theta closed-vs-quadrature={worst_theta:.2e}, C={worst_c:.2e}",
    )
