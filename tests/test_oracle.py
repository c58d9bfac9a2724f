import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stefan_reciprocal as sr
from stefan_reciprocal import oracle
from stefan_reciprocal.oracle import OracleConfig, compare_to_closed_form, solve


@pytest.fixture(scope="module")
def closed_seed_run(baseline_field):
    config = OracleConfig(n_xi=256, t0=0.1, t_end=1.0, dt=2e-4)
    return config, solve(config, baseline_field)


class TestClosedFormSeed:
    def test_gamma_recovery(self, closed_seed_run, baseline_field):
        _, result = closed_seed_run
        err = abs(result.gamma_estimate - baseline_field.gamma.gamma)
        assert err <= 1e-3
        assert err <= 5e-6  # measured 1.2e-6; regression headroom

    def test_temperature_error(self, closed_seed_run, baseline_field):
        _, result = closed_seed_run
        report = compare_to_closed_form(result, baseline_field)
        assert report.passed and report.T_max <= 5e-4
        assert report.T_max <= 1e-4  # measured 2.3e-5
        assert report.front_max <= 1e-4

    def test_seeded_snapshot_is_exact(self, closed_seed_run, baseline_field):
        _, result = closed_seed_run
        exact = baseline_field.temperature(result.xi * result.fronts[0], result.times[0])
        assert np.array_equal(result.snapshots[0], exact)

    def test_front_strictly_increasing(self, closed_seed_run):
        _, result = closed_seed_run
        assert np.all(np.diff(result.fronts) > 0)

    def test_gamma_estimate_positive_and_cfl(self, closed_seed_run):
        _, result = closed_seed_run
        assert result.gamma_estimate > 0
        assert result.max_cfl < 1.0
        assert result.max_principle_violations == 0

    def test_snapshot_count_and_times(self, closed_seed_run):
        config, result = closed_seed_run
        assert len(result.times) == len(result.snapshots) == oracle.N_SNAPSHOTS
        assert result.times[0] == config.t0
        assert result.times[-1] == pytest.approx(config.t_end, rel=1e-12)


class TestRefinement:
    def test_coupled_refinement_quarters_error(self, baseline_field):
        g = baseline_field.gamma.gamma
        e_coarse = abs(
            solve(
                OracleConfig(n_xi=64, t0=0.1, t_end=0.5, dt=4e-5), baseline_field
            ).gamma_estimate
            - g
        )
        e_fine = abs(
            solve(
                OracleConfig(n_xi=128, t0=0.1, t_end=0.5, dt=1e-5), baseline_field
            ).gamma_estimate
            - g
        )
        assert 2.5 <= e_coarse / e_fine <= 7.0

    def test_spatial_order(self, baseline_field):
        g = baseline_field.gamma.gamma
        errs = [
            abs(
                solve(
                    OracleConfig(n_xi=n, t0=0.1, t_end=0.5, dt=1e-5), baseline_field
                ).gamma_estimate
                - g
            )
            for n in (32, 64, 128)
        ]
        order = np.polyfit(np.log([32, 64, 128]), np.log(errs), 1)[0]
        assert -order >= 1.8


class TestLinearProfileSeed:
    def test_attracted_to_similarity(self, baseline_field):
        g = baseline_field.gamma.gamma
        config = OracleConfig(
            n_xi=96, t0=0.02, t_end=1.0, dt=4e-5, seed_mode="linear_profile", s0=0.05
        )
        result = solve(config, baseline_field)
        dev_start = abs(0.05 / (2 * math.sqrt(0.02)) - g) / g
        dev_end = abs(result.gamma_estimate - g) / g
        assert dev_end < 0.2 * dev_start  # transient decays


def _faulty_ptsv(monkeypatch, faults, fail_on=None):
    """Make the march's ptsv add ``value`` to ``b[cell]`` after its call
    number ``c`` (counted from 1) for each ``c: (cell, value)`` in ``faults``,
    and report failure (info 1) on call ``fail_on``."""
    ptsv = oracle._dptsv()
    calls = itertools.count(1)

    def faulty_ptsv(d, e, b, *overwrite):
        call = next(calls)
        if call == fail_on:
            return d, e, b, 1
        out = ptsv(d, e, b, *overwrite)
        if call in faults:
            cell, value = faults[call]
            b[cell] += value
        return out

    monkeypatch.setattr(oracle, "_dptsv", lambda: faulty_ptsv)


class TestGuards:
    def test_stability_violation(self, baseline_field):
        with pytest.raises(sr.StabilityViolation):
            solve(
                OracleConfig(
                    n_xi=128, t0=0.02, t_end=1.0, dt=5e-4,
                    seed_mode="linear_profile", s0=0.05,
                ),
                baseline_field,
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_xi": 8},
            {"t0": 0.0},
            {"t0": 1.0, "t_end": 0.5},
            {"dt": 0.0},
            {"seed_mode": "bogus"},
            {"seed_mode": "linear_profile", "s0": 0.0},
            {"t_end": math.inf},
            {"seed_mode": "linear_profile", "s0": math.inf},
            {"t0": math.nan},
            {"dt": math.inf},
            {"s0": math.nan},
            {"n_xi": 64.0},
            {"n_xi": True},
            {"n_xi": np.int64(64)},
            {"t0": "0.1"},
            {"dt": True},
            {"t_end": None},
            {"s0": 1j},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(sr.InvalidParameters, match="|".join(kwargs)):
            OracleConfig(**kwargs)

    @pytest.mark.parametrize(
        "fault, message",
        [("info", "tridiagonal solve failed"), ("nan", "non-finite temperature")],
    )
    def test_tridiagonal_failures_raise(
        self, baseline_field, monkeypatch, fault, message
    ):
        def broken_ptsv(d, e, b, *overwrite):
            if fault == "info":
                return d, e, b, 1
            b[:] = math.nan
            return d, e, b, 0

        monkeypatch.setattr(oracle, "_dptsv", lambda: broken_ptsv)
        with pytest.raises(sr.StefanError, match=message):
            solve(OracleConfig(n_xi=32, t0=0.1, t_end=0.3, dt=1e-3), baseline_field)

    @pytest.mark.parametrize(
        "faults, fail_on, t",
        [
            ({37: (5, math.inf)}, None, "0.137"),  # inside a block
            ({64: (3, math.nan)}, None, "0.164"),  # the last step of a block
            ({65: (0, -math.inf)}, None, "0.165"),  # the flux face, first of a block
            ({100: (30, math.inf)}, None, "0.2"),  # the next step's CFL is inf
            ({37: (5, math.nan)}, 38, "0.137"),  # ptsv fails on the next step
            # the same step also lowers the cell next to the melt face, so the next
            # step's front stalls (NonmonotoneFront)
            ({37: ([5, 31], [math.inf, -0.005])}, None, "0.137"),
        ],
    )
    def test_first_non_finite_step_named(
        self, baseline_field, monkeypatch, faults, fail_on, t
    ):
        """A non-finite value is reported at the step that made it, ahead of
        the stability or ptsv error that a later step of its block meets."""
        _faulty_ptsv(monkeypatch, faults, fail_on)
        with pytest.raises(sr.StefanError) as exc:
            solve(OracleConfig(n_xi=32, t0=0.1, t_end=0.3, dt=1e-3), baseline_field)
        assert type(exc.value) is sr.StefanError
        assert str(exc.value) == f"non-finite temperature at t={t}"

    def test_front_stall_raises(self, baseline_field, monkeypatch):
        """Lowering the cell next to the melt face after step 37 makes the melt-face
        gradient non-negative, so the next step's front does not advance, while its
        CFL number stays below 1."""
        _faulty_ptsv(monkeypatch, {37: (31, -0.005)})
        with pytest.raises(sr.NonmonotoneFront, match=r"^front stalled at t=0\.137$"):
            solve(OracleConfig(n_xi=32, t0=0.1, t_end=0.3, dt=1e-3), baseline_field)

    def test_violations_counted_across_blocks(self, baseline_field, monkeypatch):
        """A +-1 jump in one interior cell breaks the discrete maximum principle
        on its own step only.  The jumps sit on the first and last steps and
        on both sides of the edges of the march's 64-step blocks."""
        assert oracle.BLOCK == 64
        jumps = {1: 1.0, 63: -1.0, 64: 1.0, 65: -1.0, 128: 1.0, 200: -1.0}
        _faulty_ptsv(
            monkeypatch, {c: (3 if v > 0 else 10, v) for c, v in jumps.items()}
        )
        config = OracleConfig(n_xi=32, t0=0.1, t_end=0.3, dt=1e-3)
        with pytest.warns(RuntimeWarning, match="^discrete maximum principle violated on 6 steps$"):
            result = solve(config, baseline_field)
        assert result.steps == 200
        assert result.max_principle_violations == 6

    def test_solves_in_place(self, baseline_field, monkeypatch):
        """Every step hands ptsv the same right-hand side array: the head of
        the one temperature array, which ptsv overwrites with the solution."""
        ptsv = oracle._dptsv()
        addresses = []

        def recording_ptsv(d, e, b, *overwrite):
            addresses.append(b.__array_interface__["data"][0])
            return ptsv(d, e, b, *overwrite)

        monkeypatch.setattr(oracle, "_dptsv", lambda: recording_ptsv)
        result = solve(OracleConfig(n_xi=32, t0=0.1, t_end=0.3, dt=1e-3), baseline_field)
        assert len(addresses) == result.steps == 200
        assert set(addresses) == {addresses[0]}


#: (OracleConfig keywords, gamma_estimate.hex(), max_cfl.hex(), digest of
#: snapshots and fronts) at the baseline.
PINS = [
    (
        {"n_xi": 32, "t0": 0.1, "t_end": 0.3, "dt": 1e-3},
        "0x1.e604cf790cb68p-2", "0x1.47a28abd872afp-3", "2d36c01d24456e20",
    ),
    (
        {"n_xi": 96, "t0": 0.02, "t_end": 0.2, "dt": 4e-5,
         "seed_mode": "linear_profile", "s0": 0.05},
        "0x1.bc272a699b9b0p-2", "0x1.160bb2fff6940p-1", "98e47b1af69cd66a",
    ),
    (
        {"n_xi": 1024, "t0": 0.1, "t_end": 0.12, "dt": 5e-5},
        "0x1.e60158b8ee266p-2", "0x1.0624dad8a6393p-2", "5fc24a6326835aeb",
    ),
    # n_xi 64 and 128 from t0 = 0.4, the oracle-march workload's shapes, at a
    # coarser dt.  At its dt = 1e-5 the advection term is ~1e-5 of u and a
    # last-bit change in it rarely survives the implicit solve, so those runs
    # do not catch a reordered advection term; these do.
    (
        {"n_xi": 64, "t0": 0.4, "t_end": 2.0, "dt": 3e-3},
        "0x1.e602ebca6a569p-2", "0x1.eae3adda2f85bp-3", "f72ae62eac33a647",
    ),
    (
        {"n_xi": 128, "t0": 0.4, "t_end": 2.0, "dt": 1e-3},
        "0x1.e6018e7083f0cp-2", "0x1.47ad59fed7950p-3", "41528f05e8866526",
    ),
    # Marches of 5, 64 and 65 steps: shorter than one of the march's 64-step
    # check blocks, exactly one, and one step more.
    (
        {"n_xi": 33, "t0": 0.1, "t_end": 0.105, "dt": 1e-3},
        "0x1.e60630df8d7dfp-2", "0x1.51e053afdf6dbp-3", "493b9488b460d1b5",
    ),
    (
        {"n_xi": 32, "t0": 0.02, "t_end": 0.02256, "dt": 4e-5,
         "seed_mode": "linear_profile", "s0": 0.05},
        "0x1.b0c80290ec25cp-3", "0x1.72ba43fff36e2p-3", "3686a89a5c608da1",
    ),
    (
        {"n_xi": 100, "t0": 0.1, "t_end": 0.165, "dt": 1e-3},
        "0x1.e611173ae378fp-2", "0x1.fffe2309f5294p-2", "04890e6f634b59f7",
    ),
]


def _run_fresh(script):
    """Run ``script`` in a fresh interpreter that imports this package; its
    last stdout line is JSON."""
    src = str(Path(sr.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    res = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    return json.loads(res.stdout.splitlines()[-1])


class TestBitIdentity:
    """Pinned results of the march, to the last bit."""

    @pytest.mark.parametrize("kwargs, gamma_hex, cfl_hex, digest", PINS)
    def test_pinned(self, baseline_field, kwargs, gamma_hex, cfl_hex, digest):
        result = solve(OracleConfig(**kwargs), baseline_field)
        assert result.gamma_estimate.hex() == gamma_hex
        assert result.max_cfl.hex() == cfl_hex
        assert result.max_principle_violations == 0
        data = result.snapshots.tobytes() + result.fronts.tobytes()
        assert hashlib.sha256(data).hexdigest()[:16] == digest

    def test_public_import_fallback(self):
        """Where no _flapack file is found, the march takes dptsv from the
        public scipy.linalg.lapack and still gives the pinned bits."""
        kwargs = [kw for kw, *_ in PINS]
        script = (
            "import hashlib, importlib.machinery, json, sys\n"
            "import stefan_reciprocal as sr\n"
            "from stefan_reciprocal import oracle\n"
            "importlib.machinery.EXTENSION_SUFFIXES = []\n"
            "field = sr.StefanField.from_params(sr.PhysicalParams(1.0, 1.0, 0.5))\n"
            f"runs = [oracle.solve(oracle.OracleConfig(**kw), field) for kw in {kwargs!r}]\n"
            "data = [r.snapshots.tobytes() + r.fronts.tobytes() for r in runs]\n"
            "print(json.dumps(['scipy.linalg.lapack' in sys.modules, [\n"
            "    [r.gamma_estimate.hex(), r.max_cfl.hex(), r.max_principle_violations,\n"
            "     hashlib.sha256(b).hexdigest()[:16]] for r, b in zip(runs, data)]]))\n"
        )
        public, pins = _run_fresh(script)
        assert public
        assert pins == [[gamma, cfl, 0, digest] for _, gamma, cfl, digest in PINS]


def _reference_march(config, field):
    """The march with the step it had before ``oracle.solve`` took ptsv: the
    advection term in seven array operations, in the association order
    dt*(xi*s_dot/S)*(u[2:] - u[:-2])/(2*dxi), and LAPACK dgtsv on the
    unhalved system, whose flux-face row is 1 + 2r, -2r | u0 + 2r*dxi*q*S.
    Its results are bit for bit those of that earlier march.

    Returns (snapshots, fronts, gamma_estimate, steps, max_cfl,
    max_principle_violations), the last counted by ``oracle._check_steps``
    over every step at once.
    """
    from scipy.linalg.lapack import dgtsv

    n, t = config.n_xi, config.t0
    dxi = 1.0 / n
    xi = np.linspace(0.0, 1.0, n + 1)
    q, l0, tm0 = field.params.q, field.params.l0, field.params.tm0
    if config.seed_mode == "closed_form":
        front = field.free_boundary(t)
        u = field.temperature(xi * front, t)
    else:
        front = config.s0
        u = tm0 * math.sqrt(t) + q * config.s0 * (1.0 - xi)
    steps = max(1, int(math.ceil((config.t_end - t) / config.dt - 1e-12)))
    dt = (config.t_end - t) / steps
    rows, fronts, times, max_cfl = [u.copy()], [front], [], 0.0
    for _ in range(steps):
        s_dot = -(3.0 * u[n] - 4.0 * u[n - 1] + u[n - 2]) / (2.0 * dxi) / (
            front * l0 * math.sqrt(t)
        )
        cfl = abs(s_dot) / front * dt / dxi
        max_cfl = max(max_cfl, cfl)
        if not cfl <= 1.0:
            raise sr.StabilityViolation(f"advective CFL {cfl:.3f} > 1 at t={t:.6g}; reduce dt")
        front_new = front + dt * s_dot
        u[1:n] += dt * (xi[1:n] * s_dot / front) * (u[2:] - u[:-2]) / (2.0 * dxi)
        t += dt
        r = dt / (front_new * front_new * dxi * dxi)
        off = np.full(n - 1, -r)
        upper = off.copy()
        upper[0] = -2.0 * r
        b = u[:n].copy()
        b[0] += 2.0 * r * dxi * q * front_new
        b[n - 1] += r * tm0 * math.sqrt(t)
        *_, u[:n], info = dgtsv(off, np.full(n, 1.0 + 2.0 * r), upper, b)
        assert info == 0
        u[n] = tm0 * math.sqrt(t)
        front = front_new
        rows.append(u.copy())
        fronts.append(front)
        times.append(t)
    rows = np.array(rows)
    violations, _ = oracle._check_steps(rows[1:], np.array(times), (rows[0].min(), rows[0].max()))
    snap = sorted(set(np.round(np.linspace(0, steps, oracle.N_SNAPSHOTS)).astype(int).tolist()))
    gamma = front / (2.0 * math.sqrt(t))
    return rows[snap], np.array(fronts)[snap], gamma, steps, max_cfl, violations


class TestReferenceStep:
    """The march against ``_reference_march``, on every PINS shape in both
    seed modes: the rewritten step moves results by rounding only.  The
    closed-form shapes take the linear_profile seed with s0 = S(t0)."""

    @pytest.mark.parametrize("seed_mode", oracle.SEED_MODES)
    @pytest.mark.parametrize("kwargs", [kw for kw, *_ in PINS])
    def test_matches_reference(self, baseline_field, kwargs, seed_mode):
        s0 = kwargs.get("s0", baseline_field.free_boundary(kwargs["t0"]))
        config = OracleConfig(**{**kwargs, "seed_mode": seed_mode, "s0": s0})
        try:
            snaps, fronts, gamma, steps, cfl, violations = _reference_march(config, baseline_field)
        except sr.StabilityViolation as exc:
            with pytest.raises(sr.StabilityViolation, match=f"^{re.escape(str(exc))}$"):
                solve(config, baseline_field)
            return
        result = solve(config, baseline_field)
        np.testing.assert_allclose(result.snapshots, snaps, rtol=1e-12, atol=0)
        np.testing.assert_allclose(result.fronts, fronts, rtol=1e-12, atol=0)
        assert result.gamma_estimate == pytest.approx(gamma, rel=1e-12, abs=0)
        assert result.max_cfl == pytest.approx(cfl, rel=1e-12, abs=0)
        assert (result.steps, result.max_principle_violations) == (steps, violations)


def _march_systems(n, r, u, q_front, dxi):
    """The march's ptsv system (d, e, b) and the unhalved gtsv system
    (dl, d, du, b) it replaced, for mesh ratio r, right-hand side u before
    its face terms, and q*S."""
    d = np.full(n, 1.0 + 2.0 * r)
    d[0] = 0.5 + r
    b = u.copy()
    b[0] = 0.5 * u[0] + r * dxi * q_front
    old_du = np.full(n - 1, -r)
    old_du[0] = -2.0 * r
    old_b = u.copy()
    old_b[0] = u[0] + 2.0 * r * dxi * q_front
    return (d, np.full(n - 1, -r), b), (np.full(n - 1, -r), np.full(n, 1.0 + 2.0 * r), old_du, old_b)


def _loaded_dgtsv():
    """LAPACK dgtsv from the ``scipy.linalg._flapack`` module the march loads."""
    oracle._dptsv()
    return sys.modules["scipy.linalg._flapack"].dgtsv


class TestGtsv:
    """The dgtsv that ``_reference_march`` takes from the public
    scipy.linalg.lapack, called with its defaults, against the loaded one
    called in place as the earlier march called it: the same bits, so the
    reference reproduces that march."""

    @pytest.mark.parametrize("n", [31, 127, 1023])
    def test_same_bits_as_public(self, n):
        """The unhalved systems, solved in place with positional overwrite
        flags, against the public function with its defaults (no
        overwrite)."""
        from scipy.linalg.lapack import dgtsv

        rng = np.random.default_rng(n)
        for r in rng.uniform(0.1, 1e3, 20):
            _, system = _march_systems(n, r, rng.uniform(-1.0, 1.0, n), 0.3, 1.0 / n)
            *_, expect, info = dgtsv(*system)
            dl, d, du, b = (a.copy() for a in system)
            got = _loaded_dgtsv()(dl, d, du, b, 1, 1, 1, 1)
            assert info == got[4] == 0
            assert got[3] is b and b.tobytes() == expect.tobytes()

    def test_singular_system_same_info(self):
        from scipy.linalg.lapack import dgtsv

        dl, d, du, b = np.ones(4), np.ones(5), np.ones(4), np.ones(5)
        dl[1] = d[2] = du[2] = 0.0  # the third row is zero
        info = dgtsv(dl, d, du, b)[4]
        assert info > 0
        assert _loaded_dgtsv()(dl.copy(), d.copy(), du.copy(), b.copy(), 1, 1, 1, 1)[4] == info


class TestPtsv:
    """The dptsv the march loads against the public scipy.linalg.lapack one."""

    @pytest.mark.parametrize("n", [31, 127, 1023])
    def test_same_bits_as_public(self, n):
        """The march's halved systems, solved in place with positional
        overwrite flags as the march calls it, against the public function
        with its defaults (no overwrite)."""
        from scipy.linalg.lapack import dptsv

        rng = np.random.default_rng(n)
        for r in rng.uniform(0.1, 1e3, 20):
            system, _ = _march_systems(n, r, rng.uniform(-1.0, 1.0, n), 0.3, 1.0 / n)
            *_, expect, info = dptsv(*system)
            d, e, b = (a.copy() for a in system)
            got = oracle._dptsv()(d, e, b, 1, 1, 1)
            assert info == got[3] == 0
            assert got[2] is b and b.tobytes() == expect.tobytes()

    def test_not_positive_definite_same_info(self):
        from scipy.linalg.lapack import dptsv

        d, e, b = np.ones(5), np.full(4, 2.0), np.ones(5)  # leading 2x2 minor is -3
        info = dptsv(d, e, b)[3]
        assert info > 0
        assert oracle._dptsv()(d.copy(), e.copy(), b.copy(), 1, 1, 1)[3] == info

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        r=st.floats(1e-8, 1e8),
        u0=st.floats(-10.0, 10.0),
        q_front=st.floats(1e-4, 1e4),
        n=st.integers(32, 1024),
    )
    def test_halved_row_is_exact_and_spd(self, r, u0, q_front, n):
        """Row 0 of the march's system, its right-hand side included, is
        exactly half of the unhalved row 0; the other rows are equal, the
        system is symmetric, and its LDL^T factorisation succeeds."""
        from scipy.linalg.lapack import dpttrf

        u = np.full(n, 0.5)
        u[0] = u0
        (d, e, b), (old_dl, old_d, old_du, old_b) = _march_systems(n, r, u, q_front, 1.0 / n)
        assert (d[0], e[0], b[0]) == (old_d[0] / 2, old_du[0] / 2, old_b[0] / 2)
        assert np.array_equal(d[1:], old_d[1:]) and np.array_equal(b[1:], old_b[1:])
        assert np.array_equal(e[1:], old_du[1:]) and np.array_equal(e, old_dl)
        assert dpttrf(d, e)[2] == 0

    def test_loaded_alone_and_shared(self):
        """In a fresh interpreter the march loads only scipy.linalg._flapack,
        and a later public import reuses that module."""
        script = (
            "import json, sys\n"
            "from stefan_reciprocal import oracle\n"
            "ptsv = oracle._dptsv()\n"
            "mods = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "import scipy.linalg.lapack as lapack\n"
            "print(json.dumps([mods, lapack.dptsv is ptsv]))\n"
        )
        assert _run_fresh(script) == [["scipy.linalg._flapack"], True]


class TestExport:
    def test_csv_roundtrip(self, baseline_field, tmp_path):
        config = OracleConfig(n_xi=32, t0=0.1, t_end=0.3, dt=1e-3)
        result = solve(config, baseline_field)
        path = tmp_path / "snap.csv"
        result.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,xi,y,T_num,S_num"
        assert len(lines) == 1 + oracle.N_SNAPSHOTS * (32 + 1)
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == config.t0 and first[1] == 0.0
        # byte-identical on re-export
        path2 = tmp_path / "snap2.csv"
        result.to_csv(path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_rerun_deterministic(self, baseline_field):
        config = OracleConfig(n_xi=32, t0=0.1, t_end=0.3, dt=1e-3)
        a = solve(config, baseline_field)
        b = solve(config, baseline_field)
        assert a.gamma_estimate == b.gamma_estimate
        assert np.array_equal(a.snapshots, b.snapshots)
