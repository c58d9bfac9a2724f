import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
        assert report.passed and report.details["T_max"] <= 5e-4
        assert report.details["T_max"] <= 1e-4  # measured 2.3e-5
        assert report.details["front_max"] <= 1e-4

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


def _faulty_gtsv(monkeypatch, faults, fail_on=None):
    """Make the march's gtsv add ``value`` to ``b[cell]`` after its call
    number ``c`` (counted from 1) for each ``c: (cell, value)`` in ``faults``,
    and report failure (info 1) on call ``fail_on``."""
    gtsv = oracle._dgtsv()
    calls = itertools.count(1)

    def faulty_gtsv(dl, d, du, b, *overwrite):
        call = next(calls)
        if call == fail_on:
            return dl, d, du, b, 1
        out = gtsv(dl, d, du, b, *overwrite)
        if call in faults:
            cell, value = faults[call]
            b[cell] += value
        return out

    monkeypatch.setattr(oracle, "_dgtsv", lambda: faulty_gtsv)


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
        def broken_gtsv(dl, d, du, b, *overwrite):
            if fault == "info":
                return dl, d, du, b, 1
            b[:] = math.nan
            return dl, d, du, b, 0

        monkeypatch.setattr(oracle, "_dgtsv", lambda: broken_gtsv)
        with pytest.raises(sr.StefanError, match=message):
            solve(OracleConfig(n_xi=32, t0=0.1, t_end=0.3, dt=1e-3), baseline_field)

    @pytest.mark.parametrize(
        "faults, fail_on, t",
        [
            ({37: (5, math.inf)}, None, "0.137"),  # inside a block
            ({64: (3, math.nan)}, None, "0.164"),  # the last step of a block
            ({65: (0, -math.inf)}, None, "0.165"),  # the flux face, first of a block
            ({100: (30, math.inf)}, None, "0.2"),  # the next step's CFL is inf
            ({37: (5, math.nan)}, 38, "0.137"),  # gtsv fails on the next step
        ],
    )
    def test_first_non_finite_step_named(
        self, baseline_field, monkeypatch, faults, fail_on, t
    ):
        """A non-finite value is reported at the step that made it, ahead of
        the stability or gtsv error that a later step of its block meets."""
        _faulty_gtsv(monkeypatch, faults, fail_on)
        with pytest.raises(sr.StefanError) as exc:
            solve(OracleConfig(n_xi=32, t0=0.1, t_end=0.3, dt=1e-3), baseline_field)
        assert type(exc.value) is sr.StefanError
        assert str(exc.value) == f"non-finite temperature at t={t}"

    def test_violations_counted_across_blocks(self, baseline_field, monkeypatch):
        """A +-1 jump in one interior cell breaks the discrete maximum principle
        on its own step only.  The jumps sit on the first and last steps and
        on both sides of the edges of the march's 64-step blocks."""
        assert oracle.BLOCK == 64
        jumps = {1: 1.0, 63: -1.0, 64: 1.0, 65: -1.0, 128: 1.0, 200: -1.0}
        _faulty_gtsv(
            monkeypatch, {c: (3 if v > 0 else 10, v) for c, v in jumps.items()}
        )
        config = OracleConfig(n_xi=32, t0=0.1, t_end=0.3, dt=1e-3)
        with pytest.warns(RuntimeWarning, match="^discrete maximum principle violated on 6 steps$"):
            result = solve(config, baseline_field)
        assert result.steps == 200
        assert result.max_principle_violations == 6

    def test_solves_in_place(self, baseline_field, monkeypatch):
        """Every step hands gtsv the same right-hand side array: the head of
        the one temperature array, which gtsv overwrites with the solution."""
        gtsv = oracle._dgtsv()
        addresses = []

        def recording_gtsv(dl, d, du, b, *overwrite):
            addresses.append(b.__array_interface__["data"][0])
            return gtsv(dl, d, du, b, *overwrite)

        monkeypatch.setattr(oracle, "_dgtsv", lambda: recording_gtsv)
        result = solve(OracleConfig(n_xi=32, t0=0.1, t_end=0.3, dt=1e-3), baseline_field)
        assert len(addresses) == result.steps == 200
        assert set(addresses) == {addresses[0]}


#: (OracleConfig keywords, gamma_estimate.hex(), max_cfl.hex(), digest of
#: snapshots and fronts) at the baseline.
PINS = [
    (
        {"n_xi": 32, "t0": 0.1, "t_end": 0.3, "dt": 1e-3},
        "0x1.e604cf790cb6ep-2", "0x1.47a28abd872afp-3", "58822b117468c0b5",
    ),
    (
        {"n_xi": 96, "t0": 0.02, "t_end": 0.2, "dt": 4e-5,
         "seed_mode": "linear_profile", "s0": 0.05},
        "0x1.bc272a699b9c3p-2", "0x1.160bb2fff6940p-1", "a1c519ae4e84169c",
    ),
    (
        {"n_xi": 1024, "t0": 0.1, "t_end": 0.12, "dt": 5e-5},
        "0x1.e60158b8ee058p-2", "0x1.0624dad8a6393p-2", "bc5b111ed039b22a",
    ),
    # n_xi 64 and 128 from t0 = 0.4, the oracle-march workload's shapes, at a
    # coarser dt.  At its dt = 1e-5 the advection term is ~1e-5 of u and a
    # last-bit change in it rarely survives the implicit solve, so those runs
    # do not catch a reordered advection term; these do.
    (
        {"n_xi": 64, "t0": 0.4, "t_end": 2.0, "dt": 3e-3},
        "0x1.e602ebca6a565p-2", "0x1.eae3adda2f85bp-3", "7c1e3f4c0b5d9bcf",
    ),
    (
        {"n_xi": 128, "t0": 0.4, "t_end": 2.0, "dt": 1e-3},
        "0x1.e6018e7083ee4p-2", "0x1.47ad59fed7950p-3", "be806cb4ec17847c",
    ),
    # Marches of 5, 64 and 65 steps: shorter than one of the march's 64-step
    # check blocks, exactly one, and one step more.
    (
        {"n_xi": 33, "t0": 0.1, "t_end": 0.105, "dt": 1e-3},
        "0x1.e60630df8d7dfp-2", "0x1.51e053afdf6dbp-3", "4d3273292be53e84",
    ),
    (
        {"n_xi": 32, "t0": 0.02, "t_end": 0.02256, "dt": 4e-5,
         "seed_mode": "linear_profile", "s0": 0.05},
        "0x1.b0c80290ec263p-3", "0x1.72ba43fff36e2p-3", "36752d718a5cc192",
    ),
    (
        {"n_xi": 100, "t0": 0.1, "t_end": 0.165, "dt": 1e-3},
        "0x1.e611173ae378fp-2", "0x1.fffe2309f5294p-2", "798f97e467e4ad8a",
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
        """Where no _flapack file is found, the march takes dgtsv from the
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


class TestGtsv:
    """The dgtsv the march loads against the public scipy.linalg.lapack one."""

    @staticmethod
    def _march_system(n, r, rng):
        lower = np.full(n - 1, -r)
        upper = np.full(n - 1, -r)
        upper[0] = -2.0 * r
        return lower, np.full(n, 1.0 + 2.0 * r), upper, rng.uniform(-1.0, 1.0, n)

    @pytest.mark.parametrize("n", [31, 127, 1023])
    def test_same_bits_as_public(self, n):
        """Systems of the march's shape, solved in place with positional
        overwrite flags as the march calls it, against the public function
        with its defaults (no overwrite)."""
        from scipy.linalg.lapack import dgtsv

        rng = np.random.default_rng(n)
        for r in rng.uniform(0.1, 1e3, 20):
            system = self._march_system(n, r, rng)
            *_, expect, info = dgtsv(*system)
            dl, d, du, b = (a.copy() for a in system)
            got = oracle._dgtsv()(dl, d, du, b, 1, 1, 1, 1)
            assert info == got[4] == 0
            assert got[3] is b and b.tobytes() == expect.tobytes()

    def test_singular_system_same_info(self):
        from scipy.linalg.lapack import dgtsv

        dl, d, du, b = np.ones(4), np.ones(5), np.ones(4), np.ones(5)
        dl[1] = d[2] = du[2] = 0.0  # the third row is zero
        info = dgtsv(dl, d, du, b)[4]
        assert info > 0
        assert oracle._dgtsv()(dl.copy(), d.copy(), du.copy(), b.copy(), 1, 1, 1, 1)[4] == info

    def test_loaded_alone_and_shared(self):
        """In a fresh interpreter the march loads only scipy.linalg._flapack,
        and a later public import reuses that module."""
        script = (
            "import json, sys\n"
            "from stefan_reciprocal import oracle\n"
            "gtsv = oracle._dgtsv()\n"
            "mods = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "import scipy.linalg.lapack as lapack\n"
            "print(json.dumps([mods, lapack.dgtsv is gtsv]))\n"
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
