import hashlib
import math

import numpy as np
import pytest

import stefan_reciprocal as sr
from stefan_reciprocal.oracle import OracleConfig, compare_to_closed_form, solve


@pytest.fixture(scope="module")
def closed_seed_run(baseline_params):
    config = OracleConfig(n_xi=256, t0=0.1, t_end=1.0, dt=2e-4)
    return config, solve(config, baseline_params)


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
        assert len(result.times) == config.n_snapshots
        assert result.times[0] == config.t0
        assert result.times[-1] == pytest.approx(config.t_end, rel=1e-12)


class TestRefinement:
    def test_coupled_refinement_quarters_error(self, baseline_params, baseline_field):
        g = baseline_field.gamma.gamma
        e_coarse = abs(
            solve(
                OracleConfig(n_xi=64, t0=0.1, t_end=0.5, dt=4e-5), baseline_params
            ).gamma_estimate
            - g
        )
        e_fine = abs(
            solve(
                OracleConfig(n_xi=128, t0=0.1, t_end=0.5, dt=1e-5), baseline_params
            ).gamma_estimate
            - g
        )
        assert 2.5 <= e_coarse / e_fine <= 7.0

    def test_spatial_order(self, baseline_params, baseline_field):
        g = baseline_field.gamma.gamma
        errs = [
            abs(
                solve(
                    OracleConfig(n_xi=n, t0=0.1, t_end=0.5, dt=1e-5), baseline_params
                ).gamma_estimate
                - g
            )
            for n in (32, 64, 128)
        ]
        order = np.polyfit(np.log([32, 64, 128]), np.log(errs), 1)[0]
        assert -order >= 1.8


class TestLinearProfileSeed:
    def test_attracted_to_similarity(self, baseline_params, baseline_field):
        g = baseline_field.gamma.gamma
        config = OracleConfig(
            n_xi=96, t0=0.02, t_end=1.0, dt=4e-5, seed_mode="linear_profile", s0=0.05
        )
        result = solve(config, baseline_params)
        dev_start = abs(0.05 / (2 * math.sqrt(0.02)) - g) / g
        dev_end = abs(result.gamma_estimate - g) / g
        assert dev_end < 0.2 * dev_start  # transient decays


class TestGuards:
    def test_stability_violation(self, baseline_params):
        with pytest.raises(sr.StabilityViolation):
            solve(
                OracleConfig(
                    n_xi=128, t0=0.02, t_end=1.0, dt=5e-4,
                    seed_mode="linear_profile", s0=0.05,
                ),
                baseline_params,
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
            {"n_snapshots": 1},
            {"t_end": math.inf},
            {"seed_mode": "linear_profile", "s0": math.inf},
            {"t0": math.nan},
            {"dt": math.inf},
            {"s0": math.nan},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(sr.InvalidParameters):
            OracleConfig(**kwargs)

    @pytest.mark.parametrize(
        "fault, message",
        [("info", "tridiagonal solve failed"), ("nan", "non-finite temperature")],
    )
    def test_tridiagonal_failures_raise(
        self, baseline_params, monkeypatch, fault, message
    ):
        import scipy.linalg.lapack as lapack

        def broken_gtsv(dl, d, du, b, **overwrite):
            if fault == "info":
                return dl, d, du, b, 1
            b[:] = math.nan
            return dl, d, du, b, 0

        monkeypatch.setattr(lapack, "dgtsv", broken_gtsv)
        with pytest.raises(sr.StefanError, match=message):
            solve(OracleConfig(n_xi=32, t0=0.1, t_end=0.3, dt=1e-3), baseline_params)


class TestBitIdentity:
    """Pinned results of the march, to the last bit."""

    @pytest.mark.parametrize(
        "kwargs, gamma_hex, cfl_hex, digest",
        [
            (
                {"n_xi": 32, "t0": 0.1, "t_end": 0.3, "dt": 1e-3},
                "0x1.e604cf790ce41p-2", "0x1.47a28abd87381p-3", "5f1161f2a00c73e9",
            ),
            (
                {"n_xi": 96, "t0": 0.02, "t_end": 0.2, "dt": 4e-5,
                 "seed_mode": "linear_profile", "s0": 0.05},
                "0x1.bc272a699b9c3p-2", "0x1.160bb2fff6940p-1", "a1c519ae4e84169c",
            ),
        ],
    )
    def test_pinned(self, baseline_params, kwargs, gamma_hex, cfl_hex, digest):
        result = solve(OracleConfig(**kwargs), baseline_params)
        assert result.gamma_estimate.hex() == gamma_hex
        assert result.max_cfl.hex() == cfl_hex
        assert result.max_principle_violations == 0
        data = result.snapshots.tobytes() + result.fronts.tobytes()
        assert hashlib.sha256(data).hexdigest()[:16] == digest


class TestExport:
    def test_csv_roundtrip(self, baseline_params, tmp_path):
        config = OracleConfig(n_xi=32, t0=0.1, t_end=0.3, dt=1e-3, n_snapshots=3)
        result = solve(config, baseline_params)
        path = tmp_path / "snap.csv"
        result.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,xi,y,T_num,S_num"
        assert len(lines) == 1 + 3 * (32 + 1)
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == config.t0 and first[1] == 0.0
        # byte-identical on re-export
        path2 = tmp_path / "snap2.csv"
        result.to_csv(path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_rerun_deterministic(self, baseline_params):
        config = OracleConfig(n_xi=32, t0=0.1, t_end=0.3, dt=1e-3)
        a = solve(config, baseline_params)
        b = solve(config, baseline_params)
        assert a.gamma_estimate == b.gamma_estimate
        assert np.array_equal(a.snapshots, b.snapshots)
