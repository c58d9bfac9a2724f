import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stefan_reciprocal
from stefan_reciprocal.cli import main

GAMMA_BASELINE = 0.47461192717277908806


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGamma:
    def test_text_report(self, capsys):
        code, out, _ = run(capsys, "gamma", "--q", "1", "--l0", "1", "--tm0", "0.5")
        assert code == 0
        lines = dict(line.split(" = ") for line in out.splitlines() if " = " in line)
        assert float(lines["gamma"]) == pytest.approx(GAMMA_BASELINE, abs=2e-12)
        assert float(lines["margin"]) > 0
        assert float(lines["residual"]) <= 1e-10

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "gamma", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["physical_condition"] is True
        assert payload["bracket_hi"] - payload["bracket_lo"] <= 1e-12
        assert payload["gamma"] == pytest.approx(GAMMA_BASELINE, abs=2e-12)

    def test_rejects_l0_not_greater_than_tm0(self, capsys):
        code, _, err = run(capsys, "gamma", "--q", "1", "--l0", "1", "--tm0", "1.5")
        assert code == 1
        assert "requires l0 > tm0" in err

    def test_no_sign_change_is_numerical_failure(self, capsys):
        code, _, err = run(capsys, "gamma", "--tm0", "-100")
        assert code == 2
        assert "sign" in err

    def test_tighter_tol(self, capsys):
        code, out, _ = run(capsys, "gamma", "--tm0", "0", "--tol", "1e-14", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["bracket_hi"] - payload["bracket_lo"] <= 1e-14


class TestEval:
    def test_temperature_table(self, capsys):
        code, out, _ = run(capsys, "eval", "--field", "T", "--t", "1", "--n", "101")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "y,T"
        assert len(lines) == 102
        y0, t0 = (float(v) for v in lines[1].split(","))
        assert y0 == 0.0 and t0 > 0
        y_last, t_last = (float(v) for v in lines[-1].split(","))
        assert t_last == pytest.approx(0.5, abs=1e-11)  # tm0*sqrt(t) on the front

    def test_psi_table_spans_boundaries(self, capsys):
        code, out, _ = run(capsys, "eval", "--field", "psi", "--t", "1", "--n", "11")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "xstar,psi"
        xs = [float(line.split(",")[0]) for line in lines[1:]]
        assert xs[0] == pytest.approx(1.1906543169306761, abs=1e-10)
        assert xs[-1] == pytest.approx(2.1069845546379561, abs=1e-9)

    def test_boundaries_table(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--field", "boundaries", "--t-range", "1:4:2"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t,S,X0,X1"
        row1 = [float(v) for v in lines[1].split(",")]
        row4 = [float(v) for v in lines[2].split(",")]
        assert row4[1] == pytest.approx(2 * row1[1], rel=1e-12)  # S ~ sqrt(t)
        assert row4[3] == pytest.approx(row1[3] / 2, rel=1e-9)  # X1 ~ 1/sqrt(t)

    def test_json_lines(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--field", "T", "--t", "1", "--n", "3", "--json"
        )
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 3 and set(rows[0]) == {"y", "T"}

    def test_rejects_nonpositive_time(self, capsys):
        code, _, err = run(capsys, "eval", "--field", "T", "--t", "0")
        assert code == 1

    def test_h_field(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--field", "H", "--t-range", "0.5:2:3"
        )
        assert code == 0
        for line in out.splitlines()[1:]:
            t, h = (float(v) for v in line.split(","))
            assert abs(h) <= 1e-9  # identically zero for this family


class TestVerify:
    def test_small_grid_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--grid", "12,2", "--json")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 13
        assert all(r["pass"] for r in records)
        identities = {r["identity"] for r in records}
        assert "heat-equation" in identities and "source-equation" in identities

    def test_bad_grid_flag(self, capsys):
        code, _, err = run(capsys, "verify", "--grid", "12")
        assert code == 1


class TestOracle:
    def test_summary_json(self, capsys):
        code, out, _ = run(
            capsys,
            "oracle", "--n-xi", "64", "--dt", "5e-4", "--t-end", "0.5", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["gamma_error"] <= 1e-3
        assert payload["max_principle_violations"] == 0

    def test_csv_export(self, capsys, tmp_path):
        out_path = tmp_path / "oracle.csv"
        code, _, _ = run(
            capsys,
            "oracle", "--n-xi", "32", "--dt", "1e-3", "--t-end", "0.3",
            "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "t,xi,y,T_num,S_num"
        assert len(lines) > 32


class TestSweep:
    def test_grid_rows_in_parameter_order(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep", "--q-range", "0.5:2:4", "--tm0-range", "0:0.5:3",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "q,l0,tm0,gamma,residual,margin"
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        assert len(rows) == 12
        order = [(r[0], r[1], r[2]) for r in rows]
        assert order == sorted(order)
        for row in rows:
            assert 0 < row[3] < row[0] / row[1]
            assert row[5] > 0

    def test_single_cell_default(self, capsys):
        code, out, _ = run(capsys, "sweep")
        assert code == 0
        assert len(out.splitlines()) == 2


class TestConfigPrecedence:
    def test_config_file_overrides_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"q": 2.0, "tm0": 0.25}))
        code, out, _ = run(capsys, "gamma", "--config", str(cfg), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["gamma"] == pytest.approx(0.71375909886183431, abs=1e-10)

    def test_flags_override_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"q": 2.0}))
        code, out, _ = run(
            capsys, "gamma", "--config", str(cfg), "--q", "1", "--json"
        )
        payload = json.loads(out)
        assert payload["gamma"] == pytest.approx(GAMMA_BASELINE, abs=2e-12)

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"flux": 2.0}))
        code, _, err = run(capsys, "gamma", "--config", str(cfg))
        assert code == 1
        assert "unknown config keys" in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, _ = run(capsys, "gamma", "--config", str(tmp_path / "nope.json"))
        assert code == 2

    @pytest.mark.parametrize(
        "payload", [{"q": "2"}, {"q": True}, {"tol": None}, {"tm0": [0.5]}, ["q"]]
    )
    def test_rejects_non_number_values(self, capsys, tmp_path, payload):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        code, out, err = run(capsys, "gamma", "--config", str(cfg))
        assert code == 1
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")


class TestDeterminism:
    def test_byte_identical_output_files(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(
                capsys,
                "eval", "--field", "T", "--t", "1", "--n", "50", "--out", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_deterministic(self, capsys):
        outputs = []
        for _ in range(2):
            _, out, _ = run(capsys, "sweep", "--q-range", "0.5:2:6")
            outputs.append(out)
        assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["gamma", "--q", "inf"],
        ["gamma", "--delta", "nan"],
        ["eval", "--field", "psi", "--t", "inf"],
        ["eval", "--field", "psi", "--t", "nan"],
        ["eval", "--field", "S", "--t-range", "0.5:inf:4"],
        ["eval", "--field", "H", "--t-range", "nan:2:4"],
        ["sweep", "--q-range", "0.5:inf:3"],
        ["oracle", "--t-end", "inf"],
        ["oracle", "--seed", "linear", "--s0", "inf", "--n-xi", "32", "--t-end", "0.2"],
        ["gamma", "--tol", "inf"],
        ["eval", "--field", "T", "--n", "-1"],
        ["oracle", "--dt", "1e-300", "--n-xi", "32", "--t-end", "0.2"],
        ["verify", "--grid", "8,0"],
        ["verify", "--grid", "8,-2"],
    ],
)
def test_rejects_nonfinite_input(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


class TestBitIdentity:
    """sha256 of stdout, pinned to the last byte of the 17-digit output."""

    @pytest.mark.parametrize(
        "argv, code, digest",
        [
            (["eval", "--field", "T"], 0,
             "fa695d3ee27e94a35cef6a4ddd30497db6aeb52dc990203cf3114a9902e9a1bb"),
            (["eval", "--field", "Ty"], 0,
             "2ec5beb37d66930e59989aeefa50acb76a8ef72b5ace4cc8b0096e57094c9f7c"),
            (["eval", "--field", "S"], 0,
             "972f3ce80fec5b3ed0b5b78a50c4f70c5143eb5d451267c903243846f8802dbb"),
            (["eval", "--field", "xstar"], 0,
             "d280a691b0263f86e70272cfee7ca7223e64c812463a1b6af955fc6aea40d034"),
            (["eval", "--field", "psi"], 0,
             "9fc181f0e282a11a91f2cd4d0b162c15d845823d050f376eaac16d5e05998634"),
            (["eval", "--field", "theta"], 0,
             "1c5eabc8a7487fbafdcd707c09ff7efe17e85908d0e197ed1703255ec9d52254"),
            (["eval", "--field", "H"], 0,
             "67e891802d1477e9556be097ba37d2bff6b60e60057023d754ace0b5a70316a3"),
            (["eval", "--field", "boundaries"], 0,
             "facc541938db5d897ac6d44c1ca1cc1be65de8a77e50dabc363ff62ac5a83f72"),
            (["verify", "--grid", "12,3", "--json", "--tm0", "0.5"], 0,
             "9522a6af5f3fcdd2fe29e8742e379ff2f4bf1d658e2a5becf66cdddf75c28c6c"),
            (["verify", "--grid", "12,3", "--json", "--tm0", "0"], 2,
             "b443dbb758137a6c7acf586c08f3c361927eab1a8044c9d8981b32080ed8a087"),
        ],
    )
    def test_pinned_stdout(self, capsys, argv, code, digest):
        got, out, _ = run(capsys, *argv)
        assert got == code
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_scipy_submodules_load_only_on_demand():
    """Importing the CLI and running gamma load neither scipy.linalg nor
    scipy.integrate; oracle and verify import them when they first need them."""
    script = (
        "import json, sys\n"
        "import stefan_reciprocal.cli as cli\n"
        "heavy = ('scipy.linalg', 'scipy.integrate')\n"
        "after_import = [m for m in heavy if m in sys.modules]\n"
        "code = cli.main(['gamma', '--out', sys.argv[1]])\n"
        "after_gamma = [m for m in heavy if m in sys.modules]\n"
        "print(json.dumps([code, after_import, after_gamma]))\n"
    )
    src = str(Path(stefan_reciprocal.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    res = subprocess.run(
        [sys.executable, "-c", script, os.devnull],
        capture_output=True, text=True, env=env, check=True,
    )
    assert json.loads(res.stdout) == [0, [], []]


def test_usage_error_exit_code(capsys):
    assert main(["gamma", "--bogus"]) == 1
    assert main([]) == 1
