import ast
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import stefan_reciprocal
from stefan_reciprocal.cli import (
    FLAGS, _parse_fast, _parse_range, build_parser, main,
)

GAMMA_BASELINE = 0.47461192717277908806


#: eval argvs whose table holds an inf or a nan, and the refusal each prints.
NON_FINITE_TABLES = [
    (["--field", "H", "--t-range", "1e-150:1e-150:1"], "H is not finite at t=1e-150"),
    (["--field", "H", "--t-range", "1e-150:1e-150:1", "--json"],
     "H is not finite at t=1e-150"),
    (["--field", "H", "--t-range", "1e-200:1e-200:1"],
     "H is not finite at t=9.9999999999999998e-201"),
    (["--field", "H", "--t-range", "1e250:1e250:1"],
     "H is not finite at t=9.9999999999999992e+249"),
    # the first row is finite, the second is not
    (["--field", "H", "--t-range", "1:1e250:3"],
     "H is not finite at t=4.9999999999999996e+249"),
    (["--field", "psi", "--t", "1e300", "--n", "3"],
     "psi is not finite at t=1.0000000000000001e+300, y=0"),
    # C(t) underflows to 0, and X1* = Tm/(delta*C) divides by it
    (["--field", "boundaries", "--t-range", "5e-324:5e-324:1"],
     "boundaries is not finite at t=4.9406564584124654e-324"),
]

EVAL_FIELDS = ["T", "Ty", "S", "xstar", "psi", "theta", "H", "boundaries"]

#: verify --grid 12,3 points where Psi at X0* or its powers leave the float range, and
#: the one stderr line each writes.
OVERFLOWS = {
    ("--delta", "1e-150"): "error: the X0* integrand Psi_x*/Psi^3 + 2 delta X0*/Psi leaves the"
    " float range: -inf at t=1.07549e-08, where Psi at X0* is 2.57505e-158 and Psi_x* is"
    " -6.11205e-312 (delta=1e-150, q=1)\n",
    ("--delta", "1e250"): "error: the X0* integrand Psi_x*/Psi^3 + 2 delta X0*/Psi leaves the"
    " float range: nan at t=1.07549e-08, where Psi at X0* is 2.57505e+242 and Psi_x* is -inf"
    " (delta=1e+250, q=1)\n",
    ("--q", "1e-300"): "error: the X0* integrand Psi_x*/Psi^3 + 2 delta X0*/Psi leaves the"
    " float range: nan at t=1.07549e-08, where Psi at X0* is 0 and Psi_x* is -0"
    " (delta=1, q=1e-300)\n",
}

#: The standard-library modules test_command_loads_only_its_layers looks for
#: after an invocation, and the argv's placeholder for a valid --config file.
STDLIB_GUARDED = ("__future__", "argparse", "dataclasses", "gettext", "inspect", "json",
                  "numbers")
CONFIG = "<config>"


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

    def test_json_writes_null_for_a_residual_that_is_not_finite(self, capsys):
        """F overflows at this root, so the residual is inf: JSON null, and inf as text."""
        point = ("--q", "1e6", "--l0", "1", "--tm0", "-2000")

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        _, out, _ = run(capsys, "gamma", *point)
        assert "residual = inf" in out.splitlines()
        for argv in (["gamma", *point, "--json"],
                     ["sweep", "--q-range", "1e6:1e6:1", "--tm0-range", "-2000:-2000:1",
                      "--l0", "1", "--json"]):
            code, out, _ = run(capsys, *argv)
            (line,) = out.splitlines()
            assert code == 0 and json.loads(line, parse_constant=refuse)["residual"] is None
        # q/l0 overflows: refused before gamma, its bracket and the margin turn nan
        code, out, err = run(capsys, "gamma", "--q", "1e300", "--l0", "1e-10", "--tm0", "0",
                             "--json")
        assert (code, out, err) == (1, "", "error: q/l0 must be finite, got q=1e+300, l0=1e-10\n")

    def test_tighter_tol(self, capsys):
        """The bracket is tighter than any root tolerance: adjacent doubles here."""
        code, out, _ = run(capsys, "gamma", "--tm0", "0", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["bracket_hi"] - payload["bracket_lo"] <= 1e-14
        assert payload["bracket_hi"] == np.nextafter(payload["bracket_lo"], np.inf)


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

    @pytest.mark.parametrize(
        "argv, message",
        NON_FINITE_TABLES,
        ids=["H-underflow", "H-underflow-json", "H-nan-small-t", "H-nan-large-t",
             "H-second-row", "psi-inf", "X1-underflow"],
    )
    def test_refuses_non_finite_values(self, capsys, argv, message):
        """A table that holds an inf or a nan is refused whole: exit 2, nothing on
        stdout, and the field and the first such row's t (and y) on stderr."""
        with np.errstate(all="ignore"):
            assert run(capsys, "eval", *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("method, t", [("h", 1e-150), ("x1", 5e-324)])
    def test_floats_raise_where_arrays_divide_to_inf(self, baseline_psi, method, t):
        """Where lat*C^2 or C underflows to 0, numpy divides to an inf and float
        arithmetic raises; test_refuses_non_finite_values refuses both alike."""
        from stefan_reciprocal.forms import ClosedForms

        stefan = baseline_psi.stefan
        forms = ClosedForms(stefan.params, stefan.gamma.gamma, stefan.amplitude)
        with pytest.raises(ZeroDivisionError):
            getattr(forms, method)(t)
        with np.errstate(all="ignore"):
            assert math.isinf(getattr(stefan.forms, method)(np.asarray(t)))

    def test_field_choices_in_order(self, capsys):
        """--field offers the eight fields, and its usage error lists them, in one order."""
        from stefan_reciprocal.cli import FIELDS

        fields = ["T", "Ty", "S", "xstar", "psi", "theta", "H", "boundaries"]
        assert list(FIELDS) == fields
        code, out, err = run(capsys, "eval", "--field", "Q")
        assert code == 1 and out == ""
        line = err.splitlines()[-1]
        assert line.startswith("stefan-reciprocal eval: error: argument --field: invalid choice: ")
        listed = line.split("(choose from ")[1].rstrip(")").split(", ")
        assert [name.strip("'") for name in listed] == fields


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
        # the grid's margin is the constant verify.MARGIN, so --margin is an unknown flag
        assert run(capsys, "verify", "--margin", "0.1") == (
            1, "", "stefan-reciprocal: error: unrecognized arguments: --margin 0.1\n")

    @pytest.mark.parametrize("point", list(OVERFLOWS))
    def test_overflow_writes_only_the_error_line(self, point):
        """Where the suite's arithmetic leaves the float range, a fresh process exits 2 and
        writes one stderr line, and none of numpy's RuntimeWarnings."""
        src = str(Path(stefan_reciprocal.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        res = subprocess.run(
            [sys.executable, "-m", "stefan_reciprocal.cli", "verify", "--grid", "12,3", *point],
            capture_output=True, text=True, env=env,
        )
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr == OVERFLOWS[point]

    @pytest.mark.parametrize("point", list(OVERFLOWS))
    def test_overflow_names_psi_and_the_inputs(self, capsys, point):
        """The refusal names the X0* integrand, Psi at X0* and the inputs delta and q,
        not the nan that the quadrature's error estimate would become."""
        assert run(capsys, "verify", "--grid", "12,3", *point) == (2, "", OVERFLOWS[point])

    def test_non_monotone_point_refused_up_front(self, capsys):
        point = ("--q", "1.7", "--tm0", "0.3")
        code, out, err = run(capsys, "verify", *point)
        lines = err.splitlines()
        assert code == 1 and out == ""
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "not monotone" in lines[0]
        for field in ("psi", "xstar"):
            code, out, _ = run(capsys, "eval", "--field", field, *point)
            assert code == 0 and len(out.splitlines()) > 1

    @pytest.mark.parametrize("q, tm0", [("1.0", "0.22"), ("3.6", "0.56")])
    def test_refused_where_d_changes_sign_between_samples(self, capsys, q, tm0):
        """x* turns between the 64 samples here; the sign of T_y*Theta + T^2 shows it."""
        code, out, err = run(capsys, "verify", "--grid", "31,4", "--q", q, "--tm0", tm0)
        assert code == 1 and out == ""
        assert "not monotone" in err

    def test_defaults_are_the_dataclass_defaults(self):
        """A flag not given is unset, so GridSpec and OracleConfig supply every default."""
        from stefan_reciprocal.cli import _grid_spec, _oracle_config, build_parser
        from stefan_reciprocal.oracle import OracleConfig
        from stefan_reciprocal.verify import GridSpec

        parse = build_parser().parse_args
        assert _grid_spec(parse(["verify"])) == GridSpec()
        assert _oracle_config(parse(["oracle"])) == OracleConfig()
        assert _grid_spec(parse(["verify", "--grid", "9,2"])) == GridSpec(n_space=9, n_time=2)
        config = _oracle_config(parse([
            "oracle", "--n-xi", "64", "--t0", "0.2", "--t-end", "0.5", "--dt", "1e-3",
            "--seed", "linear", "--s0", "0.1",
        ]))
        assert config == OracleConfig(n_xi=64, t0=0.2, t_end=0.5, dt=1e-3,
                                      seed_mode="linear_profile", s0=0.1)


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
        """--out names the snapshot CSV; the summary goes to stdout as without it."""
        argv = ["oracle", "--n-xi", "32", "--dt", "1e-3", "--t-end", "0.3"]
        out_path = tmp_path / "oracle.csv"
        code, out, _ = run(capsys, *argv, "--out", str(out_path))
        assert code == 0
        assert (code, out, "") == run(capsys, *argv) and "gamma_estimate = " in out
        lines = out_path.read_text().splitlines()
        assert lines[0] == "t,xi,y,T_num,S_num"
        assert len(lines) > 32

    def test_root_seeds_the_march(self, capsys, tmp_path):
        """The march starts from the field it is compared against."""
        out_path = tmp_path / "oracle.csv"
        code, out, _ = run(
            capsys,
            "oracle", "--n-xi", "32", "--dt", "1e-3", "--t-end", "0.3", "--json",
            "--q", "1.3", "--out", str(out_path),
        )
        assert code == 0
        field = stefan_reciprocal.StefanField.from_params(
            stefan_reciprocal.PhysicalParams(q=1.3, l0=1.0, tm0=0.5)
        )
        assert json.loads(out)["gamma_exact"] == field.gamma.gamma
        rows = [[float(v) for v in line.split(",")] for line in out_path.read_text().splitlines()[1:34]]
        t0, front = rows[0][0], rows[0][4]
        assert front == field.free_boundary(t0)
        xi = np.array([row[1] for row in rows])
        assert [row[3] for row in rows] == field.temperature(xi * front, t0).tolist()


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

    def test_one_evaluation_per_halving(self, capsys, monkeypatch):
        """Each cell of a 20x20 sweep evaluates G - F once at each end of its
        bracket and once per halving: iterations + 2 times."""
        from stefan_reciprocal import roots

        eval_f, calls = roots.eval_F, {}

        def counted(x, params):
            cell = (params.q, params.l0, params.tm0)
            calls[cell] = calls.get(cell, 0) + 1
            return eval_f(x, params)

        monkeypatch.setattr(roots, "eval_F", counted)
        code, out, _ = run(capsys, "sweep", "--q-range", "0.9:1.6:20", "--tm0-range", "0:0.6:20")
        monkeypatch.undo()
        assert code == 0
        cells = [tuple(float(v) for v in line.split(",")[:3]) for line in out.splitlines()[1:]]
        assert len(cells) == len(set(cells)) == 400
        solve, params = stefan_reciprocal.solve_gamma, stefan_reciprocal.PhysicalParams
        assert calls == {cell: solve(params(*cell)).iterations + 2 for cell in cells}

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            # tm0 >= l0 first at the eighth cell
            (["--q-range", "0.5:1.5:3", "--l0-range", "1.2:0.9:2", "--tm0-range", "0:0.9:4"], 1,
             "requires l0 > tm0, got l0=0.9, tm0=0.9"),
            (["--q-range", "1.5:0:4", "--tm0-range", "0:0.9:4"], 1, "q must be > 0, got 0.0"),
            # no sign change in the first cell, an invalid cell (tm0 = 1.5) after it
            (["--q-range", "0.5:1.5:3", "--tm0-range", "-100:1.5:3"], 2,
             "G - F does not change sign on (5e-15, 0.5); "
             "no admissible gamma for q=0.5, l0=1.0, tm0=-100.0"),
            # no sign change at the eleventh cell, after ten solved ones
            (["--q-range", "0.5:4:8", "--l0-range", "0.7:1.3:3", "--tm0-range", "-0.4:0.45:5"], 2,
             "G - F does not change sign on (3.85e-15, 0.385); "
             "no admissible gamma for q=0.5, l0=1.3, tm0=-0.4"),
            # an invalid first cell: no cell is solved
            (["--q-range", "-1:1:3"], 1, "q must be > 0, got -1.0"),
            (["--tm0", "-100"], 2,
             "G - F does not change sign on (1e-14, 1); "
             "no admissible gamma for q=1.0, l0=1.0, tm0=-100.0"),
            # q/l0 overflows at the second cell, after one solved cell
            (["--q-range", "1:1e300:2", "--l0", "1e-10", "--tm0", "0"], 1,
             "q/l0 must be finite, got q=1e+300, l0=1e-10"),
        ],
    )
    def test_fails_at_first_failing_cell(self, capsys, argv, code, message):
        assert run(capsys, "sweep", *argv) == (code, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv", [["--tm0", "5", "--tm0-range", "0:0.5:3"], ["--q", "-1", "--q-range", "1:2:3"]]
    )
    def test_range_overrides_an_invalid_base(self, capsys, argv):
        """A base value that a range replaces is never checked."""
        code, out, err = run(capsys, "sweep", *argv)
        assert code == 0 and err == ""
        assert len(out.splitlines()) == 1 + 3


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

    def test_tol_config_key_refused(self, capsys, tmp_path):
        """gamma is bisected to adjacent doubles; there is no root tolerance to configure."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tol": 1e-12}))
        code, out, err = run(capsys, "gamma", "--config", str(cfg))
        assert (code, out, err) == (1, "", "error: unknown config keys: ['tol']\n")

    @pytest.mark.parametrize("command", ["gamma", "eval", "verify", "oracle", "sweep"])
    def test_int_beyond_float_range_refused(self, capsys, tmp_path, command):
        """A JSON int of 400 digits is refused as not finite, not with a traceback."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"q": 1' + "0" * 400 + "}")
        argv = ["--field", "T"] if command == "eval" else []
        code, out, err = run(capsys, command, "--config", str(cfg), *argv)
        assert (code, out, err) == (1, "", "error: q must be finite, got 1" + "0" * 400 + "\n")

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="Python before 3.10.7 has no limit on int-string conversion")
    def test_int_beyond_digit_limit_refused(self, capsys, tmp_path):
        """A JSON int of more than 4,300 digits, which json cannot convert, is one error line."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"q": 1' + "0" * 5000 + "}")
        code, out, err = run(capsys, "gamma", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err.startswith("error: Exceeds the limit (4300 digits)") and err.count("\n") == 1

    def test_config_not_utf8_refused(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"q": 1.0, "tm0": "\xe9"}')
        code, out, err = run(capsys, "gamma", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err.startswith("error: 'utf-8' codec can't decode byte 0xe9")
        assert err.count("\n") == 1

    def test_malformed_json_refused(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"q": ')
        code, out, err = run(capsys, "gamma", "--config", str(cfg))
        assert (code, out, err) == (2, "", "error: Expecting value: line 1 column 7 (char 6)\n")

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, _ = run(capsys, "gamma", "--config", str(tmp_path / "nope.json"))
        assert code == 2

    @pytest.mark.parametrize(
        "payload", [{"q": "2"}, {"q": True}, {"delta": None}, {"tm0": [0.5]}, ["q"]]
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
        ["gamma"],
        ["eval", "--field", "theta", "--n", "7"],
        ["eval", "--field", "boundaries", "--t-range", "1:2:3"],
        ["verify", "--grid", "8,1"],
        ["sweep", "--q-range", "0.5:2:3"],
    ],
    ids=["gamma", "eval-y", "eval-t", "verify", "sweep"],
)
@pytest.mark.parametrize("fmt_flag", [[], ["--json"]], ids=["text", "json"])
def test_out_file_holds_the_stdout_bytes(capsys, tmp_path, argv, fmt_flag):
    """--out writes exactly what the same argv prints without it."""
    path = tmp_path / "out.txt"
    code, out, _ = run(capsys, *argv, *fmt_flag)
    assert code == 0
    assert run(capsys, *argv, *fmt_flag, "--out", str(path)) == (0, "", "")
    assert path.read_bytes() == out.encode()


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
        ["gamma", "--l0", "inf"],
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
             "072d0cef7a0f2ce02dc98c10f9daf9399360f40d2ff1f227ddc71e35a1cb6923"),
            (["eval", "--field", "Ty"], 0,
             "9e466f4d4d5968067927ff57e4db0c8b4e7b5f903d9f7fe791518f50db99d201"),
            (["eval", "--field", "S"], 0,
             "9c0149ec2716cff2457fdbf4cda9fbea772f04db6792430f89a5a3e92413c083"),
            (["eval", "--field", "xstar"], 0,
             "6c8c69375ec0695c9073e968f0baf5ee39657b5856d4a55b704c79ea6873742b"),
            (["eval", "--field", "psi"], 0,
             "e49e007aa620147f17743ca764934c6af9013aab0c603758b2b5aa0d2e327f18"),
            (["eval", "--field", "theta"], 0,
             "3726302857447ef3d36a760ec412aae75b7ee391420e9fd352a65c3c75e067f1"),
            (["eval", "--field", "H"], 0,
             "d009162537d5badb4815cf46ea3aae264913498b79d46d7fa78911a41d2283f7"),
            (["eval", "--field", "boundaries"], 0,
             "e3e177b35846d6b1e457ec6aee2418b06105b47180a09d4a674889a4c4b3d147"),
            (["verify", "--grid", "12,3", "--json", "--tm0", "0.5"], 0,
             "9fe97252d40c04518b602eb3af509015fc37090fb8d2559f749126685f862baa"),
            (["verify", "--grid", "12,3", "--json", "--tm0", "0"], 0,
             "b78c0717c897e63a6c8e7233f2eaa3e6c08399bea986fa978533a8610c76a6d4"),
            # an inversion bracket reaches 16*eps*S(t) before the residual rule here
            (["verify", "--grid", "12,3", "--json", "--q", "100", "--tm0", "0.99"], 0,
             "4c24822b4aace85e932aef3e9a32e1b87e4e9fb68495d1d6bad0b7f9c8be0544"),
            # the oracle-march workload's shapes, shortened
            (["oracle", "--q", "1.1", "--tm0", "0.3", "--n-xi", "256", "--t-end", "0.2",
              "--dt", "2e-4", "--json"], 0,
             "abd9b4b21d00de414288ee21d1090e3ab6ee06afe6185172cca67b8c99d21721"),
            (["oracle", "--n-xi", "128", "--t0", "0.02", "--t-end", "0.05", "--dt", "4e-5",
              "--seed", "linear", "--s0", "0.05"], 0,
             "ac924f3e218e557c0174e44d08a61fd6d3165b2725e995ff41f1ba61b231e665"),
            (["oracle", "--n-xi", "1024", "--t-end", "0.12", "--dt", "5e-5", "--json"], 0,
             "47fd784b82cfc19660906faee9119091c7315e5f3276583f9e4d2ab8fc614d2f"),
            (["sweep", "--q-range", "0.5:1.5:7", "--tm0-range", "0:0.9:6"], 0,
             "9a7f249cfa3f3ceb5bffc129fff9d15376b5d1b6733b23f62a3f6c11b9842200"),
            (["sweep", "--q-range", "0.6:1.4:5", "--l0-range", "0.8:1.6:4",
              "--tm0-range", "0:0.6:3", "--json"], 0,
             "6911963407df263dbc587e729bebbfaba7649f44b1ea2f8da50dc16ae63e2e05"),
            # bisection midpoints above 1; tm0 < 0
            (["sweep", "--q-range", "0.6:4:8", "--l0-range", "0.7:1.3:3",
              "--tm0-range", "-0.4:0.45:5"], 0,
             "db099b760b0bbed6ee5f907bc73691200ebbfc8f586c5c92a1ffe9a7bdd74c74"),
            # the verify-suite workload's grids, last so that the ids above keep their indices
            (["verify", "--grid", "50,5", "--json"], 0,
             "2fc3e29861ff33a2a38fa8dff33ac498e791f0654d9c41dae32de27ee7f16436"),
            (["verify", "--grid", "31,4", "--json"], 0,
             "d1629f7097f351617c564fe238efef0fe3ba36e759e01af68f9987e5ff531022"),
        ],
    )
    def test_pinned_stdout(self, capsys, argv, code, digest):
        got, out, _ = run(capsys, *argv)
        assert got == code
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_scipy_submodules_load_only_on_demand():
    """Importing the CLI and running gamma load neither scipy.linalg nor
    scipy.integrate; verify integrates with the package's own quadrature and
    loads neither either.  oracle loads only the LAPACK extension of
    scipy.linalg, not the package (test_scipy_loads_only_for_oracle)."""
    script = (
        "import json, sys\n"
        "import stefan_reciprocal.cli as cli\n"
        "heavy = ('scipy.linalg', 'scipy.integrate')\n"
        "after_import = [m for m in heavy if m in sys.modules]\n"
        "code = cli.main(['gamma', '--out', sys.argv[1]])\n"
        "after_gamma = [m for m in heavy if m in sys.modules]\n"
        "verify_code = cli.main(['verify', '--grid', '8,1', '--out', sys.argv[1]])\n"
        "after_verify = [m for m in heavy if m in sys.modules]\n"
        "print(json.dumps([code, after_import, after_gamma, verify_code, after_verify]))\n"
    )
    src = str(Path(stefan_reciprocal.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    res = subprocess.run(
        [sys.executable, "-c", script, os.devnull],
        capture_output=True, text=True, env=env, check=True,
    )
    assert json.loads(res.stdout) == [0, [], [], 0, []]


def test_scipy_loads_only_for_oracle():
    """No command but oracle imports any part of scipy: erf is the package's
    own.  oracle loads scipy's LAPACK extension for dptsv and nothing else of
    scipy: not its __init__, not scipy.linalg, not scipy.special."""
    fields = ["T", "Ty", "S", "xstar", "psi", "theta", "H", "boundaries"]
    script = (
        "import json, sys\n"
        "import stefan_reciprocal.cli as cli\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "seen = {'import': scipy_modules()}\n"
        "runs = [['gamma']]\n"
        f"runs += [['eval', '--field', f, '--n', '5', '--t-range', '1:2:2'] for f in {fields!r}]\n"
        "runs += [['sweep', '--q-range', '0.5:2:3'], ['verify', '--grid', '8,1']]\n"
        "codes = [cli.main([*argv, '--out', sys.argv[1]]) for argv in runs]\n"
        "seen['commands'] = scipy_modules()\n"
        "codes.append(cli.main(['oracle', '--n-xi', '32', '--dt', '1e-3', '--t-end', '0.3', '--json']))\n"
        "seen['oracle'] = scipy_modules()\n"
        "print(json.dumps([codes, seen]))\n"
    )
    src = str(Path(stefan_reciprocal.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    res = subprocess.run(
        [sys.executable, "-c", script, os.devnull],
        capture_output=True, text=True, env=env, check=True,
    )
    codes, seen = json.loads(res.stdout.splitlines()[-1])
    assert codes == [0] * (len(fields) + 4)
    assert seen == {"import": [], "commands": [], "oracle": ["scipy.linalg._flapack"]}


@pytest.mark.parametrize(
    "argv, code, modules, numpy",
    [
        (None, 0, [], False),
        (["gamma"], 0, [], False),
        (["sweep", "--q-range", "0.5:2:3"], 0, [], False),
        (["gamma", "--bogus"], 1, [], False),
        # every eval field reads the closed forms on floats
        *((["eval", "--field", field, "--n", "5", "--t-range", "1:2:2"], 0, ["forms"], False)
          for field in EVAL_FIELDS),
        (["verify", "--grid", "8,1"], 0, ["forms", "similarity", "transform", "verify"], True),
        (["oracle", "--n-xi", "32", "--dt", "1e-3", "--t-end", "0.3"], 0,
         ["forms", "oracle", "similarity"], True),
        # --json writers and --config readers, the only argvs that load json
        (["gamma", "--json"], 0, [], False),
        (["gamma", "--config", CONFIG], 0, [], False),
        (["sweep", "--q-range", "0.5:2:3", "--json"], 0, [], False),
        (["eval", "--field", "psi", "--n", "5", "--json"], 0, ["forms"], False),
        (["verify", "--grid", "8,1", "--json"], 0,
         ["forms", "similarity", "transform", "verify"], True),
        (["oracle", "--n-xi", "32", "--dt", "1e-3", "--t-end", "0.3", "--json"], 0,
         ["forms", "oracle", "similarity"], True),
    ],
    # psi keeps the id "eval" it had when it stood for the fields read through a PsiField
    ids=["import", "gamma", "sweep", "usage-error",
         *("eval" if f == "psi" else f"eval-{f}" for f in EVAL_FIELDS), "verify", "oracle",
         "gamma-json", "gamma-config", "sweep-json", "eval-json", "verify-json", "oracle-json"],
)
def test_command_loads_only_its_layers(argv, code, modules, numpy, tmp_path):
    """In a fresh interpreter, importing the CLI loads the package, cli, errors
    and roots, and neither numpy nor argparse, dataclasses, gettext, inspect,
    json, numbers and __future__ (``argv`` None); gamma, sweep and a usage error
    add no layer, eval adds only forms, and verify and oracle add numpy (which
    imports inspect and numbers) and only their ``modules``, and never
    dataclasses.  json loads exactly where argv has --json or --config, and
    argparse with gettext only for the usage error.  The child reads its argv
    from the command line and prints with repr, so that it imports nothing itself."""
    config = tmp_path / "c.json"
    config.write_text('{"q": 1.5}', encoding="utf-8")
    argv = [] if argv is None else [str(config) if a == CONFIG else a for a in argv]
    script = (
        "import sys\n"
        "import stefan_reciprocal.cli as cli\n"
        "argv = sys.argv[2:]\n"
        "code = cli.main([*argv, '--out', sys.argv[1]]) if argv else 0\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('stefan_reciprocal'))\n"
        f"stdlib = [m for m in {STDLIB_GUARDED!r} if m in sys.modules]\n"
        "print(repr([code, loaded, 'numpy' in sys.modules, stdlib]))\n"
    )
    src = str(Path(stefan_reciprocal.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    res = subprocess.run(
        [sys.executable, "-c", script, os.devnull, *argv],
        capture_output=True, text=True, env=env, check=True,
    )
    got_code, loaded, numpy_loaded, stdlib = ast.literal_eval(res.stdout.splitlines()[-1])
    names = ["cli", "errors", "roots", *modules]
    uses_json = "--json" in argv or "--config" in argv
    assert got_code == code
    assert loaded == sorted(["stefan_reciprocal", *(f"stefan_reciprocal.{m}" for m in names)])
    assert numpy_loaded is numpy
    assert stdlib == sorted((["inspect", "numbers"] if numpy else [])
                            + (["json"] if uses_json else [])
                            + (["argparse", "gettext"] if code == 1 else []))


def test_verify_and_oracle_run_without_dataclasses(capsys):
    """With dataclasses made unimportable, verify and oracle print what they print with it."""
    argvs = [["verify", "--grid", "12,3", "--json"],
             ["oracle", "--n-xi", "32", "--dt", "1e-3", "--t-end", "0.3"]]
    script = (
        "import io, json, sys\n"
        "sys.modules['dataclasses'] = None\n"
        "import stefan_reciprocal.cli as cli\n"
        "outs = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    sys.stdout = io.StringIO()\n"
        "    outs.append([cli.main(argv), sys.stdout.getvalue()])\n"
        "sys.stdout = sys.__stdout__\n"
        "print(json.dumps(outs))\n"
    )
    src = str(Path(stefan_reciprocal.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    res = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                         capture_output=True, text=True, env=env, check=True)
    expected = [list(run(capsys, *argv)[:2]) for argv in argvs]
    assert [code for code, _ in expected] == [0, 0]
    assert json.loads(res.stdout) == expected


def test_oracle_module_loads_neither_verify_nor_transform():
    """In a fresh interpreter, ``import stefan_reciprocal.oracle`` loads the
    layers the march and its comparison read, and not the identity checks or
    the reciprocal map."""
    script = (
        "import json, sys\n"
        "import stefan_reciprocal.oracle\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('stefan_reciprocal'))))\n"
    )
    src = str(Path(stefan_reciprocal.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, check=True)
    loaded = json.loads(res.stdout.splitlines()[-1])
    assert loaded == ["stefan_reciprocal", *(f"stefan_reciprocal.{m}" for m in
                      ("errors", "forms", "oracle", "roots", "similarity"))]


def test_gamma_and_sweep_run_without_numpy(capsys):
    """With numpy, dataclasses and inspect made unimportable, gamma, sweep and
    every eval field, as text and as --json, print what they print with them,
    and eval's refusals of a table that is not finite write the same stderr."""
    argvs = [["gamma"], ["gamma", "--json"],
             ["sweep", "--q-range", "0.5:2:3", "--tm0-range", "0:0.6:3"],
             *(["eval", "--field", field, "--q", "1.3", "--tm0", "0.2", "--delta", "0.7", *fmt]
               for field in EVAL_FIELDS for fmt in ([], ["--json"]))]
    refusals = [["eval", *argv] for argv, _ in NON_FINITE_TABLES]
    script = (
        "import io, json, sys\n"
        "for name in ('numpy', 'dataclasses', 'inspect'):\n"
        "    sys.modules[name] = None\n"
        "import stefan_reciprocal.cli as cli\n"
        "outs = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()\n"
        "    code = cli.main(argv)\n"
        "    outs.append([code, sys.stdout.getvalue(), sys.stderr.getvalue()])\n"
        "sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__\n"
        "print(json.dumps(outs))\n"
    )
    src = str(Path(stefan_reciprocal.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    res = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argvs + refusals)],
        capture_output=True, text=True, env=env, check=True,
    )
    with np.errstate(all="ignore"):
        expected = [list(run(capsys, *argv)) for argv in argvs + refusals]
    assert all(code == 0 and out and not err for code, out, err in expected[:len(argvs)])
    assert all(code == 2 and not out and err.startswith("error: ") and len(err.splitlines()) == 1
               for code, out, err in expected[len(argvs):])
    assert json.loads(res.stdout) == expected


def _array_table(field_name, params, t, n, t_range):
    """eval's table from the StefanField and PsiField methods on numpy arrays."""
    field = stefan_reciprocal.StefanField.from_params(params)
    pf = stefan_reciprocal.PsiField(field)
    y = np.linspace(0.0, field.free_boundary(t), n)
    times = np.array(_parse_range(t_range))
    columns = {
        "T": lambda: (y, field.temperature(y, t)),
        "Ty": lambda: (y, field.temperature_gradient(y, t)),
        "S": lambda: (times, field.free_boundary(times)),
        "xstar": lambda: (y, pf.x_star(y, t)),
        "psi": lambda: (pf.x_star(y, t), pf.psi_parametric(y, t)),
        "theta": lambda: (y, pf.theta(y, t)),
        "H": lambda: (times, pf.h_of_t(times)),
        "boundaries": lambda: (times, field.free_boundary(times), pf.x0(times), pf.x1(times)),
    }[field_name]()
    return np.column_stack(columns)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(field=st.sampled_from(EVAL_FIELDS), log_q=st.floats(-3.0, 3.0),
       log_l0=st.floats(-2.0, 2.0), tm0_frac=st.floats(-1.0, 0.999),
       log_delta=st.floats(-3.0, 3.0), log_t=st.floats(-3.0, 3.0),
       n=st.integers(1, 60), span=st.floats(1.0, 100.0))
def test_eval_table_has_the_bits_of_the_array_methods(
    field, log_q, log_l0, tm0_frac, log_delta, log_t, n, span
):
    """eval's float table is, bit for bit, the StefanField and PsiField methods
    on the same samples as numpy arrays, over the valid region q, l0, delta > 0,
    tm0 < l0 where gamma exists."""
    from stefan_reciprocal.cli import FIELDS, _merge_config, build_parser, cmd_eval

    q, l0, delta, t = 10.0 ** log_q, 10.0 ** log_l0, 10.0 ** log_delta, 10.0 ** log_t
    params = stefan_reciprocal.PhysicalParams(q, l0, tm0_frac * l0, delta)
    try:
        stefan_reciprocal.solve_gamma(params)
    except stefan_reciprocal.NoSignChange:
        assume(False)
    t_range = f"{t!r}:{t * span!r}:{n}"
    argv = ["eval", "--field", field, "--q", repr(params.q), "--l0", repr(params.l0),
            "--tm0", repr(params.tm0), "--delta", repr(params.delta), "--t", repr(t),
            "--n", str(n), "--t-range", t_range, "--json"]
    args = build_parser().parse_args(argv)
    with np.errstate(all="ignore"):
        expected = _array_table(field, params, t, n, t_range)
    try:
        lines, code = cmd_eval(args, _merge_config(args))
    except stefan_reciprocal.StefanError:
        assert not np.isfinite(expected).all()
        return
    header = FIELDS[field][0]
    got = [[json.loads(line)[k] for k in header] for line in lines]
    assert code == 0
    assert [[v.hex() for v in row] for row in got] == [[float(v).hex() for v in row] for row in expected]


@settings(max_examples=300, deadline=None)
@given(lo=st.floats(allow_nan=False, allow_infinity=False),
       hi=st.floats(allow_nan=False, allow_infinity=False), n=st.integers(1, 500))
@example(lo=-0.0, hi=0.0, n=1)
@example(lo=-0.0, hi=-0.0, n=4)
@example(lo=2.5, hi=2.5, n=3)
@example(lo=3.0, hi=-2.0, n=7)
@example(lo=-1e-3, hi=-7.5, n=500)
@example(lo=0.0, hi=5e-324, n=4)  # the step underflows to 0, but not (2/3)*delta
@example(lo=-0.0, hi=-1.0, n=3)  # -0.0*step + lo keeps lo's sign
@example(lo=0.25, hi=4.0, n=16)
def test_parse_range_has_linspace_bits(lo, hi, n):
    """lo:hi:n gives np.linspace(lo, hi, n) to the last bit, without numpy."""
    assume(math.isfinite(hi - lo))
    got = _parse_range(f"{lo!r}:{hi!r}:{n}")
    with np.errstate(over="ignore"):  # i*step may round past the largest double, as in floats
        expected = np.linspace(lo, hi, n).tolist()
    assert [v.hex() for v in got] == [v.hex() for v in expected]


def test_negative_values_in_exponent_notation(capsys):
    """`--flag -1e-3` reads -1e-3 as the flag's value, as `--flag=-1e-3` does."""
    for command, flag, value in (
        ("gamma", "--tm0", "-1e-3"),
        ("sweep", "--tm0-range", "-1e-3:0.5:3"),
    ):
        spaced = run(capsys, command, flag, value)
        joined = run(capsys, command, f"{flag}={value}")
        assert spaced == joined
        assert spaced[0] == 0 and spaced[1]


@pytest.mark.parametrize("value", ["-inf", "-INF", "-Infinity", "-nan", "-NaN"])
def test_negative_non_finite_values(capsys, value):
    """`--tm0 -inf` is read as a value and refused as `--tm0=-inf` is."""
    spaced = run(capsys, "gamma", "--tm0", value)
    joined = run(capsys, "gamma", f"--tm0={value}")
    assert spaced == joined
    assert spaced[0] == 1 and "tm0 must be finite" in spaced[2]


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--q-range", "1:2:2.5"],
        ["eval", "--field", "S", "--t-range", "1:2:x"],
        ["eval", "--field", "S", "--t-range", "a:2:3"],
    ],
)
def test_malformed_range_is_invalid_input(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert argv[-1] in lines[0]


@pytest.mark.parametrize(
    "argv", [["gamma"], ["eval", "--field", "T"], ["verify"], ["oracle"], ["sweep"]], ids=lambda a: a[0]
)
def test_tol_flag_refused(capsys, argv):
    """There is no --tol: every subcommand refuses it as a usage error."""
    code, out, err = run(capsys, *argv, "--tol", "1e-12")
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and "error:" in lines[0] and "--tol" in lines[0]


def test_usage_error_exit_code(capsys):
    assert main(["gamma", "--bogus"]) == 1
    assert main([]) == 1


#: -h, each <command> -h, six usage errors, and two argvs only argparse reads
#: (an abbreviation and an = form), with the exit code, stdout and stderr each
#: had when every argv went through argparse (COLUMNS=80; Python 3.10 and 3.11
#: print the same bytes, while 3.13 wraps the usage of `eval -h` otherwise).
USAGE_CORPUS = json.loads((Path(__file__).parent / "usage_corpus.json").read_text("utf-8"))


@pytest.mark.parametrize("case", USAGE_CORPUS, ids=lambda case: " ".join(case["argv"]))
def test_help_and_usage_errors_keep_their_bytes(case):
    """In a fresh process, argparse still prints the help and the errors, and
    reads what the fast path leaves to it."""
    src = str(Path(stefan_reciprocal.__file__).resolve().parents[1])
    env = {**os.environ, "COLUMNS": "80",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    res = subprocess.run([sys.executable, "-m", "stefan_reciprocal.cli", *case["argv"]],
                         capture_output=True, text=True, env=env)
    assert (res.returncode, res.stdout, res.stderr) == (case["code"], case["stdout"],
                                                        case["stderr"])


@pytest.mark.parametrize("argv", [["verify"], ["oracle"], ["oracle", "--dt", "1e-3"]])
def test_unset_flags_set_no_attribute(argv):
    """A verify or oracle flag that is not given sets no attribute on either path."""
    fast, args = vars(_parse_fast(argv)), vars(build_parser().parse_args(argv))
    assert fast == args
    assert not {"grid", "n_xi", "t0", "t_end", "seed", "s0"} & set(fast)


PARSER = build_parser()
ALL_FLAGS = sorted({flag for _, flags in FLAGS.values() for flag, _, _ in flags})
#: Values and tokens argparse may read otherwise than a plain value: negatives,
#: exponents, non-finite spellings, empty strings, a lone '-', flags, help and junk.
ODD_TOKENS = ["", "-", "--", "-h", "--help", "-1", "-.5", "-1e-3", "1e3", "-1E+3", "inf",
              "-inf", "-Infinity", "nan", "-NaN", "-x", "-1=2", " -1", "1_0", "0x10",
              "8,1", "1:2:3", "-1e-3:0.5:3", "T", "psi", "nope", "closed", "linear",
              "gamma", "eval", "--bogus", "--json=1"]
VALUE = st.one_of(st.floats().map(repr), st.integers(-10**6, 10**6).map(str),
                  st.sampled_from(ODD_TOKENS), st.text(max_size=4))
TOKEN = st.one_of(
    st.sampled_from(ALL_FLAGS),
    st.tuples(st.sampled_from(ALL_FLAGS), VALUE).map(list),
    # abbreviations and --flag=value
    st.tuples(st.sampled_from(ALL_FLAGS), st.integers(2, 6)).map(lambda fk: [fk[0][:fk[1]]]),
    st.tuples(st.sampled_from(ALL_FLAGS), VALUE).map(lambda fv: [f"{fv[0]}={fv[1]}"]),
    VALUE.map(lambda v: [v]),
).map(lambda t: t if isinstance(t, list) else [t])


def _argparse_vars(argv):
    """vars of argparse's namespace for ``argv``, or None where it exits; floats by repr."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            args = PARSER.parse_args(argv)
    except SystemExit:
        return None
    return {key: repr(value) for key, value in vars(args).items()}


@settings(max_examples=600, deadline=None)
@given(command=st.one_of(st.sampled_from(list(FLAGS)), st.sampled_from(ODD_TOKENS)),
       tokens=st.lists(TOKEN, max_size=6))
@example(command="gamma", tokens=[["--del", "2"]])
@example(command="gamma", tokens=[["--q=1.5"]])
@example(command="eval", tokens=[["--field", "T"], ["--n", "1e3"]])
@example(command="oracle", tokens=[["--seed", "-1"]])
@example(command="sweep", tokens=[["--q-range", "-"]])
@example(command="gamma", tokens=[["--q", "1"], ["--q"]])
@example(command="gamma", tokens=[["--json", "--json"], ["--tm0", "-inf"]])
def test_fast_path_agrees_with_argparse(command, tokens):
    """The fast path reads an argv as argparse does, or leaves it to argparse."""
    argv = [command, *(token for group in tokens for token in group)]
    fast = _parse_fast(argv)
    if fast is not None:
        assert {key: repr(value) for key, value in vars(fast).items()} == _argparse_vars(argv)


def _well_formed(command):
    """One command's argv of table flags with values argparse accepts, --json anywhere."""
    values = {float: st.floats().map(repr), int: st.integers().map(str),
              str: st.one_of(st.text().filter(lambda v: not v.startswith("-")),
                             st.sampled_from(["-1", "-1e-3:0.5:3", "-inf", "-.5"]))}
    pairs = [st.tuples(st.just(flag),
                       values[kind] if isinstance(kind, type) else st.sampled_from(kind))
             for flag, kind, _ in FLAGS[command][1] if kind is not bool]
    required = ["--field", "T"] if command == "eval" else []
    return st.lists(st.one_of(*pairs, st.just(("--json",))), max_size=8).map(
        lambda groups: [command, *required, *(token for group in groups for token in group)])


@settings(max_examples=200, deadline=None)
@given(argv=st.sampled_from(list(FLAGS)).flatmap(_well_formed))
def test_well_formed_argv_takes_the_fast_path(argv):
    fast = _parse_fast(argv)
    assert fast is not None
    assert {key: repr(value) for key, value in vars(fast).items()} == _argparse_vars(argv)

