import math
import pickle
import random
import types
import warnings
from decimal import Decimal
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stefan_reciprocal as sr
from stefan_reciprocal.roots import _check_reals
from stefan_reciprocal.similarity import _erf, _Jet, _libm

mp.mp.dps = 40

# frozen from a 50-digit evaluation (mpmath), see the oracles below
GAMMA_TM0_ZERO = 0.56142535712434718246
GAMMA_BASELINE = 0.47461192717277908806
F_AT_ONE_BASELINE = 5.0751961731967624388  # (0.25+1)*e*sqrt(pi)*erf(1)
MARGIN_BASELINE = 0.30475809426988841002


def mp_F(x, params):
    """High-precision oracle for the right side of the root equation."""
    x = mp.mpf(x)
    return float(
        (mp.mpf(params.tm0) / 2 + params.l0 * x**2)
        * mp.e ** (x**2)
        * mp.sqrt(mp.pi)
        * mp.erf(x)
    )


def test_eval_g_values():
    p = sr.PhysicalParams(q=1.0, l0=1.0)
    assert sr.eval_G(0.0, p) == 1.0
    assert sr.eval_G(1.0, p) == 0.0  # root of the linear part at q/l0
    assert sr.eval_G(0.5, p) == 0.5


def test_eval_f_zero_and_fixture(baseline_params):
    assert sr.eval_F(0.0, baseline_params) == 0.0
    assert sr.eval_F(1.0, baseline_params) == pytest.approx(
        F_AT_ONE_BASELINE, rel=1e-14
    )


@pytest.mark.parametrize("x", [0.3, 1.0, 2.5])
def test_eval_f_matches_high_precision(baseline_params, x):
    assert sr.eval_F(x, baseline_params) == pytest.approx(
        mp_F(x, baseline_params), rel=1e-13
    )


@pytest.mark.parametrize("tm0", [0.0, 0.25, 0.5])
def test_eval_f_monotone(tm0):
    p = sr.PhysicalParams(q=1.0, l0=1.0, tm0=tm0)
    assert sr.eval_F(0.2, p) < sr.eval_F(0.4, p) < sr.eval_F(0.8, p)


def test_eval_f_overflow_returns_inf(baseline_params):
    assert sr.eval_F(40.0, baseline_params) == math.inf


def test_eval_elementwise(baseline_params):
    """eval_F and eval_G take one float and give one float, in libm's arithmetic."""
    p = baseline_params
    for x in (0.0, 0.5, 1.0):
        f, g = sr.eval_F(x, p), sr.eval_G(x, p)
        assert type(f) is float and type(g) is float
        assert f == (p.tm0 / 2.0 + p.l0 * x * x) * math.exp(x * x) * math.sqrt(math.pi) * math.erf(x)
        assert g == p.q - p.l0 * x
    assert sr.eval_F(0.0, p) == 0.0 and sr.eval_G(0.0, p) == 1.0


def test_eval_f_nan_where_overflow_meets_zero():
    """Where exp(x^2) overflows F is +-inf, and nan where tm0/2 + l0*x^2 is exactly 0."""
    p = sr.PhysicalParams(q=1.0, l0=1.0, tm0=-2.0 * 900.0)
    assert math.isnan(sr.eval_F(30.0, p))
    assert sr.eval_F(-40.0, sr.PhysicalParams(q=1.0, l0=1.0)) == -math.inf


def _erf_inputs():
    """Grid, random, logspace, special and branch-edge inputs for erf."""
    rng = np.random.default_rng(20260101)
    tiny_to_big = np.logspace(-300, math.log10(40.0), 20_001)
    edges = [  # Cephes' branch edges, sqrt(MAXLOG) the last, and their neighbours
        np.nextafter(v, toward)
        for c in (1.0, 8.0, 26.641747557046326)
        for v in (c, -c)
        for toward in (-np.inf, v, np.inf)
    ]
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e300, -1e300]
    return np.concatenate(
        [
            np.linspace(-30.0, 30.0, 600_001),
            rng.uniform(-30.0, 30.0, 200_000),
            3.0 * rng.standard_normal(200_000),
            tiny_to_big,
            -tiny_to_big,
            specials,
            edges,
        ]
    )


def assert_same_bits(got, want):
    """Equal float64 bit patterns (so +0 != -0), any NaN matching any NaN."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


def _libm_erf(x):
    """math.erf of every element, as a float array of x's shape."""
    x = np.asarray(x, dtype=float)
    return np.array([math.erf(v) for v in x.ravel().tolist()]).reshape(x.shape)


def _libm_exp(x):
    """math.exp of every element, as a float array of x's shape."""
    x = np.asarray(x, dtype=float)
    return np.array([math.exp(v) for v in x.ravel().tolist()]).reshape(x.shape)


class TestErf:
    """The package's erf is libm's math.erf, element for element."""

    def test_bit_identical_to_math_erf(self):
        x = _erf_inputs()
        assert_same_bits(_erf(x), _libm_erf(x))

    def test_signed_zero_and_limits(self):
        assert math.copysign(1.0, _erf(-0.0)) == -1.0
        assert math.copysign(1.0, _erf(0.0)) == 1.0
        assert _erf(np.inf) == 1.0 and _erf(-np.inf) == -1.0
        assert math.isnan(_erf(np.nan))

    def test_scalar_path_equals_array_path(self):
        x = _erf_inputs()[::97]
        assert_same_bits([_erf(float(v)) for v in x], _erf(x))
        assert_same_bits([_erf(np.asarray(v)) for v in x], _erf(x))

    @pytest.mark.parametrize("x", [0.3, -1.0, 2.5, 9.0])
    def test_float_and_zero_d_inputs(self, x):
        for arg in (x, np.asarray(x)):
            got = _erf(arg)
            assert np.ndim(got) == 0
            assert_same_bits(got, math.erf(x))

    def test_shape_kept(self):
        x = np.linspace(-5.0, 5.0, 24).reshape(4, 6)
        got = _erf(x)
        assert got.shape == (4, 6)
        assert_same_bits(got, _libm_erf(x))
        assert _erf(np.zeros((2, 0))).shape == (2, 0)

    def test_within_one_ulp_of_30_digits(self):
        x = np.concatenate([np.linspace(-6.0, 6.0, 2401), [1.0, 8.0 / 3.0, 6.0]])
        got = _erf(x)
        with mp.workdps(30):
            err = [
                float(abs(mp.mpf(float(g)) - mp.erf(mp.mpf(float(v)))))
                for v, g in zip(x, got)
            ]
        ulp = np.spacing(np.abs(got))
        assert np.all(np.asarray(err) <= ulp)

    def test_finite_inputs_raise_no_warning(self):
        x = _erf_inputs()
        x = np.concatenate([x[np.isfinite(x)], [np.finfo(float).max, -np.finfo(float).max]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _erf(x)
            for v in x[::997]:
                _erf(float(v))


class TestExp:
    """The package's exp is libm's math.exp, element for element: on arrays,
    on a jet's value and in erf's derivative, as on the floats of `eval`.
    numpy's exp differs from it in the last bit on about 4.6% of [-40, 0]."""

    @staticmethod
    def _inputs():
        rng = np.random.default_rng(20261020)
        return np.concatenate([np.linspace(-40.0, 0.0, 20_000), rng.uniform(-40.0, 0.0, 5_000)])

    def test_inputs_tell_libm_from_numpy(self):
        x = self._inputs()
        assert np.mean(np.exp(x) != _libm_exp(x)) > 0.02

    def test_profile_gaussian(self, baseline_field):
        x = self._inputs()
        s = baseline_field.free_boundary(1.0)
        for t in (0.25, 1.0, 4.0):
            y = np.sqrt(-x) * 2.0 * math.sqrt(t)  # eta = sqrt(-x), exp(-eta^2) ~ exp(x)
            _, _, eta, _, gauss = baseline_field.profile(y, t)
            assert_same_bits(gauss, _libm_exp(-eta * eta))
            assert_same_bits(gauss[::499], [math.exp(-v * v) for v in eta[::499].tolist()])
        y = np.linspace(0.0, s, 9)
        jet = baseline_field.profile(_Jet.in_y(y), _Jet.in_t(1.0))
        assert_same_bits(jet[4].v, baseline_field.profile(y, 1.0)[4])

    def test_jet_value(self):
        x = self._inputs()
        jet = _Jet.in_y(x).exp()
        assert_same_bits(jet.v, _libm_exp(x))
        assert_same_bits(np.exp(_Jet.in_t(x)).v, jet.v)
        assert _Jet.in_y(-0.7).exp().v == math.exp(-0.7)

    def test_erf_derivative(self):
        x = self._inputs()[::5] / 6.0
        jet = _erf(_Jet.in_y(x))
        assert_same_bits(jet.y, 2.0 / math.sqrt(math.pi) * _libm_exp(-x * x))


@pytest.mark.parametrize("fn", [math.exp, math.log])
def test_libm_is_math_element_for_element(fn):
    """_libm(fn, x) gives np.vectorize(fn)'s bits and shape, a 0-d input included."""
    x = np.linspace(0.01, 700.0, 24).reshape(4, 6)
    reference = np.vectorize(fn, otypes=[float])
    for arg in (x, x[:1, :0], np.asarray(2.5)):
        got = _libm(fn, arg)
        assert got.shape == np.shape(arg)
        assert_same_bits(got, reference(arg))


class TestSolveGamma:
    def test_regression_tm0_zero(self):
        root = sr.solve_gamma(sr.PhysicalParams(q=1.0, l0=1.0, tm0=0.0))
        assert root.gamma == pytest.approx(GAMMA_TM0_ZERO, abs=2e-12)

    def test_bracket_and_residual(self, baseline_params):
        root = sr.solve_gamma(baseline_params)
        assert 0.0 < root.gamma < baseline_params.q / baseline_params.l0
        assert root.gamma == pytest.approx(GAMMA_BASELINE, abs=2e-12)
        assert root.bracket_hi - root.bracket_lo <= 1e-12
        assert root.gamma == 0.5 * (root.bracket_lo + root.bracket_hi)
        assert root.residual <= 1e-10 * max(1.0, baseline_params.q)
        assert root.iterations > 0

    def test_monotone_in_q(self):
        roots = [
            sr.solve_gamma(sr.PhysicalParams(q=q, l0=1.0, tm0=0.5)).gamma
            for q in (0.5, 1.0, 2.0)
        ]
        assert roots[0] < roots[1] < roots[2]

    def test_residual_meets_requested_tolerance(self):
        for q in (0.5, 1.0, 2.0):
            root = sr.solve_gamma(sr.PhysicalParams(q=q, l0=1.0, tm0=0.5))
            assert root.residual <= 1e-12
            assert root.bracket_hi - root.bracket_lo <= 1e-12

    def test_deterministic(self, baseline_params):
        assert sr.solve_gamma(baseline_params) == sr.solve_gamma(baseline_params)

    def test_tighter_tol(self, baseline_params):
        """The bracket is tighter than any root tolerance: its ends are adjacent
        doubles, or one point where G - F is exactly 0 (as at the baseline)."""
        for params in (baseline_params, sr.PhysicalParams(q=1.0, l0=1.0, tm0=0.0)):
            root = sr.solve_gamma(params)
            assert root.bracket_hi - root.bracket_lo <= 1e-14
            assert root.residual <= 1e-12
            _assert_at_rounding([root])

    def test_no_warning_where_f_is_zero_times_inf(self):
        """Here tm0/2 + l0*x^2 vanishes where exp(x^2) overflows, so F is nan at
        the top of the bracket; the solve warns of nothing and gamma keeps its bits."""
        params = sr.PhysicalParams(q=1.0, l0=0.01, tm0=-199.8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            root = sr.solve_gamma(params)
        assert root.gamma.hex() == "0x1.8fccc98584fe6p+6"
        assert root.residual == math.inf  # F overflows to -inf at gamma

    def test_no_sign_change(self):
        with pytest.raises(sr.NoSignChange):
            sr.solve_gamma(sr.PhysicalParams(q=1.0, l0=1.0, tm0=-100.0))

    def test_never_evaluates_outside_bracket(self, baseline_params, monkeypatch):
        from stefan_reciprocal import roots

        seen = []
        original = roots.eval_F

        def spy(x, params):
            seen.append(x)
            return original(x, params)

        monkeypatch.setattr(roots, "eval_F", spy)
        roots.solve_gamma(baseline_params)
        upper = baseline_params.q / baseline_params.l0
        assert seen and all(0.0 < x < upper for x in seen)

    def test_within_two_ulp_of_mpmath_root(self):
        """On 100 seeded admissible cells of the box q in [1e-3, 1e3] (log-uniform),
        l0 in [0.1, 10], tm0/l0 in [-0.9, 0.99], gamma is within 2 ulp of a 50-digit
        bisection root of G - F on (0, q/l0)."""
        rng = random.Random(20261020)
        checked = 0
        while checked < 100:
            q, l0 = 10.0 ** rng.uniform(-3.0, 3.0), rng.uniform(0.1, 10.0)
            params = sr.PhysicalParams(q=q, l0=l0, tm0=rng.uniform(-0.9, 0.99) * l0)
            try:
                gamma = sr.solve_gamma(params).gamma
            except sr.NoSignChange:
                continue
            assert abs(gamma - _mp_gamma(params)) <= 2 * math.ulp(gamma), params
            checked += 1

    def test_invalid_tol(self, baseline_params):
        """There is no root tolerance to pass."""
        with pytest.raises(TypeError):
            sr.solve_gamma(baseline_params, tol=1e-12)
        with pytest.raises(TypeError):
            sr.StefanField.from_params(baseline_params, 1e-12)


def _mp_gamma(params):
    """The root of G - F on (0, q/l0) by bisection at 50 digits, as a float."""
    with mp.workdps(50):
        q, l0, tm0 = mp.mpf(params.q), mp.mpf(params.l0), mp.mpf(params.tm0)

        def g_minus_f(x):
            return q - l0 * x - (tm0 / 2 + l0 * x * x) * mp.exp(x * x) * mp.sqrt(mp.pi) * mp.erf(x)

        lo, hi = mp.mpf(0), q / l0  # G - F is q > 0 at 0, and < 0 at q/l0 on an admissible cell
        while hi - lo > hi * mp.mpf("1e-40"):
            mid = (lo + hi) / 2
            if g_minus_f(mid) > 0:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


def _root_bits(root):
    """The five GammaRoot fields, floats as their exact hex."""
    floats = (root.gamma, root.residual, root.bracket_lo, root.bracket_hi)
    return (*(float(v).hex() for v in floats), root.iterations)


def _admissible(cells):
    out = []
    for q, l0, tm0 in cells:
        params = sr.PhysicalParams(q=q, l0=l0, tm0=tm0)
        try:
            out.append((params, sr.solve_gamma(params)))
        except sr.NoSignChange:
            pass
    return out


#: (q, l0, tm0) cells of TestSolveGammas, inadmissible ones included.
GRID = [(q, l0, tm0) for q in np.geomspace(0.01, 100.0, 9) for l0 in (0.5, 1.0, 2.0)
        for tm0 in np.linspace(-0.4, 0.45, 5)]


def _assert_at_rounding(roots):
    """Each bracket ends at adjacent doubles, or closes on an exact zero; gamma is an end."""
    for r in roots:
        assert r.bracket_hi == np.nextafter(r.bracket_lo, np.inf) or r.residual == 0.0, r
        assert r.gamma in (r.bracket_lo, r.bracket_hi), r
        if r.residual == 0.0:
            assert r.bracket_lo == r.bracket_hi == r.gamma, r


def _tol_bracket(p, tol):
    """The bracket where bisection stops once its width and |G - F| at the midpoint are <= tol."""

    def f(x):
        return sr.eval_G(x, p) - sr.eval_F(x, p)

    upper = p.q / p.l0
    lo, hi = 1e-14 * upper, upper - 1e-14 * upper
    f_lo = f(lo)
    if f_lo == 0.0 or f(hi) == 0.0:
        return lo, hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        f_mid = f(mid)
        if f_mid == 0.0 or (hi - lo <= tol and abs(f_mid) <= tol):
            break
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return lo, hi


class TestSolveGammas:
    """solve_gamma called cell by cell, as sweep calls it, over a grid of cells."""

    @pytest.mark.parametrize("tol", [1e-12, 1e-6, 1e-300])
    def test_matches_scalar_solve_bit_for_bit(self, tol):
        """A second solve of each cell has the bits of the first, and each
        bracket nests in the one where a bisection that stops once width and
        residual are <= tol would stop."""
        # q/l0 up to 200 and tm0 < 0
        solved = _admissible(GRID)
        assert len(solved) > 100
        roots = [sr.solve_gamma(p) for p, _ in solved]
        assert [_root_bits(r) for r in roots] == [_root_bits(r) for _, r in solved]
        _assert_at_rounding(roots)
        assert sum(r.residual > 0.0 for r in roots) > len(roots) / 2
        for (p, _), r in zip(solved, roots):
            lo, hi = _tol_bracket(p, tol)
            assert lo <= r.bracket_lo <= r.bracket_hi <= hi, (p, r)

    def test_matches_plain_float_bisection(self):
        """Every field against a float loop that halves to adjacent doubles."""

        def reference(p):
            def f(x):
                return sr.eval_G(x, p) - sr.eval_F(x, p)

            upper = p.q / p.l0
            lo, hi = 1e-14 * upper, upper - 1e-14 * upper
            f_lo, f_hi = f(lo), f(hi)
            if f_lo == 0.0 or f_hi == 0.0:
                end = lo if f_lo == 0.0 else hi
                return sr.GammaRoot(end, 0.0, end, end, 0)
            n = 0
            while lo < (mid := 0.5 * (lo + hi)) < hi:
                f_mid, n = f(mid), n + 1
                if f_mid == 0.0:
                    return sr.GammaRoot(mid, 0.0, mid, mid, n)
                if (f_mid > 0.0) == (f_lo > 0.0):
                    lo, f_lo = mid, f_mid
                else:
                    hi, f_hi = mid, f_mid
            return sr.GammaRoot(mid, abs(f_lo if mid == lo else f_hi), lo, hi, n)

        solved = _admissible(GRID)
        assert [_root_bits(r) for _, r in solved] == [_root_bits(reference(p)) for p, _ in solved]

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.floats(1e-3, 1e3), st.floats(0.1, 10.0),
                              st.floats(-0.9, 0.99)), min_size=1, max_size=8))
    def test_matches_scalar_solve_on_admissible_box(self, scaled):
        cells = [(q, l0, tm0 * l0) for q, l0, tm0 in scaled]
        solved = _admissible(cells)
        if solved:
            roots = [sr.solve_gamma(p) for p, _ in solved]
            assert [_root_bits(r) for r in roots] == [_root_bits(r) for _, r in solved]
            _assert_at_rounding(roots)

    def test_first_cell_without_sign_change_raises(self):
        good = sr.PhysicalParams(q=1.0, l0=1.0, tm0=0.5)
        bad = [sr.PhysicalParams(q=q, l0=1.0, tm0=-100.0) for q in (0.5, 2.0)]
        with pytest.raises(sr.NoSignChange) as scalar:
            sr.solve_gamma(bad[0])
        with pytest.raises(sr.NoSignChange) as cells:
            for params in (good, *bad):
                sr.solve_gamma(params)
        assert str(cells.value) == str(scalar.value)

    @pytest.mark.parametrize("tol", [1e-12, 0.0, -1.0, math.nan, math.inf])
    def test_invalid_tol(self, baseline_params, tol):
        """There is no root tolerance to pass, valid or not."""
        with pytest.raises(TypeError):
            sr.solve_gamma(baseline_params, tol)


INVALID_PARAMS = [
    {"q": 0.0, "l0": 1.0},
    {"q": -1.0, "l0": 1.0},
    {"q": 1.0, "l0": 0.0},
    {"q": 1.0, "l0": 1.0, "delta": 0.0},
    {"q": 1.0, "l0": 1.0, "tm0": 1.0},
    {"q": 1.0, "l0": 1.0, "tm0": 1.5},
    {"q": math.inf, "l0": 1.0},
    {"q": 1.0, "l0": math.inf},
    {"q": 1.0, "l0": 1.0, "tm0": -math.inf},
    {"q": 1.0, "l0": 1.0, "tm0": math.nan},
    {"q": 1.0, "l0": 1.0, "delta": math.inf},
    {"q": True, "l0": 2.0},
    {"q": 1.0, "l0": "2.0"},
    {"q": 1.0, "l0": 2.0, "tm0": None},
    {"q": 1.0, "l0": 2.0, "delta": np.True_},
    {"q": 1.0, "l0": 2.0, "tm0": 0.5 + 0j},
]


@pytest.mark.parametrize("kwargs", INVALID_PARAMS)
def test_params_validation(kwargs):
    with pytest.raises(sr.InvalidParameters, match="|".join(kwargs)):
        sr.PhysicalParams(**kwargs)


#: The ways of making a checked record from its field values other than by
#: keyword, which test_params_validation covers; ``valid`` is a valid record
#: of the class.
PARAMS_BUILDERS = {
    "positional": lambda valid, values: type(valid)(*values),
    "_replace": lambda valid, values: valid._replace(**dict(zip(valid._fields, values))),
    "_make": lambda valid, values: type(valid)._make(iter(values)),
    # tuple.__new__ skips the checks; unpickling goes through __new__ and runs them
    "pickle": lambda valid, values: pickle.loads(
        pickle.dumps(tuple.__new__(type(valid), values))
    ),
}

#: Invalid values of the fields of the other two checked records, at least one per field.
INVALID_RECORDS = {
    f"{type(valid).__name__}-{'-'.join(kwargs)}-{i}": (valid, kwargs)
    for valid, cases in [
        (sr.GridSpec(), [{"n_space": 7}, {"n_space": 50.0}, {"n_time": 0}, {"n_time": True}]),
        (sr.OracleConfig(), [{"n_xi": 31}, {"n_xi": np.True_}, {"t0": 0.0}, {"t0": math.nan},
                             {"t_end": 0.1}, {"t_end": "1"}, {"dt": -1e-3}, {"dt": 1e-12},
                             {"seed_mode": "closed"}, {"s0": math.inf},
                             {"seed_mode": "linear_profile", "s0": 0.0}]),
    ]
    for i, kwargs in enumerate(cases)
}


@pytest.mark.parametrize("how", list(PARAMS_BUILDERS))
@pytest.mark.parametrize(
    "valid, kwargs",
    [(sr.PhysicalParams(1.0, 2.0), kwargs) for kwargs in INVALID_PARAMS]
    + list(INVALID_RECORDS.values()),
    ids=[f"kwargs{i}" for i in range(len(INVALID_PARAMS))] + list(INVALID_RECORDS),
)
def test_params_validation_on_every_construction(valid, kwargs, how):
    values = [{**valid._asdict(), **kwargs}[name] for name in valid._fields]
    with pytest.raises(sr.InvalidParameters, match="|".join(kwargs)):
        PARAMS_BUILDERS[how](valid, values)


@pytest.mark.parametrize("how", list(PARAMS_BUILDERS))
def test_params_valid_on_every_construction(how):
    for valid, values in [
        (sr.PhysicalParams(1.0, 2.0), (1.0, 1.0, 0.5, 1.0)),
        (sr.GridSpec(), (9, 2)),
        (sr.OracleConfig(), (64, 0.2, 0.5, 1e-3, "linear_profile", 0.1)),
    ]:
        record = PARAMS_BUILDERS[how](valid, values)
        assert type(record) is type(valid) and record == type(valid)(*values) == values


def test_params_record_semantics():
    """Immutable, with the frozen dataclass's repr and hash, and equal to its tuple."""
    p = sr.PhysicalParams(q=1.0, l0=1.0, tm0=0.5)
    for name in ("q", "delta", "other"):
        with pytest.raises(AttributeError):
            setattr(p, name, 2.0)
    assert repr(p) == "PhysicalParams(q=1.0, l0=1.0, tm0=0.5, delta=1.0)"
    assert hash(p) == hash((1.0, 1.0, 0.5, 1.0))
    assert p == (1.0, 1.0, 0.5, 1.0) and tuple(p) == (1.0, 1.0, 0.5, 1.0)
    assert sr.PhysicalParams(1.0, 2.0) == (1.0, 2.0, 0.0, 1.0)
    assert p._replace(tm0=0.25) == (1.0, 1.0, 0.25, 1.0) and p.tm0 == 0.5


def test_gamma_root_record(baseline_params):
    root = sr.solve_gamma(baseline_params)
    assert list(root._asdict()) == ["gamma", "residual", "bracket_lo", "bracket_hi", "iterations"]
    assert tuple(root._asdict().values()) == tuple(root)
    with pytest.raises(AttributeError):
        root.gamma = 0.5


def test_params_accept_numpy_and_int_values():
    p = sr.PhysicalParams(q=np.float64(1.5), l0=2, tm0=np.float32(0.25), delta=np.int64(1))
    assert (p.q, p.l0, p.tm0, p.delta) == (1.5, 2, 0.25, 1)


class _Float(float):
    pass


def test_params_check_types_beside_int_and_float():
    """Values of a type other than int and float, which are checked against
    numbers.Real, keep their verdicts and messages, and so does an int too
    large for a float."""
    with pytest.raises(sr.InvalidParameters, match=r"^tm0 must be a real number, got Decimal\('1'\)$"):
        sr.PhysicalParams(q=1.0, l0=2.0, tm0=Decimal("1"))
    p = sr.PhysicalParams(q=_Float(1.5), l0=Fraction(2), tm0=Fraction(1, 4))
    assert (p.q, p.l0, p.tm0, p.delta) == (1.5, 2, 0.25, 1.0)
    assert type(p.q) is _Float and type(p.l0) is Fraction
    with pytest.raises(sr.InvalidParameters, match=f"^q must be finite, got {10**399}0$"):
        sr.PhysicalParams(q=10**400, l0=1.0)


#: One value of each kind that _check_reals meets, on and off its int/float path.
CHECKED_VALUES = [1.5, -0.0, 2, 10**400, -(10**400), math.inf, math.nan, True, False, np.True_,
                  np.float64(1.5), np.float32(np.inf), np.int64(3), _Float(1.5), _Float(math.nan),
                  Fraction(3, 2), Fraction(10**400, 3), Decimal("1"), Decimal("nan"), "2.0",
                  None, 0.5 + 0j, [1.0]]


@pytest.mark.parametrize("value", CHECKED_VALUES, ids=range(len(CHECKED_VALUES)))
def test_check_reals_verdicts_match_numbers_real(value):
    """_check_reals refuses what isinstance(value, numbers.Real) refuses, and
    then what is not finite, word for word."""
    import numbers

    def expected():
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            return f"x must be a real number, got {value!r}"
        try:
            return None if math.isfinite(value) else f"x must be finite, got {value}"
        except OverflowError:
            return f"x must be finite, got {value}"

    try:
        _check_reals(types.SimpleNamespace(x=value), ("x",))
        got = None
    except sr.InvalidParameters as exc:
        got = str(exc)
    assert got == expected()


class TestTemperature:
    def test_face_value(self, baseline_field):
        # T(0,t) = 2*A*sqrt(t): erf(0)=0 collapses the closed form
        for t in (0.25, 1.0, 4.0):
            assert baseline_field.temperature(0.0, t) == pytest.approx(
                2.0 * baseline_field.amplitude * math.sqrt(t), rel=1e-14
            )

    def test_melt_value_on_front(self, baseline_field):
        p = baseline_field.params
        for t in (0.25, 1.0, 4.0):
            s = baseline_field.free_boundary(t)
            tm = p.tm0 * math.sqrt(t)
            assert abs(baseline_field.temperature(s, t) - tm) <= 1e-11 * (1 + abs(tm))

    def test_domain_errors(self, baseline_field):
        s = baseline_field.free_boundary(1.0)
        with pytest.raises(sr.DomainError):
            baseline_field.temperature(1.5 * s, 1.0)
        with pytest.raises(sr.DomainError):
            baseline_field.temperature(-0.1 * s, 1.0)
        with pytest.raises(sr.DomainError):
            baseline_field.temperature(0.1, 0.0)
        # the unchecked profile extends the closed form smoothly
        assert np.isfinite(baseline_field.profile(1.01 * s, 1.0)[0])

    def test_profile_is_the_checked_evaluators(self, baseline_field):
        """Inside the domain the profile's T and T_y are temperature and its gradient."""
        for t in (0.25, 1.0, 4.0):
            y = np.linspace(0.0, baseline_field.free_boundary(t), 9)
            temp, grad, eta, erf_eta, gauss = baseline_field.profile(y, t)
            assert np.array_equal(temp, baseline_field.temperature(y, t))
            assert np.array_equal(grad, baseline_field.temperature_gradient(y, t))
            assert np.array_equal(eta, y / (2.0 * math.sqrt(t)))
            assert np.allclose(erf_eta, [math.erf(v) for v in eta], rtol=1e-15, atol=0)
            assert np.allclose(gauss, np.exp(-eta * eta), rtol=1e-15, atol=0)

    def test_self_similarity(self, baseline_field):
        fracs = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        profiles = []
        for t in (0.25, 1.0, 4.0):
            y = fracs * baseline_field.free_boundary(t)
            profiles.append(baseline_field.temperature(y, t) / math.sqrt(t))
        for other in profiles[1:]:
            assert np.max(np.abs(other - profiles[0])) <= 1e-12 * np.max(
                np.abs(profiles[0])
            )


class TestGradient:
    def test_face_flux(self, baseline_field):
        for t in (0.25, 1.0, 4.0):
            grad = baseline_field.temperature_gradient(0.0, t)
            assert abs(grad + baseline_field.params.q) <= 1e-11 * baseline_field.params.q

    def test_front_flux(self, baseline_field):
        p = baseline_field.params
        g = baseline_field.gamma.gamma
        for t in (0.25, 1.0, 4.0):
            s = baseline_field.free_boundary(t)
            grad = baseline_field.temperature_gradient(s, t)
            assert abs(grad + p.l0 * g) <= 1e-11 * p.l0

    def test_matches_central_difference(self, baseline_field):
        t = 1.0
        y = baseline_field.gamma.gamma * math.sqrt(t)
        h = 1e-6 * math.sqrt(t)
        fd = (
            baseline_field.temperature(y + h, t) - baseline_field.temperature(y - h, t)
        ) / (2 * h)
        exact = baseline_field.temperature_gradient(y, t)
        assert fd == pytest.approx(exact, rel=1e-8)

    def test_difference_convergence_order(self, baseline_field):
        """Second-order agreement, measured where truncation still dominates.

        The h=1e-5 point sits at the double-precision cancellation floor
        (~1e-11 absolute), so the order is taken from the coarser pair and
        the finest level is only required to keep decreasing.
        """
        t = 1.0
        s = baseline_field.free_boundary(t)
        y = np.linspace(0.05, 0.95, 19) * s
        errs = []
        for h_rel in (1e-3, 1e-4, 1e-5):
            h = h_rel * math.sqrt(t)
            fd = (
                baseline_field.temperature(y + h, t)
                - baseline_field.temperature(y - h, t)
            ) / (2 * h)
            errs.append(
                np.max(np.abs(fd - baseline_field.temperature_gradient(y, t)))
            )
        order = math.log10(errs[0] / errs[1])
        assert order >= 1.9
        assert errs[0] > errs[1] > errs[2]


class TestFreeBoundary:
    def test_values_and_scaling(self, baseline_field):
        g = baseline_field.gamma.gamma
        assert baseline_field.free_boundary(0.0) == 0.0
        assert baseline_field.free_boundary(1.0) == pytest.approx(2 * g, rel=1e-15)
        assert baseline_field.free_boundary(4.0) == pytest.approx(
            2 * baseline_field.free_boundary(1.0), rel=1e-15
        )

    def test_negative_time(self, baseline_field):
        with pytest.raises(sr.DomainError):
            baseline_field.free_boundary(-1.0)


class TestPhysicalCondition:
    def test_solved_root_satisfies(self, baseline_params, baseline_field):
        assert sr.physical_margin(baseline_params, baseline_field.gamma.gamma) > 0.0

    def test_margin_regression(self, baseline_params, baseline_field):
        margin = sr.physical_margin(baseline_params, baseline_field.gamma.gamma)
        assert margin == pytest.approx(MARGIN_BASELINE, abs=2e-12)

    def test_endpoint_fails_for_positive_tm0(self, baseline_params):
        artificial = baseline_params.q / baseline_params.l0
        assert not sr.physical_margin(baseline_params, artificial) > 0.0


@settings(max_examples=40, deadline=None)
@given(
    q=st.floats(0.2, 5.0),
    l0=st.floats(0.2, 5.0),
    tm0_frac=st.floats(0.0, 0.9),
)
def test_gamma_properties_random_params(q, l0, tm0_frac):
    params = sr.PhysicalParams(q=q, l0=l0, tm0=tm0_frac * l0)
    root = sr.solve_gamma(params)
    assert 0.0 < root.gamma < q / l0
    assert root.residual <= 1e-10 * max(1.0, q)
    assert sr.physical_margin(params, root.gamma) > 0.0
    field = sr.StefanField.from_params(params)
    t = 1.7
    s = field.free_boundary(t)
    tm = params.tm0 * math.sqrt(t)
    assert abs(field.temperature(s, t) - tm) <= 1e-10 * (1.0 + abs(tm))
    assert abs(field.temperature_gradient(0.0, t) + q) <= 1e-10 * q
