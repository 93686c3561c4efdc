import gc
import json
import logging
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import logcoef
from logcoef import atlas, verify
from logcoef import series as series_mod
from logcoef.atlas import fz_series
from logcoef.cli import main
from logcoef.dilog import PI2_6, li2
from logcoef.search import _exact_u_chunk, _trim
from logcoef.series import SeriesError, TruncatedSeries, ts_log
from logcoef.verify import (
    LogCoeffProfile,
    VerifyError,
    convex_order_profile,
    f0_weighted_l2_closed_tail,
    f1_l2_alternating_route,
    flambda_l2_closed_tail,
    g_class_bounds,
    gamma_l2,
    glambda_l2_closed_tail,
    li2_tail,
    log_coefficients,
    run_suite,
    sharpness_terms,
    starlike_order,
    ulambda_l2_bound,
)
from series_references import (
    K_ALPHAS,
    SERIES_RTOL,
    certified_batch,
    check_series,
    deleted_g_kernel,
    division_bound,
    mp_g_kernel,
    rel_err,
)


def closed_form_profile(spec, order):
    """Profile from the closed forms, or None if the spec lacks them."""
    vals = [atlas.gamma_closed_form(spec, n) for n in range(1, order + 1)]
    if any(v is None for v in vals):
        return None
    g = np.array(vals, dtype=np.complex128)
    g.flags.writeable = False
    return LogCoeffProfile(gammas=g, source="closed_form", spec=spec)


class TestLogCoefficients:
    def test_koebe(self):
        prof = log_coefficients(atlas.koebe(0.0), 5)
        np.testing.assert_allclose(
            prof.gammas.real, [1, 1 / 2, 1 / 3, 1 / 4, 1 / 5], atol=1e-14
        )
        assert prof.source == "parts"

    def test_g_lambda(self):
        prof = log_coefficients(atlas.g_lambda(0.5), 2)
        np.testing.assert_allclose(prof.gammas.real, [0.75, 0.3125], atol=1e-14)

    def test_f0(self):
        prof = log_coefficients(atlas.f0(), 3)
        np.testing.assert_allclose(
            prof.gammas.real, [-1 / 4, -1 / 16, -1 / 48], atol=1e-15
        )

    def test_closed_form_profile(self):
        prof = closed_form_profile(atlas.half_plane(), 6)
        assert prof.source == "closed_form"
        np.testing.assert_allclose(
            prof.gammas.real, 1.0 / (2 * np.arange(1, 7)), atol=1e-16
        )
        assert closed_form_profile(atlas.k_alpha(0.3), 4) is None


SRC = Path(__file__).resolve().parent.parent / "src"

# (spec, bound on max |gamma_n - closed form| over n <= 4096): four times
# the error measured on the spec's route, rounded up, and 0 where the route
# is exact (integer or half taps; g_family's leading index).  The series log
# that the parts route replaced missed by 1.9e-9 at koebe(theta=1.234),
# 9.3e-10 at theta = -0.7, and 2.4e-12 at koebe(0) and g_lambda(1).
GAMMA_GATE = [
    ("koebe(theta=0.0)", 0.0),
    ("koebe(theta=1.234)", 8e-12),
    ("koebe(theta=-0.7)", 2e-12),
    ("koebe(theta=3.0)", 1.5e-11),
    ("g_lambda(lambda=0.5)", 1e-16),
    ("g_lambda(lambda=0.9)", 3e-15),
    ("g_lambda(lambda=1.0)", 0.0),
    ("f_lambda(lambda=0.5)", 5e-16),
    ("f_lambda(lambda=0.9)", 6e-15),
    ("f_lambda(lambda=1.0)", 2.5e-14),
    ("f0()", 0.0),
    ("f1()", 2.5e-14),
    ("half_plane()", 0.0),
    ("g_family(n=2)", 0.0),
    ("g_family(n=5)", 0.0),
    ("g_family(n=257)", 0.0),
]

# f/z = A/B with both parts of degree 2, and an exact_u f whose z/f has
# degree 9 and its nearest zero at |z| = 1.048
PARTS_AGAINST_SERIES_LOG = [
    "rational(num=[0,1,0.25-0.5i], den=[1,-0.6+0.3i,0.2i])",
    "exact_u(lambda=0.6, a2=-0.59-0.18i, psi=[0.14-0.22i,-0.35+0.32i,0.04+0.3i,"
    "-0.18-0.39i,0.3+0.17i,-0.35-0.4i,0.14,0.3-0.05i])",
]

# one spec of each kind with rational parts
PARTS_SPECS = [
    "koebe(theta=1.2)",
    "g_lambda(lambda=0.5)",
    "f_lambda(lambda=0.5)",
    "f0()",
    "f1()",
    "half_plane()",
    "rational(num=[0,1,0.5], den=[1,-0.25])",
    "schwarz_superset(lambda=0.5, omega=[0.5,0.25i])",
    "exact_u(lambda=0.5, a2=0.8, psi=[0.3,-0.4])",
]


class TestLogCoefficientRoutes:
    @pytest.mark.parametrize("text,bound", GAMMA_GATE)
    def test_closed_form_gate(self, text, bound):
        spec = atlas.parse_spec(text)
        gammas = log_coefficients(spec, 4096).gammas
        ns = [spec.n] if spec.kind == "g_family" else range(1, 4097)
        err = max(abs(gammas[n - 1] - atlas.gamma_closed_form(spec, n)) for n in ns)
        assert err <= bound

    @pytest.mark.parametrize("text", PARTS_AGAINST_SERIES_LOG)
    def test_parts_route_agrees_with_the_series_log(self, text):
        spec = atlas.parse_spec(text)
        prof = log_coefficients(spec, 4096)
        series_log = 0.5 * ts_log(fz_series(spec, 4096)).coeffs[1:]
        assert prof.source == "parts"
        assert np.max(np.abs(prof.gammas - series_log)) <= 1e-12

    @pytest.mark.parametrize("text", PARTS_SPECS)
    def test_parts_route_takes_no_series_log_or_reciprocal(self, monkeypatch, text):
        sizes = {"log_raw": [], "reciprocal_raw": []}
        for name in sizes:

            def recording(a, name=name, kernel=getattr(series_mod, name)):
                sizes[name].append(a.size)
                return kernel(a)

            monkeypatch.setattr(series_mod, name, recording)
        prof = log_coefficients(atlas.parse_spec(text), 512)
        assert prof.source == "parts"
        # the 2 gamma_1 = a_2 check reads the order-1 series of f/z, a
        # 2-term reciprocal for a kind with no series of its own
        assert sizes["log_raw"] == []
        assert all(size <= 2 for size in sizes["reciprocal_raw"])

    def test_parts_route_bits_do_not_depend_on_the_blas_kernel(self):
        # power_sums calls no BLAS, so the suite's rational profiles keep
        # their bytes under any OpenBLAS core type (the series log's BLAS
        # dots do not)
        code = (
            "import hashlib, sys\n"
            "from logcoef import atlas, verify\n"
            "h = hashlib.sha256()\n"
            "for text in sys.argv[1:]:\n"
            "    spec = atlas.parse_spec(text)\n"
            "    h.update(verify.log_coefficients(spec, 4096).gammas.tobytes())\n"
            "print(h.hexdigest())\n"
        )
        specs = [text for text, _ in GAMMA_GATE if "g_family" not in text]
        env = dict(os.environ)
        env.pop("OPENBLAS_CORETYPE", None)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        digests = set()
        for coretype in (None, "Prescott", "Haswell"):
            extra = {} if coretype is None else {"OPENBLAS_CORETYPE": coretype}
            proc = subprocess.run(
                [sys.executable, "-c", code, *specs, *PARTS_AGAINST_SERIES_LOG],
                env={**env, **extra},
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            digests.add(proc.stdout)
        assert len(digests) == 1

    def test_overflow_is_a_series_error(self):
        # z/f has a zero of modulus 0.32, so gamma_n grows like 3.1^n
        spec = atlas.parse_spec("exact_u(lambda=0.5, a2=3, psi=[0.5])")
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SeriesError, match="^non-finite coefficient$"):
                log_coefficients(spec, 1000)

    @pytest.mark.parametrize("n", [2, 3, 6, 100])
    def test_g_family_log_is_taken_in_z_to_the_n(self, n):
        spec = atlas.g_family(n)
        prof = log_coefficients(spec, 1024)
        full = 0.5 * ts_log(fz_series(spec, 1024)).coeffs[1:]
        assert prof.source == "series"
        assert prof.gammas.dtype == np.complex128
        assert np.all(prof.gammas[np.arange(1, 1025) % n != 0] == 0.0)
        assert np.max(np.abs(prof.gammas - full)) <= 1e-18

    def test_series_route_refuses_a_complex_series(self, monkeypatch):
        # the series log and G_alpha's division run in float64, so a series
        # with any nonzero imaginary part is refused, not truncated
        real = atlas.fz_series

        def tilted(spec, order):
            c = real(spec, order).coeffs
            return TruncatedSeries(c + 1e-300j * np.arange(c.size))

        monkeypatch.setattr(atlas, "fz_series", tilted)
        with pytest.raises(VerifyError, match="nonzero imaginary part"):
            log_coefficients(atlas.k_alpha(0.25), 300)
        with pytest.raises(VerifyError, match="nonzero imaginary part"):
            convex_order_profile(0.25, 300)

    def test_g_family_1_takes_f0s_parts(self):
        # f' = 1 - z makes g_family(1) the function f0
        prof = log_coefficients(atlas.g_family(1), 4096)
        assert prof.source == "parts"
        assert prof.gammas.tobytes() == log_coefficients(atlas.f0(), 4096).gammas.tobytes()


class TestGammaL2:
    def test_koebe_converges_from_below(self):
        values = []
        for order in (16, 32, 64, 128):
            prof = log_coefficients(atlas.koebe(0.0), order)
            values.append(gamma_l2(prof).value)
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(v < PI2_6 for v in values)
        assert values[-1] + 2.0 / 128 > PI2_6

    def test_generic_tail_bound(self):
        prof = log_coefficients(atlas.koebe(0.0), 50)
        s = gamma_l2(prof)
        assert s.tail_bound == pytest.approx(1.0 / 50)
        # actual tail is below the generic bound
        assert PI2_6 - s.value <= s.tail_bound

    def test_f0_weighted_equals_one_twelfth(self):
        prof = log_coefficients(atlas.f0(), 40)
        s = gamma_l2(prof, "n_squared")
        assert s.tail_bound is None
        total = s.value + f0_weighted_l2_closed_tail(40)
        assert abs(total - 1.0 / 12.0) <= 1e-12

    def test_half_plane_limit(self):
        prof = log_coefficients(atlas.half_plane(), 256)
        s = gamma_l2(prof)
        assert abs(s.value + 0.25 * li2_tail(1.0, 256) - PI2_6 / 4) <= 1e-12

    def test_unknown_weights(self):
        prof = log_coefficients(atlas.f0(), 4)
        with pytest.raises(VerifyError):
            gamma_l2(prof, "cubed")


def sum_outcome(total, x):
    """total(x) as float.hex, or the type and message of what it raised."""
    try:
        value = total(x)
    except (ValueError, OverflowError) as err:
        return type(err).__name__, str(err)
    assert type(value) is float
    return value.hex()


def fsum_of_list(x):
    return math.fsum(x.tolist())


@st.composite
def spread_arrays(draw):
    """Up to 5,000 doubles with magnitudes between 10^lo and 10^hi,
    -300 <= lo <= hi <= 300: all positive, all negative or mixed signs,
    with a share of subnormals and signed zeros mixed in."""
    n = draw(st.integers(0, 5000))
    lo = draw(st.integers(-300, 300))
    hi = draw(st.integers(lo, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    exps = rng.integers(math.floor(lo * 3.33), math.ceil(hi * 3.33) + 1, n)
    x = np.ldexp(1.0 + rng.random(n), exps)
    sign = draw(st.sampled_from(["+", "-", "mixed"]))
    if sign != "+":
        x = -x if sign == "-" else x * rng.choice([-1.0, 1.0], n)
    odd = rng.random(n) < draw(st.sampled_from([0.0, 0.01, 0.5]))
    x[odd] = rng.choice([-1, 1], odd.sum()) * rng.integers(0, 2**52, odd.sum()) * 2.0**-1074
    x[rng.random(n) < 0.01] = -0.0
    return x


_CUT = verify._WIDE_SUMS_MIN_TERMS  # the shortest sum the long double route takes


class TestExactSum:
    """verify._exact_sum returns math.fsum(x.tolist()) bit for bit, with
    its exceptions."""

    @given(spread_arrays())
    @settings(max_examples=150, deadline=None)
    def test_equals_fsum_across_magnitudes(self, x):
        assert sum_outcome(verify._exact_sum, x) == sum_outcome(fsum_of_list, x)

    @given(
        hnp.arrays(
            np.float64,
            st.integers(0, _CUT + 48),
            elements=st.floats(width=64),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_fsum_on_any_doubles(self, x):
        # infinities, nans, overflowing sums and inf + -inf included
        assert sum_outcome(verify._exact_sum, x) == sum_outcome(fsum_of_list, x)

    @pytest.mark.parametrize("n", [1, 127, 128, 129, _CUT - 1, _CUT, _CUT + 1, 4097])
    def test_negative_zeros_sum_to_positive_zero(self, n):
        assert verify._exact_sum(np.full(n, -0.0)).hex() == "0x0.0p+0"

    @pytest.mark.parametrize("n", [0, 1, 127, 128, 129, _CUT - 1, _CUT, _CUT + 1, 4097])
    def test_lengths_around_the_threshold(self, n):
        rng = np.random.default_rng(n)
        for x in (rng.random(n), rng.standard_normal(n), 1.0 / np.arange(1.0, n + 1) ** 2):
            assert sum_outcome(verify._exact_sum, x) == sum_outcome(fsum_of_list, x)

    @pytest.mark.parametrize(
        "head,expected",
        [
            # 1 + 2^-53 is the midpoint between 1 and 1 + 2^-52: fsum rounds
            # it to even, and 2^-100 above it up, while the long double sum,
            # which drops 2^-100, sits on the midpoint in both cases
            ([1.0, 2**-53], 1.0),
            ([1.0, 2**-53, 2**-100], 1.0 + 2**-52),
            # 2^66 + 5 rounds to 2^66 + 8 in long double: the error is
            # bounded by sum |x|, not by the sum
            ([2.0**66, 5.0, -(2.0**66)], 5.0),
        ],
    )
    def test_undecided_sums_reach_fsum(self, monkeypatch, head, expected):
        calls = []

        def recording(values):
            calls.append(len(values))
            return fsum(values)

        fsum = math.fsum
        monkeypatch.setattr(math, "fsum", recording)
        x = np.array(head + [0.0] * _CUT)
        assert verify._exact_sum(x) == expected
        assert calls == [x.size]

    def test_inf_minus_inf_raises_as_fsum_does(self):
        x = np.concatenate([np.ones(_CUT), [math.inf, -math.inf]])
        with pytest.raises(ValueError, match=r"-inf \+ inf in fsum"):
            verify._exact_sum(x)
        assert math.isnan(verify._exact_sum(np.append(np.ones(_CUT), math.nan)))
        assert verify._exact_sum(np.append(np.ones(_CUT), -math.inf)) == -math.inf

    @pytest.mark.skipif(not verify._WIDE_SUMS, reason="no 64-bit-significand long double")
    def test_long_double_route_decides_suite_sums(self, monkeypatch):
        # on a platform that passes the probe, most long sums never reach fsum
        calls = []
        fsum = math.fsum
        monkeypatch.setattr(math, "fsum", lambda v: calls.append(len(v)) or fsum(v))
        for n in (_CUT, 2048, 4096):
            x = 1.0 / np.arange(1.0, n + 1) ** 2
            rng = np.random.default_rng(n)
            for y in (x, x * rng.random(n), rng.random(n)):
                assert verify._exact_sum(y) == fsum(y.tolist())
        assert len(calls) <= 2


@pytest.mark.golden
@pytest.mark.parametrize(
    "argv",
    [
        ("--order", "128"),
        ("--order", "2048"),
        ("--lambda-grid", "0.5", "--alpha-grid", "0.0,0.5,0.37765"),
    ],
    ids=["default-128", "default-2048", "alpha-anchors"],
)
def test_long_double_sums_give_the_fallback_reports(capsys, monkeypatch, argv):
    """The verify report is the same byte for byte with the long double
    route on (where the platform has it) and with every sum left to fsum."""
    reports = []
    for wide in (verify._WIDE_SUMS, False):
        monkeypatch.setattr(verify, "_WIDE_SUMS", wide)
        assert main(["verify", *argv]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


def mp_li2_tail(x, order):
    """sum_{n > N} x^n / n^2 at 30 digits."""
    first = order + 1
    with mpmath.workdps(30):
        if x == 1.0:
            return mpmath.zeta(2, first)
        x = mpmath.mpf(x)
        if abs(x) > 0.99:
            return x**first * mpmath.lerchphi(x, 2, first)
        total, power, n = mpmath.mpf(0), x**first, first
        while True:
            term = power / (n * n)
            total += term
            if abs(term) <= 1e-33 * (1 - abs(x)) * abs(total):
                return total
            power *= x
            n += 1


def li2_tail_bound(x):
    """li2_tail's stated relative error for x, in units of 2^-53."""
    t = abs(x)
    if x == 1.0:
        return 4.5
    if x > 0:
        return 6.0 + t / (1.0 - t)
    return 2.0 + (4.0 - 3.0 * t) / (1.0 - t) ** 3


def recorded_tail_arguments(*suite_args):
    """Every x that run_suite(*suite_args) passes to li2_tail."""
    xs = set()
    real = verify.li2_tail

    def recording(x, order):
        xs.add(x)
        return real(x, order)

    verify.li2_tail = recording
    try:
        run_suite(*suite_args)
    finally:
        verify.li2_tail = real
    return xs


def suite_tail_arguments():
    """Every x the default grids pass to li2_tail at order 128."""
    return sorted(recorded_tail_arguments(
        verify.DEFAULT_LAMBDA_GRID, verify.DEFAULT_ALPHA_GRID, 128
    ))


class TestLi2Tail:
    ORDERS = (0, 1, 127, 128, 1024, 4096)

    @pytest.mark.parametrize("x", suite_tail_arguments())
    def test_within_the_stated_error(self, x):
        for order in self.ORDERS:
            got, want = li2_tail(x, order), mp_li2_tail(x, order)
            err = abs(mpmath.mpf(got) - want)
            if abs(want) < 2.0**-1022:
                # subnormal: (L + 1) 2^-1074 absolute, L <= 4096 here
                assert err <= 4097 * 2.0**-1074, (x, order, got)
            else:
                assert err <= li2_tail_bound(x) * 2.0**-53 * abs(want), (x, order, got)

    def test_a_tail_below_one_ulp_of_li2_is_not_zero(self):
        # the true value is 2.7e-28, far below one ulp of Li2(0.95) = 1.38
        got = li2_tail(0.95, 1024)
        assert got > 0.0
        assert abs(mpmath.mpf(got) / mp_li2_tail(0.95, 1024) - 1) <= 30 * 2.0**-53

    @pytest.mark.parametrize("x", [0.999, -0.9995])
    def test_fallback_near_one(self, x):
        # L > max(N, 4096) here: Li2(x) minus the partial sum, within li2's
        # est_error plus (ln N + 7) u absolute
        for order in (0, 1, 128, 1024, 4096):
            bound = li2(x).est_error + (math.log(max(order, 1)) + 7) * 2.0**-53
            assert abs(mpmath.mpf(li2_tail(x, order)) - mp_li2_tail(x, order)) <= bound

    def test_edge_arguments(self):
        assert li2_tail(0.0, 10) == 0.0
        for x in (1.5, -1.0, -1.0000001, float("nan")):
            with pytest.raises(ValueError, match=r"outside \(-1, 1\]"):
                li2_tail(x, 10)
        assert li2_tail(0.5, -3) == li2_tail(0.5, 0)
        assert li2_tail(0.5, 10**200) == li2_tail(-0.5, 10**200) == 0.0
        assert abs(li2_tail(1.0, 0) - PI2_6) <= 4.5 * 2.0**-53 * PI2_6
        # x = 1 at orders across the switch to the asymptotic series
        for order in (62, 63, 64, 65, 10**6, 10**12):
            want = mp_li2_tail(1.0, order)
            err = abs(mpmath.mpf(li2_tail(1.0, order)) - want)
            assert err <= li2_tail_bound(1.0) * 2.0**-53 * abs(want), order

    def test_suite_arguments_stay_in_the_summed_range(self):
        # the tails are checked against their stated errors only on
        # [-1/2, 1]; a row needing x < -1/2 must fail here by name
        lambdas = (1e-300, 0.01, 0.5, 0.989, 0.995, 1 - 1e-12, 1.0)
        xs = recorded_tail_arguments(lambdas, (0.0, 0.5, 1.0), 128)
        assert xs and all(-0.5 <= x <= 1.0 for x in xs), sorted(xs)

    def test_near_one_rows_through_the_suite(self):
        # t > 0.989 takes the Li2-minus-partial-sum fallback inside the rows
        rows = run_suite([0.989, 0.995, 0.999999, 1 - 1e-12], [1.0], 128)
        want = {
            "log_l2_sharp_ulambda": "equality",
            "log_l2_ulambda_counterexample": "holds",
        }
        checked = [r for r in rows if r.name in want]
        assert len(checked) == 8
        for r in checked:
            assert (r.status, r.route) == (want[r.name], "closed_form"), r
            if r.status == "equality":
                assert abs(r.slack) <= 1e-12, r


# the orders at which the run-level reuse is checked against the routes it
# replaces
REUSE_ORDERS = (1, 2, 40, 128, 129, 300, 1024, 2048, 2600, 3001, 4096)


def recorded_tails(monkeypatch, order):
    """Every (x, N) that the default suite at `order` passes to li2_tail."""
    pairs = set()
    real = verify.li2_tail

    def recording(x, n):
        pairs.add((x, n))
        return real(x, n)

    with monkeypatch.context() as m:
        m.setattr(verify, "li2_tail", recording)
        run_suite(order=order)
    return pairs


class TestZeroTail:
    """li2_tail returns 0.0 unsummed where its bound t^(N+1) / ((N+1)^2
    (1 - t)) rounds to 0; that is the summing route's float."""

    @staticmethod
    def routes(monkeypatch, x, order):
        """li2_tail(x, order) with and without the zero route, and whether
        the zero route took it (no sum was formed)."""
        sums, real = [], verify._exact_sum
        with monkeypatch.context() as m:
            m.setattr(verify, "_exact_sum", lambda a: sums.append(a) or real(a))
            got = li2_tail(x, order)
            zero = not sums
            m.setattr(verify, "_ZERO_TAIL", 0.0)
            summed = li2_tail(x, order)
        return got, summed, zero

    def test_every_suite_tail(self, monkeypatch):
        zeros = 0
        for order in REUSE_ORDERS:
            for x, n in recorded_tails(monkeypatch, order):
                got, summed, zero = self.routes(monkeypatch, x, n)
                assert got.hex() == summed.hex(), (x, n)
                zeros += zero
        assert zeros >= 45  # 45 of the 47 distinct tails at order 4096 alone

    @pytest.mark.parametrize(
        "x", [0.98, 0.81, 0.5, 0.25, 0.01, 1e-160, -1e-200, -1e-3, -0.5]
    )
    def test_both_sides_of_the_cut(self, monkeypatch, x):
        t = abs(x)
        first = 1
        while t**first / ((1.0 - t) * first * first) > 0.0:
            first += 1
        cut = first - 1  # the lowest order that takes the zero route
        for order in range(max(cut - 3, 0), cut + 4):
            got, summed, zero = self.routes(monkeypatch, x, order)
            assert got.hex() == summed.hex(), order
            assert zero == (order >= cut), order


class TestSharpBound:
    def test_at_one(self):
        assert ulambda_l2_bound(1.0) == pytest.approx(PI2_6, abs=1e-12)

    def test_small_lambda_limit(self):
        assert ulambda_l2_bound(1e-12) == pytest.approx(PI2_6 / 4, abs=1e-11)

    def test_at_half(self):
        assert ulambda_l2_bound(0.5) == pytest.approx(0.769266939715246, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(VerifyError):
            ulambda_l2_bound(0.0)

    @pytest.mark.parametrize("lam", [0.25, 0.5, 0.75, 1.0])
    def test_equality_family_attains_it(self, lam):
        prof = log_coefficients(atlas.g_lambda(lam), 128)
        total = gamma_l2(prof).value + glambda_l2_closed_tail(lam, 128)
        assert abs(total - ulambda_l2_bound(lam)) <= 1e-9

    @pytest.mark.parametrize("lam", [0.25, 0.5, 0.75, 1.0])
    def test_counterexample_family_strictly_below(self, lam):
        prof = log_coefficients(atlas.f_lambda(lam), 128)
        total = gamma_l2(prof).value + flambda_l2_closed_tail(lam, 128)
        gap = sharpness_terms(lam, 0.0).gap
        assert total < ulambda_l2_bound(lam)
        # the deficit equals gap/4 (how the sharpness analysis measures it)
        assert abs((ulambda_l2_bound(lam) - total) + gap / 4.0) <= 1e-9


class TestSharpnessTerms:
    def test_gap_at_one(self):
        st = sharpness_terms(1.0, 0.0)
        assert st.gap == pytest.approx(-1.5260041886118523, abs=1e-12)

    def test_kernel_values(self):
        assert sharpness_terms(0.5, 1.0).kernel == pytest.approx(1.0, abs=1e-15)
        for lam in (0.2, 0.5, 0.9):
            assert sharpness_terms(lam, 0.0).kernel == pytest.approx(
                (1 + lam) ** 3, abs=1e-13
            )

    def test_gap_negative_on_fine_grid(self):
        for k in range(1, 101):
            lam = k / 100.0
            assert sharpness_terms(lam, 0.0).gap < -1e-6

    def test_kernel_decreasing_in_t(self):
        for lam in (0.1, 0.5, 0.9, 1.0):
            vals = [sharpness_terms(lam, t / 20).kernel for t in range(21)]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_integral_representation_of_gap(self):
        # gap = -2 lam * integral_0^1 integrand(lam, t) log(1/t) dt
        from quadrature import _adaptive_midpoint, _midpoint_refined

        lam = 0.7

        def g(t):
            return sharpness_terms(lam, t).integrand * math.log(1.0 / t)

        body = _adaptive_midpoint(g, 1e-12, 1.0, 1e-10, 0, _midpoint_refined(g, 1e-12, 1.0))
        assert sharpness_terms(lam, 0.0).gap == pytest.approx(
            -2.0 * lam * body, abs=1e-8
        )

    def test_lambda_block_takes_the_gap_once(self, monkeypatch):
        # the gap does not depend on t: one sharpness_terms call per lambda
        # block, and the t rows keep its integrand and kernel bit for bit
        calls = []
        monkeypatch.setattr(
            verify, "sharpness_terms", lambda lam, t: calls.append(t) or sharpness_terms(lam, t)
        )
        rows = verify._lambda_rows(0.7, 64)
        assert calls == [0.0]
        assert [row.rhs for row in rows[3:]] == [
            value
            for t in verify._SUITE_T_GRID
            for value in (sharpness_terms(0.7, t).integrand, sharpness_terms(0.7, t).kernel)
        ]

    def test_domain_errors(self):
        with pytest.raises(VerifyError):
            sharpness_terms(0.0, 0.5)
        with pytest.raises(VerifyError):
            sharpness_terms(0.5, 1.5)


class TestGClassBounds:
    def test_alpha_one(self):
        b = g_class_bounds(1.0)
        assert b.weighted_l2 == pytest.approx(1.0 / 12.0, abs=1e-15)
        assert b.coeff_factor == pytest.approx(0.25, abs=1e-15)
        assert b.plain_l2 == pytest.approx(0.25 * li2(0.25).value, abs=1e-14)

    def test_alpha_half(self):
        b = g_class_bounds(0.5)
        assert b.weighted_l2 == pytest.approx(0.05, abs=1e-15)
        assert b.coeff_factor == pytest.approx(1.0 / 6.0, abs=1e-15)
        assert b.plain_l2 == pytest.approx(li2(4.0 / 9.0).value / 16.0, abs=1e-14)

    def test_degenerate_limit(self):
        b = g_class_bounds(1e-9)
        assert max(b.weighted_l2, b.coeff_factor, b.plain_l2) < 1e-8


class TestStarlikeOrder:
    def test_anchors(self):
        assert starlike_order(0.0) == 0.5
        assert starlike_order(0.5) == pytest.approx(1.0 / (2 * math.log(2)), abs=1e-15)

    def test_branch_continuity(self):
        target = 1.0 / (2 * math.log(2))
        assert abs(starlike_order(0.4999999) - target) < 1e-6
        assert abs(starlike_order(0.5000001) - target) < 1e-6

    def test_increasing_in_alpha(self):
        vals = [starlike_order(a / 20) for a in range(20)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("alpha", [1.0, -0.1])
    @pytest.mark.parametrize(
        "order",
        [starlike_order, logcoef.starlike_order, atlas.starlike_order],
        ids=["verify", "logcoef", "atlas"],
    )
    def test_out_of_range_alpha_raises(self, order, alpha):
        # one function under every name: verify's is atlas's
        assert order is atlas.starlike_order
        with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\)"):
            order(alpha)


class TestConvexOrderProfile:
    def test_alpha_zero_all_ones(self):
        p = convex_order_profile(0.0, 64)
        assert np.max(np.abs(p.delta - 1.0)) < 1e-13
        assert p.beta == 0.5
        # (1/4) sum 1/n^2 -> pi^2/24
        assert p.gamma_l2 + 0.25 * li2_tail(1.0, 64) == pytest.approx(
            PI2_6 / 4, abs=1e-12
        )

    def test_alpha_half_leading_delta(self):
        p = convex_order_profile(0.5, 8)
        assert p.delta[0] == pytest.approx(0.5, abs=1e-14)

    def test_delta_continuous_at_alpha_half(self):
        a = convex_order_profile(0.5, 32).delta
        b = convex_order_profile(0.5 + 1e-9, 32).delta
        assert np.max(np.abs(a - b)) < 1e-7

    def test_delta_bound(self):
        for alpha in (0.0, 0.25, 0.5, 0.75, 0.9):
            p = convex_order_profile(alpha, 128)
            assert np.max(np.abs(p.delta)) <= 2.0 * (1.0 - p.beta) + 1e-9

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.75])
    def test_kernel_attains_first_inequality(self, alpha):
        p = convex_order_profile(alpha, 128)
        prof = log_coefficients(atlas.k_alpha(alpha), 128)
        assert abs(gamma_l2(prof).value - p.gamma_l2) <= 1e-10

    def test_deltas_real(self):
        p = convex_order_profile(0.3, 40)
        assert p.delta.dtype == np.float64

    @pytest.mark.parametrize("order", [0, -1])
    def test_order_below_one_is_an_error(self, order, monkeypatch):
        # refused before any series is built
        monkeypatch.setattr(atlas, "fz_series", None)
        with pytest.raises(VerifyError, match="order must be >= 1"):
            convex_order_profile(0.25, order)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_division_within_its_bound_past_one_block(self, alpha):
        # G_alpha = K'/(K/z) from divide_raw at an order past one block,
        # term by term within the division bound of the 30-digit kernel
        # (which divides the exact K/z, so the bound also absorbs K/z's
        # own rounding here)
        order = 2 * series_mod._BLOCK + 9
        kz = fz_series(atlas.k_alpha(alpha), order).coeffs
        got = np.concatenate(([1.0], convex_order_profile(alpha, order).delta))
        exact = mp_g_kernel(alpha, order)
        assert np.all(np.abs(got - exact) <= division_bound(kz, exact))

    @pytest.mark.parametrize("alpha", K_ALPHAS)
    def test_kernel_against_mpmath_and_the_deleted_route(self, alpha):
        # G_alpha = K'/(K/z) inherits K/z's error (series_references.py);
        # the reciprocal and the product add about 1e-14 at this order
        got = np.concatenate(([1.0], convex_order_profile(alpha, 256).delta))
        check_series(got, mp_g_kernel(alpha, 256), deleted_g_kernel(alpha, 256).real)

    # mpmath's division takes about 8 s per alpha at order 4096, so the long
    # order is checked against the deleted route alone, except where
    # 0 < |1 - 2 alpha| < atlas.ALPHA_HALF_SWITCH: there that route gave
    # G_{1/2}
    @pytest.mark.parametrize(
        "alpha",
        [a for a in K_ALPHAS if not 0.0 < abs(1.0 - 2.0 * a) < atlas.ALPHA_HALF_SWITCH],
    )
    def test_kernel_long_order_matches_the_deleted_route(self, alpha):
        got = np.concatenate(([1.0], convex_order_profile(alpha, 4096).delta))
        assert rel_err(got, deleted_g_kernel(alpha, 4096).real) <= SERIES_RTOL


class TestF1Routes:
    def test_agreement(self):
        prof = log_coefficients(atlas.f1(), 128)
        direct = gamma_l2(prof).value + flambda_l2_closed_tail(1.0, 128)
        assert abs(direct - f1_l2_alternating_route()) <= 1e-10
        assert direct < PI2_6

    def test_termwise_bound_violated_at_even_indices(self):
        # |gamma_n(f1)| > 1/n at even n: the equality family does not
        # dominate termwise
        prof = log_coefficients(atlas.f1(), 10)
        for n in (2, 4, 6, 8, 10):
            assert abs(prof.gammas[n - 1]) > 1.0 / n


class TestSuite:
    def test_clean_on_default_grids(self):
        checks = run_suite()
        assert all(c.status != "violated" for c in checks)

    def test_equalities_present(self):
        checks = run_suite(lambda_grid=(0.5,), alpha_grid=(0.5, 1.0))
        by_name = {}
        for c in checks:
            by_name.setdefault(c.name, []).append(c)
        assert all(c.status == "equality" for c in by_name["log_l2_sharp_ulambda"])
        assert all(
            c.status == "holds" and c.slack > 0
            for c in by_name["log_l2_ulambda_counterexample"]
        )
        assert by_name["log_l2_univalent_koebe"][0].status == "equality"
        assert by_name["f1_l2_two_routes"][0].status == "equality"
        assert by_name["dilog_duplication_anchor"][0].status == "equality"
        f0_rows = [
            c
            for c in by_name["gclass_weighted_l2"]
            if c.params["spec"] == "f0()"
        ]
        assert f0_rows[0].status == "equality"

    def test_long_orders_between_the_goldens(self):
        # orders no golden report covers, with odd block and hop remainders;
        # the equality rows (f1_l2_two_routes: slack 2.2e-14 at 4096) change
        # status if a tail or a power sum drifts by more than 1e-9
        statuses = [c.status for c in run_suite(order=4096)]
        assert statuses.count("holds") == 313
        assert statuses.count("equality") == 33
        for order in (2049, 3001, 4095):
            assert [c.status for c in run_suite(order=order)] == statuses, order

    def test_deterministic_order(self):
        a = run_suite(lambda_grid=(0.3, 0.7), alpha_grid=(0.25,))
        b = run_suite(lambda_grid=(0.3, 0.7), alpha_grid=(0.25,))
        assert [x.to_dict() for x in a] == [y.to_dict() for y in b]

    def test_out_of_range_input_raises(self):
        # bad input is a configuration error, never a row of the report
        for grids in (
            {"lambda_grid": (2.0,), "alpha_grid": ()},
            {"lambda_grid": (0.0,)},
            {"lambda_grid": (float("nan"),)},
            {"alpha_grid": (1.5,)},
            {"alpha_grid": (-0.2,)},
            {"order": 0},
        ):
            with pytest.raises(VerifyError):
                run_suite(**grids)

    def test_internal_failure_becomes_error_row(self, monkeypatch, caplog):
        def broken(lam, t):
            raise RuntimeError("boom")

        clean = run_suite(lambda_grid=(0.5,), alpha_grid=(1.0,))
        monkeypatch.setattr(verify, "sharpness_terms", broken)
        with caplog.at_level(logging.DEBUG, logger="logcoef.verify"):
            checks = run_suite(lambda_grid=(0.5,), alpha_grid=(1.0,))
        # the traceback goes to the debug log, not into the report
        [record] = caplog.records
        assert record.exc_info[0] is RuntimeError
        bad = [c for c in checks if c.status not in ("holds", "equality")]
        assert [(c.name, c.status) for c in bad] == [("lambda_block", "error")]
        assert bad[0].params == {"lambda": 0.5, "error": "RuntimeError: boom"}
        # the lambda block's 25 rows became the one error row, in their place
        lam_rows = [c for c in clean if c.params.get("lambda") == 0.5]
        assert len(lam_rows) == 25
        i = clean.index(lam_rows[0])
        assert checks[:i] == clean[:i] and checks[i + 1 :] == clean[i + 25 :]

    def test_anchor_failure_becomes_error_row(self, monkeypatch):
        # the dilogarithm anchor is built inside a guard like every other row
        def broken(lam):
            raise RuntimeError("boom")

        monkeypatch.setattr(verify, "ulambda_l2_bound", broken)
        checks = run_suite(lambda_grid=(0.5,), alpha_grid=(1.0,))
        error = "RuntimeError: boom"
        assert checks[0].name == "dilog_duplication_anchor"
        assert [(c.name, c.params) for c in checks if c.status == "error"] == [
            ("dilog_duplication_anchor", {"lambda": 1.0, "error": error}),
            ("lambda_block", {"lambda": 0.5, "error": error}),
        ]
        assert all(c.status != "violated" for c in checks)

    @pytest.mark.parametrize(
        "builder,name",
        [
            ("koebe", "log_l2_univalent_koebe"),
            ("half_plane", "halfplane_l2"),
            ("f1", "f1_l2_two_routes"),
        ],
    )
    def test_univalent_limit_failure_is_its_own_error_row(
        self, monkeypatch, builder, name
    ):
        # each univalent-limit row has its own guard, named after the row
        def broken(*args):
            raise RuntimeError("boom")

        clean = run_suite(lambda_grid=(), alpha_grid=())
        monkeypatch.setattr(atlas, builder, broken)
        checks = run_suite(lambda_grid=(), alpha_grid=())
        i = [c.name for c in clean].index(name)
        assert checks[i].to_dict() == {
            "name": name,
            "params": {"error": "RuntimeError: boom"},
            "lhs": 0.0,
            "rhs": 0.0,
            "slack": 0.0,
            "status": "error",
            "N": verify.DEFAULT_ORDER,
            "tail_bound": 0.0,
            "route": "none",
        }
        assert checks[:i] == clean[:i]

    def test_route_names_the_tail_in_lhs(self):
        # the l2 rows add a closed-form tail past N (f0's only, in the
        # bounded-convexity block); every other row carries none.  A closed
        # tail may round to 0 (f0's gclass_l2 tail at N = 64), so the route
        # is not read off tail_bound
        closed = {
            "log_l2_univalent_koebe",
            "halfplane_l2",
            "f1_l2_two_routes",
            "log_l2_sharp_ulambda",
            "log_l2_ulambda_counterexample",
        }
        for row in run_suite(lambda_grid=(0.5,), alpha_grid=(0.5, 1.0), order=64):
            tail = row.name in closed or (
                row.name in ("gclass_weighted_l2", "gclass_l2")
                and row.params["spec"] == "f0()"
            )
            assert row.route == ("closed_form" if tail else "none"), row.name
            assert tail or row.tail_bound == 0.0, row.name

    def test_small_orders_run_every_block(self):
        # the leading-coefficient rows need gamma_n for n up to 6
        for order in (1, 5):
            checks = run_suite(order=order)
            assert all(c.status in ("holds", "equality") for c in checks)
            assert len(checks) == 346

    def test_off_grid_alpha_has_no_violated_row(self):
        # numpy's complex x/x can give 0.9999999999999999 for the k_alpha c0
        for alpha in (0.37765, 0.022, 0.065):
            checks = run_suite(lambda_grid=(0.5,), alpha_grid=(alpha,))
            assert [c.to_dict() for c in checks if c.status == "violated"] == []
            assert fz_series(atlas.k_alpha(alpha), 64).coeffs[0] == 1.0

    def test_suite_retains_no_series(self):
        # no series outlives the suite that built it; the warm-up fills the
        # caches that are kept (dilog values) and settles lazy imports
        run_suite(order=64)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            checks = run_suite(order=2048)
            assert len(checks) == 346
            del checks
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 64 * 1024

    def test_json_schema(self, capsys):
        # the CLI report is the bare array of check rows
        code = main(["verify", "--lambda-grid", "0.5", "--alpha-grid", "1.0"])
        rows = json.loads(capsys.readouterr().out)
        assert code == 0
        assert isinstance(rows, list)
        assert all(row["status"] != "violated" for row in rows)
        for row in rows:
            assert set(row) == {
                "name",
                "params",
                "lhs",
                "rhs",
                "slack",
                "status",
                "N",
                "tail_bound",
                "route",
            }


def report(rows) -> str:
    return json.dumps([row.to_dict() for row in rows])


class _NoRun:
    """A stand-in for verify._RUN under which no run_suite call is in
    progress, so every value is computed where it is read."""

    def get(self):
        return None

    def set(self, run):
        return None

    def reset(self, token):
        pass


class TestRunReuse:
    """run_suite computes each li2 tail, power sum and reciprocal head once,
    holds none of them past its return, and gives the rows it gave when
    each was computed where it is read."""

    @pytest.mark.parametrize("order", REUSE_ORDERS)
    def test_rows_equal_those_without_reuse(self, monkeypatch, order):
        grids = [(verify.DEFAULT_LAMBDA_GRID, verify.DEFAULT_ALPHA_GRID), ((0.3, 1.0), (0.25, 1.0))]
        want = [report(run_suite(*grid, order)) for grid in grids]
        monkeypatch.setattr(verify, "_RUN", _NoRun())
        assert [report(run_suite(*grid, order)) for grid in grids] == want

    def test_each_value_once_per_run(self, monkeypatch):
        seen = {"li2_tail": [], "power_sums": [], "reciprocal_raw": []}

        def recording(name, key):
            real = getattr(verify, name)

            def wrapper(*args):
                seen[name].append(key(*args))
                return real(*args)

            return wrapper

        monkeypatch.setattr(verify, "li2_tail", recording("li2_tail", lambda x, n: (x, n)))
        monkeypatch.setattr(verify, "power_sums", recording("power_sums", lambda c, n: c.tobytes()))
        monkeypatch.setattr(verify, "reciprocal_raw", recording("reciprocal_raw", lambda a: a.tobytes()))
        for order in (128, 3000, 4096):
            for keys in seen.values():
                keys.clear()
            run_suite(order=order)
            for name, keys in seen.items():
                assert keys and len(keys) == len(set(keys)), (name, order)

    def test_held_power_sums_stay_within_the_cap(self, monkeypatch):
        # 76 lambda values at order 4096 compute about 9.8 MB of power sums
        grid = (tuple(k / 76 for k in range(1, 77)), (0.5, 1.0), 4096)
        held, longest = [], []
        real = verify._power_sums

        def recording(coeffs, count):
            sums = real(coeffs, count)
            stored = verify._RUN.get().sums.values()
            held.append(sum(s.nbytes for s in stored))
            longest.append(max(s.nbytes for s in stored))
            return sums

        monkeypatch.setattr(verify, "_power_sums", recording)
        want = report(run_suite(*grid))
        assert max(held) >= verify._SUMS_BYTES  # the cap was reached
        assert max(held) <= verify._SUMS_BYTES + max(longest)
        monkeypatch.setattr(verify, "_power_sums", real)
        monkeypatch.setattr(verify, "_RUN", _NoRun())
        assert report(run_suite(*grid)) == want

    def test_a_repeated_lambda_repeats_its_rows_from_one_computation(self, monkeypatch):
        keys = []
        real = verify.power_sums

        def recording(coeffs, count):
            keys.append(coeffs.tobytes())
            return real(coeffs, count)

        monkeypatch.setattr(verify, "power_sums", recording)
        rows = run_suite((0.5, 0.5, 1.0), (0.5, 1.0), 128)
        half = [row.to_dict() for row in rows if row.params.get("lambda") == 0.5]
        assert len(half) == 50 and half[:25] == half[25:]
        assert keys and len(keys) == len(set(keys))

    def test_no_cache_outlives_the_run(self, monkeypatch):
        runs = []

        class Recorded(verify._Run):
            def __init__(self):
                super().__init__()
                runs.append(weakref.ref(self))

        monkeypatch.setattr(verify, "_Run", Recorded)
        run_suite(order=128)
        gc.collect()
        assert len(runs) == 1 and runs[0]() is None
        assert verify._RUN.get() is None

    def test_threads_get_the_rows_of_sequential_runs(self):
        orders = (128, 4096)
        want = {order: report(run_suite(order=order)) for order in orders}
        start = threading.Barrier(len(orders))
        got = {order: [] for order in orders}

        def run(order):
            start.wait()
            for _ in range(8 if order == 128 else 2):
                got[order].append(report(run_suite(order=order)))

        threads = [threading.Thread(target=run, args=(order,)) for order in orders]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for order in orders:
            assert got[order] and all(text == want[order] for text in got[order]), order


class TestRandomMembersSatisfyBound:
    def test_exact_u_samples_below_sharp_bound(self):
        # random members of the exact parametrization never exceed the
        # sharp l2 bound (partial sums are one-sided, so no tail needed)
        rng = np.random.default_rng(11)
        for lam in (0.25, 0.5, 0.75, 1.0):
            bound = ulambda_l2_bound(lam)
            accepted = 0
            while accepted < 120:
                batch, _ = certified_batch(rng, 64)
                a2s = (1.0 + lam) * np.sqrt(rng.random(64)) * np.exp(
                    2j * np.pi * rng.random(64)
                )
                _, passed, _ = _exact_u_chunk(lam, a2s, batch)
                for psi, a2 in zip(batch[passed], a2s[passed]):
                    spec = atlas.exact_u(lam, complex(a2), _trim(psi))
                    prof = log_coefficients(spec, 64)
                    assert gamma_l2(prof).value <= bound + 1e-9
                    accepted += 1
                    if accepted >= 120:
                        break
