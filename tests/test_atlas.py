import cmath
import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logcoef import atlas
from logcoef import search as S
from logcoef.atlas import (
    ParseError,
    SpecError,
    eval_at,
    exact_u,
    f0,
    f1,
    f_lambda,
    fz_series,
    g_family,
    g_lambda,
    gamma_closed_form,
    gamma_linf_slope,
    half_plane,
    k_alpha,
    koebe,
    parse_spec,
    rational,
    render,
    schwarz_superset,
    taylor_of,
)
from logcoef.series import TruncatedSeries, divide_raw, eval_raw, ts_eval, ts_reciprocal
from logcoef.verify import log_coefficients
from series_references import (
    G_FAMILY_NS,
    K_ALPHAS,
    certified_batch,
    check_series,
    deleted_g_family_fz,
    deleted_k_alpha_fz,
    mp_g_family_fz,
    mp_g_lambda_fz,
    mp_k_alpha_fz,
    mp_koebe_fz,
    mp_superset_denominator,
    rel_err,
)

ALL_SPECS = [
    koebe(0.0),
    koebe(1.2),
    g_lambda(0.5),
    f_lambda(0.5),
    f0(),
    f1(),
    g_family(3),
    k_alpha(0.25),
    k_alpha(0.5),
    half_plane(),
    rational([0, 1], [1, -2, 1]),
    schwarz_superset(0.5, [0.5, 0.25j]),
    exact_u(0.5, 0.8, [0.3, -0.4]),
]

CLOSED_FORM_SPECS = [
    koebe(0.0),
    koebe(2.0),
    g_lambda(0.3),
    g_lambda(1.0),
    f_lambda(0.7),
    f0(),
    f1(),
    half_plane(),
]


def test_all_specs_cover_every_kind():
    # a registry entry missing here would skip the round-trip tests
    assert {s.kind for s in ALL_SPECS} == set(atlas.KINDS)


class TestParse:
    def test_koebe(self):
        assert parse_spec("koebe(theta=0)") == koebe(0.0)

    def test_f_lambda(self):
        assert parse_spec("f_lambda(lambda=0.5)") == f_lambda(0.5)

    def test_lambda_out_of_range(self):
        with pytest.raises(SpecError, match="out of range"):
            parse_spec("g_lambda(lambda=1.5)")

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_spec("g_lambda(lambda=0.5")
        assert exc.value.position == 19

    def test_unknown_name(self):
        with pytest.raises(ParseError, match="unknown function name"):
            parse_spec("bogus(x=1)")

    def test_unknown_parameter(self):
        with pytest.raises(ParseError, match="unknown parameter"):
            parse_spec("koebe(phi=1)")

    def test_missing_parameter(self):
        with pytest.raises(ParseError, match="missing"):
            parse_spec("g_lambda()")

    def test_complex_literals(self):
        s = parse_spec("rational(num=[0, 1, 0.5-0.25i], den=[1.0, 2i])")
        assert s.num == (0.0, 1.0, 0.5 - 0.25j)
        assert s.den == (1.0, 2.0j)

    def test_rational_normalization_enforced(self):
        with pytest.raises(SpecError, match="normalization"):
            parse_spec("rational(num=[0,2], den=[1])")
        with pytest.raises(SpecError, match="vanish"):
            parse_spec("rational(num=[1,1], den=[1])")

    @pytest.mark.parametrize(
        "text,key",
        [
            ("koebe(theta=1e999)", "theta"),
            ("koebe(theta=-1e999)", "theta"),
            ("exact_u(lambda=0.5, a2=1e999i, psi=[0.1])", "a2"),
            ("exact_u(lambda=0.5, a2=0.5, psi=[0.1, -1e999])", "psi"),
            ("schwarz_superset(lambda=0.5, omega=[1e999])", "omega"),
            ("rational(num=[0, 1, 1e999], den=[1])", "num"),
            ("rational(num=[0, 1], den=[1, 1e999-2i])", "den"),
        ],
    )
    def test_non_finite_values_are_spec_errors(self, text, key):
        # the DSL reads 1e999 as inf; the spec refuses it as bad input
        with pytest.raises(SpecError, match=f"^{key} has a non-finite value$"):
            parse_spec(text)

    def test_trailing_input(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_spec("f0() junk")

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=render)
    def test_render_round_trip(self, spec):
        assert parse_spec(render(spec)) == spec

    def test_integers_parse_exactly(self):
        # 2^53 + 1 has no float64; a digit literal is read as an int
        spec = g_family(2**53 + 1)
        assert parse_spec(render(spec)) == spec
        assert parse_spec("g_family(n=2e0)") == g_family(2)
        # a literal past int()'s digit limit goes through float
        with pytest.raises(ParseError, match="n must be an integer"):
            parse_spec(f"g_family(n={'1' * 5000})")

    @pytest.mark.parametrize("n", [2**63, 10**20])
    def test_n_past_int64_is_a_spec_error(self, n):
        with pytest.raises(SpecError, match=f"^n = {n} must be a positive integer below 2\\^63$"):
            g_family(n)

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(["koebe", "g_lambda", "f_lambda", "k_alpha", "g_family"]),
        st.floats(0.001, 0.999),
        st.integers(1, 9),
    )
    def test_render_round_trip_random(self, kind, x, n):
        spec = {
            "koebe": lambda: koebe(4.0 * x),
            "g_lambda": lambda: g_lambda(x),
            "f_lambda": lambda: f_lambda(x),
            "k_alpha": lambda: k_alpha(x * 0.999),
            "g_family": lambda: g_family(n),
        }[kind]()
        assert parse_spec(render(spec)) == spec


class TestTaylor:
    def test_g_lambda_partial_sums(self):
        t = taylor_of(g_lambda(0.5), 4)
        np.testing.assert_allclose(t.coeffs.real, [0, 1, 1.5, 1.75, 1.875], atol=1e-14)

    def test_koebe_integers(self):
        t = taylor_of(koebe(0.0), 5)
        np.testing.assert_allclose(t.coeffs.real, [0, 1, 2, 3, 4, 5], atol=1e-13)

    def test_f1_coefficients(self):
        t = taylor_of(f1(), 4)
        np.testing.assert_allclose(t.coeffs.real, [0, 1, 1.5, 2.25, 2.875], atol=1e-13)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=render)
    def test_normalization(self, spec):
        t = taylor_of(spec, 16)
        assert t.coeffs[0] == 0.0
        assert abs(t.coeffs[1] - 1.0) <= 1e-12

    def test_g_family_low_order_truncation(self):
        # order below the family index: only the leading terms are visible
        t = taylor_of(g_family(5), 3)
        np.testing.assert_allclose(t.coeffs.real, [0, 1, 0, 0], atol=1e-14)

    def test_order_must_be_positive(self):
        with pytest.raises(SpecError):
            taylor_of(f0(), 0)


class TestEval:
    def test_koebe_half(self):
        assert eval_at(koebe(0.0), 0.5) == pytest.approx(2.0, abs=1e-14)

    def test_f_lambda_one(self):
        assert eval_at(f_lambda(1.0), 0.5) == pytest.approx(1.6, abs=1e-14)

    def test_zero(self):
        for spec in ALL_SPECS:
            assert eval_at(spec, 0.0) == 0.0

    def test_outside_disk(self):
        with pytest.raises(SpecError):
            eval_at(f0(), 1.0)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=render)
    def test_matches_series_evaluation(self, spec):
        t = taylor_of(spec, 256)
        for z in (0.3, -0.5 + 0.4j, 0.62j, -0.85, 0.9):
            assert abs(eval_at(spec, z) - ts_eval(t, z)) < 1e-8

    def test_array_with_one_bad_point(self):
        with pytest.raises(SpecError, match="not inside the open unit disk"):
            atlas.evaluator(f0())(np.array([0.1, 0.5j, 1.0, 0.2]))
        pole = atlas.evaluator(rational([0, 1], [1, -2]))  # f has a pole at 1/2
        with pytest.raises(SpecError, match="non-finite value"):
            pole(np.array([0.1, 0.5, 0.2j]))

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=render)
    def test_zero_inside_an_array(self, spec):
        values = atlas.evaluator(spec)(np.array([0.3, 0.0, -0.2j]))
        assert values[1] == 0.0
        assert np.all(np.isfinite(values))


POINTWISE_SPECS = [
    next(s for s in ALL_SPECS if s.kind == kind) for kind in atlas.KINDS
] + [k_alpha(0.5)]


@pytest.mark.parametrize("spec", POINTWISE_SPECS, ids=render)
def test_pointwise_values_match_the_series(spec):
    # each registry entry's f/z, f' and f''/f' against its own Taylor series
    z = 0.5 * np.sqrt(np.arange(1, 17) / 16.0) * np.exp(2.3j * np.arange(16))
    c = taylor_of(spec, 200).coeffs
    k = np.arange(c.size)
    fp = eval_raw(k[1:] * c[1:], z)
    fpp = eval_raw(k[2:] * (k[2:] - 1) * c[2:], z)
    p = atlas.pointwise_of(spec)(z)
    for got, want in ((p.fz(), eval_raw(c[1:], z)), (p.fp(), fp), (p.ratio(), fpp / fp)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


class TestGammaClosedForm:
    def test_g_lambda(self):
        assert gamma_closed_form(g_lambda(0.5), 2) == pytest.approx(0.3125)

    def test_f0(self):
        assert gamma_closed_form(f0(), 2) == pytest.approx(-0.0625)

    def test_koebe(self):
        assert gamma_closed_form(koebe(0.0), 3) == pytest.approx(1.0 / 3.0)
        g = gamma_closed_form(koebe(0.7), 5)
        assert abs(g) == pytest.approx(0.2, abs=1e-15)
        assert cmath.phase(g) == pytest.approx(5 * 0.7 - 2 * math.pi, abs=1e-12)

    def test_g_family_leading_only(self):
        assert gamma_closed_form(g_family(2), 2) == pytest.approx(-1.0 / 12.0)
        assert gamma_closed_form(g_family(2), 3) is None

    def test_unavailable(self):
        assert gamma_closed_form(k_alpha(0.3), 1) is None
        assert gamma_closed_form(rational([0, 1], [1, -1]), 1) is None

    @pytest.mark.parametrize("n", [1024, 2048])
    @pytest.mark.parametrize("spec", [f0(), f1(), f_lambda(1.0), f_lambda(0.5)], ids=render)
    def test_large_n_finite_and_accurate(self, spec, n):
        with mpmath.workdps(30):
            m = mpmath.mpf(n)
            if spec.kind == "f0":
                exact = -1 / (m * 2 ** (m + 1))
            elif spec.kind == "f1":
                exact = 1 / m + (-1) ** n / (m * 2 ** (m + 1))
            else:
                lam = mpmath.mpf(spec.lam)
                exact = ((1 + lam**m) / m + (-1) ** n * lam**m / (m * (1 + lam) ** m)) / 2
            exact = complex(float(exact))
        g = gamma_closed_form(spec, n)
        assert math.isfinite(g.real) and math.isfinite(g.imag)
        assert g == pytest.approx(exact, rel=1e-14, abs=1e-300)

    @pytest.mark.parametrize("spec", CLOSED_FORM_SPECS, ids=render)
    def test_series_agreement_to_n100(self, spec):
        prof = log_coefficients(spec, 128)
        worst = max(
            abs(prof.gammas[n - 1] - gamma_closed_form(spec, n)) for n in range(1, 101)
        )
        assert worst <= 1e-10

    def test_g_family_leading_agreement(self):
        for n in range(1, 7):
            prof = log_coefficients(g_family(n), 64)
            assert abs(prof.gammas[n - 1] - gamma_closed_form(g_family(n), n)) < 1e-12


class TestIdentifications:
    def test_g1_equals_koebe(self):
        # the lambda=1 member of the equality family has the Koebe expansion
        a = taylor_of(g_lambda(1.0), 64).coeffs
        b = taylor_of(koebe(0.0), 64).coeffs
        assert np.max(np.abs(a - b)) < 1e-12

    def test_k_alpha_zero_is_half_plane(self):
        a = fz_series(k_alpha(0.0), 32).coeffs
        b = fz_series(half_plane(), 32).coeffs
        assert np.max(np.abs(a - b)) < 1e-13

    def test_k_alpha_series_continuous_at_alpha_half(self):
        a = fz_series(k_alpha(0.5 - 1e-9), 32).coeffs
        b = fz_series(k_alpha(0.5), 32).coeffs
        assert np.max(np.abs(a - b)) < 1e-7

    def test_rotation_invariant_gamma_magnitudes(self):
        for theta in (0.0, 0.9, 2.5):
            prof = log_coefficients(koebe(theta), 32)
            ns = np.arange(1, 33)
            assert np.max(np.abs(np.abs(prof.gammas) - 1.0 / ns)) < 1e-12

    def test_2gamma1_equals_a2(self):
        for spec in ALL_SPECS:
            prof = log_coefficients(spec, 8)
            a2 = taylor_of(spec, 2).coeffs[2]
            assert abs(2.0 * prof.gammas[0] - a2) <= 1e-10


class TestClosedFormSeries:
    """g_family's and k_alpha's f/z series against mpmath and against the
    exp/log routes they replaced.  Where a deleted route misses by more
    than the allowed error, the new series must be closer: the old
    g_family(1) route leaves 1e-21 where the series is 0, the old
    alpha = 1/2 branch drops the x log term (1.8e-8 at alpha = 1/2 -+ 1e-9),
    and the old k_alpha exp/log drifts at alpha = 0.9 (1.6e-12 at order
    4096)."""

    @pytest.mark.parametrize("order", [256, 4096])
    @pytest.mark.parametrize("n", G_FAMILY_NS)
    def test_g_family(self, n, order):
        got = fz_series(g_family(n), order).coeffs
        check_series(got, mp_g_family_fz(n, order), deleted_g_family_fz(n, order))

    @pytest.mark.parametrize("order", [256, 4096])
    @pytest.mark.parametrize("alpha", K_ALPHAS)
    def test_k_alpha(self, alpha, order):
        got = fz_series(k_alpha(alpha), order).coeffs
        assert got[0] == 1.0
        check_series(got, mp_k_alpha_fz(alpha, order), deleted_k_alpha_fz(alpha, order))

    # koebe and g_lambda have parts too, but their closed forms are kept
    # because A/B, a three-term recurrence, loses digits with the index.
    # Largest relative error to order 2000, closed form / A times 1/B:
    # koebe(0.7) 1.2e-13 / 1.0e-10, koebe(2.0) 4.2e-14 / 1.4e-10;
    # g_lambda(0.37) 4.2e-16 / 1.2e-13, g_lambda(0.9) 8.9e-16 / 2.5e-12,
    # g_lambda(0.999) 2.1e-15 / 9.0e-11.  Each bound lies between the two.
    @pytest.mark.parametrize(
        "spec",
        [koebe(0.7), koebe(2.0), g_lambda(0.37), g_lambda(0.9), g_lambda(0.999)],
        ids=render,
    )
    def test_closed_forms_beat_the_quotient(self, spec, monkeypatch):
        if spec.kind == "koebe":
            reference, bound = mp_koebe_fz(spec.theta, 2000), 1e-12
        else:
            reference, bound = mp_g_lambda_fz(spec.lam, 2000), 1e-14
        assert rel_err(fz_series(spec, 2000).coeffs, reference) <= bound
        entry = dataclasses.replace(atlas.KIND_REGISTRY[spec.kind], series=None)
        monkeypatch.setitem(atlas.KIND_REGISTRY, spec.kind, entry)
        assert rel_err(fz_series(spec, 2000).coeffs, reference) > bound


class TestQuotientSeries:
    """A kind with parts and no closed-form series takes f/z as the series
    division A / B (divide_raw) in fz_series, divided by its constant term.
    Within the first block that is A times 1/B; past it, the blocked
    division."""

    @pytest.mark.parametrize("order", [64, 300])
    def test_a_kind_without_series_divides_a_by_b(self, monkeypatch, order):
        entry = dataclasses.replace(atlas.KIND_REGISTRY["rational"], series=None)
        monkeypatch.setitem(atlas.KIND_REGISTRY, "rational", entry)
        # 49 (1/49) rounds below 1, so the constant term is divided out
        spec = rational([0, 49, 3 - 1j], [49, -10, 2j])
        a, b = (np.pad(c, (0, order + 1 - c.size)) for c in atlas.rational_parts(spec))
        fz = divide_raw(a, b)
        assert fz[0] != 1.0
        got = fz_series(spec, order).coeffs
        assert got.tobytes() == (fz * (1.0 / fz[0])).tobytes()
        product = (TruncatedSeries(a) * ts_reciprocal(TruncatedSeries(b))).coeffs
        if order < 128:
            assert np.array_equal(fz, product)
        else:
            assert np.allclose(fz, product, rtol=1e-13, atol=1e-13 * np.abs(product).max())

    @pytest.mark.parametrize("order", [0, 1, 5, 128, 300, 4096])
    def test_f0_and_half_plane_are_exact(self, order):
        want = np.zeros(order + 1, dtype=np.complex128)
        want[:2] = [1.0, -0.5][: order + 1]
        assert fz_series(f0(), order).coeffs.tobytes() == want.tobytes()
        want = np.ones(order + 1, dtype=np.complex128)
        assert fz_series(half_plane(), order).coeffs.tobytes() == want.tobytes()


_EPS = 2.0**-53


class TestStackedDenominators:
    """The two search denominators stack: w of shape S + (m,) gives rows of
    shape S + (width,).  Each row is checked against the float inputs'
    product at 30 digits, within these bounds on coefficient k:

      * superset: q_k sums k + 1 products u_j v_{k-j}, u = 1 - zw and
        v = 1 - lam zw, each off by at most sqrt(5) eps of its modulus, in
        k additions that each round by at most eps of the running sum, so q_k
        is off by at most (k + 3) eps sum_j |u_j| |v_{k-j}|;
      * exact_u: q_0 and q_1 are exact, and q_{k+2} = -lam psi_k / (k + 1)
        rounds three times (the product lam psi_k, and 1/(k + 1) and the
        product by it in complex division), so it is off by at most
        4 eps |q_{k+2}|."""

    @pytest.mark.parametrize("lam", [0.05, 0.5, 1.0])
    @pytest.mark.parametrize(
        "denominator",
        [atlas.superset_denominator, atlas.exact_u_denominator],
        ids=["superset", "exact_u"],
    )
    def test_rows_are_one_row_calls_within_the_rounding_bound(self, denominator, lam):
        superset = denominator is atlas.superset_denominator
        rng = np.random.default_rng(43)
        w, _ = certified_batch(rng, 256)  # 192 polynomials, 64 Blaschke rows
        a2s = S._draw_disk(rng, len(w), 1.0 + lam)

        def build(rows, a2):
            return denominator(lam, rows) if superset else denominator(lam, a2, rows)

        q = build(w, a2s)
        m = w.shape[1]
        assert q.shape == (len(w), 2 * m + 1 if superset else m + 2)
        grid = build(w.reshape(16, 16, m), a2s.reshape(16, 16))
        assert grid.tobytes() == q.tobytes()
        for row, a2, got in zip(w, a2s, q):
            assert build(row, a2).tobytes() == got.tobytes()
        if superset:
            # coefficients 0..n-1 read only w_0..w_{n-2}
            for n in range(2, 9):
                assert build(w[:, : n - 1], a2s)[:, :n].tobytes() == q[:, :n].tobytes()
        with mpmath.workdps(30):
            for row, a2, got in zip(w[::8], a2s[::8], q[::8]):
                if superset:
                    exact = mp_superset_denominator(lam, row, got.size)
                    u = np.abs(np.concatenate(([1.0], row)))
                    v = np.abs(np.concatenate(([1.0], lam * row)))
                    bound = (np.arange(got.size) + 3) * _EPS * np.convolve(u, v)
                else:
                    exact = [mpmath.mpc(1), -mpmath.mpc(a2.real, a2.imag)] + [
                        -mpmath.mpf(lam) * mpmath.mpc(c.real, c.imag) / (k + 1)
                        for k, c in enumerate(row)
                    ]
                    bound = 4.0 * _EPS * np.abs(got)
                for g, e, b in zip(got, exact, bound):
                    assert abs(mpmath.mpc(g.real, g.imag) - e) <= b


class TestSlope:
    @pytest.mark.parametrize(
        "spec", [s for s in ALL_SPECS if gamma_linf_slope(s) is not None], ids=render
    )
    def test_n_gamma_n_bounded_by_slope(self, spec):
        c = gamma_linf_slope(spec)
        prof = log_coefficients(spec, 256)
        ns = np.arange(1, 257)
        assert np.max(ns * np.abs(prof.gammas)) <= c + 1e-9

    def test_no_slope_for_parametrized_kinds(self):
        for spec in ALL_SPECS:
            if spec.kind in ("rational", "schwarz_superset", "exact_u"):
                assert gamma_linf_slope(spec) is None
