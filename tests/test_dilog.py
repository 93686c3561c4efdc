import math

import mpmath
import pytest

from logcoef.dilog import PI2_6, PI2_12, DilogResult, li2
from quadrature import li2_quadrature_oracle

GRID = [round(-1.0 + 0.01 * k, 10) for k in range(201)]


def li2_series_oracle(x, tol=1e-16):
    """Plain series summation, independent of the package implementation."""
    terms = []
    p = 1.0
    n = 0
    while True:
        n += 1
        p *= x
        t = p / (n * n)
        terms.append(t)
        if abs(t) < tol and n > 8:
            return math.fsum(terms)


class TestValues:
    def test_zero(self):
        r = li2(0.0)
        assert r.value == 0.0 and r.est_error == 0.0

    def test_one_is_pi2_over_6(self):
        assert li2(1.0).value == PI2_6

    def test_minus_one(self):
        assert li2(-1.0).value == -PI2_12

    def test_minus_half(self):
        assert li2(-0.5).value == pytest.approx(-0.4484142069236462, abs=1e-14)

    def test_quarter(self):
        assert li2(0.25).value == pytest.approx(0.2676526390827326, abs=1e-14)

    def test_half(self):
        assert li2(0.5).value == pytest.approx(0.5822405264650125, abs=1e-14)

    def test_domain_errors(self):
        for bad in (1.0000001, -1.1, float("nan")):
            with pytest.raises(ValueError):
                li2(bad)

    def test_error_estimates_are_honest(self):
        for x in (-0.95, -0.6, -0.3, 0.2, 0.45, 0.6, 0.8, 0.95):
            r = li2(x)
            assert r.est_error <= 1e-13
            assert abs(r.value - li2_series_oracle(x)) <= r.est_error + 5e-15

    def test_methods(self):
        assert li2(0.3).method == "series"
        assert li2(0.8).method == "reflection"
        assert li2(-0.8).method == "reflection"


class TestReflectionIdentity:
    """The reflection identity is not taken on faith: it must match the
    plain series oracle at 0.6, 0.75, 0.9 to 1e-12 before the fast path
    may rely on it."""

    @pytest.mark.parametrize("x", [0.6, 0.75, 0.9])
    def test_against_series_oracle(self, x):
        reflected = PI2_6 - math.log(x) * math.log(1 - x) - li2_series_oracle(1 - x)
        assert abs(reflected - li2_series_oracle(x)) < 1e-12

    @pytest.mark.parametrize("x", [0.6, 0.75, 0.9])
    def test_fast_path_matches_oracle(self, x):
        assert abs(li2(x).value - li2_series_oracle(x)) < 1e-13


class TestIdentitiesOnGrid:
    def test_duplication(self):
        worst = max(
            abs(li2(x * x).value - 2.0 * (li2(x).value + li2(-x).value)) for x in GRID
        )
        assert worst <= 1e-12

    def test_monotone_increasing(self):
        values = [li2(x).value for x in GRID]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_sign(self):
        for x in GRID:
            if x < 0:
                assert li2(x).value < 0
            elif x > 0:
                assert li2(x).value > 0

    def test_range_invariant(self):
        for x in GRID:
            v = li2(x).value
            assert -PI2_12 <= v <= PI2_6


class TestAgainstMpmath:
    def test_grid_within_estimate(self):
        # mpmath at 30 digits is exact at double precision, so the difference
        # must lie within li2's own certified estimate (<= 1e-13)
        with mpmath.workdps(30):
            for x in GRID:
                r = li2(x)
                exact = mpmath.polylog(2, mpmath.mpf(x))
                assert abs(float(exact - mpmath.mpf(r.value))) <= r.est_error <= 1e-13


class TestQuadratureOracle:
    def test_zero(self):
        assert li2_quadrature_oracle(0.0) == 0.0

    def test_one(self):
        assert abs(li2_quadrature_oracle(1.0) - PI2_6) <= 1e-8

    def test_half(self):
        assert abs(li2_quadrature_oracle(0.5) - li2(0.5).value) <= 1e-8

    def test_domain_error(self):
        with pytest.raises(ValueError):
            li2_quadrature_oracle(2.0)

    def test_agreement_on_grid(self):
        worst = max(abs(li2_quadrature_oracle(x) - li2(x).value) for x in GRID)
        assert worst <= 1e-7


class TestResultInvariants:
    def test_rejects_out_of_range_value(self):
        with pytest.raises(ValueError):
            DilogResult(value=2.0, method="series", est_error=0.0)

    def test_rejects_negative_error(self):
        with pytest.raises(ValueError):
            DilogResult(value=0.0, method="series", est_error=-1.0)
