from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logcoef import atlas, verify
from logcoef import series as series_mod
from logcoef.series import (
    SeriesError,
    exp_raw,
    log_raw,
    reciprocal_raw,
    TruncatedSeries,
    ts_derivative,
    ts_eval,
    ts_exp,
    ts_integrate,
    ts_log,
    ts_mul,
    ts_reciprocal,
)
from series_references import division_bound, mp_divide


def series(*coeffs):
    return TruncatedSeries(list(coeffs))


def assert_coeffs(s, expected, tol=1e-13):
    np.testing.assert_allclose(s.coeffs, np.asarray(expected, dtype=complex), atol=tol)


# Random-series draws use a geometric envelope |c_k| <= 0.45^k (on top of
# the |c_k| <= 1 bound): series with uniform unit-disk coefficients have
# zeros well inside the disk, which makes log and reciprocal coefficients
# blow up like radius^-k and puts any double-precision round trip far
# beyond the tolerances; the dominated family keeps those maps bounded.
TAIL_ENVELOPE = 0.45


def dominated_coeffs(rng, order, lead=1.0 + 0j):
    env = abs(lead) * TAIL_ENVELOPE ** np.arange(order + 1)
    c = env * np.sqrt(rng.random(order + 1)) * np.exp(2j * np.pi * rng.random(order + 1))
    c[0] = lead
    return c


@st.composite
def bounded_series(draw, min_order=1, max_order=24, unit_constant=False):
    order = draw(st.integers(min_order, max_order))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    c = dominated_coeffs(rng, order)
    if not unit_constant:
        c[0] = complex(draw(st.floats(0.2, 1.0)), draw(st.floats(-0.5, 0.5)))
    return TruncatedSeries(c)


class TestMul:
    def test_difference_of_squares(self):
        out = ts_mul(series(1, 1, 0, 0), series(1, -1, 0, 0))
        assert_coeffs(out, [1, 0, -1, 0])

    def test_identity(self):
        s = series(0.3, -1j, 0.25, 0.7)
        assert_coeffs(ts_mul(s, TruncatedSeries.one(3)), s.coeffs)

    def test_two_linear_factors(self):
        out = ts_mul(series(1, -1, 0), series(1, -0.5, 0))
        assert_coeffs(out, [1, -1.5, 0.5])

    def test_order_mismatch(self):
        with pytest.raises(SeriesError, match="order mismatch"):
            ts_mul(series(1, 0), series(1, 0, 0))


class TestReciprocal:
    def test_geometric(self):
        out = ts_reciprocal(series(1, -1, 0, 0, 0))
        assert_coeffs(out, [1, 1, 1, 1, 1])

    def test_koebe(self):
        out = ts_reciprocal(ts_mul(series(1, -1, 0, 0), series(1, -1, 0, 0)))
        assert_coeffs(out, [1, 2, 3, 4])

    def test_two_factor(self):
        out = ts_reciprocal(series(1, -1.5, 0.5, 0))
        assert_coeffs(out, [1, 1.5, 1.75, 1.875])

    def test_zero_constant_rejected(self):
        with pytest.raises(SeriesError, match="not invertible"):
            ts_reciprocal(series(0, 1, 0))

    def test_small_constant_warns(self):
        with pytest.warns(UserWarning, match="ill-conditioned"):
            ts_reciprocal(series(1e-9, 1, 0))


class TestLogExp:
    def test_mercator(self):
        out = ts_log(series(1, 1, 0, 0))
        assert_coeffs(out, [0, 1, -0.5, 1 / 3])

    def test_koebe_log(self):
        fz = ts_reciprocal(ts_mul(series(1, -1, 0, 0), series(1, -1, 0, 0)))
        out = ts_log(fz)
        assert_coeffs(out, [0, 2, 1, 2 / 3])

    def test_log_one(self):
        assert_coeffs(ts_log(TruncatedSeries.one(6)), np.zeros(7))

    def test_exp_of_z(self):
        out = ts_exp(series(0, 1, 0, 0))
        assert_coeffs(out, [1, 1, 0.5, 1 / 6])

    def test_exp_zero(self):
        assert_coeffs(ts_exp(TruncatedSeries.zero(5)), [1, 0, 0, 0, 0, 0])

    def test_binomial_sqrt(self):
        # (1/2) log(1 - z^2) exponentiates to (1 - z^2)^(1/2); oracle from
        # the binomial series sum_k C(1/2, k) (-z^2)^k in exact rationals.
        lg = ts_log(series(1, 0, -1, 0, 0))
        out = ts_exp(0.5 * lg)
        expected = []
        for k in range(3):
            binom = Fraction(1)
            for j in range(k):
                binom *= (Fraction(1, 2) - j) / (j + 1)
            expected.extend([float(binom * (-1) ** k), 0.0])
        assert expected[:5] == [1.0, 0.0, -0.5, 0.0, -0.125]
        assert_coeffs(out, expected[:5])

    def test_log_requires_unit_constant(self):
        with pytest.raises(SeriesError, match="c0 = 1"):
            ts_log(series(2, 1))

    def test_exp_requires_zero_constant(self):
        with pytest.raises(SeriesError, match="c0 = 0"):
            ts_exp(series(1, 1))


class TestCalculus:
    def test_derivative(self):
        assert_coeffs(ts_derivative(series(1, 1, 1, 1)), [1, 2, 3, 0])

    def test_derivative_of_constant(self):
        assert_coeffs(ts_derivative(series(5, 0, 0)), [0, 0, 0])

    def test_koebe_derivative_pattern(self):
        fz = ts_reciprocal(
            ts_mul(series(1, -1, 0, 0, 0), series(1, -1, 0, 0, 0))
        )
        out = ts_derivative(fz)
        # d/dz sum (n+1) z^n = sum n(n+1) z^(n-1)
        assert_coeffs(out, [2, 6, 12, 20, 0])

    def test_integrate(self):
        assert_coeffs(ts_integrate(series(1, 1, 1, 1)), [0, 1, 0.5, 1 / 3])

    def test_derivative_of_integral(self):
        s = series(0.5, -0.25, 1j, 0.1, -0.3)
        out = ts_derivative(ts_integrate(s))
        assert_coeffs(TruncatedSeries(out.coeffs[:4]), s.coeffs[:4])

    def test_integrated_sqrt_family(self):
        # integral of (1 - z^2)^(1/2) = z - z^3/6 - z^5/40 + ...
        lg = ts_log(series(1, 0, -1, 0, 0, 0))
        fp = ts_exp(0.5 * lg)
        out = ts_integrate(fp)
        assert_coeffs(out, [0, 1, 0, -1 / 6, 0, -1 / 40])


class TestEval:
    def test_geometric_partial_sum(self):
        s = ts_reciprocal(TruncatedSeries([1, -1] + [0] * 9))
        assert ts_eval(s, 0.5) == pytest.approx(1.9990234375, abs=1e-15)

    def test_at_zero(self):
        assert ts_eval(series(0.7, 1, 2), 0.0) == 0.7

    def test_koebe_closed_form(self):
        fz = ts_reciprocal(
            ts_mul(
                TruncatedSeries([1, -1] + [0] * 49), TruncatedSeries([1, -1] + [0] * 49)
            )
        )
        assert abs(ts_eval(fz, 0.3) - 1.0 / 0.49) < 1e-10

    def test_outside_disk_rejected(self):
        with pytest.raises(SeriesError, match="outside"):
            ts_eval(series(1, 1), 1.5)

    def test_nonfinite_rejected(self):
        with pytest.raises(SeriesError):
            ts_eval(series(1, 1), complex(float("nan"), 0))


class TestConstruction:
    def test_nonfinite_coefficients_rejected(self):
        with pytest.raises(SeriesError, match="non-finite"):
            TruncatedSeries([1.0, float("inf")])

    def test_immutable(self):
        s = series(1, 2)
        with pytest.raises((AttributeError, ValueError)):
            s.coeffs[0] = 5.0


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(bounded_series(unit_constant=True, max_order=64))
    def test_exp_log_round_trip(self, s):
        back = ts_exp(ts_log(s))
        assert np.max(np.abs(back.coeffs - s.coeffs)) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 32))
    def test_mul_commutative_associative(self, seed, order):
        rng = np.random.default_rng(seed)
        a, b, c = (
            TruncatedSeries(
                np.sqrt(rng.random(order + 1))
                * np.exp(2j * np.pi * rng.random(order + 1))
            )
            for _ in range(3)
        )
        ab = ts_mul(a, b)
        ba = ts_mul(b, a)
        assert np.max(np.abs(ab.coeffs - ba.coeffs)) < 1e-13
        left = ts_mul(ab, c)
        right = ts_mul(a, ts_mul(b, c))
        assert np.max(np.abs(left.coeffs - right.coeffs)) < 1e-13

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 64))
    def test_reciprocal_is_inverse(self, seed, order):
        rng = np.random.default_rng(seed)
        lead = (0.1 + 0.9 * rng.random()) * np.exp(2j * np.pi * rng.random())
        a = TruncatedSeries(dominated_coeffs(rng, order, lead))
        unit = ts_mul(a, ts_reciprocal(a))
        expected = np.zeros(order + 1, dtype=complex)
        expected[0] = 1.0
        assert np.max(np.abs(unit.coeffs - expected)) < 1e-11

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(2, 32))
    def test_leibniz_rule(self, seed, order):
        rng = np.random.default_rng(seed)
        a = TruncatedSeries(
            rng.uniform(-1, 1, order + 1) + 1j * rng.uniform(-1, 1, order + 1)
        )
        b = TruncatedSeries(
            rng.uniform(-1, 1, order + 1) + 1j * rng.uniform(-1, 1, order + 1)
        )
        lhs = ts_derivative(ts_mul(a, b)).coeffs[:order]
        rhs = (
            ts_mul(ts_derivative(a), b).coeffs + ts_mul(a, ts_derivative(b)).coeffs
        )[:order]
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 24))
    def test_eval_matches_monomial_sum(self, seed, order):
        rng = np.random.default_rng(seed)
        coeffs = rng.uniform(-1, 1, order + 1) + 1j * rng.uniform(-1, 1, order + 1)
        s = TruncatedSeries(coeffs)
        z = 0.9 * complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
        direct = sum(coeffs[k] * z**k for k in range(order + 1))
        assert abs(ts_eval(s, z) - direct) < 1e-13


# The recurrences as first written, each step dotting a reversed view of the
# finished terms (np.dot copies it before the BLAS dot) or, for log, a fresh
# product array.  Within the first series_mod._BLOCK terms the kernels must
# reproduce these bits exactly; exp_raw has no blocks, so everywhere.

def reference_reciprocal(a):
    b = np.empty_like(a)
    b[0] = 1.0 / a[0]
    for k in range(1, a.size):
        b[k] = -np.dot(a[1 : k + 1], b[k - 1 :: -1]) / a[0]
    return b


def reference_log(a):
    b = np.zeros_like(a)
    for k in range(1, a.size):
        b[k] = a[k] - np.dot(a[1:k], (np.arange(k - 1, 0, -1) * b[k - 1 : 0 : -1])) / k
    return b


def reference_exp(a):
    b = np.zeros_like(a)
    b[0] = 1.0
    ja = np.arange(a.size) * a
    for k in range(1, a.size):
        b[k] = np.dot(ja[1 : k + 1], b[k - 1 :: -1]) / k
    return b


def reference_divide(num, den):
    """den x = num by the step recurrence, one term at a time."""
    x = np.empty_like(num)
    for k in range(num.size):
        x[k] = (num[k] - np.dot(den[1 : k + 1], x[k - 1 :: -1] if k else x[:0])) / den[0]
    return x


KERNELS = {
    "reciprocal_raw": (reciprocal_raw, reference_reciprocal),
    "log_raw": (log_raw, reference_log),
    "exp_raw": (exp_raw, reference_exp),
}


def same_bits(x, y):
    # bit patterns, so that -0.0 and +0.0 differ
    return x.dtype == y.dtype and np.array_equal(x.view(np.uint64), y.view(np.uint64))


def random_input(rng, size, name):
    """Complex input of the kernel's form: c0 = 1 for log, 0 for exp, and
    sum_{k>0} |c_k| < 1, so reciprocal and log stay bounded at any size."""
    c = 0.5 * rng.uniform(-1, 1, size) + 0.5j * rng.uniform(-1, 1, size)
    c /= (np.arange(size) + 1.0) ** 2
    c[0] = {"reciprocal_raw": 0.5 + 0.3j, "log_raw": 1.0, "exp_raw": 0.0}[name]
    return c


def as_division(name, a):
    """(num, den, x) of the series division behind kernel `name` on input a,
    with x the kernel's output: 1/a, or log's c_k = k b_k with a c = k a_k."""
    if name == "reciprocal_raw":
        one = np.zeros_like(a)
        one[0] = 1.0
        return one, a, reciprocal_raw(a)
    ks = np.arange(a.size)
    return ks * a, a, ks * log_raw(a)


def assert_within_bound(name, a, ref, slack=1.0):
    """The kernel's output on a is within slack times the division bound
    (series_references.division_bound) of ref, a division's x."""
    _, den, got = as_division(name, a)
    assert np.all(np.abs(got - ref) <= slack * division_bound(den, ref)), (name, a.size)


class TestKernelBits:
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_search_sizes(self, name):
        kernel, reference = KERNELS[name]
        rng = np.random.default_rng(20)
        for size in range(1, 7):
            for _ in range(200):
                a = random_input(rng, size, name)
                assert same_bits(kernel(a), reference(a)), (name, a)

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_first_block_sizes(self, name):
        kernel, reference = KERNELS[name]
        rng = np.random.default_rng(22)
        block = series_mod._BLOCK
        for size in (7, 40, 64, block - 1, block):
            for _ in range(3):
                a = random_input(rng, size, name)
                assert same_bits(kernel(a), reference(a)), (name, size)
        # past the block, its terms keep the bits of the step recurrence
        if name != "exp_raw":
            a = random_input(rng, 3 * block + 5, name)
            assert same_bits(kernel(a)[:block], reference(a)[:block])

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_long_inputs(self, name):
        # both the blocked kernel and the step recurrence are within the
        # division bound of the exact values, so within twice it of each
        # other; exp_raw has no blocks
        kernel, reference = KERNELS[name]
        rng = np.random.default_rng(21)
        for _ in range(2):
            a = random_input(rng, 4096, name)
            out = kernel(a)
            assert np.all(np.isfinite(out.view(np.float64)))
            if name == "exp_raw":
                assert same_bits(out, reference(a))
            else:
                ks = np.arange(a.size)
                step = reference(a) if name == "reciprocal_raw" else ks * reference(a)
                assert_within_bound(name, a, step, slack=2.0)

    def test_suite_inputs(self, monkeypatch):
        # every input the suite hands a kernel, at short and long orders; no
        # catalog series goes through exp, so the suite never calls exp_raw
        # (test_search_sizes and test_long_inputs cover it), and rational
        # specs take their gammas from power_sums: log_raw sees k_alpha's f/z
        # (N + 1 terms) and g_family(n)'s in w = z^n (max(N, 40) // n + 1),
        # divide_raw k_alpha's K' and K/z (N + 1 terms), and reciprocal_raw
        # the first block of each long division
        inputs = {}

        def recording(name, kernel):
            # a head (the first block of 1/den) that verify passes by keyword
            # is computed by the recorded reciprocal_raw
            def wrapper(*args, **head):
                key = (name,) + tuple(a.tobytes() for a in args)
                inputs.setdefault(key, tuple(a.copy() for a in args))
                return kernel(*args, **head)

            return wrapper

        kernels = {name: kernel for name, (kernel, _) in KERNELS.items()}
        kernels["divide_raw"] = series_mod.divide_raw
        for name, kernel in kernels.items():
            monkeypatch.setattr(series_mod, name, recording(name, kernel))
        monkeypatch.setattr(verify, "divide_raw", series_mod.divide_raw)
        monkeypatch.setattr(verify, "log_raw", series_mod.log_raw)
        monkeypatch.setattr(verify, "reciprocal_raw", series_mod.reciprocal_raw)
        for order in (1, 2, 40, 4096):
            rows = verify.run_suite(order=order)
            assert all(row.status != "error" for row in rows)
        monkeypatch.undo()
        block = series_mod._BLOCK
        sizes = {name: set() for name in kernels}
        for (name, *_), args in inputs.items():
            a = args[-1]
            sizes[name].add(a.size)
            if name in ("log_raw", "divide_raw"):
                # every suite series is real and is divided in float64
                assert all(arg.dtype == np.float64 for arg in args), name
            if name == "divide_raw":
                got, step = series_mod.divide_raw(*args), reference_divide(*args)
                assert np.all(np.abs(got - step) <= 2.0 * division_bound(a, step))
                continue
            kernel, reference = KERNELS[name]
            if a.size <= block:
                assert same_bits(kernel(a), reference(a)), (name, a.size)
            else:
                ks = np.arange(a.size)
                step = reference(a) if name == "reciprocal_raw" else ks * reference(a)
                assert_within_bound(name, a, step, slack=2.0)
        assert sizes == {
            "reciprocal_raw": {2, 3, 41, block},
            "log_raw": {2, 3, 7, 9, 11, 14, 21, 41, 683, 820, 1025, 1366, 2049, 4097},
            "divide_raw": {2, 3, 41, 4097},
            "exp_raw": set(),
        }


def mp_log_division(a):
    """c_k = k b_k of b = log a, at 30 digits: the solution of a c = k a_k."""
    return mp_divide(np.arange(a.size) * a, a)


def suite_log_inputs(order):
    """The series the suite hands log_raw at `order`: k_alpha's f/z for the
    three convex-order alphas, and g_family(n)'s f/z in w = z^n, n = 2..6."""
    out = [atlas.fz_series(atlas.k_alpha(alpha), order).coeffs for alpha in (0.25, 0.5, 0.75)]
    for n in range(2, 7):
        out.append(atlas.fz_series(atlas.g_family(n), order).coeffs[::n].copy())
    return out


class TestDivisionBound:
    """The blocked kernels against 30-digit values (series_references.mp_divide),
    within the bound series._divide_blocks derives."""

    @pytest.mark.parametrize("name", ["reciprocal_raw", "log_raw"])
    def test_random_inputs(self, name):
        a = random_input(np.random.default_rng(23), 1024, name)
        num, den, _ = as_division(name, a)
        assert_within_bound(name, a, mp_divide(num, den))

    @pytest.mark.parametrize("index", range(8))
    def test_suite_log_inputs(self, index):
        # g_family(n)'s series in w has 1024 // n + 1 terms; the suite hands
        # log_raw their real parts, in float64
        a = suite_log_inputs(1024)[index]
        exact = mp_log_division(a)
        for x in (a, a.real.copy()):
            assert_within_bound("log_raw", x, exact)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_suite_g_alpha_divisions(self, alpha):
        # G_alpha = K'/(K/z), divided in float64 as the suite does, and in
        # complex128
        kz = atlas.fz_series(atlas.k_alpha(alpha), 1023).coeffs.real.copy()
        num = kz * np.arange(1, kz.size + 1)
        exact = mp_divide(num, kz)
        for dtype in (np.float64, np.complex128):
            got = series_mod.divide_raw(num.astype(dtype), kz.astype(dtype))
            assert got.dtype == dtype
            assert np.all(np.abs(got - exact) <= division_bound(kz, exact))

    def test_first_block_is_num_times_the_head(self):
        # divide_raw on one block: num times the step recurrence's 1/den
        rng = np.random.default_rng(24)
        den = random_input(rng, series_mod._BLOCK, "reciprocal_raw")
        num = rng.uniform(-1, 1, den.size) + 0j
        got = series_mod.divide_raw(num, den)
        assert same_bits(got, np.convolve(num, reference_reciprocal(den))[: den.size])

    def test_division_is_exact_on_a_polynomial_quotient(self):
        # num = (1 - z/2) q for a short q: every value is a short dyadic
        # fraction, so every rounding is exact and the division returns q
        den = np.zeros(3 * series_mod._BLOCK + 7, dtype=complex)
        den[:2] = [1.0, -0.5]
        q = np.zeros_like(den)
        q[:4] = [1.0, 2.0, -3.0, 0.25]
        got = series_mod.divide_raw(np.convolve(den, q)[: den.size], den)
        assert np.array_equal(got, q)


def reference_power_sums(coeffs, count):
    """Newton's identities one term at a time, as power_sums takes its
    first terms."""
    taps = (np.asarray(coeffs, dtype=complex) / coeffs[0])[1:].tolist()
    d = len(taps)
    p = []
    for k in range(1, count + 1):
        acc = -k * taps[k - 1] if k <= d else 0j
        for j in range(1, min(k - 1, d) + 1):
            acc -= taps[j - 1] * p[k - 1 - j]
        p.append(acc)
    return np.array(p, dtype=complex)


def from_roots(rho):
    """(0.5 - 0.25i) prod_i (1 - rho_i z): a polynomial with constant term
    0.5 - 0.25i whose power sums are p_k = sum_i rho_i^k."""
    poly = np.array([0.5 - 0.25j])
    for r in rho:
        poly = np.convolve(poly, [1.0, -r])
    return poly


def on_circle(rng, d):
    """d points of modulus 1 at least pi/d apart, so the roots are well
    conditioned."""
    return np.exp(2j * np.pi * (np.arange(d) + 0.5 * rng.uniform(0, 1, d)) / d)


def assert_close(got, want):
    # the error grows about linearly along the recurrence, by a few units of
    # 2^-52 of the largest term per step (simple roots); 16 leaves room
    scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
    assert got.shape == want.shape
    err = np.max(np.abs(got - want), initial=0.0)
    assert err <= 16 * 2.0**-52 * got.size * scale


class TestPowerSums:
    # the counts straddle the one-at-a-time head (max(d, 64) terms) and whole
    # and partial blocks after it
    COUNTS = (0, 1, 9, 64, 65, 128, 129, 1000)

    @pytest.mark.parametrize("d", [0, 1, 2, 3, 9])
    def test_roots_on_the_circle(self, d):
        rng = np.random.default_rng(d)
        rho = on_circle(rng, d)
        for count in self.COUNTS:
            got = series_mod.power_sums(from_roots(rho), count)
            want = np.array([np.sum(rho**k) for k in range(1, count + 1)], complex)
            assert_close(got, want)

    @pytest.mark.parametrize("d", [63, 64, 65, 100])
    def test_equally_spaced_roots(self, d):
        # 1 - sigma^d z^d has the d roots sigma w^j (w^d = 1), so p_k is
        # d sigma^k where d divides k and 0 elsewhere; a factor 1 - z/2 adds
        # 2^-k, and a block then spans d terms
        sigma = np.exp(2j * np.pi * np.random.default_rng(d).uniform())
        poly = np.zeros(d + 1, dtype=complex)
        poly[0], poly[d] = 1.0, -(sigma**d)
        poly = np.convolve(poly, [0.5 - 0.25j, -0.25 + 0.125j])
        for count in self.COUNTS + (d, d + 1, 2 * d + 1):
            ks = np.arange(1, count + 1)
            want = np.where(ks % d == 0, d * sigma**ks, 0) + 0.5**ks
            assert_close(series_mod.power_sums(poly, count), want)

    @pytest.mark.parametrize("d", [1, 3, 9, 65])
    def test_head_is_the_stepwise_recurrence(self, d):
        rng = np.random.default_rng(30 + d)
        poly = from_roots(0.3 * on_circle(rng, d))
        head = max(d, series_mod.POWER_SUMS_BLOCK)
        got = series_mod.power_sums(poly, head)
        assert same_bits(got, reference_power_sums(poly, head))

    # (P, p_k for k = 1..4096, bound on max |error| at count 4096): P with a
    # double root on the unit circle, where rounding errors grow like k^2
    # along the recurrence and a longer propagator (hop matrix squared, or
    # 128-term hops) adds more.  Each bound is about twice the error of the
    # per-tap block loop this propagation replaced (4.6e-11 and 6.1e-9); the
    # taps are exact, so no error comes from rounding P.
    DOUBLE_ROOTS = [
        (
            "f1_denominator",
            lambda: atlas.rational_parts(atlas.f1())[1],
            lambda ks: 2.0 + 0.5 ** ks * np.where(ks % 2 == 0, 1.0, -1.0),
            1e-10,
        ),
        (
            "double_i",
            lambda: np.convolve(np.convolve([1.0, -1j], [1.0, -1j]), [1.0, -0.3]),
            lambda ks: 2.0 * np.array([1.0, 1j, -1.0, -1j])[ks % 4] + 0.3**ks,
            1.5e-8,
        ),
    ]

    @pytest.mark.parametrize(
        "poly,closed_form,bound",
        [case[1:] for case in DOUBLE_ROOTS],
        ids=[case[0] for case in DOUBLE_ROOTS],
    )
    def test_double_root_on_the_circle(self, poly, closed_form, bound):
        ks = np.arange(1, 4097)
        got = series_mod.power_sums(np.asarray(poly(), dtype=complex), 4096)
        assert np.max(np.abs(got - closed_form(ks))) <= bound

    def test_trailing_zeros_are_no_taps(self):
        poly = np.array([2.0, -1.0, 0.5, 0.0, 0.0], dtype=complex)
        assert same_bits(
            series_mod.power_sums(poly, 300), series_mod.power_sums(poly[:3], 300)
        )

    def test_log_of_a_polynomial(self):
        # log P = -sum_k p_k z^k / k
        poly = from_roots(0.8 * on_circle(np.random.default_rng(40), 5))
        a = np.zeros(400, dtype=complex)
        a[:6] = poly / poly[0]
        k = np.arange(1, 400)
        np.testing.assert_allclose(
            -series_mod.power_sums(poly, 399) / k, log_raw(a)[1:], rtol=0, atol=1e-14
        )
