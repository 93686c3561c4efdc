import functools
import json
import math
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest

from logcoef import atlas, membership
from logcoef.atlas import (
    exact_u,
    f0,
    f1,
    f_lambda,
    g_family,
    g_lambda,
    half_plane,
    k_alpha,
    koebe,
    parse_spec,
    render,
    schwarz_superset,
)
from logcoef.membership import (
    DEFAULT_RADII,
    DEFAULT_SAMPLES,
    MembershipError,
    _sample_points,
    g_class_sup,
    min_re_starlike,
    u_deficiency,
)
from logcoef.series import eval_raw, exp_raw, log_raw, mul_raw, reciprocal_raw

SMOOTH_SPECS = [
    koebe(0.0),
    g_lambda(0.3),
    g_lambda(1.0),
    f_lambda(0.7),
    f0(),
    f1(),
    half_plane(),
    k_alpha(0.25),
    schwarz_superset(0.5, [0.4, 0.3]),
    exact_u(0.5, 0.8, [0.3, -0.4]),
]


class TestUDeficiency:
    def test_f_lambda_cubic_deficiency(self):
        # (z/f)^2 f' - 1 = -(2 lam^2/(1+lam)) z^3 for the counterexample family
        lam = 0.5
        rep = u_deficiency(f_lambda(lam), lam, radii=[0.99])
        expected = (2 * lam**2 / (1 + lam)) * 0.99**3
        assert rep.measured == pytest.approx(expected, abs=1e-12)
        assert rep.verdict == "pass"

    def test_g_lambda_quadratic_deficiency(self):
        rep = u_deficiency(g_lambda(0.5), 0.5, radii=[0.99])
        assert rep.measured == pytest.approx(0.5 * 0.99**2, abs=1e-12)
        assert rep.verdict == "pass"

    def test_koebe(self):
        rep = u_deficiency(koebe(0.0), 1.0, radii=[0.99])
        assert rep.measured == pytest.approx(0.99**2, abs=1e-12)
        assert rep.verdict == "pass"

    @pytest.mark.parametrize("lam", [round(0.1 * k, 10) for k in range(1, 11)])
    def test_f_lambda_members(self, lam):
        assert u_deficiency(f_lambda(lam), lam).verdict == "pass"

    @pytest.mark.parametrize("lam", [round(0.1 * k, 10) for k in range(1, 11)])
    def test_g_lambda_members(self, lam):
        assert u_deficiency(g_lambda(lam), lam).verdict == "pass"

    def test_g_family_inconclusive_near_boundary(self):
        rep = u_deficiency(g_family(6), 1.0, radii=[0.999])
        assert rep.verdict == "inconclusive"
        assert rep.tail_bound > 1e-8

    def test_g_family_conclusive_inside(self):
        rep = u_deficiency(g_family(2), 1.0, radii=[0.9])
        assert rep.tail_bound < 1e-8
        assert rep.verdict == "pass"


def reference_g_family(n, z, order=8192):
    """max |U| and min Re(z f'/f) of g_family(n) at the points z, from
    series of the given order, f/z built from its own f' series (so the
    package's f/z series is not its own reference); at order 8192 the
    truncation is below rounding for |z| <= 0.99."""
    base = np.zeros(order + 2, dtype=np.complex128)
    base[0] = 1.0
    base[n] = -1.0
    fprime = exp_raw(log_raw(base) / n)  # one term more than f/z needs
    inv_fz = reciprocal_raw(fprime[:-1] / np.arange(1, order + 2))  # z / integral_0^z f'
    fprime = fprime[:-1]
    u = mul_raw(mul_raw(inv_fz, inv_fz), fprime)
    u[0] -= 1.0
    w = mul_raw(fprime, inv_fz)
    return np.max(np.abs(eval_raw(u, z))), np.min(eval_raw(w, z).real)


TAIL_RADII = (0.9, 0.99)


@functools.cache
def _tail_case(n):
    """U's and z f'/f's reports for g_family(n) on TAIL_RADII, each with
    |measured - order-8192 reference|."""
    z = _sample_points(TAIL_RADII, DEFAULT_SAMPLES)
    ref_u, ref_w = reference_g_family(n, z)
    u = u_deficiency(g_family(n), 1.0, TAIL_RADII)
    w = min_re_starlike(g_family(n), 0.0, TAIL_RADII)
    return (u, abs(u.measured - ref_u)), (w, abs(w.measured - ref_w))


class TestGFamilyTail:
    @pytest.mark.parametrize("n", [2, 5, 50, 100, 200, 256, 257, 300, 1000, 2000])
    def test_tail_bound_covers_the_truncation(self, n):
        # f/z is a series in z^n: the tail must cover the first omitted
        # term; above the series order (256) f/z - 1 is all tail, and at
        # n = 2000 the rounding allowance is most of it
        for rep, err in _tail_case(n):
            assert math.isfinite(rep.tail_bound)
            assert rep.tail_bound >= err

    @pytest.mark.parametrize("n", [129, 200, 256])
    def test_tail_bound_is_tight(self, n):
        # the first omitted term of the series in z^n is most of the error
        # here, so a bound that reads it is within a small factor
        for rep, err in _tail_case(n):
            assert rep.tail_bound <= 10.0 * err

    def test_above_the_series_order_the_smaller_bound_is_taken(self):
        # n > 256: f/z - 1 is all tail, and d/(n + 1) (9.90e-9 here) is
        # below the first-omitted-term bound (1.01e-8), which alone would
        # leave the verdict inconclusive at SERIES_TAIL_LIMIT = 1e-8
        rep = u_deficiency(g_family(3080), 1.0, m=64)
        assert rep.tail_bound < 1e-8
        assert rep.verdict == "pass"

    def test_blind_window_no_longer_passes(self):
        # the order-8192 values are 0.02299 and 0.97688
        assert u_deficiency(g_family(100), 0.015).verdict == "inconclusive"
        assert min_re_starlike(g_family(100), 0.98).verdict == "inconclusive"


class TestGFamilyPower:
    """atlas._power, the z^(n-1) of g_family's pointwise values."""

    def test_numpys_own_power_below_100(self):
        z = _sample_points(DEFAULT_RADII, DEFAULT_SAMPLES)
        for k in range(100):
            assert atlas._power(z, k).tobytes() == (z**k).tobytes(), k

    @pytest.mark.parametrize("k", [100, 199, 1999])
    def test_within_the_stated_allowance(self, k):
        # each of the k - 1 products of the factor tree errs by at most
        # sqrt(5) u relative, so z^k errs by sqrt(5) (k - 1) u <= 5 k u
        z = _sample_points((0.9, 0.99), 64)
        got = atlas._power(z, k)
        allowance = math.sqrt(5.0) * (k - 1) * 2.0**-53
        with mpmath.workdps(30):
            for w, g in zip(z.tolist(), got.tolist()):
                exact = mpmath.mpc(w) ** k
                assert abs(mpmath.mpc(g) - exact) <= allowance * abs(exact), (w, k)

    def test_largest_n_takes_log_n_products(self):
        # n = 2^63 - 1: 62 squarings and 61 products per block, not one per
        # factor of z
        z = _sample_points(DEFAULT_RADII, DEFAULT_SAMPLES)[: membership.BLOCK_POINTS]
        start = time.perf_counter()
        w = atlas._power(z, 2**63 - 2)
        assert time.perf_counter() - start < 5.0
        assert np.all(w == 0)


POLE_AT_THIRD = "rational(num=[0,1], den=[1,-3])"  # U = 0 for every z/(1 - a z)


class TestInteriorZeros:
    @pytest.mark.parametrize(
        "text,query,threshold,note",
        [
            (POLE_AT_THIRD, u_deficiency, 1.0, "a pole of modulus 0.333333"),
            (POLE_AT_THIRD, g_class_sup, 1.0, "a pole of modulus 0.333333"),
            (
                "exact_u(lambda=0.5, a2=3, psi=[0.5])",
                u_deficiency,
                0.5,
                "a pole of modulus 0.324555",
            ),
            # f = z - 2 z^2 vanishes at 1/2, yet Re(z f'/f) > 1.6 for |z| >= 0.9
            (
                "rational(num=[0,1,-2], den=[1])",
                min_re_starlike,
                0.0,
                "a zero of modulus 0.5",
            ),
        ],
    )
    def test_zero_of_a_part_inside_the_disk_fails(self, text, query, threshold, note):
        # sampling alone passes each of these
        rep = query(parse_spec(text), threshold)
        assert rep.verdict == "fail"
        assert rep.note == f"f has {note} inside the disk"

    def test_note_goes_through_the_zero_rule(self, monkeypatch):
        # the note reads atlas.root_test, the rule the exact_u search
        # applies, in one call on B and A stacked, the shorter padded with
        # zero high-order coefficients; B's pole note wins over A's zero
        # note, and each modulus is that of the unpadded part
        calls = []
        root_test = atlas.root_test

        def recording(q):
            calls.append(q.tolist())
            return root_test(q)

        monkeypatch.setattr(atlas, "root_test", recording)
        rep = u_deficiency(parse_spec(POLE_AT_THIRD), 1.0)
        assert rep.note == "f has a pole of modulus 0.333333 inside the disk"
        assert calls == [[[1.0, -3.0], [1.0, 0.0]]]
        calls.clear()
        assert u_deficiency(f_lambda(0.5), 0.5).note == ""
        a, b = atlas.rational_parts(f_lambda(0.5))
        assert calls == [[b.tolist(), np.pad(a, (0, b.size - a.size)).tolist()]]
        calls.clear()
        # A = 1 - 2 z + z^3 / 8, with a zero near 0.5, is longer than B = 1 - 3 z
        both = parse_spec("rational(num=[0, 1, -2, 0, 0.125], den=[1, -3])")
        assert u_deficiency(both, 1.0).note == "f has a pole of modulus 0.333333 inside the disk"
        assert calls == [[[1.0, -3.0, 0.0, 0.0], [1.0, -2.0, 0.0, 0.125]]]
        calls.clear()
        zero = parse_spec("rational(num=[0, 1, -2, 0, 0.125], den=[1])")
        modulus = np.min(np.abs(np.roots([0.125, 0.0, -2.0, 1.0])))
        note = u_deficiency(zero, 1.0).note
        assert note == f"f has a zero of modulus {modulus:.6g} inside the disk"
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "text",
        ["schwarz_superset(lambda=0.5, omega=[0.3,0.2i])", "g_family(n=1)", "k_alpha(alpha=0.3)"],
    )
    def test_parts_are_built_once_per_query(self, monkeypatch, text):
        # the sampled values and the zero note read the same (A, B)
        calls = []
        rational_parts = atlas.rational_parts
        monkeypatch.setattr(
            atlas, "rational_parts", lambda spec: calls.append(spec) or rational_parts(spec)
        )
        u_deficiency(parse_spec(text), 1.0)
        assert len(calls) == 1


class TestStarlike:
    def test_koebe_minimum(self):
        rep = min_re_starlike(koebe(0.0), 0.0, radii=[0.9])
        assert rep.measured == pytest.approx(0.1 / 1.9, abs=1e-12)
        assert rep.verdict == "pass"

    def test_half_plane_order_half(self):
        rep = min_re_starlike(half_plane(), 0.5, radii=[0.99])
        assert rep.measured == pytest.approx(1.0 / 1.99, abs=1e-12)
        assert rep.verdict == "pass"

    def test_f1_not_starlike(self):
        rep = min_re_starlike(f1(), 0.0, radii=[0.99])
        assert rep.measured < 0
        assert rep.verdict == "fail"

    def test_k_alpha_is_starlike_of_its_order(self):
        from logcoef.verify import starlike_order

        for alpha in (0.0, 0.25, 0.5, 0.75):
            beta = starlike_order(alpha)
            rep = min_re_starlike(k_alpha(alpha), beta - 1e-3, radii=[0.99])
            assert rep.verdict == "pass", (alpha, rep.measured, beta)


class TestGClass:
    def test_f0_approaches_boundary(self):
        rep = g_class_sup(f0(), 1.0, radii=[0.999])
        assert rep.measured == pytest.approx(1.0 + 0.999 / 1.999, abs=1e-12)
        assert rep.verdict == "pass"
        assert rep.margin < 3e-4  # boundary member: pass with a thin margin

    @pytest.mark.parametrize("n", range(1, 7))
    def test_g_family_members(self, n):
        rep = g_class_sup(g_family(n), 1.0)
        assert rep.verdict == "pass"

    def test_half_plane_not_in_class(self):
        rep = g_class_sup(half_plane(), 1.0, radii=[0.9])
        assert rep.measured == pytest.approx(19.0, abs=1e-10)
        assert rep.verdict == "fail"


def _golden_member_specs():
    """The specs of the CLI's golden `member` digests, in file order."""
    path = Path(__file__).parent / "data" / "render_member_sha256.jsonl"
    rows = [json.loads(line)["argv"] for line in path.read_text().splitlines()]
    return list(dict.fromkeys(argv[1] for argv in rows if argv[0] == "member"))


GOLDEN_MEMBER_SPECS = _golden_member_specs()


class TestSamplingPolicy:
    @pytest.mark.parametrize("spec", SMOOTH_SPECS, ids=render)
    def test_radius_monotonicity(self, spec):
        radii = (0.5, 0.8, 0.9, 0.99)
        u = [u_deficiency(spec, 1.0, radii=[r]).measured for r in radii]
        g = [g_class_sup(spec, 1.0, radii=[r]).measured for r in radii]
        for a, b in zip(u, u[1:]):
            assert a <= b + 1e-9
        for a, b in zip(g, g[1:]):
            assert a <= b + 1e-9

    @pytest.mark.parametrize("spec", SMOOTH_SPECS, ids=render)
    def test_refinement_stability(self, spec):
        for fn in (u_deficiency, g_class_sup):
            a = fn(spec, 1.0, radii=[0.9, 0.99], m=4096).measured
            b = fn(spec, 1.0, radii=[0.9, 0.99], m=8192).measured
            assert abs(a - b) <= 1e-6

    def test_reports_are_reproducible(self):
        a = u_deficiency(f_lambda(0.5), 0.5)
        b = u_deficiency(f_lambda(0.5), 0.5)
        assert a == b

    @pytest.mark.parametrize("text", GOLDEN_MEMBER_SPECS)
    def test_reports_do_not_depend_on_the_block_size(self, monkeypatch, text):
        spec = parse_spec(text)

        def reports():
            queries = ((u_deficiency, 1.0), (min_re_starlike, 0.0), (g_class_sup, 1.0))
            return json.dumps([query(spec, t).to_dict() for query, t in queries])

        want = reports()
        for block in (333, 2 * len(DEFAULT_RADII) * DEFAULT_SAMPLES):
            monkeypatch.setattr(membership, "BLOCK_POINTS", block)
            assert reports() == want

    def test_a_query_prepares_its_spec_once(self, monkeypatch):
        # g_family's order-256 series is built once, not once per block
        calls = []
        fz_series = atlas.fz_series

        def counted(*args):
            calls.append(args)
            return fz_series(*args)

        monkeypatch.setattr(atlas, "fz_series", counted)
        u_deficiency(g_family(5), 1.0)
        assert calls == [(g_family(5), atlas.SERIES_EVAL_ORDER)]

    def test_bad_radii(self):
        with pytest.raises(ValueError):
            u_deficiency(f0(), 1.0, radii=[1.0])
        with pytest.raises(ValueError):
            u_deficiency(f0(), 1.0, radii=[])

    def test_min_samples(self):
        with pytest.raises(ValueError):
            u_deficiency(f0(), 1.0, m=32)

    def test_threshold_ranges(self):
        with pytest.raises(ValueError):
            u_deficiency(f0(), 1.5)
        with pytest.raises(ValueError):
            g_class_sup(f0(), 0.0)
        for beta in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="beta must be finite"):
                min_re_starlike(f0(), beta)

    def test_report_dict_fields(self):
        d = u_deficiency(f0(), 1.0).to_dict()
        assert set(d) == {
            "spec",
            "query",
            "threshold",
            "radii",
            "samples_per_circle",
            "measured",
            "margin",
            "verdict",
            "tail_bound",
            "note",
        }


class TestHardFailures:
    def test_sample_on_a_pole_of_f(self):
        # z/f = 1 - 1.5 z - 0.5 z^2 vanishes at a real point inside the
        # disk; sampling that circle hits the zero and must hard-fail
        from logcoef.atlas import exact_u_denominator

        q = exact_u_denominator(0.5, 1.5, [1.0])
        root = min(
            (r.real for r in np.roots(q[::-1]) if abs(r.imag) < 1e-12 and r.real > 0),
        )
        spec = exact_u(0.5, 1.5, [1.0])
        with pytest.raises(MembershipError, match="z/f vanishes"):
            u_deficiency(spec, 0.5, radii=[root])

    def test_sample_on_a_zero_of_f_prime(self):
        # f' = 1 + (10/9) z vanishes at z = -0.9, a sample point of r = 0.9
        spec = parse_spec("rational(num=[0,1,0.5555555555555556], den=[1])")
        with pytest.raises(MembershipError, match="f' vanishes at a sample point"):
            g_class_sup(spec, 1.0, radii=[0.9])

    @pytest.mark.parametrize("query", [u_deficiency, min_re_starlike])
    def test_sample_on_a_zero_of_f(self, query):
        # f = z - 2 z^2 vanishes at z = 1/2, a sample point of r = 1/2
        spec = parse_spec("rational(num=[0,1,-2], den=[1])")
        with pytest.raises(MembershipError, match="f vanishes at a sample point away from 0"):
            query(spec, 0.5, radii=[0.5])

    @pytest.mark.parametrize("query", [u_deficiency, min_re_starlike])
    def test_a_pole_outranks_a_zero_at_an_earlier_point(self, query):
        # f = z (1 - a z) / (1 + a z), a = 10/9, vanishes at z = 0.9, the
        # first sample point, and has a pole at z = -0.9, half a circle on
        # and in a later block: the pole is reported, though sampled later
        spec = parse_spec(
            "rational(num=[0, 1, -1.1111111111111112], den=[1, 1.1111111111111112])"
        )
        with pytest.raises(MembershipError, match="pole of f at a sample point"):
            query(spec, 0.5, radii=[0.9])

    def test_tail_reaching_f_over_z_stays_finite(self):
        # at r = 1 - 1e-7 the order-256 tail bound of g_family(2) exceeds
        # |f/z|, so no change of U is excluded
        rep = u_deficiency(g_family(2), 1.0, radii=[1.0 - 1e-7])
        assert rep.verdict == "inconclusive"
        assert math.isfinite(rep.tail_bound)
        json.loads(json.dumps(rep.to_dict(), allow_nan=False))
