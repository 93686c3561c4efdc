"""Acceptance suite: one test per acceptance criterion, each printing a
pass line with the measured quantity once its assertions hold.

Criterion 10's open question (whether the coefficient bound can be beaten
for n >= 5) is exercised as a property of the harness only: determinism,
the membership post-check, and recovery of the known extremal.  Nothing
here asserts the conjecture itself.  The qualitative boundary-curve
reproduction (closed SVG curves for lambda in {0.25, 0.5, 0.75, 1}) lives
in test_cli.py::TestCurveGeometry.
"""

import math
import time

import mpmath
import numpy as np

from logcoef import atlas, membership
from logcoef import search as S
from logcoef.dilog import PI2_6, li2
from logcoef.search import (
    build_exact_u_function,
    coefficient_recursion_residuals,
    conjectured_bound,
    mu_nu,
    search_max_coeff,
    validate_exact_u,
    validate_schwarz,
)
from logcoef.series import TruncatedSeries, ts_exp, ts_log
from logcoef.verify import (
    convex_order_profile,
    f0_weighted_l2_closed_tail,
    f1_l2_alternating_route,
    flambda_l2_closed_tail,
    g_class_bounds,
    gamma_l2,
    glambda_l2_closed_tail,
    li2_tail,
    log_coefficients,
    sharpness_terms,
    starlike_order,
    ulambda_l2_bound,
)
from series_references import certified_batch

LAMBDA_GRID_4 = (0.25, 0.5, 0.75, 1.0)


def report(k, text):
    print(f"\n[criterion {k:2d}] PASS: {text}")


def test_criterion_01_sharp_bound_equality():
    t0 = time.perf_counter()
    worst = 0.0
    for lam in LAMBDA_GRID_4:
        prof = log_coefficients(atlas.g_lambda(lam), 128)
        total = gamma_l2(prof).value + glambda_l2_closed_tail(lam, 128)
        worst = max(worst, abs(total - ulambda_l2_bound(lam)))
        assert abs(total - ulambda_l2_bound(lam)) <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"equality family attains the sharp l2 bound, worst dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_koebe_limit_from_below():
    t0 = time.perf_counter()
    # series route sanity at moderate order
    prof = log_coefficients(atlas.koebe(0.0), 128)
    ns = np.arange(1, 129)
    assert np.max(np.abs(prof.gammas - 1.0 / ns)) < 1e-12
    # closed-form partial sums at N = 1e5
    n = 100_000
    partials = np.cumsum(1.0 / np.arange(1, n + 1) ** 2)
    checkpoints = partials[[99, 999, 9999, n - 1]]
    assert np.all(np.diff(checkpoints) > 0)
    assert np.all(checkpoints < PI2_6)
    tail = PI2_6 - partials[-1]
    assert 0.0 < tail <= 2.0 / n
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(2, f"koebe partial sums rise to pi^2/6, tail at N=1e5 is {tail:.3e} <= 2/N, {elapsed:.2f}s")


def test_criterion_03_counterexample_claims():
    for lam in LAMBDA_GRID_4:
        prof = log_coefficients(atlas.f_lambda(lam), 16)
        beaten = [
            n
            for n in range(2, 11, 2)
            if abs(prof.gammas[n - 1]) > (1.0 + lam**n) / (2.0 * n)
        ]
        assert beaten, f"no even-index excess at lambda={lam}"
        full = gamma_l2(log_coefficients(atlas.f_lambda(lam), 128)).value
        full += flambda_l2_closed_tail(lam, 128)
        assert full < ulambda_l2_bound(lam)
    prof = log_coefficients(atlas.f1(), 128)
    direct = gamma_l2(prof).value + flambda_l2_closed_tail(1.0, 128)
    alt = f1_l2_alternating_route()
    assert abs(direct - alt) <= 1e-10
    report(
        3,
        f"termwise bound beaten at even n for all grid lambda; "
        f"f1 l2 routes agree to {abs(direct - alt):.2e}",
    )


def test_criterion_04_sign_scans():
    t0 = time.perf_counter()
    for k in range(1, 101):
        assert sharpness_terms(k / 100.0, 0.0).gap < 0.0
    # 100 x 101 grid; the lambda = t = 1 corner vanishes identically and is
    # checked as nonnegative-within-rounding rather than strictly positive
    worst_consistency = 0.0
    for i in range(1, 101):
        lam = i / 100.0
        prev_kernel = math.inf
        for j in range(101):
            t = j / 100.0
            terms = sharpness_terms(lam, t)  # raises above 1e-12 inconsistency
            if lam == 1.0 and t == 1.0:
                assert terms.integrand >= -1e-12
                assert terms.kernel >= -1e-12
            else:
                assert terms.integrand > 0.0
                assert terms.kernel > 0.0
            assert terms.kernel <= prev_kernel + 1e-12
            prev_kernel = terms.kernel
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(4, f"gap < 0 on the 100-point grid; integrand/kernel positive on 100x101, {elapsed:.2f}s")


def test_criterion_05_bounded_convexity_suite():
    bounds = g_class_bounds(1.0)
    # equality member z - z^2/2
    prof = log_coefficients(atlas.f0(), 40)
    weighted = gamma_l2(prof, "n_squared").value + f0_weighted_l2_closed_tail(40)
    assert abs(weighted - 1.0 / 12.0) <= 1e-12
    plain = gamma_l2(prof).value + 0.25 * li2_tail(0.25, 40)
    assert abs(plain - bounds.plain_l2) <= 1e-9
    # one-sided chain for the one-index family
    for n in range(1, 7):
        p = log_coefficients(atlas.g_family(n), 128)
        assert gamma_l2(p, "n_squared").value <= bounds.weighted_l2 + 1e-9
        assert gamma_l2(p).value <= bounds.plain_l2 + 1e-9
        ks = np.arange(1, p.gammas.size + 1)
        assert np.all(np.abs(p.gammas) <= bounds.coeff_factor / ks + 1e-9)
    # leading coefficient and the refuted naive conjecture
    for n in range(2, 7):
        p = log_coefficients(atlas.g_family(n), 64)
        lead = abs(p.gammas[n - 1])
        assert abs(lead - 1.0 / (2 * n * (n + 1))) <= 1e-10
        assert lead > 1.0 / (n * 2.0 ** (n + 1))
    report(5, "boundary member attains both l2 bounds; one-index family satisfies the chain")


def test_criterion_06_convex_order_suite():
    n = 128
    prof = log_coefficients(atlas.half_plane(), n)
    partial = gamma_l2(prof).value
    assert 0.0 < PI2_6 / 4 - partial <= 2.0 / n
    for alpha in (0.0, 0.25, 0.5, 0.75):
        p = convex_order_profile(alpha, n)
        kprof = log_coefficients(atlas.k_alpha(alpha), n)
        assert abs(gamma_l2(kprof).value - p.gamma_l2) <= 1e-10
        assert np.max(np.abs(p.delta)) <= 2.0 * (1.0 - p.beta) + 1e-9
    assert abs(starlike_order(0.0) - 0.5) <= 1e-12
    assert abs(starlike_order(0.5) - 1.0 / (2 * math.log(2))) <= 1e-12
    report(6, "convex-order chain: kernel equality, delta bounds, and both order anchors")


def test_criterion_07_proved_bounds_superset():
    # this thread's CPU time: wall time counts other processes' load, and
    # process time counts BLAS worker threads that spin while they wait
    t0 = time.thread_time()
    worst_excess = -math.inf
    for n in (2, 3, 4):
        for k in range(1, 11):
            lam = k / 10.0
            bound = conjectured_bound(lam, n)
            for seed in (0, 1, 2):
                rec = search_max_coeff(lam, n, "superset", budget=10_000, seed=seed)
                assert rec.achieved <= bound + 1e-9, (lam, n, seed, rec.achieved)
                assert rec.achieved >= bound - 1e-12, (lam, n, seed, rec.achieved)
                worst_excess = max(worst_excess, rec.achieved - bound)
    elapsed = time.thread_time() - t0
    assert elapsed < 120.0
    report(
        7,
        f"90 searches (n=2..4, 10 lambdas, 3 seeds, budget 1e4) stay within "
        f"the proven bounds; worst excess {worst_excess:.2e}, {elapsed:.1f}s",
    )


def test_criterion_08_prokhorov_szynal_property():
    rng = np.random.default_rng(0)
    worst = -1.0
    mus_nus = [mu_nu(k / 10.0) for k in range(1, 10)]
    remaining = 100_000
    while remaining > 0:
        take = min(4096, remaining)
        batch, _ = certified_batch(rng, take)
        c1 = batch[:, 0]
        c2 = batch[:, 1]
        c3 = batch[:, 2]
        for mu, nu in mus_nus:
            ratios = np.abs(c3 + mu * c1 * c2 + nu * c1**3) / abs(nu)
            worst = max(worst, float(np.max(ratios)))
        remaining -= take
    assert worst <= 1.0 + 1e-9
    # coefficient recursion identities on 1e3 random (lambda, omega)
    worst_resid = 0.0
    for _ in range(10):
        lams = 0.05 + 0.9 * rng.random(100)
        batch, _ = certified_batch(rng, 100)
        for lam, row in zip(lams, batch):
            w = validate_schwarz(S._trim(row))
            worst_resid = max(
                worst_resid, float(np.max(coefficient_recursion_residuals(lam, w)))
            )
    assert worst_resid <= 1e-11
    report(
        8,
        f"cubic Schwarz bound: worst ratio {worst:.6f} over 1e5 samples x 9 "
        f"(mu, nu); recursion residuals <= {worst_resid:.2e} on 1e3 draws",
    )


def test_criterion_09_kernel_and_dilog_properties():
    # exp(log(.)) round trip on 1e3 random series at order 64.  Coefficients
    # are bounded by 1 with a geometric envelope: series with zeros inside
    # the disk make the double-precision log representation lose the target
    # digits no matter the implementation, so the draw keeps log bounded.
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        env = 0.45 ** np.arange(65)
        c = env * np.sqrt(rng.random(65)) * np.exp(2j * np.pi * rng.random(65))
        c[0] = 1.0
        s = TruncatedSeries(c)
        back = ts_exp(ts_log(s))
        worst = max(worst, float(np.max(np.abs(back.coeffs - s.coeffs))))
    assert worst <= 1e-12
    grid = [round(-1.0 + 0.01 * k, 10) for k in range(201)]
    dup = max(
        abs(li2(x * x).value - 2.0 * (li2(x).value + li2(-x).value)) for x in grid
    )
    assert dup <= 1e-12
    # against mpmath at 30 digits, each value within li2's own estimate
    with mpmath.workdps(30):
        errs = [
            (abs(float(mpmath.polylog(2, mpmath.mpf(x)) - mpmath.mpf(r.value))), r.est_error)
            for r, x in ((li2(x), x) for x in grid)
        ]
    assert all(err <= est <= 1e-13 for err, est in errs)
    ref = max(err for err, _ in errs)
    report(
        9,
        f"round trip {worst:.2e} (1e3 series, N=64); duplication {dup:.2e}; "
        f"li2-vs-mpmath {ref:.2e}",
    )


def test_criterion_10_exact_class_search_harness():
    # this thread's CPU time: wall time counts other processes' load, and
    # process time counts BLAS worker threads that spin while they wait
    t0 = time.thread_time()
    records = {}
    for lam in (0.3, 0.7):
        for seed in (0, 1):
            rec = search_max_coeff(lam, 5, "exact_u", budget=10_000, seed=seed)
            records[(lam, seed)] = rec
            lower = conjectured_bound(lam, 5)
            assert rec.achieved >= lower - 1e-12, (lam, seed, rec.achieved)
            # the winning candidate really is a class member: rebuild it
            # through the validated path, which re-runs the post-check
            psi = tuple(complex(re, im) for re, im in rec.params["psi"])
            a2 = complex(*rec.params["a2"])
            p = validate_exact_u(lam, a2, psi)
            build_exact_u_function(p, 8)
            spec = atlas.exact_u(lam, a2, psi)
            dep = membership.u_deficiency(spec, lam, radii=[0.99], m=256)
            assert dep.measured <= lam + 1e-6
    rerun = search_max_coeff(0.7, 5, "exact_u", budget=10_000, seed=1)
    assert rerun.to_json_line() == records[(0.7, 1)].to_json_line()
    elapsed = time.thread_time() - t0
    assert elapsed < 120.0
    margins = {k: rec.margin for k, rec in records.items()}
    report(
        10,
        f"exact-class searches deterministic, post-checked, lower bound "
        f"recovered; margins {margins} ({elapsed:.1f}s)",
    )
