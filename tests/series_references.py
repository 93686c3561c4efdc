"""References for the closed-form series of g_family and k_alpha, for
the subordination kernel G_alpha built from k_alpha's series, for the
search's stacked candidate draw, curvature bound and certified sup, for
the superset denominator, and for the search's coefficient values.

Two kinds of reference: the exp/log routes the closed forms replaced, kept
here as they stood, and mpmath values at 30 digits from the rising
factorial, which share no recurrence with the package.

Allowed error, relative: each coefficient is a running product of m <= N
factors, and each step rounds at most twice, once in the product and once
in its factor.  g_family's factor is the quotient of the exact integers
(j - 1) n - 1 and jn, rounded once (N / n <= 2048 factors for n >= 2; for
n = 1 the coefficients are exact).  k_alpha's factor 1 - 2 alpha / (m + 1)
is rounded once, and its division moves it by a further
2 alpha / (m + 1 - 2 alpha) units in the last place, about
(2 ln N + alpha / (1 - alpha)) 2^-53 over all factors, below 30 2^-53 for
alpha <= 0.9.  So the m-th coefficient errs by at most
(1 + 2^-53)^(2m) - 1 ~ 2m 2^-53 = 9.1e-13 at m = 4096, plus 30 2^-53, and
one more rounding for g_family's division by jn + 1: below 1e-12.
"""

import math

import mpmath
import numpy as np

from logcoef import atlas
from logcoef import search as S
from logcoef.series import (
    TruncatedSeries,
    reciprocal_raw,
    shift_down,
    ts_exp,
    ts_integrate,
    ts_log,
    ts_reciprocal,
)

SERIES_RTOL = 1e-12

G_FAMILY_NS = [1, 2, 3, 5, 64, 255, 256, 257, 1000]
K_ALPHAS = [0.0, 0.25, 0.5, 0.5 - 1e-9, 0.5 + 1e-9, 0.5 - 1e-7, 0.5 + 1e-7, 0.75, 0.9]


# ---------------------------------------------------------------------------
# The deleted exp/log routes.

def deleted_g_family_fz(n: int, order: int) -> np.ndarray:
    """f/z of g_family(n) from f' = exp(log(1 - z^n) / n), integrated and
    divided by z."""
    base = np.zeros(order + 2, dtype=np.complex128)
    base[0] = 1.0
    if n <= order + 1:
        base[n] = -1.0
    fprime = ts_exp((1.0 / n) * ts_log(TruncatedSeries(base)))
    return shift_down(ts_integrate(fprime)).coeffs


def deleted_k_alpha_fz(alpha: float, order: int) -> np.ndarray:
    """K/z = ((1 - z)^-x - 1) / (x z), x = 1 - 2 alpha, from
    (1 - z)^(-x) = exp(-x log(1 - z)); -log(1 - z)/z within
    atlas.ALPHA_HALF_SWITCH of x = 0."""
    if abs(1.0 - 2.0 * alpha) < atlas.ALPHA_HALF_SWITCH:
        return 1.0 / (np.arange(order + 1) + 1.0) + 0j
    one_minus_z = np.zeros(order + 2, dtype=np.complex128)
    one_minus_z[:2] = [1.0, -1.0]
    u = ts_exp((2.0 * alpha - 1.0) * ts_log(TruncatedSeries(one_minus_z))).coeffs
    fz = u[1:] / (1.0 - 2.0 * alpha)
    fz.real[0] = 1.0  # K/z(0) = 1 exactly; complex x/x can give 0.9999999999999999
    return fz


def deleted_g_kernel(alpha: float, order: int) -> np.ndarray:
    """G_alpha = z K'/K as 1 / ((1 - z) v), v = (1 - (1 - z)^x) / (x z), or
    v = -log(1 - z)/z within atlas.ALPHA_HALF_SWITCH of x = 0."""
    one_minus_z = np.zeros(order + 1, dtype=np.complex128)
    one_minus_z[0] = 1.0
    if order >= 1:
        one_minus_z[1] = -1.0
    x = 1.0 - 2.0 * alpha
    if abs(x) < atlas.ALPHA_HALF_SWITCH:
        v = TruncatedSeries(1.0 / (np.arange(order + 1) + 1.0))
    else:
        ln = ts_log(TruncatedSeries(np.append(one_minus_z, 0.0)))
        w = ts_exp(x * ln).coeffs
        v = TruncatedSeries(w[1:] / -x)
    return ts_reciprocal(TruncatedSeries(one_minus_z) * v).coeffs


# ---------------------------------------------------------------------------
# mpmath at 30 digits, rounded to float64 at the end.

def _mp_k_alpha(alpha: float, order: int) -> list:
    """p_m = rf(x + 1, m) / (m + 1)!, the coefficients of
    ((1 - z)^-x - 1) / (x z) with no division by x."""
    x = 1 - 2 * mpmath.mpf(alpha)
    return [mpmath.rf(x + 1, m) / mpmath.factorial(m + 1) for m in range(order + 1)]


def mp_g_family_fz(n: int, order: int) -> np.ndarray:
    """c_j / (jn + 1) at index jn, c_j = rf(-1/n, j) / j! the coefficients
    of (1 - w)^(1/n)."""
    out = np.zeros(order + 1)
    with mpmath.workdps(30):
        for j in range(order // n + 1):
            c = mpmath.rf(-1 / mpmath.mpf(n), j) / mpmath.factorial(j)
            out[j * n] = float(c / (j * n + 1))
    return out


def mp_k_alpha_fz(alpha: float, order: int) -> np.ndarray:
    with mpmath.workdps(30):
        return np.array([float(p) for p in _mp_k_alpha(alpha, order)])


def mp_g_kernel(alpha: float, order: int) -> np.ndarray:
    """G_alpha from K' = sum (m + 1) p_m z^m divided by K/z term by term:
    O(order^2) at 30 digits, so kept to short orders."""
    with mpmath.workdps(30):
        p = _mp_k_alpha(alpha, order)
        g = []
        for k in range(order + 1):
            g.append((k + 1) * p[k] - mpmath.fdot(p[1 : k + 1], g[::-1]))
        return np.array([float(v) for v in g])


def rel_err(got: np.ndarray, ref: np.ndarray) -> float:
    """Largest |got - ref| / |ref|: 0 where they are equal, inf where ref is
    0 and got is not."""
    with np.errstate(divide="ignore", invalid="ignore"):
        err = np.abs(got - ref) / np.abs(ref)
    return float(np.max(np.where(got == ref, 0.0, err)))


def check_series(got: np.ndarray, ref: np.ndarray, old: np.ndarray):
    """got is within SERIES_RTOL of the mpmath values ref.  It is within
    SERIES_RTOL of the deleted route's old where that route is itself within
    SERIES_RTOL of ref, and closer to ref than old where it is not."""
    err = rel_err(got, ref)
    assert err <= SERIES_RTOL
    old_err = rel_err(old, ref)
    if old_err <= SERIES_RTOL:
        assert rel_err(got, old) <= SERIES_RTOL
    else:
        assert err < old_err


# ---------------------------------------------------------------------------
# The search's per-row candidate routes, as they stood before they stacked.

def convolved_blaschke_batch(rng, count: int) -> np.ndarray:
    """search._draw_blaschke_batch with each row built alone: one
    np.convolve per zero.  It draws from rng in the same order."""
    out = np.zeros((count, S._BLASCHKE_TRUNC + 1), dtype=np.complex128)
    nz = rng.integers(1, S._BLASCHKE_MAX_ZEROS + 1, size=count)
    zeros = S._draw_disk(rng, (count, S._BLASCHKE_MAX_ZEROS), S._BLASCHKE_ZERO_RADIUS)
    phases = np.exp(2j * math.pi * rng.random(count))
    ks = np.arange(S._BLASCHKE_TRUNC + 1)
    for i in range(count):
        acc = np.zeros(S._BLASCHKE_TRUNC + 1, dtype=np.complex128)
        acc[0] = phases[i]
        for a in zeros[i, : nz[i]]:
            # (z - a)/(1 - conj(a) z) = -a + (1-|a|^2) sum_k conj(a)^(k-1) z^k
            fac = np.empty(S._BLASCHKE_TRUNC + 1, dtype=np.complex128)
            fac[0] = -a
            fac[1:] = (1.0 - abs(a) ** 2) * np.conj(a) ** ks[:-1]
            acc = np.convolve(acc, fac)[: S._BLASCHKE_TRUNC + 1]
        out[i] = acc
    return out


def convolved_superset_denominator(lam: float, omega) -> np.ndarray:
    """atlas.superset_denominator of one row as np.convolve of its two
    factors, the route it had before it stacked."""
    zw = np.concatenate(([0.0], np.asarray(omega, dtype=np.complex128)))
    u = -zw
    u[0] += 1.0
    v = -lam * zw
    v[0] += 1.0
    return np.convolve(u, v)


def per_shift_curvature_bound(batch: np.ndarray) -> np.ndarray:
    """search._curvature_bound with one einsum per shift."""
    d = batch.shape[1]
    m2 = np.zeros(batch.shape[0])
    for mu in range(1, d):
        beta = np.einsum("ij,ij->i", batch[:, mu:], batch[:, : d - mu].conj())
        m2 += 2.0 * mu * mu * np.abs(beta)
    return m2


def sampled_modulus_max(batch: np.ndarray, samples: int) -> np.ndarray:
    """max |w| over `samples` equispaced points of the unit circle for each
    row w of `batch`, by the route the search's sampler replaced: the
    complex product with the matrix e^{i k theta_j}, then the modulus."""
    theta = 2.0 * math.pi * np.arange(samples) / samples
    matrix = np.exp(1j * np.outer(theta, np.arange(batch.shape[1])))
    return np.max(np.abs(matrix @ batch.T), axis=0)


def sampled_sup_bound(batch: np.ndarray) -> np.ndarray:
    """search.certified_sup_bound by the route it replaced: the sampled max
    of |w| (sampled_modulus_max), squared, plus the same gap term."""
    gmax = sampled_modulus_max(batch, S.CERT_SAMPLES) ** 2
    h = 2.0 * math.pi / S.CERT_SAMPLES
    return np.sqrt(gmax + per_shift_curvature_bound(batch) * h * h / 8.0)


def certified_batch(rng, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The blocks of search._candidate_blocks padded with zero columns and
    stacked into one chunk of rows, and the factor divided out of each row."""
    blocks = S._candidate_blocks(rng, count)
    width = blocks[-1][0].shape[1]
    batch = np.vstack([np.pad(b, ((0, 0), (0, width - b.shape[1]))) for b, _ in blocks])
    return batch, np.concatenate([scale for _, scale in blocks])


# ---------------------------------------------------------------------------
# |a_n| of f = z/q: the per-row route the screen replaced, and the exact
# value of the float inputs at 30 digits.

def per_row_coeff(q: np.ndarray, n: int) -> float:
    """|a_n| from reciprocal_raw on the first n coefficients of q."""
    qq = np.zeros(n, dtype=np.complex128)
    m = min(n, q.size)
    qq[:m] = q[:m]
    return abs(complex(reciprocal_raw(qq)[n - 1]))


def _mp_coeff(q: list, n: int):
    """|coefficient n - 1 of 1/q| for mpmath coefficients q (q_0 = 1)."""
    q = q[:n] + [mpmath.mpc(0)] * (n - len(q))
    b = [mpmath.mpc(1)]
    for k in range(1, n):
        b.append(-mpmath.fsum(q[j] * b[k - j] for j in range(1, k + 1)))
    return abs(b[n - 1])


def mp_coeff(q: np.ndarray, n: int):
    """|a_n| of f = z/q for the float coefficients q, at 30 digits."""
    with mpmath.workdps(30):
        return _mp_coeff([mpmath.mpc(c.real, c.imag) for c in q], n)


def mp_superset_denominator(lam: float, omega: np.ndarray, count: int) -> list:
    """Coefficients 0..count-1 of (1 - z w)(1 - lam z w) for the float
    coefficients of w and the float lam, as mpmath values at the working
    precision."""
    zw = [mpmath.mpc(0)] + [mpmath.mpc(c.real, c.imag) for c in omega[: count - 1]]
    u = [-c for c in zw]
    v = [-mpmath.mpf(lam) * c for c in zw]
    u[0] += 1
    v[0] += 1
    m = len(zw)
    return [
        mpmath.fsum(u[j] * v[k - j] for j in range(max(0, k - m + 1), min(k + 1, m)))
        for k in range(min(count, 2 * m - 1))
    ]


def mp_superset_coeff(lam: float, omega: np.ndarray, n: int):
    """|a_n| of f = z / ((1 - z w)(1 - lam z w)) for the float coefficients
    of w and the float lam, at 30 digits: the denominator's product is
    taken at 30 digits too."""
    with mpmath.workdps(30):
        return _mp_coeff(mp_superset_denominator(lam, omega, n), n)
