"""Search for extremal Taylor coefficients over Schwarz-parametrized families.

Two families are searched for large |a_n| against the conjectured bound
sum_{k<n} lambda^k:

  * the subordination superset  f/z = 1 / ((1 - z w(z)) (1 - lambda z w(z)))
    over analytic w with |w| <= 1 on the disk (it contains the whole
    bounded-deficiency class), and
  * an exact parametrization of the class itself,
    z/f = 1 - a2 z - lambda z * integral_0^z psi(t) dt with |psi| <= 1,
    filtered for z/f without a zero in the disk so that f is analytic.

The exact parametrization rests on the identity

    (z/f)^2 f' - 1 = -z^2 d/dz (1/f - 1/z),

which gives (z/f)^2 f' - 1 = lambda z^2 psi(z) for the construction above;
the identity is re-verified numerically in the test suite on random
rational functions, and every accepted candidate is additionally pushed
through the class-deficiency post-check as a safety net.

Candidate Schwarz functions are polynomials.  Random candidates are drawn
in the unit polydisk (plus truncated Blaschke products, which live near the
boundary where extremals sit) and rescaled by a certified upper bound on
their boundary sup, so every candidate used is genuinely bounded by one:
the bound combines the sampled boundary maximum with a second-derivative
gap estimate, both from the autocorrelation b of the coefficients.  The
samples of g = |w|^2 are one real product of [b_0, Re b_mu, Im b_mu]
with a cached cosine-sine matrix, run on whole tiles of 8 rows, so a
row's bound does not depend on the rows certified beside it.  Every
sampled sup of the module is that product (_sampled_gmax).

Random candidates come in chunks of 256 rows, drawn and tested as two
blocks, each at its own width: 192 polynomials of degree at most 6 (7
columns), then 64 Blaschke truncations (25 columns).  Each block is
certified on its own and offered to the best as one batch, in row order.
For the exact parametrization the chunk test builds every denominator
z/f = q of a block at once and runs two tests, the second on the
survivors of the first: the root test (no zero of q in the open unit
disk) and the post-check, max |q - z q' - 1| at r = 0.99.  The
root test applies the rule that membership applies to every rational
spec: a zero below atlas.INTERIOR_ZERO_LIMIT = 1 - tau, tau = 1e-6, is
inside, and a zero on the circle (the extremal's at z = 1) is admitted.
It is a batched Schur-Cohn recursion (Henrici, Applied and Computational
Complex Analysis I, section 6.8) on q(rho z) at rho = 1 +- tau: a row is
decided when every step passes at the outer radius (no zero) or a step
fails at the inner one (a zero), each step with a relative margin of
1e-9.  Rows with a zero in that band, or too close to a step's margin,
fall back to the stacked eigvals verdict min |root| >= 1 - tau
(atlas.min_root_modulus: one eigvals call per trimmed degree on companion
matrices, the roots np.roots gives row by row).  The start row's zero at
z = 1 lies in the band, so it always reaches eigvals.  The superset family
has no test.

Every offered batch (the start row, a block of a random chunk, a polish
line) is scored on one value path.  The chunk test runs on every row; then
the screen runs the 1/q recurrence over all accepted rows at once (for the
superset family on atlas.superset_denominator of the first n - 1
coefficients of w, the product a rebuild of the record reads) and gives
each row its |a_n| and a proven bar on its distance from the exact value
(_screen).  The rows are offered to the best in row order under the tie
rule: a row replaces the best only if its value minus its bar exceeds the
best's value plus the best's bar, so of rows tied within rounding the
first offered wins, and a winner other than the extremal start row beats
it by more than rounding.  The rows at or below the best plus both bars
are skipped at once (_pick).  The record reports the
winner's |a_n| as the builders give it (atlas.taylor_of of the named
function, the value a rebuild of the record gets), which lies within the
winner's bar of the screen's value.  validate_exact_u applies the root
test's eigvals verdict alone.

The root test admits a zero of z/f in the band [1 - tau, 1), so an
exact_u winner may beat the bound by up to bound ((1 - tau)^(1-n) - 1),
about 4e-6 bound at n = 5: g(z) = f((1 - tau) z)/(1 - tau) is then in the
class, so |a_n| (1 - tau)^(n-1) = |g_n| <= bound.  A margin in that range
with a zero in the band is such a winner, not a counterexample.

Searches are deterministic: a fixed chunked generation schedule from a
seeded generator, the tie rule applied in offer order, and a
coordinate-wise polish with a fixed sweep plan: each coordinate line is
one batch of _POLISH_ITERS equispaced points, certified together, and the
point moves to the row that replaced the best, if one did.  The last
random chunk draws all its rows but certifies only those the budget
offers.  Each search logs one DEBUG record on the ``logcoef.search``
logger that accounts for its budget: start, random and polish
evaluations, the root-test rows decided by the recursion and by eigvals,
the rows rejected by each of the two tests and the rows accepted, the
largest certified-sup factor divided out of a candidate (1.0 when none
was), the winner's phase (start, random, polish or none) and offer-order
index, and the winner's bar.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from . import atlas
from .series import TruncatedSeries, reciprocal_raw  # noqa: F401  (bench/tracing.py wraps it)

SCHWARZ_GATE_TOL = 1e-10  # sampled boundary sup may exceed 1 by at most this
VALIDATION_SAMPLES = 2048  # boundary samples for the public validation gate
CERT_SAMPLES = 1024  # boundary samples inside the candidate generator
POSTCHECK_RADIUS = 0.99
POSTCHECK_TOL = 1e-6
_POSTCHECK_SAMPLES = 256
_SC_TOL = 1e-9  # relative margin of |p_0| against |p_m| in the recursion
_CHUNK = 256
_POLY_PER_CHUNK = 192  # remainder of each chunk is Blaschke-truncation draws
_MAX_POLY_DEGREE = 6
_BLASCHKE_TRUNC = 24
_BLASCHKE_MAX_ZEROS = 3
_BLASCHKE_ZERO_RADIUS = 0.95
_POLISH_ITERS = 12  # equispaced points per coordinate line, offered as one batch
_POLISH_STEPS = (0.25, 0.08, 0.02)  # line half-widths, one sweep per step
_MATRIX_CACHE_SIZE = 16  # cosine-sine sample matrices kept by _cosine_matrix
_EPS = 2.0**-53  # unit roundoff of float64


_log = logging.getLogger(__name__)


class SearchError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Schwarz-function validation.

@dataclass(frozen=True)
class SchwarzParams:
    """Polynomial w(z) = c1 + c2 z + ... with certified |w| <= 1 + tol."""

    coeffs: tuple[complex, ...]
    validated: bool = False


@dataclass(frozen=True)
class ExactUParams:
    lam: float
    a2: complex
    psi: tuple[complex, ...]
    validated: bool = False


def boundary_sup(coeffs, samples: int = VALIDATION_SAMPLES) -> float:
    """max |w| over `samples` equispaced boundary points, the square root of
    _sampled_gmax: nan or inf for a non-finite or huge coefficient."""
    c = np.asarray(coeffs, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.sqrt(_sampled_gmax(c[None, :], samples)[0][0]))


def validate_schwarz(coeffs) -> SchwarzParams:
    """Gate a polynomial as a Schwarz function candidate.

    The boundary sup over VALIDATION_SAMPLES points must not exceed 1 by
    more than the gate tolerance; anything larger is rejected.
    """
    coeffs = tuple(complex(c) for c in coeffs)
    if not coeffs:
        raise SearchError("empty coefficient list")
    sup = boundary_sup(coeffs)
    if not sup <= 1.0 + SCHWARZ_GATE_TOL:
        raise SearchError(f"boundary sup {sup:.12g} exceeds 1")
    return SchwarzParams(coeffs=coeffs, validated=True)


@lru_cache(maxsize=_MATRIX_CACHE_SIZE)
def _cosine_matrix(ncoeff: int, samples: int) -> np.ndarray:
    """The real (2 ncoeff - 1) x samples matrix with rows 1, then
    2 cos(mu theta_j) and -2 sin(mu theta_j) for mu = 1 .. ncoeff - 1, over
    `samples` equispaced angles.  The row [b_0, Re b_1, Im b_1, ...] of
    an autocorrelation b times it is g(theta_j) = |w(e^{i theta_j})|^2."""
    theta = 2.0 * math.pi * np.arange(samples) / samples
    phase = np.exp(1j * np.outer(np.arange(1, ncoeff), theta))
    matrix = np.empty((2 * ncoeff - 1, samples))
    matrix[0] = 1.0
    matrix[1::2] = 2.0 * phase.real
    matrix[2::2] = -2.0 * phase.imag
    matrix.flags.writeable = False  # shared by every caller of the cache
    return matrix


def _autocorrelation(batch: np.ndarray) -> np.ndarray:
    """b_mu = sum_j c_{mu+j} conj(c_j) for mu = 0 .. d - 1 and each row c
    of `batch`, shape (rows, d): one einsum over the rows shifted in a
    zero-padded copy."""
    rows, d = batch.shape
    padded = np.zeros((rows, 2 * d - 1), dtype=np.complex128)
    padded[:, :d] = batch
    step = padded.strides[1]
    shifted = np.lib.stride_tricks.as_strided(
        padded, (rows, d, d), (padded.strides[0], step, step), writeable=False
    )
    return np.einsum("imj,ij->im", shifted, batch.conj())


def _curvature_bound(b: np.ndarray) -> np.ndarray:
    """sum_{mu != 0} mu^2 |b_mu| for each row of the autocorrelation `b`
    (_autocorrelation): a bound on sup|g''| for g(theta) =
    |w(e^{i theta})|^2.  The sum runs shift by shift."""
    beta = np.abs(b)
    m2 = np.zeros(len(b))
    for mu in range(1, b.shape[1]):
        m2 += 2.0 * mu * mu * beta[:, mu]
    return m2


def _sampled_gmax(batch: np.ndarray, samples: int) -> tuple[np.ndarray, np.ndarray]:
    """max of g(theta) = |w(e^{i theta})|^2 over `samples` equispaced angles
    for each row w of `batch`, and the rows' autocorrelation b.  The samples
    g = b_0 + 2 sum_{mu>=1} (Re b_mu cos mu theta - Im b_mu sin mu theta) are
    one real product with _cosine_matrix on whole tiles of 8 rows (the last
    zero-padded), so a row's bits do not depend on the rows beside it."""
    rows, d = batch.shape
    b = _autocorrelation(batch)
    v = np.zeros((-(-rows // 8) * 8, 2 * d - 1))
    v[:rows, 0] = b[:, 0].real
    v[:rows, 1::2] = b[:, 1:].real
    v[:rows, 2::2] = b[:, 1:].imag
    return np.max(v @ _cosine_matrix(d, samples), axis=1)[:rows], b


def certified_sup_bound(batch: np.ndarray) -> np.ndarray:
    """Upper bound on the true boundary sup for each row of `batch`: the
    sampled max of g = |w|^2 over CERT_SAMPLES angles (_sampled_gmax) plus
    a gap term (h/2)^2/2 * sup|g''|, where sup|g''| <= sum mu^2 |b_mu| over
    the autocorrelation b (_curvature_bound)."""
    gmax, b = _sampled_gmax(batch, CERT_SAMPLES)
    h = 2.0 * math.pi / CERT_SAMPLES
    return np.sqrt(gmax + _curvature_bound(b) * h * h / 8.0)


# ---------------------------------------------------------------------------
# Candidate generation.

def _draw_disk(rng, shape, radius=1.0):
    r = radius * np.sqrt(rng.random(shape))
    phi = 2.0 * math.pi * rng.random(shape)
    return r * np.exp(1j * phi)


def _draw_poly_batch(rng, count: int) -> np.ndarray:
    c = _draw_disk(rng, (count, _MAX_POLY_DEGREE + 1))
    deg = rng.integers(0, _MAX_POLY_DEGREE + 1, size=count)
    mask = np.arange(_MAX_POLY_DEGREE + 1)[None, :] <= deg[:, None]
    return np.where(mask, c, 0.0)


def _draw_blaschke_batch(rng, count: int) -> np.ndarray:
    """Taylor truncations of random finite Blaschke products.

    Zero j multiplies every row that has one by (z - a)/(1 - conj(a) z) =
    -a + (1 - |a|^2) sum_{k>=1} conj(a)^(k-1) z^k, all those rows at once:
    x becomes y_k = -a x_k + (1 - |a|^2) s_k with s_0 = 0 and
    s_k = conj(a) s_{k-1} + x_{k-1}.
    """
    nz = rng.integers(1, _BLASCHKE_MAX_ZEROS + 1, size=count)
    zeros = _draw_disk(rng, (count, _BLASCHKE_MAX_ZEROS), _BLASCHKE_ZERO_RADIUS)
    phases = np.exp(2j * math.pi * rng.random(count))
    out = np.zeros((count, _BLASCHKE_TRUNC + 1), dtype=np.complex128)
    out[:, 0] = phases
    for j in range(_BLASCHKE_MAX_ZEROS):
        rows = np.flatnonzero(nz > j)
        a = zeros[rows, j]
        x = out[rows]
        y = -a[:, None] * x
        gain, a_bar = 1.0 - np.abs(a) ** 2, a.conj()
        s = np.zeros_like(a)
        for k in range(1, _BLASCHKE_TRUNC + 1):
            s = a_bar * s + x[:, k - 1]
            y[:, k] += gain * s
        out[rows] = y
    return out


def _certify(batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of `batch` divided by their certified sup bound where it
    exceeds 1, and the factor divided out of each row (1.0 where none was)."""
    sup = certified_sup_bound(batch)
    scale = np.where(sup > 1.0, sup, 1.0)
    return batch / scale[:, None], scale


def _candidate_blocks(
    rng, count: int, take: int | None = None
) -> list[tuple[np.ndarray, np.ndarray]]:
    """A chunk of `count` candidate polynomials drawn as blocks of rows: up
    to _POLY_PER_CHUNK random polynomials (_MAX_POLY_DEGREE + 1 columns),
    then Blaschke truncations (_BLASCHKE_TRUNC + 1 columns).  Only the first
    `take` rows (all by default) are certified, each block at its own width
    and cut to the rows it holds of them; every row is drawn, so the rng
    stream does not depend on `take`.  Each block comes with the
    certified-sup factor divided out of each row (1.0 where none was)."""
    npoly = min(_POLY_PER_CHUNK, count)
    drawn = [_draw_poly_batch(rng, npoly)]
    if count > npoly:
        drawn.append(_draw_blaschke_batch(rng, count - npoly))
    left = count if take is None else take
    blocks = []
    for block in drawn:
        if left > 0:
            blocks.append(_certify(block[:left]))
        left -= len(block)
    return blocks


def _trim(coeffs: np.ndarray) -> tuple[complex, ...]:
    c = np.asarray(coeffs, dtype=np.complex128)
    last = c.size - 1
    while last > 0 and c[last] == 0:
        last -= 1
    return tuple(c[: last + 1])


# ---------------------------------------------------------------------------
# Building the families.

def build_superset_function(
    lam: float, omega: SchwarzParams, order: int
) -> TruncatedSeries:
    """Taylor series of f = z / ((1 - z w)(1 - lambda z w)) to `order`."""
    if not (0.0 < lam <= 1.0):
        raise SearchError("lambda must lie in (0, 1]")
    if not omega.validated:
        raise SearchError("omega has not passed Schwarz validation")
    return atlas.taylor_of(atlas.schwarz_superset(lam, omega.coeffs), order)


def _schur_cohn(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Schur-Cohn recursion (Henrici, Applied and Computational Complex
    Analysis I, section 6.8) on the rows of q at the two radii rho = 1 +- tau,
    tau = 1 - atlas.INTERIOR_ZERO_LIMIT, stacked into one batch.

    p(z) = q(rho z) has formal degree m = width - 1, so a zero leading
    coefficient is a zero at infinity.  While |p_0| > |p_m|, p has as many
    zeros in the closed unit disk as p <- conj(p_0) p - p_m p* (p* the
    reversed conjugate, degree m - 1), and |p_0| < |p_m| proves a zero in
    the disk.  A row passes a step when |p_0| > |p_m| (1 + _SC_TOL) and
    fails when |p_0| < |p_m| (1 - _SC_TOL); the first step that does
    neither leaves it undecided.  Returns (accept, reject): q has no zero
    of modulus <= 1 + tau, resp. a zero of modulus <= 1 - tau.  Rows in
    neither are left to eigvals.
    """
    rows, width = q.shape
    tau = 1.0 - atlas.INTERIOR_ZERO_LIMIT
    rho = np.array([[1.0 + tau], [1.0 - tau]])
    # coefficient k of every row at both radii is p[k]: row i at the outer
    # radius is column i, at the inner radius column rows + i
    p = (rho ** np.arange(width)[:, None, None] * q.T[:, None, :]).reshape(width, -1)
    alive = np.ones(2 * rows, dtype=bool)  # passed every step so far
    failed = np.zeros(2 * rows, dtype=bool)
    for m in range(width - 1, 0, -1):
        head, tail = np.abs(p[0]), np.abs(p[m])
        failed |= alive & (head < tail * (1.0 - _SC_TOL))
        alive &= head > tail * (1.0 + _SC_TOL)
        p = p[0].conj() * p[:m] - p[m] * p[m:0:-1].conj()
        scale = np.abs(p).max(axis=0)
        p /= np.where(scale > 0.0, scale, 1.0)  # an all-zero row is undecided
    accept, reject = alive[:rows], failed[rows:]
    return accept & ~reject, reject & ~accept


def _postcheck_sup(q: np.ndarray, samples: int) -> np.ndarray:
    """max |q - z q' - 1| = |(z/f)^2 f' - 1| over `samples` equispaced points
    of |z| = POSTCHECK_RADIUS for each row q = z/f (q_0 = 1): _sampled_gmax
    of the coefficients (1 - k) q_k r^k."""
    k = np.arange(q.shape[1])
    u = q * ((1.0 - k) * POSTCHECK_RADIUS**k)
    u[:, 0] -= 1.0
    return np.sqrt(_sampled_gmax(u, samples)[0])


def _exact_u_chunk(lam: float, a2s, psis):
    """The exact_u acceptance test on a chunk of candidates (rows).

    The root test (q = z/f has no zero in the open unit disk, by the rule
    atlas.min_root_modulus(q) >= atlas.INTERIOR_ZERO_LIMIT that membership
    also applies), then, on its survivors, the post-check (_postcheck_sup
    at _POSTCHECK_SAMPLES points <= lambda + POSTCHECK_TOL).

    The root test runs the batched Schur-Cohn recursion on the chunk.  It
    decides every row with no zero within a relative band
    tau = 1 - INTERIOR_ZERO_LIMIT of the unit circle; the rows it leaves
    undecided, the start row among them, get the stacked eigvals verdict.
    validate_exact_u applies the same eigvals verdict alone.

    Returns q, the number of tests each row passed (2 = accepted), and each
    row's smallest root modulus where eigvals ran (inf for a constant q)
    and nan where the recursion decided.
    """
    q = atlas.exact_u_denominator(lam, a2s, psis)
    rows = len(q)
    passed = np.zeros(rows, dtype=np.int64)

    accept, reject = _schur_cohn(q)
    undecided = ~(accept | reject)
    inner = np.full(rows, np.nan)
    inner[undecided] = atlas.min_root_modulus(q[undecided])
    passed[accept | (undecided & (inner >= atlas.INTERIOR_ZERO_LIMIT))] = 1

    alive = np.flatnonzero(passed == 1)
    post = _postcheck_sup(q[alive], _POSTCHECK_SAMPLES)
    passed[alive[post <= lam + POSTCHECK_TOL]] = 2
    return q, passed, inner


def validate_exact_u(lam: float, a2: complex, psi) -> ExactUParams:
    """Validate an exact-parametrization candidate: psi bounded, |a2| in
    range, and z/f without a zero in the open disk (the root test's eigvals
    verdict, atlas.min_root_modulus(q) >= atlas.INTERIOR_ZERO_LIMIT)."""
    if not (0.0 < lam <= 1.0):
        raise SearchError("lambda must lie in (0, 1]")
    a2 = complex(a2)
    if abs(a2) > (1.0 + lam) * (1.0 + 1e-12):
        raise SearchError(f"|a2| = {abs(a2):.6g} exceeds 1 + lambda")
    w = validate_schwarz(psi)
    q = atlas.exact_u_denominator(lam, a2, w.coeffs)
    inner = atlas.min_root_modulus(q[None, :])[0]
    if not inner >= atlas.INTERIOR_ZERO_LIMIT:
        raise SearchError(f"z/f vanishes inside the disk: a zero of modulus {inner:.6g}")
    return ExactUParams(lam=lam, a2=a2, psi=w.coeffs, validated=True)


def build_exact_u_function(p: ExactUParams, order: int) -> TruncatedSeries:
    """Taylor series of f with z/f = 1 - a2 z - lambda z int_0^z psi.

    Runs the class-deficiency post-check (max |(z/f)^2 f' - 1| over 512
    points at r = 0.99 must not exceed lambda + 1e-6) and raises if it
    fails; the derived parametrization never ships a function without it.
    """
    if not p.validated:
        raise SearchError("exact-parametrization candidate is not validated")
    q = atlas.exact_u_denominator(p.lam, p.a2, p.psi)
    measured = _postcheck_sup(q[None, :], 512)[0]
    if measured > p.lam + POSTCHECK_TOL:
        raise SearchError(
            f"post-check failed: deficiency {measured:.9g} exceeds "
            f"lambda + {POSTCHECK_TOL}"
        )
    return atlas.taylor_of(atlas.exact_u(p.lam, p.a2, p.psi), order)


# ---------------------------------------------------------------------------
# Coefficient extraction (search objective).

def _screen(q: np.ndarray, n: int, superset: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """|a_n| of f = z/q for every row of q (q_0 = 1), and a proven bar on
    its distance from the exact value.

    The value runs the recurrence b_k = -sum_{j=1}^k q_j b_{k-j} over all
    rows at once, up to k = n - 1, with elementwise products and row sums,
    so a row's value does not depend on the batch it came in.  The bar is
    2 n^2 eps M^2, eps = 2^-53, with M the largest of B_0..B_{n-1} in the
    majorant recurrence B_0 = 1, B_k = sum_{j=1}^k |q_j| B_{k-j}, which
    bounds |b_k| and the sum of the moduli of the terms of its step.  To
    first order in eps, each step's rounded sum is off by at most 2 k eps M,
    and the recurrence carries an error into b_{n-1} with a factor of at
    most M; so b_{n-1} lies within 2 n^2 eps M^2 of the exact one.  With
    `superset`, q is the float product atlas.superset_denominator of w, and
    the exact value is that of the exact product.  Its q_k (k < n) sums
    k + 1 products u_j v_{k-j}, u = 1 - zw and v = 1 - lam zw, each off by
    at most sqrt(5) eps of its modulus, in k additions each off by at most
    eps of the running sum; so q_k is within (k + 3) eps sum_j |u_j||v_{k-j}|
    <= 4 (n + 1) eps of the exact one, as for a certified w (sum |w_j|^2 <= 1)
    that sum is at most 1 + 2 lam <= 3 by Cauchy-Schwarz.  To first order an
    error d in q moves b = 1/q by -b^2 d, whose coefficient n - 1 sums at
    most n (n - 1) / 2 products B_i |d_j| B_l: 2 n (n^2 - 1) eps M^2, below
    the head term 2 n^3 eps M^2 that is added.  A non-finite value or bar
    never passes the tie rule (_pick).
    """
    rows = len(q)
    head = np.zeros((rows, n), dtype=np.complex128)
    m = min(n, q.shape[1])
    head[:, :m] = q[:, :m]
    size = np.abs(head)
    b = np.empty_like(head)
    bound = np.empty_like(size)
    b[:, 0], bound[:, 0] = 1.0, 1.0
    for k in range(1, n):
        b[:, k] = -np.sum(head[:, 1 : k + 1] * b[:, k - 1 :: -1], axis=1)
        bound[:, k] = np.sum(size[:, 1 : k + 1] * bound[:, k - 1 :: -1], axis=1)
    bar = 2.0 * n * n * (1.0 + n * superset) * _EPS * bound.max(axis=1) ** 2
    return np.abs(b[:, n - 1]), bar


def _pick(values: np.ndarray, bars: np.ndarray, best: float, best_bar: float) -> int:
    """The row that holds the best after the rows are offered in order under
    the tie rule, or -1 if the best (best, best_bar) keeps it.  A row
    replaces the best only if value - bar > best + best_bar, so of rows
    tied within their bars the first offered wins.  The threshold
    best + best_bar only rises as rows replace the best (the new one is
    above the old by more than twice the row's bar), so a row at or below
    the first threshold never replaces it: the loop runs over the rows
    above it alone."""
    winner = -1
    for i in np.flatnonzero(values - bars > best + best_bar).tolist():
        if values[i] - bars[i] > best + best_bar:
            winner, best, best_bar = i, values[i], bars[i]
    return winner


@dataclass(frozen=True)
class SearchRecord:
    lam: float
    n: int
    family: str  # "superset" | "exact_u"
    seed: int
    achieved: float
    bound: float
    margin: float
    params: dict
    evaluations: int

    def to_dict(self) -> dict:
        """The fields in declaration order, with `lam` written as "lambda"."""
        return {
            "lambda" if f.name == "lam" else f.name: getattr(self, f.name)
            for f in fields(self)
        }

    def to_json_line(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def conjectured_bound(lam: float, n: int) -> float:
    """The geometric partial sum sum_{k=0}^{n-1} lambda^k, summed directly."""
    return math.fsum(lam**k for k in range(n))


def _pack_params(family, coeffs, a2=None):
    def c2pair(c):
        return [c.real, c.imag]

    if family == "superset":
        return {"omega": [c2pair(c) for c in coeffs]}
    return {"a2": c2pair(a2), "psi": [c2pair(c) for c in coeffs]}


def search_max_coeff(
    lam: float,
    n: int,
    family: str = "superset",
    budget: int = 1000,
    seed: int = 0,
) -> SearchRecord:
    """Best |a_n| over `budget` candidate evaluations of the family.

    Start #0 is always the known extremal candidate (w = 1, or psi = -1
    with a2 = 1 + lambda, which reproduces z/((1-z)(1-lambda z))); random
    multi-start follows, and the remaining budget drives a coordinate-wise
    polish of the best candidate found, one batch of equispaced points per
    coordinate line.  Deterministic for fixed (lambda, n, family, budget,
    seed).
    """
    if n < 2:
        raise SearchError("coefficient index must be >= 2")
    if budget < 1:
        raise SearchError("budget must be >= 1")
    if family not in ("superset", "exact_u"):
        raise SearchError(f"unknown family {family!r}")
    if not (0.0 < lam <= 1.0):
        raise SearchError("lambda must lie in (0, 1]")

    exact = family == "exact_u"
    rng = np.random.default_rng(seed)
    best = None  # (coeffs, a2) of the best row so far
    best_value, best_bar = -1.0, 0.0
    best_index = -1  # position of the best row in offer order
    evals = 0
    # rows rejected by the root test and by the post-check; accepted
    verdicts = np.zeros(3, dtype=np.int64)
    roots_by_eigvals = 0  # root-test rows the Schur-Cohn recursion left to eigvals
    max_rescale = 1.0  # largest certified-sup factor divided out of a row

    def offer(coeffs, a2s):
        """Score a batch of candidate rows (the start row, a block of a
        random chunk or a polish line) and offer the rows the chunk test
        accepts to the running best, in row order, under the tie rule
        (_pick).  The superset family has no test.  Returns the batch index
        of the row that became the best, or None."""
        nonlocal best, best_value, best_bar, best_index, evals, verdicts, roots_by_eigvals
        first = evals
        evals += len(coeffs)
        if exact:
            q, passed, inner = _exact_u_chunk(lam, a2s, coeffs)
            verdicts += np.bincount(passed, minlength=3)
            roots_by_eigvals += int(np.count_nonzero(~np.isnan(inner)))
            rows = np.flatnonzero(passed == 2)
            head = q[rows]
        else:
            rows = np.arange(len(coeffs))
            verdicts[2] += len(coeffs)
            head = atlas.superset_denominator(lam, coeffs[:, : n - 1])
        values, bars = _screen(head, n, superset=not exact)
        k = _pick(values, bars, best_value, best_bar)
        if k < 0:
            return None
        i = int(rows[k])
        best_value, best_bar = float(values[k]), float(bars[k])
        best_index = first + i
        best = (coeffs[i].copy(), complex(a2s[i]) if exact else None)
        return i

    # Start #0: the known extremal is never lost.
    if exact:
        offer(np.array([[-1.0 + 0j]]), [complex(1.0 + lam)])
    else:
        offer(np.array([[1.0 + 0j]]), None)

    # Random multi-start phase; the polish reserve never starves it.
    width = _MAX_POLY_DEGREE + 1
    full_polish_cost = len(_POLISH_STEPS) * _POLISH_ITERS * 2 * (width + exact)
    polish_budget = min(full_polish_cost, (budget - 1) // 4)
    random_budget = budget - 1 - polish_budget
    for index in range(0, random_budget, _CHUNK):
        take = min(_CHUNK, random_budget - index)  # the last chunk may end early
        blocks = _candidate_blocks(rng, _CHUNK, take)
        a2s = _draw_disk(rng, _CHUNK, 1.0 + lam) if exact else None
        start = 0
        for batch, scale in blocks:
            max_rescale = max(max_rescale, float(scale.max()))
            offer(batch, a2s[start : start + len(batch)] if exact else None)
            start += len(batch)

    # Coordinate-wise polish of the best candidate found.  The point holds
    # its first `width` coefficients and, for exact_u, a2 last; each real and
    # imaginary part is one coordinate.  A line is _POLISH_ITERS equispaced
    # points on [x - step, x + step], certified and offered as one batch; x
    # moves to the point that replaced the best, if one did.
    if best is not None:
        coeffs, a2 = best
        point = np.zeros(width + exact, dtype=np.complex128)
        point[: min(width, coeffs.size)] = coeffs[:width]
        if exact:
            point[-1] = a2
        x = point.view(np.float64)
        for step in _POLISH_STEPS:
            for coord in range(x.size):
                if evals + _POLISH_ITERS > budget:
                    break
                ts = np.linspace(x[coord] - step, x[coord] + step, _POLISH_ITERS)
                trials = np.repeat(x[None, :], _POLISH_ITERS, axis=0)
                trials[:, coord] = ts
                trials = trials.view(np.complex128)
                c, scale = _certify(trials[:, :width])
                max_rescale = max(max_rescale, float(scale.max()))
                a2s = None
                if exact:
                    a2s = trials[:, -1].copy()
                    size = np.abs(a2s)
                    over = size > 1.0 + lam
                    a2s[over] *= (1.0 + lam) / size[over]
                i = offer(c, a2s)
                if i is not None:
                    x[coord] = ts[i]

    if best_index < 0:
        winner = "none"
    elif best_index == 0:
        winner = "start"
    else:
        winner = "random" if best_index <= random_budget else "polish"
    _log.debug(
        "search %s lambda=%r n=%d budget=%d seed=%d: evaluations=%d start=1 "
        "random=%d polish=%d roots_by_recursion=%d roots_by_eigvals=%d "
        "rejected_roots=%d rejected_postcheck=%d accepted=%d "
        "max_rescale=%r winner=%s winner_index=%d winner_bar=%r",
        family, lam, n, budget, seed, evals, random_budget,
        evals - 1 - random_budget, evals * exact - roots_by_eigvals,
        roots_by_eigvals, *verdicts, max_rescale, winner, best_index, best_bar,
    )
    if best is None:
        raise SearchError("no valid candidate found within budget")
    coeffs, a2 = best
    coeffs = _trim(coeffs)
    spec = atlas.exact_u(lam, a2, coeffs) if exact else atlas.schwarz_superset(lam, coeffs)
    bound = conjectured_bound(lam, n)
    achieved = float(abs(atlas.taylor_of(spec, n).coeffs[n]))
    return SearchRecord(
        lam=lam,
        n=n,
        family=family,
        seed=seed,
        achieved=achieved,
        bound=bound,
        margin=bound - achieved,
        params=_pack_params(family, coeffs, a2),
        evaluations=evals,
    )


# ---------------------------------------------------------------------------
# Coefficient recursion identities and the cubic Schwarz-coefficient bound.

def mu_nu(lam: float) -> tuple[float, float]:
    """The cubic-functional parameters 2(1-lam^3)/(1-lam^2), (1-lam^4)/(1-lam^2)."""
    if not (0.0 < lam < 1.0):
        raise SearchError("lambda must lie in (0, 1) for the recursion relations")
    return (
        2.0 * (1.0 - lam**3) / (1.0 - lam**2),
        (1.0 - lam**4) / (1.0 - lam**2),
    )


def coefficient_recursion_residuals(lam: float, omega: SchwarzParams) -> np.ndarray:
    """Residuals of the three coefficient identities linking a_2, a_3, a_4
    of the superset family to the Schwarz coefficients c_1, c_2, c_3:

        (1-L) a2 = (1-L^2) c1
        (1-L) a3 = (1-L^2) c2 + (1-L^3) c1^2
        (1-L) a4 = (1-L^2) (c3 + mu c1 c2 + nu c1^3)
    """
    if not omega.validated:
        raise SearchError("omega has not passed Schwarz validation")
    mu, nu = mu_nu(lam)
    f = build_superset_function(lam, omega, 4).coeffs
    c = np.zeros(3, dtype=np.complex128)
    cs = omega.coeffs[:3]
    c[: len(cs)] = cs
    c1, c2, c3 = c
    r = np.array(
        [
            (1 - lam) * f[2] - (1 - lam**2) * c1,
            (1 - lam) * f[3] - ((1 - lam**2) * c2 + (1 - lam**3) * c1**2),
            (1 - lam) * f[4] - (1 - lam**2) * (c3 + mu * c1 * c2 + nu * c1**3),
        ]
    )
    return np.abs(r)


def check_prokhorov_szynal(
    samples: int, seed: int, mu: float, nu: float
) -> tuple[float, SchwarzParams]:
    """Worst ratio |c3 + mu c1 c2 + nu c1^3| / |nu| over random validated
    Schwarz functions; the bound claims ratio <= 1 inside the region
    2 <= |mu| <= 4, nu >= (mu^2 + 8)/12."""
    if not (2.0 <= abs(mu) <= 4.0 and nu >= (mu * mu + 8.0) / 12.0):
        raise SearchError(f"(mu, nu) = ({mu}, {nu}) outside the claimed region")
    rng = np.random.default_rng(seed)
    worst = -1.0
    worst_coeffs = None
    remaining = samples
    while remaining > 0:
        take = min(4096, remaining)
        for batch, _ in _candidate_blocks(rng, take):
            c = np.zeros((len(batch), 3), dtype=np.complex128)
            c[:, : min(3, batch.shape[1])] = batch[:, :3]
            vals = np.abs(c[:, 2] + mu * c[:, 0] * c[:, 1] + nu * c[:, 0] ** 3) / abs(nu)
            i = int(np.argmax(vals))
            if vals[i] > worst:
                worst = float(vals[i])
                worst_coeffs = batch[i]
        remaining -= take
    return worst, SchwarzParams(coeffs=_trim(worst_coeffs), validated=True)
