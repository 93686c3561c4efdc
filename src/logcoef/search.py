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

which gives (z/f)^2 f' - 1 = lambda z^2 psi(z) for the construction above,
so a certified psi and z/f without a zero in the disk put f in the class.
The identity is re-verified numerically in the test suite on random
rational functions, and every function build_exact_u_function hands out
passes the class-deficiency post-check as a safety net.

Candidate Schwarz functions are polynomials.  Random candidates are drawn
in the unit polydisk (plus truncated Blaschke products, which live near the
boundary where extremals sit) and rescaled by a certified upper bound on
their boundary sup, so every candidate used is genuinely bounded by one:
the bound combines the sampled boundary maximum with a second-derivative
gap estimate, both from the autocorrelation b of the coefficients.  The
samples of g = |w|^2 are one real product of [b_0, Re b_mu, Im b_mu]
with a cached cosine-sine matrix, run on whole tiles of 8 rows, so a
row's bound does not depend on the rows certified beside it, and on at
most _PRODUCT_ROWS rows per product, so its memory is bounded.  Every
sampled sup of the module is that product (_sampled_gmax).

Random candidates are drawn in chunks of 256 rows: 192 polynomials of
degree at most 6 (7 columns), then the randoms of 64 Blaschke truncations
(25 columns), then, for the exact parametrization, each row's a2.  The
rows are built, certified, tested and screened a slab of _SLAB_CHUNKS
chunks at a time, as two blocks, one per width: the polynomials of every
chunk of the slab, then its Blaschke truncations.  The slab's accepted
rows are then offered to the best as one batch, in offer order (chunk 0's
polynomials, chunk 0's Blaschke rows, chunk 1's polynomials, ...).  Each
step gives a row the same bits whatever rows are beside it, and the tie
rule below names the same winner however the rows are cut into offers, so
the slab's size changes no search; it is capped to bound memory.
For the exact parametrization the chunk test builds every denominator
z/f = q of a block at once and runs the root test on it: no zero of q in
the open unit disk.  It applies the rule that membership applies to every
rational spec: a zero below atlas.INTERIOR_ZERO_LIMIT = 1 - tau,
tau = 1e-6, is inside, and a zero on the circle (the extremal's at z = 1)
is admitted.
It is a batched Schur-Cohn recursion (Henrici, Applied and Computational
Complex Analysis I, section 6.8) on q(rho z) at the rule's own radius
rho = 1 - tau, each row rescaled by an exact power of two every second
step: a row is accepted when every step passes (no zero of modulus
<= 1 - tau) and rejected when a step fails (a zero below 1 - tau), each
step with a relative margin of 1e-9.  Rows too close to a step's margin,
such as a multiple zero on the unit circle (the start row's at
lambda = 1), fall back to the stacked eigvals verdict min |root| >= 1 - tau
(atlas.min_root_modulus: one eigvals call per trimmed degree on companion
matrices of the reversed polynomials).  The superset family has no test.

Every offered batch (the start row, a slab of random chunks, a polish
sweep) is scored on one value path.  The chunk test runs on every row; then
the screen runs the 1/q recurrence over all accepted rows of a block at
once (for the superset family on atlas.superset_denominator of the first
n - 1 coefficients of w, the product a rebuild of the record reads) and gives
each row its |a_n| and a proven bar on its distance from the exact value
(_screen).  The rows are offered to the best in offer order under the tie
rule: a row replaces the best only if its value minus its bar exceeds the
best's value plus the best's bar, so of rows tied within rounding the
first offered wins, and a winner other than the extremal start row beats
it by more than rounding.  The best starts at -inf, so the start row is
the first best unless its bar is not finite (from about n = 400 at
lambda = 1), and then the search raises.  The rows at or below the best
plus both bars are skipped at once (_pick).  A batch's rows are committed
in groups (one per polish line, one for any other batch) up to and
including the first group with a row above the best plus its bar; only
the committed rows count and are offered, and the rest are discarded.  The record reports
the winner's |a_n| as the builders give it (atlas.taylor_of of the named
function, the value a rebuild of the record gets), which lies within the
winner's bar of the screen's value.  validate_exact_u applies the root
test's eigvals verdict alone.

The root test admits a zero of z/f in the band [1 - tau, 1), so an
exact_u winner may beat the bound by up to bound ((1 - tau)^(1-n) - 1),
about 4e-6 bound at n = 5: g(z) = f((1 - tau) z)/(1 - tau) is then in the
class, so |a_n| (1 - tau)^(n-1) = |g_n| <= bound.  A margin in that range
with a zero in the band is such a winner, not a counterexample.

Searches are deterministic: a fixed chunked draw schedule from a
seeded generator, the tie rule applied in offer order, and a
coordinate-wise polish with a fixed sweep plan: each coordinate line is
_POLISH_ITERS equispaced points, and the point moves to the row that
replaced the best, if one did.  The remaining lines of a sweep are built
from the current point and scored as one batch, committed up to the first
line that moves, and the rest of the sweep is rebuilt from the moved
point (_polish): the search that offers one line at a time.  The last
random chunk draws the randoms of all its rows but builds and certifies
only those the budget offers.  Each search logs one DEBUG record on the
``logcoef.search`` logger that accounts for its budget: start, random and polish
evaluations, the polish rows scored and discarded after a line that
moved, the root-test rows decided by the recursion and by eigvals,
the rows the root test rejected and the rows accepted, the largest
certified-sup factor divided out of a candidate (1.0 when none was), the
winner's phase (start, random or polish) and offer-order index, and the
winner's bar.
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
_SC_TOL = 1e-9  # relative margin of |p_0| against |p_m| in the recursion
_CHUNK = 256
_SLAB_CHUNKS = 4  # random chunks built, certified, tested and screened together
_PRODUCT_ROWS = 64  # rows of one certification product, a multiple of 8
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


def boundary_sup(coeffs) -> float:
    """max |w| over VALIDATION_SAMPLES equispaced boundary points, the square
    root of _sampled_gmax: nan or inf for a non-finite or huge coefficient."""
    c = np.asarray(coeffs, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.sqrt(_sampled_gmax(c[None, :], VALIDATION_SAMPLES)[0][0]))


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
    zero-padded), so a row's bits do not depend on the rows beside it, run
    on at most _PRODUCT_ROWS rows at a time."""
    rows, d = batch.shape
    b = _autocorrelation(batch)
    v = np.zeros((-(-rows // 8) * 8, 2 * d - 1))
    v[:rows, 0] = b[:, 0].real
    v[:rows, 1::2] = b[:, 1:].real
    v[:rows, 2::2] = b[:, 1:].imag
    matrix = _cosine_matrix(d, samples)
    gmax = np.empty(len(v))
    for i in range(0, len(v), _PRODUCT_ROWS):  # bounds the product's memory
        gmax[i : i + _PRODUCT_ROWS] = np.max(v[i : i + _PRODUCT_ROWS] @ matrix, axis=1)
    return gmax[:rows], b


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


def _draw_blaschke(rng, count: int):
    """The randoms of `count` Blaschke products, in rng order: zero counts,
    zeros and phases (_blaschke_rows builds them)."""
    nz = rng.integers(1, _BLASCHKE_MAX_ZEROS + 1, size=count)
    zeros = _draw_disk(rng, (count, _BLASCHKE_MAX_ZEROS), _BLASCHKE_ZERO_RADIUS)
    phases = np.exp(2j * math.pi * rng.random(count))
    return nz, zeros, phases


def _blaschke_rows(nz, zeros, phases) -> np.ndarray:
    """Taylor truncations of the finite Blaschke products drawn by
    _draw_blaschke.

    Zero j multiplies every row that has one by (z - a)/(1 - conj(a) z) =
    -a + (1 - |a|^2) sum_{k>=1} conj(a)^(k-1) z^k, all those rows at once:
    x becomes y_k = -a x_k + (1 - |a|^2) s_k with s_0 = 0 and
    s_k = conj(a) s_{k-1} + x_{k-1}.
    """
    out = np.zeros((len(nz), _BLASCHKE_TRUNC + 1), dtype=np.complex128)
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


def _draw_chunk(rng, count: int):
    """The randoms of a chunk of `count` candidates, in rng order: up to
    _POLY_PER_CHUNK random polynomials (_draw_poly_batch), then the
    Blaschke randoms of the rest (_draw_blaschke), None if there is none."""
    npoly = min(_POLY_PER_CHUNK, count)
    poly = _draw_poly_batch(rng, npoly)
    return poly, _draw_blaschke(rng, count - npoly) if count > npoly else None


def _candidate_blocks(chunks, takes) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The first takes[c] rows of each drawn chunk c (_draw_chunk) as one
    block per width: the polynomials of every chunk (_MAX_POLY_DEGREE + 1
    columns), then their Blaschke truncations (_BLASCHKE_TRUNC + 1 columns),
    built at once.  Only those rows are built and certified.  Each block
    comes with the certified-sup factor divided out of each row (1.0 where
    none was) and each row's index among the rows taken, counted chunk by
    chunk and in a chunk the polynomials first: the order the search offers
    them in."""
    polys, draws, at = [], [], ([], [])
    offset = 0
    for (poly, blaschke), take in zip(chunks, takes):
        npoly = min(len(poly), take)
        polys.append(poly[:npoly])
        at[0].append(np.arange(offset, offset + npoly))
        if take > npoly:
            draws.append([x[: take - npoly] for x in blaschke])
            at[1].append(np.arange(offset + npoly, offset + take))
        offset += take
    blocks = [np.concatenate(polys)]
    if draws:
        blocks.append(_blaschke_rows(*(np.concatenate(x) for x in zip(*draws))))
    return [(*_certify(block), np.concatenate(a)) for block, a in zip(blocks, at)]


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
    Analysis I, section 6.8) on the rows of q at the radius
    rho = atlas.INTERIOR_ZERO_LIMIT = 1 - tau of the root test's rule.

    p(z) = q(rho z) has formal degree m = width - 1, so a zero leading
    coefficient is a zero at infinity.  While |p_0| > |p_m|, p has as many
    zeros in the closed unit disk as p <- conj(p_0) p - p_m p* (p* the
    reversed conjugate, degree m - 1), and |p_0| < |p_m| proves a zero in
    the disk.  A row passes a step when |p_0| > |p_m| (1 + _SC_TOL) and
    fails when |p_0| < |p_m| (1 - _SC_TOL); the first step that does
    neither leaves it undecided.  Returns (accept, reject), one entry per
    row: q has no zero of modulus <= 1 - tau, resp. a zero of modulus
    < 1 - tau.  Rows in neither (a zero too close to |z| = 1 - tau for the
    margin, as a multiple zero on the unit circle is) are left to eigvals.

    Every second step, starting with the first, each row's p is scaled by
    2^-e, e the frexp exponent of its largest |Re| or |Im| (0 for an
    all-zero row, which stays undecided), so its parts lie below 1 and its
    moduli below sqrt 2.  A step maps moduli below c to moduli below 2 c^2
    (each new coefficient is a difference of two products), so they stay
    below 4 after one step and below 32 after the second, to rounding: no
    value overflows.  A power-of-two scale is exact, and a step and the
    comparisons of |p_0| with |p_m| commute with it, so while no value is
    subnormal each verdict is that of the recursion run without scaling in
    unbounded exponent range, and the schedule moves no bit.  Each step is
    written into p through one reused buffer.
    """
    rows, width = q.shape
    # coefficient k of row i is p[k, i]
    p = np.ascontiguousarray(atlas.INTERIOR_ZERO_LIMIT ** np.arange(width)[:, None] * q.T)
    parts = p.view(np.float64)  # Re p[k, i] at parts[k, 2 i], Im p[k, i] at 2 i + 1
    buf = np.empty_like(p)
    alive = np.ones(rows, dtype=bool)  # passed every step so far
    failed = np.zeros(rows, dtype=bool)
    for m in range(width - 1, 0, -1):
        if (width - 1 - m) % 2 == 0:
            top = np.abs(parts[: m + 1]).max(axis=0)
            exponent = np.frexp(np.maximum(top[0::2], top[1::2]))[1]
            parts[: m + 1] *= np.ldexp(1.0, -exponent).repeat(2)
        head, tail = np.abs(p[0]), np.abs(p[m])
        failed |= alive & (head < tail * (1.0 - _SC_TOL))
        alive &= head > tail * (1.0 + _SC_TOL)
        np.multiply(p[m], np.conjugate(p[m:0:-1], out=buf[:m]), out=buf[:m])
        np.multiply(p[0].conj(), p[:m], out=p[:m])
        np.subtract(p[:m], buf[:m], out=p[:m])
    return alive, failed


def _postcheck_sup(q: np.ndarray) -> np.ndarray:
    """max |q - z q' - 1| = |(z/f)^2 f' - 1| over 512 equispaced points of
    |z| = POSTCHECK_RADIUS for each row q = z/f (q_0 = 1): _sampled_gmax of
    the coefficients (1 - k) q_k r^k."""
    k = np.arange(q.shape[1])
    u = q * ((1.0 - k) * POSTCHECK_RADIUS**k)
    u[:, 0] -= 1.0
    return np.sqrt(_sampled_gmax(u, 512)[0])


def _exact_u_chunk(lam: float, a2s, psis):
    """The exact_u root test on a batch of candidates (rows): q = z/f has no
    zero in the open unit disk, by the rule atlas.min_root_modulus(q) >=
    atlas.INTERIOR_ZERO_LIMIT that membership also applies.

    It runs the batched Schur-Cohn recursion at the rule's radius 1 - tau;
    the rows it leaves undecided (such as a multiple zero on the unit
    circle, the start row's at lambda = 1) get the stacked eigvals verdict.
    validate_exact_u applies the same eigvals verdict alone.

    No sampled post-check follows: q - z q' - 1 = (z/f)^2 f' - 1 is
    lambda z^2 psi, and the search's psi is certified (|psi| <= 1 on the
    circle, _certify) or the start row's -1, so a row that passes is in
    U(lambda).  build_exact_u_function post-checks every function it builds.

    Returns q, the accept mask, and each row's smallest root modulus where
    eigvals ran (inf for a constant q) and nan where the recursion decided.
    """
    q = atlas.exact_u_denominator(lam, a2s, psis)
    accept, reject = _schur_cohn(q)
    undecided = ~(accept | reject)
    inner = np.full(len(q), np.nan)
    inner[undecided] = atlas.min_root_modulus(q[undecided])
    return q, accept | (undecided & (inner >= atlas.INTERIOR_ZERO_LIMIT)), inner


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
    measured = _postcheck_sup(q[None, :])[0]
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
    never passes the tie rule (_pick), so the recurrences and M^2 may
    overflow without a warning: the start row's M grows like (1 + sqrt 2)^n
    at lambda = 1, and its bar is inf from about n = 400.
    """
    rows = len(q)
    head = np.zeros((rows, n), dtype=np.complex128)
    m = min(n, q.shape[1])
    head[:, :m] = q[:, :m]
    size = np.abs(head)
    b = np.empty_like(head)
    bound = np.empty_like(size)
    b[:, 0], bound[:, 0] = 1.0, 1.0
    with np.errstate(over="ignore", invalid="ignore"):
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


def _polish_lines(x, coords, step: float, lam: float, width: int, exact: bool):
    """The polish lines through the point x (the float view of its first
    `width` coefficients, then for exact_u a2) along each coordinate of
    `coords` in turn: _POLISH_ITERS equispaced values on
    [x_c - step, x_c + step] each.  Returns the rows as one block
    (coeffs, scale, a2s, at) for offer, certified together (_certify), each
    a2 clipped to |a2| <= 1 + lambda, and each row's value of its line's
    coordinate."""
    ts = np.linspace(x[coords] - step, x[coords] + step, _POLISH_ITERS, axis=1).ravel()
    trials = np.repeat(x[None, :], ts.size, axis=0)
    trials[np.arange(ts.size), np.repeat(coords, _POLISH_ITERS)] = ts
    trials = trials.view(np.complex128)
    coeffs, scale = _certify(trials[:, :width])
    a2s = None
    if exact:
        a2s = trials[:, -1].copy()
        size = np.abs(a2s)
        over = size > 1.0 + lam
        a2s[over] *= (1.0 + lam) / size[over]
    return (coeffs, scale, a2s, np.arange(ts.size)), ts


def _polish(x: np.ndarray, line, offer, room) -> None:
    """Coordinate-wise polish of the point x, in place: one sweep over its
    coordinates per step of _POLISH_STEPS, a line of _POLISH_ITERS rows per
    coordinate (line(coords, step), _polish_lines), while room(), the rows
    the budget has left, holds a whole line.

    Each sweep is scored as one batch: every remaining line of the sweep,
    built from the current x, up to room() // _POLISH_ITERS lines, is
    offered at once with one group per line (offer(blocks, group)).  The
    lines are committed in order up to and including the first with a row
    that replaces the best; x moves to that row's value on its coordinate,
    and the rest of the sweep is rebuilt from the moved point.  Each step
    gives a row the same bits whatever rows are beside it, and a line
    before the first that moves would not have moved alone, so this is the
    polish that offers one line at a time: the same winner, counts and
    record.  The lines after the one that moved are scored and discarded.
    Lines rarely move; in the worst case every one does, and a sweep of L
    lines scores L + (L - 1) + ... + 1 = L (L + 1) / 2 of them, 136 for the
    16 coordinates of exact_u in place of 16."""
    for step in _POLISH_STEPS:
        coord = 0
        while coord < x.size:
            lines = min(x.size - coord, room() // _POLISH_ITERS)
            if lines < 1:
                return
            block, ts = line(np.arange(coord, coord + lines), step)
            i = offer([block], _POLISH_ITERS)
            if i is None:
                coord += lines
            else:
                x[coord + i // _POLISH_ITERS] = ts[i]
                coord += i // _POLISH_ITERS + 1


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
    polish of the best candidate found, a line of equispaced points per
    coordinate, each sweep scored as one batch (_polish).  Deterministic
    for fixed (lambda, n, family, budget, seed).  Raises SearchError when
    the start row's bar is not finite, as no row can then be ranked.
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
    best_value, best_bar = -math.inf, 0.0
    best_index = -1  # position of the best row in offer order
    evals = 0  # rows committed
    scored = 0  # rows scored, committed or discarded
    accepted_rows = 0  # committed rows that passed the root test
    roots_by_eigvals = 0  # root-test rows the Schur-Cohn recursion left to eigvals
    max_rescale = 1.0  # largest certified-sup factor divided out of a row

    def offer(blocks, group=None):
        """Score blocks (coeffs, scale, a2s, at) of candidate rows (the
        start row, a slab of random chunks as one block per width, or a
        polish sweep), row j of a block with certified-sup factor scale[j]
        and offer index at[j] (ascending): the chunk test on every row, the
        screen on the rows it accepts.  The superset family has no test.
        The rows are committed in groups of `group` consecutive offer
        indices (all in one by default), up to and including the first
        group with a row above the best's threshold; the rest are
        discarded.  Only committed rows count, and their accepted rows are
        offered to the running best in offer order under the tie rule
        (_pick).  Returns the offer index of the row that became the best,
        or None."""
        nonlocal best, best_value, best_bar, best_index, evals, scored
        nonlocal accepted_rows, roots_by_eigvals, max_rescale
        size = sum(len(coeffs) for coeffs, _, _, _ in blocks)
        accept = np.ones(size, dtype=bool)  # each row's verdict, in offer order
        by_eigvals = np.zeros(size, dtype=bool)
        rescale = np.empty(size)
        values, bars = np.full(size, np.nan), np.full(size, np.nan)
        for coeffs, scale, a2s, at in blocks:
            rescale[at] = scale
            if exact:
                q, accept[at], inner = _exact_u_chunk(lam, a2s, coeffs)
                by_eigvals[at] = ~np.isnan(inner)
                rows = np.flatnonzero(accept[at])
                head = q[rows]
            else:
                rows = np.arange(len(coeffs))
                head = atlas.superset_denominator(lam, coeffs[:, : n - 1])
            values[at[rows]], bars[at[rows]] = _screen(head, n, superset=not exact)
        above = np.flatnonzero(values - bars > best_value + best_bar)
        end = size if group is None or not above.size else int(above[0] // group + 1) * group
        first = evals
        evals += end
        scored += size
        accepted = np.flatnonzero(accept[:end])
        accepted_rows += accepted.size
        roots_by_eigvals += int(np.count_nonzero(by_eigvals[:end]))
        max_rescale = max(max_rescale, float(rescale[:end].max()))
        k = _pick(values[accepted], bars[accepted], best_value, best_bar)
        if k < 0:
            return None
        index = int(accepted[k])
        coeffs, _, a2s, at = next(block for block in blocks if index in block[3])
        i = int(np.searchsorted(at, index))
        best_value, best_bar = float(values[index]), float(bars[index])
        best_index = first + index
        best = (coeffs[i].copy(), complex(a2s[i]) if exact else None)
        return index

    # Start #0: the known extremal is never lost.
    if exact:
        offer([(np.array([[-1.0 + 0j]]), np.ones(1), [complex(1.0 + lam)], np.arange(1))])
    else:
        offer([(np.array([[1.0 + 0j]]), np.ones(1), None, np.arange(1))])
    if best is None:
        raise SearchError(f"the error bar on |a_{n}| of the start row is not finite")

    # Random multi-start phase; the polish reserve never starves it.  The
    # randoms are drawn chunk by chunk (a2 last), and each slab of
    # _SLAB_CHUNKS chunks is built and offered at once.
    width = _MAX_POLY_DEGREE + 1
    full_polish_cost = len(_POLISH_STEPS) * _POLISH_ITERS * 2 * (width + exact)
    polish_budget = min(full_polish_cost, (budget - 1) // 4)
    random_budget = budget - 1 - polish_budget
    for slab in range(0, random_budget, _CHUNK * _SLAB_CHUNKS):
        end = min(slab + _CHUNK * _SLAB_CHUNKS, random_budget)
        # the rows each chunk offers: the budget's last chunk may end early
        takes = [min(_CHUNK, end - i) for i in range(slab, end, _CHUNK)]
        chunks, a2s = [], []
        for take in takes:
            chunks.append(_draw_chunk(rng, _CHUNK))
            if exact:
                a2s.append(_draw_disk(rng, _CHUNK, 1.0 + lam)[:take])
        a2s = np.concatenate(a2s) if exact else None
        offer([
            (batch, scale, a2s[at] if exact else None, at)
            for batch, scale, at in _candidate_blocks(chunks, takes)
        ])

    # Coordinate-wise polish of the best candidate found.  The point holds
    # its first `width` coefficients and, for exact_u, a2 last; each real and
    # imaginary part is one coordinate.
    coeffs, a2 = best
    point = np.zeros(width + exact, dtype=np.complex128)
    point[: min(width, coeffs.size)] = coeffs[:width]
    if exact:
        point[-1] = a2
    x = point.view(np.float64)
    _polish(
        x,
        lambda coords, step: _polish_lines(x, coords, step, lam, width, exact),
        offer,
        lambda: budget - evals,
    )

    winner = "start" if best_index == 0 else "random" if best_index <= random_budget else "polish"
    _log.debug(
        "search %s lambda=%r n=%d budget=%d seed=%d: evaluations=%d start=1 "
        "random=%d polish=%d polish_rescored=%d roots_by_recursion=%d "
        "roots_by_eigvals=%d rejected_roots=%d accepted=%d "
        "max_rescale=%r winner=%s winner_index=%d winner_bar=%r",
        family, lam, n, budget, seed, evals, random_budget,
        evals - 1 - random_budget, scored - evals, evals * exact - roots_by_eigvals,
        roots_by_eigvals, evals - accepted_rows, accepted_rows, max_rescale, winner,
        best_index, best_bar,
    )
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
    if samples < 1:
        raise SearchError("samples must be >= 1")
    if not (2.0 <= abs(mu) <= 4.0 and nu >= (mu * mu + 8.0) / 12.0):
        raise SearchError(f"(mu, nu) = ({mu}, {nu}) outside the claimed region")
    rng = np.random.default_rng(seed)
    worst = -1.0
    worst_coeffs = None
    remaining = samples
    while remaining > 0:
        take = min(4096, remaining)
        for batch, _, _ in _candidate_blocks([_draw_chunk(rng, take)], [take]):
            c = np.zeros((len(batch), 3), dtype=np.complex128)
            c[:, : min(3, batch.shape[1])] = batch[:, :3]
            vals = np.abs(c[:, 2] + mu * c[:, 0] * c[:, 1] + nu * c[:, 0] ** 3) / abs(nu)
            i = int(np.argmax(vals))
            if vals[i] > worst:
                worst = float(vals[i])
                worst_coeffs = batch[i]
        remaining -= take
    return worst, SchwarzParams(coeffs=_trim(worst_coeffs), validated=True)
