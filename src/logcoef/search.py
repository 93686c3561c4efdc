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
their boundary sup (certified_sup_bound: the max of |w|^2 on CERT_SAMPLES
angles plus a curvature gap), so every candidate used is genuinely bounded
by one.  The max is found in two passes with the bits of all CERT_SAMPLES
samples (_sampled_gmax): a coarse pass at every 16th or 8th angle, then,
for each row, only the arcs of _ARC angles whose bound (their coarse
samples plus the curvature gap between them and a rounding allowance,
_sample_allowance) exceeds the row's coarse max.  Every sup of the module
is that bound: the candidates', the public gate's (validate_schwarz, which
refines the grid only where the bound is undecided) and the exact_u
post-check's.

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
the slab's size changes no search.  A slab is 16 chunks (4,096 rows)
because each pays a fixed count of numpy calls whatever its size (the root
test's steps, the Blaschke recurrence, the curvature sum); memory is
bounded by tiles inside it, _PRODUCT_VALUES values per certification
product (coarse or arc) and _SCREEN_ROWS rows per screen.
For the exact parametrization the chunk test builds every denominator
z/f = q of a block at once and runs atlas.root_test, the package's one zero
rule, on it.  The superset family has no test.

Every offered batch (the start row, a slab of random chunks, a polish
sweep) is scored on one value path (offer): the chunk test on every row,
then the screen (_screen), which gives each accepted row its |a_n| and a
proven bar on its distance from the exact value.  Under the tie rule a
row replaces the best only if its value minus its bar exceeds the best's
value plus the best's bar, so of rows tied within rounding the first
offered wins, and a winner other than the extremal start row beats it by
more than rounding (_pick).  The search raises when the start row's bar
is not finite (from about n = 400 at lambda = 1).  The record reports the
winner's |a_n| as the builders give it (atlas.taylor_of of the named
function), which lies within the winner's bar of the screen's value.

The root test admits a zero of z/f in the band [1 - tau, 1), where
tau = 1 - atlas.INTERIOR_ZERO_LIMIT = 1e-6, so an exact_u winner may beat
the bound by up to bound ((1 - tau)^(1-n) - 1), about 4e-6 bound at n = 5:
g(z) = f((1 - tau) z)/(1 - tau) is then in the class, so
|a_n| (1 - tau)^(n-1) = |g_n| <= bound.  A margin in that range with a
zero in the band is such a winner, not a counterexample.

Searches are deterministic: a fixed chunked draw schedule from a
seeded generator, the tie rule applied in offer order, and a
coordinate-wise polish with a fixed sweep plan (_polish).  The last
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

SCHWARZ_GATE_TOL = 1e-10  # certified boundary sup may exceed 1 by at most this
CERT_SAMPLES = 1024  # boundary samples of every certified sup bound
POSTCHECK_RADIUS = 0.99
POSTCHECK_TOL = 1e-6
_CHUNK = 256
_SLAB_CHUNKS = 16  # random chunks built, certified, tested and offered together
_SCREEN_ROWS = 512  # rows per _screen call, which holds four rows x n arrays
_PRODUCT_VALUES = 64 * CERT_SAMPLES  # values of one certification product
_ARC = 128  # samples per arc of the certification's second pass
_POLY_PER_CHUNK = 192  # remainder of each chunk is Blaschke-truncation draws
_MAX_POLY_DEGREE = 6
_BLASCHKE_TRUNC = 24
_BLASCHKE_MAX_ZEROS = 3
_BLASCHKE_ZERO_RADIUS = 0.95
_POLISH_ITERS = 12  # equispaced points per coordinate line, offered as one batch
_POLISH_STEPS = (0.25, 0.08, 0.02)  # line half-widths, one sweep per step
_MATRIX_CACHE_SIZE = 16  # cosine-sine sample matrices kept by _cosine_matrix
_REFINE_WORK = 2**16  # rows x (2 width - 1) of the gate's refinement, at most
_EPS = 2.0**-53  # unit roundoff of float64


_log = logging.getLogger(__name__)


class SearchError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Schwarz-function validation.

@dataclass(frozen=True)
class SchwarzParams:
    """Polynomial w(z) = c1 + c2 z + ... .  validated means certified
    sup |w| <= 1 + SCHWARZ_GATE_TOL on the circle (validate_schwarz), to
    the rounding of the bound's own sums."""

    coeffs: tuple[complex, ...]
    validated: bool = False


@dataclass(frozen=True)
class ExactUParams:
    lam: float
    a2: complex
    psi: tuple[complex, ...]
    validated: bool = False


def validate_schwarz(coeffs) -> SchwarzParams:
    """Gate a polynomial as a Schwarz function: its certified boundary sup
    (certified_sup_bound) must not exceed 1 + SCHWARZ_GATE_TOL.  Where that
    bound is undecided, the samples below the limit but the curvature gap
    past it (0.5 + 0.5 z, whose max lies on a sample), the k - 1 rotations
    b_mu e^{i mu j h/k} of the autocorrelation, those of w(e^{i j h/k} z),
    sample a grid k times finer through the same matrix, with
    k = min(1024, _REFINE_WORK // (2 d - 1)).  A w with sup 1 stays past
    the limit once its curvature sum tops about 44 (k / 1024)^2: (1 + z^m)/2
    passes for m <= 9 and is refused from m = 10."""
    coeffs = tuple(complex(c) for c in coeffs)
    if not coeffs:
        raise SearchError("empty coefficient list")
    limit, d = 1.0 + SCHWARZ_GATE_TOL, len(coeffs)
    with np.errstate(over="ignore", invalid="ignore"):  # nan and inf fail below
        b = _autocorrelation(np.array([coeffs]))
        m2 = _curvature_bound(b)
        gmax = _sampled_gmax(b, m2)
        sup = _sup_bound(m2, gmax)[0]
        k = min(1024, _REFINE_WORK // (2 * d - 1))
        if k > 1 and np.sqrt(gmax[0]) <= limit < sup:
            angle = 2.0 * math.pi / (CERT_SAMPLES * k) * np.outer(np.arange(1, k), np.arange(d))
            turned = b * np.exp(1j * angle)
            gmax = np.maximum(gmax, _sampled_gmax(turned, _curvature_bound(turned)).max())
            sup = _sup_bound(m2, gmax, k)[0]
    if not sup <= limit:
        raise SearchError(f"certified boundary sup {sup:.12g} exceeds 1")
    return SchwarzParams(coeffs=coeffs, validated=True)


@lru_cache(maxsize=_MATRIX_CACHE_SIZE)
def _cosine_matrix(ncoeff: int) -> tuple[np.ndarray, np.ndarray]:
    """The real (2 ncoeff - 1) x CERT_SAMPLES matrix with rows 1, then
    2 cos(mu theta_j) and -2 sin(mu theta_j) for mu = 1 .. ncoeff - 1, over
    CERT_SAMPLES equispaced angles, and a copy of its every s-th column for
    _sampled_gmax's coarse pass, column c arcs + a the c-th of arc a
    (arcs = CERT_SAMPLES / _ARC).  The row [b_0, Re b_1, Im b_1, ...] of an
    autocorrelation b times it is g(theta_j) = |w(e^{i theta_j})|^2.  The
    stride s is the largest of 16, 8, 4 with s ncoeff <= 256, at least four
    coarse samples per period of g's top frequency, else 2: 16 for the
    polynomials' 7 coefficients, 8 for the Blaschke truncations' 25."""
    theta = 2.0 * math.pi * np.arange(CERT_SAMPLES) / CERT_SAMPLES
    phase = np.exp(1j * np.outer(np.arange(1, ncoeff), theta))
    matrix = np.empty((2 * ncoeff - 1, CERT_SAMPLES))
    matrix[0] = 1.0
    matrix[1::2] = 2.0 * phase.real
    matrix[2::2] = -2.0 * phase.imag
    stride = 16
    while stride > 2 and stride * ncoeff > 256:
        stride //= 2
    coarse = matrix[:, ::stride].reshape(len(matrix), CERT_SAMPLES // _ARC, -1)
    coarse = coarse.transpose(0, 2, 1).reshape(len(matrix), -1)  # a contiguous copy, for BLAS
    matrix.flags.writeable = coarse.flags.writeable = False  # shared by every caller of the cache
    return matrix, coarse


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


def _sampled_gmax(b: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """max of g(theta) = |w(e^{i theta})|^2 over CERT_SAMPLES equispaced
    angles for each row b, shape (rows, d), of an autocorrelation
    (_autocorrelation), m2 its _curvature_bound.  The samples
    g = b_0 + 2 sum_{mu>=1} (Re b_mu cos mu theta - Im b_mu sin mu theta) are
    real products of the rows [b_0, Re b_1, Im b_1, ...] with columns of
    _cosine_matrix, on whole tiles of 8 rows (padded with zero rows), all
    held in one buffer of _PRODUCT_VALUES values.  A sample's bits depend
    neither on the product's columns nor on the rows beside it, so the max
    has the bits of the full product's.

    A coarse pass takes every s-th sample (_cosine_matrix).  Then each arc
    of _ARC samples is computed only for the rows whose arc bound exceeds
    their coarse max: the larger of the arc's coarse samples and the next
    arc's first, plus the curvature gap (s h)^2/8 m2 of g over its linear
    interpolant between coarse samples, plus twice _sample_allowance (for
    the coarse samples and for the arc's), inflated past the rounding of
    its own sums.  The bound's last sum rounds monotonically, so no sample
    above the coarse max is skipped.  A row whose coarse max or slack is
    not finite, as a non-finite entry of b makes one, gets every arc."""
    rows, d = b.shape
    parts = np.ascontiguousarray(b).view(np.float64)  # Re b_0, Im b_0, Re b_1, ...
    whole = -(-rows // 8) * 8
    v = np.zeros((whole + 8, 2 * d - 1))  # 8 zero rows past the tiles pad each arc's rows
    v[:rows, 0] = parts[:, 0]
    v[:rows, 1:] = parts[:, 2:]
    matrix, coarse = _cosine_matrix(d)
    arcs = CERT_SAMPLES // _ARC
    nxt = np.arange(1, arcs + 1) % arcs
    gap = (2.0 * math.pi / coarse.shape[1]) ** 2 / 8.0
    slack = np.zeros(len(v))
    slack[:rows] = (m2 * gap + 2.0 * _sample_allowance(b)) * (1.0 + 8 * d * _EPS)
    gmax = np.zeros(len(v))
    refine = np.empty((arcs, len(v)), dtype=bool)
    work = np.empty(_PRODUCT_VALUES)  # every product's values, in one allocation per call

    def product(x, m):  # x @ m, held in `work`
        return np.matmul(x, m, out=work[: len(x) * m.shape[1]].reshape(len(x), -1))

    tile = _PRODUCT_VALUES // coarse.shape[1]
    for i in range(0, whole, tile):
        t = slice(i, min(i + tile, whole))
        g = product(v[t], coarse)  # column c arcs + a: sample c of arc a
        after = g[:, nxt].T  # each arc's next arc's first sample
        width = g.shape[1]
        while width > arcs:  # each arc's max in g[:, :arcs], in place
            width //= 2
            np.maximum(g[:, :width], g[:, width : 2 * width], out=g[:, :width])
        top = g[:, :arcs].T.copy()
        gmax[t] = top.max(axis=0)
        np.maximum(top, after, out=top)
        refine[:, t] = top + slack[t] > gmax[t]
    refine[:, ~np.isfinite(gmax + slack)] = True
    refine[:, whole:] = np.arange(8) < -refine[:, :whole].sum(axis=1)[:, None] % 8
    todo = np.flatnonzero(refine)  # arc a's rows at a len(v) + row, whole tiles of them
    ends = np.searchsorted(todo, np.arange(arcs + 1) * len(v))
    todo %= len(v)
    peaks = np.empty(len(todo))
    for a in range(arcs):
        for j in range(ends[a], ends[a + 1], _PRODUCT_VALUES // _ARC):
            k = min(j + _PRODUCT_VALUES // _ARC, ends[a + 1])
            peaks[j:k] = product(v[todo[j:k]], matrix[:, a * _ARC : (a + 1) * _ARC]).max(axis=1)
    np.maximum.at(gmax, todo, peaks)
    return gmax[:rows]


def _sample_allowance(b: np.ndarray) -> np.ndarray:
    """Bound on |computed sample - g(theta_j)| for every sample of
    _sampled_gmax, g at the exact angle theta_j = 2 pi j / CERT_SAMPLES:
    64 d eps (|b_0| + T) for a row b of width d, T = sum_{mu>=1}
    (|Re b_mu| + |Im b_mu|), and 0 where T = 0 (each sample is then b_0).
    The product's 2d - 1 terms round to within 2d eps (|b_0| + (2 + delta) T),
    and each matrix entry lies within delta <= 46 d eps of 2 cos or 2 sin at
    the exact angle: the computed angle mu fl(fl(2 pi) j) / CERT_SAMPLES is
    within 3.01 eps relative, 19 mu eps absolute, and np.exp's cosine and
    sine are within 2 ulp.  That is 51 d eps (|b_0| + T) in all."""
    parts = np.abs(np.ascontiguousarray(b).view(np.float64))
    tail = parts[:, 2:] @ np.ones(parts.shape[1] - 2)
    allowance = 64.0 * b.shape[1] * _EPS * (parts[:, 0] + tail)
    return np.where(tail == 0.0, 0.0, allowance)


def _sup_bound(m2: np.ndarray, gmax: np.ndarray, k: int = 1) -> np.ndarray:
    """sqrt(gmax + (h/2)^2/2 m2), gmax the max of g = |w|^2 on a grid of
    spacing h = 2 pi / (k CERT_SAMPLES), m2 >= sup|g''| (_curvature_bound)."""
    h = 2.0 * math.pi / (CERT_SAMPLES * k)
    return np.sqrt(gmax + m2 * h * h / 8.0)


def certified_sup_bound(batch: np.ndarray) -> np.ndarray:
    """Upper bound on the true boundary sup for each row of `batch`: the
    sampled max of g = |w|^2 over CERT_SAMPLES angles (_sampled_gmax) plus
    the curvature gap (_sup_bound)."""
    b = _autocorrelation(batch)
    m2 = _curvature_bound(b)
    return _sup_bound(m2, _sampled_gmax(b, m2))


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


def _postcheck_sup(q: np.ndarray) -> np.ndarray:
    """Certified bound on max |q - z q' - 1| = |(z/f)^2 f' - 1| over
    |z| = POSTCHECK_RADIUS for each row q = z/f (q_0 = 1):
    certified_sup_bound of the coefficients (1 - k) q_k r^k."""
    k = np.arange(q.shape[1])
    u = q * ((1.0 - k) * POSTCHECK_RADIUS**k)
    u[:, 0] -= 1.0
    return certified_sup_bound(u)


def _exact_u_chunk(lam: float, a2s, psis):
    """q = z/f of each exact_u candidate (row), and atlas.root_test's
    admitted mask and root moduli of q.  No sampled post-check follows:
    q - z q' - 1 = (z/f)^2 f' - 1 is lambda z^2 psi, and the search's psi
    is certified (|psi| <= 1 on the circle, _certify) or the start row's
    -1, so a row that passes is in U(lambda).  build_exact_u_function
    post-checks every function it builds."""
    q = atlas.exact_u_denominator(lam, a2s, psis)
    return (q, *atlas.root_test(q))


def validate_exact_u(lam: float, a2: complex, psi) -> ExactUParams:
    """Validate an exact-parametrization candidate: psi bounded, |a2| in
    range, and z/f without a zero in the open disk (atlas.root_test)."""
    if not (0.0 < lam <= 1.0):
        raise SearchError("lambda must lie in (0, 1]")
    a2 = complex(a2)
    if not abs(a2) <= (1.0 + lam) * (1.0 + 1e-12):
        raise SearchError(f"|a2| = {abs(a2):.6g} exceeds 1 + lambda")
    w = validate_schwarz(psi)
    q = atlas.exact_u_denominator(lam, a2, w.coeffs)[None, :]
    if not atlas.root_test(q)[0][0]:
        inner = atlas.min_root_modulus(q)[0]
        raise SearchError(f"z/f vanishes inside the disk: a zero of modulus {inner:.6g}")
    return ExactUParams(lam=lam, a2=a2, psi=w.coeffs, validated=True)


def build_exact_u_function(p: ExactUParams, order: int) -> TruncatedSeries:
    """Taylor series of f with z/f = 1 - a2 z - lambda z int_0^z psi.

    Runs the class-deficiency post-check (a certified bound on
    max |(z/f)^2 f' - 1| over |z| = 0.99 must not exceed lambda + 1e-6,
    _postcheck_sup) and raises if it fails; the derived parametrization
    never ships a function without it.
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
    so a row's value does not depend on the batch it came in.  It holds
    four rows x n arrays, so offer calls it on tiles of _SCREEN_ROWS rows.
    The bar is 2 n^2 eps M^2, eps = 2^-53, with M the largest of
    B_0..B_{n-1} in the majorant recurrence B_0 = 1,
    B_k = sum_{j=1}^k |q_j| B_{k-j}, which
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
        and offer index at[j] (ascending): each block's denominators built
        at once, the chunk test on every row, and the screen on the rows it
        accepts, _SCREEN_ROWS rows at a time so its memory does not grow
        with the slab.  The superset family has no test.
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
            else:
                q = atlas.superset_denominator(lam, coeffs[:, : n - 1])
            rows = np.flatnonzero(accept[at])
            for i in range(0, rows.size, _SCREEN_ROWS):  # bounds the screen's memory
                tile = rows[i : i + _SCREEN_ROWS]
                values[at[tile]], bars[at[tile]] = _screen(q[tile], n, superset=not exact)
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
    return worst, validate_schwarz(_trim(worst_coeffs))
