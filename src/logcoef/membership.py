"""Numerical class-membership functionals via circle sampling.

Measures, over grids of circles |z| = r, the defining functionals of

  * the bounded-deficiency classes:      max |(z/f)^2 f' - 1|  vs lambda,
  * starlike functions of order beta:    min Re(z f'/f)        vs beta,
  * the bounded-convexity classes:       max Re(1 + z f''/f')  vs 1+alpha/2,

and turns the extremum into a verdict with a signed margin.  Membership in
these classes is an open-disk condition; sampling closed circles r <= 0.999
decides it up to a tolerance band, and a verdict inside the band is
reported as inconclusive rather than forced either way.

Each functional is one expression in the values that the spec's registry
entry gives at the sample points (`atlas.pointwise_of`): f/z, f' and
f''/f'.  A query reads only the values its functional needs, prepares its
spec once and evaluates the functional in blocks of BLOCK_POINTS points.  They are closed forms
for every kind except g_family's f/z, an order-256 series in z^n whose
bound t on |f/z - series| is carried into U and z f'/f; a tail too large
to support the verdict marks the report inconclusive.  Sampling cannot see
a pole or a zero of f inside the circles (for z/(1 - a z) the deficiency
is identically 0), so a zero of A or B in f = z A / B that the zero rule
(atlas.root_test, which the exact_u search also applies) puts inside the
disk makes the verdict "fail", with its modulus in the note.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from functools import lru_cache
from operator import attrgetter

import numpy as np

from . import atlas
from .atlas import FunctionSpec
# unused here; bench/tracing.py wraps these names on this module
from .series import eval_raw, exp_raw, log_raw, mul_raw, reciprocal_raw  # noqa: F401

DEFAULT_RADII = (0.9, 0.99, 0.999)
DEFAULT_SAMPLES = 4096
VERDICT_BAND = 1e-6
SERIES_TAIL_LIMIT = 1e-8
# Sample points per block of a functional's evaluation: 32 KB per complex
# temporary, so a query's temporaries are reused from the heap.
BLOCK_POINTS = 2048
GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


@dataclass(frozen=True)
class ClassMembershipReport:
    spec: FunctionSpec
    query: str  # "ulambda" | "starlike" | "galpha"
    threshold: float  # lambda, beta, or alpha
    radii: tuple[float, ...]
    samples_per_circle: int
    measured: float
    margin: float
    verdict: str  # "pass" | "fail" | "inconclusive"
    tail_bound: float = 0.0
    note: str = ""

    def to_dict(self) -> dict:
        """The fields in declaration order, the spec in its DSL form."""
        values = dict(zip(_REPORT_KEYS, _report_values(self)))
        return {**values, "spec": atlas.render(self.spec), "radii": list(self.radii)}


# ClassMembershipReport.to_dict's keys and values, from its fields read once
_REPORT_KEYS = tuple(f.name for f in fields(ClassMembershipReport))
_report_values = attrgetter(*_REPORT_KEYS)


class MembershipError(ValueError):
    """Hard failure while evaluating a membership functional."""


@lru_cache(maxsize=4)
def _sample_points(radii: tuple[float, ...], m: int) -> np.ndarray:
    """All sample points, fixed order: per radius, the equiangular grid
    followed by one golden-angle-offset pass (avoids symmetry aliasing)."""
    base = 2.0 * math.pi * np.arange(m) / m
    unit = np.exp(1j * np.concatenate([base, base + GOLDEN_ANGLE]))
    points = np.concatenate([r * unit for r in radii])
    points.flags.writeable = False  # shared by every caller of the cache
    return points


# ---------------------------------------------------------------------------
# The three functionals, each one expression in the registry's pointwise
# values at the points z.  A functional returns its values and the bound
# that the tail of f/z carries into them, or raises _Refused.

# Why a query gives no value, highest precedence first: a query raises the
# first of these that any of its sample points shows.
_POLE, _ZERO, _CRITICAL, _NON_FINITE = range(4)
_REFUSALS = (
    "pole of f at a sample point (z/f vanishes)",
    "f vanishes at a sample point away from 0",
    "f' vanishes at a sample point (not locally univalent)",
    "non-finite {} at a sample point",
)


class _Refused(Exception):
    """The points show the refusal _REFUSALS[rank]."""

    def __init__(self, rank: int):
        self.rank = rank


def _fp_over_fz(p: atlas.Pointwise, power: int):
    """f'/(f/z)^power (power 1 or 2), refusing a pole or a zero of f, and
    the largest change that t = p.tail() >= |f/z - s| (s the evaluated f/z)
    makes in it: |f'| t / (|s| (|s| - t)), times (2|s| + t) / (|s| (|s| - t))
    for power 2.  Where t reaches |s| no change is excluded; the largest
    float stands for that, so the report stays finite."""
    s = p.fz()
    size = np.abs(s)
    if not np.all(size < 1e14):
        raise _Refused(_POLE)
    if np.any(size < 1e-14):
        raise _Refused(_ZERO)
    fp, t = p.fp(), p.tail()
    values = fp / s if power == 1 else fp / (s * s)
    if not np.any(t):
        return values, 0.0
    gap = size - t
    if np.any(gap <= 0.0):
        return values, sys.float_info.max
    bound = np.abs(fp) * t / (size * gap)
    if power == 2:
        bound *= (2.0 * size + t) / (size * gap)
    return values, float(np.max(bound))


def _deficiency(p: atlas.Pointwise, z):
    """U = (z/f)^2 f' - 1 = f'/(f/z)^2 - 1."""
    values, tail = _fp_over_fz(p, 2)
    return values - 1.0, tail


def _starlikeness(p: atlas.Pointwise, z):
    """z f'/f = f'/(f/z)."""
    return _fp_over_fz(p, 1)


def _convexity(p: atlas.Pointwise, z):
    """1 + z f''/f'; |f''/f'| >= 1e14 puts f' within 1e-14 |f''| of 0."""
    ratio = p.ratio()
    if np.any(np.abs(ratio) >= 1e14):
        raise _Refused(_CRITICAL)
    return 1.0 + z * ratio, 0.0


# query -> (functional, its name in errors, the part of its values that is
#           measured, the extremum's ufunc, margin of (threshold, measured))
_QUERIES = {
    "ulambda": (_deficiency, "deficiency functional", np.abs, np.maximum,
                lambda lam, x: lam - x),
    "starlike": (_starlikeness, "starlikeness functional", np.real, np.minimum,
                 lambda beta, x: x - beta),
    "galpha": (_convexity, "convexity functional", np.real, np.maximum,
               lambda alpha, x: 1.0 + 0.5 * alpha - x),
}


# ---------------------------------------------------------------------------
# Reports.

def _interior_zero_note(parts) -> str:
    """For a spec's (A, B) parts, f = z A / B: a note naming a zero of B
    (a pole of f), else of A (a zero of f away from 0), that the zero rule
    (atlas.root_test, one call on both) finds inside the disk, or "" when
    there is none or the spec has no parts."""
    if parts is None:
        return ""
    a, b = parts
    rows = np.zeros((2, max(a.size, b.size)), dtype=np.complex128)  # pads: zeros at infinity
    rows[0, : b.size], rows[1, : a.size] = b, a
    for poly, passed, what in zip((b, a), atlas.root_test(rows)[0], ("a pole", "a zero")):
        if not passed:
            inner = atlas.min_root_modulus(poly[None, :])[0]
            return f"f has {what} of modulus {inner:.6g} inside the disk"
    return ""


def _measure(spec, query, threshold, radii, m) -> ClassMembershipReport:
    """Sample the circles, evaluate the query's functional on the spec's
    pointwise values, and turn its extremum into a verdict.

    The spec is prepared once; the functional then runs over blocks of
    BLOCK_POINTS sample points, keeping the extremum, the largest tail and
    the highest-ranked refusal across blocks.  Max and min are exact, so
    the report does not depend on the block size."""
    functional, what, part, pick, margin_of = _QUERIES[query]
    radii = tuple(float(r) for r in radii)
    if not radii or not all(0.0 < r < 1.0 for r in radii):
        raise ValueError("radii must lie in (0, 1)")
    if m < 64:
        raise ValueError("need at least 64 samples per circle")
    z = _sample_points(radii, m)
    parts = atlas.rational_parts(spec)
    points = atlas.pointwise_of(spec, parts)
    extremes, tail, refusal = [], 0.0, len(_REFUSALS)
    with np.errstate(divide="ignore", invalid="ignore"):  # refused below
        for start in range(0, z.size, BLOCK_POINTS):
            block = z[start : start + BLOCK_POINTS]
            try:
                values, block_tail = functional(points(block), block)
                if not np.all(np.isfinite(values)):
                    raise _Refused(_NON_FINITE)
            except _Refused as err:
                refusal = min(refusal, err.rank)
                continue
            extremes.append(pick.reduce(part(values)))
            tail = max(tail, block_tail)
    if refusal < len(_REFUSALS):
        raise MembershipError(_REFUSALS[refusal].format(what))
    measured = float(pick.reduce(extremes))
    margin = margin_of(threshold, measured)
    note = _interior_zero_note(parts)
    if note:
        verdict = "fail"
    elif tail > SERIES_TAIL_LIMIT:
        verdict = "inconclusive"
        note = f"series tail bound {tail:.2e} exceeds {SERIES_TAIL_LIMIT}"
    elif abs(margin) < VERDICT_BAND:
        verdict = "inconclusive"
    elif margin > 0:
        verdict = "pass"
    else:
        verdict = "fail"
    return ClassMembershipReport(
        spec=spec,
        query=query,
        threshold=float(threshold),
        radii=radii,
        samples_per_circle=m,
        measured=measured,
        margin=float(margin),
        verdict=verdict,
        tail_bound=float(tail),
        note=note,
    )


def u_deficiency(
    spec: FunctionSpec,
    lam: float,
    radii=DEFAULT_RADII,
    m: int = DEFAULT_SAMPLES,
) -> ClassMembershipReport:
    """max |(z/f)^2 f' - 1| over the sampled circles, against lambda."""
    if not (0.0 < lam <= 1.0):
        raise ValueError("lambda must lie in (0, 1]")
    return _measure(spec, "ulambda", lam, radii, m)


def min_re_starlike(
    spec: FunctionSpec,
    beta: float = 0.0,
    radii=DEFAULT_RADII,
    m: int = DEFAULT_SAMPLES,
) -> ClassMembershipReport:
    """min Re(z f'/f) over the sampled circles, against the order beta."""
    if not math.isfinite(beta):
        raise ValueError("beta must be finite")
    return _measure(spec, "starlike", beta, radii, m)


def g_class_sup(
    spec: FunctionSpec,
    alpha: float,
    radii=DEFAULT_RADII,
    m: int = DEFAULT_SAMPLES,
) -> ClassMembershipReport:
    """max Re(1 + z f''/f') over the sampled circles, against 1 + alpha/2."""
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")
    return _measure(spec, "galpha", alpha, radii, m)
