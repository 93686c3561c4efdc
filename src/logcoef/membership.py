"""Numerical class-membership functionals via circle sampling.

Measures, over grids of circles |z| = r, the defining functionals of

  * the bounded-deficiency classes:      max |(z/f)^2 f' - 1|  vs lambda,
  * starlike functions of order beta:    min Re(z f'/f)        vs beta,
  * the bounded-convexity classes:       max Re(1 + z f''/f')  vs 1+alpha/2,

and turns the extremum into a verdict with a signed margin.  Membership in
these classes is an open-disk condition; sampling closed circles r <= 0.999
decides it up to a tolerance band, and a verdict inside the band is
reported as inconclusive rather than forced either way.

Rational specs (everything except k_alpha and g_family) are evaluated in
closed form, so no truncation enters.  Sampling cannot see a pole or a zero
of f inside the circles (for z/(1 - a z) the deficiency is identically 0),
so a zero of A or B in f = z A / B of modulus at most the largest sampled
radius makes the verdict "fail", with the modulus in the note.  k_alpha
uses its explicit power-function derivatives.  g_family has a closed
second-derivative functional; its f-dependent functionals come from a
series in z^n whose tail estimate, read over a window holding a full
period (or bounded in closed form when n exceeds the series order), is
attached to the report, and a tail too large to support the verdict marks
the report inconclusive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from . import atlas
from .atlas import FunctionSpec
from .series import eval_raw, exp_raw, log_raw, mul_raw, reciprocal_raw

DEFAULT_RADII = (0.9, 0.99, 0.999)
DEFAULT_SAMPLES = 4096
VERDICT_BAND = 1e-6
SERIES_TAIL_LIMIT = 1e-8
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
        return {
            "spec": atlas.render(self.spec),
            "query": self.query,
            "threshold": self.threshold,
            "radii": list(self.radii),
            "samples_per_circle": self.samples_per_circle,
            "measured": self.measured,
            "margin": self.margin,
            "verdict": self.verdict,
            "tail_bound": self.tail_bound,
            "note": self.note,
        }


class MembershipError(ValueError):
    """Hard failure while evaluating a membership functional."""


def _sample_points(radii, m: int) -> np.ndarray:
    """All sample points, fixed order: per radius, the equiangular grid
    followed by one golden-angle-offset pass (avoids symmetry aliasing)."""
    base = 2.0 * math.pi * np.arange(m) / m
    angles = np.concatenate([base, base + GOLDEN_ANGLE])
    return np.concatenate([r * np.exp(1j * angles) for r in radii])


def _check_args(radii, m):
    radii = tuple(float(r) for r in radii)
    if not radii or not all(0.0 < r < 1.0 for r in radii):
        raise ValueError("radii must lie in (0, 1)")
    if m < 64:
        raise ValueError("need at least 64 samples per circle")
    return radii


def _finite_or_fail(values: np.ndarray, what: str):
    if not np.all(np.isfinite(values)):
        raise MembershipError(f"non-finite {what} at a sample point")


# ---------------------------------------------------------------------------
# Pointwise evaluators.  Each returns an array of functional values over z.

def _rational_fvals(spec, z):
    """(N, N', N'', D, D', D'') values for f = N/D with N = z A, D = B."""
    a, b = atlas.rational_parts(spec)
    n = P.polymul([0.0, 1.0], a)
    nd = P.polyder(n)
    ndd = P.polyder(nd)
    bd = P.polyder(b)
    bdd = P.polyder(bd)
    pv = P.polyval
    return pv(z, n), pv(z, nd), pv(z, ndd), pv(z, b), pv(z, bd), pv(z, bdd)


def _u_values(spec, z):
    k = spec.kind
    if k == "k_alpha":
        alpha, lz = spec.alpha, np.log(1.0 - z)
        if abs(1.0 - 2.0 * alpha) < atlas.ALPHA_HALF_SWITCH:
            f = -lz
        else:
            f = (np.exp((2 * alpha - 1) * lz) - 1.0) / (1.0 - 2.0 * alpha)
        fp = np.exp((2 * alpha - 2) * lz)
        if np.any(np.abs(f) < 1e-14 * np.abs(z)):
            raise MembershipError("z/f degenerate at a sample point")
        return (z / f) ** 2 * fp - 1.0
    nv, ndv, _, dv, ddv, _ = _rational_fvals(spec, z)
    if np.any(np.abs(dv) < 1e-14):
        raise MembershipError("pole of f at a sample point (z/f vanishes)")
    if np.any(np.abs(nv) < 1e-14 * np.abs(z)):
        raise MembershipError("f vanishes at a sample point away from 0")
    # (z/f)^2 f' = z^2 (N'D - ND') / N^2
    return z * z * (ndv * dv - nv * ddv) / (nv * nv) - 1.0


def _star_values(spec, z):
    k = spec.kind
    if k == "k_alpha":
        return _g_alpha_kernel(spec.alpha, z)
    nv, ndv, _, dv, ddv, _ = _rational_fvals(spec, z)
    if np.any(np.abs(nv) < 1e-14 * np.abs(z)):
        raise MembershipError("f vanishes at a sample point away from 0")
    return z * (ndv * dv - nv * ddv) / (dv * nv)


def _gclass_values(spec, z):
    k = spec.kind
    if k == "k_alpha":
        alpha = spec.alpha
        return 1.0 + (2.0 - 2.0 * alpha) * z / (1.0 - z)
    if k == "g_family":
        zn = z**spec.n
        return (1.0 - 2.0 * zn) / (1.0 - zn)
    nv, ndv, nddv, dv, ddv, dddv = _rational_fvals(spec, z)
    fp = (ndv * dv - nv * ddv) / (dv * dv)
    if np.any(np.abs(fp) < 1e-14):
        raise MembershipError("f' vanishes at a sample point (not locally univalent)")
    fpp = (nddv * dv - nv * dddv) / (dv * dv) - 2.0 * ddv * (
        ndv * dv - nv * ddv
    ) / (dv**3)
    return 1.0 + z * fpp / fp


def _g_alpha_kernel(alpha, z):
    """z K_alpha'/K_alpha, the convex-order subordination kernel G_alpha."""
    if abs(1.0 - 2.0 * alpha) < atlas.ALPHA_HALF_SWITCH:
        return -z / ((1.0 - z) * np.log(1.0 - z))
    return (
        (2.0 * alpha - 1.0)
        * z
        / ((1.0 - z) * (np.exp((1.0 - 2.0 * alpha) * np.log(1.0 - z)) - 1.0))
    )


# ---------------------------------------------------------------------------
# Series route for g_family (U and z f'/f need f itself).

def _gfamily_values(spec: FunctionSpec, query: str, z, radii):
    """Values at z of U = (z/f)^2 f' - 1 (query "ulambda") or of W = z f'/f
    ("starlike") from their series at atlas.SERIES_EVAL_ORDER, and the
    largest tail bound of that series over the radii."""
    n, order = spec.n, atlas.SERIES_EVAL_ORDER
    if n > order:
        # to this order f = z, so U = 0 and z f'/f = 1: all of it is tail
        vals = np.zeros_like(z) if query == "ulambda" else np.ones_like(z)
        return vals, max(_unresolved_tail_bound(query, n, r) for r in radii)
    base = np.zeros(order + 1, dtype=np.complex128)
    base[0] = 1.0
    base[n] = -1.0
    fprime = exp_raw(log_raw(base) / n)
    inv_fz = reciprocal_raw(atlas.fz_series(spec, order).coeffs)
    if query == "ulambda":
        coeffs = mul_raw(mul_raw(inv_fz, inv_fz), fprime)
        coeffs[0] -= 1.0
    else:
        coeffs = mul_raw(fprime, inv_fz)
    return eval_raw(coeffs, z), max(_series_tail_bound(coeffs, r, n) for r in radii)


def _series_tail_bound(coeffs: np.ndarray, r: float, period: int) -> float:
    """Crude geometric tail from the magnitude of the trailing coefficients of
    a series in z^period; the window holds at least one full period, so it
    sees a nonzero coefficient."""
    m = float(np.max(np.abs(coeffs[-max(32, period) :])))
    n = coeffs.size - 1
    return m * r ** (n + 1) / (1.0 - r)


def _unresolved_tail_bound(query: str, n: int, r: float) -> float:
    """Bound on |F - F_N| over |z| = r for g_family(n) with n above the
    series order N, where F_N is 0 (U) or 1 (z f'/f).  In w = z^n,
    f' - 1 = (1 - w)^(1/n) - 1 = sum_{j>=1} b_j w^j with every b_j < 0 and
    f/z - 1 = sum_{j>=1} b_j w^j / (jn + 1), so e = 1 - (1 - r^n)^(1/n) >=
    |f' - 1| and d = e / (n + 1) >= |f/z - 1|, which give |U| <=
    (e + d (2 + d)) / (1 - d)^2 and |z f'/f - 1| <= (e + d) / (1 - d)."""
    e = -math.expm1(math.log1p(-(r**n)) / n)
    d = e / (n + 1)
    if query == "ulambda":
        return (e + d * (2.0 + d)) / (1.0 - d) ** 2
    return (e + d) / (1.0 - d)


# ---------------------------------------------------------------------------
# Reports.

def _interior_zero_note(spec, radii) -> str:
    """For a spec with (A, B) parts, f = z A / B: a note naming a zero of B
    (a pole of f) or of A (a zero of f away from 0) of modulus at most the
    largest sampled radius, or "" when there is none.  A multiple zero on
    |z| = 1 comes out of the root finder about 1e-8 off the circle, well
    outside any radius the default grids sample."""
    parts = atlas.rational_parts(spec)
    if parts is None:
        return ""
    a, b = parts
    for poly, what in ((b, "a pole"), (a, "a zero")):
        moduli = np.abs(P.polyroots(poly))
        if moduli.size and moduli.min() <= max(radii):
            return f"f has {what} of modulus {moduli.min():.6g} inside the disk"
    return ""


def _make_report(spec, query, threshold, radii, m, measured, tail):
    if query == "ulambda":
        margin = threshold - measured
    elif query == "starlike":
        margin = measured - threshold
    else:
        margin = (1.0 + 0.5 * threshold) - measured
    note = _interior_zero_note(spec, radii)
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
        measured=float(measured),
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
    radii = _check_args(radii, m)
    z = _sample_points(radii, m)
    if spec.kind == "g_family":
        vals, tail = _gfamily_values(spec, "ulambda", z, radii)
    else:
        vals, tail = _u_values(spec, z), 0.0
    _finite_or_fail(vals, "deficiency functional")
    measured = float(np.max(np.abs(vals)))
    return _make_report(spec, "ulambda", lam, radii, m, measured, tail)


def min_re_starlike(
    spec: FunctionSpec,
    beta: float = 0.0,
    radii=DEFAULT_RADII,
    m: int = DEFAULT_SAMPLES,
) -> ClassMembershipReport:
    """min Re(z f'/f) over the sampled circles, against the order beta."""
    if not math.isfinite(beta):
        raise ValueError("beta must be finite")
    radii = _check_args(radii, m)
    z = _sample_points(radii, m)
    if spec.kind == "g_family":
        vals, tail = _gfamily_values(spec, "starlike", z, radii)
    else:
        vals, tail = _star_values(spec, z), 0.0
    _finite_or_fail(vals, "starlikeness functional")
    measured = float(np.min(vals.real))
    return _make_report(spec, "starlike", beta, radii, m, measured, tail)


def g_class_sup(
    spec: FunctionSpec,
    alpha: float,
    radii=DEFAULT_RADII,
    m: int = DEFAULT_SAMPLES,
) -> ClassMembershipReport:
    """max Re(1 + z f''/f') over the sampled circles, against 1 + alpha/2."""
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")
    radii = _check_args(radii, m)
    z = _sample_points(radii, m)
    vals = _gclass_values(spec, z)
    _finite_or_fail(vals, "convexity functional")
    measured = float(np.max(vals.real))
    return _make_report(spec, "galpha", alpha, radii, m, measured, 0.0)
