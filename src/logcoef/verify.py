"""Numerical verification of the logarithmic-coefficient inequalities.

The module reproduces, on parameter grids, every bound the package tracks:

  * the sharp bound sum |gamma_n|^2 <= (pi^2/6 + 2 Li2(L) + Li2(L^2))/4 for
    the bounded-deficiency class with parameter L, its equality family, and
    the counterexample family that beats the termwise bound;
  * the univalent-class limit sum |gamma_n|^2 <= pi^2/6 with Koebe equality;
  * the sign analysis behind the sharpness proof (a dilogarithm gap that
    stays negative, written as an integral with positive integrand whose
    numerator is an explicit quadratic);
  * the bounded-convexity chain (weighted l2, per-coefficient, and l2
    bounds) with its equality member z - z^2/2 and the one-index family
    refuting the naive per-coefficient conjecture;
  * the convex-order chain: delta coefficients of the subordination kernel,
    the starlike order of convex functions of order alpha, and the l2
    consequences, with equality for the kernel primitive itself.

The logarithmic coefficients gamma_1..gamma_N (log_coefficients) take one
of three routes, chosen from the spec's registry entry and series:

  * rational parts, f/z = A/B (every kind but k_alpha and g_family(n),
    n >= 2): the power sums of A and B by Newton's identities, O(N d) for
    degree d, with no series log or reciprocal and no BLAS call;
  * a series in w = z^s, s > 1 (g_family(n), s = n): the series log of its
    N/s + 1 coefficients in w, spread back to the multiples of s,
    O((N/s)^2);
  * any other series (k_alpha): the series log of f/z, O(N^2).

Every partial-sum check carries an explicit tail bound; equality checks use
closed-form geometric or dilogarithm tails.  Results are BoundCheck rows
with a stable JSON field layout (name, params, lhs, rhs, slack, status, N,
tail_bound, route), where route names the tail added into lhs:
"closed_form" or "none".

run_suite rejects bad input with VerifyError before any check runs.  Every
row then comes from one ordered list of blocks, each a plain function of the
order returning its rows, run in one guarded loop: a block that raises
contributes one row with status "error" in place of its rows, carrying the
block's guard name and params plus params["error"] = "<ExceptionType>:
<message>".  So "violated" only ever means that a bound failed numerically.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields, replace
from functools import lru_cache, partial

import numpy as np

from . import atlas
from .atlas import FunctionSpec, starlike_order
from .dilog import PI2_6, li2
from .series import SeriesError, TruncatedSeries, power_sums, ts_log, ts_reciprocal
# unused here; bench/tracing.py wraps this name on this module
from .series import ts_exp  # noqa: F401

EQUALITY_TOL = 1e-9
VIOLATION_TOL = 1e-9
DEFAULT_ORDER = 128

DEFAULT_LAMBDA_GRID = tuple(round(0.1 * k, 10) for k in range(1, 11))
DEFAULT_ALPHA_GRID = (0.25, 0.5, 0.75, 1.0)
_SUITE_T_GRID = tuple(round(0.1 * k, 10) for k in range(11))

_log = logging.getLogger(__name__)


class VerifyError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Logarithmic coefficient profiles.

@dataclass(frozen=True)
class LogCoeffProfile:
    gammas: np.ndarray  # gamma_1 .. gamma_N
    source: str  # "parts" | "series" | "closed_form"
    spec: FunctionSpec


def log_coefficients(spec: FunctionSpec, order: int) -> LogCoeffProfile:
    """gamma_1..gamma_N, gamma_n = [z^n] log(f/z) / 2.

    A spec with rational parts f/z = A/B (A(0) = B(0)) takes the "parts"
    route: gamma_n = (p_n(B) - p_n(A)) / (2n) from the power sums of A and B,
    in O(N d).  Any other spec takes the "series" route: the series log of
    its f/z series, in O((N/s)^2) when that series is one in w = z^s."""
    if order < 1:
        raise VerifyError("order must be >= 1")
    parts = atlas.rational_parts(spec)
    fz = atlas.fz_series(spec, order if parts is None else 1)
    if fz.coeffs[0] != 1.0:
        raise VerifyError("f/z fails the c0 = 1 normalization")
    if parts is None:
        gammas = 0.5 * _strided_log(fz.coeffs)[1:]
        source = "series"
    else:
        a, b = parts
        ns = np.arange(1, order + 1)
        gammas = (power_sums(b, order) - power_sums(a, order)) / (2.0 * ns)
        if not np.all(np.isfinite(gammas.view(np.float64))):
            raise SeriesError("non-finite coefficient")
        source = "parts"
    a2 = fz.coeffs[1]
    if abs(2.0 * gammas[0] - a2) > 1e-10:
        raise VerifyError("2 gamma_1 != a_2: inconsistent expansion")
    gammas.flags.writeable = False
    return LogCoeffProfile(gammas=gammas, source=source, spec=spec)


def _strided_log(c: np.ndarray) -> np.ndarray:
    """log of the series c (c0 = 1).  When c is a series in w = z^s (s the
    gcd of the indices of its nonzero terms, or the length of c when c0 is
    the only one; g_family's f/z has s = n), the log is taken in w and
    spread back to the multiples of s."""
    s = int(np.gcd.reduce(np.flatnonzero(c))) or c.size
    log = np.zeros_like(c)
    log[::s] = ts_log(TruncatedSeries(c[::s])).coeffs
    return log


@dataclass(frozen=True)
class L2Sum:
    value: float  # partial sum over n <= N
    order: int
    tail_bound: float | None  # None when no generic tail is available


def gamma_l2(profile: LogCoeffProfile, weights: str = "unit") -> L2Sum:
    """Partial sum of |gamma_n|^2 (optionally n^2-weighted) with a generic
    tail bound when a 1/n coefficient bound is known for the spec."""
    sq = np.abs(profile.gammas) ** 2
    n = profile.gammas.size
    if weights == "unit":
        value = float(math.fsum(sq))
        c = atlas.gamma_linf_slope(profile.spec)
        tail = (c * c / n) if c is not None else None
    elif weights == "n_squared":
        value = float(math.fsum(sq * np.arange(1, n + 1) ** 2))
        tail = None
    else:
        raise VerifyError(f"unknown weights {weights!r}")
    return L2Sum(value=value, order=n, tail_bound=tail)


# ---------------------------------------------------------------------------
# Dilogarithm partial sums and closed tails.

# one suite asks for about 47 distinct (x, N), x = 1 alone 27 times
@lru_cache(maxsize=64)
def li2_partial(x: float, order: int) -> float:
    # cumprod multiplies in sequence and n*n is exact in float64, so each
    # term x^n / n^2 has the bits of the running product p *= x divided by
    # n*n, and fsum rounds their sum once.
    if x == 0.0 or order < 1:
        return 0.0
    ns = np.arange(1, order + 1, dtype=np.float64)
    return math.fsum(np.cumprod(np.full(order, x)) / (ns * ns))


def li2_tail(x: float, order: int) -> float:
    """sum_{n > N} x^n / n^2, via the full dilogarithm minus the partial."""
    return li2(x).value - li2_partial(x, order)


def ulambda_l2_bound(lam: float) -> float:
    """The sharp bound (pi^2/6 + 2 Li2(lam) + Li2(lam^2)) / 4."""
    if not (0.0 < lam <= 1.0):
        raise VerifyError("lambda must lie in (0, 1]")
    return 0.25 * (PI2_6 + 2.0 * li2(lam).value + li2(lam * lam).value)


def glambda_l2_closed_tail(lam: float, order: int) -> float:
    """Exact tail of sum |gamma_n(g_lambda)|^2 = sum ((1+lam^n)/(2n))^2."""
    if lam == 1.0:
        return li2_tail(1.0, order)
    return 0.25 * (
        li2_tail(1.0, order) + 2.0 * li2_tail(lam, order) + li2_tail(lam * lam, order)
    )


def flambda_l2_closed_tail(lam: float, order: int) -> float:
    """Exact tail of sum |gamma_n(f_lambda)|^2 from its closed form."""
    y1 = lam / (1.0 + lam)
    y2 = lam * lam / (1.0 + lam)
    return (
        0.25
        * (li2_tail(1.0, order) + 2 * li2_tail(lam, order) + li2_tail(lam**2, order))
        + 0.5 * (li2_tail(-y1, order) + li2_tail(-y2, order))
        + 0.25 * li2_tail(y1 * y1, order)
    )


def f0_weighted_l2_closed_tail(order: int) -> float:
    """Exact tail of sum n^2 |gamma_n(f0)|^2 = sum 4^-(n+1) (geometric)."""
    return 0.25 ** (order + 1) / 3.0


def f1_l2_alternating_route(terms: int = 80) -> float:
    """sum |gamma_n(f1)|^2 via the alternating rearrangement
    pi^2/6 - (1/2) sum_k 4^-k (4k-1) / (k^2 (2k-1)^2)."""
    s = math.fsum(
        4.0**-k * (4 * k - 1) / (k * k * (2 * k - 1) ** 2) for k in range(1, terms + 1)
    )
    return PI2_6 - 0.5 * s


# ---------------------------------------------------------------------------
# Sharpness analysis of the bounded-deficiency bound.

@dataclass(frozen=True)
class SharpnessTerms:
    """gap: the dilogarithm combination measuring how far the counterexample
    family sits below the sharp bound (scaled by 4; negative).  integrand:
    the positive integrand of its integral form.  kernel: the quadratic
    numerator of the integrand."""

    gap: float
    integrand: float
    kernel: float


def sharpness_terms(lam: float, t: float) -> SharpnessTerms:
    if not (0.0 < lam <= 1.0):
        raise VerifyError("lambda must lie in (0, 1]")
    if not (0.0 <= t <= 1.0):
        raise VerifyError("t must lie in [0, 1]")
    gap = 2.0 * (
        li2(-lam * lam / (1.0 + lam)).value + li2(-lam / (1.0 + lam)).value
    ) + li2((lam / (1.0 + lam)) ** 2).value
    integrand = (
        2.0 / (1.0 + lam + t * lam)
        - 1.0 / (1.0 + lam - t * lam)
        + lam / (1.0 + lam + t * lam * lam)
    )
    kernel = (
        (1.0 + lam) ** 3
        - (3.0 - lam) * (1.0 + lam) * lam * t
        - 4.0 * lam**3 * t * t
    )
    denom = ((1.0 + lam) ** 2 - t * t * lam * lam) * (1.0 + lam + t * lam * lam)
    if abs(integrand * denom - kernel) > 1e-12 * max(1.0, abs(kernel)):
        raise VerifyError(
            f"integrand/kernel inconsistency at lam={lam}, t={t}: "
            f"{integrand * denom} vs {kernel}"
        )
    return SharpnessTerms(gap=gap, integrand=integrand, kernel=kernel)


# ---------------------------------------------------------------------------
# Bounded-convexity (g-class) bounds.

@dataclass(frozen=True)
class GClassBounds:
    weighted_l2: float  # bound on sum n^2 |gamma_n|^2
    coeff_factor: float  # n-free factor in |gamma_n| <= coeff_factor / n
    plain_l2: float  # bound on sum |gamma_n|^2


def g_class_bounds(alpha: float) -> GClassBounds:
    if not (0.0 < alpha <= 1.0):
        raise VerifyError("alpha must lie in (0, 1]")
    return GClassBounds(
        weighted_l2=alpha / (4.0 * (alpha + 2.0)),
        coeff_factor=alpha / (2.0 * (alpha + 1.0)),
        plain_l2=0.25 * alpha * alpha * li2(1.0 / (1.0 + alpha) ** 2).value,
    )


# ---------------------------------------------------------------------------
# Convex functions of order alpha.

@dataclass(frozen=True)
class ConvexOrderProfile:
    alpha: float
    beta: float
    delta: np.ndarray  # delta_1 .. delta_N, real
    gamma_l2: float  # (1/4) sum delta_n^2 / n^2 over n <= N


def convex_order_profile(alpha: float, order: int) -> ConvexOrderProfile:
    """delta coefficients of G_alpha - 1 and the induced l2 quantity, with
    the subordination kernel G_alpha = z K'/K = K'/(K/z) read from the
    registry's series of K/z = sum p_m z^m, so K' = sum (m + 1) p_m z^m."""
    beta = starlike_order(alpha)
    kz = atlas.fz_series(atlas.k_alpha(alpha), order)
    g = TruncatedSeries(kz.coeffs * np.arange(1, order + 2)) * ts_reciprocal(kz)
    delta_c = g.coeffs[1:]
    if np.max(np.abs(delta_c.imag)) > 1e-12:
        raise VerifyError("delta coefficients acquired an imaginary part")
    delta = delta_c.real.copy()
    delta.flags.writeable = False
    ns = np.arange(1, order + 1, dtype=float)
    gl2 = 0.25 * float(math.fsum(delta * delta / (ns * ns)))
    return ConvexOrderProfile(alpha=alpha, beta=beta, delta=delta, gamma_l2=gl2)


# ---------------------------------------------------------------------------
# Bound checks and the suite.

@dataclass(frozen=True)
class BoundCheck:
    name: str
    params: dict
    lhs: float
    rhs: float
    slack: float  # rhs - lhs
    status: str  # "holds" | "equality" | "violated" | "error"
    order: int
    tail_bound: float
    route: str  # the tail in lhs: "closed_form" (past N, exact) | "none"

    def to_dict(self) -> dict:
        """The fields in declaration order, with `order` written as "N"."""
        return {
            "N" if f.name == "order" else f.name: getattr(self, f.name)
            for f in fields(self)
        }


def _check(name, params, lhs, rhs, order, tail_bound=0.0, route="none"):
    slack = rhs - lhs
    if abs(slack) <= EQUALITY_TOL:
        status = "equality"
    elif slack < -VIOLATION_TOL:
        status = "violated"
    else:
        status = "holds"
    return BoundCheck(
        name=name,
        params=params,
        lhs=float(lhs),
        rhs=float(rhs),
        slack=float(slack),
        status=status,
        order=order,
        tail_bound=float(tail_bound),
        route=route,
    )


def _l2_check(name, params, spec, rhs, order, tail):
    """sum |gamma_n(spec)|^2 over n <= order plus its exact tail, against rhs."""
    lhs = gamma_l2(log_coefficients(spec, order)).value + tail
    return _check(name, params, lhs, rhs, order, tail, "closed_form")


def _anchor_rows(order):
    """At lambda = 1 the sharp bound is the univalent limit pi^2/6."""
    return [
        _check(
            "dilog_duplication_anchor",
            {"lambda": 1.0},
            ulambda_l2_bound(1.0),
            PI2_6,
            order,
        )
    ]


# The univalent-limit rows, one guarded block each, named after its row:
# (name, params, spec, rhs, closed tail past N), the last three built in the
# guard, with atlas looked up then.  Koebe attains pi^2/6, the half-plane map
# a quarter of it, and f1's sum equals its alternating rearrangement.
_UNIVALENT_LIMITS = (
    (
        "log_l2_univalent_koebe",
        {"spec": "koebe(theta=0.0)"},
        lambda: atlas.koebe(0.0),
        lambda: PI2_6,
        lambda order: li2_tail(1.0, order),
    ),
    (
        "halfplane_l2",
        {"spec": "half_plane()"},
        lambda: atlas.half_plane(),
        lambda: PI2_6 / 4.0,
        lambda order: 0.25 * li2_tail(1.0, order),
    ),
    (
        "f1_l2_two_routes",
        {},
        lambda: atlas.f1(),
        f1_l2_alternating_route,
        lambda order: flambda_l2_closed_tail(1.0, order),
    ),
)


def _univalent_limit_rows(name, params, spec, rhs, tail, order):
    """The row of one _UNIVALENT_LIMITS entry, with its own copy of params."""
    return [_l2_check(name, dict(params), spec(), rhs(), order, tail(order))]


def _lambda_rows(lam, order):
    """The sharp bound at lambda: g_lambda attains it, f_lambda stays below it,
    and the sign analysis behind the sharpness proof."""
    bound = ulambda_l2_bound(lam)
    rows = [
        _l2_check(
            "log_l2_sharp_ulambda",
            {"lambda": lam, "spec": f"g_lambda(lambda={lam!r})"},
            atlas.g_lambda(lam),
            bound,
            order,
            glambda_l2_closed_tail(lam, order),
        ),
        _l2_check(
            "log_l2_ulambda_counterexample",
            {"lambda": lam, "spec": f"f_lambda(lambda={lam!r})"},
            atlas.f_lambda(lam),
            bound,
            order,
            flambda_l2_closed_tail(lam, order),
        ),
        _check(
            "sharpness_gap_negative",
            {"lambda": lam},
            sharpness_terms(lam, 0.0).gap,
            0.0,
            order,
        ),
    ]
    for t in _SUITE_T_GRID:
        st = sharpness_terms(lam, t)
        for name, value in (
            ("sharpness_integrand_positive", st.integrand),
            ("sharpness_kernel_positive", st.kernel),
        ):
            rows.append(_check(name, {"lambda": lam, "t": t}, 0.0, value, order))
    return rows


def _g_class_rows(order):
    """Bounded-convexity chain at alpha = 1 plus the remark-family rows."""
    alpha = 1.0
    b = g_class_bounds(alpha)
    # (row name, weights, bound, closed tail of f0's sum past N); the
    # g_family rows carry no tail
    l2_rows = (
        ("gclass_weighted_l2", "n_squared", b.weighted_l2, f0_weighted_l2_closed_tail),
        ("gclass_l2", "unit", b.plain_l2, lambda n: 0.25 * li2_tail(0.25, n)),
    )
    rows = []
    specs = [atlas.f0()] + [atlas.g_family(n) for n in range(1, 7)]
    profiles = [log_coefficients(spec, max(order, 40)) for spec in specs]
    for spec, prof in zip(specs, profiles):
        name = atlas.render(spec)
        for row, weights, bound, f0_tail in l2_rows:
            l2 = gamma_l2(prof, weights)
            tail, route = 0.0, "none"
            if spec.kind == "f0":
                tail, route = f0_tail(l2.order), "closed_form"
            rows.append(
                _check(
                    row,
                    {"alpha": alpha, "spec": name},
                    l2.value + tail,
                    bound,
                    l2.order,
                    tail,
                    route,
                )
            )
        for n in range(1, 9):
            rows.append(
                _check(
                    "gclass_coeff_bound",
                    {"alpha": alpha, "spec": name, "n": n},
                    abs(prof.gammas[n - 1]),
                    b.coeff_factor / n,
                    prof.gammas.size,
                )
            )
    # gamma_n of g_family(n) (specs[n]) depends only on the first n terms, so
    # the longer profile gives the bits of one at order max(order, n).
    for n in range(2, 7):
        lead = abs(profiles[n].gammas[n - 1])
        rows.append(
            _check(
                "gclass_leading_coeff",
                {"n": n},
                lead,
                1.0 / (2.0 * n * (n + 1)),
                max(order, n),
            )
        )
        rows.append(
            _check(
                "gclass_naive_bound_refuted",
                {"n": n},
                1.0 / (n * 2.0 ** (n + 1)),
                lead,
                max(order, n),
            )
        )
    return rows


# alpha -> the starlike order known in closed form at that alpha
_STARLIKE_ORDER_ANCHORS = {0.0: 0.5, 0.5: 1.0 / (2.0 * math.log(2.0))}


def _convex_rows(alpha, order):
    """The convex-order chain at alpha, with the starlike order anchored where
    it is known in closed form."""
    prof = convex_order_profile(alpha, order)
    kgam = log_coefficients(atlas.k_alpha(alpha), order)
    rows = [
        _check(
            "convex_order_l2_equality",
            {"alpha": alpha},
            gamma_l2(kgam).value,
            prof.gamma_l2,
            order,
        ),
        _check(
            "convex_order_delta_bound",
            {"alpha": alpha},
            float(np.max(np.abs(prof.delta))),
            2.0 * (1.0 - prof.beta),
            order,
        ),
        _check(
            "convex_order_l2_bound",
            {"alpha": alpha},
            prof.gamma_l2,
            (1.0 - prof.beta) ** 2 * PI2_6,
            order,
        ),
    ]
    # the row carries the table's alpha, so alpha = -0.0 still prints 0.0
    for anchor, beta in _STARLIKE_ORDER_ANCHORS.items():
        if alpha == anchor:
            rows.append(
                _check(
                    "convex_starlike_order_anchor",
                    {"alpha": anchor},
                    prof.beta,
                    beta,
                    order,
                )
            )
    return rows


def _starlike_rows(order):
    """n |gamma_n| <= 1 for the two starlike extremals, Koebe and g_1."""
    rows = []
    for spec in (atlas.koebe(0.0), atlas.g_lambda(1.0)):
        prof = log_coefficients(spec, min(order, 100))
        ns = np.arange(1, prof.gammas.size + 1)
        rows.append(
            _check(
                "starlike_coeff_bound",
                {"spec": atlas.render(spec)},
                float(np.max(ns * np.abs(prof.gammas))),
                1.0,
                prof.gammas.size,
            )
        )
    return rows


def run_suite(
    lambda_grid=DEFAULT_LAMBDA_GRID,
    alpha_grid=DEFAULT_ALPHA_GRID,
    order: int = DEFAULT_ORDER,
) -> list[BoundCheck]:
    """All bound checks on the given grids, in a fixed canonical order.

    Raises VerifyError, before any check runs, for an order below 1, a lambda
    outside (0, 1] or an alpha outside [0, 1].  alpha = 1 selects the
    bounded-convexity block, alpha < 1 the convex-order block."""
    lambdas = [float(lam) for lam in lambda_grid]
    alphas = [float(alpha) for alpha in alpha_grid]
    if order < 1:
        raise VerifyError("order must be >= 1")
    for lam in lambdas:
        if not 0.0 < lam <= 1.0:
            raise VerifyError(f"lambda {lam!r} must lie in (0, 1]")
    for alpha in alphas:
        if not 0.0 <= alpha <= 1.0:
            raise VerifyError(f"alpha {alpha!r} must lie in [0, 1]")

    # (guard name, guard params, block): block(order) returns its rows, or raises
    # and is replaced by one "error" row carrying the guard name and params
    blocks = [("dilog_duplication_anchor", {"lambda": 1.0}, _anchor_rows)]
    for limit in _UNIVALENT_LIMITS:
        blocks.append((limit[0], {}, partial(_univalent_limit_rows, *limit)))
    blocks.append(("starlike_coeff_bound", {}, _starlike_rows))
    for lam in lambdas:
        blocks.append(("lambda_block", {"lambda": lam}, partial(_lambda_rows, lam)))
    if any(abs(alpha - 1.0) < 1e-12 for alpha in alphas):
        blocks.append(("gclass_block", {"alpha": 1.0}, _g_class_rows))
    for alpha in alphas:
        if alpha < 1.0:
            blocks.append(
                ("convex_block", {"alpha": alpha}, partial(_convex_rows, alpha))
            )

    rows = []
    for name, params, block in blocks:
        try:
            rows.extend(block(order))
        except Exception as err:  # noqa: BLE001 - a crash must surface as an error row
            _log.debug("%s %r raised", name, params, exc_info=True)
            error = {**params, "error": f"{type(err).__name__}: {err}"}
            rows.append(replace(_check(name, error, 0.0, 0.0, order), status="error"))
    return rows
