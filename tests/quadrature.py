"""Adaptive midpoint quadrature for the test suite.

li2_quadrature_oracle evaluates the integral representation

    Li2(x) = x * integral_0^1 log(1/t) / (1 - t x) dt

as a reference that shares no code with logcoef.dilog's series path;
test_verify reuses the quadrature for the sharpness-gap integral.
"""

import math

_QUAD_EPS = 1e-12  # analytic head interval [0, eps]
_QUAD_TOL = 1e-9
_QUAD_MAX_DEPTH = 48


def _midpoint_refined(g, a: float, b: float) -> float:
    """One midpoint-refinement step with Richardson acceleration: compare
    the 1- and 2-panel midpoint rules and extrapolate the h^2 error away."""
    m = 0.5 * (a + b)
    whole = g(m) * (b - a)
    halves = g(0.5 * (a + m)) * (m - a) + g(0.5 * (m + b)) * (b - m)
    return halves + (halves - whole) / 3.0


def _adaptive_midpoint(g, a, b, tol, depth, coarse) -> float:
    m = 0.5 * (a + b)
    left = _midpoint_refined(g, a, m)
    right = _midpoint_refined(g, m, b)
    fine = left + right
    # The refined rule converges at h^4; the standard 15x acceptance test.
    if depth >= _QUAD_MAX_DEPTH or abs(fine - coarse) <= 15.0 * tol:
        return fine + (fine - coarse) / 15.0
    return _adaptive_midpoint(g, a, m, 0.5 * tol, depth + 1, left) + _adaptive_midpoint(
        g, m, b, 0.5 * tol, depth + 1, right
    )


def li2_quadrature_oracle(x: float) -> float:
    """Li2 via the integral representation, absolute error <= 1e-8.

    Independent of the series path; for cross-validation only.
    """
    if not -1.0 <= x <= 1.0:
        raise ValueError(f"dilogarithm argument {x} outside [-1, 1]")
    if x == 0.0:
        return 0.0

    def integrand(t: float) -> float:
        return math.log(1.0 / t) / (1.0 - t * x)

    # On [0, eps] the weight integrates to eps(1 - log eps); the 1/(1-tx)
    # factor differs from 1 by O(eps), far below the target accuracy.
    head = _QUAD_EPS * (1.0 - math.log(_QUAD_EPS))
    body = _adaptive_midpoint(
        integrand,
        _QUAD_EPS,
        1.0,
        _QUAD_TOL,
        0,
        _midpoint_refined(integrand, _QUAD_EPS, 1.0),
    )
    return x * (head + body)
