"""Real dilogarithm on [-1, 1].

The fast path combines three evaluation routes:

  * direct series  sum x^n / n^2          for |x| <= 1/2,
  * the reflection identity
        Li2(x) + Li2(1-x) = pi^2/6 - log(x) log(1-x)   for x in (1/2, 1),
  * the duplication identity
        Li2(x^2) = 2 (Li2(x) + Li2(-x))                 to reach x < -1/2,

with the endpoints x = 1 and x = -1 returned as pi^2/6 and -pi^2/12
exactly.  The reflection identity is cross-checked against the plain
series in the test suite before anything relies on it, and li2 is checked
there against mpmath.polylog at 30 digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

PI2_6 = math.pi * math.pi / 6.0
PI2_12 = math.pi * math.pi / 12.0

# Series summation stops once the geometric tail bound drops below this.
_SERIES_TAIL_TARGET = 1e-17
# Generic rounding allowance added to every reported error estimate.
_ROUNDING_BUDGET = 5e-15


@dataclass(frozen=True)
class DilogResult:
    value: float
    method: str  # "series" | "reflection"
    est_error: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError("non-finite dilogarithm value")
        if self.est_error < 0:
            raise ValueError("negative error estimate")
        if not (-PI2_12 - 1e-12 <= self.value <= PI2_6 + 1e-12):
            raise ValueError(f"dilogarithm value {self.value} outside [-pi^2/12, pi^2/6]")


def _check_domain(x: float) -> float:
    x = float(x)
    if math.isnan(x) or not (-1.0 <= x <= 1.0):
        raise ValueError(f"dilogarithm argument {x} outside [-1, 1]")
    return x


def _series(x: float) -> tuple[float, float]:
    """Direct summation; returns (value, truncation bound).  |x| <= 1/2."""
    terms = []
    p = 1.0
    n = 0
    ax = abs(x)
    while True:
        n += 1
        p *= x
        terms.append(p / (n * n))
        tail = ax ** (n + 1) / ((n + 1) * (n + 1) * (1.0 - ax))
        if tail < _SERIES_TAIL_TARGET:
            return math.fsum(terms), tail


@lru_cache(maxsize=4096)
def _eval(x: float) -> tuple[float, str, float]:
    if x == 0.0:
        return 0.0, "series", 0.0
    if x == 1.0:
        return PI2_6, "reflection", 5e-16
    if x == -1.0:
        return -PI2_12, "reflection", 5e-16
    if abs(x) <= 0.5:
        v, tail = _series(x)
        return v, "series", tail + _ROUNDING_BUDGET
    if x > 0.5:
        v, tail = _series(1.0 - x)
        val = PI2_6 - math.log(x) * math.log1p(-x) - v
        return val, "reflection", tail + 2.0 * _ROUNDING_BUDGET
    # x in [-1, -1/2): Li2(x) = Li2(x^2)/2 - Li2(-x); both arguments land
    # in regions already handled above.
    vs, _, es = _eval(x * x)
    vn, _, en = _eval(-x)
    return 0.5 * vs - vn, "reflection", 0.5 * es + en + _ROUNDING_BUDGET


def li2(x: float) -> DilogResult:
    """Real dilogarithm with a certified error estimate (<= 1e-13)."""
    x = _check_domain(x)
    value, method, err = _eval(x)
    return DilogResult(value=value, method=method, est_error=err)

