"""Catalog of normalized analytic functions on the unit disk.

Each entry is a ``FunctionSpec`` naming one member of the families the
package works with: the Koebe function and its rotations, the extremal
family z/((1-z)(1-lambda z)), the counterexample family
z/((1-z)(1-lambda z)(1+(lambda/(1+lambda))z)), the boundary members of the
bounded-convexity class (f with f'(z) = (1-z^n)^(1/n)), the convex-order
kernels K_alpha, the half-plane map z/(1-z), explicit rationals, and the
two Schwarz-function parametrizations used by the conjecture search.

Specs are immutable values.  A small text DSL ("name(key=value, ...)")
parses to and renders from specs; it is the input format of the CLI.
Everything known about one kind (its DSL keys, rational parts, series,
closed-form logarithmic coefficients, 1/n bound and pointwise f/z, f' and
f''/f') lives in its single ``KIND_REGISTRY`` entry.  The pointwise values
serve both `evaluator` (render) and the membership functionals; a spec is
prepared once for all the points a caller evaluates.  The zero rule on
z/f (root_test) lives here too.
No series goes through exp or log: koebe, g_lambda, g_family and k_alpha
write theirs in closed form, every other kind with parts as A times 1/B.
"""

from __future__ import annotations

import cmath
import math
import re
from collections.abc import Callable
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np
from numpy.polynomial import polynomial as P

from .series import _BLOCK, TruncatedSeries, divide_raw, eval_raw, ts_reciprocal
# unused here; bench/tracing.py wraps these names on this module
from .series import shift_down, ts_exp, ts_integrate, ts_log  # noqa: F401

NORMALIZATION_TOL = 1e-12
_MAX_N = 2**63 - 1  # g_family's n indexes int64 arrays (_g_family_fz)

# For |1 - 2 alpha| below this, the pointwise K_alpha/z and the starlike
# order take their logarithmic limit (the generic closed form has a
# removable singularity at alpha = 1/2); the series needs no such branch.
ALPHA_HALF_SWITCH = 1e-8


class SpecError(ValueError):
    """Invalid function specification."""


class ParseError(SpecError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class FunctionSpec:
    kind: str
    theta: float = 0.0
    lam: float | None = None
    alpha: float | None = None
    n: int | None = None
    a2: complex | None = None
    num: tuple[complex, ...] | None = None
    den: tuple[complex, ...] | None = None
    omega: tuple[complex, ...] | None = None
    psi: tuple[complex, ...] | None = None

    def __post_init__(self):
        if self.kind not in KIND_REGISTRY:
            raise SpecError(f"unknown function kind {self.kind!r}")
        for key in ("theta", "a2", "num", "den", "omega", "psi"):
            value = getattr(self, key)
            values = (value,) if isinstance(value, (int, float, complex)) else value or ()
            if not all(map(cmath.isfinite, values)):
                raise SpecError(f"{key} has a non-finite value")
        if self.lam is not None and not (0.0 < self.lam <= 1.0):
            raise SpecError(f"lambda = {self.lam} out of range (0, 1]")
        if self.alpha is not None and not (0.0 <= self.alpha < 1.0):
            raise SpecError(f"alpha = {self.alpha} out of range [0, 1)")
        if self.n is not None and not (1 <= self.n <= _MAX_N):
            raise SpecError(f"n = {self.n} must be a positive integer below 2^63")
        if self.kind == "rational":
            _validate_rational(self.num, self.den)

    def __str__(self):
        return render(self)


def _validate_rational(num, den):
    if not num or not den:
        raise SpecError("rational spec needs num and den coefficient lists")
    if den[0] == 0:
        raise SpecError("rational denominator has zero constant term")
    if abs(num[0]) > NORMALIZATION_TOL:
        raise SpecError("rational numerator must vanish at 0 (f(0) = 0)")
    if len(num) < 2 or abs(num[1] / den[0] - 1.0) > NORMALIZATION_TOL:
        raise SpecError("rational fails f'(0) = 1 normalization")


# Constructors.

def koebe(theta: float = 0.0) -> FunctionSpec:
    return FunctionSpec(kind="koebe", theta=float(theta))


def g_lambda(lam: float) -> FunctionSpec:
    return FunctionSpec(kind="g_lambda", lam=float(lam))


def f_lambda(lam: float) -> FunctionSpec:
    return FunctionSpec(kind="f_lambda", lam=float(lam))


def f0() -> FunctionSpec:
    return FunctionSpec(kind="f0")


def f1() -> FunctionSpec:
    return FunctionSpec(kind="f1")


def g_family(n: int) -> FunctionSpec:
    return FunctionSpec(kind="g_family", n=int(n))


def k_alpha(alpha: float) -> FunctionSpec:
    return FunctionSpec(kind="k_alpha", alpha=float(alpha))


def half_plane() -> FunctionSpec:
    return FunctionSpec(kind="half_plane")


def _complex_tuple(values) -> tuple[complex, ...]:
    return tuple(complex(c) for c in values)


def rational(num, den) -> FunctionSpec:
    return FunctionSpec(kind="rational", num=_complex_tuple(num), den=_complex_tuple(den))


def schwarz_superset(lam: float, omega) -> FunctionSpec:
    return FunctionSpec(
        kind="schwarz_superset", lam=float(lam), omega=_complex_tuple(omega)
    )


def exact_u(lam: float, a2: complex, psi) -> FunctionSpec:
    return FunctionSpec(
        kind="exact_u", lam=float(lam), a2=complex(a2), psi=_complex_tuple(psi)
    )


# ---------------------------------------------------------------------------
# Text DSL.

_NUM_RE = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def ident(self) -> str:
        self.skip_ws()
        m = _IDENT_RE.match(self.text, self.pos)
        if not m:
            raise ParseError("expected an identifier", self.pos)
        self.pos = m.end()
        return m.group()

    def number(self) -> float:
        self.skip_ws()
        m = _NUM_RE.match(self.text, self.pos)
        if not m:
            raise ParseError("expected a number", self.pos)
        self.pos = m.end()
        return float(m.group())

    def complex_value(self) -> complex:
        """One literal: `a`, `bi`, or `a+bi` / `a-bi` (decimal parts only)."""
        first = self.number()
        if self.pos < len(self.text) and self.text[self.pos] == "i":
            self.pos += 1
            return complex(0.0, first)
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            save = self.pos
            m = _NUM_RE.match(self.text, self.pos)
            if m and m.end() < len(self.text) and self.text[m.end()] == "i":
                self.pos = m.end() + 1
                return complex(first, float(m.group()))
            self.pos = save
        return complex(first, 0.0)

    def real(self, key: str) -> float:
        v = self.complex_value()
        if v.imag != 0.0:
            raise ParseError(f"{key} must be real", self.pos)
        return v.real

    def integer(self, key: str) -> int:
        start = self.pos
        v = self.number()
        text = self.text[start : self.pos].strip()
        # plain digits are read exactly up to int64's 19 and a sign; longer
        # ones (far past 2^53, or past int()'s 4300 digits) go through float
        if text.lstrip("+-").isdigit() and len(text) <= 20:
            return int(text)
        if not (math.isfinite(v) and v == int(v)):
            raise ParseError(f"{key} must be an integer", self.pos)
        return int(v)

    def complex_list(self, key: str) -> tuple[complex, ...]:
        self.expect("[")
        items = []
        if self.peek() != "]":
            while True:
                items.append(self.complex_value())
                if self.peek() == ",":
                    self.expect(",")
                else:
                    break
        self.expect("]")
        return tuple(items)


def _fmt_complex(c: complex) -> str:
    if c.imag == 0.0:
        return repr(c.real)
    if c.real == 0.0:
        return f"{c.imag!r}i"
    sign = "+" if c.imag >= 0 else "-"
    return f"{c.real!r}{sign}{abs(c.imag)!r}i"


def _fmt_list(values) -> str:
    return "[" + ",".join(_fmt_complex(v) for v in values) + "]"


# DSL key -> (FunctionSpec field, scanner rule that parses it, formatter).
_REAL = (_Scanner.real, repr)
_LIST = (_Scanner.complex_list, _fmt_list)
_DSL_KEYS = {
    "theta": ("theta", *_REAL),
    "lambda": ("lam", *_REAL),
    "alpha": ("alpha", *_REAL),
    "n": ("n", _Scanner.integer, repr),
    "a2": ("a2", lambda sc, key: sc.complex_value(), _fmt_complex),
    **{key: (key, *_LIST) for key in ("num", "den", "omega", "psi")},
}


def parse_spec(text: str) -> FunctionSpec:
    """Parse `name(key=value, ...)` into a validated spec."""
    sc = _Scanner(text)
    name_pos = sc.pos
    name = sc.ident()
    entry = KIND_REGISTRY.get(name)
    if entry is None:
        raise ParseError(f"unknown function name {name!r}", name_pos)
    sc.expect("(")
    args = {}
    if sc.peek() != ")":
        while True:
            key_pos = sc.pos
            key = sc.ident()
            if key not in entry.keys:
                raise ParseError(f"unknown parameter {key!r} for {name}", key_pos)
            if key in args:
                raise ParseError(f"duplicate parameter {key!r}", key_pos)
            sc.expect("=")
            args[key] = _DSL_KEYS[key][1](sc, key)
            if sc.peek() == ",":
                sc.expect(",")
            else:
                break
    sc.expect(")")
    sc.skip_ws()
    if sc.pos != len(sc.text):
        raise ParseError("trailing input after spec", sc.pos)
    missing = set(entry.keys) - set(entry.optional) - set(args)
    if missing:
        raise ParseError(f"missing parameter(s) {sorted(missing)} for {name}", sc.pos)
    return FunctionSpec(kind=name, **{_DSL_KEYS[k][0]: v for k, v in args.items()})


def render(spec: FunctionSpec) -> str:
    """Canonical text form; parse_spec(render(s)) == s."""
    args = []
    for key in KIND_REGISTRY[spec.kind].keys:
        field, _, fmt = _DSL_KEYS[key]
        args.append(f"{key}={fmt(getattr(spec, field))}")
    return f"{spec.kind}({', '.join(args)})"


# ---------------------------------------------------------------------------
# Denominator polynomials of the two Schwarz-parametrized families.

def exact_u_denominator(lam: float, a2, psi) -> np.ndarray:
    """z/f = 1 - a2 z - lam * z * integral_0^z psi(t) dt as a polynomial.

    Stacks: `a2` of shape S with `psi` of shape S + (m,) gives the
    denominators as rows of shape S + (m + 2,), each with the same bytes
    as its one-candidate call.
    """
    psi = np.asarray(psi, dtype=np.complex128)
    m = psi.shape[-1]
    q = np.zeros(psi.shape[:-1] + (m + 2,), dtype=np.complex128)
    q[..., 0] = 1.0
    q[..., 1] = -np.asarray(a2)
    q[..., 2:] -= lam * psi / np.arange(1, m + 1)
    return q


def superset_denominator(lam: float, omega) -> np.ndarray:
    """z/f = (1 - z w(z)) (1 - lam z w(z)) as a polynomial, w = omega.

    Stacks: `omega` of shape S + (m,) gives the denominators as rows of
    shape S + (2m + 1,).  With u = 1 - zw and v = 1 - lam zw, coefficient k
    is the sum of the elementwise products u_j v_(k-j) added in the order
    j = 0, 1, ..., so each row has the bytes of its one-row call, and
    coefficients 0..k read only w_0..w_(k-1).
    """
    omega = np.asarray(omega, dtype=np.complex128)
    m = omega.shape[-1]
    u = np.ones(omega.shape[:-1] + (m + 1,), dtype=np.complex128)
    v = u.copy()
    u[..., 1:] = -omega
    v[..., 1:] = -lam * omega
    q = np.zeros(omega.shape[:-1] + (2 * m + 1,), dtype=np.complex128)
    for j in range(m + 1):
        q[..., j : j + m + 1] += u[..., j, None] * v
    return q


# ---------------------------------------------------------------------------
# The zero rule: f in U(lambda) is analytic, so z/f (or a part A or B of
# f = z A / B) may have no zero of modulus below INTERIOR_ZERO_LIMIT = 1 - tau,
# tau = 1e-6; a zero on the circle (the extremal's at z = 1) is admitted.

INTERIOR_ZERO_LIMIT = 1.0 - 1e-6
_SC_TOL = 1e-9  # relative margin of |p_0| against |p_m| in the recursion


def root_test(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The zero rule on each row of q, for the search and membership alike:
    the admitted mask, and each row's smallest root modulus where eigvals
    ran, nan where the recursion decided.  _schur_cohn decides almost every
    row; the rest, such as a multiple zero on the unit circle, get
    min_root_modulus(q) >= 1 - tau, which puts a double zero on |z| = 1
    about 1e-8 off the circle."""
    accept, reject = _schur_cohn(q)
    undecided = ~(accept | reject)
    inner = np.full(len(q), np.nan)
    if undecided.any():
        inner[undecided] = min_root_modulus(q[undecided])
    return accept | (undecided & (inner >= INTERIOR_ZERO_LIMIT)), inner


def min_root_modulus(q: np.ndarray) -> np.ndarray:
    """Smallest root modulus of each row of q, coefficients lowest first
    (inf for a constant row, 0 where q_0 = 0): one over the largest root
    modulus of z^d q(1/z), d the trimmed degree, from one eigvals call per
    d on stacked companion matrices with first row -q_k / q_0, so a tiny q_d
    gives a root near 0, not an overflow."""
    rows, width = q.shape
    inner = np.where(q[:, 0] == 0, 0.0, np.inf)
    degree = np.where(inner > 0, width - 1 - np.argmax(q[:, ::-1] != 0, axis=1), 0)
    # not np.unique, whose first call imports numpy.ma (8-14 ms)
    for d in sorted(set(degree[degree > 0].tolist())):
        sel = np.flatnonzero(degree == d)
        companion = np.zeros((sel.size, d, d), dtype=np.complex128)
        companion[:, 0, :] = -q[sel, 1 : d + 1] / q[sel, :1]
        companion[:, np.arange(1, d), np.arange(d - 1)] = 1.0
        inner[sel] = 1.0 / np.max(np.abs(np.linalg.eigvals(companion)), axis=1)
    return inner


def _schur_cohn(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Schur-Cohn recursion (Henrici, Applied and Computational Complex
    Analysis I, section 6.8) on the rows of q at the radius
    rho = INTERIOR_ZERO_LIMIT = 1 - tau of the zero rule.

    p(z) = q(rho z) has formal degree m = width - 1, so a zero leading
    coefficient is a zero at infinity.  While |p_0| > |p_m|, p has as many
    zeros in the closed unit disk as p <- conj(p_0) p - p_m p* (p* the
    reversed conjugate, degree m - 1), and |p_0| < |p_m| proves a zero in
    the disk.  A row passes a step when |p_0| > |p_m| (1 + _SC_TOL) and
    fails when |p_0| < |p_m| (1 - _SC_TOL); the first step that does
    neither leaves it undecided.  Returns (accept, reject), one entry per
    row: q has no zero of modulus <= 1 - tau, resp. a zero of modulus
    < 1 - tau.  Rows in neither (a zero too close to |z| = 1 - tau for the
    margin, as a multiple zero on the unit circle is) are left to eigvals
    (root_test).

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
    p = np.ascontiguousarray(INTERIOR_ZERO_LIMIT ** np.arange(width)[:, None] * q.T)
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


# ---------------------------------------------------------------------------
# Per-kind facts that do not fit on one line of the registry.

def _over(b) -> tuple[np.ndarray, np.ndarray]:
    """Parts (1, B) of f = z / B."""
    return np.array([1.0 + 0j]), np.asarray(b, dtype=np.complex128)


def _padded(coeffs, order: int) -> np.ndarray:
    out = np.zeros(order + 1, dtype=np.complex128)
    m = min(order + 1, len(coeffs))
    out[:m] = coeffs[:m]
    return out


def _koebe_parts(spec):
    w = cmath.exp(1j * spec.theta)
    return _over([1.0, -2 * w, w * w])


def _koebe_fz(spec, order):
    w = cmath.exp(1j * spec.theta)
    ns = np.arange(order + 1)
    return TruncatedSeries((ns + 1) * w**ns)


def _f_lambda_gamma(spec, n):
    lam = spec.lam
    # (lam/(1+lam))^n / n rather than lam^n / (n (1+lam)^n), which overflows
    return complex(
        0.5 * ((1.0 + lam**n) / n + (-1.0) ** n * (lam / (1.0 + lam)) ** n / n)
    )


def _superset_parts(spec):
    omega = np.trim_zeros(np.asarray(spec.omega), "b")  # B has no trailing zeros
    return _over(superset_denominator(spec.lam, omega))


def _g_family_coeffs(n: int, count: int) -> np.ndarray:
    """c_0 .. c_{count-1} of f' = (1 - w)^(1/n) = sum c_j w^j, w = z^n:
    c_0 = 1 and c_j = c_{j-1} (j - 1 - 1/n) / j, so |c_j| decreases for
    j >= 1 and sum_{j>=1} |c_j| = 1.  Each factor is the quotient of the
    integers (j - 1) n - 1 and jn, so it is rounded once."""
    j = np.arange(1, count)
    return np.cumprod(np.concatenate(([1.0], ((j - 1) * n - 1.0) / (j * n))))


def _g_family_fz(spec, order):
    """f/z = sum c_j z^(jn) / (jn + 1), written at the multiples of n."""
    n = spec.n
    jn = n * np.arange(order // n + 1)
    fz = np.zeros(order + 1, dtype=np.complex128)
    fz[jn] = _g_family_coeffs(n, jn.size) / (jn + 1)
    return TruncatedSeries(fz)


def _k_alpha_fz(spec, order):
    """K/z = sum p_m z^m with p_0 = 1 and p_m = p_{m-1} (x + m) / (m + 1),
    x = 1 - 2 alpha; each factor is written 1 - 2 alpha / (m + 1)."""
    factors = 1.0 - 2.0 * spec.alpha / np.arange(2, order + 2)
    return TruncatedSeries(np.cumprod(np.concatenate(([1.0], factors))))


def starlike_order(alpha: float) -> float:
    """The order of starlikeness guaranteed for convex functions of order
    alpha in [0, 1): (1-2a) / (2 (2^(1-2a) - 1)), with the removable point
    at alpha = 1/2 equal to 1/(2 log 2)."""
    if not (0.0 <= alpha < 1.0):
        raise SpecError("alpha must lie in [0, 1)")
    x = 1.0 - 2.0 * alpha
    if abs(x) < ALPHA_HALF_SWITCH:
        return 1.0 / (2.0 * math.log(2.0))
    return x / (2.0 * math.expm1(x * math.log(2.0)))


# ---------------------------------------------------------------------------
# Pointwise values: f/z, f' and f''/f' at an array of points.

# Order of the series that gives f/z where it has no closed form.
SERIES_EVAL_ORDER = 256


class Pointwise(NamedTuple):
    """f/z, f' and f''/f' of one spec at an array of points, each computed
    when its function is called, so a caller pays only for what it reads.
    tail() bounds |f/z - fz()| at each point: 0 for a closed form.

    A registry entry's pointwise function takes the spec and does the
    spec's own work once (derivative polynomials, series, tail constants),
    each part when first read; it returns z -> Pointwise, which a caller
    applies to as many blocks of points as it likes."""

    fz: Callable[[], np.ndarray]
    fp: Callable[[], np.ndarray]
    ratio: Callable[[], np.ndarray]
    tail: Callable[[], np.ndarray | float] = lambda: 0.0


def _quotient_points(parts) -> Callable[[np.ndarray], Pointwise]:
    """f = z A / B from a spec's (A, B) parts.  With N = z A,
    f' = (N' B - N B') / B^2 and f''/f' = (N'' B - N B'') / (N' B - N B')
    - 2 B'/B, where N' = A + z A' and N'' = 2 A' + z A''."""
    derivative = cache(lambda k: [P.polyder(c, k) for c in parts])

    def points(z) -> Pointwise:
        @cache
        def at(k):
            """A^(k) and B^(k) at z."""
            return [eval_raw(c, z) for c in derivative(k)]

        @cache
        def wronskian():
            """N' B - N B' = f' B^2."""
            (a, b), (a1, b1) = at(0), at(1)
            return (a + z * a1) * b - z * a * b1

        def ratio():
            (a, b), (a1, b1), (a2, b2) = at(0), at(1), at(2)
            return ((2.0 * a1 + z * a2) * b - z * a * b2) / wronskian() - 2.0 * b1 / b

        return Pointwise(
            fz=lambda: at(0)[0] / at(0)[1],
            fp=lambda: wronskian() / at(0)[1] ** 2,
            ratio=ratio,
        )

    return points


def _k_alpha_points(spec) -> Callable[[np.ndarray], Pointwise]:
    """K_alpha with x = 1 - 2 alpha: K/z = ((1 - z)^-x - 1) / (x z), or
    -log(1 - z)/z at x = 0; K' = (1 - z)^-x / (1 - z) and
    K''/K' = (1 + x) / (1 - z)."""
    x = 1.0 - 2.0 * spec.alpha

    def points(z) -> Pointwise:
        log = cache(lambda: np.log(1.0 - z))
        # (1 - z)^-x: exactly 1 at alpha = 1/2, with no exp to compute
        power = cache(lambda: np.exp(-x * log()) if x else 1.0)

        def fz():
            if abs(x) < ALPHA_HALF_SWITCH:
                return -log() / z
            return (power() - 1.0) / (x * z)

        return Pointwise(fz, lambda: power() / (1.0 - z), lambda: (1.0 + x) / (1.0 - z))

    return points


def _g_family_points(spec) -> Callable[[np.ndarray], Pointwise]:
    """f' = (1 - z^n)^(1/n) and f''/f' = -z^(n-1) / (1 - z^n) in closed form;
    f/z is its order-N series s (N = SERIES_EVAL_ORDER), a polynomial in
    w = z^n with coefficients a_j = c_j / (jn + 1), j <= J = floor(N/n).

    tail() bounds |f/z - s| at |z| = r.  As |c_j| / (jn + 1) decreases, the
    truncation is at most |c_{J+1}| r^((J+1)n) / (((J+1)n + 1)(1 - r^n)).
    Rounding, to first order in u = 2^-53, with
    d = sum_{j>=1} |c_j| r^(jn) = 1 - (1 - r^n)^(1/n): a_j carries 2j + 1
    roundings and Horner's j complex steps at most 4j + 1 more.  w is
    z^(n-1) by square-and-multiply (_power) times z: written out as a tree
    of its n factors z, n - 1 complex products, each erring by at most
    sqrt(5) u relative (Brent, Percival and Zimmermann 2007), so
    |eta| <= sqrt(5) (n - 1) u <= 5n u while the products are normal
    numbers (below that, a few 2^-1074 absolute), moving s by
    |eta| sum_j j |a_j| r^(jn).  As j |a_j| <= |c_j| / n and
    sum_j |a_j| r^(jn) <= 1 + d, that is at most (2 + 13 d) u.

    For n > N (J = 0) s is 1 and f/z - 1 = sum_{j>=1} c_j w^j / (jn + 1) is
    also at most d / (n + 1); the truncation term is the smaller of the two."""
    n, order = spec.n, SERIES_EVAL_ORDER
    series = cache(lambda: fz_series(spec, order).coeffs[::n])
    k = (order // n + 1) * n  # the first index past the series
    lead = cache(lambda: abs(_g_family_coeffs(n, k // n + 1)[-1]) / (k + 1))

    def points(z) -> Pointwise:
        zm = cache(lambda: _power(z, n - 1))
        zn = cache(lambda: z * zm())

        def tail():
            r = np.abs(z)
            rn = r**n
            d = -np.expm1(np.log1p(-rn) / n)
            truncation = lead() * r**k / (1.0 - rn)
            if k == n:
                truncation = np.minimum(truncation, d / (n + 1))
            return truncation + (2.0 + 13.0 * d) * 2.0**-53

        return Pointwise(
            fz=lambda: eval_raw(series(), zn()),
            fp=lambda: np.exp(np.log1p(-zn()) / n),
            ratio=lambda: -zm() / (1.0 - zn()),
            tail=tail,
        )

    return points


def _power(z: np.ndarray, k: int) -> np.ndarray:
    """z ** k for an integer k >= 0 by square-and-multiply, in O(log k)
    complex products.  Below 100 that is numpy's own z ** k, which squares
    repeatedly there; from 100 on numpy takes exp(k log z), so the same
    scheme runs here, each product written in float64 real and imaginary
    parts (re = ac - bd, im = ad + bc)."""
    if k < 100:
        return z**k
    x, y = z.real, z.imag
    px = py = None
    while True:
        if k & 1:
            px, py = (x, y) if px is None else (px * x - py * y, px * y + py * x)
        k >>= 1
        if not k:
            break
        x, y = x * x - y * y, 2.0 * x * y
    out = np.empty_like(z)
    out.real, out.imag = px, py
    return out


# ---------------------------------------------------------------------------
# The registry: one entry per function kind.

@dataclass(frozen=True)
class KindEntry:
    """What the package knows about one function kind.

    keys      DSL parameter keys, in render order
    optional  the keys a DSL spec may omit; the others are required
    parts     spec -> (A, B) with f = z A / B; None when f is not rational
    series    (spec, order) -> closed-form Taylor series of f/z; None means A/B
    gamma     (spec, n) -> closed-form gamma_n or None; None when there is none
    slope     spec -> c with |gamma_n| <= c/n; None when none is established
    pointwise spec -> (z -> Pointwise): f/z with its tail bound, f' and
              f''/f' at the points z, each computed when read, with the
              spec's own work done once; None means from the (A, B) parts
    """

    keys: tuple[str, ...] = ()
    optional: tuple[str, ...] = ()
    parts: Callable | None = None
    series: Callable | None = None
    gamma: Callable | None = None
    slope: Callable | None = None
    pointwise: Callable | None = None


KIND_REGISTRY: dict[str, KindEntry] = {
    "koebe": KindEntry(
        keys=("theta",),
        optional=("theta",),
        parts=_koebe_parts,
        series=_koebe_fz,
        gamma=lambda s, n: cmath.exp(1j * n * s.theta) / n,
        slope=lambda s: 1.0,
    ),
    "g_lambda": KindEntry(
        keys=("lambda",),
        parts=lambda s: _over([1.0, -(1 + s.lam), s.lam]),
        series=lambda s, order: TruncatedSeries(
            np.cumsum(s.lam ** np.arange(order + 1)).astype(np.complex128)
        ),
        gamma=lambda s, n: complex((1.0 + s.lam**n) / (2.0 * n)),
        slope=lambda s: (1.0 + s.lam) / 2.0,
    ),
    "f_lambda": KindEntry(
        keys=("lambda",),
        parts=lambda s: _over(
            np.convolve([1.0, -(1 + s.lam), s.lam], [1.0, s.lam / (1 + s.lam)])
        ),
        gamma=_f_lambda_gamma,
        slope=lambda s: (1.0 + s.lam) / 2.0 + s.lam / (2.0 * (1.0 + s.lam)),
    ),
    "f0": KindEntry(
        parts=lambda s: (np.array([1.0, -0.5], dtype=complex), np.array([1.0 + 0j])),
        gamma=lambda s, n: complex(-(0.5 ** (n + 1)) / n),
        slope=lambda s: 0.25,
    ),
    "f1": KindEntry(
        parts=lambda s: _over([1.0, -1.5, 0.0, 0.5]),
        gamma=lambda s, n: complex(1.0 / n + (-1.0) ** n * 0.5 ** (n + 1) / n),
        slope=lambda s: 1.25,
    ),
    "g_family": KindEntry(
        keys=("n",),
        # f' = 1 - z makes f_1 the function f0
        parts=lambda s: KIND_REGISTRY["f0"].parts(s) if s.n == 1 else None,
        series=_g_family_fz,
        # only the leading index of f_n has a simple closed form
        gamma=lambda s, n: complex(-1.0 / (2.0 * n * (n + 1))) if n == s.n else None,
        slope=lambda s: 0.25,
        pointwise=_g_family_points,
    ),
    "k_alpha": KindEntry(
        keys=("alpha",),
        series=_k_alpha_fz,
        slope=lambda s: 1.0 - starlike_order(s.alpha),
        pointwise=_k_alpha_points,
    ),
    "half_plane": KindEntry(
        parts=lambda s: _over([1.0, -1.0]),
        gamma=lambda s, n: complex(1.0 / (2.0 * n)),
        slope=lambda s: 0.5,
    ),
    "rational": KindEntry(
        keys=("num", "den"),
        parts=lambda s: (
            np.asarray(s.num[1:], dtype=np.complex128),
            np.asarray(s.den, dtype=np.complex128),
        ),
    ),
    "schwarz_superset": KindEntry(
        keys=("lambda", "omega"),
        parts=_superset_parts,
    ),
    "exact_u": KindEntry(
        keys=("lambda", "a2", "psi"),
        parts=lambda s: _over(exact_u_denominator(s.lam, s.a2, s.psi)),
    ),
}
KINDS = tuple(KIND_REGISTRY)


# ---------------------------------------------------------------------------
# Registry lookups.

def rational_parts(spec: FunctionSpec):
    """Polynomials (A, B) with f = z A / B, or None if the spec is not
    rational (k_alpha, and g_family but for n = 1).  A B that overflows
    (schwarz_superset with omega = [1e200]) is refused, with no warning."""
    entry = KIND_REGISTRY[spec.kind].parts
    with np.errstate(over="ignore", invalid="ignore"):
        parts = None if entry is None else entry(spec)
    if parts is not None and not np.isfinite(parts[1]).all():
        raise SpecError(f"the denominator B of f = z A / B overflows for {spec.kind}")
    return parts


def fz_series(spec: FunctionSpec, order: int) -> TruncatedSeries:
    """Taylor series of f/z to the given order (constant term 1): the kind's
    closed form, or A / B from its parts divided by its c0 ~ 1, the division
    starting from ts_reciprocal's first block of 1/B."""
    if order < 0:
        raise SpecError("order must be nonnegative")
    series = KIND_REGISTRY[spec.kind].series
    if series is not None:
        return series(spec, order)
    a, b = rational_parts(spec)
    b = _padded(b, order)
    fz = divide_raw(_padded(a, order), b, ts_reciprocal(TruncatedSeries(b[:_BLOCK])).coeffs)
    if abs(fz[0] - 1.0) > NORMALIZATION_TOL:
        raise SpecError(f"f/z constant term {fz[0]} fails normalization")
    return TruncatedSeries(fz * (1.0 / fz[0]) if fz[0] != 1.0 else fz)


def taylor_of(spec: FunctionSpec, order: int) -> TruncatedSeries:
    """Taylor series of f itself (c0 = 0, c1 = 1) to the given order."""
    if order < 1:
        raise SpecError("order must be >= 1")
    fz = fz_series(spec, order - 1)
    out = np.zeros(order + 1, dtype=np.complex128)
    out[1:] = fz.coeffs
    if abs(out[1] - 1.0) > NORMALIZATION_TOL:
        raise SpecError(f"expansion fails f'(0) = 1: got {out[1]}")
    return TruncatedSeries(out)


def pointwise_of(spec: FunctionSpec, parts=None) -> Callable[[np.ndarray], Pointwise]:
    """z -> f/z, f' and f''/f' of the spec at the points z, from its
    registry entry, which prepares the spec once for every call.  A caller
    that holds the spec's rational_parts passes them, to skip their build."""
    entry = KIND_REGISTRY[spec.kind].pointwise
    points = entry(spec) if entry else _quotient_points(parts or rational_parts(spec))
    return lambda z: points(np.asarray(z, dtype=np.complex128))


def evaluator(spec: FunctionSpec) -> Callable:
    """z -> f(z) = z (f/z) for a point or an array of points in |z| < 1,
    from the spec's registry entry; f(0) = 0.  Raises SpecError if a point
    lies outside the open disk or a value is not finite.  The spec is
    prepared once, here, for every call of the function."""
    points = pointwise_of(spec)

    def f(z):
        z = np.asarray(z, dtype=np.complex128)
        r = np.abs(z)
        if np.any(r >= 1.0):
            raise SpecError(f"|z| = {r.max():.6g} not inside the open unit disk")
        inside = z != 0
        out = np.zeros_like(z)
        with np.errstate(divide="ignore", invalid="ignore"):  # refused below
            out[inside] = z[inside] * points(z[inside]).fz()
        bad = ~np.isfinite(out)
        if np.any(bad):
            raise SpecError(f"non-finite value of {render(spec)} at {complex(z[bad][0])}")
        return out

    return f


def eval_at(spec: FunctionSpec, z: complex) -> complex:
    """Value f(z) for |z| < 1, by `evaluator(spec)`."""
    return complex(evaluator(spec)(z))


def gamma_closed_form(spec: FunctionSpec, n: int):
    """The known closed form for gamma_n, or None when unavailable.

    For the g_family variant only the leading index n (of f_n) has a
    simple closed form, -1/(2n(n+1)); other indices return None.
    """
    if n < 1:
        raise SpecError("index n must be >= 1")
    gamma = KIND_REGISTRY[spec.kind].gamma
    return None if gamma is None else gamma(spec, n)


def gamma_linf_slope(spec: FunctionSpec) -> float | None:
    """A constant c with |gamma_n| <= c/n, where one is established."""
    slope = KIND_REGISTRY[spec.kind].slope
    return None if slope is None else slope(spec)
