"""Truncated power-series arithmetic.

A series is a vector of Taylor coefficients c[0..N] at a fixed truncation
order N, which every operation keeps.  TruncatedSeries and the ts_* ops are
double-precision complex; the raw kernels (*_raw) keep their input's dtype,
so a real series is divided or logged in float64.  All functions are pure
and the coefficient arrays are frozen, so series can be shared freely
between threads.
"""

from __future__ import annotations

from operator import mul

import numpy as np

# |c0| below this in ts_reciprocal triggers an ill-conditioning warning.
RECIPROCAL_CONDITION_THRESHOLD = 1e-8


class SeriesError(ValueError):
    """Structural or domain error in a series operation."""


class TruncatedSeries:
    """Immutable truncated power series sum_{k=0}^{N} c_k z^k."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        arr = np.asarray(coeffs, dtype=np.complex128).copy()
        if arr.ndim != 1 or arr.size == 0:
            raise SeriesError("coefficients must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise SeriesError("non-finite coefficient")
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls(np.zeros(order + 1, dtype=np.complex128))

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        c = np.zeros(order + 1, dtype=np.complex128)
        c[0] = 1.0
        return cls(c)

    def __repr__(self):
        head = ", ".join(f"{c:.6g}" for c in self.coeffs[:4])
        tail = ", ..." if self.order >= 4 else ""
        return f"TruncatedSeries(order={self.order}, [{head}{tail}])"

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and bool(
            np.array_equal(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        return hash((self.order, self.coeffs.tobytes()))

    # Convenience arithmetic (thin wrappers; the ts_* functions are the API).
    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            return ts_mul(self, other)
        return TruncatedSeries(self.coeffs * other)

    __rmul__ = __mul__


def _check_orders(a: TruncatedSeries, b: TruncatedSeries):
    if a.order != b.order:
        raise SeriesError(f"order mismatch: {a.order} != {b.order}")


# Raw-array versions.  These back the public ops and are reused by the
# search hot loops, which work on bare numpy arrays to avoid wrapper cost.

def mul_raw(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.convolve(a, b)[: a.size]


# Series division works in blocks of this many terms: the first block by the
# step recurrences below, each later one by two np.convolve calls
# (_divide_blocks).
_BLOCK = 128

# Within the first block the recurrences keep the finished terms reversed in
# a second buffer r (r[h-1-j] = b[j], for log j*b[j]), so each step is one
# np.dot of two contiguous slices with no per-step temporary.  The slices
# hold the values, in order, of the operand each step used to build
# (np.dot's contiguous copy of b[k-1::-1], or log's product array), so
# the BLAS dot returns the same bits, and a series of at most _BLOCK terms
# has the bits of the full step recurrence.

def reciprocal_raw(a: np.ndarray) -> np.ndarray:
    h = min(a.size, _BLOCK)
    b = np.empty_like(a)
    r = np.empty(h, dtype=a.dtype)
    b[0] = r[h - 1] = 1.0 / a[0]
    for k in range(1, h):
        b[k] = r[h - 1 - k] = -np.dot(a[1 : k + 1], r[h - k :]) / a[0]
    if a.size > h:
        one = np.zeros_like(a)
        one[0] = 1.0
        _divide_blocks(one, a, b, b[:h])
    return b


def log_raw(a: np.ndarray, head: np.ndarray | None = None) -> np.ndarray:
    # (log a)' = a'/a solved coefficient by coefficient, c0 = 1 assumed; past
    # the first block, a c = k a_k solved for c_k = k b_k, from head =
    # reciprocal_raw(a[:_BLOCK]), computed here unless the caller has it.
    n = a.size
    h = min(n, _BLOCK)
    b = np.zeros_like(a)
    r = np.zeros(h, dtype=a.dtype)
    for k in range(1, h):
        b[k] = a[k] - np.dot(a[1:k], r[h - k : h - 1]) / k
        r[h - 1 - k] = k * b[k]
    if n > h:
        ks = np.arange(n)
        c = ks * b
        _divide_blocks(ks * a, a, c, reciprocal_raw(a[:h]) if head is None else head)
        b[h:] = c[h:] / ks[h:]
    return b


def divide_raw(num: np.ndarray, den: np.ndarray, head: np.ndarray | None = None) -> np.ndarray:
    """x with den x = num, for num and den of one length and den[0] != 0.
    The first block is num times the step recurrence's 1/den, head =
    reciprocal_raw(den[:min(den.size, _BLOCK)]) (computed here unless the
    caller has it); the rest comes from _divide_blocks."""
    h = min(num.size, _BLOCK)
    if head is None:
        head = reciprocal_raw(den[:h])
    x = np.empty_like(num)
    x[:h] = mul_raw(num[:h], head)
    if num.size > h:
        _divide_blocks(num, den, x, head)
    return x


def _divide_blocks(num, den, x, head):
    """Fill x past its first block h = head.size so that den x = num, where
    head holds 1/den to h terms: a lower-triangular Toeplitz solve in blocks
    of h terms, in O(N) memory and N/h Python steps.

    For the block of terms s <= k < s + m, the finished terms give the
    right-hand side r_k = num_k - sum_{i<s} den_{k-i} x_i (one 'valid'
    convolution, a dot of length s per term), and the block is
    y = (head r) truncated to m terms, the solution of den[:m] y = r.

    Error.  Let u = 2^-53, S = |den| * |x| and M = |den| * |head|
    (convolutions of moduli; M_0 = 1), up to small constants from complex
    rounding.  The right-hand side, a dot of length s and a subtraction,
    errs by (k + 2) u S_k; the product head r errs by (h + 1) u
    (|head| * |r|); head, from the step recurrence, has residual
    |den head - 1|_j <= (j + 1) u M_j; and |r| <= S on the block, as r is
    the block's own share of den x.  So the residual rho = den x - num
    obeys

        |rho_k| <= (k + 2) u S_k + 2 (h + 1) u sum_{j <= k - s} M_j S_{k-j},

    where the step recurrence has the first term alone, and the error is
    x - exact = (1/den) rho.  Where 1/den and M are summable with small
    tails, as for the series the package divides (k_alpha's K/z, whose
    reciprocal has c_0 = 1, c_k <= 0 and sum |c_k| <= 2, and series with a
    dominant constant term), this gives |x_k - exact_k| <= c (k + 1) u S_k
    with c a few units; the tests hold c = 4 against 30-digit values."""
    n = x.size
    h = head.size
    for s in range(h, n, h):
        m = min(h, n - s)
        rhs = num[s : s + m] - np.convolve(den[1 : s + m], x[:s], "valid")
        x[s : s + m] = np.convolve(head[:m], rhs)[:m]


def exp_raw(a: np.ndarray) -> np.ndarray:
    # b' = a' b, c0 = 0 assumed.
    n = a.size
    b = np.zeros_like(a)
    r = np.zeros_like(a)
    b[0] = r[n - 1] = 1.0
    ja = np.arange(n) * a
    for k in range(1, n):
        b[k] = r[n - 1 - k] = np.dot(ja[1 : k + 1], r[n - k :]) / k
    return b


# power_sums takes this many terms one at a time, and the rest in hops of
# this many (or d, if larger)
POWER_SUMS_BLOCK = 64


def power_sums(coeffs: np.ndarray, count: int) -> np.ndarray:
    """p_1..p_count with log P = -sum_k p_k z^k / k, for the polynomial
    P = coeffs / coeffs[0] = 1 + b_1 z + ... + b_d z^d, by Newton's
    identities p_k = -k b_k - sum_{j=1}^{min(k-1, d)} b_j p_{k-j} (b_k = 0
    past d), in O(count * d).

    Past k = d the recurrence is homogeneous with d taps, so after the
    first L = max(d, 64) terms, taken one at a time, each hop of L terms is
    the response matrix R applied to the d terms before it:
    p_{s+t} = sum_i R[i, t] p_{s-1-i}.  R comes from the impulse response
    h = 1/P (h_0 = 1, L terms, one at a time) as
    R[i, t] = -sum_{j>i} b_j h_{t+i+1-j}, one row from the next by
    R[i, t] = -b_{i+1} h_t + R[i+1, t-1].  Only the last d terms of each
    hop are stepped, by R's last d columns in complex scalars; every hop's
    terms then come from its d seeds in d broadcast products over all hops
    at once, O(count) memory.  Hops stay L terms long: a propagator for
    longer hops, such as R squared, loses digits when P has a multiple
    root on the unit circle (f1's (1 - z)^2 (1 + z/2)).  Only complex
    scalars and elementwise numpy products are used, no BLAS, so the bits
    do not depend on the BLAS kernel."""
    b = np.asarray(coeffs, dtype=np.complex128) / coeffs[0]
    b = b[: np.flatnonzero(b)[-1] + 1]  # b_0 = 1, so b_0 is never trimmed
    taps = b[1:].tolist()
    d = len(taps)
    out = np.zeros(count, dtype=np.complex128)
    if d == 0:
        return out
    hop = max(d, POWER_SUMS_BLOCK)
    head = min(count, hop)
    p = []
    for k in range(1, head + 1):
        acc = -k * taps[k - 1] if k <= d else 0j
        for j in range(1, min(k - 1, d) + 1):
            acc -= taps[j - 1] * p[k - 1 - j]
        p.append(acc)
    out[:head] = p
    if head == count:
        return out
    h = [1.0 + 0j]  # h_t = -sum_j b_j h_{t-j}
    for _ in range(1, hop):
        h.append(-sum(map(mul, taps, h[: -d - 1 : -1]), 0j))
    resp = -b[1:, None] * np.array(h)
    for i in range(d - 2, -1, -1):
        resp[i, 1:] += resp[i + 1, :-1]
    # last[i][l]: the weight of seed l in the term i places before a hop's end
    last = resp[:, ::-1][:, :d].T.tolist()
    seeds = []
    seed = p[: -d - 1 : -1]
    for _ in range(head, count, hop):
        seeds.append(seed)
        seed = [sum(map(mul, row, seed), 0j) for row in last]
    seeds = np.array(seeds)
    acc = seeds[:, :1] * resp[0]
    for i in range(1, d):
        acc += seeds[:, i : i + 1] * resp[i]
    out[head:] = acc.ravel()[: count - head]
    return out


def eval_raw(coeffs: np.ndarray, z):
    """Horner evaluation, in place in one complex array of z's shape (0-d
    for a scalar z)."""
    acc = np.zeros(np.shape(z), dtype=np.complex128)
    acc += coeffs[-1]
    for c in coeffs[-2::-1]:
        np.multiply(acc, z, out=acc)
        np.add(acc, c, out=acc)
    return acc


# Public operations.

def ts_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated to the shared order."""
    _check_orders(a, b)
    return TruncatedSeries(mul_raw(a.coeffs, b.coeffs))


def ts_reciprocal(a: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse; requires a nonzero constant term."""
    c0 = a.coeffs[0]
    if c0 == 0:
        raise SeriesError("constant term is zero: series not invertible")
    if abs(c0) < RECIPROCAL_CONDITION_THRESHOLD:
        import warnings

        warnings.warn(
            f"reciprocal of series with |c0| = {abs(c0):.3g} is ill-conditioned",
            stacklevel=2,
        )
    return TruncatedSeries(reciprocal_raw(a.coeffs))


def ts_log(a: TruncatedSeries) -> TruncatedSeries:
    """log on the normalized branch: requires c0 = 1, returns c0 = 0."""
    if a.coeffs[0] != 1.0:
        raise SeriesError(f"ts_log requires c0 = 1, got {a.coeffs[0]}")
    return TruncatedSeries(log_raw(a.coeffs))


def ts_exp(a: TruncatedSeries) -> TruncatedSeries:
    """exp; requires c0 = 0, returns c0 = 1."""
    if a.coeffs[0] != 0.0:
        raise SeriesError(f"ts_exp requires c0 = 0, got {a.coeffs[0]}")
    return TruncatedSeries(exp_raw(a.coeffs))


def ts_derivative(a: TruncatedSeries) -> TruncatedSeries:
    """Termwise derivative.  Order is kept; the top coefficient is zeroed
    (the degree-N information is lost at this truncation)."""
    n = a.order
    out = np.zeros(n + 1, dtype=np.complex128)
    out[:n] = a.coeffs[1:] * np.arange(1, n + 1)
    return TruncatedSeries(out)


def ts_integrate(a: TruncatedSeries) -> TruncatedSeries:
    """Termwise antiderivative with zero constant term."""
    n = a.order
    out = np.zeros(n + 1, dtype=np.complex128)
    out[1:] = a.coeffs[:n] / np.arange(1, n + 1)
    return TruncatedSeries(out)


def ts_eval(a: TruncatedSeries, z: complex) -> complex:
    """Evaluate the truncated polynomial at a point of the closed unit disk."""
    z = complex(z)
    if not (np.isfinite(z.real) and np.isfinite(z.imag)):
        raise SeriesError("non-finite evaluation point")
    if abs(z) > 1.0 + 1e-12:
        raise SeriesError(f"|z| = {abs(z):.6g} outside the closed unit disk")
    val = complex(eval_raw(a.coeffs, z))
    if not (np.isfinite(val.real) and np.isfinite(val.imag)):
        raise SeriesError("non-finite evaluation result")
    return val


def shift_down(a: TruncatedSeries) -> TruncatedSeries:
    """Divide by z: drop c0 (which must be 0), order decreases by one."""
    if a.coeffs[0] != 0.0:
        raise SeriesError("shift_down requires c0 = 0")
    return TruncatedSeries(a.coeffs[1:])
