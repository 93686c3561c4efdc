"""The real dilogarithm and its cross-checks.

li2 combines a direct series with the reflection and duplication
identities; mpmath.polylog(2, x) at 30 digits (mpmath is in the test
extra) is the independent reference.
"""

import math

import mpmath

from logcoef import li2

print(f"{'x':>6} {'li2(x)':>20} {'method':>12} {'est_error':>10} {'mpmath diff':>11}")
with mpmath.workdps(30):
    for x in (-1.0, -0.75, -0.5, 0.0, 0.25, 0.5, 0.75, 0.9, 1.0):
        r = li2(x)
        diff = abs(float(mpmath.polylog(2, mpmath.mpf(x)) - mpmath.mpf(r.value)))
        print(f"{x:6.2f} {r.value:20.15f} {r.method:>12} {r.est_error:10.1e} {diff:11.1e}")

print()
print("special values:")
print("  li2(1)  =", li2(1.0).value, "= pi^2/6 =", math.pi**2 / 6)
print("  li2(-1) =", li2(-1.0).value, "= -pi^2/12")

print()
print("duplication identity li2(x^2) = 2(li2(x) + li2(-x)) at x = 0.77:")
x = 0.77
lhs = li2(x * x).value
rhs = 2 * (li2(x).value + li2(-x).value)
print(f"  lhs = {lhs!r}, rhs = {rhs!r}, diff = {abs(lhs - rhs):.2e}")
