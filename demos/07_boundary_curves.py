"""Boundary-curve gallery for the counterexample family.

Writes one closed SVG curve per parameter value: the image of the circle
|z| = 0.999 under z/((1-z)(1-Lz)(1+(L/(1+L))z)).  The same output is
available from the command line:

    logcoef render "f_lambda(lambda=0.5)" --format svg --out curve.svg
"""

import os

from logcoef import f_lambda
from logcoef.cli import curve_points, curve_svg

OUT_DIR = "boundary_curves"
os.makedirs(OUT_DIR, exist_ok=True)

for lam in (0.25, 0.5, 0.75, 1.0):
    pts = curve_points(f_lambda(lam), r=0.999, m=2048)
    path = os.path.join(OUT_DIR, f"f_lambda_{lam}.svg")
    with open(path, "w") as fh:
        fh.write(curve_svg(pts))
    print(
        f"lambda={lam}: wrote {path}  "
        f"(re range [{pts.real.min():9.2f}, {pts.real.max():9.2f}], "
        f"im range [{pts.imag.min():9.2f}, {pts.imag.max():9.2f}])"
    )

print()
print("open each file in a browser; the spike toward +infinity comes from")
print("the pole at z = 1 touching the sampling circle.")
