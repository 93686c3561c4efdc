"""Command-line surface.

Subcommands:

  verify   run the inequality suite on parameter grids, write a JSON report
  search   run one coefficient search, write a JSONL record
  render   sample a boundary curve f(r e^{i theta}) to CSV or SVG
  li2      evaluate the real dilogarithm
  gamma    print logarithmic coefficients of a spec
  member   run one class-membership query

Exit codes: 0 clean (for verify: no violated check), 1 verification found a
violation, 2 configuration or parse error (for verify also a lambda outside
(0, 1], an alpha outside [0, 1] or an order below 1), 3 a verify check could
not run: its block raised and the report holds one row with status "error"
in its place.  File outputs are written to a temporary file and renamed, so
a killed run never leaves a truncated file.
All outputs are byte-deterministic for fixed inputs and seed.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import tempfile
from contextlib import contextmanager
from functools import cache, lru_cache

import numpy as np

from . import atlas, membership, search, verify
from .dilog import li2


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".logcoef-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# encodes a list of scalars as one line each (an encoded scalar has no raw
# newline) through json's C encoder, which json.dumps skips under indent
_SCALAR_LINES = json.JSONEncoder(separators=("\n", ": "))


def _report_json(rows) -> str:
    """The text of json.dumps(rows, indent=1) for a list of dicts whose
    values are scalars or dicts of scalars (str keys throughout).  Every
    scalar is encoded in one call of json's C encoder, and each row is one
    %-template of its layout (its keys and those of its dict values),
    built once per layout, filled with its scalars."""
    if not rows:
        return "[]"
    scalars, layouts = [], []
    for row in rows:
        layout = []
        for key, value in row.items():
            if isinstance(value, dict) and value:
                layout.append((key, tuple(value)))
                scalars.extend(value.values())
            else:
                layout.append(key)
                scalars.append(value)
        layouts.append(tuple(layout))
    text = _SCALAR_LINES.encode(scalars)[1:-1].split("\n")
    templates = {}
    out, i = [], 0
    for layout in layouts:
        if layout not in templates:
            templates[layout] = _row_template(layout)
        template, count = templates[layout]
        out.append(template % tuple(text[i : i + count]))
        i += count
    return "[\n " + ",\n ".join(out) + "\n]"


def _row_template(layout) -> tuple[str, int]:
    """The %-template of one row of _report_json's text, and the number of
    scalars it takes: layout holds a key for each scalar value and
    (key, inner keys) for each non-empty dict value."""

    def key(k):
        return json.dumps(k).replace("%", "%%") + ": "

    items, count = [], 0
    for entry in layout:
        if isinstance(entry, tuple):
            inner = ",\n   ".join(key(k) + "%s" for k in entry[1])
            items.append(f"{key(entry[0])}{{\n   {inner}\n  }}")
            count += len(entry[1])
        else:
            items.append(key(entry) + "%s")
            count += 1
    return ("{\n  " + ",\n  ".join(items) + "\n }" if items else "{}"), count


def _grid_text(values) -> str:
    return ",".join(map(repr, values))


def _parse_grid(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(v) for v in text.split(",") if v.strip() != "")
    except ValueError as err:
        raise ValueError(f"malformed grid {text!r}: {err}") from err
    if not values:
        raise ValueError(f"empty grid {text!r}")
    return values


# ---------------------------------------------------------------------------
# Boundary-curve rendering.

def curve_points(spec, r: float, m: int) -> np.ndarray:
    """Samples of f(r e^{i theta}) at m >= 16 equally spaced angles.

    Every point is finite, and the curve closes: the theta = 0 and
    theta = 2 pi evaluations coincide to 1e-12 (the final segment back to
    the first point is implicit)."""
    if not (0.0 < r < 1.0):
        raise ValueError("radius must lie strictly inside (0, 1)")
    if m < 16:
        raise ValueError("need at least 16 curve samples")
    # the m curve angles and theta = 2 pi, in one call
    theta = 2.0 * math.pi * np.arange(m + 1) / m
    values = atlas.evaluator(spec)(r * np.exp(1j * theta))
    points, start, wrap = values[:m], values[0], values[m]
    # relative tolerance: near a boundary pole the function magnifies
    # the epsilon-sized angle wrap by its (huge) derivative
    if abs(start - wrap) > 1e-12 * max(1.0, abs(start)):
        raise ValueError(f"curve fails to close: gap {abs(start - wrap):.3e}")
    return points


@lru_cache(maxsize=4)
def _theta_column(m: int) -> tuple[str, ...]:
    """The repr of theta = 2 pi k / m for k < m: the CSV's first column,
    the same for every curve of m points."""
    return tuple(repr(2.0 * math.pi * k / m) for k in range(m))


def curve_csv(points: np.ndarray) -> str:
    lines = ["theta,re,im"]
    xs, ys = points.real.tolist(), points.imag.tolist()
    for theta, x, y in zip(_theta_column(points.size), xs, ys):
        lines.append(f"{theta},{x!r},{y!r}")
    return "\n".join(lines) + "\n"


def curve_svg(points: np.ndarray) -> str:
    xs = points.real.tolist()
    ys = (-points.imag).tolist()  # SVG's y axis points down
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    w = max(x1 - x0, 1e-9)
    h = max(y1 - y0, 1e-9)
    mx, my = 0.05 * w, 0.05 * h
    view = f"{x0 - mx:.6f} {y0 - my:.6f} {w + 2 * mx:.6f} {h + 2 * my:.6f}"
    stroke = max(w, h) * 0.004
    d = "M " + " L ".join(f"{x:.6f},{y:.6f}" for x, y in zip(xs, ys)) + " Z"
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{view}" width="640" height="640">\n'
        f'<path d="{d}" fill="none" stroke="black" stroke-width="{stroke:.6f}"/>\n'
        "</svg>\n"
    )


# ---------------------------------------------------------------------------
# Subcommands.

def _cmd_verify(args) -> int:
    lam_grid = _parse_grid(args.lambda_grid)
    alpha_grid = _parse_grid(args.alpha_grid)
    checks = verify.run_suite(lam_grid, alpha_grid, args.order)
    # the report document is the plain array of check rows
    text = _report_json([c.to_dict() for c in checks]) + "\n"
    if args.out:
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    n_viol = sum(c.status == "violated" for c in checks)
    n_err = sum(c.status == "error" for c in checks)
    line = f"{len(checks)} checks, {n_viol} violated"
    if n_err:
        line += f", {n_err} errored"
    print(line, file=sys.stderr)
    return 3 if n_err else 1 if n_viol else 0


@contextmanager
def _stderr_log(level: str):
    """Records of the `logcoef` logger at `level` and above go to stderr
    while the block runs."""
    logger = logging.getLogger("logcoef")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    saved = logger.level
    logger.setLevel(level.upper())
    logger.addHandler(handler)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(saved)


def _cmd_search(args) -> int:
    with _stderr_log(args.log_level):
        record = search.search_max_coeff(
            lam=args.lam,
            n=args.n,
            family=args.family,
            budget=args.budget,
            seed=args.seed,
        )
    line = record.to_json_line()
    if args.out:
        _atomic_write(args.out, line + "\n")
    print(line)
    return 0


def _cmd_render(args) -> int:
    spec = atlas.parse_spec(args.spec)
    points = curve_points(spec, args.r, args.m)
    text = curve_csv(points) if args.format == "csv" else curve_svg(points)
    if args.out:
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_li2(args) -> int:
    result = li2(args.x)
    print(repr(result.value))
    return 0


def _cmd_gamma(args) -> int:
    spec = atlas.parse_spec(args.spec)
    profile = verify.log_coefficients(spec, args.n)
    # float repr is json.dumps' text for a finite float, and
    # log_coefficients refuses a non-finite gamma
    sys.stdout.write("".join(
        f'{{"n": {i}, "re": {g.real!r}, "im": {g.imag!r}}}\n'
        for i, g in enumerate(profile.gammas.tolist(), start=1)
    ))
    return 0


def _cmd_member(args) -> int:
    spec = atlas.parse_spec(args.spec)
    radii = _parse_grid(args.radii)
    query, default = {
        "ulambda": (membership.u_deficiency, 1.0),
        "starlike": (membership.min_re_starlike, 0.0),
        "galpha": (membership.g_class_sup, 1.0),
    }[args.cls]
    threshold = default if args.threshold is None else args.threshold
    report = query(spec, threshold, radii, args.samples)
    print(json.dumps(report.to_dict()))
    return 0


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parse_args keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="logcoef",
        description="Logarithmic coefficients of univalent functions: "
        "verification, membership, and coefficient search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the inequality suite")
    p.add_argument("--lambda-grid", default=_grid_text(verify.DEFAULT_LAMBDA_GRID))
    p.add_argument("--alpha-grid", default=_grid_text(verify.DEFAULT_ALPHA_GRID))
    p.add_argument("--order", type=int, default=verify.DEFAULT_ORDER)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", help="search a family for large |a_n|")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", choices=("superset", "exact_u"), default="superset")
    p.add_argument("--budget", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--log-level", choices=("warning", "info", "debug"), default="warning")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("render", help="sample a boundary curve")
    p.add_argument("spec")
    p.add_argument("--r", type=float, default=0.999)
    p.add_argument("--m", type=int, default=2048)
    p.add_argument("--format", choices=("csv", "svg"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("li2", help="evaluate the real dilogarithm")
    p.add_argument("x", type=float)
    p.set_defaults(func=_cmd_li2)

    p = sub.add_parser("gamma", help="print logarithmic coefficients")
    p.add_argument("spec")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser("member", help="run a class-membership query")
    p.add_argument("spec")
    p.add_argument("cls", choices=("ulambda", "starlike", "galpha"))
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--radii", default=_grid_text(membership.DEFAULT_RADII))
    p.add_argument("--samples", type=int, default=membership.DEFAULT_SAMPLES)
    p.set_defaults(func=_cmd_member)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
