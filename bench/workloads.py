"""The four benchmark workloads: input generation, requests and output checks.

Every workload is a closed loop with one client.  Inputs come only from the
workload seed, and no request in a run repeats an earlier request's inputs,
because a command-line user starts with cold caches in every process.

Values drawn "uniformly" come in mirrored pairs u, 1 - u, where the u are
base-2 van der Corput points in [0, 1/2) shifted by one seeded offset.
Each value is still uniform on its range, but every prefix of an even
number of requests covers the range evenly and symmetrically about its
middle, so runs of a few slow requests stay comparable between seeds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re

import numpy as np

from logcoef import atlas, cli, membership, search, verify

BUDGET = 10_000
LAMBDA_LO, LAMBDA_HI = 0.05, 1.0


def stratified(rng, count: int) -> list[float]:
    """`count` distinct values in [0, 1]: mirrored pairs u, 1 - u, with
    the u the base-2 van der Corput points shifted by one uniform offset
    modulo 1 and halved."""
    offset = rng.random()
    out = []
    for i in range((count + 1) // 2):
        v, denom, k = 0.0, 1.0, i
        while k:
            denom *= 2.0
            k, bit = divmod(k, 2)
            v += bit / denom
        u = 0.5 * ((v + offset) % 1.0)
        out += [u, 1.0 - u]
    return out[:count]


def _lambda(u: float) -> float:
    return LAMBDA_LO + (LAMBDA_HI - LAMBDA_LO) * u


def _seeds(rng, count: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


class Workload:
    """One workload; BENCHMARK.json and README.md say why each was chosen."""

    name = ""
    rate = 1.0  # about the requests per second of a nominal host at the seed commit
    unit = 1  # the request count is a multiple of this

    def count(self, seconds: int) -> int:
        """Fixed request count for a run of about `seconds`.

        The count depends only on `seconds`, so two runs with one seed send
        the same requests and their digests and trace counts can match."""
        return self.unit * max(1, math.ceil(seconds * self.rate / self.unit))

    def inputs(self, rng, count: int) -> list:
        raise NotImplementedError

    def warm_up(self):
        raise NotImplementedError

    def run(self, request):
        raise NotImplementedError

    def check(self, request, result) -> tuple[str, str | None]:
        """(output text for the digest, failure message or None)."""
        raise NotImplementedError

    def cli_bytes(self, result) -> int:
        """Bytes the CLI wrote to stdout for this request."""
        return 0


# ---------------------------------------------------------------------------
# Search workloads.

class SearchSuperset(Workload):
    name = "search_superset"
    rate = 2.0
    unit = 3

    def inputs(self, rng, count):
        lams = [_lambda(u) for u in stratified(rng, count)]
        return [
            {"lam": lam, "n": 2 + i % 3, "family": "superset", "budget": BUDGET, "seed": s}
            for i, (lam, s) in enumerate(zip(lams, _seeds(rng, count)))
        ]

    def warm_up(self):
        search.search_max_coeff(0.5, 4, "superset", budget=256, seed=0)

    def run(self, request):
        return search.search_max_coeff(**request)

    def check(self, request, record):
        text = record.to_json_line()
        lo, hi = record.bound - 1e-12, record.bound + 1e-9
        if not lo <= record.achieved <= hi:
            return text, f"achieved {record.achieved!r} outside [{lo!r}, {hi!r}]"
        return text, None


class SearchExactU(Workload):
    name = "search_exact_u"
    rate = 0.2
    unit = 8  # four mirrored pairs: each eighth of the lambda range once

    def inputs(self, rng, count):
        lams = [_lambda(u) for u in stratified(rng, count)]
        return [
            {"lam": lam, "n": 5, "family": "exact_u", "budget": BUDGET, "seed": s}
            for lam, s in zip(lams, _seeds(rng, count))
        ]

    def warm_up(self):
        search.search_max_coeff(0.5, 5, "exact_u", budget=256, seed=0)

    def run(self, request):
        return search.search_max_coeff(**request)

    def check(self, request, record):
        text = record.to_json_line()
        lam, n = record.lam, record.n
        if not record.achieved >= record.bound - 1e-12:
            return text, f"achieved {record.achieved!r} below bound {record.bound!r}"
        a2 = complex(*record.params["a2"])
        psi = [complex(*pair) for pair in record.params["psi"]]
        try:
            params = search.validate_exact_u(lam, a2, psi)
            f = search.build_exact_u_function(params, n)
            report = membership.u_deficiency(atlas.exact_u(lam, a2, psi), lam)
        except ValueError as err:
            return text, f"winner fails re-validation: {err}"
        if report.measured > lam + 1e-6:
            return text, f"winner deficiency {report.measured!r} exceeds lambda + 1e-6"
        if abs(abs(f.coeffs[n]) - record.achieved) > 1e-9 * max(1.0, record.achieved):
            return text, f"|a_{n}| of the winner is {abs(f.coeffs[n])!r}, record says {record.achieved!r}"
        return text, None


# ---------------------------------------------------------------------------
# Inequality suite at long truncation orders.

class VerifySuite(Workload):
    name = "verify_suite"
    rate = 0.5
    unit = 4  # two mirrored pairs: each quarter of the order range once
    LO, HI = 2048, 4096

    def inputs(self, rng, count):
        orders, taken = [], set()
        span = self.HI - self.LO + 1
        for u in stratified(rng, count):
            order = self.LO + min(int(u * span), span - 1)
            while order in taken:  # next free order, wrapping within the range
                order = self.LO + (order - self.LO + 1) % span
            taken.add(order)
            orders.append(order)
        return [{"order": o} for o in orders]

    def warm_up(self):
        verify.run_suite(order=256)

    def run(self, request):
        return verify.run_suite(order=request["order"])

    def check(self, request, rows):
        text = json.dumps([row.to_dict() for row in rows], sort_keys=True)
        bad = [row.name for row in rows if row.status == "violated"]
        if bad:
            return text, f"{len(bad)} violated rows: {', '.join(bad[:5])}"
        return text, None


# ---------------------------------------------------------------------------
# Interactive CLI use.

# Kinds whose logarithmic coefficients have a closed form for every n.
GAMMA_KINDS = ("koebe", "g_lambda", "f_lambda", "f0", "f1", "half_plane")
RENDER_M = 2048
# One block of the fixed request mix, shuffled per block by the seed.
MIX = ("member",) * 10 + ("gamma",) * 4 + ("render",) * 3 + ("li2",) * 2 + ("verify",)


def gamma_oracle(kind: str, params: dict, n: int) -> complex:
    """Closed forms of gamma_n, written without atlas.gamma_closed_form
    (which overflows on 2.0 ** (n + 1) for f0 and f1 at n >= 1023)."""
    if kind == "koebe":
        return complex(math.cos(n * params["theta"]), math.sin(n * params["theta"])) / n
    if kind == "g_lambda":
        return complex((1.0 + params["lambda"] ** n) / (2.0 * n))
    if kind == "f_lambda":
        lam = params["lambda"]
        return complex(0.5 * ((1.0 + lam**n) / n + (-1.0) ** n * (lam / (1.0 + lam)) ** n / n))
    if kind == "f0":
        return complex(-(0.5 ** (n + 1)) / n)
    if kind == "f1":
        return complex(1.0 / n + (-1.0) ** n * 0.5 ** (n + 1) / n)
    if kind == "half_plane":
        return complex(1.0 / (2.0 * n))
    raise ValueError(f"no gamma oracle for {kind}")


def _fmt(value: float) -> str:
    return repr(round(float(value), 6))


def _subgrid(rng, grid) -> str:
    """A random non-empty subset of a default grid, in grid order.

    The workload is defined on sub-grids of the default grids.  Off them,
    the seed commit has a known defect (README, "Known defects"): k_alpha's
    f/z series misses the exact c0 = 1 check for most alpha, and `verify`
    reports that as a violated row."""
    picked = []
    while not picked:
        picked = [v for v in grid if rng.random() < 0.5]
    return ",".join(repr(v) for v in picked)


class CatalogQueries(Workload):
    name = "catalog_queries"
    rate = 50.0
    unit = len(MIX)

    # -- inputs -------------------------------------------------------------

    def _spec(self, rng, kind: str, g_pool: list) -> tuple[str, dict]:
        u = rng.uniform
        if kind == "koebe":
            p = {"theta": round(u(0.0, 2.0 * math.pi), 6)}
            return f"koebe(theta={_fmt(p['theta'])})", p
        if kind in ("g_lambda", "f_lambda"):
            p = {"lambda": round(u(LAMBDA_LO, LAMBDA_HI), 6)}
            return f"{kind}(lambda={_fmt(p['lambda'])})", p
        if kind in ("f0", "f1", "half_plane"):
            return f"{kind}()", {}
        if kind == "g_family":
            # g_family series are cached per n, so each n is used once per run
            # while the pool lasts.
            n = g_pool.pop() if g_pool else int(rng.integers(2, 256))
            return f"g_family(n={n})", {"n": n}
        if kind == "k_alpha":
            return f"k_alpha(alpha={_fmt(u(0.0, 0.95))})", {}
        if kind == "rational":
            c, d = u(-0.5, 0.5), u(-0.5, 0.5)
            return f"rational(num=[0, 1, {_fmt(c)}], den=[1, {_fmt(d)}])", {}
        if kind == "schwarz_superset":
            w = [_fmt(u(-0.4, 0.4)) for _ in range(2)]
            return f"schwarz_superset(lambda={_fmt(u(LAMBDA_LO, LAMBDA_HI))}, omega=[{', '.join(w)}])", {}
        if kind == "exact_u":
            psi = [_fmt(u(-0.3, 0.3)) for _ in range(2)]
            return (
                f"exact_u(lambda={_fmt(u(LAMBDA_LO, LAMBDA_HI))}, a2={_fmt(u(-0.4, 0.4))}, "
                f"psi=[{', '.join(psi)}])",
                {},
            )
        raise ValueError(kind)

    def inputs(self, rng, count):
        g_pool = [int(n) for n in rng.permutation(np.arange(2, 256))]
        member_cycle = [(k, c) for k in atlas.KINDS for c in ("ulambda", "starlike", "galpha")]
        render_cycle = [(k, f) for k in atlas.KINDS for f in ("csv", "svg")]
        cycles = {"member": [], "render": [], "gamma": []}

        def next_of(kind, items):
            if not cycles[kind]:
                cycles[kind] = [items[i] for i in rng.permutation(len(items))]
            return cycles[kind].pop()

        out, seen = [], set()
        while len(out) < count:
            for op in (MIX[i] for i in rng.permutation(len(MIX))):
                while True:
                    request = self._draw(rng, op, next_of, member_cycle, render_cycle, g_pool)
                    if tuple(request["argv"]) not in seen:
                        break
                seen.add(tuple(request["argv"]))
                out.append(request)
        return out[:count]

    def _draw(self, rng, op, next_of, member_cycle, render_cycle, g_pool):
        u = rng.uniform
        if op == "member":
            kind, cls = next_of("member", member_cycle)
            spec, _ = self._spec(rng, kind, g_pool)
            lo, hi = {"ulambda": (LAMBDA_LO, 1.0), "starlike": (0.0, 0.5), "galpha": (0.05, 1.0)}[cls]
            return {"op": op, "argv": ["member", spec, cls, "--threshold", _fmt(u(lo, hi))]}
        if op == "render":
            kind, fmt = next_of("render", render_cycle)
            spec, _ = self._spec(rng, kind, g_pool)
            argv = ["render", spec, "--r", _fmt(u(0.95, 0.999)), "--m", str(RENDER_M), "--format", fmt]
            return {"op": op, "argv": argv, "format": fmt}
        if op == "gamma":
            kind = next_of("gamma", list(GAMMA_KINDS))
            spec, params = self._spec(rng, kind, g_pool)
            n = int(rng.integers(64, 1025))
            return {"op": op, "argv": ["gamma", spec, str(n)], "kind": kind, "params": params, "n": n}
        if op == "li2":
            x = round(u(-1.0, 1.0), 9)
            return {"op": op, "argv": ["li2", repr(x)], "x": x}
        lams = _subgrid(rng, verify.DEFAULT_LAMBDA_GRID)
        alphas = _subgrid(rng, verify.DEFAULT_ALPHA_GRID)
        argv = ["verify", "--order", "128", "--lambda-grid", lams, "--alpha-grid", alphas]
        return {"op": op, "argv": argv}

    # -- requests -----------------------------------------------------------

    def warm_up(self):
        self.run({"argv": ["member", "koebe(theta=0.0)", "ulambda"]})

    def run(self, request):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(request["argv"])
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def cli_bytes(self, result):
        return len(result[1].encode())

    def check(self, request, result):
        code, out, err = result
        text = f"{code}\n{out}"
        if code != 0:
            return text, f"exit code {code}: {err.strip()[:200]}"
        try:
            problem = getattr(self, "_check_" + request["op"])(request, out)
        except (ValueError, KeyError, IndexError) as exc:
            problem = f"unreadable output: {exc!r}"
        return text, problem

    def _check_member(self, request, out):
        report = json.loads(out)
        if report["verdict"] not in ("pass", "fail", "inconclusive"):
            return f"verdict {report['verdict']!r}"
        if not math.isfinite(report["measured"]):
            return "non-finite measured value"
        return None

    def _check_gamma(self, request, out):
        lines = out.splitlines()
        if len(lines) != request["n"]:
            return f"{len(lines)} coefficients for n = {request['n']}"
        worst = 0.0
        for k, line in enumerate(lines, start=1):
            row = json.loads(line)
            got = complex(row["re"], row["im"])
            worst = max(worst, abs(got - gamma_oracle(request["kind"], request["params"], k)))
        if not worst <= 1e-9:
            return f"gamma differs from the closed form by {worst:.3e}"
        return None

    def _check_li2(self, request, out):
        import mpmath as mp

        got = float(out)
        with mp.workdps(30):
            want = float(mp.polylog(2, mp.mpf(request["x"])))
        if not abs(got - want) <= 1e-13:
            return f"li2({request['x']!r}) = {got!r}, mpmath gives {want!r}"
        return None

    def _check_render(self, request, out):
        if request["format"] == "csv":
            rows = out.splitlines()[1:]
            values = [float(v) for row in rows for v in row.split(",")[1:]]
            npoints = len(rows)
        else:
            path = re.search(r' d="M ([^"]*) Z"', out).group(1)
            pairs = path.split(" L ")
            values = [float(v) for pair in pairs for v in pair.split(",")]
            npoints = len(pairs)
        if npoints != RENDER_M:
            return f"{npoints} points, expected {RENDER_M}"
        if not all(math.isfinite(v) for v in values):
            return "non-finite curve point"
        return None

    def _check_verify(self, request, out):
        rows = json.loads(out)
        bad = [row["name"] for row in rows if row["status"] == "violated"]
        if bad:
            return f"{len(bad)} violated rows: {', '.join(bad[:5])}"
        return None


WORKLOADS = {w.name: w for w in (SearchSuperset, SearchExactU, VerifySuite, CatalogQueries)}

# Layers each workload must reach; a traced run that records no call into
# one of them fails, so a renamed boundary cannot silently zero a metric.
EXPECTED_LAYERS = {
    "search_superset": ("search", "search.certify", "series"),
    "search_exact_u": ("search", "search.certify", "series", "atlas"),
    "verify_suite": ("verify", "atlas", "series", "dilog"),
    "catalog_queries": ("cli", "atlas", "series", "membership", "dilog", "verify"),
}
