"""Layer-boundary tracing from outside the package.

Each boundary is a public function of a logcoef module, wrapped at the
module attribute that its callers look up (``cli`` calls
``search.search_max_coeff``, ``search`` calls its own imported name
``reciprocal_raw``, and so on).  Nothing under ``src/`` is edited: the
wrappers are installed into the imported modules for the traced run only
and removed afterwards.

A span opens when a call crosses into a layer that is not already on the
stack; calls made inside a layer to that same layer pass straight through,
so a layer's busy time is never counted twice.  A layer's self time is its
busy time minus the time of the spans it caused in other layers.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict

# Series recurrences whose cost is one multiply-add per (k, j) pair, j < k.
_RECURRENCES = {"reciprocal_raw", "log_raw", "exp_raw", "ts_reciprocal", "ts_log", "ts_exp"}


class BoundaryMissing(RuntimeError):
    """A wrapped boundary no longer exists under its expected name."""


def _series_len(value) -> int:
    coeffs = getattr(value, "coeffs", value)
    return int(coeffs.size)


class Tracer:
    def __init__(self):
        self.active = False
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._open = set()  # layers with an open span
        self._children = []  # per open span: time covered by its child spans
        self._installed = []  # (module, attribute, original)

    # -- boundary table -------------------------------------------------

    def _boundaries(self, pkg):
        """(module, attribute, layer, counter) for every traced boundary.

        A counter gets (tracer, bound arguments, result) and records the
        exact counts that belong to that boundary."""

        def evals(t, args, result):
            t.counts["search.evals"] += result.evaluations

        def certify_rows(t, args, result):
            t.counts["search.certify.rows"] += int(args.arguments["batch"].shape[0])

        def points(t, args, result):
            radii = args.arguments["radii"]
            t.counts["membership.points"] += 2 * int(args.arguments["m"]) * len(tuple(radii))

        def checks(t, args, result):
            t.counts["verify.checks"] += len(result)
            t.counts["verify.error_rows"] += sum("error" in row.params for row in result)

        table = [
            (pkg.cli, "main", "cli", None),
            (pkg.search, "search_max_coeff", "search", evals),
            (pkg.search, "certified_sup_bound", "search.certify", certify_rows),
            (pkg.search, "reciprocal_raw", "series", None),
            (pkg.verify, "run_suite", "verify", checks),
            (pkg.verify, "log_coefficients", "verify", None),
            (pkg.cli, "li2", "dilog", None),
            (pkg.verify, "li2", "dilog", None),
            (pkg.atlas, "eval_at", "atlas", None),
        ]
        for name in ("u_deficiency", "min_re_starlike", "g_class_sup"):
            table.append((pkg.membership, name, "membership", points))
        for name in (
            "fz_series", "parse_spec", "render", "rational_parts", "gamma_closed_form",
            "exact_u_denominator", "exact_u", "koebe", "g_lambda", "f_lambda", "f0",
            "f1", "g_family", "k_alpha", "half_plane",
        ):
            table.append((pkg.atlas, name, "atlas", None))
        for name in ("ts_reciprocal", "ts_log", "ts_exp", "ts_integrate", "shift_down", "eval_raw"):
            table.append((pkg.atlas, name, "series", None))
        for name in ("ts_log", "ts_exp", "ts_reciprocal"):
            table.append((pkg.verify, name, "series", None))
        for name in ("eval_raw", "exp_raw", "log_raw", "mul_raw", "reciprocal_raw"):
            table.append((pkg.membership, name, "series", None))
        return table

    def install(self, pkg):
        """Wrap every boundary of the imported `logcoef` package; raise
        BoundaryMissing if one is gone."""
        table = self._boundaries(pkg)
        missing = [
            f"{module.__name__}.{attr}"
            for module, attr, _, _ in table
            if not callable(getattr(module, attr, None))
        ]
        if missing:
            raise BoundaryMissing("traced boundaries not found: " + ", ".join(missing))
        for module, attr, layer, counter in table:
            original = getattr(module, attr)
            key = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            setattr(module, attr, self._wrap(original, key, layer, counter))
            self._installed.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    # -- spans -------------------------------------------------------------

    def _wrap(self, fn, key, layer, counter):
        """`key` is "<calling module>.<attribute>"; calls per key are kept."""
        open_layers, children = self._open, self._children
        busy, self_time, calls = self.busy, self.self_time, self.calls
        signature = inspect.signature(fn) if counter is not None else None
        recurrence = key.split(".")[1] in _RECURRENCES
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active or layer in open_layers:
                return fn(*args, **kwargs)
            open_layers.add(layer)
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                child_time = children.pop()
                open_layers.discard(layer)
                busy[layer] += duration
                self_time[layer] += duration - child_time
                calls[layer] += 1
                calls[key] += 1
                if children:
                    children[-1] += duration
            if recurrence:
                n = _series_len(args[0])
                tracer.counts["series.macs"] += n * (n - 1) // 2
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(tracer, bound, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- report ------------------------------------------------------------

    def metrics(self, time_factor: float) -> dict:
        """Every per-layer metric as (value, unit); times are multiplied by
        `time_factor`, which converts them to seconds of a nominal host."""
        b, s, c, n = self.busy, self.self_time, self.calls, self.counts
        evals = n["search.evals"]
        out = {
            "search.busy_s": (b["search"], "s"),
            "search.self_s": (s["search"], "s"),
            "search.evals": (evals, "count"),
            "search.accept_ratio": (c["search.reciprocal_raw"] / evals if evals else 0.0, "ratio"),
            "search.certify.busy_s": (b["search.certify"], "s"),
            "search.certify.rows": (n["search.certify.rows"], "count"),
            "series.busy_s": (b["series"], "s"),
            "series.calls": (c["series"], "count"),
            "series.macs": (n["series.macs"], "count"),
            "atlas.busy_s": (b["atlas"], "s"),
            "atlas.self_s": (s["atlas"], "s"),
            "atlas.calls": (c["atlas"], "count"),
            "atlas.eval_at.calls": (c["atlas.eval_at"], "count"),
            "membership.busy_s": (b["membership"], "s"),
            "membership.calls": (c["membership"], "count"),
            "membership.points": (n["membership.points"], "count"),
            "dilog.busy_s": (b["dilog"], "s"),
            "dilog.calls": (c["dilog"], "count"),
            "verify.busy_s": (b["verify"], "s"),
            "verify.self_s": (s["verify"], "s"),
            "verify.checks": (n["verify.checks"], "count"),
            "verify.error_rows": (n["verify.error_rows"], "count"),
            "cli.busy_s": (b["cli"], "s"),
            "cli.self_s": (s["cli"], "s"),
            "cli.bytes_out": (n["cli.bytes_out"], "bytes"),
        }
        return {k: (v * time_factor if u == "s" else v, u) for k, (v, u) in out.items()}
