"""The logcoef benchmark.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout: the package is imported from ``src/``
beside this directory.  Workloads are defined in ``workloads.py``; the
metrics, the layer table and the seed baseline are described in
``README.md``.

With ``--trace 0`` the run prints the end-to-end metrics.  With
``--trace 1`` it first runs the same requests untraced in a child process,
then traced in this one, and prints the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Single-threaded BLAS, fixed before numpy is first imported; set-up probes
# inherit it through the environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
SETUP_PROBES = 3


class SetupFailed(RuntimeError):
    pass


def _import_package():
    """Import logcoef from this checkout's src/ and nowhere else."""
    if not (SRC_DIR / "logcoef" / "__init__.py").is_file():
        raise SetupFailed(f"no logcoef package under {SRC_DIR}")
    sys.path[:0] = [str(SRC_DIR), str(BENCH_DIR)]
    import logcoef

    if Path(logcoef.__file__).resolve().parent != (SRC_DIR / "logcoef").resolve():
        raise SetupFailed(f"logcoef imported from {logcoef.__file__}, not {SRC_DIR}")
    import workloads

    return workloads


class HostSpeed:
    """Host speed, sampled with a fixed pure-Python loop between requests.

    On a shared host the speed one process gets can drift by tens of
    percent within minutes, and its CPU time drifts with its wall time, so
    the drift cannot be separated from inside a request.  Every timed
    interval is therefore reported in seconds of a nominal host, on which
    the loop takes NOMINAL_S: the interval is scaled by NOMINAL_S over the
    mean of the loop samples taken just before and just after it.
    """

    ITERATIONS = 100_000
    NOMINAL_S = 0.010
    INTERVAL_S = 0.25  # between samples taken during a run of requests

    def __init__(self):
        self.samples: list[float] = []
        self._last = 0.0

    def sample(self, force: bool = True) -> int:
        """Time the loop, unless not forced and the last sample is recent;
        return the index of the latest sample."""
        if force or not self.samples or time.perf_counter() - self._last >= self.INTERVAL_S:
            start = time.perf_counter()
            acc = 0
            for i in range(self.ITERATIONS):
                acc = (acc + i * i) % 1_000_003
            self._last = time.perf_counter()
            self.samples.append(self._last - start)
        return len(self.samples) - 1

    def adjust(self, seconds: float, before: int) -> float:
        """Convert an interval timed between samples `before` and `before + 1`."""
        local = 0.5 * (self.samples[before] + self.samples[before + 1])
        return seconds * self.NOMINAL_S / local

    def run_factor(self) -> float:
        return self.NOMINAL_S / statistics.median(self.samples)

    def facts(self) -> dict:
        s = self.samples
        return {
            "loop_iterations": self.ITERATIONS,
            "loop_samples": len(s),
            "loop_start_s": round(s[0], 6),
            "loop_end_s": round(s[-1], 6),
            "loop_min_s": round(min(s), 6),
            "loop_max_s": round(max(s), 6),
            "loop_drift": round(s[-1] / s[0] - 1.0, 4),
            "host_factor": round(self.run_factor(), 4),
        }


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def measure_setup(workload: str, host: HostSpeed) -> tuple[float, float]:
    """Median (nominal, as timed) seconds of fresh interpreters that import
    logcoef and serve one warm-up request.

    The probe's stdout is a pipe so that the wait wakes when the pipe closes
    at exit; waiting on the process with a timeout would poll in steps of
    up to 50 ms."""
    nominal, timed = [], []
    for _ in range(SETUP_PROBES):
        before = host.sample()
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", workload],
            check=True,
            stdout=subprocess.PIPE,
            timeout=120,
        )
        timed.append(time.perf_counter() - start)
        host.sample()
        nominal.append(host.adjust(timed[-1], before))
    return statistics.median(nominal), statistics.median(timed)


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples above it, but never below the median.

    With 20 samples or fewer no percentile above the median has ten samples
    beyond it, so the tail is the median: a run of a few long requests has
    no tail that its samples can support."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 20:
        return statistics.median(ordered), 50.0, n // 2
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def serve(workload, requests, host: HostSpeed, tracer=None):
    """Send the requests one after another; time each, then check it.

    Returns (nominal latencies, latencies as timed, failures, digest)."""
    digest = hashlib.sha256()
    timed, before, failures = [], [], []
    for index, request in enumerate(requests):
        before.append(host.sample(force=False))
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        try:
            result = workload.run(request)
            error = None
        except Exception as exc:  # noqa: BLE001 - a raising request is a failed request
            result, error = None, f"raised {type(exc).__name__}: {exc}"
        timed.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.active = False
        if error is None:
            text, error = workload.check(request, result)
            if tracer is not None:
                tracer.counts["cli.bytes_out"] += workload.cli_bytes(result)
        else:
            text = error
        digest.update(text.encode() + b"\n")
        if error is not None:
            failures.append((index, request, error))
    host.sample()
    nominal = [host.adjust(t, b) for t, b in zip(timed, before)]
    return nominal, timed, failures, digest.hexdigest()


def latency_metrics(latencies: list[float]) -> dict:
    tail, _, _ = tail_latency(latencies)
    return {
        "requests_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (tail, "s"),
    }


def _emit(correct: bool, attempted: int, failed: int, metrics: dict):
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )


def untraced_child(args) -> dict:
    """Run the same requests untraced in a fresh process; return its
    requests_per_s and digest."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", "--no-setup",
    ]
    proc = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    digest = next(line.split()[-1] for line in lines if line.startswith("digest "))
    return {"requests_per_s": result["metrics"]["requests_per_s"]["value"], "digest": digest}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--no-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        workloads = _import_package()
    except (SetupFailed, ImportError) as err:
        print(f"bench: cannot set up: {err}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    if args.probe:
        workload.warm_up()
        return 0

    import numpy as np

    tracer = None
    if args.trace:
        import logcoef
        import tracing

        tracer = tracing.Tracer()
        try:
            tracer.install(logcoef)
        except tracing.BoundaryMissing as err:
            print(f"bench: {err}", file=sys.stderr)
            return 3

    host = HostSpeed()
    child = untraced_child(args) if args.trace else None
    setup = None if (args.trace or args.no_setup) else measure_setup(args.workload, host)
    workload.warm_up()
    requests = workload.inputs(np.random.default_rng(args.seed), workload.count(args.seconds))
    try:
        nominal, timed, failures, digest = serve(workload, requests, host, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    print("machine " + json.dumps({**machine_facts(), **host.facts()}, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} requests {len(requests)} trace {args.trace}")
    print(f"digest {digest}")
    for index, request, error in failures:
        print(f"FAILED request {index} {json.dumps(request, default=str)}: {error}")
    _, percentile, beyond = tail_latency(nominal)
    print(f"latency_tail_s is p{percentile:.2f} of {len(nominal)} samples ({beyond} beyond it)")
    print(f"failed_ratio {len(failures) / len(nominal):.6g} ({len(failures)} of {len(nominal)})")

    metrics = latency_metrics(nominal)
    as_timed = latency_metrics(timed)
    outputs_match = True
    if not args.trace:
        if setup is not None:
            metrics = {"setup_s": (setup[0], "s"), **metrics}
            as_timed = {"setup_s": (setup[1], "s"), **as_timed}
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        for name, (value, unit) in metrics.items():
            timed_note = f" (as timed {as_timed[name][0]:.6g})" if name in as_timed else ""
            print(f"metric {name} {value:.6g} {unit}{timed_note}")
    else:
        silent = [layer for layer in workloads.EXPECTED_LAYERS[args.workload] if not tracer.calls[layer]]
        if silent:
            print(f"bench: no traced call reached layer(s) {', '.join(silent)}", file=sys.stderr)
            return 3
        traced_rps = metrics["requests_per_s"][0]
        overhead = 1.0 - traced_rps / child["requests_per_s"]
        metrics = tracer.metrics(host.run_factor())
        metrics["trace.overhead_ratio"] = (overhead, "ratio")
        print(
            f"tracing overhead {overhead:+.4f}: {traced_rps:.6g} requests/s traced, "
            f"{child['requests_per_s']:.6g} untraced"
        )
        if child["digest"] != digest:
            outputs_match = False
            print(f"FAILED traced digest {digest} != untraced {child['digest']}")
        for name, (value, unit) in metrics.items():
            print(f"metric {name} {value:.6g} {unit}")
    _emit(not failures and outputs_match, len(requests), len(failures), metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
