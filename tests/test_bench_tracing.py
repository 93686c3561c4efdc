"""The benchmark's tracer wraps public names of the package by attribute;
a refactor that drops or renames one of them must fail here, not only
under `bench/run.py --trace 1`.  The tracer module is loaded from its file
as it stands."""

import importlib.util
from pathlib import Path

import pytest

import logcoef
import logcoef.cli  # noqa: F401  (the tracer wraps names in logcoef.cli)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _attributes(tracer):
    return {(m, a): getattr(m, a) for m, a, _, _ in tracer._boundaries(logcoef)}


def test_every_boundary_installs_and_uninstalls(tracing):
    tracer = tracing.Tracer()
    originals = _attributes(tracer)
    tracer.install(logcoef)
    try:
        wrapped = _attributes(tracer)
        assert all(wrapped[key] is not fn for key, fn in originals.items())
    finally:
        tracer.uninstall()
    assert all(getattr(m, a) is fn for (m, a), fn in originals.items())


def test_missing_boundary_is_reported(tracing, monkeypatch):
    monkeypatch.delattr(logcoef.verify, "ts_exp")
    with pytest.raises(tracing.BoundaryMissing, match="logcoef.verify.ts_exp"):
        tracing.Tracer().install(logcoef)
