import json
import logging
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from series_references import (
    blaschke_batch,
    certified_batch,
    chunk_blocks,
    convolved_blaschke_batch,
    convolved_superset_denominator,
    full_product_gmax,
    gmax_cases,
    gmax_mismatches,
    mp_coeff,
    mp_superset_coeff,
    per_row_coeff,
    per_shift_curvature_bound,
    sampled_modulus_max,
    sampled_sup_bound,
    sequential_polish,
)

from logcoef import atlas, cli, membership
from logcoef import search as S
from logcoef.search import (
    SearchError,
    ExactUParams,
    SchwarzParams,
    build_exact_u_function,
    build_superset_function,
    check_prokhorov_szynal,
    coefficient_recursion_residuals,
    conjectured_bound,
    mu_nu,
    search_max_coeff,
    validate_exact_u,
    validate_schwarz,
)


class TestValidation:
    def test_constant_one(self):
        w = validate_schwarz([1.0])
        assert w.validated and w.coeffs == (1.0,)

    def test_rotation(self):
        validate_schwarz([0.0, 1.0])
        validate_schwarz([0.5, 0.5])

    def test_rejects_oversized(self):
        with pytest.raises(SearchError, match="exceeds 1"):
            validate_schwarz([1.1])
        with pytest.raises(SearchError):
            validate_schwarz([0.8, 0.8])

    def test_consumers_reject_unvalidated(self):
        w = SchwarzParams(coeffs=(1.0,), validated=False)
        with pytest.raises(SearchError, match="validation"):
            build_superset_function(0.5, w, 4)
        with pytest.raises(SearchError, match="validation"):
            coefficient_recursion_residuals(0.5, w)

    def test_exact_u_validation(self):
        p = validate_exact_u(0.5, 1.5, [-1.0])
        assert p.validated
        with pytest.raises(SearchError, match="a2"):
            validate_exact_u(0.5, 1.6, [-1.0])
        # psi = 1 with extremal a2 puts a zero of z/f inside the disk
        with pytest.raises(SearchError, match="vanishes"):
            validate_exact_u(0.5, 1.5, [1.0])

    def test_exact_u_validation_runs_no_chunk_test(self, monkeypatch):
        # atlas.root_test alone decides, on the one row; the post-check is
        # build_exact_u_function's
        def chunk_test(*args):
            raise AssertionError("validate_exact_u ran the chunk test")

        rows = []
        root_test = atlas.root_test

        def recording(q):
            rows.append(len(q))
            return root_test(q)

        monkeypatch.setattr(S, "_exact_u_chunk", chunk_test)
        monkeypatch.setattr(atlas, "root_test", recording)
        assert validate_exact_u(0.5, 1.5, [-1.0]).validated
        with pytest.raises(SearchError, match="vanishes"):
            validate_exact_u(0.5, 1.5, [1.0])
        assert rows == [1, 1]

    @pytest.mark.parametrize("a2", [complex("nan"), complex(0.0, math.nan), math.inf])
    def test_exact_u_validation_rejects_non_finite_a2(self, a2):
        # |a2| is nan or inf: the range check refuses it before any root test
        with pytest.raises(SearchError, match="exceeds 1 \\+ lambda"):
            validate_exact_u(0.5, a2, [0.1])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "coeffs",
        [[math.nan], [math.inf], [-math.inf], [1e200], [1e200, 1e200], [0.5, complex(0.0, math.nan)]],
    )
    def test_rejects_non_finite_and_huge(self, coeffs):
        # the sup is the square root of a sampled max of |w|^2: nan and inf
        # (|w|^2 overflows for 1e200) must not pass the gate, and the gate
        # rejects them without a floating-point warning
        with pytest.raises(SearchError, match="exceeds 1"):
            validate_schwarz(coeffs)

    @pytest.mark.parametrize("coeffs", [[0.0], [1e-200]])
    def test_accepts_zero_and_tiny(self, coeffs):
        # |w|^2 is 0 or underflows to 0; its square root must not be nan
        assert validate_schwarz(coeffs).validated
        assert S.certified_sup_bound(np.array([coeffs], dtype=np.complex128)).tolist() == [0.0]

    def test_sample_matrix_cache_is_bounded(self):
        # one matrix per width, for the generator and the gate alike; the
        # gate's rows (1 + z^(d-1))/2 touch the circle between samples, so
        # it refines their grid through the same matrix
        limit = S._cosine_matrix.cache_info().maxsize
        for k in range(limit + 8):
            S.certified_sup_bound(np.full((1, k + 1), 0.5 + 0j))
        assert S._cosine_matrix.cache_info().currsize <= limit
        for d in np.unique(np.geomspace(2, 2049, limit + 8).round().astype(int)):
            w = np.zeros(d)
            w[[0, -1]] = 0.5
            try:
                validate_schwarz(w)
            except SearchError:
                pass
            assert S._cosine_matrix.cache_info().currsize <= limit


def _probes():
    """The two functions with sup |w| > 1 that a gate reading samples
    alone accepts: 0.6 - 0.6 z^2048 vanishes at every sample and has sup
    1.2; the shifted average (1 + 2e-4) sum_{k<50} e^{-i k t} z^k / 50,
    t = pi/2048, samples 0.99995 and has sup 1.0002."""
    spike = np.zeros(2049)
    spike[0], spike[2048] = 0.6, -0.6
    shifted = (1 + 2e-4) * np.exp(-1j * np.pi / 2048 * np.arange(50)) / 50
    return [pytest.param(spike, id="spike"), pytest.param(shifted, id="shifted")]


def _half_plus(power):
    """(1 + z^power)/2: sup 1, on the circle at power equispaced points."""
    w = np.zeros(power + 1)
    w[[0, power]] = 0.5
    return w


class TestCertifiedGate:
    """validate_schwarz decides by certified_sup_bound on the CERT_SAMPLES
    grid, refined where that bound is undecided."""

    @pytest.mark.parametrize("w", _probes())
    def test_probes_are_rejected(self, w):
        with pytest.raises(SearchError, match="exceeds 1"):
            validate_schwarz(w)
        # as psi, through the exact_u gate
        with pytest.raises(SearchError, match="exceeds 1"):
            validate_exact_u(0.5, 0.0, w)

    @pytest.mark.parametrize(
        "w",
        [[1.0], [0.0, 1.0], [0.5, 0.5], [0.5, 0.0, 0.5], [0.3, 0.3, 0.4], _half_plus(6),
         [0.0], [1e-200]],
        ids=["one", "z", "half-plus-z", "half-plus-z2", "mixed", "half-plus-z6", "zero", "tiny"],
    )
    def test_accepted_set(self, w):
        assert validate_schwarz(w).validated

    def test_an_undecided_row_is_refined(self):
        # 0.5 + 0.5 z has its max 1 at a sample, but the curvature gap puts
        # the bound on the unrefined grid past the tolerance
        w = np.array([[0.5, 0.5]])
        assert S.certified_sup_bound(w)[0] > 1.0 + S.SCHWARZ_GATE_TOL
        assert validate_schwarz(w[0]).validated

    def test_curvature_limit(self):
        # at the refinement cap k = 1024 the gap passes 1e-10 once the
        # curvature sum m^2 / 2 of (1 + z^m)/2, whose sup is 1, tops about
        # 44; (1 + z^24)/2 reads 1 + 6.5e-10
        assert validate_schwarz(_half_plus(9)).validated
        with pytest.raises(SearchError, match="exceeds 1"):
            validate_schwarz(_half_plus(10))
        with pytest.raises(SearchError, match="sup 1.00000000065 exceeds 1"):
            validate_schwarz(_half_plus(24))

    def test_generated_rows_pass(self):
        # certified rows, divided by their bound, pass by construction
        rng = np.random.default_rng(5)
        batch, _ = certified_batch(rng, 2048)
        for row in batch:
            assert validate_schwarz(S._trim(row)).validated


class TestCertifiedGeneration:
    """Generated candidates are genuinely Schwarz: the classical coefficient
    inequalities must hold (tested, not assumed)."""

    def test_schwarz_coefficient_inequalities(self):
        rng = np.random.default_rng(123)
        for _ in range(8):
            batch, _ = certified_batch(rng, 256)
            c1 = batch[:, 0]
            c2 = batch[:, 1] if batch.shape[1] > 1 else np.zeros(len(batch))
            assert np.all(np.abs(c1) <= 1.0 + 1e-12)
            assert np.all(np.abs(c2) <= 1.0 - np.abs(c1) ** 2 + 1e-9)

    def test_certified_sup_is_an_upper_bound(self):
        rng = np.random.default_rng(7)
        batch, _ = certified_batch(rng, 128)
        blaschke, _ = S._certify(blaschke_batch(rng, 32))
        # dense check of the boundary sup by the complex route, which shares
        # no code with the sampler under test
        for rows in (batch[:32], blaschke):
            assert np.all(sampled_modulus_max(rows, 1 << 14) <= 1.0 + 1e-10)

    def test_gate_accepts_generated(self):
        rng = np.random.default_rng(42)
        batch, _ = certified_batch(rng, 64)
        for row in batch:
            validate_schwarz(S._trim(row))


class TestStackedCandidates:
    """The stacked Blaschke draw and curvature bound against the per-row
    and per-shift routes they replaced (tests/series_references.py)."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("count", [1, 64, 300])
    def test_blaschke_rows_match_the_convolution(self, seed, count):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = blaschke_batch(rng, count)
        want = convolved_blaschke_batch(ref_rng, count)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("width", [1, 2, 7, 25])
    @pytest.mark.parametrize("rows", [1, 64])
    def test_curvature_bound_bits(self, width, rows):
        rng = np.random.default_rng(width * 100 + rows)
        batch = S._draw_disk(rng, (rows, width))
        got = S._curvature_bound(S._autocorrelation(batch))
        want = per_shift_curvature_bound(batch)
        assert got.shape == (rows,)
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    def test_curvature_bound_bits_on_candidate_blocks(self):
        rng = np.random.default_rng(9)
        for block, _ in chunk_blocks(rng, S._CHUNK):
            for rows in (block, block[:1]):
                got = S._curvature_bound(S._autocorrelation(rows))
                want = per_shift_curvature_bound(rows)
                assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    def test_blocks_keep_their_widths(self):
        blocks = chunk_blocks(np.random.default_rng(3), S._CHUNK)
        assert [b.shape for b, _ in blocks] == [
            (S._POLY_PER_CHUNK, S._MAX_POLY_DEGREE + 1),
            (S._CHUNK - S._POLY_PER_CHUNK, S._BLASCHKE_TRUNC + 1),
        ]
        (poly, _), = chunk_blocks(np.random.default_rng(3), 100)
        assert poly.shape == (100, S._MAX_POLY_DEGREE + 1)

    @pytest.mark.parametrize("take", [1, 100, S._POLY_PER_CHUNK, 200, S._CHUNK - 1])
    def test_take_certifies_only_the_offered_rows(self, take):
        # every row is drawn, so the rng stream is that of the whole chunk;
        # the certified rows are the first `take` of the whole chunk's, bit
        # for bit
        rng, whole_rng = np.random.default_rng(4), np.random.default_rng(4)
        part = chunk_blocks(rng, S._CHUNK, take)
        whole = chunk_blocks(whole_rng, S._CHUNK)
        assert rng.bit_generator.state == whole_rng.bit_generator.state
        assert sum(len(block) for block, _ in part) == take
        for (block, scale), (want, want_scale) in zip(part, whole):
            rows = len(block)
            assert scale.tobytes() == want_scale[:rows].tobytes()
            assert block.tobytes() == want[:rows].tobytes()

    @pytest.mark.parametrize("take", [1, 100, S._POLY_PER_CHUNK, 200, S._CHUNK])
    def test_slab_rows_are_the_chunks_rows(self, take):
        # three chunks built and certified together give each chunk's own
        # rows and factors bit for bit, and index them in offer order
        takes = [S._CHUNK, S._CHUNK, take]
        rng, chunk_rng = np.random.default_rng(5), np.random.default_rng(5)
        blocks = S._candidate_blocks([S._draw_chunk(rng, S._CHUNK) for _ in takes], takes)
        alone = [chunk_blocks(chunk_rng, S._CHUNK, t) for t in takes]
        assert rng.bit_generator.state == chunk_rng.bit_generator.state
        want_at, offset = ([], []), 0
        for t in takes:
            npoly = min(t, S._POLY_PER_CHUNK)
            want_at[0].extend(range(offset, offset + npoly))
            want_at[1].extend(range(offset + npoly, offset + t))
            offset += t
        assert len(blocks) == 2
        for w, (block, scale, at) in enumerate(blocks):
            want = [chunk[w] for chunk in alone if len(chunk) > w]
            assert block.tobytes() == np.concatenate([b for b, _ in want]).tobytes()
            assert scale.tobytes() == np.concatenate([f for _, f in want]).tobytes()
            assert at.tolist() == want_at[w]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sup_bits_do_not_depend_on_the_batch(self, seed):
        # a row's bound has the same bits alone, in its block, in the chunk
        # padded to the Blaschke width, and in every cut of its block
        rng = np.random.default_rng(seed)
        poly = S._draw_poly_batch(rng, S._POLY_PER_CHUNK)
        blaschke = blaschke_batch(rng, S._CHUNK - S._POLY_PER_CHUNK)
        pad = ((0, 0), (0, blaschke.shape[1] - poly.shape[1]))
        chunk = S.certified_sup_bound(np.vstack([np.pad(poly, pad), blaschke]))
        for block, in_chunk in ((poly, chunk[: len(poly)]), (blaschke, chunk[len(poly) :])):
            whole = S.certified_sup_bound(block).view(np.uint64)
            assert in_chunk.view(np.uint64).tolist() == whole.tolist()
            alone = [S.certified_sup_bound(row[None, :]).view(np.uint64)[0] for row in block]
            assert alone == whole.tolist()
            for take in range(1, len(block)):
                cut = S.certified_sup_bound(block[:take]).view(np.uint64)
                assert cut.tolist() == whole[:take].tolist()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_sup_bound_matches_the_sampled_modulus(self, seed):
        # the bound from the autocorrelation's samples against the route
        # it replaced (complex product, modulus, max) on candidate blocks
        # and on rows of width 1
        rng = np.random.default_rng(seed)
        blocks = [
            S._draw_poly_batch(rng, S._POLY_PER_CHUNK),
            blaschke_batch(rng, S._CHUNK - S._POLY_PER_CHUNK),
            S._draw_disk(rng, (16, 1)),
        ]
        for block in blocks:
            got, want = S.certified_sup_bound(block), sampled_sup_bound(block)
            assert np.max(np.abs(got - want) / want) <= 1e-14

    @pytest.mark.parametrize("width", [1, 7, 25])
    def test_sup_bound_of_zero_rows(self, width):
        zeros = np.zeros((3, width), dtype=np.complex128)
        assert S.certified_sup_bound(zeros).tolist() == [0.0] * 3
        assert sampled_sup_bound(zeros).tolist() == [0.0] * 3


class TestArcPasses:
    """_sampled_gmax's coarse pass and arcs give the bits of the full
    CERT_SAMPLES-angle product (tests/series_references.py)."""

    def test_slabs_and_edge_rows(self):
        assert gmax_mismatches(gmax_cases(range(6))) == 0

    @pytest.mark.parametrize("width", [7, 25])
    @pytest.mark.parametrize("rows", [1, 7, 9])
    def test_small_batches(self, width, rows):
        rng = np.random.default_rng(width * 10 + rows)
        batch = S._draw_disk(rng, (rows, width)) / width
        batch[0, 1:] = 0.0  # a degree-0 row
        assert gmax_mismatches([S._autocorrelation(batch)]) == 0

    def test_rows_the_search_certifies(self, monkeypatch):
        # slabs and polish lines of both families, and the rotated rows by
        # which the gate refines an undecided bound
        seen = []
        sampled_gmax = S._sampled_gmax

        def recording(b, m2):
            seen.append(b)
            return sampled_gmax(b, m2)

        monkeypatch.setattr(S, "_sampled_gmax", recording)
        for family in ("superset", "exact_u"):
            search_max_coeff(0.7, 5, family, budget=1500, seed=4)
        for w in ([0.5, 0.5], _half_plus(9), [0.3, 0.3, 0.4]):
            validate_schwarz(w)
        monkeypatch.undo()
        assert min(len(b) for b in seen) < 200 < max(len(b) for b in seen)
        assert gmax_mismatches(seen) == 0

    @pytest.mark.parametrize(
        "coeffs",
        [[math.nan], [math.inf], [1e200], [1e200, 1e200], [0.5, complex(0.0, math.nan)],
         [0.5, math.inf, 0.2], [1e153, 1e153, 0.5]],
    )
    def test_non_finite_and_huge_rows(self, coeffs):
        # a row with a non-finite value, max or slack takes every arc; the
        # gate refuses it with the message of the full product's max
        batch = np.zeros((1, 7), dtype=np.complex128)
        batch[0, : len(coeffs)] = coeffs
        with np.errstate(over="ignore", invalid="ignore"):
            b = S._autocorrelation(batch)
            assert gmax_mismatches([b]) == 0
            sup = S._sup_bound(S._curvature_bound(b), full_product_gmax(b))[0]
        if not sup <= 1.0 + S.SCHWARZ_GATE_TOL:
            message = f"certified boundary sup {sup:.12g} exceeds 1"
            with pytest.raises(SearchError, match=re.escape(message)):
                validate_schwarz(batch[0])

    def test_arcs_are_skipped(self, monkeypatch):
        # the second pass computes about one arc per polynomial row and two
        # per Blaschke row, not every arc
        arcs = []  # rows of every arc product: the arcs are column blocks of the full matrix
        matmul = np.matmul

        def recording(x, m, **kwargs):
            if not m.flags.c_contiguous:
                arcs.append(len(x))
            return matmul(x, m, **kwargs)

        monkeypatch.setattr(np, "matmul", recording)
        rng = np.random.default_rng(11)
        chunks = [S._draw_chunk(rng, S._CHUNK) for _ in range(S._SLAB_CHUNKS)]
        for block, _, _ in S._candidate_blocks(chunks, [S._CHUNK] * S._SLAB_CHUNKS):
            arcs.clear()
            S.certified_sup_bound(block)
            # 1.0 and 1.8 arcs a row for this slab, with the 8-row padding
            assert sum(arcs) <= (1.1 if block.shape[1] == 7 else 2.0) * len(block)

    @pytest.mark.parametrize("core", ["Haswell", "Prescott"])
    def test_bits_under_other_openblas_kernels(self, core):
        # the bits rest on one fact of the BLAS: a sample's bits depend
        # neither on the product's column count nor on its row tile; check
        # it under two more of the kernels a DYNAMIC_ARCH OpenBLAS carries
        code = (
            "from series_references import gmax_cases, gmax_mismatches\n"
            "print(gmax_mismatches(gmax_cases(range(3))))\n"
        )
        here = Path(__file__).resolve().parent
        path = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")]
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, path)),
            "OPENBLAS_CORETYPE": core,
            "OPENBLAS_VERBOSE": "2",
        }
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
        )
        if proc.returncode < 0:
            pytest.skip(f"the {core} kernel does not run on this CPU (signal {-proc.returncode})")
        assert proc.returncode == 0, proc.stderr
        if "Core not found" in proc.stderr or "Core:" not in proc.stderr:
            reason = proc.stderr.strip()
            pytest.skip(f"numpy's BLAS did not honour OPENBLAS_CORETYPE={core}: {reason!r}")
        assert proc.stdout.split() == ["0"]


class TestBuilders:
    def test_superset_constant_one(self):
        f = build_superset_function(0.5, validate_schwarz([1.0]), 4)
        np.testing.assert_allclose(f.coeffs.real, [0, 1, 1.5, 1.75, 1.875], atol=1e-14)

    def test_superset_zero(self):
        f = build_superset_function(0.5, validate_schwarz([0.0]), 3)
        np.testing.assert_allclose(f.coeffs, [0, 1, 0, 0], atol=1e-15)

    def test_superset_rotator_at_one(self):
        # w(z) = z at lambda 1: f = z/(1-z^2)^2, so a2 = 0, a3 = 2
        f = build_superset_function(1.0, validate_schwarz([0.0, 1.0]), 3)
        np.testing.assert_allclose(f.coeffs.real, [0, 1, 0, 2], atol=1e-14)

    def test_exact_u_reproduces_equality_family(self):
        p = validate_exact_u(0.5, 1.5, [-1.0])
        f = build_exact_u_function(p, 4)
        g = atlas.taylor_of(atlas.g_lambda(0.5), 4)
        np.testing.assert_allclose(f.coeffs, g.coeffs, atol=1e-14)

    def test_exact_u_trivial(self):
        p = validate_exact_u(0.5, 0.0, [0.0])
        f = build_exact_u_function(p, 3)
        np.testing.assert_allclose(f.coeffs, [0, 1, 0, 0], atol=1e-15)

    def test_exact_u_koebe_at_one(self):
        p = validate_exact_u(1.0, 2.0, [-1.0])
        f = build_exact_u_function(p, 4)
        np.testing.assert_allclose(f.coeffs.real, [0, 1, 2, 3, 4], atol=1e-13)

    def test_exact_u_requires_flags(self):
        from logcoef.search import ExactUParams

        p = ExactUParams(lam=0.5, a2=0.0, psi=(0.0,), validated=False)
        with pytest.raises(SearchError, match="validated"):
            build_exact_u_function(p, 3)


class TestDerivedParametrizationIdentity:
    """The construction behind the exact parametrization rests on
    (z/f)^2 f' - 1 = -z^2 d/dz (1/f - 1/z); verify it on 100 random
    rational functions before trusting anything built from it."""

    def test_identity_on_random_rationals(self):
        rng = np.random.default_rng(2024)
        pv = np.polynomial.polynomial.polyval
        pd = np.polynomial.polynomial.polyder
        worst = 0.0
        for _ in range(100):
            p = np.concatenate(
                ([1.0 + 0j], 0.3 * (rng.standard_normal(3) + 1j * rng.standard_normal(3)))
            )
            q = np.concatenate(
                ([1.0 + 0j], 0.3 * (rng.standard_normal(3) + 1j * rng.standard_normal(3)))
            )
            pdc, qdc = pd(p), pd(q)
            for z in 0.8 * np.exp(2j * np.pi * rng.random(8)):
                pz, qz = pv(z, p), pv(z, q)
                pdz, qdz = pv(z, pdc), pv(z, qdc)
                f = z * pz / qz
                fp = (pz + z * pdz) / qz - z * pz * qdz / qz**2
                lhs = (z / f) ** 2 * fp - 1.0
                # g = 1/f - 1/z = (q - p)/(z p), differentiated directly
                num, dnum = qz - pz, qdz - pdz
                den, dden = z * pz, pz + z * pdz
                rhs = -z * z * (dnum / den - num * dden / den**2)
                worst = max(worst, abs(lhs - rhs))
        assert worst <= 1e-10

    def test_construction_realizes_deficiency_psi(self):
        # for z/f = 1 - a2 z - lam z int psi, the deficiency functional
        # equals lam z^2 psi(z) identically
        lam, a2 = 0.7, 0.9 - 0.4j
        psi = (0.5, -0.25, 0.125j)
        q = atlas.exact_u_denominator(lam, a2, psi)
        qd = np.polynomial.polynomial.polyder(q)
        pv = np.polynomial.polynomial.polyval
        for z in 0.9 * np.exp(2j * np.pi * np.linspace(0, 1, 13)):
            u = pv(z, q) - z * pv(z, qd) - 1.0
            assert abs(u - lam * z * z * pv(z, np.asarray(psi))) < 1e-14

    def test_members_pass_deficiency_postcheck(self):
        rng = np.random.default_rng(5)
        lam = 0.6
        accepted = 0
        while accepted < 40:
            batch, _ = certified_batch(rng, 64)
            a2s = (1 + lam) * np.sqrt(rng.random(64)) * np.exp(
                2j * np.pi * rng.random(64)
            )
            for psi, a2 in zip(batch, a2s):
                try:
                    p = validate_exact_u(lam, complex(a2), S._trim(psi))
                except SearchError:
                    continue
                build_exact_u_function(p, 8)  # raises if the post-check fails
                spec = atlas.exact_u(lam, complex(a2), p.psi)
                rep = membership.u_deficiency(spec, lam, radii=[0.99], m=256)
                assert rep.measured <= lam + 1e-6
                accepted += 1
                if accepted >= 40:
                    break


class TestRecursionIdentities:
    def test_constant_one(self):
        r = coefficient_recursion_residuals(0.5, validate_schwarz([1.0]))
        assert np.max(r) < 1e-14

    def test_mu_nu_values(self):
        mu, nu = mu_nu(0.5)
        assert mu == pytest.approx(2 * 0.875 / 0.75, abs=1e-15)
        assert nu == pytest.approx(1.25, abs=1e-15)
        assert nu >= (mu * mu + 8) / 12

    def test_region_holds_along_lambda(self):
        for lam in np.linspace(0.05, 0.95, 19):
            mu, nu = mu_nu(float(lam))
            assert 2 <= mu <= 4
            assert nu >= (mu * mu + 8) / 12

    def test_lambda_one_rejected(self):
        with pytest.raises(SearchError):
            mu_nu(1.0)
        with pytest.raises(SearchError):
            coefficient_recursion_residuals(1.0, validate_schwarz([1.0]))

    def test_random_residuals(self):
        rng = np.random.default_rng(17)
        batch, _ = certified_batch(rng, 64)
        for row in batch[:40]:
            w = validate_schwarz(S._trim(row))
            r = coefficient_recursion_residuals(0.9, w)
            assert np.max(r) <= 1e-11


class TestProkhorovSzynal:
    def test_equality_case_constant(self):
        # w = 1: c1 = 1, c2 = c3 = 0, functional value = |nu|
        mu, nu = mu_nu(0.5)
        assert abs(0.0 + mu * 0.0 + nu * 1.0) / nu == pytest.approx(1.0)

    def test_z_squared_case(self):
        # w = z^2: c1 = c2 = 0, c3 = 1, ratio 1/nu <= 1 in-region
        mu, nu = mu_nu(0.5)
        assert 1.0 / nu <= 1.0

    def test_region_enforced(self):
        with pytest.raises(SearchError, match="region"):
            check_prokhorov_szynal(10, 0, 1.0, 1.0)

    @pytest.mark.parametrize("samples", [0, -3])
    def test_no_samples_is_an_error(self, samples):
        with pytest.raises(SearchError, match="^samples must be >= 1$"):
            check_prokhorov_szynal(samples, 0, 3.0, 2.0)

    def test_random_samples_within_bound(self):
        mu, nu = mu_nu(0.5)
        worst, extremal = check_prokhorov_szynal(20000, 3, mu, nu)
        assert worst <= 1.0 + 1e-9
        assert extremal.validated


class TestSearch:
    def test_start_candidate_attains_bound_superset(self):
        for lam, n in [(0.1, 2), (0.5, 3), (0.9, 4), (1.0, 4)]:
            rec = search_max_coeff(lam, n, "superset", budget=1, seed=0)
            assert rec.achieved >= conjectured_bound(lam, n) - 1e-12

    def test_start_candidate_attains_bound_exact_u(self):
        for lam, n in [(0.1, 2), (0.5, 3), (1.0, 3)]:
            rec = search_max_coeff(lam, n, "exact_u", budget=1, seed=0)
            assert rec.achieved >= conjectured_bound(lam, n) - 1e-12

    @pytest.mark.parametrize(
        "family,n,budget", [("superset", 19, 1), ("superset", 19, 10_000), ("exact_u", 20, 1)]
    )
    def test_start_row_wins_at_large_n(self, family, n, budget, caplog):
        # the start row's bar grows like M^2, M about (1 + sqrt 2)^n at
        # lambda = 1, so its value minus its bar is far below -1 here; it
        # still becomes the first best, and no random row displaces it
        with caplog.at_level(logging.DEBUG, logger="logcoef.search"):
            rec = search_max_coeff(1.0, n, family, budget=budget, seed=0)
        assert (rec.achieved, rec.margin) == (float(n), 0.0)
        assert _debug_fields(caplog)["winner"] == "start"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("family", ["superset", "exact_u"])
    def test_non_finite_start_bar_is_an_error(self, family, monkeypatch):
        # at n = 420 the start row's bar overflows to inf: no row could be
        # ranked, so the search stops before its random phase, without a
        # floating-point warning
        def random_phase(*args):
            raise AssertionError("the random phase ran")

        monkeypatch.setattr(S, "_candidate_blocks", random_phase)
        with pytest.raises(SearchError, match=r"bar on \|a_420\| of the start row is not finite"):
            search_max_coeff(1.0, 420, family, budget=10_000, seed=0)

    def test_proved_range_not_exceeded(self):
        rec = search_max_coeff(0.5, 3, "superset", budget=800, seed=7)
        assert conjectured_bound(0.5, 3) - 1e-12 <= rec.achieved <= 1.75 + 1e-9

    def test_lambda_one_second_coefficient(self):
        rec = search_max_coeff(1.0, 2, "exact_u", budget=400, seed=3)
        assert rec.achieved <= 2.0 + 1e-9
        assert rec.achieved >= 2.0 - 1e-12

    def test_deterministic(self):
        a = search_max_coeff(0.7, 5, "exact_u", budget=300, seed=42)
        b = search_max_coeff(0.7, 5, "exact_u", budget=300, seed=42)
        assert a.to_json_line() == b.to_json_line()

    def test_budget_accounting(self):
        rec = search_max_coeff(0.5, 2, "superset", budget=150, seed=1)
        assert rec.evaluations <= 150
        assert rec.margin == rec.bound - rec.achieved

    def test_bound_is_plain_sum(self):
        assert conjectured_bound(1.0, 5) == 5.0
        assert conjectured_bound(0.5, 3) == 1.75

    def test_bad_arguments(self):
        with pytest.raises(SearchError):
            search_max_coeff(0.5, 1, "superset", budget=10, seed=0)
        with pytest.raises(SearchError):
            search_max_coeff(0.5, 2, "nope", budget=10, seed=0)
        with pytest.raises(SearchError):
            search_max_coeff(0.5, 2, "superset", budget=0, seed=0)

    def test_record_serialization(self):
        import json

        rec = search_max_coeff(0.5, 2, "superset", budget=50, seed=9)
        row = json.loads(rec.to_json_line())
        assert set(row) == {
            "lambda",
            "n",
            "family",
            "seed",
            "achieved",
            "bound",
            "margin",
            "params",
            "evaluations",
        }


GOLDEN_RECORDS = Path(__file__).parent / "data" / "search_records.jsonl"


def _golden_cases():
    rows = [json.loads(line) for line in GOLDEN_RECORDS.read_text().splitlines()]
    return [
        pytest.param(
            row["budget"],
            row["record"],
            id="{family}-{lambda}-{n}-{seed}".format(**json.loads(row["record"]))
            + f"-{row['budget']}",
        )
        for row in rows
    ]


@pytest.mark.golden
class TestGoldenRecords:
    """Records pinned byte for byte: both families, lambda in {0.05, 0.5, 1},
    n in {2, 4, 5}, budgets 1000 and 2500 (not a multiple of the chunk
    size).  The file was written once by the per-candidate search that the
    chunk test replaced; a moved byte is a fault in the code, not in the file.
    The four exact_u records at lambda = 0.05, n = 4 and 5 were re-recorded
    when the root test moved from |z| <= 0.999 to the unit circle: their old
    winner (_OLD_WINNER) has a pole inside the disk.  Twenty records were
    re-recorded when a row had to beat the best by more than the two bars
    (the tie rule) and the polish became batches of equispaced points: the
    18 superset records name the extremal w = 1 in place of a unimodular
    constant that tied it, and the exact_u records at lambda = 0.05, n = 4
    seed 21 and n = 5 seed 23 name a polish winner with a zero of z/f in
    the band [1 - tau, 1) (TestTieRule)."""

    @pytest.mark.parametrize("budget,line", _golden_cases())
    def test_record_bytes(self, budget, line):
        want = json.loads(line)
        rec = search_max_coeff(
            want["lambda"], want["n"], want["family"], budget=budget, seed=want["seed"]
        )
        assert rec.to_json_line() == line

    @pytest.mark.parametrize("budget,line", _golden_cases())
    def test_rebuilt_winner_attains_record(self, budget, line):
        """The winner written to the record, rebuilt through the public
        validation gate and builder, has |a_n| equal to `achieved` exactly."""
        rec = json.loads(line)
        lam, n, params = rec["lambda"], rec["n"], rec["params"]
        if rec["family"] == "superset":
            omega = validate_schwarz([complex(*c) for c in params["omega"]])
            f = build_superset_function(lam, omega, n)
        else:
            p = validate_exact_u(
                lam, complex(*params["a2"]), [complex(*c) for c in params["psi"]]
            )
            f = build_exact_u_function(p, n)
        assert abs(f.coeffs[n]) == rec["achieved"]

    @pytest.mark.parametrize("budget,line", _golden_cases())
    def test_winner_is_certified_on_the_unrefined_grid(self, budget, line):
        """The winner's Schwarz function has a certified_sup_bound within
        the gate's tolerance on the CERT_SAMPLES grid alone, so the gate
        accepts it with no refinement step."""
        params = json.loads(line)["params"]
        w = [complex(*c) for c in params.get("omega", params.get("psi"))]
        bound = S.certified_sup_bound(np.array([w]))[0]
        assert bound <= 1.0 + S.SCHWARZ_GATE_TOL


def _scalar_exact_u_verdict(lam, a2, psi):
    """Reference for the chunk test: one candidate at a time with the
    np.roots rule at atlas.INTERIOR_ZERO_LIMIT.  True when it accepts."""
    qt = np.trim_zeros(atlas.exact_u_denominator(lam, a2, psi), "b")
    if qt.size == 1:
        return True
    return bool(np.min(np.abs(np.roots(qt[::-1]))) >= atlas.INTERIOR_ZERO_LIMIT)


def _exact_u_inputs(q, lam=1.0):
    """(a2, psi) whose exact_u denominator is the polynomial q (q_0 = 1):
    q_1 = -a2 and q_{k+2} = -lambda psi_k / (k + 1)."""
    q = np.asarray(q, dtype=np.complex128)
    return -q[1], -q[2:] * np.arange(1, q.size - 1) / lam


def _with_zeros(zeros, width=S._BLASCHKE_TRUNC + 3):
    """prod (1 - z / r) over the zeros r, padded with zero coefficients to
    `width` (the width of a search chunk's denominators)."""
    q = np.zeros(width, dtype=np.complex128)
    q[0] = 1.0
    for r in zeros:
        q[1:] -= q[:-1] / r
    return q


# tau: a zero of modulus below 1 - tau is inside the disk, and the root
# test's recursion runs at that limit, the radius 1 - tau
_TAU = 1.0 - atlas.INTERIOR_ZERO_LIMIT
# relative offsets of zeros from |z| = 1: farther than tau, within tau on
# either side of the circle, and on either side of the limit 1 - tau
_NEAR_CIRCLE_OFFSETS = [
    -0.1, -1e-3, -1e-5, -1.001 * _TAU, -0.999 * _TAU, -1e-7, -1e-9, 1e-9, 1e-7, 1e-5, 1e-3, 0.1
]


class TestChunkTest:
    @pytest.mark.parametrize("lam", [0.05, 0.5, 1.0])
    def test_accept_mask_matches_scalar_reference(self, lam):
        rng = np.random.default_rng(31)
        for _ in range(3):
            psis, _ = certified_batch(rng, S._CHUNK)
            a2s = S._draw_disk(rng, S._CHUNK, 1.0 + lam)
            # the extremal start row: psi = -1, a2 = 1 + lambda
            start = np.zeros((1, psis.shape[1]), dtype=np.complex128)
            start[0, 0] = -1.0
            psis = np.vstack([psis, start])
            a2s = np.append(a2s, 1.0 + lam)
            _, passed, _ = S._exact_u_chunk(lam, a2s, psis)
            want = [_scalar_exact_u_verdict(lam, a2, psi) for a2, psi in zip(a2s, psis)]
            assert passed.tolist() == want
            assert want[-1] and not all(want)

    def test_extremal_row_is_accepted(self):
        # at lambda = 1, z/f = (1 - z)^2 has a double zero at z = 1, which
        # eigvals puts about 1e-8 off the circle; alone and beside a second
        # row, the recursion leaves it to eigvals
        assert _scalar_exact_u_verdict(1.0, 2.0, [-1.0])
        for a2s, psis in (([2.0], [[-1.0]]), ([2.0, 0.0], [[-1.0], [0.0]])):
            _, passed, inner = S._exact_u_chunk(1.0, a2s, psis)
            assert passed.tolist() == [True] * len(a2s)
            assert atlas.INTERIOR_ZERO_LIMIT < 1.0 - 1e-7 < inner[0] < 1.0 + 1e-7

    def test_root_test_alone_decides(self):
        # z/f = (1 - z/0.9995)^2 has a double zero inside the disk;
        # z/f = 1 + 0.52 z^3 has none, so the chunk test accepts it although
        # psi = -1.04 z is not bounded by one (the search only tests
        # certified psi).  Its deficiency 1.04 |z|^3 exceeds 1 + 1e-6 at
        # r = 0.99: validate_exact_u refuses that psi, and the builder's
        # post-check the row (test_builder_raises_when_the_postcheck_fails)
        r = 0.9995
        a2s = [2.0 / r, 0.0]
        psis = [[-1.0 / r**2, 0.0], [0.0, -1.04]]
        _, passed, _ = S._exact_u_chunk(1.0, a2s, psis)
        want = [_scalar_exact_u_verdict(1.0, a2, psi) for a2, psi in zip(a2s, psis)]
        assert passed.tolist() == want == [False, True]
        with pytest.raises(SearchError, match="exceeds 1"):
            validate_exact_u(1.0, a2s[1], psis[1])
        p = ExactUParams(lam=1.0, a2=a2s[1], psi=tuple(psis[1]), validated=True)
        with pytest.raises(SearchError, match="post-check failed"):
            build_exact_u_function(p, 4)

    def test_near_circle_rows(self):
        # the recursion runs at the limit 1 - tau: it admits zeros at
        # 1 +- 1e-9 and decides zeros at 1 +- 1e-5; a zero just below 1 - tau
        # is too close to its radius, and eigvals rejects it; every row but
        # the last has zero leading coefficients
        edge = atlas.INTERIOR_ZERO_LIMIT
        rest = [1.3, -1.1j, 2.0 * np.exp(1j), 1.7 + 0.4j]  # zeros well outside
        rows = {
            "band_out": (_with_zeros([1 + 1e-9] + rest), True, True),
            "band_in": (_with_zeros([(1 - 1e-9) * 1j] + rest), True, True),
            "edge_in": (_with_zeros([edge * (1 - 1e-12) * -1] + rest), False, False),
            "near_out": (_with_zeros([(1 + 1e-5) * np.exp(2j)] + rest), True, True),
            "near_in": (_with_zeros([(1 - 1e-5) * -1j] + rest), False, True),
            "far_out": (_with_zeros([3.0, -2.5j]), True, True),
            "double": (_with_zeros([0.9995, 0.9995]), False, True),
            "constant": (_with_zeros([]), True, True),
            "band_only": (_with_zeros([1 + 1e-9], width=2), True, True),
            "full": (_with_zeros(np.exp(2j * np.pi * np.arange(26) / 26) * 1.01), True, True),
        }
        a2s, psis = zip(*(_exact_u_inputs(q) for q, _, _ in rows.values()))
        psis = np.array([np.pad(psi, (0, S._BLASCHKE_TRUNC + 1 - psi.size)) for psi in psis])
        q, passed, inner = S._exact_u_chunk(1.0, np.array(a2s), psis)
        want = [_scalar_exact_u_verdict(1.0, a2, psi) for a2, psi in zip(a2s, psis)]
        assert passed.tolist() == want == [verdict for _, verdict, _ in rows.values()]
        assert np.isnan(inner).tolist() == [by_recursion for _, _, by_recursion in rows.values()]
        # eigvals puts the zeros near the circle and the edge zero on the
        # right side of the limit, and the lone zero at 1 + 1e-9 outside the
        # circle
        moduli = atlas.min_root_modulus(q)
        assert min(moduli[0], moduli[1]) >= edge > moduli[2] == inner[2]
        assert moduli[8] > 1.0

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.tuples(st.sampled_from(_NEAR_CIRCLE_OFFSETS), st.integers(0, 63)),
                min_size=1,
                max_size=26,
                unique_by=lambda zero: zero[1],
            ),
            min_size=2,
            max_size=6,
        )
    )
    def test_zeros_near_the_circle_match_scalar_reference(self, polys):
        # each zero sits at 1 + offset at one of 64 distinct angles
        qs = [
            _with_zeros([(1 + t) * np.exp(2j * np.pi * k / 64) for t, k in zeros])
            for zeros in polys
        ]
        a2s, psis = zip(*(_exact_u_inputs(q) for q in qs))
        _, passed, _ = S._exact_u_chunk(1.0, np.array(a2s), np.array(psis))
        want = [_scalar_exact_u_verdict(1.0, a2, psi) for a2, psi in zip(a2s, psis)]
        assert passed.tolist() == want

    def test_one_row_filter_notes(self):
        # validate_exact_u gives the root test's eigvals verdict and names
        # the modulus of the zero: z/f = 1 - 1.5 z - 0.5 z^2; a one-row
        # chunk rejects the row too, by the recursion
        modulus = np.min(np.abs(np.roots([-0.5, -1.5, 1.0])))
        with pytest.raises(SearchError, match=f"zero of modulus {modulus:.6g}$"):
            validate_exact_u(0.5, 1.5, [1.0])
        _, passed, inner = S._exact_u_chunk(0.5, [1.5], [[1.0]])
        assert passed.tolist() == [False] and np.isnan(inner[0])
        assert validate_exact_u(0.5, 1.5, [-1.0]).validated


class TestPostcheck:
    """The exact_u post-check, a certified bound on max |q - z q' - 1| at
    POSTCHECK_RADIUS, as the builder runs it (search._postcheck_sup).  The
    search does not run it: q - z q' - 1 = lambda z^2 psi, which a
    certified psi keeps in the class."""

    @staticmethod
    def _chunk(lam, seed):
        rng = np.random.default_rng(seed)
        psis, _ = certified_batch(rng, S._CHUNK)
        return S._draw_disk(rng, S._CHUNK, 1.0 + lam), psis

    def test_value_bits_alone_among_survivors_and_in_the_builder(self, monkeypatch):
        lam = 0.5
        a2s, psis = self._chunk(lam, 17)
        q, passed, _ = S._exact_u_chunk(lam, a2s, psis)
        survivor = np.flatnonzero(passed)
        among = S._postcheck_sup(q[survivor]).view(np.uint64)
        alone = [S._postcheck_sup(row[None, :]).view(np.uint64)[0] for row in q[survivor]]
        assert len(survivor) > 8 and alone == among.tolist()

        # the builder checks one row; a Blaschke row keeps the chunk's width
        # after trimming, so its value has the same bits as among the
        # chunk's survivors
        j = int(np.flatnonzero(survivor >= S._POLY_PER_CHUNK)[0])
        i = survivor[j]
        p = validate_exact_u(lam, complex(a2s[i]), S._trim(psis[i]))
        postcheck = S._postcheck_sup
        calls = []

        def recording(q):
            out = postcheck(q)
            calls.append((q.copy(), out))
            return out

        monkeypatch.setattr(S, "_postcheck_sup", recording)
        build_exact_u_function(p, 5)
        [(row, value)] = calls
        assert row.tolist() == [q[i].tolist()]
        assert value.view(np.uint64).tolist() == [among[j]]

    @pytest.mark.parametrize("lam", [0.05, 1.0])
    def test_value_bounds_dense_horner(self, lam):
        # Horner on the coefficients (1 - k) q_k of q - z q' - 1 at 8,192
        # points of |z| = POSTCHECK_RADIUS, eight times the bound's grid.  q
        # and z q' are each of size about |a2| while their difference is
        # lambda z^2 psi, so evaluating them apart would lose up to 1e-13
        # relative at lambda = 0.05.  The bound lies above the dense max,
        # but for the rounding of rows with no curvature gap (a monomial),
        # and within 1e-3 relative of it
        a2s, psis = self._chunk(lam, 23)
        q = atlas.exact_u_denominator(lam, a2s, psis)
        got = S._postcheck_sup(q)
        u = q * (1.0 - np.arange(q.shape[1]))
        u[:, 0] -= 1.0
        zs = S.POSTCHECK_RADIUS * np.exp(2j * np.pi * np.arange(8192) / 8192)
        want = np.max(np.abs(np.polynomial.polynomial.polyval(zs, u.T)), axis=1)
        assert np.all(want <= got * (1.0 + 1e-14))
        assert np.max((got - want) / want) <= 1e-3

    @pytest.mark.parametrize("lam", [0.05, 0.5, 1.0])
    def test_certified_rows_pass_the_postcheck(self, lam):
        # on |z| = r the deficiency lambda |z^2 psi| of a certified psi (a
        # polynomial or Blaschke row) or of the start row's psi = -1 is at
        # most r^2 lambda, below lambda + POSTCHECK_TOL: the check the chunk
        # test no longer runs could not reject a row of the search
        limit = S.POSTCHECK_RADIUS**2 * lam
        for seed in (29, 30, 31):
            a2s, psis = self._chunk(lam, seed)
            start = np.zeros((1, psis.shape[1]), dtype=np.complex128)
            start[0, 0] = -1.0
            q = atlas.exact_u_denominator(
                lam, np.append(a2s, 1.0 + lam), np.vstack([psis, start])
            )
            post = S._postcheck_sup(q)
            assert np.all(post <= limit * (1.0 + 1e-12))
            assert post[-1] == pytest.approx(limit, rel=1e-14)

    def test_a_search_runs_no_postcheck(self, monkeypatch):
        postcheck = S._postcheck_sup
        rows = []  # rows of each _postcheck_sup call

        def counting(q):
            rows.append(len(q))
            return postcheck(q)

        monkeypatch.setattr(S, "_postcheck_sup", counting)
        rec = search_max_coeff(0.5, 5, "exact_u", budget=2500, seed=11)
        assert rows == []
        params = rec.params
        p = validate_exact_u(
            0.5, complex(*params["a2"]), [complex(*c) for c in params["psi"]]
        )
        build_exact_u_function(p, 5)
        assert rows == [1]

    def test_builder_raises_when_the_postcheck_fails(self):
        # z/f = 1 - 0.75 z^2 has no zero in the disk, but its deficiency
        # 0.75 |z|^2 exceeds lambda = 0.5 at r = 0.99
        p = ExactUParams(lam=0.5, a2=0, psi=(1.5,), validated=True)
        with pytest.raises(SearchError, match="post-check failed"):
            build_exact_u_function(p, 4)

    def test_search_does_not_import_membership(self):
        # membership may import the search's samplers without a cycle
        assert not hasattr(S, "membership")


# the winner of the four exact_u records at lambda = 0.05 (n = 4 and 5,
# seeds 20 to 23) under the root test that looked only at |z| <= 0.999:
# z/f has a zero of modulus 0.999014, a pole of f inside the disk
_OLD_WINNER = (0.05, 1.05, [-0.9838420111968765 - 0.17903881423893905j])


def _member_ulambda(capsys, lam, a2, psi):
    """The report of `logcoef member <exact_u spec> ulambda`."""
    spec = atlas.render(atlas.exact_u(lam, a2, psi))
    assert cli.main(["member", spec, "ulambda", "--threshold", repr(lam)]) == 0
    return json.loads(capsys.readouterr().out)


class TestOneZeroRule:
    """The chunk test, validate_exact_u and `member ... ulambda` read one
    rule: z/f may have no zero of modulus below atlas.INTERIOR_ZERO_LIMIT."""

    @pytest.mark.parametrize("modulus,admitted", [(1 - 2 * _TAU, False), (1 - _TAU / 2, True)])
    def test_three_callers_agree(self, modulus, admitted, capsys):
        # z/f = (1 - z/zeta)(1 - c z) = 1 - (1/zeta + c) z + (c/zeta) z^2:
        # a2 = 1/zeta + c and psi = -c/(lambda zeta); the other zero is 1/c
        lam, c = 0.5, 0.25
        zeta = modulus * np.exp(0.7j)
        a2, psi = 1 / zeta + c, [-c / (lam * zeta)]
        # one row alone and beside a second row
        _, alone, _ = S._exact_u_chunk(lam, [a2], [psi])
        _, pair, _ = S._exact_u_chunk(lam, [a2, 0.0], [psi, [0.0]])
        assert alone[0] == pair[0] == admitted
        report = _member_ulambda(capsys, lam, a2, psi)
        if admitted:
            assert validate_exact_u(lam, a2, psi).validated
            assert report["verdict"] == "pass"
        else:
            with pytest.raises(SearchError, match=f"zero of modulus {modulus:.6g}$"):
                validate_exact_u(lam, a2, psi)
            assert report["verdict"] == "fail"
            assert report["note"] == f"f has a pole of modulus {modulus:.6g} inside the disk"

    def test_random_corpus_gets_one_verdict(self, capsys):
        # z/f = (1 - z/zeta)(1 - c z) with zeta at a near-circle offset
        # (_NEAR_CIRCLE_OFFSETS) and at lambda = 1 c = 1/zeta' for a second
        # zero zeta' near zeta, a near-double zero, or a small c otherwise;
        # the rows that pass validate_exact_u's psi and a2 gates
        rng = np.random.default_rng(41)
        routes = set()
        for _ in range(160):
            lam = float(rng.choice([0.5, 1.0]))
            zeta = (1.0 + rng.choice(_NEAR_CIRCLE_OFFSETS)) * np.exp(2j * np.pi * rng.random())
            if lam == 1.0 and rng.random() < 0.5:
                c = abs(zeta) / ((1.0 + rng.choice(_NEAR_CIRCLE_OFFSETS)) * zeta)
            else:
                c = 0.3 * lam * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
            a2, psi = complex(1 / zeta + c), [complex(-c / (lam * zeta))]
            if not abs(a2) <= (1.0 + lam) * (1.0 + 1e-12):
                continue
            try:
                validate_schwarz(psi)
            except SearchError:
                continue
            _, passed, inner = S._exact_u_chunk(lam, [a2], [psi])
            admitted = bool(passed[0])
            routes.add((admitted, bool(np.isnan(inner[0]))))
            report = _member_ulambda(capsys, lam, a2, psi)
            if admitted:
                assert validate_exact_u(lam, a2, psi).validated
                assert report["verdict"] == "pass"
            else:
                modulus = atlas.min_root_modulus(
                    atlas.exact_u_denominator(lam, a2, psi)[None, :]
                )[0]
                with pytest.raises(SearchError, match=f"zero of modulus {modulus:.6g}$"):
                    validate_exact_u(lam, a2, psi)
                assert report["verdict"] == "fail"
                assert report["note"] == f"f has a pole of modulus {modulus:.6g} inside the disk"
        # admitted and refused rows, each decided by the recursion and by
        # eigvals
        assert routes == {(True, True), (True, False), (False, True), (False, False)}

    def test_old_winner_is_refused(self, capsys):
        with pytest.raises(SearchError, match="zero of modulus 0.999014$"):
            validate_exact_u(*_OLD_WINNER)
        report = _member_ulambda(capsys, *_OLD_WINNER)
        assert report["verdict"] == "fail"
        assert report["note"] == "f has a pole of modulus 0.999014 inside the disk"


class TestPaperTheorem:
    """The paper proves |a_n| <= sum_{k<n} lambda^k on U(lambda) for
    n = 2, 3, 4, so the exact_u search may beat the bound by no more than
    its own tolerance eps.

    The root test admits a z/f whose zeros have modulus >= 1 - tau.  Then
    g(z) = f((1 - tau) z) / (1 - tau) has z/g without a zero in the disk and
    (z/g)^2 g' - 1 = lambda w^2 psi(w), w = (1 - tau) z, of modulus below
    lambda, so g is in U(lambda) and |a_n| (1 - tau)^(n-1) = |g_n| <= bound.
    This puts |a_n| at most bound ((1 - tau)^(1-n) - 1) above the bound.
    The search reads |a_n| from the screen's recurrence, within
    2 n^2 2^-53 M^2 of the exact value (search._screen), where M is the
    largest coefficient of the majorant recurrence on |q_k|.  Here
    |q_1| = |a2| <= 1 + lambda <= 2 and |q_{k+2}| <= lambda |psi_k| / (k + 1)
    <= 1 / (k + 1), so M <= 12.5 for n <= 4 and the rounding is below
    6e-13; 1e-12 also covers the rounding of the bound's own sum."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("lam", [0.01, 0.05, 0.1, 0.2, 0.5, 1.0])
    def test_exact_u_search_respects_the_bound(self, lam, n):
        rec = search_max_coeff(lam, n, "exact_u", budget=10_000, seed=0)
        eps = rec.bound * ((1.0 - _TAU) ** (1 - n) - 1.0) + 1e-12
        assert rec.margin >= -eps


def _debug_fields(caplog):
    (record,) = [r for r in caplog.records if r.name == "logcoef.search"]
    return dict(re.findall(r"(\w+)=(\S+)", record.getMessage()))


class TestWholeSearchRootTest:
    @pytest.mark.parametrize("lam", [0.05, 0.5, 1.0])
    def test_every_chunk_matches_eigvals_reference(self, lam, caplog, monkeypatch):
        chunks = []
        chunk_test = S._exact_u_chunk

        def recording(lam, a2s, psis):
            out = chunk_test(lam, a2s, psis)
            chunks.append((np.array(a2s), np.array(psis), *out[1:]))
            return out

        monkeypatch.setattr(S, "_exact_u_chunk", recording)
        with caplog.at_level(logging.DEBUG, logger="logcoef.search"):
            rec = search_max_coeff(lam, 5, "exact_u", budget=2500, seed=11)
        fields = _debug_fields(caplog)
        random_end = 1 + int(fields["random"])
        # every row is tested, and every row the search commits is among them:
        # the rows tested are the evaluations and the polish rows discarded
        assert sum(a2s.size for a2s, _, _, _ in chunks) == (
            rec.evaluations + int(fields["polish_rescored"])
        )
        offset = rows = by_recursion = 0
        for a2s, psis, passed, inner in chunks:
            want = [_scalar_exact_u_verdict(lam, a2, psi) for a2, psi in zip(a2s, psis)]
            assert passed.tolist() == want
            if offset == 0:  # the start row: only the double zero at z = 1
                # of lambda = 1 leaves it to eigvals
                assert a2s.size == 1 and np.isnan(inner).tolist() == [lam < 1.0]
            elif offset < random_end:
                rows += a2s.size
                by_recursion += np.count_nonzero(np.isnan(inner))
            else:  # whole polish lines of a sweep
                assert a2s.size % S._POLISH_ITERS == 0
            offset += a2s.size
        # a fallback that sent every row to eigvals would pass the mask check;
        # the share is taken over the random phase, as polish lines through
        # the extremal at lambda = 1 hold rows with its double zero at z = 1
        assert rows > 1500 and by_recursion >= 0.99 * rows


class TestSearchLog:
    def test_debug_record_accounts_for_budget(self, caplog, monkeypatch):
        offered = []  # accepted rows offered to the tie rule by each _pick call
        pick = S._pick

        def counting(values, bars, best, best_bar):
            offered.append(len(values))
            return pick(values, bars, best, best_bar)

        monkeypatch.setattr(S, "_pick", counting)
        # (rows, rows rejected) of each exact_u chunk test, and of each
        # superset block's denominators (no test)
        chunks = []
        chunk_test = S._exact_u_chunk

        def recording(lam, a2s, psis):
            out = chunk_test(lam, a2s, psis)
            chunks.append((len(a2s), int(np.count_nonzero(~out[1]))))
            return out

        monkeypatch.setattr(S, "_exact_u_chunk", recording)
        product = atlas.superset_denominator

        def recording_product(lam, omega):
            if np.ndim(omega) == 2:  # not the record's one-row rebuild
                chunks.append((len(omega), 0))
            return product(lam, omega)

        monkeypatch.setattr(atlas, "superset_denominator", recording_product)
        for family, budget in (("exact_u", 700), ("superset", 300)):
            caplog.clear()
            quiet = search_max_coeff(0.6, 5, family, budget=budget, seed=4)
            assert not [r for r in caplog.records if r.name == "logcoef.search"]
            offered.clear()
            chunks.clear()
            with caplog.at_level(logging.DEBUG, logger="logcoef.search"):
                loud = search_max_coeff(0.6, 5, family, budget=budget, seed=4)
            assert loud.to_json_line() == quiet.to_json_line()
            (record,) = [r for r in caplog.records if r.name == "logcoef.search"]
            pairs = re.findall(r"(\w+)=(\d+)\b(?!\.)", record.getMessage())
            c = {k: int(v) for k, v in pairs}
            assert c["evaluations"] == loud.evaluations
            assert c["start"] + c["random"] + c["polish"] == loud.evaluations
            assert c["rejected_roots"] + c["accepted"] == loud.evaluations
            assert (c["rejected_roots"] > 0) == (family == "exact_u")
            # every exact_u row reaches the root test
            roots = c["roots_by_recursion"] + c["roots_by_eigvals"]
            assert roots == (loud.evaluations if family == "exact_u" else 0)
            rescale = float(re.search(r" max_rescale=(\S+) ", record.getMessage())[1])
            assert rescale >= 1.0
            # every accepted row, in every phase, is offered once
            assert sum(offered) == c["accepted"]
            bar = float(re.search(r" winner_bar=(\S+)$", record.getMessage())[1])
            assert 0.0 < bar < 1e-9
            # the rows scored are the evaluations and the polish rows
            # discarded after a line that moved; no line moves here (the
            # winner is the start row), so none is discarded
            assert sum(rows for rows, _ in chunks) == c["evaluations"] + c["polish_rescored"]
            assert c["polish_rescored"] == 0
            # the polish offers whole lines, and the chunk test rejects
            # some of their exact_u rows
            lines, rest = divmod(c["polish"], S._POLISH_ITERS)
            assert lines > 0 and rest == 0
            offset, polish = 0, []
            for rows, rejects in chunks:
                if offset >= 1 + c["random"]:
                    polish.append((rows, rejects))
                offset += rows
            assert sum(rows for rows, _ in polish) == c["polish"]
            assert all(rows % S._POLISH_ITERS == 0 for rows, _ in polish)
            assert (sum(rejects for _, rejects in polish) > 0) == (family == "exact_u")

    def test_max_rescale_is_one_without_random_rows(self, caplog):
        # budget 1 runs only the start row, which is never rescaled
        with caplog.at_level(logging.DEBUG, logger="logcoef.search"):
            search_max_coeff(0.6, 5, "superset", budget=1, seed=4)
        (record,) = [r for r in caplog.records if r.name == "logcoef.search"]
        assert " max_rescale=1.0 " in record.getMessage()

    @pytest.mark.parametrize(
        "lam,n,family,budget,seed,phase",
        [
            (0.6, 5, "exact_u", 700, 4, "start"),
            # a golden record's winner: z/f has a zero in the band [1 - tau, 1)
            (0.05, 4, "exact_u", 2500, 21, "polish"),
            # no superset row beats the extremal w = 1 by more than the bars
            (0.6, 5, "superset", 300, 4, "start"),
        ],
    )
    def test_winner_phase_and_index(
        self, lam, n, family, budget, seed, phase, caplog, monkeypatch
    ):
        # every candidate row in offer order: z/f for exact_u, and for
        # superset the first n - 1 coefficients of w that the screen reads
        offered = []
        product = atlas.superset_denominator
        if family == "exact_u":
            chunk_test = S._exact_u_chunk

            def recording(*args):
                out = chunk_test(*args)
                offered.extend(out[0])
                return out

            monkeypatch.setattr(S, "_exact_u_chunk", recording)
        else:

            def recording_product(lam, omega):
                if np.ndim(omega) == 2:  # not the record's one-row rebuild
                    offered.extend(omega)
                return product(lam, omega)

            monkeypatch.setattr(atlas, "superset_denominator", recording_product)
        polish = S._polish

        def committing(x, line, offer, room):
            """The polish, with the rows a sweep discards after the line
            that moved taken out of `offered`."""

            def offering(blocks, group=None):
                start = len(offered)
                i = offer(blocks, group)
                if i is not None:
                    del offered[start + (i // group + 1) * group :]
                return i

            polish(x, line, offering, room)

        monkeypatch.setattr(S, "_polish", committing)
        with caplog.at_level(logging.DEBUG, logger="logcoef.search"):
            rec = search_max_coeff(lam, n, family, budget=budget, seed=seed)
        fields = _debug_fields(caplog)
        random_rows, winner = int(fields["random"]), fields["winner"]
        index, bar = int(fields["winner_index"]), float(fields["winner_bar"])
        assert winner == phase
        assert winner == (
            "start" if index == 0 else "random" if index <= random_rows else "polish"
        )
        assert len(offered) == rec.evaluations

        def scored(i):
            if family == "exact_u":
                return S._screen(offered[i][None, :], n)
            return S._screen(product(lam, offered[i][None, :]), n, True)

        (value,), (row_bar,) = scored(index)
        assert row_bar == bar and abs(value - rec.achieved) <= bar
        # the record reports the winner's value from the per-row route
        q = offered[index]
        if family == "superset":
            q = product(lam, q)
        assert per_row_coeff(q, n) == rec.achieved
        # a winner other than the start row beats it by more than both bars
        (start,), (start_bar,) = scored(0)
        assert (value - bar > start + start_bar) == (index > 0)


def _sequential_pick(values, bars, best, best_bar):
    """search._pick without its preselection: every row in turn."""
    winner = -1
    for i in range(len(values)):
        if values[i] - bars[i] > best + best_bar:
            winner, best, best_bar = i, values[i], bars[i]
    return winner


class TestScreen:
    """The screen scores every accepted row with a value and a proven bar,
    and the tie rule's preselection (search._pick) only skips rows that
    could not have replaced the best: each search equals one that scans
    every accepted row in turn."""

    @pytest.mark.parametrize(
        "family,lam,n",
        [("superset", lam, n) for lam in (0.05, 0.5, 1.0) for n in (2, 4, 5)]
        + [("exact_u", lam, 5) for lam in (0.05, 0.5, 1.0)],
    )
    def test_screen_never_changes_a_search(self, family, lam, n, caplog, monkeypatch):
        rows = above = 0  # rows offered, and rows above the threshold at entry
        pick = S._pick

        def counting(values, bars, best, best_bar):
            nonlocal rows, above
            rows += len(values)
            above += int(np.count_nonzero(values - bars > best + best_bar))
            return pick(values, bars, best, best_bar)

        monkeypatch.setattr(S, "_pick", counting)
        with caplog.at_level(logging.DEBUG, logger="logcoef.search"):
            screened = search_max_coeff(lam, n, family, budget=2500, seed=5)
        want = _debug_fields(caplog)
        monkeypatch.setattr(S, "_pick", _sequential_pick)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="logcoef.search"):
            scanned = search_max_coeff(lam, n, family, budget=2500, seed=5)
        got = _debug_fields(caplog)
        assert scanned.to_json_line() == screened.to_json_line()
        assert (got["winner"], got["winner_index"]) == (want["winner"], want["winner_index"])
        assert got == want
        # every accepted row is offered; the preselection passes on the
        # start row and at most the polish rows, and skips the rest
        assert rows == int(want["accepted"])
        assert 1 <= above <= 1 + int(want["polish"]) and above < rows

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from([0.5, 1.0, 1.0001, 1.0003, 1.001, 2.0]),
                      st.sampled_from([0.0, 1e-4, 2e-4])),
            max_size=40,
        ),
        st.sampled_from([-1.0, 1.0, 1.0002]),
        st.sampled_from([0.0, 1e-4]),
    )
    def test_pick_is_a_sequential_scan(self, rows, best, best_bar):
        values = np.array([v for v, _ in rows], dtype=float)
        bars = np.array([e for _, e in rows], dtype=float)
        want = _sequential_pick(values, bars, best, best_bar)
        assert S._pick(values, bars, best, best_bar) == want

    @pytest.mark.parametrize("lam", [0.05, 0.5, 1.0])
    def test_margin_covers_the_per_row_value(self, lam):
        rng = np.random.default_rng(23)
        batch = np.vstack([certified_batch(rng, S._CHUNK)[0] for _ in range(2)])
        # constants w = e^{i theta} tie the extremal to within rounding
        ties = np.zeros((32, batch.shape[1]), dtype=np.complex128)
        ties[:, 0] = np.exp(2j * np.pi * np.arange(32) / 32)
        omegas = np.vstack([batch, ties])
        a2s = S._draw_disk(rng, len(omegas), 1.0 + lam)
        exact_u_q = atlas.exact_u_denominator(lam, a2s, omegas)
        superset = [convolved_superset_denominator(lam, w) for w in omegas]
        for n in range(2, 9):
            for heads, per_row, head_term in (
                (atlas.superset_denominator(lam, omegas[:, : n - 1]), superset, True),
                (exact_u_q, exact_u_q, False),
            ):
                value, bar = S._screen(heads, n, head_term)
                want = np.array([per_row_coeff(q, n) for q in per_row])
                assert np.all(np.abs(value - want) <= bar), (n, lam)
            value, bar = S._screen(atlas.superset_denominator(lam, ties[:, : n - 1]), n, True)
            assert np.all(np.abs(value - conjectured_bound(lam, n)) <= bar)

    @pytest.mark.parametrize("lam", [0.05, 0.5, 1.0])
    def test_bar_covers_the_exact_value(self, lam):
        """|value - exact| <= bar for n = 2..8 on random certified rows,
        the 32 unimodular ties and the extremal, the exact value taken at
        30 digits from the float inputs."""
        rng = np.random.default_rng(29)
        batch, _ = certified_batch(rng, S._CHUNK)
        turns = np.exp(2j * np.pi * np.arange(32) / 32)
        # superset: w = e^{i theta} and w = 1
        ties = np.zeros((33, batch.shape[1]), dtype=np.complex128)
        ties[:, 0] = np.append(turns, 1.0)
        omegas = np.vstack([batch, ties])
        # exact_u: the rotations e^{-i theta} f(e^{i theta} z) of the
        # extremal, a2 = (1 + lambda) e^{i theta} and psi = -e^{2 i theta},
        # and the extremal itself
        a2s = np.concatenate([S._draw_disk(rng, len(batch), 1.0 + lam), (1.0 + lam) * ties[:, 0]])
        psis = np.vstack([batch, -ties**2])
        exact_u_q = atlas.exact_u_denominator(lam, a2s, psis)
        with mpmath.workdps(30):
            for n in range(2, 9):
                q = atlas.superset_denominator(lam, omegas[:, : n - 1])
                value, bar = S._screen(q, n, True)
                for v, e, w in zip(value, bar, omegas):
                    assert abs(mpmath.mpf(v) - mp_superset_coeff(lam, w, n)) <= e, (n, lam)
                value, bar = S._screen(exact_u_q, n)
                for v, e, q in zip(value, bar, exact_u_q):
                    assert abs(mpmath.mpf(v) - mp_coeff(q, n)) <= e, (n, lam)

    @pytest.mark.parametrize("lam", [0.05, 0.5, 1.0])
    def test_bar_is_the_majorant_bound(self, lam):
        """The bar is 2 n^2 (1 + n) eps M^2 for superset rows and
        2 n^2 eps M^2 for exact_u rows, with M the largest of B_0..B_{n-1}
        of the majorant recurrence, recomputed here one row at a time."""

        def majorant(q, n):
            size = [abs(complex(c)) for c in q[:n]] + [0.0] * (n - len(q))
            b = [1.0]
            for k in range(1, n):
                b.append(math.fsum(size[j] * b[k - j] for j in range(1, k + 1)))
            return max(b)

        rng = np.random.default_rng(31)
        omegas, _ = certified_batch(rng, 64)
        exact_u_q = atlas.exact_u_denominator(
            lam, S._draw_disk(rng, len(omegas), 1.0 + lam), omegas
        )
        for n in range(2, 9):
            superset_q = atlas.superset_denominator(lam, omegas[:, : n - 1])
            for q, head in ((superset_q, 1 + n), (exact_u_q, 1)):
                _, bar = S._screen(q, n, head > 1)
                want = [2.0 * n * n * head * S._EPS * majorant(row, n) ** 2 for row in q]
                assert bar == pytest.approx(want, rel=1e-12, abs=0.0), (n, lam, head)


def _is_extremal(rec):
    """The record names the start row: w = 1, or a2 = 1 + lambda, psi = -1."""
    if rec["family"] == "superset":
        return rec["params"] == {"omega": [[1.0, 0.0]]}
    return rec["params"] == {"a2": [1.0 + rec["lambda"], 0.0], "psi": [[-1.0, 0.0]]}


class TestTieRule:
    """A row replaces the best only if its value minus its bar exceeds the
    best's value plus the best's bar."""

    @pytest.mark.parametrize("budget,line", _golden_cases())
    def test_golden_winner_is_the_extremal_or_a_band_zero(self, budget, line, caplog):
        """Each golden configuration names the extremal start row, or an
        exact_u polish winner whose z/f has its smallest zero in the band
        [1 - tau, 1) that the root test admits, with a margin within
        TestPaperTheorem's allowance bound ((1 - tau)^(1-n) - 1)."""
        rec = json.loads(line)
        if _is_extremal(rec):
            return
        lam, n = rec["lambda"], rec["n"]
        assert rec["family"] == "exact_u"
        psi = [complex(*c) for c in rec["params"]["psi"]]
        q = atlas.exact_u_denominator(lam, complex(*rec["params"]["a2"]), psi)
        inner = atlas.min_root_modulus(q[None, :])[0]
        assert atlas.INTERIOR_ZERO_LIMIT <= inner < 1.0
        allowance = rec["bound"] * ((1.0 - _TAU) ** (1 - n) - 1.0) + 1e-12
        assert -allowance <= rec["margin"] < 0.0
        with caplog.at_level(logging.DEBUG, logger="logcoef.search"):
            search_max_coeff(lam, n, "exact_u", budget=budget, seed=rec["seed"])
        assert _debug_fields(caplog)["winner"] == "polish"

    @staticmethod
    def _search(monkeypatch, caplog, lam, n, omegas):
        """A superset search at budget 50 (the start row, 37 random rows and
        one polish line) whose random rows are the constants `omegas`, then
        zeros."""

        def blocks(chunks, takes):
            rows = np.zeros((sum(takes), 1), dtype=np.complex128)
            rows[: len(omegas), 0] = omegas
            return [(rows, np.ones(len(rows)), np.arange(len(rows)))]

        monkeypatch.setattr(S, "_candidate_blocks", blocks)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="logcoef.search"):
            rec = search_max_coeff(lam, n, "superset", budget=50, seed=0)
        return rec, _debug_fields(caplog)

    def test_hand_built_rows(self, monkeypatch, caplog):
        # w = c, a constant: a_n = c^(n-1) sum_{k<n} lambda^k, so c = 1 + d
        # raises the value by about (n - 1) d times the bound
        lam, n = 0.5, 5

        def scored(c):
            (value,), (bar,) = S._screen(atlas.superset_denominator(lam, [[c]]), n, True)
            return value, bar

        start, start_bar = scored(1.0)
        d = 2.0 * start_bar / ((n - 1) * start)
        beyond, beyond_bar = scored(1.0 + 2.0 * d)
        within, within_bar = scored(1.0 + d / 4.0)
        assert beyond - beyond_bar > start + start_bar
        # the strict > rule would have taken this row
        assert start < within and not within - within_bar > start + start_bar

        rec, fields = self._search(monkeypatch, caplog, lam, n, [0.0, 0.0, 0.0, 1.0 + d / 4.0])
        assert (fields["winner"], fields["winner_index"]) == ("start", "0")
        assert rec.params == {"omega": [[1.0, 0.0]]}

        omegas = [0.0, 0.0, 0.0, 1.0 + d / 4.0, 0.0, 1.0 + 2.0 * d]
        rec, fields = self._search(monkeypatch, caplog, lam, n, omegas)
        assert (fields["winner"], fields["winner_index"]) == ("random", "6")
        assert rec.params == {"omega": [[1.0 + 2.0 * d, 0.0]]}
        assert float(fields["winner_bar"]) == beyond_bar


def _one_padded_block(chunks, takes):
    """A slab of random chunks as one block: each chunk's polynomials
    padded to the Blaschke width and followed by its Blaschke rows, the
    first `take` rows of each, certified together."""
    rows = []
    for (poly, blaschke), take in zip(chunks, takes):
        pad = ((0, 0), (0, S._BLASCHKE_TRUNC + 1 - poly.shape[1]))
        rows.append(np.vstack([np.pad(poly, pad), S._blaschke_rows(*blaschke)])[:take])
    batch, scale = S._certify(np.vstack(rows))
    return [(batch, scale, np.arange(len(batch)))]


class TestBlockSplit:
    """A slab of random chunks built, certified and offered as two blocks
    at their own widths gives the search of one padded block, also where
    the budget's last chunk ends inside either block."""

    @staticmethod
    def _search(lam, family, budget, caplog, one_block):
        """The record, the DEBUG fields, and the bytes of every value and
        bar offered to the tie rule, in offer order."""
        offered = []
        pick = S._pick

        def recording(values, bars, best, best_bar):
            offered.append((values, bars))
            return pick(values, bars, best, best_bar)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(S, "_pick", recording)
            if one_block:
                mp.setattr(S, "_candidate_blocks", _one_padded_block)
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="logcoef.search"):
                rec = search_max_coeff(lam, 5, family, budget=budget, seed=6)
        values, bars = (np.concatenate(part).tobytes() for part in zip(*offered))
        return rec, _debug_fields(caplog), (values, bars)

    @pytest.mark.parametrize(
        "family,budget,last_block",
        [
            ("superset", 900, "poly"),
            ("superset", 1000, "blaschke"),
            ("exact_u", 900, "poly"),
            ("exact_u", 1000, "blaschke"),
        ],
    )
    @pytest.mark.parametrize("lam", [0.05, 0.5, 1.0])
    def test_blocks_give_the_padded_chunk_search(self, family, budget, last_block, lam, caplog):
        blocks, got, got_scored = self._search(lam, family, budget, caplog, False)
        padded, want, want_scored = self._search(lam, family, budget, caplog, True)
        tail = int(got["random"]) % S._CHUNK
        assert tail > 0 and (tail <= S._POLY_PER_CHUNK) == (last_block == "poly")
        assert blocks.to_json_line() == padded.to_json_line()
        assert (got["winner"], got["winner_index"]) == (want["winner"], want["winner_index"])
        assert got["max_rescale"] == want["max_rescale"]
        # both offer every accepted row, with the same values and bars in
        # the same order, and give the same DEBUG record
        assert got_scored == want_scored
        assert got == want


class TestSlabs:
    """The random phase is built, certified, tested and screened a slab of
    chunks at a time; the slab's size changes no search."""

    @staticmethod
    def _search(family, lam, budget, caplog, n=5):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="logcoef.search"):
            rec = search_max_coeff(lam, n, family, budget=budget, seed=9)
        return rec.to_json_line(), _debug_fields(caplog)

    @pytest.mark.parametrize(
        "family,budget,tail",
        [
            ("superset", 1, 0),  # no random row
            ("exact_u", 1, 0),
            ("superset", 4792, 191),  # the last chunk ends in its polynomials
            ("exact_u", 4792, 119),
            ("superset", 4821, 220),  # the last chunk ends in its Blaschke rows
            ("exact_u", 4893, 220),
        ],
    )
    @pytest.mark.parametrize("lam", [0.05, 1.0])
    def test_slab_size_changes_no_search(self, family, lam, budget, tail, caplog, monkeypatch):
        want = self._search(family, lam, budget, caplog)
        assert int(want[1]["random"]) % S._CHUNK == tail
        chunks = -(-int(want[1]["random"]) // S._CHUNK)
        assert chunks == 0 or chunks > S._SLAB_CHUNKS  # the default cap splits the phase
        for cap in (1, chunks + 1):
            monkeypatch.setattr(S, "_SLAB_CHUNKS", cap)
            assert self._search(family, lam, budget, caplog) == want

    def test_no_product_exceeds_the_tile(self, monkeypatch):
        # no certification product, coarse or arc, holds more than 64 x 1024
        # values, and each runs whole tiles of 8 rows
        shapes = []  # (rows, columns) of every certification product
        matmul = np.matmul

        def recording(x, m, **kwargs):
            shapes.append((len(x), m.shape[1]))
            return matmul(x, m, **kwargs)

        monkeypatch.setattr(np, "matmul", recording)
        for family in ("superset", "exact_u"):
            search_max_coeff(0.5, 5, family, budget=3000, seed=2)
        mu, nu = mu_nu(0.5)
        check_prokhorov_szynal(20000, 3, mu, nu)
        # the coarse passes at widths 7 and 25 (every 16th and 8th angle) and the arcs
        assert {cols for _, cols in shapes} == {S.CERT_SAMPLES // 16, S.CERT_SAMPLES // 8, S._ARC}
        assert all(rows % 8 == 0 for rows, _ in shapes)
        assert max(rows * cols for rows, cols in shapes) <= 64 * S.CERT_SAMPLES


class TestScreenTiles:
    """offer builds a block's denominators at once and screens its rows
    _SCREEN_ROWS at a time; the tile's size changes no search, and the
    screen's memory does not grow with the slab."""

    @pytest.mark.parametrize(
        "family,n", [("superset", 5), ("exact_u", 5), ("superset", 40)]
    )
    @pytest.mark.parametrize("lam", [0.05, 1.0])
    def test_tile_size_changes_no_search(self, family, n, lam, caplog, monkeypatch):
        want = TestSlabs._search(family, lam, 4792, caplog, n)
        for rows in (8, S._CHUNK * S._SLAB_CHUNKS):  # many tiles, one tile
            monkeypatch.setattr(S, "_SCREEN_ROWS", rows)
            assert TestSlabs._search(family, lam, 4792, caplog, n) == want

    def test_screen_memory_does_not_grow_with_the_slab(self):
        # an untiled screen of a 4,096-row slab holds four 6.5 MB arrays at
        # n = 100; tiled, the search peaks near 5 MB
        tracemalloc.start()
        try:
            search_max_coeff(0.5, 100, "superset", budget=10_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestPolishSweeps:
    """Each polish sweep is scored as one batch and committed up to the
    first line that moves; every search equals the one that offers one
    line at a time (series_references.sequential_polish), with the same
    record, DEBUG fields and winner index."""

    @staticmethod
    def _search(caplog, *args, **kwargs):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="logcoef.search"):
            rec = search_max_coeff(*args, **kwargs)
        return rec.to_json_line(), _debug_fields(caplog)

    def _compare(self, caplog, *args, **kwargs):
        """The DEBUG fields of the search; asserts that the sequential
        polish gives the same record and fields, and discards no row."""
        got = self._search(caplog, *args, **kwargs)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(S, "_polish", sequential_polish)
            want = self._search(caplog, *args, **kwargs)
        fields = dict(got[1])
        assert want[1].pop("polish_rescored") == "0"
        got[1].pop("polish_rescored")
        assert got == want
        return fields

    @pytest.mark.parametrize("family", ["superset", "exact_u"])
    @pytest.mark.parametrize("lam", [0.05, 0.5, 1.0])
    def test_sweeps_give_the_sequential_polish(self, family, lam, caplog):
        sweep = 2 * (S._MAX_POLY_DEGREE + 1 + (family == "exact_u"))  # lines per sweep
        for n in (2, 3, 4, 5):
            for budget in (1, 2, 300, 1600, 2500, 3000):
                fields = self._compare(caplog, lam, n, family, budget=budget, seed=7)
                lines = int(fields["polish"]) // S._POLISH_ITERS
                # 300 and 1600 cut the polish inside its first and third sweep
                assert (lines % sweep > 0) == (budget in (300, 1600))

    def test_polish_winner_golden(self, caplog):
        """The golden record whose winner a polish line found: the sweep
        that moved discards the lines after it."""
        fields = self._compare(caplog, 0.05, 4, "exact_u", budget=2500, seed=21)
        assert fields["winner"] == "polish" and int(fields["polish_rescored"]) > 0

    def test_every_line_moves(self, caplog, monkeypatch):
        """With certification off and a screen whose value grows with every
        coordinate (about (1 + lambda) times the sum of the real and
        imaginary parts of w, read from all 7 coefficients at n = 8), each
        line's last row replaces the best: a sweep of L lines scores
        L (L + 1) / 2 of them, the worst case _polish names."""
        lam, n = 1e-9, 8

        def screen(q, n, superset=False):
            # -(q_1 + ... + q_{n-1}) = (1 + lam) (w_0 + ... + w_{n-2}) + O(lam)
            return -np.sum(q[:, 1:n].real + q[:, 1:n].imag, axis=1), np.zeros(len(q))

        monkeypatch.setattr(S, "_screen", screen)
        monkeypatch.setattr(S, "_certify", lambda batch: (batch, np.ones(len(batch))))
        fields = self._compare(caplog, lam, n, "superset", budget=2500, seed=7)
        sweep = 2 * (S._MAX_POLY_DEGREE + 1)
        assert int(fields["polish"]) == len(S._POLISH_STEPS) * sweep * S._POLISH_ITERS
        scored = int(fields["polish"]) + int(fields["polish_rescored"])
        assert scored == len(S._POLISH_STEPS) * sweep * (sweep + 1) // 2 * S._POLISH_ITERS
        assert fields["winner"] == "polish"


def _divide_by_max_schur_cohn(q):
    """atlas._schur_cohn as it stood before its power-of-two schedule: p
    divided by its largest modulus after every step."""
    rows, width = q.shape
    p = atlas.INTERIOR_ZERO_LIMIT ** np.arange(width)[:, None] * q.T
    alive = np.ones(rows, dtype=bool)
    failed = np.zeros(rows, dtype=bool)
    for m in range(width - 1, 0, -1):
        head, tail = np.abs(p[0]), np.abs(p[m])
        failed |= alive & (head < tail * (1.0 - atlas._SC_TOL))
        alive &= head > tail * (1.0 + atlas._SC_TOL)
        p = p[0].conj() * p[:m] - p[m] * p[m:0:-1].conj()
        scale = np.abs(p).max(axis=0)
        p /= np.where(scale > 0.0, scale, 1.0)
    return alive, failed


class TestSchurCohn:
    """The recursion renormalizes by exact powers of two every second step:
    its verdicts are those of the divide-by-max recursion it replaced, and
    a power-of-two scale of q moves none."""

    @pytest.mark.parametrize("lam", [0.05, 0.5, 1.0])
    def test_masks_match_divide_by_max(self, lam, monkeypatch):
        blocks = []
        schur_cohn = atlas._schur_cohn

        def recording(q):
            out = schur_cohn(q)
            blocks.append((q, *out))
            return out

        monkeypatch.setattr(atlas, "_schur_cohn", recording)
        for seed in (11, 12):
            search_max_coeff(lam, 5, "exact_u", budget=3000, seed=seed)
        assert sum(len(q) for q, _, _ in blocks) >= 6000
        for q, accept, reject in blocks:
            want_accept, want_reject = _divide_by_max_schur_cohn(q)
            assert accept.tolist() == want_accept.tolist()
            assert reject.tolist() == want_reject.tolist()
        assert any(a.any() for _, a, _ in blocks) and any(r.any() for _, _, r in blocks)

    @pytest.mark.parametrize("lam", [0.05, 1.0])
    def test_power_of_two_scale_moves_no_verdict(self, lam):
        rng = np.random.default_rng(37)
        near = [
            _with_zeros([(1.0 + d) * np.exp(0.3j), 1.5, -2.0 + 1j]) for d in _NEAR_CIRCLE_OFFSETS
        ]
        blocks = [np.array(near)]
        for psis, _ in chunk_blocks(rng, S._CHUNK):
            a2s = S._draw_disk(rng, len(psis), 1.0 + lam)
            blocks.append(atlas.exact_u_denominator(lam, a2s, psis))
        for q in blocks:
            accept, reject = atlas._schur_cohn(q)
            assert accept.any() and reject.any()
            for k in (60, -60):
                scaled = atlas._schur_cohn(q * 2.0**k)
                assert scaled[0].tolist() == accept.tolist()
                assert scaled[1].tolist() == reject.tolist()

    @pytest.mark.parametrize("lam", [0.05, 0.5, 1.0])
    def test_one_verdict_per_row_at_the_limit(self, lam):
        # the start row z/f = (1 - z)(1 - lambda z) beside 1 - 2 z: one mask
        # entry per row; the recursion admits the start row's simple zero
        # at z = 1 below lambda = 1 and leaves its double zero at lambda = 1
        # to eigvals
        q = atlas.exact_u_denominator(lam, [1.0 + lam, 2.0], [[-1.0], [0.0]])
        accept, reject = atlas._schur_cohn(q)
        assert accept.shape == reject.shape == (2,)
        assert accept.tolist() == [lam < 1.0, False]
        assert reject.tolist() == [False, True]
        _, passed, inner = S._exact_u_chunk(lam, [1.0 + lam], [[-1.0]])
        assert passed.tolist() == [True]
        assert np.isnan(inner).tolist() == [lam < 1.0]

    def test_zero_and_nan_rows_are_undecided(self):
        q = atlas.exact_u_denominator(0.5, [0.3, 0.0, 0.0, 2.0], np.zeros((4, 7)))
        q[1] = 0.0
        q[2] = np.nan
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            accept, reject = atlas._schur_cohn(q)
        # 1 - 0.3 z has its zero outside the disk, 1 - 2 z inside
        assert accept.tolist() == [True, False, False, False]
        assert reject.tolist() == [False, False, False, True]
