import hashlib
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from logcoef import atlas, membership, search, verify
from logcoef.cli import (
    _build_parser,
    _parse_grid,
    curve_csv,
    curve_points,
    curve_svg,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLi2Command:
    def test_value(self, capsys):
        code, out, _ = run_cli(capsys, "li2", "1.0")
        assert code == 0
        assert float(out.strip()) == pytest.approx(math.pi**2 / 6, abs=1e-14)

    def test_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "li2", "2.0")
        assert code == 2
        assert "error" in err


class TestGammaCommand:
    def test_values(self, capsys):
        code, out, _ = run_cli(capsys, "gamma", "g_lambda(lambda=0.5)", "2")
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert rows == [
            {"n": 1, "re": 0.75, "im": 0.0},
            {"n": 2, "re": 0.3125, "im": 0.0},
        ]

    @pytest.mark.parametrize(
        "spec",
        ["koebe(theta=0.0)", "f_lambda(lambda=0.5)", "k_alpha(alpha=0.3)", "g_family(n=3)"],
    )
    def test_lines_are_the_json_dumps_bytes(self, capsys, spec):
        """Each line is json.dumps of {"n", "re", "im"}; koebe(theta=0.0)
        has a -0.0 imaginary part and k_alpha and g_family take the series
        route of log_coefficients."""
        gammas = verify.log_coefficients(atlas.parse_spec(spec), 300).gammas
        want = "".join(
            json.dumps({"n": i, "re": g.real, "im": g.imag}) + "\n"
            for i, g in enumerate(gammas, start=1)
        )
        code, out, _ = run_cli(capsys, "gamma", spec, "300")
        assert code == 0
        assert out == want
        if spec == "koebe(theta=0.0)":
            assert '"im": -0.0}' in out

    def test_parse_error(self, capsys):
        code, _, err = run_cli(capsys, "gamma", "g_lambda(lambda=2)", "2")
        assert code == 2

    def test_non_finite_integer_is_a_parse_error(self, capsys):
        code, out, err = run_cli(capsys, "gamma", "g_family(n=1e400)", "4")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "n must be an integer" in err


def test_option_defaults_are_the_module_defaults():
    parser = _build_parser()
    args = parser.parse_args(["verify"])
    assert _parse_grid(args.lambda_grid) == verify.DEFAULT_LAMBDA_GRID
    assert _parse_grid(args.alpha_grid) == verify.DEFAULT_ALPHA_GRID
    assert args.order == verify.DEFAULT_ORDER
    args = parser.parse_args(["member", "f0()", "starlike"])
    assert _parse_grid(args.radii) == membership.DEFAULT_RADII
    assert args.samples == membership.DEFAULT_SAMPLES


def test_main_runs_repeatedly_in_one_process(capsys):
    """One parser serves every call, a call that argparse rejects leaves
    no state behind, and each command prints what its first call did."""
    assert _build_parser() is _build_parser()
    commands = [
        ("li2", "0.5"),
        ("member", "f_lambda(lambda=0.5)", "ulambda", "--threshold", "0.5"),
        ("verify", "--order", "64"),
    ]
    first = [run_cli(capsys, *argv) for argv in commands]
    for rejected in (["member", "f0()", "convex"], ["verify", "--order", "x"]):
        with pytest.raises(SystemExit) as exit_info:
            main(rejected)
        assert exit_info.value.code == 2
        capsys.readouterr()
        assert [run_cli(capsys, *argv) for argv in commands] == first
    grid = (membership.DEFAULT_RADII, membership.DEFAULT_SAMPLES)
    z = membership._sample_points(*grid)
    assert not z.flags.writeable
    assert z is membership._sample_points(*grid)
    assert np.array_equal(z, membership._sample_points.__wrapped__(*grid))


class TestMemberCommand:
    def test_f1_fails_starlike(self, capsys):
        code, out, _ = run_cli(capsys, "member", "f1()", "starlike", "--threshold", "0")
        assert code == 0
        row = json.loads(out)
        assert row["verdict"] == "fail"

    def test_f_lambda_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "member", "f_lambda(lambda=0.5)", "ulambda", "--threshold", "0.5"
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"

    @pytest.mark.parametrize("beta", ["nan", "inf"])
    def test_non_finite_beta_is_an_input_error(self, capsys, beta):
        code, out, err = run_cli(
            capsys, "member", "koebe()", "starlike", "--threshold", beta
        )
        assert (code, out) == (2, "")
        assert err == "error: beta must be finite\n"

    def test_pole_inside_the_disk_fails(self, capsys):
        cases = [
            ("rational(num=[0,1], den=[1,-3])", "0.333333"),
            # an exact_u search winner (lambda = 0.05): its pole lies between
            # the largest sampled radius 0.999 and the circle
            (
                "exact_u(lambda=0.05, a2=1.05, "
                "psi=[-0.9838420111968765-0.17903881423893905i])",
                "0.999014",
            ),
        ]
        for spec, modulus in cases:
            code, out, _ = run_cli(capsys, "member", spec, "ulambda")
            assert code == 0
            row = json.loads(out)
            assert row["verdict"] == "fail"
            assert row["note"] == f"f has a pole of modulus {modulus} inside the disk"


def test_tiny_leading_coefficient_keeps_small_roots(capsys):
    # atlas.min_root_modulus reads the roots' reciprocals from z^d q(1/z),
    # so a tiny or subnormal q_d neither hides the roots near the circle
    # nor overflows the companion matrix
    q = atlas.superset_denominator(0.5, [0.5, 1e-50])
    assert atlas.min_root_modulus(q[None, :])[0] == pytest.approx(2.0, rel=1e-12)
    assert search.validate_exact_u(0.5, 0, [0.1, 1e-60]).validated
    for spec in ("schwarz_superset(lambda=0.5, omega=[0.5,1e-50])",
                 "rational(num=[0,1], den=[1,0,1e-320])"):
        code, out, _ = run_cli(capsys, "member", spec, "ulambda")
        assert code == 0 and json.loads(out)["verdict"] == "pass"
    code, out, _ = run_cli(capsys, "search", "--lambda", "1e-310", "--n", "3", "--family", "exact_u")
    assert code == 0 and json.loads(out)["margin"] == 0.0


class TestRenderCommand:
    def test_csv_rows(self, capsys, tmp_path):
        out_file = tmp_path / "curve.csv"
        code, _, _ = run_cli(
            capsys,
            "render",
            "koebe(theta=0)",
            "--r",
            "0.9",
            "--m",
            "16",
            "--format",
            "csv",
            "--out",
            str(out_file),
        )
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "theta,re,im"
        assert len(lines) == 17
        theta0 = lines[1].split(",")
        assert float(theta0[0]) == 0.0
        assert float(theta0[1]) == pytest.approx(0.9 / 0.01, abs=1e-9)

    def test_svg_single_path(self, capsys, tmp_path):
        out_file = tmp_path / "curve.svg"
        code, _, _ = run_cli(
            capsys,
            "render",
            "f_lambda(lambda=0.5)",
            "--r",
            "0.99",
            "--m",
            "256",
            "--format",
            "svg",
            "--out",
            str(out_file),
        )
        assert code == 0
        root = ET.fromstring(out_file.read_text())
        paths = [e for e in root.iter() if e.tag.endswith("path")]
        assert len(paths) == 1
        assert paths[0].attrib["d"].endswith("Z")

    def test_boundary_radius_rejected(self, capsys):
        code, _, err = run_cli(capsys, "render", "f0()", "--r", "1.0")
        assert code == 2

    def test_bad_spec_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "render", "nope()")
        assert code == 2

    def test_deterministic_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        for target in (a, b):
            run_cli(
                capsys,
                "render",
                "g_lambda(lambda=0.5)",
                "--format",
                "svg",
                "--m",
                "128",
                "--out",
                str(target),
            )
        assert a.read_bytes() == b.read_bytes()


class TestCurveGeometry:
    def test_closed_curve(self):
        spec = atlas.f_lambda(0.5)
        start = atlas.eval_at(spec, 0.9 * np.exp(0j))
        end = atlas.eval_at(spec, 0.9 * np.exp(2j * math.pi))
        assert abs(start - end) <= 1e-12

    def test_point_count_and_finiteness(self):
        pts = curve_points(atlas.f_lambda(0.25), 0.999, 64)
        assert pts.size == 64
        assert np.all(np.isfinite(pts))

    def test_min_samples(self):
        with pytest.raises(ValueError):
            curve_points(atlas.f0(), 0.9, 8)

    def test_csv_header(self):
        text = curve_csv(curve_points(atlas.f0(), 0.5, 16))
        assert text.splitlines()[0] == "theta,re,im"

    @pytest.mark.parametrize("m", [1, 3, 2048])
    def test_csv_bytes(self, m):
        # the cached theta column gives the bytes of the inline formula,
        # on a first render and on a repeat
        rng = np.random.default_rng(m)
        points = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        want = "theta,re,im\n" + "".join(
            f"{2.0 * math.pi * k / m!r},{float(z.real)!r},{float(z.imag)!r}\n"
            for k, z in enumerate(points)
        )
        assert curve_csv(points) == want
        assert curve_csv(points) == want

    @pytest.mark.parametrize("lam", [0.25, 0.5, 0.75, 1.0])
    def test_figure_curves_render(self, lam):
        # qualitative reproduction: one closed SVG path per family member
        pts = curve_points(atlas.f_lambda(lam), 0.999, 512)
        svg = curve_svg(pts)
        root = ET.fromstring(svg)
        paths = [e for e in root.iter() if e.tag.endswith("path")]
        assert len(paths) == 1

    def test_one_series_per_curve(self, monkeypatch):
        # the route is chosen once per curve, not once per point
        calls = []
        original = atlas.fz_series

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(atlas, "fz_series", counted)
        curve_points(atlas.g_family(5), 0.9, 64)
        assert len(calls) == 1


# sha256 of the stdout of `render <spec> --m 256` (csv and svg) and of
# `member <spec> <class>` (all three classes), one spec per function kind
# plus the alpha = 1/2 branch of k_alpha; written once by the per-point
# eval_at route, then re-recorded once, deliberately, when render and the
# three membership functionals moved onto the registry's pointwise f/z, f'
# and f''/f': the last bits of points and `measured` moved (render at most
# 7.3e-12 relative per point, `measured` outside g_family at most 6.7e-16),
# and g_family's U and z f'/f now carry the f/z series tail instead of their
# own series' tails.  The g_family(n=5) csv, ulambda and starlike digests
# were re-recorded once more when g_family's f/z series moved to its
# closed-form coefficients and its tail to one formula: 7 of 256 csv points
# moved, by at most 7.5e-16 relative, `measured` kept its bits and the tail
# fell about 7x.  Never regenerate them otherwise
RENDER_MEMBER_GOLDEN = Path(__file__).parent / "data" / "render_member_sha256.jsonl"


def _render_member_cases():
    rows = [json.loads(line) for line in RENDER_MEMBER_GOLDEN.read_text().splitlines()]
    return [
        pytest.param(row["argv"], row["sha256"], id=" ".join(row["argv"]))
        for row in rows
    ]


@pytest.mark.parametrize("argv,digest", _render_member_cases())
def test_render_member_bytes(capsys, argv, digest):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of stdout, the stderr line and the exit code of `logcoef verify`,
# written once by the code before the suite's assembly was rewritten (orders
# 2048 and 4096: before the series recurrences were rewritten), then
# re-recorded once, deliberately, for every grid with a g_family or k_alpha
# row that moved when their series (and G_alpha, read from k_alpha's) moved
# to closed-form coefficients: at most 4 rows per report, each by at most
# 1.1e-15 relative, none changing status; and once more when every row
# gained its `route` field and the gammas of rational specs moved to the
# power sums of their (A, B) parts (g_family's to a log in z^n): at most 21
# rows per report, |lhs change| at most 2.0e-12 (Koebe's n |gamma_n|, now
# exactly 1), none changing status.  Never regenerate them otherwise; a
# mismatch means the report bytes changed
VERIFY_GOLDEN = [
    (
        ("--order", "128"),
        "69d9c432e5c1c7c569652f14d0ebaa1bf979bd79848529f1dddd9a698825f115",
        "346 checks, 0 violated\n",
        0,
    ),
    (
        ("--order", "1024"),
        "d8360b06a0b51c8c8ee0ef8cc9a4b5dbd082850a4034c0a7d10c0c0f07aef196",
        "346 checks, 0 violated\n",
        0,
    ),
    (
        ("--order", "2048"),
        "b39075a13b2fde2d8ef6674ce46bdd3ecd73a2998a20c5a13ee68fa19094e2f9",
        "346 checks, 0 violated\n",
        0,
    ),
    (
        ("--order", "4096"),
        "5f4803d61c96ac5111900fb91e2ae505ce121972f4c36f471126f5f0ea004f8b",
        "346 checks, 0 violated\n",
        0,
    ),
    (
        ("--lambda-grid", "0.5", "--alpha-grid", "0.0,0.5,0.37765"),
        "91a770c41bf06bdb87191a600d5fe971dbfb4779b7674404a67ed2b4479202c9",
        "42 checks, 0 violated\n",
        0,
    ),
    (
        ("--lambda-grid", "0.3,0.7", "--alpha-grid", "0.25", "--order", "64"),
        "afcdcafb6af0bd756e7d92e35dfe72f81bf3e63193d736ef0876f83e81fba38b",
        "59 checks, 0 violated\n",
        0,
    ),
]


class TestVerifyGoldenReports:
    @pytest.mark.parametrize(
        "argv,digest,err_line,exit_code",
        VERIFY_GOLDEN,
        ids=[
            "default-128",
            "default-1024",
            "default-2048",
            "default-4096",
            "alpha-anchors",
            "small-64",
        ],
    )
    def test_report_bytes(self, capsys, argv, digest, err_line, exit_code):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert err == err_line
        assert code == exit_code


class TestVerifyCommand:
    def test_clean_run(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, _, err = run_cli(
            capsys,
            "verify",
            "--lambda-grid",
            "0.5,1.0",
            "--alpha-grid",
            "1.0",
            "--out",
            str(out_file),
        )
        assert code == 0
        checks = json.loads(out_file.read_text())
        assert isinstance(checks, list)
        assert all(c["status"] != "violated" for c in checks)
        for row in checks:
            assert set(row) == {
                "name",
                "params",
                "lhs",
                "rhs",
                "slack",
                "status",
                "N",
                "tail_bound",
                "route",
            }
        sharp = [c for c in checks if c["name"] == "log_l2_sharp_ulambda"]
        assert sharp and all(c["status"] == "equality" for c in sharp)

    def test_out_of_range_input_exit_code(self, capsys, tmp_path):
        # bad input is a configuration error (exit 2), not a violated row
        out_file = tmp_path / "report.json"
        for argv in (
            ("--lambda-grid", "2.0"),
            ("--alpha-grid", "1.5"),
            ("--order", "0"),
        ):
            code, out, err = run_cli(capsys, "verify", *argv, "--out", str(out_file))
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and "must" in err
            assert not out_file.exists()

    def test_internal_failure_exit_code(self, capsys, monkeypatch):
        def broken(lam, t):
            raise RuntimeError("boom")

        monkeypatch.setattr(verify, "sharpness_terms", broken)
        code, out, err = run_cli(
            capsys, "verify", "--lambda-grid", "0.5", "--alpha-grid", "1.0"
        )
        assert code == 3
        rows = json.loads(out)
        errors = [row for row in rows if row["status"] == "error"]
        assert [row["name"] for row in errors] == ["lambda_block"]
        assert errors[0]["params"]["error"] == "RuntimeError: boom"
        assert err == f"{len(rows)} checks, 0 violated, 1 errored\n"

    def test_malformed_grid(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--lambda-grid", "0.5,abc")
        assert code == 2
        assert "malformed" in err

    def test_deterministic_report(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            run_cli(
                capsys,
                "verify",
                "--lambda-grid",
                "0.5",
                "--alpha-grid",
                "0.5",
                "--out",
                str(target),
            )
        assert a.read_bytes() == b.read_bytes()


class TestSearchCommand:
    def test_record_file(self, capsys, tmp_path):
        out_file = tmp_path / "records.jsonl"
        code, out, _ = run_cli(
            capsys,
            "search",
            "--lambda",
            "0.5",
            "--n",
            "3",
            "--family",
            "superset",
            "--budget",
            "300",
            "--seed",
            "7",
            "--out",
            str(out_file),
        )
        assert code == 0
        row = json.loads(out_file.read_text())
        assert 1.75 - 1e-12 <= row["achieved"] <= 1.75 + 1e-9
        assert json.loads(out.strip()) == row

    def test_reproducible_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for target in (a, b):
            run_cli(
                capsys,
                "search",
                "--lambda",
                "0.7",
                "--n",
                "5",
                "--budget",
                "200",
                "--seed",
                "42",
                "--out",
                str(target),
            )
        assert a.read_bytes() == b.read_bytes()

    def test_config_error(self, capsys):
        code, _, _ = run_cli(capsys, "search", "--lambda", "0.5", "--n", "1")
        assert code == 2
