"""End-to-end checks of the command-line surface and the README.

Every test drives `main` with an argv list and inspects stdout, stderr, exit
codes, or emitted files; nothing reaches into command internals except the
curve block size, read so that the streaming test spans two blocks, and the
evaluators `verify` calls, counted so that each check samples once per grid.
The README's library quick start is run as written.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import pdmtpt
from pdmtpt import cli
from pdmtpt.cli import _CURVE_BLOCK_ROWS, main
from pdmtpt.numeric_verify import inner_product
from pdmtpt.tpt_extended import (
    ClosedFormWavefunction,
    build_one_param,
    build_two_param,
    closed_form_wavefunction,
    potential_value,
)


def _kv(out: str) -> dict:
    pairs = {}
    for line in out.splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            pairs[key] = value
    return pairs


def _read_curve(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    meta = {}
    for raw in lines[:2]:
        assert raw.startswith("# ")
        for part in raw[2:].split(", "):
            key, _, value = part.partition("=")
            meta[key] = value
    assert lines[2] == "x,V,psi0,psi1"
    data = np.array([[float(t) for t in row.split(",")] for row in lines[3:]])
    return meta, data


def _per_row_curve(path, spec, npoints):
    # the writer as it was before curves were streamed in blocks: whole
    # arrays from np.linspace, one formatted row at a time
    fmt = lambda x: f"{float(x):.17g}"
    df = spec.deforming
    lo, hi = df.domain
    inset = 1e-3 * (hi - lo)
    xs = np.linspace(lo + inset, hi - inset, npoints)
    psi0 = closed_form_wavefunction(spec, 0)
    psi1 = closed_form_wavefunction(spec, 1)
    norm0 = math.sqrt(inner_product(psi0.value, psi0.value, df))
    norm1 = math.sqrt(inner_product(psi1.value, psi1.value, df))
    v = potential_value(spec, xs)
    p0 = psi0.value(xs) / norm0
    p1 = psi1.value(xs) / norm1
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"# family=extended-two, params=m1={spec.m1};m2={spec.m2};"
            f"a_top={fmt(spec.a_top)};b_top={fmt(spec.b_top)};alpha={fmt(spec.alpha)}, "
            f"E0={fmt(spec.e0)}, E1={fmt(spec.e1)}\n"
        )
        fh.write(f"# norm_psi0={fmt(norm0)}, norm_psi1={fmt(norm1)}\n")
        fh.write("x,V,psi0,psi1\n")
        for i in range(npoints):
            fh.write(f"{fmt(xs[i])},{fmt(v[i])},{fmt(p0[i])},{fmt(p1[i])}\n")


# Underflowing wavefunctions: psi0 and psi1 of this well are below the
# smallest double almost everywhere, so their norms vanish.
_UNDERFLOW_WELL = ["--one", "-m", "1", "--atop", "1", "--alpha", "-0.999"]


def _sign_changes(values):
    signs = np.sign(values)
    signs = signs[signs != 0.0]
    return int(np.sum(signs[:-1] * signs[1:] < 0.0))


class TestExact:
    def test_one_param_report(self, capsys):
        rc = main(["exact", "--one", "-A", "2", "--alpha", "-0.5", "--nmax", "2"])
        assert rc == 0
        pairs = _kv(capsys.readouterr().out)
        assert float(pairs["E0"]) == pytest.approx(3.686141, abs=5e-7)
        assert {"E0", "E1", "E2"} <= pairs.keys()
        assert pairs["family"] == "one"

    def test_two_param_undeformed(self, capsys):
        rc = main(["exact", "--two", "-A", "2", "-B", "2", "--alpha", "0", "--nmax", "1"])
        assert rc == 0
        pairs = _kv(capsys.readouterr().out)
        assert float(pairs["E0"]) == pytest.approx(16.0, abs=1e-12)
        assert float(pairs["E1"]) == pytest.approx(36.0, abs=1e-12)

    def test_missing_well_depth_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["exact", "--one", "--alpha", "0.5"])
        assert excinfo.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_two_requires_second_depth(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["exact", "--two", "-A", "2", "--alpha", "0"])
        assert excinfo.value.code == 2

    def test_json_report(self, capsys):
        rc = main(["exact", "--one", "-A", "2", "--alpha", "-0.5", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["family"] == "one"
        assert payload["E0"] == pytest.approx(3.686141, abs=5e-7)
        assert all(not isinstance(v, (list, dict)) for v in payload.values())

    def test_invalid_depth_exits_1(self, capsys):
        rc = main(["exact", "--one", "-A", "0.5", "--alpha", "0"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")


class TestExtend:
    def test_one_param_example(self, capsys):
        rc = main(["extend", "--one", "-m", "1", "--atop", "1", "--alpha", "-0.5"])
        assert rc == 0
        pairs = _kv(capsys.readouterr().out)
        assert float(pairs["E0"]) == pytest.approx(1.1875, abs=1e-12)
        assert float(pairs["E1"]) == pytest.approx(7.1875, abs=1e-12)
        assert float(pairs["A2"]) == pytest.approx(-2.0625, abs=1e-12)
        assert float(pairs["A4"]) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "m2,e0,e1",
        [("1", 34.5, 146.5), ("0", 39.3125, 86.3125)],
        ids=["equal-depth", "missing-inner-ladder"],
    )
    def test_two_param_examples(self, capsys, m2, e0, e1):
        rc = main(
            [
                "extend", "--two", "--m1", "1", "--m2", m2,
                "--atop", "1", "--btop", "1", "--alpha", "0.5",
            ]
        )
        assert rc == 0
        pairs = _kv(capsys.readouterr().out)
        assert float(pairs["E0"]) == pytest.approx(e0, abs=1e-12)
        assert float(pairs["E1"]) == pytest.approx(e1, abs=1e-12)

    def test_gap_lost_in_rounding_is_a_precision_limit(self, capsys):
        argv = ["--two", "--m1", "1", "--m2", "1", "--atop", "1", "--btop", "1e300"]
        rc = main(["extend", *argv, "--alpha", "0", "--check"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: precision limit: the gap")
        assert len(captured.err.splitlines()) == 1

    def test_overflowing_coefficient_is_a_precision_limit(self, capsys):
        # A_2 and A_4 overflow to +-inf on both build paths; their difference is nan
        argv = ["--two", "--m1", "1", "--m2", "1", "--atop", "1e308", "--btop", "1"]
        rc = main(["extend", *argv, "--alpha", "-0.999999"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith(
            "error: precision limit: two-param sec coefficients is inf"
        )
        assert len(captured.err.splitlines()) == 1

    def test_check_flag_reports_discrepancy(self, capsys):
        rc = main(
            ["extend", "--one", "-m", "2", "--atop", "2.5", "--alpha", "0.3", "--check"]
        )
        assert rc == 0
        pairs = _kv(capsys.readouterr().out)
        assert float(pairs["dual_path_max_discrepancy"]) < 1e-6

    def test_json_gap_consistency(self, capsys):
        rc = main(
            [
                "extend", "--two", "--m1", "2", "--m2", "1",
                "--atop", "1.5", "--btop", "0.75", "--alpha", "-0.2", "--json",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["gap"] == pytest.approx(payload["E1"] - payload["E0"], rel=1e-12)
        assert payload["reflected"] is False

    def test_family_flag_conflicts(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["extend", "--one", "--m1", "1", "--atop", "1", "--alpha", "0"])
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["extend", "--two", "--m1", "1", "--m2", "1", "--atop", "1",
                 "--alpha", "0"]
            )
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            main(["extend", "--one", "--atop", "1", "--alpha", "0"])
        assert excinfo.value.code == 2

    def test_invalid_parameters_exit_1(self, capsys):
        rc = main(["extend", "--one", "-m", "1", "--atop", "-1", "--alpha", "0"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_dual_path_disagreement_exits_1(self, capsys):
        # a top coefficient of 1e300 is beyond double precision for the two
        # paths; the disagreement is reported as one error line
        rc = main(
            [
                "extend", "--two", "--m1", "1", "--m2", "1",
                "--atop", "1", "--btop", "1e300", "--alpha", "0.5",
            ]
        )
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["exact", "--one", "-A", "inf", "--alpha", "0"],
        ["exact", "--one", "-A", "2", "--alpha", "inf"],
        ["exact", "--one", "-A", "2", "--alpha", "inf", "--json"],
        ["exact", "--two", "-A", "2", "-B", "nan", "--alpha", "0"],
        ["extend", "--one", "-m", "1", "--atop", "inf", "--alpha", "-0.5"],
        ["extend", "--two", "--m1", "1", "--m2", "0", "--atop", "1",
         "--btop", "inf", "--alpha", "0.5"],
        ["verify", "--one", "-m", "1", "--atop", "1", "--alpha", "nan"],
    ],
    ids=["exact-A", "exact-alpha", "exact-json", "exact-B-nan", "extend-one",
         "extend-two", "verify-nan"],
)
def test_non_finite_parameters_exit_1(argv, capsys):
    rc = main(argv)
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: parameters must be finite")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        # a float ** overflows: Delta's (1 + alpha)^2, the sec sums' (1 + alpha)^k
        ["exact", "--one", "-A", "2", "--alpha", "1e308"],
        ["extend", "--one", "-m", "1", "--atop", "1", "--alpha", "1e308"],
        ["extend", "--one", "-m", "30", "--atop", "1", "--alpha", "-0.999999"],
        # Delta, lam or mu is inf, and E0 is inf - inf
        ["exact", "--one", "-A", "1e200", "--alpha", "0.5"],
        ["exact", "--two", "-A", "2", "-B", "1e308", "--alpha", "0.5"],
    ],
    ids=["exact-delta", "extend-alpha", "extend-deep", "exact-one-nan", "exact-two-nan"],
)
def test_overflowing_closed_forms_are_a_precision_limit(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error: precision limit")
    assert len(captured.err.splitlines()) == 1


class TestVerify:
    def test_figure_spec_passes(self, capsys):
        rc = main(["verify", "--one", "-m", "1", "--atop", "1", "--alpha", "-0.5"])
        out = capsys.readouterr().out
        assert rc == 0
        report_lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
        assert report_lines and all(ln.startswith("PASS") for ln in report_lines)
        assert any("spectral level0" in ln for ln in report_lines)
        assert any("hermiticity" in ln for ln in report_lines)

    def test_two_param_json_payload(self, capsys):
        rc = main(
            [
                "verify", "--two", "--m1", "1", "--m2", "0",
                "--atop", "1", "--btop", "1", "--alpha", "0.5", "--json",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"] is True
        assert payload["spectral_rel_err0"] < 1e-6
        assert payload["spectral_rel_err1"] < 1e-6
        assert payload["nodes_psi0"] == 0 and payload["nodes_psi1"] == 1

    def test_fault_injection_fails(self, capsys):
        rc = main(
            [
                "verify", "--one", "-m", "1", "--atop", "1", "--alpha", "-0.5",
                "-N", "1200", "--override-a2", "-1.0",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert any(ln.startswith("FAIL spectral") for ln in out.splitlines())

    def test_each_check_samples_once_per_grid(self, monkeypatch, capsys):
        # psi: 2 per residual, 1 per node count, 1 for both norms and the
        # overlap, 3 per hermiticity check; V: 3 oracle grids, 1 per residual
        calls = {"psi": 0, "v": 0}

        def counted(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(
            ClosedFormWavefunction, "value", counted("psi", ClosedFormWavefunction.value)
        )
        monkeypatch.setattr(cli, "potential_value", counted("v", potential_value))
        argv = ["--two", "--m1", "1", "--m2", "0", "--atop", "1", "--btop", "1"]
        assert main(["verify", *argv, "--alpha", "0.5", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True
        assert calls["psi"] <= 14
        assert calls["v"] <= 5

    def test_underflowing_norm_is_a_precision_limit(self, capsys):
        # the oracle refuses this cap-dominated well before any norm is
        # taken; TestSample pins the norm's precision limit on it
        rc = main(["verify", *_UNDERFLOW_WELL])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: oracle cannot resolve")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv, grid",
        [
            # pockets at both walls: neither finer grid is certified
            (["--one", "-m", "1", "--atop", "1", "--alpha", "50"], "N=2000"),
            # only the half grid is not certified; the full grid is not solved
            (["--one", "-m", "4", "--atop", "1.601248", "--alpha", "0.693485", "-N", "256"],
             "N=128"),
        ],
        ids=["both-grids", "half-grid"],
    )
    def test_unresolved_well_is_refused(self, argv, grid, capsys):
        rc = main(["verify", *argv])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == f"error: oracle cannot resolve: the {grid} grid is not certified\n"
        assert len(captured.err.splitlines()) == 1


class TestSample:
    def test_csv_round_trip(self, tmp_path):
        out = tmp_path / "curve.csv"
        rc = main(
            [
                "sample", "--two", "--m1", "1", "--m2", "1", "--atop", "1",
                "--btop", "1", "--alpha", "0.5", "--npoints", "301",
                "--out", str(out),
            ]
        )
        assert rc == 0
        meta, data = _read_curve(out)
        assert meta["family"] == "extended-two"
        assert float(meta["E0"]) == pytest.approx(34.5, abs=1e-12)
        assert float(meta["E1"]) == pytest.approx(146.5, abs=1e-12)
        assert data.shape == (301, 4)

        spec = build_two_param(1, 1, 1.0, 1.0, 0.5)
        xs = data[:, 0]
        np.testing.assert_allclose(data[:, 1], potential_value(spec, xs), rtol=1e-9)
        norm0 = float(meta["norm_psi0"])
        norm1 = float(meta["norm_psi1"])
        psi0 = closed_form_wavefunction(spec, 0)
        psi1 = closed_form_wavefunction(spec, 1)
        scale0 = float(np.max(np.abs(data[:, 2])))
        scale1 = float(np.max(np.abs(data[:, 3])))
        np.testing.assert_allclose(
            data[:, 2], psi0.value(xs) / norm0, rtol=1e-9, atol=1e-9 * scale0
        )
        np.testing.assert_allclose(
            data[:, 3], psi1.value(xs) / norm1, rtol=1e-9, atol=1e-9 * scale1
        )
        # the recorded norms really are the closed forms' L2 norms
        assert norm0 == pytest.approx(
            math.sqrt(inner_product(psi0.value, psi0.value, spec.deforming)),
            rel=1e-9,
        )

    def test_blocks_match_the_per_row_writer(self, tmp_path):
        # one full block plus a one-row last block
        npoints = _CURVE_BLOCK_ROWS + 1
        out = tmp_path / "curve.csv"
        rc = main(
            [
                "sample", "--two", "--m1", "1", "--m2", "1", "--atop", "1",
                "--btop", "1", "--alpha", "0.5", "--npoints", str(npoints),
                "--out", str(out),
            ]
        )
        assert rc == 0
        ref = tmp_path / "reference.csv"
        _per_row_curve(ref, build_two_param(1, 1, 1.0, 1.0, 0.5), npoints)
        assert out.read_bytes() == ref.read_bytes()

    def test_underflowing_norm_is_a_precision_limit(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        rc = main(["sample", *_UNDERFLOW_WELL, "--npoints", "11", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error: precision limit")
        assert len(captured.err.splitlines()) == 1
        assert not out.exists()

    def test_unwritable_path_exits_3(self, tmp_path, capsys):
        out = tmp_path / "missing" / "curve.csv"
        rc = main(
            [
                "sample", "--one", "-m", "1", "--atop", "1", "--alpha", "-0.5",
                "--npoints", "11", "--out", str(out),
            ]
        )
        assert rc == 3
        assert "cannot write" in capsys.readouterr().err

    def test_npoints_validation(self):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "sample", "--one", "-m", "1", "--atop", "1", "--alpha", "-0.5",
                    "--npoints", "1", "--out", "unused.csv",
                ]
            )
        assert excinfo.value.code == 2


class TestFigures:
    # header energies, keyed by emitted file
    ENERGIES = {
        "fig1": (1.1875, 7.1875),
        "fig2": (1.1875, 7.1875),
        "fig3": (34.5, 146.5),
        "fig4": (34.5, 146.5),
        "fig5": (39.3125, 86.3125),
        "fig6": (39.3125, 86.3125),
    }

    def test_emits_six_files_with_header_energies(self, tmp_path, capsys):
        rc = main(["figures", "--outdir", str(tmp_path), "--npoints", "401"])
        assert rc == 0
        for name, (e0, e1) in self.ENERGIES.items():
            meta, data = _read_curve(tmp_path / f"{name}.csv")
            assert float(meta["E0"]) == pytest.approx(e0, abs=1e-12)
            assert float(meta["E1"]) == pytest.approx(e1, abs=1e-12)
            assert data.shape == (401, 4)
            assert _sign_changes(data[:, 2]) == 0
            assert _sign_changes(data[:, 3]) == 1

    def test_wall_dominates_first_row(self, tmp_path):
        assert main(["figures", "--outdir", str(tmp_path), "--npoints", "51"]) == 0
        _, data = _read_curve(tmp_path / "fig1.csv")
        assert data[0, 0] == pytest.approx(-math.pi / 2.0 + math.pi * 1e-3, rel=1e-9)
        assert data[0, 1] > 1e3

    def test_json_lists_paths(self, tmp_path, capsys):
        rc = main(["figures", "--outdir", str(tmp_path), "--npoints", "11", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload) == sorted(self.ENERGIES)

    def test_creates_missing_outdir(self, tmp_path):
        outdir = tmp_path / "fresh" / "out"
        assert main(["figures", "--outdir", f"{outdir}/", "--npoints", "11"]) == 0
        want = sorted(f"{name}.csv" for name in self.ENERGIES)
        assert sorted(p.name for p in outdir.iterdir()) == want

    def test_unwritable_outdir_exits_3(self, tmp_path, capsys):
        # no directory can be made beneath a regular file
        blocker = tmp_path / "file"
        blocker.write_text("")
        rc = main(["figures", "--outdir", str(blocker / "out"), "--npoints", "11"])
        assert rc == 3
        assert "cannot write" in capsys.readouterr().err


_README = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md"
)


@pytest.mark.parametrize(
    "argv",
    [
        "exact --one -A 2 --alpha -0.5 --nmax 2",
        "extend --one -m 1 --atop 1 --alpha -0.5 --check",
        "verify --two --m1 1 --m2 0 --atop 1 --btop 1 --alpha 0.5",
    ],
)
def test_readme_example_output(argv, capsys):
    with open(_README, encoding="utf-8") as fh:
        readme = fh.read()
    shown = readme.split(f"$ pdmtpt {argv}\n", 1)[1].split("```", 1)[0]
    assert main(argv.split()) == 0
    assert capsys.readouterr().out == shown


_IMPORT_PATH_PROBE = """
import importlib, json, pkgutil, sys
import pdmtpt
from pdmtpt.cli import main

def loaded():
    # NumPy has executed once its core is imported; a lazy `numpy` entry in
    # sys.modules alone does not count (numpy.core on NumPy 1.x)
    numpy_ran = "numpy._core" in sys.modules or "numpy.core" in sys.modules
    scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    return {"numpy": numpy_ran, "scipy": scipy}

for info in pkgutil.iter_modules(pdmtpt.__path__):
    importlib.import_module("pdmtpt." + info.name)
well = ["--one", "-m", "1", "--atop", "1", "--alpha", "-0.5", "--json"]
seen = {"import": loaded()}
for stage, argv in (
    ("exact", ["exact", "--one", "-A", "2", "--alpha", "-0.5", "--json"]),
    ("extend", ["extend", "--check"] + well),
    ("usage", ["extend", "--one", "--atop", "1", "--alpha", "0"]),
    ("sample", ["sample", "--npoints", "11", "--out", sys.argv[1] + "/curve.csv"] + well),
    ("figures", ["figures", "--npoints", "11", "--outdir", sys.argv[1], "--json"]),
    ("verify", ["verify"] + well),
):
    try:
        main(argv)
    except SystemExit:
        pass
    seen[stage] = loaded()
seen["one_numpy"] = pdmtpt.numeric_verify.np is sys.modules["numpy"]
print(json.dumps(seen))
"""


@pytest.fixture(scope="module")
def import_path(tmp_path_factory):
    # a fresh interpreter, since this test process has imported both already
    src = os.path.dirname(os.path.dirname(os.path.abspath(pdmtpt.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-c", _IMPORT_PATH_PROBE, str(tmp_path_factory.mktemp("probe"))],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert "--one requires -m" in run.stderr
    seen = json.loads(run.stdout.splitlines()[-1])
    one_numpy = seen.pop("one_numpy")
    assert list(seen) == ["import", "exact", "extend", "usage", "sample", "figures", "verify"]
    return seen, one_numpy


def test_scipy_is_loaded_only_by_verify(import_path):
    seen, _ = import_path
    for stage in ("import", "exact", "extend", "usage", "sample", "figures"):
        assert seen[stage]["scipy"] == [], stage
    assert "scipy.linalg" in seen["verify"]["scipy"]
    for stage, modules in seen.items():
        assert "scipy.integrate" not in modules["scipy"], stage


def test_numpy_executes_only_where_arrays_are_evaluated(import_path):
    seen, one_numpy = import_path
    for stage in ("import", "exact", "extend", "usage"):
        assert seen[stage]["numpy"] is False, stage
    for stage in ("sample", "figures", "verify"):
        assert seen[stage]["numpy"] is True, stage
    # the lazy module became the process's one NumPy
    assert one_numpy is True


def test_readme_library_quick_start(capsys):
    # the README's quick start, the one user of the top-level re-exports
    with open(_README, encoding="utf-8") as fh:
        readme = fh.read()
    block = readme.split("## Library quick start\n\n```python\n", 1)[1].split("```", 1)[0]
    assert block.startswith("from pdmtpt import build_two_param, solve_spectrum, potential_value\n")
    exec(block, {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2
    assert printed[0] == "34.5 146.5"
    # the value the README shows beside the print
    assert "# 34.5 146.5" in block
