"""End-to-end checks of the command-line surface and the README.

Every test drives `main` with an argv list and inspects stdout, stderr, exit
codes, or emitted files; nothing reaches into command internals except the
curve writer (its block size, read so that the streaming test spans several
blocks, its row format, its memory peak, its `gram` calls, counted so
that each file takes its norms from one, and its forks and potential
calls, failed, ended or counted so that the command forms every block a
writer does not deliver and no other), the builds and writes of
`figures`, counted so that each well is done once, the evaluators `verify`
calls, counted so that each check samples once per grid, the build's generating
pair, perturbed so that the build must refuse it, the expansion path,
counted so that `extend --check` expands once, the ladder builders, replaced
so that a depth above the bound is refused before any ladder is formed, the
closed-form gap that `extend` prints, and the parser, counted so that one
process builds it once.
The README's library quick start is run as written.
"""

import argparse
import ast
import contextlib
import errno
import io
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings, strategies as st

import pdmtpt
from pdmtpt import cli, tpt_extended
from pdmtpt.cli import _CURVE_BLOCK_ROWS, _MAX_NMAX, _MAX_NPOINTS, build_parser, main
from pdmtpt.dsusy_core import TrigLaurentPoly
from pdmtpt.numeric_verify import gram, inner_product
from pdmtpt.tpt_extended import (
    ClosedFormWavefunction,
    _gap_two,
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
    p0 = psi0.value(xs)[0] / norm0
    p1 = psi1.value(xs)[0] / norm1
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


# the (1, 1) well of `figures` as sample's flags
_TWO_WELL = ["--two", "--m1", "1", "--m2", "1", "--atop", "1", "--btop", "1", "--alpha", "0.5"]


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _one_process_file(tmp_path, monkeypatch, npoints):
    # the bytes of the (1, 1) well's curve file, formed by this process alone
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    path = tmp_path / "one.csv"
    cli._write_curve_file(str(path), build_two_param(1, 1, 1.0, 1.0, 0.5), npoints)
    return path.read_bytes()


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

    def test_nmax_is_bounded(self, capsys):
        argv = ["exact", "--two", "-A", "2", "-B", "3", "--alpha", "0.3", "--json"]
        assert main([*argv, "--nmax", str(_MAX_NMAX)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert f"E{_MAX_NMAX}" in payload and f"E{_MAX_NMAX + 1}" not in payload
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--nmax", str(_MAX_NMAX + 1)])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"pdmtpt exact: error: --nmax must be at most {_MAX_NMAX}\n")

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

    @pytest.mark.parametrize(
        "flags",
        [
            ["--one", "-m", "1", "--atop", "1e308", "--alpha", "0.5"],
            ["--one", "-m", "2", "--atop", "1e308", "--alpha", "3"],
            ["--two", "--m1", "2", "--m2", "1", "--atop", "1e308", "--btop", "1",
             "--alpha", "0.5"],
            ["--two", "--m1", "1", "--m2", "1", "--atop", "1e308", "--btop", "1e308",
             "--alpha", "0.5"],
        ],
        ids=["one-1", "one-2", "two-2-1", "two-1-1"],
    )
    def test_overflow_to_both_infinities_is_a_precision_limit(self, flags, capsys):
        # float products in the expansion (one-1, one-2, two-2-1) or closed-form
        # (two-1-1) sums overflow to -inf and +inf
        rc = main(["extend", "--check", *flags])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == (
            "error: precision limit: a float value overflows double precision\n"
        )

    @pytest.mark.parametrize(
        "flags,err",
        [
            (["--one", "-m", "1001", "--atop", "1", "--alpha", "0.3"],
             "error: m must be at most 1000, got 1001\n"),
            (["--two", "--m1", "1001", "--m2", "0", "--atop", "1", "--btop", "1",
              "--alpha", "0.3"],
             "error: ladder depths must be at most 1000, got (1001, 0)\n"),
            (["--two", "--m1", "0", "--m2", "1001", "--atop", "1", "--btop", "1",
              "--alpha", "0.3"],
             "error: ladder depths must be at most 1000, got (0, 1001)\n"),
        ],
        ids=["m", "m1", "m2"],
    )
    def test_depth_above_the_bound_is_one_error_line(self, flags, err, monkeypatch, capsys):
        def no_ladder(*args):
            raise AssertionError("a ladder was formed before the depth was checked")

        monkeypatch.setattr(tpt_extended, "ladder_table", no_ladder)
        monkeypatch.setattr(tpt_extended, "_w_pair_two", no_ladder)
        assert main(["extend", "--check", *flags]) == 1
        assert capsys.readouterr() == ("", err)

    def test_deepest_one_param_ladder_fails_fast_as_a_precision_limit(self, capsys):
        # (2m+1)!! overflows double precision from about m = 150; formed by
        # running products, the table at the bound costs milliseconds
        argv = ["extend", "--one", "-m", "1000", "--atop", "1", "--alpha", "0.3"]
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            assert main(argv) == 1
            best = min(best, time.perf_counter() - start)
            assert capsys.readouterr() == (
                "", "error: precision limit: a float value overflows double precision\n"
            )
        assert best < 0.1

    @pytest.mark.parametrize("m", ["8", "14"])
    def test_gap_line_is_the_closed_form(self, m, capsys):
        # not E1 - E0, which is off by 8.6e-3 relative at (14, 14)
        argv = ["--m1", m, "--m2", m, "--atop", "1", "--btop", "1", "--alpha", "0.6"]
        assert main(["extend", "--two", *argv]) == 0
        gap = _gap_two(int(m), int(m), 1.0, 1.0, 0.6)
        assert _kv(capsys.readouterr().out)["gap"] == f"{gap:.17g}"

    def test_incompatible_generating_pair_is_one_error_line(self, monkeypatch, capsys):
        w_pair = tpt_extended._w_pair_one

        def perturbed(*args):
            # a tan^3 term in W_minus leaves the ladders, E0 and the
            # coefficients as they were
            w_plus, w_minus = w_pair(*args)
            return w_plus, TrigLaurentPoly(w_minus.lam + (1e-6,))

        monkeypatch.setattr(tpt_extended, "_w_pair_one", perturbed)
        rc = main(["extend", "--one", "-m", "2", "--atop", "1.3", "--alpha", "0.4"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: f W+' - W+ W- is not constant")
        assert len(captured.err.splitlines()) == 1

    def test_check_flag_reports_discrepancy(self, capsys):
        rc = main(
            ["extend", "--one", "-m", "2", "--atop", "2.5", "--alpha", "0.3", "--check"]
        )
        assert rc == 0
        pairs = _kv(capsys.readouterr().out)
        assert float(pairs["dual_path_max_discrepancy"]) < 1e-6

    @pytest.mark.parametrize(
        "flags",
        [
            ["--one", "-m", "2", "--atop", "2.5", "--alpha", "0.3"],
            ["--two", "--m1", "1", "--m2", "2", "--atop", "1.5", "--btop", "0.75",
             "--alpha", "-0.2"],
        ],
        ids=["one", "two-reflected"],
    )
    def test_check_expands_once(self, flags, monkeypatch, capsys):
        # --check prints the discrepancy the build measured; it does not
        # run the expansion path a second time
        calls = []
        for name in ("expand_and_resum_one_param", "expand_and_resum_two_param"):

            def counted(*args, _real=getattr(tpt_extended, name)):
                calls.append(args)
                return _real(*args)

            monkeypatch.setattr(tpt_extended, name, counted)
            monkeypatch.setattr(cli, name, counted)
        assert main(["extend", "--check", *flags]) == 0
        assert "dual_path_max_discrepancy" in _kv(capsys.readouterr().out)
        assert len(calls) == 1

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


@pytest.mark.parametrize("value", ["-1e-3", "-5E-1", "-inf", "-NaN"])
@pytest.mark.parametrize(
    "argv, flag",
    [
        (["exact", "--one", "--alpha", "0.5"], "-A"),
        (["exact", "--two", "-A", "2", "--alpha", "0.5"], "-B"),
        (["exact", "--one", "-A", "2"], "--alpha"),
        (["extend", "--one", "-m", "1", "--alpha", "0.3"], "--atop"),
        (["extend", "--two", "--m1", "1", "--m2", "1", "--atop", "1", "--alpha", "0.3"],
         "--btop"),
        (["verify", "--one", "-m", "1", "--atop", "1", "-N", "256"], "--alpha"),
        (["verify", "--one", "-m", "1", "--atop", "1", "--alpha", "0.3", "-N", "256"],
         "--override-a2"),
    ],
    ids=["exact-A", "exact-B", "exact-alpha", "extend-atop", "extend-btop", "verify-alpha",
         "verify-override-a2"],
)
def test_negative_float_is_a_value_in_either_form(argv, flag, value):
    # argparse's own negative-number pattern has no exponent, inf or nan, so
    # it took such a value for an option: "expected one argument", exit 2;
    # verify read -NaN as its -N option with the value "aN"
    apart = _assert_cli_contract(argv + [flag, value])
    assert apart == _assert_cli_contract(argv + [f"{flag}={value}"])
    assert apart[0] != 2
    if flag == "--atop" and value == "-1e-3":
        assert apart == (1, "", "error: top coefficient must be positive, got -0.001\n")


@pytest.mark.parametrize("grid", [["-N", "256"], ["-N256"], ["--grid-size=256"]])
def test_grid_size_reads_in_every_spelling_next_to_a_nan_value(grid):
    well = ["verify", "--one", "-m", "1", "--atop", "-Inf"]
    for alpha in (["--alpha", "-NaN"], ["--alpha=-nan"]):
        args = build_parser().parse_args(well + alpha + grid)
        assert args.grid_size == 256
        assert args.atop == -math.inf and math.isnan(args.alpha)


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


def _contract_floats(lo: float, hi: float):
    """Parameter texts: half from [lo, hi], where builds succeed, half over
    the whole double range, magnitudes from 5e-324 to 1e308 of either sign,
    the non-finite values, also spelled -NaN, -nan and -Inf, and -0.0.
    `_flag` passes them as one argument, --opt=TEXT, or as two, --opt TEXT."""
    return st.one_of(
        st.floats(min_value=lo, max_value=hi).map(repr),
        st.one_of(
            st.floats(min_value=5e-324, max_value=1e308).map(repr),
            st.floats(min_value=-1e308, max_value=-5e-324).map(repr),
            st.sampled_from(["nan", "inf", "-inf", "-0.0", "-NaN", "-nan", "-Inf"]),
        ),
    )


def _flag(draw, name: str, texts) -> list[str]:
    """name and a drawn value, as one argument name=TEXT or as two."""
    text = draw(texts)
    return [f"{name}={text}"] if draw(st.booleans()) else [name, text]


@st.composite
def _extend_check_argv(draw) -> list[str]:
    top = _contract_floats(0.25, 4.0)
    argv = ["extend", "--check"] + (["--json"] if draw(st.booleans()) else [])
    if draw(st.booleans()):
        argv += ["--one", "-m", str(draw(st.integers(0, 60)))]
    else:
        depths = st.integers(0, 20)
        argv += ["--two", "--m1", str(draw(depths)), "--m2", str(draw(depths)),
                 *_flag(draw, "--btop", top)]
    argv += _flag(draw, "--atop", top)
    return argv + _flag(draw, "--alpha", _contract_floats(-0.8, 0.8))


def _assert_cli_contract(argv):
    """Every input gets a verified answer or one typed line, with exit 0-3.

    A usage error exits 2 through argparse's SystemExit, as the process
    does; every flag drawn carries its value, so none is a missing value.
    Returns the exit code, stdout and stderr.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    assert rc in (0, 1, 2, 3)
    assert "expected one argument" not in err.getvalue()
    if rc == 1 and not out.getvalue():
        [line] = err.getvalue().splitlines()
        assert line.startswith("error:")
    if rc == 0 and "--json" in argv:
        payload = json.loads(out.getvalue())
        assert all(math.isfinite(v) for v in payload.values() if isinstance(v, float))
    return rc, out.getvalue(), err.getvalue()


@seed(2411)
@settings(max_examples=300, deadline=None, database=None)
@given(_extend_check_argv())
def test_extend_check_keeps_the_cli_contract(argv):
    _assert_cli_contract(argv)


@st.composite
def _verify_argv(draw) -> list[str]:
    top = _contract_floats(0.25, 4.0)
    argv = ["verify", "-N", str(draw(st.sampled_from([64, 128, 256, 512, 1024])))]
    argv += ["--json"] if draw(st.booleans()) else []
    if draw(st.booleans()):
        argv += ["--one", "-m", str(draw(st.integers(0, 12)))]
    else:
        depths = st.integers(0, 8)
        argv += ["--two", "--m1", str(draw(depths)), "--m2", str(draw(depths)),
                 *_flag(draw, "--btop", top)]
    argv += _flag(draw, "--atop", top)
    return argv + _flag(draw, "--alpha", _contract_floats(-0.8, 0.8))


@seed(2511)
@settings(max_examples=200, deadline=None, database=None)
@given(_verify_argv())
def test_verify_keeps_the_cli_contract(argv):
    # small grids give the oracle's refined-grid window, and its fallback to
    # the whole interval, their edge cases: windows of a few dozen points,
    # levels near the kinetic scale, wells the quarter grid cannot resolve
    _assert_cli_contract(argv)


@st.composite
def _output_argv(draw) -> list[str]:
    """argv of `sample`, `figures` or `exact`; "{out}" stands for the
    directory an example writes under.  --npoints is small or above its
    bound, and --nmax is small or near its bound."""
    # half of the examples draw every parameter where builds succeed
    in_range = draw(st.booleans())
    floats = lambda lo, hi: st.floats(lo, hi).map(repr) if in_range else _contract_floats(lo, hi)
    top = floats(0.25, 4.0)
    alpha = _flag(draw, "--alpha", floats(-0.8, 0.8))
    command = draw(st.sampled_from(["sample", "figures", "exact"]))
    argv = [command] + (["--json"] if draw(st.booleans()) else [])
    # one in ten out of range
    npoints = f"--npoints={draw(st.sampled_from([*range(2, 41), -1, 0, 1, _MAX_NPOINTS + 1]))}"
    if command == "figures":
        return argv + [f"--outdir={{out}}/{draw(st.sampled_from(['figs', 'a/b']))}", npoints]
    if command == "exact":
        family = draw(st.sampled_from(["--one", "--two"]))
        argv += [family, *_flag(draw, "-A", floats(1.25, 4.0))]
        # -B belongs to --two; one in eight gets it wrong
        if (family == "--two") != (draw(st.integers(0, 7)) == 0):
            argv += _flag(draw, "-B", floats(1.25, 4.0))
        nmax = draw(st.one_of(st.integers(-1, 12), st.integers(9_990, 10_001)))
        return argv + alpha + [f"--nmax={nmax}"]
    if draw(st.booleans()):
        argv += ["--one", "-m", str(draw(st.integers(0, 20)))]
    else:
        depths = st.integers(0, 20)
        argv += ["--two", "--m1", str(draw(depths)), "--m2", str(draw(depths)),
                 *_flag(draw, "--btop", top)]
    # a missing directory and a directory itself are unwritable
    out = draw(st.sampled_from(["curve.csv", "missing/curve.csv", ""]))
    return argv + _flag(draw, "--atop", top) + alpha + [npoints, f"--out={{out}}/{out}"]


def _files_under(root) -> list[str]:
    return sorted(os.path.join(d, f) for d, _, files in os.walk(root) for f in files)


def _data_rows(path) -> list[list[float]]:
    """The CSV rows of a curve file below its two comments and header."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("# ") and lines[1].startswith("# ")
    assert lines[2] == "x,V,psi0,psi1"
    return [[float(cell) for cell in line.split(",")] for line in lines[3:]]


@seed(2611)
@settings(
    max_examples=300, deadline=None, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(_output_argv())
def test_sample_figures_and_exact_keep_the_cli_contract(tmp_path, argv):
    # each example writes under a directory of its own; a command that does
    # not exit 0 leaves no file, and every curve file it writes holds the
    # rows it reports, all finite
    root = tempfile.mkdtemp(dir=tmp_path)
    argv = [arg.replace("{out}", root) for arg in argv]
    rc, out, _ = _assert_cli_contract(argv)
    files = _files_under(root)
    if rc != 0:
        assert files == []
        return
    if argv[0] == "exact":
        nmax = int(argv[-1].partition("=")[2])
        report = json.loads(out) if "--json" in argv else _kv(out)
        assert [k for k in report if k[:1] == "E"] == [f"E{n}" for n in range(nmax + 1)]
        assert all(math.isfinite(float(v)) for k, v in report.items() if k != "family")
        assert files == []
        return
    npoints = int(next(a for a in argv if a.startswith("--npoints=")).partition("=")[2])
    if argv[0] == "figures":
        assert len(files) == 6
    else:
        [path] = files
        rows = json.loads(out)["rows"] if "--json" in argv else int(out.split("(")[1].split()[0])
        assert rows == npoints
    for path in files:
        data = np.array(_data_rows(path))
        assert data.shape == (npoints, 4)
        assert np.all(np.isfinite(data))


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
        for key in ("spectral_rel_err0", "spectral_rel_err1"):
            assert payload[key] < cli.VERIFY_TOLERANCES[key]
        assert payload["nodes_psi0"] == 0 and payload["nodes_psi1"] == 1

    @pytest.mark.parametrize(
        "flags",
        [
            ["--one", "-m", "1", "--atop", "1", "--alpha", "-0.5"],
            ["--two", "--m1", "1", "--m2", "1", "--atop", "1", "--btop", "1",
             "--alpha", "0.5"],
        ],
        ids=["one", "two"],
    )
    def test_fault_injection_fails(self, flags, capsys):
        rc = main(["verify", *flags, "-N", "1200", "--override-a2", "-1.0"])
        out = capsys.readouterr().out
        assert rc == 1
        assert any(ln.startswith("FAIL spectral") for ln in out.splitlines())

    @pytest.mark.parametrize("a2", ["-1e300", "-1e200", "-1e160"])
    def test_overflowing_oracle_solve_is_one_error_line(self, a2, capsys):
        # an A_2 this far below the kinetic scale overflows the refinement's
        # solves; the grid is refused without a NumPy warning
        argv = ["--one", "-m", "1", "--atop", "1", "--alpha", "0.3", "--override-a2", a2]
        rc = main(["verify", *argv])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == "error: oracle cannot resolve: the N=2000 grid is not certified\n"

    @pytest.mark.parametrize(
        "flags,a2",
        [
            (["--one", "-m", "1", "--atop", "1", "--alpha", "0.3"], "-1e305"),
            (["--two", "--m1", "1", "--m2", "1", "--atop", "1", "--btop", "1",
              "--alpha", "0.5"], "-1e308"),
        ],
        ids=["one", "two"],
    )
    def test_overflowing_potential_is_one_error_line(self, flags, a2, capsys):
        # sampling V overflows to -inf; the finiteness check refuses it
        # without a NumPy warning
        rc = main(["verify", *flags, "--override-a2", a2])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == "error: potential is not finite on the inset grid\n"

    def test_tolerances_are_the_benchmarks(self):
        # perfbench/make_pool.py keeps its own copy of verify's tolerances
        path = os.path.join(os.path.dirname(_README), "perfbench", "make_pool.py")
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        [tolerances] = [
            ast.literal_eval(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "TOLERANCES" for t in node.targets)
        ]
        assert tolerances == cli.VERIFY_TOLERANCES

    @pytest.mark.parametrize("grid", ["255", "1002"])
    def test_grid_not_a_multiple_of_4_is_refused(self, grid, capsys):
        # with unequal spacings Richardson's error (2.2e-6 at -N 255) would
        # fail closed forms that pass at -N 256
        argv = ["--one", "-m", "1", "--atop", "1", "--alpha", "-0.5", "-N", grid]
        rc = main(["verify", *argv])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == (
            f"error: grid_size must be a multiple of 4 and at least 64, got {grid}\n"
        )

    def test_grid_above_the_bound_is_refused(self, capsys):
        # only the refusal is run: the bound itself would allocate 2^20-point grids
        argv = ["--one", "-m", "1", "--atop", "1", "--alpha", "-0.5", "-N", "1048577"]
        rc = main(["verify", *argv])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == "error: grid_size must be at most 1048576, got 1048577\n"

    def test_each_check_samples_once_per_grid(self, monkeypatch, capsys):
        # psi0 and psi1 are evaluated together, once per sample set: gram's
        # nested levels up to 8193 points (1025 + 1024 + 2048 + 4096), whose
        # samples the node count reads, then the 263-point Hermiticity set
        # (257 interior points and 6 probes); the residual reads their
        # closed-form log forms once on its 41 samples.  No level is
        # evaluated alone.  V: one sampling for the oracle's three grids,
        # one for the residual
        calls = {"value": [], "log_form": [], "v": 0}

        def counted(name):
            method = getattr(ClosedFormWavefunction, name)

            def wrapped(self, x):
                calls[name].append((len(self.f_exp), np.size(x)))
                return method(self, x)
            return wrapped

        def v_value(spec, x):
            calls["v"] += 1
            return potential_value(spec, x)

        monkeypatch.setattr(ClosedFormWavefunction, "value", counted("value"))
        monkeypatch.setattr(ClosedFormWavefunction, "log_form", counted("log_form"))
        monkeypatch.setattr(cli, "potential_value", v_value)
        argv = ["--two", "--m1", "1", "--m2", "0", "--atop", "1", "--btop", "1"]
        assert main(["verify", *argv, "--alpha", "0.5", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True
        assert calls["value"] == [(2, 1025), (2, 1024), (2, 2048), (2, 4096), (2, 263)]
        assert calls["log_form"] == [(2, 41)]
        assert calls["v"] == 2

    @pytest.mark.parametrize(
        "well",
        [
            ["--m1", "3", "--m2", "3", "--atop", "1.61738", "--btop", "1.07673",
             "--alpha", "-0.437047"],
            ["--m1", "4", "--m2", "1", "--atop", "1.90172", "--btop", "0.317807",
             "--alpha", "-0.269603"],
            ["--m1", "4", "--m2", "1", "--atop", "0.522048", "--btop", "1.1524",
             "--alpha", "-0.683007"],
        ],
        ids=["3-3", "4-1-psi0", "4-1-both"],
    )
    def test_deep_census_wells_pass(self, well, capsys):
        # a 5-point stencil residual failed these closed forms at 1.1e-7 to
        # 6.0e-7; the closed-form derivatives give rounding-level residuals
        assert main(["verify", "--two", *well, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"] is True
        assert max(payload["residual_psi0"], payload["residual_psi1"]) < 1e-10

    def test_underflowing_psi_is_a_norm_precision_limit(self, capsys):
        # psi underflows on most residual samples; the residual, taken in
        # log space, still passes, and the norm reports the limit
        argv = ["--m1", "3", "--m2", "3", "--atop", "2", "--btop", "1", "--alpha", "0.6"]
        rc = main(["verify", "--two", *argv])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: precision limit: the squared norm of psi0 is 0")
        assert len(captured.err.splitlines()) == 1

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
            data[:, 2], psi0.value(xs)[0] / norm0, rtol=1e-9, atol=1e-9 * scale0
        )
        np.testing.assert_allclose(
            data[:, 3], psi1.value(xs)[0] / norm1, rtol=1e-9, atol=1e-9 * scale1
        )
        # the recorded norms really are the closed forms' L2 norms
        g, _ = gram((psi0.value, psi1.value), spec.deforming)
        assert (norm0, norm1) == (math.sqrt(g[0, 0]), math.sqrt(g[1, 1]))

    def test_one_gram_per_curve_file(self, tmp_path, monkeypatch):
        calls = []

        def counted(psis, df):
            out = gram(psis, df)
            calls.append((len(out[1]), out[0]))
            return out

        monkeypatch.setattr(cli, "gram", counted)
        out = tmp_path / "curve.csv"
        info = cli._write_curve_file(str(out), build_one_param(1, 1.0, -0.5), 11)
        [(n, g)] = calls
        assert n == 2
        norms = (math.sqrt(g[0, 0]), math.sqrt(g[1, 1]))
        assert (info["norm_psi0"], info["norm_psi1"]) == norms
        meta, _ = _read_curve(out)
        assert (float(meta["norm_psi0"]), float(meta["norm_psi1"])) == norms

    def test_blocks_match_the_per_row_writer(self, tmp_path):
        # the smallest file, one full block plus a one-row last block, two
        # full blocks, and three and six blocks, which two or more processes
        # form where the CPUs allow
        spec = build_two_param(1, 1, 1.0, 1.0, 0.5)
        for npoints in (
            2, _CURVE_BLOCK_ROWS + 1, 2 * _CURVE_BLOCK_ROWS, 2 * _CURVE_BLOCK_ROWS + 1,
            5 * _CURVE_BLOCK_ROWS + 7,
        ):
            out = tmp_path / f"curve{npoints}.csv"
            rc = main(
                [
                    "sample", "--two", "--m1", "1", "--m2", "1", "--atop", "1",
                    "--btop", "1", "--alpha", "0.5", "--npoints", str(npoints),
                    "--out", str(out),
                ]
            )
            assert rc == 0
            ref = tmp_path / f"reference{npoints}.csv"
            _per_row_curve(ref, spec, npoints)
            assert out.read_bytes() == ref.read_bytes(), npoints

    def test_file_is_the_same_on_any_number_of_processes(self, tmp_path, monkeypatch):
        spec = build_two_param(1, 1, 1.0, 1.0, 0.5)
        # on every usable CPU, then with forking unavailable and on three
        default = tmp_path / "default.csv"
        cli._write_curve_file(str(default), spec, 100_001)
        _assert_no_child_left()
        for cpus in (1, 3):
            monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
            out = tmp_path / f"cpus{cpus}.csv"
            cli._write_curve_file(str(out), spec, 100_001)
            assert out.read_bytes() == default.read_bytes(), cpus
            _assert_no_child_left()

    def test_multi_block_sample_leaves_no_process(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
        out = tmp_path / "curve.csv"
        argv = ["sample", *_TWO_WELL, "--npoints", str(4 * _CURVE_BLOCK_ROWS + 1)]
        assert main([*argv, "--out", str(out)]) == 0
        _assert_no_child_left()
        assert capsys.readouterr() == (f"wrote {out} ({4 * _CURVE_BLOCK_ROWS + 1} rows)\n", "")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device_exits_3_with_one_line(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
        argv = ["sample", *_TWO_WELL, "--npoints", "24577", "--out", "/dev/full"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write /dev/full: ")
        assert len(captured.err.splitlines()) == 1
        _assert_no_child_left()

    @pytest.mark.parametrize(
        "exc, rc",
        [
            (ValueError("raised in block 1"), 1),
            (OverflowError("raised in block 1"), 1),
            (OSError(28, "No space left on device"), 3),
        ],
        ids=["ValueError", "OverflowError", "OSError"],
    )
    def test_error_in_a_writer_is_the_one_line_of_one_process(
        self, tmp_path, monkeypatch, capsys, exc, rc
    ):
        # the potential fails only on block 1, which the first forked writer
        # forms; the command ends as it would if this process formed it
        spec = build_two_param(1, 1, 1.0, 1.0, 0.5)
        lo, hi = spec.deforming.domain
        start, stop = lo + 1e-3 * (hi - lo), hi - 1e-3 * (hi - lo)
        npoints = 3 * _CURVE_BLOCK_ROWS
        step = (stop - start) / (npoints - 1)
        real = cli.potential_value

        def failing(spec, xs):
            if _CURVE_BLOCK_ROWS <= round((xs[0] - start) / step) < 2 * _CURVE_BLOCK_ROWS:
                raise exc
            return real(spec, xs)

        monkeypatch.setattr(cli, "potential_value", failing)
        argv = ["sample", *_TWO_WELL, "--npoints", str(npoints)]
        outcomes = []
        for cpus in (2, 1):
            monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
            outcomes.append((main([*argv, "--out", str(tmp_path / "c.csv")]), capsys.readouterr()))
            _assert_no_child_left()
        (got, captured), in_process = outcomes
        assert (got, captured) == in_process
        assert got == rc
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("death", ["exit-before-first", "killed-after-one"])
    def test_writer_that_dies_leaves_the_whole_file(
        self, tmp_path, monkeypatch, capsys, death
    ):
        # a writer that ends before its first block or after its first one:
        # this process forms what the writer did not deliver
        parent = os.getpid()
        real = cli.potential_value
        calls = []

        def dying(spec, xs):
            if os.getpid() != parent:
                calls.append(len(xs))  # in the writer's own copy of the list
                if death == "exit-before-first":
                    os._exit(9)
                if len(calls) == 2:
                    os.kill(os.getpid(), signal.SIGKILL)
            return real(spec, xs)

        npoints = 6 * _CURVE_BLOCK_ROWS
        one = _one_process_file(tmp_path, monkeypatch, npoints)
        monkeypatch.setattr(cli, "potential_value", dying)
        for cpus in (2, 3):
            monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
            out = tmp_path / f"cpus{cpus}.csv"
            assert main(["sample", *_TWO_WELL, "--npoints", str(npoints), "--out", str(out)]) == 0
            assert capsys.readouterr() == (f"wrote {out} ({npoints} rows)\n", "")
            assert out.read_bytes() == one, cpus
            _assert_no_child_left()

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_healthy_writers_do_their_share(self, tmp_path, monkeypatch, cpus):
        # this process forms only its round-robin share, never every block
        parent = os.getpid()
        real = cli.potential_value
        here = []

        def counted(spec, xs):
            if os.getpid() == parent:
                here.append(len(xs))
            return real(spec, xs)

        monkeypatch.setattr(cli, "potential_value", counted)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        npoints = 6 * _CURVE_BLOCK_ROWS + 1  # seven blocks, the last of one row
        cli._write_curve_file(str(tmp_path / "c.csv"), build_two_param(1, 1, 1.0, 1.0, 0.5), npoints)
        _assert_no_child_left()
        assert len(here) == -(-7 // cpus)

    @pytest.mark.parametrize(
        "cpus, first_failure", [(2, 0), (3, 0), (3, 1)], ids=["2-every", "3-every", "3-second"]
    )
    def test_failed_fork_forms_the_blocks_here(
        self, tmp_path, monkeypatch, capsys, cpus, first_failure
    ):
        # a writer that could not be forked delivers nothing: this process
        # forms its blocks, and the file is the one-process file
        npoints = 6 * _CURVE_BLOCK_ROWS + 1
        one = _one_process_file(tmp_path, monkeypatch, npoints)
        real = os.fork
        forks = []

        def failing_fork():
            forks.append(None)
            if len(forks) > first_failure:
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
            return real()

        monkeypatch.setattr(os, "fork", failing_fork)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        out = tmp_path / "forked.csv"
        assert main(["sample", *_TWO_WELL, "--npoints", str(npoints), "--out", str(out)]) == 0
        assert len(forks) == cpus - 1
        assert capsys.readouterr() == (f"wrote {out} ({npoints} rows)\n", "")
        assert out.read_bytes() == one
        _assert_no_child_left()

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("failing_block", ["0", "2P"])
    def test_error_here_while_writers_stream_is_the_one_line_of_one_process(
        self, tmp_path, monkeypatch, capsys, cpus, failing_block
    ):
        # this process's own block fails while the writers are still sending
        # theirs, each block larger than a pipe holds; a writer blocked on
        # its pipe ends when this process closes the read end
        spec = build_two_param(1, 1, 1.0, 1.0, 0.5)
        lo, hi = spec.deforming.domain
        start, stop = lo + 1e-3 * (hi - lo), hi - 1e-3 * (hi - lo)
        npoints = 8 * _CURVE_BLOCK_ROWS
        step = (stop - start) / (npoints - 1)
        block = 0 if failing_block == "0" else 2 * cpus
        real = cli.potential_value

        def failing(spec, xs):
            if round((xs[0] - start) / step) // _CURVE_BLOCK_ROWS == block:
                raise ValueError(f"raised in block {block}")
            return real(spec, xs)

        monkeypatch.setattr(cli, "potential_value", failing)
        argv = ["sample", *_TWO_WELL, "--npoints", str(npoints)]
        outcomes = []
        for procs in (cpus, 1):
            monkeypatch.setattr(cli, "_usable_cpus", lambda: procs)
            outcomes.append((main([*argv, "--out", str(tmp_path / "c.csv")]), capsys.readouterr()))
            _assert_no_child_left()
        (got, captured), in_process = outcomes
        assert (got, captured) == in_process
        assert got == 1
        assert captured == ("", f"error: raised in block {block}\n")

    def test_reflected_well_says_so(self, tmp_path):
        # (0, 1) is reflected to the canonical (1, 0) well: tops swapped,
        # alpha negated; its rows are those of that well
        reflected, canonical = tmp_path / "reflected.csv", tmp_path / "canonical.csv"
        for path, (m1, m2, atop, btop, alpha) in (
            (reflected, ("0", "1", "1.5", "1", "0.3")),
            (canonical, ("1", "0", "1", "1.5", "-0.3")),
        ):
            argv = ["--m1", m1, "--m2", m2, "--atop", atop, "--btop", btop, "--alpha", alpha]
            assert main(["sample", "--two", *argv, "--npoints", "101", "--out", str(path)]) == 0
        first, *rest = reflected.read_text(encoding="utf-8").splitlines(keepends=True)
        canonical_first, *canonical_rest = canonical.read_text(encoding="utf-8").splitlines(
            keepends=True
        )
        params = "params=m1=1;m2=0;a_top=1;b_top=1.5;alpha=-0.29999999999999999"
        assert f"{params}, " in canonical_first
        assert first == canonical_first.replace(params, f"{params};reflected=True")
        assert rest == canonical_rest

    @pytest.mark.parametrize(
        "x",
        [-0.0, 5e-324, 2.2250738585072014e-308, 0.1, 9.999999999999999e-05, 1e16,
         1e308, -1.5],
    )
    def test_row_format_is_fmt(self, x):
        row = (x, -x, 1.0, x)
        assert cli._CSV_ROW % row == ",".join(map(cli._fmt, row)) + "\n"

    def test_writer_memory_does_not_grow_with_npoints(self, tmp_path):
        spec = build_two_param(1, 1, 1.0, 1.0, 0.5)
        path = str(tmp_path / "curve.csv")

        def peak(npoints):
            tracemalloc.start()
            try:
                cli._write_curve_file(path, spec, npoints)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # untraced, so that one-time lazy imports do not count as the writer's
        cli._write_curve_file(path, spec, 2)
        assert peak(8 * _CURVE_BLOCK_ROWS + 1) <= 1.5 * peak(2 * _CURVE_BLOCK_ROWS + 1)

    def test_underflowing_norm_is_a_precision_limit(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        rc = main(["sample", *_UNDERFLOW_WELL, "--npoints", "11", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error: precision limit")
        assert len(captured.err.splitlines()) == 1
        assert not out.exists()

    def test_ladder_sum_past_the_largest_double_is_not_reported(self, tmp_path, capsys):
        # next to the wall the sec ladder of the reflected (18, 0) well passes
        # the largest double on gram's grid: psi's exponent is -inf there and
        # psi its limit 0.  NumPy's overflow warning went to stderr beside a
        # correct file, and under this suite's warning filter it raised
        out = tmp_path / "curve.csv"
        argv = ["--two", "--m1", "0", "--m2", "18", "--atop", "1", "--btop", "1", "--alpha", "0.5"]
        assert main(["sample", *argv, "--npoints", "5", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == f"wrote {out} (5 rows)\n"
        data = np.array(_data_rows(out))
        assert data.shape == (5, 4) and np.all(np.isfinite(data))
        assert np.all(data[-2:, 2:] == 0.0)

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

    def test_npoints_is_bounded(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "sample", "--one", "-m", "1", "--atop", "1", "--alpha", "-0.5",
                    "--npoints", str(_MAX_NPOINTS + 1), "--out", str(out),
                ]
            )
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f"pdmtpt sample: error: --npoints must be at most {_MAX_NPOINTS}\n")
        assert not out.exists()


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

    def test_npoints_is_bounded(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        with pytest.raises(SystemExit) as excinfo:
            main(["figures", "--outdir", str(outdir), "--npoints", str(_MAX_NPOINTS + 1)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f"pdmtpt figures: error: --npoints must be at most {_MAX_NPOINTS}\n")
        assert not outdir.exists()

    def test_unwritable_outdir_exits_3(self, tmp_path, capsys):
        # no directory can be made beneath a regular file
        blocker = tmp_path / "file"
        blocker.write_text("")
        rc = main(["figures", "--outdir", str(blocker / "out"), "--npoints", "11"])
        assert rc == 3
        assert "cannot write" in capsys.readouterr().err

    def test_empty_outdir_exits_3_naming_no_other_path(self, capsys):
        rc = main(["figures", "--outdir", "", "--npoints", "11"])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("error: cannot write")
        assert len(err.splitlines()) == 1
        assert "/fig1.csv" not in err

    def test_each_well_is_built_normed_and_written_once(self, tmp_path, monkeypatch, capsys):
        calls = []
        for name in ("build_one_param", "build_two_param", "_write_curve_file"):
            real = getattr(cli, name)
            monkeypatch.setattr(
                cli, name,
                lambda *a, _name=name, _real=real: calls.append(_name) or _real(*a),
            )
        assert main(["figures", "--outdir", str(tmp_path), "--npoints", "11"]) == 0
        assert sorted(calls) == (
            ["_write_curve_file"] * 3 + ["build_one_param"] + ["build_two_param"] * 2
        )
        read = lambda name: (tmp_path / f"{name}.csv").read_bytes()
        for first, second in (("fig1", "fig2"), ("fig3", "fig4"), ("fig5", "fig6")):
            assert read(first) == read(second)
        params = {
            "fig1": "m=1;a_top=1;alpha=-0.5",
            "fig3": "m1=1;m2=1;a_top=1;b_top=1;alpha=0.5",
            "fig5": "m1=1;m2=0;a_top=1;b_top=1;alpha=0.5",
        }
        params.update(fig2=params["fig1"], fig4=params["fig3"], fig6=params["fig5"])
        paths = {name: os.path.join(str(tmp_path), f"{name}.csv") for name in sorted(params)}
        assert capsys.readouterr().out == "".join(
            f"wrote {paths[name]} ({params[name]})\n" for name in paths
        )
        assert main(["figures", "--outdir", str(tmp_path), "--npoints", "11", "--json"]) == 0
        assert capsys.readouterr().out == json.dumps(paths) + "\n"


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


# ---------------------------------------------------------------------------
# One parser per process.

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(pdmtpt.__file__)))

_OTHER_OPS = [
    ["exact", "--two", "-A", "2", "-B", "3", "--alpha", "0.3", "--nmax", "3", "--json"],
    ["extend", "--check", "--one", "-m", "2", "--atop", "1", "--alpha", "0.3"],
    ["verify", "--one", "-m", "1", "--atop", "1", "--alpha", "-0.5", "-N", "2000", "--json"],
]

# An argparse usage error, then each line a command prints through its own
# `args.parser.error`, which names the subcommand
_USAGE_ERRORS = [
    ["verify", "--one", "-m", "1", "--atop", "1"],
    ["exact", "--two", "-A", "2", "--alpha", "0"],
    ["exact", "--one", "-A", "2", "-B", "1", "--alpha", "0"],
    ["exact", "--one", "-A", "2", "--alpha", "0", "--nmax", "-1"],
    ["exact", "--one", "-A", "2", "--alpha", "0", "--nmax", str(_MAX_NMAX + 1)],
    ["extend", "--one", "--atop", "1", "--alpha", "0"],
    ["extend", "--one", "-m", "1", "--btop", "1", "--atop", "1", "--alpha", "0"],
    ["verify", "--two", "--m1", "1", "--atop", "1", "--alpha", "0"],
    ["verify", "--two", "-m", "1", "--m1", "1", "--m2", "1", "--atop", "1", "--btop", "1",
     "--alpha", "0"],
    ["sample", "--one", "-m", "1", "--atop", "1", "--alpha", "0", "--npoints", "1",
     "--out", "unused.csv"],
    ["sample", "--one", "-m", "1", "--atop", "1", "--alpha", "0",
     "--npoints", str(_MAX_NPOINTS + 1), "--out", "unused.csv"],
    ["figures", "--npoints", "1"],
    ["figures", "--npoints", str(_MAX_NPOINTS + 1)],
]

_RUN_ARGVS = """
import contextlib, io, json, sys
from pdmtpt.cli import main

out = []
for argv in json.loads(sys.argv[1]):
    o, e = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(o), contextlib.redirect_stderr(e):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    out.append([rc, o.getvalue(), e.getvalue()])
print(json.dumps(out))
"""


def _run_fresh(cwd, *argvs):
    """[rc, stdout, stderr] of each argv, run in order in one fresh interpreter."""
    run = subprocess.run(
        [sys.executable, "-c", _RUN_ARGVS, json.dumps(argvs)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=_SRC),
        cwd=cwd, timeout=120, check=True,
    )
    return json.loads(run.stdout)


def test_usage_errors_read_the_same_after_other_ops(tmp_path):
    first = [_run_fresh(tmp_path, argv)[0] for argv in _USAGE_ERRORS]
    after = _run_fresh(tmp_path, *_OTHER_OPS, *_USAGE_ERRORS)
    assert [rc for rc, _, _ in after[: len(_OTHER_OPS)]] == [0] * len(_OTHER_OPS)
    assert after[len(_OTHER_OPS):] == first
    for argv, (rc, out, err) in zip(_USAGE_ERRORS, first):
        assert (rc, out) == (2, ""), argv
        assert err.startswith(f"usage: pdmtpt {argv[0]} "), argv
        assert err.splitlines()[-1].startswith(f"pdmtpt {argv[0]}: error: "), argv
    assert not (tmp_path / "unused.csv").exists()


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    progs = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(
        argparse.ArgumentParser,
        "__init__",
        lambda self, *a, **k: progs.append(k.get("prog")) or init(self, *a, **k),
    )
    build_parser.cache_clear()
    for argv in _OTHER_OPS * 2:
        assert main(argv) == 0
    for argv in _USAGE_ERRORS[:3]:
        with pytest.raises(SystemExit):
            main(argv)
    capsys.readouterr()
    # the top-level parser and one subparser per command, each built once
    assert progs.count("pdmtpt") == 1
    assert len(progs) == 6
    assert build_parser() is build_parser()


def test_defaults_do_not_leak_between_calls(monkeypatch, capsys):
    grids = []
    solve = cli.solve_spectrum
    monkeypatch.setattr(
        cli, "solve_spectrum", lambda *a, **k: grids.append(k["grid_size"]) or solve(*a, **k)
    )
    well = ["--one", "-m", "1", "--atop", "1", "--alpha", "-0.5"]
    assert main(["verify", *well, "-N", "2000", "--json", "--override-a2", "-2.0625"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True
    assert main(["verify", *well]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS spectral level0: ")
    assert grids == [2000, 4000]
    assert main(["extend", "--check", *well]) == 0
    assert "dual_path_max_discrepancy=" in capsys.readouterr().out
    assert main(["extend", *well]) == 0
    assert "dual_path_max_discrepancy" not in capsys.readouterr().out


def test_command_is_looked_up_when_main_calls_it(monkeypatch, capsys):
    # the benchmark's tracer wraps cmd_* on the module after the parser is
    # cached; the wrapper must be what runs
    build_parser()
    seen = []
    extend = cli.cmd_extend
    monkeypatch.setattr(cli, "cmd_extend", lambda args: seen.append(args.m) or extend(args))
    assert main(["extend", "--one", "-m", "2", "--atop", "1", "--alpha", "0.3"]) == 0
    assert seen == [2]
    assert capsys.readouterr().out.startswith("family=extended-one\n")


_LOAD_ORDER_PROBE = """
import json, math, sys
from pdmtpt._lazy import lapack
from pdmtpt.cli import main

rc = main(["verify", "--one", "-m", "1", "--atop", "1", "--alpha", "-0.5", "-N", "2000", "--json"])
package_before = "scipy.linalg" in sys.modules
import numpy as np
import scipy.linalg

w = scipy.linalg.eigvalsh_tridiagonal(np.full(5, 2.0), np.full(4, -1.0))
print(json.dumps({
    "rc": rc,
    "package_before": package_before,
    "same": [scipy.linalg.lapack.dgtsv is lapack().dgtsv,
             scipy.linalg.lapack.dstebz is lapack().dstebz],
    "w": w.tolist(),
}))
"""


def test_scipy_linalg_imports_after_verify():
    # verify registers SciPy's LAPACK module alone; the package imported
    # later adopts that module and works
    run = subprocess.run(
        [sys.executable, "-c", _LOAD_ORDER_PROBE],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=_SRC),
        timeout=120, check=True,
    )
    seen = json.loads(run.stdout.splitlines()[-1])
    assert seen["rc"] == 0
    assert seen["package_before"] is False
    assert seen["same"] == [True, True]
    exact = [2.0 - 2.0 * math.cos(k * math.pi / 6.0) for k in range(1, 6)]
    np.testing.assert_allclose(seen["w"], exact, rtol=0.0, atol=1e-14)


# A pool well whose oracle levels, summed by BLAS, moved in their last
# digits with the BLAS thread count
_THREAD_PROBE_WELL = ["verify", "--json", "--one", "-m", "2", "--atop", "1.754147",
                      "--alpha", "0.791842", "-N", "16000"]


def test_verify_output_does_not_depend_on_blas_threads():
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=_SRC, OPENBLAS_NUM_THREADS=threads)
        run = subprocess.run(
            [sys.executable, "-m", "pdmtpt.cli", *_THREAD_PROBE_WELL],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        outs.append(run.stdout)
    assert json.loads(outs[0])["pass"] is True
    assert outs[0] == outs[1]


def test_closed_standard_output_is_one_error_line():
    # about 300 KB, more than a pipe holds, so the writer is still printing
    # when the reader closes the pipe
    argv = ["exact", "--one", "-A", "2", "--alpha", "-0.5", "--nmax", "10000"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "pdmtpt.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=_SRC),
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 3
    assert err.startswith("error: cannot write standard output: ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err and "Exception ignored" not in err


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

modules = [pdmtpt] + [
    importlib.import_module("pdmtpt." + info.name)
    for info in pkgutil.iter_modules(pdmtpt.__path__)
]
# every name a module exports, resolved before the "import" stage is recorded
stale = [
    f"{module.__name__}.{name}"
    for module in modules
    for name in getattr(module, "__all__", ())
    if not hasattr(module, name)
]
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
seen["stale"] = stale
print(json.dumps(seen))
"""


@pytest.fixture(scope="module")
def import_path(tmp_path_factory):
    # a fresh interpreter, since this test process has imported both already
    env = dict(os.environ, PYTHONPATH=_SRC)
    run = subprocess.run(
        [sys.executable, "-c", _IMPORT_PATH_PROBE, str(tmp_path_factory.mktemp("probe"))],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert "--one requires -m" in run.stderr
    seen = json.loads(run.stdout.splitlines()[-1])
    one_numpy = seen.pop("one_numpy")
    stale = seen.pop("stale")
    assert list(seen) == ["import", "exact", "extend", "usage", "sample", "figures", "verify"]
    return seen, one_numpy, stale


def test_every_exported_name_resolves(import_path):
    # resolving them is part of the "import" stage, which executes no NumPy
    seen, _, stale = import_path
    assert stale == []
    assert seen["import"]["numpy"] is False


def test_scipy_is_loaded_only_by_verify(import_path):
    seen, _, _ = import_path
    for stage in ("import", "exact", "extend", "usage", "sample", "figures"):
        assert seen[stage]["scipy"] == [], stage
    # the oracle loads SciPy's compiled LAPACK module by itself, and never
    # the scipy.linalg package, whose __init__ imports far more
    assert "scipy.linalg._flapack" in seen["verify"]["scipy"]
    for stage, modules in seen.items():
        assert "scipy.linalg" not in modules["scipy"], stage
        assert "scipy.integrate" not in modules["scipy"], stage


def test_numpy_executes_only_where_arrays_are_evaluated(import_path):
    seen, one_numpy, _ = import_path
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
