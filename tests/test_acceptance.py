"""Acceptance gate: the seven shipping criteria, one test and one report
line each.

Run `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines with
their measured margins.  Each test re-derives everything it needs so the
gate stands on its own.
"""

import math
from fractions import Fraction
from time import perf_counter

import numpy as np

from pdmtpt.cli import main as cli_main
from pdmtpt.dsusy_core import compatibility_gap
from pdmtpt.numeric_verify import (
    count_nodes,
    hermiticity_boundary_check,
    inner_product,
    interior_samples,
    residual,
    solve_spectrum,
)
from pdmtpt.combinatorics import ladder_table
from pdmtpt.tpt_exact import (
    ExactOneParam,
    ExactTwoParam,
    energy_one_param,
    energy_two_param,
)
from pdmtpt.tpt_extended import (
    ExtendedOneParamSpec,
    _w_pair_one,
    _w_pair_two,
    build_one_param,
    build_two_param,
    closed_form_wavefunction,
    expand_and_resum_one_param,
    expand_and_resum_two_param,
    potential_value,
)
from references import (
    laurent_derivative,
    laurent_value,
    potential_one_param,
    potential_two_param,
    stencil_residual,
    wavefn_one_param,
    wavefn_two_param,
)

_ANCHORS = (
    (Fraction(19, 16), Fraction(115, 16)),
    (Fraction(69, 2), Fraction(293, 2)),
    (Fraction(629, 16), Fraction(1381, 16)),
)


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {label} ({detail})")
    assert ok, f"criterion {num}: {label} ({detail})"


def _figure_specs():
    return (
        build_one_param(1, 1.0, -0.5),
        build_two_param(1, 1, 1.0, 1.0, 0.5),
        build_two_param(1, 0, 1.0, 1.0, 0.5),
    )


def _es_baselines():
    return (
        (ExactOneParam(2.0, -0.5), energy_one_param, potential_one_param, wavefn_one_param),
        (ExactOneParam(2.0, 0.0), energy_one_param, potential_one_param, wavefn_one_param),
        (ExactTwoParam(2.0, 2.0, 0.0), energy_two_param, potential_two_param, wavefn_two_param),
        (ExactTwoParam(2.0, 2.0, 0.5), energy_two_param, potential_two_param, wavefn_two_param),
    )


def _sweep_cases():
    # the criterion-3 draw set; criterion 4 reuses it verbatim
    out = []
    for m in (1, 2, 3, 4):
        rng = np.random.default_rng(300 + m)
        for _ in range(20):
            out.append(
                ("one", (m, float(rng.uniform(0.25, 4.0)), float(rng.uniform(-0.8, 0.8))))
            )
    for m1, m2 in ((1, 1), (2, 1), (2, 2), (3, 1), (1, 0), (2, 0)):
        rng = np.random.default_rng(330 + 10 * m1 + m2)
        for _ in range(20):
            out.append(
                (
                    "two",
                    (
                        m1,
                        m2,
                        float(rng.uniform(0.25, 4.0)),
                        float(rng.uniform(0.25, 4.0)),
                        float(rng.uniform(-0.8, 0.8)),
                    ),
                )
            )
    return out


def test_criterion_1_anchor_energies():
    t0 = perf_counter()
    worst = 0.0
    for spec, (e0, e1) in zip(_figure_specs(), _ANCHORS):
        worst = max(worst, abs(spec.e0 - float(e0)), abs(spec.e1 - float(e1)))
    ms = (perf_counter() - t0) * 1e3
    _report(
        1,
        "exact anchor energies from the closed forms",
        worst < 1e-12 and ms < 500.0,
        f"max |dE| = {worst:.2e}, {ms:.1f} ms",
    )


def test_criterion_2_oracle_spectral_agreement():
    t0 = perf_counter()
    worst = 0.0
    for spec in _figure_specs():
        ns = solve_spectrum(
            lambda x: potential_value(spec, x), spec.deforming, n_levels=2,
            grid_size=4000,
        )
        for level, closed in ((0, spec.e0), (1, spec.e1)):
            worst = max(worst, abs(ns.eigenvalues[level] - closed) / abs(closed))
    for p, energy_fn, pot_fn, _ in _es_baselines():
        ns = solve_spectrum(
            lambda x: pot_fn(p, x), p.deforming, n_levels=5, grid_size=4000
        )
        for n in range(5):
            closed = energy_fn(p, n)
            worst = max(worst, abs(ns.eigenvalues[n] - closed) / abs(closed))
    elapsed = perf_counter() - t0
    _report(
        2,
        "numeric spectra match closed forms at N=4000",
        worst < 1e-6 and elapsed < 10.0,
        f"max rel err = {worst:.2e}, {elapsed:.2f} s",
    )


def test_criterion_3_dual_path_coefficients():
    t0 = perf_counter()
    worst = 0.0
    for family, params in _sweep_cases():
        if family == "one":
            spec = build_one_param(*params)
            e0x, ax = expand_and_resum_one_param(*params)
            closed = (spec.e0,) + spec.a_coeffs
            expanded = (e0x,) + tuple(ax)
        else:
            spec = build_two_param(*params)
            e0x, ax, bx = expand_and_resum_two_param(*params)
            closed = (spec.e0,) + spec.a_coeffs + spec.b_coeffs
            expanded = (e0x,) + tuple(ax) + tuple(bx)
        scale = max(1.0, max(abs(c) for c in closed))
        worst = max(
            worst, max(abs(c - e) for c, e in zip(closed, expanded)) / scale
        )
    elapsed = perf_counter() - t0
    _report(
        3,
        "closed-form and expansion paths agree over the sweep",
        worst < 1e-8 and elapsed < 5.0,
        f"max rel discrepancy = {worst:.2e}, 200 builds in {elapsed:.2f} s",
    )


def _generating_pair(spec):
    """(W_plus, W_minus) of a built spec, canonical as the build makes it."""
    sa = math.sqrt(spec.a_top)
    if isinstance(spec, ExtendedOneParamSpec):
        return _w_pair_one(spec.m, sa, spec.alpha, ladder_table(spec.m))
    return _w_pair_two(spec.m1, spec.m2, sa, spec.sqrt_b_eff, spec.alpha)


def test_criterion_4_compatibility_identity():
    worst_const = 0.0
    worst_gap = 0.0
    for family, params in _sweep_cases():
        spec = build_one_param(*params) if family == "one" else build_two_param(*params)
        w_plus, w_minus = _generating_pair(spec)
        df = spec.deforming
        lo, hi = df.domain
        width = hi - lo
        xs = np.linspace(lo + 0.25 * width, hi - 0.25 * width, 64)
        vals = df.f(xs) * laurent_derivative(w_plus, xs) - laurent_value(
            w_plus, xs
        ) * laurent_value(w_minus, xs)
        worst_const = max(
            worst_const, float(np.max(np.abs(vals - spec.gap))) / spec.gap
        )
        constant = compatibility_gap(w_plus, w_minus, df)
        worst_gap = max(worst_gap, abs(constant - spec.gap) / spec.gap)
    _report(
        4,
        "f W+' - W+ W- is the closed-form gap at 64 interior points",
        worst_const < 1e-10 and worst_gap < 1e-10,
        f"max spread/gap = {worst_const:.2e}, max |c - gap|/gap = {worst_gap:.2e}",
    )


def test_criterion_5_wavefunction_correctness():
    worst_res = 0.0
    for spec in _figure_specs():
        df = spec.deforming
        v = lambda x: potential_value(spec, x)
        samples = interior_samples(df, 41)
        worst_res = max(worst_res, *residual(spec.psi, v, df, (spec.e0, spec.e1), samples))
    for p, energy_fn, pot_fn, wavefn in _es_baselines():
        df = p.deforming
        v = lambda x: pot_fn(p, x)
        samples = interior_samples(df, 41)
        for n in range(4):
            psi = lambda x, n=n: wavefn(p, n, x)
            worst_res = max(
                worst_res, stencil_residual(psi, v, df, energy_fn(p, n), samples)
            )
    residual_ok = worst_res < 1e-7

    nodes_ok = True
    worst_overlap = 0.0
    hermiticity_ok = True
    for spec in _figure_specs():
        df = spec.deforming
        lo, hi = df.domain
        inset = 1e-6 * (hi - lo)
        xs = np.linspace(lo + inset, hi - inset, 4001)
        y0, y1 = spec.psi.value(xs)
        nodes_ok = nodes_ok and count_nodes(y0) == 0
        nodes_ok = nodes_ok and count_nodes(y1) == 1
        psi0 = closed_form_wavefunction(spec, 0).value
        psi1 = closed_form_wavefunction(spec, 1).value
        norm0 = math.sqrt(inner_product(psi0, psi0, df))
        norm1 = math.sqrt(inner_product(psi1, psi1, df))
        overlap = abs(inner_product(psi0, psi1, df)) / (norm0 * norm1)
        worst_overlap = max(worst_overlap, overlap)
        for check in hermiticity_boundary_check(spec.psi.value, df):
            hermiticity_ok = hermiticity_ok and check.passed
    for p, _, _, wavefn in _es_baselines():
        df = p.deforming
        for n in range(4):
            psi = lambda x, n=n: wavefn(p, n, x)
            [check] = hermiticity_boundary_check(psi, df)
            hermiticity_ok = hermiticity_ok and check.passed
    overlap_ok = worst_overlap < 1e-8
    _report(
        5,
        "residuals, node counts, orthogonality, boundary decay",
        residual_ok and nodes_ok and overlap_ok and hermiticity_ok,
        f"max residual = {worst_res:.2e}, max overlap = {worst_overlap:.2e}, "
        f"nodes {'ok' if nodes_ok else 'wrong'}, "
        f"hermiticity {'ok' if hermiticity_ok else 'violated'}",
    )


def test_criterion_6_reduction_and_symmetry():
    # general-depth machinery at m = 1 against the longhand expansion
    worst_m1 = 0.0
    rng = np.random.default_rng(61)
    for _ in range(5):
        a_top = float(rng.uniform(0.25, 4.0))
        alpha = float(rng.uniform(-0.8, 0.8))
        spec = build_one_param(1, a_top, alpha)
        sa = math.sqrt(a_top)
        op = 1.0 + alpha
        a2 = (
            3.75 * op**2
            + 3.0 * (1.0 + 4.0 * alpha) * sa
            + 3.0 * (4.0 * alpha**2 - 1.0) * a_top / (4.0 * op**2)
        )
        a4 = -3.0 * sa * (2.0 * op + alpha * sa / op)
        base = 0.75 * op * (3.0 + 5.0 * alpha) + (1.0 - 2.0 * alpha) ** 2 * a_top / (
            4.0 * op**2
        )
        e0 = base + 1.5 * (-1.0 + 2.0 * alpha + 4.0 * alpha**2) * sa / op
        e1 = base + 1.5 * (1.0 + 2.0 * alpha + 4.0 * alpha**2) * sa / op
        longhand = np.array([a2, a4, a_top, e0, e1])
        got = np.array([*spec.a_coeffs, spec.e0, spec.e1])
        scale = max(1.0, float(np.max(np.abs(longhand))))
        worst_m1 = max(worst_m1, float(np.max(np.abs(got - longhand))) / scale)
    m1_ok = worst_m1 < 1e-12

    # swapping the two ladders and negating alpha mirrors the well
    worst_refl = 0.0
    xs = np.linspace(0.1, math.pi / 2.0 - 0.1, 33)
    for m1, m2, a_top, b_top, alpha in (
        (1, 1, 1.7, 0.6, 0.55),
        (2, 2, 0.9, 2.8, -0.4),
    ):
        spec = build_two_param(m1, m2, a_top, b_top, alpha)
        swapped = build_two_param(m2, m1, b_top, a_top, -alpha)
        worst_refl = max(
            worst_refl,
            abs(swapped.e0 - spec.e0) / abs(spec.e0),
            abs(swapped.e1 - spec.e1) / abs(spec.e1),
            float(
                np.max(
                    np.abs(
                        potential_value(swapped, math.pi / 2.0 - xs)
                        - potential_value(spec, xs)
                    )
                    / np.abs(potential_value(spec, xs))
                )
            ),
        )
    spec = build_two_param(2, 1, 1.3, 0.8, 0.25)
    mirrored = build_two_param(1, 2, 0.8, 1.3, -0.25)
    refl_ok = (
        worst_refl < 1e-10
        and mirrored.reflected
        and mirrored.e0 == spec.e0
        and mirrored.e1 == spec.e1
        and mirrored.a_coeffs == spec.a_coeffs
        and mirrored.b_coeffs == spec.b_coeffs
    )

    # constant-mass limits
    worst_limit = 0.0
    one = ExactOneParam(2.0, 0.0)
    two = ExactTwoParam(2.0, 2.0, 0.0)
    for n in range(5):
        worst_limit = max(
            worst_limit,
            abs(energy_one_param(one, n) - (2.0 + n) ** 2),
            abs(energy_two_param(two, n) - (4.0 + 2.0 * n) ** 2),
        )
    limit_ok = worst_limit < 1e-12

    _report(
        6,
        "longhand m=1 reduction, ladder reflection, constant-mass limits",
        m1_ok and refl_ok and limit_ok,
        f"m=1 dev = {worst_m1:.2e}, reflection dev = {worst_refl:.2e}, "
        f"limit dev = {worst_limit:.2e}",
    )


def test_criterion_7_figure_csv_regression(tmp_path, capsys):
    rc = cli_main(["figures", "--outdir", str(tmp_path), "--npoints", "801"])
    capsys.readouterr()
    anchors_by_file = {
        "fig1": _ANCHORS[0], "fig2": _ANCHORS[0],
        "fig3": _ANCHORS[1], "fig4": _ANCHORS[1],
        "fig5": _ANCHORS[2], "fig6": _ANCHORS[2],
    }
    worst = 0.0
    nodes_ok = True
    for name, (e0, e1) in anchors_by_file.items():
        lines = (tmp_path / f"{name}.csv").read_text(encoding="utf-8").splitlines()
        meta = {}
        for part in lines[0][2:].split(", "):
            key, _, value = part.partition("=")
            meta[key] = value
        worst = max(
            worst,
            abs(float(meta["E0"]) - float(e0)),
            abs(float(meta["E1"]) - float(e1)),
        )
        data = np.array([[float(t) for t in row.split(",")] for row in lines[3:]])
        for column, want in ((2, 0), (3, 1)):
            signs = np.sign(data[:, column])
            signs = signs[signs != 0.0]
            changes = int(np.sum(signs[:-1] * signs[1:] < 0.0))
            nodes_ok = nodes_ok and changes == want
    _report(
        7,
        "emitted figure files carry the anchor energies and node structure",
        rc == 0 and worst < 1e-12 and nodes_ok,
        f"exit {rc}, max |dE| = {worst:.2e}, nodes {'ok' if nodes_ok else 'wrong'}",
    )
