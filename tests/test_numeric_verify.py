"""Oracle layer: coordinate flattening, FD eigensolve, residuals, inner products."""

import math

import numpy as np
import pytest
from scipy import integrate

from pdmtpt.dsusy_core import DeformingFunction
from pdmtpt.numeric_verify import (
    count_nodes,
    g_domain,
    inner_product,
    interior_samples,
    mass_flatten,
    mass_unflatten,
    residual,
    solve_spectrum,
)
from pdmtpt.tpt_exact import ExactOneParam, ExactTwoParam, energy_one_param, energy_two_param, potential_one_param, potential_two_param
from pdmtpt.tpt_extended import (
    build_one_param,
    build_two_param,
    closed_form_wavefunction,
    potential_value,
)

FIG1 = build_one_param(1, 1.0, -0.5)
FIG3 = build_two_param(1, 1, 1.0, 1.0, 0.5)
FIG5 = build_two_param(1, 0, 1.0, 1.0, 0.5)


def _trapezoid(y, x):
    return float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(x)))


# --- coordinate map ---------------------------------------------------------


def test_flatten_identity_when_undeformed():
    for df in (DeformingFunction.trig_one(0.0), DeformingFunction.trig_two(0.0)):
        lo, hi = df.domain
        xs = np.linspace(lo + 0.05, hi - 0.05, 11)
        np.testing.assert_allclose(mass_flatten(df, xs), xs, rtol=1e-14)


def test_flatten_reference_point():
    df = DeformingFunction.trig_one(-0.5)
    g = mass_flatten(df, math.pi / 4.0)
    assert g == pytest.approx(math.sqrt(2.0) * math.atan(2.0**-0.5), rel=1e-14)
    assert g == pytest.approx(0.870420, abs=5e-7)
    by_quad, err = integrate.quad(lambda t: 1.0 / (1.0 - 0.5 * math.sin(t) ** 2), 0.0, math.pi / 4.0)
    assert g == pytest.approx(by_quad, rel=1e-12)


@pytest.mark.parametrize(
    "df",
    [
        DeformingFunction.trig_one(-0.5),
        DeformingFunction.trig_one(0.8),
        DeformingFunction.trig_two(0.5),
        DeformingFunction.trig_two(-0.7),
    ],
)
def test_flatten_derivative_is_inverse_mass_profile(df):
    rng = np.random.default_rng(11)
    lo, hi = df.domain
    width = hi - lo
    xs = lo + width * rng.uniform(0.05, 0.95, 64)
    h = 1e-3
    d1 = (
        mass_flatten(df, xs - 2 * h)
        - 8.0 * mass_flatten(df, xs - h)
        + 8.0 * mass_flatten(df, xs + h)
        - mass_flatten(df, xs + 2 * h)
    ) / (12.0 * h)
    np.testing.assert_allclose(d1, 1.0 / df.f(xs), rtol=1e-10)


@pytest.mark.parametrize(
    "df", [DeformingFunction.trig_one(0.6), DeformingFunction.trig_two(0.45)]
)
def test_flatten_round_trip(df):
    lo, hi = df.domain
    width = hi - lo
    xs = np.linspace(lo + 1e-3 * width, hi - 1e-3 * width, 256)
    back = mass_unflatten(df, mass_flatten(df, xs))
    assert np.max(np.abs(xs - back)) < 1e-12


def test_flatten_monotone_and_domain():
    df = DeformingFunction.trig_two(0.5)
    lo, hi = g_domain(df)
    assert lo == 0.0
    assert hi == pytest.approx(math.pi / (2.0 * math.sqrt(0.75)), rel=1e-15)
    xs = np.linspace(1e-4, math.pi / 2 - 1e-4, 501)
    gs = mass_flatten(df, xs)
    assert np.all(np.diff(gs) > 0.0)
    assert gs[0] > lo and gs[-1] < hi


# --- eigensolver ------------------------------------------------------------


def test_spectrum_constant_mass():
    p = ExactOneParam(2.0, 0.0)
    sp = solve_spectrum(lambda x: potential_one_param(p, x), p.deforming, 3, 4000)
    np.testing.assert_allclose(sp.eigenvalues, [4.0, 9.0, 16.0], rtol=1e-6)


def test_spectrum_figure_specs():
    sp1 = solve_spectrum(lambda x: potential_value(FIG1, x), FIG1.deforming, 2, 4000)
    np.testing.assert_allclose(sp1.eigenvalues, [19.0 / 16.0, 115.0 / 16.0], rtol=1e-6)
    sp3 = solve_spectrum(lambda x: potential_value(FIG3, x), FIG3.deforming, 2, 4000)
    np.testing.assert_allclose(sp3.eigenvalues, [34.5, 146.5], rtol=1e-6)


def test_spectrum_error_estimate_brackets_truth():
    sp = solve_spectrum(lambda x: potential_value(FIG1, x), FIG1.deforming, 2, 2048)
    closed = np.array([FIG1.e0, FIG1.e1])
    assert np.all(sp.errors > 0.0)
    assert np.all(np.abs(sp.eigenvalues - closed) < sp.errors)


def test_spectrum_input_validation():
    df = DeformingFunction.trig_one(0.0)
    with pytest.raises(ValueError):
        solve_spectrum(lambda x: 0.0 * x, df, 2, 63)
    with pytest.raises(ValueError):
        solve_spectrum(lambda x: 0.0 * x, df, 0, 256)
    with pytest.raises(ValueError):
        solve_spectrum(lambda x: np.full_like(x, np.nan), df, 2, 256)


def test_callables_must_map_arrays_to_arrays():
    # a callable that collapses the grid to a scalar is an error, not a cue
    # to fall back to one call per point
    df = DeformingFunction.trig_one(0.0)
    scalar = lambda x: float(np.sum(x))
    with pytest.raises(ValueError, match="shape"):
        solve_spectrum(scalar, df, 2, 256)
    with pytest.raises(ValueError, match="shape"):
        inner_product(scalar, np.cos, df)
    with pytest.raises(ValueError, match="shape"):
        inner_product(np.cos, scalar, df)


def _doubling_ratios(v, df, closed, n_levels, grids):
    # errors of the returned (extrapolated) eigenvalues along a doubling chain
    errs = [
        np.abs(solve_spectrum(v, df, n_levels, n).eigenvalues - closed)
        for n in grids
    ]
    return [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]


def test_discretization_converges_figure_specs():
    # grids small enough that discretization error still dominates the
    # eigensolver's absolute floor, so the ratio measures convergence
    cases = [
        (FIG1, np.array([FIG1.e0, FIG1.e1])),
        (FIG3, np.array([FIG3.e0, FIG3.e1])),
        (FIG5, np.array([FIG5.e0, FIG5.e1])),
    ]
    for spec, closed in cases:
        ratios = _doubling_ratios(
            lambda x: potential_value(spec, x), spec.deforming, closed, 2, (250, 500, 1000)
        )
        for r in ratios:
            assert np.all(r >= 3.5)


def test_discretization_converges_es_baselines():
    p = ExactOneParam(2.0, -0.5)
    closed = np.array([energy_one_param(p, n) for n in range(5)])
    for r in _doubling_ratios(
        lambda x: potential_one_param(p, x), p.deforming, closed, 5, (250, 500, 1000)
    ):
        assert np.all(r >= 3.5)
    q = ExactTwoParam(2.0, 2.0, 0.5)
    closed2 = np.array([energy_two_param(q, n) for n in range(5)])
    for r in _doubling_ratios(
        lambda x: potential_two_param(q, x), q.deforming, closed2, 5, (250, 500, 1000)
    ):
        assert np.all(r >= 3.5)


def test_raw_eigenvalues_second_order_at_smooth_walls():
    # the underlying scheme itself is O(h^2) wherever the walls suppress the
    # eigenfunctions beyond all orders (sec/csc-exponential factors)
    for spec in (FIG1, FIG3):
        closed = np.array([spec.e0, spec.e1])
        v = lambda x, s=spec: potential_value(s, x)
        c = np.abs(solve_spectrum(v, spec.deforming, 2, 512).eigenvalues_raw - closed)
        f = np.abs(solve_spectrum(v, spec.deforming, 2, 1024).eigenvalues_raw - closed)
        np.testing.assert_allclose(c / f, 4.0, rtol=0.05)


def test_sturm_node_counts():
    p = ExactOneParam(2.0, 0.0)
    sp = solve_spectrum(lambda x: potential_one_param(p, x), p.deforming, 4, 4000)
    for k in range(4):
        assert count_nodes(sp.eigenvectors[k]) == k


def test_eigenvector_matches_closed_ground_state():
    sp = solve_spectrum(lambda x: potential_value(FIG1, x), FIG1.deforming, 1, 4000)
    x, psi_num = sp.psi_values(0)
    psi0 = closed_form_wavefunction(FIG1, 0).value
    closed = psi0(x) / math.sqrt(inner_product(psi0, psi0, FIG1.deforming))
    if _trapezoid(psi_num * closed, x) < 0.0:
        closed = -closed
    # both sides unit L2(dx); the clipped tails are exponentially small
    assert _trapezoid(psi_num**2, x) == pytest.approx(1.0, abs=1e-6)
    dist = math.sqrt(_trapezoid((psi_num - closed) ** 2, x))
    assert dist < 1e-4


# --- residual ---------------------------------------------------------------


def test_residual_flags_wrong_energy():
    xs = interior_samples(FIG3.deforming, 41)
    psi1 = closed_form_wavefunction(FIG3, 1).value
    v = lambda x: potential_value(FIG3, x)
    good = residual(psi1, v, FIG3.deforming, FIG3.e1, xs)
    bad = residual(psi1, v, FIG3.deforming, FIG3.e1 + 1.0, xs)
    assert good < 1e-7
    assert bad > 1e-3


def test_residual_rejects_zero_scale():
    df = FIG1.deforming
    xs = interior_samples(df, 11)
    with pytest.raises(ValueError):
        residual(lambda x: 0.0, lambda x: 1.0, df, 1.0, xs)


# --- nodes and inner products ----------------------------------------------


def test_count_nodes_threshold_and_resolution():
    assert count_nodes(np.linspace(-1.0, 1.0, 2001)) == 1
    flat = np.ones(1500)
    flat[700:] = -1e-13  # below the relative floor: not a crossing
    assert count_nodes(flat) == 0
    with pytest.raises(ValueError):
        count_nodes(np.ones(1000))


def test_inner_product_parity_cancellation():
    # even ground state against odd first excited state: Simpson on the
    # symmetric grid cancels exactly, not merely to quadrature accuracy
    psi0 = closed_form_wavefunction(FIG1, 0).value
    psi1 = closed_form_wavefunction(FIG1, 1).value
    ip = inner_product(psi0, psi1, FIG1.deforming)
    assert abs(ip) < 1e-12


def test_inner_product_orthogonality_without_parity():
    psi0 = closed_form_wavefunction(FIG3, 0).value
    psi1 = closed_form_wavefunction(FIG3, 1).value
    n0 = math.sqrt(inner_product(psi0, psi0, FIG3.deforming))
    n1 = math.sqrt(inner_product(psi1, psi1, FIG3.deforming))
    assert abs(inner_product(psi0, psi1, FIG3.deforming)) / (n0 * n1) < 1e-8


def test_inner_product_simpson_exact_for_cubics():
    # composite Simpson integrates cubics exactly, so only rounding remains
    df = FIG3.deforming
    lo, hi = df.domain
    a, b = lo + 1e-9 * (hi - lo), hi - 1e-9 * (hi - lo)
    cubic = lambda x: 1.0 + 2.0 * x - 3.0 * x**2 + 4.0 * x**3
    antiderivative = lambda x: x + x**2 - x**3 + x**4
    exact = antiderivative(b) - antiderivative(a)
    got = inner_product(cubic, np.ones_like, df)
    assert abs(got - exact) <= 1e-14 * abs(exact)


@pytest.mark.parametrize(
    "spec", [FIG3, FIG1, build_one_param(3, 2.0, 2.0)], ids=["two-1-1", "one-1", "one-3"]
)
def test_inner_product_matches_scipy_simpson(spec):
    # the three reference wells; the cross term is measured against the
    # Cauchy-Schwarz scale, since parity makes it vanish on the one-param wells
    df = spec.deforming
    lo, hi = df.domain
    xs = np.linspace(lo + 1e-9 * (hi - lo), hi - 1e-9 * (hi - lo), 16385)
    psi = [closed_form_wavefunction(spec, k).value for k in (0, 1)]
    ours = {}
    for i, j in ((0, 0), (1, 1), (0, 1)):
        ref = float(integrate.simpson(psi[i](xs) * psi[j](xs), x=xs))
        ours[i, j] = (inner_product(psi[i], psi[j], df), ref)
    scale = math.sqrt(ours[0, 0][1] * ours[1, 1][1])
    for (i, j), (got, ref) in ours.items():
        assert abs(got - ref) <= 1e-12 * (abs(ref) if i == j else scale), (i, j)


@pytest.mark.parametrize("num", [16384, 2, 1])
def test_inner_product_needs_odd_grid(num):
    with pytest.raises(ValueError, match="odd"):
        inner_product(np.cos, np.cos, FIG1.deforming, num=num)
