"""Oracle layer: coordinate flattening, FD eigensolve, residuals, inner products."""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import integrate
import scipy.linalg.lapack
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

from pdmtpt import numeric_verify
from pdmtpt._lazy import lapack
from pdmtpt.dsusy_core import DeformingFunction
from pdmtpt.numeric_verify import (
    _MAX_GRID_SIZE,
    FlattenedProblem,
    _TOL_OVER_KINETIC,
    _fd_bands,
    _flatten,
    _grid_levels,
    _lowest_levels,
    _refined_levels,
    _window,
    count_nodes,
    gram,
    hermiticity_boundary_check,
    inner_product,
    interior_samples,
    residual,
    solve_spectrum,
)
from pdmtpt.tpt_exact import ExactOneParam, ExactTwoParam, energy_one_param, energy_two_param
from pdmtpt.tpt_extended import (
    build_one_param,
    build_two_param,
    closed_form_wavefunction,
    potential_value,
)
from references import (
    potential_one_param,
    potential_two_param,
    stencil_residual,
    wavefn_one_param,
    wavefn_two_param,
)

FIG1 = build_one_param(1, 1.0, -0.5)
FIG3 = build_two_param(1, 1, 1.0, 1.0, 0.5)
FIG5 = build_two_param(1, 0, 1.0, 1.0, 0.5)
# the reference wells of the benchmark's verify workload
REF_WELLS = {
    "two-1-1": FIG3,
    "one-1": FIG1,
    "one-3": build_one_param(3, 2.0, 2.0),
}
# a deep (3,3) well of ROADMAP item 1's census (its 73rd draw): at N = 4000
# the refined grids' window keeps 206 of the 3999 points
DEEP = build_two_param(3, 3, 0.7263938773669912, 0.8168151264305867, 0.647763353173183)
# the README's example well, two 2,1,1,1.3,0.3
README_WELL = build_two_param(2, 1, 1.0, 1.3, 0.3)


def _level_value(spec, level):
    """One level of spec's closed forms, as a callable of one psi."""
    view = closed_form_wavefunction(spec, level)
    return lambda x: view.value(x)[0]


def _trapezoid(y, x):
    return float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(x)))


# --- coordinate map ---------------------------------------------------------


def test_flatten_identity_when_undeformed():
    for df in (DeformingFunction.trig_one(0.0), DeformingFunction.trig_two(0.0)):
        lo, hi = df.g_domain
        gs = np.linspace(lo + 0.05, hi - 0.05, 11)
        np.testing.assert_allclose(df.unflatten(gs), gs, rtol=1e-14)


def test_flatten_reference_point():
    # g(pi/4) = sqrt(2) atan(2^-1/2) = int_0^(pi/4) dx/f at alpha = -1/2
    df = DeformingFunction.trig_one(-0.5)
    g = math.sqrt(2.0) * math.atan(2.0**-0.5)
    assert df.unflatten(g) == pytest.approx(math.pi / 4.0, rel=1e-14)
    # dx/dg = f <= 1 here, so g to 5e-7 places x to 5e-7
    assert df.unflatten(0.870420) == pytest.approx(math.pi / 4.0, abs=5e-7)
    by_quad, err = integrate.quad(lambda t: 1.0 / (1.0 - 0.5 * math.sin(t) ** 2), 0.0, math.pi / 4.0)
    assert df.unflatten(by_quad) == pytest.approx(math.pi / 4.0, rel=1e-12)


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
    # dx/dg = f(x(g)), the inverse of dg/dx = 1/f
    rng = np.random.default_rng(11)
    lo, hi = df.g_domain
    width = hi - lo
    gs = lo + width * rng.uniform(0.05, 0.95, 64)
    h = 1e-3
    d1 = (
        df.unflatten(gs - 2 * h)
        - 8.0 * df.unflatten(gs - h)
        + 8.0 * df.unflatten(gs + h)
        - df.unflatten(gs + 2 * h)
    ) / (12.0 * h)
    np.testing.assert_allclose(d1, df.f(df.unflatten(gs)), rtol=1e-10)


def test_flatten_monotone_and_domain():
    df = DeformingFunction.trig_two(0.5)
    lo, hi = df.g_domain
    assert lo == 0.0
    assert hi == pytest.approx(math.pi / (2.0 * math.sqrt(0.75)), rel=1e-15)
    gs = np.linspace(lo + 1e-4, hi - 1e-4, 501)
    xs = df.unflatten(gs)
    assert np.all(np.diff(xs) > 0.0)
    x_lo, x_hi = df.domain
    assert xs[0] > x_lo and xs[-1] < x_hi


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
    # Richardson needs the spacing to halve exactly from N/4 to N/2 to N
    with pytest.raises(ValueError, match="multiple of 4"):
        solve_spectrum(lambda x: 0.0 * x, df, 2, 250)
    # refused before anything is allocated
    with pytest.raises(ValueError, match=f"at most {_MAX_GRID_SIZE}, got {_MAX_GRID_SIZE + 4}"):
        solve_spectrum(lambda x: 0.0 * x, df, 2, _MAX_GRID_SIZE + 4)
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
    xs = interior_samples(df, 11)
    with pytest.raises(ValueError, match="shape"):
        stencil_residual(scalar, np.ones_like, df, 1.0, xs)
    with pytest.raises(ValueError, match="shape"):
        stencil_residual(np.cos, scalar, df, 1.0, xs)
    with pytest.raises(ValueError, match="shape"):
        residual(FIG1.psi, scalar, FIG1.deforming, (FIG1.e0, FIG1.e1), xs)
    with pytest.raises(ValueError, match="shape"):
        hermiticity_boundary_check(scalar, df)


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
            lambda x: potential_value(spec, x), spec.deforming, closed, 2, (256, 512, 1024)
        )
        for r in ratios:
            assert np.all(r >= 3.5)


def test_discretization_converges_es_baselines():
    p = ExactOneParam(2.0, -0.5)
    closed = np.array([energy_one_param(p, n) for n in range(5)])
    for r in _doubling_ratios(
        lambda x: potential_one_param(p, x), p.deforming, closed, 5, (256, 512, 1024)
    ):
        assert np.all(r >= 3.5)
    q = ExactTwoParam(2.0, 2.0, 0.5)
    closed2 = np.array([energy_two_param(q, n) for n in range(5)])
    for r in _doubling_ratios(
        lambda x: potential_two_param(q, x), q.deforming, closed2, 5, (256, 512, 1024)
    ):
        assert np.all(r >= 3.5)


def test_raw_eigenvalues_second_order_at_smooth_walls():
    # the underlying scheme itself is O(h^2) wherever the walls suppress the
    # eigenfunctions beyond all orders (sec/csc-exponential factors)
    for spec in (FIG1, FIG3):
        closed = np.array([spec.e0, spec.e1])
        v = lambda x, s=spec: potential_value(s, x)
        c = np.abs(_grid_levels(v, spec.deforming, 2, 512)[1][2] - closed)
        f = np.abs(_grid_levels(v, spec.deforming, 2, 1024)[1][2] - closed)
        np.testing.assert_allclose(c / f, 4.0, rtol=0.05)


# Reference eigenvectors, computed here from the fine-grid problem of
# solve_spectrum; the oracle itself computes eigenvalues only.


def _reference_eigenvectors(v, df, n_levels, grid_size):
    """The oracle's fine grid and its eigenvectors: unit L2 norm in g,
    largest entry > 0."""
    p, (_, _, raw) = _grid_levels(v, df, n_levels, grid_size)
    kin = 2.0 / p.spacing**2
    vals, vecs = eigh_tridiagonal(
        *_fd_bands(p.v, p.spacing), select="i", select_range=(0, n_levels - 1),
        tol=_TOL_OVER_KINETIC * kin,
    )
    # the same operator as the oracle's fine grid
    np.testing.assert_allclose(vals, raw, rtol=0.0, atol=np.finfo(float).eps * kin)
    u = vecs.T / np.sqrt(p.spacing * np.sum(vecs.T**2, axis=1, keepdims=True))
    anchors = np.argmax(np.abs(u), axis=1)
    return p, u * np.sign(u[np.arange(n_levels), anchors])[:, None]


def _g_points(problem, df):
    """The g points of a problem that _flatten built on df, as it forms them."""
    return df.g_domain[0] + problem.spacing * np.arange(1, len(problem.v) + 1)


def test_sturm_node_counts():
    p = ExactOneParam(2.0, 0.0)
    _, u = _reference_eigenvectors(lambda x: potential_one_param(p, x), p.deforming, 4, 4000)
    for k in range(4):
        assert count_nodes(u[k]) == k


def test_eigenvector_matches_closed_ground_state():
    p, u = _reference_eigenvectors(lambda x: potential_value(FIG1, x), FIG1.deforming, 1, 4000)
    # psi = u/sqrt(f) is unit L2(dx) when u is unit L2(dg)
    x = np.asarray(FIG1.deforming.unflatten(_g_points(p, FIG1.deforming)))
    psi_num = u[0] / np.sqrt(FIG1.deforming.f(x))
    psi0 = _level_value(FIG1, 0)
    closed = psi0(x) / math.sqrt(inner_product(psi0, psi0, FIG1.deforming))
    if _trapezoid(psi_num * closed, x) < 0.0:
        closed = -closed
    # both sides unit L2(dx); the clipped tails are exponentially small
    assert _trapezoid(psi_num**2, x) == pytest.approx(1.0, abs=1e-6)
    dist = math.sqrt(_trapezoid((psi_num - closed) ** 2, x))
    assert dist < 1e-4


@pytest.mark.parametrize(
    "spec, rtol", zip(REF_WELLS.values(), (1e-12, 1e-12, 1e-10)), ids=REF_WELLS.keys()
)
def test_oracle_reference_wells_at_n16000(spec, rtol):
    # the refined levels, the quarter grid's included, carry no eps * 2/h^2
    # floor, whose noise Richardson would amplify: bisected quarter levels
    # left two-1-1 and one-1 near 3e-12 and 6e-12.  one-3 is still limited
    # by its discretization, near 4e-11
    sp = solve_spectrum(lambda x: potential_value(spec, x), spec.deforming, 2, 16000)
    closed = np.array([spec.e0, spec.e1])
    assert np.all(np.abs(sp.eigenvalues - closed) <= rtol * closed)


def _sturm_levels_longdouble(problem, n_levels, sections=64):
    """Lowest n_levels of the problem's capped FD operator in long double.

    The operator is the oracle's: off-diagonal -c with c = 1/h^2 as stored in
    double, diagonal 2c + min(V, 16 * 2c).  Every level is multisected from
    the Gershgorin interval with long-double Sturm counts (the number of
    negative pivots of T - x), all levels and all section points at once,
    until its bracket is below 1e-6 eps * 2c, or below 2 long-double ulps of
    the level where that is wider (a level near the kinetic scale).
    """
    ld = np.longdouble
    c = ld(1.0 / problem.spacing**2)
    kin = 2 * c
    d = kin + np.minimum(problem.v.astype(ld), 16 * kin)
    e2 = c * c
    target = ld(1e-6 * np.finfo(float).eps) * kin
    wanted = np.arange(n_levels)[:, None]
    lo = np.full(n_levels, d.min() - kin)
    hi = np.full(n_levels, d.max() + kin)
    frac = np.linspace(0, 1, sections + 1, dtype=ld)[None, :]
    while np.any(hi - lo > np.maximum(target, 2 * np.finfo(ld).eps * np.abs(hi))):
        xs = lo[:, None] + (hi - lo)[:, None] * frac
        q = d[0] - xs
        below = (q < 0).astype(int)
        for di in d[1:]:
            q = di - xs - e2 / q
            below += q < 0
        # the first section point with more than k levels below it
        j = np.argmax(below > wanted, axis=1)
        rows = np.arange(n_levels)
        lo, hi = xs[rows, j - 1], xs[rows, j]
    return (lo + hi) / 2


@pytest.mark.parametrize("n_levels", [1, 2, 4])
@pytest.mark.parametrize(
    "spec, grid_size, ulps",
    [*((spec, 1000, 0) for spec in REF_WELLS.values()), (DEEP, 4000, 4)],
    ids=[*REF_WELLS, "deep-3-3"],
)
def test_refined_levels_match_long_double_sturm(spec, grid_size, ulps, n_levels):
    # the refined fine-grid levels sit far below the double Sturm floor of
    # about 0.3 eps * 2/h^2 that bisection cannot pass.  The reference counts
    # run on the whole grid, so on the deep well they also check the levels
    # refined on its window.  Its levels are near the kinetic scale, where
    # one ulp of a level is about half of eps * 2/h^2: there the bound is 4
    # ulps (the whole-interval solve is 2.04 ulps off on its level 3)
    problem, (_, _, raw) = _grid_levels(
        lambda x: potential_value(spec, x), spec.deforming, n_levels, grid_size
    )
    ref = _sturm_levels_longdouble(problem, n_levels)
    kin = 2.0 / problem.spacing**2
    bound = np.maximum(1e-3 * np.finfo(float).eps * kin, ulps * np.spacing(raw))
    off = np.abs(raw - ref.astype(float))
    assert np.all(off <= bound), off / bound


@pytest.mark.parametrize("n_levels", [1, 2, 4])
@pytest.mark.parametrize(
    "spec", [*REF_WELLS.values(), DEEP], ids=[*REF_WELLS, "deep-3-3"]
)
def test_quarter_levels_match_long_double_sturm(spec, n_levels):
    # the N/4 levels, refined from the seed grid's, are held to the fine
    # grid's bound; levels bisected to eps/16 * 2/h^2 miss it by far on the
    # reference wells.  The deep well's seed levels are refused, and its
    # bisected levels, near the kinetic scale, fall within 4 ulps
    fine, (quarter_levels, _, _) = _grid_levels(
        lambda x: potential_value(spec, x), spec.deforming, n_levels, 4000
    )
    quarter = FlattenedProblem(fine.v[3::4], 4.0 * fine.spacing)
    ref = _sturm_levels_longdouble(quarter, n_levels)
    kin = 2.0 / quarter.spacing**2
    bound = np.maximum(1e-3 * np.finfo(float).eps * kin, 4 * np.spacing(quarter_levels))
    off = np.abs(quarter_levels - ref.astype(float))
    assert np.all(off <= bound), off / bound


def test_quarter_grid_falls_back_to_the_index_solve():
    # a pool well whose seeds, from the seed grid's 249 points, are not
    # certified on the N/4 grid: its levels are the index solve's, bit for bit
    spec = build_one_param(4, 0.589975, -0.755680)
    v = lambda x: potential_value(spec, x)
    fine, (quarter_levels, _, _) = _grid_levels(v, spec.deforming, 2, 4000)
    quarter = FlattenedProblem(fine.v[3::4], 4.0 * fine.spacing)
    seed = FlattenedProblem(fine.v[15::16], 16.0 * fine.spacing)
    assert _refined_levels(quarter, _lowest_levels(seed, 2)) is None
    assert np.array_equal(quarter_levels, _lowest_levels(quarter, 2))


@pytest.mark.parametrize(
    "n_levels, message",
    [
        (16, r"^n_levels=16 exceeds the 15 points of the N=16 grid$"),
        # the seed grid's 3 points hold no 4 levels: the N/4 grid is solved
        # by index, and the N/2 grid refuses
        (4, r"^oracle cannot resolve: the N=32 grid is not certified$"),
    ],
)
def test_levels_beyond_the_quarter_grid_are_refused_before_lapack(n_levels, message, capfd):
    # LAPACK's own complaint about an illegal argument goes to stderr
    with pytest.raises(ValueError, match=message):
        solve_spectrum(lambda x: potential_value(FIG1, x), FIG1.deforming, n_levels, 64)
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("n_levels", [1, 2, 4])
@pytest.mark.parametrize("grid_size", [2000, 4000, 8000, 16000])
@pytest.mark.parametrize("spec", REF_WELLS.values(), ids=REF_WELLS.keys())
def test_quarter_solve_is_scipys_index_solve(spec, grid_size, n_levels):
    # _lowest_levels calls dstebz as eigvalsh_tridiagonal does, so the quarter
    # grid's levels are bit-identical to SciPy's
    quarter = _flatten(lambda x: potential_value(spec, x), spec.deforming, grid_size // 4)
    d, e = _fd_bands(quarter.v, quarter.spacing)
    tol = _TOL_OVER_KINETIC * 2.0 / quarter.spacing**2
    ref = eigvalsh_tridiagonal(d, e, select="i", select_range=(0, n_levels - 1), tol=tol)
    assert np.array_equal(_lowest_levels(quarter, n_levels), ref)


def test_lapack_routines_are_the_ones_scipy_linalg_exports():
    flapack = lapack()
    assert flapack.dgtsv is scipy.linalg.lapack.dgtsv
    assert flapack.dstebz is scipy.linalg.lapack.dstebz


@pytest.mark.parametrize("grid_size", [4000, 8000])
@pytest.mark.parametrize("spec", REF_WELLS.values(), ids=REF_WELLS.keys())
def test_bracketed_levels_match_the_index_solve(spec, grid_size):
    # the refined fine-grid levels are the index solve's to within its own
    # Sturm floor.  How much closer they come is
    # test_refined_levels_match_long_double_sturm's
    problem, (_, _, raw) = _grid_levels(
        lambda x: potential_value(spec, x), spec.deforming, 2, grid_size
    )
    kin = 2.0 / problem.spacing**2
    np.testing.assert_allclose(
        raw, _lowest_levels(problem, 2), rtol=0.0, atol=np.finfo(float).eps * kin
    )


def _three_flatten_spectrum(v, df, grid_size):
    """solve_spectrum at two levels with one V sampling per grid: the reference."""
    quarter = _flatten(v, df, grid_size // 4)
    levels = _refined_levels(quarter, _lowest_levels(_flatten(v, df, grid_size // 16), 2))
    solved = [_lowest_levels(quarter, 2) if levels is None else levels]
    a, b = _window(_flatten(v, df, grid_size), 2.0 * solved[0][1] - solved[0][0])
    for n, lo, hi in ((grid_size // 2, a // 2, b // 2), (grid_size, a, b)):
        seeds = solved[0] if len(solved) == 1 else solved[1] + (solved[1] - solved[0]) / 4.0
        problem = _flatten(v, df, n)
        levels = _refined_levels(problem, seeds, lo, hi)
        solved.append(_refined_levels(problem, seeds) if levels is None else levels)
    quarter, half, fine = solved
    d1, d2 = fine - half, half - quarter
    vals, errors = fine.copy(), np.zeros(2)
    for k in range(2):
        if abs(d1[k]) < 1e3 * np.finfo(float).eps * max(1.0, abs(fine[k])):
            errors[k] = abs(d1[k])
            continue
        ratio = d2[k] / d1[k]
        p = min(4.0, max(1.0, math.log2(ratio))) if ratio > 0.0 else 2.0
        vals[k] += d1[k] / (2.0**p - 1.0)
        errors[k] = abs(d1[k]) / (2.0**p - 1.0)
    return vals, errors, fine


@pytest.mark.parametrize("grid_size", [2000, 4000, 8000, 16000])
@pytest.mark.parametrize("spec", [*REF_WELLS.values(), FIG5], ids=[*REF_WELLS, "two-1-0"])
def test_spectrum_samples_v_once(spec, grid_size):
    # the N/2, N/4 and N/16 grids are strided views of the N grid, whose
    # points and potential samples are bit-identical to their own flattening
    # (every grid size here is a multiple of 16)
    sizes = []
    v = lambda x: sizes.append(x.size) or potential_value(spec, x)
    sp = solve_spectrum(v, spec.deforming, 2, grid_size)
    assert sizes == [grid_size - 1]
    v = lambda x: potential_value(spec, x)
    vals, errors, raw = _three_flatten_spectrum(v, spec.deforming, grid_size)
    assert np.array_equal(sp.eigenvalues, vals)
    assert np.array_equal(sp.errors, errors)
    assert np.array_equal(_grid_levels(v, spec.deforming, 2, grid_size)[1][2], raw)


def test_empty_bracket_is_refused():
    # a cap-dominated well: its FD levels grow with the kinetic scale, about
    # fourfold per refinement, so no coarser grid seeds them and the half
    # grid is never certified
    spec = build_one_param(1, 1.0, -0.999)
    with pytest.raises(ValueError, match=r"^oracle cannot resolve: the N=2000 grid is not certified$"):
        solve_spectrum(lambda x: potential_value(spec, x), spec.deforming, 2, 4000)


def test_short_bracket_is_still_refined():
    # two close levels on coarse grids: from N=500 to N=1000 the upper level
    # moves by 0.13, more than half its 0.22 gap, so its seed lies nearer the
    # lower level.  Deflation against the lower level still refines it.
    spec = REF_WELLS["one-3"]
    sp = solve_spectrum(lambda x: potential_value(spec, x), spec.deforming, 2, 2000)
    closed = np.array([spec.e0, spec.e1])
    assert np.all(np.abs(sp.eigenvalues - closed) <= 1e-6 * closed)


def test_levels_out_of_order_are_refused(monkeypatch):
    # levels the extrapolation leaves out of order are refused like an
    # uncertified grid, as a ValueError that the CLI reports on one line
    monkeypatch.setattr(
        numeric_verify, "_refined_levels", lambda problem, seeds, *window: np.array([1.0, 0.5])
    )
    with pytest.raises(ValueError, match=r"^oracle cannot resolve: the N=256 levels are out of order$"):
        solve_spectrum(lambda x: 0.0 * x, DeformingFunction.trig_one(0.0), 2, 256)


def test_refinement_that_skips_a_level_is_not_certified():
    # seeded at levels 0 and 2, the iteration converges to them with tiny
    # residuals; only the Sturm count at their midpoint sees level 1 between
    problem = _flatten(lambda x: potential_value(FIG1, x), FIG1.deforming, 1000)
    levels = _lowest_levels(problem, 3)
    assert _refined_levels(problem, levels[[0, 1]]) is not None
    assert _refined_levels(problem, levels[[0, 2]]) is None


def test_refinement_seeded_above_the_ground_state_is_not_certified():
    # seeded at levels 1 and 2, the iteration converges to them with tiny
    # residuals; the one count at the top slot point finds level 0 as a third
    problem = _flatten(lambda x: potential_value(FIG1, x), FIG1.deforming, 1000)
    levels = _lowest_levels(problem, 3)
    assert _refined_levels(problem, levels[[1, 2]]) is None
    assert _refined_levels(problem, levels) is not None


def _window_of(v, df, grid_size, n_levels=2):
    """The N-grid problem and the window solve_spectrum cuts from it, placed
    by the quarter levels that _grid_levels returns."""
    problem, (levels, _, _) = _grid_levels(v, df, max(2, n_levels), grid_size)
    return problem, _window(problem, 2.0 * levels[-1] - levels[-2])


def _lapack_with(dstebz):
    """lapack() with its dstebz replaced; dgtsv is LAPACK's own."""
    real = lapack()
    return lambda: SimpleNamespace(dgtsv=real.dgtsv, dstebz=dstebz)


def test_residual_not_below_its_slot_distance_is_not_certified(monkeypatch):
    # an infinite Kato-Temple tolerance stops each level after one solve,
    # and the count is made to read n: only r < delta is left to refuse.
    # Seeded between levels 0 and 1, level 1 stops at a residual near 21
    # with its slot distance near 6.5, so its interval may hold no level
    real = lapack().dstebz

    def counts_n(d, e, rng, *args):
        out = real(d, e, rng, *args)
        return (2,) + tuple(out[1:]) if rng == 1 else out

    monkeypatch.setattr(numeric_verify, "_RQI_TOL_OVER_KINETIC", math.inf)
    monkeypatch.setattr(numeric_verify, "_RQI_SOLVES", 1)
    monkeypatch.setattr(numeric_verify, "lapack", _lapack_with(counts_n))
    problem = _flatten(lambda x: potential_value(FIG1, x), FIG1.deforming, 1000)
    levels = _lowest_levels(problem, 2)
    assert _refined_levels(problem, levels) is not None
    assert _refined_levels(problem, np.array([levels[0], 0.5 * (levels[0] + levels[1])])) is None


@pytest.mark.parametrize("spec", [*REF_WELLS.values(), DEEP], ids=[*REF_WELLS, "deep-3-3"])
def test_one_sturm_count_per_refined_grid(spec, monkeypatch):
    # the seed grid's index solve (range 2) on its 249 points, then one count
    # (range 1) on each of the three refined grids, whatever the number of
    # levels: the whole N/4 grid's 999 points, then the window's bands, on
    # the deep well under 6% of the N grid's 3999 points, and every second
    # of them on the N/2 grid.  The deep well's seed levels sit on the seed
    # grid's cap, far below its quarter levels, so their refinement is
    # refused before its count and the N/4 grid is solved by index instead
    real = lapack().dstebz
    calls = []

    def counted(d, e, rng, *args):
        calls.append((rng, len(d), len(e)))
        return real(d, e, rng, *args)

    v = lambda x: potential_value(spec, x)
    windows = {n_levels: _window_of(v, spec.deforming, 4000, n_levels) for n_levels in (1, 2, 4)}
    monkeypatch.setattr(numeric_verify, "lapack", _lapack_with(counted))
    for n_levels, (problem, (a, b)) in windows.items():
        calls.clear()
        solve_spectrum(v, spec.deforming, n_levels, 4000)
        quarter = (2, 999) if spec is DEEP else (1, 999)
        assert [(rng, n) for rng, n, _ in calls] == [
            (2, 249), quarter, (1, b // 2 - a // 2), (1, b - a)
        ]
        assert all(m == n - 1 for _, n, m in calls)
        assert spec is not DEEP or b - a < 0.06 * len(problem.v)


def _kato_temple_bound(problem, levels):
    """Twice the refined grids' Kato-Temple tolerance on problem, or 4 ulps
    of a level where that is wider: two certified values of one level
    differ by less."""
    tol = numeric_verify._RQI_TOL_OVER_KINETIC * 2.0 / problem.spacing**2
    return np.maximum(2.0 * tol, 4.0 * np.spacing(levels))


def _whole_interval(monkeypatch):
    """Make solve_spectrum refine on the whole interval, as before windows."""
    monkeypatch.setattr(numeric_verify, "_window", lambda problem, e_top: (0, len(problem.v)))


@pytest.mark.parametrize("grid_size", [4000, 16000])
@pytest.mark.parametrize("spec", [README_WELL, DEEP], ids=["readme", "deep-3-3"])
def test_window_moves_levels_only_within_kato_temple(spec, grid_size, monkeypatch):
    # on the deep well the window keeps a few percent of the interval, and
    # its levels are near the kinetic scale, where their ulp exceeds the
    # Kato-Temple tolerance
    v = lambda x: potential_value(spec, x)
    _, (_, _, windowed) = _grid_levels(v, spec.deforming, 2, grid_size)
    _whole_interval(monkeypatch)
    problem, (_, _, whole) = _grid_levels(v, spec.deforming, 2, grid_size)
    off = np.abs(windowed - whole)
    assert np.all(off <= _kato_temple_bound(problem, whole)), off


_HARMONIC = DeformingFunction.trig_one(0.0)


def _pocket(lo, hi):
    """A harmonic well 20000 x^2 on (-pi/2, pi/2), whose window ends near
    x = 0.85, with a flat pocket at 50 on (lo, hi) behind its barrier."""
    return lambda x: np.where((x > lo) & (x < hi), 50.0, 20000.0 * x * x)


def test_pocket_behind_a_barrier_takes_the_whole_interval(monkeypatch):
    # the pocket's own levels lie near 4000, far above the two wanted, but
    # its floor is below the top count point: dropped points must not be
    # below it, so each refined grid is solved again on the whole interval
    v = _pocket(1.45, 1.5)
    _, (a, b) = _window_of(v, _HARMONIC, 2000)
    calls = []
    real = numeric_verify._refined_levels

    def spy(problem, seeds, *window):
        out = real(problem, seeds, *window)
        calls.append((len(problem.v), window, out is None))
        return out

    monkeypatch.setattr(numeric_verify, "_refined_levels", spy)
    sp = solve_spectrum(v, _HARMONIC, 2, 2000)
    # the quarter grid is refined on the whole interval, and certified
    assert calls == [(499, (), False),
                     (999, (a // 2, b // 2), True), (999, (), False),
                     (1999, (a, b), True), (1999, (), False)]
    assert 0 < a and b < 1999
    # without the pocket the same window is certified
    calls.clear()
    solve_spectrum(lambda x: 20000.0 * x * x, _HARMONIC, 2, 2000)
    assert [window for _, window, _ in calls] == [(), (a // 2, b // 2), (a, b)]
    windowed_raw = _grid_levels(v, _HARMONIC, 2, 2000)[1]
    _whole_interval(monkeypatch)
    whole = solve_spectrum(v, _HARMONIC, 2, 2000)
    assert np.array_equal(sp.eigenvalues, whole.eigenvalues)
    assert np.array_equal(windowed_raw[2], _grid_levels(v, _HARMONIC, 2, 2000)[1][2])


@pytest.mark.parametrize(
    "v, df, certifies",
    [
        (lambda x: potential_value(README_WELL, x), README_WELL.deforming, True),
        (_pocket(1.2, 1.5), _HARMONIC, False),
    ],
    ids=["readme", "pocket-level"],
)
def test_window_forced_too_tight_certifies_no_level_the_whole_grid_lacks(v, df, certifies):
    # solve_spectrum's window, cut by 0 to 512 points at either end or both,
    # refined from the whole grid's levels 0 and 1 and from its levels 0 and
    # 2: whatever a window certifies is one of the whole grid's levels, by
    # index.  The pocket well's level 1 lives in a flat pocket at 50 behind
    # the barrier, outside every window, so none is certified there
    problem, (a, b) = _window_of(v, df, 2000)
    whole = _lowest_levels(problem, 3)
    kin = 2.0 / problem.spacing**2
    certified = 0
    for cut in (0, 8, 32, 128, 512):
        for lo, hi in ((a + cut, b), (a, b - cut), (a + cut, b - cut)):
            for index in ([0, 1], [0, 2]):
                levels = _refined_levels(problem, whole[index], lo, hi)
                if levels is not None:
                    certified += 1
                    np.testing.assert_allclose(
                        levels, whole[:2], rtol=0.0, atol=np.finfo(float).eps * kin
                    )
    assert (certified > 0) == certifies



def test_window_count_sees_a_level_its_cut_lifts_above_the_top():
    # a harmonic well behind a barrier, levels 141 and 424, and a shelf at
    # 500 on (0.5, 0.85) before a floor at 566, just above the top count
    # point 565.5.  The shelf's level, 540 on the whole grid, rises to 579
    # when the window is cut where the floor starts, above the top count
    # point.  Each cut end's lowered diagonal entry brings it back below,
    # so the count sees the third level in slot 1 and refuses, as the whole
    # grid's count does
    def shelf(x):
        return np.select(
            [np.abs(x) <= 0.3, x < 0.5, x < 0.85], [20000.0 * x * x, 1e5, 500.0], 566.0
        )

    problem = _flatten(shelf, _HARMONIC, 2000)
    whole = _lowest_levels(problem, 3)
    hi = int(np.searchsorted(_g_points(problem, _HARMONIC), 0.85))
    cut = FlattenedProblem(problem.v[:hi], problem.spacing)
    top = 1.5 * whole[1] - 0.5 * whole[0]
    assert whole[2] < top < _lowest_levels(cut, 3)[2]
    assert min(problem.v[hi:]) >= top
    assert _refined_levels(problem, whole[:2], 0, hi) is None
    assert _refined_levels(problem, whole[:2]) is None


# Two wells the oracle certifies at one N and refuses at about twice that N
# (ROADMAP item 16).  A refined residual stalls near 13 eps * 2/h^2, which
# grows like N^2, while the Kato-Temple acceptance r <= sqrt(tol * delta)
# grows like N, so a grid is refused once 2/h^2 exceeds about 2.7e9 delta.
_FINER_REFUSED = [
    (build_one_param(1, 0.01, 0.0), 32000, 65536),
    (README_WELL, 1 << 19, 1 << 20),
]


@pytest.mark.parametrize(
    "spec, grid_size", [(spec, n) for spec, n, _ in _FINER_REFUSED], ids=["one-1-0.01", "readme"]
)
def test_the_finer_refused_wells_are_certified_on_a_coarser_grid(spec, grid_size):
    sp = solve_spectrum(lambda x: potential_value(spec, x), spec.deforming, 2, grid_size)
    np.testing.assert_allclose(sp.eigenvalues, (spec.e0, spec.e1), rtol=1e-9)


@pytest.mark.xfail(strict=True, raises=ValueError, reason="rounding floor (ROADMAP item 16)")
@pytest.mark.parametrize(
    "spec, grid_size", [(spec, n) for spec, _, n in _FINER_REFUSED], ids=["one-1-0.01", "readme"]
)
def test_a_finer_grid_certifies_what_a_coarser_one_does(spec, grid_size):
    sp = solve_spectrum(lambda x: potential_value(spec, x), spec.deforming, 2, grid_size)
    np.testing.assert_allclose(sp.eigenvalues, (spec.e0, spec.e1), rtol=1e-9)


# --- residual ---------------------------------------------------------------


def test_residual_flags_wrong_energy():
    xs = interior_samples(FIG3.deforming, 41)
    psi1 = closed_form_wavefunction(FIG3, 1)
    v = lambda x: potential_value(FIG3, x)
    [good] = residual(psi1, v, FIG3.deforming, (FIG3.e1,), xs)
    [bad] = residual(psi1, v, FIG3.deforming, (FIG3.e1 + 1.0,), xs)
    assert good < 1e-7
    assert bad > 1e-3


def test_residual_rejects_zero_scale():
    df = FIG1.deforming
    xs = interior_samples(df, 11)
    psi0 = closed_form_wavefunction(FIG1, 0)
    with pytest.raises(ValueError, match="zero scale"):
        residual(psi0, np.ones_like, df, (0.0,), xs)
    # a zero prefactor: psi vanishes on every sample, log max|psi| is -inf
    vanishing = replace(psi0, poly=((0.0,),))
    with pytest.raises(ValueError, match="zero scale"):
        residual(vanishing, np.ones_like, df, (FIG1.e0,), xs)
    with pytest.raises(ValueError, match="zero scale"):
        stencil_residual(np.zeros_like, np.ones_like, df, 1.0, xs)


def test_residual_rejects_psi_of_another_deforming_function():
    # f and its derivatives come from df, psi's own derivatives from psi.df
    df = DeformingFunction.trig_one(0.0)
    assert FIG1.deforming != df
    xs = interior_samples(df, 11)
    with pytest.raises(ValueError, match="built on"):
        residual(FIG1.psi, lambda x: potential_value(FIG1, x), df, (FIG1.e0, FIG1.e1), xs)


# Wells of the fault-injection tests: (m1, m2, atop, btop, alpha).
_FAULT_WELLS = ((2, 1, 1.0, 1.3, 0.3), (3, 3, 2.0, 1.0, 0.6), (4, 1, 3.0, 2.0, -0.7))


def _with_a2(spec, factor):
    """spec with A_2 scaled by factor, for the potential only, as in `verify --override-a2`."""
    return replace(spec, a_coeffs=(spec.a_coeffs[0] * factor,) + spec.a_coeffs[1:])


def _residuals(spec, v_spec=None, energy_factor=1.0):
    """The residuals of (psi0, psi1) against v_spec's potential."""
    v_spec = spec if v_spec is None else v_spec
    v = lambda x: potential_value(v_spec, x)
    xs = interior_samples(spec.deforming, 41)
    energies = (spec.e0 * energy_factor, spec.e1 * energy_factor)
    return residual(spec.psi, v, spec.deforming, energies, xs)


def test_closed_form_residual_against_the_stencil():
    for spec in (FIG1, FIG3, FIG5):
        v = lambda x, s=spec: potential_value(s, x)
        xs = interior_samples(spec.deforming, 41)
        energies = (spec.e0, spec.e1)
        for level, r in enumerate(residual(spec.psi, v, spec.deforming, energies, xs)):
            assert r <= 1e-12
            psi = _level_value(spec, level)
            assert stencil_residual(psi, v, spec.deforming, energies[level], xs) < 1e-7
    # a fault far above the stencil's floor reads the same on both
    spec = build_two_param(*_FAULT_WELLS[0])
    faulty = _with_a2(spec, 1.0 + 1e-6)
    v = lambda x: potential_value(faulty, x)
    xs = interior_samples(spec.deforming, 41)
    for level, (energy, got) in enumerate(zip((spec.e0, spec.e1), _residuals(spec, faulty))):
        want = stencil_residual(_level_value(spec, level), v, spec.deforming, energy, xs)
        assert abs(got - want) <= 0.05 * want


@pytest.mark.parametrize("well", _FAULT_WELLS, ids=str)
def test_residual_fails_injected_faults(well):
    spec = build_two_param(*well)
    assert all(r >= 1e-7 for r in _residuals(spec, _with_a2(spec, 1.0 + 1e-5)))
    assert all(r >= 1e-7 for r in _residuals(spec, energy_factor=1.0 + 1e-6))
    sec = (spec.psi.sec_coeffs[0] * (1.0 + 1e-4),) + spec.psi.sec_coeffs[1:]
    bad = replace(spec, psi=replace(spec.psi, sec_coeffs=sec))
    assert _residuals(bad)[0] >= 1e-7
    # a fault below the tolerance still shows far above the floor
    clean = _residuals(spec)
    for got, floor in zip(_residuals(spec, _with_a2(spec, 1.0 + 1e-8)), clean):
        assert got >= 50.0 * floor


# The scalar loops that the stencil residual and hermiticity_boundary_check
# replaced: one call per point.  The vectorized checks keep their arithmetic
# order.  The stencil residual is itself a test reference, so its half of
# the comparison checks one test implementation against another; the
# closed-form residual is checked against the stencil above.


def _residual_per_point(psi, v, df, energy, samples):
    lo, hi = df.domain
    xs = np.asarray(samples, dtype=float)
    psi_at = np.array([float(psi(x)) for x in xs])
    scale = abs(energy) * float(np.max(np.abs(psi_at)))
    worst = 0.0
    for x, p0 in zip(xs, psi_at):
        h = min(1e-3, 0.25 * (x - lo), 0.25 * (hi - x))
        pts = x + h * np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        phi = np.array([float(psi(t)) for t in pts]) * np.sqrt(df.f(pts))
        d1 = (phi[0] - 8.0 * phi[1] + 8.0 * phi[3] - phi[4]) / (12.0 * h)
        d2 = (-phi[0] + 16.0 * phi[1] - 30.0 * phi[2] + 16.0 * phi[3] - phi[4]) / (
            12.0 * h * h
        )
        f = float(df.f(x))
        fp = float(df.f_prime(x))
        r = -math.sqrt(f) * (fp * d1 + f * d2) + (float(v(x)) - energy) * p0
        worst = max(worst, abs(r))
    return worst / scale


def _hermiticity_per_point(psi, df):
    lo, hi = df.domain
    d = (hi - lo) / 8.0
    density = lambda x: abs(float(psi(x))) ** 2 * float(df.f(x))
    interior_max = max(density(float(x)) for x in np.linspace(lo + d, hi - d, 257))
    lows = [density(lo + d * 2.0**-j) for j in range(21)]
    highs = [density(hi - d * 2.0**-j) for j in range(21)]
    lower, upper = max(lows[-3:]), max(highs[-3:])
    ok = interior_max > 0.0 and lower < 1e-8 * interior_max and upper < 1e-8 * interior_max
    return ok, (lower, upper, interior_max)


def _check_cases():
    # (psi, v, df, energy, ulps) for both levels of the figure specs and the
    # first four levels of the exactly solvable baselines.  The closed forms
    # give the same values on a float and on an array, so their limits must
    # be equal.  The baselines' non-integer powers do not: NumPy rounds a
    # scalar ** through libm and np.power on an array through SIMD code, an
    # ulp or two apart, so their limits get 16 ulps.
    for spec in (FIG1, FIG3, FIG5):
        v = lambda x, s=spec: potential_value(s, x)
        for level, energy in ((0, spec.e0), (1, spec.e1)):
            yield _level_value(spec, level), v, spec.deforming, energy, 0
    baselines = (
        (ExactOneParam(2.0, -0.5), energy_one_param, potential_one_param, wavefn_one_param),
        (ExactOneParam(2.0, 0.0), energy_one_param, potential_one_param, wavefn_one_param),
        (ExactTwoParam(2.0, 2.0, 0.0), energy_two_param, potential_two_param, wavefn_two_param),
        (ExactTwoParam(2.0, 2.0, 0.5), energy_two_param, potential_two_param, wavefn_two_param),
    )
    for p, energy_fn, pot_fn, wavefn in baselines:
        v = lambda x, p=p, pot_fn=pot_fn: pot_fn(p, x)
        for n in range(4):
            psi = lambda x, p=p, n=n, wavefn=wavefn: wavefn(p, n, x)
            yield psi, v, p.deforming, energy_fn(p, n), 16


def test_checks_match_the_per_point_loops():
    cases = list(_check_cases())
    assert len(cases) == 22
    for psi, v, df, energy, ulps in cases:
        xs = interior_samples(df, 41)
        got = stencil_residual(psi, v, df, energy, xs)
        want = _residual_per_point(psi, v, df, energy, xs)
        # 1% of the verify tolerance 1e-7
        assert abs(got - want) <= 1e-9
        [check] = hermiticity_boundary_check(psi, df)
        passed, want = _hermiticity_per_point(psi, df)
        got = (check.lower_limit, check.upper_limit, check.interior_max)
        np.testing.assert_allclose(got, want, rtol=ulps * np.finfo(float).eps, atol=0.0)
        assert check.passed is passed is True


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
    psi0 = _level_value(FIG1, 0)
    psi1 = _level_value(FIG1, 1)
    ip = inner_product(psi0, psi1, FIG1.deforming)
    assert abs(ip) < 1e-12


def test_inner_product_orthogonality_without_parity():
    psi0 = _level_value(FIG3, 0)
    psi1 = _level_value(FIG3, 1)
    n0 = math.sqrt(inner_product(psi0, psi0, FIG3.deforming))
    n1 = math.sqrt(inner_product(psi1, psi1, FIG3.deforming))
    assert abs(inner_product(psi0, psi1, FIG3.deforming)) / (n0 * n1) < 1e-8


def test_inner_product_samples_a_repeated_callable_once():
    calls = []
    psi = closed_form_wavefunction(FIG3, 0)
    counted = lambda x: calls.append(x.size) or psi.value(x)
    once = inner_product(counted, counted, FIG3.deforming)
    # the 1025-point level, then the midpoints of the 2049-point one
    assert calls == [1025, 1024]
    assert once == inner_product(psi.value, lambda x: psi.value(x), FIG3.deforming)


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


@pytest.mark.parametrize("spec", REF_WELLS.values(), ids=REF_WELLS.keys())
def test_inner_product_matches_scipy_simpson(spec):
    # the three reference wells; the cross term is measured against the
    # Cauchy-Schwarz scale, since parity makes it vanish on the one-param wells
    df = spec.deforming
    lo, hi = df.domain
    xs = np.linspace(lo + 1e-9 * (hi - lo), hi - 1e-9 * (hi - lo), 16385)
    psi = [_level_value(spec, k) for k in (0, 1)]
    ours = {}
    for i, j in ((0, 0), (1, 1), (0, 1)):
        ref = float(integrate.simpson(psi[i](xs) * psi[j](xs), x=xs))
        ours[i, j] = (inner_product(psi[i], psi[j], df), ref)
    scale = math.sqrt(ours[0, 0][1] * ours[1, 1][1])
    for (i, j), (got, ref) in ours.items():
        assert abs(got - ref) <= 1e-12 * (abs(ref) if i == j else scale), (i, j)


@pytest.mark.parametrize("spec", REF_WELLS.values(), ids=REF_WELLS.keys())
def test_gram_is_the_pairwise_inner_products(spec):
    calls = []
    psi = [_level_value(spec, k) for k in (0, 1)]
    counted = [lambda x, p=p: calls.append(x.size) or p(x) for p in psi]
    g, ys = gram(counted, spec.deforming)
    assert calls == [1025, 1025, 1024, 1024]
    assert [y.size for y in ys] == [2049, 2049]
    assert g.shape == (2, 2)
    for i in (0, 1):
        for j in (0, 1):
            assert g[i, j] == inner_product(psi[i], psi[j], spec.deforming), (i, j)


# The Simpson rule of gram as it was before the nested levels: one sampling
# of each psi on the whole 16385-point grid.  The reference for the tests
# below.


def _plain_simpson_gram(psis, df):
    lo, hi = df.domain
    width = hi - lo
    xs, h = np.linspace(lo + 1e-9 * width, hi - 1e-9 * width, 16385, retstep=True)
    ys = [psi(xs) for psi in psis]
    out = np.empty((len(ys), len(ys)))
    for i, ya in enumerate(ys):
        for j in range(i, len(ys)):
            y = ya * ys[j]
            out[i, j] = out[j, i] = h / 3.0 * (
                y[0] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum() + y[-1]
            )
    return out


# the reference wells and the README verify well
GRAM_WELLS = {**REF_WELLS, "two-1-0": FIG5}


@pytest.mark.parametrize("spec", GRAM_WELLS.values(), ids=GRAM_WELLS.keys())
def test_gram_forced_to_stride_1_is_the_plain_rule(spec, monkeypatch):
    monkeypatch.setattr(numeric_verify, "_SIMPSON_FIRST", numeric_verify._SIMPSON_POINTS)
    calls = []
    psi = [_level_value(spec, k) for k in (0, 1)]
    counted = [lambda x, p=p: calls.append(x.size) or p(x) for p in psi]
    g, _ = gram(counted, spec.deforming)
    assert calls == [16385, 16385]
    assert np.array_equal(g, _plain_simpson_gram(psi, spec.deforming))


@pytest.mark.parametrize("spec", GRAM_WELLS.values(), ids=GRAM_WELLS.keys())
def test_gram_lands_on_the_full_grid_value(spec):
    psi = [_level_value(spec, k) for k in (0, 1)]
    g, _ = gram(psi, spec.deforming)
    ref = _plain_simpson_gram(psi, spec.deforming)
    scale = np.sqrt(np.outer(np.diag(ref), np.diag(ref)))
    assert np.all(np.abs(g - ref) <= 1e-12 * scale)


def test_narrow_bump_is_refined_not_an_underflowing_norm():
    # a bump of radius 3.5 finest spacings centred between two points of the
    # 1025- and of the 2049-point level: both levels sample it as 0, and they
    # agree, but a zero norm never settles.  Every finer level moves the
    # value, so the rule ends on the whole grid
    df = FIG1.deforming
    lo, hi = df.domain
    xs = np.linspace(lo + 1e-9 * (hi - lo), hi - 1e-9 * (hi - lo), 16385)
    centre, radius = xs[8204], 3.5 * (xs[1] - xs[0])
    bump = lambda x: np.maximum(0.0, 1.0 - ((x - centre) / radius) ** 2) ** 2
    assert not np.any(bump(xs[::8]))
    calls = []
    g, ys = gram([lambda x: calls.append(x.size) or bump(x)], df)
    assert calls == [1025, 1024, 2048, 4096, 8192]
    assert ys[0].size == 16385
    assert g[0, 0] > 0.0
    assert np.array_equal(g, _plain_simpson_gram([bump], df))


@pytest.mark.parametrize("spec", GRAM_WELLS.values(), ids=GRAM_WELLS.keys())
def test_checks_read_the_joint_evaluation_as_the_lone_ones(spec):
    # gram, the Hermiticity check and the residual give, from psi0 and psi1
    # evaluated together, exactly what they give from each level alone
    df = spec.deforming
    lone = [_level_value(spec, k) for k in (0, 1)]
    g, ys = gram((spec.psi.value,), df)
    g_lone, ys_lone = gram(lone, df)
    assert np.array_equal(g, g_lone)
    assert np.array_equal(ys, ys_lone)
    checks = hermiticity_boundary_check(spec.psi.value, df)
    assert checks == tuple(check for psi in lone for check in hermiticity_boundary_check(psi, df))
    v = lambda x: potential_value(spec, x)
    xs = interior_samples(df, 41)
    energies = (spec.e0, spec.e1)
    got = residual(spec.psi, v, df, energies, xs)
    assert got == tuple(
        residual(closed_form_wavefunction(spec, k), v, df, (e,), xs)[0]
        for k, e in enumerate(energies)
    )
    with pytest.raises(ValueError, match="2 wavefunctions but 1 energies"):
        residual(spec.psi, v, df, energies[:1], xs)
    with pytest.raises(ValueError, match="shape"):
        hermiticity_boundary_check(lambda x: np.ones((2, x.size + 1)), df)
    with pytest.raises(ValueError, match="shape"):
        gram((lambda x: np.ones((2, 1, x.size)),), df)


# --- hermiticity boundary check --------------------------------------------

ONE_HALF = DeformingFunction.trig_one(-0.5)


def test_hermiticity_check_passes_for_bound_state():
    spec = build_one_param(1, 1.0, -0.5)
    psi0 = closed_form_wavefunction(spec, 0)
    [check] = hermiticity_boundary_check(psi0.value, ONE_HALF)
    assert check.passed
    assert check.lower_limit < 1e-8 * check.interior_max
    assert check.upper_limit < 1e-8 * check.interior_max


def test_hermiticity_check_fails_for_constant():
    [check] = hermiticity_boundary_check(np.ones_like, ONE_HALF)
    assert not check.passed
