"""Oracle layer: coordinate flattening, FD eigensolve, residuals, inner products."""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy.linalg import eigh_tridiagonal

from pdmtpt import numeric_verify
from pdmtpt.dsusy_core import DeformingFunction, hermiticity_boundary_check
from pdmtpt.numeric_verify import (
    _TOL_OVER_KINETIC,
    _fd_bands,
    _flatten,
    _lowest_levels,
    _refined_levels,
    count_nodes,
    g_domain,
    gram,
    inner_product,
    interior_samples,
    mass_unflatten,
    residual,
    solve_spectrum,
)
from pdmtpt.tpt_exact import ExactOneParam, ExactTwoParam, energy_one_param, energy_two_param, potential_one_param, potential_two_param, wavefn_one_param, wavefn_two_param
from pdmtpt.tpt_extended import (
    build_one_param,
    build_two_param,
    closed_form_wavefunction,
    potential_value,
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


def _trapezoid(y, x):
    return float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(x)))


# --- coordinate map ---------------------------------------------------------


def test_flatten_identity_when_undeformed():
    for df in (DeformingFunction.trig_one(0.0), DeformingFunction.trig_two(0.0)):
        lo, hi = g_domain(df)
        gs = np.linspace(lo + 0.05, hi - 0.05, 11)
        np.testing.assert_allclose(mass_unflatten(df, gs), gs, rtol=1e-14)


def test_flatten_reference_point():
    # g(pi/4) = sqrt(2) atan(2^-1/2) = int_0^(pi/4) dx/f at alpha = -1/2
    df = DeformingFunction.trig_one(-0.5)
    g = math.sqrt(2.0) * math.atan(2.0**-0.5)
    assert mass_unflatten(df, g) == pytest.approx(math.pi / 4.0, rel=1e-14)
    # dx/dg = f <= 1 here, so g to 5e-7 places x to 5e-7
    assert mass_unflatten(df, 0.870420) == pytest.approx(math.pi / 4.0, abs=5e-7)
    by_quad, err = integrate.quad(lambda t: 1.0 / (1.0 - 0.5 * math.sin(t) ** 2), 0.0, math.pi / 4.0)
    assert mass_unflatten(df, by_quad) == pytest.approx(math.pi / 4.0, rel=1e-12)


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
    lo, hi = g_domain(df)
    width = hi - lo
    gs = lo + width * rng.uniform(0.05, 0.95, 64)
    h = 1e-3
    d1 = (
        mass_unflatten(df, gs - 2 * h)
        - 8.0 * mass_unflatten(df, gs - h)
        + 8.0 * mass_unflatten(df, gs + h)
        - mass_unflatten(df, gs + 2 * h)
    ) / (12.0 * h)
    np.testing.assert_allclose(d1, df.f(mass_unflatten(df, gs)), rtol=1e-10)


def test_flatten_monotone_and_domain():
    df = DeformingFunction.trig_two(0.5)
    lo, hi = g_domain(df)
    assert lo == 0.0
    assert hi == pytest.approx(math.pi / (2.0 * math.sqrt(0.75)), rel=1e-15)
    gs = np.linspace(lo + 1e-4, hi - 1e-4, 501)
    xs = mass_unflatten(df, gs)
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
        residual(scalar, np.ones_like, df, 1.0, xs)
    with pytest.raises(ValueError, match="shape"):
        residual(np.cos, scalar, df, 1.0, xs)
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


# Reference eigenvectors, computed here from the fine-grid problem that
# solve_spectrum returns; the oracle itself computes eigenvalues only.


def _reference_eigenvectors(sp, n_levels):
    """Fine-grid eigenvectors behind sp: unit L2 norm in g, largest entry > 0."""
    p = sp.problem
    kin = 2.0 / p.spacing**2
    vals, vecs = eigh_tridiagonal(
        *_fd_bands(p.v, p.spacing), select="i", select_range=(0, n_levels - 1),
        tol=_TOL_OVER_KINETIC * kin,
    )
    # the same operator as the oracle's fine grid
    np.testing.assert_allclose(vals, sp.eigenvalues_raw, rtol=0.0, atol=np.finfo(float).eps * kin)
    u = vecs.T / np.sqrt(p.spacing * np.sum(vecs.T**2, axis=1, keepdims=True))
    anchors = np.argmax(np.abs(u), axis=1)
    return u * np.sign(u[np.arange(n_levels), anchors])[:, None]


def test_sturm_node_counts():
    p = ExactOneParam(2.0, 0.0)
    sp = solve_spectrum(lambda x: potential_one_param(p, x), p.deforming, 4, 4000)
    u = _reference_eigenvectors(sp, 4)
    for k in range(4):
        assert count_nodes(u[k]) == k


def test_eigenvector_matches_closed_ground_state():
    sp = solve_spectrum(lambda x: potential_value(FIG1, x), FIG1.deforming, 1, 4000)
    # psi = u/sqrt(f) is unit L2(dx) when u is unit L2(dg)
    x = np.asarray(mass_unflatten(FIG1.deforming, sp.problem.g))
    psi_num = _reference_eigenvectors(sp, 1)[0] / np.sqrt(FIG1.deforming.f(x))
    psi0 = closed_form_wavefunction(FIG1, 0).value
    closed = psi0(x) / math.sqrt(inner_product(psi0, psi0, FIG1.deforming))
    if _trapezoid(psi_num * closed, x) < 0.0:
        closed = -closed
    # both sides unit L2(dx); the clipped tails are exponentially small
    assert _trapezoid(psi_num**2, x) == pytest.approx(1.0, abs=1e-6)
    dist = math.sqrt(_trapezoid((psi_num - closed) ** 2, x))
    assert dist < 1e-4


@pytest.mark.parametrize("spec", REF_WELLS.values(), ids=REF_WELLS.keys())
def test_oracle_reference_wells_at_n16000(spec):
    # the refined levels carry no eps * 2/h^2 floor, whose noise Richardson
    # would amplify
    sp = solve_spectrum(lambda x: potential_value(spec, x), spec.deforming, 2, 16000)
    closed = np.array([spec.e0, spec.e1])
    assert np.all(np.abs(sp.eigenvalues - closed) <= 1e-10 * closed)


def _sturm_levels_longdouble(problem, n_levels, sections=64):
    """Lowest n_levels of the problem's capped FD operator in long double.

    The operator is the oracle's: off-diagonal -c with c = 1/h^2 as stored in
    double, diagonal 2c + min(V, 16 * 2c).  Every level is multisected from
    the Gershgorin interval with long-double Sturm counts (the number of
    negative pivots of T - x), all levels and all section points at once,
    until its bracket is below 1e-6 eps * 2c.
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
    while np.max(hi - lo) > target:
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
@pytest.mark.parametrize("spec", REF_WELLS.values(), ids=REF_WELLS.keys())
def test_refined_levels_match_long_double_sturm(spec, n_levels):
    # the refined fine-grid levels sit far below the double Sturm floor of
    # about 0.3 eps * 2/h^2 that bisection cannot pass
    sp = solve_spectrum(lambda x: potential_value(spec, x), spec.deforming, n_levels, 1000)
    ref = _sturm_levels_longdouble(sp.problem, n_levels)
    kin = 2.0 / sp.problem.spacing**2
    off = np.abs(sp.eigenvalues_raw - ref.astype(float)) / (np.finfo(float).eps * kin)
    assert np.all(off <= 1e-3), off


@pytest.mark.parametrize("grid_size", [4000, 8000])
@pytest.mark.parametrize("spec", REF_WELLS.values(), ids=REF_WELLS.keys())
def test_bracketed_levels_match_the_index_solve(spec, grid_size):
    # the refined fine-grid levels are the index solve's to within its own
    # Sturm floor.  How much closer they come is
    # test_refined_levels_match_long_double_sturm's
    sp = solve_spectrum(lambda x: potential_value(spec, x), spec.deforming, 2, grid_size)
    kin = 2.0 / sp.problem.spacing**2
    np.testing.assert_allclose(
        sp.eigenvalues_raw, _lowest_levels(sp.problem, 2), rtol=0.0, atol=np.finfo(float).eps * kin
    )


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
    monkeypatch.setattr(numeric_verify, "_refined_levels", lambda problem, seeds: np.array([1.0, 0.5]))
    with pytest.raises(ValueError, match=r"^oracle cannot resolve: the N=256 levels are out of order$"):
        solve_spectrum(lambda x: 0.0 * x, DeformingFunction.trig_one(0.0), 2, 256)


def test_refinement_that_skips_a_level_is_not_certified():
    # seeded at levels 0 and 2, the iteration converges to them with tiny
    # residuals; only the Sturm count at their midpoint sees level 1 between
    problem = _flatten(lambda x: potential_value(FIG1, x), FIG1.deforming, 1000)
    levels = _lowest_levels(problem, 3)
    assert _refined_levels(problem, levels[[0, 1]]) is not None
    assert _refined_levels(problem, levels[[0, 2]]) is None


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
    with pytest.raises(ValueError, match="zero scale"):
        residual(np.zeros_like, np.ones_like, df, 1.0, xs)


# The scalar loops that residual and hermiticity_boundary_check replaced: one
# call per point.  The vectorized checks keep their arithmetic order.


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
            psi = closed_form_wavefunction(spec, level).value
            yield psi, v, spec.deforming, energy, 0
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
        got = residual(psi, v, df, energy, xs)
        want = _residual_per_point(psi, v, df, energy, xs)
        # 1% of the verify tolerance 1e-7
        assert abs(got - want) <= 1e-9
        check = hermiticity_boundary_check(psi, df)
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


def test_inner_product_samples_a_repeated_callable_once():
    calls = []
    psi = closed_form_wavefunction(FIG3, 0)
    counted = lambda x: calls.append(x.size) or psi.value(x)
    once = inner_product(counted, counted, FIG3.deforming)
    assert calls == [16385]
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
    psi = [closed_form_wavefunction(spec, k).value for k in (0, 1)]
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
    psi = [closed_form_wavefunction(spec, k).value for k in (0, 1)]
    counted = [lambda x, p=p: calls.append(x.size) or p(x) for p in psi]
    g = gram(counted, spec.deforming)
    assert calls == [16385, 16385]
    assert g.shape == (2, 2)
    for i in (0, 1):
        for j in (0, 1):
            assert g[i, j] == inner_product(psi[i], psi[j], spec.deforming), (i, j)


@pytest.mark.parametrize("num", [16384, 2, 1])
def test_inner_product_needs_odd_grid(num):
    with pytest.raises(ValueError, match="odd"):
        inner_product(np.cos, np.cos, FIG1.deforming, num=num)
