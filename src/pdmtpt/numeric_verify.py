"""Independent numeric oracle for the deformed eigenproblems, and the checks
`verify` runs on the closed-form wavefunctions.

The deformed operator -sqrt(f) d/dx f d/dx sqrt(f) + V turns into a
constant-mass Sturm-Liouville problem -u'' + V(x(g)) u = E u for
u = sqrt(f) psi under the coordinate change dg = dx/f.  The oracle asks the
deforming function for the finite g-interval (`DeformingFunction.g_domain`)
and for the closed-form x(g) (`DeformingFunction.unflatten`), and knows
nothing else of the family.  The transformed problem is discretized by
standard second-order central differences with Dirichlet ends.  Nothing
here reuses the closed-form spectra, so agreement is a genuine cross-check.

`solve_spectrum` extrapolates the levels of three grids, N/4, N/2 and N.
V is sampled once, on the N grid; the N/2 and N/4 grids, and the seed grid
that starts them, are its every second, fourth and sixteenth point (when 16
does not divide N the seed grid's last cell is shorter, which only perturbs
the seeds).  Each grid is solved from the one before it:

* the seed grid is bisected by index with Sturm counts (`_lowest_levels`),
  cheap on N/16 points;
* the quarter grid is refined from the seed levels on the whole interval;
* the half grid is refined from the quarter levels and the N grid from
  their p = 2 prediction E_{N/2} + (E_{N/2} - E_{N/4})/4, both on the
  window of the interval where those levels live (`_window`).

Refinement is Rayleigh-quotient iteration (`_refined_levels`).  It converges
cubically and, unlike bisection, carries no eps * 2/h^2 floor for
Richardson to amplify.  The seeds only steer it: a grid's levels stand only
when its own certificate accepts them, which fixes each level's index and
bounds its error.  Where the certificate fails:

* the quarter grid is bisected by index instead, as it is when its seed
  grid has no more points than the levels wanted, so it never refuses;
* a half or N grid is refined again on the whole interval, so the window
  refuses no well the whole interval certifies, and the well is refused if
  that is not certified either.

The oracle reads only the potential.  Its two LAPACK routines, dstebz for
the Sturm-count bisection and dgtsv for the tridiagonal solves, come from
SciPy's compiled LAPACK module alone (`_lazy.lapack`), loaded on the first
solve; the `scipy.linalg` package is never imported.

Norms and overlaps of the closed-form wavefunctions come from nested
composite Simpson (`gram`), which refines only until two successive levels
agree, and whose final samples also serve the node count.  The pointwise
residual of the eigenequation (`residual`) takes each level's first two
derivatives in closed form from `ClosedFormWavefunction.log_form`, with no
step to choose, and works in log space, so it neither underflows with psi
nor carries a finite-difference error floor.  `gram` and the Hermiticity
check (`hermiticity_boundary_check`) take plain callables of one psi or a
`ClosedFormWavefunction.value`, which evaluates psi0 and psi1 together, so
`verify` evaluates both once per sample set.  Every callable goes through
`_sample`, which rejects a result of the wrong shape.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from ._lazy import lapack, np
from .dsusy_core import DeformingFunction

__all__ = [
    "FlattenedProblem",
    "NumericSpectrum",
    "BoundaryCheck",
    "solve_spectrum",
    "residual",
    "count_nodes",
    "gram",
    "inner_product",
    "interior_samples",
    "hermiticity_boundary_check",
]


@dataclass(frozen=True)
class FlattenedProblem:
    """Potential samples V(x(g)) on the interior points of a uniform
    Dirichlet grid in g, and the grid's spacing."""

    v: np.ndarray
    spacing: float


@dataclass(frozen=True)
class NumericSpectrum:
    """Lowest eigenvalues of the flattened finite-difference operator."""

    eigenvalues: np.ndarray
    errors: np.ndarray


# Sampled potentials blow up like sec^(4m+2) next to the walls; entries many
# orders above the kinetic scale 2/h^2 only re-enforce the Dirichlet condition
# while wrecking the bisection's absolute accuracy (~eps * ||T||).  Capping at
# a fixed multiple of the kinetic scale keeps ||T|| proportional to 1/h^2; the
# true eigenfunctions are exponentially or power suppressed wherever the cap
# engages, so the induced eigenvalue shift is far below discretization error.
_CAP_OVER_KINETIC = 16.0

# The index solve's bisection tolerance over 2/h^2.  LAPACK's default,
# eps * ||T||, is about 18 times 2/h^2 under the cap.  The double-precision
# Sturm counts place a level to about 0.3 eps * 2/h^2 (measured against
# long-double counts on the reference wells); a tolerance of eps * 2/h^2
# would add up to half its width as midpoint noise on top, which Richardson
# then amplifies.  A sixteenth costs four more bisection steps.
_TOL_OVER_KINETIC = sys.float_info.epsilon / 16.0

# A refined level's Kato-Temple tolerance over 2/h^2, and the tridiagonal
# solves it may take to meet it.
_RQI_TOL_OVER_KINETIC = 1e-4 * sys.float_info.epsilon
_RQI_SOLVES = 4

# An eigenvector decays like e^-action past its turning point, so at a
# window's cut its amplitude is near e^-45 = 3e-20 of the peak, and the
# residual it adds there, u_end/h^2, is far below what Kato-Temple allows.
_WINDOW_ACTION = 45.0

# The oracle holds several arrays of grid_size floats.
_MAX_GRID_SIZE = 1 << 20


def _capped(vt: np.ndarray, kin: float) -> np.ndarray:
    """Potential samples capped at _CAP_OVER_KINETIC times the kinetic scale."""
    return np.minimum(vt, _CAP_OVER_KINETIC * kin)


def _fd_bands(vt: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the capped finite-difference operator."""
    kin = 2.0 / h**2
    return kin + _capped(vt, kin), np.full(len(vt) - 1, -1.0 / h**2)


def _sample(fn, x: np.ndarray, stack: bool = False) -> np.ndarray:
    """fn(x) for the array x; fn must return an array of the same shape or,
    with `stack`, of shape (k,) + x's shape: k wavefunctions evaluated
    together."""
    out = np.asarray(fn(x), dtype=float)
    if out.shape != x.shape and not (stack and out.shape[1:] == x.shape):
        raise ValueError(f"callable returned shape {out.shape} for input {x.shape}")
    return out


def _flatten(v, df: DeformingFunction, n: int) -> FlattenedProblem:
    """Finite V(x(g)) on the n-1 interior points of the uniform n-interval g grid."""
    g_lo, g_hi = df.g_domain
    h = (g_hi - g_lo) / n
    g = g_lo + h * np.arange(1, n)
    vt = _sample(v, np.asarray(df.unflatten(g)))
    if not np.all(np.isfinite(vt)):
        raise ValueError("potential is not finite on the inset grid")
    return FlattenedProblem(vt, h)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum a_i b_i by NumPy's pairwise summation, never by BLAS.

    BLAS splits long dot products across its threads, so np.dot's last
    digits, and through them the refined levels, would depend on the
    thread count.  einsum does not call BLAS either, but its running sum
    is less accurate: levels refined with it stray further from long-double
    Sturm-count levels.
    """
    return float(np.add.reduce(a * b))


def _window(problem: FlattenedProblem, e_top: float) -> tuple[int, int]:
    """The points [a, b) of the N grid within reach of the levels below e_top.

    A point is dropped when the WKB action int sqrt(min(V, cap) - e_top)_+ dg
    between it and the well's lowest sample exceeds _WINDOW_ACTION.  cap is
    the N/2 grid's, the lower of the two refined grids' caps, which gives
    the wider window.  a and b are even, so that the N/2 grid's window, its
    points [a/2, b/2), is every second point of the N grid's.
    """
    v, h = problem.v, problem.spacing
    action = np.cumsum(h * np.sqrt(np.maximum(_capped(v, 0.5 / h**2) - e_top, 0.0)))
    mid = action[np.argmin(v)]
    a = int(np.searchsorted(action, mid - _WINDOW_ACTION, "left"))
    b = int(np.searchsorted(action, mid + _WINDOW_ACTION, "right"))
    return a - a % 2, min(b + b % 2, len(v))


def _refined_levels(
    problem: FlattenedProblem, seeds: np.ndarray, lo: int = 0, hi: int | None = None
):
    """The levels nearest `seeds` (at least two), or None if not certified.

    Rayleigh-quotient inverse iteration, one level at a time, with LAPACK's
    tridiagonal solver, on the problem's points [lo, hi) (all of them by
    default) with Dirichlet zeros on either side.  Each level starts from a
    ramp over the whole grid, which has both parities, cut to the points,
    so that a window follows the whole grid's iteration; it is kept
    orthogonal to the levels below it.  The first shift is its seed; later
    ones are its Rayleigh quotient

        rho = [sum (Delta u)^2 / h^2 + sum min(V, cap) u^2] / sum u^2,

    once the residual r = ||Tu - rho u|| of the unit vector u is below the
    level's gap.  The quotient never forms the 2/h^2 + V diagonal, so it
    keeps none of its eps * 2/h^2 rounding.  rho and r are those of u
    extended by zeros over the whole grid: r takes (c u_end)^2, c = 1/h^2,
    at each cut end, the residual of the first dropped point.

    The levels cut the line into slots: the count points are the midpoints
    between successive levels and half a gap above the top one, and delta is
    a level's distance to the nearest of them.  The levels are accepted only
    when every residual meets r < delta and r^2 <= tol * delta, and one
    Sturm count from the Gershgorin bound to the top count point is n, the
    number of levels.  By Weinstein's bound each interval rho +- r holds an
    eigenvalue of the whole grid, which r < delta puts strictly inside its
    level's slot, and nothing lies below the Gershgorin bound; so a count of
    n leaves exactly one eigenvalue per slot, which certifies each level's
    index, and the Kato-Temple bound r^2/delta caps its error at
    tol = _RQI_TOL_OVER_KINETIC * 2/h^2.

    The count is the whole grid's on the whole grid; on a window it bounds
    the whole grid's from above.  Every dropped point's capped V must reach
    the top count point, so each dropped block of T - top has diagonal at
    least 2c and off-diagonal -c, is positive definite with pivots at least
    c, and its Schur complement lowers the adjacent window diagonal entry
    by at most c.  The window's bands, each cut end's diagonal entry lowered
    by c, then have at least as many eigenvalues below the top count point
    as the whole grid, so a count of n there caps the whole grid's at n.
    """
    flapack = lapack()
    dgtsv, dstebz = flapack.dgtsv, flapack.dstebz

    hi = len(problem.v) if hi is None else hi
    cut_lo, cut_hi = lo > 0, hi < len(problem.v)
    if hi - lo <= len(seeds):
        return None  # a window too short to hold the levels
    d, e = _fd_bands(problem.v[lo:hi], problem.spacing)
    c = -e[0]
    vc = _capped(problem.v[lo:hi], 2.0 * c)
    tol = _RQI_TOL_OVER_KINETIC * 2.0 * c

    def slots(levels):
        # the count point above each level, and each level's distance to the
        # nearest count point; nothing lies below level 0
        tops = np.append(0.5 * (levels[:-1] + levels[1:]), 1.5 * levels[-1] - 0.5 * levels[-2])
        return tops, np.minimum(levels - np.append(-np.inf, tops[:-1]), tops - levels)

    _, delta = slots(seeds)
    ramp = np.linspace(1.0, 2.0, len(problem.v))[lo:hi]
    rho = np.empty(len(seeds))
    res = np.empty(len(seeds))
    found: list[np.ndarray] = []
    # a V far below -2/h^2 overflows a solve or a residual, which refuses it
    with np.errstate(over="ignore"):
        for k, shift in enumerate(seeds):
            u = ramp
            for _ in range(_RQI_SOLVES):
                *_, x, info = dgtsv(e, d - shift, e, u[:, None], overwrite_d=1)
                if info != 0:
                    return None
                u = x[:, 0]
                for w in found:
                    u -= _dot(w, u) * w
                norm_sq = _dot(u, u)
                if not 0.0 < norm_sq < math.inf:
                    return None  # the solve overflowed or lost u
                u /= math.sqrt(norm_sq)
                # u's differences between the Dirichlet zeros (np.diff's
                # prepend and append would cost more than the rest of the pass)
                du = np.concatenate(((u[0],), u[1:] - u[:-1], (-u[-1],)))
                rho[k] = c * _dot(du, du) + _dot(vc * u, u)
                # T u - rho u; e is constant, so e u is formed once
                eu = e[0] * u
                r = (d - rho[k]) * u
                r[1:] += eu[:-1]
                r[:-1] += eu[1:]
                rr = _dot(r, r)
                if cut_lo:
                    rr += (c * u[0]) ** 2
                if cut_hi:
                    rr += (c * u[-1]) ** 2
                res[k] = math.sqrt(rr)
                if res[k] ** 2 <= tol * delta[k]:
                    break
                # until its residual is below the gap, the quotient can still
                # be drawn to another level, so the seed stays the shift
                if res[k] < delta[k]:
                    shift = rho[k]
            else:
                return None
            found.append(u)
    tops, delta = slots(rho)
    if not (np.all(res < delta) and np.all(res**2 <= tol * delta)):
        return None
    top = tops[-1]
    if cut_lo or cut_hi:
        dropped = np.concatenate((problem.v[:lo], problem.v[hi:]))
        if min(float(np.min(dropped)), _CAP_OVER_KINETIC * 2.0 * c) < top:
            return None
        d[0] -= c * cut_lo
        d[-1] -= c * cut_hi
    lo_bound = float(np.min(d)) - 2.0 * c
    # a tolerance wider than the interval stops dstebz at its count
    if dstebz(d, e, 1, lo_bound, top, 1, 1, 2.0 * (top - lo_bound), "E")[0] != len(rho):
        return None
    return rho


def _lowest_levels(problem: FlattenedProblem, n_levels: int) -> np.ndarray:
    """Lowest n_levels eigenvalues of the problem's capped FD operator, by index.

    Bisection with Sturm counts to _TOL_OVER_KINETIC * 2/h^2: LAPACK's
    dstebz by index (range 2, levels 1..n_levels), called as
    `scipy.linalg.eigvalsh_tridiagonal(..., select="i")` calls it.
    """
    d, e = _fd_bands(problem.v, problem.spacing)
    tol = _TOL_OVER_KINETIC * 2.0 / problem.spacing**2
    m, w, _, _, info = lapack().dstebz(d, e, 2, 0.0, 1.0, 1, n_levels, tol, "E")
    if info != 0:
        raise ValueError(f"dstebz did not converge (LAPACK info={info})")
    return w[:m]


def solve_spectrum(
    v, df: DeformingFunction, n_levels: int = 2, grid_size: int = 4000
) -> NumericSpectrum:
    """Lowest n_levels eigenvalues of -u'' + V(x(g))u = Eu, extrapolated.

    The N = grid_size grid has N - 1 interior points, with Dirichlet zeros
    at both walls.  grid_size must be a multiple of 4, so that the spacing
    halves exactly from N/4 to N/2 to N, at least 64 and at most
    _MAX_GRID_SIZE = 2^20, and the N/4 grid's N/4 - 1 points must number at
    least n_levels.  v is called once, with the array of x values of the N
    grid, and must return a finite array of the same shape.  Anything else
    raises a ValueError.

    The levels of the N/4, N/2 and N grids (see the module docstring) give
    each level's observed convergence order p = log2 of
    (E_{N/2} - E_{N/4}) / (E_N - E_{N/2}), clamped to [1, 4] (2 where that
    ratio is not positive), and the level is Richardson-extrapolated with it:

        E = E_N + (E_N - E_{N/2}) / (2^p - 1).

    Measuring p instead of assuming 2 matters at a power-law wall: a
    potential with c/d^2 behaviour and regular exponent
    s = 1/2 + sqrt(c + 1/4) < 3/2 drags the plain inset-Dirichlet scheme
    down to O(h^(2s-1)), and extrapolating with the observed order cancels
    that term just as cleanly as the smooth-wall O(h^2) one.

    Returns the extrapolated `eigenvalues` and, per level, `errors`, the
    size of the Richardson correction |E_N - E_{N/2}|/(2^p - 1), or
    |E_N - E_{N/2}| for a level left at E_N because it already sits at the
    eigensolver's floor.  That is an estimate, not a bound on the error
    left after the correction.

    An N/2 or N grid that is not certified, or extrapolated levels out of
    order, raise a ValueError "oracle cannot resolve: ..." naming the grid.
    A single level is solved together with the next one, whose gap the
    certificate needs.
    """
    quarter, half, fine = _grid_levels(v, df, n_levels, grid_size)[1]
    d1 = fine - half
    d2 = half - quarter
    vals = fine.copy()
    errors = np.zeros_like(fine)
    for k in range(n_levels):
        scale = max(1.0, abs(fine[k]))
        if abs(d1[k]) < 1e3 * sys.float_info.epsilon * scale:
            # already at the eigensolver's floor; extrapolation would only
            # amplify rounding noise
            errors[k] = abs(d1[k])
            continue
        ratio = d2[k] / d1[k]
        p = min(4.0, max(1.0, math.log2(ratio))) if ratio > 0.0 else 2.0
        vals[k] += d1[k] / (2.0**p - 1.0)
        errors[k] = abs(d1[k]) / (2.0**p - 1.0)
    if not np.all(np.diff(vals) > 0.0):
        raise ValueError(f"oracle cannot resolve: the N={grid_size} levels are out of order")
    return NumericSpectrum(vals, errors)


def _grid_levels(
    v, df: DeformingFunction, n_levels: int, grid_size: int
) -> tuple[FlattenedProblem, list[np.ndarray]]:
    """The N grid and the lowest n_levels of the N/4, N/2 and N grids,
    before Richardson extrapolation, solved as the module docstring says."""
    if grid_size > _MAX_GRID_SIZE:
        raise ValueError(f"grid_size must be at most {_MAX_GRID_SIZE}, got {grid_size}")
    if grid_size < 64 or grid_size % 4:
        raise ValueError(
            f"grid_size must be a multiple of 4 and at least 64, got {grid_size}"
        )
    if n_levels < 1:
        raise ValueError("n_levels must be >= 1")
    width = max(2, n_levels)
    if width > grid_size // 4 - 1:
        raise ValueError(
            f"n_levels={n_levels} exceeds the {grid_size // 4 - 1} points of the "
            f"N={grid_size // 4} grid"
        )
    full = _flatten(v, df, grid_size)
    # k (W/N) == W/(N/k) in floating point, so the N/2 and N/4 grids are
    # the ones _flatten builds at N/2 and N/4
    seed, quarter, half = (
        FlattenedProblem(full.v[k - 1 :: k], k * full.spacing) for k in (16, 4, 2)
    )
    levels = _refined_levels(quarter, _lowest_levels(seed, width)) if len(seed.v) > width else None
    solved = [_lowest_levels(quarter, width) if levels is None else levels]
    # one quarter-grid gap above the top level
    a, b = _window(full, 2.0 * solved[0][-1] - solved[0][-2])
    for n, problem, lo, hi in (
        (grid_size // 2, half, a // 2, b // 2),
        (grid_size, full, a, b),
    ):
        seeds = solved[0] if len(solved) == 1 else solved[1] + (solved[1] - solved[0]) / 4.0
        levels = _refined_levels(problem, seeds, lo, hi)
        if levels is None and (lo > 0 or hi < len(problem.v)):
            levels = _refined_levels(problem, seeds)
        if levels is None:
            raise ValueError(f"oracle cannot resolve: the N={n} grid is not certified")
        solved.append(levels)
    return full, [grid[:n_levels] for grid in solved]


def interior_samples(df: DeformingFunction, n: int) -> np.ndarray:
    """n points spanning the central 90% of the domain."""
    lo, hi = df.domain
    inset = 0.05 * (hi - lo)
    return np.linspace(lo + inset, hi - inset, n)


def residual(psi, v, df: DeformingFunction, energies, samples) -> tuple[float, ...]:
    """Max relative pointwise residual of the deformed eigenequation, per level.

    The residual -sqrt(f) (f (sqrt(f) psi)')' + (V - E) psi is e^L R with

        R = -sqrt(f) [f' (q' + q L') + f (q'' + 2 q' L' + q (L'' + L'^2))]
            + (V - E) q / sqrt(f),

    where sqrt(f) psi = q e^L and the derivatives are the closed forms of
    psi, a `ClosedFormWavefunction` (`log_form`).  Returns, for each level
    and its energy E in `energies`, in order, max |e^L R| / (|E| max|psi|)
    over the samples, with numerator and max|psi| both taken in log space,
    so a psi that under- or overflows double precision still gives a ratio.
    The levels' log forms and V are taken once on the samples.  v is called
    once on the samples and must map an array to an array of the same
    shape, psi must be built on df, and there must be one energy per level,
    or a ValueError is raised.
    """
    if psi.df != df:
        raise ValueError(f"psi is built on {psi.df}, not on {df}")
    xs = np.asarray(samples, dtype=float)
    forms = psi.log_form(xs)
    if len(forms) != len(energies):
        raise ValueError(f"{len(forms)} wavefunctions but {len(energies)} energies")
    f = df.f(xs)
    root = np.sqrt(f)
    fp = df.f_prime(xs)
    vs = _sample(v, xs)
    half_log_f = 0.5 * np.log(f)
    out = []
    for ((q, q1, q2), (big_l, l1, l2)), e in zip(forms, energies):
        r = -root * (
            fp * (q1 + q * l1) + f * (q2 + 2.0 * q1 * l1 + q * (l2 + l1 * l1))
        ) + (vs - e) * q / root
        # log max|psi|, where |psi| = |q| e^L / sqrt(f)
        top = float(np.max(_log_abs(q) + big_l - half_log_f))
        if e == 0.0 or top == -math.inf:
            raise ValueError("zero scale: psi vanishes on all samples or E = 0")
        out.append(math.exp(float(np.max(_log_abs(r) + big_l)) - top) / abs(e))
    return tuple(out)


def _log_abs(a: np.ndarray) -> np.ndarray:
    """log |a|, -inf where a is 0."""
    return np.log(np.abs(a), out=np.full(a.shape, -math.inf), where=a != 0.0)


def count_nodes(values) -> int:
    """Strict sign changes in a sampled function, ignoring |v| <= 1e-12 max.

    Requires at least 1001 samples so single interior zeros are resolved.
    """
    vals = np.asarray(values, dtype=float)
    if vals.size < 1001:
        raise ValueError(f"need at least 1001 samples, got {vals.size}")
    thr = 1e-12 * float(np.max(np.abs(vals)))
    live = vals[np.abs(vals) > thr]
    if live.size == 0:
        return 0
    return int(np.sum(live[:-1] * live[1:] < 0.0))


# The grid of `gram`: its finest level has _SIMPSON_POINTS points, its
# coarsest _SIMPSON_FIRST, and successive levels settle when they agree to
# _SIMPSON_RTOL.  The integrands vanish smoothly at both walls, so Simpson
# converges fast on them and the coarsest level settles on most wells.
_SIMPSON_POINTS = 16385
_SIMPSON_FIRST = 1025
_SIMPSON_RTOL = 1e-12


def gram(psis, df: DeformingFunction) -> tuple[np.ndarray, np.ndarray]:
    """Matrix of int psi_i psi_j dx by nested composite Simpson, and its samples.

    The finest grid has _SIMPSON_POINTS points h apart, stopping 1e-9 of the
    width short of each boundary; every wavefunction here decays fast enough
    that the clipped tails are far below the quadrature error.  The levels
    are the grid's every 16th, 8th, ..., 1st point, from _SIMPSON_FIRST
    points up, and each level samples the psis only at the midpoints it
    adds.  On y sampled at a level's points, s h apart, the rule is
    s h/3 (y_0 + 4 (y_1 + y_3 + ...) + 2 (y_2 + y_4 + ...) + y_last).

    The levels stop once two successive ones agree in every entry to
    _SIMPSON_RTOL * sqrt(g_ii g_jj); a level with a zero diagonal entry never
    counts as settled.  A matrix that does not settle is the finest level's,
    so it is no worse than plain Simpson on the whole grid.  Returns the
    matrix and the samples at the last level, one row per psi in grid order.

    Each entry of psis is called once per level with an array and returns
    an array of its shape, one psi, or of shape (k,) + its shape, k psis
    evaluated together (`ClosedFormWavefunction.value`, one row per level);
    anything else raises a ValueError.
    """
    lo, hi = df.domain
    width = hi - lo
    xs, h = np.linspace(lo + 1e-9 * width, hi - 1e-9 * width, _SIMPSON_POINTS, retstep=True)
    stride = (_SIMPSON_POINTS - 1) // (_SIMPSON_FIRST - 1)
    ys = _rows(psis, xs[::stride])
    prev = None
    while True:
        out = _simpson_gram(ys, stride * h)
        if stride == 1 or (prev is not None and _settled(prev, out)):
            return out, ys
        stride //= 2
        finer = np.empty((len(ys), 2 * ys.shape[1] - 1))
        finer[:, ::2] = ys
        finer[:, 1::2] = _rows(psis, xs[stride :: 2 * stride])
        ys, prev = finer, out


def _rows(psis, x: np.ndarray) -> np.ndarray:
    """The psis at x, one row per wavefunction."""
    return np.concatenate([_sample(psi, x, stack=True).reshape(-1, len(x)) for psi in psis])


def _simpson_gram(ys: np.ndarray, h: float) -> np.ndarray:
    """Composite Simpson of every product ys[i] * ys[j] with spacing h."""
    out = np.empty((len(ys), len(ys)))
    for i, ya in enumerate(ys):
        for j in range(i, len(ys)):
            y = ya * ys[j]
            out[i, j] = out[j, i] = h / 3.0 * (
                y[0] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum() + y[-1]
            )
    return out


def _settled(coarse: np.ndarray, fine: np.ndarray) -> bool:
    """Whether every entry of two successive levels agrees to _SIMPSON_RTOL."""
    diag = np.diag(fine)
    if not np.all(diag > 0.0):
        return False
    scale = np.sqrt(diag)
    return bool(np.all(np.abs(fine - coarse) <= _SIMPSON_RTOL * np.outer(scale, scale)))


def inner_product(psi_a, psi_b, df: DeformingFunction) -> float:
    """int psi_a psi_b dx: one entry of `gram`.

    A psi_b equal to psi_a (as two bound methods of one object are) is not
    called again.
    """
    return float(gram((psi_a,) if psi_b == psi_a else (psi_a, psi_b), df)[0][0, -1])


@dataclass(frozen=True)
class BoundaryCheck:
    """Result of the Hermiticity boundary test |psi|^2 f -> 0."""

    passed: bool
    lower_limit: float
    upper_limit: float
    interior_max: float


def hermiticity_boundary_check(psi, df: DeformingFunction) -> tuple[BoundaryCheck, ...]:
    """Check |psi|^2 f -> 0 at both domain ends.

    The limit estimate at each end is the largest of the probes x_lo + 2^-j d
    and x_hi - 2^-j d, d = width/8, j = 18..20.  Passes iff both limits are
    below 1e-8 times the maximum of |psi|^2 f over 257 interior points.  psi
    is called once, on the 257 interior points and the 6 probes together.
    It must map an array to an array of the same shape, one psi, or to one
    of shape (k,) + its shape, k wavefunctions evaluated together
    (`ClosedFormWavefunction.value`, one row per level); anything else
    raises a ValueError.  Returns one BoundaryCheck per psi, in order.
    """
    lo, hi = df.domain
    d = (hi - lo) / 8.0
    probes = d * 2.0 ** -np.arange(18, 21)
    x = np.concatenate((np.linspace(lo + d, hi - d, 257), lo + probes, hi - probes))
    y = _sample(psi, x, stack=True)
    density = np.abs(y) ** 2 * df.f(x)
    checks = []
    for row in density.reshape(-1, len(x)):
        interior_max, lower, upper = (float(np.max(part)) for part in np.split(row, (257, 260)))
        ok = interior_max > 0.0 and lower < 1e-8 * interior_max and upper < 1e-8 * interior_max
        checks.append(BoundaryCheck(ok, lower, upper, interior_max))
    return tuple(checks)
