"""Independent numeric oracle for the deformed eigenproblems.

The deformed operator -sqrt(f) d/dx f d/dx sqrt(f) + V turns into a
constant-mass Sturm-Liouville problem -u'' + V(x(g)) u = E u for
u = sqrt(f) psi under the coordinate change dg = dx/f.  Both deforming
functions admit a closed-form flattening map, the g-interval is finite, and
the transformed problem is discretized by standard second-order central
differences with Dirichlet ends.  Nothing here reuses the closed-form
spectra, so agreement is a genuine cross-check.

The eigenvalues come from three grids, N/4, N/2 and N, and a Richardson
step.  The quarter grid is bisected by index with Sturm counts.  The finer
two are refined from the coarser grids' levels by Rayleigh-quotient
iteration, which converges cubically and carries no eps * 2/h^2 bisection
floor.  Sturm counts and residual bounds certify each refined grid, and a
well with a grid they do not certify is refused.  The oracle reads only the
potential.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from ._lazy import np
from .dsusy_core import DeformingFunction, Family, _sample

__all__ = [
    "FlattenedProblem",
    "NumericSpectrum",
    "g_domain",
    "mass_unflatten",
    "solve_spectrum",
    "residual",
    "count_nodes",
    "gram",
    "inner_product",
    "interior_samples",
]


def g_domain(df: DeformingFunction) -> tuple[float, float]:
    """Endpoints of the flattened coordinate g = int dx/f."""
    a = df.alpha
    if df.family is Family.ONE:
        half = math.pi / (2.0 * math.sqrt(1.0 + a))
        return (-half, half)
    return (0.0, math.pi / (2.0 * math.sqrt(1.0 - a * a)))


def mass_unflatten(df: DeformingFunction, g):
    """Closed-form x(g), strictly increasing, with dx/dg = f.

    One-parameter: x = arctan(tan(sqrt(1+alpha) g)/sqrt(1+alpha)).
    Two-parameter: x = arctan(tan(sqrt(1-alpha^2) g)/sqrt((1-alpha)/(1+alpha))).
    It inverts g = int dx/f, which maps the open x domain onto g_domain.
    """
    a = df.alpha
    if df.family is Family.ONE:
        r = math.sqrt(1.0 + a)
        return np.arctan(np.tan(r * g) / r)
    c = math.sqrt((1.0 - a) / (1.0 + a))
    # tan(sqrt(1-a^2) g) > 0 for g in the open domain, so arctan stays on
    # the principal branch and lands in (0, pi/2) directly
    return np.arctan(np.tan(math.sqrt(1.0 - a * a) * g) / c)


@dataclass(frozen=True)
class FlattenedProblem:
    """Uniform Dirichlet grid in g with potential samples V(x(g))."""

    g: np.ndarray
    v: np.ndarray
    spacing: float


@dataclass(frozen=True)
class NumericSpectrum:
    """Lowest eigenvalues of the flattened finite-difference operator."""

    eigenvalues: np.ndarray
    grid_size: int
    errors: np.ndarray
    # fine-grid values before Richardson extrapolation; these carry the plain
    # O(h^2) discretization error and are what the convergence law applies to
    eigenvalues_raw: np.ndarray
    # the fine grid and its potential samples
    problem: FlattenedProblem


# Sampled potentials blow up like sec^(4m+2) next to the walls; entries many
# orders above the kinetic scale 2/h^2 only re-enforce the Dirichlet condition
# while wrecking the bisection's absolute accuracy (~eps * ||T||).  Capping at
# a fixed multiple of the kinetic scale keeps ||T|| proportional to 1/h^2; the
# true eigenfunctions are exponentially or power suppressed wherever the cap
# engages, so the induced eigenvalue shift is far below discretization error.
_CAP_OVER_KINETIC = 16.0

# Bisection tolerance of the quarter grid over its kinetic scale 2/h^2.  The
# double-precision Sturm counts of the capped operator place a level to about
# 0.3 eps * 2/h^2 (measured against long-double counts on the reference
# wells); a tolerance of eps * 2/h^2 would add up to half its width as
# midpoint noise on top, which Richardson then amplifies.  A sixteenth costs
# four more bisection steps.
_TOL_OVER_KINETIC = sys.float_info.epsilon / 16.0

# Refinement of the half and full grids (see _refined_levels): a level is
# converged once its Kato-Temple bound r^2/delta is below this fraction of
# eps * 2/h^2.  A level still short of it after _RQI_SOLVES tridiagonal
# solves leaves its grid uncertified, and solve_spectrum refuses the well.
_RQI_TOL_OVER_KINETIC = 1e-4 * sys.float_info.epsilon
_RQI_SOLVES = 4


def _capped(vt: np.ndarray, kin: float) -> np.ndarray:
    """Potential samples capped at _CAP_OVER_KINETIC times the kinetic scale."""
    return np.minimum(vt, _CAP_OVER_KINETIC * kin)


def _fd_bands(vt: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the capped finite-difference operator."""
    kin = 2.0 / h**2
    return kin + _capped(vt, kin), np.full(len(vt) - 1, -1.0 / h**2)


def _flatten(v, df: DeformingFunction, n: int) -> FlattenedProblem:
    """Finite V(x(g)) on the n-1 interior points of the uniform n-interval g grid."""
    g_lo, g_hi = g_domain(df)
    h = (g_hi - g_lo) / n
    g = g_lo + h * np.arange(1, n)
    vt = _sample(v, np.asarray(mass_unflatten(df, g)))
    if not np.all(np.isfinite(vt)):
        raise ValueError("potential is not finite on the inset grid")
    return FlattenedProblem(g, vt, h)


def _refined_levels(problem: FlattenedProblem, seeds: np.ndarray):
    """The levels nearest `seeds` (at least two), or None if not certified.

    Rayleigh-quotient inverse iteration, one level at a time, with LAPACK's
    tridiagonal solver.  Each level starts from a ramp, which has both
    parities, and is kept orthogonal to the levels below it.  The first
    shift is its seed; later ones are its Rayleigh quotient

        rho = [sum (Delta u)^2 / h^2 + sum min(V, cap) u^2] / sum u^2,

    once the residual r = ||Tu - rho u|| of the unit vector u is below the
    level's gap.  The quotient never forms the 2/h^2 + V diagonal, so it
    keeps none of its eps * 2/h^2 rounding.

    The levels are accepted only when the Sturm counts of the stored
    operator from the Gershgorin bound up to each midpoint between them, and
    up to half a gap above the top one, are 1, 2, ..., n, and every residual
    meets r^2 <= tol * delta, delta being the level's distance to the
    nearest of those count points.  Then each level lies alone in its counted
    slot, which certifies its index, and the Kato-Temple bound r^2/delta
    caps its error at tol = _RQI_TOL_OVER_KINETIC * 2/h^2.
    """
    from scipy.linalg.lapack import dgtsv, dstebz

    d, e = _fd_bands(problem.v, problem.spacing)
    c = -e[0]
    vc = _capped(problem.v, 2.0 * c)
    tol = _RQI_TOL_OVER_KINETIC * 2.0 * c

    def slots(levels):
        # the count point above each level, and each level's distance to the
        # nearest count point; nothing lies below level 0
        tops = np.append(0.5 * (levels[:-1] + levels[1:]), 1.5 * levels[-1] - 0.5 * levels[-2])
        return tops, np.minimum(levels - np.append(-np.inf, tops[:-1]), tops - levels)

    _, delta = slots(seeds)
    ramp = np.linspace(1.0, 2.0, len(d))
    rho = np.empty(len(seeds))
    res = np.empty(len(seeds))
    found: list[np.ndarray] = []
    for k, shift in enumerate(seeds):
        u = ramp
        for _ in range(_RQI_SOLVES):
            *_, x, info = dgtsv(e, d - shift, e, u[:, None])
            if info != 0:
                return None
            u = x[:, 0]
            for w in found:
                u = u - np.dot(w, u) * w
            u = u / np.linalg.norm(u)
            du = np.diff(u, prepend=0.0, append=0.0)
            rho[k] = c * np.dot(du, du) + np.dot(vc * u, u)
            r = (d - rho[k]) * u
            r[1:] += e * u[:-1]
            r[:-1] += e * u[1:]
            res[k] = np.linalg.norm(r)
            if res[k] ** 2 <= tol * delta[k]:
                break
            # until its residual is below the gap, the quotient can still be
            # drawn to another level, so the seed stays the shift
            if res[k] < delta[k]:
                shift = rho[k]
        else:
            return None
        found.append(u)
    tops, delta = slots(rho)
    if not np.all(res**2 <= tol * delta):
        return None
    lo = float(np.min(d)) - 2.0 * c
    for k, top in enumerate(tops):
        # a tolerance wider than the interval stops dstebz at its counts
        if dstebz(d, e, 1, lo, top, 1, 1, 2.0 * (top - lo), "E")[0] != k + 1:
            return None
    return rho


def _lowest_levels(problem: FlattenedProblem, n_levels: int) -> np.ndarray:
    """Lowest n_levels eigenvalues of the problem's capped FD operator, by index.

    Bisection with Sturm counts to _TOL_OVER_KINETIC * 2/h^2.
    """
    # SciPy is imported here, not at module level, so that importing the
    # package and every CLI command but verify run without it.
    from scipy.linalg import eigvalsh_tridiagonal

    d, e = _fd_bands(problem.v, problem.spacing)
    tol = _TOL_OVER_KINETIC * 2.0 / problem.spacing**2
    return eigvalsh_tridiagonal(d, e, select="i", select_range=(0, n_levels - 1), tol=tol)


def solve_spectrum(
    v, df: DeformingFunction, n_levels: int = 2, grid_size: int = 4000
) -> NumericSpectrum:
    """Lowest n_levels eigenvalues of -u'' + V(x(g))u = Eu.

    Interior uniform grid of grid_size-1 points (Dirichlet zero at both
    walls), symmetric tridiagonal eigensolve by bisection and Rayleigh-quotient
    iteration, eigenvalues only.
    Companion runs at half and quarter resolution measure the observed
    convergence order p per level, and the returned eigenvalues are
    Richardson-extrapolated with that order:

        E = E_N + (E_N - E_{N/2}) / (2^p - 1),   p clamped to [1, 4]

    with error estimate |E_N - E_{N/2}|/(2^p - 1).  Measuring p instead of
    assuming 2 matters at a power-law wall: a potential with c/d^2 behaviour
    and regular exponent s = 1/2 + sqrt(c + 1/4) < 3/2 drags the plain
    inset-Dirichlet scheme down to O(h^(2s-1)), and extrapolating with the
    observed order cancels that term just as cleanly as the smooth-wall
    O(h^2) one.

    The quarter grid is bisected by index to the absolute tolerance
    eps/16 * 2/h^2, a sixteenth of its kinetic scale; the double-precision
    Sturm counts stop resolving a level near 0.3 eps * 2/h^2, and LAPACK's
    default, eps * ||T||, is about 18 times the kinetic scale because of the
    16x cap.  The half grid is seeded with the quarter levels and the full
    grid with their p = 2 prediction E_{N/2} + (E_{N/2} - E_{N/4})/4.  Both
    are refined by Rayleigh-quotient iteration, which has no eps * 2/h^2
    floor, and accepted only when Sturm counts certify every level's index
    and the residuals bound its error (see `_refined_levels`).  A grid they
    do not certify, such as that of a cap-dominated well whose levels grow
    with the kinetic scale, or extrapolated levels out of order, raise a
    ValueError "oracle cannot resolve ..." naming the grid.  A single level
    is solved together with the next one, whose gap the certificate needs.

    v is called with the array of x values of each grid and must return an
    array of the same shape; anything else raises ValueError.
    """
    if grid_size < 64:
        raise ValueError(f"grid_size must be at least 64, got {grid_size}")
    if n_levels < 1:
        raise ValueError("n_levels must be >= 1")
    width = max(2, n_levels)
    solved = [_lowest_levels(_flatten(v, df, grid_size // 4), width)]
    for n in (grid_size // 2, grid_size):
        problem = _flatten(v, df, n)
        seeds = solved[0] if len(solved) == 1 else solved[1] + (solved[1] - solved[0]) / 4.0
        levels = _refined_levels(problem, seeds)
        if levels is None:
            raise ValueError(f"oracle cannot resolve: the N={n} grid is not certified")
        solved.append(levels)
    quarter, half, fine = (grid[:n_levels] for grid in solved)
    d1 = fine - half
    d2 = half - quarter
    vals = fine.copy()
    errors = np.zeros_like(fine)
    for k in range(n_levels):
        scale = max(1.0, abs(fine[k]))
        if abs(d1[k]) < 1e3 * np.finfo(float).eps * scale:
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
    return NumericSpectrum(vals, grid_size, errors, fine, problem)


def interior_samples(df: DeformingFunction, n: int) -> np.ndarray:
    """n points spanning the central 90% of the domain."""
    lo, hi = df.domain
    inset = 0.05 * (hi - lo)
    return np.linspace(lo + inset, hi - inset, n)


def residual(psi, v, df: DeformingFunction, energy: float, samples) -> float:
    """Max relative pointwise residual of the deformed eigenequation.

    Evaluates |-sqrt(f) (f (sqrt(f) psi)')' + (V - E) psi| / (|E| max|psi|)
    over the samples, with derivatives of phi = sqrt(f) psi taken by 5-point
    central differences.  The step is h = 1e-3 (shrunk near the boundary),
    balancing the h^4 truncation against roundoff in the second difference.
    psi is called once on the samples and once on the (n, 5) stencil, v once
    on the samples: each must map an array to an array of the same shape, or
    a ValueError is raised.
    """
    lo, hi = df.domain
    xs = np.asarray(samples, dtype=float)
    df.check_interior(xs)
    psi_at = _sample(psi, xs)
    scale = abs(energy) * float(np.max(np.abs(psi_at)))
    if scale == 0.0:
        raise ValueError("zero scale: psi vanishes on all samples or E = 0")
    h = np.minimum(1e-3, np.minimum(0.25 * (xs - lo), 0.25 * (hi - xs)))
    pts = xs[:, None] + h[:, None] * np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    phi = (_sample(psi, pts) * np.sqrt(df.f(pts))).T
    d1 = (phi[0] - 8.0 * phi[1] + 8.0 * phi[3] - phi[4]) / (12.0 * h)
    d2 = (-phi[0] + 16.0 * phi[1] - 30.0 * phi[2] + 16.0 * phi[3] - phi[4]) / (
        12.0 * h * h
    )
    f = df.f(xs)
    r = -np.sqrt(f) * (df.f_prime(xs) * d1 + f * d2) + (_sample(v, xs) - energy) * psi_at
    return float(np.max(np.abs(r))) / scale


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


def gram(psis, df: DeformingFunction, num: int = 16385) -> np.ndarray:
    """Matrix of int psi_i psi_j dx by composite Simpson on an inset uniform grid.

    With y sampled at num points h apart, the rule is
    h/3 (y_0 + 4 (y_1 + y_3 + ...) + 2 (y_2 + y_4 + ...) + y_last).  num must
    be odd and at least 3, so that the intervals pair up into panels, else a
    ValueError is raised.  The grid stops 1e-9 of the width short of each
    boundary; every wavefunction here decays fast enough that the clipped
    tails are far below the quadrature error.  Each psi is called once with
    the whole grid: it must accept an array and return one of the same
    shape, or a ValueError is raised.
    """
    if num < 3 or num % 2 == 0:
        raise ValueError(f"num must be odd and at least 3, got {num}")
    lo, hi = df.domain
    width = hi - lo
    xs, h = np.linspace(lo + 1e-9 * width, hi - 1e-9 * width, num, retstep=True)
    ys = [_sample(psi, xs) for psi in psis]
    out = np.empty((len(ys), len(ys)))
    for i, ya in enumerate(ys):
        for j in range(i, len(ys)):
            y = ya * ys[j]
            out[i, j] = out[j, i] = h / 3.0 * (
                y[0] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum() + y[-1]
            )
    return out


def inner_product(psi_a, psi_b, df: DeformingFunction, num: int = 16385) -> float:
    """int psi_a psi_b dx by the Simpson rule of `gram`.

    A psi_b equal to psi_a (as two bound methods of one object are) is not
    called again.
    """
    return float(gram((psi_a,) if psi_b == psi_a else (psi_a, psi_b), df, num)[0, -1])
