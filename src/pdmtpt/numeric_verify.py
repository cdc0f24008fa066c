"""Independent numeric oracle for the deformed eigenproblems.

The deformed operator -sqrt(f) d/dx f d/dx sqrt(f) + V turns into a
constant-mass Sturm-Liouville problem -u'' + V(x(g)) u = E u for
u = sqrt(f) psi under the coordinate change dg = dx/f.  Both deforming
functions admit a closed-form flattening map, the g-interval is finite, and
the transformed problem is discretized by standard second-order central
differences with Dirichlet ends.  Nothing here reuses the closed-form
spectra, so agreement is a genuine cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dsusy_core import DeformingFunction, Family

__all__ = [
    "FlattenedProblem",
    "NumericSpectrum",
    "g_domain",
    "mass_flatten",
    "mass_unflatten",
    "solve_spectrum",
    "residual",
    "count_nodes",
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


def mass_flatten(df: DeformingFunction, x):
    """Closed-form g(x), strictly increasing, with dg/dx = 1/f.

    One-parameter: g = arctan(sqrt(1+alpha) tan x)/sqrt(1+alpha).
    Two-parameter: g = arctan(sqrt((1-alpha)/(1+alpha)) tan x)/sqrt(1-alpha^2).
    Both are single-branch on their open domains, so no unwrapping is needed.
    """
    a = df.alpha
    if df.family is Family.ONE:
        r = math.sqrt(1.0 + a)
        return np.arctan(r * np.tan(x)) / r
    c = math.sqrt((1.0 - a) / (1.0 + a))
    return np.arctan(c * np.tan(x)) / math.sqrt(1.0 - a * a)


def mass_unflatten(df: DeformingFunction, g):
    """Inverse of mass_flatten."""
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

    df: DeformingFunction
    g: np.ndarray
    v: np.ndarray
    spacing: float


@dataclass(frozen=True)
class NumericSpectrum:
    """Lowest eigenpairs of the flattened finite-difference operator.

    eigenvectors[k] lives on problem.g and is normalized to unit L2 norm in
    g, which equals unit L2 norm in x for psi = u/sqrt(f).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    grid_size: int
    errors: np.ndarray
    # fine-grid values before Richardson extrapolation; these carry the plain
    # O(h^2) discretization error and are what the convergence law applies to
    eigenvalues_raw: np.ndarray
    problem: FlattenedProblem

    def psi_values(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(x grid, psi = u/sqrt(f)) for level k, L2(dx)-normalized."""
        x = np.asarray(mass_unflatten(self.problem.df, self.problem.g))
        u = self.eigenvectors[k]
        return (x, u / np.sqrt(self.problem.df.f(x)))


def _sample(fn, x: np.ndarray) -> np.ndarray:
    """fn(x) for the array x; fn must return an array of the same shape."""
    out = np.asarray(fn(x), dtype=float)
    if out.shape != x.shape:
        raise ValueError(f"callable returned shape {out.shape} for input {x.shape}")
    return out


# Sampled potentials blow up like sec^(4m+2) next to the walls; entries many
# orders above the kinetic scale 2/h^2 only re-enforce the Dirichlet condition
# while wrecking the bisection's absolute accuracy (~eps * ||T||).  Capping at
# a fixed multiple of the kinetic scale keeps ||T|| proportional to 1/h^2; the
# true eigenfunctions are exponentially or power suppressed wherever the cap
# engages, so the induced eigenvalue shift is far below discretization error.
_CAP_OVER_KINETIC = 16.0


def _fd_bands(vt: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the capped finite-difference operator."""
    kin = 2.0 / h**2
    d = kin + np.minimum(vt, _CAP_OVER_KINETIC * kin)
    return d, np.full(len(vt) - 1, -1.0 / h**2)


def solve_spectrum(
    v, df: DeformingFunction, n_levels: int = 2, grid_size: int = 4000
) -> NumericSpectrum:
    """Lowest n_levels eigenvalues/vectors of -u'' + V(x(g))u = Eu.

    Interior uniform grid of grid_size-1 points (Dirichlet zero at both
    walls), symmetric tridiagonal eigensolve by bisection and inverse
    iteration.  Companion runs at half and quarter resolution measure the
    observed convergence order p per level, and the returned eigenvalues are
    Richardson-extrapolated with that order:

        E = E_N + (E_N - E_{N/2}) / (2^p - 1),   p clamped to [1, 4]

    with error estimate |E_N - E_{N/2}|/(2^p - 1).  Measuring p instead of
    assuming 2 matters at a power-law wall: a potential with c/d^2 behaviour
    and regular exponent s = 1/2 + sqrt(c + 1/4) < 3/2 drags the plain
    inset-Dirichlet scheme down to O(h^(2s-1)), and extrapolating with the
    observed order cancels that term just as cleanly as the smooth-wall
    O(h^2) one.  Eigenvectors are the fine-grid ones.

    v is called with the array of x values of each grid and must return an
    array of the same shape; anything else raises ValueError.
    """
    # SciPy is imported here, not at module level, so that importing the
    # package (and every CLI command but verify) pays for NumPy alone.
    from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

    if grid_size < 64:
        raise ValueError(f"grid_size must be at least 64, got {grid_size}")
    if n_levels < 1:
        raise ValueError("n_levels must be >= 1")
    g_lo, g_hi = g_domain(df)
    h = (g_hi - g_lo) / grid_size
    g = g_lo + h * np.arange(1, grid_size)
    x = np.asarray(mass_unflatten(df, g))
    vt = _sample(v, x)
    if not np.all(np.isfinite(vt)):
        raise ValueError("potential is not finite on the inset grid")

    levels = (0, n_levels - 1)
    fine, vecs = eigh_tridiagonal(*_fd_bands(vt, h), select="i", select_range=levels)

    coarse = []
    for n in (grid_size // 2, grid_size // 4):
        hn = (g_hi - g_lo) / n
        gn = g_lo + hn * np.arange(1, n)
        vtn = _sample(v, np.asarray(mass_unflatten(df, gn)))
        coarse.append(
            eigvalsh_tridiagonal(*_fd_bands(vtn, hn), select="i", select_range=levels)
        )
    d1 = fine - coarse[0]
    d2 = coarse[0] - coarse[1]
    vals = fine.copy()
    errors = np.zeros_like(fine)
    for k in range(n_levels):
        scale = max(1.0, abs(fine[k]))
        if abs(d1[k]) < 1e3 * np.finfo(float).eps * scale:
            # already at the eigensolver's floor; extrapolation would only
            # amplify bisection noise
            errors[k] = abs(d1[k])
            continue
        ratio = d2[k] / d1[k]
        p = min(4.0, max(1.0, math.log2(ratio))) if ratio > 0.0 else 2.0
        vals[k] += d1[k] / (2.0**p - 1.0)
        errors[k] = abs(d1[k]) / (2.0**p - 1.0)
    if not np.all(np.diff(vals) > 0.0):
        raise ArithmeticError("eigenvalues not strictly increasing")

    u = vecs.T.copy()
    for k in range(n_levels):
        norm = math.sqrt(h * float(np.sum(u[k] ** 2)))
        u[k] /= norm
        anchor = int(np.argmax(np.abs(u[k])))
        if u[k][anchor] < 0.0:
            u[k] = -u[k]
    problem = FlattenedProblem(df, g, vt, h)
    return NumericSpectrum(vals, u, grid_size, errors, fine, problem)


def interior_samples(df: DeformingFunction, n: int, margin: float = 0.05) -> np.ndarray:
    """n points spanning the central (1 - 2*margin) fraction of the domain."""
    lo, hi = df.domain
    width = hi - lo
    return np.linspace(lo + margin * width, hi - margin * width, n)


def residual(psi, v, df: DeformingFunction, energy: float, samples) -> float:
    """Max relative pointwise residual of the deformed eigenequation.

    Evaluates |-sqrt(f) (f (sqrt(f) psi)')' + (V - E) psi| / (|E| max|psi|)
    over the samples, with derivatives of phi = sqrt(f) psi taken by 5-point
    central differences.  The step is h = 1e-3 (shrunk near the boundary),
    balancing the h^4 truncation against roundoff in the second difference.
    """
    lo, hi = df.domain
    xs = np.asarray(samples, dtype=float)
    df.check_interior(xs)
    psi_at = np.array([float(psi(x)) for x in xs])
    scale = abs(energy) * float(np.max(np.abs(psi_at)))
    if scale == 0.0:
        raise ValueError("zero scale: psi vanishes on all samples or E = 0")
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


def inner_product(psi_a, psi_b, df: DeformingFunction, num: int = 16385) -> float:
    """int psi_a psi_b dx by composite Simpson on an inset uniform grid.

    With y sampled at num points h apart, the rule is
    h/3 (y_0 + 4 (y_1 + y_3 + ...) + 2 (y_2 + y_4 + ...) + y_last).  num must
    be odd and at least 3, so that the intervals pair up into panels, else a
    ValueError is raised.  The grid stops 1e-9 of the width short of each
    boundary; every wavefunction here decays fast enough that the clipped
    tails are far below the quadrature error.  psi_a and psi_b are called
    once each with the whole grid: they must accept an array and return one
    of the same shape, or a ValueError is raised.
    """
    if num < 3 or num % 2 == 0:
        raise ValueError(f"num must be odd and at least 3, got {num}")
    lo, hi = df.domain
    width = hi - lo
    xs, h = np.linspace(lo + 1e-9 * width, hi - 1e-9 * width, num, retstep=True)
    y = _sample(psi_a, xs) * _sample(psi_b, xs)
    return float(h / 3.0 * (y[0] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum() + y[-1]))
