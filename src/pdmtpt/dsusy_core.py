"""Deformed supersymmetric engine for trigonometric superpotentials.

The deformed Schrodinger operator is H = -sqrt(f) d/dx f d/dx sqrt(f) + V,
equivalent to a position-dependent-mass problem with mass profile 1/f^2.
A superpotential W generates the partner potentials V_{1,2} = W^2 -/+ f W',
and a generating pair (W_plus, W_minus) with

    f dW_plus/dx - W_plus W_minus = gap  (a positive constant)

encodes the first two levels: W = (W_plus - W_minus)/2 produces V_1 and the
ground state, W' = (W_plus + W_minus)/2 produces the same potential shifted
by the gap and the first excited state psi_1 = W_plus * f^(-1/2) *
exp(-int W'/f).

Superpotentials here are odd Laurent polynomials in tan x (and cot x for the
half-domain family).  All algebra is done exactly on {power of tan x ->
coefficient} maps, using that f * d/dx acts on such polynomials as
multiplication by a quadratic in u = tan x after d/du.
`DeformingFunction` holds everything family-specific, the alpha range and
the flattening map included; a superpotential is two-parameter exactly when
it has a cot ladder.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from ._lazy import np
from .combinatorics import binomial_transform, fsum

__all__ = [
    "Family",
    "DeformingFunction",
    "TrigLaurentPoly",
    "EvenTrigPoly",
    "CompatibilityError",
    "GapSignError",
    "partner_potential",
    "compatibility_gap",
]

# Interval endpoints are never evaluable (tan/cot and the potentials blow up).
_HALF_PI = math.pi / 2.0


class Family(enum.Enum):
    """Deformation family: full-period well or half-period well."""

    ONE = "one"  # f = 1 + alpha sin^2 x on (-pi/2, pi/2)
    TWO = "two"  # f = 1 + alpha cos 2x on (0, pi/2)


class CompatibilityError(ValueError):
    """f W_plus' - W_plus W_minus is not the required constant."""

    def __init__(self, message: str, max_residual: float = math.nan):
        super().__init__(message)
        self.max_residual = max_residual


class GapSignError(ValueError):
    """The compatibility constant exists but is not positive."""


@dataclass(frozen=True)
class DeformingFunction:
    """Mass-deforming profile f(x) and everything else family-specific.

    TrigOne: f = 1 + alpha sin^2 x on (-pi/2, pi/2), requires alpha > -1.
    TrigTwo: f = 1 + alpha cos 2x on (0, pi/2), requires |alpha| < 1.
    Both keep f > 0 on the open domain; alpha = 0, the constant-mass limit,
    is allowed.  Only here is the alpha range checked.  The flattening map
    g = int dx/f takes the open x domain onto `g_domain`; `unflatten`
    inverts it.
    """

    family: Family
    alpha: float

    def __post_init__(self) -> None:
        if self.family is Family.ONE and not self.alpha > -1.0:
            raise ValueError(f"need alpha > -1, got {self.alpha}")
        if self.family is Family.TWO and not abs(self.alpha) < 1.0:
            raise ValueError(f"need |alpha| < 1, got {self.alpha}")

    @classmethod
    def trig_one(cls, alpha: float) -> "DeformingFunction":
        return cls(Family.ONE, float(alpha))

    @classmethod
    def trig_two(cls, alpha: float) -> "DeformingFunction":
        return cls(Family.TWO, float(alpha))

    @property
    def domain(self) -> tuple[float, float]:
        if self.family is Family.ONE:
            return (-_HALF_PI, _HALF_PI)
        return (0.0, _HALF_PI)

    def check_interior(self, x) -> None:
        lo, hi = self.domain
        if np.any(np.asarray(x) <= lo) or np.any(np.asarray(x) >= hi):
            raise ValueError(f"x must lie strictly inside ({lo}, {hi})")

    def f(self, x):
        if self.family is Family.ONE:
            return 1.0 + self.alpha * np.sin(x) ** 2
        return 1.0 + self.alpha * np.cos(2.0 * x)

    def f_prime(self, x):
        if self.family is Family.ONE:
            return self.alpha * np.sin(2.0 * x)
        return -2.0 * self.alpha * np.sin(2.0 * x)

    def f_second(self, x):
        if self.family is Family.ONE:
            return 2.0 * self.alpha * np.cos(2.0 * x)
        return -4.0 * self.alpha * np.cos(2.0 * x)

    def q_coeffs(self) -> tuple[float, float]:
        """(q0, q2) with f * sec^2 x = q0 + q2 tan^2 x, so that
        f dW/dx = (q0 + q2 u^2) dW/du in the variable u = tan x."""
        if self.family is Family.ONE:
            return (1.0, 1.0 + self.alpha)
        return (1.0 + self.alpha, 1.0 - self.alpha)

    @property
    def g_domain(self) -> tuple[float, float]:
        """Endpoints of the flattened coordinate g = int dx/f."""
        a = self.alpha
        if self.family is Family.ONE:
            half = math.pi / (2.0 * math.sqrt(1.0 + a))
            return (-half, half)
        return (0.0, math.pi / (2.0 * math.sqrt(1.0 - a * a)))

    def unflatten(self, g):
        """Closed-form x(g), strictly increasing, with dx/dg = f: for one
        parameter x = arctan(tan(sqrt(1+alpha) g)/sqrt(1+alpha)), for two
        x = arctan(tan(sqrt(1-alpha^2) g)/sqrt((1-alpha)/(1+alpha)))."""
        a = self.alpha
        if self.family is Family.ONE:
            r = math.sqrt(1.0 + a)
            return np.arctan(np.tan(r * g) / r)
        c = math.sqrt((1.0 - a) / (1.0 + a))
        # tan(sqrt(1-a^2) g) > 0 for g in the open domain, so arctan stays on
        # the principal branch and lands in (0, pi/2) directly
        return np.arctan(np.tan(math.sqrt(1.0 - a * a) * g) / c)


@dataclass(frozen=True)
class TrigLaurentPoly:
    """Odd trigonometric Laurent polynomial
    W(x) = sum_k lam[k] tan^(2k+1) x  -  sum_l mu[l] cot^(2l+1) x.

    The mu block is empty exactly for the one-parameter family (domain
    symmetric about 0, where cot diverges).
    """

    lam: tuple[float, ...]
    mu: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "lam", tuple(float(c) for c in self.lam))
        object.__setattr__(self, "mu", tuple(float(c) for c in self.mu))


@dataclass(frozen=True)
class EvenTrigPoly:
    """Even trigonometric Laurent polynomial
    P(x) = sum_{k>=0} a[k] tan^(2k) x + sum_{l>=1} b[l-1] cot^(2l) x,
    the form taken by every partner potential built here."""

    a: tuple[float, ...]
    b: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", tuple(float(c) for c in self.a))
        object.__setattr__(self, "b", tuple(float(c) for c in self.b))

    def resummed(self) -> tuple[float, tuple[float, ...], tuple[float, ...]]:
        """Rewrite in powers of sec^2 x and csc^2 x.

        Uses tan^2 = sec^2 - 1 and cot^2 = csc^2 - 1.  Returns
        (constant, sec-coefficients A_2..A_2K, csc-coefficients B_2..B_2L)
        with P = constant + sum_k A_2k sec^(2k) + sum_l B_2l csc^(2l).
        """
        a, b = self.a, self.b
        const_terms = [(-1.0) ** k * a[k] for k in range(len(a))]
        const_terms += [(-1.0) ** l * b[l - 1] for l in range(1, len(b) + 1)]
        # the transforms' sec^0 and csc^0 terms are the constant's, summed as one
        return (fsum(const_terms), binomial_transform(a)[1:], binomial_transform((0.0,) + b)[1:])


# ---------------------------------------------------------------------------
# Laurent-map algebra in u = tan x.  Keys are integer powers of u, values are
# float coefficients; parity is preserved by every operation used below.


def _w_to_map(w: TrigLaurentPoly) -> dict[int, float]:
    m: dict[int, float] = {}
    for k, c in enumerate(w.lam):
        if c != 0.0:
            m[2 * k + 1] = m.get(2 * k + 1, 0.0) + c
    for l, c in enumerate(w.mu):
        if c != 0.0:
            m[-(2 * l + 1)] = m.get(-(2 * l + 1), 0.0) - c
    return m


def _map_mul(p: dict[int, float], q: dict[int, float]) -> dict[int, float]:
    out: dict[int, float] = {}
    for i, ci in p.items():
        for j, cj in q.items():
            out[i + j] = out.get(i + j, 0.0) + ci * cj
    return out

def _map_du(p: dict[int, float]) -> dict[int, float]:
    return {j - 1: j * c for j, c in p.items() if j != 0}


def _f_dw_dx_map(w: TrigLaurentPoly, df: DeformingFunction) -> dict[int, float]:
    q0, q2 = df.q_coeffs()
    return _map_mul({0: q0, 2: q2}, _map_du(_w_to_map(w)))


def _map_max_abs(p: dict[int, float]) -> float:
    return max((abs(c) for c in p.values()), default=0.0)


def partner_potential(
    w: TrigLaurentPoly, df: DeformingFunction, which: str
) -> EvenTrigPoly:
    """V_1 = W^2 - f W' or V_2 = W^2 + f W', exactly, as an EvenTrigPoly.

    `which` is "V1" or "V2".
    """
    if which not in ("V1", "V2"):
        raise ValueError(f"which must be 'V1' or 'V2', got {which!r}")
    sign = -1.0 if which == "V1" else 1.0
    wm = _w_to_map(w)
    total = _map_mul(wm, wm)
    for j, c in _f_dw_dx_map(w, df).items():
        total[j] = total.get(j, 0.0) + sign * c
    if any(j % 2 for j in total):
        raise AssertionError("partner potential picked up odd powers")
    kmax = max((j for j in total if j > 0), default=0) // 2
    lmax = -min((j for j in total if j < 0), default=0) // 2
    a = tuple(total.get(2 * k, 0.0) for k in range(kmax + 1))
    b = tuple(total.get(-2 * l, 0.0) for l in range(1, lmax + 1))
    return EvenTrigPoly(a, b)


def compatibility_gap(
    w_plus: TrigLaurentPoly, w_minus: TrigLaurentPoly, df: DeformingFunction
) -> float:
    """The constant c = f W_plus' - W_plus W_minus, if it is one.

    Checked symbolically: every nonconstant coefficient of the Laurent
    expansion must cancel to 1e-10 times the largest term, so the rounding of
    deep ladders passes.  Raises CompatibilityError if the expression is not
    constant, GapSignError if the constant is not positive, and ValueError
    unless the pair has cot ladders exactly when f is two-parameter.
    """
    two = df.family is Family.TWO
    if bool(w_plus.mu) is not two or bool(w_minus.mu) is not two:
        raise ValueError("the pair has cot ladders exactly when f is two-parameter")
    lhs = _f_dw_dx_map(w_plus, df)
    rhs = _map_mul(_w_to_map(w_plus), _w_to_map(w_minus))
    resid = dict(lhs)
    for j, c in rhs.items():
        resid[j] = resid.get(j, 0.0) - c
    c0 = resid.pop(0, 0.0)
    scale = max(1.0, abs(c0), _map_max_abs(lhs), _map_max_abs(rhs))
    worst = _map_max_abs(resid)
    if worst > 1e-10 * scale:
        raise CompatibilityError(
            f"f W+' - W+ W- is not constant: residual {worst:.3e} "
            f"against scale {scale:.3e}",
            max_residual=worst,
        )
    if c0 <= 0.0:
        raise GapSignError(f"compatibility constant must be positive, got {c0}")
    return c0

