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
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Family",
    "DeformingFunction",
    "TrigLaurentPoly",
    "EvenTrigPoly",
    "GeneratingPair",
    "CompatibilityError",
    "GapSignError",
    "f_value",
    "partner_potential",
    "compatibility_gap",
    "companion_from_generator",
    "make_generating_pair",
    "split_superpotentials",
    "psi0_numeric",
    "psi1_numeric",
    "hermiticity_boundary_check",
    "BoundaryCheck",
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
    """Mass-deforming profile f(x) for one of the two trigonometric families.

    TrigOne: f = 1 + alpha sin^2 x on (-pi/2, pi/2), requires alpha > -1.
    TrigTwo: f = 1 + alpha cos 2x on (0, pi/2), requires |alpha| < 1.
    Both keep f > 0 on the open domain; alpha = 0 is the constant-mass limit
    and is allowed but flagged through `undeformed`.
    """

    family: Family
    alpha: float

    def __post_init__(self) -> None:
        a = self.alpha
        if self.family is Family.ONE:
            if not a > -1.0:
                raise ValueError(f"one-parameter family needs alpha > -1, got {a}")
        else:
            if not abs(a) < 1.0:
                raise ValueError(f"two-parameter family needs |alpha| < 1, got {a}")

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

    @property
    def midpoint(self) -> float:
        lo, hi = self.domain
        return 0.5 * (lo + hi)

    @property
    def undeformed(self) -> bool:
        return self.alpha == 0.0

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

    def mass(self, x):
        return 1.0 / self.f(x) ** 2

    def q_coeffs(self) -> tuple[float, float]:
        """(q0, q2) with f * sec^2 x = q0 + q2 tan^2 x, so that
        f dW/dx = (q0 + q2 u^2) dW/du in the variable u = tan x."""
        if self.family is Family.ONE:
            return (1.0, 1.0 + self.alpha)
        return (1.0 + self.alpha, 1.0 - self.alpha)


def f_value(df: DeformingFunction, x: float) -> tuple[float, float]:
    """(f(x), f'(x)) at a strictly interior point."""
    df.check_interior(x)
    return (float(df.f(x)), float(df.f_prime(x)))


@dataclass(frozen=True)
class TrigLaurentPoly:
    """Odd trigonometric Laurent polynomial
    W(x) = sum_k lam[k] tan^(2k+1) x  -  sum_l mu[l] cot^(2l+1) x.

    The mu block is empty exactly for the one-parameter family (domain
    symmetric about 0, where cot diverges).
    """

    family: Family
    lam: tuple[float, ...]
    mu: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "lam", tuple(float(c) for c in self.lam))
        object.__setattr__(self, "mu", tuple(float(c) for c in self.mu))
        if self.family is Family.ONE and self.mu:
            raise ValueError("one-parameter superpotentials carry no cot powers")

    def is_zero(self) -> bool:
        return all(c == 0.0 for c in self.lam) and all(c == 0.0 for c in self.mu)

    def value(self, x):
        # Horner in u^2 for the tan block, then the cot block.
        u = np.tan(x)
        acc = 0.0 * u
        for c in reversed(self.lam):
            acc = acc * u * u + c
        out = acc * u
        if self.mu:
            w = 1.0 / u
            acc = 0.0 * u
            for c in reversed(self.mu):
                acc = acc * w * w + c
            out = out - acc * w
        return out

    def derivative_value(self, x):
        """dW/dx = (dW/du) sec^2 x."""
        u = np.tan(x)
        acc = 0.0 * u
        for k in reversed(range(len(self.lam))):
            acc = acc * u * u + (2 * k + 1) * self.lam[k]
        out = acc
        if self.mu:
            w = 1.0 / u
            acc = 0.0 * u
            for l in reversed(range(len(self.mu))):
                acc = acc * w * w + (2 * l + 1) * self.mu[l]
            out = out + acc * w * w
        return out * (1.0 + u * u)

    def scaled(self, c: float) -> "TrigLaurentPoly":
        return TrigLaurentPoly(
            self.family,
            tuple(c * v for v in self.lam),
            tuple(c * v for v in self.mu),
        )


def _combine(a: TrigLaurentPoly, b: TrigLaurentPoly, sb: float) -> TrigLaurentPoly:
    # coefficient-wise a + sb*b with zero padding
    if a.family is not b.family:
        raise ValueError("superpotentials belong to different families")
    nl = max(len(a.lam), len(b.lam))
    nm = max(len(a.mu), len(b.mu))
    lam = tuple(
        (a.lam[k] if k < len(a.lam) else 0.0) + sb * (b.lam[k] if k < len(b.lam) else 0.0)
        for k in range(nl)
    )
    mu = tuple(
        (a.mu[l] if l < len(a.mu) else 0.0) + sb * (b.mu[l] if l < len(b.mu) else 0.0)
        for l in range(nm)
    )
    return TrigLaurentPoly(a.family, lam, mu)


@dataclass(frozen=True)
class EvenTrigPoly:
    """Even trigonometric Laurent polynomial
    P(x) = sum_{k>=0} a[k] tan^(2k) x + sum_{l>=1} b[l-1] cot^(2l) x,
    the form taken by every partner potential built here."""

    family: Family
    a: tuple[float, ...]
    b: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", tuple(float(c) for c in self.a))
        object.__setattr__(self, "b", tuple(float(c) for c in self.b))

    def value(self, x):
        u = np.tan(x)
        acc = 0.0 * u
        for c in reversed(self.a):
            acc = acc * u * u + c
        out = acc
        if self.b:
            w = 1.0 / (u * u)
            acc = 0.0 * u
            for c in reversed(self.b):
                acc = (acc + c) * w
            out = out + acc
        return out

    def resummed(self) -> tuple[float, tuple[float, ...], tuple[float, ...]]:
        """Rewrite in powers of sec^2 x and csc^2 x.

        Uses tan^2 = sec^2 - 1 and cot^2 = csc^2 - 1.  Returns
        (constant, sec-coefficients A_2..A_2K, csc-coefficients B_2..B_2L)
        with P = constant + sum_k A_2k sec^(2k) + sum_l B_2l csc^(2l).
        """
        a, b = self.a, self.b
        const_terms = [(-1.0) ** k * a[k] for k in range(len(a))]
        const_terms += [(-1.0) ** l * b[l - 1] for l in range(1, len(b) + 1)]
        sec = tuple(
            math.fsum(
                (-1.0) ** (l - k) * math.comb(l, k) * a[l] for l in range(k, len(a))
            )
            for k in range(1, len(a))
        )
        csc = tuple(
            math.fsum(
                (-1.0) ** (j - l) * math.comb(j, l) * b[j - 1]
                for j in range(l, len(b) + 1)
            )
            for l in range(1, len(b) + 1)
        )
        return (math.fsum(const_terms), sec, csc)


@dataclass(frozen=True)
class GeneratingPair:
    """(W_plus, W_minus, gap) with f W_plus' - W_plus W_minus = gap > 0."""

    w_plus: TrigLaurentPoly
    w_minus: TrigLaurentPoly
    gap: float


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
    return EvenTrigPoly(w.family, a, b)


def compatibility_gap(
    w_plus: TrigLaurentPoly, w_minus: TrigLaurentPoly, df: DeformingFunction
) -> float:
    """The constant c = f W_plus' - W_plus W_minus, if it is one.

    Checked symbolically (all nonconstant coefficients of the Laurent
    expansion must cancel to rounding level) and then re-sampled at 64 points
    on the central half of the domain as a guard.  Raises CompatibilityError
    if the expression is not constant, GapSignError if the constant is not
    positive.
    """
    if w_plus.family is not w_minus.family or w_plus.family is not df.family:
        raise ValueError("pair and deforming function families disagree")
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
    lo, hi = df.domain
    width = hi - lo
    xs = np.linspace(lo + 0.25 * width, hi - 0.25 * width, 64)
    sampled = df.f(xs) * w_plus.derivative_value(xs) - w_plus.value(xs) * w_minus.value(xs)
    spread = float(np.max(np.abs(sampled - c0)))
    if spread > 1e-10 * max(1.0, abs(c0)):
        raise CompatibilityError(
            f"sampled gap spread {spread:.3e} exceeds tolerance", max_residual=spread
        )
    if c0 <= 0.0:
        raise GapSignError(f"compatibility constant must be positive, got {c0}")
    return c0


def companion_from_generator(
    w_plus: TrigLaurentPoly, df: DeformingFunction, gap: float
) -> TrigLaurentPoly:
    """Solve f W_plus' - W_plus W_minus = gap for W_minus.

    The quotient (f W_plus' - gap) / W_plus is computed by polynomial
    division in v = tan^2 x after factoring out the lowest Laurent power; it
    must itself be an odd trigonometric Laurent polynomial, otherwise the
    given gap is incompatible with W_plus and CompatibilityError is raised.
    """
    if gap <= 0.0:
        raise GapSignError(f"gap must be positive, got {gap}")
    if w_plus.is_zero():
        raise ValueError("W_plus must not be identically zero")
    if w_plus.family is not df.family:
        raise ValueError("W_plus and deforming function families disagree")
    num = _f_dw_dx_map(w_plus, df)
    num[0] = num.get(0, 0.0) - gap
    den = _w_to_map(w_plus)

    # Structural lowest powers: for the tan-only form W_plus starts at u^1 and
    # the numerator at u^0; with a cot block down to u^-(2M+1) the numerator
    # reaches u^-(2M+2).
    n_mu = len(w_plus.mu)
    dmin = -(2 * n_mu - 1) if n_mu else 1
    dmax = 2 * len(w_plus.lam) - 1
    nmin = dmin - 1
    nmax = dmax + 1
    den_v = [den.get(p, 0.0) for p in range(dmin, dmax + 1, 2)]
    num_v = [num.get(p, 0.0) for p in range(nmin, nmax + 1, 2)]
    while den_v and den_v[-1] == 0.0:
        den_v.pop()
        dmax -= 2
    if not den_v:
        raise ValueError("W_plus must not be identically zero")

    # Synthetic division, highest degree first.
    scale = max(1.0, max(abs(c) for c in num_v))
    quot = [0.0] * (len(num_v) - len(den_v) + 1)
    rem = list(num_v)
    lead = den_v[-1]
    for j in reversed(range(len(quot))):
        q = rem[j + len(den_v) - 1] / lead
        quot[j] = q
        for i, d in enumerate(den_v):
            rem[j + i] -= q * d
    max_resid = max((abs(r) for r in rem[: len(den_v) - 1]), default=0.0)
    tail = max((abs(r) for r in rem[len(den_v) - 1 :]), default=0.0)
    max_resid = max(max_resid, tail)
    if max_resid > 1e-8 * scale:
        raise CompatibilityError(
            f"quotient is not polynomial: remainder {max_resid:.3e} "
            f"against numerator scale {scale:.3e}",
            max_residual=max_resid,
        )

    # Quotient powers are u^(nmin-dmin+2j) = u^(-1+2j).
    tol = 1e-8 * max(1.0, max(abs(q) for q in quot))
    cot_c = -quot[0] if abs(quot[0]) > tol else 0.0
    lam = [c if abs(c) > tol else 0.0 for c in quot[1:]]
    while lam and lam[-1] == 0.0:
        lam.pop()
    if w_plus.family is Family.ONE:
        if cot_c != 0.0:
            raise CompatibilityError(
                "quotient carries a cot power on the full-period domain",
                max_residual=abs(cot_c),
            )
        return TrigLaurentPoly(Family.ONE, tuple(lam))
    return TrigLaurentPoly(Family.TWO, tuple(lam), (cot_c,))


def make_generating_pair(
    w_plus: TrigLaurentPoly, w_minus: TrigLaurentPoly, df: DeformingFunction
) -> GeneratingPair:
    """Validate compatibility and package the pair with its gap."""
    return GeneratingPair(w_plus, w_minus, compatibility_gap(w_plus, w_minus, df))


def split_superpotentials(
    pair: GeneratingPair,
) -> tuple[TrigLaurentPoly, TrigLaurentPoly]:
    """W = (W_plus - W_minus)/2 and W' = (W_plus + W_minus)/2."""
    half = _combine(pair.w_plus, pair.w_minus, -1.0).scaled(0.5)
    half_p = _combine(pair.w_plus, pair.w_minus, 1.0).scaled(0.5)
    return (half, half_p)


def _log_suppression(w: TrigLaurentPoly, df: DeformingFunction, x: float) -> float:
    # Q(x) = int_{x_c}^{x} W/f, by adaptive quadrature.  SciPy is imported
    # here so that importing the package does not load scipy.integrate.
    from scipy import integrate

    xc = df.midpoint
    val, err = integrate.quad(
        lambda t: w.value(t) / df.f(t), xc, x, epsabs=1e-12, epsrel=1e-12, limit=200
    )
    if err > 1e-9 * max(1.0, abs(val)):
        raise RuntimeError(
            f"quadrature for the superpotential integral did not converge "
            f"(estimate {val}, error {err})"
        )
    return val


def psi0_numeric(w: TrigLaurentPoly, df: DeformingFunction, x: float) -> float:
    """Ground state f^(-1/2) exp(-int W/f), anchored at the domain midpoint.

    Normalization convention: the exponential factor is 1 at the midpoint,
    so psi0_numeric(x_c) = f(x_c)^(-1/2).
    """
    df.check_interior(x)
    return float(df.f(x)) ** -0.5 * math.exp(-_log_suppression(w, df, x))


def psi1_numeric(
    pair: GeneratingPair,
    w_prime: TrigLaurentPoly,
    df: DeformingFunction,
    x: float,
) -> float:
    """First excited state W_plus f^(-1/2) exp(-int W'/f), same anchoring."""
    df.check_interior(x)
    pref = float(pair.w_plus.value(x))
    return pref * float(df.f(x)) ** -0.5 * math.exp(-_log_suppression(w_prime, df, x))


@dataclass(frozen=True)
class BoundaryCheck:
    """Result of the Hermiticity boundary test |psi|^2 f -> 0."""

    passed: bool
    lower_limit: float
    upper_limit: float
    interior_max: float


def hermiticity_boundary_check(psi, df: DeformingFunction) -> BoundaryCheck:
    """Check |psi|^2 f -> 0 at both domain ends.

    The product is sampled along the geometric sequences x_lo + 2^-j d and
    x_hi - 2^-j d, d = width/8, j = 0..20; the limit estimate at each end is
    the largest of the last three samples.  Passes iff both limits are below
    1e-8 times the interior maximum of |psi|^2 f.
    """
    lo, hi = df.domain
    width = hi - lo
    d = width / 8.0

    def density(x: float) -> float:
        return abs(psi(x)) ** 2 * float(df.f(x))

    interior = np.linspace(lo + d, hi - d, 257)
    interior_max = max(density(float(x)) for x in interior)
    lows = [density(lo + d * 2.0**-j) for j in range(21)]
    highs = [density(hi - d * 2.0**-j) for j in range(21)]
    lower = max(lows[-3:])
    upper = max(highs[-3:])
    ok = interior_max > 0.0 and lower < 1e-8 * interior_max and upper < 1e-8 * interior_max
    return BoundaryCheck(ok, lower, upper, interior_max)
