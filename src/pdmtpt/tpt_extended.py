"""Quasi-exactly solvable extensions of the deformed Poschl-Teller wells.

Families built here:

* one-parameter extensions V = sum_{k=1}^{2m+1} A_2k sec^(2k) x, m >= 1,
  on (-pi/2, pi/2) with f = 1 + alpha sin^2 x;
* two-parameter extensions V = sum_{k=1}^{2m1+1} A_2k sec^(2k) x
  + sum_{l=1}^{2m2+1} B_2l csc^(2l) x on (0, pi/2) with f = 1 + alpha cos 2x.

Given the top coefficients (A_{4m+2}, and B_{4m2+2} or B_2) and alpha, the
lower coefficients are fixed so that the lowest two eigenstates come out in
closed form.  Every derived quantity is computed twice: once from the direct
closed-form coefficient formulas (long alternating sums over double
factorials and binomials) and once by expanding W^2 - f W' in exact
polynomial algebra over tan^2 x / cot^2 x and resumming.  The two paths must
agree to rounding level or the build aborts, which guards against
transcription errors in the long formulas.

Both families split their generating pair the same way: W_plus and W_minus
come from one `_w_pair_*` function each, and one `_ladders` gives the ladder
coefficients of W = (W_plus - W_minus)/2 and W' = W + W_minus.  The gap
E_1 - E_0 is stored as its closed form, and each build checks it against the
constant f W_plus' - W_plus W_minus of the same pair.  The two-parameter gap
is `_gap_two`; the one-parameter gap, 2 sqrt(A) (2m+1)!!/(2m)!! (1+alpha)^-m,
is W_plus's lam_0 and is read from it.

Both spec classes store what their consumers read under the same names:
the sec and csc ladders `a_coeffs` and `b_coeffs` (empty for the
one-parameter family), the deforming function `deforming`, the closed-form
wavefunctions `psi` and `dual_path`, the largest discrepancy of the build's
E_0 and coefficient checks.  `psi` is one `ClosedFormWavefunction` holding
psi_0 and psi_1: they share everything but their f exponent and prefactor,
so it stores the shared parts once and evaluates both levels together.

The one-parameter closed forms read one double-factorial table per build,
`ladder_table(m)`: (2m+1)!! and the denominators (2l+1)!! (2m-2l)!! of
W_plus's ladder ratios.  W_plus (and with it the gap), the psi_1 prefactor
and the linear block of `_sec_terms_one` read their ratios from it, and one
`s_sum` call takes the 2m+1 double-factorial sums S_l as the integer
self-convolution of the same ratios.  `_sec_terms_one` gives the linear and
quadratic sums weighted by (-1)^(l-j) C(l, j), which are A_2j (j >= 2), A_2
with a leading block (j = 1) and, subtracted from two leading blocks, E_0
(j = 0).

The wavefunction constants of both families (C, and D for the csc ladder)
read one resummation per ladder, `binomial_transform`: the coefficients of
sum_k lam_k tan^(2k) x in powers of sec^2 x.

The two-parameter well maps onto itself under x -> pi/2 - x, alpha -> -alpha
with the sec and csc ladders swapped.  The closed-form path uses this: the
csc coefficients B_2l and the wavefunction constants D_q are the sec-side
formulas (A_2k and C_p) evaluated on the reflected well, and E_0 is its
reflection-invariant terms plus one sec-side sum taken once as given and once
reflected.  `_closed_two` takes each side's sums, `_sec_terms`, once per
weight j and reads E_0 from j = 0 and the side's ladder from j >= 1, as
`_closed_one` does.  The quadratic and cross sums of W_plus's binomial
ladders do not depend on j: each side tables them once per build,
`_conv_tables`, one exact integer convolution per entry rounded to float
once, and every weight reads the table, so a build's integer work is O(m^2)
rather than O(m^3).  The expansion path is not reflected, so it still checks
the csc side independently.

For m2 = 0 the closed forms are reused with sqrt(B_2) replaced by
1 + alpha + Delta/2, Delta = sqrt((1+alpha)^2 + 4 B_2); the coefficient
formulas are polynomial identities in the replaced symbol, so they remain
valid, and the B_2 output reproduces the input exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ._lazy import np
from .combinatorics import binomial, binomial_transform, f_poly, fsum, ladder_table, s_sum
from .dsusy_core import (
    DeformingFunction,
    TrigLaurentPoly,
    compatibility_gap,
    partner_potential,
)

__all__ = [
    "ExtendedOneParamSpec",
    "ExtendedTwoParamSpec",
    "ClosedFormWavefunction",
    "InternalConsistencyError",
    "build_one_param",
    "expand_and_resum_one_param",
    "build_two_param",
    "expand_and_resum_two_param",
    "closed_form_wavefunction",
    "potential_value",
]


# The deepest ladder a build accepts.  One-parameter builds overflow double
# precision from about m = 150 on; the bound refuses depths whose exact
# integer work would run for seconds or hours before any overflow shows.
_MAX_DEPTH = 1000

# A one-parameter ladder's ((2m+1)!!, denominators), from `ladder_table`.
_Table = tuple[int, tuple[int, ...]]


class InternalConsistencyError(RuntimeError):
    """The two independent computation paths disagree (a bug trap, not a
    user-input problem)."""


def _check_match(label: str, closed, expanded, tol: float) -> float:
    """Max |closed - expanded| over matched entries, or raise.

    `closed` and `expanded` are each a float or a list or tuple of floats.
    A value that is not finite on either path is a precision limit of the
    float build, reported as a one-line ValueError.
    """
    ca = closed if isinstance(closed, (list, tuple)) else (closed,)
    ea = expanded if isinstance(expanded, (list, tuple)) else (expanded,)
    if len(ca) != len(ea):
        raise InternalConsistencyError(
            f"{label}: paths produced different shapes {(len(ca),)} vs {(len(ea),)}"
        )
    for c, e in zip(ca, ea):
        if not (math.isfinite(c) and math.isfinite(e)):
            raise ValueError(
                f"precision limit: {label} is {c:.3g} on the closed-form path "
                f"and {e:.3g} on the expansion path; the build overflows "
                "double precision"
            )
    scale = max(1.0, *map(abs, ca), *map(abs, ea))
    worst = max((abs(c - e) for c, e in zip(ca, ea)), default=0.0)
    if worst > tol * scale:
        raise InternalConsistencyError(
            f"{label}: closed-form and expansion paths disagree by {worst:.3e} "
            f"(scale {scale:.3e}, tolerance {tol:.1e})"
        )
    return worst


# ---------------------------------------------------------------------------
# Closed-form wavefunction container, shared by both families.


def _horner(coeffs, y):
    """sum_j coeffs[j] y^j, the one polynomial evaluation of this module.

    Starts from the scalar top coefficient, so one coefficient gives a
    scalar and none gives 0.0.
    """
    acc = coeffs[-1] if coeffs else 0.0
    for coef in reversed(coeffs[:-1]):
        acc = acc * y + coef
    return acc


def _euler(coeffs) -> tuple[float, ...]:
    """Coefficients of y dF/dy for F = sum_j coeffs[j] y^j."""
    return tuple(j * coef for j, coef in enumerate(coeffs))


@dataclass(frozen=True)
class ClosedFormWavefunction:
    """The closed-form wavefunctions of one well, one per level k, each
    f^f_exp[k] (cos x)^cos_exp (sin x)^sin_exp
      * P_k(sin^2 x) * (sin x if odd[k])
      * exp(-sum_K sec_coeffs[K-1] sec^(2K) x - sum_K csc_coeffs[K-1] csc^(2K) x),
    P_k having the coefficients poly[k].

    The levels share df, the exponents of cos x and sin x and the ladders,
    which are stored once; f_exp, poly and odd hold one entry per level.
    The leading sec (and csc, where present) coefficients are positive, so the
    exponential wins at the boundaries and each value decays to zero there.
    Evaluation is done in log space to stay finite arbitrarily close to the
    ends; scalar or numpy-array x is accepted.  Each evaluation computes f,
    cos x, sin x, their logs and the ladder sums once for all levels.
    """

    df: DeformingFunction
    cos_exp: float
    sin_exp: float
    sec_coeffs: tuple[float, ...]
    csc_coeffs: tuple[float, ...]
    f_exp: tuple[float, ...]
    poly: tuple[tuple[float, ...], ...]
    odd: tuple[bool, ...]

    def value(self, x) -> np.ndarray:
        """Each level at x, stacked: shape (levels,) + x's shape.

        Next to a wall a ladder sum may pass the largest double.  Its
        leading coefficient is positive, so it is then +inf and the value
        its limit 0, and that overflow is not reported.
        """
        self.df.check_interior(x)
        with np.errstate(over="ignore"):
            forms = self._log_forms(np.asarray(x, dtype=float), False)
        return np.stack([q * np.exp(expo) for (q,), (expo,) in forms])

    def log_form(self, x) -> list:
        """sqrt(f) psi = q e^L of each level at the interior points x, in
        closed form.

        q = P(sin^2 x) (sin x if odd) is the prefactor and L the log of the
        rest.  Returns, per level, the lists [q, q', q''] and [L, L', L''],
        the primes being x-derivatives.
        """
        self.df.check_interior(x)
        return self._log_forms(np.asarray(x, dtype=float), True)

    def _log_forms(self, x, derivatives: bool) -> list:
        """[(q, L)] of `log_form` for each level at the array x.

        With `derivatives`, f is raised to f_exp + 1/2, for sqrt(f) psi;
        without, to f_exp, and only [q] and [L] are formed, as `value` needs
        them.

        With y = sec^2 x and g = tan x, or y = csc^2 x and g = -cot x, a
        ladder F(y) = sum_K c_K y^K has dF/dx = 2 g DF and d^2F/dx^2 = 2 y DF
        + 4 g^2 D^2F, where D = y d/dy; the log of cos x or sin x has
        derivatives -g and -y.  The terms of L, L' and L'' that every level
        subtracts are collected in `terms`, in the order each subtracts them.
        """
        df = self.df
        f = df.f(x)
        c = np.cos(x)
        s = np.sin(x)
        s2 = s * s
        log_f = np.log(f)
        log_cos = self.cos_exp * np.log(c)
        log_sin = self.sin_exp * np.log(s) if self.sin_exp != 0.0 else None
        terms: list[list] = [[], [], []]
        if derivatives:
            fp = df.f_prime(x) / f
            curvature = df.f_second(x) / f - fp * fp
        for expo, coeffs, trig, co in (
            (self.cos_exp, self.sec_coeffs, c, s),
            (self.sin_exp, self.csc_coeffs, s, -c),
        ):
            if not (coeffs or (derivatives and expo != 0.0)):
                continue  # so nothing divides by sin x unless this side needs it
            y = 1.0 / (trig * trig)
            ladder = (0.0,) + coeffs
            terms[0].append(_horner(ladder, y))
            if derivatives:
                g = co / trig
                slope = expo + 2.0 * _horner(_euler(ladder), y)  # L' gains -g slope
                terms[1].append(g * slope)
                terms[2] += [y * slope, 4.0 * g * g * _horner(_euler(_euler(ladder)), y)]
        out = []
        for f_exp, poly, odd in zip(self.f_exp, self.poly, self.odd):
            if derivatives:
                f_exp += 0.5
            big_l = [f_exp * log_f + log_cos]
            if log_sin is not None:
                big_l[0] = big_l[0] + log_sin
            q = [_horner(poly, s2)]
            if derivatives:
                big_l += [f_exp * fp, f_exp * curvature]
                # P(u) at u = sin^2 x, where u' = 2 s c and u'' = 2 (c^2 - s^2)
                pu = _euler(poly)[1:]
                p1 = _horner(pu, s2)
                q += [
                    p1 * 2.0 * s * c,
                    _horner(_euler(pu)[1:], s2) * 4.0 * s2 * c * c + p1 * 2.0 * (c * c - s2),
                ]
            for k in range(len(big_l)):
                for term in terms[k]:
                    big_l[k] -= term  # each big_l[k] is this level's own array
            if odd:
                if derivatives:
                    q[1:] = [q[1] * s + q[0] * c, q[2] * s + 2.0 * q[1] * c - q[0] * s]
                q[0] = q[0] * s
            if derivatives:
                q[0] = np.broadcast_to(q[0], x.shape)  # a scalar where q is constant
            out.append((q, big_l))
        return out


def _ladders(
    w_plus: TrigLaurentPoly, w_minus: TrigLaurentPoly
) -> tuple[tuple[float, ...], ...]:
    """(lam, lam', mu, mu') of W = (W_plus - W_minus)/2 and W' = W + W_minus.

    W_minus is constant on each ladder; mu and mu' are empty for the
    one-parameter family.
    """
    out: list[tuple[float, ...]] = []
    for plus, minus in ((w_plus.lam, w_minus.lam), (w_plus.mu, w_minus.mu)):
        if not plus:
            out += [(), ()]
            continue
        w = (0.5 * (plus[0] - minus[0]),) + tuple(0.5 * c for c in plus[1:])
        out += [w, (w[0] + minus[0],) + w[1:]]
    return tuple(out)


# ---------------------------------------------------------------------------
# One-parameter family.


@dataclass(frozen=True)
class ExtendedOneParamSpec:
    """Closed-form data of one extension V = sum A_2k sec^(2k) x.

    The fields both families share: a_coeffs holds (A_2, A_4, ...,
    A_{4m+2}) and b_coeffs the csc ladder, empty here; deforming is f;
    psi holds the closed-form psi_0 and psi_1; dual_path is the largest
    |closed form - expansion| the build measured over E_0 and the
    coefficients.  gap is the closed-form E_1 - E_0, and e1 is e0 + gap
    rounded once.  c_odd holds (C_1, C_3, ..., C_{2m+1}), the
    partial-fraction constants the wavefunction exponents are built from.
    """

    m: int
    a_top: float
    alpha: float
    lam: tuple[float, ...]
    lam_prime: tuple[float, ...]
    a_coeffs: tuple[float, ...]
    e0: float
    e1: float
    gap: float
    c_odd: tuple[float, ...]
    deforming: DeformingFunction
    psi: ClosedFormWavefunction
    dual_path: float
    b_coeffs: tuple[float, ...] = ()


def _first_excited(e0: float, gap: float) -> float:
    """E1 = E0 + gap, or a precision-limit ValueError where the sum loses the gap.

    Below 4 ulps of |E0| the sum keeps too few of the gap's bits to
    represent E1 apart from E0; below one ulp it would round E1 to E0.
    """
    if gap < 4.0 * math.ulp(e0):
        raise ValueError(
            f"precision limit: the gap {gap:.3g} is below 4 ulps of |E0| = "
            f"{abs(e0):.3g}; E1 - E0 cannot be resolved in double precision"
        )
    return e0 + gap


def _w_pair_one(
    m: int, sa: float, alpha: float, table: _Table
) -> tuple[TrigLaurentPoly, TrigLaurentPoly]:
    top, den = table
    lam = tuple(
        2.0 * sa * top / den[k] * (1.0 + alpha) ** (k - m) for k in range(m + 1)
    )
    w_plus = TrigLaurentPoly(lam)
    w_minus = TrigLaurentPoly(((2 * m + 1) * (1.0 + alpha),))
    return w_plus, w_minus


def _sec_terms_one(
    m: int, j: int, sa: float, alpha: float, table: _Table, s: list[float]
) -> list[float]:
    """The linear and quadratic sums, weighted by (-1)^(l-j) C(l, j) over
    l >= max(j, 1); s[l - 1] is the double-factorial sum S_l.

    Their sum is A_2j for 2 <= j <= 2m; A_2 adds a leading block to j = 1
    and E_0 subtracts j = 0 from its two leading blocks.
    """
    op = 1.0 + alpha
    top, den = table
    lo = max(j, 1)
    lin = [
        -2.0 * (2 * m + 1) * (-1.0) ** (l - j) * binomial(l, j) * top / den[l - 1]
        * op ** (l - m)
        for l in range(lo, m + 2)
    ]
    quad = [
        (-1.0) ** (l - j) * binomial(l, j) * s[l - 1] * op ** (l - 1)
        for l in range(lo, 2 * m + 2)
    ]
    return [sa * fsum(lin), sa * sa * op ** (-2 * m) * fsum(quad)]


def _closed_one(
    m: int, sa: float, alpha: float, table: _Table, gap: float
) -> tuple[float, list[float]]:
    """Closed-form E_0 and (A_2, ..., A_{4m}); the top coefficient is the input."""
    op = 1.0 + alpha
    s = [float(v) for v in s_sum(table)]
    e0_front = 0.25 * (2 * m + 1) * op * (2 * m + 1 + (2 * m + 3) * alpha)
    # the linear leading block of E_0 is half the gap
    e0 = fsum(
        [e0_front, 0.5 * gap] + [-t for t in _sec_terms_one(m, 0, sa, alpha, table, s)]
    )
    a2_front = 0.25 * (2 * m + 1) * (2 * m + 3) * op * op
    coeffs = [fsum([a2_front] + _sec_terms_one(m, 1, sa, alpha, table, s))]
    coeffs += [
        fsum(_sec_terms_one(m, j, sa, alpha, table, s)) for j in range(2, 2 * m + 1)
    ]
    return e0, coeffs


def _c_odd_one(m: int, lam: tuple[float, ...], alpha: float) -> tuple[float, ...]:
    op = 1.0 + alpha
    r = binomial_transform(lam)
    return tuple(
        op ** (kappa - m - 1)
        * fsum(alpha ** (m - kappa - p) * op**p * r[m - p] for p in range(m - kappa + 1))
        for kappa in range(m + 1)
    )


def _psi1_poly_one(m: int, alpha: float, table: _Table) -> tuple[float, ...]:
    """Coefficients of sum_k p_k sin^(2k+1) x in the first-excited prefactor;
    equals W_plus cos^(2m+1) x / (2 sqrt(A_top))."""
    op = 1.0 + alpha
    top, den = table
    return tuple(
        fsum(
            (-1.0) ** (k - l) * binomial(m - l, k - l) * top / den[l] * op ** (l - m)
            for l in range(k + 1)
        )
        for k in range(m + 1)
    )


def expand_and_resum_one_param(
    m: int, a_top: float, alpha: float
) -> tuple[float, tuple[float, ...]]:
    """Expansion-path (E_0, (A_2 ... A_{4m+2})): build W from the ladder
    coefficients, expand V_1 = W^2 - f W' in tan^2 x, resum in sec^2 x."""
    df = _validate_one(m, a_top, alpha)
    lam = _ladders(*_w_pair_one(m, math.sqrt(a_top), alpha, ladder_table(m)))[0]
    const, sec, _csc = partner_potential(TrigLaurentPoly(lam), df, "V1").resummed()
    return (-const, sec)


def _validate_one(m: int, a_top: float, alpha: float) -> DeformingFunction:
    if m == 0:
        raise ValueError(
            "m = 0 is the exactly solvable baseline; build it with tpt_exact"
        )
    if m < 0:
        raise ValueError(f"m must be a positive integer, got {m}")
    if m > _MAX_DEPTH:
        raise ValueError(f"m must be at most {_MAX_DEPTH}, got {m}")
    if not all(map(math.isfinite, (a_top, alpha))):
        raise ValueError(f"parameters must be finite, got {(a_top, alpha)}")
    if not a_top > 0.0:
        raise ValueError(f"top coefficient must be positive, got {a_top}")
    return DeformingFunction.trig_one(alpha)


def build_one_param(m: int, a_top: float, alpha: float) -> ExtendedOneParamSpec:
    """Construct the extension spec, cross-checking every coefficient.

    All closed-form quantities (energies, potential coefficients, the
    wavefunction constants) are recomputed through the polynomial-expansion
    path and must agree to 1e-9 relative; disagreement raises
    InternalConsistencyError.  The gap must match the compatibility constant
    of the generating pair the same way, and a pair whose f W_plus' -
    W_plus W_minus is not constant raises CompatibilityError.
    """
    df = _validate_one(m, a_top, alpha)
    sa = math.sqrt(a_top)
    op = 1.0 + alpha
    table = ladder_table(m)
    wp, wm = _w_pair_one(m, sa, alpha, table)
    lam, lam_p, _, _ = _ladders(wp, wm)

    # the gap's closed form is W_plus's lam_0, bit for bit
    gap = wp.lam[0]
    e0, coeffs = _closed_one(m, sa, alpha, table, gap)
    coeffs.append(a_top)

    e0_exp, coeffs_exp = expand_and_resum_one_param(m, a_top, alpha)
    dual_path = max(
        _check_match("one-param E0", e0, e0_exp, 1e-9),
        _check_match("one-param coefficients", coeffs, coeffs_exp, 1e-9),
    )

    e1 = _first_excited(e0, gap)
    _check_match("one-param gap", gap, compatibility_gap(wp, wm, df), 1e-9)

    c_odd = _c_odd_one(m, lam, alpha)
    _check_match("one-param top C", c_odd[-1], sa / op, 1e-9)

    psi1_poly = _psi1_poly_one(m, alpha, table)
    dual = _poly_in_sin2(wp)
    _check_match(
        "one-param psi1 prefactor", tuple(c * 2.0 * sa for c in psi1_poly), dual, 1e-9
    )

    c1 = c_odd[0]
    sec = tuple(c_odd[kappa] / (2.0 * kappa) for kappa in range(1, m + 1))
    psi = ClosedFormWavefunction(
        df, c1, 0.0, sec, (),
        f_exp=(-0.5 * (c1 + 1.0), -0.5 * (c1 + 2.0 * m + 2.0)),
        poly=((1.0,), psi1_poly),
        odd=(False, True),
    )
    return ExtendedOneParamSpec(
        m=m,
        a_top=a_top,
        alpha=alpha,
        lam=lam,
        lam_prime=lam_p,
        a_coeffs=tuple(coeffs),
        e0=e0,
        e1=e1,
        gap=gap,
        c_odd=c_odd,
        deforming=df,
        psi=psi,
        dual_path=dual_path,
    )


def _poly_in_sin2(wp: TrigLaurentPoly) -> tuple[float, ...]:
    """Expand W_plus cos^(2m1+1) x sin^(2m2+1) x as a polynomial in
    s = sin^2 x; with no cot ladder the lone sin x factor is dropped first."""
    m1 = len(wp.lam) - 1
    m2 = len(wp.mu) - 1 if wp.mu else -1
    deg = m1 + m2 + 1
    acc: list[list[float]] = [[] for _ in range(deg + 1)]
    for k, lamc in enumerate(wp.lam):
        # tan^(2k+1) -> s^(k+m2+1) (1-s)^(m1-k)
        for j in range(m1 - k + 1):
            acc[k + m2 + 1 + j].append(lamc * (-1.0) ** j * binomial(m1 - k, j))
    for l, muc in enumerate(wp.mu):
        # -cot^(2l+1) -> -(1-s)^(l+m1+1) s^(m2-l)
        for j in range(l + m1 + 2):
            acc[m2 - l + j].append(-muc * (-1.0) ** j * binomial(l + m1 + 1, j))
    return tuple(fsum(terms) for terms in acc)


# ---------------------------------------------------------------------------
# Two-parameter family.


@dataclass(frozen=True)
class ExtendedTwoParamSpec:
    """Closed-form data of one extension V = sum A_2k sec^(2k) x
    + sum B_2l csc^(2l) x.

    For m2 = 0, sqrt_b_eff is 1 + alpha + Delta/2 with
    Delta = sqrt((1+alpha)^2 + 4 B_2); otherwise it is sqrt(B_top).
    `reflected` records that the caller's (m1 < m2) input was mapped to this
    spec by x -> pi/2 - x, alpha -> -alpha, with the two coefficient ladders
    swapped; evaluate this spec at pi/2 - x to recover the original system.
    The fields both families share: a_coeffs holds (A_2, ..., A_{4 m1 + 2})
    and b_coeffs the csc ladder (B_2, ...); deforming is f; psi holds the
    closed-form psi_0 and psi_1; dual_path is the largest |closed form -
    expansion| the build measured over E_0 and both ladders.  gap is the
    closed-form E_1 - E_0, and e1 is e0 + gap rounded once.  c and d hold
    the partial-fraction constants C_p and D_q of the wavefunctions.
    """

    m1: int
    m2: int
    a_top: float
    b_top: float
    alpha: float
    sqrt_b_eff: float
    lam: tuple[float, ...]
    lam_prime: tuple[float, ...]
    mu: tuple[float, ...]
    mu_prime: tuple[float, ...]
    a_coeffs: tuple[float, ...]
    b_coeffs: tuple[float, ...]
    e0: float
    e1: float
    gap: float
    c: tuple[float, ...]
    d: tuple[float, ...]
    deforming: DeformingFunction
    psi: ClosedFormWavefunction
    dual_path: float
    reflected: bool = False


def _sqrt_b_eff(m2: int, b_top: float, alpha: float) -> float:
    if m2 > 0:
        return math.sqrt(b_top)
    return 1.0 + alpha + 0.5 * math.sqrt((1.0 + alpha) ** 2 + 4.0 * b_top)


def _gap_two(m1: int, m2: int, sa: float, sb: float, alpha: float) -> float:
    op, om = 1.0 + alpha, 1.0 - alpha
    return (
        4.0
        * math.factorial(m1 + m2 + 1)
        / (math.factorial(m1) * math.factorial(m2))
        * (sa * op ** (m1 + 1) / om**m1 + sb * om ** (m2 + 1) / op**m2)
    )


def _w_pair_two(
    m1: int, m2: int, sa: float, sb: float, alpha: float
) -> tuple[TrigLaurentPoly, TrigLaurentPoly]:
    big = m1 + m2 + 1
    rp = (1.0 + alpha) / (1.0 - alpha)
    rm = 1.0 / rp
    lam = tuple(
        2.0 * sa * binomial(big, m2 + k + 1) * rp ** (m1 - k) for k in range(m1 + 1)
    )
    mu = tuple(
        2.0 * sb * binomial(big, m1 + l + 1) * rm ** (m2 - l) for l in range(m2 + 1)
    )
    w_plus = TrigLaurentPoly(lam, mu)
    w_minus = TrigLaurentPoly(
        ((2 * m1 + 1) * (1.0 - alpha),),
        ((2 * m2 + 1) * (1.0 + alpha),),
    )
    return w_plus, w_minus


def _conv(big: int, m2: int, l: int, lo: int, hi: int) -> float:
    return float(
        sum(
            binomial(big, m2 + p + 1) * binomial(big, m2 + l - p)
            for p in range(lo, hi + 1)
        )
    )


def _conv_tables(
    m1: int, m2: int, first_cross: int
) -> tuple[dict[int, float], dict[int, float]]:
    """The sec side's quadratic and cross sums, keyed by l.

    The quadratic sums run over l = 1..2 m1 + 1 and the cross sums over
    l = first_cross..m1, one exact `_conv` each, rounded to float once.
    """
    big = m1 + m2 + 1
    quad = {
        l: _conv(big, m2, l, max(0, l - m1 - 1), min(l - 1, m1))
        for l in range(1, 2 * m1 + 2)
    }
    cross = {
        l: _conv(big, m2, l, l, min(m2 + l, m1)) for l in range(first_cross, m1 + 1)
    }
    return quad, cross


def _linear_block(big: int, m1: int, m2: int, k: int) -> float:
    return (2 * m2 - 2 * k) * binomial(big, m2 + k + 1) - (2 * m1 + 2 * k) * binomial(
        big, m2 + k
    )


def _sec_terms(
    m1: int,
    m2: int,
    j: int,
    sa: float,
    sb: float,
    alpha: float,
    quad_table: dict[int, float],
    cross_table: dict[int, float],
) -> list[float]:
    """The linear, quadratic and cross sums of the sec side, weighted by
    (-1)^(l-j) C(l, j) over l >= max(j, 1).

    Their sum is A_2j for 2 <= j <= 2 m1; A_2 adds a leading block to j = 1
    and E_0 takes j = 0.  On the reflected well (m2, m1, sb, sa, -alpha)
    the same sums give the csc side.  The quadratic and cross sums read the
    side's `_conv_tables`, which every weight j shares.
    """
    big = m1 + m2 + 1
    op, om = 1.0 + alpha, 1.0 - alpha
    rp = op / om
    lo = max(j, 1)
    lin = [
        (-1.0) ** (l - j)
        * binomial(l, j)
        * op ** (m1 - l + 1)
        / om ** (m1 - l)
        * _linear_block(big, m1, m2, l)
        for l in range(lo, m1 + 2)
    ]
    quad = [
        (-1.0) ** (l - j)
        * binomial(l, j)
        * rp ** (2 * m1 - l + 1)
        * quad_table[l]
        for l in range(lo, 2 * m1 + 2)
    ]
    cross = [
        (-1.0) ** (l - j)
        * binomial(l, j)
        * rp ** (m1 - m2 - l)
        * cross_table[l]
        for l in range(lo, m1 + 1)
    ]
    return [
        sa * fsum(lin),
        sa * sa * fsum(quad),
        -2.0 * sa * sb * fsum(cross),
    ]


def _closed_two(
    m1: int, m2: int, sa: float, sb: float, alpha: float
) -> tuple[float, list[float], list[float]]:
    """Closed-form E_0, (A_2, ..., A_{4 m1}) and the csc side's closed sums.

    Each wall side, the well and then its reflection, forms its
    `_conv_tables` once and takes its `_sec_terms` from them once for each
    j = 0..max(2 n1, 1): j = 0 goes into E_0 and j >= 1 into that side's
    ladder, (B_2, ..., B_{4 m2}) on the reflected side, or B_2 alone for
    m2 = 0.  The top coefficients are the inputs.
    """
    big = m1 + m2 + 1
    rp = (1.0 + alpha) / (1.0 - alpha)
    sides = ((m1, m2, sa, sb, alpha), (m2, m1, sb, sa, -alpha))
    # the constant and the l = 0 cross term are invariant under reflection,
    # so E_0 reads the latter from the well's table and the reflected side's
    # table starts at l = 1
    tables = (_conv_tables(m1, m2, 0), _conv_tables(m2, m1, 1))
    e0_terms = [
        float(big) ** 2
        - 2.0 * alpha * (m1 - m2) * (m1 + m2 + 2)
        + alpha * alpha * ((m1 - m2) ** 2 + 2 * big),
        2.0 * sa * sb * rp ** (m1 - m2) * tables[0][1][0],
    ]
    ladders = []
    for (n1, n2, s1, s2, al), (quad, cross) in zip(sides, tables):
        op, om = 1.0 + al, 1.0 - al
        terms = [
            _sec_terms(n1, n2, j, s1, s2, al, quad, cross)
            for j in range(max(2 * n1, 1) + 1)
        ]
        lead = 2.0 * n2 * binomial(big, n2 + 1) * op ** (n1 + 1) / om**n1
        e0_terms.append(-s1 * lead)
        e0_terms += [-t for t in terms[0]]
        front = (n1 + 0.5) * (n1 + 1.5) * om * om
        ladders.append([fsum([front] + terms[1])] + [fsum(t) for t in terms[2:]])
    return fsum(e0_terms), ladders[0], ladders[1]


def _c_two(m1: int, lam: tuple[float, ...], alpha: float) -> tuple[float, ...]:
    """C_1..C_{m1+1}; D_1..D_{m2+1} are _c_two(m2, mu, -alpha)."""
    om = 1.0 - alpha
    r = binomial_transform(lam)
    return tuple(
        fsum(
            2.0**q * (-alpha) ** (q - p + 1) / om ** (q - p + 2) * r[q]
            for q in range(p - 1, m1 + 1)
        )
        for p in range(1, m1 + 2)
    )


def _psi1_poly_two(
    m1: int, m2: int, sa: float, sb: float, alpha: float
) -> tuple[float, ...]:
    """Coefficients of the first-excited polynomial prefactor in s = sin^2 x;
    equals the expansion of W_plus cos^(2m1+1) x sin^(2m2+1) x."""
    big = m1 + m2 + 1
    op, om = 1.0 + alpha, 1.0 - alpha
    rp = op / om
    rm = om / op
    out = []
    for k in range(big + 1):
        if k <= m2:
            out.append(-2.0 * sb * (-1.0) ** k * binomial(big, k) * (2.0 * alpha / op) ** k)
        else:
            term_a = 2.0 * sa * rp ** (m1 + m2 - k + 1) * f_poly(k - m2 - 1, k, rp)
            term_b = -2.0 * sb * (-1.0) ** k * f_poly(m2, k, rm)
            out.append(binomial(big, k) * (term_a + term_b))
    return tuple(out)


def _validate_two(
    m1: int, m2: int, a_top: float, b_top: float, alpha: float
) -> DeformingFunction:
    if m1 < 0 or m2 < 0:
        raise ValueError(f"ladder depths must be nonnegative, got {(m1, m2)}")
    if max(m1, m2) > _MAX_DEPTH:
        raise ValueError(f"ladder depths must be at most {_MAX_DEPTH}, got {(m1, m2)}")
    if m1 == 0 and m2 == 0:
        raise ValueError(
            "m1 = m2 = 0 is the exactly solvable baseline; build it with tpt_exact"
        )
    if not all(map(math.isfinite, (a_top, b_top, alpha))):
        raise ValueError(f"parameters must be finite, got {(a_top, b_top, alpha)}")
    if not (a_top > 0.0 and b_top > 0.0):
        raise ValueError(f"top coefficients must be positive, got {(a_top, b_top)}")
    return DeformingFunction.trig_two(alpha)


def expand_and_resum_two_param(
    m1: int, m2: int, a_top: float, b_top: float, alpha: float
) -> tuple[float, tuple[float, ...], tuple[float, ...]]:
    """Expansion-path (E_0, A-array, B-array) for canonical m1 >= m2 input."""
    df = _validate_two(m1, m2, a_top, b_top, alpha)
    if m1 < m2:
        raise ValueError("expansion path expects the canonical ordering m1 >= m2")
    sa = math.sqrt(a_top)
    sb = _sqrt_b_eff(m2, b_top, alpha)
    lam, _, mu, _ = _ladders(*_w_pair_two(m1, m2, sa, sb, alpha))
    const, sec, csc = partner_potential(TrigLaurentPoly(lam, mu), df, "V1").resummed()
    return (-const, sec, csc)


def build_two_param(
    m1: int, m2: int, a_top: float, b_top: float, alpha: float
) -> ExtendedTwoParamSpec:
    """Construct the two-parameter extension spec with dual-path checks.

    m1 < m2 inputs are reflected to the canonical ordering (swap the ladders
    and tops, alpha -> -alpha, x -> pi/2 - x) and flagged via `reflected`.
    Closed-form and expansion-path results, and the gap and the generating
    pair's compatibility constant, must agree to 1e-8 relative.
    """
    df = _validate_two(m1, m2, a_top, b_top, alpha)
    if m1 < m2:
        canonical = build_two_param(m2, m1, b_top, a_top, -alpha)
        return replace(canonical, reflected=True)

    sa = math.sqrt(a_top)
    sb = _sqrt_b_eff(m2, b_top, alpha)
    op = 1.0 + alpha
    om = 1.0 - alpha
    wp, wm = _w_pair_two(m1, m2, sa, sb, alpha)
    lam, lam_p, mu, mu_p = _ladders(wp, wm)

    e0, a_coeffs, b_closed = _closed_two(m1, m2, sa, sb, alpha)
    a_coeffs.append(a_top)
    if m2 == 0:
        _check_match("m2=0 bottom csc coefficient", b_closed[0], b_top, 1e-9)
        b_coeffs = [b_top]
    else:
        b_coeffs = b_closed + [b_top]

    e0_exp, a_exp, b_exp = expand_and_resum_two_param(m1, m2, a_top, b_top, alpha)
    dual_path = max(
        _check_match("two-param E0", e0, e0_exp, 1e-8),
        _check_match("two-param sec coefficients", a_coeffs, a_exp, 1e-8),
        _check_match("two-param csc coefficients", b_coeffs, b_exp, 1e-8),
    )

    gap = _gap_two(m1, m2, sa, sb, alpha)
    e1 = _first_excited(e0, gap)
    _check_match("two-param gap", gap, compatibility_gap(wp, wm, df), 1e-8)

    c, d = _c_two(m1, lam, alpha), _c_two(m2, mu, -alpha)
    _check_match("two-param top C", c[-1], 2.0**m1 * sa / om, 1e-9)
    if m2 > 0:
        _check_match("two-param top D", d[-1], 2.0**m2 * sb / op, 1e-9)
    else:
        _check_match("two-param top D", d[-1], sb / op - 0.5, 1e-9)

    psi1_poly = _psi1_poly_two(m1, m2, sa, sb, alpha)
    dual = _poly_in_sin2(wp)
    _check_match("two-param psi1 prefactor", psi1_poly, dual, 1e-8)

    c1, d1 = c[0], d[0]
    sec = tuple(c[p - 1] / (2.0**p * (p - 1)) for p in range(2, m1 + 2))
    csc = tuple(d[q - 1] / (2.0**q * (q - 1)) for q in range(2, m2 + 2))
    psi = ClosedFormWavefunction(
        df, c1, d1, sec, csc,
        f_exp=(-0.5 * (c1 + d1 + 1.0), -0.5 * (c1 + d1 + 2.0 * m1 + 2.0 * m2 + 3.0)),
        poly=((1.0,), psi1_poly),
        odd=(False, False),
    )
    return ExtendedTwoParamSpec(
        m1=m1,
        m2=m2,
        a_top=a_top,
        b_top=b_top,
        alpha=alpha,
        sqrt_b_eff=sb,
        lam=lam,
        lam_prime=lam_p,
        mu=mu,
        mu_prime=mu_p,
        a_coeffs=tuple(a_coeffs),
        b_coeffs=tuple(b_coeffs),
        e0=e0,
        e1=e1,
        gap=gap,
        c=c,
        d=d,
        deforming=df,
        psi=psi,
        dual_path=dual_path,
    )


# ---------------------------------------------------------------------------
# Shared surface over both spec types.


def closed_form_wavefunction(spec, level: int) -> ClosedFormWavefunction:
    """The level-0 or level-1 closed-form wavefunction of a built spec: the
    one-level view of `spec.psi`, whose rows are that level's."""
    if level not in (0, 1):
        raise ValueError(f"only levels 0 and 1 exist in closed form, got {level}")
    psi, k = spec.psi, slice(level, level + 1)
    return replace(psi, f_exp=psi.f_exp[k], poly=psi.poly[k], odd=psi.odd[k])


def potential_value(spec, x):
    """V(x) from the resummed coefficient arrays; scalar or array x."""
    spec.deforming.check_interior(x)
    arr = np.asarray(x, dtype=float)
    out = None
    for coeffs, trig in ((spec.a_coeffs, np.cos), (spec.b_coeffs, np.sin)):
        if not coeffs:
            continue  # the one-parameter family has no csc ladder
        acc = _horner((0.0,) + coeffs, 1.0 / trig(arr) ** 2)
        out = acc if out is None else out + acc
    return float(out) if np.ndim(x) == 0 else out
