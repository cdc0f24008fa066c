"""Integer and rational building blocks for the closed-form constructions.

Everything downstream (superpotential coefficients, resummed potential
coefficients, wavefunction prefactors) is assembled from binomials, one
table of double factorials per one-parameter ladder, one family of four-fold
double-factorial sums and a small alternating binomial polynomial.  A
one-parameter ladder's double factorials are (2m+1)!! and the m+1
denominators (2l+1)!! (2m-2l)!! of its ratios, formed by running products
(`ladder_table`).  The double-factorial sums of the ladder are one integer
self-convolution of its ratios, read from that table, divided exactly
(fractions.Fraction) and converted to float only at the call boundary, so
cancellation inside them is never a float problem.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "binomial",
    "binomial_transform",
    "ladder_table",
    "fsum",
    "s_sum",
    "f_poly",
]


def binomial(n: int, k: int) -> int:
    """C(n, k), zero outside 0 <= k <= n."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def binomial_transform(c) -> tuple[float, ...]:
    """r_q = sum_{k >= q} (-1)^(k-q) C(k, q) c_k, q = 0..len(c)-1: the
    ladder sum_k c_k tan^(2k) x in powers of sec^2 x, sum_q r_q sec^(2q) x
    (and likewise cot^2 x in csc^2 x)."""
    return tuple(
        fsum((-1.0) ** (k - q) * binomial(k, q) * c[k] for k in range(q, len(c)))
        for q in range(len(c))
    )


def ladder_table(m: int) -> tuple[int, tuple[int, ...]]:
    """((2m+1)!!, (den_0, ..., den_m)) with den_l = (2l+1)!! (2m-2l)!!.

    These are the double factorials of the ladder ratios
    t_l = (2m+1)!! / den_l, l = 0..m, formed by two running products, so the
    table costs O(m) integer products.  A negative m is a ValueError.
    """
    if m < 0:
        raise ValueError(f"ladder depth must be >= 0, got {m}")
    odd, even = [1], [1]  # (2l+1)!! and (2l)!!, l = 0..m
    for l in range(1, m + 1):
        odd.append(odd[-1] * (2 * l + 1))
        even.append(even[-1] * 2 * l)
    return odd[m], tuple(odd[l] * even[m - l] for l in range(m + 1))


def s_sum(table: tuple[int, tuple[int, ...]]) -> tuple[Fraction, ...]:
    """Exact values of the 2m+1 four-fold double-factorial sums S_1..S_{2m+1}
    of the ladder whose `ladder_table` is given.

    S_k = sum_l [(2m+1)!!]^2 /
          [(2l+1)!! (2k-2l-1)!! (2m-2l)!! (2m-2k+2l+2)!!]
    over l = max(0, k-m-1) .. min(k-1, m), is the self-convolution of the
    ladder ratios t_l = (2m+1)!! / den_l, l = 0..m.  They are carried as the
    integers T_l = (2m)!! t_l, (2m)!! being den_0, so the convolution is an
    integer one and each S_k is one Fraction of it over ((2m)!!)^2.
    """
    top, den = table
    m, even = len(den) - 1, den[0]
    t = [top * even // d for d in den]
    return tuple(
        Fraction(
            sum(t[l] * t[k - 1 - l] for l in range(max(0, k - m - 1), min(k - 1, m) + 1)),
            even * even,
        )
        for k in range(1, 2 * m + 2)
    )


def fsum(terms) -> float:
    """math.fsum, except that terms of both infinite signs raise OverflowError.

    Such terms are float products past the largest double, so their sum is a
    precision limit of the float build rather than a bad value.
    """
    terms = list(terms)
    try:
        return math.fsum(terms)
    except ValueError:  # math.fsum's one ValueError: -inf + inf
        raise OverflowError("float terms overflow to both -inf and +inf") from None


def f_poly(n: int, k: int, z: float) -> float:
    """Alternating binomial polynomial F_n^k(z) = sum_{p=0}^n (-1)^p C(k,p) z^p.

    Defined for k > n so the binomials never truncate.
    """
    if k <= n:
        raise ValueError(f"f_poly requires k > n, got n={n}, k={k}")
    return fsum((-1.0) ** p * binomial(k, p) * z**p for p in range(n + 1))
