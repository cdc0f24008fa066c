"""Reference implementations that only the tests use.

* `stencil_residual`: the eigenequation residual with the derivatives of
  sqrt(f) psi taken by 5-point central differences.  It needs nothing but
  psi's values, so it checks the exactly solvable baselines, whose
  wavefunctions are plain callables, and cross-checks the closed-form
  residual of `numeric_verify.residual`.
* `s_sum_terms`: one double-factorial sum S_k, term by term in Fractions,
  the four-fold formula that `combinatorics.s_sum` takes as a convolution.
* `double_factorial`: n!!, which no build forms alone since
  `combinatorics.ladder_table` gives a ladder's double factorials as one
  table.
* `ladder_table_terms`: the double factorials of a one-parameter ladder,
  one `double_factorial` call per factor, which `combinatorics.ladder_table`
  forms by running products.
* `sec_coeffs_two` and `e0_two_closed`: the two-parameter closed forms of
  (A_2, ..., A_{4 m1}) and E_0 with each taking its own `_sec_terms`, as
  `tpt_extended` took them before `_closed_two` read both from one list.
  Their `_sec_terms` read `conv_on_read`, which takes every quadratic and
  cross sum by its own `_conv` call, as `_sec_terms` took them before it
  read each wall side's `_conv_tables`.
* `c_odd_nested` and `c_two_nested`: the wavefunction constants with the
  alternating binomial sum of the ladder taken afresh inside the outer sum,
  as `tpt_extended` took it before it read one resummation per ladder.
* `lone_log_form`: one level's q and L (and, with `derivatives`, their
  first two derivatives), evaluated alone, as each psi was evaluated before
  psi0 and psi1 shared one evaluation of f, cos x, sin x and the ladders.
* pointwise values of the superpotentials (`laurent_value`,
  `laurent_derivative`) and partner potentials (`even_value`), and the
  exactly solvable wells' superpotential pairs, which the library only ever
  handles as coefficient algebra.
* the exactly solvable wells' potentials (`potential_one_param`,
  `potential_two_param`) and eigenfunctions (`wavefn_one_param`,
  `wavefn_two_param`), whose polynomial factors SciPy's `eval_gegenbauer`
  and `eval_jacobi` evaluate.  `tpt_exact` keeps the wells' parameters and
  closed-form spectra; the tests hold the oracle's levels on these
  potentials, and the residuals of these eigenfunctions, against them.
"""

from fractions import Fraction

import numpy as np
from scipy.special import eval_gegenbauer, eval_jacobi

from pdmtpt.combinatorics import binomial, fsum
from pdmtpt.dsusy_core import DeformingFunction, EvenTrigPoly, TrigLaurentPoly
from pdmtpt.numeric_verify import _sample
from pdmtpt.tpt_exact import ExactOneParam, ExactTwoParam
from pdmtpt.tpt_extended import _conv, _euler, _horner, _sec_terms


def stencil_residual(psi, v, df: DeformingFunction, energy: float, samples) -> float:
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


def double_factorial(n: int) -> int:
    """n!! with the empty-product convention 0!! = (-1)!! = 1; n >= -1."""
    if n < -1:
        raise ValueError(f"double_factorial undefined for n = {n} < -1")
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def s_sum_terms(m: int, k: int) -> Fraction:
    """S_k = sum_l [(2m+1)!!]^2 / [(2l+1)!! (2k-2l-1)!! (2m-2l)!! (2m-2k+2l+2)!!]
    over l = max(0, k-m-1) .. min(k-1, m), one Fraction per term."""
    top = double_factorial(2 * m + 1) ** 2
    total = Fraction(0)
    for l in range(max(0, k - m - 1), min(k - 1, m) + 1):
        den = (
            double_factorial(2 * l + 1)
            * double_factorial(2 * k - 2 * l - 1)
            * double_factorial(2 * m - 2 * l)
            * double_factorial(2 * m - 2 * k + 2 * l + 2)
        )
        total += Fraction(top, den)
    return total


def ladder_table_terms(m: int) -> tuple[int, tuple[int, ...]]:
    """((2m+1)!!, ((2l+1)!! (2m-2l)!! for l = 0..m)), factor by factor."""
    return double_factorial(2 * m + 1), tuple(
        double_factorial(2 * l + 1) * double_factorial(2 * m - 2 * l) for l in range(m + 1)
    )


class _OnRead:
    """A table whose entry l is fn(l), taken afresh at every read."""

    def __init__(self, fn):
        self._fn = fn

    def __getitem__(self, l: int) -> float:
        return self._fn(l)


def conv_on_read(m1: int, m2: int) -> tuple[_OnRead, _OnRead]:
    """The sec side's quadratic and cross sums as `_sec_terms` reads them,
    each read one `_conv` call of its own."""
    big = m1 + m2 + 1
    return (
        _OnRead(lambda l: _conv(big, m2, l, max(0, l - m1 - 1), min(l - 1, m1))),
        _OnRead(lambda l: _conv(big, m2, l, l, min(m2 + l, m1))),
    )


def sec_coeffs_two(m1: int, m2: int, sa: float, sb: float, alpha: float) -> list[float]:
    """Closed-form (A_2, ..., A_{4 m1}); the top coefficient is the input."""
    om = 1.0 - alpha
    front = (m1 + 0.5) * (m1 + 1.5) * om * om
    sums = conv_on_read(m1, m2)
    out = [fsum([front] + _sec_terms(m1, m2, 1, sa, sb, alpha, *sums))]
    out += [
        fsum(_sec_terms(m1, m2, k, sa, sb, alpha, *sums)) for k in range(2, 2 * m1 + 1)
    ]
    return out


def e0_two_closed(m1: int, m2: int, sa: float, sb: float, alpha: float) -> float:
    big = m1 + m2 + 1
    rp = (1.0 + alpha) / (1.0 - alpha)
    # the constant and the k = 0 cross term are invariant under reflection
    terms = [
        float(big) ** 2
        - 2.0 * alpha * (m1 - m2) * (m1 + m2 + 2)
        + alpha * alpha * ((m1 - m2) ** 2 + 2 * big),
        2.0 * sa * sb * rp ** (m1 - m2) * _conv(big, m2, 0, 0, min(m2, m1)),
    ]
    for n1, n2, s1, s2, al in ((m1, m2, sa, sb, alpha), (m2, m1, sb, sa, -alpha)):
        lead = (
            2.0 * n2 * binomial(big, n2 + 1) * (1.0 + al) ** (n1 + 1) / (1.0 - al) ** n1
        )
        terms.append(-s1 * lead)
        terms += [-t for t in _sec_terms(n1, n2, 0, s1, s2, al, *conv_on_read(n1, n2))]
    return fsum(terms)


def c_odd_nested(m: int, lam, alpha: float) -> tuple[float, ...]:
    """C_1, C_3, ..., C_{2m+1} of the one-parameter wavefunctions."""
    op = 1.0 + alpha
    out = []
    for kappa in range(m + 1):
        terms = []
        for p in range(m - kappa + 1):
            inner = fsum(
                (-1.0) ** l * binomial(l + m - p, l) * lam[l + m - p]
                for l in range(p + 1)
            )
            terms.append(alpha ** (m - kappa - p) * op**p * inner)
        out.append(op ** (kappa - m - 1) * fsum(terms))
    return tuple(out)


def c_two_nested(m1: int, lam, alpha: float) -> tuple[float, ...]:
    """C_1..C_{m1+1} of the two-parameter wavefunctions; D is (m2, mu, -alpha)."""
    om = 1.0 - alpha
    c = []
    for p in range(1, m1 + 2):
        terms = []
        for q in range(p - 1, m1 + 1):
            inner = fsum(
                (-1.0) ** (k - q) * binomial(k, q) * lam[k] for k in range(q, m1 + 1)
            )
            terms.append(2.0**q * (-alpha) ** (q - p + 1) / om ** (q - p + 2) * inner)
        c.append(fsum(terms))
    return tuple(c)


def lone_log_form(psi, level: int, x, derivatives: bool):
    """([q, ...], [L, ...]) of one level of psi at the array x: f raised to
    f_exp, or to f_exp + 1/2 with `derivatives`, which adds q', q'', L' and
    L''."""
    f_exp = psi.f_exp[level] + 0.5 if derivatives else psi.f_exp[level]
    poly = psi.poly[level]
    f = psi.df.f(x)
    c = np.cos(x)
    s = np.sin(x)
    s2 = s * s
    big_l = [f_exp * np.log(f) + psi.cos_exp * np.log(c)]
    if psi.sin_exp != 0.0:
        big_l[0] = big_l[0] + psi.sin_exp * np.log(s)
    q = [_horner(poly, s2)]
    if derivatives:
        fp = psi.df.f_prime(x) / f
        big_l += [f_exp * fp, f_exp * (psi.df.f_second(x) / f - fp * fp)]
        pu = _euler(poly)[1:]
        p1 = _horner(pu, s2)
        q += [
            p1 * 2.0 * s * c,
            _horner(_euler(pu)[1:], s2) * 4.0 * s2 * c * c + p1 * 2.0 * (c * c - s2),
        ]
    for expo, coeffs, trig, co in (
        (psi.cos_exp, psi.sec_coeffs, c, s),
        (psi.sin_exp, psi.csc_coeffs, s, -c),
    ):
        if not (coeffs or (derivatives and expo != 0.0)):
            continue
        y = 1.0 / (trig * trig)
        ladder = (0.0,) + coeffs
        big_l[0] = big_l[0] - _horner(ladder, y)
        if derivatives:
            g = co / trig
            slope = expo + 2.0 * _horner(_euler(ladder), y)
            big_l[1] = big_l[1] - g * slope
            big_l[2] = big_l[2] - y * slope - 4.0 * g * g * _horner(_euler(_euler(ladder)), y)
    if psi.odd[level]:
        if derivatives:
            q[1:] = [q[1] * s + q[0] * c, q[2] * s + 2.0 * q[1] * c - q[0] * s]
        q[0] = q[0] * s
    if derivatives:
        q[0] = np.broadcast_to(q[0], x.shape)
    return q, big_l


def laurent_value(w: TrigLaurentPoly, x):
    """W(x) = sum_k lam[k] tan^(2k+1) x - sum_l mu[l] cot^(2l+1) x."""
    # Horner in u^2 for the tan block, then the cot block.
    u = np.tan(x)
    acc = 0.0 * u
    for c in reversed(w.lam):
        acc = acc * u * u + c
    out = acc * u
    if w.mu:
        cot = 1.0 / u
        acc = 0.0 * u
        for c in reversed(w.mu):
            acc = acc * cot * cot + c
        out = out - acc * cot
    return out


def laurent_derivative(w: TrigLaurentPoly, x):
    """dW/dx = (dW/du) sec^2 x with u = tan x."""
    u = np.tan(x)
    acc = 0.0 * u
    for k in reversed(range(len(w.lam))):
        acc = acc * u * u + (2 * k + 1) * w.lam[k]
    out = acc
    if w.mu:
        cot = 1.0 / u
        acc = 0.0 * u
        for l in reversed(range(len(w.mu))):
            acc = acc * cot * cot + (2 * l + 1) * w.mu[l]
        out = out + acc * cot * cot
    return out * (1.0 + u * u)


def even_value(p: EvenTrigPoly, x):
    """P(x) = sum_{k>=0} a[k] tan^(2k) x + sum_{l>=1} b[l-1] cot^(2l) x."""
    u = np.tan(x)
    acc = 0.0 * u
    for c in reversed(p.a):
        acc = acc * u * u + c
    out = acc
    if p.b:
        cot2 = 1.0 / (u * u)
        acc = 0.0 * u
        for c in reversed(p.b):
            acc = (acc + c) * cot2
        out = out + acc
    return out


def potential_one_param(p: ExactOneParam, x):
    """V(x) = A(A-1) sec^2 x."""
    return p.big_a * (p.big_a - 1.0) / np.cos(x) ** 2


def wavefn_one_param(p: ExactOneParam, n: int, x):
    """Un-normalized psi_n, Gegenbauer form.

    psi_n = f^(-(L+1)/2) (cos x)^L C_n^(L)(t) with L = lam/(1+alpha) and
    t = sqrt((1+alpha)/f) sin x.
    """
    p.deforming.check_interior(x)
    f = p.deforming.f(x)
    big_l = p.lam / (1.0 + p.alpha)
    t = np.sqrt((1.0 + p.alpha) / f) * np.sin(x)
    return f ** (-0.5 * (big_l + 1.0)) * np.cos(x) ** big_l * eval_gegenbauer(n, big_l, t)


def potential_two_param(p: ExactTwoParam, x):
    """V(x) = A(A-1) sec^2 x + B(B-1) csc^2 x."""
    return (
        p.big_a * (p.big_a - 1.0) / np.cos(x) ** 2
        + p.big_b * (p.big_b - 1.0) / np.sin(x) ** 2
    )


def wavefn_two_param(p: ExactTwoParam, n: int, x):
    """Un-normalized psi_n, Jacobi form.

    psi_n = f^(-(1+L+M)/2) (cos x)^L (sin x)^M P_n^(M-1/2, L-1/2)(t) with
    L = lam/(1-alpha), M = mu/(1+alpha), t = (cos 2x + alpha)/(1 + alpha cos 2x).
    """
    p.deforming.check_interior(x)
    f = p.deforming.f(x)
    big_l = p.lam / (1.0 - p.alpha)
    big_m = p.mu / (1.0 + p.alpha)
    c2 = np.cos(2.0 * x)
    t = (c2 + p.alpha) / (1.0 + p.alpha * c2)
    return (
        f ** (-0.5 * (1.0 + big_l + big_m))
        * np.cos(x) ** big_l
        * np.sin(x) ** big_m
        * eval_jacobi(n, big_m - 0.5, big_l - 0.5, t)
    )


def superpotentials_one_param(p: ExactOneParam) -> tuple[TrigLaurentPoly, TrigLaurentPoly]:
    """(W, W') = (lam tan x, lam' tan x)."""
    return (
        TrigLaurentPoly((p.lam,)),
        TrigLaurentPoly((p.lam_prime,)),
    )


def superpotentials_two_param(p: ExactTwoParam) -> tuple[TrigLaurentPoly, TrigLaurentPoly]:
    """(W, W') = (lam tan x - mu cot x, lam' tan x - mu' cot x)."""
    return (
        TrigLaurentPoly((p.lam,), (p.mu,)),
        TrigLaurentPoly((p.lam_prime,), (p.mu_prime,)),
    )
