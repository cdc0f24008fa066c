"""Deformed-SUSY engine: factorization algebra, compatibility, and the
closed-form states against their integral representation."""

import math

import numpy as np
import pytest
from scipy import integrate

from pdmtpt.dsusy_core import (
    CompatibilityError,
    DeformingFunction,
    EvenTrigPoly,
    GapSignError,
    TrigLaurentPoly,
    compatibility_gap,
    partner_potential,
)
from pdmtpt.combinatorics import fsum, ladder_table
from pdmtpt.tpt_exact import (
    ExactOneParam,
    ExactTwoParam,
    energy_one_param,
    energy_two_param,
)
from pdmtpt.tpt_extended import (
    _ladders,
    _w_pair_one,
    _w_pair_two,
    build_one_param,
    build_two_param,
    closed_form_wavefunction,
)
from references import (
    even_value,
    laurent_derivative,
    laurent_value,
    superpotentials_one_param,
    superpotentials_two_param,
)

ONE_HALF = DeformingFunction.trig_one(-0.5)


def _m1_pair():
    # lowest nontrivial tan-ladder: W+ = 6 tan x + 2 tan^3 x at alpha = -1/2
    # pairs with W- = (3/2) tan x at gap 6
    w_plus = TrigLaurentPoly((6.0, 2.0))
    w_minus = TrigLaurentPoly((1.5,))
    return w_plus, w_minus


# --- deforming functions ---------------------------------------------------


def test_f_value_one_param():
    assert (ONE_HALF.f(0.0), ONE_HALF.f_prime(0.0)) == pytest.approx((1.0, 0.0), abs=1e-15)
    assert ONE_HALF.f(math.pi / 4.0) == pytest.approx(0.75, rel=1e-15)
    assert ONE_HALF.f_prime(math.pi / 4.0) == pytest.approx(-0.5, rel=1e-15)


def test_f_value_two_param():
    df = DeformingFunction.trig_two(0.5)
    assert df.f(math.pi / 4.0) == pytest.approx(1.0, rel=1e-15)
    assert df.f_prime(math.pi / 4.0) == pytest.approx(-1.0, rel=1e-15)


def test_f_value_rejects_boundary():
    with pytest.raises(ValueError):
        ONE_HALF.check_interior(math.pi / 2.0)
    with pytest.raises(ValueError):
        DeformingFunction.trig_two(0.3).check_interior(0.0)


def test_deforming_function_parameter_ranges():
    # the messages every caller's invalid alpha ends in
    with pytest.raises(ValueError, match=r"^need alpha > -1, got -1\.0$"):
        DeformingFunction.trig_one(-1)
    with pytest.raises(ValueError, match=r"^need \|alpha\| < 1, got 1\.0$"):
        DeformingFunction.trig_two(1.0)
    with pytest.raises(ValueError, match=r"^need \|alpha\| < 1, got -1\.3$"):
        DeformingFunction.trig_two(-1.3)


def test_trig_laurent_poly_values():
    w = TrigLaurentPoly((2.0,), (3.0,))
    x = 0.7
    assert laurent_value(w, x) == pytest.approx(2.0 * math.tan(x) - 3.0 / math.tan(x))
    assert laurent_derivative(w, x) == pytest.approx(
        2.0 / math.cos(x) ** 2 + 3.0 / math.sin(x) ** 2
    )


# --- generating pairs ------------------------------------------------------


def test_companion_recovers_es_one_param():
    # the exactly solvable companion (1 + alpha) tan x of W+ = 2 sqrt(A2) tan x,
    # A2 = 4, closes the identity at the gap 2 sqrt(A2) = 4
    df = DeformingFunction.trig_one(0.3)
    w_plus = TrigLaurentPoly((4.0,))
    w_minus = TrigLaurentPoly((1.3,))
    assert compatibility_gap(w_plus, w_minus, df) == pytest.approx(4.0, rel=1e-14)


def test_compatibility_gap_constant_value():
    w_plus, w_minus = _m1_pair()
    assert compatibility_gap(w_plus, w_minus, ONE_HALF) == pytest.approx(6.0, rel=1e-12)


def test_compatibility_gap_rejects_perturbed_companion():
    w_plus, w_minus = _m1_pair()
    bad = TrigLaurentPoly((w_minus.lam[0], 0.1))
    with pytest.raises(CompatibilityError) as err:
        compatibility_gap(w_plus, bad, ONE_HALF)
    assert err.value.max_residual > 0.0


@pytest.mark.parametrize("m1,m2", [(8, 1), (0, 8), (7, 0)])
def test_compatibility_gap_accepts_deep_two_param_pairs(m1, m2):
    # the pair of a built deep well, canonical (m1 >= m2) as the build makes it
    spec = build_two_param(m1, m2, 1.0, 1.0, 0.0)
    w_plus, w_minus = _w_pair_two(
        spec.m1, spec.m2, math.sqrt(spec.a_top), spec.sqrt_b_eff, spec.alpha
    )
    gap = compatibility_gap(w_plus, w_minus, spec.deforming)
    assert gap == pytest.approx(spec.gap, rel=1e-12)


def test_compatibility_gap_rejects_perturbed_deep_pair():
    w_plus, w_minus = _w_pair_two(8, 1, 1.0, 1.0, 0.0)
    lam = list(w_minus.lam)
    lam[0] *= 1.0 + 1e-6
    bad = TrigLaurentPoly(tuple(lam), w_minus.mu)
    with pytest.raises(CompatibilityError):
        compatibility_gap(w_plus, bad, DeformingFunction.trig_two(0.0))


def test_compatibility_gap_refuses_a_pair_of_the_other_family():
    # cot ladders on the one-parameter f, and none on the two-parameter f
    w_plus, w_minus = _m1_pair()
    with_cot = TrigLaurentPoly(w_plus.lam, (1.0,))
    for pair in ((with_cot, w_minus), (w_plus, TrigLaurentPoly(w_minus.lam, (1.0,)))):
        with pytest.raises(ValueError, match="cot ladders exactly when"):
            compatibility_gap(*pair, ONE_HALF)
    two = DeformingFunction.trig_two(0.0)
    w_plus, w_minus = _w_pair_two(8, 1, 1.0, 1.0, 0.0)
    assert compatibility_gap(w_plus, w_minus, two) > 0.0
    for pair in ((TrigLaurentPoly(w_plus.lam), w_minus), (w_plus, TrigLaurentPoly(w_minus.lam))):
        with pytest.raises(ValueError, match="cot ladders exactly when"):
            compatibility_gap(*pair, two)


def test_compatibility_gap_rejects_negative_constant():
    df = DeformingFunction.trig_one(0.2)
    w_plus = TrigLaurentPoly((-2.0,))
    w_minus = TrigLaurentPoly((1.2,))
    with pytest.raises(GapSignError):
        compatibility_gap(w_plus, w_minus, df)


def test_gap_constant_on_sample_grid():
    # the build's pair for m = 1, A_top = 1, alpha = -1/2 is _m1_pair
    w_plus, w_minus = _w_pair_one(1, 1.0, -0.5, ladder_table(1))
    assert (w_plus, w_minus) == _m1_pair()
    gap = build_one_param(1, 1.0, -0.5).gap
    assert compatibility_gap(w_plus, w_minus, ONE_HALF) == pytest.approx(gap, rel=1e-14)
    lo, hi = ONE_HALF.domain
    xs = np.linspace(lo + 0.1, hi - 0.1, 64)
    sampled = (
        ONE_HALF.f(xs) * laurent_derivative(w_plus, xs)
        - laurent_value(w_plus, xs) * laurent_value(w_minus, xs)
    )
    np.testing.assert_allclose(sampled, gap, rtol=1e-12)


def test_split_superpotentials():
    # W = (W+ - W-)/2 and W' = (W+ + W-)/2 of a compatible pair
    df = DeformingFunction.trig_one(0.0)
    w_plus = TrigLaurentPoly((5.0,))
    w_minus = TrigLaurentPoly((1.0,))
    assert compatibility_gap(w_plus, w_minus, df) == pytest.approx(5.0, rel=1e-15)
    lam, lam_prime, mu, mu_prime = _ladders(w_plus, w_minus)
    np.testing.assert_allclose(lam, (2.0,))
    np.testing.assert_allclose(lam_prime, (3.0,))
    assert mu == mu_prime == ()


# --- partner potentials ----------------------------------------------------


def test_partner_potential_at_origin():
    lam = 2.0
    df = DeformingFunction.trig_one(0.0)
    w = TrigLaurentPoly((lam,))
    v1 = partner_potential(w, df, "V1")
    assert even_value(v1, 0.0) == pytest.approx(-lam, rel=1e-15)
    const, sec, csc = v1.resummed()
    assert csc == ()
    assert sec[0] == pytest.approx(lam * (lam - 1.0))  # = A(A-1)
    assert const == pytest.approx(-lam * (lam - 1.0) - lam)


def _powers_inline(c):
    # sum_l c[l] tan^(2l) x in powers sec^(2k) x, k >= 1, as `resummed`
    # formed it before it read `binomial_transform`
    return tuple(
        fsum((-1.0) ** (l - k) * math.comb(l, k) * c[l] for l in range(k, len(c)))
        for k in range(1, len(c))
    )


def test_resummed_reads_the_one_binomial_transform():
    # ladders spanning 12 decades, so the alternating sums cancel; the
    # constant stays one sum over both ladders
    rng = np.random.default_rng(26)
    for _ in range(1000):
        a, b = (
            tuple(float(v) for v in rng.uniform(-1, 1, n) * 10.0 ** rng.uniform(-6, 6, n))
            for n in rng.integers((1, 0), 18)
        )
        const, sec, csc = EvenTrigPoly(a, b).resummed()
        assert sec == _powers_inline(a)
        assert csc == _powers_inline((0.0,) + b)
        terms = [(-1.0) ** k * a[k] for k in range(len(a))]
        terms += [(-1.0) ** l * b[l - 1] for l in range(1, len(b) + 1)]
        assert const == fsum(terms)


def test_partner_potential_which_flag():
    w = TrigLaurentPoly((2.0,))
    with pytest.raises(ValueError):
        partner_potential(w, ONE_HALF, "V3")


@pytest.mark.parametrize("big_a,alpha", [(2.0, -0.5), (2.7, 0.3), (1.4, 0.0)])
def test_dsusy_chain_one_param(big_a, alpha):
    # V2 built from W plus E0 equals V1 built from W' plus E1, pointwise
    p = ExactOneParam(big_a, alpha)
    df = p.deforming
    w, w_prime = superpotentials_one_param(p)
    xs = np.linspace(-1.2, 1.2, 64)
    lhs = even_value(partner_potential(w, df, "V2"), xs) + energy_one_param(p, 0)
    rhs = even_value(partner_potential(w_prime, df, "V1"), xs) + energy_one_param(p, 1)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("big_a,big_b,alpha", [(2.0, 2.0, 0.5), (3.1, 1.6, -0.7)])
def test_dsusy_chain_two_param(big_a, big_b, alpha):
    p = ExactTwoParam(big_a, big_b, alpha)
    df = p.deforming
    w, w_prime = superpotentials_two_param(p)
    xs = np.linspace(0.15, math.pi / 2.0 - 0.15, 64)
    lhs = even_value(partner_potential(w, df, "V2"), xs) + energy_two_param(p, 0)
    rhs = even_value(partner_potential(w_prime, df, "V1"), xs) + energy_two_param(p, 1)
    scale = np.max(np.abs(lhs))
    np.testing.assert_allclose(lhs, rhs, rtol=0.0, atol=1e-10 * scale)


# --- closed forms against the integral representation ----------------------
# psi0 = f^(-1/2) exp(-int W/f) and psi1 = W+ f^(-1/2) exp(-int W'/f), with the
# integrals taken by adaptive quadrature from the domain midpoint: a reference
# the closed-form wavefunctions are built without.


def _log_suppression(w, df, x):
    lo, hi = df.domain
    val, err = integrate.quad(
        lambda t: laurent_value(w, t) / df.f(t), 0.5 * (lo + hi), x,
        epsabs=1e-12, epsrel=1e-12, limit=200,
    )
    assert err <= 1e-9 * max(1.0, abs(val))
    return val


def _psi0_numeric(w, df, x):
    return float(df.f(x)) ** -0.5 * math.exp(-_log_suppression(w, df, x))


def _psi1_numeric(w_plus, w_prime, df, x):
    return float(laurent_value(w_plus, x)) * _psi0_numeric(w_prime, df, x)


def _spec_superpotentials(spec):
    """(W, W', W+ = W + W') from the ladders of a built spec."""
    mu, mu_prime = getattr(spec, "mu", ()), getattr(spec, "mu_prime", ())
    add = lambda a, b: tuple(p + q for p, q in zip(a, b))
    return (
        TrigLaurentPoly(spec.lam, mu),
        TrigLaurentPoly(spec.lam_prime, mu_prime),
        TrigLaurentPoly(add(spec.lam, spec.lam_prime), add(mu, mu_prime)),
    )


def test_psi0_numeric_constant_mass_profile():
    # alpha = 0, W = lam tan: psi0(x)/psi0(0) = cos^lam x
    p = ExactOneParam(2.0, 0.0)
    df = p.deforming
    w, _ = superpotentials_one_param(p)
    ref = _psi0_numeric(w, df, 0.0)
    for x in np.linspace(-1.3, 1.3, 11):
        ratio = _psi0_numeric(w, df, float(x)) / ref
        assert ratio == pytest.approx(math.cos(x) ** p.lam, rel=1e-10)


def test_psi1_numeric_odd_and_zero_at_origin():
    w_plus, w_minus = _m1_pair()
    _, lam_prime, _, _ = _ladders(w_plus, w_minus)
    w_prime = TrigLaurentPoly(lam_prime)
    assert _psi1_numeric(w_plus, w_prime, ONE_HALF, 0.0) == 0.0
    for x in (0.3, 0.9, 1.4):
        left = _psi1_numeric(w_plus, w_prime, ONE_HALF, -x)
        right = _psi1_numeric(w_plus, w_prime, ONE_HALF, x)
        assert left == pytest.approx(-right, rel=1e-10)


def test_numeric_matches_closed_form_ratios():
    # the reference wells of the benchmark's verify workload and the (1, 0)
    # well of fig5, each side scaled to 1 where the closed form peaks
    wells = {
        "one-1": build_one_param(1, 1.0, -0.5),
        "one-3": build_one_param(3, 2.0, 2.0),
        "two-1-1": build_two_param(1, 1, 1.0, 1.0, 0.5),
        "two-1-0": build_two_param(1, 0, 1.0, 1.0, 0.5),
    }
    for name, spec in wells.items():
        df = spec.deforming
        w, w_prime, w_plus = _spec_superpotentials(spec)
        lo, hi = df.domain
        inset = 0.07 * (hi - lo)
        xs = np.linspace(lo + inset, hi - inset, 32)
        numeric = (
            [_psi0_numeric(w, df, float(x)) for x in xs],
            [_psi1_numeric(w_plus, w_prime, df, float(x)) for x in xs],
        )
        for level, num in enumerate(numeric):
            [closed] = closed_form_wavefunction(spec, level).value(xs)
            k = np.argmax(np.abs(closed))
            np.testing.assert_allclose(
                np.array(num) / num[k], closed / closed[k], rtol=1e-9, err_msg=f"{name} psi{level}"
            )
