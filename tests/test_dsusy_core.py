"""Deformed-SUSY engine: factorization algebra, compatibility, numeric states."""

import math

import numpy as np
import pytest

from pdmtpt.dsusy_core import (
    CompatibilityError,
    DeformingFunction,
    Family,
    GapSignError,
    GeneratingPair,
    TrigLaurentPoly,
    companion_from_generator,
    compatibility_gap,
    f_value,
    hermiticity_boundary_check,
    make_generating_pair,
    partner_potential,
    psi0_numeric,
    psi1_numeric,
    split_superpotentials,
)
from pdmtpt.tpt_exact import (
    ExactOneParam,
    ExactTwoParam,
    energy_one_param,
    energy_two_param,
    superpotentials_one_param,
    superpotentials_two_param,
)
from pdmtpt.tpt_extended import (
    build_one_param,
    build_two_param,
    closed_form_wavefunction,
    generating_pair,
)

ONE_HALF = DeformingFunction.trig_one(-0.5)


def _m1_pair():
    # lowest nontrivial tan-ladder: W+ = 6 tan x + 2 tan^3 x at alpha = -1/2
    # pairs with W- = (3/2) tan x at gap 6
    w_plus = TrigLaurentPoly(Family.ONE, (6.0, 2.0))
    w_minus = TrigLaurentPoly(Family.ONE, (1.5,))
    return w_plus, w_minus


# --- deforming functions ---------------------------------------------------


def test_f_value_one_param():
    assert f_value(ONE_HALF, 0.0) == pytest.approx((1.0, 0.0), abs=1e-15)
    f, fp = f_value(ONE_HALF, math.pi / 4.0)
    assert f == pytest.approx(0.75, rel=1e-15)
    assert fp == pytest.approx(-0.5, rel=1e-15)


def test_f_value_two_param():
    df = DeformingFunction.trig_two(0.5)
    f, fp = f_value(df, math.pi / 4.0)
    assert f == pytest.approx(1.0, rel=1e-15)
    assert fp == pytest.approx(-1.0, rel=1e-15)


def test_f_value_rejects_boundary():
    with pytest.raises(ValueError):
        f_value(ONE_HALF, math.pi / 2.0)
    with pytest.raises(ValueError):
        f_value(DeformingFunction.trig_two(0.3), 0.0)


def test_deforming_function_parameter_ranges():
    with pytest.raises(ValueError):
        DeformingFunction.trig_one(-1.0)
    with pytest.raises(ValueError):
        DeformingFunction.trig_two(1.0)
    with pytest.raises(ValueError):
        DeformingFunction.trig_two(-1.3)
    assert DeformingFunction.trig_one(0.0).undeformed
    assert not ONE_HALF.undeformed


def test_mass_is_inverse_square_of_f():
    df = DeformingFunction.trig_two(-0.4)
    xs = np.linspace(0.2, 1.3, 7)
    np.testing.assert_allclose(df.mass(xs), 1.0 / df.f(xs) ** 2, rtol=1e-15)


def test_trig_laurent_poly_family_consistency():
    with pytest.raises(ValueError):
        TrigLaurentPoly(Family.ONE, (1.0,), (2.0,))  # cot blocks need family TWO
    w = TrigLaurentPoly(Family.TWO, (2.0,), (3.0,))
    x = 0.7
    assert w.value(x) == pytest.approx(2.0 * math.tan(x) - 3.0 / math.tan(x))
    assert w.derivative_value(x) == pytest.approx(
        2.0 / math.cos(x) ** 2 + 3.0 / math.sin(x) ** 2
    )


# --- generating pairs ------------------------------------------------------


def test_companion_recovers_es_one_param():
    df = DeformingFunction.trig_one(0.3)
    w_plus = TrigLaurentPoly(Family.ONE, (4.0,))  # 2 sqrt(A2) tan, A2 = 4
    w_minus = companion_from_generator(w_plus, df, 4.0)
    assert w_minus.mu == ()
    np.testing.assert_allclose(w_minus.lam, (1.3,), rtol=1e-14)


def test_companion_recovers_m1_ladder():
    w_plus, expected = _m1_pair()
    w_minus = companion_from_generator(w_plus, ONE_HALF, 6.0)
    np.testing.assert_allclose(w_minus.lam, expected.lam, rtol=1e-14)


def test_companion_rejects_incompatible_gap():
    w_plus, _ = _m1_pair()
    with pytest.raises(CompatibilityError) as err:
        companion_from_generator(w_plus, ONE_HALF, 5.9)
    assert err.value.max_residual > 0.0


def test_companion_rejects_nonpositive_gap():
    w_plus, _ = _m1_pair()
    with pytest.raises(GapSignError):
        companion_from_generator(w_plus, ONE_HALF, -6.0)


def test_compatibility_gap_constant_value():
    w_plus, w_minus = _m1_pair()
    assert compatibility_gap(w_plus, w_minus, ONE_HALF) == pytest.approx(6.0, rel=1e-12)


def test_compatibility_gap_rejects_perturbed_companion():
    w_plus, w_minus = _m1_pair()
    bad = TrigLaurentPoly(Family.ONE, (w_minus.lam[0], 0.1))
    with pytest.raises(CompatibilityError):
        compatibility_gap(w_plus, bad, ONE_HALF)


@pytest.mark.parametrize("m1,m2", [(8, 1), (0, 8), (7, 0)])
def test_compatibility_gap_accepts_deep_two_param_pairs(m1, m2):
    # f W+' and W+ W- each reach 1e8..1e9 on the central half at these
    # depths, so their sampled difference carries rounding far above 1e-10
    spec = build_two_param(m1, m2, 1.0, 1.0, 0.0)
    pair = generating_pair(spec)
    assert pair.gap == pytest.approx(spec.gap, rel=1e-12)


def test_compatibility_gap_rejects_perturbed_deep_pair():
    spec = build_two_param(8, 1, 1.0, 1.0, 0.0)
    pair = generating_pair(spec)
    lam = list(pair.w_minus.lam)
    lam[0] *= 1.0 + 1e-6
    bad = TrigLaurentPoly(Family.TWO, tuple(lam), pair.w_minus.mu)
    with pytest.raises(CompatibilityError):
        compatibility_gap(pair.w_plus, bad, spec.deforming)


def test_compatibility_gap_rejects_negative_constant():
    df = DeformingFunction.trig_one(0.2)
    w_plus = TrigLaurentPoly(Family.ONE, (-2.0,))
    w_minus = TrigLaurentPoly(Family.ONE, (1.2,))
    with pytest.raises(GapSignError):
        compatibility_gap(w_plus, w_minus, df)


def test_gap_constant_on_sample_grid():
    w_plus, w_minus = _m1_pair()
    pair = make_generating_pair(w_plus, w_minus, ONE_HALF)
    lo, hi = ONE_HALF.domain
    xs = np.linspace(lo + 0.1, hi - 0.1, 64)
    sampled = (
        ONE_HALF.f(xs) * w_plus.derivative_value(xs)
        - w_plus.value(xs) * w_minus.value(xs)
    )
    np.testing.assert_allclose(sampled, pair.gap, rtol=1e-12)


def test_split_superpotentials():
    df = DeformingFunction.trig_one(0.0)
    pair = make_generating_pair(
        TrigLaurentPoly(Family.ONE, (5.0,)), TrigLaurentPoly(Family.ONE, (1.0,)), df
    )
    w, w_prime = split_superpotentials(pair)
    np.testing.assert_allclose(w.lam, (2.0,))
    np.testing.assert_allclose(w_prime.lam, (3.0,))


def test_split_degenerate_companion():
    # W- = 0 makes both halves W+/2 (raw record: no tan ladder satisfies the
    # compatibility identity with a vanishing companion)
    pair = GeneratingPair(
        TrigLaurentPoly(Family.ONE, (2.8,)), TrigLaurentPoly(Family.ONE, ()), 1.0
    )
    w, w_prime = split_superpotentials(pair)
    np.testing.assert_allclose(w.lam, (1.4,))
    np.testing.assert_allclose(w_prime.lam, (1.4,))


# --- partner potentials ----------------------------------------------------


def test_partner_potential_at_origin():
    lam = 2.0
    df = DeformingFunction.trig_one(0.0)
    w = TrigLaurentPoly(Family.ONE, (lam,))
    v1 = partner_potential(w, df, "V1")
    assert v1.value(0.0) == pytest.approx(-lam, rel=1e-15)
    const, sec, csc = v1.resummed()
    assert csc == ()
    assert sec[0] == pytest.approx(lam * (lam - 1.0))  # = A(A-1)
    assert const == pytest.approx(-lam * (lam - 1.0) - lam)


def test_partner_potential_which_flag():
    w = TrigLaurentPoly(Family.ONE, (2.0,))
    with pytest.raises(ValueError):
        partner_potential(w, ONE_HALF, "V3")


@pytest.mark.parametrize("big_a,alpha", [(2.0, -0.5), (2.7, 0.3), (1.4, 0.0)])
def test_dsusy_chain_one_param(big_a, alpha):
    # V2 built from W plus E0 equals V1 built from W' plus E1, pointwise
    p = ExactOneParam(big_a, alpha)
    df = p.deforming
    w, w_prime = superpotentials_one_param(p)
    xs = np.linspace(-1.2, 1.2, 64)
    lhs = partner_potential(w, df, "V2").value(xs) + energy_one_param(p, 0)
    rhs = partner_potential(w_prime, df, "V1").value(xs) + energy_one_param(p, 1)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("big_a,big_b,alpha", [(2.0, 2.0, 0.5), (3.1, 1.6, -0.7)])
def test_dsusy_chain_two_param(big_a, big_b, alpha):
    p = ExactTwoParam(big_a, big_b, alpha)
    df = p.deforming
    w, w_prime = superpotentials_two_param(p)
    xs = np.linspace(0.15, math.pi / 2.0 - 0.15, 64)
    lhs = partner_potential(w, df, "V2").value(xs) + energy_two_param(p, 0)
    rhs = partner_potential(w_prime, df, "V1").value(xs) + energy_two_param(p, 1)
    scale = np.max(np.abs(lhs))
    np.testing.assert_allclose(lhs, rhs, rtol=0.0, atol=1e-10 * scale)


# --- numeric wavefunctions -------------------------------------------------


def test_psi0_numeric_constant_mass_profile():
    # alpha = 0, W = lam tan: psi0(x)/psi0(0) = cos^lam x
    p = ExactOneParam(2.0, 0.0)
    df = p.deforming
    w, _ = superpotentials_one_param(p)
    ref = psi0_numeric(w, df, 0.0)
    for x in np.linspace(-1.3, 1.3, 11):
        ratio = psi0_numeric(w, df, float(x)) / ref
        assert ratio == pytest.approx(math.cos(x) ** p.lam, rel=1e-10)


def test_psi0_numeric_midpoint_anchor():
    for df, w in (
        (ONE_HALF, TrigLaurentPoly(Family.ONE, (2.3,))),
        (
            DeformingFunction.trig_two(0.5),
            TrigLaurentPoly(Family.TWO, (2.0,), (1.5,)),
        ),
    ):
        mid = df.midpoint
        assert psi0_numeric(w, df, mid) == pytest.approx(
            float(df.f(mid)) ** -0.5, rel=1e-12
        )


def test_psi1_numeric_odd_and_zero_at_origin():
    w_plus, w_minus = _m1_pair()
    pair = make_generating_pair(w_plus, w_minus, ONE_HALF)
    _, w_prime = split_superpotentials(pair)
    assert psi1_numeric(pair, w_prime, ONE_HALF, 0.0) == 0.0
    for x in (0.3, 0.9, 1.4):
        left = psi1_numeric(pair, w_prime, ONE_HALF, -x)
        right = psi1_numeric(pair, w_prime, ONE_HALF, x)
        assert left == pytest.approx(-right, rel=1e-10)


def test_numeric_matches_closed_form_ratios():
    # integral representation against the resummed closed form, m = 1
    spec = build_one_param(1, 1.0, -0.5)
    df = spec.deforming
    pair = generating_pair(spec)
    w, w_prime = split_superpotentials(pair)
    x_ref = 0.5
    xs = np.linspace(-1.35, 1.35, 32)
    num0 = np.array([psi0_numeric(w, df, float(x)) for x in xs])
    num1 = np.array([psi1_numeric(pair, w_prime, df, float(x)) for x in xs])
    closed0 = closed_form_wavefunction(spec, 0).value(xs)
    closed1 = closed_form_wavefunction(spec, 1).value(xs)
    np.testing.assert_allclose(
        num0 / psi0_numeric(w, df, x_ref),
        closed0 / closed_form_wavefunction(spec, 0).value(x_ref),
        rtol=1e-9,
    )
    np.testing.assert_allclose(
        num1 / psi1_numeric(pair, w_prime, df, x_ref),
        closed1 / closed_form_wavefunction(spec, 1).value(x_ref),
        rtol=1e-9,
    )


# --- hermiticity boundary check --------------------------------------------


def test_hermiticity_check_passes_for_bound_state():
    spec = build_one_param(1, 1.0, -0.5)
    psi0 = closed_form_wavefunction(spec, 0)
    check = hermiticity_boundary_check(psi0.value, ONE_HALF)
    assert check.passed
    assert check.lower_limit < 1e-8 * check.interior_max
    assert check.upper_limit < 1e-8 * check.interior_max


def test_hermiticity_check_fails_for_constant():
    check = hermiticity_boundary_check(np.ones_like, ONE_HALF)
    assert not check.passed
