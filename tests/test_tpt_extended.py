"""Tests for the closed-form extended potentials.

The m = 1 and (m1, m2) = (1, 1), (1, 0) closed forms are written out
longhand here and serve as regression oracles for the general-depth sums;
they were derived by hand, independently of the S-sum machinery the module
runs on.  Deeper cases are covered by the dual construction paths agreeing.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from pdmtpt import combinatorics, tpt_extended
from pdmtpt.combinatorics import ladder_table
from pdmtpt.dsusy_core import (
    CompatibilityError,
    Family,
    TrigLaurentPoly,
    compatibility_gap,
)
from pdmtpt.numeric_verify import hermiticity_boundary_check, interior_samples
from references import (
    c_odd_nested,
    c_two_nested,
    conv_on_read,
    double_factorial,
    e0_two_closed,
    lone_log_form,
    sec_coeffs_two,
)
from pdmtpt.tpt_extended import (
    InternalConsistencyError,
    build_one_param,
    build_two_param,
    closed_form_wavefunction,
    expand_and_resum_one_param,
    expand_and_resum_two_param,
    potential_value,
)


def _draws(n, seed, alpha_lo=-0.8):
    rng = np.random.default_rng(seed)
    return [
        (float(rng.uniform(0.25, 4.0)), float(rng.uniform(alpha_lo, 0.8)))
        for _ in range(n)
    ]


def _assert_proportional(got, want, rel=1e-12):
    # overall sign and scale of an un-normalized wavefunction are free
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    np.testing.assert_allclose(got * want[0], want * got[0], rtol=rel, atol=1e-14)


class TestOneParamAnchors:
    def test_simplest_case_exact_values(self):
        spec = build_one_param(1, 1.0, -0.5)
        assert spec.e0 == pytest.approx(float(Fraction(19, 16)), abs=1e-12)
        assert spec.e1 == pytest.approx(float(Fraction(115, 16)), abs=1e-12)
        assert spec.a_coeffs == pytest.approx(
            (float(Fraction(-33, 16)), 0.0, 1.0), abs=1e-12
        )
        assert spec.c_odd == pytest.approx((0.5, 2.0), abs=1e-12)
        assert spec.gap == pytest.approx(6.0, abs=1e-12)

    def test_undeformed_gap(self):
        assert build_one_param(1, 1.0, 0.0).gap == pytest.approx(3.0, abs=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_gap_double_factorial_formula(self, m):
        a_top, alpha = 2.3, 0.4
        spec = build_one_param(m, a_top, alpha)
        want = (
            2.0
            * math.sqrt(a_top)
            * double_factorial(2 * m + 1)
            / double_factorial(2 * m)
            / (1.0 + alpha) ** m
        )
        assert spec.gap == pytest.approx(want, rel=1e-12)
        assert spec.gap > 0.0

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_ladder_relations(self, m):
        spec = build_one_param(m, 1.7, -0.3)
        assert spec.lam[1:] == spec.lam_prime[1:]
        offset = spec.lam_prime[0] - spec.lam[0]
        assert offset == pytest.approx((2 * m + 1) * (1.0 + spec.alpha), rel=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_coefficient_array_shape_and_top(self, m):
        spec = build_one_param(m, 3.1, 0.6)
        assert len(spec.a_coeffs) == 2 * m + 1
        assert spec.a_coeffs[-1] == 3.1
        # leading partial-fraction constant controls the boundary decay
        assert spec.c_odd[-1] == pytest.approx(
            math.sqrt(3.1) / (1.0 + spec.alpha), rel=1e-12
        )
        assert spec.c_odd[-1] > 0.0


class TestOneParamLonghandForms:
    """m = 1 closed forms, written out longhand."""

    CASES = _draws(6, seed=21) + [(1.0, 0.0), (1.0, -0.5)]

    @pytest.mark.parametrize("a_top,alpha", CASES)
    def test_potential_coefficients(self, a_top, alpha):
        spec = build_one_param(1, a_top, alpha)
        sa = math.sqrt(a_top)
        op = 1.0 + alpha
        a2 = (
            3.75 * op**2
            + 3.0 * (1.0 + 4.0 * alpha) * sa
            + 3.0 * (4.0 * alpha**2 - 1.0) * a_top / (4.0 * op**2)
        )
        a4 = -3.0 * sa * (2.0 * op + alpha * sa / op)
        np.testing.assert_allclose(spec.a_coeffs, (a2, a4, a_top), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("a_top,alpha", CASES)
    def test_energies(self, a_top, alpha):
        spec = build_one_param(1, a_top, alpha)
        sa = math.sqrt(a_top)
        op = 1.0 + alpha
        base = 0.75 * op * (3.0 + 5.0 * alpha) + (1.0 - 2.0 * alpha) ** 2 * a_top / (
            4.0 * op**2
        )
        e0 = base + 1.5 * (-1.0 + 2.0 * alpha + 4.0 * alpha**2) * sa / op
        e1 = base + 1.5 * (1.0 + 2.0 * alpha + 4.0 * alpha**2) * sa / op
        assert spec.e0 == pytest.approx(e0, rel=1e-12)
        assert spec.e1 == pytest.approx(e1, rel=1e-12)

    @pytest.mark.parametrize("a_top,alpha", CASES)
    def test_ground_state_factors(self, a_top, alpha):
        spec = build_one_param(1, a_top, alpha)
        sa = math.sqrt(a_top)
        op = 1.0 + alpha
        w0 = closed_form_wavefunction(spec, 0)
        assert w0.f_exp == pytest.approx((0.25 - sa / (4.0 * op**2),), rel=1e-12)
        assert w0.cos_exp == pytest.approx(sa / (2.0 * op**2) - 1.5, rel=1e-12)
        assert w0.sec_coeffs == pytest.approx((sa / (2.0 * op),), rel=1e-12)
        assert w0.csc_coeffs == ()
        assert w0.poly == ((1.0,),)
        assert w0.odd == (False,)

    @pytest.mark.parametrize("a_top,alpha", CASES)
    def test_excited_state_factors(self, a_top, alpha):
        spec = build_one_param(1, a_top, alpha)
        sa = math.sqrt(a_top)
        op = 1.0 + alpha
        w1 = closed_form_wavefunction(spec, 1)
        assert w1.f_exp == pytest.approx((-1.25 - sa / (4.0 * op**2),), rel=1e-12)
        assert w1.cos_exp == pytest.approx(sa / (2.0 * op**2) - 1.5, rel=1e-12)
        assert w1.odd == (True,)
        _assert_proportional(w1.poly[0], (3.0, -(1.0 - 2.0 * alpha)))

    @pytest.mark.parametrize("a_top,alpha", CASES)
    def test_ground_state_pointwise(self, a_top, alpha):
        spec = build_one_param(1, a_top, alpha)
        sa = math.sqrt(a_top)
        op = 1.0 + alpha
        xs = np.linspace(-1.35, 1.35, 9)
        f = 1.0 + alpha * np.sin(xs) ** 2
        want = (
            f ** (0.25 - sa / (4.0 * op**2))
            * np.cos(xs) ** (sa / (2.0 * op**2) - 1.5)
            * np.exp(-sa / (2.0 * op) / np.cos(xs) ** 2)
        )
        np.testing.assert_allclose(
            closed_form_wavefunction(spec, 0).value(xs)[0], want, rtol=1e-12
        )


class TestOneParamDualPath:
    def test_matches_build_simplest_case(self):
        spec = build_one_param(1, 1.0, -0.5)
        e0, coeffs = expand_and_resum_one_param(1, 1.0, -0.5)
        assert e0 == pytest.approx(spec.e0, abs=1e-12)
        np.testing.assert_allclose(coeffs, spec.a_coeffs, rtol=1e-12, atol=1e-12)

    def test_matches_build_depth_two(self):
        spec = build_one_param(2, 1.0, 0.25)
        e0, coeffs = expand_and_resum_one_param(2, 1.0, 0.25)
        assert e0 == pytest.approx(spec.e0, rel=1e-9)
        np.testing.assert_allclose(coeffs, spec.a_coeffs, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_random_sweep(self, m):
        for a_top, alpha in _draws(20, seed=100 + m):
            spec = build_one_param(m, a_top, alpha)
            e0, coeffs = expand_and_resum_one_param(m, a_top, alpha)
            scale = max(1.0, abs(spec.e0))
            assert abs(e0 - spec.e0) < 1e-8 * scale
            cscale = max(1.0, float(np.max(np.abs(spec.a_coeffs))))
            assert np.max(np.abs(np.subtract(coeffs, spec.a_coeffs))) < 1e-8 * cscale

    def test_deep_ladder_precision(self):
        # at m = 12 float cancellation in the closed sums shows: the paths
        # differ by about 1.6e-10 of the largest |E0|, |A_k|
        spec = build_one_param(12, 1.0, 0.5)
        e0, coeffs = expand_and_resum_one_param(12, 1.0, 0.5)
        scale = max([1.0, abs(spec.e0)] + [abs(c) for c in spec.a_coeffs])
        worst = max(
            [abs(e0 - spec.e0)] + [abs(a - b) for a, b in zip(coeffs, spec.a_coeffs)]
        )
        assert worst / scale < 2e-10

    @pytest.mark.parametrize("m", [1, 4, 7])
    def test_each_s_sum_once_per_build(self, m, monkeypatch):
        calls = []
        s_sum = tpt_extended.s_sum

        def counted(table):
            calls.append(s_sum(table))
            return calls[-1]

        monkeypatch.setattr(tpt_extended, "s_sum", counted)
        build_one_param(m, 1.0, 0.5)
        assert [len(sums) for sums in calls] == [2 * m + 1]

    @pytest.mark.parametrize("m", [1, 4, 7, 12])
    def test_each_table_once_per_path(self, m, monkeypatch):
        tables, read = [], []
        table_of, s_sum = tpt_extended.ladder_table, tpt_extended.s_sum

        def counted(depth):
            tables.append(table_of(depth))
            return tables[-1]

        def reader(table):
            read.append(table)
            return s_sum(table)

        monkeypatch.setattr(tpt_extended, "ladder_table", counted)
        monkeypatch.setattr(tpt_extended, "s_sum", reader)
        # the table is the only source of double factorials
        assert not hasattr(combinatorics, "double_factorial")
        assert not hasattr(tpt_extended, "double_factorial")
        expand_and_resum_one_param(m, 1.0, 0.5)
        assert len(tables) == 1 and read == []  # the expansion path forms its own
        tables.clear()
        build_one_param(m, 1.0, 0.5)
        # one table for the closed forms, the other for the expansion path
        assert len(tables) == 2
        assert len(read) == 1 and read[0] is tables[0]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="at most 1000"):
            build_one_param(1001, 1.0, 0.5)
        with pytest.raises(ValueError, match="at most 1000"):
            build_two_param(1, 1001, 1.0, 1.0, 0.5)
        with pytest.raises(ValueError, match="tpt_exact"):
            build_one_param(0, 1.0, 0.5)
        with pytest.raises(ValueError):
            build_one_param(-1, 1.0, 0.5)
        with pytest.raises(ValueError):
            build_one_param(1, 0.0, 0.5)
        with pytest.raises(ValueError):
            build_one_param(1, -2.0, 0.5)
        with pytest.raises(ValueError):
            build_one_param(1, 1.0, -1.0)
        assert issubclass(InternalConsistencyError, RuntimeError)


@pytest.mark.parametrize(
    "build,args",
    [
        (build_one_param, (1, 1e300, 0.0)),
        (build_two_param, (1, 1, 1.0, 1e300, 0.0)),
        (build_two_param, (1, 0, 1.0, 1e300, 0.0)),
    ],
    ids=["one", "two-1-1", "two-1-0"],
)
def test_gap_lost_in_rounding_is_a_precision_limit(build, args):
    # the gap, about 1e151, is below one ulp of E0 (about 1e300): E1 = E0 + gap
    # would round to E0 and report gap=0
    with pytest.raises(ValueError, match="^precision limit: the gap"):
        build(*args)


@pytest.mark.parametrize(
    "closed,expanded",
    [
        ([1.0, math.nan], [1.0, 1.0]),
        ([1.0, 2.0], [1.0, math.inf]),
        (math.inf, math.inf),
        (-math.inf, 1.0),
    ],
    ids=["nan-closed", "inf-expanded", "inf-both", "scalar"],
)
def test_non_finite_dual_path_value_is_a_precision_limit(closed, expanded):
    # worst > tol * scale is false for nan and inf, so the comparison alone
    # would return them as the discrepancy and let the build through
    with pytest.raises(ValueError, match="^precision limit: x ") as exc:
        tpt_extended._check_match("x", closed, expanded, 1e-9)
    assert "\n" not in str(exc.value)


def test_check_match_agrees_with_the_array_reference():
    # the former NumPy body, kept as the reference for finite inputs
    def reference(closed, expanded, tol):
        ca = np.atleast_1d(np.asarray(closed, dtype=float))
        ea = np.atleast_1d(np.asarray(expanded, dtype=float))
        scale = max(1.0, float(np.max(np.abs(ca))), float(np.max(np.abs(ea))))
        worst = float(np.max(np.abs(ca - ea)))
        if worst > tol * scale:
            return (
                f"x: closed-form and expansion paths disagree by {worst:.3e} "
                f"(scale {scale:.3e}, tolerance {tol:.1e})"
            )
        return worst

    rng = np.random.default_rng(5)
    cases = [(0.0, 2.0), ([3.0, -1.0], (1.0, -1.0))]
    for n in (1, 2, 7):
        for _ in range(200):
            ca = rng.normal(size=n) * 10.0 ** rng.integers(-3, 30, size=n)
            ea = ca * (1.0 + rng.normal(size=n) * 10.0 ** rng.integers(-14, -7))
            cases.append((float(ca[0]) if n == 1 else ca.tolist(), tuple(ea.tolist())))
    for closed, expanded in cases:
        want = reference(closed, expanded, 1e-9)
        if isinstance(want, str):
            with pytest.raises(InternalConsistencyError) as exc:
                tpt_extended._check_match("x", closed, expanded, 1e-9)
            assert str(exc.value) == want
        else:
            got = tpt_extended._check_match("x", closed, expanded, 1e-9)
            assert type(got) is float and got == want
    with pytest.raises(
        InternalConsistencyError, match=r"^x: paths produced different shapes \(2,\) vs \(1,\)$"
    ):
        tpt_extended._check_match("x", [1.0, 2.0], 1.0, 1e-9)


def test_gap_well_above_4_ulps_still_builds():
    # about 85 ulps of E0
    spec = build_one_param(1, 1e30, 0.0)
    assert spec.gap >= 4.0 * math.ulp(spec.e0)


@pytest.mark.parametrize(
    "args",
    [(1, 1.7, 0.45), (8, 1.7, 0.45), (14, 14, 1.0, 1.0, 0.6), (8, 8, 1.0, 1.0, 0.6),
     (2, 0, 1.1, 0.7, -0.25)],
    ids=["one-1", "one-8", "two-14-14", "two-8-8", "two-2-0"],
)
def test_stored_gap_is_the_closed_form(args):
    # E1 - E0 after rounding is off by 8.6e-3 relative at (14, 14) and by
    # 5.8e-11 at (8, 8); the stored gap is the closed form itself
    if len(args) == 3:
        m, a_top, alpha = args
        spec = build_one_param(*args)
        top, den = ladder_table(m)  # (2m+1)!! and den[0] = (2m)!!
        want = 2.0 * math.sqrt(a_top) * top / den[0] * (1.0 + alpha) ** (-m)
    else:
        m1, m2, a_top, b_top, alpha = args
        spec = build_two_param(*args)
        sb = tpt_extended._sqrt_b_eff(m2, b_top, alpha)
        want = tpt_extended._gap_two(m1, m2, math.sqrt(a_top), sb, alpha)
    assert spec.gap == want
    assert spec.e1 == spec.e0 + spec.gap


@pytest.mark.parametrize(
    "build,expand,args,expand_args",
    [
        (build_two_param, expand_and_resum_two_param, (1, 1, 1.0, 1.0, 0.5), None),
        (build_one_param, expand_and_resum_one_param, (1, 1.0, -0.5), None),
        (build_one_param, expand_and_resum_one_param, (3, 2.0, 2.0), None),
        (build_one_param, expand_and_resum_one_param, (12, 1.0, 0.5), None),
        (build_two_param, expand_and_resum_two_param, (1, 2, 1.5, 0.75, -0.2),
         (2, 1, 0.75, 1.5, 0.2)),
        (build_two_param, expand_and_resum_two_param, (1, 0, 1.0, 1.0, 0.5), None),
    ],
    ids=["two-1-1", "one-1", "one-3", "one-12", "two-1-2-reflected", "two-1-0"],
)
def test_stored_dual_path_is_the_largest_build_discrepancy(build, expand, args, expand_args):
    # the first four are the wells perfbench's set-up probe reads
    # dual_path_rel_max from; a reflected well expands its canonical form
    spec = build(*args)
    e0_exp, *ladders_exp = expand(*(expand_args or args))
    closed = spec.a_coeffs + spec.b_coeffs
    expanded = tuple(c for ladder in ladders_exp for c in ladder)
    assert len(closed) == len(expanded)
    want = max(abs(spec.e0 - e0_exp), *(abs(c - x) for c, x in zip(closed, expanded)))
    assert spec.dual_path == want


def _perturbed_w_minus(w_pair):
    """`w_pair` with a tan^3 term added to W_minus.

    The ladders read only W_minus's tan x coefficient, so E_0 and the
    potential coefficients still pass; only f W_plus' - W_plus W_minus
    stops being constant.
    """

    def perturbed(*args):
        w_plus, w_minus = w_pair(*args)
        bad = TrigLaurentPoly(w_minus.lam + (1e-6,), w_minus.mu)
        return w_plus, bad

    return perturbed


@pytest.mark.parametrize(
    "name,build,args",
    [
        ("_w_pair_one", build_one_param, (2, 1.3, 0.4)),
        ("_w_pair_two", build_two_param, (2, 1, 1.3, 0.8, -0.3)),
    ],
    ids=["one", "two"],
)
def test_incompatible_generating_pair_fails_the_build(monkeypatch, name, build, args):
    monkeypatch.setattr(
        tpt_extended, name, _perturbed_w_minus(getattr(tpt_extended, name))
    )
    with pytest.raises(CompatibilityError, match=r"^f W\+' - W\+ W- is not constant"):
        build(*args)


class TestTwoParamAnchors:
    def test_equal_depth_example(self):
        spec = build_two_param(1, 1, 1.0, 1.0, 0.5)
        assert spec.e0 == pytest.approx(float(Fraction(69, 2)), abs=1e-12)
        assert spec.e1 == pytest.approx(float(Fraction(293, 2)), abs=1e-12)
        assert spec.gap == pytest.approx(112.0, abs=1e-12)
        assert spec.lam == pytest.approx((8.25, 1.0), abs=1e-12)
        assert spec.lam_prime == pytest.approx((9.75, 1.0), abs=1e-12)
        assert spec.mu == pytest.approx((-1.25, 1.0), abs=1e-12)
        assert spec.mu_prime == pytest.approx((3.25, 1.0), abs=1e-12)

    def test_unequal_depth_example(self):
        spec = build_two_param(1, 0, 1.0, 1.0, 0.5)
        assert spec.e0 == pytest.approx(float(Fraction(629, 16)), abs=1e-12)
        assert spec.e1 == pytest.approx(float(Fraction(1381, 16)), abs=1e-12)
        # sqrt(B_2) is replaced by 1 + alpha + Delta/2 when the inner ladder
        # is absent; Delta = sqrt((1+alpha)^2 + 4 B_2) = 5/2 here
        assert spec.sqrt_b_eff == pytest.approx(2.75, abs=1e-12)
        assert spec.b_coeffs == (1.0,)

    def test_gap_factorial_formula(self):
        m1, m2, a_top, b_top, alpha = 2, 1, 1.9, 0.8, -0.35
        spec = build_two_param(m1, m2, a_top, b_top, alpha)
        op, om = 1.0 + alpha, 1.0 - alpha
        want = (
            4.0
            * math.factorial(m1 + m2 + 1)
            / (math.factorial(m1) * math.factorial(m2))
            * (
                math.sqrt(a_top) * op ** (m1 + 1) / om**m1
                + math.sqrt(b_top) * om ** (m2 + 1) / op**m2
            )
        )
        assert spec.gap == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("m1,m2", [(1, 1), (2, 1), (2, 2), (3, 1)])
    def test_ladder_relations(self, m1, m2):
        spec = build_two_param(m1, m2, 1.3, 2.1, 0.45)
        assert spec.lam[1:] == spec.lam_prime[1:]
        assert spec.mu[1:] == spec.mu_prime[1:]
        dl = spec.lam_prime[0] - spec.lam[0]
        dm = spec.mu_prime[0] - spec.mu[0]
        assert dl == pytest.approx((2 * m1 + 1) * (1.0 - spec.alpha), rel=1e-12)
        assert dm == pytest.approx((2 * m2 + 1) * (1.0 + spec.alpha), rel=1e-12)


class TestTwoParamLonghandForms:
    """(1, 1) and (1, 0) closed forms, written out longhand."""

    CASES = _draws(6, seed=22) + [(1.0, 0.5)]

    @pytest.mark.parametrize("a_top,alpha", CASES)
    def test_equal_depth_potential(self, a_top, alpha):
        b_top = 1.0 + a_top / 3.0
        spec = build_two_param(1, 1, a_top, b_top, alpha)
        sa, sb = math.sqrt(a_top), math.sqrt(b_top)
        op, om = 1.0 + alpha, 1.0 - alpha
        a2 = (
            3.75 * om**2
            - 24.0 * alpha * sa
            + 12.0 * alpha * (1.0 + 2.0 * alpha) * a_top / om**2
            - 6.0 * om * sa * sb / op
        )
        a4 = 3.0 * sa * (-2.0 * om + (1.0 + 3.0 * alpha) * sa / om)
        b2 = (
            3.75 * op**2
            + 24.0 * alpha * sb
            - 6.0 * op * sa * sb / om
            - 12.0 * alpha * (1.0 - 2.0 * alpha) * b_top / op**2
        )
        b4 = 3.0 * sb * (-2.0 * op + (1.0 - 3.0 * alpha) * sb / op)
        np.testing.assert_allclose(
            spec.a_coeffs, (a2, a4, a_top), rtol=1e-12, atol=1e-12
        )
        np.testing.assert_allclose(
            spec.b_coeffs, (b2, b4, b_top), rtol=1e-12, atol=1e-12
        )

    @pytest.mark.parametrize("a_top,alpha", CASES)
    def test_equal_depth_energies(self, a_top, alpha):
        b_top = 0.5 + a_top / 2.0
        spec = build_two_param(1, 1, a_top, b_top, alpha)
        sa, sb = math.sqrt(a_top), math.sqrt(b_top)
        op, om = 1.0 + alpha, 1.0 - alpha
        shared = (
            3.0 * (2.0 * alpha**2 + 3.0)
            + 4.0 * (1.0 + 2.0 * alpha) ** 2 * a_top / om**2
            + 8.0 * (1.0 - 2.0 * alpha) * (1.0 + 2.0 * alpha) * sa * sb / (om * op)
            + 4.0 * (1.0 - 2.0 * alpha) ** 2 * b_top / op**2
        )
        e0 = (
            shared
            + 12.0 * (alpha**2 - 2.0 * alpha - 1.0) * sa / om
            + 12.0 * (alpha**2 + 2.0 * alpha - 1.0) * sb / op
        )
        e1 = (
            shared
            + 12.0 * (3.0 * alpha**2 + 2.0 * alpha + 1.0) * sa / om
            + 12.0 * (3.0 * alpha**2 - 2.0 * alpha + 1.0) * sb / op
        )
        assert spec.e0 == pytest.approx(e0, rel=1e-12)
        assert spec.e1 == pytest.approx(e1, rel=1e-12)

    @pytest.mark.parametrize("a_top,alpha", CASES)
    def test_unequal_depth_potential(self, a_top, alpha):
        b2 = 0.75 + a_top / 4.0
        spec = build_two_param(1, 0, a_top, b2, alpha)
        sa = math.sqrt(a_top)
        om = 1.0 - alpha
        delta = math.sqrt((1.0 + alpha) ** 2 + 4.0 * b2)
        a2 = (
            3.75 * om**2
            - (24.0 * alpha + delta) * sa
            + (-1.0 + 2.0 * alpha + 15.0 * alpha**2) * a_top / om**2
        )
        a4 = sa * (-6.0 * om + (1.0 + 7.0 * alpha) * sa / om)
        np.testing.assert_allclose(
            spec.a_coeffs, (a2, a4, a_top), rtol=1e-12, atol=1e-12
        )
        assert spec.b_coeffs == (b2,)

    @pytest.mark.parametrize("a_top,alpha", CASES)
    def test_unequal_depth_energies(self, a_top, alpha):
        b2 = 1.25
        spec = build_two_param(1, 0, a_top, b2, alpha)
        sa = math.sqrt(a_top)
        op, om = 1.0 + alpha, 1.0 - alpha
        delta = math.sqrt(op**2 + 4.0 * b2)
        shared = ((1.0 + 3.0 * alpha) / om) ** 2 * a_top + b2
        e0 = (
            shared
            + 1.25 * om * (1.0 - 5.0 * alpha)
            - om * delta
            + (-2.0 - 4.0 * alpha + 22.0 * alpha**2 + (1.0 + 3.0 * alpha) * delta)
            * sa
            / om
        )
        e1 = (
            shared
            + 0.25 * om * (37.0 + 7.0 * alpha)
            + 3.0 * om * delta
            + (6.0 * (1.0 + 2.0 * alpha + 5.0 * alpha**2) + (1.0 + 3.0 * alpha) * delta)
            * sa
            / om
        )
        assert spec.e0 == pytest.approx(e0, rel=1e-12)
        assert spec.e1 == pytest.approx(e1, rel=1e-12)


@pytest.mark.parametrize(
    "spec",
    [
        build_one_param(1, 1.0, -0.5),
        build_one_param(3, 2.0, 2.0),
        build_two_param(1, 1, 1.0, 1.0, 0.5),
        build_two_param(1, 0, 1.0, 1.0, 0.5),
        build_two_param(2, 1, 1.0, 1.3, 0.3),
    ],
    ids=["one-1", "one-3", "two-1-1", "two-1-0", "two-2-1"],
)
def test_log_form_is_sqrt_f_psi_and_its_derivatives(spec):
    # q e^L against sqrt(f) psi, and each closed-form derivative against
    # 5-point central differences of the values; the residual's samples
    # include x = 0 for the one-parameter family
    df = spec.deforming
    xs = interior_samples(df, 41)
    h = 1e-3
    stencil = xs[:, None] + h * np.arange(-2.0, 3.0)
    psi = spec.psi
    for ((q, q1, q2), (big_l, l1, l2)), value, ((qs, *_), (ls, *_)) in zip(
        psi.log_form(xs), psi.value(xs), psi.log_form(stencil), strict=True
    ):
        assert all(np.shape(a) == xs.shape for a in (q, q1, q2, big_l, l1, l2))
        np.testing.assert_allclose(
            q * np.exp(big_l), np.sqrt(df.f(xs)) * value, rtol=1e-12, atol=0.0
        )
        for derivatives, y in (((q1, q2), qs), ((l1, l2), ls)):
            d1 = (y[:, 0] - 8.0 * y[:, 1] + 8.0 * y[:, 3] - y[:, 4]) / (12.0 * h)
            d2 = (-y[:, 0] + 16.0 * y[:, 1] - 30.0 * y[:, 2] + 16.0 * y[:, 3] - y[:, 4]) / (
                12.0 * h * h
            )
            # the differences' own h^4 error reaches 1.4e-6 at the walls
            for got, want in zip(derivatives, (d1, d2)):
                np.testing.assert_allclose(
                    got, want, rtol=1e-5, atol=1e-8 * np.max(np.abs(want))
                )


# psi0 and psi1 of one well: the three wells of `figures`, a reflected well
# (m1 < m2), an m2 = 0 well and `two 3,3,2,1,0.6`, whose psis underflow on
# most of the domain
JOINT_WELLS = {
    "fig1": build_one_param(1, 1.0, -0.5),
    "fig3": build_two_param(1, 1, 1.0, 1.0, 0.5),
    "fig5": build_two_param(1, 0, 1.0, 1.0, 0.5),
    "reflected": build_two_param(1, 3, 1.3, 0.7, -0.4),
    "m2-0": build_two_param(3, 0, 0.8, 1.6, 0.2),
    "3-3": build_two_param(3, 3, 2.0, 1.0, 0.6),
}


def _joint_samples(df):
    # gram's grid, the residual's 41 samples (x = 0 for the one-parameter
    # family, where psi1 is 0) and the points next to each wall, where psi
    # underflows to 0 and, beside a csc ladder, L to -inf
    lo, hi = df.domain
    width = hi - lo
    return np.concatenate((
        np.linspace(lo + 1e-9 * width, hi - 1e-9 * width, 1025),
        interior_samples(df, 41),
        [np.nextafter(lo, hi), np.nextafter(hi, lo)],
    ))


@pytest.mark.parametrize("spec", JOINT_WELLS.values(), ids=JOINT_WELLS.keys())
def test_joint_evaluation_is_bit_identical(spec):
    # each level's row equals that level evaluated alone
    df = spec.deforming
    xs = _joint_samples(df)
    psi = spec.psi
    # the wall points overflow sec^2 or csc^2 x on purpose
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        values = psi.value(xs)
        forms = psi.log_form(xs)
        assert values.shape == (2,) + xs.shape
        for level, (value, (q, big_l)) in enumerate(zip(values, forms, strict=True)):
            (q_lone,), (l_lone,) = lone_log_form(psi, level, xs, False)
            assert np.array_equal(value, q_lone * np.exp(l_lone))
            assert np.any(value == 0.0)
            want_q, want_l = lone_log_form(psi, level, xs, True)
            for got, want in zip(q + big_l, want_q + want_l, strict=True):
                assert np.array_equal(got, want, equal_nan=True)
            assert np.isneginf(big_l[0][-2]) == bool(psi.csc_coeffs)
    if df.family is Family.ONE:
        assert values[1][1025 + 20] == 0.0  # psi1 at x = 0
    else:
        assert spec.reflected == (spec is JOINT_WELLS["reflected"])
    # a scalar x gives one value per level
    mid = np.float64(0.5 * sum(df.domain))
    lone = [lone_log_form(psi, level, mid, False) for level in (0, 1)]
    assert np.array_equal(psi.value(mid), [q * np.exp(big_l) for (q,), (big_l,) in lone])


@pytest.mark.parametrize("spec", JOINT_WELLS.values(), ids=JOINT_WELLS.keys())
def test_level_view_is_the_levels_row(spec):
    xs = _joint_samples(spec.deforming)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        values = spec.psi.value(xs)
        forms = spec.psi.log_form(xs)
        for level in (0, 1):
            view = closed_form_wavefunction(spec, level)
            [value] = view.value(xs)
            [(q, big_l)] = view.log_form(xs)
            assert np.array_equal(value, values[level])
            want_q, want_l = forms[level]
            for got, want in zip(q + big_l, want_q + want_l, strict=True):
                assert np.array_equal(got, want, equal_nan=True)


class TestTwoParamWavefunctions:
    def test_partial_fraction_example_values(self):
        spec = build_two_param(1, 1, 1.0, 1.0, 0.5)
        c, d = spec.c, spec.d
        assert c == pytest.approx((10.5, 4.0), abs=1e-12)
        assert d == pytest.approx((float(Fraction(-19, 18)), 4.0 / 3.0), abs=1e-12)

    @pytest.mark.parametrize("a_top,alpha", TestTwoParamLonghandForms.CASES)
    def test_equal_depth_factors(self, a_top, alpha):
        b_top = 2.0
        spec = build_two_param(1, 1, a_top, b_top, alpha)
        sa, sb = math.sqrt(a_top), math.sqrt(b_top)
        op, om = 1.0 + alpha, 1.0 - alpha
        w0 = closed_form_wavefunction(spec, 0)
        assert w0.f_exp == pytest.approx(
            (-op * sa / om**2 - om * sb / op**2 + 1.0,), rel=1e-12
        )
        assert w0.cos_exp == pytest.approx(2.0 * op * sa / om**2 - 1.5, rel=1e-12)
        assert w0.sin_exp == pytest.approx(2.0 * om * sb / op**2 - 1.5, rel=1e-12)
        assert w0.sec_coeffs == pytest.approx((sa / (2.0 * om),), rel=1e-12)
        assert w0.csc_coeffs == pytest.approx((sb / (2.0 * op),), rel=1e-12)
        w1 = closed_form_wavefunction(spec, 1)
        assert w1.f_exp[0] == pytest.approx(w0.f_exp[0] - 3.0, rel=1e-12)
        _assert_proportional(
            w1.poly[0],
            (
                -2.0 * sb,
                12.0 * alpha * sb / op,
                6.0 * (op * sa / om + (1.0 - 3.0 * alpha) * sb / op),
                -4.0 * ((1.0 + 2.0 * alpha) * sa / om + (1.0 - 2.0 * alpha) * sb / op),
            ),
        )

    @pytest.mark.parametrize("a_top,alpha", TestTwoParamLonghandForms.CASES)
    def test_unequal_depth_factors(self, a_top, alpha):
        b2 = 1.5
        spec = build_two_param(1, 0, a_top, b2, alpha)
        sa = math.sqrt(a_top)
        op, om = 1.0 + alpha, 1.0 - alpha
        delta = math.sqrt(op**2 + 4.0 * b2)
        w0 = closed_form_wavefunction(spec, 0)
        assert w0.f_exp == pytest.approx(
            (-op * sa / (2.0 * om**2) - delta / (4.0 * op),), rel=1e-12
        )
        assert w0.cos_exp == pytest.approx(op * sa / om**2 - 1.5, rel=1e-12)
        assert w0.sin_exp == pytest.approx(delta / (2.0 * op) + 0.5, rel=1e-12)
        assert w0.sec_coeffs == pytest.approx((sa / (2.0 * om),), rel=1e-12)
        assert w0.csc_coeffs == ()
        w1 = closed_form_wavefunction(spec, 1)
        assert w1.f_exp[0] == pytest.approx(w0.f_exp[0] - 2.0, rel=1e-12)
        top = 2.0 + 2.0 * alpha + delta
        _assert_proportional(
            w1.poly[0],
            (
                top,
                -2.0 * (2.0 * op * sa / om + top),
                2.0 * (1.0 + 3.0 * alpha) * sa / om + top,
            ),
        )

    def test_equal_depth_ground_state_pointwise(self):
        spec = build_two_param(1, 1, 1.0, 1.0, 0.5)
        xs = np.linspace(0.15, math.pi / 2.0 - 0.15, 9)
        f = 1.0 + 0.5 * np.cos(2.0 * xs)
        want = (
            f ** (-47.0 / 9.0)
            * np.cos(xs) ** 10.5
            * np.sin(xs) ** (-19.0 / 18.0)
            * np.exp(-1.0 / np.cos(xs) ** 2 - 1.0 / (3.0 * np.sin(xs) ** 2))
        )
        np.testing.assert_allclose(
            closed_form_wavefunction(spec, 0).value(xs)[0], want, rtol=1e-12
        )

    @pytest.mark.parametrize("m1,m2", [(1, 1), (2, 1), (2, 2), (3, 1), (1, 0), (2, 0)])
    def test_boundary_coefficients_positive(self, m1, m2):
        spec = build_two_param(m1, m2, 1.6, 0.9, 0.3)
        c, d = spec.c, spec.d
        assert c[-1] == pytest.approx(2.0**m1 * math.sqrt(1.6) / 0.7, rel=1e-12)
        assert c[-1] > 0.0
        if m2 > 0:
            assert d[-1] == pytest.approx(2.0**m2 * math.sqrt(0.9) / 1.3, rel=1e-12)
            assert d[-1] > 0.0
        else:
            assert d[-1] == pytest.approx(spec.sqrt_b_eff / 1.3 - 0.5, rel=1e-12)

    def test_negative_sine_exponent_still_normalizable(self):
        # sqrt(B_6) = (1+alpha)^2 / (2(1-alpha)) puts the sine exponent at
        # exactly -1/2; the csc^2 exponential still forces decay at x = 0
        spec = build_two_param(1, 1, 1.0, 5.0625, 0.5)
        w0 = closed_form_wavefunction(spec, 0)
        assert w0.sin_exp == pytest.approx(-0.5, abs=1e-12)
        [check] = hermiticity_boundary_check(w0.value, spec.deforming)
        assert check.passed
        # the squared norm must not pick anything up as the insets close in
        norms = [
            integrate.quad(
                lambda x: w0.value(x)[0] ** 2,
                inset,
                math.pi / 2.0 - inset,
                epsabs=0.0,
                epsrel=1e-10,
                limit=200,
            )[0]
            for inset in (1e-6, 1e-9, 1e-12)
        ]
        assert math.isfinite(norms[0]) and norms[0] > 0.0
        assert norms[1] == pytest.approx(norms[0], rel=1e-8)
        assert norms[2] == pytest.approx(norms[0], rel=1e-8)

    @staticmethod
    def _sign_changes(values):
        # drop exact zeros (the odd state's node can land on a grid point,
        # and the walls underflow to zero)
        signs = np.sign(values)
        signs = signs[signs != 0.0]
        return int(np.sum(signs[:-1] * signs[1:] < 0.0))

    def test_excited_states_have_one_interior_zero(self):
        one = build_one_param(1, 1.0, -0.5)
        xs = np.linspace(-math.pi / 2.0, math.pi / 2.0, 4003)[1:-1]
        assert self._sign_changes(closed_form_wavefunction(one, 1).value(xs)[0]) == 1
        for spec in (
            build_two_param(1, 1, 1.0, 1.0, 0.5),
            build_two_param(1, 0, 1.0, 1.0, 0.5),
        ):
            xs = np.linspace(0.0, math.pi / 2.0, 4003)[1:-1]
            assert self._sign_changes(closed_form_wavefunction(spec, 1).value(xs)[0]) == 1

    def test_ground_state_parity(self):
        spec = build_one_param(2, 1.8, 0.35)
        xs = np.linspace(0.05, 1.45, 12)
        psi0 = closed_form_wavefunction(spec, 0)
        np.testing.assert_allclose(psi0.value(xs)[0], psi0.value(-xs)[0], rtol=1e-12)

    def test_hermiticity_boundary_decay(self):
        spec = build_two_param(1, 1, 1.0, 1.0, 0.5)
        for level in (0, 1):
            psi = closed_form_wavefunction(spec, level)
            [check] = hermiticity_boundary_check(psi.value, spec.deforming)
            assert check.passed

    def test_level_out_of_range(self):
        spec = build_one_param(1, 1.0, 0.0)
        with pytest.raises(ValueError):
            closed_form_wavefunction(spec, 2)


class TestTwoParamDualPath:
    def test_matches_build_equal_depth_example(self):
        spec = build_two_param(1, 1, 1.0, 1.0, 0.5)
        e0, a_coeffs, b_coeffs = expand_and_resum_two_param(1, 1, 1.0, 1.0, 0.5)
        assert e0 == pytest.approx(spec.e0, rel=1e-12)
        np.testing.assert_allclose(a_coeffs, spec.a_coeffs, rtol=1e-12)
        np.testing.assert_allclose(b_coeffs, spec.b_coeffs, rtol=1e-12)

    def test_matches_build_unequal_depth_example(self):
        spec = build_two_param(1, 0, 1.0, 1.0, 0.5)
        e0, a_coeffs, b_coeffs = expand_and_resum_two_param(1, 0, 1.0, 1.0, 0.5)
        assert e0 == pytest.approx(spec.e0, rel=1e-12)
        np.testing.assert_allclose(a_coeffs, spec.a_coeffs, rtol=1e-12)
        np.testing.assert_allclose(b_coeffs, spec.b_coeffs, rtol=1e-12)

    @pytest.mark.parametrize("m1,m2", [(1, 1), (2, 1), (2, 2), (3, 1), (1, 0), (2, 0)])
    def test_random_sweep(self, m1, m2):
        rng = np.random.default_rng(200 + 10 * m1 + m2)
        for _ in range(20):
            a_top = float(rng.uniform(0.25, 4.0))
            b_top = float(rng.uniform(0.25, 4.0))
            alpha = float(rng.uniform(-0.8, 0.8))
            spec = build_two_param(m1, m2, a_top, b_top, alpha)
            e0, a_coeffs, b_coeffs = expand_and_resum_two_param(
                m1, m2, a_top, b_top, alpha
            )
            assert abs(e0 - spec.e0) < 1e-8 * max(1.0, abs(spec.e0))
            ascale = max(1.0, float(np.max(np.abs(spec.a_coeffs))))
            bscale = max(1.0, float(np.max(np.abs(spec.b_coeffs))))
            assert np.max(np.abs(np.subtract(a_coeffs, spec.a_coeffs))) < 1e-8 * ascale
            assert np.max(np.abs(np.subtract(b_coeffs, spec.b_coeffs))) < 1e-8 * bscale

    def test_expansion_requires_canonical_ordering(self):
        with pytest.raises(ValueError, match="canonical"):
            expand_and_resum_two_param(1, 2, 1.0, 1.0, 0.3)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="tpt_exact"):
            build_two_param(0, 0, 1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            build_two_param(-1, 0, 1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            build_two_param(1, 1, 0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            build_two_param(1, 1, 1.0, -1.0, 0.5)
        with pytest.raises(ValueError):
            build_two_param(1, 1, 1.0, 1.0, 1.0)


class TestReflection:
    @pytest.mark.parametrize("m1,m2", [(1, 1), (2, 0), (3, 1), (5, 2), (6, 6)])
    def test_swapped_input_maps_to_canonical(self, m1, m2):
        spec = build_two_param(m2, m1, 0.7, 2.4, 0.3)
        direct = build_two_param(m1, m2, 2.4, 0.7, -0.3)
        assert not direct.reflected
        if m1 > m2:
            assert spec.reflected
            assert (spec.m1, spec.m2) == (m1, m2)
            assert spec.a_top == 2.4 and spec.b_top == 0.7
            assert spec.alpha == -0.3
            assert spec.e0 == direct.e0 and spec.e1 == direct.e1
            assert spec.a_coeffs == direct.a_coeffs
            assert spec.b_coeffs == direct.b_coeffs
            assert spec.c == direct.c and spec.d == direct.d
        else:
            # equal depths build canonically both ways, so the csc side of
            # one spec must mirror the sec side of the other
            assert not spec.reflected
            assert spec.e0 == pytest.approx(direct.e0, rel=1e-12)
            assert spec.e1 == pytest.approx(direct.e1, rel=1e-12)
            assert spec.a_coeffs == pytest.approx(direct.b_coeffs, rel=1e-12)
            assert spec.b_coeffs == pytest.approx(direct.a_coeffs, rel=1e-12)
            assert spec.c == pytest.approx(direct.d, rel=1e-12)
            assert spec.d == pytest.approx(direct.c, rel=1e-12)
        # the reflected csc formulas against the unreflected expansion path
        _, _, b_exp = expand_and_resum_two_param(m1, m2, 2.4, 0.7, -0.3)
        scale = max(1.0, max(abs(b) for b in b_exp))
        np.testing.assert_allclose(direct.b_coeffs, b_exp, rtol=0.0, atol=1e-12 * scale)

    def test_swap_invariance_at_equal_depth(self):
        # with m1 = m2 both orderings build canonically, so the identity
        # V(A,B,alpha; x) = V(B,A,-alpha; pi/2 - x) is a real cross-check
        a_top, b_top, alpha = 1.7, 0.6, 0.55
        spec = build_two_param(1, 1, a_top, b_top, alpha)
        swapped = build_two_param(1, 1, b_top, a_top, -alpha)
        assert swapped.e0 == pytest.approx(spec.e0, rel=1e-12)
        assert swapped.e1 == pytest.approx(spec.e1, rel=1e-12)
        xs = np.linspace(0.1, math.pi / 2.0 - 0.1, 33)
        np.testing.assert_allclose(
            potential_value(swapped, math.pi / 2.0 - xs),
            potential_value(spec, xs),
            rtol=1e-10,
        )
        np.testing.assert_allclose(
            closed_form_wavefunction(swapped, 0).value(math.pi / 2.0 - xs)[0],
            closed_form_wavefunction(spec, 0).value(xs)[0],
            rtol=1e-10,
        )


@pytest.mark.parametrize(
    "build,args,lengths",
    [
        (build_one_param, (5, 1.3, 0.4), [6]),
        (build_two_param, (4, 2, 1.3, 0.8, -0.3), [5, 3]),
        (build_two_param, (1, 3, 1.3, 0.8, -0.3), [4, 2]),
        (build_two_param, (3, 0, 1.3, 0.8, 0.3), [4, 1]),
    ],
    ids=["one", "two-4-2", "two-reflected", "two-3-0"],
)
def test_one_resummation_per_ladder(monkeypatch, build, args, lengths):
    calls = []
    transform = tpt_extended.binomial_transform

    def counted(lam):
        calls.append(len(lam))
        return transform(lam)

    monkeypatch.setattr(tpt_extended, "binomial_transform", counted)
    build(*args)
    assert calls == lengths


def test_resummation_equals_the_nested_sums():
    # ladders spanning 12 decades, so the alternating sums cancel
    rng = np.random.default_rng(22)
    for m in range(1, 15):
        for _ in range(6):
            lam = rng.uniform(-1, 1, m + 1) * 10.0 ** rng.uniform(-6, 6, m + 1)
            lam = tuple(float(v) for v in lam)
            alpha = float(rng.uniform(-0.8, 0.8))
            assert tpt_extended._c_odd_one(m, lam, alpha) == c_odd_nested(m, lam, alpha)
            for al in (alpha, -alpha):
                assert tpt_extended._c_two(m, lam, al) == c_two_nested(m, lam, al)
    for m in range(1, 9):
        for a_top, alpha in _draws(3, 40 + m):
            spec = build_one_param(m, a_top, alpha)
            assert spec.c_odd == c_odd_nested(m, spec.lam, alpha)
    for m1, m2 in ((1, 0), (2, 2), (5, 3), (8, 8)):
        spec = build_two_param(m1, m2, 1.3, 0.8, 0.35)
        assert spec.c == c_two_nested(m1, spec.lam, 0.35)
        assert spec.d == c_two_nested(m2, spec.mu, -0.35)


@pytest.mark.parametrize(
    "m1,m2",
    [(1, 0), (4, 0), (9, 0), (1, 1), (5, 5), (3, 1), (8, 3), (1, 3), (2, 7), (14, 14)],
)
def test_closed_two_is_the_separate_sums(m1, m2):
    # the reflected m1 < m2 wells are also taken as given, which no build does
    rng = np.random.default_rng(2400 + 20 * m1 + m2)
    for _ in range(4):
        a_top, b_top = (float(v) for v in rng.uniform(0.25, 4.0, 2))
        alpha = float(rng.uniform(-0.8, 0.8))
        wells = [(m1, m2, math.sqrt(a_top), tpt_extended._sqrt_b_eff(m2, b_top, alpha), alpha)]
        if m1 < m2:
            wells.append(
                (m2, m1, math.sqrt(b_top), tpt_extended._sqrt_b_eff(m1, a_top, -alpha), -alpha)
            )
        for n1, n2, sa, sb, al in wells:
            e0, a_closed, b_closed = tpt_extended._closed_two(n1, n2, sa, sb, al)
            assert e0 == e0_two_closed(n1, n2, sa, sb, al)
            assert a_closed == sec_coeffs_two(n1, n2, sa, sb, al)
            assert b_closed == sec_coeffs_two(n2, n1, sb, sa, -al)


@pytest.mark.parametrize(
    "m1,m2", [(1, 0), (3, 0), (1, 1), (4, 2), (6, 6), (2, 5), (14, 14)]
)
def test_sec_terms_once_per_side_and_weight(monkeypatch, m1, m2):
    calls = []
    sec_terms = tpt_extended._sec_terms

    def counted(n1, n2, j, *rest):
        calls.append((n1, n2, j))
        return sec_terms(n1, n2, j, *rest)

    monkeypatch.setattr(tpt_extended, "_sec_terms", counted)
    build_two_param(m1, m2, 1.3, 0.8, 0.35)
    big, small = max(m1, m2), min(m1, m2)  # the canonical well
    assert len(calls) == 2 * big + max(2 * small, 1) + 2
    assert calls == [(big, small, j) for j in range(2 * big + 1)] + [
        (small, big, j) for j in range(max(2 * small, 1) + 1)
    ]


@pytest.mark.parametrize("m1", range(1, 15))
def test_conv_tables_are_exact(m1):
    for m2 in range(m1 + 1):
        for n1, n2, first in ((m1, m2, 0), (m2, m1, 1)):
            row, lin, quad, cross = tpt_extended._conv_tables(n1, n2, first)
            big = n1 + n2 + 1
            assert row == tuple(combinatorics.binomial(big, n2 + p + 1) for p in range(n1 + 2))
            assert row[-1] == 0
            assert list(lin) == list(range(1, n1 + 2))
            assert list(quad) == list(range(1, 2 * n1 + 2))
            assert list(cross) == list(range(first, n1 + 1))
            ref_lin, ref_quad, ref_cross = conv_on_read(n1, n2)
            assert all(lin[l] == ref_lin[l] for l in lin)
            assert all(quad[l] == ref_quad[l] for l in quad)
            assert all(cross[l] == ref_cross[l] for l in cross)
        # the reflected side's table has no l = 0 entry: E_0 reads the well's
        assert conv_on_read(m2, m1)[2][0] == conv_on_read(m1, m2)[2][0]


@pytest.mark.parametrize(
    "m1,m2", [(1, 0), (3, 0), (1, 1), (4, 2), (6, 6), (2, 5), (8, 8), (14, 14)]
)
def test_conv_once_per_table_entry(monkeypatch, m1, m2):
    # every quadratic and cross sum of a build is an entry of one of two
    # convolutions per wall side, each formed once
    big, small = max(m1, m2), min(m1, m2)  # the canonical well
    tables = tpt_extended._conv_tables(big, small, 0), tpt_extended._conv_tables(small, big, 1)
    entries = sum(len(quad) + len(cross) for _, _, quad, cross in tables)
    assert entries == 3 * (m1 + m2) + 3
    calls = []
    convolution = tpt_extended.convolution

    def counted(a, b):
        calls.append(convolution(a, b))
        return calls[-1]

    monkeypatch.setattr(tpt_extended, "convolution", counted)
    build_two_param(m1, m2, 1.3, 0.8, 0.35)
    assert len(calls) == 4
    assert sum(len(c) for c in calls) >= entries


@pytest.mark.parametrize("m1,m2,per_entry_calls", [(8, 8, 1463), (14, 14, 3881)])
def test_binomial_calls_per_build_are_under_half_the_per_entry_sums(
    monkeypatch, m1, m2, per_entry_calls
):
    # with one binomial row per wall side and one weight row per j, a build
    # makes fewer than half the calls of per-entry sums that formed two
    # binomials per term and the weights afresh in each of three loops
    calls = []
    binomial = tpt_extended.binomial

    def counted(n, k):
        calls.append((n, k))
        return binomial(n, k)

    monkeypatch.setattr(tpt_extended, "binomial", counted)
    build_two_param(m1, m2, 1.3, 0.8, 0.35)
    assert 0 < len(calls) < per_entry_calls / 2


class TestGeneratingPairs:
    @pytest.mark.parametrize(
        "spec",
        [
            build_one_param(1, 1.0, -0.5),
            build_one_param(3, 2.2, 0.4),
            build_two_param(1, 1, 1.0, 1.0, 0.5),
            build_two_param(2, 0, 1.1, 0.7, -0.25),
        ],
        ids=["one-m1", "one-m3", "two-11", "two-20"],
    )
    def test_pair_gap_matches_spec(self, spec):
        sa = math.sqrt(spec.a_top)
        if isinstance(spec, tpt_extended.ExtendedOneParamSpec):
            pair = tpt_extended._w_pair_one(spec.m, sa, spec.alpha, ladder_table(spec.m))
        else:
            pair = tpt_extended._w_pair_two(
                spec.m1, spec.m2, sa, spec.sqrt_b_eff, spec.alpha
            )
        gap = compatibility_gap(*pair, spec.deforming)
        assert gap == pytest.approx(spec.gap, rel=1e-12)

    def test_potential_values_match_partner_route(self):
        spec = build_one_param(1, 1.0, -0.5)
        xs = np.linspace(-1.3, 1.3, 17)
        sec2 = 1.0 / np.cos(xs) ** 2
        want = -33.0 / 16.0 * sec2 + sec2**3
        np.testing.assert_allclose(potential_value(spec, xs), want, rtol=1e-12)
