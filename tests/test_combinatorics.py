"""Exact-arithmetic building blocks: frozen values and cross-checks."""

import math

import pytest
from hypothesis import given, strategies as st

from pdmtpt.combinatorics import (
    binomial,
    binomial_transform,
    convolution,
    f_poly,
    fsum,
    ladder_table,
    s_sum,
)
from references import double_factorial, ladder_table_terms, s_sum_terms


def test_double_factorial_small_values():
    assert double_factorial(0) == 1
    assert double_factorial(-1) == 1
    assert double_factorial(1) == 1
    assert double_factorial(6) == 48
    assert double_factorial(7) == 105


def test_double_factorial_rejects_below_minus_one():
    with pytest.raises(ValueError):
        double_factorial(-2)
    with pytest.raises(ValueError):
        double_factorial(-3)


@given(st.integers(min_value=1, max_value=200))
def test_double_factorial_pair_gives_factorial(n):
    assert double_factorial(n) * double_factorial(n - 1) == math.factorial(n)


def test_binomial_values_and_truncation():
    assert binomial(5, 2) == 10
    assert binomial(4, 0) == 1
    # out-of-range k is a structural zero, not an error: the resummation
    # loops run k past the top row and rely on the truncation
    assert binomial(4, 5) == 0
    assert binomial(4, -1) == 0


def test_ladder_table_equals_the_per_entry_double_factorials():
    assert ladder_table(0) == (1, (1,))
    assert ladder_table(2) == (15, (8, 6, 15))
    for m in range(41):
        assert ladder_table(m) == ladder_table_terms(m), m
    with pytest.raises(ValueError):
        ladder_table(-1)


# rows of one to six integers, entries past 2^64 included
_ROWS = st.lists(st.integers(min_value=-(2**70), max_value=2**70), min_size=1, max_size=6)


@given(_ROWS, _ROWS)
def test_convolution_is_the_per_term_double_sum(a, b):
    want = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            want[i + j] += x * y
    assert convolution(a, b) == tuple(want)


def test_convolution_frozen_values():
    assert convolution((1, 2), (3,)) == (3, 6)
    assert convolution((1, 1, 1), (1, -1)) == (1, 0, 0, -1)
    # no float or fixed-width step: 2^130 - 1 survives
    assert convolution((2**65 + 1,), (2**65 - 1, 3)) == (2**130 - 1, 3 * 2**65 + 3)


def test_s_sum_frozen_values():
    assert s_sum(ladder_table(1)) == (2.25, 3.0, 1.0)
    assert s_sum(ladder_table(2)) == (225 / 64, 9.375, 10.0, 5.0, 1.0)
    assert all(type(v) is float for v in s_sum(ladder_table(3)))


def test_s_sum_equals_the_per_term_sum():
    for m in range(21):
        top, den = ladder_table(m)
        even = den[0]
        t = [top * even // d for d in den]
        sums = convolution(t, t)
        assert len(sums) == 2 * m + 1
        for k in range(1, 2 * m + 2):
            exact = s_sum_terms(m, k) * even**2
            # the convolution is S_k ((2m)!!)^2 exactly, in integers
            assert exact.denominator == 1 and sums[k - 1] == exact.numerator, (m, k)
    for m in range(41):
        want = tuple(float(s_sum_terms(m, k)) for k in range(1, 2 * m + 2))
        # each S_k is the exact sum rounded to float once, bit for bit
        assert [v.hex() for v in s_sum(ladder_table(m))] == [v.hex() for v in want], m


@given(st.integers(min_value=1, max_value=6), st.data())
def test_s_sum_positive_and_float_consistent(m, data):
    k = data.draw(st.integers(min_value=1, max_value=2 * m + 1))
    value = s_sum(ladder_table(m))[k - 1]
    assert value > 0
    assert value.hex() == float(s_sum_terms(m, k)).hex()
    top = double_factorial(2 * m + 1) ** 2
    terms = []
    for l in range(max(0, k - m - 1), min(k - 1, m) + 1):
        den = (
            double_factorial(2 * l + 1)
            * double_factorial(2 * k - 2 * l - 1)
            * double_factorial(2 * m - 2 * l)
            * double_factorial(2 * m - 2 * k + 2 * l + 2)
        )
        terms.append(top / den)
    assert math.fsum(terms) == pytest.approx(value, rel=1e-14)


def test_binomial_transform_rewrites_tan_powers_in_sec_powers():
    assert binomial_transform(()) == ()
    assert binomial_transform((3.0, 5.0, 7.0)) == (3.0 - 5.0 + 7.0, 5.0 - 14.0, 7.0)
    # sum_k c_k tan^(2k) x = sum_q r_q sec^(2q) x at a few points
    c = (0.5, -2.0, 1.25, 3.0)
    r = binomial_transform(c)
    for x in (0.1, 0.7, 1.3):
        tan_side = sum(ck * math.tan(x) ** (2 * k) for k, ck in enumerate(c))
        sec_side = sum(rq / math.cos(x) ** (2 * q) for q, rq in enumerate(r))
        assert sec_side == pytest.approx(tan_side, rel=1e-12)


def test_f_poly_values():
    assert f_poly(0, 3, 0.7) == 1.0
    for z in (-0.3, 0.0, 0.8, 2.5):
        assert f_poly(1, 2, z) == pytest.approx(1.0 - 2.0 * z, rel=1e-15)
    # n = 2, k = 4: 1 - 4z + 6z^2
    assert f_poly(2, 4, 0.5) == pytest.approx(1.0 - 2.0 + 1.5)


def test_f_poly_requires_k_above_n():
    with pytest.raises(ValueError):
        f_poly(2, 2, 0.5)
    with pytest.raises(ValueError):
        f_poly(3, 1, 0.5)


def test_fsum_is_math_fsum_until_both_infinities_meet():
    terms = [1e16, 1.0, -1e16, 0.5]
    assert fsum(iter(terms)) == math.fsum(terms) == 1.5
    assert fsum([2.0 * 1e308, 1.0]) == math.inf
    assert math.isnan(fsum([math.nan, 1.0]))
    with pytest.raises(OverflowError):
        fsum([1e308, 1e308])
    # products past the largest double: a precision limit, not a ValueError
    with pytest.raises(OverflowError):
        fsum([-2.0 * 1e308, 3.0 * 1e308])
