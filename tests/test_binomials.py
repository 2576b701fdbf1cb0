"""Binomial coefficients, the real extension, and Turán clique counts."""

import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kkbounds import (
    binom_real,
    binomial,
    turan_clique_count_oracle,
    turan_coefficient,
)
from kkbounds.binomials import _binom_real_at, _ratio_at

import reference


def test_binomial_values():
    assert binomial(5, 3) == 10
    assert binomial(4, -1) == 0
    assert binomial(3, 5) == 0
    assert binomial(-2, 0) == 0
    assert binomial(7, 0) == 1
    assert binomial(0, 0) == 1


def test_binomial_matches_math_comb():
    for n in range(0, 30):
        for k in range(0, n + 1):
            assert binomial(n, k) == math.comb(n, k)


def test_binom_real_point_value():
    assert binom_real(3.5, 2) == 4.375


def test_binom_real_zeros():
    for k in range(1, 7):
        for root in range(k):
            assert binom_real(float(root), k) == 0.0


def test_binom_real_agrees_with_integers():
    # The reference loop is exact while its products stay below 2^53.
    for n in range(1, 61):
        for k in range(1, min(n, 20) + 1):
            exact = binomial(n, k)
            assert abs(binom_real(float(n), k) - exact) <= exact * 1e-12
            assert reference.binom_real(float(n), k) == exact or math.perm(n, k) >= 2**53


def test_binom_real_strictly_increasing():
    for k in (1, 2, 3, 5, 8, 13):
        xs = [k - 1 + 0.01 * (1.3**i) for i in range(40)]
        values = [binom_real(x, k) for x in xs]
        assert all(a < b for a, b in zip(values, values[1:]))


def test_binom_real_large_k_where_the_product_overflows():
    # x(x-1)...(x-k+1) overflows, or k! does not convert, though C(x, k) fits.
    for n, k in ((200, 170), (400, 200), (600, 400), (1100, 1000)):
        exact = binomial(n, k)
        assert abs(binom_real(float(n), k) - exact) <= exact * 1e-12
        assert abs(reference.binom_real(float(n), k) - exact) <= exact * 1e-12
    assert binom_real(5.0, 400) == 0.0
    with pytest.raises(OverflowError):
        binom_real(3000.0, 1500)


def _check(x, k):
    """_binom_real_at(k)(x) is the reference loop bit for bit, inf too, where binom_real raises."""
    want = reference.binom_real(x, k)
    assert _binom_real_at(k)(x).hex() == want.hex(), (k, x)
    try:
        got = binom_real(x, k).hex()
    except OverflowError:
        got = "OverflowError"
    assert got == (want.hex() if math.isfinite(want) else "OverflowError"), (k, x)


def test_straight_line_evaluators_equal_the_loop_bit_for_bit():
    # Every k <= 170, whose evaluator is straight-line code.
    rng = random.Random(18)
    fallbacks = 0
    for k in range(1, 171):
        near = [k - 1 + rng.random() * 4 for _ in range(30)]
        wide = [(k - 1) * 10 ** (rng.random() * 14) + rng.random() for _ in range(50)]
        for x in (*near, *[min(x, 1e12) for x in wide], float(k - 1), 1e12):
            _check(x, k)
            # Where the product overflows, the value comes from the ratios.
            overflows = math.isinf(math.prod(x - i for i in range(k)))
            fallbacks += overflows and _binom_real_at(k)(x) < math.inf
        # At negative x and between the integer zeros.
        for x in [-rng.random() * 10 ** rng.randint(0, 12) for _ in range(20)] + near:
            _check(x - rng.randint(0, k), k)
    assert fallbacks > 500, fallbacks  # finite values from the ratio fallback (840)


def _gamma(j: int) -> Fraction:
    """γ_j = j u / (1 - j u), u = 2^-53: the relative error of j roundings (Higham, Lemma 3.1)."""
    return Fraction(j, 2**53 - j)


@functools.lru_cache(maxsize=None)
def _widest(k: int) -> int:
    """The largest n <= 2^52 with C(n+1, k) < 2^1000, by doubling and bisection."""
    lo = k
    while lo < 2**51 and math.comb(2 * lo + 1, k) < 2**1000:
        lo *= 2
    hi = min(2 * lo, 2**52)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if math.comb(mid + 1, k) < 2**1000 else (lo, mid - 1)
    return lo


@st.composite
def root_brackets(draw):
    """(x, k): a float x in [n, n+1], n >= k, with C(n+1, k) < 2^1000, so every
    partial product of the ratio form is finite; k up to 400, n at most 2^52."""
    k = draw(st.one_of(st.integers(1, 12), st.integers(1, 170), st.integers(171, 400)))
    n = draw(st.one_of(st.integers(k, min(_widest(k), k + 40)), st.integers(k, _widest(k))))
    return float(n) + draw(st.floats(0.0, 1.0)), k


@settings(max_examples=400, deadline=None)
@given(root_brackets())
@example((170.5, 170))  # the straight-line product overflows: the ratio form
@example((10.25, 10))
def test_evaluators_within_their_rounding_bounds(case):
    # On a root bracket every factor x - i is at least 1, so nothing
    # underflows: the straight-line code's 2k roundings put it within
    # γ_2k C(x, k) wherever its product is finite, and the ratio form's
    # 3k - 1 within γ_3k, against the exact value of the float x.
    x, k = case
    exact = reference.binom_exact(x, k)
    straight = 1.0
    for i in range(k):
        straight *= x - i
    bound = _gamma(2 * k) if k <= 170 and straight < math.inf else _gamma(3 * k)
    assert abs(Fraction(_binom_real_at(k)(x)) - exact) <= bound * exact, (x, k)
    assert abs(Fraction(_ratio_at(k, k)(x)) - exact) <= _gamma(3 * k) * exact, (x, k)


def test_binomial_sandwich():
    # (n-k+1)^k <= k! C(n,k) and 2^k k! C(n,k) <= (2n-k+1)^k, checked exactly
    for n in range(1, 41):
        for k in range(1, n + 1):
            mid = math.factorial(k) * binomial(n, k)
            assert (n - k + 1) ** k <= mid
            assert mid * 2**k <= (2 * n - k + 1) ** k


def test_binom_real_rejects_bad_input():
    with pytest.raises(ValueError):
        binom_real(2.0, 0)
    with pytest.raises(ValueError):
        binom_real(float("inf"), 3)
    with pytest.raises(ValueError):
        binom_real(float("nan"), 3)


def test_turan_coefficient_values():
    assert turan_coefficient(6, 2, 3) == 12
    assert turan_coefficient(7, 2, 3) == 16
    assert turan_coefficient(8, 3, 4) == 32 == binomial(4, 3) * 2**3
    assert turan_coefficient(5, 3, 2) == 0


def test_turan_coefficient_conventions():
    for n in (0, 3, 9):
        for r in (1, 2, 4):
            assert turan_coefficient(n, 0, r) == 1
            assert turan_coefficient(n, r + 1, r) == 0
            assert turan_coefficient(n, -2, r) == 0
    with pytest.raises(ValueError):
        turan_coefficient(5, 2, 0)
    with pytest.raises(ValueError):
        turan_coefficient(-1, 2, 2)


def test_turan_full_level_identity():
    for p in range(1, 5):
        for r in range(1, 7):
            for k in range(1, r + 1):
                assert turan_coefficient(p * r, k, r) == binomial(r, k) * p**k


def test_turan_oracle_agreement():
    for n in range(0, 11):
        for r in range(1, max(n, 1) + 1):
            for k in range(0, n + 1):
                assert turan_coefficient(n, k, r) == turan_clique_count_oracle(n, k, r)


def test_turan_oracle_limit():
    with pytest.raises(ValueError):
        turan_clique_count_oracle(15, 2, 3)
    assert turan_clique_count_oracle(15, 2, 3, limit=15) == turan_coefficient(15, 2, 3)
