"""The bracketed Lovasz root: bit-identical to bisection, cheap, and exact at large m.

_bisection_root is a frozen copy of the bisection lovasz_x used before the
bracketed method; it is the reference for bit-identity.  mpmath serves as a
50-digit reference for the roots themselves.
"""

import math
import random
import struct
import sys

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kkbounds import (
    approx,
    binomials,
    cascade,
    best_r,
    binom_real,
    binomial,
    bound_report,
    cascade_decompose,
    colored_cascade_decompose,
    flag_r,
    lovasz_x,
    shadow_bound,
)
from kkbounds.selftest import geometric_grid

MAX_MEAN_EVALUATIONS = 10


def _bisection_root(m: int, k: int) -> float:
    """The former lovasz_x: bisection from [k-1, (k! m)^(1/k) + 2k - 1]."""
    n = cascade_decompose(m, k).terms[0][0]
    if binomial(n, k) == m:
        return float(n)
    target = float(m)
    lo = float(k - 1)
    km = math.factorial(k) * m
    root = float(km) ** (1 / k) if km.bit_length() <= 53 else math.exp(math.log(km) / k)
    hi = k - 1 + root + k
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        try:
            below = binom_real(mid, k) < target
        except OverflowError:
            below = False
        if below:
            lo = mid
        else:
            hi = mid
    if abs(binom_real(lo, k) - target) <= abs(binom_real(hi, k) - target):
        return lo
    return hi


def _random_cases() -> list[tuple[int, int]]:
    rng = random.Random(31337)
    cases = []
    for k in (1, 2, 4, 7, 15, 25, 40):
        for _ in range(300):
            cases.append((rng.randint(1, 10**14), k))
            cases.append((max(1, int(math.exp(rng.uniform(0.0, math.log(1e14))))), k))
    return cases


CASE_SETS = {
    "k3_all_m_to_20000": [(m, 3) for m in range(1, 20_001)],
    "k10_paper_grid": [(m, 10) for m in geometric_grid(1, 12777711870, 2000)],
    "random_m_to_1e14": _random_cases(),
}


def _count_evaluations(monkeypatch, most=None) -> list[int]:
    """Count the root's evaluations of C(x, k), in a one-item list; more than most fail at once."""
    calls = [0]
    real = binomials._binom_real_at

    def counting(k):
        evaluate = real(k)

        def counted(x):
            calls[0] += 1
            assert most is None or calls[0] <= most, f"more than {most} evaluations"
            return evaluate(x)

        return counted

    monkeypatch.setattr(approx, "_binom_real_at", counting)
    return calls


@pytest.mark.parametrize("name", sorted(CASE_SETS))
def test_bit_identical_to_bisection_in_few_evaluations(name, monkeypatch):
    cases = CASE_SETS[name]
    expected = [_bisection_root(m, k) for m, k in cases]
    calls = _count_evaluations(monkeypatch)
    got = [lovasz_x(m, k) for m, k in cases]
    differ = [(m, k, e, g) for (m, k), e, g in zip(cases, expected, got) if e != g]
    assert not differ, differ[:5]
    assert calls[0] / len(cases) <= MAX_MEAN_EVALUATIONS


def _mp_root(m: int, k: int, start: float) -> mpmath.mpf:
    """50-digit root of x(x-1)...(x-k+1) = k! m by Newton from a float start."""
    with mpmath.workdps(50):
        target = mpmath.factorial(k) * m
        x = mpmath.mpf(start)
        for _ in range(30):
            g = mpmath.fprod([x - i for i in range(k)]) / target
            x -= (g - 1) / (g * mpmath.fsum([1 / (x - i) for i in range(k)]))
        return x


def _ulps_off(x: float, m: int, k: int) -> float:
    with mpmath.workdps(50):
        return float(abs(mpmath.mpf(x) - _mp_root(m, k, x)) / math.ulp(x))


def test_large_m_root_within_two_ulps_of_mpmath():
    # Bisection returned the end of its bracket here, 7 ulps below the root:
    # the upper end, from exp(log(k! m) / k), had rounded below it.
    m = 9957667416274576305949578375064030571160
    assert _bisection_root(m, 2) == 1.4112170220256387e20
    assert binom_real(1.4112170220256387e20, 2) < m
    assert _ulps_off(lovasz_x(m, 2), m, 2) <= 2
    rng = random.Random(4242)
    for k in (2, 3, 5, 10):
        for exponent in (*range(1, 301, 3), 300):
            m = int(mpmath.mpf(10) ** (exponent - rng.random()))
            x = lovasz_x(m, k)
            assert _ulps_off(x, m, k) <= 2, (m, k, x)


def test_root_near_the_top_of_float_range(monkeypatch):
    # The stopping tolerance m * k * 2e-16 overflowed to inf where m k > 1.8e308,
    # so Newton stopped at its first evaluation and the ulp walk crawled to the
    # root: lovasz_x(10**306 + 12345, 557) ran for minutes.
    rng = random.Random(1308)
    cases = [(10**306 + 12345, 557), (10**307, 200), (int(1.7e308), 1500)]
    for k in (2, 10, 170, 171, 557, 1000, 1500):
        cases.append((int(mpmath.mpf(10) ** rng.uniform(300, 308.23)), k))
    for m, k in cases:
        calls = _count_evaluations(monkeypatch, most=64)
        x = lovasz_x(m, k)
        assert calls[0] <= 64 and _ulps_off(x, m, k) <= 2, (m, k, x, calls[0])


@pytest.mark.parametrize("k", [2, 3, 5, 10])
def test_root_when_the_bracket_collapses_above_2_53(k):
    n = 2**53 + 12344
    assert float(n) == float(n + 1)
    for m in (binomial(n, k) + 1, binomial(n, k) + binomial(n, k - 1) // 2, binomial(n + 1, k) - 1):
        assert cascade_decompose(m, k).terms[0][0] == n
        x = lovasz_x(m, k)
        assert _ulps_off(x, m, k) <= 2, (m, k, x)
    assert lovasz_x(binomial(n, k), k) == float(n)


def test_overflow_still_raises():
    # Large k: the product x(x-1)...(x-k+1), or k! itself, overflows a float
    # although C(x, k) fits, so binom_real falls back to a running quotient.
    assert 172 < lovasz_x(10**5, 170) < 173
    assert 400 < lovasz_x(5, 400) < 401
    rng = random.Random(170400)
    for k in (170, 400):
        drawn = [rng.randint(2, 10 ** rng.randint(1, 300)) for _ in range(8)]
        for m in (2, 5, 10**5, 10**40, 10**300, *drawn):
            x = lovasz_x(m, k)
            assert _ulps_off(x, m, k) <= 2, (m, k, x)
    with pytest.raises(OverflowError):
        lovasz_x(10**320, 10)


def test_bound_report_builds_one_cascade(monkeypatch):
    # Every greedy descent, the cursor's first one included, starts with an
    # index search at the top level j = k; one call must make exactly one.
    top_searches = 0
    real = cascade._max_index

    def counted(m, j, c):
        nonlocal top_searches
        top_searches += j == k
        return real(m, j, c)

    monkeypatch.setattr(cascade, "_max_index", counted)
    monkeypatch.setattr(approx, "_max_index", counted)
    rng = random.Random(7)
    for _ in range(200):
        k = rng.randint(2, 12)
        m = rng.randint(1, 10**12)
        before = top_searches
        report = bound_report(m, k, k - 1)
        assert top_searches == before + 1, (m, k)
        assert report.kk_exact == shadow_bound(m, k, k - 1)
        assert report.flag_r == flag_r(m, k)
        assert report.withr_r == best_r(m, k)
        assert report.lovasz_x == lovasz_x(m, k)


def test_cold_bound_report_seeded_searches_per_call(monkeypatch):
    # Below the top, a cold cascade descends from the level above by exact
    # steps; float-seeded index searches at j >= 3 are the top level's and
    # the walks longer than the step cap (1.83 a call, 7.6 with a search at
    # every level).
    seeded = 0
    real = cascade._max_index

    def counted(m, j, c):
        nonlocal seeded
        seeded += j >= 3
        return real(m, j, c)

    monkeypatch.setattr(cascade, "_max_index", counted)
    grid = geometric_grid(1, 12777711870, 2000)
    for m in grid:
        bound_report(m, 10, 7)
    assert seeded / len(grid) <= 2.1


def test_cascades_are_not_cached():
    for fn in (cascade_decompose, colored_cascade_decompose):
        assert not hasattr(fn, "cache_info")


def test_evaluator_cache_is_bounded():
    assert approx._binom_real_at.cache_parameters()["maxsize"] == 256


def _frozen_binom_real(x: float, k: int) -> float:
    """binom_real as it was before it became a call of the fixed-k evaluator."""
    x = float(x)
    num = 1.0
    for i in range(k):
        num *= x - i
    try:
        value = num / math.factorial(k)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        value = 1.0
        for i in range(k):
            value *= (x - i) / (k - i)
        if not math.isfinite(value):
            raise OverflowError(f"binom_real({x}, {k}) does not fit in a float")
    return value


KS = st.one_of(st.integers(min_value=1, max_value=40), st.sampled_from([170, 171, 400]))


def _outcome(k, evaluate, x):
    try:
        return evaluate(x).hex()
    except OverflowError:
        return "OverflowError"


@settings(max_examples=500, deadline=None)
@given(st.data(), KS)
def test_fixed_k_evaluator_is_binom_real_bit_for_bit(data, k):
    x = data.draw(
        st.one_of(
            st.floats(min_value=k - 1, max_value=k + 50, exclude_min=True),
            st.floats(min_value=k - 1, max_value=1e20, exclude_min=True),
            st.floats(min_value=k - 1, max_value=1e300, exclude_min=True),
        )
    )
    evaluate = approx._binom_real_at(k)
    expected = _outcome(k, lambda y: _frozen_binom_real(y, k), x)
    assert _outcome(k, evaluate, x) == _outcome(k, lambda y: binom_real(y, k), x) == expected


def _bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _from_bits(b: int) -> float:
    return struct.unpack("<d", struct.pack("<q", b))[0]


def _straddling_pair(m: int, k: int) -> tuple[float, float]:
    """Adjacent floats lo < hi above k-1 with binom_real(lo, k) < m <= binom_real(hi, k).

    Bisects on the bit patterns of the positive floats, which are ordered as
    the floats are; an overflow counts as at or above m.
    """
    target = float(m)

    def at_or_above(b: int) -> bool:
        try:
            return binom_real(_from_bits(b), k) >= target
        except OverflowError:
            return True

    lo, hi = _bits(float(k - 1)), _bits(sys.float_info.max)  # binom_real(k-1, k) = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if at_or_above(mid):
            hi = mid
        else:
            lo = mid
    return _from_bits(lo), _from_bits(hi)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.integers(min_value=1, max_value=10**6),
        st.integers(min_value=1, max_value=10**15),
        st.integers(min_value=1, max_value=10**300),
    ),
    KS,
)
def test_root_is_the_rule_applied_to_the_unique_straddling_pair(m, k):
    lo, hi = _straddling_pair(m, k)
    target = float(m)
    if binomial(cascade_decompose(m, k).terms[0][0], k) == m:
        expected = float(cascade_decompose(m, k).terms[0][0])  # an exact integer coincidence
    elif abs(binom_real(lo, k) - target) <= abs(binom_real(hi, k) - target):
        expected = lo
    else:
        expected = hi
    assert lovasz_x(m, k) == expected


@st.composite
def root_inputs(draw):
    """(m, k): m anywhere up to 10**300, or within 3 of some C(n, k), where
    the closed-form start can fall outside (n, n+1)."""
    k = draw(KS)
    if draw(st.booleans()):
        n = draw(st.integers(min_value=k, max_value=k + 10**draw(st.integers(0, 6))))
        return max(1, binomial(n, k) + draw(st.integers(min_value=-3, max_value=3))), k
    top = draw(st.sampled_from([10**6, 10**15, 10**300]))
    return draw(st.integers(min_value=1, max_value=top)), k


@settings(max_examples=300, deadline=None)
@given(root_inputs(), st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=3))
# k > 170, where k! does not fit in a float: the closed-form start lies in
# (n, n+1) at k = 171 and 400 here, and below n at k = 1500.
@example((10**100 + 12345, 171), [0.5])
@example((10**305 + 12345, 400), [0.5])
@example((10**300 + 12345, 1500), [0.5])
def test_root_does_not_depend_on_its_start(case, fractions):
    m, k = case
    n, c = approx._max_index(m, k, None)
    f = approx._binom_real_at(k)

    def outcome(*start):
        try:
            return approx._lovasz_root(m, k, n, c, f, *start).hex()
        except OverflowError as exc:  # float(m), for m beyond float range
            return repr(exc)

    expected = outcome()
    starts = [n + t for t in fractions]
    if m < 2**1024:  # beyond, the root fails at float(m) before any start is taken
        starts.append(approx._cold_start(m, k))
    for start in starts:
        assert outcome(start) == expected, (m, k, start)
