"""Colored cascades, cold and warm: equal to the greedy by its definition, bounded memory.

reference.greedy with a color budget takes at every level the largest
T(n, j)_c that fits, by bisection on Turán coefficients evaluated without the
cache, so it neither fills nor reads the one the kernel uses.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kkbounds import (
    binomial,
    binomials,
    cascade,
    cascade_decompose,
    colored_cascade_decompose,
    colored_cascade_evaluate,
    colored_shadow_bound,
)
from kkbounds.cascade import _COLUMN_C, _COLUMN_LEN, _greedy
from kkbounds.grid import geometric_grid

import reference

# turan_coefficient evaluations (cache misses after cache_clear) of the
# former colored greedy, with its unbounded cache, over the two sets below.
FORMER_RANDOM_SET_EVALUATIONS = 255_166
FORMER_PAPER_GRID_EVALUATIONS = 669


def _check(m, k, r):
    want = reference.greedy(m, k, r)
    rep = colored_cascade_decompose(m, k, r)
    assert rep.terms == want, (m, k, r)
    assert colored_cascade_evaluate(rep) == m
    for p in range(1, k):
        assert colored_shadow_bound(m, k, p, r) == reference.shadow(want, k, p), (m, k, p, r)


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=10),
    extra=st.integers(min_value=0, max_value=5),
    m=st.integers(min_value=10**6, max_value=10**30),
)
def test_budget_far_below_n(k, extra, m):
    _check(m, k, k + extra)


@settings(max_examples=150, deadline=None)
@given(k=st.integers(min_value=1, max_value=10), r=st.integers(min_value=1, max_value=200), data=st.data())
def test_plain_levels_below_the_budget(k, r, data):
    # m < C(r, k) = T(r, k)_r puts every index below its budget.
    r = max(r, k)
    m = data.draw(st.integers(min_value=1, max_value=max(1, binomial(r, k) - 1)))
    _check(m, k, r)


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=5),
    extra=st.integers(min_value=0, max_value=10),
    m=st.integers(min_value=2**1024, max_value=10**400),
)
def test_m_beyond_float_range(k, extra, m):
    _check(m, k, k + extra)


@settings(max_examples=100, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=10**9),
    k=st.integers(min_value=1, max_value=8),
    data=st.data(),
)
def test_budget_beyond_n_k(m, k, data):
    n_k = cascade_decompose(m, k).terms[0][0]
    drawn = data.draw(st.integers(min_value=n_k + 1, max_value=n_k + 10**6))
    for r in (n_k + 1, drawn):
        _check(m, k, r)


def test_small_inputs_equal_the_reference_greedy():
    for r in range(1, 7):
        for k in range(1, r + 1):
            for m in range(1, 1501):
                _check(m, k, r)


@settings(max_examples=100, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=8),
    extra=st.integers(min_value=0, max_value=30),
    data=st.data(),
    jumps=st.lists(st.integers(min_value=1, max_value=10**12), min_size=1, max_size=25),
)
def test_warm_colored_cursor_equals_a_fresh_one(k, extra, data, jumps):
    r = k + extra
    p = data.draw(st.integers(min_value=0, max_value=k - 1))
    warm, m = [], 0
    for jump in jumps:
        m += jump
        fresh = _greedy([], m, k, k - p, extra)
        assert _greedy(warm, m, k, k - p, extra) == fresh, (m, k, p, r)
        assert tuple((n, j, j + extra) for n, j, *_ in warm) == reference.greedy(m, k, r)


@pytest.mark.parametrize("k, r", [(2, 2), (2, 4), (3, 3), (3, 5), (4, 6)])
def test_warm_colored_cursor_through_every_m(k, r):
    # Consecutive m grow every level in turn, so each stored T(n+1, j)_c is used.
    warm = []
    for m in range(1, 3001):
        assert _greedy(warm, m, k, 1, r - k) == _greedy([], m, k, 1, r - k), (m, k, r)


@settings(max_examples=200, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=8),
    extra=st.none() | st.integers(min_value=0, max_value=30),
    data=st.data(),
)
def test_levels_carried_over_m_in_any_direction(k, extra, data):
    # One level list through m that rise, fall and repeat, near and far:
    # each kept level is the greedy's own whichever way m moved.  Plain with
    # extra None; colored budgets k + extra reach past _COLUMN_C, so that
    # colored levels come from Turán columns and from searches.
    p = data.draw(st.integers(min_value=0, max_value=k - 1))
    r = None if extra is None else k + extra
    levels, m = [], data.draw(st.integers(min_value=1, max_value=10**30))
    for _ in range(data.draw(st.integers(min_value=1, max_value=30))):
        m = data.draw(
            st.just(m)
            | st.integers(min_value=max(1, m - 1000), max_value=m + 1000)
            | st.integers(min_value=max(1, m // 2), max_value=2 * m)
            | st.integers(min_value=1, max_value=10**30)
        )
        _greedy(levels, m, k, k - p, extra)
        want = reference.greedy(m, k, r)
        terms = tuple([(n, j) if r is None else (n, j, j + extra) for n, j, *_ in levels])
        assert terms == want, (m, k, p, r)
        assert levels[-1][4] == reference.shadow(want, k, p), (m, k, p, r)
        assert levels == _greedy([], m, k, k - p, extra), (m, k, p, r)


def test_colored_gap_violation_raises():
    # A stored level one index too high leaves no room below it.
    levels = _greedy([], 13, 2, 2, 1)  # T(6, 2)_3 + T(1, 1)_2
    n, j, value, above, shadow = levels[0]
    levels[0] = (n, j, value - 5, above, shadow)
    with pytest.raises(ValueError, match="is not within"):
        _greedy(levels, 14, 2, 2, 1)


def _random_colored_inputs(count=20000, seed=11):
    rng = random.Random(seed)
    for _ in range(count):
        k = rng.randint(3, 12)
        yield rng.randint(1, 10**30), k, rng.randint(k, k + 60)


def test_turan_evaluations_do_not_grow_and_the_cache_stays_bounded():
    cached = binomials.turan_coefficient
    assert cached.cache_parameters()["maxsize"] == 16384
    cached.cache_clear()
    for m, k, r in _random_colored_inputs():
        colored_cascade_decompose(m, k, r)
    info = cached.cache_info()
    assert info.misses <= 1.02 * FORMER_RANDOM_SET_EVALUATIONS, info
    assert info.currsize <= info.maxsize
    cached.cache_clear()
    for m in geometric_grid(1, 12777711870, 2000):
        colored_shadow_bound(m, 10, 7, 60)
    assert cached.cache_info().misses < FORMER_PAPER_GRID_EVALUATIONS


def _count_colored_levels(monkeypatch):
    """(searched, columns): the j -> c of each colored _max_index search, and the lists bisected."""
    real_search, real_bisect, searched, columns = cascade._max_index, cascade.bisect_right, {}, []

    def search(m, j, c):
        assert j >= 2, (m, j, c)
        if c is not None:
            searched[j] = c
        return real_search(m, j, c)

    def bisect(column, rem):
        columns.append(column)
        return real_bisect(column, rem)

    monkeypatch.setattr(cascade, "_max_index", search)
    monkeypatch.setattr(cascade, "bisect_right", bisect)
    return searched, columns


def _from_column(columns, j, c):
    """Whether one of columns is the Turán column of (j, c) now kept."""
    if not 3 <= j <= c <= _COLUMN_C:
        return False
    kept = cascade._turan_columns[c][j]
    return any(column is kept for column in columns)


def test_colored_search_only_above_the_budget(monkeypatch):
    # A colored level comes from one bisection of its Turán column or from
    # one _max_index search, which sees j >= 2 only; and a level is colored
    # only where its limit from the level above exceeds its budget c.  Every
    # other level, and all below one, go to the plain greedy.  Inputs: the
    # self-test's colored roundtrip at scale full, then the random set above.
    searched, columns = _count_colored_levels(monkeypatch)
    roundtrip = [(m, k, r) for r in range(1, 6) for k in range(1, r + 1) for m in range(1, 2001)]
    looked_up = colored = 0
    for m, k, r in [*roundtrip, *_random_colored_inputs()]:
        searched.clear()
        columns.clear()
        terms = colored_cascade_decompose(m, k, r).terms
        top = r if m < binomial(r, k) else math.inf
        for n, j, c in terms:
            from_column = _from_column(columns, j, c)
            assert (j in searched) + from_column == (j >= 2 and top > c), (m, k, r, j)
            assert searched.pop(j, c) == c, (m, k, r, j)
            looked_up, colored = looked_up + from_column, colored + (j >= 2 and top > c)
            top = n - n // c
        assert not searched, (m, k, r)
    assert 0 < looked_up < colored, (looked_up, colored)


def _turan_tables():
    return [[[1] for _ in range(c + 1)] for c in range(_COLUMN_C + 1)]


def test_turan_columns_are_exact_bounded_and_leave_the_cache_alone(monkeypatch):
    tables = _turan_tables()
    monkeypatch.setattr(cascade, "_turan_columns", tables)
    before = binomials.turan_coefficient.cache_info()
    for c in range(3, _COLUMN_C + 1):
        for j in range(3, c + 1):
            part = cascade._column(reference.turan(j + 5, j, c), j, c)  # grown only as far as asked
            assert len(part) == 7 and part is tables[c][j]
            full = cascade._column(2**64 - 1, j, c)
            assert full is tables[c][j] and full[:7] == part
            n = j + len(full) - 1  # the column ends at _COLUMN_LEN entries or below 2^64
            assert len(full) == _COLUMN_LEN or reference.turan(n + 1, j, c) >= 2**64, (j, c)
            assert full == [reference.turan(i, j, c) for i in range(j, n + 1)], (j, c)
    assert binomials.turan_coefficient.cache_info() == before
    columns = sum(c - 2 for c in range(3, _COLUMN_C + 1))  # 3 <= j <= c
    lists = sum(map(len, tables))
    assert sum(len(column) for table in tables for column in table) <= (
        columns * _COLUMN_LEN + lists - columns
    )


def _last_turan(j, c):
    """The n of the Turán column (j, c)'s last entry when full, kept or not."""
    n = j
    while n + 1 - j < _COLUMN_LEN and reference.turan(n + 1, j, c) < 2**64:
        n += 1
    return n


@pytest.mark.parametrize("c", [_COLUMN_C, _COLUMN_C + 1])
@pytest.mark.parametrize("state", ["empty", "full"])
def test_colored_levels_at_the_edge_of_the_turan_columns(c, state, monkeypatch):
    # At each j from 3 to c, a remainder at the last entry of a full column
    # - 1, + 0 and + 1, just below and above 2^64, and two drawn near the
    # last entry; at the top level (k = j, r = c) and below a level at
    # n = 10^7 (k = j + 1, r = c + 1), whose limit exceeds every remainder.
    # Only a remainder below the last entry at c <= _COLUMN_C takes the column.
    tables = _turan_tables()
    monkeypatch.setattr(cascade, "_turan_columns", tables)
    if state == "full":
        for budget in range(3, _COLUMN_C + 1):
            for i in range(3, budget + 1):
                cascade._column(2**64 - 1, i, budget)
    searched, _ = _count_colored_levels(monkeypatch)
    rng, big = random.Random(c), 10**7
    for j in range(3, c + 1):
        last = reference.turan(_last_turan(j, c), j, c)
        edge = [last - 1, last, last + 1, 2**64 - 1, 2**64]
        edge += [rng.randint(last // 2, last - 1), rng.randint(last + 1, 2 * last)]
        for rem in edge:
            for k, r, base in ((j, c, 0), (j + 1, c + 1, reference.turan(big, j + 1, c + 1))):
                m = base + rem
                want = reference.greedy(m, k, r)
                assert base == 0 or want[0][0] == big, (m, k, r)
                searched.clear()
                assert colored_cascade_decompose(m, k, r).terms == want, (m, k, r)
                assert (j in searched) == (c > _COLUMN_C or rem >= last), (m, k, r, searched)
                for p in range(1, k):
                    assert colored_shadow_bound(m, k, p, r) == reference.shadow(want, k, p)
    if c <= _COLUMN_C:
        assert tables[c][c][-1] == reference.turan(_last_turan(c, c), c, c)


@pytest.mark.parametrize("j", [3, 5])
def test_colored_index_far_beyond_2_53_takes_few_evaluations(j, monkeypatch):
    # Past 2^53 the colored seed's margin spans many integers, and past float
    # range the seed overflows.  From s = floor((m / C(c, j))^(1/j)) a
    # bisection of [s c, s c + c - 1] takes a few turan_coefficient calls,
    # where the gallop of the former search took thousands:
    # colored_cascade_decompose(m, 3, 5) took 18.5 ms a call below 10**1000.
    rng, real, calls = random.Random(j), cascade.turan_coefficient, 0

    def counted(n, i, c):
        nonlocal calls
        calls += 1
        return real(n, i, c)

    monkeypatch.setattr(cascade, "turan_coefficient", counted)
    for c in (j, j + 2, j + 10):
        for _ in range(12):
            m = rng.randint(1, 10 ** rng.randint(1, 999))
            calls = 0
            found = cascade._max_index(m, j, c)
            n = reference.greedy(m, j, c)[0][0]
            assert calls <= 64 and found == (n, reference.turan(n, j, c)), (m, j, c, calls)
        _check(m, j, c)


@pytest.mark.parametrize("k", [170, 171, 400, 1500])
def test_evaluator_beyond_float_factorial_is_bit_identical(k):
    # The evaluator reads inf where the reference loop's value does not fit.
    rng = random.Random(k)
    xs = [k - 1.0, k - 0.5, float(k), k + 0.3, k + 1.7, 2.0 * k, 1e3 * k, 1e6]
    xs += [rng.uniform(k - 1, 4 * k) for _ in range(200)]
    ours = binomials._binom_real_at(k)
    for x in xs:
        assert ours(x).hex() == reference.binom_real(x, k).hex(), (k, x)
