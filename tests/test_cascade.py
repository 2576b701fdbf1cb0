"""Cascade decomposition, shadow bounds, and face-vector validation."""

import math
import random
import sys
import threading
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kkbounds import (
    CascadeRep,
    FaceVector,
    best_r,
    binomial,
    bound_report,
    cascade_decompose,
    cascade_evaluate,
    colored_cascade_decompose,
    colored_shadow_bound,
    flag_r,
    lovasz_x,
    shadow_bound,
    validate_colored_face_vector,
    validate_face_vector,
)
from kkbounds import cascade
from kkbounds.cascade import _COLUMN_J, _COLUMN_LEN, _WALK, _greedy

import reference


def test_decompose_examples():
    assert cascade_decompose(10, 3).terms == ((5, 3),)
    assert cascade_decompose(11, 3).terms == ((5, 3), (2, 2))
    for k in (1, 2, 5, 9):
        assert cascade_decompose(1, k).terms == ((k, k),)


def test_evaluate_is_inverse():
    assert cascade_evaluate(CascadeRep(3, ((5, 3),))) == 10
    assert cascade_evaluate(CascadeRep(3, ((5, 3), (2, 2)))) == 11
    assert cascade_evaluate(CascadeRep(6, ((6, 6),))) == 1


def test_roundtrip_and_uniqueness_small():
    for k in range(1, 7):
        for m in range(1, 5001):
            rep = cascade_decompose(m, k)
            assert cascade_evaluate(rep) == m
            # greedy output is already validated against the structural
            # constraints by the CascadeRep constructor; uniqueness means
            # re-decomposing the value reproduces identical terms
            assert cascade_decompose(cascade_evaluate(rep), k).terms == rep.terms


@settings(max_examples=200)
@given(m=st.integers(min_value=1, max_value=10**24), k=st.integers(min_value=1, max_value=12))
def test_roundtrip_large(m, k):
    assert cascade_evaluate(cascade_decompose(m, k)) == m


def _terms(levels):
    return tuple([level[:2] for level in levels])


def _fresh_terms(m, k):
    return _terms(_greedy([], m, k, k, None))


@pytest.mark.parametrize("k", range(1, 13))
def test_descent_equals_the_reference_greedy_for_every_small_m(k):
    for m in range(1, 20001):
        want = reference.greedy(m, k)
        assert cascade_decompose(m, k).terms == want, (m, k)
        assert _fresh_terms(m, k) == want, (m, k)


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=40),
    jumps=st.lists(st.integers(min_value=1, max_value=10**80), min_size=1, max_size=8),
)
def test_descent_equals_the_reference_greedy_across_large_jumps(k, jumps):
    warm, m = [], 0
    for jump in jumps:
        m += jump
        want = reference.greedy(m, k)
        assert cascade_decompose(m, k).terms == want, (m, k)
        assert _fresh_terms(m, k) == want, (m, k)
        assert _terms(_greedy(warm, m, k, k, None)) == want, (m, k)


def test_one_shot_calls_keep_no_levels(monkeypatch):
    # Each one-shot call runs cascade._greedy once, from no levels, and a
    # validator once for each pair it checks; only sweep rows (bound_reports)
    # carry levels over.  Below f_{k-2}, each face vector holds
    # f_{i-2} = i f_{i-1}, the most i-sets can cover, which no shadow bound
    # exceeds: it is valid exactly when f_{k-2} covers f_{k-1}'s shadow.
    calls, greedy = [], cascade._greedy

    def counted(levels, *args):
        calls.append(len(levels))
        return greedy(levels, *args)

    def cold(times, call, *args):
        calls.clear()
        got = call(*args)
        assert calls == [0] * times, (call.__name__, args, calls)
        return got

    monkeypatch.setattr(cascade, "_greedy", counted)
    monkeypatch.setattr("kkbounds.colored._greedy", counted)
    for k in range(1, 7):
        for r in [None, *range(k, 7)]:
            colored = r is not None
            decompose = colored_cascade_decompose if colored else cascade_decompose
            bound = colored_shadow_bound if colored else shadow_bound
            validate = validate_colored_face_vector if colored else validate_face_vector
            budget = (r,) if colored else ()
            for m in range(1, 2001):
                want = reference.greedy(m, k, r)
                assert cold(1, decompose, m, k, *budget).terms == want, (m, k, r)
                shadows = [reference.shadow(want, k, p) for p in range(1, k)]
                got = [cold(1, bound, m, k, p, *budget) for p in range(1, k)]
                assert got == shadows, (m, k, r)
                if k == 1:
                    continue
                below = [shadows[-1]]
                for i in range(k - 1, 1, -1):
                    below.append(i * below[-1])
                f = FaceVector((1, *reversed(below), m))
                assert cold(k - 1, validate, f, *budget) == (True, None, None), (m, k, r)
                f = FaceVector((1, *reversed(below[1:]), below[0] - 1, m))
                reason = f"f_{k - 2}={below[0] - 1} < {below[0]} required by f_{k - 1}={m}"
                assert cold(k - 1, validate, f, *budget) == (False, k, reason), (m, k, r)


@pytest.mark.parametrize("k", [3, 5, 10, 25, _COLUMN_J + 6])
def test_descent_falls_back_beyond_the_step_cap(k, monkeypatch):
    # Past the Pascal columns (n - j >= _COLUMN_LEN, C(n, j) >= 2^64 or
    # j > _COLUMN_J) the level below C(n, k) lies 12 steps down for
    # m = C(n, k) + C(n-12, k-1): more than _WALK, so it searches (j = 2 is
    # solved inline).
    assert _WALK < 12
    searches = _count_searches(monkeypatch)
    for n in (k + _COLUMN_LEN + 100, 2000, 10**5):
        m = binomial(n, k) + binomial(n - 12, k - 1)
        searches.clear()
        want = reference.greedy(m, k)
        assert cascade_decompose(m, k).terms == want, (m, k)
        searched = [j for j in (k, k - 1) if j > 2]
        assert searches == _searched_levels(want) == searched, (m, k, searches)
        assert _fresh_terms(m, k) == want, (m, k)


@pytest.mark.parametrize("k", [3, 5, 12])
def test_leading_index_far_beyond_2_53_takes_few_comparisons(k, monkeypatch):
    # The float seed's margin spans many integers past 2^53, and the seed
    # overflows past float range; from r = floor((k! m)^(1/k)) a bisection of
    # [r + (k-1)//2, r + k - 1] takes a few math.comb calls, where a gallop
    # from the seed takes thousands at m near 10**1000.
    rng, real, calls = random.Random(k), math.comb, 0

    def counted(n, j):
        nonlocal calls
        calls += 1
        return real(n, j)

    for _ in range(30):
        m = rng.randint(1, 10 ** rng.randint(1, 999))
        want = reference.greedy(m, k)
        calls = 0
        with monkeypatch.context() as patched:
            patched.setattr(math, "comb", counted)
            n = flag_r(m, k)
        assert n == want[0][0] and calls <= 64, (m, k, n, calls)
        assert cascade_decompose(m, k).terms == want, (m, k)


@pytest.mark.parametrize("k", [1, 2, 3, 5, 12])
def test_levels_at_j_up_to_2_are_made_inline(k, monkeypatch):
    # j = 1 takes the remainder and j = 2 the closed form inside the greedy's
    # loop, cold or warm: _walk and _max_index are asked only for levels at
    # j >= 3.
    asked = _recorded(monkeypatch, "_walk")
    searched = _count_searches(monkeypatch)
    rng, warm, m, made = random.Random(k), [], 0, 0
    for _ in range(300):
        m += rng.randint(1, 10 ** rng.randint(0, 80))
        want = reference.greedy(m, k)
        assert _fresh_terms(m, k) == want, (m, k)
        assert _terms(_greedy(warm, m, k, k, None)) == want, (m, k)
        made += sum(j <= 2 for _, j in want)
    assert made > 100 and min(asked + searched, default=3) >= 3, (made, sorted(set(asked)))


def _recorded(monkeypatch, name):
    """The list of j of each call of cascade's function name from now on."""
    asked, real = [], getattr(cascade, name)

    def recorded(rem, j, *rest):
        asked.append(j)
        return real(rem, j, *rest)

    monkeypatch.setattr(cascade, name, recorded)
    return asked


def _count_searches(monkeypatch):
    """The list of j of each _max_index call in cascade from now on."""
    return _recorded(monkeypatch, "_max_index")


def _searched_levels(terms):
    """The j of each level of a cold plain cascade that _max_index resolves.

    A level at 3 <= j <= _COLUMN_J whose n lies in its full Pascal column is
    looked up; below the top, a level at j >= 3 at most _WALK below the one
    above is walked to; j = 2 is solved inline and j = 1 takes the remainder.
    """
    searched, above = [], None
    for n, j in terms:
        looked_up = 2 < j <= _COLUMN_J and n < _last_covered(j)
        walked = j > 2 and above is not None and n >= above - _WALK
        if j > 2 and not looked_up and not walked:
            searched.append(j)
        above = n
    return searched


@pytest.mark.parametrize("k, m", [(_COLUMN_J + 1, 10**40), (300, 10**30), (2000, 10**30)])
def test_long_cascades_beyond_the_columns_walk_down(k, m, monkeypatch):
    # Beyond the columns at large k, n - j never grows from a level to the
    # next, so nearly every level lies 1 to _WALK steps below the one above.
    searches = _count_searches(monkeypatch)
    want = reference.greedy(m, k)
    assert cascade_decompose(m, k).terms == want
    assert searches == _searched_levels(want) and len(searches) <= len(want) // 10, searches


def _empty_columns():
    return [[1] for _ in range(_COLUMN_J + 1)]


def _last_covered(j):
    """The n of column j's last entry when full: n - j < _COLUMN_LEN and C(n, j) < 2^64."""
    n = j
    while n + 1 - j < _COLUMN_LEN and math.comb(n + 1, j) < 2**64:
        n += 1
    return n


def test_pascal_columns_are_exact_bounded_and_replaced_whole(monkeypatch):
    table = _empty_columns()
    monkeypatch.setattr(cascade, "_columns", table)
    for j in range(3, _COLUMN_J + 1):
        part = cascade._column(math.comb(j + 5, j), j)  # grown only as far as asked
        assert len(part) == 7 and part is table[j]
        kept = list(part)
        full = cascade._column(2**64 - 1, j)
        assert part == kept and full is table[j] and full is not part
        assert full == [math.comb(n, j) for n in range(j, _last_covered(j) + 1)], j
        assert cascade._column(2**64 - 1, j) is full
    assert len(table[3]) == _COLUMN_LEN and table[_COLUMN_J][-1] < 2**64 <= math.comb(
        _last_covered(_COLUMN_J) + 1, _COLUMN_J
    )
    assert sum(map(len, table)) <= _COLUMN_J * (_COLUMN_LEN + 1)


def test_a_cascade_grows_only_the_columns_it_reads(monkeypatch):
    table = _empty_columns()
    monkeypatch.setattr(cascade, "_columns", table)
    m = binomial(30, 10) + binomial(25, 9) + 1
    assert cascade_decompose(m, 10).terms == ((30, 10), (25, 9), (8, 8))
    assert [len(column) for column in table] == [1] * 8 + [2, 18, 22] + [1] * (_COLUMN_J - 10)


def test_threads_growing_the_columns_read_whole_columns(monkeypatch):
    # Growth publishes a new list, so a reader sees a column before or after
    # it grows, never between; a shorter list published last is still exact.
    table = _empty_columns()
    monkeypatch.setattr(cascade, "_columns", table)
    cases = [
        (math.comb(n, k) + d, k)
        for k in (3, 9, 20)
        for n in range(k + 1, k + 200, 7)
        for d in (-1, 0)
    ]
    want = [reference.greedy(m, k) for m, k in cases]
    errors = []

    def work(order):
        for i in order:
            if cascade_decompose(*cases[i]).terms != want[i]:
                errors.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        orders = [random.Random(seed).sample(range(len(cases)), len(cases)) for seed in range(6)]
        threads = [threading.Thread(target=work, args=(order,)) for order in orders]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for j, column in enumerate(table[3:], 3):
        assert column == [math.comb(j + i, j) for i in range(len(column))]


# Column 3 ends at its _COLUMN_LEN cap, 10 and _COLUMN_J at the 2^64 cap, and
# _COLUMN_J + 1 has no column.
@pytest.mark.parametrize("j", [3, 10, _COLUMN_J, _COLUMN_J + 1])
@pytest.mark.parametrize("state", ["empty", "full"])
def test_levels_at_the_edge_of_the_columns(j, state, monkeypatch):
    table = _empty_columns()
    monkeypatch.setattr(cascade, "_columns", table)
    if state == "full":
        for i in range(3, _COLUMN_J + 1):
            cascade._column(2**64 - 1, i)
    n = _last_covered(j)
    edge = [math.comb(n, j) + d for d in (-1, 0, 1)]
    searches = _count_searches(monkeypatch)
    # Each m at the top level (k = j), then below C(n + 1, j + 1) (k = j + 1).
    for k, base in ((j, 0), (j + 1, math.comb(n + 1, j + 1))):
        ms = [base + m for m in edge]
        warm, r = [], n + k + 2  # every colored level plain
        for m in ms:
            want = reference.greedy(m, k)
            assert want[k - j][0] == (n - 1 if m == ms[0] else n), (m, k, want)
            searches.clear()
            assert cascade_decompose(m, k).terms == want, (m, k)
            assert searches == _searched_levels(want), (m, k, searches)
            assert _fresh_terms(m, k) == want, (m, k)
            kk_exact = sum(math.comb(t, i - 1) for t, i in want)
            _greedy(warm, m, k, 1, None)
            assert (warm[0][0], warm[-1][4]) == (want[0][0], kk_exact), (m, k)
            assert _terms(warm) == want, (m, k)
            assert shadow_bound(m, k, k - 1) == kk_exact
            colored = colored_cascade_decompose(m, k, r).terms
            assert colored == tuple((t, i, i + r - k) for t, i in want), (m, k)
            assert colored_shadow_bound(m, k, k - 1, r) == kk_exact
            top = want[0][0]
            report = bound_report(m, k, k - 1)
            assert report.kk_exact == kk_exact and report.flag_r == flag_r(m, k) == top
            reach = math.comb(top, k) + math.comb(top - 1, k - 1)
            assert report.withr_r == best_r(m, k) == (top if m <= reach else top + 1)
            assert report.lovasz_x == lovasz_x(m, k) and top <= lovasz_x(m, k) <= top + 1
    if j <= _COLUMN_J:
        assert table[j][-1] == math.comb(n, j)

COLUMN_RUNS = {
    # Empty columns: each level of the run, from j = 10 down to 3, grows its
    # column before its bisection, the lower ones mid-descent.
    "grows_columns_mid_descent": (
        "empty", 10, sum(math.comb(n, j) for n, j in zip(range(40, 22, -2), range(10, 1, -1))) + 1,
        [], list(range(10, 2, -1)),
    ),
    # Full columns: C(700, 5) and C(600, 4) lie beyond the full columns 5 and
    # 4 (_COLUMN_LEN entries each), so the run stops before making a level
    # and _walk makes it; at j = 3 a run begins again and ends at j = 2.
    "meets_a_full_column": (
        "full", 5, math.comb(700, 5) + math.comb(600, 4) + math.comb(300, 3) + math.comb(50, 2) + 3,
        [5, 4], [5, 4],
    ),
}


@pytest.mark.parametrize("name", sorted(COLUMN_RUNS))
def test_column_runs_equal_the_reference_greedy(name, monkeypatch):
    state, k, m, walked, grown = COLUMN_RUNS[name]
    table = _empty_columns()
    monkeypatch.setattr(cascade, "_columns", table)
    if state == "full":
        for i in range(3, _COLUMN_J + 1):
            cascade._column(2**64 - 1, i)
    asked_walk = _recorded(monkeypatch, "_walk")
    asked_column = _recorded(monkeypatch, "_column")
    want = reference.greedy(m, k)
    levels = _greedy([], m, k, 1, None)
    assert _terms(levels) == want
    assert levels[-1][4] == reference.shadow(want, k, k - 1)
    assert asked_walk == walked
    assert asked_column == grown  # once a level: _walk asks no column again
    # Warm from the top level alone: the first level below is searched afresh,
    # and the run below it makes the same levels.
    assert _greedy(levels[:1], m, k, 1, None) == levels


def test_malformed_reps_rejected():
    with pytest.raises(ValueError):
        CascadeRep(3, ())
    with pytest.raises(ValueError):
        CascadeRep(3, ((5, 2),))  # lower index must start at k
    with pytest.raises(ValueError):
        CascadeRep(3, ((5, 3), (5, 2)))  # upper indices must strictly decrease
    with pytest.raises(ValueError):
        CascadeRep(3, ((5, 3), (1, 2)))  # n < j
    with pytest.raises(ValueError):
        CascadeRep(3, ((5, 3), (4, 1)))  # skipped level
    with pytest.raises(ValueError):
        cascade_decompose(0, 3)
    with pytest.raises(ValueError):
        cascade_decompose(5, 0)


def test_shadow_bound_examples():
    assert shadow_bound(11, 3, 2) == 12
    assert shadow_bound(11, 3, 1) == binomial(5, 1) + binomial(2, 0) == 6
    assert shadow_bound(binomial(50, 10), 10, 7) == binomial(50, 7)


def test_shadow_bound_rejects_bad_ranges():
    with pytest.raises(ValueError, match=r"^need 1 <= p < k, got p=3, k=3$"):
        shadow_bound(10, 3, 3)
    with pytest.raises(ValueError, match=r"^need 1 <= p < k, got p=0, k=3$"):
        shadow_bound(10, 3, 0)
    with pytest.raises(ValueError, match=r"^m must be >= 1, got 0$"):
        shadow_bound(0, 3, 2)
    with pytest.raises(ValueError, match=r"^m must be >= 1, got 0$"):  # m before p
        shadow_bound(0, 3, 3)
    with pytest.raises(ValueError, match=r"^k must be >= 1, got 0$"):
        shadow_bound(10, 0, 0)


def test_shadow_full_level_sharpness():
    for n in range(2, 13):
        for k in range(2, n + 1):
            for p in range(1, k):
                assert shadow_bound(binomial(n, k), k, p) == binomial(n, p)


def test_shadow_bound_is_the_least_shadow_of_any_family():
    # Every family of m k-subsets of [n] covers at least shadow_bound(m, k, p)
    # p-subsets, and one covers exactly that many: all 2^C(n, k) families.
    # So does the reference greedy's shadow sum.
    for n, k in ((5, 2), (5, 3), (5, 4), (6, 2), (6, 3), (6, 4)):
        ksets = list(combinations(range(n), k))
        for p in range(1, k):
            least = reference.least_shadows(ksets, p)
            for m in range(1, len(ksets) + 1):
                want = reference.shadow(reference.greedy(m, k), k, p)
                assert shadow_bound(m, k, p) == least[m] == want, (n, k, p, m)


def test_shadow_monotone_in_m():
    for k in range(2, 6):
        for p in range(1, k):
            previous = 0
            for m in range(1, 501):
                value = shadow_bound(m, k, p)
                assert value >= previous
                previous = value


def test_face_vector_normalization():
    assert FaceVector((1, 4, 6, 4, 1, 0, 0)).entries == (1, 4, 6, 4, 1)
    assert FaceVector((1,)).entries == (1,)
    assert FaceVector((1, 5)).dimension == 0
    with pytest.raises(ValueError):
        FaceVector((2, 4))
    with pytest.raises(ValueError):
        FaceVector((1, 0, 3))
    with pytest.raises(ValueError):
        FaceVector(())


def test_validate_face_vector():
    assert validate_face_vector(FaceVector((1, 4, 6, 4, 1))).ok
    assert validate_face_vector(FaceVector((1, 5, 10, 10, 5, 1))).ok
    result = validate_face_vector(FaceVector((1, 3, 3, 2)))
    assert not result.ok
    # shadow_bound(2, 3, 2) = C(3,2) + C(2,1) = 5 exceeds the 3 edges offered
    assert shadow_bound(2, 3, 2) == 5
    assert result.failing_k == 3


def test_validate_reports_smallest_failing_level():
    result = validate_face_vector(FaceVector((1, 2, 6, 1)))
    assert not result.ok
    assert result.failing_k == 2  # 2 vertices cannot carry 6 edges
