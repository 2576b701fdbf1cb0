"""Cascade decomposition, shadow bounds, and face-vector validation."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kkbounds import (
    CascadeRep,
    FaceVector,
    binomial,
    cascade_decompose,
    cascade_evaluate,
    shadow_bound,
    validate_face_vector,
)
from kkbounds import cascade
from kkbounds.cascade import _WALK, _CascadeCursor


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


def _plain_greedy(m, k):
    """The cascade by its definition: the largest C(n, j) <= rem at each level, by math.comb."""
    terms, rem, j = [], m, k
    while rem > 0:
        lo, hi = j, 2 * j
        while math.comb(hi, j) <= rem:
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if math.comb(mid, j) <= rem else (lo, mid)
        terms.append((lo, j))
        rem -= math.comb(lo, j)
        j -= 1
    return tuple(terms)


def _fresh_cursor_terms(m, k):
    cursor = _CascadeCursor(k, k)
    cursor.advance(m)
    return cursor.cascade().terms


@pytest.mark.parametrize("k", range(1, 13))
def test_descent_equals_the_plain_greedy_for_every_small_m(k):
    for m in range(1, 20001):
        want = _plain_greedy(m, k)
        assert cascade_decompose(m, k).terms == want, (m, k)
        assert _fresh_cursor_terms(m, k) == want, (m, k)


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=40),
    jumps=st.lists(st.integers(min_value=1, max_value=10**80), min_size=1, max_size=8),
)
def test_descent_equals_the_plain_greedy_across_large_jumps(k, jumps):
    warm, m = _CascadeCursor(k, k), 0
    for jump in jumps:
        m += jump
        want = _plain_greedy(m, k)
        assert cascade_decompose(m, k).terms == want, (m, k)
        assert _fresh_cursor_terms(m, k) == want, (m, k)
        warm.advance(m)
        assert warm.cascade().terms == want, (m, k)


@pytest.mark.parametrize("k", [3, 5, 10, 25])
def test_descent_falls_back_beyond_the_step_cap(k, monkeypatch):
    # The level below C(n, k) lies n - (k-1) steps down for m = C(n, k) + 1
    # and 12 steps down for m = C(n, k) + C(n-12, k-1): more than _WALK.
    assert _WALK < 12
    searches = []
    real = cascade._max_index

    def counted(m, j, c):
        searches.append(j)
        return real(m, j, c)

    monkeypatch.setattr(cascade, "_max_index", counted)
    for n in (k + 20, 60, 200):
        for m in (binomial(n, k) + 1, binomial(n, k) + binomial(n - 12, k - 1)):
            searches.clear()
            want = _plain_greedy(m, k)
            assert cascade_decompose(m, k).terms == want, (m, k)
            assert searches[0] == k and k - 1 in searches, (m, k, searches)
            assert _fresh_cursor_terms(m, k) == want, (m, k)


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
    with pytest.raises(ValueError):
        shadow_bound(10, 3, 3)
    with pytest.raises(ValueError):
        shadow_bound(10, 3, 0)
    with pytest.raises(ValueError):
        shadow_bound(0, 3, 2)


def test_shadow_full_level_sharpness():
    for n in range(2, 13):
        for k in range(2, n + 1):
            for p in range(1, k):
                assert shadow_bound(binomial(n, k), k, p) == binomial(n, p)


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
