"""Colored cascades, colored shadow bounds, and colored validation."""

from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kkbounds import (
    ColoredCascadeRep,
    FaceVector,
    colored_cascade_decompose,
    colored_cascade_evaluate,
    colored_shadow_bound,
    f_vector,
    shadow_bound,
    turan_clique_complex,
    turan_coefficient,
    validate_colored_face_vector,
)

import reference


def test_decompose_examples():
    assert colored_cascade_decompose(12, 2, 3).terms == ((6, 2, 3),)
    assert colored_cascade_decompose(13, 2, 3).terms == ((6, 2, 3), (1, 1, 2))
    for k, r in ((1, 1), (2, 4), (3, 3)):
        assert colored_cascade_decompose(1, k, r).terms == ((k, k, r),)


def test_roundtrip_small():
    for r in range(1, 6):
        for k in range(1, r + 1):
            for m in range(1, 2001):
                rep = colored_cascade_decompose(m, k, r)
                assert colored_cascade_evaluate(rep) == m
                assert colored_cascade_decompose(m, k, r).terms == rep.terms


@settings(max_examples=150)
@given(
    m=st.integers(min_value=1, max_value=10**9),
    r=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
def test_roundtrip_large(m, r, data):
    k = data.draw(st.integers(min_value=1, max_value=r))
    assert colored_cascade_evaluate(colored_cascade_decompose(m, k, r)) == m


def test_gap_condition_enforced():
    with pytest.raises(ValueError):
        # T(6,2)_3 = 12 and gap 6 - 2 = 4, so a follow-up of 5 violates it
        ColoredCascadeRep(2, 3, ((6, 2, 3), (5, 1, 2)))
    with pytest.raises(ValueError):
        ColoredCascadeRep(2, 3, ((6, 2, 3), (1, 1, 3)))  # budget must drop
    with pytest.raises(ValueError):
        ColoredCascadeRep(2, 3, ((6, 1, 3),))  # lower index must start at k
    with pytest.raises(ValueError):
        colored_cascade_decompose(0, 2, 3)
    with pytest.raises(ValueError):
        colored_cascade_decompose(5, 3, 2)  # r < k


def test_shadow_bound_examples():
    assert colored_shadow_bound(12, 2, 1, 3) == 6
    assert colored_shadow_bound(16, 2, 1, 3) == 7
    assert colored_shadow_bound(13, 2, 1, 3) == 7


def test_shadow_bound_rejects_bad_ranges():
    with pytest.raises(ValueError, match=r"^need 1 <= p < k, got p=2, k=2$"):
        colored_shadow_bound(5, 2, 2, 3)
    with pytest.raises(ValueError, match=r"^need k <= r, got k=4, r=3$"):
        colored_shadow_bound(5, 4, 1, 3)
    with pytest.raises(ValueError, match=r"^m must be >= 1, got 0$"):
        colored_shadow_bound(0, 2, 1, 3)
    # m before p and r, p before r
    with pytest.raises(ValueError, match=r"^m must be >= 1, got 0$"):
        colored_shadow_bound(0, 4, 4, 3)
    with pytest.raises(ValueError, match=r"^need 1 <= p < k, got p=4, k=4$"):
        colored_shadow_bound(5, 4, 4, 3)


def test_full_level_sharpness():
    for r in range(2, 5):
        for k in range(2, r + 1):
            for n in range(k, 13):
                m = turan_coefficient(n, k, r)
                if m < 1:
                    continue
                for p in range(1, k):
                    assert colored_shadow_bound(m, k, p, r) == turan_coefficient(n, p, r)


def test_colored_at_least_uncolored():
    for r in range(2, 6):
        for k in range(2, r + 1):
            for p in range(1, k):
                for m in range(1, 301):
                    assert colored_shadow_bound(m, k, p, r) >= shadow_bound(m, k, p)


def test_turan_complex_bounds_are_sharp_and_sound():
    for n in range(2, 13):
        for r in range(2, min(n, 4) + 1):
            fv = f_vector(turan_clique_complex(n, r)).entries
            for k in range(2, len(fv)):
                for p in range(1, k):
                    assert colored_shadow_bound(fv[k], k, p, r) <= fv[p]


def test_validate_colored_examples():
    fv = f_vector(turan_clique_complex(6, 3))
    assert validate_colored_face_vector(fv, 3).ok
    result = validate_colored_face_vector(FaceVector((1, 4, 6, 4, 1)), 3)
    assert (result.ok, result.failing_k) == (False, 4)
    for r in range(1, 5):
        assert validate_colored_face_vector(FaceVector((1, 9)), r).ok


def test_validate_colored_shadow_failure_level():
    # 12 edges on 3 colors force 6 vertices; offering 5 fails at k = 2
    result = validate_colored_face_vector(FaceVector((1, 5, 12)), 3)
    assert (result.ok, result.failing_k) == (False, 2)


def _rainbow(sizes, k):
    """The k-sets of the vertices 0, 1, ... in classes of these sizes that meet no class twice."""
    color = [c for c, size in enumerate(sizes) for _ in range(size)]
    return [s for s in combinations(range(len(color)), k) if len({color[v] for v in s}) == k]


def test_colored_shadow_bound_is_the_least_shadow_over_every_coloring():
    # The faces of an r-colorable complex on n vertices are rainbow for some
    # partition into r classes, some maybe empty, and the least shadow depends
    # on the class sizes only.  Over every partition, the fewest p-sets any m
    # rainbow k-sets cover is the bound: every family of up to 20 sets, 165 cases.
    cases = 0
    for classes in ((2, 2, 2), (2, 2, 1, 1), (3, 2, 2), (2, 2, 2, 2)):
        n, r = sum(classes), len(classes)
        for k in range(2, r + 1):
            most = len(_rainbow(classes, k))  # the Turán partition has the most
            for p in range(1, k) if most <= 20 else ():
                shapes = [s for s in combinations_with_replacement(range(n + 1), r) if sum(s) == n]
                tables = [reference.least_shadows(_rainbow(sizes, k), p) for sizes in shapes]
                least = [min(t[m] for t in tables if m < len(t)) for m in range(most + 1)]
                for m in range(1, most + 1):
                    want = reference.shadow(reference.greedy(m, k, r), k, p)
                    assert colored_shadow_bound(m, k, p, r) == least[m] == want, (classes, k, p, m)
                    cases += 1
    assert cases == 165
