"""Explicit complexes: rev-lex machinery, clique/flag complexes, constructions."""

import math
from itertools import combinations

import pytest

from kkbounds import (
    FaceVector,
    Graph,
    SimplicialComplex,
    binomial,
    clique_complex,
    colorapprox_bound,
    f_vector,
    flag_r,
    from_facets,
    is_flag,
    is_r_colorable,
    one_skeleton,
    random_complex,
    realize_face_vector,
    replicate,
    revlex_complex,
    revlex_ksets,
    revlex_precedes,
    serialize,
    shadow_bound,
    turan_clique_complex,
    turan_coefficient,
    validate_face_vector,
)


def _unrank_kset(rank: int, k: int) -> frozenset:
    """Test-only oracle: the k-set of given rev-lex rank, by the
    combinatorial number system (greedy cascade of the rank)."""
    out = []
    for j in range(k, 0, -1):
        c = j - 1
        while math.comb(c + 1, j) <= rank:
            c += 1
        out.append(c + 1)
        rank -= math.comb(c, j)
    return frozenset(out)


def test_revlex_precedes_examples():
    assert revlex_precedes({2, 3, 5}, {1, 4, 5})
    assert revlex_precedes({3, 4, 5}, {1, 2, 6})
    assert not revlex_precedes({1, 4, 5}, {2, 3, 5})


def test_revlex_precedes_rejects_bad_input():
    with pytest.raises(ValueError):
        revlex_precedes({1, 2}, {1, 2, 3})
    with pytest.raises(ValueError):
        revlex_precedes({1, 2}, {2, 1})


def test_revlex_precedes_total_order():
    sets = [frozenset(c) for c in combinations(range(1, 7), 3)]
    for a in sets:
        for b in sets:
            if a != b:
                assert revlex_precedes(a, b) != revlex_precedes(b, a)
    # transitivity via sorting: sorted order must agree with the comparator
    ordered = sorted(sets, key=lambda s: tuple(sorted(s, reverse=True)))
    for a, b in zip(ordered, ordered[1:]):
        assert revlex_precedes(a, b)


def test_revlex_ksets_examples():
    assert revlex_ksets(4, 2) == [
        frozenset({1, 2}),
        frozenset({1, 3}),
        frozenset({2, 3}),
        frozenset({1, 4}),
    ]
    for k in (1, 3, 6):
        assert revlex_ksets(1, k) == [frozenset(range(1, k + 1))]


def test_revlex_ksets_sorted_and_prefix():
    for k in (2, 3, 4):
        sets = revlex_ksets(60, k)
        for a, b in zip(sets, sets[1:]):
            assert revlex_precedes(a, b)
        assert revlex_ksets(59, k) == sets[:-1]


def test_revlex_ksets_full_levels_use_minimal_vertices():
    for n in range(2, 9):
        for k in range(1, n + 1):
            sets = revlex_ksets(binomial(n, k), k)
            assert set(sets) == {frozenset(c) for c in combinations(range(1, n + 1), k)}


def test_revlex_ksets_match_unranking_oracle():
    for k in range(1, 5):
        sets = revlex_ksets(150, k)
        for rank, got in enumerate(sets):
            assert got == _unrank_kset(rank, k)


def test_revlex_complex_f_vectors():
    assert f_vector(revlex_complex(11, 3)).entries == (1, 6, 12, 11)
    assert f_vector(revlex_complex(1, 3)).entries == (1, 3, 3, 1)
    assert f_vector(revlex_complex(binomial(5, 3), 3)).entries == (1, 5, 10, 10)


def test_revlex_complex_is_sharp_for_shadow_bound():
    for k in range(2, 5):
        for m in range(1, 81):
            entries = f_vector(revlex_complex(m, k)).entries
            for p in range(1, k):
                assert shadow_bound(m, k, p) == entries[p]


def test_f_vector_basics():
    assert f_vector(from_facets([(1, 2, 3, 4)])).entries == (1, 4, 6, 4, 1)
    assert f_vector(SimplicialComplex(frozenset([frozenset()]))).entries == (1,)


def test_facets_are_the_maximal_faces():
    # Nested inputs leave only the faces that no other contains; the complex
    # {∅} has the facet ∅; and the facets of revlex_complex(m, k) are its m
    # k-sets, which no other k-set contains.
    nested = from_facets([(1, 2, 3), (1, 2), (3,), (2, 4), (4,), ()])
    assert nested.facets() == {frozenset({1, 2, 3}), frozenset({2, 4})}
    assert SimplicialComplex([()]).facets() == {frozenset()}
    assert from_facets([]).facets() == {frozenset()}
    for k in range(1, 5):
        for m in range(1, 31):
            assert revlex_complex(m, k).facets() == frozenset(revlex_ksets(m, k)), (m, k)


def test_downward_closure_enforced():
    with pytest.raises(ValueError):
        SimplicialComplex(frozenset([frozenset(), frozenset({1, 2})]))
    with pytest.raises(ValueError):
        SimplicialComplex(frozenset([frozenset({1})]))  # empty face missing


def test_replicate():
    edge = from_facets([(1, 2)])
    assert f_vector(replicate(edge, 2)).entries == (1, 4, 4)
    triangle = from_facets([(1, 2, 3)])
    assert f_vector(replicate(triangle, 2)).entries == (1, 6, 12, 8)
    same = replicate(triangle, 1)
    assert f_vector(same).entries == f_vector(triangle).entries
    for q in range(1, 5):
        base = revlex_complex(5, 3)
        entries = f_vector(base).entries
        scaled = f_vector(replicate(base, q)).entries
        assert scaled == tuple(q**i * e for i, e in enumerate(entries))


def test_clique_complex():
    square = Graph(
        frozenset({1, 2, 3, 4}),
        frozenset(map(frozenset, [(1, 2), (2, 3), (3, 4), (1, 4)])),
    )
    cx = clique_complex(square)
    assert f_vector(cx).entries == (1, 4, 4)
    assert cx.dimension == 1
    complete = Graph(
        frozenset(range(1, 6)),
        frozenset(frozenset(e) for e in combinations(range(1, 6), 2)),
    )
    assert f_vector(clique_complex(complete)).entries == (1, 5, 10, 10, 5, 1)


def test_turan_clique_complex_counts():
    for n in range(1, 13):
        for r in range(1, 5):
            entries = f_vector(turan_clique_complex(n, r)).entries
            for k, count in enumerate(entries):
                assert count == turan_coefficient(n, k, r)


def test_is_flag():
    assert is_flag(clique_complex(one_skeleton(revlex_complex(7, 2))))
    assert is_flag(from_facets([(1, 2, 3, 4)]))
    boundary = SimplicialComplex(
        frozenset(map(frozenset, [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]))
    )
    assert not is_flag(boundary)
    assert is_flag(turan_clique_complex(6, 3))


def test_flag_means_clique_complex_of_skeleton():
    for seed in range(12):
        cx = random_complex(7, 0.5, seed)
        assert is_flag(cx)  # clique complexes are flag
        assert clique_complex(one_skeleton(cx)).faces == cx.faces


def test_is_r_colorable():
    turan = turan_clique_complex(6, 3)
    assert is_r_colorable(turan, 3)
    assert is_r_colorable(turan, 4)  # extra colors never hurt
    assert not is_r_colorable(turan, 2)
    simplex = from_facets([(1, 2, 3, 4)])
    assert not is_r_colorable(simplex, 3)
    assert is_r_colorable(simplex, 4)
    with pytest.raises(ValueError):
        is_r_colorable(simplex, 0)


def test_coloring_of_short_revlex_prefixes():
    # with at most C(r,k) + C(r-1,k-1) facets, the rev-lex complex never
    # uses vertices r and r+1 together, hence r colors suffice
    for k in range(1, 5):
        for r in range(k, 9):
            cap = binomial(r, k) + binomial(r - 1, k - 1)
            for m in {1, (cap + 1) // 2, cap}:
                cx = revlex_complex(m, k)
                for face in cx.faces:
                    assert not {r, r + 1} <= face
                assert is_r_colorable(cx, r)


def test_realize_face_vector():
    cx = realize_face_vector(FaceVector((1, 4, 5, 2)))
    assert f_vector(cx).entries == (1, 4, 5, 2)
    assert {f for f in cx.faces if len(f) == 3} == {
        frozenset({1, 2, 3}),
        frozenset({1, 2, 4}),
    }
    assert {f for f in cx.faces if len(f) == 2} == set(revlex_ksets(5, 2))
    assert f_vector(realize_face_vector(FaceVector((1, 6)))).entries == (1, 6)
    with pytest.raises(ValueError, match="k=3"):
        realize_face_vector(FaceVector((1, 3, 3, 2)))


def test_rainbow_revlex_ksets():
    # Given r, the rev-lex k-sets whose labels differ mod r, in the same order.
    for k, r in [(1, 1), (2, 2), (2, 3), (3, 3), (3, 5), (4, 4)]:
        every = revlex_ksets(400, k)
        rainbow = [s for s in every if len({v % r for v in s}) == k]
        assert revlex_ksets(len(rainbow), k, r) == rainbow, (k, r)
    assert revlex_ksets(5, 2, 2) == [{1, 2}, {2, 3}, {1, 4}, {3, 4}, {2, 5}]
    with pytest.raises(ValueError, match="need k <= r"):
        revlex_ksets(3, 3, 2)


def _realized_colorably(entries, r):
    cx = realize_face_vector(FaceVector(entries), r)
    return f_vector(cx).entries == entries and is_r_colorable(cx, r)


def test_realize_face_vector_with_r_is_r_colorable():
    # The octahedron's face vector: without r the realization holds the K4
    # boundary on {1, 2, 3, 4}, which needs four colors; with r = 3 it takes
    # rainbow sets under v % 3.
    octahedron = (1, 6, 12, 8)
    assert not is_r_colorable(realize_face_vector(FaceVector(octahedron)), 3)
    assert _realized_colorably(octahedron, 3)
    with pytest.raises(ValueError, match="any 2-colorable complex: fails at level k=3"):
        realize_face_vector(FaceVector(octahedron), 2)


def test_colored_realizations_of_turan_clique_complexes():
    # Each rainbow initial segment is closed downward here, so the union is a
    # complex with that face vector, r-colorable by v -> v % r.  That holds
    # for these vectors (and for the 1201 of ROADMAP item 8 in a prototype);
    # it is evidence for the colored compression, not a proof of it.
    for n in range(1, 10):
        for r in range(1, 5):
            entries = f_vector(turan_clique_complex(n, r)).entries
            assert _realized_colorably(entries, r), (n, r)


def test_realized_vectors_roundtrip():
    for entries in [(1, 5, 7), (1, 6, 10, 4), (1, 4, 6, 4, 1), (1, 8, 11, 3)]:
        f = FaceVector(entries)
        assert validate_face_vector(f).ok
        assert f_vector(realize_face_vector(f)).entries == entries


def test_random_complex():
    assert f_vector(random_complex(6, 0.0, 3)).entries == (1, 6)
    assert f_vector(random_complex(5, 1.0, 3)).entries == (1, 5, 10, 10, 5, 1)
    a = random_complex(8, 0.5, 42)
    b = random_complex(8, 0.5, 42)
    assert a.faces == b.faces
    assert validate_face_vector(f_vector(a)).ok
    assert random_complex(8, 0.5, 43).faces != a.faces
    pruned = random_complex(8, 0.7, 7, prune=0.5)
    assert validate_face_vector(f_vector(pruned)).ok


def test_flag_bound_sound_on_clique_complexes():
    for seed in range(10):
        cx = random_complex(8, 0.6, seed)
        entries = f_vector(cx).entries
        for k in range(2, len(entries)):
            m = entries[k]
            r = flag_r(m, k)
            for p in range(1, k):
                assert colorapprox_bound(m, k, p, r) <= entries[p] * (1 + 1e-9)


def test_every_construction_yields_valid_face_vector():
    from kkbounds import symmetric_chain

    produced = [revlex_complex(m, k) for k in (2, 3, 4) for m in (1, 7, 33)]
    produced += [turan_clique_complex(n, r) for n in (5, 9, 12) for r in (2, 3)]
    produced += [random_complex(8, d, seed=11, prune=pr) for d in (0.3, 0.7) for pr in (0.0, 0.4)]
    produced.append(replicate(revlex_complex(4, 2), 3))
    produced.append(realize_face_vector(FaceVector((1, 6, 10, 4))))
    for cx in produced:
        fv = f_vector(cx)
        assert validate_face_vector(fv).ok
        assert symmetric_chain(fv).strictly_decreasing


def test_serialize_stable_and_ordered():
    text = serialize(revlex_complex(3, 2))
    assert text == "\n1\n2\n3\n1,2\n1,3\n2,3"
    assert serialize(revlex_complex(3, 2)) == text
    # sorted by size first, rev-lex within a size
    cx = revlex_complex(4, 2)
    lines = serialize(cx).split("\n")
    assert lines == ["", "1", "2", "3", "4", "1,2", "1,3", "2,3", "1,4"]


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(frozenset({1, 2}), frozenset([frozenset({1})]))  # loop
    with pytest.raises(ValueError):
        Graph(frozenset({1, 2}), frozenset([frozenset({1, 3})]))  # unknown vertex
