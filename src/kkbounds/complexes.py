"""Explicit small simplicial complexes: rev-lex, clique/flag, Turán, random.

Faces are stored outright (frozensets of positive integer labels, empty face
included), which keeps every construction auditable and makes these complexes
usable as brute-force oracles for the bound machinery.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations, product

from .binomials import _Record, _check, _set, _shown, turan_graph
from .cascade import FaceVector, validate_face_vector

DEFAULT_MAX_FACES = 20000
DEFAULT_VERTEX_LIMIT = 14


class SimplicialComplex(_Record):
    """A downward-closed set system over positive integer vertex labels."""

    __slots__ = ("faces",)

    def __init__(self, faces) -> None:
        faces = frozenset(frozenset(face) for face in faces)
        _set(self, "faces", faces)
        if frozenset() not in faces:
            raise ValueError("a complex must contain the empty face")
        for face in faces:
            for v in face:
                if not isinstance(v, int) or v < 1:
                    raise ValueError(f"vertex labels must be positive ints, got {_shown(v)}")
            # checking one-smaller subsets suffices: closure follows by induction
            if face:
                for sub in combinations(face, len(face) - 1):
                    if frozenset(sub) not in faces:
                        raise ValueError(
                            f"not downward closed: {set(face)} present, {set(sub)} missing"
                        )

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(v for face in self.faces for v in face)

    @property
    def dimension(self) -> int:
        return max(len(face) for face in self.faces) - 1

    def facets(self) -> frozenset[frozenset[int]]:
        return frozenset(
            face
            for face in self.faces
            if not any(face < other for other in self.faces)
        )


def from_facets(facets, max_faces: int = DEFAULT_MAX_FACES) -> SimplicialComplex:
    """Downward closure of the given vertex sets."""
    faces = {frozenset()}
    for facet in facets:
        facet = sorted(facet)
        for size in range(1, len(facet) + 1):
            for sub in combinations(facet, size):
                faces.add(frozenset(sub))
                if len(faces) > max_faces:
                    raise ValueError(f"complex exceeds {max_faces} faces")
    return SimplicialComplex(frozenset(faces))


def f_vector(complex_: SimplicialComplex) -> FaceVector:
    """Count faces by cardinality; index 0 is the empty face count, always 1."""
    counts = Counter(len(face) for face in complex_.faces)
    return FaceVector(tuple(counts[i] for i in range(max(counts) + 1)))


# ---------------------------------------------------------------------------
# rev-lex order and rev-lex complexes
# ---------------------------------------------------------------------------


def revlex_precedes(a, b) -> bool:
    """True iff a comes before b in rev-lex order: max(a symdiff b) lies in b.

    Defined for distinct sets of equal size only.
    """
    a, b = frozenset(a), frozenset(b)
    if len(a) != len(b):
        raise ValueError("rev-lex compares sets of equal size only")
    if a == b:
        raise ValueError("rev-lex compares distinct sets only")
    return max(a ^ b) in b


def revlex_ksets(m: int, k: int, r: int | None = None) -> list[frozenset[int]]:
    """The first m k-subsets of {1, 2, ...} in rev-lex order, via successors.

    Given r >= k, the first m rainbow ones: k-sets whose labels differ mod r,
    so that v -> v % r colors every face they span properly.  The successors
    are filtered, which takes about half a second for m = 20000 at k = r = 5.
    """
    _check(m, k, r=r)
    current = list(range(1, k + 1))
    out = [frozenset(current)]
    while len(out) < m:
        i = 0
        while i < k - 1 and current[i] + 1 == current[i + 1]:
            i += 1
        current[i] += 1
        current[:i] = range(1, i + 1)
        if r is None or len({v % r for v in current}) == k:
            out.append(frozenset(current))
    return out


def revlex_complex(
    m: int, k: int, max_faces: int = DEFAULT_MAX_FACES
) -> SimplicialComplex:
    """The pure complex whose facets are the first m k-sets in rev-lex order."""
    return from_facets(revlex_ksets(m, k), max_faces=max_faces)


# ---------------------------------------------------------------------------
# graphs, clique complexes, colorability
# ---------------------------------------------------------------------------


class Graph(_Record):
    """Simple undirected graph on positive integer vertex labels."""

    __slots__ = ("vertices", "edges")

    def __init__(self, vertices, edges) -> None:
        vertices = frozenset(vertices)
        edges = frozenset(frozenset(e) for e in edges)
        _set(self, "vertices", vertices)
        _set(self, "edges", edges)
        for v in vertices:
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"vertex labels must be positive ints, got {_shown(v)}")
        for e in edges:
            if len(e) != 2:
                raise ValueError(f"edges must join two distinct vertices, got {set(e)}")
            if not e <= vertices:
                raise ValueError(f"edge {set(e)} uses unknown vertices")


def one_skeleton(complex_: SimplicialComplex) -> Graph:
    """Vertices and edges of a complex, as a graph."""
    return Graph(
        complex_.vertices,
        frozenset(face for face in complex_.faces if len(face) == 2),
    )


def clique_complex(
    graph: Graph, max_faces: int = DEFAULT_MAX_FACES
) -> SimplicialComplex:
    """All cliques of the graph, as a complex.

    Enumerates cliques by extending each one only with higher-labeled common
    neighbors, so every clique is produced exactly once.
    """
    adjacency = {v: set() for v in graph.vertices}
    for e in graph.edges:
        u, v = sorted(e)
        adjacency[u].add(v)
        adjacency[v].add(u)
    faces = {frozenset()}
    frontier = [
        ((v,), {u for u in adjacency[v] if u > v}) for v in sorted(graph.vertices)
    ]
    while frontier:
        next_frontier = []
        for clique, candidates in frontier:
            faces.add(frozenset(clique))
            if len(faces) > max_faces:
                raise ValueError(f"clique complex exceeds {max_faces} faces")
            for u in sorted(candidates):
                next_frontier.append(
                    (clique + (u,), {w for w in candidates & adjacency[u] if w > u})
                )
        frontier = next_frontier
    return SimplicialComplex(frozenset(faces))


def turan_clique_complex(
    n: int, r: int, max_faces: int = DEFAULT_MAX_FACES
) -> SimplicialComplex:
    """Clique complex of the Turán graph on n vertices with r parts."""
    tg = turan_graph(n, r)
    part_id = {v: i for i, part in enumerate(tg.parts) for v in part}
    edges = frozenset(
        frozenset((u, v))
        for u, v in combinations(range(1, n + 1), 2)
        if part_id[u] != part_id[v]
    )
    return clique_complex(Graph(frozenset(range(1, n + 1)), edges), max_faces)


def is_flag(complex_: SimplicialComplex) -> bool:
    """True iff the complex equals the clique complex of its own 1-skeleton."""
    return clique_complex(one_skeleton(complex_)).faces == complex_.faces


def is_r_colorable(
    complex_: SimplicialComplex, r: int, limit: int = DEFAULT_VERTEX_LIMIT
) -> bool:
    """Exact decision: can the 1-skeleton be properly colored with r colors.

    Plain backtracking with new-color symmetry breaking; exponential in the
    worst case, hence the vertex limit.
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {_shown(r)}")
    vertices = sorted(complex_.vertices)
    if len(vertices) > limit:
        raise ValueError(f"coloring oracle limited to {limit} vertices")
    adjacency = {v: set() for v in vertices}
    for face in complex_.faces:
        if len(face) == 2:
            u, v = face
            adjacency[u].add(v)
            adjacency[v].add(u)
    colors: dict[int, int] = {}

    def place(i: int, used: int) -> bool:
        if i == len(vertices):
            return True
        v = vertices[i]
        banned = {colors[u] for u in adjacency[v] if u in colors}
        for color in range(1, min(used + 1, r) + 1):
            if color not in banned:
                colors[v] = color
                if place(i + 1, max(used, color)):
                    return True
                del colors[v]
        return False

    return place(0, 0)


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def replicate(
    complex_: SimplicialComplex, q: int, max_faces: int = DEFAULT_MAX_FACES
) -> SimplicialComplex:
    """Clone every vertex q times; clones of a face's vertices span new faces.

    Sends face counts f_{i-1} to q^i * f_{i-1}.  Vertex v's clones get labels
    (v-1)*q + 1 .. v*q.
    """
    if q < 1:
        raise ValueError(f"q must be >= 1, got {_shown(q)}")
    faces = set()
    for face in complex_.faces:
        base = sorted(face)
        for picks in product(range(1, q + 1), repeat=len(base)):
            faces.add(frozenset((v - 1) * q + j for v, j in zip(base, picks)))
            if len(faces) > max_faces:
                raise ValueError(f"replicated complex exceeds {max_faces} faces")
    return SimplicialComplex(frozenset(faces))


def realize_face_vector(
    f: FaceVector, r: int | None = None, max_faces: int = DEFAULT_MAX_FACES
) -> SimplicialComplex:
    """A complex whose i-vertex faces are exactly the first f_{i-1} rev-lex i-sets.

    Given r, the first f_{i-1} rainbow i-sets (revlex_ksets with r), for an f
    that passes validate_colored_face_vector: the complex is then r-colorable,
    by v -> v % r.  That these segments are closed downward is the colored
    compression of Frankl, Füredi and Kalai, tested but not proven here; the
    SimplicialComplex built last raises ValueError where it fails.  Raises with the failing level if f is not a valid face vector (of an
    r-colorable complex, given r).
    """
    if r is None:
        result = validate_face_vector(f)
    else:
        from .colored import validate_colored_face_vector  # loaded on first use, as cli does

        result = validate_colored_face_vector(f, r)
    if not result.ok:
        kind = "any complex" if r is None else f"any {_shown(r)}-colorable complex"
        raise ValueError(f"not the face vector of {kind}: fails at level k={result.failing_k}")
    if sum(f.entries) > max_faces:
        raise ValueError(f"realization exceeds {max_faces} faces")
    faces = {frozenset()}
    for i in range(1, len(f.entries)):
        faces.update(revlex_ksets(f.entries[i], i, r))
    return SimplicialComplex(frozenset(faces))


def random_complex(
    n: int,
    density: float,
    seed: int,
    prune: float = 0.0,
    limit: int = DEFAULT_VERTEX_LIMIT,
    max_faces: int = DEFAULT_MAX_FACES,
) -> SimplicialComplex:
    """Clique complex of a random graph, reproducible for a fixed seed.

    Edges appear independently with the given density.  With prune > 0, each
    top-dimensional face is then dropped with that probability (their subsets
    stay, so the result remains a complex but need not be flag).
    """
    if n < 0 or n > limit:
        raise ValueError(f"need 0 <= n <= {_shown(limit)}, got n={_shown(n)}")
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    if not 0.0 <= prune <= 1.0:
        raise ValueError(f"prune must be in [0, 1], got {prune}")
    rng = random.Random(seed)
    edges = frozenset(
        frozenset(pair)
        for pair in combinations(range(1, n + 1), 2)
        if rng.random() < density
    )
    result = clique_complex(Graph(frozenset(range(1, n + 1)), edges), max_faces)
    if prune > 0.0 and result.dimension >= 1:
        top = result.dimension + 1
        top_faces = sorted(
            (face for face in result.faces if len(face) == top), key=_face_sort_key
        )
        dropped = {face for face in top_faces if rng.random() < prune}
        if dropped:
            result = SimplicialComplex(result.faces - dropped)
    return result


def _face_sort_key(face) -> tuple[int, ...]:
    """Sort key realizing rev-lex order within one size: descending labels."""
    return tuple(sorted(face, reverse=True))


def serialize(complex_: SimplicialComplex) -> str:
    """One face per line as comma-separated labels, sorted by (size, rev-lex).

    The empty face serializes as an empty first line.  Stable across runs.
    """
    ordered = sorted(complex_.faces, key=lambda f: (len(f), _face_sort_key(f)))
    return "\n".join(",".join(str(v) for v in sorted(face)) for face in ordered)
