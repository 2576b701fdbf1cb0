"""The package surface (every public name, star import, dir) and the record types."""

import copy
import importlib
import pickle
import random

import pytest

import kkbounds
from kkbounds import (
    CascadeRep,
    ColoredCascadeRep,
    FaceVector,
    Graph,
    SimplicialComplex,
    TuranGraph,
    binomial,
    cascade_decompose,
    colored_cascade_decompose,
    turan_graph,
)
from kkbounds.cascade import _CascadeCursor

import reference

SUBMODULES = ("approx", "binomials", "cascade", "colored", "complexes")


def _defining_module(name):
    for short in SUBMODULES:
        module = importlib.import_module(f"kkbounds.{short}")
        if name in vars(module):
            return module
    raise AssertionError(f"{name} is defined in no submodule")


def test_every_public_name_is_its_modules_object():
    assert len(kkbounds.__all__) == len(set(kkbounds.__all__)) == 49
    assert kkbounds.__all__ == sorted(kkbounds.__all__)
    for name in kkbounds.__all__:
        assert getattr(kkbounds, name) is getattr(_defining_module(name), name), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from kkbounds import *", namespace)
    for name in kkbounds.__all__:
        assert namespace[name] is getattr(kkbounds, name), name


def test_submodules_are_attributes_and_importable():
    for short in SUBMODULES:
        assert getattr(kkbounds, short) is importlib.import_module(f"kkbounds.{short}")
    namespace = {}
    exec("from kkbounds import approx, complexes", namespace)
    assert namespace["approx"].bound_report is kkbounds.bound_report
    assert namespace["complexes"].serialize is kkbounds.serialize


def test_dir_and_unknown_names():
    listing = dir(kkbounds)
    assert "__all__" in listing
    assert set(kkbounds.__all__) <= set(listing)
    with pytest.raises(AttributeError):
        kkbounds.nope
    assert not hasattr(kkbounds, "_definitely_not_here")
    with pytest.raises(ImportError):
        exec("from kkbounds import nope", {})


RECORDS = [
    (CascadeRep, (3, ((5, 3), (2, 2))), "CascadeRep(k=3, terms=((5, 3), (2, 2)))"),
    (
        ColoredCascadeRep,
        (2, 3, ((6, 2, 3), (1, 1, 2))),
        "ColoredCascadeRep(k=2, r=3, terms=((6, 2, 3), (1, 1, 2)))",
    ),
    (FaceVector, ((1, 4, 6, 4, 1),), "FaceVector(entries=(1, 4, 6, 4, 1))"),
    (
        TuranGraph,
        (3, 2, (frozenset({1, 2}), frozenset({3}))),
        "TuranGraph(n=3, r=2, parts=(frozenset({1, 2}), frozenset({3})))",
    ),
    (
        SimplicialComplex,
        ([(), (1,), (2,), (1, 2)],),
        "SimplicialComplex(faces=frozenset({frozenset(), frozenset({2}), frozenset({1}),"
        " frozenset({1, 2})}))",
    ),
    (
        Graph,
        ({1, 2, 3}, [(1, 2), (2, 3)]),
        "Graph(vertices=frozenset({1, 2, 3}), edges=frozenset({frozenset({2, 3}),"
        " frozenset({1, 2})}))",
    ),
]


@pytest.mark.parametrize("cls, args, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_equality_hash_repr(cls, args, text):
    a, b = cls(*args), cls(*args)
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert repr(a) == text
    assert a != args and a != object()
    assert pickle.loads(pickle.dumps(a)) == a == copy.copy(a) == copy.deepcopy(a)


@pytest.mark.parametrize("cls, args, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_fields_cannot_be_assigned(cls, args, text):
    record = cls(*args)
    field = text[len(cls.__name__) + 1 :].split("=", 1)[0]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) == before


def test_records_convert_and_compare_by_value():
    assert CascadeRep(3, [[5, 3], [2, 2]]) == cascade_decompose(11, 3)
    assert CascadeRep(k=3, terms=((5, 3), (2, 2))).terms == ((5, 3), (2, 2))
    assert FaceVector([1, 4, 6, 4, 1, 0]) == FaceVector((1, 4, 6, 4, 1))
    assert FaceVector((1, 4)) != FaceVector((1, 5))
    assert CascadeRep(3, ((5, 3),)) != CascadeRep(4, ((5, 4),))
    assert colored_cascade_decompose(13, 2, 3) == ColoredCascadeRep(2, 3, [(6, 2, 3), (1, 1, 2)])
    assert turan_graph(3, 2) == TuranGraph(3, 2, (frozenset({1, 2}), frozenset({3})))
    # A plain and a colored cascade are different records, whatever their fields.
    assert CascadeRep(1, ((4, 1),)) != ColoredCascadeRep(1, 1, ((4, 1, 1),))


def test_turan_graph_still_validates():
    with pytest.raises(ValueError):
        TuranGraph(3, 2, (frozenset({1, 2, 3}), frozenset()))
    with pytest.raises(ValueError):
        TuranGraph(3, 0, ())


def test_cursor_cascades_equal_decompose_with_equal_hashes():
    rng = random.Random(6)
    for k in (1, 2, 3, 5, 10):
        ms = sorted(rng.sample(range(1, 3 * binomial(30, k) + 1000), 300))
        cursor = _CascadeCursor(k, k)
        for m in ms:
            cursor.advance(m)
            got, want = cursor.cascade(), cascade_decompose(m, k)
            assert type(got) is CascadeRep
            assert want.terms == reference.greedy(m, k)  # cascade_decompose runs a cursor too
            assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
            with pytest.raises(AttributeError):
                got.k = k
