"""The package surface (every public name, star import, dir), the records, the argument checks."""

import copy
import importlib
import pickle
import random
from itertools import combinations

import pytest

import kkbounds
from kkbounds import (
    CascadeRep,
    ColoredCascadeRep,
    FaceVector,
    Graph,
    SimplicialComplex,
    best_r,
    binom_real,
    binomial,
    bound_report,
    bound_reports,
    cascade_decompose,
    colorapprox_bound,
    colored_cascade_decompose,
    colored_shadow_bound,
    flag_r,
    is_r_colorable,
    lovasz_bound,
    lovasz_x,
    noreasy_bound,
    random_complex,
    realize_face_vector,
    revlex_complex,
    revlex_ksets,
    shadow_bound,
    turan_clique_complex,
    turan_clique_count_oracle,
    turan_coefficient,
    validate_colored_face_vector,
    validate_face_vector,
    withoutr_bound,
)
from kkbounds.cascade import _greedy

import reference

SUBMODULES = ("approx", "binomials", "cascade", "colored", "complexes")


def _defining_module(name):
    for short in SUBMODULES:
        module = importlib.import_module(f"kkbounds.{short}")
        if name in vars(module):
            return module
    raise AssertionError(f"{name} is defined in no submodule")


def test_every_public_name_is_its_modules_object():
    assert len(kkbounds.__all__) == len(set(kkbounds.__all__)) == 45
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
    # Names that no command, self-test suite or README example used are gone.
    for name in ("TuranGraph", "turan_graph", "replicate", "revlex_precedes"):
        with pytest.raises(AttributeError):
            getattr(kkbounds, name)
        with pytest.raises(ImportError):
            exec(f"from kkbounds import {name}", {})
    assert not hasattr(SimplicialComplex, "facets")
    assert not hasattr(importlib.import_module("kkbounds.selftest"), "check_complex_soundness")


RECORDS = [
    (CascadeRep, (3, ((5, 3), (2, 2))), "CascadeRep(k=3, terms=((5, 3), (2, 2)))"),
    (
        ColoredCascadeRep,
        (2, 3, ((6, 2, 3), (1, 1, 2))),
        "ColoredCascadeRep(k=2, r=3, terms=((6, 2, 3), (1, 1, 2)))",
    ),
    (FaceVector, ((1, 4, 6, 4, 1),), "FaceVector(entries=(1, 4, 6, 4, 1))"),
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
    # A plain and a colored cascade are different records, whatever their fields.
    assert CascadeRep(1, ((4, 1),)) != ColoredCascadeRep(1, 1, ((4, 1, 1),))


def test_kept_level_cascades_equal_decompose_with_equal_hashes():
    rng = random.Random(6)
    for k in (1, 2, 3, 5, 10):
        ms = sorted(rng.sample(range(1, 3 * binomial(30, k) + 1000), 300))
        levels = []
        for m in ms:
            _greedy(levels, m, k, k, None)
            got, want = CascadeRep._of_levels(k, levels), cascade_decompose(m, k)
            assert type(got) is CascadeRep
            assert want.terms == reference.greedy(m, k)  # cascade_decompose runs the same greedy
            assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
            with pytest.raises(AttributeError):
                got.k = k


HUGE = 10**5000  # 16610 bits; str() of it raises past 4300 digits
SIZE = "<16610-bit int>"
# Every public function that takes m, k, p or r, with the names it takes, in that order.
CHECKED = {
    "lovasz_x": (lovasz_x, "mk"),
    "lovasz_bound": (lovasz_bound, "mkp"),
    "withoutr_bound": (withoutr_bound, "mkp"),
    "noreasy_bound": (noreasy_bound, "mkp"),
    "colorapprox_bound": (colorapprox_bound, "mkpr"),
    "best_r": (best_r, "mk"),
    "flag_r": (flag_r, "mk"),
    "bound_report": (bound_report, "mkpr"),
    "bound_reports": (lambda m, k, p, r: next(bound_reports([m, m + 1], k, p, r)), "mkpr"),
    "cascade_decompose": (cascade_decompose, "mk"),
    "shadow_bound": (shadow_bound, "mkp"),
    "colored_cascade_decompose": (colored_cascade_decompose, "mkr"),
    "colored_shadow_bound": (colored_shadow_bound, "mkpr"),
    "revlex_ksets": (revlex_ksets, "mkr"),
    "revlex_complex": (revlex_complex, "mk"),
    "CascadeRep": (lambda k: CascadeRep(k, [(5, 3)]), "k"),
    "ColoredCascadeRep": (lambda k, r: ColoredCascadeRep(k, r, [(5, 3, 4)]), "kr"),
    "binom_real": (lambda k: binom_real(5.0, k), "k"),
}
VALID = {"m": 10, "k": 3, "p": 2, "r": 4}
BAD = {"m": -HUGE, "k": -HUGE, "p": HUGE, "r": -HUGE}


@pytest.mark.parametrize("name", CHECKED)
def test_arguments_checked_in_one_order_and_shown_by_size(name):
    call, names = CHECKED[name]
    least = 0 if name in ("noreasy_bound", "colorapprox_bound") else 1
    messages = {
        "m": f"m must be >= {least}, got -{SIZE}",
        "k": f"k must be >= 1, got -{SIZE}",
        "p": f"need 1 <= p < k, got p={SIZE}, k=3",
        "r": f"need k <= r, got k=3, r=-{SIZE}",
    }
    # One bad argument, then every two: the first of m, k, p and r is named.
    for bad in [*names, *combinations(names, 2)]:
        with pytest.raises(ValueError) as raised:
            call(*[BAD[x] if x in bad else VALID[x] for x in names])
        assert str(raised.value) == messages[bad[0]], bad


def _step_onto_the_level_above():
    # C(H, 2) + C(H-1, 1), with C(H+1, 2) stored too large: at m + 1 the top
    # stays, and the index below steps to H, which the top's H does not exceed.
    m = binomial(HUGE, 2) + HUGE - 1
    levels = _greedy([], m, 2, 1, None)
    n, j, value, above, shadow = levels[0]
    levels[0] = (n, j, value, above + 10, shadow)
    _greedy(levels, m + 1, 2, 1, None)


LABELS = "vertex labels must be positive ints"
OTHER_MESSAGES = [
    (lambda: turan_coefficient(-HUGE, 2, 3), f"need n >= 0 and r >= 1, got n=-{SIZE}, r=3"),
    (lambda: turan_clique_complex(5, -HUGE), f"need n >= 0 and r >= 1, got n=5, r=-{SIZE}"),
    (lambda: turan_clique_complex(-HUGE, 1), f"need n >= 0 and r >= 1, got n=-{SIZE}, r=1"),
    (lambda: turan_clique_complex(5, 0), "need n >= 0 and r >= 1, got n=5, r=0"),  # no v % 0
    # Before anything is built: unchecked, n = -1 would give the complex {∅}.
    (lambda: turan_clique_complex(-1, HUGE), f"need n >= 0 and r >= 1, got n=-1, r={SIZE}"),
    (lambda: turan_clique_count_oracle(-1, 2, HUGE), f"need n >= 0 and r >= 1, got n=-1, r={SIZE}"),
    (lambda: turan_clique_count_oracle(HUGE, 2, 3), f"oracle limited to n <= 14, got n={SIZE}"),
    (lambda: validate_colored_face_vector(FaceVector((1,)), -HUGE), f"r must be >= 1, got -{SIZE}"),
    (lambda: is_r_colorable(revlex_complex(2, 2), -HUGE), f"r must be >= 1, got -{SIZE}"),
    (lambda: turan_clique_count_oracle(5, 2, 0), "need n >= 0 and r >= 1, got n=5, r=0"),
    (lambda: random_complex(HUGE, 0.5, 0), f"need 0 <= n <= 14, got n={SIZE}"),
    # k = 20 puts every column of the row at m = HUGE within float range.
    (
        lambda: list(bound_reports([HUGE, 1], 20, 1)),
        f"m must increase strictly, got 1 after {SIZE}",
    ),
    (lambda: CascadeRep(HUGE, [(HUGE - 1, HUGE)]), f"term ({SIZE}, {SIZE}) has n < j"),
    (
        lambda: CascadeRep(2, [(HUGE, 2), (HUGE, 1)]),
        f"gap condition fails: {SIZE} - 0 <= {SIZE}",
    ),
    (
        lambda: ColoredCascadeRep(2, 2, [(HUGE, 2, 2), (HUGE // 2 + 1, 1, 1)]),
        f"gap condition fails: {SIZE} - <16609-bit int> <= <16609-bit int>",
    ),
    (lambda: SimplicialComplex([(), (-HUGE,)]), f"{LABELS}, got -{SIZE}"),
    (lambda: SimplicialComplex([(), ("a",)]), f"{LABELS}, got 'a'"),  # not an int: its repr
    (lambda: Graph([-HUGE], []), f"{LABELS}, got -{SIZE}"),
    (lambda: realize_face_vector(FaceVector((1,)), -HUGE), f"r must be >= 1, got -{SIZE}"),
    (_step_onto_the_level_above, f"term ({SIZE}, 1) is not within 1 <= j <= n < {SIZE}"),
    # The greedy below a kept level (n, j, T(n, j)_c, T(n+1, j)_c, shadow) at
    # n = HUGE, whose stored values hold the whole remainder, meets a
    # remainder too large for the limit under it, plain and colored.
    (
        lambda: _greedy([(HUGE, 2, 0, 3 * HUGE, 0)], 2 * HUGE, 2, 2, None),
        f"term (<16611-bit int>, 1) is not within 1 <= j <= n < {SIZE}",
    ),
    (
        lambda: _greedy([(HUGE, 3, 0, HUGE**2, 0)], turan_coefficient(HUGE, 2, 3), 3, 3, 1),
        f"term ({SIZE}, 2, 3) is not within 1 <= j <= n < {SIZE}",
    ),
]


@pytest.mark.parametrize("call, message", OTHER_MESSAGES, ids=range(len(OTHER_MESSAGES)))
def test_every_other_message_shows_a_huge_integer_by_its_size(call, message):
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == message


def test_validation_reasons_show_a_huge_entry_by_its_size():
    huge = FaceVector((1, 1, 10**9000))  # str() of 10**9000 raises past 4300 digits
    reason = "f_0=1 < <14950-bit int> required by f_1=<29898-bit int>"
    assert validate_face_vector(huge) == (False, 2, reason)
    assert validate_colored_face_vector(huge, 3) == (False, 2, reason)
    reason = "f_2=<29898-bit int> faces on 3 vertices need more than r=2 colors"
    assert validate_colored_face_vector(FaceVector((1, 3, 3, 10**9000)), 2) == (False, 3, reason)
