"""Cascades and shadow bounds over Turán coefficients, for r-colorable complexes.

They come from cascade.py's _greedy, run from no levels, with a color budget
that starts at r and drops with the lower index; see there for the levels'
limits and checks, and for how it keeps the colored levels of an earlier m,
as it keeps plain ones.  A colored level at 3 <= j <= c <= 16 with a
remainder below 2^64 is one bisection of a cached Turán column, as a plain
level is of a Pascal column.
"""

from __future__ import annotations

from itertools import starmap

from .binomials import _check, _set, _shown, turan_coefficient
from .cascade import FaceVector, ValidationResult, _Cascade, _first_failure, _greedy


class ColoredCascadeRep(_Cascade):
    """m = T(n_k, k)_r + T(n_{k-1}, k-1)_{r-1} + ... with descending color budgets.

    terms holds (n, j, c) triples; consecutive terms satisfy the gap condition
    n - floor(n / c) > n' and the last term has n >= j > 0.
    """

    __slots__ = ("k", "r", "terms")

    def __init__(self, k: int, r: int, terms) -> None:
        _set(self, "k", k)
        _set(self, "r", r)
        _set(self, "terms", tuple([(int(n), int(j), int(c)) for n, j, c in terms]))
        self._check()


def colored_cascade_decompose(m: int, k: int, r: int) -> ColoredCascadeRep:
    """Greedy cascade of m over Turán coefficients, decrementing k and r together."""
    _check(m, k, r=r)
    levels = _greedy([], m, k, k, r - k)  # its shadow, T(n_k, 0)_r = 1, costs least to carry
    return ColoredCascadeRep._of_levels(k, levels, r)


def colored_cascade_evaluate(rep: ColoredCascadeRep) -> int:
    """The integer a ColoredCascadeRep stands for."""
    return sum(starmap(turan_coefficient, rep.terms))


def colored_shadow_bound(m: int, k: int, p: int, r: int) -> int:
    """Lower bound on p-vertex face counts of an r-colorable complex.

    Chained form of the colored shadow inequality: each term T(n, j)_c of the
    cascade contributes T(n, j - (k - p))_c, with the usual zero/one
    conventions at and below lower index zero.
    """
    _check(m, k, p, r)
    return _greedy([], m, k, k - p, r - k)[-1][4]


def validate_colored_face_vector(f: FaceVector, r: int) -> ValidationResult:
    """Decide whether f is the face vector of some r-colorable complex.

    A face on k vertices needs k colors, so any entry beyond level r fails
    immediately; otherwise every consecutive pair must satisfy the colored
    shadow inequality.
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {_shown(r)}")
    if len(f.entries) - 1 > r:
        f_r = _shown(f.entries[r + 1])
        reason = f"f_{r}={f_r} faces on {r + 1} vertices need more than r={r} colors"
        return ValidationResult(False, r + 1, reason)
    return _first_failure(f, lambda m, k, p: colored_shadow_bound(m, k, p, r))
