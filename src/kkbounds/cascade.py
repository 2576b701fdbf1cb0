"""Binomial cascade representations and the exact shadow bounds they induce.

The index search, the term checks and the shadow sum here also serve the
colored cascades of colored.py.  A plain cascade is a colored one whose color
budget c exceeds every index, because T(n, j)_c = C(n, j) when c > n;
throughout, a budget of None stands for that unbounded c.

A plain level below the top descends from the level above, whose C(top, j+1)
and C(top+1, j+1) give C(top, j), above the remainder: exact steps
C(t-1, j) = C(t, j) (t-j)/t walk down from it.  A walk longer than _WALK
steps falls back to the index search, which solves j <= 2 in closed form, so
those levels take it at once (_descend, _max_index).

Cascades are not cached, so building many holds no more than the last.  Every
plain cascade comes from a _CascadeCursor, which walks a strictly increasing
sequence of m from m = 0, each cascade from the one before, with the shadow
sum at one level p, and builds no CascadeRep per m.  cascade_decompose and
shadow_bound take the first step of a fresh one; approx.bound_reports takes
every row from one, bound_report's one row too.  Callers that need several
numbers from one cascade build it once and derive them from it.

Validation: every CascadeRep and ColoredCascadeRep built by a caller checks
all its terms at construction.  The cursor's terms skip that check (so do its
cascade(), CascadeRep._unchecked, and so cascade_decompose's terms): each is
checked once, when the cursor creates it, to lie below the level above with
1 <= j <= n_j, the levels together are checked to sum to m, and the prefix a
later m keeps is never changed, so it was checked already.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .binomials import _Record, _set, binomial, turan_coefficient

# Exact ratio steps before an index search; levels of the paper's k = 10 grid
# lie 1 to 3 below the one above in 80% of cases.
_WALK = 4


def _max_index(m: int, j: int, c: int | None) -> tuple[int, int]:
    """Largest n with T(n, j)_c <= m, and T(n, j)_c itself; C(n, j) when c is None.

    Needs m >= 1 and j <= c, so n >= j.  T(n, 1)_c = n, and n(n-1)/2 <= m
    solves in integers.  Otherwise the float seed solves
    (n - (j-1)/2)^j / j! = m, or C(c, j) (n/c)^j = m under a budget c.  By the
    AM-GM and Maclaurin inequalities it never exceeds the answer in exact
    arithmetic, and taking a relative 1e-12 off covers rounding.  Up to _WALK
    exact steps C(n+1, j) = C(n, j) (n+1)/(n+1-j) walk up from it (c None),
    then galloping and bisecting on exact integer comparisons make the answer
    independent of the seed: one that overshoots anyway costs a bisection from
    j, and one beyond float range is replaced by the exact start j.
    """
    if j == 1:
        return m, m
    if j == 2 and c is None:
        n = (math.isqrt(8 * m + 1) + 1) // 2
        return n, n * (n - 1) // 2
    try:
        if c is None:
            seed = math.exp((math.lgamma(j + 1) + math.log(m)) / j) + 0.5 * (j - 1)
        else:
            log_ways = math.lgamma(c + 1) - math.lgamma(j + 1) - math.lgamma(c - j + 1)
            seed = c * math.exp((math.log(m) - log_ways) / j)
        lo = max(j, int(seed) - int(seed * 1e-12))
    except OverflowError:
        lo = j
    value = binomial(lo, j) if c is None else turan_coefficient(lo, j, c)
    hi, step = None, 1
    if value > m:
        lo, value, hi = j, 1, lo  # T(j, j)_c = 1 <= m
    for _ in range(_WALK if c is None else 0):
        up = value * (lo + 1) // (lo + 1 - j)
        if up > m:
            return lo, value
        lo, value = lo + 1, up
    while hi is None or hi - lo > 1:
        probe = lo + step if hi is None else (lo + hi) // 2
        at = binomial(probe, j) if c is None else turan_coefficient(probe, j, c)
        if at <= m:
            lo, value, step = probe, at, 2 * step
        else:
            hi = probe
    return lo, value


def _descend(rem: int, j: int, top: int | None, at: int | None) -> tuple[int, int, int]:
    """The cascade level of rem >= 1 at j: (n, C(n, j), C(n+1, j)), n < top.

    at is C(top, j) = C(top+1, j+1) - C(top, j+1), from a level just made
    above, and exceeds rem.  For j >= 3, up to _WALK exact steps
    C(t-1, j) = C(t, j) (t-j)/t walk down from top; a longer walk, at None,
    or j <= 2, whose closed forms cost less than a step or two, run _max_index.
    """
    for _ in range(_WALK if at is not None and j > 2 else 0):
        below = at * (top - j) // top
        top -= 1
        if below <= rem:
            return top, below, at
        at = below
    n, value = _max_index(rem, j, None)
    return n, value, value * (n + 1) // (n + 1 - j)


def _shadow_sum(rep, p: int) -> int:
    """Each term C(n, j)_c of rep pushed down to level p, summed (p = k evaluates rep).

    The lower index becomes i = j - (k - p) and a colored term's budget
    i + (r - p); terms whose lower index drops below zero vanish.
    """
    r = getattr(rep, "r", None)
    drop = rep.k - p
    total = 0
    for term in rep.terms:
        i = term[1] - drop
        total += binomial(term[0], i) if r is None else turan_coefficient(term[0], i, i + r - p)
    return total


class _Cascade(_Record):
    """Term checks and rendering shared by CascadeRep and ColoredCascadeRep."""

    __slots__ = ()

    def _check(self) -> None:
        k, r, terms = self.k, getattr(self, "r", None), self.terms
        if k < 1 or (r is not None and r < k):
            raise ValueError(f"need r >= k >= 1, got k={k}, r={r}")
        if not terms:
            raise ValueError("cascade needs at least one term")
        if terms[-1][1] < 1:
            raise ValueError("lower indices must stay positive")
        previous = None
        for pos, term in enumerate(terms):
            n, j = term[0], term[1]
            if j != k - pos or (r is not None and term[2] != r - pos):
                raise ValueError("indices and color budgets must step down by one")
            if n < j:
                raise ValueError(f"term {term} has n < j")
            # The gap condition n - floor(n/c) > n'; strict decrease when c is None.
            if previous is not None:
                gap = 0 if r is None else previous // (r - pos + 1)
                if previous - gap <= n:
                    raise ValueError(f"gap condition fails: {previous} - {gap} <= {n}")
            previous = n

    def __str__(self) -> str:
        return "+".join(
            f"C({term[0]},{term[1]})" + "".join(f"_{c}" for c in term[2:]) for term in self.terms
        )


class CascadeRep(_Cascade):
    """The unique representation m = C(n_k, k) + C(n_{k-1}, k-1) + ...

    terms holds (n_j, j) pairs with j descending one at a time from k and the
    n_j strictly decreasing, ending at some n_{k-s} >= k-s > 0.
    """

    __slots__ = ("k", "terms")

    def __init__(self, k: int, terms) -> None:
        _set(self, "k", k)
        _set(self, "terms", tuple([(int(n), int(j)) for n, j in terms]))
        self._check()

    @classmethod
    def _unchecked(cls, k: int, terms: tuple[tuple[int, int], ...]) -> CascadeRep:
        """A CascadeRep of terms its caller has checked already, stored as given."""
        rep = object.__new__(cls)
        _set(rep, "k", k)
        _set(rep, "terms", terms)
        return rep


def cascade_decompose(m: int, k: int) -> CascadeRep:
    """Greedy cascade of m at level k: peel off the largest C(n_j, j) each step."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    cursor = _CascadeCursor(k, 0)  # its shadow, C(n_k, 0) = 1, costs least to carry
    cursor.advance(m)
    return cursor.cascade()


class _CascadeCursor:
    """Cascades of a strictly increasing sequence of m, each built from the one before.

    A new cursor stands at m = 0 with no levels, so its first advance runs
    the greedy from the top.  Cascades grow lexicographically with m, so a
    larger m keeps a prefix of the previous terms and runs the greedy afresh
    only from the first index that grows.  The greedy's first level comes
    from an index search, whose exact binomials check the remainder the
    levels above it leave, and the levels below from _descend.  Each level is
    (n_j, j, C(n_j, j), C(n_j + 1, j), shadow), so checking that n_j stays
    is one comparison; shadow sums C(n_i, i - (k-p)) over this level and
    those above, so the last one is _shadow_sum at p and only created levels
    cost binomials.  Memory stays at one entry per level.
    """

    __slots__ = ("m", "k", "drop", "levels")

    def __init__(self, k: int, p: int) -> None:
        self.m, self.k, self.drop, self.levels = 0, k, k - p, []

    def advance(self, m: int) -> tuple[int, int]:
        """Move to m, which must exceed the previous m: its leading index and shadow sum.

        Each level created here is checked as it is made (1 <= j <= n_j below
        the index above), then all levels summing to m; the kept prefix only
        through the remainder it leaves.  A check that fails raises ValueError.
        """
        if m <= self.m:
            raise ValueError(f"m must increase strictly, got {m} after {self.m}")
        levels, rem, drop, top = self.levels, m, self.drop, math.inf
        # Above the first level that grows, every remainder rises by m - self.m.
        for pos, (n, j, value, above, shadow) in enumerate(levels):
            if rem >= above:
                del levels[pos:]
                # The index most often grows by one: n + 1 stands when rem is
                # below C(n+2, j), which its entry needs anyway.  Otherwise
                # the greedy below searches this level afresh.  Its shadow
                # term grows by C(n, i-1), as C(n+1, i) = C(n, i) + C(n, i-1).
                above_next = above * (n + 2) // (n + 2 - j)
                if rem < above_next:
                    if n + 1 >= top:
                        raise ValueError(f"term {(n + 1, j)} is not within 1 <= j <= n < {top}")
                    levels.append((n + 1, j, above, above_next, shadow + binomial(n, j - drop - 1)))
                    rem -= above
                    top = n + 1
                break
            rem -= value
            top = n
        if rem:
            j, shadow, at = self.k - len(levels), levels[-1][4] if levels else 0, None
            while rem > 0 and j > 0:
                n, value, above = _descend(rem, j, top, at)
                if not j <= n < top:
                    raise ValueError(f"term {(n, j)} is not within 1 <= j <= n < {top}")
                if j >= drop:  # C(n, j - drop), zero for j < drop
                    shadow += math.comb(n, j - drop)
                levels.append((n, j, value, above, shadow))
                rem -= value
                top, j, at = n, j - 1, above - value
            if rem:
                raise ValueError(f"cascade levels do not sum to m={m}")
        self.m = m
        return levels[0][0], levels[-1][4]

    def cascade(self) -> CascadeRep:
        """The cascade of the current m."""
        return CascadeRep._unchecked(self.k, tuple([level[:2] for level in self.levels]))


def cascade_evaluate(rep: CascadeRep) -> int:
    """The integer a CascadeRep stands for (inverse of cascade_decompose)."""
    return _shadow_sum(rep, rep.k)


def shadow_bound(m: int, k: int, p: int) -> int:
    """Sharp lower bound on the count of p-vertex faces forced by m k-vertex faces.

    Evaluates the chained closed form: each cascade term C(n_j, j) contributes
    C(n_j, j - (k - p)), where terms whose lower index drops below zero vanish.
    """
    if not 1 <= p < k:
        raise ValueError(f"need 1 <= p < k, got p={p}, k={k}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return _CascadeCursor(k, p).advance(m)[1]


class FaceVector(_Record):
    """Face counts (f_{-1}, f_0, ..., f_{d-1}) with f_{-1} = 1 for the empty face.

    Trailing zeros are trimmed at construction; a zero anywhere else is
    rejected so that "positive integer vector" is unambiguous.
    """

    __slots__ = ("entries",)

    def __init__(self, entries) -> None:
        entries = tuple(int(e) for e in entries)
        while len(entries) > 1 and entries[-1] == 0:
            entries = entries[:-1]
        _set(self, "entries", entries)
        if not entries or entries[0] != 1:
            raise ValueError("face vector must start with f_{-1} = 1")
        if any(e <= 0 for e in entries):
            raise ValueError("face counts must be positive")

    @property
    def dimension(self) -> int:
        return len(self.entries) - 2


class ValidationResult(NamedTuple):
    """Whether a face vector passed; if not, the smallest failing k and the broken inequality."""

    ok: bool
    failing_k: int | None
    reason: str | None = None


def _first_failure(f: FaceVector, bound) -> ValidationResult:
    """Smallest k with f_{k-2} < bound(f_{k-1}, k, k-1), if any."""
    entries = f.entries
    for k in range(2, len(entries)):
        required = bound(entries[k], k, k - 1)
        if entries[k - 1] < required:
            reason = f"f_{k - 2}={entries[k - 1]} < {required} required by f_{k - 1}={entries[k]}"
            return ValidationResult(False, k, reason)
    return ValidationResult(True, None)


def validate_face_vector(f: FaceVector) -> ValidationResult:
    """Decide whether f is the face vector of some simplicial complex.

    Checks f_{k-2} >= shadow_bound(f_{k-1}, k, k-1) for every consecutive pair
    and reports the smallest failing k.
    """
    return _first_failure(f, shadow_bound)
