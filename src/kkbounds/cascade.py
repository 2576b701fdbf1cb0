"""Binomial and colored cascades and the exact shadow bounds they induce.

Both families come from one function, _greedy, run on an empty level list by
one-shot calls and on the previous m's levels by a sweep: it keeps each level
from the top that is still the greedy's, steps a plain index that grows by
one, and descends below.  A plain cascade is a colored one whose
budget c exceeds every index (None), as T(n, j)_c = C(n, j) for n <= c.
A level (n, j, c) stores T(n, j)_c and T(n+1, j)_c, whose difference is
T(top, j-1)_{c-1}, top = n - floor(n/c): the next index lies below this exact
limit, the gap condition, so each level is checked once, as it is made.
A level is colored where j >= 2 and its limit exceeds its budget; from the
first other level on, the cascade is plain.  A remainder in Pascal column j,
the cached C(j + i, j) below 2^64 for 3 <= j <= 64, gives a plain level by
one bisection: the column run, which goes on down to j = 3 once begun, as
n - j never grows and C(n, j-1) <= C(n+1, j).  The run is a loop of its own
inside _greedy's: it tests j's range and the remainder's size once, where it
begins, and each level checks only n against the limit above.  A remainder
beyond a full column, which can meet only its first level, is _descend's.
A Turán column, the cached T(j + i, j)_c below 2^64 for 3 <= j <= c <= 16,
gives a colored level alike; other colored levels search on the cached
turan_coefficient (_max_index), which solves j = 2 in closed form.  Both
lookups are inline in _greedy, as are plain j = 2, _max_index's closed
form, and j = 1, the remainder.  Every other plain level is _descend's,
which walks down from the level above by C(t-1, j) = C(t, j) (t-j)/t or
searches; it also gives a leading index alone (flag_r, best_r, lovasz_x).
A search far beyond 2^53 bisects a window of j integers above an integer
root.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import starmap
from typing import NamedTuple

from .binomials import _Record, _check, _exp, _set, _shown, binomial, turan_coefficient

_WALK = 4  # exact steps before a search, down from the level above or up from a float seed
_COLUMN_J, _COLUMN_LEN = 64, 512  # at most 62 columns of 512 entries
_COLUMN_C = 16  # Turán columns for 3 <= j <= c <= 16: at most 105 of 512 entries
_columns = [[1] for _ in range(_COLUMN_J + 1)]  # replaced, never changed in place
_turan_columns = [[[1] for _ in range(c + 1)] for c in range(_COLUMN_C + 1)]  # [c][j], likewise
_turan = turan_coefficient.__wrapped__  # the closed form, past the cache


def _lead_root(m: int, k: int) -> float:
    """(k! m)^(1/k), the leading term of the root of C(x, k) = m, from log-gamma, or inf."""
    return _exp((math.lgamma(k + 1) + math.log(m)) / k)


def _iroot(a: int, j: int) -> int:
    """floor(a^(1/j)) for integers a, j >= 1, by integer Newton steps.

    They start from 2^(log2(a) / j) in floats, and by AM-GM a step from any
    x >= 1 lands at or above the answer, from where they descend to it.
    """
    log2 = math.log2(a) / j
    shift = max(0, int(log2) - 60)
    x = int(2.0 ** (log2 - shift)) << shift
    x = ((j - 1) * x + a // x ** (j - 1)) // j
    while (below := ((j - 1) * x + a // x ** (j - 1)) // j) < x:
        x = below
    return x


def _max_index(m: int, j: int, c: int | None) -> tuple[int, int]:
    """Largest n with T(n, j)_c <= m, and T(n, j)_c itself; C(n, j) when c is None.

    Needs m >= 1 and 2 <= j <= c.  j = 2 solves in integers.  Otherwise the
    float seed solves (n - (j-1)/2)^j / j! = m, or C(c, j) (n/c)^j = m, which
    by the AM-GM and Maclaurin inequalities never exceeds the answer; a
    relative 1e-12 off covers rounding.  Up to _WALK exact steps walk up from
    it, then galloping and bisecting on exact comparisons make the answer
    independent of the seed.  A seed whose margin spans more than _WALK
    integers, or that overflows, gives way to one bisection of a window above
    an integer root (_iroot): [r + (j-1)//2, r + j - 1], r = floor((j! m)^(1/j)),
    as (n-j+1)^j <= j! C(n, j) <= (n - (j-1)/2)^j; colored, for m >= C(c, j),
    [s c, s c + c - 1], s = floor((m / C(c, j))^(1/j)), by T(n, j)_c / C(c, j)
    lying in [q^j, (q+1)^j] for q = floor(n/c).
    """
    if j == 2 and c is None:
        n = (math.isqrt(8 * m + 1) + 1) // 2
        return n, n * (n - 1) // 2
    if j == 2:  # T(pc + q, 2)_c = C(c, 2) p^2 + (c-1) p q + C(q, 2) for 0 <= q < c
        pairs = c * (c - 1) // 2
        p = math.isqrt(m // pairs)
        b = 2 * (c - 1) * p - 1
        q = (math.isqrt(b * b + 8 * (m - pairs * p * p)) - b) // 2
        return p * c + q, pairs * p * p + (c - 1) * p * q + q * (q - 1) // 2
    try:
        if c is None:
            seed = _lead_root(m, j) + 0.5 * (j - 1)
        else:
            seed = c * math.exp((math.log(m) - math.log(math.comb(c, j))) / j)
        lo, margin = int(seed), int(seed * 1e-12)
    except OverflowError:
        lo = margin = None
    hi, step = None, 1
    if margin is None or margin > _WALK:
        if c is not None and m >= (lead := math.comb(c, j)):
            s = _iroot(m // lead, j)
            lo, value, hi = s * c, lead * s**j, s * c + c
        else:  # below C(c, j), T(n, j)_c = C(n, j)
            r = _iroot(math.factorial(j) * m, j)
            lo, hi = max(j, r + (j - 1) // 2), r + j
            value = math.comb(lo, j)
    else:
        lo = max(j, lo - margin)
        value = math.comb(lo, j) if c is None else turan_coefficient(lo, j, c)
        if value > m:
            lo, value, hi = j, 1, lo  # T(j, j)_c = 1 <= m
        for _ in range(_WALK):
            up = value * (lo + 1) // (lo + 1 - j) if c is None else turan_coefficient(lo + 1, j, c)
            if up > m:
                return lo, value
            lo, value = lo + 1, up
    while hi is None or hi - lo > 1:
        probe = lo + step if hi is None else (lo + hi) // 2
        at = math.comb(probe, j) if c is None else turan_coefficient(probe, j, c)
        if at <= m:
            lo, value, step = probe, at, 2 * step
        else:
            hi = probe
    return lo, value


def _column(rem: int, j: int, c: int | None = None) -> list[int]:
    """Column j of C(n, j), or given c of T(n, j)_c, n = j, j+1, ..., grown past rem or full.

    Full is _COLUMN_LEN entries, or the next entry reaching 2^64.  Pascal
    entries step by C(n, j) = C(n-1, j) n / (n-j); Turán entries come from
    the closed form past turan_coefficient's cache, so they evict none of
    the shadow terms kept there.  A longer list replaces the column, so a
    reader holds a whole one; a shorter list published last by another
    thread is still exact.
    """
    table = _columns if c is None else _turan_columns[c]
    column = table[j]
    n, value, grown = j + len(column) - 1, column[-1], []
    while value <= rem and n + 1 - j < _COLUMN_LEN:
        n += 1
        value = value * n // (n - j) if c is None else _turan(n, j, c)
        if value >= 1 << 64:
            break
        grown.append(value)
    if grown:
        column = table[j] = column + grown
    return column


def _descend(rem: int, j: int, top: int = 0, at: int | None = None) -> tuple[int, int, int]:
    """The plain level of rem >= 1 at j: (n, C(n, j), C(n+1, j)), C(n, j) <= rem < C(n+1, j).

    at = C(top, j) > rem, from the level above, or None for a leading index.
    j = 1 takes rem, and j = 2 _max_index's closed form, with
    C(n+1, 2) = C(n, 2) + n.  At 3 <= j <= _COLUMN_J, a rem below the last
    entry of Pascal column j, grown on demand, gives all three by one
    bisection.  (_greedy makes these levels inline, and asks here for the
    others.)  Otherwise, given at, up to _WALK exact steps walk down from
    top; else _max_index.  As n - j never grows from a level to the next, the
    walk takes 1704 of the 1705 levels at k = 2000, m = 10**30.
    """
    if j <= _COLUMN_J:  # one comparison for a level beyond the columns
        if j <= 2:
            if j == 1:
                return rem, rem, rem + 1
            n, value = _max_index(rem, 2, None)
            return n, value, value + n
        if rem < 1 << 64:
            column = _columns[j]
            if rem >= column[-1]:
                column = _column(rem, j)
            if rem < column[-1]:
                i = bisect_right(column, rem)
                return j + i - 1, column[i - 1], column[i]
    for _ in range(_WALK if at is not None else 0):
        below = at * (top - j) // top
        top -= 1
        if below <= rem:
            return top, below, at
        at = below
    n, value = _max_index(rem, j, None)
    return n, value, value * (n + 1) // (n + 1 - j)


def _outside(term: tuple, top) -> ValueError:
    """The error for a level whose term breaks 1 <= j <= n < top."""
    shown = ", ".join(map(_shown, term))
    return ValueError(f"term ({shown}) is not within 1 <= j <= n < {_shown(top)}")


def _greedy(levels: list, m: int, k: int, drop: int, extra: int | None) -> list:
    """Make levels the greedy levels of m >= 1, in place; return levels.

    Plain with extra None, else colored with level j's budget c = j + extra.
    A level is (n_j, j, T(n_j, j)_c, T(n_j + 1, j)_c, shadow), shadow summing
    T(n_i, i - drop)_c over it and the levels above.  levels holds those of
    an earlier m with the same (k, drop, extra), or none.  Each level from the
    top whose remainder still lies in [T(n_j, j)_c, T(n_j + 1, j)_c) is kept,
    as the greedy's own whether m rose or fell; the rest are replaced.  Each
    level made must lie within 1 <= j <= n_j < the limit above, and they must
    take all of m; else ValueError.
    """
    rem = m
    if levels:
        top = math.inf
        for pos, (n, j, value, above, shadow) in enumerate(levels):
            if not value <= rem < above:
                del levels[pos:]
                # A plain index most often grows by one: n + 1 stands when rem
                # is below C(n+2, j), and its shadow term grows by C(n, j-drop-1).
                if extra is None and above <= rem < (up := above * (n + 2) // (n + 2 - j)):
                    if n + 1 >= top:
                        raise _outside((n + 1, j), top)
                    levels.append((n + 1, j, above, up, shadow + binomial(n, j - drop - 1)))
                    rem -= above
                break
            rem -= value
            top = n
        if not rem:
            return levels
    j, top, shadow, at = k - len(levels), math.inf, 0, None
    if levels:
        n, i, value, above, shadow = levels[-1]
        top = n
    if extra is not None:  # colored: level j's budget is c = j + extra
        if levels:
            top, at = n - n // (i + extra), above - value
        elif rem < math.comb(j + extra, j):  # T(r, k)_r = C(r, k) exceeds m, so n_k < r
            top = j + extra
        c, tables = j + extra, _turan_columns
        # At top <= c or j = 1, T(t, j)_c = C(t, j): this level and all below are plain.
        while rem and j > 1 and top > c:
            # A Turán column, as the column run below; else a search.
            if 2 < j and c <= _COLUMN_C and rem < 1 << 64 and (
                rem < (column := tables[c][j])[-1] or rem < (column := _column(rem, j, c))[-1]
            ):
                i = bisect_right(column, rem)
                n, value, above = j + i - 1, column[i - 1], column[i]
            else:
                n, value = _max_index(rem, j, c)
                # T(n+1, 2)_c - T(n, 2)_c = n - n // c; for j > 2 the search probed n + 1.
                above = value + n - n // c if j == 2 else turan_coefficient(n + 1, j, c)
            limit = n - n // c
            if not j <= n < top:
                raise _outside((n, j, c), top)
            if j > drop and limit < n:  # else n < c, or i = 0: T(n, i)_c = C(n, i)
                shadow += turan_coefficient(n, j - drop, c)
            elif j >= drop:
                shadow += math.comb(n, j - drop)
            levels.append((n, j, value, above, shadow))
            rem -= value
            top, j, c, at = limit, j - 1, c - 1, above - value
    columns, comb = _columns, math.comb
    while rem > 0 and j > 0:
        # j <= 2 and the column run inline: a helper call per level made the
        # paper grid's cold cascades take 1.17x as long.
        if j == 1:
            n = value = rem
            above = rem + 1
        elif j == 2:
            n, value = _max_index(rem, 2, None)
            above = value + n
        else:
            if j <= _COLUMN_J and rem < 1 << 64:
                # The column run, in its own loop: j and rem only fall, so
                # their ranges hold from its first level on, and the bisection
                # gives j <= n.  It ends at j = 2 or when nothing remains; a
                # remainder beyond a full column, at its first level only, is
                # left to _descend.
                start = j
                while j > 2 and rem:
                    if rem >= (column := columns[j])[-1] and rem >= (column := _column(rem, j))[-1]:
                        break
                    i = bisect_right(column, rem)
                    n = j + i - 1
                    if n >= top:
                        raise _outside((n, j), top)
                    value, above = column[i - 1], column[i]
                    if j >= drop:  # C(n, j - drop), zero for j < drop
                        shadow += comb(n, j - drop)
                    levels.append((n, j, value, above, shadow))
                    rem -= value
                    top, j = n, j - 1
                if j < start:  # else a level below kept ones is still searched afresh
                    at = above - value
                if j < 3 or not rem:
                    continue
            n, value, above = _descend(rem, j, top, at)
        if not j <= n < top:
            raise _outside((n, j), top)
        if j >= drop:  # C(n, j - drop), zero for j < drop
            shadow += comb(n, j - drop)
        levels.append((n, j, value, above, shadow))
        rem -= value
        top, j, at = n, j - 1, above - value
    if rem:
        raise ValueError(f"cascade levels do not sum to m={_shown(m)}")
    return levels


class _Cascade(_Record):
    """Term checks and rendering shared by CascadeRep and ColoredCascadeRep."""

    __slots__ = ()

    def _check(self) -> None:
        k, r, terms = self.k, getattr(self, "r", None), self.terms
        _check(1, k, r=r)  # the k and r rules alone: the terms give m
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
                raise ValueError(f"term ({', '.join(map(_shown, term))}) has n < j")
            # The gap condition n - floor(n/c) > n'; strict decrease when c is None.
            if previous is not None:
                gap = 0 if r is None else previous // (r - pos + 1)
                if previous - gap <= n:
                    raise ValueError(
                        f"gap condition fails: {_shown(previous)} - {_shown(gap)} <= {_shown(n)}"
                    )
            previous = n

    @classmethod
    def _of_levels(cls, k: int, levels: list, r: int | None = None):
        """The cascade of levels made and checked by _greedy, colored given r."""
        rep = object.__new__(cls)
        _set(rep, "k", k)
        if r is None:
            _set(rep, "terms", tuple([level[:2] for level in levels]))
        else:
            extra = r - k
            _set(rep, "terms", tuple([(n, j, j + extra) for n, j, _, _, _ in levels]))
            _set(rep, "r", r)
        return rep

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


def cascade_decompose(m: int, k: int) -> CascadeRep:
    """Greedy cascade of m at level k: peel off the largest C(n_j, j) each step."""
    _check(m, k)
    levels = _greedy([], m, k, k, None)  # its shadow, C(n_k, 0) = 1, costs least to carry
    return CascadeRep._of_levels(k, levels)


def cascade_evaluate(rep: CascadeRep) -> int:
    """The integer a CascadeRep stands for (inverse of cascade_decompose)."""
    return sum(starmap(math.comb, rep.terms))


def shadow_bound(m: int, k: int, p: int) -> int:
    """Sharp lower bound on the count of p-vertex faces forced by m k-vertex faces.

    Evaluates the chained closed form: each cascade term C(n_j, j) contributes
    C(n_j, j - (k - p)), where terms whose lower index drops below zero vanish.
    """
    _check(m, k, p)
    return _greedy([], m, k, k - p, None)[-1][4]


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
            below, faces = _shown(entries[k - 1]), _shown(entries[k])
            reason = f"f_{k - 2}={below} < {_shown(required)} required by f_{k - 1}={faces}"
            return ValidationResult(False, k, reason)
    return ValidationResult(True, None)


def validate_face_vector(f: FaceVector) -> ValidationResult:
    """Decide whether f is the face vector of some simplicial complex.

    Checks f_{k-2} >= shadow_bound(f_{k-1}, k, k-1) for every consecutive pair
    and reports the smallest failing k.
    """
    return _first_failure(f, shadow_bound)
