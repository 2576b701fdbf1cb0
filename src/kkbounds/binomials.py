"""Exact binomial coefficients, their real extension, and Turán clique counts."""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations

# Explicit clique enumeration is exponential; 14 vertices keeps it fast.
DEFAULT_ORACLE_LIMIT = 14


def _exp(x: float) -> float:
    """math.exp(x), or inf where it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def binomial(n: int, k: int) -> int:
    """C(n, k) as an exact integer, with value 0 when k < 0, k > n, or n < 0.

    Total on all integer pairs; the zero conventions are what make chained
    shadow bounds come out right without special-casing term indices.
    """
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


def binom_real(x: float, k: int) -> float:
    """The degree-k polynomial x(x-1)...(x-k+1)/k! extending C(x, k) to real x.

    Strictly increasing for x > k-1, zero at x = 0, 1, ..., k-1, and equal to
    binomial(x, k) at nonnegative integer x (exactly so whenever the numerator
    product stays below 2**53).  The value is _binom_real_at(k)(x), and
    OverflowError where that does not fit in a float.
    """
    _check(1, k)  # the k rule alone
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    value = _binom_real_at(k)(x)
    if not math.isfinite(value):
        raise OverflowError(f"binom_real({x}, {_shown(k)}) does not fit in a float")
    return value


@lru_cache(maxsize=256)
def _binom_real_at(k: int):
    """x -> binom_real(x, k) for finite float x and k >= 1, unchecked; cached for 256 k.

    The product of the x - i, left to right, over float(k!).  Where that
    overflows, and for every k > 170, whose k! does, _ratio_at(k, k): for
    x >= k-1 its partial products lie between 1 and the value, so it is inf,
    raising nothing, only when the value does not fit.  For k <= 170 it is
    straight-line code, generated once per k from integers only, as
    dataclasses generates __init__; at k = 3 its body is

        value = x * (x - 1.0) * (x - 2.0) / 6.0
        return value if -inf < value < inf else by_ratios(x)

    the operations of a loop from num = 1.0 in its order, as 1.0 * (x - 0.0)
    is x, at half its cost.  The comparisons, unlike isfinite, make no
    call; a product that overflows to -inf (x far below 0, odd k) or to nan
    takes the ratios too, as binom_real(-1e103, 3) is finite.  The Lovász
    root's Newton slope, the sum of the 1/(x - i), is generated alike
    (approx._slope_at), its additions in the order of a loop from 0.0.
    """
    by_ratios = _ratio_at(k, k)
    if k > 170:
        return by_ratios
    product = " * ".join(["x", *[f"(x - {i}.0)" for i in range(1, k)]])
    source = (
        "def evaluate(x):\n"
        f"    value = {product} / {float(math.factorial(k))!r}\n"
        "    return value if -inf < value < inf else by_ratios(x)\n"
    )
    namespace = {"inf": math.inf, "by_ratios": by_ratios}
    exec(source, namespace)
    return namespace["evaluate"]


def _ratio_at(n: int, k: int):
    """x -> C(x, k) / C(n, k), or inf, for x > k-1 and a float n: the product of the (x-i)/(n-i)."""
    shifts = [(float(i), float(n - i)) for i in range(k)]

    def evaluate(x: float) -> float:
        value = 1.0
        for i, below in shifts:
            value *= (x - i) / below
        return value

    return evaluate


_set = object.__setattr__


def _shown(a) -> str:
    """An integer for a message: in full below 2^64 in size, else by its size; others by repr.

    str() of a huge one is long, and fails past 4300 digits.
    """
    if not isinstance(a, int) or -(2**64) < a < 2**64:
        return repr(a)
    return f"{'-' * (a < 0)}<{a.bit_length()}-bit int>"


def _check(m: int, k: int, p: int | None = None, r: int | None = None, least: int = 1) -> None:
    """ValueError for the first of m >= least, k >= 1, 1 <= p < k and k <= r that fails.

    The one argument check of the public functions, in bound_report's order;
    p and r are checked when given.
    """
    if m < least:
        raise ValueError(f"m must be >= {least}, got {_shown(m)}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {_shown(k)}")
    if p is not None and not 1 <= p < k:
        raise ValueError(f"need 1 <= p < k, got p={_shown(p)}, k={_shown(k)}")
    if r is not None and r < k:
        raise ValueError(f"need k <= r, got k={_shown(k)}, r={_shown(r)}")


class _Record:
    """Immutable record over __slots__: equality, hash and repr field by field.

    The base of the package's records; it lives here because each module
    that defines one imports this one.  A subclass's own __init__ checks and
    converts its fields and stores them with _set; assigning or deleting a
    field afterwards raises AttributeError, as on a frozen dataclass.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._fields() == other._fields() if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign or delete {name!r} of an immutable record")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._fields()


class TuranGraph(_Record):
    """Complete multipartite graph on {1..n} with r parts as even as possible."""

    __slots__ = ("n", "r", "parts")

    def __init__(self, n: int, r: int, parts: tuple[frozenset[int], ...]) -> None:
        if r < 1 or n < 0:
            raise ValueError(f"need n >= 0 and r >= 1, got n={_shown(n)}, r={_shown(r)}")
        if len(parts) != r:
            raise ValueError("number of parts must equal r")
        sizes = sorted(len(part) for part in parts)
        if sum(sizes) != n:
            raise ValueError("part sizes must sum to n")
        if sizes and sizes[-1] - sizes[0] > 1:
            raise ValueError("part sizes may differ by at most one")
        if set().union(*parts) != set(range(1, n + 1)):
            raise ValueError("parts must partition {1..n}")
        _set(self, "n", n)
        _set(self, "r", r)
        _set(self, "parts", parts)

    def part_of(self, v: int) -> int:
        for i, part in enumerate(self.parts):
            if v in part:
                return i
        raise ValueError(f"vertex {_shown(v)} not in graph")

    def adjacent(self, u: int, v: int) -> bool:
        return u != v and self.part_of(u) != self.part_of(v)


def turan_graph(n: int, r: int) -> TuranGraph:
    """Partition {1..n} into r parts of size floor(n/r) or ceil(n/r)."""
    if n < 0 or r < 1:
        raise ValueError(f"need n >= 0 and r >= 1, got n={_shown(n)}, r={_shown(r)}")
    base, extra = divmod(n, r)
    parts = []
    start = 1
    for i in range(r):
        size = base + (1 if i < extra else 0)
        parts.append(frozenset(range(start, start + size)))
        start += size
    return TuranGraph(n, r, tuple(parts))


@lru_cache(maxsize=16384)
def turan_coefficient(n: int, k: int, r: int) -> int:
    """Number of k-vertex cliques in the Turán graph on n vertices with r parts.

    Closed form with p = n // r and q = n - p*r:

        sum over i of C(q, i) * C(r - i, k - i) * p**(k - i)

    Conventions match binomial(): 1 for k = 0 (the empty clique), 0 for k < 0
    or k > r.
    """
    if n < 0 or r < 1:
        raise ValueError(f"need n >= 0 and r >= 1, got n={_shown(n)}, r={_shown(r)}")
    if k < 0:
        return 0
    p, q = divmod(n, r)
    total, comb = 0, math.comb  # 0 <= i <= q < r, and comb is 0 for k > r
    for i in range(min(q, k) + 1):
        total += comb(q, i) * comb(r - i, k - i) * p ** (k - i)
    return total


def turan_clique_count_oracle(
    n: int, k: int, r: int, limit: int = DEFAULT_ORACLE_LIMIT
) -> int:
    """Count k-cliques in the Turán graph by enumerating all k-subsets.

    Reference implementation of the definition behind turan_coefficient;
    intentionally independent of the closed form.
    """
    if n > limit:
        raise ValueError(f"oracle limited to n <= {_shown(limit)}, got n={_shown(n)}")
    if k < 0:
        return 0
    # A k-subset is a clique when its vertices' part ids are all distinct.
    part_ids = [i for i, part in enumerate(turan_graph(n, r).parts) for _ in part]
    return sum(len(set(combo)) == k for combo in combinations(part_ids, k))
