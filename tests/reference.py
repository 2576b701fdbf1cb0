"""Textbook definitions that the kernel tests compare against.

Each is written once, plainly, and independent of the kernel it checks, so a
kernel change proves itself against these rather than against a frozen copy
of its predecessor.  Each is checked against brute force where the kernel is:
the greedy's shadow against least_shadows over every family (test_cascade,
test_colored), binom_real against math.comb (test_binomials), and
lovasz_root against mp_root within 2 ulps (test_lovasz_root).
"""

import functools
import math
import struct
import sys
from fractions import Fraction
from itertools import combinations

import mpmath

from kkbounds.binomials import turan_coefficient

turan = turan_coefficient.__wrapped__  # uncached: it neither fills nor reads the kernel's cache


def _iroot(a: int, j: int) -> int:
    """floor(a^(1/j)) for integers a, j >= 1, by integer Newton steps.

    By AM-GM a step from any x >= 1 lands at or above the answer, and from
    there the steps descend to it; the float start only saves steps.
    """
    shift = max(0, a.bit_length() // j - 40)
    x = max(1, int(math.exp(math.log(a >> shift * j) / j))) << shift
    x = ((j - 1) * x + a // x ** (j - 1)) // j
    while (below := ((j - 1) * x + a // x ** (j - 1)) // j) < x:
        x = below
    return x


def _level(rem: int, j: int, c: int | None = None) -> tuple[int, int]:
    """(n, f(n)) for the largest n with f(n) = C(n, j) <= rem, or T(n, j)_c <= rem given c >= j.

    Bisection of a bracket [lo, hi) with f(lo) <= rem < f(hi), which is
    checked: C(2j, j) > rem puts n below 2j, (n - (j-1)/2)^j >= j! C(n, j) >=
    (n-j+1)^j bound it above the integer root, and T(sc, j)_c = C(c, j) s^j.
    """
    if j == 1:  # C(n, 1) = T(n, 1)_c = n
        return rem, rem
    if c is not None:
        f = lambda n: turan(n, j, c)  # noqa: E731
        s = _iroot(rem // math.comb(c, j), j) if rem >= math.comb(c, j) else 0
        lo, hi = max(j, s * c), s * c + c
    elif rem < math.comb(2 * j, j):
        f, lo, hi = lambda n: math.comb(n, j), j, 2 * j  # noqa: E731
    else:
        f, r = lambda n: math.comb(n, j), _iroot(math.factorial(j) * rem, j)  # noqa: E731
        lo, hi = r + (j - 1) // 2, r + j
    value = f(lo)
    assert value <= rem < f(hi), (rem, j, c)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        at = f(mid)
        if at <= rem:
            lo, value = mid, at
        else:
            hi = mid
    return lo, value


def greedy(m: int, k: int, r: int | None = None) -> tuple:
    """The cascade of m >= 1 at level k: from j = k down, the largest C(n, j) <= what is left.

    Given a color budget r, the largest T(n, j)_c with c = j + r - k, and
    terms (n, j, c) in place of (n, j).
    """
    terms, rem = [], m
    for j in range(k, 0, -1):
        if rem == 0:
            break
        c = None if r is None else j + r - k
        n, value = _level(rem, j, c)
        terms.append((n, j) if c is None else (n, j, c))
        rem -= value
    return tuple(terms)


def shadow(terms: tuple, k: int, p: int) -> int:
    """The shadow sum of a greedy cascade: each C(n, j), or T(n, j)_c, pushed down to j - k + p."""
    total = 0
    for n, j, *c in terms:
        i = j - (k - p)
        if i >= 0:
            total += math.comb(n, i) if not c else turan(n, i, c[0])
    return total


def least_shadows(ksets: list, p: int) -> list:
    """The fewest p-sets that any m of ksets cover, for m = 0, 1, ..., len(ksets).

    A subset DP: a family's shadow mask is that of the family without its
    last member OR'd with that member's mask.  2^len(ksets) families.
    """
    ids = {}
    masks = [sum(1 << ids.setdefault(s, len(ids)) for s in combinations(kset, p)) for kset in ksets]
    shadows = [0]
    for mask in masks:
        shadows += [covered | mask for covered in shadows]
    least = [math.inf] * (len(ksets) + 1)
    for family, covered in enumerate(shadows):
        size, count = family.bit_count(), covered.bit_count()
        if count < least[size]:
            least[size] = count
    return least


def newton_slope(x: float, k: int) -> float:
    """The sum of the 1/(x - i), i < k, in floats from 0.0 and from left to right."""
    total = 0.0
    for i in range(k):
        total += 1.0 / (x - i)
    return total


def binom_real(x: float, k: int) -> float:
    """C(x, k) in floats: the product of the x - i from left to right, over k!.

    Where that is not finite, and for every k > 170, whose k! does not fit,
    the product of the (x - i)/(k - i); inf where that does not fit either.
    """
    if k <= 170:
        num = 1.0
        for i in range(k):
            num *= x - i
        value = num / math.factorial(k)
        if math.isfinite(value):
            return value
    return ratio(x, k, k)


def binom_exact(x: float, k: int) -> Fraction:
    """C(x, k) of the float x, exactly: the product of the x - i over k!, as a Fraction."""
    value = Fraction(1)
    for i in range(k):
        value *= Fraction(x) - i
    return value / math.factorial(k)


def ratio(x: float, n: int, k: int) -> float:
    """C(x, k) / C(n, k) in floats: the product of the (x - i)/(n - i) from left to right."""
    value = 1.0
    for i in range(k):
        value *= (x - i) / (n - i)
    return value


def _bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _from_bits(b: int) -> float:
    return struct.unpack("<d", struct.pack("<q", b))[0]


def lovasz_root(m: int, k: int, hint: float | None = None) -> float:
    """lovasz_x(m, k) by its definition, or inf where the leading index n does not fit in a float.

    m = C(n, k) gives float(n).  Otherwise take the adjacent floats lo < hi
    above k-1 with binom_real(lo, k) < m <= binom_real(hi, k), an inf
    counting as at or above m, and return the one with the smaller residual,
    lo on a tie.  From m = 2^1024 on, where float(m) overflows, the values
    are ratio(x, n, k) against m / C(n, k).  The pair is found by bisection
    on the bit patterns of the positive floats, which are ordered as the
    floats are.  A hint narrows the first bracket to 3 floats either side of
    it, where that bracket straddles m; the pair, and so the root, does not
    depend on it.
    """
    n, c = _level(m, k)
    try:
        float(n + 1)
    except OverflowError:
        return math.inf
    if c == m:
        return float(n)
    try:
        target, f = float(m), lambda x: binom_real(x, k)  # noqa: E731
    except OverflowError:
        target, f = m / c, lambda x: ratio(x, n, k)  # noqa: E731

    @functools.cache
    def at(b: int) -> float:  # the value at the float of bit pattern b
        return f(_from_bits(b))

    lo, hi = _bits(float(k - 1)), _bits(sys.float_info.max)  # C(k-1, k) = 0
    if hint is not None:
        near_lo, near_hi = max(lo, _bits(hint) - 3), min(hi, _bits(hint) + 3)
        if at(near_lo) < target <= at(near_hi):
            lo, hi = near_lo, near_hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if at(mid) < target else (lo, mid)
    return _from_bits(lo if abs(at(lo) - target) <= abs(at(hi) - target) else hi)


def mp_root(m: int, k: int, start: float) -> mpmath.mpf:
    """The root of x(x-1)...(x-k+1) = k! m to 50 digits, by Newton steps from a float start."""
    with mpmath.workdps(50):
        target = mpmath.factorial(k) * m
        x = mpmath.mpf(start)
        for _ in range(30):
            g = mpmath.fprod([x - i for i in range(k)]) / target
            x -= (g - 1) / (g * mpmath.fsum([1 / (x - i) for i in range(k)]))
        return x


def mp_noreasy(m: int, k: int, p: int) -> mpmath.mpf:
    """(k! m)^(p/k) / p! = (k!)^(p/k) / p! * m^(p/k) to 50 digits."""
    with mpmath.workdps(50):
        return mpmath.mpf(math.factorial(k) * m) ** (mpmath.mpf(p) / k) / math.factorial(p)


def mp_withoutr(m: int, k: int, p: int) -> mpmath.mpf:
    """(y + (k-p)/2)^p / p!, y = (k! m)^(1/k): noreasy times (1 + (k-p) / 2y)^p, to 50 digits."""
    with mpmath.workdps(50):
        y = mpmath.mpf(math.factorial(k) * m) ** (mpmath.mpf(1) / k)
        return (y + mpmath.mpf(k - p) / 2) ** p / math.factorial(p)


def mp_colorapprox(m: int, k: int, p: int, r: int) -> mpmath.mpf:
    """C(r, p) * (m / C(r, k))^(p/k) to 50 digits."""
    with mpmath.workdps(50):
        return math.comb(r, p) * (mpmath.mpf(m) / math.comb(r, k)) ** (mpmath.mpf(p) / k)
