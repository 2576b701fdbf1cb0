"""Closed-form and root-finding approximations to the exact shadow bounds."""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

from .binomials import _binom_real_at, _check, _exp, _ratio_at, _shown, binomial
from .cascade import FaceVector, _descend, _greedy, _lead_root

_FLOAT_MIN = sys.float_info.min  # the smallest normal float


def _pow_frac(m: int, num: int, den: int) -> float:
    """m ** (num / den) for integers m >= 1 and 0 < num <= den, or inf where it does not fit."""
    if m.bit_length() <= 53:
        return float(m) ** (num / den)
    return _exp(math.log(m) * num / den)


def _lead(m: int, k: int) -> tuple[float, int]:
    """y = (k! m)^(1/k), of withoutr and the root's start, and the bits _series_start centres by.

    From the exact k! m to k = 170, where C(x, k) and _power_lead stop taking
    k!; beyond, from log-gamma (_lead_root), unbiased as k! m > 2^53: 54 bits.
    """
    if k > 170:
        return _lead_root(m, k), 54
    big = math.factorial(k) * m
    return _pow_frac(big, 1, k), big.bit_length()


@lru_cache(maxsize=256)
def _series_at(k: int) -> tuple[float, ...]:
    """(k-1)/2, c_1, ..., c_6 and δ ln 2 of _series_start at k; cached for 256 k."""
    K = float(k * k)
    a, b = (1 / k).as_integer_ratio()  # δ = 1/k - float(1/k), exactly (b - k a) / (k b)
    return (
        0.5 * (k - 1),
        (K - 1) / 24,
        (K - 1) * (K - 9) / 1920,
        (K - 1) * (K - 25) * (13 * K - 61) / 580608,
        (K - 1) * (K - 49) * ((281 * K - 4210) * K + 12569) / 199065600,
        (K - 1) * (K - 9) * (K - 81) * ((163 * K - 3790) * K + 12587) / 1513881600,
        (K - 1) * (K - 121) / 2191186722816000
        * ((((20177107 * K - 1162153996) * K + 21363313650) * K - 148307990284) * K
           + 320662714963),
        (b - k * a) / (k * b) * math.log(2),
    )


def _series_start(y: float, bits: int, series: tuple[float, ...]) -> float:
    """The root of C(x, k) = m from its inverse series to six terms.

    (y, bits) is _lead(m, k) and series is _series_at(k).  With e = 1/y^2 the
    start is y + (k-1)/2 + y (c_1 e + c_2 e^2 + ... + c_6 e^6), the c_j
    polynomials in K = k^2: c_1 = (K-1)/24, c_2 = (K-1)(K-9)/1920,
    c_3 = (K-1)(K-25)(13K-61)/580608, and so on.  Derivation: in
    u = x - (k-1)/2 the factors x - i are u + s_i, s_i = (k-1)/2 - i, whose odd
    power sums vanish, so k log y = log(k! m) = k log u - sum_j P_2j/(2j u^2j)
    with P_2j = sum_i s_i^2j; reverting that series (sympy, exact rational
    arithmetic) gives u = y (1 + sum_j c_j e^j).  Against a 50-digit root the
    relative error is below 5e-15 from y = 4k, 5e-14 from y = 2k and 1e-9
    from y = k (the first term alone: 2e-6, 3e-5 and 4e-4).  Below y = k the
    series may diverge: a start outside (n, n+1), or not finite (y = inf),
    gives way to the regula falsi start.

    Below 2^53, y = float(k! m) ** float(1/k) is off by a factor of about
    1 - δ ln(k! m), δ = 1/k - float(1/k); times 1 + δ ln 2 bits it is centred:
    at k = 3, m <= 10^5 the start is then the root in 65% of rows and 1 ulp
    off in 35% (uncentred: 5% and 64%).
    """
    half, c1, c2, c3, c4, c5, c6, bias = series
    y *= 1.0 + bias * bits if bits <= 53 else 1.0
    e = 1.0 / (y * y)
    return y + half + y * e * (c1 + e * (c2 + e * (c3 + e * (c4 + e * (c5 + e * c6)))))


@lru_cache(maxsize=256)
def _slope_at(k: int):
    """x -> sum of 1/(x-i) for i < k, the Newton slope of log C(x, k); cached for 256 k.

    For k <= 170 it is straight-line code generated once per k from integers
    only, as _binom_real_at(k) is; at k = 3 its body is

        return 1.0 / x + 1.0 / (x - 1.0) + 1.0 / (x - 2.0)

    the additions of a loop from 0.0 in its order, as 0.0 + 1.0/x is 1.0/x
    for x > 0, so every root is bit-identical to the loop's.  Beyond, the loop.
    """
    if k > 170:

        def slope(x: float) -> float:
            total = 0.0
            for i in range(k):
                total += 1.0 / (x - i)
            return total

        return slope
    terms = " + ".join(["1.0 / x", *[f"1.0 / (x - {i}.0)" for i in range(1, k)]])
    namespace = {}
    exec(f"def slope(x):\n    return {terms}\n", namespace)
    return namespace["slope"]


def _lovasz_root(m: int, k: int, n: int, c: int, f, slope, start: float) -> float:
    """lovasz_x(m, k) given the leading cascade index n and c = C(n, k).

    f is _binom_real_at(k) and slope _slope_at(k), generated straight-line
    code up to k = 170 as f is: on the paper grid a row takes 0.93 Newton
    steps, each summing 10 quotients.  It is inf where n does not fit in a
    float.  The search starts from start if it lies inside (n, n+1), else by
    regula falsi through the exact ends, C(n+1, k) - C(n, k) = C(n, k) k /
    (n-k+1).  Where float(m) overflows, it solves C(x, k) / C(n, k) =
    m / C(n, k), a float in [1, (n+1)/(n+1-k)), by the same steps on
    _ratio_at(n, k), whose slope is the same.  An evaluation beyond float
    range reads inf: a Newton step from it bisects, and the ulp walk stops
    there.
    """
    try:
        a, b = float(n), float(n + 1)
    except OverflowError:  # n, and so the root, does not fit
        return math.inf
    if c == m:
        return a
    try:
        target = float(m)
    except OverflowError:
        target, f = m / c, _ratio_at(n, k)
    tol = target * (k * 2e-16)  # target * k overflows where float(m) k > 1.8e308
    x = start if a < start < b else n + (m - c) * (n - k + 1) / (c * k)
    while True:
        fx = f(x)
        if abs(fx - target) <= tol:
            break
        if fx < target:
            a = x
        else:
            b = x
        # Newton step, f/f' = 1 / sum 1/(x-i), its quotients kept in float range;
        # an inf fx makes it nan and so a bisection.  A step that leaves x as it
        # is ends the search: past k ~ 300 the float error of C(x, k) may exceed tol.
        x_new = x - (fx - target) / fx / slope(x)
        if x_new == x:
            break
        if not a < x_new < b:
            x_new = 0.5 * (a + b)
            if not a < x_new < b:
                break
        x = x_new
    lo = hi = x
    f_lo = f_hi = fx
    while f_lo >= target:
        hi, f_hi = lo, f_lo
        lo = math.nextafter(lo, -math.inf)
        f_lo = f(lo)
    while f_hi < target:
        lo, f_lo = hi, f_hi
        hi = math.nextafter(hi, math.inf)
        f_hi = f(hi)
    return lo if abs(f_lo - target) <= abs(f_hi - target) else hi


def lovasz_x(m: int, k: int) -> float:
    """The unique x > k-1 with binom_real(x, k) = m, to float precision.

    The root lies in [n, n+1] for the leading cascade index n, as
    C(n, k) <= m < C(n+1, k), and when m = C(n, k) exactly the exact n is
    returned, which keeps integer coincidences exact.  Otherwise Newton
    steps start from the six-term inverse series of C(x, k) = m at
    y = (k! m)^(1/k) (_series_start at _lead(m, k), the y of withoutr too)
    if it lies in (n, n+1), else by regula falsi, inside a bracket shrunk by
    every evaluation, until |binom_real(x, k) - m| <= m * k * 2e-16, a step
    leaves x as it is, or the bracket holds no float.  From there the result
    walks ulp by ulp to the adjacent floats lo < hi with
    binom_real(lo, k) < m <= binom_real(hi, k) (in float arithmetic, so
    possibly just outside [n, n+1]) and returns the one with the smaller
    residual, lo on a tie: the final rule of a bisection run to the last bit,
    which takes 55 evaluations of the polynomial.  From the series start,
    within an ulp of the root in 99.7% of calls to m = 10^5 at k = 3, this
    takes 2.07 a call over m = 1..10^5 at k = 3 (1.03 in the search, 1.04 in
    the ulp walk), 2.94 on the paper's grid, where a row takes 0.93 Newton
    steps, and 6.0 at k of 300 to 600, where y < k.

    The pair, and so the result, does not depend on the path to it.  For
    x > k-1 every factor x - i is positive, and a rounded subtraction,
    product or division of positive floats is monotone in each operand, so
    binom_real is non-decreasing on the floats there (within its direct
    product and within its fallback for a product that overflows): the
    floats below m and those at or above it form two runs, and one adjacent
    pair straddles them.  The evaluations are binom_real's own, through its
    fixed-k evaluator _binom_real_at(k), which reads inf where binom_real
    raises: such a float lies above m, so every root that fits in a float,
    up to the largest, is returned.  For m from 2^1024 on, where float(m)
    overflows, they are those of C(x, k) / C(n, k) against m / C(n, k).  A
    root that does not fit raises OverflowError.
    """
    _check(m, k)
    n, c, _ = _descend(m, k)
    start = _series_start(*_lead(m, k), _series_at(k))
    x = _lovasz_root(m, k, n, c, _binom_real_at(k), _slope_at(k), start)
    return _fit(x, "lovasz_x", k)


def lovasz_bound(m: int, k: int, p: int) -> float:
    """binom_real(x, p) at x = lovasz_x(m, k); OverflowError where it does not fit."""
    _check(m, k, p)
    return _fit(_binom_real_at(p)(lovasz_x(m, k)), "lovasz_bound", k, p)


def _fit(value: float, name: str, *args: int) -> float:
    """value, unless it is inf: then the one OverflowError of an approximation, naming it."""
    if value == math.inf:
        raise OverflowError(f"{name}(m, {', '.join(map(_shown, args))}) does not fit in a float")
    return value


def withoutr_bound(m: int, k: int, p: int) -> float:
    """Root-free lower bound: power law times a first-order correction factor.

        (k!)^(p/k) / p! * (1 + (k-p) / (2 (k! m)^(1/k)))^p * m^(p/k)

    Raises OverflowError when the value does not fit in a float: its factors
    are at least 1, so an overflow of the power means that it does not fit
    either.  noreasy, lead * m_pow, is at most the value in floats too.
    """
    _check(m, k, p)
    lead, root, m_pow = _power_lead(k, p), _lead(m, k)[0], _pow_frac(m, p, k)
    try:
        value = lead * (1.0 + (k - p) / (2.0 * root)) ** p * m_pow
    except OverflowError:
        value = math.inf
    return _fit(value, "withoutr_bound", k, p)


@lru_cache(maxsize=256)
def _power_lead(k: int, p: int) -> float:
    """(k!)^(p/k) / p!, the constant factor of withoutr_bound and noreasy_bound, or inf.

    From log-gamma only when k! or p! does not fit in a float (k > 170), so
    every smaller k keeps its exact-factorial value; cached for 256 (k, p).
    """
    if k <= 170:
        return math.factorial(k) ** (p / k) / math.factorial(p)
    return _exp(math.lgamma(k + 1) * p / k - math.lgamma(p + 1))


def noreasy_bound(m: int, k: int, p: int) -> float:
    """Plain power-law lower bound (k!)^(p/k) / p! * m^(p/k); zero at m = 0.

    Raises OverflowError when the value does not fit in a float.
    """
    _check(m, k, p, least=0)
    if m == 0:
        return 0.0
    return _fit(_power_lead(k, p) * _pow_frac(m, p, k), "noreasy_bound", k, p)


class SymmetricChain(NamedTuple):
    values: tuple[float, ...]
    strictly_decreasing: bool


def symmetric_chain(f: FaceVector) -> SymmetricChain:
    """(p! * f_{p-1})^(1/p) for p = 1..dim+1, plus whether it strictly decreases.

    The values are floats; the verdict is exact, a^(p+1) > b^p for
    consecutive a = p! f_{p-1} and b = (p+1)! f_p (_exceeds).
    """
    scaled = [math.factorial(p) * f.entries[p] for p in range(1, len(f.entries))]
    values = tuple([_pow_frac(a, 1, p) for p, a in enumerate(scaled, 1)])
    if math.inf in values:
        raise OverflowError("symmetric_chain(f) does not fit in a float")
    pairs = enumerate(zip(scaled, scaled[1:]), 1)
    return SymmetricChain(values, all(_exceeds(a, b, p) for p, (a, b) in pairs))


def _exceeds(a: int, b: int, p: int) -> bool:
    """a^(p+1) > b^p for integers a, b, p >= 1.

    By base-2 logs where they differ by more than a relative 1e-9: math.log2
    of an int errs by at most (bit length + 4) 2^-52, far inside that.
    Else in integers, whose powers at p in the hundreds took seconds a call.
    """
    high, low = (p + 1) * math.log2(a), p * math.log2(b)
    if abs(high - low) > 1e-9 * (high + low + 1):
        return high > low
    return a ** (p + 1) > b**p


def colorapprox_bound(m: int, k: int, p: int, r: int) -> float:
    """C(r, p) * C(r, k)^(-p/k) * m^(p/k): the power-law bound with color count r.

    Valid for r-colorable complexes for the given r, and for any complex when
    m <= C(r, k) + C(r-1, k-1) (see best_r) or for flag complexes when
    m < C(r+1, k) (see flag_r).  Raises OverflowError when the value does not
    fit in a float; C(r, p) alone may exceed float range.
    """
    _check(m, k, p, r, least=0)
    if m == 0:
        return 0.0
    return _fit(_colorapprox(m, k, p, binomial(r, p), binomial(r, k)), "colorapprox_bound", k, p, r)


def _colorapprox(m: int, k: int, p: int, r_p: int, r_k: int) -> float:
    """colorapprox_bound(m, k, p, r) for m >= 1 given r_p = C(r, p) and r_k = C(r, k), or inf."""
    try:
        ratio = m / r_k
        if ratio >= _FLOAT_MIN:  # a subnormal or zero ratio has lost digits: from log space
            return r_p * ratio ** (p / k)
    except OverflowError:  # m / C(r, k), then C(r, p), beyond float range: from log space
        pass
    log_ratio = (math.log(m) - math.log(r_k)) * (p / k)
    try:
        return r_p * math.exp(log_ratio)
    except OverflowError:  # C(r, p) beyond float range
        return _exp(math.log(r_p) + log_ratio)


def best_r(m: int, k: int) -> int:
    """Smallest r >= k with m <= C(r, k) + C(r-1, k-1).

    For k = 1 the condition reads m <= r + 1, so r = max(1, m - 1).  For
    k >= 2 it is the leading cascade index n, C(n, k) <= m < C(n+1, k), when
    m <= C(n, k) + C(n-1, k-1), and n + 1 otherwise: C(n+1, k) + C(n, k-1)
    exceeds m, while r = n - 1 gives C(n-1, k) + C(n-2, k-1) < C(n, k) <= m.
    """
    _check(m, k)
    if k == 1:
        return max(1, m - 1)
    n, c, _ = _descend(m, k)
    return n if m <= c + c * k // n else n + 1  # C(n-1, k-1) = C(n, k) k / n


def flag_r(m: int, k: int) -> int:
    """Smallest r >= k with m < C(r+1, k).

    This is exactly the leading cascade index n: C(n, k) <= m < C(n+1, k)
    and n >= k, while any smaller r has C(r+1, k) <= C(n, k) <= m.
    """
    _check(m, k)
    return _descend(m, k)[0]


class BoundReport(NamedTuple):
    """All bounds on the count of p-vertex faces given m faces on k vertices."""

    m: int
    k: int
    p: int
    kk_exact: int
    lovasz_x: float
    lovasz: float
    withoutr: float
    noreasy: float
    withr_r: int
    withr: float
    flag_r: int
    flag: float


def bound_report(m: int, k: int, p: int, r: int | None = None) -> BoundReport:
    """Evaluate every bound at one (m, k, p): the row bound_reports makes for m.

    The colored bound uses the given r when supplied (which must be >= k),
    otherwise best_r(m, k); the flag bound always uses flag_r(m, k).  It is
    shadow_bound's greedy descent from no levels, then _row.
    """
    _check(m, k, p, r)
    levels = _greedy([], m, k, k - p, None)
    return _row(m, k, p, levels[-1][4], _index(k, p, levels[0]), _constants(k, p, r))


def bound_reports(ms: Iterable[int], k: int, p: int, r: int | None = None) -> Iterator[BoundReport]:
    """bound_report(m, k, p, r) for each m of a strictly increasing sequence, lazily.

    One level list carries the cascade and kk_exact from m to m: _greedy
    keeps the levels of the m before that are still the greedy's.  _constants
    are taken once, _index when n changes, and each row is _row's, as
    bound_report's is.  The arguments are checked with the first m when the
    first row is computed; an m that does not exceed the one before raises
    ValueError when it is reached.
    """
    levels, last = None, 0
    for m in ms:
        if levels is None:  # the first m: the arguments are checked with it
            _check(m, k, p, r)
            levels, at, constants = [], (0,), _constants(k, p, r)
        elif m <= last:
            raise ValueError(f"m must increase strictly, got {_shown(m)} after {_shown(last)}")
        last = m
        _greedy(levels, m, k, k - p, None)
        if levels[0][0] != at[0]:  # every index n >= 1 differs from 0
            at = _index(k, p, levels[0])
        yield _row(m, k, p, levels[-1][4], at, constants)


@lru_cache(maxsize=256)
def _constants(k: int, p: int, r: int | None) -> tuple:
    """What _row takes of (k, p, r) alone; cached for 256 (k, p, r).

    _power_lead(k, p), _series_at(k), the evaluator of C(x, k) and its
    _slope_at(k), that of C(x, p), and fixed: (r, C(r, p), C(r, k)) for a
    given r, else None.  Then _row's fast path: the exponents 1/k and p/k
    as _pow_frac takes them, k!, and the largest m with k! m < 2^53: None
    and 0 from k = 19 on, as 19! > 2^53, so no k! is taken there.
    """
    fixed = None if r is None else (r, binomial(r, p), binomial(r, k))
    evaluators = _binom_real_at(k), _slope_at(k), _binom_real_at(p)
    factorial = math.factorial(k) if k <= 18 else None
    most = (2**53 - 1) // factorial if factorial else 0
    return _power_lead(k, p), _series_at(k), *evaluators, fixed, 1 / k, p / k, factorial, most


def _index(k: int, p: int, level: tuple) -> tuple:
    """n, C(n, k), C(n+1, k), C(n, p), C(n+1, p), best_r's C(n, k) + C(n-1, k-1) of level n.

    level is the top level of a plain cascade at k, so p < k <= n and
    math.comb takes the place of binomial.
    """
    n, _, n_k, up_k, _ = level
    n_p = math.comb(n, p)
    return n, n_k, up_k, n_p, n_p * (n + 1) // (n + 1 - p), n_k + n_k * k // n


def _row(m: int, k: int, p: int, kk_exact: int, at: tuple, constants: tuple) -> BoundReport:
    """The row of m from kk_exact, _index and _constants, with one y = (k! m)^(1/k).

    Only the two powers fork: y and m^(p/k) are float(k! m) ** (1/k) and
    float(m) ** (p/k) where k! m < 2^53 (m at most constants' most), as
    _lead and _pow_frac take them there, else those helpers'.  The root's
    start, withoutr and flag are then one expression each, _series_start's,
    withoutr_bound's and _colorapprox's (whose first branch flag takes, as
    m / C(n, k) >= 1, unless C(n, p) is beyond float range), so the values
    are the same bits.  withr above best_r's threshold or at a fixed r calls
    _colorapprox.  A dense k = 3 row runs about 9 Python frames.
    """
    n, n_k, up_k, n_p, up_p, reach = at
    lead, series, evaluate, slope, lovasz_at, fixed, inv_k, p_k, factorial, most = constants
    if m <= most:
        big = factorial * m
        root, bits, m_pow = float(big) ** inv_k, big.bit_length(), float(m) ** p_k
    else:
        (root, bits), m_pow = _lead(m, k), _pow_frac(m, p, k)
    half, c1, c2, c3, c4, c5, c6, bias = series
    y = root * (1.0 + bias * bits) if bits <= 53 else root
    e = 1.0 / (y * y)
    start = y + half + y * e * (c1 + e * (c2 + e * (c3 + e * (c4 + e * (c5 + e * c6)))))
    try:
        withoutr = lead * (1.0 + (k - p) / (2.0 * root)) ** p * m_pow
    except OverflowError:
        withoutr = math.inf
    try:
        flag = n_p * (m / n_k) ** p_k
    except OverflowError:  # C(n, p) beyond float range
        flag = _colorapprox(m, k, p, n_p, n_k)
    x = _lovasz_root(m, k, n, n_k, evaluate, slope, start)
    if fixed is None and m <= reach:
        withr_r, withr = n, flag
    else:
        withr_r, r_p, r_k = fixed or (n + 1, up_p, up_k)
        withr = _colorapprox(m, k, p, r_p, r_k)
    lovasz = lovasz_at(x)
    if flag + withr + lovasz + withoutr == math.inf:
        # The error of the first of these columns that does not fit; noreasy then fits.
        _fit(flag, "colorapprox_bound", k, p, n)
        _fit(withr, "colorapprox_bound", k, p, withr_r)
        _fit(lovasz, "lovasz_bound", k, p)
        _fit(withoutr, "withoutr_bound", k, p)
    # The fields in order through tuple.__new__, as BoundReport._make does:
    # half the cost of a BoundReport(...) call.
    fields = m, k, p, kk_exact, x, lovasz, withoutr, lead * m_pow, withr_r, withr, n, flag
    return tuple.__new__(BoundReport, fields)
