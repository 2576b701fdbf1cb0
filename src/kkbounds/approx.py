"""Closed-form and root-finding approximations to the exact shadow bounds."""

from __future__ import annotations

import math
import sys
from typing import Iterable, Iterator, NamedTuple

from .binomials import _binom_real_at, binom_real, binomial
from .cascade import FaceVector, _CascadeCursor, _max_index

_FLOAT_MIN = sys.float_info.min  # the smallest normal float


def _pow_frac(m: int, num: int, den: int) -> float:
    """m ** (num / den) for integer m >= 1, stable for m beyond float range."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if m.bit_length() <= 53:
        return float(m) ** (num / den)
    return math.exp(math.log(m) * num / den)


def _cold_start(m: int, k: int) -> float:
    """y + (k-1)/2 + (k^2-1)/(24y), y = (k! m)^(1/k): the root of C(x, k) = m to O(1/y^3).

    In u = x - (k-1)/2, x(x-1)...(x-k+1) = u^k - k(k^2-1)/24 u^(k-2) + ...
    """
    y = _pow_frac(math.factorial(k) * m, 1, k)
    return y + 0.5 * (k - 1) + (k * k - 1) / (24.0 * y)


def _lovasz_root(m: int, k: int, n: int, c: int, f, start: float | None = None) -> float:
    """lovasz_x(m, k) given the leading cascade index n, c = C(n, k) and f = _binom_real_at(k).

    The search starts from start, or _cold_start(m, k) when None, if it lies
    strictly inside (n, n+1), else by regula falsi through the exact
    endpoints, C(n+1, k) - C(n, k) = C(n, k) k / (n-k+1).
    """
    if c == m:
        return float(n)
    target = float(m)
    tol = target * (k * 2e-16)  # target * k overflows where float(m) k > 1.8e308
    a, b = float(n), float(n + 1)
    if start is None:
        start = _cold_start(m, k)
    x = start if a < start < b else n + (m - c) * (n - k + 1) / (c * k)
    while True:
        try:
            fx = f(x)
        except OverflowError:
            fx = math.inf
        if abs(fx - target) <= tol:
            break
        if fx < target:
            a = x
        else:
            b = x
        # Newton step, f/f' = 1 / sum 1/(x-i); an overflow makes it nan and so a bisection.
        slope = 0.0
        for i in range(k):
            slope += 1.0 / (x - i)
        x_new = x - (fx - target) / (fx * slope)
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


def _warm_start(x: float, m: int, m_next: int, k: int) -> float:
    """A start for the root at m_next from x, the root at m: a third-order Taylor step.

    The step is in y = log x, where F(y) = log C(x, k) is nearly linear.  With
    t_i = x / (x - i), a = sum t, b = sum t^2 and c = sum t^3, F's
    derivatives are a, a - b and a - 3b + 2c, and the inverse series in
    w = log(m_next / m) gives the step in y.  The t_i keep it scale-free (in
    powers of 1/(x - i) the terms underflow at large x).  As a series in
    (m_next - m) / m the step starts 1e5 times farther off at 6% a row.
    """
    a = b = c = 1.0  # t_0 = 1
    for i in range(1, k):
        t = x / (x - i)
        a += t
        b += t * t
        c += t * t * t
    d2, d3 = a - b, a - 3 * b + 2 * c
    v = math.log1p((m_next - m) / m) / a  # w / a, the first-order step
    return x * math.exp(v * (1 - d2 * v / (2 * a) + (3 * d2 * d2 - a * d3) * v * v / (6 * a * a)))


def lovasz_x(m: int, k: int) -> float:
    """The unique x > k-1 with binom_real(x, k) = m, to float precision.

    The root lies in [n, n+1] for the leading cascade index n, as
    C(n, k) <= m < C(n+1, k), and when m = C(n, k) exactly the exact n is
    returned, which keeps integer coincidences exact.  Otherwise Newton
    steps start from the closed-form inverse of C(x, k) (_cold_start) if it
    lies in (n, n+1), else from a regula falsi step through the two exact
    endpoints.  They stay inside a bracket shrunk by every evaluation,
    bisecting when a step leaves it, and stop once
    |binom_real(x, k) - m| <= m * k * 2e-16, or when the bracket holds no
    float strictly inside.  From there the result walks ulp by ulp to the two
    adjacent floats lo < hi with binom_real(lo, k) < m <= binom_real(hi, k)
    (in float arithmetic, so possibly just outside [n, n+1]) and returns the
    one with the smaller residual, lo on a tie: the final rule of a bisection
    run to the last bit, which takes 55 evaluations of the polynomial.  This
    takes 3.0 a call over every m to 20000 at k = 3 and 4.6 on the paper's
    grid; bound_reports takes 2.1 and 2.9 a row, from a step off the
    previous row's root (_warm_start) while n is unchanged.

    The pair, and so the result, does not depend on the path to it.  For
    x > k-1 every factor x - i is positive, and a rounded subtraction,
    product or division of positive floats is monotone in each operand, so
    binom_real is non-decreasing on the floats there (within its direct
    product and within its fallback for a product that overflows): the
    floats below m and those at or above it form two runs, and one adjacent
    pair straddles them.  The evaluations are binom_real's own, through its
    fixed-k evaluator _binom_real_at(k).
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return _lovasz_root(m, k, *_max_index(m, k, None), _binom_real_at(k))


def lovasz_bound(m: int, k: int, p: int) -> float:
    """binom_real(x, p) at the x solving binom_real(x, k) = m."""
    if not 1 <= p < k:
        raise ValueError(f"need 1 <= p < k, got p={p}, k={k}")
    return binom_real(lovasz_x(m, k), p)


def _too_large(name: str, *args: int) -> OverflowError:
    """The one outcome of an approximation beyond float range, worded as binom_real's."""
    return OverflowError(f"{name}(m, {', '.join(map(str, args))}) does not fit in a float")


def _exp(x: float) -> float:
    """math.exp(x), or inf where it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def withoutr_bound(m: int, k: int, p: int) -> float:
    """Root-free lower bound: power law times a first-order correction factor.

        (k!)^(p/k) / p! * (1 + (k-p) / (2 (k! m)^(1/k)))^p * m^(p/k)

    Raises OverflowError when the value does not fit in a float.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not 0 < p < k:
        raise ValueError(f"need 0 < p < k, got p={p}, k={k}")
    return _withoutr(m, k, p, _power_lead(k, p), math.factorial(k), _m_pow(m, k, p))


def _power_lead(k: int, p: int) -> float:
    """(k!)^(p/k) / p!, the constant factor of withoutr_bound and noreasy_bound, or inf.

    From log-gamma only when k! or p! does not fit in a float (k > 170), so
    every smaller k keeps its exact-factorial value.
    """
    try:
        return math.factorial(k) ** (p / k) / math.factorial(p)
    except OverflowError:
        return _exp(math.lgamma(k + 1) * p / k - math.lgamma(p + 1))


def _m_pow(m: int, k: int, p: int) -> float:
    """m^(p/k), the power of withoutr_bound and noreasy_bound, or inf."""
    try:
        return _pow_frac(m, p, k)
    except OverflowError:
        return math.inf


def _withoutr(m: int, k: int, p: int, lead: float, fact_k: int, m_pow: float) -> float:
    """withoutr_bound(m, k, p) given lead = _power_lead(k, p), k! and m_pow = _m_pow(m, k, p).

    Its factors are at least 1, so an inf one, or an overflow on the way,
    means that the value does not fit either; lead * m_pow, noreasy, is at
    most the value in float arithmetic too.
    """
    try:
        value = lead * (1.0 + (k - p) / (2.0 * _pow_frac(fact_k * m, 1, k))) ** p * m_pow
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise _too_large("withoutr_bound", k, p)
    return value


def noreasy_bound(m: int, k: int, p: int) -> float:
    """Plain power-law lower bound (k!)^(p/k) / p! * m^(p/k); zero at m = 0.

    Raises OverflowError when the value does not fit in a float.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if not 0 < p < k:
        raise ValueError(f"need 0 < p < k, got p={p}, k={k}")
    if m == 0:
        return 0.0
    value = _power_lead(k, p) * _m_pow(m, k, p)
    if value == math.inf:
        raise _too_large("noreasy_bound", k, p)
    return value


class SymmetricChain(NamedTuple):
    values: tuple[float, ...]
    strictly_decreasing: bool


def symmetric_chain(f: FaceVector) -> SymmetricChain:
    """(p! * f_{p-1})^(1/p) for p = 1..dim+1, plus whether it strictly decreases."""
    values = tuple(
        _pow_frac(math.factorial(p) * f.entries[p], 1, p)
        for p in range(1, len(f.entries))
    )
    decreasing = all(a > b for a, b in zip(values, values[1:]))
    return SymmetricChain(values, decreasing)


def colorapprox_bound(m: int, k: int, p: int, r: int) -> float:
    """C(r, p) * C(r, k)^(-p/k) * m^(p/k): the power-law bound with color count r.

    Valid for r-colorable complexes for the given r, and for any complex when
    m <= C(r, k) + C(r-1, k-1) (see best_r) or for flag complexes when
    m < C(r+1, k) (see flag_r).  Raises OverflowError when the value does not
    fit in a float; C(r, p) alone may exceed float range.
    """
    if not 0 < p < k:
        raise ValueError(f"need 0 < p < k, got p={p}, k={k}")
    if k > r:
        raise ValueError(f"need k <= r, got k={k}, r={r}")
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if m == 0:
        return 0.0
    return _colorapprox(m, k, p, r, binomial(r, p), binomial(r, k))


def _colorapprox(m: int, k: int, p: int, r: int, r_p: int, r_k: int) -> float:
    """colorapprox_bound(m, k, p, r) for m >= 1 given r_p = C(r, p) and r_k = C(r, k)."""
    try:
        ratio = m / r_k
        # A subnormal or zero ratio has lost digits: from log space.
        value = r_p * ratio ** (p / k) if ratio >= _FLOAT_MIN else None
    except OverflowError:  # m / C(r, k), then C(r, p), beyond float range: from log space
        value = None
    if value is None:
        log_ratio = (math.log(m) - math.log(r_k)) * (p / k)
        try:
            value = r_p * math.exp(log_ratio)
        except OverflowError:  # C(r, p) beyond float range
            value = _exp(math.log(r_p) + log_ratio)
    if value == math.inf:
        raise _too_large("colorapprox_bound", k, p, r)
    return value


def best_r(m: int, k: int) -> int:
    """Smallest r >= k with m <= C(r, k) + C(r-1, k-1).

    For k = 1 the condition reads m <= r + 1, so r = max(1, m - 1).  For
    k >= 2 it is the leading cascade index n, C(n, k) <= m < C(n+1, k), when
    m <= C(n, k) + C(n-1, k-1), and n + 1 otherwise: C(n+1, k) + C(n, k-1)
    exceeds m, while r = n - 1 gives C(n-1, k) + C(n-2, k-1) < C(n, k) <= m.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k == 1:
        return max(1, m - 1)
    n, c = _max_index(m, k, None)
    return n if m <= c + binomial(n - 1, k - 1) else n + 1


def flag_r(m: int, k: int) -> int:
    """Smallest r >= k with m < C(r+1, k).

    This is exactly the leading cascade index n: C(n, k) <= m < C(n+1, k)
    and n >= k, while any smaller r has C(r+1, k) <= C(n, k) <= m.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return _max_index(m, k, None)[0]


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
    """Evaluate every bound at one (m, k, p): the one-row case of bound_reports.

    The colored bound uses the given r when supplied (which must be >= k),
    otherwise best_r(m, k); the flag bound always uses flag_r(m, k).  The row
    takes a sweep's path from an empty cursor: one greedy descent of the
    cascade and a root from the closed-form start (_cold_start).
    """
    return next(bound_reports((m,), k, p, r))


def bound_reports(
    ms: Iterable[int], k: int, p: int, r: int | None = None
) -> Iterator[BoundReport]:
    """bound_report(m, k, p, r) for each m of a strictly increasing sequence, lazily.

    Every row, the first one included, comes from one _CascadeCursor, which
    carries the cascade and its shadow sum kk_exact from m to m (from m = 0
    for the first) and builds no cascade record.  Its leading index n is
    flag_r, the bracket [n, n+1] of the Lovasz root, and best_r (n or n + 1).
    The root starts from _cold_start, or while n is unchanged from a Taylor
    step off the previous one (_warm_start); either way it is lovasz_x(m, k)
    bit for bit.  Hoisted: (k!)^(p/k)/p!, k!, the cached evaluators of
    C(x, k) and C(x, p), and for a fixed r, C(r, p) and C(r, k).  When n
    changes, C(n, k) and C(n+1, k) are the cursor's top level, C(n, p) is
    one binomial, and C(n+1, p) and best_r's threshold
    C(n, k) + C(n-1, k-1) follow by exact division.  Beyond those, the
    previous root and the cursor's one entry per cascade level, nothing is
    kept from row to row.  The arguments are checked, in bound_report's
    order, when the first row is computed; an m that does not exceed the one
    before raises ValueError when it is reached.
    """
    rows = iter(ms)
    m = next(rows, None)
    if m is None:
        return
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not 1 <= p < k:
        raise ValueError(f"need 1 <= p < k, got p={p}, k={k}")
    if r is not None and r < k:
        raise ValueError(f"need k <= r, got k={k}, r={r}")
    lead, fact_k = _power_lead(k, p), math.factorial(k)
    evaluate, lovasz_at = _binom_real_at(k), _binom_real_at(p)
    if r is not None:
        r_p, r_k = binomial(r, p), binomial(r, k)
    cursor, n_at = _CascadeCursor(k, p), None
    while True:
        n, kk_exact = cursor.advance(m)
        if n == n_at:
            start = _warm_start(x, m_before, m, k)
        else:  # C(n, k) and C(n+1, k) are the cursor's top level
            n_at, start, n_k, up_k = n, None, *cursor.levels[0][2:4]
            n_p = binomial(n, p)
            up_p = n_p * (n + 1) // (n + 1 - p)
            reach = n_k + n_k * k // n  # best_r's C(n, k) + C(n-1, k-1), k >= 2 here
        x = _lovasz_root(m, k, n, n_k, evaluate, start)
        m_pow = _m_pow(m, k, p)
        # An overflow raises the error of the first of flag, withr, lovasz and
        # withoutr, in this order, that does not fit; noreasy then fits.
        flag = _colorapprox(m, k, p, n, n_p, n_k)
        if r is not None:
            withr_r, withr = r, _colorapprox(m, k, p, r, r_p, r_k)
        elif m <= reach:
            withr_r, withr = n, flag
        else:
            withr_r, withr = n + 1, _colorapprox(m, k, p, n + 1, up_p, up_k)
        lovasz = lovasz_at(x)
        withoutr = _withoutr(m, k, p, lead, fact_k, m_pow)
        # The fields in order through tuple.__new__, as BoundReport._make does:
        # half the cost of a BoundReport(...) call.
        fields = m, k, p, kk_exact, x, lovasz, withoutr, lead * m_pow, withr_r, withr, n, flag
        yield tuple.__new__(BoundReport, fields)
        m_before, m = m, next(rows, None)
        if m is None:
            return
