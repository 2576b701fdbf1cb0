"""Closed-form and root-finding approximations to the exact shadow bounds."""

from __future__ import annotations

import math
from typing import Iterable, Iterator, NamedTuple

from .binomials import binom_real, binomial
from .cascade import FaceVector, _CascadeCursor, _max_index, _shadow_sum, cascade_decompose


def _pow_frac(m: int, num: int, den: int) -> float:
    """m ** (num / den) for integer m >= 1, stable for m beyond float range."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if m.bit_length() <= 53:
        return float(m) ** (num / den)
    return math.exp(math.log(m) * num / den)


def _ratio_pow(num: int, den: int, p: int, k: int) -> float:
    """(num / den) ** (p / k) for positive integers; exactly 1.0 when num == den."""
    if num == den:
        return 1.0
    try:
        return (num / den) ** (p / k)
    except OverflowError:
        return math.exp((math.log(num) - math.log(den)) * (p / k))


def _binom_real_at(k: int):
    """x -> binom_real(x, k) bit for bit: its product, divided by float(k!) converted once.

    binom_real itself evaluates where k! (k > 170) or the value does not fit
    in a float, so its fallback and its errors are kept too.
    """
    if k > 170:
        return lambda x: binom_real(x, k)
    fact = float(math.factorial(k))
    shifts = tuple(map(float, range(k)))  # x - float(i) is x - i, without the conversion
    isfinite = math.isfinite

    def evaluate(x: float) -> float:
        num = 1.0
        for i in shifts:
            num *= x - i
        value = num / fact
        return value if isfinite(value) else binom_real(x, k)

    return evaluate


def _lovasz_root(m: int, k: int, n: int, c: int, f, start: float | None = None) -> float:
    """lovasz_x(m, k) given the leading cascade index n, c = C(n, k) and f = _binom_real_at(k).

    The search starts from start when it lies strictly inside (n, n+1), else
    by regula falsi through the exact endpoints, C(n+1, k) - C(n, k) = C(n, k) k / (n-k+1).
    """
    if c == m:
        return float(n)
    target = float(m)
    tol = target * k * 2e-16
    a, b = float(n), float(n + 1)
    x = start if start is not None and a < start < b else n + (m - c) * (n - k + 1) / (c * k)
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
    returned, which keeps integer coincidences exact.  Otherwise a regula
    falsi step through the two exact endpoints starts Newton steps that are
    kept inside a bracket shrunk by every evaluation, falling back to
    bisection when a step leaves it.  They stop once
    |binom_real(x, k) - m| <= m * k * 2e-16, or when the bracket holds no
    float strictly inside.  From there the result walks ulp by ulp to the two
    adjacent floats lo < hi with binom_real(lo, k) < m <= binom_real(hi, k)
    (in float arithmetic, so possibly just outside [n, n+1]) and returns the
    one with the smaller residual, lo on a tie.  That is the final rule of a
    bisection run to the last bit, and it takes 4 to 6 evaluations of the
    polynomial where such a bisection takes 55.  bound_reports starts from
    _warm_start's step off the previous row's root instead, if it lies in
    (n, n+1): 2.1 a row over every m at k = 3, 2.9 on the paper's grid.

    The pair, and so the result, does not depend on the path to it.  For
    x > k-1 every factor x - i is positive, and a rounded subtraction,
    product or division of positive floats is monotone in each operand, so
    binom_real is non-decreasing on the floats there (within its direct
    product and within its fallback for a product that overflows): the
    floats below m and those at or above it form two runs, and one adjacent
    pair straddles them.  The evaluations are those of _binom_real_at(k),
    equal to binom_real bit for bit, which calls binom_real only when
    k > 170 or a value does not fit.
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


def withoutr_bound(m: int, k: int, p: int) -> float:
    """Root-free lower bound: power law times a first-order correction factor.

        (k!)^(p/k) / p! * (1 + (k-p) / (2 (k! m)^(1/k)))^p * m^(p/k)
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not 0 < p < k:
        raise ValueError(f"need 0 < p < k, got p={p}, k={k}")
    return _withoutr(m, k, p, _power_lead(k, p), math.factorial(k), _pow_frac(m, p, k))


def _power_lead(k: int, p: int) -> float:
    """(k!)^(p/k) / p!, the constant factor of withoutr_bound and noreasy_bound.

    From log-gamma only when k! or p! does not fit in a float (k > 170), so
    every smaller k keeps its exact-factorial value.
    """
    try:
        return math.factorial(k) ** (p / k) / math.factorial(p)
    except OverflowError:
        return math.exp(math.lgamma(k + 1) * p / k - math.lgamma(p + 1))


def _withoutr(m: int, k: int, p: int, lead: float, fact_k: int, m_pow: float) -> float:
    """withoutr_bound(m, k, p) given lead = _power_lead(k, p), fact_k = k! and m_pow = m^(p/k)."""
    root = _pow_frac(fact_k * m, 1, k)
    return lead * (1.0 + (k - p) / (2.0 * root)) ** p * m_pow


def noreasy_bound(m: int, k: int, p: int) -> float:
    """Plain power-law lower bound (k!)^(p/k) / p! * m^(p/k); zero at m = 0."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if not 0 < p < k:
        raise ValueError(f"need 0 < p < k, got p={p}, k={k}")
    if m == 0:
        return 0.0
    return _power_lead(k, p) * _pow_frac(m, p, k)


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
    m < C(r+1, k) (see flag_r).
    """
    if not 0 < p < k:
        raise ValueError(f"need 0 < p < k, got p={p}, k={k}")
    if k > r:
        raise ValueError(f"need k <= r, got k={k}, r={r}")
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if m == 0:
        return 0.0
    return _colorapprox(m, binomial(r, p), binomial(r, k), p, k)


def _colorapprox(m: int, r_p: int, r_k: int, p: int, k: int) -> float:
    """colorapprox_bound(m, k, p, r) given r_p = C(r, p) and r_k = C(r, k)."""
    return r_p * _ratio_pow(m, r_k, p, k)


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
    otherwise best_r(m, k); the flag bound always uses flag_r(m, k).
    """
    return next(bound_reports((m,), k, p, r))


def bound_reports(
    ms: Iterable[int], k: int, p: int, r: int | None = None
) -> Iterator[BoundReport]:
    """bound_report(m, k, p, r) for each m of a strictly increasing sequence, lazily.

    The first row's cascade comes from cascade_decompose; from the second
    row on, a _CascadeCursor carries it, and its shadow sum kk_exact, from m
    to m, and no cascade record is built.  Its leading index n is flag_r, the
    bracket [n, n+1] of the Lovasz root, and best_r (n or n + 1).  While n is
    unchanged, each root starts from a Taylor step off the previous one
    (_warm_start), which leaves it bit for bit as lovasz_x(m, k).  What
    does not depend on m is hoisted: (k!)^(p/k)/p!, k!, the polynomial
    evaluators of C(x, k) and, from the second row, C(x, p), and for a fixed
    r, C(r, p) and C(r, k) once per call; C(n, p), C(n, k), C(n+1, p),
    C(n+1, k) and best_r's threshold C(n, k) + C(n-1, k-1) only when n
    changes.  Beyond those, the previous root and the cursor's one entry per
    cascade level, nothing is kept from row to row.  The arguments are
    checked, in bound_report's order, when the first row is computed; an m
    that does not exceed the one before raises ValueError when it is reached.
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
    lead, fact_k, evaluate = _power_lead(k, p), math.factorial(k), _binom_real_at(k)
    if r is not None:
        r_p, r_k = binomial(r, p), binomial(r, k)
    rep = cascade_decompose(m, k)
    n, kk_exact = rep.terms[0][0], _shadow_sum(rep, p)
    cursor = n_at = start = lovasz_at = None
    while True:
        if n != n_at:
            n_at = n
            n_p, n_k = binomial(n, p), binomial(n, k)
            up_p, up_k = binomial(n + 1, p), binomial(n + 1, k)
            reach = n_k + binomial(n - 1, k - 1)  # best_r's threshold, k >= 2 here
        x = _lovasz_root(m, k, n, n_k, evaluate, start)
        m_pow = _pow_frac(m, p, k)
        flag = _colorapprox(m, n_p, n_k, p, k)
        if r is not None:
            withr_r, withr = r, _colorapprox(m, r_p, r_k, p, k)
        elif m <= reach:
            withr_r, withr = n, flag
        else:
            withr_r, withr = n + 1, _colorapprox(m, up_p, up_k, p, k)
        lovasz = binom_real(x, p) if lovasz_at is None else lovasz_at(x)
        withoutr = _withoutr(m, k, p, lead, fact_k, m_pow)
        # The fields in order through tuple.__new__, as BoundReport._make does:
        # half the cost of a BoundReport(...) call.
        fields = m, k, p, kk_exact, x, lovasz, withoutr, lead * m_pow, withr_r, withr, n, flag
        yield tuple.__new__(BoundReport, fields)
        m_next = next(rows, None)
        if m_next is None:
            return
        if cursor is None:  # built at the second row, so bound_report never pays for them
            cursor, lovasz_at = _CascadeCursor(m, rep, p), _binom_real_at(p)
        n_next, kk_exact = cursor.advance(m_next)
        start = _warm_start(x, m, m_next, k) if n_next == n else None
        m, n = m_next, n_next
