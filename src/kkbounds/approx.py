"""Closed-form and root-finding approximations to the exact shadow bounds."""

from __future__ import annotations

import math
from typing import NamedTuple

from .binomials import binom_real, binomial
from .cascade import FaceVector, _max_index, _shadow_sum, cascade_decompose


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


def _lovasz_root(m: int, k: int, n: int) -> float:
    """lovasz_x(m, k) given the leading cascade index n, so C(n, k) <= m < C(n+1, k)."""
    c = binomial(n, k)
    if c == m:
        return float(n)
    target = float(m)
    tol = target * k * 2e-16
    a, b = float(n), float(n + 1)
    # Regula falsi through the exact endpoints, C(n+1, k) - C(n, k) = C(n, k) k / (n-k+1).
    x = n + (m - c) * (n - k + 1) / (c * k)
    while True:
        try:
            fx = binom_real(x, k)
        except OverflowError:
            fx = math.inf
        if abs(fx - target) <= tol:
            break
        if fx < target:
            a = x
        else:
            b = x
        # Newton step, f/f' = 1 / sum 1/(x-i); an overflow makes it nan and so a bisection.
        x_new = x - (fx - target) / (fx * sum(1.0 / (x - i) for i in range(k)))
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
        f_lo = binom_real(lo, k)
    while f_hi < target:
        lo, f_lo = hi, f_hi
        hi = math.nextafter(hi, math.inf)
        f_hi = binom_real(hi, k)
    return lo if abs(f_lo - target) <= abs(f_hi - target) else hi


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
    bisection run to the last bit, and it takes about 5 evaluations of
    binom_real where such a bisection takes 55.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return _lovasz_root(m, k, _max_index(m, k, None)[0])


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
    lead = math.factorial(k) ** (p / k) / math.factorial(p)
    root = _pow_frac(math.factorial(k) * m, 1, k)
    return lead * (1.0 + (k - p) / (2.0 * root)) ** p * _pow_frac(m, p, k)


def noreasy_bound(m: int, k: int, p: int) -> float:
    """Plain power-law lower bound (k!)^(p/k) / p! * m^(p/k); zero at m = 0."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if not 0 < p < k:
        raise ValueError(f"need 0 < p < k, got p={p}, k={k}")
    if m == 0:
        return 0.0
    return math.factorial(k) ** (p / k) / math.factorial(p) * _pow_frac(m, p, k)


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
    return binomial(r, p) * _ratio_pow(m, binomial(r, k), p, k)


def best_r(m: int, k: int) -> int:
    """Smallest r >= k with m <= C(r, k) + C(r-1, k-1).

    For k >= 2 this is the leading cascade index n_k or n_k + 1; the search
    starts there and settles minimality by direct comparison.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return _best_r(m, k, _max_index(m, k, None)[0])


def _best_r(m: int, k: int, n: int) -> int:
    """best_r(m, k) given the leading cascade index n."""
    r = max(k, n)
    while r > k and m <= binomial(r - 1, k) + binomial(r - 2, k - 1):
        r -= 1
    while m > binomial(r, k) + binomial(r - 1, k - 1):
        r += 1
    return r


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
    """Evaluate every bound at one (m, k, p).

    The colored bound uses the given r when supplied (which must be >= k),
    otherwise best_r(m, k); the flag bound always uses flag_r(m, k).  One
    cascade of m gives kk_exact, and its leading index n is flag_r, the start
    of the best_r search and the bracket of the Lovasz root.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not 1 <= p < k:
        raise ValueError(f"need 1 <= p < k, got p={p}, k={k}")
    if r is not None and r < k:
        raise ValueError(f"need k <= r, got k={k}, r={r}")
    rep = cascade_decompose(m, k)
    n = rep.terms[0][0]
    x = _lovasz_root(m, k, n)
    withr_r = r if r is not None else _best_r(m, k, n)
    return BoundReport(
        m=m,
        k=k,
        p=p,
        kk_exact=_shadow_sum(rep, p),
        lovasz_x=x,
        lovasz=binom_real(x, p),
        withoutr=withoutr_bound(m, k, p),
        noreasy=noreasy_bound(m, k, p),
        withr_r=withr_r,
        withr=colorapprox_bound(m, k, p, withr_r),
        flag_r=n,
        flag=colorapprox_bound(m, k, p, n),
    )
