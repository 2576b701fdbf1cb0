"""Root-finding and closed-form approximations, and the r selection rules."""

import math
import random
import re
import sys

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kkbounds import (
    FaceVector,
    approx,
    best_r,
    binom_real,
    binomial,
    bound_report,
    bound_reports,
    cascade_decompose,
    colorapprox_bound,
    flag_r,
    lovasz_bound,
    lovasz_x,
    noreasy_bound,
    shadow_bound,
    symmetric_chain,
    withoutr_bound,
)
from kkbounds.selftest import narrow_window_margin, shifted_root_margin

import reference

SLACK = 1e-9


def test_lovasz_x_integer_coincidences():
    assert lovasz_x(binomial(50, 10), 10) == 50.0
    assert lovasz_x(10, 3) == 5.0
    assert lovasz_x(1, 7) == 7.0


def test_lovasz_x_residual():
    x = lovasz_x(11, 3)
    assert 5.0 < x < 5.2
    assert abs(binom_real(x, 3) - 11) <= 11 * 1e-12


def test_lovasz_x_residual_sampled():
    rng = random.Random(987)
    for _ in range(300):
        k = rng.randint(1, 20)
        m = max(1, int(math.exp(rng.uniform(0.0, math.log(1e12)))))
        x = lovasz_x(m, k)
        assert x >= k - 1
        assert abs(binom_real(x, k) - m) <= max(1, m) * 1e-12


def test_lovasz_bound_values():
    assert lovasz_bound(10, 3, 2) == 10.0
    assert 10.5 < lovasz_bound(11, 3, 2) < 10.6  # below the exact bound of 12
    assert lovasz_bound(binomial(50, 10), 10, 7) == float(binomial(50, 7))


def test_withoutr_values():
    expected = math.sqrt(90) + 0.5
    assert abs(withoutr_bound(45, 2, 1) - expected) <= expected * 1e-12
    # direct evaluation; stays below lovasz_bound(10, 3, 2) = 10
    value = withoutr_bound(10, 3, 2)
    assert abs(value - 9.74552814451996) < 1e-9
    assert value < lovasz_bound(10, 3, 2)


def test_withoutr_at_m_one():
    for k in range(2, 8):
        for p in range(1, k):
            factk = math.factorial(k)
            expected = (
                factk ** (p / k)
                / math.factorial(p)
                * (1 + (k - p) / (2 * factk ** (1 / k))) ** p
            )
            assert abs(withoutr_bound(1, k, p) - expected) <= expected * 1e-12


def test_noreasy_values():
    assert abs(noreasy_bound(45, 2, 1) - math.sqrt(90)) <= math.sqrt(90) * 1e-12
    assert noreasy_bound(0, 5, 2) == 0.0
    m = binomial(50, 10)
    value = noreasy_bound(m, 10, 7)
    expected = math.factorial(10) ** 0.7 / math.factorial(7) * m**0.7
    assert abs(value - expected) <= expected * 1e-12
    assert value < lovasz_bound(m, 10, 7)


def test_bound_ranges_rejected():
    with pytest.raises(ValueError, match=r"^need 1 <= p < k, got p=3, k=3$"):
        lovasz_bound(10, 3, 3)
    with pytest.raises(ValueError, match=r"^m must be >= 1, got 0$"):
        withoutr_bound(0, 3, 2)
    with pytest.raises(ValueError, match=r"^need 1 <= p < k, got p=0, k=3$"):
        withoutr_bound(10, 3, 0)
    with pytest.raises(ValueError, match=r"^m must be >= 0, got -1$"):
        noreasy_bound(-1, 3, 2)
    with pytest.raises(ValueError, match=r"^need k <= r, got k=4, r=3$"):
        colorapprox_bound(10, 4, 2, 3)
    # m is checked first, then k, p and r, as in bound_report.
    with pytest.raises(ValueError, match=r"^m must be >= 1, got 0$"):
        lovasz_bound(0, 3, 3)
    with pytest.raises(ValueError, match=r"^m must be >= 0, got -1$"):
        colorapprox_bound(-1, 4, 4, 3)
    with pytest.raises(ValueError, match=r"^need 1 <= p < k, got p=4, k=4$"):
        colorapprox_bound(10, 4, 4, 3)


def test_symmetric_chain_values():
    chain = symmetric_chain(FaceVector((1, 10, 45, 120)))
    expected = (10.0, math.sqrt(90), 720 ** (1 / 3))
    for got, want in zip(chain.values, expected):
        assert abs(got - want) <= want * 1e-12
    assert chain.strictly_decreasing
    single = symmetric_chain(FaceVector((1, 7)))
    assert single.values == (7.0,)
    assert single.strictly_decreasing


def test_symmetric_chain_verdict_is_exact():
    # Every face vector's chain strictly decreases (Lovász's theorem).  For
    # K_n with n near 10^15, n and sqrt(2 C(n, 2)) round to within an ulp or
    # two of each other, and a comparison of the floats said no for about
    # half of these n.
    rng = random.Random(16)
    for n in (rng.randrange(10**15, 2 * 10**15) for _ in range(500)):
        chain = symmetric_chain(FaceVector((1, n, binomial(n, 2))))
        assert chain.strictly_decreasing, n
    # Equal values (2 and sqrt(2 * 2)), and a vector of no complex.
    assert symmetric_chain(FaceVector((1, 2, 2))) == ((2.0, 2.0), False)
    assert not symmetric_chain(FaceVector((1, 1, 100))).strictly_decreasing
    # Ties and near-ties far beyond 2^53: (2 f_1)^3 against (6 f_2)^2 at
    # 2 f_1 = y^2, 6 f_2 = y^3, and f_0 against 2 f_1 at f_0 = x, 2 f_1 = x^2.
    x, y = 2**700, 6 * 2**100
    for d, decreasing in ((-1, True), (0, False), (1, False)):
        chain = symmetric_chain(FaceVector((1, y + 1, y * y // 2, y**3 // 6 + d)))
        assert chain.strictly_decreasing == decreasing, d
        chain = symmetric_chain(FaceVector((1, x, x * x // 2 + d)))
        assert chain.strictly_decreasing == decreasing, d
    # The 299-simplex, whose exact powers at p near 300 took seconds.
    simplex = FaceVector([binomial(300, i) for i in range(301)])
    assert symmetric_chain(simplex).strictly_decreasing
    # The log shortcut agrees with the integers next to b = floor(a^((p+1)/p)).
    for _ in range(300):
        p, a = rng.randint(1, 40), rng.randint(1, 2 ** rng.randint(1, 600))
        b = reference._iroot(a ** (p + 1), p)
        for c in (b - 2, b - 1, b, b + 1, b + 2, b * 2, max(1, b // 2)):
            if c >= 1:
                assert approx._exceeds(a, c, p) == (a ** (p + 1) > c**p), (a, c, p)


def test_colorapprox_values():
    assert colorapprox_bound(9, 2, 1, 2) == 6.0
    assert colorapprox_bound(binomial(10, 2), 2, 1, 10) == 10.0
    assert abs(colorapprox_bound(12, 2, 1, 3) - 6.0) <= 6.0 * 1e-12
    assert colorapprox_bound(0, 3, 2, 5) == 0.0


def test_best_r_values():
    assert best_r(45, 2) == 10
    assert binomial(9, 2) + binomial(8, 1) == 44 < 45  # r = 9 just misses
    assert best_r(11, 3) == 5
    boundary = binomial(50, 10) + binomial(49, 9)
    assert best_r(boundary, 10) == 50
    assert best_r(boundary + 1, 10) == 51


def test_best_r_minimality_bruteforce():
    for k in range(1, 5):
        for m in range(1, 400):
            r = best_r(m, k)
            assert r >= k
            assert m <= binomial(r, k) + binomial(r - 1, k - 1)
            if r > k:
                assert m > binomial(r - 1, k) + binomial(r - 2, k - 1)


def test_best_r_is_near_leading_cascade_index():
    for k in range(2, 7):
        for m in range(1, 5001):
            n_k = cascade_decompose(m, k).terms[0][0]
            assert best_r(m, k) in (n_k, n_k + 1)


def test_flag_r_values():
    assert flag_r(50, 3) == 7
    assert flag_r(binomial(51, 10) - 1, 10) == 50
    for k in (1, 2, 6):
        assert flag_r(1, k) == k


def test_flag_r_minimality_bruteforce():
    for k in range(1, 5):
        for m in range(1, 400):
            r = flag_r(m, k)
            assert r >= k
            assert m < binomial(r + 1, k)
            if r > k:
                assert m >= binomial(r, k)


def test_ordering_chain_sampled():
    rng = random.Random(55)
    for _ in range(300):
        k = rng.randint(2, 12)
        p = rng.randint(1, k - 1)
        m = max(1, int(math.exp(rng.uniform(0.0, math.log(1e8)))))
        nr = noreasy_bound(m, k, p)
        wr = withoutr_bound(m, k, p)
        lv = lovasz_bound(m, k, p)
        kk = shadow_bound(m, k, p)
        assert nr < wr * (1 + SLACK)
        assert wr < lv * (1 + SLACK)
        assert lv <= kk * (1 + SLACK)


def test_colorapprox_dominates_lovasz_when_best_r_applies():
    # the colored bound beats the root bound whenever r = n_k works,
    # with exact coincidence at full levels m = C(r, k)
    for r, k in ((6, 3), (9, 4), (12, 5), (10, 2)):
        base = binomial(r, k)
        top = base + binomial(r - 1, k - 1)
        for m in (base, base + 1, (base + top) // 2, top):
            if best_r(m, k) != r:
                continue
            for p in range(1, k):
                cb = colorapprox_bound(m, k, p, r)
                lv = lovasz_bound(m, k, p)
                assert cb >= lv * (1 - SLACK)
                if m == base:
                    assert cb == lv


def test_window_inequality_spot():
    # k=3, p=1, x=3: (3*2*1)^(1/3) < 3 - 1
    assert narrow_window_margin(3.0, 3, 1) > 0
    assert abs(narrow_window_margin(3.0, 3, 1) - (2 - 6 ** (1 / 3))) < 1e-12


def test_shift_inequality_spot():
    # p=2, x=2, c=1: sqrt(3*2) > sqrt(2*1) + 1
    assert shifted_root_margin(2.0, 2, 1.0) > 0
    assert abs(shifted_root_margin(2.0, 2, 1.0) - (math.sqrt(6) - math.sqrt(2) - 1)) < 1e-12


def test_shift_inequality_is_equality_at_p_one():
    # single factor: both sides are x + c, so strictness needs p >= 2
    assert shifted_root_margin(5.0, 1, 2.0) == pytest.approx(0.0, abs=1e-12)


def test_bound_report_fields():
    report = bound_report(11, 3, 2)
    assert report.kk_exact == 12
    assert report.withr_r == 5 and report.flag_r == 5
    assert report.noreasy < report.withoutr < report.lovasz <= report.kk_exact
    fixed = bound_report(11, 3, 2, r=7)
    assert fixed.withr_r == 7
    assert fixed.flag_r == 5
    with pytest.raises(ValueError):
        bound_report(11, 3, 2, r=2)
    with pytest.raises(ValueError):
        bound_report(0, 3, 2)


@pytest.mark.parametrize("k", [171, 400])
def test_power_law_bounds_beyond_float_factorial(k):
    # k! no longer fits in a float, so (k!)^(p/k) / p! comes from log-gamma.
    with mpmath.workdps(50):
        for p in (1, k // 2, k - 1):
            for m in (1, 5, 10**5, 10**40, 10**300):
                for got, want in ((noreasy_bound(m, k, p), reference.mp_noreasy(m, k, p)),
                                  (withoutr_bound(m, k, p), reference.mp_withoutr(m, k, p))):
                    assert abs(got - want) <= 1e-12 * want, (m, k, p, got)


def test_huge_k_takes_no_factorial_beyond_170(monkeypatch):
    # y = (k! m)^(1/k) comes from log-gamma beyond k = 170, where C(x, k) and
    # (k!)^(p/k) / p! stop taking k! too; math.factorial(10**6) alone takes
    # seconds.
    factorial = math.factorial

    def small_factorial(n):
        assert n <= 170, f"math.factorial({n})"
        return factorial(n)

    monkeypatch.setattr(math, "factorial", small_factorial)
    k, p, ms = 2000, 2, [10**30 - 1, 10**30, 10**30 + 1]
    rows = list(bound_reports(ms, k, p))
    assert rows == [bound_report(m, k, p) for m in ms]
    for row in rows:
        assert row.lovasz_x == lovasz_x(row.m, k) and row.withoutr == withoutr_bound(row.m, k, p)


def _accuracy_inputs(count):
    """count seeded (m, k, p, r): k <= 12 for 6 in 10, <= 80 for 3 and <= 500
    for 1; m up to 10**30, 10**300 or 10**1000; k <= r <= k + 60."""
    rng = random.Random(19)
    for _ in range(count):
        k = rng.choice(
            [rng.randint(2, 12)] * 6 + [rng.randint(13, 80)] * 3 + [rng.randint(81, 500)]
        )
        m = rng.randint(1, 10 ** rng.randint(1, rng.choice([30, 300, 1000])))
        yield m, k, rng.randint(1, k - 1), rng.randint(k, k + 60)


def _or_none(call, *args):
    try:
        return call(*args)
    except OverflowError:
        return None


def test_approximations_against_50_digit_references():
    # Each bound within a relative 2e-12 of its formula in 50-digit mpmath
    # (worst over these inputs: 7.7e-13 for noreasy and withoutr, whose
    # m^(p/k) is exp of a log up to 2300, and 1.5e-13 for colorapprox), and
    # lovasz_x within 2 ulps of the root (worst 0.82).  Each is finite
    # exactly where the 50-digit value fits in a float, and raises
    # OverflowError where it does not.
    worst, overflows = {}, 0
    with mpmath.workdps(50):
        for m, k, p, r in _accuracy_inputs(2000):
            for call, args, formula in (
                (noreasy_bound, (m, k, p), reference.mp_noreasy),
                (withoutr_bound, (m, k, p), reference.mp_withoutr),
                (colorapprox_bound, (m, k, p, r), reference.mp_colorapprox),
            ):
                got, want = _or_none(call, *args), formula(*args)
                assert (got is None) == (want > sys.float_info.max), (call.__name__, m, k, p, r)
                if got is None:
                    overflows += 1
                    continue
                error = float(abs(got - want) / want)
                worst[call.__name__] = max(worst.get(call.__name__, 0.0), error)
            # The root fits iff C(x, k) reaches m at the largest float, as C(x, k) increases.
            x, target = _or_none(lovasz_x, m, k), mpmath.factorial(k) * m
            fits = mpmath.fprod([mpmath.mpf(sys.float_info.max) - i for i in range(k)]) >= target
            assert (x is not None) == fits, (m, k)
            if x is None:
                overflows += 1
                continue
            # One 50-digit Newton step from x: within a relative 1e-31 of the root.
            shifted = [mpmath.mpf(x) - i for i in range(k)]
            g = mpmath.fprod(shifted) / target
            root = x - (g - 1) / (g * mpmath.fsum([1 / d for d in shifted]))
            worst["lovasz_x"] = max(worst.get("lovasz_x", 0.0), float(abs(x - root) / math.ulp(x)))
    assert overflows > 500, overflows
    assert max(worst["noreasy_bound"], worst["withoutr_bound"]) <= 2e-12, worst
    assert worst["colorapprox_bound"] <= 2e-12 and worst["lovasz_x"] <= 2, worst


# Beyond float range each approximation raises one OverflowError, worded as
# binom_real's; before, withoutr returned inf and the others "math range error".
def _too_large(call):
    return pytest.raises(OverflowError, match=rf"^{re.escape(call)} does not fit in a float$")


def test_withoutr_beyond_float_range_raises():
    with _too_large("withoutr_bound(m, 1000, 500)"):
        withoutr_bound(10**300, 1000, 500)
    # A row whose withoutr overflows reads it as inf and raises the named error
    # of its first column that does not fit, not a bare "Numerical result out of range".
    with _too_large("colorapprox_bound(m, 1000, 500, 1294)"):
        bound_report(10**300, 1000, 500)
    assert 1e9 < withoutr_bound(10**1000, 400, 2) < 1e10
    with _too_large("withoutr_bound(m, 3000, 1100)"):  # (k!)^(p/k) / p! alone does not fit
        withoutr_bound(1, 3000, 1100)
    with _too_large("withoutr_bound(m, 2, 1)"):  # so does (k! m)^(1/k)
        withoutr_bound(10**700, 2, 1)


def test_lovasz_bound_beyond_float_range_raises():
    # The root, about 1.43e45, fits and C(x, 7) does not: this raised
    # "binom_real(1.4321097559395298e+45, 7) does not fit in a float".
    with _too_large("lovasz_bound(m, 10, 7)"):
        lovasz_bound(10**445, 10, 7)
    with _too_large("lovasz_x(m, 2)"):  # the root itself does not fit
        lovasz_bound(10**700, 2, 1)
    # lovasz is the first column of this row that does not fit: flag and withr,
    # at r = n, still do, about 1.3e-13 below where they overflow.
    m = 123966065931675 * 10**425
    n = flag_r(m, 10)
    assert best_r(m, 10) == n and colorapprox_bound(m, 10, 7, n) < math.inf
    with _too_large("lovasz_bound(m, 10, 7)"):
        bound_report(m, 10, 7)
    with _too_large("lovasz_bound(m, 10, 7)"):
        lovasz_bound(m, 10, 7)


def test_noreasy_beyond_float_range_raises():
    with _too_large("noreasy_bound(m, 400, 200)"):
        noreasy_bound(10**1000, 400, 200)
    with _too_large("noreasy_bound(m, 2, 1)"):
        noreasy_bound(10**700, 2, 1)
    assert 1e9 < noreasy_bound(10**1000, 400, 2) < 1e10
    with _too_large("noreasy_bound(m, 3000, 1100)"):
        noreasy_bound(1, 3000, 1100)


def test_symmetric_chain_beyond_float_range_raises():
    # (1! f_0)^(1/1) = 10**400 does not fit; an inf in the chain would hide that.
    with _too_large("symmetric_chain(f)"):
        symmetric_chain(FaceVector((1, 10**400, 10**500)))


def test_colorapprox_where_the_ratio_is_below_normal_floats():
    # 1 / C(r, 550) is subnormal from r = 1040 and zero at r = 1100: the
    # power of the ratio loses digits, so the bound goes to log space.
    with mpmath.workdps(40):
        for r in (1040, 1060, 1070, 1080, 1100):
            got = colorapprox_bound(1, 550, 1, r)
            want = r / mpmath.binomial(r, 550) ** (mpmath.mpf(1) / 550)
            assert abs(got - want) <= 1e-12 * want, (r, got)
        assert bound_report(1, 550, 1, 1100).withr == colorapprox_bound(1, 550, 1, 1100)


def test_colorapprox_beyond_float_range_raises():
    with _too_large("colorapprox_bound(m, 400, 200, 500)"):
        colorapprox_bound(10**1000, 400, 200, 500)
    # C(2000, 1000) alone does not fit in a float, but the bound does.
    got = colorapprox_bound(1, 1500, 1000, 2000)
    with mpmath.workdps(50):
        want = mpmath.binomial(2000, 1000) / mpmath.binomial(2000, 1500) ** (mpmath.mpf(2) / 3)
        assert abs(got - want) <= 1e-12 * want


ARG = r"([0-9]{1,20}|<[0-9]+-bit int>)"  # in decimal below 2^64, else by its size
PUBLIC_TOO_LARGE = (
    r"^(lovasz_x|lovasz_bound|withoutr_bound|noreasy_bound|colorapprox_bound)"
    rf"\(m, {ARG}(, {ARG})*\) does not fit in a float$"
)
FLOAT_MAX = int(sys.float_info.max)


@st.composite
def huge_cases(draw):
    """(m, k, p, r): m near 2^1024 and beyond it up to 10**1100, k <= 600 with 170 and 171."""
    k = draw(st.one_of(st.integers(min_value=2, max_value=600), st.sampled_from([2, 170, 171])))
    p = draw(st.integers(min_value=1, max_value=k - 1))
    m = draw(
        st.one_of(
            st.integers(min_value=FLOAT_MAX - 2**980, max_value=FLOAT_MAX + 2**980),
            st.integers(min_value=2**1000, max_value=2**1030),
            st.integers(min_value=2**1024, max_value=10**1100),
        )
    )
    r = draw(st.one_of(st.none(), st.integers(min_value=k, max_value=k + 700)))
    return m, k, p, r


def _fits_or_names_its_function(call, *args):
    try:
        value = call(*args)
    except OverflowError as exc:
        assert re.fullmatch(PUBLIC_TOO_LARGE, str(exc)), (call.__name__, args, str(exc))
        return
    values = value[4:8] + value[9:10] + value[11:] if call is bound_report else (value,)
    assert all(map(math.isfinite, values)), (call.__name__, args, value)


@settings(max_examples=200, deadline=None)
@given(huge_cases())
@example((FLOAT_MAX, 2, 1, None))  # lovasz_x raised binom_real(1.8961503816218355e+154, 2)
@example((FLOAT_MAX, 171, 170, 171))
@example((10**445, 10, 7, None))
@example((123966065931675 * 10**425, 10, 7, None))  # a row whose lovasz column overflows first
@example((10**9000, 2, 1, None))  # str() of the row's flag r, 4500 digits, raised ValueError
@example((10**6000, 19, 1, None))  # a root start of exp(log(k! m) / k) raised "math range error"
def test_every_overflow_names_a_public_function(case):
    # Never binom_real(...), "math range error" or "int too large to convert to float".
    m, k, p, r = case
    _fits_or_names_its_function(bound_report, m, k, p, r)
    _fits_or_names_its_function(lovasz_x, m, k)
    _fits_or_names_its_function(lovasz_bound, m, k, p)
    _fits_or_names_its_function(withoutr_bound, m, k, p)
    _fits_or_names_its_function(noreasy_bound, m, k, p)
    _fits_or_names_its_function(colorapprox_bound, m, k, p, k if r is None else r)
