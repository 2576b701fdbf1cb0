"""The Lovasz root: bit-identical to its definition, cheap, and exact at large m.

reference.lovasz_root, the adjacent float pair straddling m found by
bisection on the float bits, is the definition every root is compared with;
given the kernel's root as a hint, it starts from 3 floats either side.
reference.mp_root, a 50-digit mpmath root, checks the roots themselves.
"""

import math
import random
import sys
import time

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kkbounds import (
    approx,
    binomials,
    cascade,
    best_r,
    binom_real,
    binomial,
    bound_report,
    bound_reports,
    cascade_decompose,
    colored_cascade_decompose,
    flag_r,
    lovasz_x,
    shadow_bound,
)
from kkbounds.grid import geometric_grid

import reference

MAX_MEAN_EVALUATIONS = 10


def _random_cases() -> list[tuple[int, int]]:
    rng = random.Random(31337)
    cases = []
    for k in (1, 2, 4, 7, 15, 25, 40):
        for _ in range(300):
            cases.append((rng.randint(1, 10**14), k))
            cases.append((max(1, int(math.exp(rng.uniform(0.0, math.log(1e14))))), k))
    return cases


CASE_SETS = {
    "k3_all_m_to_20000": [(m, 3) for m in range(1, 20_001)],
    "k10_paper_grid": [(m, 10) for m in geometric_grid(1, 12777711870, 2000)],
    "random_m_to_1e14": _random_cases(),
}


@pytest.mark.parametrize("name", sorted(CASE_SETS))
def test_bit_identical_to_bisection_in_few_evaluations(name, root_evaluations):
    cases = CASE_SETS[name]
    got, counts = root_evaluations(lovasz_x(m, k) for m, k in cases)
    expected = [reference.lovasz_root(m, k, x) for (m, k), x in zip(cases, got)]
    differ = [(m, k, e, g) for (m, k), e, g in zip(cases, expected, got) if e != g]
    assert not differ, differ[:5]
    assert sum(counts) / len(cases) <= MAX_MEAN_EVALUATIONS


def _ulps_off(x: float, m: int, k: int) -> float:
    with mpmath.workdps(50):
        return float(abs(mpmath.mpf(x) - reference.mp_root(m, k, x)) / math.ulp(x))


def test_large_m_root_within_two_ulps_of_mpmath():
    # A former bisection returned 1.4112170220256387e20 here, the end of its
    # bracket 7 ulps below the root: the upper end, from exp(log(k! m) / k),
    # had rounded below it.
    m = 9957667416274576305949578375064030571160
    assert binom_real(1.4112170220256387e20, 2) < m
    assert lovasz_x(m, 2) == reference.lovasz_root(m, 2) > 1.4112170220256387e20
    assert _ulps_off(lovasz_x(m, 2), m, 2) <= 2
    rng = random.Random(4242)
    for k in (2, 3, 5, 10):
        for exponent in (*range(1, 301, 3), 300):
            m = int(mpmath.mpf(10) ** (exponent - rng.random()))
            x = lovasz_x(m, k)
            assert x == reference.lovasz_root(m, k) and _ulps_off(x, m, k) <= 2, (m, k, x)


def test_root_for_m_beyond_float_range():
    # From m = 2**1024 on float(m) overflows, and the root solves
    # C(x, k) / C(n, k) = m / C(n, k) instead; it raises only where the root,
    # at least (k! m)^(1/k) and below that plus k, does not fit in a float.
    rng = random.Random(1024)
    cases = [(10**320, 10), (2**1024, 2), (2**1024 + 1, 600), (10**616, 2), (10**617, 2)]
    for _ in range(40):
        k = rng.choice([2, 3, 10, 50, 170, 171, 600])
        cases.append((rng.randint(2**1024, 10 ** rng.randint(309, 1200)), k))
    fitted = 0
    for m, k in cases:
        try:
            x = lovasz_x(m, k)
        except OverflowError:
            with mpmath.workdps(30):
                low = (mpmath.factorial(k) * m) ** (mpmath.mpf(1) / k)
                assert low + k > sys.float_info.max and reference.lovasz_root(m, k) == math.inf
            continue
        fitted += 1
        assert x == reference.lovasz_root(m, k, x) and _ulps_off(x, m, k) <= 1, (m, k, x)
    assert fitted >= 30
    # Sweep rows, their levels carried over from the row before, equal
    # one-row bound_reports here too.
    ms = [10**320 + i for i in range(3)] + [10**320 + i * 10**300 for i in range(1, 4)]
    assert list(bound_reports(ms, 10, 7)) == [bound_report(m, 10, 7) for m in ms]


def test_root_near_the_top_of_float_range(root_evaluations):
    # The stopping tolerance m * k * 2e-16 overflowed to inf where m k > 1.8e308,
    # so Newton stopped at its first evaluation and the ulp walk crawled to the
    # root: lovasz_x(10**306 + 12345, 557) ran for minutes.  At the largest
    # float m the ulp walk meets floats whose C(x, k) does not fit, and raised.
    rng = random.Random(1308)
    cases = [(10**306 + 12345, 557), (10**307, 200), (int(1.7e308), 1500)]
    cases += [(int(sys.float_info.max), k) for k in (2, 171, 200)]
    for k in (2, 10, 170, 171, 557, 1000, 1500):
        cases.append((int(mpmath.mpf(10) ** rng.uniform(300, 308.23)), k))
    got, _ = root_evaluations((lovasz_x(m, k) for m, k in cases), most=16)
    for (m, k), x in zip(cases, got):
        assert _ulps_off(x, m, k) <= 2, (m, k, x)


def test_root_at_large_k_in_few_evaluations(root_evaluations):
    # C(x, k) in floats carries about k ulps of error, which past k ~ 300 can
    # exceed the stopping tolerance: Newton reached the root and went on, its
    # step below an ulp fell on the bracket's end, and the search bisected,
    # 11.0 evaluations a call here.  A step that leaves x unchanged now ends
    # the search: 6.0 a call, each root still the reference's bit for bit.
    rng = random.Random(5)
    cases = []
    for _ in range(40):
        k = rng.randint(300, 600)
        cases.append((rng.randint(1, 10**30), k))
    got, counts = root_evaluations(lovasz_x(m, k) for m, k in cases)
    assert got == [reference.lovasz_root(m, k, x) for (m, k), x in zip(cases, got)]
    assert sum(counts) / len(cases) <= 6.5, sum(counts)


def _start(m, k):
    """The root's series start, at the y of approx._lead, as lovasz_x takes it."""
    return approx._series_start(*approx._lead(m, k), approx._series_at(k))


def test_root_equals_the_reference_root_on_40000_inputs():
    # The root from the kernel's start is the reference's.  40000 seeded inputs, k <= 500 (above
    # 80 for a twentieth) and m up to about 10**300 or 10**1000, drawn by their
    # leading index n, C(n, k) <= m < C(n+1, k), and for a fifth within 3 of an end.
    rng = random.Random(20261019)
    differ = []
    for _ in range(40000):
        k = rng.choice(
            [rng.randint(1, 12)] * 12 + [rng.randint(13, 80)] * 7 + [rng.randint(81, 500)]
        )
        top = rng.choice([300, 1000])  # m up to about 10**top; float(m) overflows from 10**308.6
        digits = int((top + math.lgamma(k + 1) / math.log(10)) / k)  # of n at m = 10**top
        n = k + rng.randint(0, 10 ** rng.randint(0, digits))
        c, gap = binomial(n, k), binomial(n, k - 1)  # C(n+1, k) - C(n, k) = C(n, k-1)
        if rng.random() < 0.2:
            m = rng.choice([c, c + gap]) + rng.randint(-3, 3)
            m = min(max(m, c), c + gap - 1)
        else:
            m = c + rng.randrange(gap)
        f, slope = binomials._binom_real_at(k), approx._slope_at(k)
        x = approx._lovasz_root(m, k, n, c, f, slope, _start(m, k))
        if x != reference.lovasz_root(m, k, x):
            differ.append((m, k))
    assert not differ, differ[:5]


@pytest.mark.parametrize("k", [2, 3, 5, 10, 25, 70, 170, 171, 400])
def test_cold_start_is_accurate(k):
    # The six-term series start against a 50-digit root: within a relative
    # 1e-12 where y = (k! m)^(1/k) >= 2k and 1e-8 where k <= y < 2k.  Its first
    # term alone is off by up to 2.6e-5 and 3.5e-4 there.  Its y, from the
    # exact k! m to k = 170 and from log-gamma beyond, is within 1e-14.
    rng = random.Random(k)
    with mpmath.workdps(50):
        fact = mpmath.factorial(k)
        for i in range(30):
            # y/k from 1 to 2 for a third of m, else from 2 to 10**12.
            ratio = rng.uniform(1, 2) if i % 3 == 0 else math.exp(rng.uniform(0.7, 27.7))
            m = int(mpmath.mpf(k * ratio) ** k / fact) + 1
            y = (fact * m) ** (mpmath.mpf(1) / k)
            start = _start(m, k)
            root = reference.mp_root(m, k, start)
            off = abs(start - root) / root
            assert off <= (1e-12 if y >= 2 * k else 1e-8), (m, k, float(y / k), float(off))
            assert abs(approx._lead(m, k)[0] - y) / y <= 1e-14, (m, k)


@pytest.mark.parametrize("k", [2, 3, 5, 10])
def test_root_when_the_bracket_collapses_above_2_53(k):
    n = 2**53 + 12344
    assert float(n) == float(n + 1)
    for m in (binomial(n, k) + 1, binomial(n, k) + binomial(n, k - 1) // 2, binomial(n + 1, k) - 1):
        assert cascade_decompose(m, k).terms[0][0] == n
        x = lovasz_x(m, k)
        assert _ulps_off(x, m, k) <= 2, (m, k, x)
    assert lovasz_x(binomial(n, k), k) == float(n)


def test_overflow_still_raises():
    # Large k: the product x(x-1)...(x-k+1), or k! itself, overflows a float
    # although C(x, k) fits, so binom_real falls back to a running quotient.
    assert 172 < lovasz_x(10**5, 170) < 173
    assert 400 < lovasz_x(5, 400) < 401
    rng = random.Random(170400)
    for k in (170, 400):
        drawn = [rng.randint(2, 10 ** rng.randint(1, 300)) for _ in range(8)]
        for m in (2, 5, 10**5, 10**40, 10**300, *drawn):
            x = lovasz_x(m, k)
            assert _ulps_off(x, m, k) <= 2, (m, k, x)
    with pytest.raises(OverflowError, match=r"^lovasz_x\(m, 2\) does not fit in a float$"):
        lovasz_x(10**700, 2)  # the root, about 1.4e350, does not fit


def test_bound_report_builds_one_cascade(monkeypatch):
    # One call runs the greedy once, from no levels: one descent, whose top
    # level j = k comes from a Pascal column or from an index search.  It
    # makes no lookup of its own (flag_r, best_r and lovasz_x each make one
    # through approx._descend).
    descents = searches = own = 0
    greedy, search, descend = cascade._greedy, cascade._max_index, cascade._descend

    def counted_greedy(levels, *args):
        nonlocal descents
        descents += not levels
        return greedy(levels, *args)

    def counted_search(m, j, c):
        nonlocal searches
        searches += j == k
        return search(m, j, c)

    def counted_own(rem, j, *above):
        nonlocal own
        own += 1
        return descend(rem, j, *above)

    monkeypatch.setattr(cascade, "_greedy", counted_greedy)
    monkeypatch.setattr(approx, "_greedy", counted_greedy)
    monkeypatch.setattr(cascade, "_max_index", counted_search)
    monkeypatch.setattr(approx, "_descend", counted_own)
    rng = random.Random(7)
    hits = 0
    for _ in range(200):
        k = rng.randint(2, 12)
        m = rng.randint(1, 10**12)
        before = descents, searches, own
        report = bound_report(m, k, k - 1)
        made = descents - before[0], searches - before[1], own - before[2]
        assert made in ((1, 0, 0), (1, 1, 0)), (m, k, made)
        hits += made[1] == 0
        assert report.kk_exact == shadow_bound(m, k, k - 1)
        assert report.flag_r == flag_r(m, k)
        assert report.withr_r == best_r(m, k)
        assert report.lovasz_x == lovasz_x(m, k)
    assert 0 < hits < 200  # both ways to the top level are taken


def test_cold_bound_report_seeded_searches_per_call(monkeypatch):
    # Below 2^64, a plain level at 3 <= j <= 64 whose remainder lies in its
    # Pascal column takes its index from one bisection.  Every level of the
    # paper grid does, so a cold row makes no float-seeded search at j >= 3
    # (7.6 a row with a search at every level).
    seeded = 0
    real = cascade._max_index

    def counted(m, j, c):
        nonlocal seeded
        seeded += j >= 3
        return real(m, j, c)

    monkeypatch.setattr(cascade, "_max_index", counted)
    for m in geometric_grid(1, 12777711870, 2000):
        bound_report(m, 10, 7)
    assert seeded == 0


def test_cascades_are_not_cached():
    for fn in (cascade_decompose, colored_cascade_decompose):
        assert not hasattr(fn, "cache_info")


def test_evaluator_cache_is_bounded():
    cached = (approx._binom_real_at, approx._slope_at, approx._series_at, approx._power_lead,
              approx._constants)
    for function in cached:
        assert function.cache_parameters()["maxsize"] == 256
    # One _power_lead entry serves withoutr_bound, noreasy_bound and bound_report alike.
    approx._power_lead.cache_clear()
    approx._constants.cache_clear()
    for k in range(2, 300):
        approx.withoutr_bound(10, k, 1), approx.noreasy_bound(10, k, 1), bound_report(10, k, 1)
    lead, constants = approx._power_lead.cache_info(), approx._constants.cache_info()
    assert (lead.misses, lead.hits, lead.currsize) == (298, 596, 256)
    assert (constants.misses, constants.hits, constants.currsize) == (298, 0, 256)


def test_a_row_takes_its_setup_in_one_cached_call():
    # _constants(k, p, r) holds the power lead, the series, the evaluators of
    # C(x, k) and C(x, p), the root's slope, the fixed-r triple and the fast
    # path's 1/k, p/k, k! and largest m: one cached call a one-shot row, and
    # one a sweep.
    approx._constants.cache_clear()
    for m in (5, 10**6, 10**20):
        bound_report(m, 10, 7), bound_report(m, 10, 7, 12)
    list(bound_reports(range(1, 50), 10, 7, 12))
    info = approx._constants.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 5, 2)
    lead, series, evaluate, slope, lovasz_at, fixed, *fast = approx._constants(10, 7, 12)
    assert (lead, series) == (approx._power_lead(10, 7), approx._series_at(10))
    assert (evaluate, slope, lovasz_at) == (
        approx._binom_real_at(10), approx._slope_at(10), approx._binom_real_at(7)
    )
    assert fixed == (12, binomial(12, 7), binomial(12, 10))
    most = (2**53 - 1) // math.factorial(10)
    assert fast == [1 / 10, 7 / 10, math.factorial(10), most]
    assert math.factorial(10) * most < 2**53 <= math.factorial(10) * (most + 1)
    assert approx._constants(10, 7, None)[5] is None
    # From k = 19 on, k! m >= 2^53 for every m: no fast path, and no k! taken.
    assert approx._constants(18, 7, None)[-1] == 1
    assert approx._constants(19, 7, None)[-2:] == approx._constants(400, 7, None)[-2:] == (None, 0)


def test_power_bounds_build_no_evaluator(monkeypatch):
    # withoutr_bound and noreasy_bound take (k!)^(p/k) / p! from _power_lead
    # alone: at k = 10**7 and 10**8 they build no series and no evaluator,
    # whose _ratio_at(k, k) would hold k float pairs, and take constant time.
    def refuse(*args):
        raise AssertionError("a power bound built a row input")

    for module, name in ((binomials, "_ratio_at"), (approx, "_binom_real_at"),
                         (approx, "_slope_at"), (approx, "_series_at"), (approx, "_constants")):
        monkeypatch.setattr(module, name, refuse)
    start = time.perf_counter()
    for k in (10**7, 10**8):
        lead = math.exp(math.lgamma(k + 1) / k)  # (k!)^(1/k), at p = 1 also the root's y
        assert math.isclose(approx.noreasy_bound(1, k, 1), lead, rel_tol=1e-12)
        withoutr = lead * (1 + (k - 1) / (2 * lead))
        assert math.isclose(approx.withoutr_bound(1, k, 1), withoutr, rel_tol=1e-12)
    assert time.perf_counter() - start < 1.0


KS = st.one_of(st.integers(min_value=1, max_value=40), st.sampled_from([170, 171, 400]))


def _outcome(evaluate, x):
    try:
        return evaluate(x).hex()
    except OverflowError:
        return "OverflowError"


@settings(max_examples=500, deadline=None)
@given(st.data(), KS)
def test_fixed_k_evaluator_is_binom_real_bit_for_bit(data, k):
    x = data.draw(
        st.one_of(
            st.floats(min_value=k - 1, max_value=k + 50, exclude_min=True),
            st.floats(min_value=k - 1, max_value=1e20, exclude_min=True),
            st.floats(min_value=k - 1, max_value=1e300, exclude_min=True),
        )
    )
    # The private evaluator reads inf where the public binom_real raises.
    want = reference.binom_real(x, k).hex()
    assert _outcome(lambda y: binom_real(y, k), x) == ("OverflowError" if want == "inf" else want)
    assert approx._binom_real_at(k)(x).hex() == want


@settings(max_examples=500, deadline=None)
@given(st.data(), st.one_of(st.integers(min_value=1, max_value=170), st.sampled_from([171, 400])))
def test_generated_newton_slope_is_the_loop_bit_for_bit(data, k):
    # Generated code to k = 170, the loop beyond; x from just above k - 1,
    # where 1/(x - (k-1)) is largest, to 2^60.
    x = data.draw(
        st.one_of(
            st.floats(min_value=k - 1, max_value=k - 1 + 1e-6, exclude_min=True),
            st.floats(min_value=k - 1, max_value=k + 50, exclude_min=True),
            st.floats(min_value=k - 1, max_value=2.0**60, exclude_min=True),
        )
    )
    assert approx._slope_at(k)(x).hex() == reference.newton_slope(x, k).hex()


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.integers(min_value=1, max_value=10**6),
        st.integers(min_value=1, max_value=10**15),
        st.integers(min_value=1, max_value=10**300),
    ),
    KS,
)
def test_root_is_the_rule_applied_to_the_unique_straddling_pair(m, k):
    assert lovasz_x(m, k) == reference.lovasz_root(m, k)  # from the whole float range


@st.composite
def root_inputs(draw):
    """(m, k): m anywhere up to 10**300, or within 3 of some C(n, k), where
    the closed-form start can fall outside (n, n+1)."""
    k = draw(KS)
    if draw(st.booleans()):
        n = draw(st.integers(min_value=k, max_value=k + 10**draw(st.integers(0, 6))))
        return max(1, binomial(n, k) + draw(st.integers(min_value=-3, max_value=3))), k
    top = draw(st.sampled_from([10**6, 10**15, 10**300]))
    return draw(st.integers(min_value=1, max_value=top)), k


@settings(max_examples=300, deadline=None)
@given(root_inputs(), st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=3))
# k > 170, where k! does not fit in a float: the closed-form start lies in
# (n, n+1) at k = 171 and 400 here, and below n at k = 1500.
@example((10**100 + 12345, 171), [0.5])
@example((10**305 + 12345, 400), [0.5])
@example((10**300 + 12345, 1500), [0.5])
def test_root_does_not_depend_on_its_start(case, fractions):
    m, k = case
    n, c, _ = approx._descend(m, k)
    f, slope = approx._binom_real_at(k), approx._slope_at(k)

    def outcome(start):
        try:
            return approx._lovasz_root(m, k, n, c, f, slope, start).hex()
        except OverflowError as exc:  # an evaluation beyond float range
            return repr(exc)

    expected = outcome(_start(m, k))
    for start in [n + t for t in fractions]:
        assert outcome(start) == expected, (m, k, start)
