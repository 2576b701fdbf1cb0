"""The sweep kernel: cascade levels carried over increasing m, bound_reports equal
to row-by-row bound_report, and sweep rows written as they are computed."""

import io
import json
import math
import random
import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kkbounds import (
    BoundReport,
    CascadeRep,
    best_r,
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
    withoutr_bound,
)
from kkbounds import approx, cli
from kkbounds.cascade import _greedy
from kkbounds.cli import EXIT_OK, EXIT_USAGE, main
from kkbounds.grid import geometric_grid, linear_grid

import reference

M_MAX = 10**15


def _public_row(m, k, p, r=None):
    """The row of the public functions, or the message of the first to overflow.

    They are called in the order in which bound_reports checks the columns.
    lovasz_x fits wherever flag does: the root lies in [n, n+1], and
    flag >= C(n, p) >= n.
    """
    try:
        n, withr_r = flag_r(m, k), r if r is not None else best_r(m, k)
        flag = colorapprox_bound(m, k, p, n)
        withr = colorapprox_bound(m, k, p, withr_r)
        x = lovasz_x(m, k)
        lovasz = lovasz_bound(m, k, p)
        withoutr = withoutr_bound(m, k, p)
        noreasy = noreasy_bound(m, k, p)
    except OverflowError as exc:
        return str(exc)
    kk_exact = shadow_bound(m, k, p)
    return BoundReport(m, k, p, kk_exact, x, lovasz, withoutr, noreasy, withr_r, withr, n, flag)


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@st.composite
def increasing_runs(draw):
    """k <= 12 and a strictly increasing list of m <= 10**15 that crosses cascade boundaries."""
    k = draw(st.integers(min_value=1, max_value=12))
    n_top = cascade_decompose(M_MAX, k).terms[0][0]
    anchors = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        n = draw(st.integers(min_value=k, max_value=n_top))
        anchors.append(binomial(n, k))  # a one-term cascade: every level below changes
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        m = draw(st.integers(min_value=1, max_value=M_MAX))
        total = 0
        for n, j in cascade_decompose(m, k).terms:
            total += binomial(n, j)
            anchors.append(total)  # where the cascade gains or changes a lower term
    ms = set(draw(st.lists(st.integers(min_value=1, max_value=M_MAX), max_size=20)))
    for anchor in anchors:
        width = draw(st.integers(min_value=0, max_value=3))
        ms.update(range(anchor - width, anchor + width + 1))
    return k, sorted(m for m in ms if 1 <= m <= M_MAX)


def _carry(levels, m, k, p):
    """Run the greedy on the levels of the m before and check them against a fresh cascade.

    cascade_decompose runs the same greedy from no levels, so the cascade is
    also checked against reference.greedy, which shares no code with either.
    """
    rep = cascade_decompose(m, k)
    assert rep.terms == reference.greedy(m, k), (m, k)
    shadow = reference.shadow(rep.terms, k, p)
    _greedy(levels, m, k, k - p, None)
    assert (levels[0][0], levels[-1][4]) == (rep.terms[0][0], shadow), (m, k, p)
    assert CascadeRep._of_levels(k, levels) == rep, (m, k)


@settings(max_examples=300, deadline=None)
@given(increasing_runs(), st.data())
def test_cursor_cascades_equal_decompose(case, data):
    k, ms = case
    p = data.draw(st.integers(min_value=0, max_value=k))  # p = k carries m itself
    levels = []  # no levels: the first m builds the first cascade
    for m in ms:
        _carry(levels, m, k, p)


def test_cursor_runs_through_every_m():
    for k in (2, 3, 5):
        for p in range(1, k):
            levels = []
            for m in range(1, 5000):
                _carry(levels, m, k, p)


# Corruptions of a carried level (n, j, C(n, j), C(n+1, j), shadow) at
# k = 3 after which a later cascade needs a level that breaks the cascade's
# order, or cannot reach m.
def _top_stale_next_binomial(levels):
    n, j, value, above, shadow = levels[0]
    levels[0] = (n, j, value, above + 1000, shadow)  # C(n+1, 3) too large: the top cannot grow


def _top_short_binomial(levels):
    n, j, value, above, shadow = levels[0]
    levels[0] = (n, j, value - 200, above, shadow)  # C(n, 3) too small: the level below outgrows it


def _last_stale_next_binomial(levels):
    n, j, value, above, shadow = levels[-1]
    levels[-1] = (n, j, value, above + 1000, shadow)  # C(n+1, 1) too large: j = 1 cannot reach m


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_top_stale_next_binomial, "not within"),
        (_top_short_binomial, "not within"),
        (_last_stale_next_binomial, "do not sum"),
    ],
)
def test_cursor_rejects_a_corrupted_level(corrupt, message):
    k, m = 3, binomial(20, 3) - 5  # 1135 = C(19,3) + C(18,2) + C(13,1)
    levels = _greedy([], m, k, 1, None)
    corrupt(levels)
    with pytest.raises(ValueError, match=message):
        for m in range(m + 1, binomial(21, 3)):
            _greedy(levels, m, k, 1, None)
            assert CascadeRep._of_levels(k, levels) == cascade_decompose(m, k), m


def test_cursor_checks_a_kept_level_by_a_fresh_search():
    # The first level made below the kept ones is searched afresh, not walked
    # down from the kept level above it, so a kept C(25, 9) short by
    # C(25, 8) - 1 leaves a remainder whose level outgrows it: the walk could
    # not see that.
    k, m = 10, binomial(30, 10) + binomial(25, 9)
    levels = _greedy([], m, k, 3, None)
    n, j, value, above, shadow = levels[1]
    assert (n, j) == (25, 9)
    levels[1] = (n, j, value - binomial(25, 8) + 1, above, shadow)
    with pytest.raises(ValueError, match="not within"):
        _greedy(levels, m + 1, k, 3, None)


SWEEPS = {
    "dense_k3": ([*range(1, 3001)], 3, 2),
    "paper_k10": (geometric_grid(1, 12777711870, 400), 10, 7),
    "k2_to_1e15": (geometric_grid(1, M_MAX, 300), 2, 1),
    "k12_to_1e15": (geometric_grid(1, M_MAX, 300), 12, 5),
    "k4_to_1e300": (geometric_grid(1, 10**300, 150), 4, 3),
}


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_bound_reports_equal_public_rows(name):
    # The rows of the public functions, one call a column.
    ms, k, p = SWEEPS[name]
    assert list(bound_reports(ms, k, p)) == [_public_row(m, k, p) for m in ms]
    r = k + 7
    assert list(bound_reports(ms, k, p, r)) == [_public_row(m, k, p, r) for m in ms]


@st.composite
def wide_rows(draw):
    """(m, k, p, r): k <= 1500 and m <= 10**300.  Columns overflow mostly at
    k above 1000, where C(r, p) outgrows floats, and m above 10**150."""
    k = draw(st.one_of(st.integers(min_value=2, max_value=1500), st.integers(1000, 1500)))
    p = draw(st.integers(min_value=1, max_value=k - 1))
    digits = draw(st.one_of(st.integers(min_value=1, max_value=300), st.integers(150, 300)))
    m = draw(st.integers(min_value=1, max_value=10**digits))
    r = draw(st.one_of(st.none(), st.integers(min_value=k, max_value=k + 700)))
    return m, k, p, r


@settings(max_examples=150, deadline=None)
@given(wide_rows())
@example((10**6, 2000, 1000, None))  # flag, at r = 2001, is the first column that overflows
def test_row_overflows_as_the_public_functions_do(case):
    # A flag or withr column that overflows names colorapprox_bound; a kernel
    # without the check raised "math range error" in 70 of 300 random rows
    # with k <= 1500 and m <= 10**300.
    try:
        row = bound_report(*case)
    except OverflowError as exc:
        row = str(exc)
    assert row == _public_row(*case)


def _seeded_rows(count):
    """count seeded (m, k, p, r): most with k <= 12 and m <= 10**30, one in 50
    with m up to 10**1100 and one in 200 with k up to 600, rows that cost
    about 7 and 60 times as much."""
    rng = random.Random(18)
    for i in range(count):
        k = rng.randint(13, 600) if i % 200 == 0 else rng.randint(2, 12)
        digits = rng.randint(31, 1100) if i % 50 == 1 else rng.randint(1, 30)
        r = rng.randint(k, k + 60) if rng.random() < 0.2 else None
        yield rng.randint(1, 10**digits), k, rng.randint(1, k - 1), r


def test_seeded_rows_equal_the_public_functions():
    # Every row, or the message of its overflow, over 40000 seeded inputs.
    overflows = 0
    for case in _seeded_rows(40000):
        try:
            row = bound_report(*case)
        except OverflowError as exc:
            row, overflows = str(exc), overflows + 1
        assert row == _public_row(*case), case
    assert overflows > 100, overflows


@st.composite
def warm_runs(draw):
    """k, p < k and a strictly increasing list of m: runs of consecutive m,
    jumps across C(n, k), and m up to 10**300.  k > 170 evaluates through
    binom_real's fallback."""
    k = draw(st.one_of(st.integers(min_value=2, max_value=12), st.integers(171, 200)))
    p = draw(st.integers(min_value=1, max_value=k - 1))
    top = draw(st.sampled_from([10**6, 10**15, 10**300]))
    ms = set(draw(st.lists(st.integers(min_value=1, max_value=top), max_size=6)))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        m = draw(st.integers(min_value=1, max_value=top))
        ms.update(range(m, m + draw(st.integers(min_value=1, max_value=8))))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        n = cascade_decompose(draw(st.integers(min_value=1, max_value=top)), k).terms[0][0]
        ms.update(range(max(1, binomial(n, k) - 2), binomial(n, k) + 3))
    return k, p, sorted(ms)


@settings(max_examples=150, deadline=None)
@given(warm_runs())
def test_warm_rows_equal_cold_rows(case):
    k, p, ms = case
    # Rows compare field by field, their floats by ==.
    assert list(bound_reports(ms, k, p)) == [bound_report(m, k, p) for m in ms]


@pytest.mark.parametrize(
    "ms, k, p, most",
    [
        (range(1, 20001), 3, 2, 2.15),
        (geometric_grid(1, 12777711870, 400), 10, 7, 3.05),
    ],
)
def test_sweep_root_evaluations_per_row(root_evaluations, ms, k, p, most):
    # A sweep row starts its root as a cold bound_report row does, from the
    # series at its own centred y = (k! m)^(1/k), the y withoutr takes, so the
    # two take the same evaluations row by row: 2.09 a row at k = 3 (2.61 and
    # 2.71 before the centring) and 3.02 on this 400-point paper grid.
    _, sweep = root_evaluations(bound_reports(ms, k, p))
    _, cold = root_evaluations(bound_report(m, k, p) for m in ms)
    assert sweep == cold and sum(cold) / len(cold) <= most


def test_centred_series_start_within_an_ulp_of_the_root():
    # float(1/3) < 1/3, so float(6 m) ** (1/3) is 1-2 ulps low, and so is the
    # series start from it; centred by 1 + δ ln 2 (6 m).bit_length(),
    # δ = 1/3 - float(1/3), it is within an ulp of the root in 99.7% of rows.
    series, near, near_uncentred = approx._series_at(3), 0, 0
    ms = range(1, 100001)
    for m, row in zip(ms, bound_reports(ms, 3, 2)):
        (y, bits), ulp = approx._lead(m, 3), math.ulp(row.lovasz_x)
        near += abs(approx._series_start(y, bits, series) - row.lovasz_x) <= ulp
        uncentred = approx._series_start(y, 54, series)  # 54 bits: taken as unbiased
        near_uncentred += abs(uncentred - row.lovasz_x) <= ulp
    assert near >= 0.95 * len(ms) and near_uncentred <= 0.75 * len(ms), (near, near_uncentred)


@pytest.mark.parametrize(
    "ms, k, most",
    [
        (range(1, 20001), 3, 3.05),
        (geometric_grid(1, 12777711870, 2000), 10, 4.7),
        (range(1, 20001), 3, 2.75),
        (geometric_grid(1, 12777711870, 2000), 10, 3.05),
        (range(1, 20001), 3, 2.15),
    ],
)
def test_cold_root_evaluations_per_call(root_evaluations, ms, k, most):
    # From the six-term series start: 2.71 at k = 3 and 3.01 on the paper's
    # grid (3.01 and 4.63 from its first term alone, 4.55 and 5.50 from the
    # regula falsi start alone), and 2.09 and 2.94 once its y is centred for
    # the rounding of float(1/k).  The first two cases hold the first-term
    # start's ceilings, the next two the series start's, the last the
    # centred start's.
    _, counts = root_evaluations(lovasz_x(m, k) for m in ms)
    assert sum(counts) / len(counts) <= most


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("mode", ["auto-best", "auto-flag", "fixed", "off"])
def test_sweep_output_is_the_public_rows_in_every_r_mode(capsys, mode, fmt):
    # The r-mode's substitution is made here: auto-flag shows flag_r and flag
    # in the withr cells, and off blanks the four r-dependent cells.
    ms, k, p = SWEEPS["paper_k10"]
    fixed_r = 60 if mode == "fixed" else None
    argv = ["sweep", "--k", "10", "--p", "7", "--m-end", "12777711870", "--samples", "400"]
    argv += ["--r-mode", mode, "--format", fmt] + (["--r", "60"] if fixed_r else [])
    code, out, err = _run(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    rows = []
    for report in (_public_row(m, k, p, fixed_r) for m in ms):
        row = {c: getattr(report, c) for c in cli.SWEEP_COLUMNS}
        if mode == "auto-flag":
            row.update(withr_r=report.flag_r, withr=report.flag)
        if mode == "off":
            row.update(withr_r=None, withr=None, flag_r=None, flag=None)
        rows.append(row)
    if fmt == "json":
        expected, row_end = json.dumps(rows) + "\n", "}, {"
    else:
        lines = [",".join(cli.SWEEP_COLUMNS)]
        lines += [",".join(cli._fmt(value) for value in row.values()) for row in rows]
        expected, row_end = "\n".join(lines) + "\n", "\n"
    # Split into rows, so that a failure shows the first row that differs.
    assert out.split(row_end) == expected.split(row_end)


def test_bound_report_is_the_one_row_case():
    for m, k, p, r in ((11, 3, 2, None), (binomial(50, 10), 10, 7, None), (10**40, 5, 2, 9)):
        assert bound_report(m, k, p, r) == _public_row(m, k, p, r)
        assert [bound_report(m, k, p, r)] == list(bound_reports([m], k, p, r))
    assert list(bound_reports([], 3, 2)) == []


def test_bound_report_builds_no_cursor_and_no_generator(monkeypatch):
    # A one-shot row runs the greedy once, from no levels, and then the row
    # function.
    calls, greedy = [], approx._greedy

    def counted(levels, *args):
        calls.append(len(levels))
        return greedy(levels, *args)

    def refuse(*args):
        raise AssertionError("bound_report built a generator")

    monkeypatch.setattr(approx, "_greedy", counted)
    monkeypatch.setattr(approx, "bound_reports", refuse)
    cases = [(m, k, p, r) for ms, k, p in SWEEPS.values() for m in ms for r in (None, k + 7)]
    cases.append((10**6, 2000, 1000, None))  # flag, at r = 2001, overflows
    for case in cases:
        calls.clear()
        try:
            row = bound_report(*case)
        except OverflowError as exc:
            row = str(exc)
        assert calls == [0], (case, calls)
        assert row == _public_row(*case), case


@pytest.mark.parametrize("ms", [[5, 5], [5, 4], [1, 2, 3, 3], [10, 20, 15]])
def test_non_increasing_ms_raise(ms):
    rows = bound_reports(ms, 3, 2)
    with pytest.raises(ValueError, match="increase strictly"):
        for _ in rows:
            pass


def test_arguments_checked_in_bound_report_order():
    with pytest.raises(ValueError, match=r"^m must be >= 1, got 0$"):
        next(bound_reports([0, 1], 0, 0, -1))
    with pytest.raises(ValueError, match=r"^k must be >= 1, got 0$"):
        next(bound_reports([1, 2], 0, 0, -1))
    with pytest.raises(ValueError, match=r"^need 1 <= p < k, got p=3, k=3$"):
        next(bound_reports([1, 2], 3, 3, 2))
    with pytest.raises(ValueError, match=r"^need k <= r, got k=3, r=2$"):
        next(bound_reports([1, 2], 3, 2, 2))


def test_first_row_written_before_last_row_is_computed(monkeypatch):
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    written_before_last = []
    real = cli.bound_reports

    def watched(ms, k, p, r=None):
        ms = list(ms)
        yield from real(ms[:-1], k, p, r)
        written_before_last.append(out.getvalue())
        yield from real(ms[-1:], k, p, r)

    monkeypatch.setattr(cli, "bound_reports", watched)
    assert main(["sweep", "--k", "3", "--p", "2", "--m-end", "50", "--samples", "all"]) == EXIT_OK
    header, first = out.getvalue().splitlines()[:2]
    assert written_before_last[0].startswith(f"{header}\n{first}\n")
    assert first.startswith("1,")


def _first_failing_m(lo, hi, k, p):
    """The m in (lo, hi] from which bound_report(m, k, p) raises, by bisection."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            bound_report(mid, k, p)
            lo = mid
        except OverflowError:
            hi = mid
    return hi


# At k = 10, p = 7 the bounds, about m^0.7, exceed the largest float from
# about m = 10**440 on, and the row raises the error of the first that does.
TOO_LARGE = r"error: \w+\([^()]+\) does not fit in a float\n"


def test_failing_sweep_keeps_the_rows_before_the_failure(capsys):
    first_bad = _first_failing_m(10**430, 10**450, 10, 7)
    argv = (
        "sweep", "--k", "10", "--p", "7", "--m-start", str(first_bad - 2),
        "--m-end", str(first_bad), "--samples", "all",
    )
    code, out, err = _run(capsys, *argv)
    assert code == EXIT_USAGE
    assert re.fullmatch(TOO_LARGE, err)
    lines = out.splitlines()
    assert lines[0] == ",".join(cli.SWEEP_COLUMNS)
    assert [line.split(",")[0] for line in lines[1:]] == [str(first_bad - 2), str(first_bad - 1)]
    code, out, err = _run(capsys, *argv, "--format", "json")
    assert code == EXIT_USAGE and err.startswith("error: ")
    assert out.startswith("[{") and not out.endswith("]\n")  # an unterminated array
    # A grid reaching beyond the bounds' float range: the rows below first_bad are written.
    argv = ("sweep", "--k", "10", "--p", "7", "--m-end", str(10**450), "--samples", "5")
    for spacing, written in (((), 4), (("--linear",), 1)):
        code, out, err = _run(capsys, *argv, *spacing)
        assert code == EXIT_USAGE and re.fullmatch(TOO_LARGE, err)
        lines = out.splitlines()
        assert lines[0] == ",".join(cli.SWEEP_COLUMNS) and len(lines) == 1 + written
        grid = (linear_grid if spacing else geometric_grid)(1, 10**450, 5)
        assert [int(line.split(",")[0]) for line in lines[1:]] == grid[:written]


def test_sweep_that_cannot_start_writes_nothing(capsys):
    # Fails in the first row, whose bounds do not fit in a float: nothing,
    # not even the header, is written.
    m = 10**450
    argv = ("sweep", "--k", "10", "--p", "7", "--m-start", str(m), "--m-end", str(m + 4),
            "--samples", "all")
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: ")


def test_streamed_json_is_the_array(capsys):
    argv = ("sweep", "--k", "4", "--p", "2", "--m-end", "5000", "--samples", "30")
    code, out, _ = _run(capsys, *argv, "--format", "json")
    assert code == EXIT_OK
    rows = json.loads(out)
    assert out == json.dumps(rows) + "\n"
    ms = geometric_grid(1, 5000, 30)
    expected = [_public_row(m, 4, 2) for m in ms]
    assert rows == [{c: getattr(row, c) for c in cli.SWEEP_COLUMNS} for row in expected]
    assert all(math.isfinite(row["lovasz"]) for row in rows)


def _frames_a_row(rows) -> float:
    """Python frames started per row by rows(), a callable that makes them and returns their count.

    Counted with sys.setprofile ('call' events: functions, and each resumption
    of a generator) after one untimed pass, so caches and columns are filled.
    """
    rows()
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        made = rows()
    finally:
        sys.setprofile(previous)
    return calls / made


def test_a_row_runs_few_python_frames():
    # The call budget of a row: 9.06 frames a dense one-shot row, 7.06 a
    # dense sweep row and 11.74 a paper-grid one-shot row, where _row
    # computes its powers inline for k! m < 2^53.  A change that adds a call
    # a row should raise these bounds on purpose.
    dense = range(50001, 60001)
    paper = geometric_grid(1, 12777711870, 2000)

    def one_shot():
        for m in dense:
            bound_report(m, 3, 2)
        return len(dense)

    def sweep():
        for _ in bound_reports(dense, 3, 2):
            pass
        return len(dense)

    def paper_rows():
        for m in paper:
            bound_report(m, 10, 7)
        return len(paper)

    assert _frames_a_row(one_shot) <= 9.5
    assert _frames_a_row(sweep) <= 7.5
    assert _frames_a_row(paper_rows) <= 12.0
