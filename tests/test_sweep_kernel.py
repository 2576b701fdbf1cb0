"""The sweep kernel: a cascade cursor over increasing m, bound_reports equal to
row-by-row bound_report, and sweep rows written as they are computed."""

import io
import json
import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kkbounds import (
    BoundReport,
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
    withoutr_bound,
)
from kkbounds import approx, cli
from kkbounds.cascade import _CascadeCursor, _shadow_sum
from kkbounds.cli import EXIT_OK, EXIT_USAGE, main
from kkbounds.grid import geometric_grid, linear_grid
from test_cascade import _plain_greedy

M_MAX = 10**15


def _frozen_bound_report(m, k, p, r=None):
    """bound_report as it was before bound_reports: every column from the public functions."""
    n = cascade_decompose(m, k).terms[0][0]
    x = lovasz_x(m, k)
    withr_r = r if r is not None else best_r(m, k)
    return BoundReport(
        m=m,
        k=k,
        p=p,
        kk_exact=shadow_bound(m, k, p),
        lovasz_x=x,
        lovasz=binom_real(x, p),
        withoutr=withoutr_bound(m, k, p),
        noreasy=noreasy_bound(m, k, p),
        withr_r=withr_r,
        withr=colorapprox_bound(m, k, p, withr_r),
        flag_r=n,
        flag=colorapprox_bound(m, k, p, n),
    )


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


def _advance(cursor, m, p):
    """Advance the cursor to m and check what it carries against a fresh cascade.

    cascade_decompose runs a fresh cursor, so the cascade is also checked
    against _plain_greedy, which shares no code with either.
    """
    rep = cascade_decompose(m, cursor.k)
    assert rep.terms == _plain_greedy(m, cursor.k), (m, cursor.k)
    assert cursor.advance(m) == (rep.terms[0][0], _shadow_sum(rep, p)), (m, cursor.k, p)
    assert cursor.cascade() == rep, (m, cursor.k)


@settings(max_examples=300, deadline=None)
@given(increasing_runs(), st.data())
def test_cursor_cascades_equal_decompose(case, data):
    k, ms = case
    p = data.draw(st.integers(min_value=0, max_value=k))  # p = k carries m itself
    cursor = _CascadeCursor(k, p)  # at m = 0: the first advance builds the first cascade
    for m in ms:
        _advance(cursor, m, p)


def test_cursor_runs_through_every_m():
    for k in (2, 3, 5):
        for p in range(1, k):
            cursor = _CascadeCursor(k, p)
            for m in range(1, 5000):
                _advance(cursor, m, p)


# Corruptions of a cursor's stored level (n, j, C(n, j), C(n+1, j), shadow) at
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
    cursor = _CascadeCursor(k, 2)
    cursor.advance(m)
    corrupt(cursor.levels)
    with pytest.raises(ValueError, match=message):
        for m in range(m + 1, binomial(21, 3)):
            cursor.advance(m)
            assert cursor.cascade() == cascade_decompose(m, k), m


def test_cursor_checks_a_kept_level_by_a_fresh_search():
    # The first level an advance creates is searched afresh, not walked down
    # from the kept level above it, so a kept C(25, 9) short by C(25, 8) - 1
    # leaves a remainder whose level outgrows it: the walk could not see that.
    k, m = 10, binomial(30, 10) + binomial(25, 9)
    cursor = _CascadeCursor(k, 7)
    cursor.advance(m)
    n, j, value, above, shadow = cursor.levels[1]
    assert (n, j) == (25, 9)
    cursor.levels[1] = (n, j, value - binomial(25, 8) + 1, above, shadow)
    with pytest.raises(ValueError, match="not within"):
        cursor.advance(m + 1)


SWEEPS = {
    "dense_k3": ([*range(1, 3001)], 3, 2),
    "paper_k10": (geometric_grid(1, 12777711870, 400), 10, 7),
    "k2_to_1e15": (geometric_grid(1, M_MAX, 300), 2, 1),
    "k12_to_1e15": (geometric_grid(1, M_MAX, 300), 12, 5),
    "k4_to_1e300": (geometric_grid(1, 10**300, 150), 4, 3),
}


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_bound_reports_equal_frozen_rows(name):
    ms, k, p = SWEEPS[name]
    assert list(bound_reports(ms, k, p)) == [_frozen_bound_report(m, k, p) for m in ms]
    r = k + 7
    assert list(bound_reports(ms, k, p, r)) == [_frozen_bound_report(m, k, p, r) for m in ms]


def _public_row(m, k, p, r):
    """The row of the public functions, or the message of the first to overflow.

    They are called in the order in which bound_reports computes the columns.
    """
    try:
        x = lovasz_x(m, k)
        n, withr_r = flag_r(m, k), r if r is not None else best_r(m, k)
        flag = colorapprox_bound(m, k, p, n)
        withr = colorapprox_bound(m, k, p, withr_r)
        lovasz = lovasz_bound(m, k, p)
        withoutr = withoutr_bound(m, k, p)
        noreasy = noreasy_bound(m, k, p)
    except OverflowError as exc:
        return str(exc)
    kk_exact = shadow_bound(m, k, p)
    return BoundReport(m, k, p, kk_exact, x, lovasz, withoutr, noreasy, withr_r, withr, n, flag)


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


def _root_evaluations_per_row(monkeypatch, ms, k, p, rows):
    """Mean evaluations of the root's polynomial per row of rows(ms, k, p)."""
    calls = 0
    real = approx._binom_real_at

    def counting(j):
        evaluate = real(j)
        if j != k:
            return evaluate  # the lovasz column's C(x, p)

        def counted(x):
            nonlocal calls
            calls += 1
            return evaluate(x)

        return counted

    monkeypatch.setattr(approx, "_binom_real_at", counting)
    count = len(rows(ms, k, p))
    return calls / count


@pytest.mark.parametrize(
    "ms, k, p, most",
    [(range(1, 20001), 3, 2, 2.4), (geometric_grid(1, 12777711870, 400), 10, 7, 3.3)],
)
def test_warm_root_evaluations_per_row(monkeypatch, ms, k, p, most):
    warm = _root_evaluations_per_row(monkeypatch, ms, k, p, lambda *a: list(bound_reports(*a)))
    cold = _root_evaluations_per_row(
        monkeypatch, ms, k, p, lambda ms, k, p: [bound_report(m, k, p) for m in ms]
    )
    assert warm <= most < cold


@pytest.mark.parametrize(
    "ms, k, most",
    [(range(1, 20001), 3, 3.05), (geometric_grid(1, 12777711870, 2000), 10, 4.7)],
)
def test_cold_root_evaluations_per_call(monkeypatch, ms, k, most):
    # From the closed-form start: 3.01 at k = 3 and 4.63 on the paper's grid
    # (4.55 and 5.50 from the regula falsi start alone).
    def roots(ms, k, p):
        return [lovasz_x(m, k) for m in ms]

    assert _root_evaluations_per_row(monkeypatch, ms, k, k - 1, roots) <= most


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("mode", ["auto-best", "auto-flag", "fixed", "off"])
def test_sweep_output_is_the_frozen_rows_in_every_r_mode(capsys, mode, fmt):
    # The r-mode's substitution is made here: auto-flag shows flag_r and flag
    # in the withr cells, and off blanks the four r-dependent cells.
    ms, k, p = SWEEPS["paper_k10"]
    fixed_r = 60 if mode == "fixed" else None
    argv = ["sweep", "--k", "10", "--p", "7", "--m-end", "12777711870", "--samples", "400"]
    argv += ["--r-mode", mode, "--format", fmt] + (["--r", "60"] if fixed_r else [])
    code, out, err = _run(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    rows = []
    for report in (_frozen_bound_report(m, k, p, fixed_r) for m in ms):
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
        assert bound_report(m, k, p, r) == _frozen_bound_report(m, k, p, r)
        assert [bound_report(m, k, p, r)] == list(bound_reports([m], k, p, r))
    assert list(bound_reports([], 3, 2)) == []


@pytest.mark.parametrize("ms", [[5, 5], [5, 4], [1, 2, 3, 3], [10, 20, 15]])
def test_non_increasing_ms_raise(ms):
    rows = bound_reports(ms, 3, 2)
    with pytest.raises(ValueError, match="increase strictly"):
        for _ in rows:
            pass


def test_arguments_checked_in_bound_report_order():
    with pytest.raises(ValueError, match="m must be >= 1"):
        next(bound_reports([0, 1], 3, 3))
    with pytest.raises(ValueError, match="p < k"):
        next(bound_reports([1, 2], 3, 3))
    with pytest.raises(ValueError, match="k <= r"):
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


def test_failing_sweep_keeps_the_rows_before_the_failure(capsys):
    # float(m) overflows from 2**1024 - 2**970 on, where the Lovasz root starts.
    first_bad = 2**1024 - 2**970
    argv = (
        "sweep", "--k", "10", "--p", "7", "--m-start", str(first_bad - 2),
        "--m-end", str(first_bad), "--samples", "all",
    )
    code, out, err = _run(capsys, *argv)
    assert code == EXIT_USAGE
    assert err == "error: int too large to convert to float\n"
    lines = out.splitlines()
    assert lines[0] == ",".join(cli.SWEEP_COLUMNS)
    assert [line.split(",")[0] for line in lines[1:]] == [str(first_bad - 2), str(first_bad - 1)]
    code, out, err = _run(capsys, *argv, "--format", "json")
    assert code == EXIT_USAGE and err.startswith("error: ")
    assert out.startswith("[{") and not out.endswith("]\n")  # an unterminated array
    # A grid reaching beyond float range: the rows below 2**1024 are written.
    argv = ("sweep", "--k", "10", "--p", "7", "--m-end", str(10**320), "--samples", "5")
    for spacing, written in (((), 4), (("--linear",), 1)):
        code, out, err = _run(capsys, *argv, *spacing)
        assert (code, err) == (EXIT_USAGE, "error: int too large to convert to float\n")
        lines = out.splitlines()
        assert lines[0] == ",".join(cli.SWEEP_COLUMNS) and len(lines) == 1 + written
        grid = (linear_grid if spacing else geometric_grid)(1, 10**320, 5)
        assert [int(line.split(",")[0]) for line in lines[1:]] == grid[:written]


def test_sweep_that_cannot_start_writes_nothing(capsys):
    # Fails in the first row, whose root needs float(m): nothing, not even
    # the header, is written.
    m = 10**320
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
    expected = [_frozen_bound_report(m, 4, 2) for m in ms]
    assert rows == [{c: getattr(row, c) for c in cli.SWEEP_COLUMNS} for row in expected]
    assert all(math.isfinite(row["lovasz"]) for row in rows)
