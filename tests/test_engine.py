"""The shared cascade engine: plain as colored with an unbounded budget, huge m,
arithmetic errors at the command line, one grid routine, one bound-row path."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kkbounds import (
    BoundReport,
    binomial,
    bound_report,
    cascade_decompose,
    cascade_evaluate,
    colored_cascade_decompose,
    colored_cascade_evaluate,
    colored_shadow_bound,
    shadow_bound,
)
from kkbounds.cli import EXIT_OK, EXIT_USAGE, main, sample_grid
from kkbounds.grid import geometric_grid

HUGE = 10**320


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=10**9),
    k=st.integers(min_value=1, max_value=8),
    data=st.data(),
)
def test_colored_with_budget_beyond_n_k_is_plain(m, k, data):
    plain = cascade_decompose(m, k)
    n_k = plain.terms[0][0]
    drawn = data.draw(st.integers(min_value=n_k + 1, max_value=n_k + 10**6))
    for r in (n_k + 1, drawn):
        colored = colored_cascade_decompose(m, k, r)
        assert tuple((n, j) for n, j, _ in colored.terms) == plain.terms
        for p in range(1, k):
            assert colored_shadow_bound(m, k, p, r) == shadow_bound(m, k, p)


def test_plain_cascade_beyond_float_range():
    assert cascade_decompose(HUGE, 1).terms == ((HUGE, 1),)
    for m, k in ((HUGE, 2), (HUGE + 12345, 3), (10**700, 2)):
        assert cascade_evaluate(cascade_decompose(m, k)) == m


def test_colored_cascade_beyond_float_range():
    assert colored_cascade_decompose(HUGE, 1, 1).terms == ((HUGE, 1, 1),)
    for k, r in ((1, 3), (2, 2), (3, 5)):
        assert colored_cascade_evaluate(colored_cascade_decompose(HUGE, k, r)) == HUGE


def test_cli_cascade_beyond_float_range(capsys):
    code, out, _ = run(capsys, "cascade", "--m", str(HUGE), "--k", "1")
    assert code == EXIT_OK and out.strip() == f"{HUGE} = C({HUGE},1)"
    code, out, _ = run(capsys, "cascade", "--m", str(HUGE), "--k", "1", "--r", "1")
    assert code == EXIT_OK and out.strip() == f"{HUGE} = C({HUGE},1)_1"
    code, out, _ = run(capsys, "cascade", "--m", str(10**700), "--k", "2")
    assert code == EXIT_OK and out.startswith(f"{10**700} = C(")


def test_cli_arithmetic_error_exits_2(capsys):
    # C(2000, 1000) alone exceeds the largest float, and so does every bound here.
    code, out, err = run(capsys, "bound", "--m", "1000000", "--k", "2000", "--p", "1000")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_cli_bounds_beyond_float_range_of_m(capsys):
    # float(m) overflows here, but the root and every bound fit in a float.
    code, out, err = run(capsys, "bound", "--m", str(HUGE), "--k", "10", "--p", "7")
    assert (code, err) == (EXIT_OK, "")
    assert "lovasz_x  4.52872868812e+32\n" in out and "lovasz    7.75181833788e+224\n" in out
    code, out, err = run(capsys, "sweep", "--k", "10", "--p", "7", "--m-end", str(HUGE),
                         "--samples", "5")
    assert (code, err) == (EXIT_OK, "")
    assert [int(line.split(",")[0]) for line in out.splitlines()[1:]] == geometric_grid(1, HUGE, 5)


@pytest.mark.parametrize(
    "argv",
    [
        ("bound", "--m", "5", "--k", "400", "--p", "1"),
        ("sweep", "--k", "400", "--p", "1", "--m-end", "100", "--samples", "5"),
    ],
)
def test_cli_bounds_beyond_float_factorial(capsys, argv):
    # k! exceeds the largest float from k = 171 on, but every bound still fits.
    code, out, err = run(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    assert "inf" not in out and "nan" not in out


@pytest.mark.parametrize(
    "m_start, m_end, samples",
    [(0, 10, 3), (5, 4, 2), (1, 10, 1), (1, 4, 9)],
)
def test_grids_reject_alike(m_start, m_end, samples):
    with pytest.raises(ValueError) as geometric:
        geometric_grid(m_start, m_end, samples)
    with pytest.raises(ValueError) as linear:
        sample_grid(m_start, m_end, samples, linear=True)
    assert str(geometric.value) == str(linear.value)


def test_bound_json_is_the_report(capsys):
    # json.dumps's bytes, also for a kk_exact of 54 and 176 digits, k > 170,
    # a fixed r, and floats whose repr takes 17 significant digits.
    for m, k, p, r in ((11, 3, 2, None), (10**306 + 12345, 557, 27, None),
                       (10**250, 300, 150, None), (12777711870, 10, 7, 60)):
        argv = ["bound", "--m", str(m), "--k", str(k), "--p", str(p), "--format", "json"]
        code, out, _ = run(capsys, *argv, *([] if r is None else ["--r", str(r)]))
        report = bound_report(m, k, p, r)
        assert code == EXIT_OK
        assert out == json.dumps(report._asdict()) + "\n"
        assert BoundReport(**json.loads(out)) == report


def test_sweep_rows_are_bound_reports(capsys):
    m_end = binomial(12, 4)
    argv = (
        "sweep", "--k", "4", "--p", "2", "--m-end", str(m_end),
        "--samples", "9", "--format", "json",
    )
    modes = {}
    for mode in ("auto-best", "auto-flag", "off"):
        code, out, _ = run(capsys, *argv, "--r-mode", mode)
        assert code == EXIT_OK
        modes[mode] = json.loads(out)
    code, out, _ = run(capsys, *argv, "--r-mode", "fixed", "--r", "20")
    modes["fixed"] = json.loads(out)
    for i, best in enumerate(modes["auto-best"]):
        report = bound_report(best["m"], 4, 2)
        assert best == {key: getattr(report, key) for key in best}
        assert modes["auto-flag"][i]["withr_r"] == best["flag_r"]
        assert modes["auto-flag"][i]["withr"] == best["flag"]
        assert modes["fixed"][i]["withr"] == bound_report(best["m"], 4, 2, 20).withr
        off = modes["off"][i]
        assert [off[key] for key in ("withr_r", "withr", "flag_r", "flag")] == [None] * 4
        assert off["kk_exact"] == best["kk_exact"] and off["lovasz"] == best["lovasz"]


@pytest.mark.parametrize("m_start, m_end", [(1, HUGE), (7, 2**1024 + 1), (10**310, 10**1000)])
@pytest.mark.parametrize("samples", [2, 5, 200])
def test_grids_reach_beyond_float_range(m_start, m_end, samples):
    geometric = geometric_grid(m_start, m_end, samples)
    linear = sample_grid(m_start, m_end, samples, linear=True)
    for grid in (geometric, linear):
        assert len(grid) == samples and (grid[0], grid[-1]) == (m_start, m_end)
        assert all(a < b for a, b in zip(grid, grid[1:]))
    last = samples - 1
    # Linear points beyond float range are exact, halves rounded up; geometric
    # ones keep equal ratios to float precision.
    for i in range(1, last):
        step = Fraction(i * (m_end - m_start), last)
        assert linear[i] == m_start + math.floor(step + Fraction(1, 2))
        if geometric[i] > 2**1024:
            expected = math.log(m_start) + i / last * (math.log(m_end) - math.log(m_start))
            assert math.isclose(math.log(geometric[i]), expected, rel_tol=1e-15)


def test_grid_ends_are_the_range_ends():
    # In float arithmetic alone, these grids ended at a double next to m_end.
    assert geometric_grid(7, 10**300, 5)[::4] == [7, 10**300]
    assert sample_grid(3, 10**200, 5, linear=True)[::4] == [3, 10**200]
