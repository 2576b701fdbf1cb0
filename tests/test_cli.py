"""Command-line behavior: output formats, exit codes, determinism, self-test."""

import json

import pytest

import kkbounds.binomials as binomials
from kkbounds.cli import EXIT_INVALID, EXIT_OK, EXIT_SELFTEST, EXIT_USAGE, main, sample_grid


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bound_table(capsys):
    code, out, _ = run(capsys, "bound", "--m", "11", "--k", "3", "--p", "2")
    assert code == EXIT_OK
    assert "kk_exact  12" in out
    assert "lovasz    10.564355102" in out
    assert "(r=5)" in out


def test_bound_json(capsys):
    code, out, _ = run(capsys, "bound", "--m", "11", "--k", "3", "--p", "2", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["kk_exact"] == 12
    assert payload["withr_r"] == 5 and payload["flag_r"] == 5
    assert payload["noreasy"] < payload["withoutr"] < payload["lovasz"] <= payload["kk_exact"]


def test_bound_sharp_point(capsys):
    m = binomials.binomial(50, 10)
    code, out, _ = run(capsys, "bound", "--m", str(m), "--k", "10", "--p", "7", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["kk_exact"] == binomials.binomial(50, 7)
    assert payload["lovasz"] == float(binomials.binomial(50, 7))
    assert payload["withr_r"] == 50
    assert payload["withr"] == float(binomials.binomial(50, 7))


def test_bound_rejects_bad_ranges(capsys):
    code, _, err = run(capsys, "bound", "--m", "0", "--k", "3", "--p", "2")
    assert code == EXIT_USAGE
    assert "m must be >= 1" in err
    code, _, err = run(capsys, "bound", "--m", "5", "--k", "3", "--p", "3")
    assert code == EXIT_USAGE
    assert "p < k" in err


def test_bound_overflow_names_the_column(capsys):
    # A row that overflows gives the public function's message, not "math range error".
    code, out, err = run(capsys, "bound", "--m", "1000000", "--k", "2000", "--p", "1000")
    assert code == EXIT_USAGE and out == ""
    assert err == "error: colorapprox_bound(m, 2000, 1000, 2001) does not fit in a float\n"


def test_cascade_rendering(capsys):
    code, out, _ = run(capsys, "cascade", "--m", "11", "--k", "3")
    assert code == EXIT_OK and out.strip() == "11 = C(5,3)+C(2,2)"
    code, out, _ = run(capsys, "cascade", "--m", "13", "--k", "2", "--r", "3")
    assert code == EXIT_OK and out.strip() == "13 = C(6,2)_3+C(1,1)_2"
    code, out, _ = run(capsys, "cascade", "--m", "1", "--k", "4")
    assert code == EXIT_OK and out.strip() == "1 = C(4,4)"


def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", "1,4,6,4,1")
    assert code == EXIT_OK and out.strip() == "valid"


def test_validate_invalid_exit_code(capsys):
    code, out, _ = run(capsys, "validate", "1,3,3,2")
    assert code == EXIT_INVALID
    assert "invalid at k=3" in out
    code, out, _ = run(capsys, "validate", "1,3,3,2", "--realize")
    assert code == EXIT_INVALID
    assert "invalid at k=3" in out


def test_validate_realize(capsys):
    code, out, _ = run(capsys, "validate", "1,4,5,2", "--realize")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "valid"
    assert "1,2,3" in lines and "1,2,4" in lines
    assert len([l for l in lines[1:] if l.count(",") == 1]) == 5  # the five edges


def test_validate_colored(capsys):
    code, out, _ = run(capsys, "validate", "1,4,6,4,1", "--r", "3")
    assert code == EXIT_INVALID
    assert "invalid at k=4" in out
    code, out, _ = run(capsys, "validate", "1,6,12,8", "--r", "3")
    assert code == EXIT_OK


def test_validate_names_the_broken_inequality(capsys):
    code, out, _ = run(capsys, "validate", "1,3,3,2")
    assert code == EXIT_INVALID
    assert out == "invalid at k=3: f_1=3 < 5 required by f_2=2\n"
    code, out, _ = run(capsys, "validate", "1,4,6", "--r", "2")
    assert code == EXIT_INVALID
    assert out == "invalid at k=2: f_0=4 < 5 required by f_1=6\n"
    code, out, _ = run(capsys, "validate", "1,3,3,2", "--r", "2")
    assert code == EXIT_INVALID
    assert out == "invalid at k=3: f_2=2 faces on 3 vertices need more than r=2 colors\n"


def test_validate_parse_errors(capsys):
    code, _, err = run(capsys, "validate", "1,two,3")
    assert code == EXIT_USAGE and "cannot parse" in err
    code, _, err = run(capsys, "validate", "2,3")
    assert code == EXIT_USAGE and "must start with" in err
    code, _, err = run(capsys, "validate", "1,0,3")
    assert code == EXIT_USAGE and "positive" in err


def test_sweep_csv_shape(capsys):
    code, out, _ = run(
        capsys, "sweep", "--k", "3", "--p", "2", "--m-end", "20", "--samples", "all"
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "m,kk_exact,lovasz,withoutr,noreasy,withr_r,withr,flag_r,flag"
    assert len(lines) == 21
    ms = [int(line.split(",")[0]) for line in lines[1:]]
    assert ms == list(range(1, 21))


def test_sweep_deterministic(capsys):
    args = ("sweep", "--k", "10", "--p", "7", "--m-end", "184756", "--samples", "60")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2


def test_sweep_json_mirrors_csv(capsys):
    args = ["sweep", "--k", "3", "--p", "2", "--m-end", "50", "--samples", "10"]
    _, csv_out, _ = run(capsys, *args)
    _, json_out, _ = run(capsys, *args, "--format", "json")
    rows = json.loads(json_out)
    header = csv_out.splitlines()[0].split(",")
    assert [list(r.keys()) for r in rows] == [header] * len(rows)
    csv_ms = [int(line.split(",")[0]) for line in csv_out.strip().splitlines()[1:]]
    assert [r["m"] for r in rows] == csv_ms


def test_sweep_r_modes(capsys):
    _, out, _ = run(
        capsys, "sweep", "--k", "3", "--p", "2", "--m-end", "10", "--samples", "4",
        "--r-mode", "off",
    )
    for line in out.strip().splitlines()[1:]:
        assert line.endswith(",,,,")
    code, out, _ = run(
        capsys, "sweep", "--k", "3", "--p", "2", "--m-end", "10", "--samples", "4",
        "--r-mode", "fixed", "--r", "6", "--format", "json",
    )
    assert code == EXIT_OK
    assert all(row["withr_r"] == 6 for row in json.loads(out))
    code, _, err = run(
        capsys, "sweep", "--k", "3", "--p", "2", "--m-end", "10", "--samples", "4",
        "--r-mode", "fixed",
    )
    assert code == EXIT_USAGE and "requires --r" in err


def test_sweep_rejects_oversampling(capsys):
    code, _, err = run(
        capsys, "sweep", "--k", "3", "--p", "2", "--m-end", "5", "--samples", "10"
    )
    assert code == EXIT_USAGE
    assert "distinct integers" in err


def test_sample_grid_properties():
    grid = sample_grid(1, 10**6, 100)
    assert len(grid) == 100
    assert grid[0] == 1 and grid[-1] == 10**6
    assert all(a < b for a, b in zip(grid, grid[1:]))
    linear = sample_grid(10, 100, 10, linear=True)
    assert linear == [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
    assert sample_grid(3, 7, "all") == range(3, 8)


def test_sweep_rows_keep_bound_ordering(capsys):
    from kkbounds import cascade_decompose

    _, out, _ = run(
        capsys, "sweep", "--k", "6", "--p", "3", "--m-end", "200000",
        "--samples", "40", "--format", "json",
    )
    for row in json.loads(out):
        assert row["noreasy"] < row["withoutr"] * (1 + 1e-9)
        assert row["withoutr"] < row["lovasz"] * (1 + 1e-9)
        assert row["lovasz"] <= row["kk_exact"] * (1 + 1e-9)
        n_k = cascade_decompose(row["m"], 6).terms[0][0]
        if row["withr_r"] == n_k:
            assert row["withr"] >= row["lovasz"] * (1 - 1e-9)


def test_sweep_zoom_range_has_flag_above_exact(capsys):
    lo, hi = binomials.binomial(50, 10) + 1, binomials.binomial(51, 10) - 1
    _, out, _ = run(
        capsys, "sweep", "--k", "10", "--p", "7",
        "--m-start", str(lo), "--m-end", str(hi), "--samples", "50",
        "--format", "json",
    )
    rows = json.loads(out)
    assert any(row["flag"] > row["kk_exact"] for row in rows)


def test_selftest_quick(capsys):
    code, out, _ = run(capsys, "selftest", "--scale", "quick")
    assert code == EXIT_OK
    assert out.count("[PASS]") == 9
    assert "OK" in out


def test_selftest_detects_fault_injection(capsys, monkeypatch):
    true_coefficient = binomials.turan_coefficient

    def broken(n, k, r):
        value = true_coefficient(n, k, r)
        return value + 1 if (n, k, r) == (6, 2, 3) else value

    monkeypatch.setattr(binomials, "turan_coefficient", broken)
    code, out, _ = run(capsys, "selftest", "--scale", "quick")
    assert code == EXIT_SELFTEST
    assert "[FAIL] turan_oracle" in out
    assert "turan_coefficient(6,2,3)=13 != clique oracle 12" in out


def test_unknown_subcommand_exits_with_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == EXIT_USAGE
