"""Command-line behavior: output formats, exit codes, determinism, self-test."""

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kkbounds.approx as approx
import kkbounds.binomials as binomials
import kkbounds.cascade as cascade
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


def test_validate_realize_with_r(capsys):
    # The octahedron's face vector, realized 3-colorably: rainbow sets under v % 3.
    from kkbounds import FaceVector, SimplicialComplex, f_vector, is_r_colorable

    code, out, _ = run(capsys, "validate", "1,6,12,8", "--r", "3", "--realize")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "valid"
    cx = SimplicialComplex(frozenset(map(int, filter(None, line.split(",")))) for line in lines[1:])
    assert f_vector(cx) == FaceVector((1, 6, 12, 8)) and is_r_colorable(cx, 3)
    assert "1,2,3" in lines and "2,3,4" in lines and "1,2,4" not in lines
    code, plain, _ = run(capsys, "validate", "1,6,12,8", "--realize")
    assert code == EXIT_OK and "1,2,4" in plain.splitlines()


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
    assert code == EXIT_USAGE and err == "error: cannot parse face vector: not an integer: 'two'\n"
    code, _, err = run(capsys, "validate", "2,3")
    assert code == EXIT_USAGE and "must start with" in err
    code, _, err = run(capsys, "validate", "1,0,3")
    assert code == EXIT_USAGE and "positive" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "--m", "1" * 5000, "--k", "3", "--p", "2"],
        ["sweep", "--k", "3", "--p", "2", "--m-end", "9", "--samples", "1" * 5000],
        ["validate", "1," + "1" * 5000],
    ],
    ids=["bound --m", "sweep --samples", "validate"],
)
def test_5000_digit_integer_is_shown_cut_short(capsys, argv):
    # int() takes at most 4300 digits: the token shows cut short, in a short last line.
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    last = capsys.readouterr().err.splitlines()[-1]
    assert code == EXIT_USAGE
    assert len(last) <= 120 and last.endswith(": '11111111111111111111111... (5000 characters)")


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


def test_sweep_rejects_r_outside_fixed_mode(capsys):
    # --r was ignored outside --r-mode fixed: withr_r read 3, 3, 4, ...
    argv = ("sweep", "--k", "3", "--p", "2", "--m-end", "10", "--samples", "all", "--r", "5")
    for mode in ((), ("--r-mode", "auto-flag"), ("--r-mode", "off")):
        code, out, err = run(capsys, *argv, *mode)
        assert (code, out, err) == (EXIT_USAGE, "", "error: --r needs --r-mode fixed\n")


def test_sweep_checks_k_p_and_r_before_building_its_grid(capsys, monkeypatch):
    # A bad p or r fails at once, not after --samples values are made.
    monkeypatch.setattr("kkbounds.cli.sample_grid", lambda *a, **kw: pytest.fail("grid built"))
    argv = ("sweep", "--k", "3", "--m-end", str(10**12), "--samples", str(10**8))
    for extra, message in (
        (("--p", "3"), "need 1 <= p < k, got p=3, k=3"),
        (("--p", "2", "--r-mode", "fixed", "--r", "2"), "need k <= r, got k=3, r=2"),
    ):
        code, out, err = run(capsys, *argv, *extra)
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")


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


QUICK_SELFTEST = """\
[PASS] turan_oracle (241 checks)
[PASS] full_level_identities (204 checks)
[PASS] cascade_roundtrip (2000 checks)
[PASS] colored_roundtrip (2000 checks)
[PASS] revlex_sharpness (720 checks)
[PASS] bound_ordering (41 checks)
[PASS] zoom_facts (5 checks)
[PASS] lemma_inequalities (2000 checks)
[PASS] fuzz_soundness (1332 checks)
OK: 8543 checks at scale=quick
"""


def test_selftest_quick(capsys):
    code, out, _ = run(capsys, "selftest", "--scale", "quick")
    assert code == EXIT_OK
    assert out == QUICK_SELFTEST


@pytest.mark.parametrize("module, name, fault, reported", [
    (binomials, "turan_coefficient",
     lambda true: lambda n, k, r: true(n, k, r) + ((n, k, r) == (6, 2, 3)), [
        "[FAIL] turan_oracle: 1 of 241 checks failed",
        "       turan_coefficient(6,2,3)=13 != clique oracle 12",
        "[FAIL] full_level_identities: 1 of 204 checks failed",
        "       turan_coefficient(6,2,3)=13 != C(3,2)*2^2=12",
    ]),
    # 0 both misses the rev-lex count and falls below shadow_bound(4, 2, 1): one failed check.
    (cascade, "shadow_bound",
     lambda true: lambda m, k, p: 0 if (m, k, p) == (5, 2, 1) else true(m, k, p), [
        "[FAIL] revlex_sharpness: 1 of 720 checks failed",
        "       shadow_bound(5,2,1)=0 != rev-lex face count 4",
    ]),
    (cascade, "cascade_evaluate", lambda true: lambda rep: true(rep) + (rep.k == 2), [
        "[FAIL] cascade_roundtrip: 500 of 2000 checks failed",
        "       cascade roundtrip: decompose(1,2) sums to 2",
        "       cascade roundtrip: decompose(2,2) sums to 3",
        "       cascade roundtrip: decompose(3,2) sums to 4",
    ]),
    (approx, "colorapprox_bound", lambda true: lambda m, k, p, r: 2 * true(m, k, p, r), [
        "[FAIL] fuzz_soundness: 295 of 1332 checks failed",
        "       seed=1: colorapprox_bound[r=2](m=3,k=2,p=1) = 6.928203230275509"
        " exceeds true count 5",
        "       seed=1: colorapprox_bound[r=3](m=3,k=2,p=1) = 6.0 exceeds true count 5",
        "       seed=1: colorapprox_bound[r=4](m=3,k=2,p=1) = 5.656854249492381"
        " exceeds true count 5",
    ]),
], ids=["turan", "revlex-double", "cascade-k2", "colorapprox"])
def test_selftest_detects_fault_injection(capsys, monkeypatch, module, name, fault, reported):
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    code, out, _ = run(capsys, "selftest", "--scale", "quick")
    assert code == EXIT_SELFTEST
    lines = [line for line in out.splitlines() if not line.startswith("[PASS]")]
    assert lines == [*reported, "FAILED: 8543 checks at scale=quick"]


def test_unknown_subcommand_exits_with_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == EXIT_USAGE


HUGE = 10**320
VALUES = st.one_of(
    st.integers(-3, 60), st.integers(1, 10**15), st.integers(-10**15, 10**15), st.just(HUGE)
)


@st.composite
def cli_argv(draw):
    """An argv of bound, cascade, validate or sweep, with odd values; k <= 70 and r <= 90."""
    command = draw(st.sampled_from(["bound", "cascade", "validate", "sweep"]))
    k = draw(st.integers(-2, 70))
    p = draw(st.one_of(st.integers(-2, 72), st.integers(1, max(1, k - 1))))
    if command == "bound":
        argv = ["--m", draw(VALUES), "--k", k, "--p", p]
        argv += ["--format", draw(st.sampled_from(["table", "json"]))]
    elif command == "cascade":
        argv = ["--m", draw(VALUES), "--k", k]
    elif command == "validate":
        realize = draw(st.booleans())
        # A realized complex is built face by face: keep its faces few.
        entry = st.integers(-1, 12) if realize else st.one_of(st.integers(-1, 12), st.just(HUGE))
        vector = draw(st.one_of(
            st.lists(entry, max_size=6).map(lambda entries: ",".join(map(str, [1, *entries]))),
            st.sampled_from(["", "x", "1,,2", "1,1.5", "-1,3"]),
        ))
        argv = [vector] + ["--realize"] * realize
    else:
        samples = draw(st.one_of(st.just("all"), st.integers(-2, 40)))
        m_start = draw(VALUES)
        # --samples all makes a row of every m in the range: keep it short, or reversed.
        m_end = m_start + draw(st.integers(-5, 40)) if samples == "all" else draw(VALUES)
        argv = ["--k", k, "--p", p, "--m-start", m_start, "--m-end", m_end, "--samples", samples]
        argv += ["--r-mode", draw(st.sampled_from(["auto-best", "auto-flag", "fixed", "off"]))]
        argv += ["--format", draw(st.sampled_from(["csv", "json"]))]
        argv += ["--linear"] * draw(st.booleans())
    if draw(st.booleans()):
        argv += ["--r", draw(st.integers(-2, 90))]
    return [command, *map(str, argv)]


@settings(max_examples=300, deadline=None)
@given(cli_argv())
# An integer argument of 2^64 or more shows by its size in the error line.
@example(["sweep", "--k", "3", "--p", "2", "--m-start", str(HUGE), "--m-end", "3"])
@example(["sweep", "--k", "3", "--p", "2", "--m-end", "10", "--samples", str(HUGE)])
@example(["bound", "--m", "5", "--k", "3", "--p", str(HUGE)])
@example(["bound", "--m", "5", "--k", str(HUGE), "--p", "2", "--r", "3"])
@example(["bound", "--m", str(-HUGE), "--k", "3", "--p", "2"])
# An unparsable face vector shows cut short.
@example(["validate", f"1,{HUGE}x"])
def test_every_cli_input_ends_in_a_documented_exit_code(argv):
    # Returns 0, 2, 3 or 4, or argparse exits 2; never a traceback.  An error
    # line is one line of at most 120 characters.
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        assert exc.code == EXIT_USAGE, (argv, exc.code)
        return
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_INVALID, EXIT_SELFTEST), (argv, code)
    assert (code == EXIT_USAGE) == err.getvalue().startswith("error: "), (argv, err.getvalue())
    lines = err.getvalue().splitlines()
    assert code != EXIT_USAGE or (len(lines) == 1 and len(lines[0]) <= 120), (argv, lines[:2])
