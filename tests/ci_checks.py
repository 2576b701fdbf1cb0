"""The checks CI runs after tier-1, one subcommand a step, each in a fresh process.

    PYTHONPATH=src python tests/ci_checks.py STEP     # a key of STEPS

Run it from the root of a checkout, as CI does; a fresh process gives each
peak-RSS bound its own floor.  The CLI runs as a child process, and nothing
is written into the checkout: captured stderr goes to temporary files.
"""

import hashlib
import json
import os
import random
import resource
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # no __pycache__ left in the checkout
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from kkbounds import bound_report, bound_reports, cascade, lovasz_bound, lovasz_x  # noqa: E402
from kkbounds import cascade_decompose, colored_cascade_decompose, shadow_bound  # noqa: E402
from kkbounds.colored import colored_shadow_bound  # noqa: E402
from kkbounds.cli import SWEEP_COLUMNS, _SWEEP_FRAMES, _row_template, sample_grid  # noqa: E402
from kkbounds.grid import geometric_grid  # noqa: E402
from rowcheck import check_sweep  # noqa: E402

ENV = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
CLI = [sys.executable, "-m", "kkbounds.cli"]
PAPER = ["--k", "10", "--p", "7", "--m-end", "12777711870", "--samples", "2000"]
DENSE = ["--k", "3", "--p", "2", "--m-end", "100000", "--samples", "all"]
HUGE = 10**320
# (k, p, m_start, m_end, samples): every level at j <= 2 (k = 2), a dense
# k = 3 range, the paper grid off and on, and k = 25, whose cascades leave
# the Pascal columns and whose root start meets large y/k.
SWEEPS = [
    (2, 1, 1001, 101000, "all"),
    (3, 2, 1001, 101000, "all"),
    (10, 7, 2, 12777711871, "2000"),
    (10, 7, 1, 12777711870, "2000"),
    (25, 12, 1, 10**30, "500"),
]
SELFTEST_FULL = """\
[PASS] turan_oracle (729 checks)
[PASS] full_level_identities (370 checks)
[PASS] cascade_roundtrip (30000 checks)
[PASS] colored_roundtrip (30000 checks)
[PASS] revlex_sharpness (5000 checks)
[PASS] bound_ordering (201 checks)
[PASS] zoom_facts (5 checks)
[PASS] lemma_inequalities (20000 checks)
[PASS] fuzz_soundness (9560 checks)
OK: 95865 checks at scale=full
"""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"FAIL: {message}")


def cli(*args, timeout=None) -> tuple[int, bytes, str]:
    """(exit code, stdout, stderr) of the CLI on args; stderr is echoed."""
    command = [*CLI, *map(str, args)]
    done = subprocess.run(command, capture_output=True, timeout=timeout, cwd=ROOT, env=ENV)
    sys.stderr.write(done.stderr.decode())
    return done.returncode, done.stdout, done.stderr.decode()


def sweep(*args) -> bytes:
    """The stdout of a sweep, which must exit 0."""
    code, out, _ = cli("sweep", *args)
    expect(code == 0, f"sweep {args} exited {code}")
    return out


def _range(k, p, m_start, m_end, samples) -> list:
    """The sweep options of a case of SWEEPS."""
    return ["--k", k, "--p", p, "--m-start", m_start, "--m-end", m_end, "--samples", samples]


def closed_pipe(args, read) -> None:
    """The CLI exits 0 and silently when its reader takes read(stdout) and closes the pipe."""
    with tempfile.TemporaryFile() as err:
        command = [*CLI, *args]
        child = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=ENV)
        print(read(child.stdout).decode())
        child.stdout.close()
        code = child.wait(timeout=60)
        err.seek(0)
        expect((code, err.read()) == (0, b""), f"{args} with a closed pipe exited {code}")


def within(seconds: int, call, *args):
    """call(*args), or the OverflowError it raises; failing if it runs longer than seconds."""

    def stop(signum, frame):
        raise SystemExit(f"FAIL: {call.__name__} ran longer than {seconds} s")

    signal.signal(signal.SIGALRM, stop)
    signal.alarm(seconds)
    try:
        return call(*args)
    except OverflowError as exc:
        return exc
    finally:
        signal.alarm(0)


def golden() -> None:
    """The paper sweep equals bench/golden's CSV, and the dense sweep its sha256 digest."""
    expect(sweep(*PAPER) == (ROOT / "bench/golden/paper_sweep.csv").read_bytes(), "paper sweep")
    digest = (ROOT / "bench/golden/dense_sweep.sha256").read_text().split()[0]
    expect(hashlib.sha256(sweep(*DENSE)).hexdigest() == digest, "dense sweep digest")


def same() -> None:
    """Sweep rows equal one-row bound_report rows at full precision, and kk_exact shadow_bound.

    JSON cells show each float's repr, so a root that moves by an ulp shows
    (CSV cells show 12 digits); the bound_report rows go through the sweep's
    own %r template.  A sweep carries its cascade's levels from row to row,
    while bound_report and shadow_bound run the greedy from no levels.
    Every case runs with best_r; the dense k = 3 case also with --r-mode
    fixed --r 10, and the k = 10 paper grid with --r 60.  Colored levels
    carried alike over m = 1..20000 at k = 3, p = 2 give colored_shadow_bound
    at r = 5, 17 and 60.  The Turán columns stop at budget _COLUMN_C = 16, so
    at r = 5 a colored level at j = 3 comes from a column, and at r = 17 from
    a search; at r = 60 every m is below C(60, 3), so every level is plain.
    """
    start, between, end = _SWEEP_FRAMES["json"]
    for case, r in [*((case, None) for case in SWEEPS), (SWEEPS[1], 10), (SWEEPS[3], 60)]:
        k, p, m_start, m_end, samples = case
        ms = sample_grid(m_start, m_end, samples)
        rows = [bound_report(m, k, p, r) for m in ms]
        template, values = _row_template(rows[0], SWEEP_COLUMNS, SWEEP_COLUMNS, "json")
        want = start + between.join(template % values(row) for row in rows) + end
        fixed = [] if r is None else ["--r-mode", "fixed", "--r", r]
        out = sweep(*_range(*case), *fixed, "--format", "json").decode()
        expect(out == want, f"sweep {case} at r = {r}")
        kk_exact = [row["kk_exact"] for row in json.loads(out)]
        expect(kk_exact == [shadow_bound(m, k, p) for m in ms], f"kk_exact {case}")
    ms = range(1, 20001)
    for r in (5, 17, 60):
        levels = []
        warm = [cascade._greedy(levels, m, 3, 1, r - 3)[-1][4] for m in ms]
        expect(warm == [colored_shadow_bound(m, 3, 2, r) for m in ms], f"warm colored r = {r}")


def rowcheck() -> None:
    """CSV sweep rows pass bench/rowcheck.py at k = 2, 3 and 10."""
    for case in SWEEPS[:3]:
        k, p, m_start, m_end, samples = case
        rows = len(sample_grid(m_start, m_end, samples))
        bad, messages = check_sweep(sweep(*_range(*case)).decode(), k, p, m_start, m_end, rows)
        print(f"{rows} rows, {bad} bad rows", *messages[:5], sep="\n")
        expect(bad == 0, f"rowcheck {case}")


def rmodes() -> None:
    """JSON sweeps equal json.dumps of bound_reports in every r-mode; a closed JSON pipe exits 0."""
    for mode in ("auto-best", "auto-flag", "fixed", "off"):
        r = ["--r", "60"] if mode == "fixed" else []
        rows = []
        for report in bound_reports(geometric_grid(1, 12777711870, 2000), 10, 7, 60 if r else None):
            row = {c: getattr(report, c) for c in SWEEP_COLUMNS}
            if mode == "auto-flag":
                row.update(withr_r=report.flag_r, withr=report.flag)
            if mode == "off":
                row.update(withr_r=None, withr=None, flag_r=None, flag=None)
            rows.append(row)
        out = sweep(*PAPER, "--r-mode", mode, *r, "--format", "json")
        expect(out.decode() == json.dumps(rows) + "\n", f"r-mode {mode}")
    closed_pipe(["sweep", *DENSE, "--format", "json"], lambda stdout: stdout.read(100))


def overflow() -> None:
    """Roots near the top of float range return, and overflows name the bound (20 s each).

    A CLI run exits 0, or 2 with "does not fit in a float"; never "math
    range error", never a timeout.  bound at k = 10**6 exits 0 within 8 s.
    """
    for m, k in ((10**306 + 12345, 557), (10**307, 200)):
        expect(isinstance(within(20, lovasz_x, m, k), float), f"lovasz_x(m, {k})")
    for m, k, p in ((10**306 + 12345, 557, 27), (1000000, 2000, 1000)):
        code, _, err = cli("bound", "--m", m, "--k", k, "--p", p, timeout=20)
        expect(code == 0 or (code == 2 and "does not fit in a float" in err), f"bound: {code}")
        expect("math range error" not in err, err)
    # Huge k takes no k!, as math.factorial(10**6) alone takes seconds.
    code = cli("bound", "--m", 5, "--k", 1000000, "--p", 1, timeout=8)[0]
    expect(code == 0, f"bound at k = 10**6: {code}")
    # Beyond 2**1024, where m itself is no float, bounds that fit are
    # returned, and a root that does not fit names lovasz_x.
    expect(cli("bound", "--m", HUGE, "--k", 10, "--p", 7, timeout=20)[0] == 0, "bound at 10**320")
    lines = cli("sweep", "--k", 10, "--p", 7, "--m-end", HUGE, "--samples", 5, timeout=20)[1]
    expect(lines.count(b"\n") == 6, "five rows to 10**320")
    error = str(within(20, lovasz_x, 10**700, 2))
    expect(error.startswith("lovasz_x(m, 2) does not fit in a float"), error)
    # At the largest float m the root, about 1.9e154, fits and is returned;
    # where only C(x, p) does not fit, lovasz_bound names itself.
    code = cli("bound", "--m", int(sys.float_info.max), "--k", 2, "--p", 1, timeout=20)[0]
    expect(code == 0, "bound at the largest float")
    error = str(within(20, lovasz_bound, 10**445, 10, 7))
    expect(error.startswith("lovasz_bound(m, 10, 7) does not fit in a float"), error)
    # One error line each: at m = 10**620 the flag column's r has 1031 bits,
    # and a reversed range starts at 10**320; each shows its number by its size.
    # An integer option of 5000 digits, beyond what int() takes, shows cut
    # short, in the last line, after argparse's usage lines.
    ones = "1" * 5000
    for most, start, args in (
        (101, "error: colorapprox_bound(m, 2, 1, ", ("bound", "--m", 10**620, "--k", 2, "--p", 1)),
        (121, "error: ", ("sweep", "--k", 3, "--p", 2, "--m-start", HUGE, "--m-end", 3)),
        (121, "kkbounds bound: error: argument --m: ", ("bound", "--m", ones, "--k", 3, "--p", 2)),
        (121, "kkbounds sweep: error: argument --samples: ", ("sweep", *DENSE[:-1], ones)),
    ):
        code, _, err = cli(*args, timeout=20)
        *usage, last = err.splitlines(keepends=True)
        # Only argparse's own errors have usage lines; the two others are one line alone.
        from_argparse = start.startswith("kkbounds")
        framed = bool(usage) and usage[0].startswith("usage: ") if from_argparse else not usage
        expect(code == 2 and framed and len(last.encode()) <= most and last.startswith(start), err)


def _peak_growth(run, most: float) -> None:
    """run(), within 60 s, raises the peak RSS by less than most MB."""
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    expect(within(60, run) is None, "an OverflowError")
    grown = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024
    print(f"peak RSS grew by {grown:.1f} MB")
    expect(grown < most, f"{grown:.1f} MB")


def memory_colored() -> None:
    """20000 seeded random colored cascades: less than 15 MB (an unbounded Turán cache took 44).

    The Turán columns stay within their cap: those of 3 <= j <= c <= _COLUMN_C
    at most _COLUMN_LEN entries each, the lists of j < 3 one each.
    """
    rng = random.Random(11)

    def run():
        for _ in range(20000):
            k = rng.randint(3, 12)
            colored_cascade_decompose(rng.randint(1, 10**30), k, rng.randint(k, k + 60))

    _peak_growth(run, 15)
    tables, most = cascade._turan_columns, cascade._COLUMN_C
    entries = sum(len(column) for table in tables for column in table)
    columns, lists = (most - 1) * (most - 2) // 2, sum(map(len, tables))
    print(f"the Turán columns hold {entries} entries")
    expect(entries <= columns * cascade._COLUMN_LEN + lists - columns, f"{entries} entries")


def memory_columns() -> None:
    """10000 plain cascades and shadow bounds, k <= 2000: less than 5 MB, columns in their cap."""
    rng = random.Random(13)

    def run():
        for _ in range(10000):
            k, m = rng.randint(3, 2000), rng.randint(1, 10 ** rng.randint(1, 30))
            cascade_decompose(m, k)
            shadow_bound(m, k, k - 1)

    _peak_growth(run, 5)
    entries = sum(map(len, cascade._columns))
    print(f"the columns hold {entries} entries")
    expect(entries <= cascade._COLUMN_J * (cascade._COLUMN_LEN + 1), f"{entries} entries")


def smoke() -> None:
    """A closed CSV pipe exits 0 silently, and the full self-test prints its ten lines."""
    closed_pipe(["sweep", *DENSE], lambda stdout: b"".join(stdout.readline() for _ in range(3)))
    code, out, err = cli("selftest", "--scale", "full")
    expect((code, out.decode(), err) == (0, SELFTEST_FULL, ""), out.decode())


STEPS = {
    step.__name__.replace("_", "-"): step
    for step in (golden, same, rowcheck, rmodes, overflow, memory_colored, memory_columns, smoke)
}

if __name__ == "__main__":
    expect(sys.argv[1:] in [[name] for name in STEPS], f"usage: {' | '.join(STEPS)}")
    STEPS[sys.argv[1]]()
    print(f"ok: {sys.argv[1]}")
