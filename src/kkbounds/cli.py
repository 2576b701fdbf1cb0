"""Command line: bound evaluation, cascade display, validation, sweeps, self-test.

Exit codes: 0 success, 2 usage error or a value out of arithmetic range,
3 validation failure, 4 self-test failure.  A closed stdout pipe exits 0
silently; any other failure to write stdout prints an error line and exits 2.

sweep writes each row as soon as it is computed, so a sweep that fails at
some row has already written the rows before it (a JSON sweep then lacks its
closing bracket); one that fails at its first row writes nothing.  It keeps
no rows, and with --samples all its grid is a range, so its memory does not
grow with the row count; a sampled grid is a list of its m values.

For a short start-up, colored, complexes and selftest load on use; json never
does, since JSON rows come from one printf template, as CSV rows do.
"""

from __future__ import annotations

import argparse
import os
import sys
from operator import attrgetter
from typing import Sequence

from .approx import bound_report, bound_reports
from .cascade import FaceVector, cascade_decompose, cascade_evaluate, validate_face_vector
from .grid import geometric_grid, linear_grid

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INVALID = 3
EXIT_SELFTEST = 4

SWEEP_COLUMNS = (
    "m",
    "kk_exact",
    "lovasz",
    "withoutr",
    "noreasy",
    "withr_r",
    "withr",
    "flag_r",
    "flag",
)


# What a sweep writes before its first row, between rows and after its last.
_SWEEP_FRAMES = {"csv": (",".join(SWEEP_COLUMNS) + "\n", "", ""), "json": ("[", ", ", "]\n")}

# printf formats of a cell by type.  CSV: exact integers verbatim, reals with
# 12 significant digits, a blank empty.  JSON: what json.dumps writes, an int's
# or a float's repr (no row holds nan or inf, as an overflow raises), a blank null.
_CELL_FORMATS = {int: "%d", float: "%.12g", type(None): ""}
_JSON_FORMATS = {int: "%d", float: "%r", type(None): "null"}


def _fmt(value) -> str:
    """One cell: exact integers verbatim, reals with 12 significant digits, blanks empty."""
    return "" if value is None else _CELL_FORMATS[type(value)] % value


def _row_template(row, columns, fields, fmt: str):
    """A printf template of rows like row, and the getter of the values it takes.

    Column columns[i] shows field fields[i] of a row, or a blank where that is
    None.  A field has one type in every row, so row's types fix the template,
    which formats a row in half the time of _fmt or json.dumps.
    """
    values = [None if field is None else getattr(row, field) for field in fields]
    if fmt == "json":
        cells = (f'"{c}": {_JSON_FORMATS[type(v)]}' for c, v in zip(columns, values))
        template = "{" + ", ".join(cells) + "}"
    else:
        template = ",".join(_CELL_FORMATS[type(v)] for v in values) + "\n"
    return template, attrgetter(*[f for f, v in zip(fields, values) if v is not None])


def sample_grid(m_start: int, m_end: int, samples, linear: bool = False) -> Sequence[int]:
    """Strictly increasing m values from m_start to m_end inclusive.

    samples is an integer >= 2, for a list with geometric spacing by default
    because the bounds are power laws, or the string "all", for the range of
    every m.
    """
    if samples == "all":
        if m_start < 1 or m_end < m_start:
            raise ValueError(f"need 1 <= m_start <= m_end, got {m_start}, {m_end}")
        return range(m_start, m_end + 1)
    return (linear_grid if linear else geometric_grid)(m_start, m_end, int(samples))


def _cmd_bound(args) -> int:
    report = bound_report(args.m, args.k, args.p, args.r)
    if args.format == "json":
        template, values = _row_template(report, report._fields, report._fields, "json")
        print(template % values(report))
        return EXIT_OK
    print(f"m         {report.m}")
    print(f"k, p      {report.k}, {report.p}")
    print(f"kk_exact  {report.kk_exact}")
    print(f"lovasz_x  {_fmt(report.lovasz_x)}")
    print(f"lovasz    {_fmt(report.lovasz)}")
    print(f"withoutr  {_fmt(report.withoutr)}")
    print(f"noreasy   {_fmt(report.noreasy)}")
    print(f"withr     {_fmt(report.withr)}  (r={report.withr_r})")
    print(f"flag      {_fmt(report.flag)}  (r={report.flag_r})")
    return EXIT_OK


def _cmd_cascade(args) -> int:
    if args.r is None:
        rep = cascade_decompose(args.m, args.k)
        total = cascade_evaluate(rep)
    else:
        from .colored import colored_cascade_decompose, colored_cascade_evaluate

        rep = colored_cascade_decompose(args.m, args.k, args.r)
        total = colored_cascade_evaluate(rep)
    print(f"{total} = {rep}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    try:
        entries = tuple(int(token) for token in args.vector.split(","))
    except ValueError:
        raise ValueError(f"cannot parse face vector from {args.vector!r}")
    f = FaceVector(entries)
    if args.r is None:
        result = validate_face_vector(f)
    else:
        from .colored import validate_colored_face_vector

        result = validate_colored_face_vector(f, args.r)
    if not result.ok:
        print(f"invalid at k={result.failing_k}: {result.reason}")
        return EXIT_INVALID
    print("valid")
    if args.realize:
        from .complexes import realize_face_vector, serialize

        print(serialize(realize_face_vector(f)))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if not 1 <= args.p < args.k:
        raise ValueError(f"need 1 <= p < k, got p={args.p}, k={args.k}")
    if args.r_mode == "fixed":
        if args.r is None:
            raise ValueError("--r-mode fixed requires --r")
        if args.r < args.k:
            raise ValueError(f"need k <= r, got k={args.k}, r={args.r}")
    elif args.r is not None:
        raise ValueError("--r needs --r-mode fixed")
    ms = sample_grid(args.m_start, args.m_end, args.samples, linear=args.linear)
    rows = bound_reports(ms, args.k, args.p, args.r)
    # The first row is computed before anything is written, so a sweep that
    # cannot start leaves stdout empty.
    first = next(rows)
    # An r-mode picks the fields of the four r-dependent columns: auto-flag
    # puts flag_r and flag in the withr cells, off blanks all four (None).
    r_fields = {"auto-flag": ("flag_r", "flag") * 2, "off": (None,) * 4}
    fields = SWEEP_COLUMNS[:5] + r_fields.get(args.r_mode, SWEEP_COLUMNS[5:])
    template, values = _row_template(first, SWEEP_COLUMNS, fields, args.format)
    start, between, end = _SWEEP_FRAMES[args.format]
    write = sys.stdout.write
    write(start + template % values(first))
    template = between + template
    for row in rows:
        write(template % values(row))
    write(end)
    return EXIT_OK


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest

    return EXIT_OK if run_selftest(args.scale) else EXIT_SELFTEST


def _samples_arg(text: str):
    if text == "all":
        return "all"
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"samples must be an integer or 'all', got {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kkbounds",
        description="Exact and approximate lower bounds on face counts of simplicial complexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="evaluate every bound at one (m, k, p)")
    p_bound.add_argument("--m", type=int, required=True, help="number of faces on k vertices")
    p_bound.add_argument("--k", type=int, required=True)
    p_bound.add_argument("--p", type=int, required=True)
    p_bound.add_argument("--r", type=int, help="color count for the colored bound (default: best_r)")
    p_bound.add_argument("--format", choices=("table", "json"), default="table")
    p_bound.set_defaults(handler=_cmd_bound)

    p_cascade = sub.add_parser("cascade", help="show the (colored) cascade of m at level k")
    p_cascade.add_argument("--m", type=int, required=True)
    p_cascade.add_argument("--k", type=int, required=True)
    p_cascade.add_argument("--r", type=int, help="color budget; switches to the colored cascade")
    p_cascade.set_defaults(handler=_cmd_cascade)

    p_validate = sub.add_parser("validate", help="check a face vector, e.g. 1,4,6,4,1")
    p_validate.add_argument("vector", help="comma-separated face counts starting with 1")
    p_validate.add_argument("--r", type=int, help="validate against the r-colorable conditions")
    p_validate.add_argument(
        "--realize", action="store_true", help="print a complex realizing the vector"
    )
    p_validate.set_defaults(handler=_cmd_validate)

    p_sweep = sub.add_parser("sweep", help="CSV/JSON sweep of all bounds over a range of m")
    p_sweep.add_argument("--k", type=int, required=True)
    p_sweep.add_argument("--p", type=int, required=True)
    p_sweep.add_argument("--m-start", type=int, default=1)
    p_sweep.add_argument("--m-end", type=int, required=True)
    p_sweep.add_argument("--samples", type=_samples_arg, default=200)
    p_sweep.add_argument(
        "--linear", action="store_true", help="sample at equal spacing instead of equal ratios"
    )
    p_sweep.add_argument(
        "--r-mode",
        choices=("auto-best", "auto-flag", "fixed", "off"),
        default="auto-best",
        help="how the withr column picks r (flag columns always use flag_r)",
    )
    p_sweep.add_argument("--r", type=int, help="r for --r-mode fixed")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_selftest = sub.add_parser("selftest", help="run the invariant suites")
    p_selftest.add_argument("--scale", choices=("quick", "full"), default="quick")
    p_selftest.set_defaults(handler=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if sys.stdout is None:  # started with file descriptor 1 closed
        print("error: stdout is closed", file=sys.stderr)
        return EXIT_USAGE
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        # stdout failed: point it at devnull, so the interpreter's final flush is silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return EXIT_OK  # the reader has all it wanted
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
