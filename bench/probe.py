"""Time single calls into kkbounds in a fresh, untraced process.

usage: probe.py sweep K P M_FILE   one bound_report(m, K, P) per m listed in M_FILE
       probe.py roundtrip          one decompose-and-evaluate check per input of
                                   the full-scale cascade and colored roundtrip
                                   suites of `selftest`

Each input is called once, in the order given, so the process's caches fill
the way they do during the command itself. About every 50 ms a short
stretch of calibrate.work is timed, and the calls in between are scaled by
calibrate.REF_ROUND_NS over its mean time per round before and after them,
which cancels the drift of the machine's speed. Prints the scaled per-call
durations in nanoseconds as one JSON list.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter_ns

from calibrate import REF_ROUND_NS, work
from kkbounds import (
    bound_report,
    cascade_decompose,
    cascade_evaluate,
    colored_cascade_decompose,
    colored_cascade_evaluate,
)

CHUNK_NS = 50_000_000
SNIPPET_ROUNDS = 2_000


def snippet_ns() -> float:
    t0 = perf_counter_ns()
    work(SNIPPET_ROUNDS)
    return (perf_counter_ns() - t0) / SNIPPET_ROUNDS


def time_calls(fn, inputs) -> list[float]:
    out: list[float] = []
    chunk: list[int] = []
    work(30)  # untimed: lets the interpreter specialise the loop first
    before = snippet_ns()
    chunk_start = perf_counter_ns()
    for args in inputs:
        t0 = perf_counter_ns()
        fn(*args)
        t1 = perf_counter_ns()
        chunk.append(t1 - t0)
        if t1 - chunk_start > CHUNK_NS:
            after = snippet_ns()
            scale = 2 * REF_ROUND_NS / (before + after)
            out.extend(d * scale for d in chunk)
            chunk.clear()
            before = after
            chunk_start = perf_counter_ns()
    if chunk:
        scale = 2 * REF_ROUND_NS / (before + snippet_ns())
        out.extend(d * scale for d in chunk)
    return out


def cascade_check(m: int, k: int) -> int:
    return cascade_evaluate(cascade_decompose(m, k))


def colored_check(m: int, k: int, r: int) -> int:
    return colored_cascade_evaluate(colored_cascade_decompose(m, k, r))


def main(argv: list[str]) -> int:
    if argv[:1] == ["sweep"] and len(argv) == 4:
        k, p = int(argv[1]), int(argv[2])
        with open(argv[3]) as f:
            ms = [int(line) for line in f]
        durations = time_calls(bound_report, [(m, k, p) for m in ms])
    elif argv == ["roundtrip"]:
        durations = time_calls(cascade_check, [(m, k) for k in range(1, 7) for m in range(1, 5001)])
        durations += time_calls(
            colored_check,
            [(m, k, r) for r in range(1, 6) for k in range(1, r + 1) for m in range(1, 2001)],
        )
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(durations))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
