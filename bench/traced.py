"""Run the kkbounds command line in this process with its public functions traced.

usage: traced.py SUMMARY_JSON SPANS_FILE CLI_ARG...

Every public function of every kkbounds module is wrapped in a span (name,
start, end, parent), except the hot leaves binomial, binom_real and
turan_coefficient, which are only counted, per enclosing span, to keep the
overhead down. A wrapper replaces the name in every kkbounds module that holds
the function, because the package imports with `from .x import y`. Caches
such as lru_cache stay underneath the wrapper, so a cache hit is still a
call. Spans stay in memory until the command returns; then the spans go to
SPANS_FILE (a JSON header line, then the name, parent, start and end arrays)
and per-span-name totals go to SUMMARY_JSON. For `selftest`, each echoed line
is timestamped to give the per-suite times.
"""

from __future__ import annotations

import json
import re
import sys
import time
from array import array
from collections import Counter

import kkbounds
from kkbounds import approx, binomials, cascade, cli, colored, complexes, selftest

MODULES = (binomials, cascade, colored, approx, complexes, selftest, cli)
COUNTED = ("binomial", "binom_real", "turan_coefficient")
# Functions whose distinct argument tuples are recorded, for distinct_frac.
KEYED = ("cascade.cascade_decompose", "colored.colored_cascade_decompose")
SUITE_LINE = re.compile(r"\[(?:PASS|FAIL)\] (\w+)")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.name_stack = [-1]
        self.counts: Counter = Counter()
        self.keys: dict[int, set] = {}

    def span(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, name_stack = self.stack, self.name_stack
        keys = self.keys.setdefault(nid, set()) if name in KEYED else None
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            name_stack.append(nid)
            if keys is not None:
                keys.add(args)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                name_stack.pop()

        return traced

    def counter(self, name: str, fn):
        counts, name_stack = self.counts, self.name_stack

        def counted(*args, **kwargs):
            counts[name, name_stack[-1]] += 1
            return fn(*args, **kwargs)

        return counted

    def summary(self) -> dict:
        n = len(self.start)
        child_ns = [0] * n
        durations: list[list[int]] = [[] for _ in self.names]
        first_start = [0] * len(self.names)
        for i in range(n):
            d = self.end[i] - self.start[i]
            if not durations[self.name[i]]:
                first_start[self.name[i]] = self.start[i]
            durations[self.name[i]].append(d)
            if self.parent[i] >= 0:
                child_ns[self.parent[i]] += d
        self_ns = [0] * len(self.names)
        for i in range(n):
            self_ns[self.name[i]] += self.end[i] - self.start[i] - child_ns[i]
        spans = {}
        for nid, name in enumerate(self.names):
            ds = sorted(durations[nid])
            spans[name] = {
                "calls": len(ds),
                "self_ns": self_ns[nid],
                "total_ns": sum(ds),
                "p50_ns": ds[(len(ds) - 1) // 2] if ds else 0,
                "first_start_ns": first_start[nid],
            }
            if nid in self.keys:
                spans[name]["distinct"] = len(self.keys[nid])
        counts = [
            [leaf, self.names[nid] if nid >= 0 else None, c]
            for (leaf, nid), c in sorted(self.counts.items())
        ]
        return {"spans": spans, "counts": counts}

    def write_spans(self, path: str) -> None:
        header = {
            "names": self.names,
            "count": len(self.start),
            "arrays": [["name", "i"], ["parent", "i"], ["start_ns", "q"], ["end_ns", "q"]],
        }
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(out)


class StampedLines:
    """Forwards writes to a stream and records (time, text) per completed line."""

    def __init__(self, stream) -> None:
        self.stream = stream
        self.partial = ""
        self.lines: list[tuple[int, str]] = []

    def write(self, text: str) -> int:
        self.stream.write(text)
        self.partial += text
        while "\n" in self.partial:
            line, self.partial = self.partial.split("\n", 1)
            self.lines.append((time.perf_counter_ns(), line))
        return len(text)

    def flush(self) -> None:
        self.stream.flush()


def public_functions(module) -> dict[str, object]:
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and callable(obj)
        and not isinstance(obj, type)
        and getattr(obj, "__module__", None) == module.__name__
    }


def install(tracer: Tracer) -> None:
    replacements = {}
    for module in MODULES:
        short = module.__name__.rsplit(".", 1)[1]
        for name, fn in public_functions(module).items():
            if name in COUNTED:
                replacements[id(fn)] = tracer.counter(name, fn)
            else:
                replacements[id(fn)] = tracer.span(f"{short}.{name}", fn)
    for module in (kkbounds, *MODULES):
        for name, obj in list(vars(module).items()):
            if id(obj) in replacements and callable(obj) and not isinstance(obj, type):
                setattr(module, name, replacements[id(obj)])


def suite_seconds(lines: list[tuple[int, str]], start_ns: int) -> dict[str, float]:
    out, previous = {}, start_ns
    for t, line in lines:
        match = SUITE_LINE.match(line)
        if match:
            out[match.group(1)] = (t - previous) / 1e9
            previous = t
    return out


def main(argv: list[str]) -> int:
    summary_path, spans_path, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    install(tracer)
    stamped = None
    if cli_args[:1] == ["selftest"]:
        stamped = sys.stdout = StampedLines(sys.stdout)
    code = cli.main(cli_args)
    sys.stdout.flush()
    summary = tracer.summary()
    if stamped is not None:
        sys.stdout = stamped.stream
        run = summary["spans"].get("selftest.run_selftest", {})
        summary["suite_s"] = suite_seconds(stamped.lines, run.get("first_start_ns", 0))
    tracer.write_spans(spans_path)
    with open(summary_path, "w") as out:
        json.dump(summary, out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
