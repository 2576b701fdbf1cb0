"""Benchmark of the kkbounds command line, end to end and layer by layer.

usage: python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (see NOTES.md for why each was chosen):
  paper_sweep    sweep --k 10 --p 7 --m-end 12777711870 --samples 2000
  dense_sweep    sweep --k 3 --p 2 --m-end 100000 --samples all
  selftest_full  selftest --scale full

Seed 0 runs exactly these commands and compares their output with the golden
files in bench/golden. Any other seed shifts a sweep's m-range up by a
seed-derived offset of 1 to 1000, which keeps its size and magnitude, and
leaves the check to the per-row checker. selftest_full has no inputs, so its
seed changes nothing.

Every run of a command is a fresh interpreter on the checkout's src/, with
stdout to a file, timed by wall clock and by os.wait4 for CPU time and peak
RSS. Times are scaled to a reference machine speed measured next to them
(timed.py, probe.py, calibrate.py; see NOTES.md). With --trace 0 the last
stdout line is a JSON object with the end-to-end metrics; with --trace 1 it
holds the per-layer metrics of traced runs (traced.py) alternated with
untraced ones.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import random
import re
import signal
import statistics
import sys
import time
from typing import NamedTuple

import rowcheck
from calibrate import REF_ROUND_NS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH, "_work")
GOLDEN = os.path.join(BENCH, "golden")

# Wall time of calibrate.py run as a process that set-up times are scaled to.
CALIBRATION_S = 0.1
MIN_ROUNDS = 6  # end-to-end rounds per run, whatever --seconds says
MIN_TRACED = 2  # traced runs per run, so that their counts can be compared
SETUP_CALLS = 3  # set-up calls per round
PROBE_SAMPLES = 200_000  # probes stop once this many latencies are pooled
DEADLINE_S = 170.0  # no child starts that is expected to end after this
SETUP_ARGS = ["bound", "--m", "11", "--k", "3", "--p", "2"]
SETUP_EXPECT = "kk_exact  12\n"
SUITES = (
    "turan_oracle",
    "full_level_identities",
    "cascade_roundtrip",
    "colored_roundtrip",
    "revlex_sharpness",
    "bound_ordering",
    "zoom_facts",
    "lemma_inequalities",
    "fuzz_soundness",
)
COMPLEX_QUERIES = ("complexes.f_vector", "complexes.is_flag", "complexes.is_r_colorable")

# Children start from a defined environment: unbuffered stdout or a ban on
# bytecode caching would change what is measured.
ENV = {key: value for key, value in os.environ.items() if not key.startswith("PYTHON")}
ENV["PYTHONPATH"] = SRC


class Child(NamedTuple):
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


@contextlib.contextmanager
def _kill_after(pid: int, seconds: float):
    previous = signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 0.001))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_child(args: list[str], out_path: str, timeout: float) -> Child:
    """Run the interpreter on args with stdout to out_path and wait for it.

    The child is killed after timeout seconds. Peak RSS comes from this
    child's own rusage, not from RUSAGE_CHILDREN, which keeps the maximum
    over all children so far.
    """
    argv = [sys.executable, *args]
    with open(out_path, "wb") as out, open(os.path.join(WORK, "stderr.txt"), "wb") as err:
        actions = [(os.POSIX_SPAWN_DUP2, out.fileno(), 1), (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, ENV, file_actions=actions)
    try:
        with _kill_after(pid, timeout):
            _, status, usage = os.wait4(pid, 0)
    except BaseException:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    wall = time.perf_counter() - start
    return Child(
        os.waitstatus_to_exitcode(status),
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024,
    )


def _read(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def child_stderr() -> str:
    return _read(os.path.join(WORK, "stderr.txt")).decode(errors="replace").strip()[-500:]


class Timed(NamedTuple):
    child: Child  # wall and CPU time without timed.py's calibration stretches
    wall_scale: float  # reference over measured speed during the run; 1 if unscaled
    cpu_scale: float


class Outcome(NamedTuple):
    attempted: int
    failed: int
    messages: list[str]


class Sweep:
    """A `sweep` workload: golden output at seed 0, per-row checks always."""

    SHAPES = {
        "paper_sweep": (10, 7, 12777711870, 2000),
        "dense_sweep": (3, 2, 100000, "all"),
    }

    def __init__(self, name: str, seed: int) -> None:
        self.k, self.p, m_end, samples = self.SHAPES[name]
        shift = random.Random(seed).randint(1, 1000) if seed else 0
        self.m_start, self.m_end = 1 + shift, m_end + shift
        self.rows = samples if samples != "all" else self.m_end - self.m_start + 1
        self.cli_args = ["sweep", "--k", str(self.k), "--p", str(self.p)]
        if shift:
            self.cli_args += ["--m-start", str(self.m_start)]
        self.cli_args += ["--m-end", str(self.m_end), "--samples", str(samples)]
        self.reference = self._golden_digest(name) if seed == 0 else None
        self.verdicts: dict[str, tuple[int, list[str]]] = {}

    @staticmethod
    def _golden_digest(name: str) -> str:
        csv = os.path.join(GOLDEN, name + ".csv")
        if os.path.exists(csv):
            return hashlib.sha256(_read(csv)).hexdigest()
        return _read(os.path.join(GOLDEN, name + ".sha256")).decode().split()[0]

    def check(self, code: int, out: bytes) -> Outcome:
        if code != 0:
            return Outcome(self.rows, self.rows, [f"exit code {code}: {child_stderr()}"])
        digest = hashlib.sha256(out).hexdigest()
        if self.reference is None:
            self.reference = digest
        if digest != self.reference:
            return Outcome(self.rows, self.rows, [f"output digest {digest} != {self.reference}"])
        if digest not in self.verdicts:
            self.verdicts[digest] = rowcheck.check_sweep(
                out.decode(), self.k, self.p, self.m_start, self.m_end, self.rows
            )
        bad, messages = self.verdicts[digest]
        return Outcome(self.rows, bad, messages[:3])

    def items(self, out: bytes) -> int:
        return self.rows

    def probe_args(self) -> list[str]:
        path = os.path.join(WORK, "probe_ms.txt")
        lines = _read(os.path.join(WORK, "plain.out")).decode().splitlines()[1:]
        with open(path, "w") as f:
            f.writelines(line.split(",", 1)[0] + "\n" for line in lines)
        return ["sweep", str(self.k), str(self.p), path]


class Selftest:
    """`selftest --scale full`: an item is one check; it has no inputs to vary."""

    cli_args = ["selftest", "--scale", "full"]
    FAIL = re.compile(r"^\[FAIL\] \w+: (\d+) of \d+ checks failed$", re.M)
    SUMMARY = re.compile(r"^(OK|FAILED): (\d+) checks at scale=full$", re.M)

    def __init__(self, name: str, seed: int) -> None:
        del name, seed

    def check(self, code: int, out: bytes) -> Outcome:
        text = out.decode(errors="replace")
        summary = self.SUMMARY.search(text)
        attempted = int(summary.group(2)) if summary else 1
        failed = sum(int(n) for n in self.FAIL.findall(text))
        if code != 0 or not summary or summary.group(1) != "OK":
            failed = max(failed, 1)
            return Outcome(attempted, failed, [f"exit code {code}: {text[-300:]}"])
        return Outcome(attempted, failed, [])

    def items(self, out: bytes) -> int:
        summary = self.SUMMARY.search(out.decode(errors="replace"))
        return int(summary.group(2)) if summary else 0

    def probe_args(self) -> list[str]:
        return ["roundtrip"]


WORKLOADS = {"paper_sweep": Sweep, "dense_sweep": Sweep, "selftest_full": Selftest}


class Bench:
    def __init__(self, workload, seconds: float) -> None:
        self.workload = workload
        self.seconds = seconds
        self.deadline = time.perf_counter() + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, outcome: Outcome) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.messages.extend(outcome.messages)

    def run(self, args: list[str], out_name: str, expected_s: float = 0.0) -> Child | None:
        """One child, or None when it could not end before the deadline."""
        left = self.deadline - time.perf_counter()
        if left < expected_s:
            return None
        return run_child(args, os.path.join(WORK, out_name), left)

    def setup(self) -> Timed | None:
        """A trivial `bound` call: interpreter start, imports, parsing, first output."""
        timed, out = self.command("setup.out", "plain", cli_args=SETUP_ARGS)
        if timed is not None:
            ok = timed.child.code == 0 and SETUP_EXPECT in out.decode()
            self.record(Outcome(1, 0 if ok else 1, [] if ok else ["bound --m 11 failed"]))
        return timed

    def calibrate(self) -> Child | None:
        child = self.run([os.path.join(BENCH, "calibrate.py")], "calibrate.out")
        if child is not None:
            ok = child.code == 0
            self.record(Outcome(1, 0 if ok else 1, [] if ok else [f"calibrate: {child_stderr()}"]))
        return child

    def scaled_setups(self) -> list[Timed] | None:
        """SETUP_CALLS set-up calls, each scaled by the calibration processes around it.

        A set-up call is too short for timed.py's sampling, and a process
        start tracks a process start best.
        """
        runs = []
        before = self.calibrate()
        for _ in range(SETUP_CALLS):
            timed = self.setup()
            after = self.calibrate()
            if None in (before, timed, after):
                return None
            runs.append(timed._replace(
                wall_scale=2 * CALIBRATION_S / (before.wall_s + after.wall_s),
                cpu_scale=2 * CALIBRATION_S / (before.cpu_s + after.cpu_s),
            ))
            before = after
        return runs

    def command(self, out_name: str, mode: str, expected_s: float = 0.0, cli_args=None):
        """Run the CLI: "timed" through timed.py, "plain" as is, or "traced".

        Returns (Timed or None at the deadline, stdout). Outputs of the
        workload's own command are checked and recorded.
        """
        args = cli_args or self.workload.cli_args
        speed = os.path.join(WORK, "speed.json")
        with contextlib.suppress(FileNotFoundError):
            os.remove(speed)
        launcher = {
            "timed": [os.path.join(BENCH, "timed.py"), speed],
            "plain": ["-m", "kkbounds.cli"],
            "traced": [os.path.join(BENCH, "traced.py"), os.path.join(WORK, "summary.json"),
                       os.path.join(WORK, "spans.bin")],
        }[mode]
        child = self.run([*launcher, *args], out_name, expected_s)
        if child is None:
            return None, b""
        out = _read(os.path.join(WORK, out_name))
        if cli_args is None:
            self.record(self.workload.check(child.code, out))
        if mode != "timed" or not os.path.exists(speed):
            return Timed(child, 1.0, 1.0), out
        speed = json.loads(_read(speed))
        child = child._replace(
            wall_s=child.wall_s - speed["wall_ns"] / 1e9,
            cpu_s=child.cpu_s - speed["cpu_ns"] / 1e9,
        )
        reference_ns = REF_ROUND_NS * speed["rounds"]
        return Timed(child, reference_ns / speed["wall_ns"], reference_ns / speed["cpu_ns"]), out

    def probe(self, expected_s: float = 0.0) -> tuple[Timed | None, list[float]]:
        args = [os.path.join(BENCH, "probe.py"), *self.workload.probe_args()]
        child = self.run(args, "probe.out", expected_s)
        if child is None:
            return None, []
        try:
            durations = json.loads(_read(os.path.join(WORK, "probe.out")))
        except ValueError:
            durations = []
        ok = child.code == 0 and bool(durations)
        self.record(Outcome(1, 0 if ok else 1, [] if ok else [f"probe: {child_stderr()}"]))
        return Timed(child, 1.0, 1.0), durations

    def rounds(self, steps, min_rounds: int) -> list[list[Timed]]:
        """Repeat the steps in turn until --seconds of child time is spent.

        A step gets the wall time of its previous run, so that no child
        starts that could not end before the deadline, and returns the runs
        it made (none when it has nothing left to do), or None to stop.
        Interleaving spreads every metric over the same stretch of time.
        """
        done: list[list[Timed]] = [[] for _ in steps]
        spent, rounds = 0.0, 0
        while rounds < min_rounds or spent < self.seconds:
            for step, runs in zip(steps, done):
                timed = step(runs[-1].child.wall_s if runs else 0.0)
                if timed is None:
                    return done
                spent += sum(t.child.wall_s for t in timed)
                runs.extend(timed)
            rounds += 1
        return done


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q) - 1)] if ordered else 0.0


def end_to_end(bench: Bench) -> dict[str, tuple[float, str]]:
    bench.setup()  # untimed: fills the bytecode cache, as an installed package has it
    samples: list[float] = []

    def command(expected_s: float) -> list[Timed] | None:
        timed = bench.command("plain.out", "timed", expected_s)[0]
        return None if timed is None else [timed]

    def probe(expected_s: float) -> list[Timed] | None:
        if len(samples) >= PROBE_SAMPLES:
            return []
        timed, durations = bench.probe(expected_s)
        samples.extend(durations)
        return None if timed is None else [timed]

    setups, runs, probes = bench.rounds(
        [lambda _: bench.scaled_setups(), command, probe], MIN_ROUNDS
    )
    print(f"runs: {len(runs)} command, {len(setups)} set-up, {len(probes)} probe; "
          f"latency samples: {len(samples)}")
    print("wall_s and scale per run: "
          + " ".join(f"{t.child.wall_s:.4f}*{t.wall_scale:.3f}" for t in runs))
    wall = statistics.median(t.child.wall_s * t.wall_scale for t in runs)
    items = bench.workload.items(_read(os.path.join(WORK, "plain.out")))
    return {
        "wall_s": (wall, "s"),
        "cpu_s": (statistics.median(t.child.cpu_s * t.cpu_scale for t in runs), "s"),
        "items_per_s": (items / wall, "1/s"),
        "peak_rss_mb": (statistics.median(t.child.rss_mb for t in runs), "MB"),
        "setup_s": (statistics.median(t.child.wall_s * t.wall_scale for t in setups), "s"),
        "row_us_p50": (nearest_rank(samples, 0.50) / 1e3, "us"),
        "row_us_p99": (nearest_rank(samples, 0.99) / 1e3, "us"),
    }


def per_layer(bench: Bench) -> dict[str, tuple[float, str]]:
    summaries: list[dict] = []
    outputs: dict[str, bytes] = {}

    def plain(expected_s: float) -> list[Timed] | None:
        timed, outputs["plain"] = bench.command("plain.out", "plain", expected_s)
        return None if timed is None else [timed]

    def traced(expected_s: float) -> list[Timed] | None:
        timed, out = bench.command("traced.out", "traced", expected_s)
        if timed is None:
            return None
        if timed.child.code == 0:
            summaries.append(json.loads(_read(os.path.join(WORK, "summary.json"))))
        if out != outputs["plain"]:
            bench.record(Outcome(1, 1, ["traced output differs from untraced output"]))
        return [timed]

    plain_runs, traced_runs = bench.rounds([plain, traced], MIN_TRACED)
    keys = {json.dumps(counted_part(s), sort_keys=True) for s in summaries}
    bench.record(Outcome(1, 0 if len(keys) == 1 else 1,
                         [] if len(keys) == 1 else ["counts differ between traced runs"]))
    print(f"runs: {len(plain_runs)} untraced, {len(traced_runs)} traced; "
          f"counts repeat: {len(keys) == 1}")
    items = bench.workload.items(_read(os.path.join(WORK, "plain.out")))
    checks = items if isinstance(bench.workload, Selftest) else 0
    metrics = layer_metrics(summaries or [{"spans": {}, "counts": []}], items, checks)
    overhead = statistics.median(t.child.wall_s for t in traced_runs) - statistics.median(
        t.child.wall_s for t in plain_runs
    )
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def counted_part(summary: dict) -> dict:
    """The parts of a traced summary that are counts and must repeat exactly."""
    return {
        "counts": summary["counts"],
        "spans": {name: (s["calls"], s.get("distinct")) for name, s in summary["spans"].items()},
    }


def layer_metrics(summaries: list[dict], items: int, checks: int) -> dict[str, tuple[float, str]]:
    first = summaries[0]

    def span(name: str, key: str, summary=first) -> int:
        return summary["spans"].get(name, {}).get(key, 0)

    def self_s(*names: str) -> float:
        return statistics.median(sum(span(n, "self_ns", s) for n in names) for s in summaries) / 1e9

    def p50_us(name: str) -> float:
        return statistics.median(span(name, "p50_ns", s) for s in summaries) / 1e3

    def count(leaf: str, within: str | None = None) -> int:
        return sum(c for lf, enclosing, c in first["counts"] if lf == leaf and within in (None, enclosing))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    decompose, colored = "cascade.cascade_decompose", "colored.colored_cascade_decompose"
    builders = sorted(
        {n for s in summaries for n in s["spans"] if n.startswith("complexes.")} - set(COMPLEX_QUERIES)
    )
    metrics = {
        "approx.lovasz_x.self_s": (self_s("approx.lovasz_x"), "s"),
        "approx.lovasz_x.us_p50": (p50_us("approx.lovasz_x"), "us"),
        "approx.lovasz_x.binom_real_per_call": (
            ratio(count("binom_real", "approx.lovasz_x"), span("approx.lovasz_x", "calls")), "count"),
        "approx.r_select.self_s": (self_s("approx.best_r", "approx.flag_r"), "s"),
        "approx.closed_form.self_s": (
            self_s("approx.withoutr_bound", "approx.noreasy_bound", "approx.colorapprox_bound"), "s"),
        "cascade.decompose.self_s": (self_s(decompose), "s"),
        "cascade.decompose.us_p50": (p50_us(decompose), "us"),
        "cascade.decompose.calls_per_item": (ratio(span(decompose, "calls"), items), "count"),
        "cascade.decompose.distinct_frac": (
            ratio(span(decompose, "distinct"), span(decompose, "calls")), "ratio"),
        "cascade.binomial_per_decompose": (
            ratio(count("binomial", decompose), span(decompose, "distinct")), "count"),
        "cascade.shadow_bound.self_s": (self_s("cascade.shadow_bound"), "s"),
        "colored.decompose.self_s": (self_s(colored), "s"),
        "colored.decompose.us_p50": (p50_us(colored), "us"),
        "colored.shadow_bound.self_s": (self_s("colored.colored_shadow_bound"), "s"),
        "colored.turan_per_decompose": (
            ratio(count("turan_coefficient", colored), span(colored, "distinct")), "count"),
        "binomials.binomial.calls": (count("binomial"), "count"),
        "binomials.binom_real.calls": (count("binom_real"), "count"),
        "binomials.turan_coefficient.calls": (count("turan_coefficient"), "count"),
        "complexes.build.self_s": (self_s(*builders), "s"),
        "complexes.query.self_s": (self_s(*COMPLEX_QUERIES), "s"),
    }
    for suite in SUITES:
        value = statistics.median(s.get("suite_s", {}).get(suite, 0.0) for s in summaries)
        metrics[f"selftest.{suite}.s"] = (value, "s")
    metrics["selftest.checks"] = (checks, "count")
    metrics["cli.self_s"] = (self_s("cli.main"), "s")
    metrics["cli.sample_grid_s"] = (
        statistics.median(span("cli.sample_grid", "total_ns", s) for s in summaries) / 1e9, "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "kkbounds", "cli.py")):
        print(f"error: no kkbounds sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    workload = WORKLOADS[args.workload](args.workload, args.seed)
    bench = Bench(workload, args.seconds)
    print(f"python {sys.version.split()[0]}, nproc {os.cpu_count()}, "
          f"workload {args.workload}, seed {args.seed}: {' '.join(workload.cli_args)}")
    metrics = per_layer(bench) if args.trace else end_to_end(bench)
    for message in bench.messages[:10]:
        print(f"failure: {message}", file=sys.stderr)
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
