"""Run the kkbounds command line in this process while sampling the core's speed.

usage: timed.py SPEED_JSON CLI_ARG...

Each core of the machine this was written on switches between two speeds,
1.75x apart, every few seconds, independently of the other core. So a short
stretch of calibrate.work runs before the package is imported, on a
wall-clock timer every PERIOD_S while the command runs, and after it, on the
core that runs the command. At exit SPEED_JSON gets the stretches' count,
rounds, and total wall and CPU time; run.py subtracts that time from the
process's and scales the rest to calibrate.REF_ROUND_NS per round.
"""

from __future__ import annotations

import json
import signal
import sys
import time

from calibrate import work

ROUNDS = 300  # about 0.5 ms per stretch
PERIOD_S = 0.05


class Sampler:
    def __init__(self) -> None:
        self.count = 0
        self.wall_ns = 0
        self.cpu_ns = 0

    def sample(self, *_) -> None:
        wall, cpu = time.perf_counter_ns(), time.process_time_ns()
        work(ROUNDS)
        self.wall_ns += time.perf_counter_ns() - wall
        self.cpu_ns += time.process_time_ns() - cpu
        self.count += 1


def main(argv: list[str]) -> int:
    speed_path, cli_args = argv[0], argv[1:]
    work(30)  # untimed: lets the interpreter specialise the loop first
    sampler = Sampler()
    sampler.sample()
    signal.signal(signal.SIGALRM, sampler.sample)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    try:
        from kkbounds import cli

        code = cli.main(cli_args)
        sys.stdout.flush()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        sampler.sample()
        with open(speed_path, "w") as out:
            json.dump({"count": sampler.count, "rounds": sampler.count * ROUNDS,
                       "wall_ns": sampler.wall_ns, "cpu_ns": sampler.cpu_ns}, out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
