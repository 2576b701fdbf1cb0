"""A fixed pure-Python workload: how fast this machine runs Python right now.

It imports nothing from kkbounds, so no change to the package can move it.
timed.py and probe.py run short stretches of it in the measured process and
scale their times to REF_ROUND_NS per round; run.py runs it as a process of
its own around each set-up call and scales that to CALIBRATION_S (see
NOTES.md, "Normalised times"). Its mix follows what kkbounds spends time on: exact binomials,
falling-factorial float products, tuples and small function calls.
"""

import math

# The speed times are scaled to: about a quiet core of the machine the
# benchmark was written on (Intel Xeon, 2 vCPUs, Python 3.11.7).
REF_ROUND_NS = 1_500
PROCESS_ROUNDS = 25_000  # with interpreter start-up, about CALIBRATION_S = 0.1 s


def falling(x: float, k: int) -> float:
    num = 1.0
    for i in range(k):
        num *= x - i
    return num / math.factorial(k)


def work(rounds: int) -> int:
    acc = 0
    for i in range(1, rounds + 1):
        n = 12 + i % 48
        acc += math.comb(n, 1 + i % 10) % 1009
        acc += int(falling(n + 0.5, 1 + i % 7)) & 7
        acc += len(tuple((n, j) for j in range(3)))
    return acc


if __name__ == "__main__":
    work(PROCESS_ROUNDS)
