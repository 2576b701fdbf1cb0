"""Strictly increasing integer grids over [m_start, m_end] for sweeps and checks."""

from __future__ import annotations

import math


def _spaced_grid(m_start: int, m_end: int, samples: int, target) -> list[int]:
    """samples strictly increasing integers from m_start to m_end.

    The i-th is the integer nearest target(m_start, m_end, i / (samples - 1)),
    moved just far enough to keep the values distinct and inside the range.
    """
    if m_start < 1 or m_end < m_start:
        raise ValueError(f"need 1 <= m_start <= m_end, got {m_start}, {m_end}")
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    if samples > m_end - m_start + 1:
        raise ValueError(
            f"cannot place {samples} distinct integers in [{m_start}, {m_end}]"
        )
    out: list[int] = []
    prev = m_start - 1
    for i in range(samples):
        v = max(round(target(m_start, m_end, i / (samples - 1))), prev + 1)
        v = min(v, m_end - (samples - 1 - i))
        out.append(v)
        prev = v
    return out


def geometric_grid(m_start: int, m_end: int, samples: int) -> list[int]:
    """samples strictly increasing integers from m_start to m_end, equal ratios."""
    return _spaced_grid(
        m_start,
        m_end,
        samples,
        lambda a, b, t: math.exp(math.log(a) + t * (math.log(b) - math.log(a))),
    )


def linear_grid(m_start: int, m_end: int, samples: int) -> list[int]:
    """samples strictly increasing integers from m_start to m_end, equal steps."""
    return _spaced_grid(m_start, m_end, samples, lambda a, b, t: a + t * (b - a))
