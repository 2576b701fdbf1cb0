"""Strictly increasing integer grids over [m_start, m_end] for sweeps and checks."""

from __future__ import annotations

import math

from .binomials import _shown


def _check_range(m_start: int, m_end: int) -> None:
    """ValueError unless 1 <= m_start <= m_end."""
    if m_start < 1 or m_end < m_start:
        raise ValueError(f"need 1 <= m_start <= m_end, got {_shown(m_start)}, {_shown(m_end)}")


def _spaced_grid(m_start: int, m_end: int, samples: int, point) -> list[int]:
    """samples strictly increasing integers from m_start to m_end.

    Between the two ends, the i-th is point(m_start, m_end, i, samples - 1),
    moved just far enough to keep the values distinct and inside the range.
    """
    _check_range(m_start, m_end)
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {_shown(samples)}")
    if samples > m_end - m_start + 1:
        raise ValueError(
            f"cannot place {_shown(samples)} distinct integers in"
            f" [{_shown(m_start)}, {_shown(m_end)}]"
        )
    last = samples - 1
    out = [m_start]
    for i in range(1, last):
        out.append(min(max(point(m_start, m_end, i, last), out[-1] + 1), m_end - (last - i)))
    out.append(m_end)
    return out


def _geometric_point(a: int, b: int, i: int, last: int) -> int:
    """The integer nearest a (b/a)^(i/last), to float precision."""
    log_v = math.log(a) + i / last * (math.log(b) - math.log(a))
    try:
        return round(math.exp(log_v))
    except OverflowError:  # beyond float range: the leading 60 bits from log space
        shift = int(log_v / math.log(2)) - 60
        return int(math.exp(log_v - shift * math.log(2))) << shift


def _linear_point(a: int, b: int, i: int, last: int) -> int:
    """The integer nearest a + (b - a) i / last, in float arithmetic where that fits."""
    try:
        return round(a + i / last * (b - a))
    except OverflowError:  # beyond float range: exact, halves rounded up
        return a + (2 * i * (b - a) + last) // (2 * last)


def geometric_grid(m_start: int, m_end: int, samples: int) -> list[int]:
    """samples strictly increasing integers from m_start to m_end, equal ratios."""
    return _spaced_grid(m_start, m_end, samples, _geometric_point)


def linear_grid(m_start: int, m_end: int, samples: int) -> list[int]:
    """samples strictly increasing integers from m_start to m_end, equal steps."""
    return _spaced_grid(m_start, m_end, samples, _linear_point)
