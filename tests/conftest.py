"""Fixtures shared by the test modules."""

import pytest

from kkbounds import approx


@pytest.fixture
def root_evaluations(monkeypatch):
    """count(items, most=None): the items of a lazy iterator, and the root's evaluations in each.

    The Lovász root (approx._lovasz_root) is patched to count the calls of
    the C(x, k) evaluator it is given; the lovasz column's C(x, p) is not
    counted.  An item that takes more than most evaluations fails at once.
    """
    calls, limit, root = 0, None, approx._lovasz_root

    def counting_root(m, k, n, c, f, slope, start):
        def counted(x):
            nonlocal calls
            calls += 1
            assert limit is None or calls <= limit, f"more than {limit} evaluations"
            return f(x)

        return root(m, k, n, c, counted, slope, start)

    def count(items, most=None):
        nonlocal calls, limit
        calls, limit, got, counts = 0, most, [], []
        for item in items:
            got.append(item)
            counts.append(calls)
            calls = 0
        return got, counts

    monkeypatch.setattr(approx, "_lovasz_root", counting_root)
    return count
