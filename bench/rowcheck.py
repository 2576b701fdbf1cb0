"""Per-row checks of `kkbounds sweep` CSV output, built on math.comb alone.

Nothing here imports kkbounds: every expected value is derived from the
definitions, so a defect in the package cannot hide itself from this check.
"""

from __future__ import annotations

from math import comb, factorial

HEADER = "m,kk_exact,lovasz,withoutr,noreasy,withr_r,withr,flag_r,flag"
TOL = 1e-9


def greedy_shadow(m: int, k: int, p: int) -> int:
    """Sharp shadow bound from the plain greedy cascade m = C(n_k,k) + C(n_{k-1},k-1) + ..."""
    drop = k - p
    total, rem, j, ceiling = 0, m, k, None
    while rem > 0:
        # largest n with C(n, j) <= rem; n >= j because rem >= 1
        lo = j
        if ceiling is None:
            step = 1
            while comb(lo + step, j) <= rem:
                lo += step
                step *= 2
            hi = lo + step
        else:
            hi = ceiling
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if comb(mid, j) <= rem:
                lo = mid
            else:
                hi = mid
        total += comb(lo, j - drop) if j - drop >= 0 else 0
        rem -= comb(lo, j)
        ceiling = lo
        j -= 1
    return total


def _close(value: float, expected: float) -> bool:
    return abs(value - expected) <= TOL * abs(expected)


def _row_problem(fields: list[str], k: int, p: int) -> str | None:
    """None when the row is right, else the first broken condition."""
    m, kk, wr_r, fl_r = int(fields[0]), int(fields[1]), int(fields[5]), int(fields[7])
    lv, wo, nr, wr, fl = (float(fields[i]) for i in (2, 3, 4, 6, 8))
    if not (nr < wo * (1 + TOL) and wo < lv * (1 + TOL) and lv <= kk * (1 + TOL)):
        return f"m={m}: noreasy<withoutr<lovasz<=kk_exact broken: {nr}, {wo}, {lv}, {kk}"
    if not (fl_r >= k and m < comb(fl_r + 1, k) and (fl_r == k or m >= comb(fl_r, k))):
        return f"m={m}: flag_r={fl_r} is not the smallest r >= k with m < C(r+1,k)"
    if not (
        wr_r >= k
        and m <= comb(wr_r, k) + comb(wr_r - 1, k - 1)
        and (wr_r == k or m > comb(wr_r - 1, k) + comb(wr_r - 2, k - 1))
    ):
        return f"m={m}: withr_r={wr_r} is not the smallest r >= k with m <= C(r,k)+C(r-1,k-1)"
    exact = greedy_shadow(m, k, p)
    if kk != exact:
        return f"m={m}: kk_exact={kk}, greedy cascade gives {exact}"
    lead = factorial(k) ** (p / k) / factorial(p)
    power = m ** (p / k)
    if not _close(nr, lead * power):
        return f"m={m}: noreasy={nr}, closed form gives {lead * power}"
    corrected = lead * (1 + (k - p) / (2 * (factorial(k) * m) ** (1 / k))) ** p * power
    if not _close(wo, corrected):
        return f"m={m}: withoutr={wo}, closed form gives {corrected}"
    for name, r, value in (("withr", wr_r, wr), ("flag", fl_r, fl)):
        expected = comb(r, p) * (m / comb(r, k)) ** (p / k)
        if not _close(value, expected):
            return f"m={m}: {name}={value}, C(r,p)(m/C(r,k))^(p/k) gives {expected} at r={r}"
    return None


def check_sweep(text: str, k: int, p: int, m_start: int, m_end: int, rows: int):
    """Check a default-mode (auto-best) sweep CSV.

    Returns (bad_rows, messages). A wrong header, row count or m range makes
    every row bad.
    """
    lines = text.splitlines()
    if not lines or lines[0] != HEADER:
        return rows, ["header differs from " + HEADER]
    body = [line.split(",") for line in lines[1:]]
    try:
        ms = [int(fields[0]) for fields in body]
    except (ValueError, IndexError):
        return rows, ["unparsable m column"]
    if (
        len(body) != rows
        or ms[0] != m_start
        or ms[-1] != m_end
        or any(a >= b for a, b in zip(ms, ms[1:]))
    ):
        return rows, [f"expected {rows} strictly increasing m from {m_start} to {m_end}"]
    bad, messages = 0, []
    for fields in body:
        try:
            problem = _row_problem(fields, k, p) if len(fields) == 9 else "wrong field count"
        except (ValueError, OverflowError) as exc:
            problem = f"unparsable row {','.join(fields)}: {exc}"
        if problem:
            bad += 1
            messages.append(problem)
    return bad, messages
