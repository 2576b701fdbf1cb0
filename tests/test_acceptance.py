"""Acceptance gate: every criterion at its pinned tolerance.

Each test prints one `criterion NN [PASS|FAIL]` line (visible with pytest -s,
or in captured output on failure).  Tolerances are fixed here, not tuned:
exact integer equality for the oracle criteria, 1e-9 relative slack on float
inequality chains, 1e-12 relative on the root-finder and point values, and
strictly positive margins for the product-root inequalities.
"""

import io
import math
import random
from contextlib import redirect_stdout

from kkbounds import (
    binom_real,
    binomial,
    colorapprox_bound,
    best_r,
    f_vector,
    lovasz_bound,
    lovasz_x,
    noreasy_bound,
    random_complex,
    revlex_complex,
    shadow_bound,
    turan_clique_count_oracle,
    turan_coefficient,
    withoutr_bound,
)
from kkbounds.cli import main as cli_main
from kkbounds.grid import geometric_grid
from kkbounds.selftest import (
    check_complex_soundness,
    narrow_window_margin,
    revlex_face_counts,
    shifted_root_margin,
)

ORDER_SLACK = 1e-9


def _report(number: int, description: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {number:02d} [{status}] {description}")
    assert not failures, f"criterion {number}: {failures[:5]}"


def test_criterion_01_revlex_oracle_sharpness():
    failures = []
    for k in range(2, 6):
        for m, counts in revlex_face_counts(500, k):
            for p in range(1, k):
                if shadow_bound(m, k, p) != counts[p]:
                    failures.append(f"m={m} k={k} p={p}")
        # the incremental closure agrees with the full library construction
        for m in (1, 123, 500):
            entries = f_vector(revlex_complex(m, k)).entries
            for p in range(1, k):
                if shadow_bound(m, k, p) != entries[p]:
                    failures.append(f"library complex m={m} k={k} p={p}")
    _report(1, "shadow_bound equals rev-lex complex face counts, k<=5 m<=500", failures)


def test_criterion_02_turan_coefficient_oracle():
    failures = []
    for n in range(0, 13):
        for r in range(1, max(n, 1) + 1):
            for k in range(0, n + 1):
                if turan_coefficient(n, k, r) != turan_clique_count_oracle(n, k, r):
                    failures.append(f"n={n} k={k} r={r}")
    _report(2, "turan_coefficient equals brute-force clique count, n<=12", failures)


def test_criterion_03_full_level_identities():
    failures = []
    for n in range(2, 13):
        for k in range(2, n + 1):
            for p in range(1, k):
                if shadow_bound(binomial(n, k), k, p) != binomial(n, p):
                    failures.append(f"shadow n={n} k={k} p={p}")
    for p in range(1, 5):
        for r in range(1, 7):
            for k in range(1, r + 1):
                if turan_coefficient(p * r, k, r) != binomial(r, k) * p**k:
                    failures.append(f"turan p={p} r={r} k={k}")
    _report(3, "full-level identities for shadow_bound and turan_coefficient", failures)


def test_criterion_04_bound_ordering_k10_p7_grid():
    failures = []
    for m in geometric_grid(1, binomial(51, 10), 200):
        nr = noreasy_bound(m, 10, 7)
        wr = withoutr_bound(m, 10, 7)
        lv = lovasz_bound(m, 10, 7)
        kk = shadow_bound(m, 10, 7)
        if not (
            nr < wr * (1 + ORDER_SLACK)
            and wr < lv * (1 + ORDER_SLACK)
            and lv <= kk * (1 + ORDER_SLACK)
        ):
            failures.append(f"m={m}: {nr} {wr} {lv} {kk}")
    m = binomial(50, 10)
    if lovasz_bound(m, 10, 7) != float(shadow_bound(m, 10, 7)):
        failures.append("lovasz != kk_exact at m=C(50,10)")
    _report(4, "noreasy < withoutr < lovasz <= kk_exact on 200-point grid, k=10 p=7", failures)


def test_criterion_05_zoom_facts():
    failures = []
    low = binomial(50, 10)
    boundary = low + binomial(49, 9)
    top = binomial(51, 10)
    for m in (low + 1, low + 12345, (low + boundary) // 2, boundary):
        if best_r(m, 10) != 50:
            failures.append(f"best_r({m}) != 50")
        wr = colorapprox_bound(m, 10, 7, 50)
        lv = lovasz_bound(m, 10, 7)
        if wr < lv * (1 - ORDER_SLACK):
            failures.append(f"colorapprox(r=50) < lovasz at m={m}")
    for m in (boundary + 1, (boundary + top) // 2, top - 1):
        if best_r(m, 10) != 51:
            failures.append(f"best_r({m}) != 51")
    m = top - 1
    if not colorapprox_bound(m, 10, 7, 50) > shadow_bound(m, 10, 7):
        failures.append("flag bound does not exceed kk_exact at m=C(51,10)-1")
    _report(5, "best_r jump at C(50,10)+C(49,9); flag bound beats exact at top", failures)


def test_criterion_06_lovasz_root_finder():
    failures = []
    rng = random.Random(20250810)
    for _ in range(1000):
        k = rng.randint(1, 20)
        m = max(1, int(round(math.exp(rng.uniform(0.0, math.log(1e12))))))
        x = lovasz_x(m, k)
        if abs(binom_real(x, k) - m) > max(1, m) * 1e-12:
            failures.append(f"m={m} k={k} x={x}")
    _report(6, "1000 root-finder residuals within max(1,m)*1e-12, k<=20 m<=1e12", failures)


def test_criterion_07_point_values():
    failures = []
    if binom_real(3.5, 2) != 4.375:
        failures.append("binom_real(3.5, 2) != 4.375 exactly")
    want = math.sqrt(90) + 0.5
    if abs(withoutr_bound(45, 2, 1) - want) > want * 1e-12:
        failures.append("withoutr_bound(45, 2, 1) != sqrt(90) + 1/2")
    want = math.sqrt(90)
    if abs(noreasy_bound(45, 2, 1) - want) > want * 1e-12:
        failures.append("noreasy_bound(45, 2, 1) != sqrt(90)")
    _report(7, "pinned point values for binom_real, withoutr, noreasy", failures)


def test_criterion_08_product_root_inequalities():
    failures = []
    rng = random.Random(1001)
    for _ in range(10_000):
        k = rng.randint(2, 10)
        p = rng.randint(1, k - 1)
        x = (k - 1) + math.exp(rng.uniform(math.log(1e-3), math.log(200.0)))
        if not narrow_window_margin(x, k, p) > 0.0:
            failures.append(f"window x={x} k={k} p={p}")
    for _ in range(10_000):
        p = rng.randint(2, 8)  # at p=1 the shifted inequality is an equality
        x = (p - 1) + math.exp(rng.uniform(math.log(1e-3), math.log(200.0)))
        c = math.exp(rng.uniform(math.log(1e-2), math.log(50.0)))
        if not shifted_root_margin(x, p, c) > 0.0:
            failures.append(f"shift x={x} p={p} c={c}")
    _report(8, "product-root inequalities strict at 10^4 sampled points each", failures)


def test_criterion_09_fuzzing_soundness():
    failures = []
    total_checks = 0
    for seed in range(1000):
        cx = random_complex(
            n=4 + seed % 5,
            density=(0.2, 0.35, 0.5, 0.65, 0.8)[(seed // 5) % 5],
            seed=seed,
            prune=(0.0, 0.3, 0.6)[seed % 3],
        )
        checks, bad = check_complex_soundness(cx)
        total_checks += checks
        failures.extend(f"seed={seed}: {msg}" for msg in bad)
    print(f"criterion 09 ran {total_checks} bound comparisons")
    _report(9, "1000 random complexes: all bounds sound, all f-vectors validate", failures)


def test_criterion_10_sweep_determinism():
    argv = [
        "sweep", "--k", "10", "--p", "7",
        "--m-start", "1", "--m-end", str(binomial(51, 10)), "--samples", "120",
    ]
    outputs = []
    for _ in range(2):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = cli_main(list(argv))
        assert code == 0
        outputs.append(buffer.getvalue())
    failures = [] if outputs[0] == outputs[1] and outputs[0] else ["sweep output differs"]
    _report(10, "identical sweep invocations produce byte-identical CSV", failures)
