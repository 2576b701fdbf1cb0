"""Invariant suites behind the `kkbounds selftest` command.

Each suite checks one family of identities or inequalities exhaustively at a
quick or full scale. A suite is a generator that yields one outcome per
check: True for a pass, or the failure message. `_tally` is the one place
that counts checks and collects failures. Failure messages name the
offending identity so a broken build is diagnosable from the command line.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable, Iterator
from itertools import combinations

from . import approx, binomials, cascade, colored, complexes
from .grid import geometric_grid

MAX_REPORTED = 3
ORDERING_SLACK = 1e-9


def narrow_window_margin(x: float, k: int, p: int) -> float:
    """Margin of: (x(x-1)...(x-k+1))^(1/k) < ((x-c)...(x-c-p+1))^(1/p), c=(k-p)/2.

    Positive means the inequality holds.  Requires k > p > 0 and x > k-1.
    """
    c = (k - p) / 2
    lhs = math.prod(x - i for i in range(k)) ** (1 / k)
    rhs = math.prod(x - c - i for i in range(p)) ** (1 / p)
    return rhs - lhs


def shifted_root_margin(x: float, p: int, c: float) -> float:
    """Margin of: ((x+c)...(x+c-p+1))^(1/p) > (x(x-1)...(x-p+1))^(1/p) + c.

    Positive means the inequality holds.  Strict only for p >= 2 (at p = 1
    both sides equal x + c), so callers should sample p >= 2.

    Proof, for x >= p - 1 and c > 0: with g(t) = (t(t-1)...(t-p+1))^(1/p),
    g'(t) = g(t) (1/p) sum_i 1/(t-i), the geometric mean of the t - i over
    their harmonic mean.  That is at least 1, with equality only when the
    t - i are all equal, that is p = 1.  So for p >= 2, g' > 1 on (p-1, inf),
    and g(x + c) - g(x) > c by the mean value theorem.
    """
    lhs = math.prod(x + c - i for i in range(p)) ** (1 / p)
    rhs = math.prod(x - i for i in range(p)) ** (1 / p) + c
    return lhs - rhs


def _tally(outcomes: Iterable[bool | str]) -> tuple[int, list[str]]:
    """(checks run, failure messages) of a stream of outcomes: True or a message."""
    checks, failures = 0, []
    for outcome in outcomes:
        checks += 1
        if outcome is not True:
            failures.append(outcome)
    return checks, failures


def _complex_outcomes(cx: complexes.SimplicialComplex) -> Iterator[bool | str]:
    """Compare every applicable bound against the true face counts of cx.

    Covers the exact shadow bounds, all closed-form approximations, colored
    bounds for each r the complex admits, and the flag bounds when it is flag.
    """
    fv = complexes.f_vector(cx)
    entries = fv.entries

    result = cascade.validate_face_vector(fv)
    yield result.ok or (
        f"validate_face_vector{entries} rejected a real complex at k={result.failing_k}"
    )
    yield approx.symmetric_chain(fv).strictly_decreasing or (
        f"symmetric chain not strictly decreasing for {entries}"
    )

    n_verts = len(cx.vertices)
    chromatic = next(
        r for r in range(1, max(n_verts, 1) + 1) if complexes.is_r_colorable(cx, r)
    )
    flag = complexes.is_flag(cx)
    top = fv.dimension + 1

    for r in range(chromatic, max(n_verts, chromatic) + 1):
        res = colored.validate_colored_face_vector(fv, r)
        yield res.ok or (
            f"validate_colored_face_vector{entries} with r={r} failed at k={res.failing_k}"
        )

    for k in range(2, len(entries)):
        m = entries[k]
        for p in range(1, k):
            true_count = entries[p]
            evaluated = [
                ("shadow_bound", cascade.shadow_bound(m, k, p), 0.0),
                ("lovasz_bound", approx.lovasz_bound(m, k, p), ORDERING_SLACK),
                ("withoutr_bound", approx.withoutr_bound(m, k, p), ORDERING_SLACK),
                ("noreasy_bound", approx.noreasy_bound(m, k, p), ORDERING_SLACK),
            ]
            for r in range(max(k, chromatic), n_verts + 1):
                colored_shadow = colored.colored_shadow_bound(m, k, p, r)
                colorapprox = approx.colorapprox_bound(m, k, p, r)
                evaluated += [
                    (f"colored_shadow_bound[r={r}]", colored_shadow, 0.0),
                    (f"colorapprox_bound[r={r}]", colorapprox, ORDERING_SLACK),
                ]
            if flag:
                fr = approx.flag_r(m, k)
                evaluated.append(
                    (f"flag bound[r={fr}]", approx.colorapprox_bound(m, k, p, fr), ORDERING_SLACK)
                )
                if k <= top:
                    flag_dim = approx.colorapprox_bound(m, k, p, top)
                    evaluated.append((f"flag-dim bound[r={top}]", flag_dim, ORDERING_SLACK))
            for name, value, tol in evaluated:
                yield not value > true_count * (1 + tol) or (
                    f"{name}(m={m},k={k},p={p}) = {value} exceeds true count {true_count}"
                )


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _suite_turan_oracle(scale: str) -> Iterator[bool | str]:
    n_max = 12 if scale == "full" else 8
    for n in range(n_max + 1):
        for r in range(1, max(n, 1) + 1):
            for k in range(n + 1):
                a = binomials.turan_coefficient(n, k, r)
                b = binomials.turan_clique_count_oracle(n, k, r)
                yield a == b or f"turan_coefficient({n},{k},{r})={a} != clique oracle {b}"


def _suite_full_level_identities(scale: str) -> Iterator[bool | str]:
    n_max = 12 if scale == "full" else 9
    for p in range(1, 5):
        for r in range(1, 7):
            for k in range(1, r + 1):
                lhs = binomials.turan_coefficient(p * r, k, r)
                rhs = binomials.binomial(r, k) * p**k
                yield lhs == rhs or (
                    f"turan_coefficient({p * r},{k},{r})={lhs} != C({r},{k})*{p}^{k}={rhs}"
                )
    for n in range(2, n_max + 1):
        for k in range(2, n + 1):
            for p in range(1, k):
                lhs = cascade.shadow_bound(binomials.binomial(n, k), k, p)
                rhs = binomials.binomial(n, p)
                yield lhs == rhs or f"shadow_bound(C({n},{k}),{k},{p})={lhs} != C({n},{p})={rhs}"


def _suite_cascade_roundtrip(scale: str) -> Iterator[bool | str]:
    m_max, k_max = (5000, 6) if scale == "full" else (500, 4)
    for k in range(1, k_max + 1):
        for m in range(1, m_max + 1):
            back = cascade.cascade_evaluate(cascade.cascade_decompose(m, k))
            yield back == m or f"cascade roundtrip: decompose({m},{k}) sums to {back}"


def _suite_colored_roundtrip(scale: str) -> Iterator[bool | str]:
    m_max, r_max = (2000, 5) if scale == "full" else (200, 4)
    for r in range(1, r_max + 1):
        for k in range(1, r + 1):
            for m in range(1, m_max + 1):
                rep = colored.colored_cascade_decompose(m, k, r)
                back = colored.colored_cascade_evaluate(rep)
                yield back == m or f"colored roundtrip: decompose({m},{k},{r}) sums to {back}"


def revlex_face_counts(m_max: int, k: int):
    """Yield (m, counts) for m = 1..m_max along the rev-lex k-sets.

    counts[p] is the number of p-vertex faces of the complex generated by the
    first m k-sets in rev-lex order.  It is one list, updated in place as each
    facet's faces are closed in.
    """
    seen: set[tuple[int, ...]] = set()
    counts = [0] * (k + 1)
    for m, kset in enumerate(complexes.revlex_ksets(m_max, k), start=1):
        facet = tuple(sorted(kset))
        for size in range(1, k + 1):
            for sub in combinations(facet, size):
                if sub not in seen:
                    seen.add(sub)
                    counts[size] += 1
        yield m, counts


def _suite_revlex_sharpness(scale: str) -> Iterator[bool | str]:
    """shadow_bound equals the face counts of the rev-lex complex, every level."""
    m_max, k_max = (500, 5) if scale == "full" else (120, 4)
    for k in range(2, k_max + 1):
        previous: dict[int, int] = {}
        for m, counts in revlex_face_counts(m_max, k):
            for p in range(1, k):
                bound = cascade.shadow_bound(m, k, p)
                if bound != counts[p]:
                    yield f"shadow_bound({m},{k},{p})={bound} != rev-lex face count {counts[p]}"
                else:
                    yield bound >= previous.get(p, 0) or (
                        f"shadow_bound({m},{k},{p})={bound} < shadow_bound({m - 1},{k},{p})"
                    )
                previous[p] = bound


def _suite_bound_ordering(scale: str) -> Iterator[bool | str]:
    samples = 200 if scale == "full" else 40
    m_end = binomials.binomial(51, 10)
    for m in geometric_grid(1, m_end, samples):
        nr = approx.noreasy_bound(m, 10, 7)
        wr = approx.withoutr_bound(m, 10, 7)
        lv = approx.lovasz_bound(m, 10, 7)
        kk = cascade.shadow_bound(m, 10, 7)
        yield (
            nr < wr * (1 + ORDERING_SLACK)
            and wr < lv * (1 + ORDERING_SLACK)
            and lv <= kk * (1 + ORDERING_SLACK)
        ) or (
            f"ordering noreasy<withoutr<lovasz<=kk_exact broken at m={m}: "
            f"{nr}, {wr}, {lv}, {kk}"
        )
    m = binomials.binomial(50, 10)
    yield approx.lovasz_bound(m, 10, 7) == float(binomials.binomial(50, 7)) or (
        "lovasz_bound != kk_exact at m=C(50,10)"
    )


def _suite_zoom_facts(scale: str) -> Iterator[bool | str]:
    del scale
    low = binomials.binomial(50, 10)
    boundary = low + binomials.binomial(49, 9)
    top = binomials.binomial(51, 10)
    yield (approx.best_r(boundary, 10) == 50 and approx.best_r(boundary + 1, 10) == 51) or (
        "best_r does not jump 50 -> 51 right after C(50,10)+C(49,9)"
    )
    for m in (low + 1, (low + boundary) // 2, boundary):
        wr = approx.colorapprox_bound(m, 10, 7, 50)
        lv = approx.lovasz_bound(m, 10, 7)
        yield not wr < lv * (1 - ORDERING_SLACK) or (
            f"colorapprox(r=50)={wr} below lovasz={lv} at m={m}"
        )
    m = top - 1
    flag = approx.colorapprox_bound(m, 10, 7, 50)
    kk = cascade.shadow_bound(m, 10, 7)
    yield flag > kk or f"flag bound {flag} does not exceed kk_exact {kk} at m=C(51,10)-1"


def _suite_lemma_inequalities(scale: str) -> Iterator[bool | str]:
    points = 10_000 if scale == "full" else 1_000
    rng = random.Random(1729)
    for _ in range(points):
        k = rng.randint(2, 10)
        p = rng.randint(1, k - 1)
        x = (k - 1) + math.exp(rng.uniform(math.log(1e-3), math.log(200.0)))
        yield narrow_window_margin(x, k, p) > 0.0 or (
            f"window inequality fails at x={x}, k={k}, p={p}"
        )
    for _ in range(points):
        p = rng.randint(2, 8)
        x = (p - 1) + math.exp(rng.uniform(math.log(1e-3), math.log(200.0)))
        c = math.exp(rng.uniform(math.log(1e-2), math.log(50.0)))
        yield shifted_root_margin(x, p, c) > 0.0 or (
            f"shift inequality fails at x={x}, p={p}, c={c}"
        )


def _suite_fuzz_soundness(scale: str) -> Iterator[bool | str]:
    instances = 200 if scale == "full" else 30
    for seed in range(instances):
        cx = complexes.random_complex(
            n=4 + seed % 5,
            density=(0.2, 0.35, 0.5, 0.65, 0.8)[(seed // 5) % 5],
            seed=seed,
            prune=(0.0, 0.3, 0.6)[seed % 3],
        )
        for outcome in _complex_outcomes(cx):
            yield outcome is True or f"seed={seed}: {outcome}"


SUITES = (
    ("turan_oracle", _suite_turan_oracle),
    ("full_level_identities", _suite_full_level_identities),
    ("cascade_roundtrip", _suite_cascade_roundtrip),
    ("colored_roundtrip", _suite_colored_roundtrip),
    ("revlex_sharpness", _suite_revlex_sharpness),
    ("bound_ordering", _suite_bound_ordering),
    ("zoom_facts", _suite_zoom_facts),
    ("lemma_inequalities", _suite_lemma_inequalities),
    ("fuzz_soundness", _suite_fuzz_soundness),
)


def run_selftest(scale: str = "quick") -> bool:
    """Run every suite at the given scale; print one line per suite."""
    if scale not in ("quick", "full"):
        raise ValueError(f"scale must be 'quick' or 'full', got {scale!r}")
    all_ok = True
    total = 0
    for name, suite in SUITES:
        checks, failures = _tally(suite(scale))
        total += checks
        if failures:
            all_ok = False
            print(f"[FAIL] {name}: {len(failures)} of {checks} checks failed")
            for message in failures[:MAX_REPORTED]:
                print(f"       {message}")
        else:
            print(f"[PASS] {name} ({checks} checks)")
    print(f"{'OK' if all_ok else 'FAILED'}: {total} checks at scale={scale}")
    return all_ok
