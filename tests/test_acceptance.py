"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  The oracle-agreement sweeps are shared between criteria through
module-scoped fixtures, so rejecting pairs are validated once and reused.
"""

import json
import math
import random
import time
from fractions import Fraction

import pytest

from prenex import (
    Prefix,
    Quantifier,
    count_pairs,
    count_pairs_via_graph,
    decide_with_stats,
    default_names,
    enumerate_classes,
    implies,
    random_prefix,
    validate_witness,
)
from prenex.cli import run_bench
from prenex.oracle import _explore, _key
from support import (
    all_raw_prefixes,
    applicable_moves,
    apply_move,
    fubini,
    run_python,
    successors,
)

# Sampled-sweep grids: the 10^4 pairs per n come from an (s1 x s2) grid of
# independent uniform samples, so each s1 class's closure is computed once
# and shared across all its partners.
GRIDS = {5: (100, 100), 6: (100, 100), 7: (50, 200), 8: (25, 400)}
SAMPLE_SEED = 20250811


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def exhaustive_sweep():
    """All ordered raw pairs at n = 1..4: decider vs closure-cached oracle.

    One pass per n collects the agreement tally, witness validity of every
    reject, and the full acceptance matrix (reused by criterion 5).
    """
    t0 = time.perf_counter()
    summary = {}
    for n in (1, 2, 3, 4):
        states = list(all_raw_prefixes(n))
        keys = [_key(p) for p in states]
        closures = {}
        for p, key in zip(states, keys):
            if key not in closures:
                _, closures[key] = _explore(key)
        checked = mismatches = rejects = bad_witnesses = 0
        acceptance = []
        for s1, key1 in zip(states, keys):
            reach = closures[key1]
            row = 0
            for j, s2 in enumerate(states):
                verdict = implies(s1, s2)
                checked += 1
                if verdict.accepted != (keys[j] in reach):
                    mismatches += 1
                if verdict.accepted:
                    row |= 1 << j
                else:
                    rejects += 1
                    if not validate_witness(s1, s2, verdict):
                        bad_witnesses += 1
            acceptance.append(row)
        summary[n] = {
            "keys": keys,
            "acceptance": acceptance,
            "checked": checked,
            "mismatches": mismatches,
            "rejects": rejects,
            "bad_witnesses": bad_witnesses,
        }
    summary["elapsed"] = time.perf_counter() - t0
    return summary


@pytest.fixture(scope="module")
def sampled_sweep():
    """Grid-sampled pairs at n = 5..8: decider vs closure-cached oracle."""
    summary = {}
    for n, (n_s1, n_s2) in GRIDS.items():
        rng = random.Random(SAMPLE_SEED + n)
        names = default_names(n)
        s1s = [random_prefix(n, rng, names) for _ in range(n_s1)]
        s2s = [random_prefix(n, rng, names) for _ in range(n_s2)]
        s2_keys = [_key(p) for p in s2s]
        s2_key_set = set(s2_keys)
        checked = mismatches = rejects = bad_witnesses = 0
        closures = {}
        for s1 in s1s:
            key1 = _key(s1)
            reach = closures.get(key1)
            if reach is None:
                _, visited = _explore(key1)
                # cache only the s2 keys reached: a visited set at n = 8 can
                # hold about a million classes
                reach = closures[key1] = s2_key_set & visited
            for s2, key2 in zip(s2s, s2_keys):
                verdict = implies(s1, s2)
                checked += 1
                if verdict.accepted != (key2 in reach):
                    mismatches += 1
                if not verdict.accepted:
                    rejects += 1
                    if not validate_witness(s1, s2, verdict):
                        bad_witnesses += 1
        summary[n] = {
            "checked": checked,
            "mismatches": mismatches,
            "rejects": rejects,
            "bad_witnesses": bad_witnesses,
        }
    return summary


def test_criterion_1_exhaustive_oracle_agreement(exhaustive_sweep):
    checked = sum(exhaustive_sweep[n]["checked"] for n in (1, 2, 3, 4))
    mismatches = sum(exhaustive_sweep[n]["mismatches"] for n in (1, 2, 3, 4))
    per_n = [exhaustive_sweep[n]["checked"] for n in (1, 2, 3, 4)]
    elapsed = exhaustive_sweep["elapsed"]
    ok = per_n == [4, 64, 2304, 147456] and mismatches == 0 and elapsed < 300
    report(
        1,
        ok,
        f"exhaustive n<=4: {checked} ordered pairs, {mismatches} mismatches, "
        f"{elapsed:.1f}s",
    )


def test_criterion_2_sampled_oracle_agreement(sampled_sweep):
    details = []
    ok = True
    for n in (5, 6, 7, 8):
        row = sampled_sweep[n]
        ok = ok and row["checked"] >= 10_000 and row["mismatches"] == 0
        details.append(f"n={n}: {row['checked']} pairs, {row['mismatches']} bad")
    report(2, ok, "sampled agreement: " + "; ".join(details))


def test_criterion_3_class_counts():
    counts = [len(enumerate_classes(n)) for n in range(1, 6)]
    by_recurrence = [2 * fubini(n) for n in range(1, 6)]
    ok = counts == [2, 6, 26, 150, 1082] and counts == by_recurrence
    # asymptotic consistency with n! / log(2)^(n+1)
    drift = [
        abs(counts[n - 1] * math.log(2) ** (n + 1) / math.factorial(n) - 1.0)
        for n in (4, 5)
    ]
    ok = ok and all(d < 0.01 for d in drift)
    report(
        3,
        ok,
        f"class counts {counts} match the recurrence; asymptotic drift "
        f"{max(drift):.2e}",
    )


def test_criterion_4_pair_census():
    r1, r2 = count_pairs(1), count_pairs(2)
    ok = (r1.true_pairs, r1.total_pairs) == (3, 4)
    ok = ok and r1.probability == Fraction(3, 4)
    ok = ok and (r2.true_pairs, r2.total_pairs) == (34, 64)
    agree = all(
        count_pairs(n).true_pairs == count_pairs_via_graph(n).true_pairs
        for n in (1, 2, 3, 4)
    )
    ok = ok and agree
    report(
        4,
        ok,
        f"count_pairs(1)={r1.true_pairs}/{r1.total_pairs}, "
        f"count_pairs(2)={r2.true_pairs}/{r2.total_pairs}, "
        f"methods agree n<=4: {agree}",
    )


def test_criterion_5_property_suites(exhaustive_sweep):
    failures = []
    rng = random.Random(SAMPLE_SEED)

    # reflexivity: 10^4 random prefixes, n <= 64
    for _ in range(10_000):
        p = random_prefix(rng.randint(1, 64), rng)
        if not implies(p, p).accepted:
            failures.append(f"reflexivity: {p}")
            break

    # transitivity: 10^4 accepted chains a => b => c
    for _ in range(10_000):
        n = rng.randint(2, 10)
        a = random_prefix(n, rng)
        b = a
        for _ in range(rng.randint(1, n)):
            moves = applicable_moves(b)
            if not moves:
                break
            b = apply_move(b, rng.choice(moves))
        c = b
        for _ in range(rng.randint(1, n)):
            moves = applicable_moves(c)
            if not moves:
                break
            c = apply_move(c, rng.choice(moves))
        if not (
            implies(a, b).accepted
            and implies(b, c).accepted
            and implies(a, c).accepted
        ):
            failures.append(f"transitivity: {a} / {b} / {c}")
            break

    # antisymmetry <=> equivalence, exhaustive n <= 4 (reuses sweep matrices)
    for n in (1, 2, 3, 4):
        rows = exhaustive_sweep[n]["acceptance"]
        keys = exhaustive_sweep[n]["keys"]
        count = len(keys)
        broke = False
        for i in range(count):
            for j in range(count):
                mutual = bool(rows[i] >> j & 1 and rows[j] >> i & 1)
                if mutual != (keys[i] == keys[j]):
                    failures.append(f"antisymmetry at n={n}: states {i},{j}")
                    broke = True
                    break
            if broke:
                break

    # move soundness, exhaustive n <= 5
    for n in (1, 2, 3, 4, 5):
        for p in all_raw_prefixes(n):
            for q in successors(p):
                if not implies(p, q).accepted:
                    failures.append(f"move soundness: {p} => {q}")
                    break

    # pointwise special case sigma1 == sigma2: elementwise b comparison
    for _ in range(10_000):
        n = rng.randint(1, 32)
        names = default_names(n)
        sigma = list(range(n))
        rng.shuffle(sigma)
        sigma = tuple(sigma)
        b1 = [rng.getrandbits(1) for _ in range(n)]
        b2 = [rng.getrandbits(1) for _ in range(n)]
        s1 = Prefix(sigma, tuple(Quantifier(x) for x in b1), names)
        s2 = Prefix(sigma, tuple(Quantifier(x) for x in b2), names)
        expected = all(x >= y for x, y in zip(b1, b2))
        if implies(s1, s2).accepted != expected:
            failures.append(f"pointwise: {s1} vs {s2}")
            break

    # top and bottom elements, 10^3 random cases each
    for _ in range(1_000):
        n = rng.randint(1, 32)
        names = default_names(n)
        p = random_prefix(n, rng, names)
        top = Prefix(random_prefix(n, rng, names).sigma, (Quantifier.FORALL,) * n, names)
        if not implies(top, p).accepted:
            failures.append(f"top: {top} => {p}")
            break
    for _ in range(1_000):
        n = rng.randint(1, 32)
        names = default_names(n)
        p = random_prefix(n, rng, names)
        bottom = Prefix(
            random_prefix(n, rng, names).sigma, (Quantifier.EXISTS,) * n, names
        )
        if not implies(p, bottom).accepted:
            failures.append(f"bottom: {p} => {bottom}")
            break

    report(
        5, not failures, "property suites: " + (failures[0] if failures else "all held")
    )


def test_criterion_6_linearity():
    rows = run_bench([100_000, 1_000_000, 1_600_000], seed=SAMPLE_SEED, reps=5)
    by_n = {row["n"]: row for row in rows}
    small = by_n[100_000]["timing"]["median_s"]
    middle = by_n[1_000_000]["timing"]["median_s"]
    large = by_n[1_600_000]["timing"]["median_s"]
    ratio = large / small
    rescan_ok = all(row["rescan_steps"] <= row["n"] for row in rows)
    # the rescan bound must also hold off the benchmark path
    rng = random.Random(SAMPLE_SEED + 99)
    for _ in range(2_000):
        n = rng.randint(1, 64)
        names = default_names(n)
        _, stats = decide_with_stats(
            random_prefix(n, rng, names), random_prefix(n, rng, names)
        )
        rescan_ok = rescan_ok and stats.rescan_steps <= n
    ok = ratio <= 24.0 and middle <= 1.0 and rescan_ok
    report(
        6,
        ok,
        f"median(1.6e6)/median(1e5) = {ratio:.1f} (bound 24), "
        f"median(1e6) = {middle * 1000:.0f}ms (bound 1000ms), rescan<=n: {rescan_ok}",
    )


def test_criterion_7_witness_validity(exhaustive_sweep, sampled_sweep):
    rejects = sum(exhaustive_sweep[n]["rejects"] for n in (1, 2, 3, 4))
    bad = sum(exhaustive_sweep[n]["bad_witnesses"] for n in (1, 2, 3, 4))
    rejects += sum(sampled_sweep[n]["rejects"] for n in (5, 6, 7, 8))
    bad += sum(sampled_sweep[n]["bad_witnesses"] for n in (5, 6, 7, 8))
    ok = rejects > 0 and bad == 0
    report(7, ok, f"{rejects} rejecting pairs re-checked, {bad} invalid witnesses")


def test_criterion_8_determinism():
    def run_cli(*argv):
        proc = run_python("-m", "prenex", *argv)
        return proc.returncode, proc.stdout

    checks = []
    for argv in (
        ("canon", "A x2 A x1 E x3"),
        ("graph", "--n", "3", "--format", "dot"),
        ("graph", "--n", "3", "--format", "json"),
        ("census", "--n", "2"),
        ("census", "--n", "2", "--json"),
    ):
        code1, first = run_cli(*argv)
        code2, second = run_cli(*argv)
        checks.append(code1 == code2 == 0 and first == second and first != b"")

    # bench: identical apart from the isolated timing fields
    def bench_doc():
        _, raw = run_cli(
            "bench", "--sizes", "64,128", "--seed", "7", "--reps", "2", "--json"
        )
        doc = json.loads(raw)
        for row in doc["rows"]:
            row.pop("timing")
        return doc

    checks.append(bench_doc() == bench_doc())

    report(8, all(checks), f"determinism checks passed: {sum(checks)}/{len(checks)}")
