import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import prenex

from prenex import (
    LengthMismatchError,
    Quantifier,
    VariableSetMismatchError,
    decide_with_stats,
    default_names,
    equivalent,
    implies,
    parse_prefix,
    parse_prefix_pair,
    random_prefix,
    validate_witness,
)
from support import all_raw_prefixes, make_prefix

A, E = Quantifier.FORALL, Quantifier.EXISTS


def check(lhs, rhs):
    return implies(*parse_prefix_pair(lhs, rhs))


# --- worked examples ---------------------------------------------------------


def test_accepts_within_run_permutation():
    assert check("A x1 A x2 E x3 A x4", "A x2 A x1 E x3 A x4").accepted


def test_accepts_forall_to_exists():
    assert check("A x1", "E x1").accepted


def test_accepts_exists_past_forall():
    assert check("E x1 A x2", "A x2 E x1").accepted


def test_rejects_exists_to_forall_with_case5_witness():
    verdict = check("E x1", "A x1")
    assert not verdict.accepted
    w = verdict.witness
    assert w.case_id == 5 and w.s2_position == 0 and w.variable == 0
    assert w.blocking_f is None


def test_rejects_blocked_universal_with_case4_witness():
    s1, s2 = parse_prefix_pair("A x1 A x2 E x3 A x4", "A x1 A x4 E x3 A x2")
    verdict = implies(s1, s2)
    assert not verdict.accepted
    w = verdict.witness
    assert w.case_id == 4
    assert w.s2_position == 3
    assert s2.names[w.variable] == "x2"
    assert w.blocking_f == 2
    assert validate_witness(s1, s2, verdict)


def test_reflexive_on_itself():
    p = parse_prefix("A x1 E x2 A x3")
    assert implies(p, p).accepted


def test_all_forall_implies_everything_small():
    for q in all_raw_prefixes(3):
        top = make_prefix(q.sigma, [1, 1, 1])
        assert implies(top, q).accepted


# --- error paths -------------------------------------------------------------


def test_length_mismatch():
    p1 = make_prefix([0], [1])
    p2 = make_prefix([0, 1], [1, 1], names=("x1", "x2"))
    with pytest.raises(LengthMismatchError):
        implies(p1, p2)


def test_universe_mismatch():
    p1 = make_prefix([0], [1], names=("x1",))
    p2 = make_prefix([0], [1], names=("y1",))
    with pytest.raises(VariableSetMismatchError):
        implies(p1, p2)


# --- properties --------------------------------------------------------------


def test_reflexivity_random():
    rng = random.Random(101)
    for _ in range(500):
        p = random_prefix(rng.randint(1, 32), rng)
        assert implies(p, p).accepted


def test_equivalence_compatibility_random():
    rng = random.Random(102)
    for _ in range(300):
        n = rng.randint(1, 8)
        p = random_prefix(n, rng)
        sigma = list(p.sigma)
        # shuffle inside each run: stays in the same class
        start = 0
        for i in range(1, n + 1):
            if i == n or p.b[i] is not p.b[start]:
                chunk = sigma[start:i]
                rng.shuffle(chunk)
                sigma[start:i] = chunk
                start = i
        q = make_prefix(sigma, [int(x) for x in p.b])
        assert equivalent(p, q)
        assert implies(p, q).accepted and implies(q, p).accepted


def test_pointwise_comparison_when_sigma_equal():
    rng = random.Random(103)
    names_cache = {}
    for _ in range(500):
        n = rng.randint(1, 12)
        names = names_cache.setdefault(n, default_names(n))
        sigma = list(range(n))
        rng.shuffle(sigma)
        b1 = [rng.getrandbits(1) for _ in range(n)]
        b2 = [rng.getrandbits(1) for _ in range(n)]
        s1 = make_prefix(sigma, b1, names)
        s2 = make_prefix(sigma, b2, names)
        expected = all(x >= y for x, y in zip(b1, b2))
        assert implies(s1, s2).accepted == expected


def test_bottom_element_all_exists():
    rng = random.Random(104)
    for _ in range(200):
        n = rng.randint(1, 10)
        p = random_prefix(n, rng)
        bottom = random_prefix(n, rng)
        bottom = make_prefix(bottom.sigma, [0] * n)
        assert implies(p, bottom).accepted


def test_witnesses_validate_on_random_rejects():
    rng = random.Random(105)
    seen = 0
    while seen < 200:
        n = rng.randint(1, 10)
        names = default_names(n)
        s1 = random_prefix(n, rng, names)
        s2 = random_prefix(n, rng, names)
        verdict = implies(s1, s2)
        if not verdict.accepted:
            assert validate_witness(s1, s2, verdict)
            seen += 1


def test_stats_are_linear_and_rescan_bounded():
    rng = random.Random(106)
    for n in (1, 2, 17, 256, 1024):
        names = default_names(n)
        s1 = random_prefix(n, rng, names)
        s2 = random_prefix(n, rng, names)
        _, stats = decide_with_stats(s1, s2)
        assert stats.loop_steps <= n
        assert 0 <= stats.rescan_steps <= n
        # self-implication walks the whole prefix
        _, stats = decide_with_stats(s1, s1)
        assert stats.loop_steps == n
        assert stats.rescan_steps <= n


def test_decider_not_fooled_by_uncanonical_input():
    # raw inputs are decided as written, without canonicalizing first
    s1, s2 = parse_prefix_pair("A x2 A x1", "E x1 A x2")
    assert implies(s1, s2).accepted
    s1, s2 = parse_prefix_pair("E x2 E x1", "E x1 E x2")
    assert implies(s1, s2).accepted


def test_numpy_loads_only_for_large_decisions():
    code = (
        "import sys\n"
        "from prenex import default_names, implies, oracle_implies, parse_prefix_pair\n"
        "pair = parse_prefix_pair('E x1 A x2', 'A x2 E x1')\n"
        "assert oracle_implies(*pair) and implies(*pair).accepted\n"
        "print('numpy' in sys.modules)\n"
        "text = ' '.join('A ' + name for name in default_names(256))\n"
        "assert implies(*parse_prefix_pair(text, text)).accepted\n"
        "print('numpy' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(prenex.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]
