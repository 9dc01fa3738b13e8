import ast
import hashlib
import random
from pathlib import Path

import pytest

import prenex
from prenex import (
    InstanceTooLargeError,
    Prefix,
    Quantifier,
    canonicalize,
    closure,
    count_pairs,
    enumerate_classes,
    equivalent,
    implies,
    oracle_implies,
    parse_prefix,
    parse_prefix_pair,
    random_prefix,
)
from prenex.oracle import _explore, _key, _successors
from prenex.prefix import _bits_of
from support import (
    Move,
    MoveKind,
    all_raw_prefixes,
    applicable_moves,
    apply_move,
    successors,
)

A, E = Quantifier.FORALL, Quantifier.EXISTS


def texts(prefix_set):
    return sorted(str(p) for p in prefix_set)


# --- moves and successors -----------------------------------------------------


def test_successors_of_exists_forall():
    p = parse_prefix("E x1 A x2")
    assert texts(successors(p)) == ["A x2 E x1", "E x1 E x2"]


def test_successors_of_forall_forall():
    p = parse_prefix("A x1 A x2")
    assert texts(successors(p)) == ["A x1 E x2", "A x2 A x1", "E x1 A x2"]


def test_single_exists_is_terminal():
    assert successors(parse_prefix("E x1")) == set()


def test_moves_respect_their_guards():
    p = parse_prefix("E x1 A x2")
    kinds = {(m.kind, m.position) for m in applicable_moves(p)}
    assert kinds == {(MoveKind.FLIP, 1), (MoveKind.SWAP_EA, 0)}
    with pytest.raises(ValueError):
        apply_move(p, Move(MoveKind.FLIP, 0))
    with pytest.raises(ValueError):
        apply_move(p, Move(MoveKind.SWAP_SAME, 0))
    flipped = apply_move(p, Move(MoveKind.FLIP, 1))
    with pytest.raises(ValueError):
        apply_move(flipped, Move(MoveKind.SWAP_EA, 0))


@pytest.mark.parametrize(
    "kind, position",
    [
        (MoveKind.SWAP_SAME, -1),
        (MoveKind.SWAP_EA, -1),
        (MoveKind.FLIP, -1),
        (MoveKind.SWAP_SAME, 2),
        (MoveKind.SWAP_EA, 2),
        (MoveKind.FLIP, 3),
    ],
)
def test_moves_outside_their_range_raise(kind, position):
    # Without the range check -1 indexes from the end: a same-run swap there
    # gives "A x3 E x2 A x1", which the input does not imply.
    p = parse_prefix("A x1 E x2 A x3")
    with pytest.raises(ValueError, match="out of range"):
        apply_move(p, Move(kind, position))


def test_variables_travel_with_quantifiers_on_swap():
    p = parse_prefix("E x2 A x1")
    swapped = apply_move(p, Move(MoveKind.SWAP_EA, 0))
    assert str(swapped) == "A x1 E x2"


def test_successors_never_contain_self():
    rng = random.Random(11)
    for _ in range(100):
        p = random_prefix(rng.randint(1, 6), rng)
        assert p not in successors(p)


def test_every_successor_is_accepted_by_decider():
    for n in (1, 2, 3, 4):
        for p in all_raw_prefixes(n):
            for q in successors(p):
                assert implies(p, q).accepted, (str(p), str(q))


def test_class_successors_match_the_readable_moves():
    # the oracle's moves over class keys against the readable apply_move
    # reference in tests/support.py, applied to every raw member of a class
    for n in (1, 2, 3, 4, 5):
        members = {}
        for p in all_raw_prefixes(n):
            members.setdefault(_key(p), []).append(p)
        for key, ps in members.items():
            expected = {_key(q) for p in ps for q in successors(p)} - {key}
            got = list(_successors(key))
            assert len(got) == len(set(got)), key  # no class yielded twice
            assert set(got) == expected, key


def test_class_successors_sum_to_the_census_edge_count():
    for n in range(1, 7):
        keys = [_key(c.rep) for c, _ in enumerate_classes(n)]
        assert sum(len(list(_successors(k))) for k in keys) == count_pairs(n).edge_count


def test_strict_progress_measure():
    # flips and exists-forall swaps strictly decrease
    # (#foralls, sum of forall positions); same-run swaps leave both alone
    def measure(p):
        return (
            sum(1 for q in p.b if q == A),
            sum(i for i, q in enumerate(p.b) if q == A),
        )

    for n in (1, 2, 3, 4):
        for p in all_raw_prefixes(n):
            for move in applicable_moves(p):
                q = apply_move(p, move)
                if move.kind is MoveKind.SWAP_SAME:
                    assert measure(q) == measure(p)
                else:
                    assert measure(q) < measure(p)


def test_moves_never_raise_the_quantifier_word():
    # the oracle's prune rests on this: no move raises the quantifier word w
    # or its popcount, and a move lowers w exactly when it leaves the class
    for n in (1, 2, 3, 4, 5):
        for p in all_raw_prefixes(n):
            word = _bits_of(p.b)
            for q in successors(p):
                after = _bits_of(q.b)
                assert after <= word and after.bit_count() <= word.bit_count()
                assert (after < word) == (_key(q) != _key(p)), (str(p), str(q))


# --- reachability --------------------------------------------------------------


def test_oracle_examples():
    s1, s2 = parse_prefix_pair("A x1", "E x1")
    assert oracle_implies(s1, s2)
    assert not oracle_implies(s2, s1)
    s1, s2 = parse_prefix_pair("E x1 A x2", "A x2 E x1")
    assert oracle_implies(s1, s2)
    s1, s2 = parse_prefix_pair("A x1 A x2 E x3 A x4", "A x1 A x4 E x3 A x2")
    assert not oracle_implies(s1, s2)


def test_oracle_agrees_with_decider_on_every_raw_pair():
    # s2 runs over every raw member of each class, not only the sorted one,
    # so the search must find whichever member of s2's class it meets first
    for n in (1, 2, 3):
        states = list(all_raw_prefixes(n))
        for s1 in states:
            for s2 in states:
                assert oracle_implies(s1, s2) == implies(s1, s2).accepted, (
                    str(s1),
                    str(s2),
                )


def test_pruned_oracle_matches_full_reachability_on_every_raw_pair():
    # the pruned search against the unpruned one, with no use of the decider:
    # s2's class is reachable iff its key is in the full visited set
    for n in (1, 2, 3, 4):
        states = list(all_raw_prefixes(n))
        for s1 in states:
            _, visited = _explore(_key(s1))
            for s2 in states:
                assert oracle_implies(s1, s2) == (_key(s2) in visited), (str(s1), str(s2))


def test_oracle_cap_enforced():
    rng = random.Random(3)
    p = random_prefix(9, rng)
    q = random_prefix(9, rng)
    with pytest.raises(InstanceTooLargeError):
        oracle_implies(p, q)
    assert oracle_implies(p, q, max_n=9) == implies(p, q).accepted


def test_oracle_runs_past_sixteen_variables_with_a_raised_cap():
    # a class key holds each run as a bitmask, which no variable count
    # overflows: with the cap raised, a reflexive pair at n = 17 is true and
    # an all-existential prefix implies only its own class
    p = random_prefix(17, random.Random(7))
    assert oracle_implies(p, p, max_n=17)
    bottom = Prefix(p.sigma, bytes(17), p.names)
    assert [c.rep for c in closure(bottom, max_n=17)] == [canonicalize(bottom).rep]


def test_oracle_agrees_with_equivalence_on_zero_move_pairs():
    rng = random.Random(4)
    for _ in range(50):
        n = rng.randint(1, 5)
        p = random_prefix(n, rng)
        q = canonicalize(p).rep
        assert equivalent(p, q)
        assert oracle_implies(p, q) and oracle_implies(q, p)


def _imported_modules(tree):
    """Every module an import in ``tree`` may bind, with relative imports
    resolved inside the prenex package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["prenex" if node.level else "", node.module]))
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def test_oracle_and_census_never_import_the_decider():
    # the oracle certifies the decider, and the census graph's pair count
    # certifies the closed form, so neither may reach decide.py
    package = Path(prenex.__file__).parent
    for module in ("oracle", "census"):
        tree = ast.parse((package / f"{module}.py").read_text(encoding="utf-8"))
        assert "prenex.decide" not in set(_imported_modules(tree)), module


# --- closure --------------------------------------------------------------------


def test_closure_of_exists_forall():
    out = closure(parse_prefix("E x1 A x2"))
    assert [c.text for c in out] == ["A x2 E x1", "E x1 A x2", "E x1 E x2"]


def test_closure_of_all_exists_is_itself():
    out = closure(parse_prefix("E x1 E x2"))
    assert [c.text for c in out] == ["E x1 E x2"]


def test_closure_of_all_forall_covers_every_class_at_n2():
    assert len(closure(parse_prefix("A x1 A x2"))) == 6


@pytest.mark.parametrize(
    "text, count, digest",
    [
        ("A x4 E x2 A x6 A x1 E x5 A x3", 531,
         "54d015f0f04f3bbb74d0cebc9a02bf41601805783e31aabf844d9db69dd0b755"),
        ("E x3 A x5 A x2 E x6 E x1 A x4", 168,
         "4e0b33ecddbdd5b771c2ed2d6b343774606610ae176f6b2980af1f64ad1ab316"),
        ("A x5 A x3 A x7 E x1 A x2 E x6 A x4", 2509,
         "4cec4b213eb74264d2a9b3f28e8250027821850016ec73e6b2f14373aa4dca2a"),
        ("A x2 A x6 E x4 A x1 E x7 E x3 A x5", 637,
         "35135030bdb1fe79d8716ab0154b2dac20bbae351bd7896e5233cec3d8345649"),
    ],
)
def test_closure_matches_pinned_hash(text, count, digest):
    # SHA-256 of the closure's texts in order, so that the classes and their
    # order stay the same across commits.
    p = parse_prefix(text)
    out = closure(p)
    texts = [c.text for c in out]
    assert len(out) == count
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == digest
    assert all(a < b for a, b in zip(texts, texts[1:]))
    assert all(c.rep == canonicalize(c.rep).rep for c in out)
    assert all(c.rep.names is p.names for c in out)


def test_closure_is_monotone_under_reachability():
    rng = random.Random(5)
    for _ in range(20):
        p = random_prefix(4, rng)
        reach_p = {c.text for c in closure(p)}
        for cls in closure(p):
            reach_q = {c.text for c in closure(cls.rep)}
            assert reach_q <= reach_p


def test_closure_respects_cap():
    rng = random.Random(6)
    with pytest.raises(InstanceTooLargeError):
        closure(random_prefix(9, rng))
