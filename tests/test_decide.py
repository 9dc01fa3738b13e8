import random
from contextlib import suppress
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings

from prenex import (
    LengthMismatchError,
    Prefix,
    PrefixError,
    Quantifier,
    RejectWitness,
    VariableSetMismatchError,
    Verdict,
    decide_with_stats,
    default_names,
    equivalent,
    format_prefix,
    implies,
    parse_prefix,
    parse_prefix_pair,
    random_prefix,
    validate_witness,
)
from prenex.decide import (
    _SCATTER_THRESHOLD,
    _core,
    _decide,
    _decide_text,
    _kernel,
    _position_table,
    _text_verdict,
)
from prenex.prefix import _read, _text_pair
from support import (
    all_raw_prefixes,
    all_raw_states,
    make_prefix,
    prefix_text_pairs,
    run_python,
)

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


def test_validate_witness_rejects_forged_witnesses():
    s1, s2 = parse_prefix_pair("A x1 A x2 E x3 A x4", "A x1 A x4 E x3 A x2")
    w = implies(s1, s2).witness  # case 4: x2 at s1 position 1, blocked by 2
    forged = [
        Verdict(True, w),
        Verdict(False, replace(w, s2_position=2)),
        Verdict(False, replace(w, case_id=5, blocking_f=None)),
        Verdict(False, replace(w, case_id=3)),  # no such reject case
        Verdict(False, replace(w, blocking_f=1)),  # j itself
        Verdict(False, replace(w, blocking_f=3)),  # a universal
        Verdict(False, replace(w, blocking_f=s1.n)),
        Verdict(False, replace(w, blocking_f=10 * s1.n)),
        # no variable or s2 position out of range gets past the position check
        Verdict(False, replace(w, variable=-1)),
        Verdict(False, replace(w, variable=s1.n)),
        Verdict(False, replace(w, variable=10 * s1.n)),
        Verdict(False, replace(w, s2_position=-1)),
        Verdict(False, replace(w, s2_position=s2.n)),
        # a position that is no integer witnesses nothing
        Verdict(False, RejectWitness(4, 3, 1, 2.5)),
        Verdict(False, RejectWitness(4, 3.0, 1, 2)),
        Verdict(False, RejectWitness(5, 1.5, 1)),
        Verdict(False, RejectWitness(4, 3, 1, "2")),
        # every field must be an int, and a bool is none
        Verdict(False, RejectWitness(4.0, 3, 1.0, 2)),
        Verdict(False, RejectWitness(4, 3, True, 2)),
        Verdict(False, RejectWitness(4, 3, 1, 2.0)),
        Verdict(False, RejectWitness(4, 3, 1, True)),
    ]
    for verdict in forged:
        assert validate_witness(s1, s2, verdict) is False, verdict
    s1, s2 = parse_prefix_pair("E x1 A x2 E x3 A x4", "A x4 E x1 A x2 A x3")
    verdict = implies(s1, s2)
    assert verdict.witness == RejectWitness(5, 3, 2)
    assert validate_witness(s1, s2, verdict)
    # a case 4 witness that holds, except that its variable is True
    assert validate_witness(s1, s2, Verdict(False, RejectWitness(4, 2, 1, 2)))
    for w in (RejectWitness(5.0, 3, 2.0, None), RejectWitness(4, 2, True, 2)):
        assert validate_witness(s1, s2, Verdict(False, w)) is False, w
    # a witness that fits both sides certifies nothing over two universes:
    # the checker raises what implies raises
    s1 = make_prefix([0], [0], names=("x1",))
    s2 = make_prefix([0], [1], names=("y1",))
    verdict = Verdict(False, RejectWitness(5, 0, 0))
    for call in (implies, lambda s1, s2: validate_witness(s1, s2, verdict)):
        with pytest.raises(VariableSetMismatchError):
            call(s1, s2)


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
            if i == n or p.b[i] != p.b[start]:
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


@pytest.mark.parametrize("n", [5, _SCATTER_THRESHOLD])
def test_implies_builds_no_stats(monkeypatch, n):
    # implies and the text path give their verdicts without DecideStats:
    # from the scan below the threshold, and from the first-step lookup
    # (rejects) and the kernel (the accept, as s2 ends existential) at it
    s1 = make_prefix(range(n), [1 - k % 2 for k in range(n)])  # A E A E ...
    f = s1.b.rfind(0)
    expected = [
        (s1, Verdict(True)),
        (first_step_reject(s1, s1, 5), Verdict(False, RejectWitness(5, n - 1, 1))),
        (first_step_reject(s1, s1, 4), Verdict(False, RejectWitness(4, n - 1, 0, f))),
    ]

    def no_stats(*args, **kwargs):
        raise AssertionError("implies built a DecideStats")

    monkeypatch.setattr("prenex.decide.DecideStats", no_stats)
    for s2, verdict in expected:
        assert implies(s1, s2) == verdict
        assert _text_verdict(format_prefix(s1), format_prefix(s2))[0] == verdict


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
        "from prenex.decide import _SCATTER_THRESHOLD as T, _text_verdict\n"
        "def text(q, n):\n"
        "    return ' '.join(q + ' ' + name for name in default_names(n))\n"
        "pair = parse_prefix_pair('E x1 A x2', 'A x2 E x1')\n"
        "assert oracle_implies(*pair) and implies(*pair).accepted\n"
        "assert implies(*parse_prefix_pair(text('A', T - 1), text('A', T - 1))).accepted\n"
        "print('numpy' in sys.modules)\n"
        "verdict = implies(*parse_prefix_pair(text('E', T), text('A', T)))\n"
        "assert verdict.witness.case_id == 5 and verdict.witness.s2_position == T - 1\n"
        "print('numpy' in sys.modules)\n"
        "verdict, name = _text_verdict(text('E', T), text('A', T))\n"
        "assert verdict.witness.case_id == 5 and name == default_names(T)[-1]\n"
        "print('numpy' in sys.modules)\n"
        "assert implies(*parse_prefix_pair(text('A', T), text('A', T))).accepted\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = run_python("-c", code, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "False", "True"]


# --- the dispatch and the vector kernel against the reference loop -----------


def raw(s1, s2):
    """The private stages' arguments: sigmas and packed quantifier bytes."""
    return s1.sigma, s1.b, s2.sigma, s2.b


def assert_stages_match_core(sigma1, b1, sigma2, b2):
    """The kernel, a pure vector pass, and the dispatch, which tries the
    first scan step before it at large n, both return ``_core``'s tuple."""
    expected = _core(sigma1, b1, sigma2, b2)
    pos = _position_table(sigma1)
    J = np.fromiter(map(pos.__getitem__, sigma2), np.intp, len(sigma2))
    assert _kernel(J, b1, b2) == expected
    assert _decide(sigma1, b1, sigma2, b2) == expected
    return expected


def assert_verdict_matches_core(s1, s2):
    """``decide_with_stats`` and ``implies`` report ``_core``'s tuple on every
    field: the witness, ``loop_steps`` and ``rescan_steps``."""
    expected = assert_stages_match_core(*raw(s1, s2))
    case_id, i, f = expected
    verdict, stats = decide_with_stats(s1, s2)
    assert implies(s1, s2) == verdict
    assert verdict.accepted == (case_id == 0)
    assert stats.rescan_steps == s1.b.rfind(0) - f
    assert stats.loop_steps == (s1.n - i if case_id else s1.n)
    if case_id:
        w = verdict.witness
        assert (w.case_id, w.s2_position, w.variable) == (case_id, i, s2.sigma[i])
        assert w.blocking_f == (f if case_id == 4 else None)
    return expected


def test_kernel_matches_core_on_every_raw_pair():
    for n in (1, 2, 3, 4):
        states = list(all_raw_states(n))
        for (sigma1, b1), (sigma2, b2) in product(states, repeat=2):
            assert_stages_match_core(sigma1, b1, sigma2, b2)


def test_kernel_matches_core_on_sampled_pairs():
    rng = random.Random(107)
    for _ in range(20_000):
        n = rng.randint(5, 9)
        names = default_names(n)
        assert_stages_match_core(
            *raw(random_prefix(n, rng, names), random_prefix(n, rng, names))
        )


def test_census_loads_no_numpy():
    code = (
        "import sys\n"
        "from prenex import count_pairs\n"
        "assert count_pairs(5).true_pairs == 2290920\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = run_python("-c", code, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def shuffle_runs(rng, sigma, bits):
    """Shuffle ``sigma`` inside each run of equal ``bits``, in place."""
    start = 0
    for i in range(1, len(bits) + 1):
        if i == len(bits) or bits[i] != bits[start]:
            chunk = sigma[start:i]
            rng.shuffle(chunk)
            sigma[start:i] = chunk
            start = i


def move_derived(rng, s1):
    """An s2 that s1 implies, reached by the sound moves: existentials swapped
    past following universals, about 10% of universals flipped, then a
    shuffle inside every run."""
    sigma, bits = list(s1.sigma), [int(q) for q in s1.b]
    for i in range(len(bits) - 1):
        if bits[i : i + 2] == [0, 1] and rng.random() < 0.3:
            sigma[i], sigma[i + 1] = sigma[i + 1], sigma[i]
            bits[i], bits[i + 1] = 1, 0
    bits = [q and int(rng.random() >= 0.1) for q in bits]
    shuffle_runs(rng, sigma, bits)
    return make_prefix(sigma, bits, s1.names)


def burst_pair(rng, n):
    """s1 with four long existential runs and s2 with each of them reversed,
    so that F rescans every run in one burst."""
    bits = [rng.getrandbits(1) for _ in range(n)]
    run = n // 8
    for k in range(4):
        start = (2 * k + 1) * run
        bits[start - 1 : start + run] = [1] + [0] * run
    s1 = make_prefix(random_prefix(n, rng).sigma, bits)
    sigma2 = list(s1.sigma)
    for k in range(4):
        start = (2 * k + 1) * run
        sigma2[start : start + run] = sigma2[start : start + run][::-1]
    return s1, make_prefix(sigma2, bits, s1.names)


def planted_reject(s1, s2, case_id):
    """s2 with one quantifier made universal mid-scan so that the scan
    rejects there with ``case_id``; the steps after it are unchanged."""
    n = s1.n
    pos = {v: j for j, v in enumerate(s1.sigma)}
    j2 = [pos[v] for v in s2.sigma]
    # the largest existential s1 position among s2 indices below each index
    behind, seen = [], -1
    for j in j2:
        behind.append(seen)
        if not s1.b[j]:
            seen = max(seen, j)

    def fires(i):
        j = j2[i]
        return not s1.b[j] if case_id == 5 else s1.b[j] and behind[i] > j

    i = next(i for i in range(n // 2, 0, -1) if fires(i))
    bits = [int(q) for q in s2.b]
    bits[i] = 1
    return make_prefix(s2.sigma, bits, s2.names), i


def first_step_reject(s1, s2, case_id):
    """s2 with its last position made universal and given the first variable
    that s1 quantifies existentially (case 5), or universally in front of
    s1's last existential (case 4), so that the scan rejects at once."""
    f = s1.b.rfind(0)
    j = next(
        j for j, q in enumerate(s1.b) if (q and j < f if case_id == 4 else not q)
    )
    sigma, bits = list(s2.sigma), [int(q) for q in s2.b]
    k = sigma.index(s1.sigma[j])
    sigma[k], sigma[-1] = sigma[-1], sigma[k]
    bits[-1] = 1
    return make_prefix(sigma, bits, s2.names)


@pytest.mark.parametrize("n", [10_000, 100_000])
def test_kernel_matches_core_on_large_pairs(n):
    rng = random.Random(108 + n)
    s1 = random_prefix(n, rng)
    moved = move_derived(rng, s1)
    for pair in ((s1, moved), burst_pair(rng, n)):
        assert assert_stages_match_core(*raw(*pair)) == (0, -1, -1)
    for case_id in (5, 4):
        s2, i = planted_reject(s1, moved, case_id)
        result = assert_stages_match_core(*raw(s1, s2))
        assert result[:2] == (case_id, i)
        s2 = first_step_reject(s1, moved, case_id)
        assert assert_verdict_matches_core(s1, s2)[:2] == (case_id, n - 1)
    # all-universal s1: F starts at -1, and s1 implies every prefix
    top = make_prefix(s1.sigma, [1] * n, s1.names)
    for s2 in (moved, top):
        assert assert_verdict_matches_core(top, s2) == (0, -1, -1)


@pytest.mark.parametrize("n", [_SCATTER_THRESHOLD - 1, _SCATTER_THRESHOLD])
def test_dispatch_matches_core_at_the_threshold(n):
    rng = random.Random(109 + n)
    names = default_names(n)
    for k in range(52):
        s1 = random_prefix(n, rng, names)
        if k >= 50:  # all-universal (F starts at -1), then all-existential
            s1 = make_prefix(s1.sigma, [int(k == 50)] * n, names)
        for s2 in (random_prefix(n, rng, names), move_derived(rng, s1), s1):
            assert_verdict_matches_core(s1, s2)
        if k < 50:  # a first-step reject of each case
            for case_id in (5, 4):
                s2 = first_step_reject(s1, s1, case_id)
                assert assert_verdict_matches_core(s1, s2)[:2] == (case_id, n - 1)


# --- the CLI's text path against parse_prefix_pair + implies -------------------


def reference_text_verdict(lhs, rhs):
    """What ``_text_verdict`` must return: the parsed pair's verdict and the
    witnessed variable's name."""
    s1, s2 = parse_prefix_pair(lhs, rhs)
    verdict = implies(s1, s2)
    w = verdict.witness
    return verdict, w and s2.names[w.variable]


def text_outcome(decide, lhs, rhs):
    """``decide(lhs, rhs)``, or the type and message of the error it raises."""
    try:
        return decide(lhs, rhs)
    except PrefixError as exc:
        return type(exc), str(exc)


def assert_text_path_matches(lhs, rhs):
    """The text path and the parser + ``implies`` agree on every verdict field
    and the witnessed name, or on the error's type and message."""
    expected = text_outcome(reference_text_verdict, lhs, rhs)
    assert text_outcome(_text_verdict, lhs, rhs) == expected
    return expected


def scrambled_names(rng, n):
    """n distinct names in random order; unpadded, so that their sorted order
    is neither their numeric nor their text order."""
    names = [f"v{k}" for k in range(n)]
    rng.shuffle(names)
    return tuple(names)


def test_text_path_matches_reference_on_every_raw_pair():
    unsorted = 0  # rejects whose sorted index is not the left text position
    for n in (1, 2, 3):
        names = ("v2", "v10", "u")[:n]
        texts = [format_prefix(Prefix(*state, names)) for state in all_raw_states(n)]
        for lhs, rhs in product(texts, repeat=2):
            verdict, name = assert_text_path_matches(lhs, rhs)
            if name is not None:
                unsorted += verdict.witness.variable != lhs.split()[1::2].index(name)
    assert unsorted


def decide_family_pairs(rng, n):
    """s1 over scrambled names with move-derived and burst accepts, mid-scan
    case-5 and case-4 rejects, first-step case-5 and case-4 rejects, and a
    random right side; a family that n is too small for is left out."""
    s1 = random_prefix(n, rng, scrambled_names(rng, n))
    moved = move_derived(rng, s1)
    pairs = [(s1, moved), (s1, random_prefix(n, rng, s1.names))]
    if n >= 8:
        t1, t2 = burst_pair(rng, n)
        pairs.append(tuple(make_prefix(p.sigma, p.b, s1.names) for p in (t1, t2)))
    for case_id in (5, 4):
        # StopIteration: no variable fits the case at this n
        with suppress(StopIteration):
            pairs.append((s1, planted_reject(s1, moved, case_id)[0]))
        with suppress(StopIteration):
            pairs.append((s1, first_step_reject(s1, moved, case_id)))
    return pairs


@pytest.mark.parametrize("n", [2, 3, 5, 8, 17, 64, 255, 256, 257, 600])
def test_text_path_matches_reference_on_decide_families(n):
    rng = random.Random(112 + n)
    first_step = set()
    for _ in range(8):
        for s1, s2 in decide_family_pairs(rng, n):
            verdict, _ = assert_text_path_matches(format_prefix(s1), format_prefix(s2))
            w = verdict.witness
            if w is not None and w.s2_position == n - 1:
                first_step.add(w.case_id)
    if n >= 8:
        assert first_step == {4, 5}


def test_both_readers_reach_the_same_decision():
    # The full (case_id, i, f), f included: a witness shows f on case-4
    # rejects only.  Left names in shuffled text order, n log-uniform on
    # 1..2048 and on both sides of the threshold; half the pairs reflexive.
    rng = random.Random(115)
    sizes = [int(2 ** rng.uniform(0, 11)) for _ in range(297)]
    cases = set()
    for n in sizes + [_SCATTER_THRESHOLD - 1, _SCATTER_THRESHOLD, _SCATTER_THRESHOLD + 1]:
        s1 = random_prefix(n, rng, scrambled_names(rng, n))
        lhs = format_prefix(s1)
        for rhs in (lhs, format_prefix(random_prefix(n, rng, s1.names))):
            b1, at, names2, b2 = _text_pair(lhs, rhs)
            p1, p2 = parse_prefix_pair(lhs, rhs)
            result = _decide(p1.sigma, p1.b, p2.sigma, p2.b)
            assert _decide_text(at, b1, names2, b2) == result, (lhs, rhs)
            cases.add(result[0])
    assert cases == {0, 4, 5}


def right_side_faults(rhs):
    """The right text with each kind of fault: unknown, repeated, missing
    and invalid names, a bad quantifier, an extra pair, a dangling token, and
    nothing at all."""
    tokens = rhs.split()
    k = len(tokens) // 2 | 1  # a name token past the first

    def swap(at, token):
        return " ".join(tokens[:at] + [token] + tokens[at + 1:])

    return [
        swap(k, "zz9"),
        swap(k, tokens[k - 2]),
        " ".join(tokens[:k - 1] + tokens[k + 1:]),
        swap(k, "1x"),
        swap(k - 1, "B"),
        rhs + " A zz9",
        rhs + " A",
        " ",
    ]


@pytest.mark.parametrize("n", [3, 300])
def test_text_path_raises_what_the_parser_raises(n):
    rng = random.Random(113 + n)
    s1 = random_prefix(n, rng, scrambled_names(rng, n))
    lhs, rhs = format_prefix(s1), format_prefix(move_derived(rng, s1))
    for bad in right_side_faults(rhs):
        outcome = assert_text_path_matches(lhs, bad)
        assert issubclass(outcome[0], PrefixError), bad
    # a left-side fault outranks every right-side one
    tokens = lhs.split()
    left_faults = [
        " ".join(tokens[:-1] + ["x-1"]),
        " ".join(tokens[:-2] + ["E", tokens[1]]),
        " ".join(["Q"] + tokens[1:]),
        lhs + " E",
        "",
    ]
    for bad_lhs in left_faults:
        for bad in [rhs, *right_side_faults(rhs)]:
            outcome = assert_text_path_matches(bad_lhs, bad)
            assert outcome == text_outcome(reference_text_verdict, bad_lhs, "Q")


def test_text_path_never_parses_with_sorted_names(monkeypatch):
    # Reference outcomes first; then the sorted-name parser raises on any
    # call, and the text path must still give every one of them.
    rng = random.Random(114)
    s1 = random_prefix(300, rng, scrambled_names(rng, 300))
    lhs, rhs = format_prefix(s1), format_prefix(move_derived(rng, s1))
    tokens = lhs.split()
    left_faults = [
        " ".join(tokens[:-1] + ["x-1"]),
        " ".join(tokens[:-2] + ["E", tokens[1]]),
        " ".join(["Q"] + tokens[1:]),
        lhs + " E",
        "",
    ]
    pairs = [(lhs, bad) for bad in right_side_faults(rhs)]
    pairs += [(bad, rhs) for bad in left_faults]
    pairs += [(lhs, rhs), (lhs, lhs), ("E x1 A x2", "A x2 E x1"), ("E x", "A x")]
    expected = [text_outcome(reference_text_verdict, *pair) for pair in pairs]

    def read(text, sort):
        if sort:
            raise AssertionError("the text path parsed with sorted names")
        return _read(text, sort)

    monkeypatch.setattr("prenex.prefix._read", read)
    assert [text_outcome(_text_verdict, *pair) for pair in pairs] == expected


@settings(max_examples=300, deadline=None)
@given(prefix_text_pairs())
def test_text_path_matches_reference_on_fuzzed_texts(texts):
    assert_text_path_matches(*texts)
