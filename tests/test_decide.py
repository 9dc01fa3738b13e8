import random
from dataclasses import replace
from itertools import product

import pytest

from prenex import (
    LengthMismatchError,
    Quantifier,
    RejectWitness,
    VariableSetMismatchError,
    Verdict,
    decide_with_stats,
    default_names,
    equivalent,
    implies,
    oracle_implies,
    parse_prefix,
    parse_prefix_pair,
    random_prefix,
    raw_implies,
    successors,
    validate_witness,
)
from prenex.decide import _SCATTER_THRESHOLD, _core, _decide, _kernel
from support import all_raw_prefixes, all_raw_states, make_prefix, run_python

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
        Verdict(False, replace(w, blocking_f=1)),  # j itself
        Verdict(False, replace(w, blocking_f=3)),  # a universal
        Verdict(False, replace(w, blocking_f=s1.n)),
        Verdict(False, replace(w, blocking_f=10 * s1.n)),
    ]
    for verdict in forged:
        assert validate_witness(s1, s2, verdict) is False, verdict
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


@pytest.mark.parametrize("n", [5, _SCATTER_THRESHOLD])
def test_decisions_never_build_the_tuple_view(n):
    # the reference loop, the first-step lookup (a reject) and the kernel
    # (accept) read the packed bytes; oracle_implies and the move API
    # read them too, and successors are built from bytes
    texts = [" ".join(f"{q} {name}" for name in default_names(n)) for q in "EA"]
    for lhs, rhs in ((texts[0], texts[1]), (texts[1], texts[1])):
        s1, s2 = parse_prefix_pair(lhs, rhs)
        decide_with_stats(s1, s2)
        if n <= 5:
            oracle_implies(s1, s2)
        built = successors(s1) | successors(s2)
        # ``_view`` is the slot that holds ``b`` once it is built
        for p in (s1, s2, *built):
            assert not hasattr(p, "_view")
    s1.b
    assert hasattr(s1, "_view")


def test_numpy_loads_only_for_large_decisions():
    code = (
        "import sys\n"
        "from prenex import default_names, implies, oracle_implies, parse_prefix_pair\n"
        "from prenex.decide import _SCATTER_THRESHOLD as T\n"
        "def text(q, n):\n"
        "    return ' '.join(q + ' ' + name for name in default_names(n))\n"
        "pair = parse_prefix_pair('E x1 A x2', 'A x2 E x1')\n"
        "assert oracle_implies(*pair) and implies(*pair).accepted\n"
        "assert implies(*parse_prefix_pair(text('A', T - 1), text('A', T - 1))).accepted\n"
        "print('numpy' in sys.modules)\n"
        "verdict = implies(*parse_prefix_pair(text('E', T), text('A', T)))\n"
        "assert verdict.witness.case_id == 5 and verdict.witness.s2_position == T - 1\n"
        "print('numpy' in sys.modules)\n"
        "assert implies(*parse_prefix_pair(text('A', T), text('A', T))).accepted\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = run_python("-c", code, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "True"]


# --- the dispatch and the vector kernel against the reference loop -----------


def raw(s1, s2):
    """The private stages' arguments: sigmas and packed quantifier bytes."""
    return s1.sigma, s1.bits, s2.sigma, s2.bits


def assert_stages_match_core(sigma1, b1, sigma2, b2):
    """The kernel, a pure vector pass, and the dispatch, which tries the
    first scan step before it at large n, both return ``_core``'s tuple."""
    expected = _core(sigma1, b1, sigma2, b2)
    assert _kernel(sigma1, b1, sigma2, b2) == expected
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
    assert stats.rescan_steps == s1.bits.rfind(0) - f
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
    f = s1.bits.rfind(0)
    j = next(
        j for j, q in enumerate(s1.bits) if (q and j < f if case_id == 4 else not q)
    )
    sigma, bits = list(s2.sigma), [int(q) for q in s2.bits]
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


@pytest.mark.parametrize(
    "n, at_once", [(5, False), (_SCATTER_THRESHOLD, False), (_SCATTER_THRESHOLD, True)]
)
def test_raw_implies_agrees_with_implies(n, at_once):
    # quantifiers as 0/1 bytes, as 0/1 int lists and as Quantifier tuples
    forms = (bytes, list, lambda bits: tuple(map(Quantifier, bits)))
    rng = random.Random(110 + n + at_once)
    names = default_names(n)
    answers = set()
    for _ in range(20):
        s1 = random_prefix(n, rng, names)
        if at_once:
            rhs = [first_step_reject(s1, s1, case_id) for case_id in (5, 4)]
        else:
            rhs = [random_prefix(n, rng, names), move_derived(rng, s1)]
        for s2 in rhs:
            if at_once:
                assert _core(*raw(s1, s2))[1] == n - 1
            accepted = implies(s1, s2).accepted
            answers.add(accepted)
            for form in forms:
                assert raw_implies(s1.sigma, form(s1.bits), s2.sigma, form(s2.bits)) is accepted
    assert answers == ({False} if at_once else {False, True})
