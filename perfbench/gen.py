"""Seeded input generator for the benchmark, with the answer each input must get.

Nothing here imports ``prenex``: every expected answer follows from how the
input was built, not from running the program.

A prefix is held as two lists: ``order`` (variable ids in quantifier order)
and ``bits`` (1 = universal ``A``, 0 = existential ``E``).  Variable id ``k``
is written ``x<k>``; the program numbers variables by the sorted order of
their names, so expected witnesses translate ids through :func:`name_rank`.

Families:

* ``move`` accept: s2 comes from s1 by sound moves only (exists-past-forall
  swaps, flips of about 10% of the universals, shuffles inside each run).
* ``burst`` accept: s2 reverses s1's longest existential runs, so the
  decider's F pointer rescans each run in one long burst.
* ``case5`` / ``case4`` reject: s2 ends with a universal variable that makes
  the decider reject at its first step, i = n - 1, with a known witness.
* ``order`` reject: a universal u precedes an existential v in s1 and stays
  universal in s2, where v precedes u; no sequence of moves reorders them.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import random
from dataclasses import dataclass
from itertools import accumulate

ACCEPT_FAMILIES = ("move", "burst")
REJECT_FAMILIES = ("case5", "case4")


@dataclass(frozen=True)
class Pair:
    """One generated request and the answer it must get.

    ``witness`` is ``(case_id, s2_position, variable_rank, blocking_f)`` for
    first-step rejects and ``None`` otherwise.
    """

    family: str
    n: int
    lhs: str
    rhs: str
    accept: bool
    witness: tuple | None = None


def derive(seed: int, *labels) -> random.Random:
    """An RNG for one named stream, so streams do not shift each other."""
    text = ":".join(str(part) for part in (seed, *labels))
    return random.Random(int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big"))


def stratified_log_sizes(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """``count`` sizes, log-uniform on [lo, hi], one draw per equal-width
    stratum of log n, in ascending order.

    Stratifying keeps the size quantiles of a run nearly fixed across seeds,
    so latency percentiles move with the program rather than with the draw.
    """
    span = math.log(hi) - math.log(lo)
    return [
        min(hi, max(lo, round(math.exp(math.log(lo) + span * (k + rng.random()) / count))))
        for k in range(count)
    ]


def log_uniform_size(rng: random.Random, lo: int, hi: int) -> int:
    return min(hi, max(lo, round(math.exp(rng.uniform(math.log(lo), math.log(hi))))))


def pattern_bits(pattern: int, n: int) -> list[int]:
    """Quantifier bits of an n-bit pattern, position i from bit i."""
    return [(pattern >> i) & 1 for i in range(n)]


def has_order_pair(bits: list[int]) -> bool:
    """Some universal precedes some existential."""
    return 1 in bits and 0 in bits[bits.index(1):]


_TOKENS = ("E x", "A x")


def render(order: list[int], bits: list[int]) -> str:
    return " ".join(map(str.__add__, map(_TOKENS.__getitem__, bits), map(str, order)))


_BIT_TABLE = bytes.maketrans(b"01", b"\x00\x01")


def random_bits(rng: random.Random, n: int) -> list[int]:
    if n <= 0:
        return []
    return list(format(rng.getrandbits(n), f"0{n}b").encode().translate(_BIT_TABLE))


def random_keys(rng: random.Random, n: int) -> list[int]:
    """n random 64-bit sort keys from one draw."""
    return list(memoryview(rng.getrandbits(64 * n).to_bytes(8 * n, "little")).cast("Q"))


def shuffled(rng: random.Random, items: list[int]) -> list[int]:
    keys = random_keys(rng, len(items))
    return [items[k] for k in sorted(range(len(items)), key=keys.__getitem__)]


def name_rank(n: int, var: int) -> int:
    """Index the program gives variable ``x<var>``: its rank among sorted names."""
    names = sorted(f"x{k}" for k in range(n))
    return names.index(f"x{var}")


def random_prefix(
    rng: random.Random, n: int, bits: list[int] | None = None
) -> tuple[list[int], list[int]]:
    """A random variable order, with random quantifiers unless ``bits`` is given."""
    return shuffled(rng, list(range(n))), random_bits(rng, n) if bits is None else bits[:]


def run_bounds(bits: list[int]) -> list[tuple[int, int]]:
    """Maximal same-quantifier runs as half-open (start, stop) slices."""
    out = []
    start = 0
    for i in range(1, len(bits) + 1):
        if i == len(bits) or bits[i] != bits[start]:
            out.append((start, i))
            start = i
    return out


def apply_moves(
    rng: random.Random, order: list[int], bits: list[int], keep: int | None = None
) -> tuple[list[int], list[int]]:
    """A prefix reachable from (order, bits) by sound moves.

    Exists-past-forall swaps first, then flips of about 10% of the universals
    (never variable ``keep``), then a shuffle inside every run.
    """
    o, b = order[:], bits[:]
    for i in range(len(b) - 1):
        if b[i] == 0 and b[i + 1] == 1 and rng.random() < 0.3:
            o[i], o[i + 1] = o[i + 1], o[i]
            b[i], b[i + 1] = 1, 0
    for i, q in enumerate(b):
        if q and o[i] != keep and rng.random() < 0.1:
            b[i] = 0
    run_id = list(accumulate(map(operator.ne, b[1:], b), initial=0))
    keys = [(rid << 64) | key for rid, key in zip(run_id, random_keys(rng, len(b)))]
    return [o[k] for k in sorted(range(len(b)), key=keys.__getitem__)], b


def move_accept(rng: random.Random, n: int, bits: list[int] | None = None) -> Pair:
    o1, b1 = random_prefix(rng, n, bits)
    o2, b2 = apply_moves(rng, o1, b1)
    return Pair("move", n, render(o1, b1), render(o2, b2), True)


def burst_accept(rng: random.Random, n: int) -> Pair:
    """s1 holds up to four long existential runs; s2 reverses each of them."""
    blocks = min(4, max(1, n // 8))
    run_len = max(1, n // (2 * blocks))
    gap = (n - blocks * run_len) // blocks
    bits: list[int] = []
    for _ in range(blocks):
        bits += random_bits(rng, max(0, gap - 1))
        if gap:
            bits.append(1)
        bits += [0] * run_len
    bits += random_bits(rng, n - len(bits))
    order = shuffled(rng, list(range(n)))
    runs = [(lo, hi) for lo, hi in run_bounds(bits) if bits[lo] == 0]
    runs.sort(key=lambda r: r[0] - r[1])
    o2 = order[:]
    for lo, hi in runs[:blocks]:
        o2[lo:hi] = o2[lo:hi][::-1]
    return Pair("burst", n, render(order, bits), render(o2, bits), True)


def _reject_rhs(rng: random.Random, n: int, var: int) -> tuple[list[int], list[int]]:
    """A random rhs that ends with universal ``var``."""
    order = shuffled(rng, [v for v in range(n) if v != var]) + [var]
    bits = random_bits(rng, n - 1) + [1]
    return order, bits


def case5_reject(rng: random.Random, n: int) -> Pair:
    """The last rhs variable is universal there but existential in s1."""
    o1, b1 = random_prefix(rng, n)
    exist = [i for i, q in enumerate(b1) if q == 0]
    if not exist:
        i = rng.randrange(n)
        b1[i] = 0
        exist = [i]
    var = o1[rng.choice(exist)]
    o2, b2 = _reject_rhs(rng, n, var)
    return Pair("case5", n, render(o1, b1), render(o2, b2), False,
                (5, n - 1, name_rank(n, var), None))


def case4_reject(rng: random.Random, n: int) -> Pair:
    """The last rhs variable is universal on both sides, and s1 has an
    existential after it; F starts at s1's last existential and blocks."""
    if n < 2:
        raise ValueError("case 4 needs n >= 2")
    o1, b1 = random_prefix(rng, n)
    exist = [i for i, q in enumerate(b1) if q == 0]
    last_e = exist[-1] if exist else 0
    if last_e == 0:
        b1[n - 1] = 0
        last_e = n - 1
    univ = [i for i in range(last_e) if b1[i]]
    if not univ:
        b1[0] = 1
        univ = [0]
    var = o1[rng.choice(univ)]
    o2, b2 = _reject_rhs(rng, n, var)
    return Pair("case4", n, render(o1, b1), render(o2, b2), False,
                (4, n - 1, name_rank(n, var), last_e))


def order_reject(rng: random.Random, n: int, bits: list[int] | None = None) -> Pair:
    """Universal u before existential v in s1; v before universal u in s2."""
    if n < 2:
        raise ValueError("an order violation needs n >= 2")
    while bits is None or not has_order_pair(bits):
        bits = random_bits(rng, n)
    o1, b1 = random_prefix(rng, n, bits)
    pairs = [(a, c) for a in range(n) for c in range(a + 1, n) if b1[a] and not b1[c]]
    a, c = rng.choice(pairs)
    u, v = o1[a], o1[c]
    o2, b2 = apply_moves(rng, o1, b1, keep=u)
    pu, pv = o2.index(u), o2.index(v)
    o2[pu], o2[pv] = v, u
    b2[pu], b2[pv] = b2[pv], b2[pu]
    return Pair("order", n, render(o1, b1), render(o2, b2), False)


FAMILIES = {
    "move": move_accept,
    "burst": burst_accept,
    "case5": case5_reject,
    "case4": case4_reject,
    "order": order_reject,
}


def decide_pairs(seed: int, workload: str, count: int, lo: int, hi: int) -> list[Pair]:
    """Requests for ``decide-accept`` or ``decide-reject``: stratified
    log-uniform sizes, the workload's two families taking alternate strata,
    in seeded random order."""
    families = ACCEPT_FAMILIES if workload == "decide-accept" else REJECT_FAMILIES
    sizes = stratified_log_sizes(derive(seed, workload, "sizes"), count, lo, hi)
    pairs = [
        FAMILIES[families[k % 2]](derive(seed, workload, k), n)
        for k, n in enumerate(sizes)
    ]
    derive(seed, workload, "order").shuffle(pairs)
    return pairs


MALFORMED = ("json", "quant", "universe")


@dataclass(frozen=True)
class Record:
    """One JSONL line for ``batch`` and the output line it must produce.

    ``error`` names the exception type the line must report, or is ``None``
    for a valid pair.
    """

    line: str
    pair: Pair | None
    error: str | None = None


def malformed_record(rng: random.Random, kind: str) -> Record:
    pair = move_accept(rng, log_uniform_size(rng, 2, 32))
    if kind == "json":
        return Record(json.dumps({"lhs": pair.lhs, "rhs": pair.rhs})[:-1], None,
                      "JSONDecodeError")
    if kind == "quant":
        lhs = "Q" + pair.lhs[1:]
        return Record(json.dumps({"lhs": lhs, "rhs": pair.rhs}), None, "PrefixSyntaxError")
    tokens = pair.rhs.split()
    tokens[1] = "y" + tokens[1][1:]  # rhs renames one variable lhs keeps
    return Record(json.dumps({"lhs": pair.lhs, "rhs": " ".join(tokens)}), None,
                  "VariableSetMismatchError")


def batch_file(seed: int, index: int, records: int, bad: int, lo: int, hi: int) -> list[Record]:
    """One ``batch`` input: ``records`` lines, ``bad`` of them malformed.

    The valid ones have stratified log-uniform sizes, take the four decide
    families in turn by size, and come in seeded random order.
    """
    rng = derive(seed, "batch-small", index)
    families = ACCEPT_FAMILIES + REJECT_FAMILIES
    out = []
    for k, n in enumerate(stratified_log_sizes(rng, records - bad, lo, hi)):
        pair = FAMILIES[families[k % 4]](rng, max(2, n))
        out.append(Record(json.dumps({"lhs": pair.lhs, "rhs": pair.rhs}), pair))
    rng.shuffle(out)
    for k in range(bad):
        record = malformed_record(rng, MALFORMED[(index + k) % len(MALFORMED)])
        out.insert(rng.randrange(len(out) + 1), record)
    return out


def reference_pairs(seed: int, count: int, n: int) -> list[Pair]:
    """Oracle queries, alternately move-derived accepts and order-violation
    rejects.

    The oracle's work depends on s1's quantifiers far more than on its
    variable order, so s1 cycles through every n-bit quantifier pattern (for
    rejects, every pattern with a universal before an existential) and only
    the orders and moves come from the seed.
    """
    accept_patterns = range(2**n)
    reject_patterns = [p for p in range(2**n) if has_order_pair(pattern_bits(p, n))]
    out = []
    for k in range(count):
        rng = derive(seed, "reference", k)
        if k % 2 == 0:
            bits = pattern_bits(accept_patterns[k // 2 % len(accept_patterns)], n)
            out.append(move_accept(rng, n, bits))
        else:
            bits = pattern_bits(reject_patterns[k // 2 % len(reject_patterns)], n)
            out.append(order_reject(rng, n, bits))
    return out


CLOSURE_PATTERNS = {7: ("AEAEAEA", "AAEEAAE")}


def reference_prefixes(seed: int, count: int, n: int) -> list[str]:
    """Closure inputs: fixed quantifier patterns, seeded variable orders.

    At n = 7 the patterns are two mid-cost ones (the all-universal closure
    alone would take seconds); otherwise they are spread evenly over the
    patterns that mix both quantifiers.
    """
    rng = derive(seed, "closure", n)
    if n in CLOSURE_PATTERNS and count <= len(CLOSURE_PATTERNS[n]):
        patterns = [[int(q == "A") for q in text] for text in CLOSURE_PATTERNS[n][:count]]
    else:
        patterns = [pattern_bits(1 + k * (2**n - 3) // max(1, count - 1), n)
                    for k in range(count)]
    return [render(*random_prefix(rng, n, bits)) for bits in patterns]


class Checksum:
    """SHA-256 over every input text of a run, in the order generated."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def add(self, *texts: str) -> None:
        for text in texts:
            self._h.update(text.encode())
            self._h.update(b"\n")

    def hexdigest(self) -> str:
        return self._h.hexdigest()[:16]
