"""Census of equivalence classes at small n: enumeration, graph, pair counts.

A class is determined by its quantifier string plus the set of variables in
each run (order inside a run is immaterial).  ``enumerate_classes`` lists
the classes by one depth-first walk over their canonical members, whose
runs list their variables in ascending order; with names of one width the
walk's order is text order.  A raw prefix is a quantifier word with a
placement of the variables, and ``_run_table`` turns a placement into the
label of the run that holds each variable: the class's label.  A run's
label carries its quantifier as well as its index, so a label also names
its word, and the classes of all words share one label space.
``build_graph`` maps each label to its class id in one dict, and reads from
it one row of class ids per word.
Edges need every raw prefix, since different members of one class reach
different classes; the flips and exists-forall swaps join whole rows, a
swap through one table of placement ranks per pair of adjacent positions.
Every edge lowers its source's quantifier word, so ascending word order is
a topological order of the graph, and reachability runs in that order.  The
census imports nothing from the oracle: its moves are its own, and a test
checks its edges against the readable moves of the test suite.

The pair count is made two independent ways.  ``count_pairs`` sums closed
forms over the 2^n quantifier words: renaming both sides keeps an
implication, so each word needs only the count of raw s2 that its
identity-order prefix implies, which an insertion count on the decision rule
gives.  ``count_pairs_via_graph`` takes reachability in the class graph and
weights a class pair by its two multiplicities.  They agree up to
``PAIR_CAP`` = 6, and CI also checks n = 7 with ``cap=7``.

Counts grow like ordered set partitions (two per run-length pattern), so
everything here is capped to desk-scale n.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, groupby, permutations, product
from math import factorial, prod
from operator import itemgetter
from typing import Iterable

from .errors import InstanceTooLargeError
from .prefix import CanonicalClass, _bits_of, _trusted, default_names

__all__ = [
    "CLASS_CAP",
    "PAIR_CAP",
    "ImplicationGraph",
    "CensusReport",
    "enumerate_classes",
    "build_graph",
    "count_pairs",
    "count_pairs_via_graph",
    "reachability_bitsets",
    "export_graph",
]

CLASS_CAP = 7
PAIR_CAP = 6


@dataclass(frozen=True)
class ImplicationGraph:
    """Directed graph of equivalence classes under single-move implication.

    ``vertices`` are sorted by canonical text; ``edges`` hold vertex-index
    pairs produced by flips and exists-forall swaps (same-run swaps stay
    inside a class), and every edge lowers its source's quantifier word;
    ``multiplicity[i]`` counts raw prefixes in class i.
    """

    n: int
    vertices: tuple[CanonicalClass, ...]
    edges: frozenset[tuple[int, int]]
    multiplicity: tuple[int, ...]

    def sorted_edges(self) -> list[tuple[int, int]]:
        """The edges in ``sorted(edges)`` order, as the graph's own tuples:
        each edge goes into its source vertex's bucket, each bucket is sorted
        by target, and the buckets are chained in source order."""
        buckets: list[list[tuple[int, int]]] = [[] for _ in self.vertices]
        for edge in self.edges:
            buckets[edge[0]].append(edge)
        target = itemgetter(1)
        for bucket in buckets:
            bucket.sort(key=target)
        return list(chain.from_iterable(buckets))


@dataclass(frozen=True)
class CensusReport:
    """Implication tally over all ordered raw-prefix pairs at a given n."""

    n: int
    class_count: int
    edge_count: int
    true_pairs: int
    total_pairs: int
    probability: Fraction


def _check_cap(n: int, cap: int) -> None:
    if not 1 <= n <= cap:
        raise InstanceTooLargeError(f"n={n} outside the supported range 1..{cap}")


def _run_table(bits: bytes) -> bytes:
    """A word's run labels as a ``bytes.translate`` table: position i goes to
    2k + q, where run k holds it and q is that run's quantifier.  Runs
    alternate quantifiers, so a label names its word, and no two words share
    a label."""
    labels = [2 * k + q for k, (q, run) in enumerate(groupby(bits)) for _ in run]
    return bytes(labels).ljust(256, b"\0")


def enumerate_classes(
    n: int, cap: int = CLASS_CAP
) -> list[tuple[CanonicalClass, int]]:
    """All equivalence classes at n, sorted by canonical text.

    One depth-first walk fills the positions left to right, trying A before
    E at each, then each unused variable in ascending order; inside a run a
    variable must be larger than the one before it, so the walk meets each
    class once, as its canonical member.  Every name from ``default_names``
    has the same width, so every token ("A x3") does too, and text order is
    token order: by letter, then by variable index.  The walk meets the
    classes in that order, with no sort.  A class's multiplicity, the
    product of its run-length factorials, is multiplied by a run's new
    length whenever the walk extends that run; the multiplicities sum to
    n! * 2^n.
    """
    _check_cap(n, cap)
    names = default_names(n)
    words: dict[bytes, bytes] = {}  # one bytes object per quantifier word
    out = []
    sigma = [0] * n
    bits = bytearray(n)

    def walk(i: int, free: tuple[int, ...], q: int, last: int, length: int, mult: int) -> None:
        # positions 0..i-1 are filled; the run that ends at i - 1 has
        # quantifier q, last variable ``last`` and length ``length``, and
        # mult is the product of the run-length factorials so far
        if i == n:
            b = bytes(bits)
            rep = _trusted(tuple(sigma), words.setdefault(b, b), names)
            out.append((CanonicalClass(rep), mult))
            return
        for nq in (1, 0):  # A before E
            bits[i] = nq
            same = nq == q
            for k, v in enumerate(free):
                if same and v < last:
                    continue
                sigma[i] = v
                rest = free[:k] + free[k + 1 :]
                if same:
                    walk(i + 1, rest, q, v, length + 1, mult * (length + 1))
                else:
                    walk(i + 1, rest, nq, v, 1, mult)

    walk(0, tuple(range(n)), -1, -1, 0, 1)
    return out


def build_graph(n: int, cap: int = CLASS_CAP) -> ImplicationGraph:
    """Materialize the class graph by applying every move to every raw prefix.

    A raw prefix is a quantifier word w with a placement q, one of the n!
    permutations ``permutations(range(n))``: ``q[v]`` is the position of
    variable v.  Its class is its label ``q.translate(table)``, the run
    label of each variable under the word's ``_run_table``; a label names
    its word, so one ``class_id`` dict serves every word, and ``ids[w][r]``
    is the class of w with the r-th placement.  A flip keeps the placement,
    so it joins a whole row of ``ids`` to another.  An exists-forall swap at
    (i, i + 1) exchanges the positions i and i + 1, so it sends the r-th
    placement to the one of rank ``swap_at[i][r]``, and it joins the row of
    w to the swapped word's row read in that order.  Same-run swaps never
    leave the class and need no work.
    """
    classes = enumerate_classes(n, cap)
    vertices = tuple(cls for cls, _ in classes)
    multiplicity = tuple(mult for _, mult in classes)
    del classes  # the edge set's tuples reuse the memory of its pairs
    placements = list(map(bytes, permutations(range(n))))
    rank = {q: r for r, q in enumerate(placements)}
    # swap_at[i][r] is the rank of placement r with positions i and i + 1
    # exchanged: the variables there trade places
    swap_at = []
    for i in range(n - 1):
        swap = bytes.maketrans(bytes((i, i + 1)), bytes((i + 1, i)))
        swap_at.append([rank[q.translate(swap)] for q in placements])
    words = [bytes((w >> i) & 1 for i in range(n)) for w in range(1 << n)]
    tables = dict(zip(words, map(_run_table, words)))
    # Variable sigma[i] sits at position i and takes the label table[i]: read
    # through that map, the identity placement, placements[0], is the label.
    maps = (bytes.maketrans(bytes(c.rep.sigma), tables[c.rep.b][:n]) for c in vertices)
    class_id = {placements[0].translate(m): u for u, m in enumerate(maps)}
    ids = [[class_id[q.translate(t)] for q in placements] for t in tables.values()]
    pairs = []
    for w, row in enumerate(ids):
        for i in range(n):
            if (w >> i) & 1:  # a flip at universal position i
                pairs.append(zip(row, ids[w ^ 1 << i]))
        for i in range(n - 1):
            if (w >> i) & 3 == 2:  # exists at i, forall at i + 1
                pairs.append(zip(row, map(ids[w ^ 3 << i].__getitem__, swap_at[i])))
    edges = frozenset(chain.from_iterable(pairs))
    return ImplicationGraph(n, vertices, edges, multiplicity)


def reachability_bitsets(g: ImplicationGraph) -> list[int]:
    """Per-vertex reachable sets (self included) as int bitsets.

    Every edge lowers its source's quantifier word, so ascending word order
    visits each vertex after all of its successors; an edge that does not
    lower the word (every edge on a cycle is one) raises ``ValueError``.
    """
    count = len(g.vertices)
    words = [_bits_of(cls.rep.b) for cls in g.vertices]
    adjacency: list[list[int]] = [[] for _ in range(count)]
    for u, v in g.edges:
        if words[v] >= words[u]:
            raise ValueError(f"edge {u} -> {v} does not lower the quantifier word")
        adjacency[u].append(v)
    reach = [0] * count
    for u in sorted(range(count), key=words.__getitem__):
        bits = 1 << u
        for v in adjacency[u]:
            bits |= reach[v]
        reach[u] = bits
    return reach


def _report(n: int, class_count: int, edge_count: int, true_pairs: int) -> CensusReport:
    total = (factorial(n) * 2**n) ** 2
    return CensusReport(
        n=n,
        class_count=class_count,
        edge_count=edge_count,
        true_pairs=true_pairs,
        total_pairs=total,
        probability=Fraction(true_pairs, total),
    )


def _weighted_pairs(rows: Iterable[int], mult: tuple[int, ...]) -> int:
    """Sum of ``mult[u] * mult[v]`` over every set bit v of each row u."""
    # One mask of vertices per distinct multiplicity: a row's weight is then
    # a popcount per multiplicity instead of a walk over its bits.
    masks: dict[int, int] = {}
    for v, m in enumerate(mult):
        masks[m] = masks.get(m, 0) | (1 << v)
    return sum(
        m1 * sum(m * (bits & mask).bit_count() for m, mask in masks.items())
        for m1, bits in zip(mult, rows)
    )


def _implied_count(word: tuple[int, ...]) -> int:
    """C(w): how many raw s2 the prefix (identity order, ``word``) implies.

    By the rule, s2 is a placement order of s1's positions, each position
    existential there or, when it is universal in s1 and every existential
    above it in s1 lies past it in s2, universal.  Positions are inserted
    from the top of s1, so each one's condition is settled as it goes in:
    ``weights[s]`` counts the partial s2 with s items before their first
    existential, and m items in all.
    """
    weights = [1]
    for m, universal in enumerate(reversed(word)):
        # A slot past the first existential: existential, state kept.
        grown = [(m - s) * c for s, c in enumerate(weights)] + [0]
        if universal:
            # A slot before it: either quantifier, one more item before it.
            for s, c in enumerate(weights):
                grown[s + 1] += 2 * (s + 1) * c
        else:
            # Slot t <= s: the new first existential, t items before it.
            tail = 0
            for t in range(len(weights) - 1, -1, -1):
                tail += weights[t]
                grown[t] += tail
        weights = grown
    return sum(weights)


def count_pairs(n: int, cap: int = PAIR_CAP) -> CensusReport:
    """Count ordered raw-prefix pairs (s1, s2) with s1 implying s2, exactly.

    Closed forms, summed over the 2^n quantifier words with no class graph.
    A word with run lengths r has n!/prod(r!) classes.  Each class has
    L * 2^(L-1) out-edges from the flips in a universal run of length L, and
    a * b from the swaps of an existential run of length a with the
    universal run of length b after it.  Renaming the variables on both
    sides keeps an implication, so the true pairs are n! times the sum of
    ``_implied_count`` over the words.
    """
    _check_cap(n, cap)
    classes = edges = implied = 0
    for word in product((0, 1), repeat=n):
        lengths = [(q, len(tuple(run))) for q, run in groupby(word)]
        word_classes = factorial(n) // prod(factorial(r) for _, r in lengths)
        flips = sum(r << (r - 1) for q, r in lengths if q)
        swaps = sum(a * b for (q, a), (_, b) in zip(lengths, lengths[1:]) if not q)
        classes += word_classes
        edges += word_classes * (flips + swaps)
        implied += _implied_count(word)
    return _report(n, classes, edges, factorial(n) * implied)


def count_pairs_via_graph(n: int, cap: int = PAIR_CAP) -> CensusReport:
    """Independent pair count: graph reachability with multiplicity weights."""
    g = build_graph(n, cap=cap)
    pairs = _weighted_pairs(reachability_bitsets(g), g.multiplicity)
    return _report(n, len(g.vertices), len(g.edges), pairs)


def export_graph(g: ImplicationGraph, fmt: str = "json") -> bytes:
    """Serialize the graph to byte-stable JSON or DOT."""
    if fmt == "json":
        doc = {
            "n": g.n,
            "vertices": [
                {"id": i, "prefix": cls.text, "multiplicity": g.multiplicity[i]}
                for i, cls in enumerate(g.vertices)
            ],
            "edges": g.sorted_edges(),
        }
        return (json.dumps(doc, separators=(",", ":")) + "\n").encode()
    if fmt == "dot":
        lines = ["digraph implication_classes {"]
        for i, cls in enumerate(g.vertices):
            label = cls.text.replace('"', '\\"')
            lines.append(f'  {i} [label="{label}"];')
        for u, v in g.sorted_edges():
            lines.append(f"  {u} -> {v};")
        lines.append("}")
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown export format {fmt!r} (expected 'json' or 'dot')")
