"""Brute-force reference decision by BFS over the raw prefix space.

The three sound moves generate successors of a raw prefix; implication holds
iff some member of the target's equivalence class is reachable.  The search
runs over raw prefixes with a visited set and never canonicalizes a state.
It is complete because same-run swaps are moves too: the visited set is
closed under class membership, so a class is reached exactly when all of its
members are visited.  ``oracle_implies`` therefore stops at the first member
of the target's class it meets, and ``closure`` keeps one visited state per
class, the one sorted inside each run.  State counts stay manageable under
the size cap (n!*2^n is about 10.3M at n=8).

``oracle_implies`` prunes by the quantifier word w, bit i set when position
i is universal.  A flip clears one bit of w; an exists-forall swap turns
bits (i, i+1) from (0, 1) into (1, 0), lowering w by 2^i; a same-run swap
leaves w alone and stays inside the class.  So no move raises w or its
popcount, and every move that leaves a class lowers w.  A state outside the
target's class can reach that class only if its word is above the target's
with no fewer universals; a state that fails this has no descendant that
passes it, so leaving it unexpanded loses no path to the target.  Every
visited state is still tested against the target, and ``closure`` and a
bare ``_explore`` keep the full search.

Internally states are packed into single ints (one nibble per sigma slot,
quantifier bits above), which keeps the visited set compact; that encoding
tops out at 16 variables.  The moves open to a state depend on its word
alone: one cached table per word holds them as XOR masks and nibble-swap
terms.  The search inlines that arithmetic in its loop, reading each
word's moves once per call into a local dict and queueing each successor
where it is made, so no per-state call or successor list is left; the
tests keep a one-state ``_moves`` over the same table as its reference.
The census orders its class graph by the same word.
"""

from __future__ import annotations

from collections import deque
from functools import cache
from itertools import permutations, product

from .errors import InstanceTooLargeError
from .prefix import (
    CanonicalClass,
    Prefix,
    _trusted,
    ensure_same_universe,
    equivalent,
    runs,
)

__all__ = [
    "ORACLE_CAP",
    "oracle_implies",
    "closure",
]

ORACLE_CAP = 8
_PACKING_CEILING = 16  # one nibble per sigma slot


def _bits_of(bits: bytes) -> int:
    """Quantifier bytes as an int, bit i set when position i is universal."""
    return sum(q << i for i, q in enumerate(bits))


def _pack(p: Prefix) -> int:
    """``p`` as one packed state: a nibble per sigma slot, quantifier bits above."""
    state = _bits_of(p.b) << (4 * p.n)
    for i, v in enumerate(p.sigma):
        state |= v << (4 * i)
    return state


def _unpack(state: int, n: int) -> tuple[tuple[int, ...], bytes]:
    sigma = tuple((state >> (4 * i)) & 15 for i in range(n))
    word = state >> (4 * n)
    return sigma, bytes((word >> i) & 1 for i in range(n))


@cache
def _word_moves(
    word: int, n: int
) -> tuple[tuple[int, ...], tuple[tuple[int, int, int, int], ...]]:
    """The moves open to every packed state whose quantifier word is ``word``.

    Returns ``(flips, swaps)``.  ``flips`` holds one XOR mask per universal
    position.  ``swaps`` holds, per adjacent pair that may swap, the two
    nibble shifts ``4i`` and ``4i + 4``, the ``17 << 4i`` multiplier that
    writes the two nibbles' difference back into both slots, and the
    quantifier XOR (nonzero for an exists-forall pair, zero for a same-run
    pair).  A move depends on the word alone, so there are at most 2^n
    entries per n.
    """
    shift = 4 * n
    flips = tuple(1 << (shift + i) for i in range(n) if (word >> i) & 1)
    swaps = []
    for i in range(n - 1):
        pair = (word >> i) & 3
        if pair == 1:  # universal then existential: no move applies
            continue
        lo = 4 * i
        # an existential-universal pair swaps quantifiers too
        quant = 3 << (shift + i) if pair == 2 else 0
        swaps.append((lo, lo + 4, 17 << lo, quant))
    return flips, tuple(swaps)


def _sorted_runs(state: int, n: int) -> bool:
    """Whether ``state`` is ascending at every same-run pair: its class's
    canonical member, the one state of the class that no move raises."""
    for lo, hi, _, quant in _word_moves(state >> (4 * n), n)[1]:
        if not quant and (state >> lo) & 15 > (state >> hi) & 15:
            return False
    return True


def _can_reach(word: int, floor: int) -> bool:
    """Whether a state of quantifier word ``word`` outside a class of word
    ``floor`` can reach that class: no move raises a word or its popcount,
    and every move that leaves a class lowers the word."""
    return word > floor and word.bit_count() >= floor.bit_count()


def _members(p: Prefix) -> list[int]:
    """Packed raw states of ``p``'s class: every order inside each run."""
    blocks = [
        [
            sum(v << (4 * (r.start + k)) for k, v in enumerate(order))
            for order in permutations(p.sigma[r.start : r.start + r.length])
        ]
        for r in runs(p)
    ]
    base = _bits_of(p.b) << (4 * p.n)
    return [base + sum(parts) for parts in product(*blocks)]


def _explore(
    p: Prefix, targets: set[int] | frozenset[int] = frozenset(), floor: int | None = None
) -> tuple[bool, set[int]]:
    """BFS over packed raw states from ``p``; return ``(found, visited)``.

    ``found`` is whether some visited state lies in ``targets``; the search
    stops at the first one, leaving ``visited`` partial.  Without an early
    stop or a ``floor``, ``visited`` is every raw state reachable from the
    root, and it is closed under class membership because same-run swaps are
    moves: a class is reachable exactly when all of its members (its
    canonical one among them) are in ``visited``.

    ``floor`` is the quantifier word of a target class.  Every visited state
    is still tested against ``targets``, but only states that can still
    reach a class of that word (``_can_reach``) are expanded.  The root
    itself is never tested: callers pass ``targets`` only when the root is
    not among them.

    The moves are inlined: each popped state's ``(flips, swaps)`` come from
    a dict local to the call, filled from ``_word_moves`` the first time its
    word is seen, and each successor is tested and queued where it is made,
    with no successor list.  The queue is a deque of states waiting to be
    expanded; a list read while it grows was as fast but held every
    expanded state to the end (+5% peak RSS on an n = 8 closure).
    """
    n = p.n  # a property: read once, not on every pop
    shift = 4 * n
    root = _pack(p)
    visited = {root}
    queue = deque((root,))
    table = {}
    while queue:
        state = queue.popleft()
        word = state >> shift
        moves = table.get(word)
        if moves is None:
            moves = table[word] = _word_moves(word, n)
        flips, swaps = moves
        for mask in flips:
            nxt = state ^ mask
            if nxt not in visited:
                visited.add(nxt)
                if nxt in targets:
                    return True, visited
                if floor is None or _can_reach(nxt >> shift, floor):
                    queue.append(nxt)
        for lo, hi, spread, quant in swaps:
            nxt = state ^ (((state >> lo) ^ (state >> hi)) & 15) * spread ^ quant
            if nxt not in visited:
                visited.add(nxt)
                if nxt in targets:
                    return True, visited
                if floor is None or _can_reach(nxt >> shift, floor):
                    queue.append(nxt)
    return False, visited


def _check_cap(n: int, max_n: int) -> None:
    if n > max_n:
        raise InstanceTooLargeError(f"n={n} exceeds the oracle cap {max_n}")
    if n > _PACKING_CEILING:
        raise InstanceTooLargeError(
            f"n={n} exceeds the packed-state ceiling {_PACKING_CEILING}"
        )


def oracle_implies(s1: Prefix, s2: Prefix, max_n: int = ORACLE_CAP) -> bool:
    """Reference answer to the implication question, by exhaustive reachability.

    True iff some prefix equivalent to ``s2`` is reachable from ``s1`` via the
    move closure.  Exponential; guarded by ``max_n``.
    """
    ensure_same_universe(s1, s2)
    _check_cap(s1.n, max_n)
    # Return before listing s2's class (up to n! states) when the root is in
    # it, or when no move sequence from the root can reach a class of its word.
    if s1.b == s2.b and equivalent(s1, s2):
        return True
    floor = _bits_of(s2.b)
    if not _can_reach(_bits_of(s1.b), floor):
        return False
    found, _ = _explore(s1, targets=set(_members(s2)), floor=floor)
    return found


def closure(p: Prefix, max_n: int = ORACLE_CAP) -> list[CanonicalClass]:
    """Every class reachable from ``p`` (its own included), sorted by text.

    Forward closure, i.e. all statements ``p`` makes necessary; the reverse
    direction is available through the census graph's transpose.
    """
    n = p.n
    _check_cap(n, max_n)
    _, visited = _explore(p)
    out = []
    for state in visited:
        if _sorted_runs(state, n):
            # a reachable state unpacks to a permutation with 0/1 bytes
            out.append(CanonicalClass(_trusted(*_unpack(state, n), p.names)))
    out.sort(key=lambda c: c.text)
    return out
