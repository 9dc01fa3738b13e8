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

Internally states are packed into single ints (one nibble per sigma slot,
quantifier bits above), which keeps the visited set compact; that encoding
tops out at 16 variables.  The census builds its class graph from the same
packed moves and class members.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import permutations, product

from .errors import InstanceTooLargeError
from .prefix import (
    CanonicalClass,
    Prefix,
    ensure_same_universe,
    equivalent,
    runs,
)

__all__ = [
    "ORACLE_CAP",
    "MoveKind",
    "Move",
    "applicable_moves",
    "apply_move",
    "successors",
    "oracle_implies",
    "closure",
]

ORACLE_CAP = 8
_PACKING_CEILING = 16  # one nibble per sigma slot


class MoveKind(Enum):
    SWAP_SAME = "swap-same"
    FLIP = "flip"
    SWAP_EA = "swap-ea"


@dataclass(frozen=True)
class Move:
    """One sound transformation, acting on ``position`` (and ``position + 1``
    for the swap kinds)."""

    kind: MoveKind
    position: int


def applicable_moves(p: Prefix) -> list[Move]:
    """All moves that apply to ``p``, in a fixed deterministic order."""
    bits = p.bits
    out = [Move(MoveKind.FLIP, i) for i, q in enumerate(bits) if q]
    for i in range(p.n - 1):
        if bits[i] == bits[i + 1]:
            out.append(Move(MoveKind.SWAP_SAME, i))
        elif not bits[i]:
            out.append(Move(MoveKind.SWAP_EA, i))
    return out


def apply_move(p: Prefix, move: Move) -> Prefix:
    """Apply one move; variables travel with their quantifiers on swaps."""
    i = move.position
    if not 0 <= i < p.n - (move.kind is not MoveKind.FLIP):
        raise ValueError(f"{move.kind.value} position {i} is out of range at n={p.n}")
    sigma = list(p.sigma)
    bits = list(p.bits)
    if move.kind is MoveKind.FLIP:
        if not bits[i]:
            raise ValueError(f"flip needs a universal at position {i}")
        bits[i] = 0
    elif move.kind is MoveKind.SWAP_SAME:
        if bits[i] != bits[i + 1]:
            raise ValueError(f"same-run swap needs equal quantifiers at {i},{i + 1}")
        sigma[i], sigma[i + 1] = sigma[i + 1], sigma[i]
    else:
        if bits[i] or not bits[i + 1]:
            raise ValueError(f"exists-forall swap does not apply at {i},{i + 1}")
        sigma[i], sigma[i + 1] = sigma[i + 1], sigma[i]
        bits[i], bits[i + 1] = 1, 0
    return Prefix(tuple(sigma), bytes(bits), p.names)


def successors(p: Prefix) -> set[Prefix]:
    """All distinct raw prefixes one move away from ``p`` (never ``p`` itself)."""
    return {apply_move(p, move) for move in applicable_moves(p)}


def _bits_of(bits: bytes) -> int:
    """Quantifier bytes as an int, bit i set when position i is universal."""
    return sum(q << i for i, q in enumerate(bits))


def _pack(p: Prefix) -> int:
    """``p`` as one packed state: a nibble per sigma slot, quantifier bits above."""
    state = _bits_of(p.bits) << (4 * p.n)
    for i, v in enumerate(p.sigma):
        state |= v << (4 * i)
    return state


def _unpack(state: int, n: int) -> tuple[tuple[int, ...], bytes]:
    sigma = tuple((state >> (4 * i)) & 15 for i in range(n))
    word = state >> (4 * n)
    return sigma, bytes((word >> i) & 1 for i in range(n))


def _moves(state: int, n: int) -> list[int]:
    """Packed successors of a packed state: every flip and adjacent swap.

    Same-run swaps are included, so a search over these moves visits every
    member of each class it reaches.
    """
    shift = 4 * n
    word = state >> shift
    succ = []
    rest = word
    i = 0
    while rest:  # flip each universal position to existential
        if rest & 1:
            succ.append(state ^ (1 << (shift + i)))
        rest >>= 1
        i += 1
    for i in range(n - 1):
        pair = (word >> i) & 3
        if pair == 1:  # universal then existential: no move applies
            continue
        z = ((state >> (4 * i)) ^ (state >> (4 * i + 4))) & 15
        swapped = state ^ ((z << (4 * i)) | (z << (4 * i + 4)))
        if pair == 2:  # existential-universal pair swaps quantifiers too
            swapped ^= 3 << (shift + i)
        succ.append(swapped)
    return succ


def _members(p: Prefix) -> list[int]:
    """Packed raw states of ``p``'s class: every order inside each run."""
    blocks = [
        [
            sum(v << (4 * (r.start + k)) for k, v in enumerate(order))
            for order in permutations(p.sigma[r.start : r.start + r.length])
        ]
        for r in runs(p)
    ]
    base = _bits_of(p.bits) << (4 * p.n)
    return [base + sum(parts) for parts in product(*blocks)]


def _explore(
    p: Prefix, targets: set[int] | frozenset[int] = frozenset()
) -> tuple[bool, set[int]]:
    """BFS over packed raw states from ``p``; return ``(found, visited)``.

    ``found`` is whether some visited state lies in ``targets``; the search
    stops at the first one, leaving ``visited`` partial.  Without an early
    stop ``visited`` is every raw state reachable from the root, and it is
    closed under class membership because same-run swaps are moves: a class
    is reachable exactly when all of its members (its canonical one among
    them) are in ``visited``.
    """
    n = p.n  # a property: read once, not on every pop
    root = _pack(p)
    visited = {root}
    if root in targets:
        return True, visited
    queue = deque((root,))
    while queue:
        for nxt in _moves(queue.popleft(), n):
            if nxt not in visited:
                visited.add(nxt)
                if nxt in targets:
                    return True, visited
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
    # Return before listing s2's class (up to n! states) when the root is in it.
    if s1.bits == s2.bits and equivalent(s1, s2):
        return True
    found, _ = _explore(s1, targets=set(_members(s2)))
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
        # Flips and exists-forall swaps lower the packed value, and a same-run
        # swap lowers it exactly when the pair was ascending, so the states
        # sorted inside each run are the ones that no move raises.
        if all(nxt < state for nxt in _moves(state, n)):
            sigma, bits = _unpack(state, n)
            out.append(CanonicalClass(Prefix(sigma, bits, p.names)))
    out.sort(key=lambda c: c.text)
    return out
