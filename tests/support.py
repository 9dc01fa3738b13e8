"""Shared helpers for the test suite."""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import dataclass
from enum import Enum
from itertools import permutations, product
from math import comb
from pathlib import Path

from hypothesis import strategies as st

import prenex
from prenex import Prefix, Quantifier, default_names


def run_python(*args: str, text: bool = False) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a child process that imports the same prenex
    as the tests, installed or not: pytest's ``pythonpath`` setting reaches
    only this process, so the child gets the package's parent directory on
    ``PYTHONPATH``."""
    src = str(Path(prenex.__file__).parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, inherited]))}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=text, env=env
    )


def make_prefix(sigma, bits, names=None) -> Prefix:
    """Build a prefix from a sigma sequence and 0/1 quantifier bits."""
    if names is None:
        names = default_names(len(sigma))
    return Prefix(tuple(sigma), tuple(Quantifier(b) for b in bits), names)


def all_raw_states(n):
    """Every raw (sigma, quantifier bytes) pair at n, sigma as an int tuple."""
    for sigma in permutations(range(n)):
        for bits in product((0, 1), repeat=n):
            yield sigma, bytes(bits)


def all_raw_prefixes(n):
    names = default_names(n)
    for sigma, bits in all_raw_states(n):
        yield Prefix(sigma, bits, names)


# The readable reference for the sound moves.  The oracle's search has its
# own moves over class keys, and the census its own over rows of class ids;
# tests check both against these.


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
    bits = p.b
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
    bits = list(p.b)
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


def reference_key(p: Prefix) -> tuple[int, ...]:
    """The oracle's class key of ``p`` by the readable loop: ``(word, m0, m1,
    ...)``, ``word`` with bit i set when position i is universal and ``m_k``
    the bitmask of the variables in run k."""
    b = p.b
    masks = []
    for i, v in enumerate(p.sigma):
        if i and b[i] == b[i - 1]:
            masks[-1] |= 1 << v
        else:
            masks.append(1 << v)
    return (sum(q << i for i, q in enumerate(b)), *masks)


def fubini(n: int) -> int:
    """Ordered-Bell number by the binomial recurrence (independent oracle)."""
    values = [1]
    for m in range(1, n + 1):
        values.append(sum(comb(m, k) * values[m - k] for k in range(1, m + 1)))
    return values[n]


# Prefix-text fuzzing: mostly well-formed tokens, with every kind of fault,
# among them quantifier tokens of several characters and names with a fault
# past their first character or outside ASCII.
QUANT_TOKENS = ["A", "E", "∀", "∃"] * 8 + ["B", "a", "AE", "A∀", "∃∃"]
GOOD_NAMES = ["x1", "x2", "x10", "_y", "Z_9", "q", "b2", "y_"]
BAD_NAMES = ["1x", "é", "x-1", "xé", "x٣", "ﬁ", "x.y", "x\x00", "x\udcff"]
NAME_TOKENS = GOOD_NAMES * 6 + BAD_NAMES
SEPARATORS = [" ", "  ", "\t", "\n", "\xa0", " \t\n"]


def name_lists():
    """Variable names for one prefix, distinct in about half the draws."""
    return st.booleans().flatmap(
        lambda unique: st.lists(st.sampled_from(NAME_TOKENS), max_size=7, unique=unique)
    )


@st.composite
def prefix_texts(draw, names=None):
    """Prefix text quantifying ``names`` (drawn if None) in order, joined by
    mixed whitespace, sometimes with a dangling or misplaced token."""
    if names is None:
        names = draw(name_lists())
    tokens = []
    for name in names:
        tokens += [draw(st.sampled_from(QUANT_TOKENS)), name]
    if draw(st.integers(0, 9)) == 0:
        tokens.insert(
            draw(st.integers(0, len(tokens))),
            draw(st.sampled_from(QUANT_TOKENS + NAME_TOKENS)),
        )
    seps = [draw(st.sampled_from(SEPARATORS)) for _ in range(len(tokens) + 1)]
    text = "".join(sep + tok for sep, tok in zip(seps, tokens))
    return text + seps[-1] if draw(st.booleans()) else text


@st.composite
def prefix_text_pairs(draw):
    """(lhs, rhs) texts, the rhs over a permutation of the lhs names with
    one name sometimes replaced."""
    names = draw(name_lists())
    other = draw(st.permutations(names))
    if other and draw(st.integers(0, 3)) == 0:
        other[draw(st.integers(0, len(other) - 1))] = draw(st.sampled_from(NAME_TOKENS))
    return draw(prefix_texts(names)), draw(prefix_texts(other))
