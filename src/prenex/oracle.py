"""Brute-force reference decision by BFS over the equivalence classes.

The three sound moves act on raw prefixes: a flip makes a universal
existential, an exists-forall swap exchanges an adjacent existential and
universal, and a same-run swap reorders a run, which stays inside the
class.  Implication holds iff the target's class is reachable.  The search
runs over classes, each held as one key ``(word, m0, m1, ...)``: ``word``
has bit i set when position i is universal, and ``m_k`` is the bitmask of
the variables in run k.  Every member of a class gives the same key.

``_successors`` yields the classes one move away from a class, each once:
- a flip in a universal run S picks the variable x that turns existential
  and the subset T of S - x that stays before it, so the run becomes the
  pieces T, x, S - x - T, and ``word`` loses bit ``start + |T|``;
- an exists-forall swap picks x from an existential run P and y from the
  universal run Q after it, so the two runs become P - x, y, x, Q - y, and
  ``word`` exchanges bits ``start + |P| - 1`` and ``start + |P|``.
Each move's pieces alternate quantifiers, with the run before the moved
ones first and the run after them last, and each result is built in one
tuple.  Only two pieces can be empty, T (or P - x) and S - x - T (or
Q - y); an empty one is left out and its two neighbours, which share a
quantifier, merge into one run, and a missing neighbour run is left out
too.  A universal run of length L has L*2^(L-1) flips and an existential
run of length a before a universal run of length b has a*b swaps: the
counts the census sums in closed form.

``oracle_implies`` prunes by the word.  A flip clears one bit of it; an
exists-forall swap turns bits (i, i+1) from (0, 1) into (1, 0), lowering it
by 2^i.  So no move out of a class raises the word or its popcount, and
every such move lowers the word.  A class can reach the target's class
only if its word is above the target's with no fewer universals; a class
that fails this has no descendant that passes it, so leaving it unexpanded
loses no path to the target.  Every visited class is still compared with
the target, and ``closure`` and a bare ``_explore`` keep the full search.
The census orders its class graph by the same word.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

from .errors import InstanceTooLargeError
from .prefix import CanonicalClass, Prefix, _bits_of, _text_key, _trusted, ensure_same_universe

__all__ = [
    "ORACLE_CAP",
    "oracle_implies",
    "closure",
]

ORACLE_CAP = 8


def _key(p: Prefix) -> tuple[int, ...]:
    """``p``'s class as ``(word, m0, m1, ...)``, ``m_k`` the variables of run k."""
    b = p.b
    masks = []
    for i, v in enumerate(p.sigma):
        if i and b[i] == b[i - 1]:
            masks[-1] |= 1 << v
        else:
            masks.append(1 << v)
    return (_bits_of(b), *masks)


def _bits(mask: int) -> Iterator[int]:
    """The one-bit masks of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _successors(key: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Every class one flip or exists-forall swap away from ``key``'s, once each.

    Each move's result is built as one tuple.  ``head`` and ``behind`` are
    the runs before and after the moved ones; ``prev`` is ``head``'s last
    run and ``low`` the runs before it, ``after`` is ``behind``'s first run
    and ``high`` the runs after it.  A missing ``prev`` or ``after`` is 0,
    so a variable that merges into it stands alone.
    """
    word = key[0]
    last = len(key) - 1
    start = 0
    for i in range(1, last + 1):
        run = key[i]
        head = key[1:i]
        low, prev = (head[:-1], head[-1]) if head else ((), 0)
        if word >> start & 1:
            # pieces prev, t, x, r, after with r = rest - t: an empty t
            # merges x into prev, an empty r merges x into after
            behind = key[i + 1 :]
            high, after = (behind[1:], behind[0]) if behind else ((), 0)
            for x in _bits(run):
                rest = run ^ x
                if not rest:
                    yield (word ^ 1 << start, *low, prev | x | after, *high)
                    continue
                # t walks every subset of rest, from rest itself (r empty)
                # down to 0 (t empty)
                yield (word ^ 1 << (start + rest.bit_count()), *head, rest, x | after, *high)
                t = (rest - 1) & rest
                while t:
                    flipped = word ^ 1 << (start + t.bit_count())
                    yield (flipped, *head, t, x, rest ^ t, *behind)
                    t = (t - 1) & rest
                yield (word ^ 1 << start, *low, prev | x, rest, *behind)
        elif i < last:
            # pieces prev, P - x, y, x, Q - y, after for the runs P, Q: an
            # empty P - x merges y into prev, an empty Q - y merges x into
            # after
            nxt = key[i + 1]
            behind = key[i + 2 :]
            high, after = (behind[1:], behind[0]) if behind else ((), 0)
            swapped = word ^ 3 << (start + run.bit_count() - 1)
            for x in _bits(run):
                px = run ^ x
                for y in _bits(nxt):
                    qy = nxt ^ y
                    if px:
                        if qy:
                            yield (swapped, *head, px, y, x, qy, *behind)
                        else:
                            yield (swapped, *head, px, y, x | after, *high)
                    elif qy:
                        yield (swapped, *low, prev | y, x, qy, *behind)
                    else:
                        yield (swapped, *low, prev | y, x | after, *high)
        start += run.bit_count()


def _can_reach(word: int, floor: int) -> bool:
    """Whether a class of quantifier word ``word`` can reach another class
    of word ``floor``: no move out of a class raises a word or its popcount,
    and every such move lowers the word."""
    return word > floor and word.bit_count() >= floor.bit_count()


def _explore(
    root: tuple[int, ...], target: tuple[int, ...] | None = None
) -> tuple[bool, set[tuple[int, ...]]]:
    """BFS over class keys from ``root``; return ``(found, visited)``.

    Without a target, ``visited`` is every class reachable from the root,
    the root's own among them.  With one, the search stops when it meets
    the target, and expands only classes that can still reach a class of
    the target's word (``_can_reach``); every visited class is still
    compared with the target.  The root itself is never compared: callers
    pass a target only when it is not the root.
    """
    floor = None if target is None else target[0]
    visited = {root}
    queue = deque((root,))
    while queue:
        for nxt in _successors(queue.popleft()):
            if nxt not in visited:
                visited.add(nxt)
                if nxt == target:
                    return True, visited
                if floor is None or _can_reach(nxt[0], floor):
                    queue.append(nxt)
    return False, visited


def _check_cap(n: int, max_n: int) -> None:
    if n > max_n:
        raise InstanceTooLargeError(f"n={n} exceeds the oracle cap {max_n}")


def oracle_implies(s1: Prefix, s2: Prefix, max_n: int = ORACLE_CAP) -> bool:
    """Reference answer to the implication question, by exhaustive reachability.

    True iff some prefix equivalent to ``s2`` is reachable from ``s1`` via the
    move closure.  Exponential; guarded by ``max_n``.
    """
    ensure_same_universe(s1, s2)
    _check_cap(s1.n, max_n)
    root, target = _key(s1), _key(s2)
    if root == target:
        return True
    if not _can_reach(root[0], target[0]):
        return False
    found, _ = _explore(root, target)
    return found


def closure(p: Prefix, max_n: int = ORACLE_CAP) -> list[CanonicalClass]:
    """Every class reachable from ``p`` (its own included), sorted by text.

    Forward closure, i.e. all statements ``p`` makes necessary; the reverse
    direction is available through the census graph's transpose.
    """
    n = p.n
    _check_cap(n, max_n)
    names = p.names
    _, visited = _explore(_key(p))
    # Each class's canonical member lists each run's variables in ascending
    # order.  Classes share runs and words, so each run mask's variables and
    # each word's quantifier bytes are built once per call.
    runs: dict[int, tuple[int, ...]] = {}
    words: dict[int, bytes] = {}
    reps = []
    for word, *masks in visited:
        sigma = ()
        for m in masks:
            if m not in runs:
                runs[m] = tuple(x.bit_length() - 1 for x in _bits(m))
            sigma += runs[m]
        if word not in words:
            words[word] = bytes(word >> i & 1 for i in range(n))
        reps.append(_trusted(sigma, words[word], names))
    reps.sort(key=_text_key(names))
    return [CanonicalClass(r) for r in reps]
