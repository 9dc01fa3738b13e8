"""Quantifier-prefix data model: text grammar, runs, canonical form, equivalence.

A prefix over n variables is an ordered list ``sigma`` (a permutation of
``0..n-1`` giving the variable order) together with a quantifier string,
stored once as ``bits``: one byte per position, 0 for an existential and 1
for a universal, quantifying the variable at that position.  ``b`` is a tuple
view of ``Quantifier`` members over those bytes.  Variable indices are
tied to names through the ``names`` tuple: ``names[v]`` is the name of
variable index ``v``, and the parser assigns indices by ascending
lexicographic order of the names so that both sides of a pair share one
universe.
"""

from __future__ import annotations

import operator
import random
import string
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable

from .errors import (
    DuplicateVariableError,
    EmptyPrefixError,
    LengthMismatchError,
    PrefixSyntaxError,
    VariableSetMismatchError,
)

__all__ = [
    "Quantifier",
    "Prefix",
    "Run",
    "CanonicalClass",
    "parse_prefix",
    "parse_prefix_pair",
    "format_prefix",
    "runs",
    "canonicalize",
    "equivalent",
    "ensure_same_universe",
    "default_names",
    "random_prefix",
]

class Quantifier(IntEnum):
    """Quantifier tag; the encoding EXISTS=0 < FORALL=1 is load-bearing."""

    EXISTS = 0
    FORALL = 1

    @property
    def letter(self) -> str:
        return "A" if self else "E"


# Quantifier members by stored byte, and their letters.
_QUANTS = tuple(Quantifier)
_LETTERS = tuple(q.letter for q in Quantifier)

_QUANT_TOKENS = frozenset("AE∀∃")
# ASCII quantifier letters to stored bytes, every other byte to 2.
_LETTER_BITS = bytes({ord("A"): 1, ord("E"): 0}.get(c, 2) for c in range(256))
# Name characters to two classes: letters and "_" to "a", digits to "0".
_NAME_HEADS = (string.ascii_letters + "_").encode()
_NAME_CLASSES = bytes.maketrans(
    _NAME_HEADS + string.digits.encode(), b"a" * len(_NAME_HEADS) + b"0" * 10
)


def _valid_names(text: str) -> bool:
    """True iff every space-separated name in ``text`` (names joined by single
    spaces) matches ``[A-Za-z_][A-Za-z0-9_]*``."""
    if not text.isascii():
        return False
    classes = text.encode().translate(_NAME_CLASSES)
    return (
        not classes.translate(None, b"a0 ")
        and not classes.startswith(b"0")
        and b" 0" not in classes
    )


@dataclass(frozen=True, init=False, repr=False)
class Prefix:
    """Immutable raw prefix: variable order ``sigma``, quantifiers ``b``, ``names``.

    ``sigma`` must be a permutation of ``0..n-1`` with n >= 1; ``names`` must be
    distinct and nonempty.  Instances are hashable and safe to share.

    The quantifiers are stored once, in ``bits``: one byte per position, 0 for
    EXISTS and 1 for FORALL.  ``b`` is a tuple view of Quantifier members over
    those bytes, built on first access; the decider reads ``bits`` and never
    builds it.  The constructor takes ``b`` as 0/1 ``bytes``, which it stores
    as they are, or as Quantifier members or 0/1 ints, whose tuple of members
    it keeps as the view.

    Direct construction checks every one of these invariants.  The parsers
    build their results without repeating the checks, because parsing has
    already established each of them.
    """

    # Slots keep a prefix as small as the tuple-field layout was, bytes
    # included; ``_view`` holds ``b`` once it is built.
    __slots__ = ("sigma", "bits", "names", "_view", "__weakref__")
    __match_args__ = ("sigma", "b", "names")
    sigma: tuple[int, ...]
    bits: bytes
    names: tuple[str, ...]

    def __init__(
        self, sigma: Iterable[int], b: bytes | Iterable[int], names: Iterable[str]
    ) -> None:
        sigma = tuple(sigma)
        names = tuple(names)
        view = None
        if type(b) is not bytes or b.translate(None, b"\x00\x01"):
            view = tuple(b)
            if set(map(type, view)) - {Quantifier}:
                # ValueError for anything but 0 and 1
                view = tuple(map(Quantifier, view))
            b = bytes(view)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "bits", b)
        object.__setattr__(self, "names", names)
        if view is not None:  # already the view: keep it rather than build another
            object.__setattr__(self, "_view", view)
        n = len(sigma)
        if n == 0:
            raise EmptyPrefixError("a prefix must quantify at least one variable")
        if len(b) != n or len(names) != n:
            raise ValueError("sigma, b and names must have equal length")
        # operator.index rejects non-integers such as 0.5, which the count
        # and the bounds alone would let through.
        distinct = len(set(map(operator.index, sigma)))
        if distinct != n or min(sigma) < 0 or max(sigma) >= n:
            raise ValueError("sigma must be a permutation of 0..n-1")
        if not all(names) or len(set(names)) != n:
            raise ValueError("variable names must be nonempty and distinct")

    @property
    def b(self) -> tuple[Quantifier, ...]:
        """The quantifiers as Quantifier members: a tuple view over ``bits``."""
        try:
            return self._view
        except AttributeError:
            view = tuple(map(_QUANTS.__getitem__, self.bits))
            object.__setattr__(self, "_view", view)
            return view

    @property
    def n(self) -> int:
        return len(self.sigma)

    def __reduce__(self):
        # Rebuilt through the checking constructor: the frozen __setattr__
        # refuses pickle's default slot-by-slot restore.
        return Prefix, (self.sigma, self.bits, self.names)

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(sigma={self.sigma!r}, b={self.b!r}, "
            f"names={self.names!r})"
        )

    def __str__(self) -> str:
        return format_prefix(self)


@dataclass(frozen=True)
class Run:
    """Maximal contiguous block of same-quantifier positions."""

    start: int
    length: int
    quant: Quantifier


@dataclass(frozen=True)
class CanonicalClass:
    """Equivalence-class representative: ascending variable order in each run."""

    rep: Prefix

    @property
    def text(self) -> str:
        return format_prefix(self.rep)

    def __str__(self) -> str:
        return self.text


def runs(p: Prefix) -> tuple[Run, ...]:
    """Decompose ``p`` into its maximal constant-quantifier runs, in order."""
    out = []
    bits = p.bits
    n = len(bits)
    start = 0
    while start < n:
        q = bits[start]
        stop = bits.find(1 - q, start)  # the run ends at the other quantifier
        if stop < 0:
            stop = n
        out.append(Run(start, stop - start, _QUANTS[q]))
        start = stop
    return tuple(out)


def canonicalize(p: Prefix) -> CanonicalClass:
    """Canonical representative of ``p``'s class: sort sigma within each run.

    Idempotent; preserves ``b`` and the per-run multiset of variables.
    """
    sigma = list(p.sigma)
    for r in runs(p):
        stop = r.start + r.length
        sigma[r.start:stop] = sorted(sigma[r.start:stop])
    return CanonicalClass(Prefix(tuple(sigma), p.bits, p.names))


def ensure_same_universe(p1: Prefix, p2: Prefix) -> None:
    """Raise unless both prefixes quantify the same indexed variable universe.

    The one universe rule of every call on two prefixes: ``implies``, the
    oracle, ``equivalent`` and ``validate_witness``.  Prefixes that share one
    ``names`` tuple, as both sides of a parsed pair do, pass without a walk.
    """
    if p1.names is p2.names:
        return
    if p1.n != p2.n:
        raise LengthMismatchError(f"prefix lengths differ: {p1.n} != {p2.n}")
    if p1.names != p2.names:
        raise VariableSetMismatchError(
            "prefixes must share the same variable-name universe"
        )


def equivalent(p1: Prefix, p2: Prefix) -> bool:
    """True iff the prefixes are equal up to permutation within each run.

    Raises what :func:`ensure_same_universe` raises for two universes.
    """
    ensure_same_universe(p1, p2)
    return canonicalize(p1) == canonicalize(p2)


def format_prefix(p: Prefix) -> str:
    """Canonical ASCII text: 'A'/'E' and name tokens, single-space separated."""
    names = p.names
    return " ".join(f"{_LETTERS[q]} {names[v]}" for q, v in zip(p.bits, p.sigma))


def _split(text: str) -> tuple[list[str], list[str]]:
    """Split one prefix text into its quantifier tokens and its names.

    Grammar (whitespace-separated tokens)::

        prefix := (quant ident)+
        quant  := "A" | "E" | "∀" | "∃"
        ident  := [A-Za-z_][A-Za-z0-9_]*
    """
    tokens = text.split()
    if not tokens:
        raise EmptyPrefixError("empty prefix")
    if len(tokens) % 2:
        raise PrefixSyntaxError(
            f"dangling token {tokens[-1]!r}: expected quantifier-name pairs"
        )
    return tokens[::2], tokens[1::2]


def _quant_bits(quants: list[str]) -> bytes | None:
    """The quantifier tokens as stored bytes, or None if one is not a quantifier."""
    letters = "".join(quants).replace("∀", "A").replace("∃", "E")
    bits = letters.encode(errors="replace").translate(_LETTER_BITS)
    # Tokens are nonempty, so equal lengths mean one ASCII character per token.
    return bits if len(bits) == len(quants) and 2 not in bits else None


def _universe(text: str) -> tuple[Prefix, dict[str, int]]:
    """Parse one text into its prefix and the index map of its sorted names.

    The map doubles as the duplicate check, and one identifier check covers
    all the names; only a text that fails a check is walked pair by pair, to
    report its first fault.
    """
    quants, order = _split(text)
    bits = _quant_bits(quants)
    # Sorting the text order is linear on texts already in order.
    names = sorted(order)
    index = dict(zip(names, range(len(names))))
    if bits is None or len(index) != len(names) or not _valid_names(" ".join(names)):
        _raise_first_fault(quants, order)
    return _trusted(tuple(map(index.__getitem__, order)), bits, tuple(names)), index


def _raise_first_fault(quants: list[str], order: list[str]) -> None:
    """Raise the error that the first faulty (quantifier, name) pair earns."""
    seen = set()
    for quant_tok, name in zip(quants, order):
        if quant_tok not in _QUANT_TOKENS:
            raise PrefixSyntaxError(f"expected quantifier token, got {quant_tok!r}")
        if not _valid_names(name):
            raise PrefixSyntaxError(f"invalid variable name {name!r}")
        if name in seen:
            raise DuplicateVariableError(f"variable {name!r} quantified twice")
        seen.add(name)


def _trusted(sigma: tuple[int, ...], bits: bytes, names: tuple[str, ...]) -> Prefix:
    """A Prefix built without ``__init__``, for fields that the parser has
    proved valid: n >= 1, distinct valid names, ``bits`` of 0/1 bytes, and
    ``sigma`` a permutation of ``0..n-1``."""
    p = object.__new__(Prefix)
    object.__setattr__(p, "sigma", sigma)
    object.__setattr__(p, "bits", bits)
    object.__setattr__(p, "names", names)
    return p


def parse_prefix(text: str) -> Prefix:
    """Parse a single prefix; indices follow ascending lexicographic name order."""
    return _universe(text)[0]


def parse_prefix_pair(lhs_text: str, rhs_text: str) -> tuple[Prefix, Prefix]:
    """Parse two prefixes over one shared variable universe.

    Both texts must quantify exactly the same name set; indices 0..n-1 are
    assigned by ascending lexicographic byte order of the names and shared
    between the two results.  The right text is read through the left one's
    index map: an unknown name, a repeat or a missing name sends it to the
    fault walk, and a set mismatch is reported only if that finds no fault.
    """
    s1, index = _universe(lhs_text)
    quants, order = _split(rhs_text)
    bits = _quant_bits(quants)
    try:
        sigma = tuple(map(index.__getitem__, order))
    except KeyError:
        sigma = ()
    if bits is None or len(sigma) != s1.n or len(set(sigma)) != s1.n:
        _raise_first_fault(quants, order)
        raise VariableSetMismatchError(
            f"variable sets differ (lhs only: {sorted(index.keys() - order)}, "
            f"rhs only: {sorted(set(order) - index.keys())})"
        )
    return s1, _trusted(sigma, bits, s1.names)


def default_names(n: int) -> tuple[str, ...]:
    """x1..xn, zero-padded so lexicographic order matches index order."""
    width = len(str(n))
    return tuple(f"x{i:0{width}d}" for i in range(1, n + 1))


def random_prefix(
    n: int, rng: random.Random, names: tuple[str, ...] | None = None
) -> Prefix:
    """Uniform raw prefix: sigma via seeded shuffle, quantifier bits uniform.

    The generator contract is fixed (``rng.shuffle`` then one ``getrandbits(1)``
    per position) so seeded runs are replayable bit-for-bit.
    """
    if names is None:
        names = default_names(n)
    sigma = list(range(n))
    rng.shuffle(sigma)
    bits = bytes(rng.getrandbits(1) for _ in range(n))
    return Prefix(tuple(sigma), bits, names)
