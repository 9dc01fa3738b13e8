"""Quantifier-prefix data model: text grammar, runs, canonical form, equivalence.

A prefix over n variables is an ordered list ``sigma`` (a permutation of
``0..n-1`` giving the variable order) together with a quantifier string,
stored as the ``bytes`` ``b``: one byte per position, 0 for an existential
and 1 for a universal, quantifying the variable at that position.  Variable
indices are tied to names through the ``names`` tuple: ``names[v]`` is the
name of variable index ``v``, and the parser assigns indices by ascending
lexicographic order of the names so that both sides of a pair share one
universe.  ``_text_pair`` reads a pair for the CLI's ``check`` and ``batch``
instead: the left text's names in their own order, with no sort, and the
errors the pair parser raises.
"""

from __future__ import annotations

import operator
import random
import string
from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, Iterable, NoReturn

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


@dataclass(frozen=True, init=False)
class Prefix:
    """Immutable raw prefix: variable order ``sigma``, quantifiers ``b``, ``names``.

    ``sigma`` must be a permutation of ``0..n-1`` with n >= 1; ``names`` must be
    distinct and nonempty.  ``b`` holds the quantifiers as ``bytes``, one byte
    per position, 0 for EXISTS and 1 for FORALL.  The constructor takes ``b``
    as 0/1 ``bytes``, which it stores as they are, or as Quantifier members or
    0/1 ints, which it stores as bytes.  Instances are hashable and safe to
    share.

    Direct construction checks every one of these invariants.  The parsers
    build their results without repeating the checks, because parsing has
    already established each of them.
    """

    # Slots keep a prefix to its three fields, with no per-instance dict.
    __slots__ = ("sigma", "b", "names", "__weakref__")
    sigma: tuple[int, ...]
    b: bytes
    names: tuple[str, ...]

    def __init__(
        self, sigma: Iterable[int], b: bytes | Iterable[int], names: Iterable[str]
    ) -> None:
        sigma = tuple(sigma)
        names = tuple(names)
        if type(b) is not bytes or b.translate(None, b"\x00\x01"):
            # TypeError for a non-integer item (as for sigma), ValueError for
            # an integer other than 0 and 1
            b = bytes(map(Quantifier, map(operator.index, b)))
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "names", names)
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
    def n(self) -> int:
        return len(self.sigma)

    def __reduce__(self):
        # Rebuilt through the checking constructor: the frozen __setattr__
        # refuses pickle's default slot-by-slot restore.
        return Prefix, (self.sigma, self.b, self.names)

    def __str__(self) -> str:
        return format_prefix(self)


def _bits_of(bits: bytes) -> int:
    """Quantifier bytes as an int, bit i set when position i is universal."""
    return sum(q << i for i, q in enumerate(bits))


@dataclass(frozen=True)
class Run:
    """Maximal contiguous block of same-quantifier positions."""

    start: int
    length: int
    quant: Quantifier


@dataclass(frozen=True)
class CanonicalClass:
    """Equivalence-class representative: ascending variable order in each run."""

    # Slots keep a class to its one field, with no per-instance dict.
    __slots__ = ("rep", "__weakref__")
    rep: Prefix

    def __reduce__(self):
        # Rebuilt through the constructor: the frozen __setattr__ refuses
        # pickle's default slot-by-slot restore.
        return CanonicalClass, (self.rep,)

    @property
    def text(self) -> str:
        return format_prefix(self.rep)

    def __str__(self) -> str:
        return self.text


def runs(p: Prefix) -> tuple[Run, ...]:
    """Decompose ``p`` into its maximal constant-quantifier runs, in order."""
    out = []
    b = p.b
    n = len(b)
    start = 0
    while start < n:
        q = b[start]
        stop = b.find(1 - q, start)  # the run ends at the other quantifier
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
    return CanonicalClass(Prefix(tuple(sigma), p.b, p.names))


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
    return " ".join([f"{_LETTERS[q]} {names[v]}" for q, v in zip(p.b, p.sigma)])


def _text_key(names: tuple[str, ...]) -> Callable[[Prefix], str]:
    """``format_prefix`` for prefixes over ``names``, joined from one token
    table built once: ``tokens[q][v]`` is quantifier q's letter and variable
    v's name.  For sorting many prefixes by their text."""
    tokens = tuple([f"{letter} {x}" for x in names] for letter in _LETTERS)
    return lambda p: " ".join([tokens[q][v] for q, v in zip(p.b, p.sigma)])


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


def _read(text: str, sort: bool) -> tuple[list[str], bytes, list[str], dict[str, int]]:
    """Read one text into ``(order, bits, names, index)``: its names in text
    order, its quantifier bytes, its names sorted (or in text order when
    ``sort`` is false), and the map from each name to its place in ``names``.

    The map doubles as the duplicate check, and one identifier check covers
    all the names; only a text that fails a check is walked pair by pair, to
    report its first fault.
    """
    quants, order = _split(text)
    bits = _quant_bits(quants)
    # Sorting the text order is linear on texts already in order.
    names = sorted(order) if sort else order
    index = dict(zip(names, range(len(names))))
    if bits is None or len(index) != len(names) or not _valid_names(" ".join(names)):
        _raise_first_fault(quants, order)
    return order, bits, names, index


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


def _raise_unmatched(
    index: dict[str, int], quants: list[str], order: list[str]
) -> NoReturn:
    """Raise the error of a right text that does not match the left names,
    the keys of ``index``: its first faulty pair's, else the set mismatch."""
    _raise_first_fault(quants, order)
    raise VariableSetMismatchError(
        f"variable sets differ (lhs only: {sorted(index.keys() - order)}, "
        f"rhs only: {sorted(set(order) - index.keys())})"
    )


def _trusted(sigma: tuple[int, ...], b: bytes, names: tuple[str, ...]) -> Prefix:
    """A Prefix built without ``__init__``, for fields that the parser has
    proved valid: n >= 1, distinct valid names, ``b`` of 0/1 bytes, and
    ``sigma`` a permutation of ``0..n-1``."""
    p = object.__new__(Prefix)
    object.__setattr__(p, "sigma", sigma)
    object.__setattr__(p, "b", b)
    object.__setattr__(p, "names", names)
    return p


def parse_prefix(text: str) -> Prefix:
    """Parse a single prefix; indices follow ascending lexicographic name order."""
    order, bits, names, index = _read(text, sort=True)
    return _trusted(tuple(map(index.__getitem__, order)), bits, tuple(names))


def parse_prefix_pair(lhs_text: str, rhs_text: str) -> tuple[Prefix, Prefix]:
    """Parse two prefixes over one shared variable universe.

    Both texts must quantify exactly the same name set; indices 0..n-1 are
    assigned by ascending lexicographic byte order of the names and shared
    between the two results.  The right text is read through the left one's
    index map: an unknown name, a repeat or a missing name sends it to the
    fault walk, and a set mismatch is reported only if that finds no fault.
    """
    order, b1, names, index = _read(lhs_text, sort=True)
    s1 = _trusted(tuple(map(index.__getitem__, order)), b1, tuple(names))
    quants, order = _split(rhs_text)
    bits = _quant_bits(quants)
    try:
        sigma = tuple(map(index.__getitem__, order))
    except KeyError:
        sigma = ()
    if bits is None or len(sigma) != s1.n or len(set(sigma)) != s1.n:
        _raise_unmatched(index, quants, order)
    return s1, _trusted(sigma, bits, s1.names)


def _text_pair(
    lhs_text: str, rhs_text: str
) -> tuple[bytes, dict[str, int], list[str], bytes]:
    """Read a pair in the left text's own order, with no name sort, raising
    what :func:`parse_prefix_pair` raises.

    Returns ``(b1, at, names2, b2)``: the left quantifier bytes, a dict from
    each left name to its text position, in text order, and the right
    text's names and quantifier bytes.
    """
    _, b1, _, at = _read(lhs_text, sort=False)
    quants, names2 = _split(rhs_text)
    b2 = _quant_bits(quants)
    # n right names that hold every left name are a permutation of them
    if b2 is None or len(names2) != len(at) or at.keys() - names2:
        _raise_unmatched(at, quants, names2)
    return b1, at, names2, b2


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
