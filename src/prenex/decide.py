"""Linear-time decision of prefix implication over a shared arbitrary matrix.

``implies(s1, s2)`` walks s2 from the back, checking at each position whether
the required variable can be brought there by the sound moves (same-run swap,
universal-to-existential flip, existential past universal).  Two situations
are fatal and produce a witnessed reject:

* case 5 - the variable is existential on the left but universal on the right;
* case 4 - both sides are universal but an unverified existential element
  still sits behind the variable on the left (tracked by the F pointer).

Every stage reads the quantifiers as ``Prefix.b``, one byte per position
(0 existential, 1 universal).  Every stage also tests the two cases as one
condition: with J the s1 position of the step variable and F the largest
existential s1 position not yet placed, a universal s2 step rejects when
F >= J.  That is case 4 when J is universal (F > J) and case 5 when J is
existential, since an unplaced existential J never lies above F.

``_core`` is the reference semantics: a position table for sigma1, then
``_scan``, a backward loop over s2 with a verified bitmap and an F pointer
that starts at s1's last existential and rescans downward only from its
previous value, so the whole decision is O(n).  It decides every pair below
``_SCATTER_THRESHOLD`` variables.  Its result, ``(case_id, i, f)``, is what
every stage returns.  Each outcome then has one rule: every accept is the
shared ``_ACCEPT``, and ``_reject`` builds every reject, for ``implies``,
``decide_with_stats`` and the text path below alike.

From that size up, ``_decide`` runs the scan's first step with no table:
it looks for the step's variable in s1's universal tail past F, and only a
reject then finds J, for its case, by one ``sigma1.index`` lookup.  So a
first-step reject never loads numpy.  Any other pair goes to ``_kernel``,
which returns ``_core``'s tuple from a few numpy passes over J, the s1
position of each s2 step (built by one scatter and one gather).  F before step i is the largest existential
position of s1 whose variable sits at an s2 index <= i, so F over all steps
is a prefix maximum; step i rejects when s2 is universal there and F >= J,
and the scan's first reject is the last such i.

The CLI's ``check`` and ``batch`` decide from text through
``_text_verdict``, on a pair read by ``prefix._text_pair`` with no name
sort: a dict from each left name to its text position is the scan's
position table and the right text's names are sigma2, the first large-n
step is one lookup in that dict, and J is the right names read through it.
Positions are all the decision needs; only a reject's ``variable`` is a
sorted-name index, counted from the left names.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

from .prefix import Prefix, Quantifier, _text_pair, ensure_same_universe

__all__ = [
    "Verdict",
    "RejectWitness",
    "DecideStats",
    "implies",
    "decide_with_stats",
    "validate_witness",
]


@dataclass(frozen=True)
class RejectWitness:
    """Why an implication fails: the rejecting case and where it fired.

    ``s2_position`` is the loop index i at rejection, ``variable`` is
    ``sigma2[i]``; ``blocking_f`` (case 4 only) is the F-pointer value, the
    position in s1 of the unverified existential element blocking the move.
    """

    case_id: int
    s2_position: int
    variable: int
    blocking_f: int | None = None


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    witness: RejectWitness | None = None


@dataclass(frozen=True)
class DecideStats:
    """Operation counts for one decision (used by ``prenex bench``).

    ``loop_steps`` is the scan steps taken, n on an accept and n - i on a
    reject at step i; ``rescan_steps`` is how far F moved down from its
    start value.
    """

    n: int
    loop_steps: int
    rescan_steps: int


# Below this size `_core` decides; from it up, the first-step probe, then
# `_kernel`.  Per call the kernel already wins from about 128 variables, but
# its first use imports numpy (over 100 ms), which a process deciding a few
# pairs under 256 variables never repays.
_SCATTER_THRESHOLD = 256


def _position_table(sigma: Sequence[int]) -> list[int]:
    """Flat table mapping variable index -> position, built in linear time."""
    pos = [0] * len(sigma)
    for j, v in enumerate(sigma):
        pos[v] = j
    return pos


def _f_start(b1: bytes) -> int:
    """F's first value: s1's largest existential position, -1 when s1 is
    all-universal (case 4 then never fires)."""
    return b1.rfind(0)


def _scan(
    pos: Sequence[int] | dict[str, int],
    b1: bytes,
    sigma2: Sequence[int] | Sequence[str],
    b2: bytes,
) -> tuple[int, int, int]:
    """The backward scan, given s1's position table.

    ``pos[sigma2[i]]`` is the s1 position of s2's step i: ``pos`` is a list
    over variable indices, or a dict over names with ``sigma2`` the names.
    """
    f = _f_start(b1)
    verified = bytearray(len(pos))
    i = len(sigma2) - 1
    while i >= 0:
        j = pos[sigma2[i]]
        # One test for both cases: F >= J is case 4 when J is universal and
        # case 5 when it is existential, as F is the largest existential
        # still unplaced and J, met once, is unplaced.
        if b2[i] and f >= j:
            return 4 if b1[j] else 5, i, f
        verified[j] = 1
        if j == f:
            # Monotone rescan: resume at the previous F, skip verified and
            # universal positions.  Total decrements over a call <= n.
            f -= 1
            while f >= 0 and (b1[f] or verified[f]):
                f -= 1
        i -= 1
    return 0, -1, f


def _core(
    sigma1: Sequence[int],
    b1: bytes,
    sigma2: Sequence[int],
    b2: bytes,
) -> tuple[int, int, int]:
    """Run the decision loop on integer-encoded inputs.

    Returns (case_id, i, f): case_id 0 accepts, with i = -1; 4 or 5 rejects
    at loop index i.  f is F's value at the end, -1 after an accept.
    ``b1``/``b2`` hold one byte per position, 0 (existential) or 1 (universal).
    """
    return _scan(_position_table(sigma1), b1, sigma2, b2)


def _kernel(J, b1: bytes, b2: bytes) -> tuple[int, int, int]:
    """``_core``'s result from whole-array numpy passes instead of the loop.

    ``J`` is an intp array holding, for each s2 step i, the s1 position of
    the variable there.
    """
    # Imported here, not at the top: numpy dominates `import prenex`, and
    # nothing but the large-n stages uses it.
    import numpy as np

    univ = np.frombuffer(b1, np.bool_)[J]
    f = np.maximum.accumulate(np.where(univ, -1, J))  # F before each step
    # F >= J covers case 5 too: F's max takes in step i's own J when it is
    # existential.
    bad = np.frombuffer(b2, np.bool_) & (f >= J)
    rejects = np.flatnonzero(bad)
    if not rejects.size:
        return 0, -1, -1
    i = int(rejects[-1])
    return 4 if univ[i] else 5, i, int(f[i])


def _decide(
    sigma1: Sequence[int],
    b1: bytes,
    sigma2: Sequence[int],
    b2: bytes,
) -> tuple[int, int, int]:
    """``_core``'s result, from the stage that decides fastest at this size."""
    n = len(sigma1)
    if n < _SCATTER_THRESHOLD:
        return _core(sigma1, b1, sigma2, b2)
    # The scan's first step, with no position table; F still has its start
    # value there.  J > F iff the variable is in s1's universal tail past F,
    # so only a reject looks J up, for its case.
    i = n - 1
    if b2[i]:
        f = _f_start(b1)
        if sigma2[i] not in sigma1[f + 1 :]:
            j = sigma1.index(sigma2[i])
            return 4 if b1[j] else 5, i, f
    import numpy as np

    pos = np.empty(n, np.intp)
    pos[np.fromiter(sigma1, np.intp, n)] = np.arange(n)
    return _kernel(pos[np.fromiter(sigma2, np.intp, n)], b1, b2)


def _decide_text(
    at: dict[str, int],
    b1: bytes,
    names2: list[str],
    b2: bytes,
) -> tuple[int, int, int]:
    """``_decide`` on a pair as read from text: ``at`` maps each left name to
    its text position, and ``names2`` is the right text's names in order."""
    n = len(names2)
    if n < _SCATTER_THRESHOLD:
        return _scan(at, b1, names2, b2)
    i = n - 1
    if b2[i]:
        j = at[names2[i]]
        f = _f_start(b1)
        if f >= j:
            return 4 if b1[j] else 5, i, f
    import numpy as np

    return _kernel(np.fromiter(map(at.__getitem__, names2), np.intp, n), b1, b2)


_ACCEPT = Verdict(True)  # frozen, so every accept can share it


def _reject(case_id: int, i: int, f: int, variable: int) -> Verdict:
    """A case-4 or case-5 reject at scan step i; F = f is its witness's
    ``blocking_f`` in case 4 only."""
    return Verdict(False, RejectWitness(case_id, i, variable, f if case_id == 4 else None))


def decide_with_stats(s1: Prefix, s2: Prefix) -> tuple[Verdict, DecideStats]:
    """Like :func:`implies`, also reporting the decision's operation counts.

    The counts come from the decision's ``(case_id, i, f)``: the scan takes
    n steps on an accept and n - i on a reject at step i, and F rescans from
    its start value down to f.
    """
    ensure_same_universe(s1, s2)
    case_id, i, f = _decide(s1.sigma, s1.b, s2.sigma, s2.b)
    n = s1.n
    stats = DecideStats(n, n - i if case_id else n, _f_start(s1.b) - f)
    return (_reject(case_id, i, f, s2.sigma[i]) if case_id else _ACCEPT), stats


def implies(s1: Prefix, s2: Prefix) -> Verdict:
    """Decide whether s1 implies s2 for every matrix; O(n) time.

    Accepts iff s2 is reachable from s1 by the sound moves; otherwise the
    verdict carries a case-4 or case-5 witness naming the rejecting position.
    Inputs are used as written (no canonicalization first).
    """
    ensure_same_universe(s1, s2)
    case_id, i, f = _decide(s1.sigma, s1.b, s2.sigma, s2.b)
    return _reject(case_id, i, f, s2.sigma[i]) if case_id else _ACCEPT


def _text_verdict(lhs_text: str, rhs_text: str) -> tuple[Verdict, str | None]:
    """``implies(*parse_prefix_pair(lhs_text, rhs_text))``, and the witnessed
    variable's name, decided in the left text's own order with no name sort.

    The text positions from ``_text_pair`` are all the decision needs.
    Only the witness's ``variable`` is a sorted-name index: it is the count
    of left names below the witnessed one, O(n) on rejects only.
    """
    b1, at, names2, b2 = _text_pair(lhs_text, rhs_text)
    case_id, i, f = _decide_text(at, b1, names2, b2)
    if case_id == 0:
        return _ACCEPT, None
    name = names2[i]
    return _reject(case_id, i, f, sum(map(operator.lt, at, repeat(name)))), name


def validate_witness(s1: Prefix, s2: Prefix, verdict: Verdict) -> bool:
    """Re-check a reject witness directly against the inputs.

    Confirms the witnessed variable really sits at ``s2_position``, and that
    the case conditions hold: case 5 needs an existential left quantifier and
    a universal right one; case 4 needs universal quantifiers on both sides
    and an existential position ``blocking_f`` behind the variable in s1.
    Every field must be an ``int`` (``blocking_f`` may be None), and a
    ``bool`` does not count: a witness holding 2.0, "2" or True witnesses
    nothing.  Raises what :func:`implies` raises for a pair over two
    universes.
    """
    ensure_same_universe(s1, s2)
    w = verdict.witness
    if verdict.accepted or w is None:
        return False
    i, f = w.s2_position, w.blocking_f
    fields = (w.case_id, i, w.variable) if f is None else (w.case_id, i, w.variable, f)
    if any(type(x) is not int for x in fields):
        return False
    if not 0 <= i < s2.n or s2.sigma[i] != w.variable:
        return False
    j = s1.sigma.index(w.variable)
    if w.case_id == 5:
        return s1.b[j] == Quantifier.EXISTS and s2.b[i] == Quantifier.FORALL and f is None
    if w.case_id == 4:
        return (
            s1.b[j] == s2.b[i] == Quantifier.FORALL
            and f is not None
            and j < f < s1.n
            and s1.b[f] == Quantifier.EXISTS
        )
    return False
