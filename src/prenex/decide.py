"""Linear-time decision of prefix implication over a shared arbitrary matrix.

``implies(s1, s2)`` walks s2 from the back, checking at each position whether
the required variable can be brought there by the sound moves (same-run swap,
universal-to-existential flip, existential past universal).  Two situations
are fatal and produce a witnessed reject:

* case 5 - the variable is existential on the left but universal on the right;
* case 4 - both sides are universal but an unverified existential element
  still sits behind the variable on the left (tracked by the F pointer).

Every stage reads the quantifiers as ``Prefix.bits``, one byte per position
(0 existential, 1 universal), and never builds the ``b`` tuple view.
``_core`` is the reference semantics: a position table for sigma1, the F
start (s1's last existential), then ``_scan``, a backward loop over s2 with
a verified bitmap and an F pointer that rescans downward only from its
previous value, so the whole decision is O(n).  It decides every pair below
``_SCATTER_THRESHOLD`` variables.  Its result, ``(case_id, i, f)``, is what
every stage returns, and ``decide_with_stats`` alone turns it into a
``Verdict`` and ``DecideStats``.

From that size up, ``_decide`` runs the scan's first step with one
``sigma1.index`` lookup and no table, so a first-step reject never loads
numpy.  Any other pair goes to ``_kernel``, which returns ``_core``'s tuple
from a few numpy passes.  F before step i is the largest existential
position of s1 whose variable sits at an s2 index <= i, so F over all steps
is a prefix maximum; step i rejects when s2 is universal there and s1 is
existential (case 5) or F lies behind the variable (case 4), and the scan's
first reject is the last such i.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .prefix import Prefix, Quantifier, ensure_same_universe

__all__ = [
    "Verdict",
    "RejectWitness",
    "DecideStats",
    "implies",
    "decide_with_stats",
    "raw_implies",
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
    """Operation counts for one decision (used by the scaling benchmark)."""

    n: int
    loop_steps: int
    rescan_steps: int


# Below this size `_core` decides; from it up, the first-step lookup, then
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
    pos: Sequence[int],
    b1: bytes,
    sigma2: Sequence[int],
    b2: bytes,
    f: int,
) -> tuple[int, int, int]:
    """The backward scan, given s1's position table and F's first value."""
    verified = bytearray(len(pos))
    i = len(sigma2) - 1
    while i >= 0:
        j = pos[sigma2[i]]
        if b2[i]:
            if not b1[j]:
                return 5, i, f
            if f > j:
                return 4, i, f
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
    return _scan(_position_table(sigma1), b1, sigma2, b2, _f_start(b1))


def _kernel(
    sigma1: Sequence[int],
    b1: bytes,
    sigma2: Sequence[int],
    b2: bytes,
) -> tuple[int, int, int]:
    """``_core``'s result from whole-array numpy passes instead of the loop."""
    # Imported here, not at the top: numpy dominates `import prenex`, and
    # nothing but this kernel uses it.
    import numpy as np

    n = len(sigma1)
    pos = np.empty(n, np.intp)
    pos[np.fromiter(sigma1, np.intp, n)] = np.arange(n)
    j = pos[np.fromiter(sigma2, np.intp, n)]  # s1 position of each s2 step
    univ = np.frombuffer(b1, np.bool_)[j]
    f = np.maximum.accumulate(np.where(univ, -1, j))  # F before each step
    bad = np.frombuffer(b2, np.bool_) & (~univ | (f > j))
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
    if len(sigma1) < _SCATTER_THRESHOLD:
        return _core(sigma1, b1, sigma2, b2)
    # The scan's first step, by one streaming lookup instead of the position
    # table; F still has its start value there.
    i = len(sigma2) - 1
    if b2[i]:
        j = sigma1.index(sigma2[i])
        f = _f_start(b1)
        if not b1[j] or f > j:
            return 4 if b1[j] else 5, i, f
    return _kernel(sigma1, b1, sigma2, b2)


def decide_with_stats(s1: Prefix, s2: Prefix) -> tuple[Verdict, DecideStats]:
    """Like :func:`implies`, also reporting instrumented operation counts."""
    ensure_same_universe(s1, s2)
    n = s1.n
    case_id, i, f = _decide(s1.sigma, s1.bits, s2.sigma, s2.bits)
    stats = DecideStats(
        n=n,
        loop_steps=n - i if case_id else n,
        rescan_steps=_f_start(s1.bits) - f,
    )
    if case_id == 0:
        return Verdict(True), stats
    witness = RejectWitness(case_id, i, s2.sigma[i], f if case_id == 4 else None)
    return Verdict(False, witness), stats


def implies(s1: Prefix, s2: Prefix) -> Verdict:
    """Decide whether s1 implies s2 for every matrix; O(n) time.

    Accepts iff s2 is reachable from s1 by the sound moves; otherwise the
    verdict carries a case-4 or case-5 witness naming the rejecting position.
    Inputs are used as written (no canonicalization first).
    """
    verdict, _ = decide_with_stats(s1, s2)
    return verdict


def raw_implies(
    sigma1: Sequence[int],
    b1: Sequence[int],
    sigma2: Sequence[int],
    b2: Sequence[int],
) -> bool:
    """``implies(...).accepted`` on integer-encoded inputs, with no ``Prefix``
    and no validation: the sigmas must be permutations of one ``0..n-1``.

    ``b1``/``b2`` may be 0/1 ``bytes``, used as they are, or any sequence
    of 0/1 ints or Quantifier members.
    """
    return _decide(sigma1, bytes(b1), sigma2, bytes(b2))[0] == 0


def validate_witness(s1: Prefix, s2: Prefix, verdict: Verdict) -> bool:
    """Re-check a reject witness directly against the inputs.

    Confirms the witnessed variable really sits at ``s2_position``, and that
    the case conditions hold: case 5 needs an existential left quantifier and
    a universal right one; case 4 needs universal quantifiers on both sides
    and an existential position ``blocking_f`` behind the variable in s1.
    Raises what :func:`implies` raises for a pair over two universes.
    """
    ensure_same_universe(s1, s2)
    w = verdict.witness
    if verdict.accepted or w is None:
        return False
    if not 0 <= w.s2_position < s2.n or s2.sigma[w.s2_position] != w.variable:
        return False
    try:
        j = s1.sigma.index(w.variable)
    except ValueError:
        return False
    q1 = s1.bits[j]
    q2 = s2.bits[w.s2_position]
    if w.case_id == 5:
        return q1 == Quantifier.EXISTS and q2 == Quantifier.FORALL and w.blocking_f is None
    if w.case_id == 4:
        return (
            q1 == Quantifier.FORALL
            and q2 == Quantifier.FORALL
            and w.blocking_f is not None
            and j < w.blocking_f < s1.n
            and s1.bits[w.blocking_f] == Quantifier.EXISTS
        )
    return False
