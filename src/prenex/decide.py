"""Linear-time decision of prefix implication over a shared arbitrary matrix.

``implies(s1, s2)`` walks s2 from the back, checking at each position whether
the required variable can be brought there by the sound moves (same-run swap,
universal-to-existential flip, existential past universal).  Two situations
are fatal and produce a witnessed reject:

* case 5 - the variable is existential on the left but universal on the right;
* case 4 - both sides are universal but an unverified existential element
  still sits behind the variable on the left (tracked by the F pointer).

Everything else is bookkeeping: a position table for sigma1, a verified
bitmap, and the F pointer, which rescans downward only from its previous
value, so the whole decision is O(n).
"""

from __future__ import annotations

from array import array
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


# Above this size the position table is built by a vectorized scatter, which
# is both faster and far less cache-hostile than a Python store loop.
_SCATTER_THRESHOLD = 256


def _position_table(sigma: Sequence[int]):
    """Flat table mapping variable index -> position, built in linear time."""
    n = len(sigma)
    if n < _SCATTER_THRESHOLD:
        pos = [0] * n
        for j, v in enumerate(sigma):
            pos[v] = j
        return pos
    # Imported here, not at the top: numpy dominates `import prenex`, and
    # nothing but this branch uses it.
    import numpy as np

    values = np.frombuffer(array("q", sigma), dtype=np.int64)
    inverse = np.empty(n, dtype=np.int32)
    inverse[values] = np.arange(n, dtype=np.int32)
    return array("i", inverse.tobytes())


def _core(
    sigma1: Sequence[int],
    b1: Sequence[int],
    sigma2: Sequence[int],
    b2: Sequence[int],
) -> tuple[bool, int, int, int, int, int]:
    """Run the decision loop on integer-encoded inputs.

    Returns (accepted, case_id, reject_i, blocking_f, f_initial, f_final).
    ``b1``/``b2`` entries must be 0 (existential) or 1 (universal).
    """
    n = len(sigma1)
    pos = _position_table(sigma1)
    # F: largest existential index in s1, found by scanning from the back;
    # -1 sentinel when s1 is all-universal (case 4 then never fires).
    f = n - 1
    while f >= 0 and b1[f]:
        f -= 1
    f_initial = f
    verified = bytearray(n)
    i = n - 1
    while i >= 0:
        j = pos[sigma2[i]]
        if b2[i]:
            if not b1[j]:
                return False, 5, i, f, f_initial, f
            if f > j:
                return False, 4, i, f, f_initial, f
        verified[j] = 1
        if j == f:
            # Monotone rescan: resume at the previous F, skip verified and
            # universal positions.  Total decrements over a call <= n.
            f -= 1
            while f >= 0 and (b1[f] or verified[f]):
                f -= 1
        i -= 1
    return True, 0, -1, -1, f_initial, f


def decide_with_stats(s1: Prefix, s2: Prefix) -> tuple[Verdict, DecideStats]:
    """Like :func:`implies`, also reporting instrumented operation counts."""
    ensure_same_universe(s1, s2)
    n = s1.n
    accepted, case_id, i, blocking_f, f_initial, f_final = _core(
        s1.sigma, s1.b, s2.sigma, s2.b
    )
    stats = DecideStats(
        n=n,
        loop_steps=n if accepted else n - i,
        rescan_steps=f_initial - f_final,
    )
    if accepted:
        return Verdict(True), stats
    if case_id == 5:
        witness = RejectWitness(5, i, s2.sigma[i])
    else:
        witness = RejectWitness(4, i, s2.sigma[i], blocking_f=blocking_f)
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
    """Low-level entry for bulk sweeps: integer-encoded inputs, no validation."""
    return _core(sigma1, b1, sigma2, b2)[0]


def validate_witness(s1: Prefix, s2: Prefix, verdict: Verdict) -> bool:
    """Re-check a reject witness directly against the inputs.

    Confirms the witnessed variable really sits at ``s2_position``, and that
    the case conditions hold: case 5 needs an existential left quantifier and
    a universal right one; case 4 needs universal quantifiers on both sides
    and an existential position ``blocking_f`` behind the variable in s1.
    """
    w = verdict.witness
    if verdict.accepted or w is None:
        return False
    if not 0 <= w.s2_position < s2.n or s2.sigma[w.s2_position] != w.variable:
        return False
    try:
        j = s1.sigma.index(w.variable)
    except ValueError:
        return False
    q1 = s1.b[j]
    q2 = s2.b[w.s2_position]
    if w.case_id == 5:
        return q1 is Quantifier.EXISTS and q2 is Quantifier.FORALL and w.blocking_f is None
    if w.case_id == 4:
        return (
            q1 is Quantifier.FORALL
            and q2 is Quantifier.FORALL
            and w.blocking_f is not None
            and w.blocking_f > j
            and s1.b[w.blocking_f] is Quantifier.EXISTS
        )
    return False
