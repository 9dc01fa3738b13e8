"""The host's speed, from a fixed pure-Python reference loop.

On a shared virtual machine the speed of the same Python code moves between
levels up to 1.6x apart, and a level can hold for a whole run.  So every
time the end-to-end metrics report is taken with the reference loop timed
right before and right after it, and is scaled to the host speed at which
the loop takes ``REF_NS``:

    scaled = measured * REF_NS / mean(loop before, loop after)

The loop does the kind of work that dominates a prefix parse (split a text,
match names, box quantifiers in an ``IntEnum``, build a set, a dict and
tuples), so a slow spell of the host slows it about as much as it slows the
program; a loop of bare arithmetic tracks the program far less well.  It
calls nothing from ``prenex``, so a change to the program moves the scaled
times exactly as it moves the measured ones; only the host's speed cancels.
"""

from __future__ import annotations

import re
from enum import IntEnum
from time import perf_counter_ns

LOOP_REPEATS = 2
# About the loop's time on the 2-vCPU machine the benchmark was built on
# while that machine was quiet (Python 3.11); scaled times read as that
# machine's times then.
REF_NS = 200_000.0


class _Quant(IntEnum):
    EXISTS = 0
    FORALL = 1


_NAME = re.compile(r"[a-z][a-z0-9]*\Z")
_QUANT = {"A": 1, "E": 0}
_TEXT = " ".join(f"{'AE'[i % 3 == 0]} v{i * 7919 % 120}" for i in range(120))


def _loop() -> tuple:
    tokens = _TEXT.split()
    seen, names, quants = set(), [], []
    for k in range(0, len(tokens), 2):
        name = tokens[k + 1]
        if not _NAME.match(name):
            raise ValueError(name)
        seen.add(name)
        names.append(name)
        quants.append(_Quant(_QUANT[tokens[k]]))
    index = {name: i for i, name in enumerate(sorted(seen))}
    return tuple(index[name] for name in names), tuple(quants)


def reference_ns() -> int:
    """The reference loop's best time over ``LOOP_REPEATS`` runs, in ns."""
    best = None
    for _ in range(LOOP_REPEATS):
        t0 = perf_counter_ns()
        _loop()
        ns = perf_counter_ns() - t0
        best = ns if best is None or ns < best else best
    return best


def scale(ns: float, before: float, after: float) -> float:
    """``ns`` measured between reference timings ``before`` and ``after``,
    scaled to the host speed at which the loop takes ``REF_NS``."""
    return ns * 2 * REF_NS / (before + after)
