"""Command-line surface.

Exit codes are a stable scripting contract: 0 accept/true, 1 reject/false,
2 usage, parse or I/O error, 3 size cap exceeded.  Data goes to stdout,
diagnostics to stderr, never interleaved.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import json
import random
import statistics
import sys
import time
from array import array
from dataclasses import asdict

from .census import CLASS_CAP, PAIR_CAP, build_graph, count_pairs, export_graph
from .decide import Verdict, _text_verdict, decide_with_stats, implies
from .errors import InstanceTooLargeError, PrefixError
from .oracle import ORACLE_CAP, closure, oracle_implies
from .prefix import (
    canonicalize,
    default_names,
    equivalent,
    parse_prefix,
    parse_prefix_pair,
    random_prefix,
)

__all__ = ["main", "build_parser", "run_bench"]


def _verdict_doc(verdict: Verdict) -> dict:
    w = verdict.witness
    if w is not None:  # asdict deep-copies, about 20x slower
        w = {
            "case_id": w.case_id,
            "s2_position": w.s2_position,
            "variable": w.variable,
            "blocking_f": w.blocking_f,
        }
    return {"verdict": "accept" if verdict.accepted else "reject", "witness": w}


def _emit(args: argparse.Namespace, doc: dict, lines: list[str], code: int = 0) -> int:
    """Print ``doc`` as one JSON line under --json, else the text lines."""
    if args.json:
        print(json.dumps(doc))
    else:
        for line in lines:
            print(line)
    return code


def _cmd_check(args: argparse.Namespace) -> int:
    verdict, name = _text_verdict(args.lhs, args.rhs)
    w = verdict.witness
    line = "accept"
    if w is not None:
        detail = f"case {w.case_id} at position {w.s2_position}: variable {name}"
        if w.blocking_f is not None:
            detail += f", blocked by existential at {w.blocking_f} in lhs"
        line = f"reject ({detail})"
    return _emit(args, _verdict_doc(verdict), [line], 0 if verdict.accepted else 1)


def _cmd_batch(args: argparse.Namespace) -> int:
    # Bytes in, so that a line of invalid UTF-8 fails as its own record.
    if args.path == "-":
        source = contextlib.nullcontext(sys.stdin.buffer)
    else:
        source = open(args.path, "rb")
    all_ok = True
    with source as stream:
        for line in stream:
            try:
                record = json.loads(line.decode("utf-8"))
                lhs, rhs = record["lhs"], record["rhs"]
                if not isinstance(lhs, str) or not isinstance(rhs, str):
                    raise TypeError("lhs and rhs must be strings")
                verdict, _ = _text_verdict(lhs, rhs)
                print(json.dumps(_verdict_doc(verdict)))
                all_ok = all_ok and verdict.accepted
            # ValueError covers bad JSON and bad UTF-8; RecursionError deep nesting.
            except (ValueError, RecursionError, KeyError, TypeError, PrefixError) as exc:
                print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}))
                all_ok = False
    return 0 if all_ok else 1


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    s1, s2 = parse_prefix_pair(args.lhs, args.rhs)
    answer = oracle_implies(s1, s2, max_n=args.max_n)
    lines = ["true" if answer else "false"]
    return _emit(args, {"implies": answer}, lines, 0 if answer else 1)


def _cmd_canon(args: argparse.Namespace) -> int:
    text = canonicalize(parse_prefix(args.prefix)).text
    return _emit(args, {"canonical": text}, [text])


def _cmd_equiv(args: argparse.Namespace) -> int:
    s1, s2 = parse_prefix_pair(args.lhs, args.rhs)
    answer = equivalent(s1, s2)
    lines = ["equivalent" if answer else "not equivalent"]
    return _emit(args, {"equivalent": answer}, lines, 0 if answer else 1)


def _cmd_closure(args: argparse.Namespace) -> int:
    texts = [cls.text for cls in closure(parse_prefix(args.prefix), max_n=args.max_n)]
    return _emit(args, {"count": len(texts), "classes": texts}, texts)


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _cmd_graph(args: argparse.Namespace) -> int:
    if args.n < 1:
        return _usage_error("--n must be >= 1")
    data = export_graph(build_graph(args.n, cap=args.max_n), args.format)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    return 0


def _cmd_census(args: argparse.Namespace) -> int:
    if args.n < 1:
        return _usage_error("--n must be >= 1")
    report = count_pairs(args.n, cap=args.max_n)
    doc = asdict(report) | {"probability": str(report.probability)}
    lines = [f"{key} {value}" for key, value in doc.items() if key != "n"]
    return _emit(args, doc, lines)


def run_bench(sizes: list[int], seed: int, reps: int) -> list[dict]:
    """Time the decider on seeded random pairs; one row per size.

    Each size draws its pair from its own RNG derived from (seed, n), so a
    row's inputs do not depend on which other sizes were requested.  Timing
    lives in a separate sub-object so consumers can strip it and compare
    the reproducible fields bytewise.
    """
    rows = []
    for n in sizes:
        rng = random.Random(seed * 1_000_003 + n)
        names = default_names(n)
        s1 = random_prefix(n, rng, names)
        s2 = random_prefix(n, rng, names)
        digest = hashlib.sha256()
        for p in (s1, s2):
            digest.update(array("q", p.sigma).tobytes())
            digest.update(p.b)
        verdict, stats = decide_with_stats(s1, s2)
        times = []
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(reps):
                start = time.perf_counter()
                implies(s1, s2)
                times.append(time.perf_counter() - start)
        finally:
            if gc_was_enabled:
                gc.enable()
        rows.append(
            {
                "n": n,
                "checksum": digest.hexdigest()[:16],
                "accepted": verdict.accepted,
                "loop_steps": stats.loop_steps,
                "rescan_steps": stats.rescan_steps,
                "ops_per_element": round(
                    (stats.loop_steps + stats.rescan_steps) / n, 6
                ),
                "timing": {"median_s": statistics.median(times), "times_s": times},
            }
        )
    return rows


def _cmd_bench(args: argparse.Namespace) -> int:
    sizes = args.sizes
    if not sizes or any(b <= a for a, b in zip(sizes, sizes[1:])) or sizes[0] < 1:
        return _usage_error("--sizes must be strictly increasing and >= 1")
    if args.reps < 1:
        return _usage_error("--reps must be >= 1")
    rows = run_bench(sizes, args.seed, args.reps)
    lines = [f"{'n':>9}  {'median_s':>10}  {'ops/elt':>8}  {'rescan':>9}  checksum"]
    lines += [
        f"{row['n']:>9}  {row['timing']['median_s']:>10.6f}  "
        f"{row['ops_per_element']:>8.3f}  {row['rescan_steps']:>9}  {row['checksum']}"
        for row in rows
    ]
    return _emit(args, {"seed": args.seed, "reps": args.reps, "rows": rows}, lines)


def _sizes_arg(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad sizes list {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prenex",
        description="Decide implication between quantifier prefixes over a "
        "shared arbitrary matrix.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def pair_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--lhs", required=True, help="left prefix text")
        p.add_argument("--rhs", required=True, help="right prefix text")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("check", help="decide lhs => rhs with the linear decider")
    pair_flags(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("batch", help="decide JSONL records {lhs, rhs} from a file")
    p.add_argument("path", help="input path, or - for stdin")
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser("oracle-check", help="decide lhs => rhs by brute-force BFS")
    pair_flags(p)
    p.add_argument("--max-n", type=int, default=ORACLE_CAP, help="oracle size cap")
    p.set_defaults(func=_cmd_oracle_check)

    p = sub.add_parser("canon", help="print the canonical class representative")
    p.add_argument("prefix", help="prefix text")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_canon)

    p = sub.add_parser("equiv", help="test equivalence of two prefixes")
    pair_flags(p)
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("closure", help="list every class implied by a prefix")
    p.add_argument("prefix", help="prefix text")
    p.add_argument("--max-n", type=int, default=ORACLE_CAP, help="oracle size cap")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("graph", help="export the class implication graph")
    p.add_argument("--n", type=int, required=True, help="variable count")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--max-n", type=int, default=CLASS_CAP, help="enumeration cap")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("census", help="classes, edges and exact implication count")
    p.add_argument("--n", type=int, required=True, help="variable count")
    p.add_argument("--json", action="store_true")
    p.add_argument("--max-n", type=int, default=PAIR_CAP, help="pair-count cap")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("bench", help="time the decider on seeded random pairs")
    p.add_argument(
        "--sizes",
        type=_sizes_arg,
        default=[100_000, 200_000, 400_000, 800_000, 1_600_000],
        help="comma-separated strictly increasing prefix lengths",
    )
    p.add_argument("--seed", type=int, default=1, help="generation seed")
    p.add_argument("--reps", type=int, default=3, help="timed repetitions per size")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_bench)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process for ``main``, which only reads it: building
    the ten subcommands costs about 1 ms, a sixth of a 100-record batch."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except InstanceTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (PrefixError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
