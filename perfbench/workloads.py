"""The four workloads: their inputs and one pass over them.

Every call into the program goes through its public functions.  An
untraced pass is what the end-to-end metrics time.  It times each request
once and ``implies`` alone (by :func:`timed`) on pairs it has just parsed,
each between two timings of the host's reference loop (:mod:`.host`), and
calls ``after()`` once after each of its ``size`` requests.  A run makes
several passes and keeps each request's best time, so that every kind of
sample is spread over the whole run rather than taken in one burst: on a
shared machine the speed of one call drifts by tens of percent from one
second to the next.

A traced pass runs each request twice, once untraced and once inside a
span per public call (:class:`~perfbench.spans.Tracer`), in an order that
alternates between requests, so the tracing overhead is measured under the
same conditions as the traced calls.

The caller puts the program's ``src`` directory on ``sys.path`` before
importing this module.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field
from time import perf_counter_ns

from prenex import (
    build_graph,
    closure,
    count_pairs,
    count_pairs_via_graph,
    decide_with_stats,
    ensure_same_universe,
    enumerate_classes,
    export_graph,
    implies,
    oracle_implies,
    parse_prefix,
    parse_prefix_pair,
)
from prenex.cli import main as cli_main

from . import check, gen, host
from .spans import NullTracer, Tracer

TIMED_BUDGET_NS = 10_000_000
TIMED_MAX_CALLS = 10


@dataclass
class Tally:
    """Timings and outcomes of the requests of one run.

    ``latency_ns`` maps each request (each ``batch`` call for
    ``batch-small``) to its best scaled time (:mod:`perfbench.host`) over
    the run's passes, ``raw_ns`` to its best measured time, and
    ``implies_ns`` each pair timed alone to its best scaled time;
    ``ref_ns`` holds every reference-loop timing and ``last_ref`` the
    latest.  ``requests`` counts requests completed over all passes
    (records for ``batch-small``) and ``passes`` the passes made;
    ``counts`` holds the traced pass's work counters.
    """

    latency_ns: dict = field(default_factory=dict)
    raw_ns: dict = field(default_factory=dict)
    implies_ns: dict = field(default_factory=dict)
    ref_ns: list[int] = field(default_factory=list)
    last_ref: int | None = None
    requests: int = 0
    passes: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)

    def outcome(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what: str) -> None:
        """Count a wrong answer; used alone for one that belongs to no single
        request, such as an exit code or a census total."""
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what[:300])

    def count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def reference(self) -> int:
        """Time the host's reference loop now."""
        self.last_ref = host.reference_ns()
        self.ref_ns.append(self.last_ref)
        return self.last_ref


def _nothing() -> None:
    pass


def _failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def keep_best(times: dict, key, ns: float) -> None:
    """Record ``ns`` for ``key`` if it beats the time already kept."""
    times[key] = min(times.get(key, ns), ns)


def timed(fn, *args):
    """Call ``fn(*args)`` back to back until the calls have taken
    ``TIMED_BUDGET_NS`` (at least one call) or made ``TIMED_MAX_CALLS``
    calls; return the last result and the best time of one call in ns."""
    times = []
    while True:
        t0 = perf_counter_ns()
        result = fn(*args)
        times.append(perf_counter_ns() - t0)
        if len(times) == TIMED_MAX_CALLS or sum(times) >= TIMED_BUDGET_NS:
            return result, min(times)


def once(tally: Tally, key, fn, *args):
    """``fn(*args)``, timed between two reference-loop timings; its scaled
    and measured times are kept for ``key`` where they are the best yet."""
    before = tally.reference()
    t0 = perf_counter_ns()
    result = fn(*args)
    ns = perf_counter_ns() - t0
    keep_best(tally.latency_ns, key, host.scale(ns, before, tally.reference()))
    keep_best(tally.raw_ns, key, ns)
    return result


def paired(tally: Tally, tracer: Tracer, k: int, plain, traced):
    """Request ``k`` once untraced and once traced, the order alternating
    with ``k``; the untraced time goes to ``tally``.  ``plain``
    and ``traced`` take no arguments.  Returns both results."""
    tracer.request = k
    if k % 2:
        traced_result = traced()
    plain_result = once(tally, k, plain)
    if not k % 2:
        traced_result = traced()
    return plain_result, traced_result


def _time_implies(tally: Tally, items) -> None:
    """``implies`` alone on pairs already parsed, checked.  ``items`` holds
    ``(key, s1, s2, pair)``; they are timed between the latest reference
    timing and a new one."""
    before = tally.last_ref or tally.reference()
    found = []
    for key, s1, s2, pair in items:
        try:
            verdict, ns = timed(implies, s1, s2)
            found.append((key, ns))
            ok, what = check.verdict_ok(verdict, pair), "wrong verdict"
        except Exception as exc:  # a call that raises counts as a failed request
            ok, what = False, _failure(exc)
        tally.outcome(ok, f"implies {pair.family} n={pair.n}: {what}")
    after = tally.reference()
    for key, ns in found:
        keep_best(tally.implies_ns, key, host.scale(ns, before, after))


def _text_to_verdict(lhs: str, rhs: str):
    s1, s2 = parse_prefix_pair(lhs, rhs)
    return s1, s2, implies(s1, s2)


def _parse_and_decide(t: Tracer, lhs: str, rhs: str):
    s1, s2 = t.call("prefix.parse", parse_prefix_pair, lhs, rhs)
    t.call("prefix.universe", ensure_same_universe, s1, s2)
    return t.call("decide.implies", decide_with_stats, s1, s2)


def _count_stats(tally: Tally, stats) -> None:
    tally.count("vars", stats.n)
    tally.count("loop_steps", stats.loop_steps)
    tally.count("rescan_steps", stats.rescan_steps)
    tally.count("pairs", 1)


class Decide:
    """``decide-accept`` / ``decide-reject``: one pair per request, from text
    to verdict by ``parse_prefix_pair`` then ``implies``."""

    def __init__(self, name: str, seed: int, requests: int = 100,
                 sizes: tuple[int, int] = (1_000, 10_000)) -> None:
        self.name = name
        self.pairs = gen.decide_pairs(seed, name, requests, *sizes)
        digest = gen.Checksum()
        for p in self.pairs:
            digest.add(p.lhs, p.rhs)
        self.checksum = digest.hexdigest()
        self.size = len(self.pairs)

    def run_pass(self, tally: Tally, tracer: Tracer | None = None, after=_nothing) -> None:
        for k, p in enumerate(self.pairs):
            what = f"{p.family} n={p.n}"
            try:
                if tracer is None:
                    s1, s2, verdict = once(tally, k, _text_to_verdict, p.lhs, p.rhs)
                    # Timed here, on the pair just parsed: a run's parsed
                    # pairs are too large to keep for a pass of their own.
                    _time_implies(tally, [(k, s1, s2, p)])
                    ok = check.verdict_ok(verdict, p)
                else:
                    (_, _, verdict), (traced, stats) = paired(
                        tally, tracer, k,
                        lambda: _text_to_verdict(p.lhs, p.rhs),
                        lambda: tracer.call("request", _parse_and_decide, tracer, p.lhs, p.rhs),
                    )
                    ok = check.verdict_ok(verdict, p) and check.verdict_ok(traced, p)
                    _count_stats(tally, stats)
                tally.requests += 1
            except Exception as exc:  # a request that raises counts as failed
                ok, what = False, f"{what}: {_failure(exc)}"
            tally.outcome(ok, what)
            after()


def _batch(path: str) -> tuple[int, str]:
    """Exit code and standard output of an in-process ``prenex batch path``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(["batch", path])
    return code, out.getvalue()


def _traced_batch(t: Tracer, path: str) -> tuple[int, str]:
    return t.call("cli.batch", _batch, path)


class BatchSmall:
    """``batch-small``: files of small JSONL records through in-process
    ``prenex.cli.main(["batch", path])``; one request per record."""

    def __init__(self, seed: int, workdir: str, files: int = 100, records: int = 100,
                 bad: int = 1, sizes: tuple[int, int] = (2, 512),
                 implies_records: int = 40) -> None:
        self.name = "batch-small"
        self.files = []
        digest = gen.Checksum()
        for index in range(files):
            recs = gen.batch_file(seed, index, records, bad, *sizes)
            path = os.path.join(workdir, f"batch-{index:03d}.jsonl")
            text = "".join(r.line + "\n" for r in recs)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            digest.add(text)
            timed_pairs = [r.pair for r in recs if r.pair][:implies_records]
            parsed = [(pair, *parse_prefix_pair(pair.lhs, pair.rhs)) for pair in timed_pairs]
            self.files.append((path, recs, parsed))
        self.checksum = digest.hexdigest()
        self.size = len(self.files)
        # Per file, the output of a call whose every line has been checked;
        # a later call that prints the same output needs no second check.
        self.verified: dict[int, tuple[int, str]] = {}

    def run_pass(self, tally: Tally, tracer: Tracer | None = None, after=_nothing) -> None:
        for index, (path, recs, parsed) in enumerate(self.files):
            try:
                if tracer is None:
                    code, text = once(tally, index, _batch, path)
                else:
                    (code, text), traced = paired(
                        tally, tracer, index,
                        lambda: _batch(path),
                        lambda: tracer.call("request", _traced_batch, tracer, path),
                    )
                    if traced != (code, text):
                        tally.fail(f"{path}: traced call answered differently")
            except Exception as exc:  # every record of the call failed
                for _ in recs:
                    tally.outcome(False, f"{path}: {_failure(exc)}")
                after()
                continue
            if self.verified.get(index) == (code, text):
                tally.attempted += len(recs)
            else:
                failed = tally.failed
                self._check(path, recs, code, text, tally)
                if tally.failed == failed:
                    self.verified[index] = (code, text)
            tally.requests += len(recs)
            if tracer is None:
                _time_implies(tally, [((index, j), s1, s2, pair)
                                      for j, (pair, s1, s2) in enumerate(parsed)])
            else:
                self._replay(recs, tracer, tally)
                tally.count("records", len(recs))
                tally.count("error_records", text.count('{"error"'))
            after()

    @staticmethod
    def _check(path: str, recs, code: int, text: str, tally: Tally) -> None:
        lines = text.splitlines()
        expect_code = 0 if all(r.pair and r.pair.accept for r in recs) else 1
        if code != expect_code or len(lines) != len(recs):
            tally.fail(f"{path}: exit {code}, {len(lines)} lines for {len(recs)} records")
        for k, rec in enumerate(recs):
            line = lines[k] if k < len(lines) else ""
            try:
                ok = check.batch_line_ok(json.loads(line), rec)
            except ValueError:
                ok = False
            tally.outcome(ok, f"{path} line {k + 1}: {line[:120]}")

    @staticmethod
    def _replay(recs, tracer: Tracer, tally: Tally) -> None:
        """Parse and decide the records a traced ``batch`` call just read, so
        the per-layer report can split ``cli.batch`` into program layers."""
        for rec in recs:
            try:
                doc = json.loads(rec.line)
            except ValueError:
                continue
            try:
                _, stats = _parse_and_decide(tracer, doc["lhs"], doc["rhs"])
            except Exception:  # malformed records fail in parse, as in batch
                continue
            _count_stats(tally, stats)


class Reference:
    """``reference``: the BFS oracle and the census sweep, one call per request.

    What each ``closure`` call must return is worked out here, before any
    pass, so that a pass holds only the calls and cheap comparisons.
    """

    def __init__(self, seed: int, queries: int = 200, n: int = 6,
                 closures: tuple[tuple[int, int], ...] = ((6, 10), (7, 2)),
                 census: tuple[int, int] = (5, 6)) -> None:
        self.name = "reference"
        self.pairs = gen.reference_pairs(seed, queries, n)
        self.parsed = [parse_prefix_pair(p.lhs, p.rhs) for p in self.pairs]
        texts = [t for size, count in closures for t in gen.reference_prefixes(seed, count, size)]
        self.prefixes = [parse_prefix(t) for t in texts]
        self.pairs_n, self.graph_n = census
        digest = gen.Checksum()
        for p in self.pairs:
            digest.add(p.lhs, p.rhs)
        digest.add(*texts)
        self.checksum = digest.hexdigest()
        calls = [("oracle", k) for k in range(len(self.pairs))]
        calls += [("closure", k) for k in range(len(self.prefixes))]
        calls += [("count_pairs", 0), ("count_pairs_via_graph", 0), ("build_graph", 0)]
        gen.derive(seed, "reference", "order").shuffle(calls)
        at = calls.index(("build_graph", 0)) + 1
        self.calls = calls[:at] + [("export_graph", 0)] + calls[at:]
        self.size = len(self.calls)
        classes = {size: enumerate_classes(size) for size, _ in closures}
        self.closures = [check.expected_closure(p, classes[p.n]) for p in self.prefixes]

    def _call(self, t, kind: str, k: int, census: dict):
        if kind == "oracle":
            return t.call("oracle.implies", oracle_implies, *self.parsed[k])
        if kind == "closure":
            return t.call("oracle.closure", closure, self.prefixes[k])
        if kind == "count_pairs":
            return t.call("census.count_pairs", count_pairs, self.pairs_n)
        if kind == "count_pairs_via_graph":
            return t.call("census.count_pairs_via_graph", count_pairs_via_graph, self.pairs_n)
        if kind == "build_graph":
            return t.call("census.build_graph", build_graph, self.graph_n)
        return t.call("census.export", export_graph, census["build_graph"], "json")

    def run_pass(self, tally: Tally, tracer: Tracer | None = None, after=_nothing) -> None:
        census: dict = {}
        plain = NullTracer()
        for index, (kind, k) in enumerate(self.calls):
            try:
                if tracer is None:
                    result = once(tally, index, self._call, plain, kind, k, census)
                else:
                    result, traced = paired(
                        tally, tracer, index,
                        lambda: self._call(plain, kind, k, census),
                        lambda: tracer.call("request", self._call, tracer, kind, k, census),
                    )
                    if traced != result:
                        tally.fail(f"{kind} {k}: traced call answered differently")
                tally.requests += 1
            except Exception as exc:  # a request that raises counts as failed
                tally.outcome(False, f"{kind} {k}: {_failure(exc)}")
                after()
                continue
            if kind == "oracle":
                tally.outcome(result == self.pairs[k].accept, f"oracle {self.pairs[k]}")
                tally.count("oracle_calls", 1)
                if tracer is None:
                    _time_implies(tally, [(k, *self.parsed[k], self.pairs[k])])
            elif kind == "closure":
                found = check.prefix_keys(c.rep for c in result)
                ok = found == self.closures[k] and len(found) == len(result)
                tally.outcome(ok, f"closure {self.prefixes[k]}")
                tally.count("closure_classes", len(result))
            else:
                census[kind] = result
                tally.attempted += 1
            after()
        problems = check.census_ok(census, self.pairs_n, self.graph_n) if len(census) == 4 else [
            "census incomplete"
        ]
        for problem in problems:
            tally.fail(problem)
        if "build_graph" in census:
            tally.count("classes", len(census["build_graph"].vertices))
            tally.count("edges", len(census["build_graph"].edges))


def make(name: str, seed: int, workdir: str):
    """The workload called ``name``, its inputs generated from ``seed``."""
    if name in ("decide-accept", "decide-reject"):
        return Decide(name, seed)
    if name == "batch-small":
        return BatchSmall(seed, workdir)
    if name == "reference":
        return Reference(seed)
    raise ValueError(f"unknown workload {name!r}")
