"""Independent answer checks: every output is compared with what the input's
construction says it must be, or with a count computed here."""

from __future__ import annotations

import json
from math import comb

from prenex import Prefix, implies


def fubini(n: int) -> int:
    """Ordered Bell number a(n) = sum_k C(n, k) a(n - k), a(0) = 1."""
    values = [1]
    for m in range(1, n + 1):
        values.append(sum(comb(m, k) * values[m - k] for k in range(1, m + 1)))
    return values[n]


def class_count(n: int) -> int:
    """Equivalence classes at n: two quantifier patterns per ordered partition."""
    return 2 * fubini(n)


def verdict_ok(verdict, pair) -> bool:
    """The verdict matches the pair's construction, witness included when known."""
    if verdict.accepted != pair.accept:
        return False
    w = verdict.witness
    if pair.accept:
        return w is None
    if pair.witness is None:
        return w is not None
    return (w.case_id, w.s2_position, w.variable, w.blocking_f) == pair.witness


def batch_line_ok(doc, record) -> bool:
    """One parsed ``batch`` output line against the record that produced it."""
    if not isinstance(doc, dict):
        return False
    if record.error is not None:
        return str(doc.get("error", "")).startswith(record.error + ":")
    pair = record.pair
    if doc.get("verdict") != ("accept" if pair.accept else "reject"):
        return False
    w = doc.get("witness")
    if pair.accept:
        return w is None
    return isinstance(w, dict) and (
        w.get("case_id"), w.get("s2_position"), w.get("variable"), w.get("blocking_f")
    ) == pair.witness


def prefix_keys(prefixes) -> set:
    """Prefixes as comparable (sigma, quantifier bits) keys."""
    return {(p.sigma, tuple(int(q) for q in p.b)) for p in prefixes}


def expected_closure(prefix, classes) -> set:
    """Keys of the classes of ``enumerate_classes(n)`` that ``implies``
    accepts from ``prefix``: what ``closure(prefix)`` must return.

    Class representatives are rebuilt over ``prefix``'s variable names so
    both sides share one universe.
    """
    reps = [Prefix(cls.rep.sigma, cls.rep.b, prefix.names) for cls, _ in classes]
    return prefix_keys(rep for rep in reps if implies(prefix, rep).accepted)


def census_ok(results: dict, pairs_n: int, graph_n: int) -> list[str]:
    """Problems with the census answers of one pass (empty when all agree)."""
    problems = []
    direct, via_graph = results["count_pairs"], results["count_pairs_via_graph"]
    if direct.class_count != class_count(pairs_n):
        problems.append(f"count_pairs({pairs_n}) classes {direct.class_count}")
    fields = ("class_count", "edge_count", "true_pairs", "total_pairs", "probability")
    if any(getattr(direct, f) != getattr(via_graph, f) for f in fields):
        problems.append("count_pairs and count_pairs_via_graph disagree")
    graph = results["build_graph"]
    if len(graph.vertices) != class_count(graph_n):
        problems.append(f"build_graph({graph_n}) classes {len(graph.vertices)}")
    doc = json.loads(results["export_graph"])
    if (doc["n"], len(doc["vertices"]), len(doc["edges"])) != (
        graph_n, len(graph.vertices), len(graph.edges)
    ):
        problems.append("export_graph JSON does not match the graph")
    return problems
