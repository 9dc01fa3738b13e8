import hashlib
import json
from fractions import Fraction
from itertools import permutations, product
from math import factorial, prod

import pytest

from prenex import (
    CensusReport,
    ImplicationGraph,
    InstanceTooLargeError,
    Prefix,
    build_graph,
    canonicalize,
    closure,
    count_pairs,
    count_pairs_via_graph,
    default_names,
    enumerate_classes,
    export_graph,
    implies,
    reachability_bitsets,
)
from prenex.census import _implied_count, _run_table
from prenex.decide import _core
from prenex.oracle import _explore, _key
from prenex.prefix import _bits_of
from support import (
    MoveKind,
    all_raw_prefixes,
    all_raw_states,
    applicable_moves,
    apply_move,
    fubini,
)


# --- class enumeration --------------------------------------------------------


def test_class_counts_match_doubled_ordered_bell():
    assert [len(enumerate_classes(n)) for n in range(1, 6)] == [2, 6, 26, 150, 1082]
    for n in range(1, 6):
        assert len(enumerate_classes(n)) == 2 * fubini(n)


def test_run_labels_name_their_word():
    # A label is 2k + q for the run k that holds each variable and that run's
    # quantifier q, so over every word and placement no two words share one,
    # and the distinct labels are the classes.
    for n in range(1, 7):
        placements = [bytes(q) for q in permutations(range(n))]
        owners: dict[bytes, set[bytes]] = {}
        for bits in map(bytes, product((0, 1), repeat=n)):
            table = _run_table(bits)
            for q in placements:
                owners.setdefault(q.translate(table), set()).add(bits)
        assert all(len(words) == 1 for words in owners.values())
        assert len(owners) == 2 * fubini(n)


def test_classes_at_n1():
    classes = enumerate_classes(1)
    assert [(c.text, m) for c, m in classes] == [("A x1", 1), ("E x1", 1)]


def test_classes_at_n2():
    classes = enumerate_classes(2)
    assert [(c.text, m) for c, m in classes] == [
        ("A x1 A x2", 2),
        ("A x1 E x2", 1),
        ("A x2 E x1", 1),
        ("E x1 A x2", 1),
        ("E x1 E x2", 2),
        ("E x2 A x1", 1),
    ]


def test_every_raw_prefix_lands_in_exactly_one_class():
    for n in (1, 2, 3, 4, 5):
        index = {c.rep: m for c, m in enumerate_classes(n)}
        hits = {rep: 0 for rep in index}
        keys = {}
        for p in all_raw_prefixes(n):
            rep = canonicalize(p).rep
            hits[rep] += 1
            keys.setdefault(_key(p), set()).add(rep)
        assert hits == index  # observed sizes equal declared multiplicities
        # the oracle's class key (its search state) is one per class, shared
        # by exactly that class's members
        assert len(keys) == len(index)
        assert all(len(reps) == 1 for reps in keys.values())


def test_class_listing_at_n7_matches_pinned_hash():
    # Every class text and multiplicity, in order, so that the listing stays
    # the same across commits.
    listing = "".join(f"{cls.text}:{mult}\n" for cls, mult in enumerate_classes(7))
    assert hashlib.sha256(listing.encode()).hexdigest() == (
        "fd8be63c756e1df9b02b5079a916b064550562de9b0c9ca6e6b17ee5485e4786"
    )


def test_multiplicities_sum_to_full_space():
    for n in range(1, 8):
        total = sum(m for _, m in enumerate_classes(n))
        assert total == factorial(n) * 2**n


def test_enumeration_cap():
    with pytest.raises(InstanceTooLargeError):
        enumerate_classes(8)
    with pytest.raises(InstanceTooLargeError):
        enumerate_classes(0)


# --- implication graph ----------------------------------------------------------


def test_graph_at_n1():
    g = build_graph(1)
    assert [c.text for c in g.vertices] == ["A x1", "E x1"]
    assert g.sorted_edges() == [(0, 1)]


def test_sorted_edges_are_the_graphs_own_tuples_in_order():
    for n in range(1, 7):
        g = build_graph(n)
        edges = g.sorted_edges()
        assert edges == sorted(g.edges), n
        # no edge tuple is built anew: the list holds the edge set's objects
        assert {id(e) for e in edges} <= {id(e) for e in g.edges}, n


def test_graph_at_n2_has_ten_edges():
    g = build_graph(2)
    assert len(g.vertices) == 6
    assert len(g.edges) == 10
    text = {i: c.text for i, c in enumerate(g.vertices)}
    out = {text[u] for (u, v) in g.edges if text[v] == "E x1 E x2"}
    # every mixed class steps down to the bottom class
    assert out == {"A x1 E x2", "A x2 E x1", "E x1 A x2", "E x2 A x1"}
    top_out = {text[v] for (u, v) in g.edges if text[u] == "A x1 A x2"}
    assert top_out == {"A x1 E x2", "A x2 E x1", "E x1 A x2", "E x2 A x1"}


def test_graph_is_acyclic_up_to_n5():
    # every edge lowers the quantifier word, so ascending word order is a
    # topological order
    for n in range(1, 6):
        g = build_graph(n)
        words = [_bits_of(cls.rep.b) for cls in g.vertices]
        assert all(words[v] < words[u] for u, v in g.edges)


def test_reachability_refuses_an_edge_that_does_not_lower_the_word():
    vertices = tuple(cls for cls, _ in enumerate_classes(1))
    assert [cls.text for cls in vertices] == ["A x1", "E x1"]
    cycle = ImplicationGraph(1, vertices, frozenset({(0, 1), (1, 0)}), (1, 1))
    # acyclic, but E x1 -> A x1 raises the word
    raising = ImplicationGraph(1, vertices, frozenset({(1, 0)}), (1, 1))
    for g in (raising, cycle):
        with pytest.raises(ValueError, match="does not lower the quantifier word"):
            reachability_bitsets(g)


def test_no_self_loops():
    for n in range(1, 5):
        g = build_graph(n)
        assert all(u != v for u, v in g.edges)


def test_top_reaches_all_and_all_reach_bottom():
    for n in (1, 2, 3, 4):
        g = build_graph(n)
        reach = reachability_bitsets(g)
        text = [c.text for c in g.vertices]
        top = text.index(" ".join(f"A x{i + 1}" for i in range(n)))
        bottom = text.index(" ".join(f"E x{i + 1}" for i in range(n)))
        everything = (1 << len(g.vertices)) - 1
        assert reach[top] == everything
        assert all(r & (1 << bottom) for r in reach)


def test_graph_reachability_matches_decider():
    for n in (1, 2, 3, 4):
        g = build_graph(n)
        reach = reachability_bitsets(g)
        for u, src in enumerate(g.vertices):
            reached = set()
            for v, dst in enumerate(g.vertices):
                expected = bool(reach[u] >> v & 1)
                assert implies(src.rep, dst.rep).accepted == expected
                if expected:
                    reached.add(dst.text)
            assert {c.text for c in closure(src.rep)} == reached


def test_closure_lists_what_the_graph_reaches_at_n5():
    # The oracle's class successors and the census's listing and edges are
    # built independently: every class's closure must list, in text order,
    # the vertices that the graph reaches from it.
    g = build_graph(5)
    assert len(g.vertices) == 1082
    texts = [c.text for c in g.vertices]
    for cls, bits in zip(g.vertices, reachability_bitsets(g)):
        reached = [t for v, t in enumerate(texts) if bits >> v & 1]
        assert [c.text for c in closure(cls.rep)] == reached, cls.text


def test_graph_edges_are_exactly_the_moves_that_leave_a_class():
    # The graph does not use the oracle's packed moves, so the readable
    # moves, applied to every raw prefix, check it edge for edge.
    for n in range(1, 6):
        g = build_graph(n)
        index = {cls.rep: u for u, cls in enumerate(g.vertices)}
        edges = set()
        for p in all_raw_prefixes(n):
            u = index[canonicalize(p).rep]
            for move in applicable_moves(p):
                v = index[canonicalize(apply_move(p, move)).rep]
                assert (v == u) == (move.kind is MoveKind.SWAP_SAME), (p, move)
                if v != u:
                    edges.add((u, v))
        assert edges == g.edges, n


# --- pair census -----------------------------------------------------------------


def test_count_pairs_n1():
    report = count_pairs(1)
    assert (report.true_pairs, report.total_pairs) == (3, 4)
    assert report.probability == Fraction(3, 4)
    assert report.class_count == 2 and report.edge_count == 1


def test_count_pairs_n2():
    report = count_pairs(2)
    assert (report.true_pairs, report.total_pairs) == (34, 64)
    assert report.probability == Fraction(17, 32)


def test_count_pairs_reflexivity_floor():
    for n in (1, 2, 3):
        report = count_pairs(n)
        assert report.true_pairs >= factorial(n) * 2**n
        assert 0 < report.probability <= 1


def test_counting_methods_agree():
    for n in (1, 2, 3, 4, 5):
        assert count_pairs(n) == count_pairs_via_graph(n)


def test_implied_count_matches_oracle_reach():
    # The BFS never reads the decision rule: its visited classes, each
    # weighted by its member count, are every raw s2 that the identity-order
    # prefix implies.  At n = 7 that is 462,059 classes over the 128 words.
    for n in range(1, 8):
        identity, names = tuple(range(n)), default_names(n)
        for word in product((0, 1), repeat=n):
            _, visited = _explore(_key(Prefix(identity, bytes(word), names)))
            reach = sum(prod(factorial(m.bit_count()) for m in key[1:]) for key in visited)
            assert _implied_count(word) == reach


def test_implied_count_matches_rule_on_every_raw_s2():
    for n in (1, 2, 3, 4):
        identity, states = tuple(range(n)), list(all_raw_states(n))
        for word in product((0, 1), repeat=n):
            b1 = bytes(word)
            accepts = sum(_core(identity, b1, sigma2, b2)[0] == 0 for sigma2, b2 in states)
            assert _implied_count(word) == accepts


def test_count_pairs_n6_both_methods():
    for count in (count_pairs, count_pairs_via_graph):
        report = count(6)
        assert report == CensusReport(
            n=6,
            class_count=9366,
            edge_count=77664,
            true_pairs=210_090_960,
            total_pairs=2_123_366_400,
            probability=Fraction(210_090_960, 2_123_366_400),
        )


def test_count_pairs_cap():
    with pytest.raises(InstanceTooLargeError):
        count_pairs(7)


def test_count_pairs_exact_past_the_cap():
    # At n = 8 the oracle's reach gives the same per-word terms, so the same
    # true pairs: CI's "C(w) at n = 8" step checks all 256 words (about 2
    # minutes, so not a test).
    for n, want in [
        (7, (94_586, 944_468, 25_851_707_280, 416_179_814_400)),
        (8, (1_091_670, 12_748_992, 4_105_265_028_480, 106_542_032_486_400)),
    ]:
        report = count_pairs(n, cap=n)
        got = (report.class_count, report.edge_count, report.true_pairs, report.total_pairs)
        assert got == want


def test_count_pairs_forwards_cap_to_build_graph(monkeypatch):
    seen = []

    class Stop(Exception):
        pass

    def stub(n, cap=None):
        seen.append(cap)
        raise Stop

    monkeypatch.setattr("prenex.census.build_graph", stub)
    with pytest.raises(Stop):
        count_pairs_via_graph(8, cap=8)
    assert seen == [8]


# --- export ----------------------------------------------------------------------


def test_export_json_n1():
    doc = json.loads(export_graph(build_graph(1), "json"))
    assert doc == {
        "n": 1,
        "vertices": [
            {"id": 0, "prefix": "A x1", "multiplicity": 1},
            {"id": 1, "prefix": "E x1", "multiplicity": 1},
        ],
        "edges": [[0, 1]],
    }


def test_export_json_vertex_count_n2():
    doc = json.loads(export_graph(build_graph(2), "json"))
    assert len(doc["vertices"]) == 6
    assert sorted(doc["edges"]) == doc["edges"]


def test_export_dot_n1():
    out = export_graph(build_graph(1), "dot").decode()
    assert out == (
        "digraph implication_classes {\n"
        '  0 [label="A x1"];\n'
        '  1 [label="E x1"];\n'
        "  0 -> 1;\n"
        "}\n"
    )


def test_export_is_byte_stable():
    g1, g2 = build_graph(3), build_graph(3)
    for fmt in ("json", "dot"):
        assert export_graph(g1, fmt) == export_graph(g2, fmt)


def test_export_bytes_match_pinned_hashes():
    # SHA-256 of each export, so that the bytes stay the same across
    # commits, not only across two builds in one process.
    pinned = {
        (5, "json"): "9a15ff8cad89baa69211f9f9a0e7dfec7632d3651d4a4aa2ba809f1b130dfb7e",
        (5, "dot"): "3c50ec1cf20ad1e92255b05acee4ff58e1383686a26c8331a5a97e503427676a",
        (6, "json"): "63a0dd81a3b8bdd02e3200a11a6d1a2d4be6e39cf425aea74ce425ebdc7a8ed4",
        (6, "dot"): "9e3547a322f4177134648d4a2f064f65e5d06d7993ffd5e81cdd1d22cea111a8",
    }
    for n in (5, 6):
        g = build_graph(n)
        for fmt in ("json", "dot"):
            digest = hashlib.sha256(export_graph(g, fmt)).hexdigest()
            assert digest == pinned[n, fmt], (n, fmt)


def test_export_rejects_unknown_format():
    with pytest.raises(ValueError):
        export_graph(build_graph(1), "yaml")


def test_export_checks_the_format_before_reading_the_graph():
    unreadable = ImplicationGraph(1, (), None, ())  # edges cannot be iterated
    with pytest.raises(ValueError):
        export_graph(unreadable, "yaml")
    with pytest.raises(TypeError):
        export_graph(unreadable, "json")


def test_export_json_edges_follow_sorted_edges():
    for n in range(1, 7):
        g = build_graph(n)
        doc = json.loads(export_graph(g, "json"))
        assert doc["edges"] == [list(e) for e in g.sorted_edges()], n


def _class(sigma, word, names):
    return canonicalize(Prefix(sigma, word, names))


def _dumps_export(g):
    # the document that json.dumps wrote, field by field, and its text
    doc = {
        "n": g.n,
        "vertices": [
            {"id": i, "prefix": cls.text, "multiplicity": g.multiplicity[i]}
            for i, cls in enumerate(g.vertices)
        ],
        "edges": g.sorted_edges(),
    }
    return (json.dumps(doc, separators=(",", ":")) + "\n").encode()


def _line_export(g):
    # the DOT text written one line per vertex and per edge
    lines = ["digraph implication_classes {"]
    for i, cls in enumerate(g.vertices):
        label = cls.text.replace('"', '\\"')
        lines.append(f'  {i} [label="{label}"];')
    for u, v in g.sorted_edges():
        lines.append(f"  {u} -> {v};")
    lines.append("}")
    return ("\n".join(lines) + "\n").encode()


def test_export_matches_dumps_and_lines_on_hand_built_graphs():
    # names that JSON must escape (a quote, a backslash, a non-ASCII letter,
    # a control character) and DOT must quote; vertices with no out-edges,
    # edges added out of order, vertices over different names, and graphs
    # with no edges or no vertices
    names = ('q"1', "b\\2", "é3", "c\x014")
    vertices = (
        _class((0, 1, 2, 3), (1, 1, 0, 0), names),
        _class((3, 2, 1, 0), (1, 0, 1, 0), names),
        _class((1, 0, 3, 2), (0, 0, 0, 0), names),
        _class((2, 0, 1, 3), (0, 1, 0, 1), names),
    )
    graphs = [
        ImplicationGraph(4, vertices, frozenset({(3, 2), (0, 2), (0, 1), (3, 0)}), (4, 2, 24, 1)),
        ImplicationGraph(4, vertices, frozenset(), (4, 2, 24, 1)),
        ImplicationGraph(4, vertices[2:], frozenset({(1, 0)}), (24, 1)),
        ImplicationGraph(0, (), frozenset(), ()),
        ImplicationGraph(
            4, (vertices[0], _class((0, 1, 2, 3), (1, 0, 0, 1), ("y1", "y2", "y3", "y4"))),
            frozenset({(0, 1)}), (4, 2),
        ),
    ]
    for g in graphs:
        assert export_graph(g, "json") == _dumps_export(g)
        assert export_graph(g, "dot") == _line_export(g)
    assert b"\\u00e9" in export_graph(graphs[0], "json")  # ASCII only, as json.dumps
    assert export_graph(graphs[3], "json") == b'{"n":0,"vertices":[],"edges":[]}\n'
    assert export_graph(graphs[3], "dot") == b"digraph implication_classes {\n}\n"


def test_export_refuses_a_number_it_cannot_write_as_an_int():
    # json.dumps wrote true or 1.0 here; an f-string would write True, which
    # is not JSON.  The export refuses them rather than write either.
    g = build_graph(2)
    odd = (True, 1.0, 2.5)
    for value in odd:
        mult = (value,) + g.multiplicity[1:]
        with pytest.raises(TypeError):
            export_graph(ImplicationGraph(2, g.vertices, g.edges, mult), "json")
        with pytest.raises(TypeError):
            export_graph(ImplicationGraph(value, g.vertices, g.edges, g.multiplicity), "json")
    # DOT writes no multiplicity, so only the edges' ends must be ints
    mult = (True,) + g.multiplicity[1:]
    assert export_graph(ImplicationGraph(2, g.vertices, g.edges, mult), "dot") == (
        export_graph(g, "dot")
    )
    assert (5, 0) not in g.edges  # so neither edge below equals an edge of g
    for fmt in ("json", "dot"):
        for edge in ((5, 0.0), (5.0, 0)):
            with pytest.raises(TypeError):
                export_graph(ImplicationGraph(2, g.vertices, g.edges | {edge}, g.multiplicity), fmt)
