import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from prenex.cli import build_parser, main, run_bench
from support import prefix_text_pairs, run_python


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_captured(*argv):
    """Like ``run``, for property tests, which cannot share a capsys fixture."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# --- check -----------------------------------------------------------------


def test_check_accept(capsys):
    code, out, err = run(capsys, "check", "--lhs", "A x1", "--rhs", "E x1")
    assert code == 0 and out == "accept\n" and err == ""


def test_check_reject_json_witness(capsys):
    code, out, _ = run(capsys, "check", "--lhs", "E x1", "--rhs", "A x1", "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "reject"
    assert doc["witness"] == {
        "case_id": 5,
        "s2_position": 0,
        "variable": 0,
        "blocking_f": None,
    }


def test_check_accept_json(capsys):
    code, out, _ = run(capsys, "check", "--lhs", "A x1", "--rhs", "A x1", "--json")
    assert code == 0
    assert json.loads(out) == {"verdict": "accept", "witness": None}


def test_check_parse_error_exits_2(capsys):
    code, out, err = run(capsys, "check", "--lhs", "A x1 A x1", "--rhs", "A x1")
    assert code == 2 and out == "" and "x1" in err


def test_check_case4_human_line(capsys):
    code, out, _ = run(
        capsys,
        "check",
        "--lhs",
        "A x1 A x2 E x3 A x4",
        "--rhs",
        "A x1 A x4 E x3 A x2",
    )
    assert code == 1
    assert out.startswith("reject (case 4")
    assert "variable x2" in out


@settings(max_examples=100, deadline=None)
@given(prefix_text_pairs(), st.booleans())
def test_check_fuzzed_text_exits_cleanly(texts, as_json):
    lhs, rhs = texts
    argv = ["check", f"--lhs={lhs}", f"--rhs={rhs}"] + ["--json"] * as_json
    code, out, err = run_captured(*argv)
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    else:
        assert code in (0, 1) and err == "" and out.count("\n") == 1


# --- batch -----------------------------------------------------------------


def test_batch_mixed_records(tmp_path, capsys, monkeypatch):
    path = tmp_path / "pairs.jsonl"
    lines = [
        {"lhs": "A x1", "rhs": "E x1"},
        {"lhs": "E x1", "rhs": "A x1"},
    ]
    path.write_text("\n".join(json.dumps(rec) for rec in lines) + "\n")
    code, out, err = run(capsys, "batch", str(path))
    assert code == 1 and err == ""
    docs = [json.loads(line) for line in out.splitlines()]
    assert [d["verdict"] for d in docs] == ["accept", "reject"]
    # "-" reads the same records from stdin, and a malformed line as well
    stdin = "".join(json.dumps(rec) + "\n" for rec in lines) + '{"lhs": \n'
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(stdin.encode())))
    code, out, err = run(capsys, "batch", "-")
    assert code == 1 and err == ""
    docs = [json.loads(line) for line in out.splitlines()]
    assert [d.get("verdict") for d in docs] == ["accept", "reject", None]
    assert list(docs[2]) == ["error"]


def test_batch_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    code, out, _ = run(capsys, "batch", str(path))
    assert code == 0 and out == ""


def test_batch_isolates_bad_lines(tmp_path, capsys):
    path = tmp_path / "pairs.jsonl"
    path.write_text(
        json.dumps({"lhs": "A x1", "rhs": "A x1"})
        + "\n"
        + "this is not json\n"
        + json.dumps({"lhs": "A x1", "rhs": "E x1"})
        + "\n"
    )
    code, out, _ = run(capsys, "batch", str(path))
    assert code == 1
    docs = [json.loads(line) for line in out.splitlines()]
    assert docs[0]["verdict"] == "accept"
    assert "error" in docs[1]
    assert docs[2]["verdict"] == "accept"


def test_batch_rejects_non_string_fields(tmp_path, capsys):
    path = tmp_path / "weird.jsonl"
    path.write_text(
        json.dumps({"lhs": 5, "rhs": "A x1"})
        + "\n"
        + json.dumps({"rhs": "A x1"})
        + "\n"
        + json.dumps([1, 2])
        + "\n"
    )
    code, out, _ = run(capsys, "batch", str(path))
    assert code == 1
    docs = [json.loads(line) for line in out.splitlines()]
    assert all("error" in doc for doc in docs)


def test_batch_survives_invalid_utf8(tmp_path, capsys):
    path = tmp_path / "bytes.jsonl"
    ok = json.dumps({"lhs": "A x1", "rhs": "E x1"}).encode()
    path.write_bytes(ok + b"\n\xff\xfe\n" + ok + b"\n")
    code, out, err = run(capsys, "batch", str(path))
    assert code == 1 and err == ""
    docs = [json.loads(line) for line in out.splitlines()]
    assert len(docs) == 3
    assert docs[1]["error"].startswith("UnicodeDecodeError")
    assert docs[0]["verdict"] == docs[2]["verdict"] == "accept"


def test_batch_survives_deep_nesting(tmp_path, capsys):
    path = tmp_path / "deep.jsonl"
    ok = json.dumps({"lhs": "A x1", "rhs": "E x1"})
    path.write_text(ok + "\n" + "[" * 100_000 + "\n" + ok + "\n")
    code, out, err = run(capsys, "batch", str(path))
    assert code == 1 and err == ""
    docs = [json.loads(line) for line in out.splitlines()]
    assert len(docs) == 3
    assert docs[1]["error"].startswith("RecursionError")
    assert docs[0]["verdict"] == docs[2]["verdict"] == "accept"


def test_batch_missing_file_exits_2(capsys):
    code, out, err = run(capsys, "batch", "/nonexistent/nope.jsonl")
    assert code == 2 and out == "" and err != ""


def test_batch_all_accepts_exit_0(tmp_path, capsys):
    path = tmp_path / "ok.jsonl"
    path.write_text(json.dumps({"lhs": "A x1", "rhs": "E x1"}) + "\n")
    code, out, _ = run(capsys, "batch", str(path))
    assert code == 0 and json.loads(out)["verdict"] == "accept"


_BAD_LINES = [
    b"",
    b"not json",
    b"{",
    b"[1, 2]",
    b"null",
    b'{"rhs": "A x1"}',
    b'{"lhs": 5, "rhs": "A x1"}',
    b"\xff\xfe",
    b'{"lhs": "A x1", "rhs": "\xc3"}',
    b"[" * 5_000,
]


@st.composite
def batch_lines(draw):
    """One batch line without its newline: a record, or garbage bytes."""
    kind = draw(st.integers(0, 3))
    if kind < 2:
        lhs, rhs = draw(prefix_text_pairs())
        return json.dumps({"lhs": lhs, "rhs": rhs}).encode()
    if kind == 2:
        return draw(st.sampled_from(_BAD_LINES))
    return draw(st.binary(max_size=12).filter(lambda raw: b"\n" not in raw))


@settings(max_examples=50, deadline=None)
@given(st.lists(batch_lines(), max_size=8))
def test_batch_fuzzed_lines_one_output_line_each(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.jsonl"
        path.write_bytes(b"".join(line + b"\n" for line in lines))
        code, out, err = run_captured("batch", str(path))
    assert code in (0, 1) and err == ""
    docs = [json.loads(line) for line in out.splitlines()]
    assert len(docs) == len(lines)
    assert all(("verdict" in doc) != ("error" in doc) for doc in docs)
    all_accepted = all(doc.get("verdict") == "accept" for doc in docs)
    assert code == (0 if all_accepted else 1)


# --- oracle-check, canon, equiv, closure -------------------------------------


def test_oracle_check_true(capsys):
    code, out, _ = run(capsys, "oracle-check", "--lhs", "E x1 A x2", "--rhs", "A x2 E x1")
    assert code == 0 and out == "true\n"


def test_oracle_check_false_json(capsys):
    code, out, _ = run(
        capsys, "oracle-check", "--lhs", "E x1", "--rhs", "A x1", "--json"
    )
    assert code == 1 and json.loads(out) == {"implies": False}


def test_oracle_check_cap_exit_3(capsys):
    names = [f"x{i:02d}" for i in range(1, 21)]
    text = " ".join(f"A {nm}" for nm in names)
    code, out, err = run(capsys, "oracle-check", "--lhs", text, "--rhs", text)
    assert code == 3 and out == "" and "cap" in err


def test_canon(capsys):
    code, out, _ = run(capsys, "canon", "A x2 A x1 E x3")
    assert code == 0 and out == "A x1 A x2 E x3\n"


def test_canon_json(capsys):
    code, out, _ = run(capsys, "canon", "A x2 A x1 E x3", "--json")
    assert json.loads(out) == {"canonical": "A x1 A x2 E x3"}


def test_equiv(capsys):
    code, out, _ = run(
        capsys, "equiv", "--lhs", "A x1 A x2 E x3 A x4", "--rhs", "A x2 A x1 E x3 A x4"
    )
    assert code == 0 and out == "equivalent\n"
    code, out, _ = run(capsys, "equiv", "--lhs", "A x1", "--rhs", "E x1")
    assert code == 1 and out == "not equivalent\n"


def test_closure(capsys):
    code, out, _ = run(capsys, "closure", "E x1 A x2")
    assert code == 0
    assert out.splitlines() == ["A x2 E x1", "E x1 A x2", "E x1 E x2"]


def test_closure_json(capsys):
    code, out, _ = run(capsys, "closure", "E x1 E x2", "--json")
    assert json.loads(out) == {"count": 1, "classes": ["E x1 E x2"]}


# --- graph and census ---------------------------------------------------------


def test_graph_dot_stdout(capsys):
    code, out, _ = run(capsys, "graph", "--n", "1", "--format", "dot")
    assert code == 0
    assert out.splitlines()[0] == "digraph implication_classes {"
    assert "  0 -> 1;" in out


def test_graph_json_to_file(tmp_path, capsys):
    out_path = tmp_path / "graph.json"
    code, out, _ = run(
        capsys, "graph", "--n", "2", "--format", "json", "--out", str(out_path)
    )
    assert code == 0 and out == ""
    doc = json.loads(out_path.read_text())
    assert len(doc["vertices"]) == 6 and len(doc["edges"]) == 10


def test_graph_cap_exit_3(capsys):
    code, _, err = run(capsys, "graph", "--n", "9", "--format", "json")
    assert code == 3 and err != ""


@pytest.mark.parametrize(
    "argv",
    [
        ("graph", "--n", "0"),
        ("census", "--n", "0"),
        ("bench", "--sizes", "8", "--reps", "0"),
        ("bench", "--sizes", ","),
    ],
)
def test_arguments_below_one_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: --")


def test_census_human(capsys):
    code, out, _ = run(capsys, "census", "--n", "2")
    assert code == 0
    assert out == (
        "class_count 6\n"
        "edge_count 10\n"
        "true_pairs 34\n"
        "total_pairs 64\n"
        "probability 17/32\n"
    )


def test_census_json(capsys):
    code, out, _ = run(capsys, "census", "--n", "1", "--json")
    doc = json.loads(out)
    assert doc == {
        "n": 1,
        "class_count": 2,
        "edge_count": 1,
        "true_pairs": 3,
        "total_pairs": 4,
        "probability": "3/4",
    }


def test_census_cap_exit_3(capsys):
    code, out, err = run(capsys, "census", "--n", "7")
    assert (code, out, err) == (3, "", "error: n=7 outside the supported range 1..6\n")


# --- bench ---------------------------------------------------------------------


def test_bench_rows_and_determinism(capsys):
    argv = ("bench", "--sizes", "64,300,5000", "--seed", "7", "--reps", "1", "--json")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    for row in doc["rows"]:
        assert set(row.pop("timing")) == {"median_s", "times_s"}
    # The generator contract: a seed draws the same pairs in every version,
    # on both sides of the 256-variable kernel threshold.
    pinned = [
        (64, "c3d4c927ce811acb", 1, 0.015625),
        (300, "dfd67574f85d2d78", 1, 0.003333),
        (5000, "b04f9c7bf88ca183", 3, 0.0006),
    ]
    assert doc["rows"] == [
        {
            "n": n,
            "checksum": checksum,
            "accepted": False,
            "loop_steps": steps,
            "rescan_steps": 0,
            "ops_per_element": ops,
        }
        for n, checksum, steps, ops in pinned
    ]

    _, out2, _ = run(capsys, *argv)
    doc2 = json.loads(out2)
    for row in doc2["rows"]:
        del row["timing"]
    assert doc2 == doc


def test_bench_rejects_bad_sizes(capsys):
    code, _, err = run(capsys, "bench", "--sizes", "100,50")
    assert code == 2 and "increasing" in err


def test_run_bench_human_table(capsys):
    code, out, _ = run(capsys, "bench", "--sizes", "32,64", "--seed", "1", "--reps", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split()[:2] == ["n", "median_s"]
    assert len(lines) == 3


def test_run_bench_seed_changes_inputs():
    rows_a = run_bench([64], seed=1, reps=1)
    rows_b = run_bench([64], seed=2, reps=1)
    assert rows_a[0]["checksum"] != rows_b[0]["checksum"]


# --- exact output bytes and --max-n ----------------------------------------------

_L4, _R4 = "A x1 A x2 E x3 A x4", "A x1 A x4 E x3 A x2"
_EXACT = [
    (("check", "--lhs", "A x1", "--rhs", "E x1"), 0, "accept\n"),
    (
        ("check", "--lhs", "A x1", "--rhs", "E x1", "--json"),
        0,
        '{"verdict": "accept", "witness": null}\n',
    ),
    (
        ("check", "--lhs", "E x1", "--rhs", "A x1"),
        1,
        "reject (case 5 at position 0: variable x1)\n",
    ),
    (
        ("check", "--lhs", "E x1", "--rhs", "A x1", "--json"),
        1,
        '{"verdict": "reject", "witness": {"case_id": 5, "s2_position": 0, '
        '"variable": 0, "blocking_f": null}}\n',
    ),
    (
        ("check", "--lhs", _L4, "--rhs", _R4),
        1,
        "reject (case 4 at position 3: variable x2, "
        "blocked by existential at 2 in lhs)\n",
    ),
    (
        ("check", "--lhs", _L4, "--rhs", _R4, "--json"),
        1,
        '{"verdict": "reject", "witness": {"case_id": 4, "s2_position": 3, '
        '"variable": 1, "blocking_f": 2}}\n',
    ),
    (("oracle-check", "--lhs", "E x1 A x2", "--rhs", "A x2 E x1"), 0, "true\n"),
    (
        ("oracle-check", "--lhs", "E x1", "--rhs", "A x1", "--json"),
        1,
        '{"implies": false}\n',
    ),
    (("canon", "A x2 A x1 E x3"), 0, "A x1 A x2 E x3\n"),
    (("canon", "A x2 A x1 E x3", "--json"), 0, '{"canonical": "A x1 A x2 E x3"}\n'),
    (("equiv", "--lhs", "A x1 A x2", "--rhs", "A x2 A x1"), 0, "equivalent\n"),
    (
        ("equiv", "--lhs", "A x1 A x2", "--rhs", "A x2 A x1", "--json"),
        0,
        '{"equivalent": true}\n',
    ),
    (("equiv", "--lhs", "A x1", "--rhs", "E x1"), 1, "not equivalent\n"),
    (
        ("equiv", "--lhs", "A x1", "--rhs", "E x1", "--json"),
        1,
        '{"equivalent": false}\n',
    ),
    (("closure", "E x1 A x2"), 0, "A x2 E x1\nE x1 A x2\nE x1 E x2\n"),
    (
        ("closure", "E x1 A x2", "--json"),
        0,
        '{"count": 3, "classes": ["A x2 E x1", "E x1 A x2", "E x1 E x2"]}\n',
    ),
    (
        ("census", "--n", "1"),
        0,
        "class_count 2\nedge_count 1\ntrue_pairs 3\ntotal_pairs 4\nprobability 3/4\n",
    ),
    (
        ("census", "--n", "2", "--json"),
        0,
        '{"n": 2, "class_count": 6, "edge_count": 10, "true_pairs": 34, '
        '"total_pairs": 64, "probability": "17/32"}\n',
    ),
]


@pytest.mark.parametrize("argv, code, out", _EXACT)
def test_exact_output_bytes(capsys, argv, code, out):
    assert run(capsys, *argv) == (code, out, "")


# Rejects whose left text is not in sorted name order: the text line names
# the witnessed variable, and the JSON witness gives its index in sorted
# order, not its text position.  The n = 300 left text holds v299 .. v000.
_NAMES = [f"v{k:03d}" for k in range(299, -1, -1)]
_Q4 = "A" * 150 + "E" + "A" * 149
_MOVED = _NAMES[:100] + [_NAMES[200]] + _NAMES[101:200] + [_NAMES[100]] + _NAMES[201:]


def _text(names, quants):
    return " ".join(f"{q} {name}" for q, name in zip(quants, names))


_UNSORTED = [
    # zeta sits at left text position 0 and sorted index 1
    (
        ("E zeta A alpha", "A zeta E alpha"),
        "reject (case 5 at position 0: variable zeta)\n",
        '{"verdict": "reject", "witness": {"case_id": 5, "s2_position": 0, '
        '"variable": 1, "blocking_f": null}}\n',
    ),
    # c: left text position 1, sorted index 2
    (
        ("A d A c E b A a", "A d A a E b A c"),
        "reject (case 4 at position 3: variable c, blocked by existential at 2 in lhs)\n",
        '{"verdict": "reject", "witness": {"case_id": 4, "s2_position": 3, '
        '"variable": 2, "blocking_f": 2}}\n',
    ),
    # the first scan step: v000 is existential at the left text's end
    (
        (_text(_NAMES, "A" * 299 + "E"), _text(_NAMES, "A" * 300)),
        "reject (case 5 at position 299: variable v000)\n",
        '{"verdict": "reject", "witness": {"case_id": 5, "s2_position": 299, '
        '"variable": 0, "blocking_f": null}}\n',
    ),
    # the kernel: v199, at left position 100, moved behind the existential at 150
    (
        (_text(_NAMES, _Q4), _text(_MOVED, _Q4)),
        "reject (case 4 at position 200: variable v199, "
        "blocked by existential at 150 in lhs)\n",
        '{"verdict": "reject", "witness": {"case_id": 4, "s2_position": 200, '
        '"variable": 199, "blocking_f": 150}}\n',
    ),
]


@pytest.mark.parametrize("texts, line, doc", _UNSORTED, ids=["n2", "n4", "n300-first", "n300"])
def test_check_reject_from_unsorted_left_text(capsys, texts, line, doc):
    lhs, rhs = texts
    assert run(capsys, "check", "--lhs", lhs, "--rhs", rhs) == (1, line, "")
    assert run(capsys, "check", "--lhs", lhs, "--rhs", rhs, "--json") == (1, doc, "")


_RANGE_ERROR = "error: n=2 outside the supported range 1..1\n"


@pytest.mark.parametrize(
    "argv, err",
    [
        (
            ("closure", "E x1 A x2", "--max-n", "1"),
            "error: n=2 exceeds the oracle cap 1\n",
        ),
        (("graph", "--n", "2", "--max-n", "1"), _RANGE_ERROR),
        (("census", "--n", "2", "--max-n", "1"), _RANGE_ERROR),
    ],
)
def test_max_n_below_n_exits_3(capsys, argv, err):
    assert run(capsys, *argv) == (3, "", err)


def test_oracle_check_max_n_admits_reflexive_n9(capsys):
    text = " ".join(f"A x{i}" for i in range(1, 10))
    code, out, err = run(
        capsys, "oracle-check", "--lhs", text, "--rhs", text, "--max-n", "9"
    )
    assert (code, out, err) == (0, "true\n", "")


def test_oracle_answers_past_sixteen_variables_with_a_raised_cap(capsys):
    # no variable count overflows a class key: n = 17 is an answer, not exit 3
    text = " ".join(f"A x{i}" for i in range(1, 18))
    assert run(
        capsys, "oracle-check", "--lhs", text, "--rhs", text, "--max-n", "17"
    ) == (0, "true\n", "")
    code, out, err = run(capsys, "closure", text.replace("A", "E"), "--max-n", "17")
    assert (code, out.count("\n"), err) == (0, 1, "")


def _main_outcome(argv):
    """``main``'s exit code, stdout and stderr, with argparse's own exit."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_repeated_main_calls_print_the_same_bytes():
    # ``main`` reuses one parser per process; no call may leave state in it
    # that changes a later call's output, a usage error included.
    calls = [
        ("check", "--lhs", "E x1", "--rhs", "A x1", "--json"),
        ("check", "--lhs", "A x1"),
        ("census", "--n", "2"),
        ("no-such-command",),
        ("canon", "A x2 A x1"),
        ("census", "--n", "0"),
        ("bench", "--sizes", "x"),
        ("--help",),
    ]
    first = [_main_outcome(argv) for argv in calls]
    assert [code for code, _, _ in first] == [1, 2, 0, 2, 0, 2, 2, 0]
    assert "usage: prenex check" in first[1][2]
    assert "bad sizes list 'x'" in first[6][2]
    for _ in range(2):
        assert [_main_outcome(argv) for argv in calls] == first
    assert build_parser() is not build_parser()


# --- module entry point ---------------------------------------------------------


def test_python_m_entry_point():
    proc = run_python("-m", "prenex", "check", "--lhs", "A x1", "--rhs", "E x1", text=True)
    assert proc.returncode == 0
    assert proc.stdout == "accept\n"


def test_usage_error_exits_2():
    proc = run_python("-m", "prenex", "check", "--lhs", "A x1", text=True)
    assert proc.returncode == 2
