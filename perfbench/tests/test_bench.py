"""Tests of the benchmark itself: seeded inputs, expected answers, smoke runs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from prenex import implies, oracle_implies, parse_prefix_pair
from perfbench import check, gen, host, run, workloads
from perfbench.spans import Tracer

ROOT = Path(__file__).resolve().parents[2]


def small_decide(name, seed):
    return workloads.Decide(name, seed, requests=8, sizes=(20, 400))


def small_batch(seed, workdir):
    return workloads.BatchSmall(seed, str(workdir), files=3, records=40, bad=3,
                                sizes=(2, 64), implies_records=5)


def small_reference(seed):
    return workloads.Reference(seed, queries=8, n=4, closures=((4, 2), (5, 1)),
                               census=(3, 4))


def test_same_seed_same_inputs(tmp_path):
    for name in ("decide-accept", "decide-reject"):
        assert small_decide(name, 7).checksum == small_decide(name, 7).checksum
        assert small_decide(name, 7).checksum != small_decide(name, 8).checksum
    a, b, c = (tmp_path / d for d in "abc")
    for d in (a, b, c):
        d.mkdir()
    assert small_batch(7, a).checksum == small_batch(7, b).checksum
    assert small_batch(7, a).checksum != small_batch(8, c).checksum
    assert small_reference(7).checksum == small_reference(7).checksum
    assert small_reference(7).checksum != small_reference(8).checksum


@pytest.mark.parametrize("family", sorted(gen.FAMILIES))
def test_family_answers_agree_with_oracle_and_decider(family):
    """The expected answers are right: 600 pairs per family at n <= 6."""
    low = 1 if family in ("move", "burst", "case5") else 2
    sizes = [n for n in range(low, 7) for _ in range(600 // (7 - low))]
    for k, n in enumerate(sizes):
        pair = gen.FAMILIES[family](gen.derive(0, "test", family, k), n)
        s1, s2 = parse_prefix_pair(pair.lhs, pair.rhs)
        assert oracle_implies(s1, s2) == pair.accept, pair
        assert check.verdict_ok(implies(s1, s2), pair), pair


def test_stratified_sizes_cover_the_range():
    sizes = gen.stratified_log_sizes(gen.derive(1, "t"), 100, 1_000, 100_000)
    assert len(sizes) == 100 and min(sizes) >= 1_000 and max(sizes) <= 100_000
    ordered = sorted(sizes)
    assert 8_000 < ordered[49] < 12_500 and 50_000 < ordered[89] < 80_000


def test_class_count_recurrence():
    assert [check.class_count(n) for n in range(1, 7)] == [2, 6, 26, 150, 1082, 9366]


def _run_both(workload):
    untraced = workloads.Tally()
    workload.run_pass(untraced)
    traced, tracer = workloads.Tally(), Tracer()
    workload.run_pass(traced, tracer)
    assert untraced.failed == 0 and traced.failed == 0, untraced.problems + traced.problems
    assert untraced.latency_ns and untraced.implies_ns
    assert len(traced.latency_ns) == len(untraced.latency_ns)
    values = run.per_layer(tracer, traced)
    assert set(values) == set(run.PER_LAYER)
    if "cli.batch" not in tracer.self_ns():  # batch replays outside its request spans
        assert sum(tracer.self_ns().values()) == tracer.total_ns("request")
    return values


def test_smoke_decide_accept():
    values = _run_both(small_decide("decide-accept", 3))
    assert 1.5 < values["decide.steps_per_var"] <= 2.0
    assert values["prefix.parse_s"] > 0 and values["decide.implies_s"] > 0


def test_smoke_decide_reject():
    values = _run_both(small_decide("decide-reject", 3))
    assert values["decide.steps_per_pair"] == 1.0


def test_smoke_batch_small(tmp_path):
    workload = small_batch(3, tmp_path)
    values = _run_both(workload)
    assert values["cli.error_records"] == 3 * 3
    assert values["bench.self_s"] + values["cli.batch_s"] == pytest.approx(
        values["trace.request_s"]
    )
    assert 0 < values["cli.self_s"] < values["cli.batch_s"]


def test_smoke_reference():
    values = _run_both(small_reference(3))
    assert values["oracle.implies_calls"] == 8
    assert values["census.classes"] == check.class_count(4)


def test_scaling_cancels_only_the_host_speed():
    assert host.reference_ns() > 0
    assert host.scale(5_000, host.REF_NS, host.REF_NS) == 5_000
    assert host.scale(5_000, 2 * host.REF_NS, 2 * host.REF_NS) == 2_500


def test_passes_keep_each_request_best_time():
    workload = small_decide("decide-accept", 4)
    tally = workloads.Tally()
    workload.run_pass(tally)
    first = dict(tally.raw_ns)
    workload.run_pass(tally)
    assert tally.failed == 0 and len(tally.raw_ns) == len(workload.pairs)
    assert all(tally.raw_ns[k] <= first[k] for k in first)
    assert len(tally.ref_ns) == 3 * 2 * len(workload.pairs)


def test_checker_catches_a_wrong_answer():
    workload = small_decide("decide-reject", 3)
    bad = workloads.Decide.__new__(workloads.Decide)
    bad.pairs = [p.__class__(p.family, p.n, p.lhs, p.rhs, p.accept, (9, 0, 0, None))
                 for p in workload.pairs]
    tally = workloads.Tally()
    bad.run_pass(tally)
    assert tally.failed == 2 * len(bad.pairs)  # the request and implies alone


def test_benchmark_json_matches_the_runner():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} == set(run.PROBES)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER


def test_exits_without_result_when_program_is_missing(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reference", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
