"""Run one benchmark workload against the checkout's ``src/prenex``.

    python3 perfbench/run.py --workload decide-accept --seed 1 --seconds 20 --trace 0

One process, one client thread, closed loop: each request starts when the
previous one has been answered and checked.  The run repeats whole passes
over its seeded inputs while another pass fits in ``--seconds`` (always at
least one), then prints a summary and, as its last line, one JSON object.
With ``--trace 0`` that object holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of one traced pass, which runs
each request once untraced and once traced, and the spans are written to
``perfbench/out/``.  Exits 2 without a result when the program is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if __name__ == "__main__":
    sys.path[0] = str(ROOT)

from perfbench import host  # noqa: E402  (imports nothing from prenex)

OUT = ROOT / "perfbench" / "out"
SETUP_PROBES = 7
MIN_PASSES = 3

# Fresh-interpreter probes for setup_s: import prenex, answer one tiny
# request of the workload's kind, exit 0 iff the answer is right.
PROBES = {
    "decide-accept": "from prenex import implies, parse_prefix_pair\n"
    "ok = implies(*parse_prefix_pair('E x0 A x1', 'A x1 E x0')).accepted",
    "decide-reject": "from prenex import implies, parse_prefix_pair\n"
    "ok = not implies(*parse_prefix_pair('E x0 A x1', 'E x1 A x0')).accepted",
    "batch-small": "import contextlib, io\nfrom prenex.cli import main\n"
    "buf = io.StringIO()\nwith contextlib.redirect_stdout(buf):\n"
    "    code = main(['batch', PATH])\n"
    "ok = code == 0 and json.loads(buf.getvalue())['verdict'] == 'accept'",
    "reference": "from prenex import oracle_implies, parse_prefix_pair\n"
    "ok = oracle_implies(*parse_prefix_pair('E x0 A x1', 'A x1 E x0'))",
}

END_TO_END = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "implies_p50_ms": "ms",
    "implies_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "prefix.parse_s": "s",
    "prefix.parse_ns_per_var": "ns",
    "prefix.universe_s": "s",
    "decide.implies_s": "s",
    "decide.ns_per_var": "ns",
    "decide.loop_steps": "count",
    "decide.rescan_steps": "count",
    "decide.steps_per_var": "step/var",
    "decide.steps_per_pair": "step/pair",
    "cli.batch_s": "s",
    "cli.self_s": "s",
    "cli.us_per_record": "us",
    "cli.error_records": "count",
    "oracle.implies_s": "s",
    "oracle.implies_calls": "count",
    "oracle.closure_s": "s",
    "oracle.closure_classes": "count",
    "census.count_pairs_s": "s",
    "census.count_pairs_via_graph_s": "s",
    "census.build_graph_s": "s",
    "census.export_s": "s",
    "census.classes": "count",
    "census.edges": "count",
    "bench.self_s": "s",
    "trace.request_s": "s",
    "trace.untraced_request_s": "s",
    "trace.overhead_s": "s",
}


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class SetupProbe:
    """Fresh interpreters that import prenex and answer one tiny request of
    the workload's kind; spread over the first pass, one every few requests."""

    def __init__(self, workload: str, workdir: Path, requests_per_pass: int) -> None:
        path = workdir / "setup.jsonl"
        path.write_text('{"lhs": "E x0 A x1", "rhs": "A x1 E x0"}\n', encoding="utf-8")
        self.code = (
            f"import json, sys\nsys.path.insert(0, {str(SRC)!r})\nPATH = {str(path)!r}\n"
            f"{PROBES[workload]}\nsys.exit(0 if ok else 1)\n"
        )
        self.due = {(2 * k + 1) * requests_per_pass // (2 * SETUP_PROBES)
                    for k in range(SETUP_PROBES)}
        self.seen = 0
        self.times: list[float] = []
        self.ok = True

    def __call__(self) -> None:
        self.seen += 1
        if self.seen in self.due:
            self.probe()

    def probe(self) -> None:
        before = host.reference_ns()
        t0 = time.perf_counter_ns()
        done = subprocess.run([sys.executable, "-c", self.code], capture_output=True,
                              timeout=120)
        ns = time.perf_counter_ns() - t0
        self.times.append(host.scale(ns, before, host.reference_ns()) / 1e9)
        self.ok = self.ok and done.returncode == 0


def run_passes(workload, tally, seconds: float, after) -> None:
    """Whole passes while the next one is expected to fit; at least
    ``MIN_PASSES``, so that every request is timed that many times at
    moments seconds apart.  ``after`` is called after each request."""
    start = time.perf_counter()
    last = 0.0
    while tally.passes < MIN_PASSES or time.perf_counter() - start + last <= seconds:
        gc.collect()
        t0 = time.perf_counter()
        workload.run_pass(tally, after=after)
        last = time.perf_counter() - t0
        tally.passes += 1


def end_to_end(tally, setup_s: float) -> dict[str, float]:
    """Each request and each ``implies`` timing counts with its best scaled
    time (:mod:`perfbench.host`) over the passes: on a shared machine whose
    speed drifts between levels that last seconds, the best of several
    samples taken seconds apart, each scaled by the host's speed around
    it, moves with the program far more than with the machine."""
    latency = [ns / 1e6 for ns in tally.latency_ns.values()]
    implies_ms = [ns / 1e6 for ns in tally.implies_ns.values()]
    return {
        "throughput_rps": tally.requests / tally.passes / (sum(latency) / 1e3),
        "latency_p50_ms": statistics.median(latency),
        "latency_p90_ms": nearest_rank(latency, 0.9),
        "implies_p50_ms": statistics.median(implies_ms),
        "implies_p90_ms": nearest_rank(implies_ms, 0.9),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, tally) -> dict[str, float]:
    self_ns = tracer.self_ns()
    c = tally.counts

    def sec(name: str) -> float:
        return self_ns.get(name, 0) / 1e9

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    layers_s = sec("prefix.parse") + sec("prefix.universe") + sec("decide.implies")
    traced_ns = tracer.total_ns("request")
    untraced_ns = sum(tally.raw_ns.values())
    steps = c.get("loop_steps", 0) + c.get("rescan_steps", 0)
    return {
        "prefix.parse_s": sec("prefix.parse"),
        "prefix.parse_ns_per_var": ratio(self_ns.get("prefix.parse", 0), c.get("vars", 0)),
        "prefix.universe_s": sec("prefix.universe"),
        "decide.implies_s": sec("decide.implies"),
        "decide.ns_per_var": ratio(self_ns.get("decide.implies", 0), c.get("vars", 0)),
        "decide.loop_steps": c.get("loop_steps", 0),
        "decide.rescan_steps": c.get("rescan_steps", 0),
        "decide.steps_per_var": ratio(steps, c.get("vars", 0)),
        "decide.steps_per_pair": ratio(c.get("loop_steps", 0), c.get("pairs", 0)),
        "cli.batch_s": sec("cli.batch"),
        "cli.self_s": sec("cli.batch") - layers_s if "cli.batch" in self_ns else 0.0,
        "cli.us_per_record": ratio(sec("cli.batch") * 1e6, c.get("records", 0)),
        "cli.error_records": c.get("error_records", 0),
        "oracle.implies_s": sec("oracle.implies"),
        "oracle.implies_calls": c.get("oracle_calls", 0),
        "oracle.closure_s": sec("oracle.closure"),
        "oracle.closure_classes": c.get("closure_classes", 0),
        "census.count_pairs_s": sec("census.count_pairs"),
        "census.count_pairs_via_graph_s": sec("census.count_pairs_via_graph"),
        "census.build_graph_s": sec("census.build_graph"),
        "census.export_s": sec("census.export"),
        "census.classes": c.get("classes", 0),
        "census.edges": c.get("edges", 0),
        "bench.self_s": sec("request"),
        "trace.request_s": traced_ns / 1e9,
        "trace.untraced_request_s": untraced_ns / 1e9,
        "trace.overhead_s": (traced_ns - untraced_ns) / 1e9,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PROBES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "prenex" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'prenex'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import prenex

    if Path(prenex.__file__).resolve().parent != SRC / "prenex":
        print(f"error: imported prenex from {prenex.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from perfbench import workloads
    from perfbench.spans import Tracer

    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        t0 = time.perf_counter()
        workload = workloads.make(args.workload, args.seed, str(workdir))
        # The inputs stay alive all run; keep them out of the collections
        # the program's own allocations set off.
        gc.collect()
        gc.freeze()
        print(f"workload {args.workload} seed {args.seed} inputs {workload.checksum} "
              f"generated in {time.perf_counter() - t0:.1f} s")
        if args.trace:
            tally, tracer = workloads.Tally(), Tracer()
            gc.collect()
            workload.run_pass(tally, tracer)
            values = per_layer(tracer, tally)
            units = PER_LAYER
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.dump(trace_path, {"workload": args.workload, "seed": args.seed,
                                     "inputs": workload.checksum, "metrics": values})
            attempted, failed, problems = tally.attempted, tally.failed, tally.problems
            print(f"traced pass: {len(tracer.spans)} spans written to {trace_path}")
            setup_ok = True
        else:
            tally = workloads.Tally()
            probe = SetupProbe(args.workload, workdir, workload.size)
            run_passes(workload, tally, args.seconds, probe)
            while len(probe.times) < SETUP_PROBES:  # a pass shorter than SETUP_PROBES
                probe.probe()
            setup_ok = probe.ok
            values = end_to_end(tally, statistics.median(probe.times))
            units = END_TO_END
            attempted = tally.attempted + SETUP_PROBES
            failed, problems = tally.failed, tally.problems
            beyond = len(tally.latency_ns) - math.ceil(0.9 * len(tally.latency_ns))
            print(f"{tally.passes} passes, {len(tally.latency_ns)} timed requests "
                  f"({beyond} beyond p90), {len(tally.implies_ns)} implies timings "
                  f"({len(tally.implies_ns) - math.ceil(0.9 * len(tally.implies_ns))} "
                  f"beyond p90), {SETUP_PROBES} setup probes")
            ref = tally.ref_ns
            print(f"host reference loop: {len(ref)} timings, median "
                  f"{statistics.median(ref) / 1e3:.1f} us, best {min(ref) / 1e3:.1f} us; "
                  f"times scaled to {host.REF_NS / 1e3:.1f} us; measured latency p50 "
                  f"{statistics.median(tally.raw_ns.values()) / 1e6:.3f} ms")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not setup_ok:
        failed += 1
        problems.append("setup probe gave a wrong answer")
    for problem in problems[:20]:
        print(f"FAILED {problem}")
    for name, value in values.items():
        print(f"{name:32s} {value:14.6f} {units[name]}")
    print(f"failed_share {failed / max(1, attempted):.6f} ({failed} of {attempted})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
