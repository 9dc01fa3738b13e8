"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --workloads decide-accept,reference --seeds 1-10
    python3 perfbench/spread.py --seeds 301-310 --json perfbench/out/set1.json

For every workload and end-to-end metric this prints the median of the runs
and the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, the
figure each metric's ``bound`` in ``BENCHMARK.json`` is compared with.
Runs are made one after another, never side by side.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in doc["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--seconds", type=int, default=doc["run_seconds"])
    parser.add_argument("--json", help="also write the runs and summaries here")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    seeds = seed_list(args.seeds)
    report = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            t0 = time.perf_counter()
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
                 str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            wall = time.perf_counter() - t0
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if done.returncode != 0 or not result["correct"]:
                print(done.stdout, done.stderr, file=sys.stderr)
                return 1
            values = {name: m["value"] for name, m in result["metrics"].items()}
            runs.append({"seed": seed, "wall_s": round(wall, 1), "metrics": values})
            print(f"{workload} seed {seed} {wall:5.1f} s  "
                  + "  ".join(f"{k}={v:.4g}" for k, v in values.items()), flush=True)
        metrics = {name: summary([r["metrics"][name] for r in runs]) for name in bounds}
        for name, s in metrics.items():
            flag = "" if s["spread"] <= bounds[name] / 3 else "  above bound/3"
            print(f"{workload:14s} {name:16s} median {s['median']:12.6g} "
                  f"spread {s['spread']:.3f} (bound {bounds[name]}){flag}")
        report["workloads"][workload] = {"runs": runs, "metrics": metrics}
    if args.json:
        Path(args.json).parent.mkdir(parents=True, exist_ok=True)
        Path(args.json).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
