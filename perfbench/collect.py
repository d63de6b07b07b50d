#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's median and spread.

    python3 perfbench/collect.py --seeds 1-10 [--workloads tall-fit] [--write FILE]

Each run is ``perfbench/run.py`` in its own process, one at a time, with the
``run_seconds`` of ``BENCHMARK.json``.  The spread of a metric is the
distance between the first and third quartile of its values
(``statistics.quantiles(values, n=4)``) as a share of their median; the
table marks an end-to-end spread above a third of the metric's bound.
``--write`` saves the values, summaries and the environment of the first
run as JSON (``perfbench/baseline.json`` holds the first baseline).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from make_reference import parse_seeds
from run import HERE, OUT_DIR, ROOT


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result["elapsed_s"] = elapsed
    return result


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", help="save values and summaries to this JSON file")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"seconds": args.seconds, "seeds": args.seeds, "trace": args.trace,
              "workloads": {}}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        elapsed = []
        counts: dict[str, list[int]] = {"attempted": [], "failed": []}
        for seed in parse_seeds(args.seeds):
            result = run_once(workload, seed, args.seconds, args.trace)
            elapsed.append(result["elapsed_s"])
            for key, per_run in counts.items():
                per_run.append(result[key])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: {result['elapsed_s']:.1f} s, "
                  f"{result['failed']} failed of {result['attempted']}", flush=True)
        summary = {name: summarize(v) for name, v in values.items()}
        report["workloads"][workload] = {"values": values, "summary": summary,
                                         "run_elapsed_s": elapsed, **counts}
        for name, s in summary.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and s["spread"] > bound / 3:
                flag = f"  spread above bound/3 = {bound / 3:.3f}"
            print(f"  {name:40s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f}{flag}")
    if args.write:
        first = args.workloads.split(",")[0]
        record = OUT_DIR / f"{first}-seed{parse_seeds(args.seeds)[-1]}-trace{args.trace}.json"
        report["environment"] = json.loads(record.read_text())["environment"]
        with open(args.write, "w", encoding="ascii") as fh:
            fh.write(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
