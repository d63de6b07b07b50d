#!/usr/bin/env python3
"""Benchmark for kpca-lab: one workload per process, end-to-end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload tall-fit --seed 42 --seconds 20 --trace 0

Workloads (see ``workloads.py`` for why each was chosen): ``tall-fit``,
``wide-fit``, ``cli-quickstart``.  The process is a single closed-loop
client: it runs one pass of the workload after another, with no package
threads (``KPCA_LAB_THREADS`` is removed) and BLAS threads capped at the
CPU count, until the timed passes add up to ``--seconds`` (at least three
passes, and at least one per dataset of the workload).  Inputs come from
``--seed`` only, and so do ``attempted`` and ``failed``: they count the
operations of each dataset once.

``--trace 0`` prints every end-to-end metric with its unit.  ``--trace 1``
alternates untraced and traced passes on the same inputs, prints the
per-layer metrics of the traced passes (``<module>.<function>.<quantity>``)
and the tracing overhead, and writes the spans to ``.perfbench-out/``.

Every pass is checked (``checks.py``) against the first pass, against the
stored reference for the seed in ``reference.json`` where there is one, and
against an independent numpy recomputation.  A mismatch prints the problems,
reports ``"correct": false`` with no metrics, and exits 1.  The last line of
standard output is the JSON result; a fuller record, with the environment,
goes to ``.perfbench-out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
WORK_DIR = ROOT / ".perfbench-work"

SETUP_REPEATS = 5
MIN_PASSES = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROGRAM_THREADS_VAR = "KPCA_LAB_THREADS"

# The metrics that go into the JSON result line (and BENCHMARK.json).  The
# end-to-end set is the one every workload has; the per-layer set keeps the
# times every workload spends and the counts, which may be 0.  Everything
# else is printed and written to the result file only.
END_TO_END = {"setup_s": "s", "wall_s": "s", "fit_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "eigen.sym_eig.s": "s",
    "eigen.sym_eig.calls": "count",
    "eigen.sym_eig.order": "count",
    "kernels.kernel_matrix.s": "s",
    "kernels.kernel_matrix.calls": "count",
    "kernels.kernel_matrix.entries": "count",
    "kernels.kernel_matrix.flops_computed": "count",
    "kernels.center_gram.s": "s",
    "kernels.center_cross.s": "s",
    "kpca.select_sigma.s": "s",
    "kpca.fit_kpca.self_s": "s",
    "kpca.kpca_transform.self_s": "s",
    "kpca.kpca_preimage.calls": "count",
    "kpca.kpca_preimage.iterations": "count",
    "kpca.kpca_preimage.converged": "count",
    "kpca.kpca_preimage.diverged": "count",
    "kpca.kpca_preimage.max_iterations": "count",
    "util.parallel_map.items": "count",
    "model_io.bytes": "B",
    "data.read_csv_matrix.bytes": "B",
    "data.write_csv_matrix.bytes": "B",
    "classify.fit_linear.s": "s",
    "classify.error_rate.s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def cap_threads() -> dict:
    """Remove the package thread setting and cap BLAS threads at the CPU count.

    Must run before numpy is imported.  Returns the values found.
    """
    ncpu = len(os.sched_getaffinity(0))
    found = {var: os.environ.get(var) for var in BLAS_THREAD_VARS + (PROGRAM_THREADS_VAR,)}
    os.environ.pop(PROGRAM_THREADS_VAR, None)
    for var in BLAS_THREAD_VARS:
        try:
            ok = 1 <= int(os.environ[var]) <= ncpu
        except (KeyError, ValueError):
            ok = False
        if not ok:
            os.environ[var] = str(ncpu)
    return found


def environment(found: dict) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads_found": found,
        "threads_used": {v: os.environ.get(v) for v in
                         BLAS_THREAD_VARS + (PROGRAM_THREADS_VAR,)},
    }


def import_workloads():
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    return workloads


def setup_probe(name: str, seed: int) -> None:
    """Time import plus input generation in this fresh process."""
    t0 = time.perf_counter()
    workloads = import_workloads()
    workloads.WORKLOADS[name].make_inputs(seed, ROOT)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def measure_setup(name: str, seed: int) -> list[float]:
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def tail(samples: list[float]):
    """Highest whole percentile with at least 10 samples beyond it, or None."""
    n = len(samples)
    if n <= 10:
        return None
    pct = math.floor(100.0 * (1.0 - 10.0 / n))
    if pct < 50:
        return None
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return pct, cuts[pct - 1]


def layer_metrics(summary: dict) -> dict[str, float]:
    """Flatten one pass's per-name span summary into named quantities."""
    out: dict[str, float] = {}
    for name, entry in summary.items():
        out[f"{name}.s"] = entry["s"]
        out[f"{name}.self_s"] = entry["self_s"]
        out[f"{name}.calls"] = entry["calls"]
        for key, value in entry["counts"].items():
            out[f"{name}.{key}"] = value
    rows = summary.get("kpca.kpca_preimage", {}).get("durations", [])
    if rows:
        out["kpca.kpca_preimage.row_ms_p50"] = 1000.0 * statistics.median(rows)
        row_tail = tail(rows)
        if row_tail is not None:
            out[f"kpca.kpca_preimage.row_ms_p{row_tail[0]}"] = 1000.0 * row_tail[1]
            out["kpca.kpca_preimage.row_ms_tail"] = 1000.0 * row_tail[1]
    out["model_io.bytes"] = (out.get("model_io.save_model.bytes", 0)
                             + out.get("model_io.load_model.bytes", 0))
    return out


def median_over(dicts: list[dict[str, float]]) -> dict[str, float]:
    keys = sorted(set().union(*dicts))
    return {k: statistics.median([d.get(k, 0) for d in dicts]) for k in keys}


def unit_of(metric: str) -> str:
    if metric in PER_LAYER:
        return PER_LAYER[metric]
    if metric.endswith("_ms") or "_ms_" in metric:
        return "ms"
    if metric.endswith(".s") or metric.endswith("_s"):
        return "s"
    if metric.endswith("bytes"):
        return "B"
    return "count"


def run(args, found: dict) -> int:
    workloads = import_workloads()
    from checks import INDEPENDENT, compare
    from spans import Tracer, summarize

    wl = workloads.WORKLOADS[args.workload]
    reference = {}
    ref_path = HERE / "reference.json"
    if ref_path.exists():
        reference = json.loads(ref_path.read_text())

    setup_samples = measure_setup(args.workload, args.seed)
    inputs = wl.make_inputs(args.seed, ROOT)
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None

    min_passes = max(MIN_PASSES, wl.datasets)
    passes = []          # untraced passes
    traced = []          # (pass result, per-layer quantities) of traced passes
    overhead = []        # traced minus untraced wall time, per pair
    kept = []            # (label, fingerprint, outputs) for the checks
    problems: list[str] = []
    measured = 0.0
    index = 0
    try:
        # A traced run ends on a traced pass, so every untraced pass has its pair.
        while (measured < args.seconds or len(passes) < min_passes
               or (args.trace and index % 2 == 1)):
            data_index = (index // 2 if args.trace else index) % wl.datasets
            trace_this = bool(args.trace) and index % 2 == 1
            if trace_this:
                first = len(tracer.spans)
                tracer.install()
                try:
                    with tracer.span("pass"):
                        res = wl.run_pass(inputs, data_index, ROOT, work)
                finally:
                    tracer.uninstall()
                quantities = layer_metrics(summarize(tracer.spans, first, len(tracer.spans)))
                traced.append((res, quantities))
                overhead.append(res.wall - passes[-1].wall)
            else:
                res = wl.run_pass(inputs, data_index, ROOT, work)
                passes.append(res)
            measured += res.wall
            index += 1
            if wl.collect is not None:
                wl.collect(res, work)
            if trace_this:
                # Same inputs as the untraced pass before it.
                problems += compare(res.fingerprint, passes[-1].fingerprint,
                                    f"traced pass {len(traced) - 1} vs untraced")
                continue
            if data_index < len(kept):
                problems += compare(res.fingerprint, kept[data_index][1],
                                    f"pass {len(passes) - 1} vs pass {data_index}")
            else:
                kept.append((f"pass {len(passes) - 1}", res.fingerprint, res.outputs))
            res.outputs = {}
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    corpus_ref = reference.get("cli-corpus")
    for label, fp, outputs in kept:
        own = {k: v for k, v in fp.items() if not k.startswith("sweep")}
        ref = reference.get(args.workload, {}).get(str(fp.get("data_seed", args.seed)))
        if ref is not None:
            problems += compare(own, ref, f"{label} vs reference")
        if corpus_ref is not None and args.workload == "cli-quickstart":
            sweeps = {k: v for k, v in fp.items() if k.startswith("sweep")}
            problems += compare(sweeps, corpus_ref, f"{label} sweeps vs reference")
        problems += [f"{label}: {p}" for p in INDEPENDENT[args.workload](fp, outputs)]

    # Operations are counted once per dataset, so a seed always gives the
    # same counts however many passes fit in the time; the repeats were
    # checked equal to the first pass on their dataset.
    attempted = sum(p.attempted for p in passes[:wl.datasets])
    failed = sum(p.failed for p in passes[:wl.datasets])
    env = environment(found)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env,
              "fingerprints": [fp for _, fp, _ in kept], "problems": problems,
              "attempted": attempted, "failed": failed}
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}"
          + (f" untraced + {len(traced)} traced" if args.trace else ""))
    print("environment " + json.dumps(env, sort_keys=True))

    if problems:
        for p in problems:
            print(f"MISMATCH {p}")
        write_record(args, record)
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1

    walls = [p.wall for p in passes]
    metrics: dict[str, float] = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(walls),
        "fit_s": statistics.median(p.fit for p in passes),
        "peak_rss_mb": peak_rss_mb,
    }
    if passes[0].transform is not None:
        metrics["transform_s"] = statistics.median(p.transform for p in passes)
    if passes[0].preimage is not None:
        metrics["preimage_s"] = statistics.median(p.preimage for p in passes)
        metrics["preimage_rows_per_s"] = statistics.median(
            p.preimage_rows / p.preimage for p in passes)
    wall_tail = tail(walls)
    fail_frac = failed / attempted

    if args.trace:
        layers = median_over([q for _, q in traced])
        layers["trace.wall_s"] = statistics.median(r.wall for r, _ in traced)
        layers["trace.untraced_wall_s"] = statistics.median(walls)
        layers["trace.overhead_s"] = statistics.median(overhead)
        for name in sorted(layers):
            print(f"{name:48s} {layers[name]:>16.6g} {unit_of(name)}")
        missing = set(PER_LAYER) - set(layers)
        for name in missing:
            layers[name] = 0
        spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json"
        tracer.dump(spans_path)
        print(f"spans written to {spans_path.relative_to(ROOT)}")
        record["per_layer"] = layers
        result = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        units = {"setup_s": "s", "wall_s": "s", "fit_s": "s", "transform_s": "s",
                 "preimage_s": "s", "preimage_rows_per_s": "1/s", "peak_rss_mb": "MB"}
        for name, value in metrics.items():
            print(f"{name:24s} {value:>14.6g} {units[name]}")
        if wall_tail is None:
            print(f"{'wall_tail_s':24s} {'n/a':>14s} s   (n={len(walls)} passes; no "
                  f"percentile has 10 passes beyond it; max {max(walls):.6g} s)")
        else:
            print(f"{'wall_tail_s':24s} {wall_tail[1]:>14.6g} s   "
                  f"(p{wall_tail[0]} of n={len(walls)} passes)")
        print(f"{'fail_frac':24s} {fail_frac:>14.6g}     ({failed} failed of "
              f"{attempted} attempted)")
        record["end_to_end"] = {**metrics, "fail_frac": fail_frac,
                                "wall_tail_s": wall_tail, "setup_samples": setup_samples,
                                "passes": [{"wall": p.wall, "fit": p.fit,
                                            "transform": p.transform,
                                            "preimage": p.preimage} for p in passes]}
        result = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()}
    write_record(args, record)
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


def write_record(args, record: dict) -> None:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="ascii")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("tall-fit", "wide-fit", "cli-quickstart"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    missing = [p for p in ("src/kpca_lab/__init__.py", "data/landmarks")
               if not (ROOT / p).exists()]
    if missing:
        print(f"error: not a kpca-lab checkout, missing {', '.join(missing)} "
              f"under {ROOT}", file=sys.stderr)
        return 2
    found = cap_threads()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    return run(args, found)


if __name__ == "__main__":
    sys.exit(main())
