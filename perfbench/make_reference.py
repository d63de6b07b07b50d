#!/usr/bin/env python3
"""Regenerate ``perfbench/reference.json``: one untimed pass per workload and seed.

    python3 perfbench/make_reference.py --seeds 0-31,42 --label <commit>

For ``cli-quickstart`` the key is the data seed of pass 0, which is the seed
itself; the sweeps of the bundled landmark corpus do not depend on the seed
and are stored once under ``cli-corpus``.  Only rewrite the reference for a
change that is meant to change answers, and say so where the change is
described.
"""

from __future__ import annotations

import argparse
import json
import shutil

from run import HERE, ROOT, WORK_DIR, cap_threads, import_workloads


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-31,42")
    parser.add_argument("--label", required=True, help="commit the reference comes from")
    parser.add_argument("--workloads", default="tall-fit,wide-fit,cli-quickstart")
    args = parser.parse_args()
    cap_threads()
    workloads = import_workloads()

    ref = {"label": args.label}
    work = WORK_DIR / "reference"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name in args.workloads.split(","):
            wl = workloads.WORKLOADS[name]
            table = ref.setdefault(name, {})
            for seed in parse_seeds(args.seeds):
                res = wl.run_pass(wl.make_inputs(seed, ROOT), 0, ROOT, work)
                if wl.collect is not None:
                    wl.collect(res, work)
                fp = res.fingerprint
                table[str(seed)] = {k: v for k, v in fp.items() if not k.startswith("sweep")}
                sweeps = {k: v for k, v in fp.items() if k.startswith("sweep")}
                if sweeps:
                    ref.setdefault("cli-corpus", sweeps)
                print(f"{name} seed {seed}: {table[str(seed)]}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = HERE / "reference.json"
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="ascii")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
