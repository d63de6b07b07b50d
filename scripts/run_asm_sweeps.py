#!/usr/bin/env python3
"""Render shape-model sweeps of the bundled face corpus as SVG strips.

For each of the leading features, runs ``kpca-lab asm-sweep`` once per shape
model: the point-distribution model (``pca``) and the gaussian-kernel feature
model (``kpca``, faces from fixed-point pre-images).  Each run fits its model,
walks the feature and writes <out>/<method>_feature_<k>/ with one SVG per
step (step_01.svg, ...), the swept shapes as shapes.csv and a manifest.json
that records the corpus files and the gaussian width.  The script then prints
the largest landmark displacement between the two strips of each feature.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from kpca_lab.cli import main as kpca_lab  # noqa: E402
from kpca_lab.data import read_csv_matrix  # noqa: E402
from kpca_lab.shapes import KPCA_SWEEP_C, SWEEP_COMPONENTS, SWEEP_STEPS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pts-dir", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "data" / "landmarks")
    parser.add_argument("--out", type=Path, default=Path("out/asm_sweeps"))
    parser.add_argument("--features", type=int, default=3,
                        help="sweep features 1..this")
    parser.add_argument("--steps", type=int, default=SWEEP_STEPS)
    parser.add_argument("--m", type=int, default=SWEEP_COMPONENTS,
                        help="retained components per model, at most the corpus size")
    parser.add_argument("--c", type=float, default=KPCA_SWEEP_C,
                        help="kernel sweep half-width in feature deviations")
    args = parser.parse_args()

    for k in range(1, args.features + 1):
        strips = []
        for method in ("pca", "kpca"):
            out = args.out / f"{method}_feature_{k}"
            status = kpca_lab(["asm-sweep", "--pts-dir", str(args.pts_dir),
                               "--method", method, "--feature", str(k),
                               "--steps", str(args.steps), "--m", str(args.m),
                               "--c", str(args.c), "--out", str(out)])
            if status:
                return status
            strips.append(read_csv_matrix(out / "shapes.csv"))
        gap = float(np.abs(strips[0] - strips[1]).max())
        print(f"feature {k}: max landmark displacement between methods {gap:.4f}")

    print(f"wrote {2 * args.features * args.steps} faces under {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
