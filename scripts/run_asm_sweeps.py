#!/usr/bin/env python3
"""Render shape-model sweeps of the bundled face corpus as SVG strips.

Fits a point-distribution model and a gaussian-kernel feature model to the
landmark corpus, walks the leading features of each, reconstructs faces
along the walk (kernel features via fixed-point pre-images), and writes
one SVG per step plus a per-feature displacement summary.  Output lands in
<out>/<method>_feature_<k>/step_NN.svg, NN = 01, 02, ... as in the CLI.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from kpca_lab.kernels import KernelSpec  # noqa: E402
from kpca_lab.kpca import fit_kpca, select_sigma  # noqa: E402
from kpca_lab.shapes import (  # noqa: E402
    BIOID_20_ROLES,
    KPCA_SWEEP_C,
    SWEEP_COMPONENTS,
    SWEEP_STEPS,
    fit_shape_model,
    normalize_shapes,
    read_pts,
    render_face_svg,
    sweep_kpca_feature,
    sweep_pca_feature,
)


def write_strip(out_dir: Path, steps: list[np.ndarray]) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, shape in enumerate(steps, start=1):
        svg = render_face_svg(shape, BIOID_20_ROLES)
        (out_dir / f"step_{i:02d}.svg").write_text(svg)


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
                        help="retained components per model")
    parser.add_argument("--c", type=float, default=KPCA_SWEEP_C,
                        help="kernel sweep half-width in feature deviations")
    args = parser.parse_args()

    shapes = normalize_shapes(
        [read_pts(p) for p in sorted(args.pts_dir.glob("*.pts"))])
    print(f"{len(shapes)} shapes from {args.pts_dir}")

    pdm = fit_shape_model(shapes, args.m)
    x = np.vstack(shapes)
    sigma = select_sigma(x)
    kpm = fit_kpca(x, KernelSpec.gaussian(sigma), args.m)
    print(f"gaussian sigma: {sigma:.4f}")

    for k in range(1, args.features + 1):
        pca_steps = sweep_pca_feature(pdm, k, args.steps)
        write_strip(args.out / f"pca_feature_{k}", pca_steps)

        kpca_steps = sweep_kpca_feature(kpm, k, args.c, args.steps)
        write_strip(args.out / f"kpca_feature_{k}", kpca_steps)

        gap = max(float(np.abs(a - b).max())
                  for a, b in zip(pca_steps, kpca_steps))
        print(f"feature {k}: max landmark displacement between methods {gap:.4f}")

    print(f"wrote {2 * args.features * args.steps} faces under {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
