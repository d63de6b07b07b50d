#!/usr/bin/env python3
"""High-dimensional overlapping blobs: kernel features vs dual-form PCA.

Both classes are zero-mean 1000-dimensional Gaussians, so every linear
projection of the pair overlaps heavily; they differ only in scale on the
first three axes (tight vs wide).  That difference lives in distances,
not directions, which is exactly what a gaussian kernel picks up and a
covariance eigenbasis cannot.  The linear baseline is ``fit_pca``, which
takes the dual (Gram-matrix) route by itself because the samples are far
fewer than the dimensions.

Runs several seeds, fits a least-squares classifier on nine features from
each method, and reports per-seed and pooled test errors.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from kpca_lab.classify import error_rate, fit_linear  # noqa: E402
from kpca_lab.kernels import KernelSpec  # noqa: E402
from kpca_lab.kpca import fit_kpca, kpca_transform, select_sigma  # noqa: E402
from kpca_lab.pca import fit_pca, pca_project  # noqa: E402

AMBIENT_DIMS = 997
ACTIVE_DIMS = 3
TIGHT_SCALE = 2.0
WIDE_SCALE = 8.0
AMBIENT_SCALE = 0.05


def make_split(seed: int):
    """Draw one train/test split; 30+30 train rows, 20+20 test rows."""
    rng = np.random.default_rng(seed)

    def draw(half):
        plus = np.hstack([TIGHT_SCALE * rng.standard_normal((half, ACTIVE_DIMS)),
                          AMBIENT_SCALE * rng.standard_normal((half, AMBIENT_DIMS))])
        minus = np.hstack([WIDE_SCALE * rng.standard_normal((half, ACTIVE_DIMS)),
                           AMBIENT_SCALE * rng.standard_normal((half, AMBIENT_DIMS))])
        labels = np.concatenate([np.ones(half), -np.ones(half)])
        return np.vstack([plus, minus]), labels

    return draw(30), draw(20)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=5,
                        help="number of independent splits")
    parser.add_argument("--components", type=int, default=9)
    args = parser.parse_args()

    start = time.perf_counter()
    pca_wrong = kpca_wrong = total = 0
    print(f"{'seed':>4}  {'sigma':>8}  {'pca err':>8}  {'kpca err':>8}")
    for seed in range(args.seeds):
        (x_train, y_train), (x_test, y_test) = make_split(seed)

        pmodel = fit_pca(x_train, args.components)
        clf = fit_linear(pca_project(pmodel, x_train), y_train)
        pca_err = error_rate(clf, pca_project(pmodel, x_test), y_test)

        sigma = select_sigma(x_train)
        kmodel = fit_kpca(x_train, KernelSpec.gaussian(sigma), args.components)
        clf = fit_linear(kmodel.training_features, y_train)
        kpca_err = error_rate(clf, kpca_transform(kmodel, x_test), y_test)

        print(f"{seed:>4}  {sigma:8.3f}  {pca_err:8.2%}  {kpca_err:8.2%}")
        pca_wrong += round(pca_err * y_test.size)
        kpca_wrong += round(kpca_err * y_test.size)
        total += y_test.size

    elapsed = time.perf_counter() - start
    print(f"pooled over {total} test points: "
          f"pca {pca_wrong / total:.2%}, kpca {kpca_wrong / total:.2%} "
          f"({elapsed:.2f}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
