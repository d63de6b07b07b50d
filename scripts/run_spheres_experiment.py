#!/usr/bin/env python3
"""Two concentric noisy spheres: gaussian kernel features vs plain PCA.

Generates the synthetic two-sphere dataset, embeds it with both methods,
and fits a least-squares linear classifier on each embedding.  The kernel
map separates the shells with two features while linear PCA, which can
only rotate the input space, stays near chance.  Prints the kernel width,
per-method training error, and timing.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from kpca_lab.classify import error_rate, fit_linear  # noqa: E402
from kpca_lab.data import SpheresParams, gen_two_spheres  # noqa: E402
from kpca_lab.kernels import KernelSpec  # noqa: E402
from kpca_lab.kpca import fit_kpca, select_sigma  # noqa: E402
from kpca_lab.pca import fit_pca, pca_project  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=SpheresParams.n,
                        help="total point count, half per sphere")
    parser.add_argument("--r1", type=float, default=SpheresParams.r1)
    parser.add_argument("--r2", type=float, default=SpheresParams.r2)
    parser.add_argument("--noise", type=float, default=SpheresParams.noise)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--components", type=int, default=2)
    parser.add_argument("--sigma", type=float, default=None,
                        help="kernel width; omitted = nearest-neighbor heuristic")
    args = parser.parse_args()

    start = time.perf_counter()
    ds = gen_two_spheres(SpheresParams(n=args.n, r1=args.r1, r2=args.r2,
                                       noise=args.noise, seed=args.seed))
    x, y = ds.features, ds.labels
    print(f"dataset: {args.n} points, radii {args.r1:g}/{args.r2:g}, "
          f"noise {args.noise:g}, seed {args.seed}")

    sigma = args.sigma if args.sigma is not None else select_sigma(x)
    kmodel = fit_kpca(x, KernelSpec.gaussian(sigma), args.components)
    kfeat = kmodel.training_features
    kpca_err = error_rate(fit_linear(kfeat, y), kfeat, y)

    pmodel = fit_pca(x, args.components)
    pfeat = pca_project(pmodel, x)
    pca_err = error_rate(fit_linear(pfeat, y), pfeat, y)

    elapsed = time.perf_counter() - start
    print(f"gaussian sigma: {sigma:.4f}")
    print(f"kpca  ({args.components} features): train error {kpca_err:6.2%}")
    print(f"pca   ({args.components} features): train error {pca_err:6.2%}")
    print(f"elapsed: {elapsed:.2f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
