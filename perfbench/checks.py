"""Correctness checks: fingerprint comparison and independent recomputation.

Three layers, all run outside the timed passes:

* ``compare``: a pass fingerprint against another one (the run's first
  pass, or the stored reference for the seed in ``reference.json``).
  Classifier errors, status counts, shapes and exit codes must match
  exactly; eigenvalues, widths and checksums within a relative tolerance.
* ``independent_*``: recompute what a fingerprint claims with plain numpy,
  not with the package: the width heuristic, the top centred-Gram
  eigenvalues (``eigvalsh``), PCA eigenvalues, classifier error rates
  (``lstsq``) and the fixed-point property of converged pre-images.  These
  hold for any seed, including seeds with no stored reference.

Each check returns a list of failure messages; an empty list means pass.
"""

from __future__ import annotations

import numpy as np

# Relative tolerances, as a share of the reference value (of the largest
# value for eigenvalue lists).
EIGEN_RTOL = 1e-8
SIGMA_RTOL = 1e-9
# Converged pre-images stop once a step is below 1e-9; a change in
# arithmetic order may stop one step earlier or later.
CHECKSUM_RTOL = 1e-7
# A converged pre-image z must satisfy |T(z) - z| <= this * (1 + |z|).
FIXED_POINT_RTOL = 1e-6


def _rtol_for(key: str) -> float | None:
    """Tolerance for a fingerprint key; None means exact equality."""
    if key.endswith("eigenvalues"):
        return EIGEN_RTOL
    if key == "sigma":
        return SIGMA_RTOL
    if key.endswith("checksum"):
        return CHECKSUM_RTOL
    return None


def _rel_err(got, expected) -> float | None:
    """Largest difference as a share of the largest expected magnitude."""
    got = np.atleast_1d(np.asarray(got, dtype=float))
    expected = np.atleast_1d(np.asarray(expected, dtype=float))
    if got.shape != expected.shape:
        return None
    scale = max(float(np.abs(expected).max(initial=0.0)), 1e-300)
    return float(np.abs(got - expected).max(initial=0.0)) / scale


def compare(got: dict, ref: dict, label: str) -> list[str]:
    problems = []
    for key in sorted(set(got) | set(ref)):
        if key not in got or key not in ref:
            problems.append(f"{label}: key {key!r} only in "
                            f"{'result' if key in got else 'reference'}")
            continue
        a, b = got[key], ref[key]
        rtol = _rtol_for(key)
        if rtol is None:
            if a != b:
                problems.append(f"{label}: {key} = {a!r}, expected {b!r}")
            continue
        err = _rel_err(a, b)
        if err is None:
            problems.append(f"{label}: {key} has shape {np.shape(a)}, expected {np.shape(b)}")
        elif not err <= rtol:
            problems.append(f"{label}: {key} differs by {err:.3e} (relative), "
                            f"tolerance {rtol:.0e}")
    return problems


def sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d2 = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :] - 2.0 * (a @ b.T)
    return np.maximum(d2, 0.0)


def nn_sigma(x: np.ndarray) -> float:
    d2 = sq_dists(x, x)
    np.fill_diagonal(d2, np.inf)
    return 5.0 * float(np.sqrt(d2.min(axis=1)).mean())


def top_kpca_eigenvalues(x: np.ndarray, sigma: float, m: int) -> np.ndarray:
    k = np.exp(-sq_dists(x, x) / (2.0 * sigma**2))
    r = k.mean(axis=1)
    k -= r[:, None]
    k -= r[None, :]
    k += r.mean()
    w = np.linalg.eigvalsh(k)[::-1][:m]
    return w / x.shape[0]


def _close(label: str, got, expected, rtol: float) -> list[str]:
    err = _rel_err(got, expected)
    if err is None:
        return [f"{label}: shape {np.shape(got)}, recomputed {np.shape(expected)}"]
    if not err <= rtol:
        return [f"{label}: differs from recomputed value by {err:.3e} (relative)"]
    return []


def check_error_rate(label: str, error: float, feats: np.ndarray, labels: np.ndarray,
                     train_feats: np.ndarray | None = None,
                     train_labels: np.ndarray | None = None) -> list[str]:
    """Recompute a least-squares classifier's error rate by ``lstsq``.

    Rows whose score is within 1e-8 of the largest score magnitude may fall
    either way under a different solver, so the rates may differ by at most
    that many rows.
    """
    if train_feats is None:
        train_feats, train_labels = feats, labels
    a = np.hstack([train_feats, np.ones((train_feats.shape[0], 1))])
    w, *_ = np.linalg.lstsq(a, train_labels, rcond=None)
    scores = np.hstack([feats, np.ones((feats.shape[0], 1))]) @ w
    pred = np.where(scores >= 0.0, 1, -1)
    wrong = int(np.sum(pred != labels))
    ambiguous = int(np.sum(np.abs(scores) <= 1e-8 * np.abs(scores).max()))
    reported = round(error * labels.shape[0])
    if abs(reported - wrong) > ambiguous or abs(error * labels.shape[0] - reported) > 1e-6:
        return [f"{label}: error {error!r} ({reported} rows), recomputed {wrong} rows"]
    return []


def independent_tall(fp: dict, out: dict) -> list[str]:
    x, y = out["x"], out["y"]
    m = len(fp["kpca_eigenvalues"])
    problems = _close("sigma", fp["sigma"], nn_sigma(x), SIGMA_RTOL)
    problems += _close("kpca_eigenvalues", fp["kpca_eigenvalues"],
                       top_kpca_eigenvalues(x, fp["sigma"], m), EIGEN_RTOL)
    xc = x - x.mean(axis=0)
    cov = xc.T @ xc / x.shape[0]
    problems += _close("pca_eigenvalues", fp["pca_eigenvalues"],
                       np.maximum(np.linalg.eigvalsh(cov)[::-1][:m], 0.0), EIGEN_RTOL)
    problems += check_error_rate("kpca_train_error", fp["kpca_train_error"],
                                 out["kfeats"], y)
    problems += check_error_rate("pca_train_error", fp["pca_train_error"],
                                 out["pfeats"], y)
    return problems


def independent_wide(fp: dict, out: dict) -> list[str]:
    x, y, xt, yt = out["x"], out["y"], out["xt"], out["yt"]
    m = len(fp["kpca_eigenvalues"])
    problems = _close("sigma", fp["sigma"], nn_sigma(x), SIGMA_RTOL)
    problems += _close("kpca_eigenvalues", fp["kpca_eigenvalues"],
                       top_kpca_eigenvalues(x, fp["sigma"], m), EIGEN_RTOL)
    xc = x - x.mean(axis=0)
    dual = np.linalg.eigvalsh(xc @ xc.T)[::-1][:m] / x.shape[0]
    problems += _close("pca_eigenvalues", fp["pca_eigenvalues"], dual, EIGEN_RTOL)
    # The PCA errors depend on the dual basis, which is checked through its
    # eigenvalues above; the kernel errors are recomputed from the features.
    problems += check_error_rate("kpca_train_error", fp["kpca_train_error"],
                                 out["kfeats"], y)
    problems += check_error_rate("kpca_test_error", fp["kpca_test_error"],
                                 out["kfeats_test"], yt, out["kfeats"], y)
    return problems


def independent_cli(fp: dict, out: dict) -> list[str]:
    x, y, feats, z, converged = (out[k] for k in ("x", "y", "kfeats", "z", "converged"))
    coefficients, training, width = out["coefficients"], out["training"], out["width"]
    m = len(fp["kpca_eigenvalues"])
    problems = _close("sigma", fp["sigma"], nn_sigma(x), SIGMA_RTOL)
    problems += _close("kpca_eigenvalues", fp["kpca_eigenvalues"],
                       top_kpca_eigenvalues(x, fp["sigma"], m), EIGEN_RTOL)
    problems += check_error_rate("train_error", fp["train_error"], feats, y)

    status = fp["preimage_status"]
    if sum(status.values()) != x.shape[0]:
        problems.append(f"preimage: {sum(status.values())} report rows for {x.shape[0]} inputs")
    failures = status["diverged"] + status["max-iterations"]
    if (fp["preimage_exit"] != 0) != (failures > 0):
        problems.append(f"preimage: exit {fp['preimage_exit']} with {failures} failed rows")
    if np.isnan(z[converged]).any():
        problems.append("preimage: a converged row has no pre-image")

    # Fixed point of z <- sum_i w_i x_i / sum_i w_i with the centring-adjusted
    # weights of the kpca module docstring.
    zc = z[converged]
    gamma = feats[converged] @ coefficients.T
    g = gamma - gamma.mean(axis=1, keepdims=True) + 1.0 / x.shape[0]
    w = g * np.exp(-sq_dists(zc, training) / (2.0 * width**2))
    t = (w @ training) / w.sum(axis=1, keepdims=True)
    resid = np.linalg.norm(t - zc, axis=1) / (1.0 + np.linalg.norm(zc, axis=1))
    if resid.size and not resid.max() <= FIXED_POINT_RTOL:
        problems.append(f"preimage: converged row {int(np.argmax(resid))} is not a "
                        f"fixed point (relative residual {resid.max():.3e})")
    return problems


INDEPENDENT = {
    "tall-fit": independent_tall,
    "wide-fit": independent_wide,
    "cli-quickstart": independent_cli,
}
