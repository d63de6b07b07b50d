"""Standard PCA fit/project/reconstruct, plus the dual form for D >> N.

The sample covariance uses the 1/N normalization, so the variance of the
k-th projected training coordinate equals the k-th eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigen import sym_eig
from .kernels import KernelSpec, _data_matrix, kernel_matrix

# Relative cutoff below which a dual-Gram eigenvalue counts as zero rank.
_RANK_RTOL = 1e-12


@dataclass(frozen=True)
class PcaModel:
    """Mean vector, orthonormal basis columns (D x M), descending eigenvalues."""

    mean: np.ndarray
    basis: np.ndarray
    eigenvalues: np.ndarray

    @property
    def n_features(self) -> int:
        return self.basis.shape[0]

    @property
    def n_components(self) -> int:
        return self.basis.shape[1]


def _validate_fit_args(x: np.ndarray, m: int) -> np.ndarray:
    x = _data_matrix(x)
    n, d = x.shape
    if not 1 <= m <= min(n, d):
        raise ValueError(f"components M={m} outside [1, min(N, D)] = [1, {min(n, d)}]")
    return x


def fit_pca(x: np.ndarray, m: int) -> PcaModel:
    """Fit PCA by eigendecomposition of the D x D sample covariance.

    Eigenvalues are the top M of the covariance (tiny negative round-off is
    clamped to zero).  A degenerate dataset (all rows identical) yields a
    model with zero eigenvalues rather than an error.
    """
    x = _validate_fit_args(x, m)
    n = x.shape[0]
    mean = x.mean(axis=0)
    xc = x - mean
    cov = xc.T @ xc / n
    dec = sym_eig(cov)
    values = np.maximum(dec.values[:m], 0.0)
    return PcaModel(mean=mean, basis=dec.vectors[:, :m].copy(), eigenvalues=values)


def fit_pca_dual(x: np.ndarray, m: int) -> PcaModel:
    """Fit PCA through the N x N inner-product matrix of centered rows.

    Same contract as :func:`fit_pca` (identical eigenvalues and basis up to
    the shared sign convention); intended for D > N where the covariance
    itself is too large.  Components whose Gram eigenvalue is numerically
    zero get eigenvalue 0 and a deterministic orthonormal completion vector,
    which keeps the basis orthonormal at full M.
    """
    x = _validate_fit_args(x, m)
    n, d = x.shape
    mean = x.mean(axis=0)
    xc = x - mean
    gram = kernel_matrix(KernelSpec.linear(), xc, xc)
    dec = sym_eig(gram)
    raw = dec.values
    cutoff = _RANK_RTOL * max(raw[0], 0.0)
    basis = np.zeros((d, m))
    values = np.zeros(m)
    degenerate = []
    for k in range(m):
        if raw[k] > cutoff:
            u = xc.T @ dec.vectors[:, k]
            u /= np.linalg.norm(u)
            lead = np.argmax(np.abs(u))
            if u[lead] < 0.0:
                u = -u
            basis[:, k] = u
            values[k] = raw[k] / n
        else:
            degenerate.append(k)
    for k in degenerate:
        basis[:, k] = _complete_column(basis, k)
    return PcaModel(mean=mean, basis=basis, eigenvalues=values)


def _complete_column(basis: np.ndarray, k: int) -> np.ndarray:
    # First canonical vector with a non-trivial residual against the columns
    # filled so far, orthonormalized; deterministic by construction.
    d = basis.shape[0]
    for j in range(d):
        u = np.zeros(d)
        u[j] = 1.0
        u -= basis @ (basis.T @ u)
        norm = np.linalg.norm(u)
        if norm > 0.5:
            return u / norm
    raise RuntimeError("could not complete orthonormal basis")


def pca_project(model: PcaModel, x: np.ndarray) -> np.ndarray:
    """Project one D-vector (or a T x D batch) onto the principal components.

    The model mean is subtracted first, so projecting the mean gives zeros.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != model.n_features:
        raise ValueError(
            f"expected {model.n_features} features, got {x.shape[-1]}"
        )
    return (x - model.mean) @ model.basis


def pca_reconstruct(model: PcaModel, y: np.ndarray) -> np.ndarray:
    """Map an M-vector of component weights (or a T x M batch) back to data space."""
    y = np.asarray(y, dtype=float)
    if y.shape[-1] != model.n_components:
        raise ValueError(
            f"expected {model.n_components} components, got {y.shape[-1]}"
        )
    return y @ model.basis.T + model.mean
