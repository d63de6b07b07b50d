"""PCA fit/project/reconstruct; :func:`fit_pca` takes the dual route for D > N.

The sample covariance uses the 1/N normalization, so the variance of the
k-th projected training coordinate equals the k-th eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigen import _sign_columns, sym_eig
from .kernels import _data_matrix, _rows

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
    """Fit PCA from the D x D sample covariance, or for D > N by :func:`fit_pca_dual`.

    The route is chosen from the shape of ``x``, not by callers; each route
    checks the rows once.  Eigenvalues are the top M of the covariance (tiny
    negative round-off is clamped to zero).  A degenerate dataset (all rows
    identical) yields a model with zero eigenvalues rather than an error.
    """
    shape = np.shape(x)
    if len(shape) == 2 and shape[1] > shape[0]:
        return fit_pca_dual(x, m)
    x = _validate_fit_args(x, m)
    mean = x.mean(axis=0)
    xc = x - mean
    dec = sym_eig(xc.T @ xc / len(x))
    return PcaModel(mean=mean, basis=dec.vectors[:, :m].copy(),
                    eigenvalues=np.maximum(dec.values[:m], 0.0))


def fit_pca_dual(x: np.ndarray, m: int) -> PcaModel:
    """Fit PCA through the N x N Gram ``xc @ xc.T`` of the centred rows.

    :func:`fit_pca` takes this route for D > N, with the same contract.  The
    r eigenvectors above the rank cutoff map to the basis in one product
    ``xc.T @ V[:, :r]``, normalised and signed by the rule of :mod:`eigen`;
    the other M - r components get eigenvalue 0 and a deterministic
    orthonormal completion vector, so the basis stays orthonormal at full M.
    """
    x = _validate_fit_args(x, m)
    n, d = x.shape
    mean = x.mean(axis=0)
    xc = x - mean
    dec = sym_eig(xc @ xc.T)
    raw = dec.values
    r = int(np.count_nonzero(raw[:m] > _RANK_RTOL * max(raw[0], 0.0)))
    lead = xc.T @ dec.vectors[:, :r]
    lead /= np.linalg.norm(lead, axis=0)
    basis = np.hstack([_sign_columns(lead), np.zeros((d, m - r))])
    for k in range(r, m):
        basis[:, k] = _complete_column(basis)
    return PcaModel(mean=mean, basis=basis,
                    eigenvalues=np.append(raw[:r] / n, np.zeros(m - r)))


def _complete_column(basis: np.ndarray) -> np.ndarray:
    # The first canonical vector e_j whose residual e_j - B B^T e_j against the
    # columns B filled so far (B^T e_j is row j of B) has norm > 0.5, normalized.
    for j in range(basis.shape[0]):
        u = -(basis @ basis[j])
        u[j] += 1.0
        norm = np.linalg.norm(u)
        if norm > 0.5:
            return u / norm
    raise RuntimeError("could not complete orthonormal basis")


def pca_project(model: PcaModel, x: np.ndarray) -> np.ndarray:
    """Project T x D ``query`` rows (or one D-vector, to an M-vector) onto the components.

    The model mean is subtracted first, so projecting the mean gives zeros.
    """
    q = _rows(np.atleast_2d(x), "query", model.n_features)
    y = (q - model.mean) @ model.basis
    return y[0] if np.ndim(x) == 1 else y


def pca_reconstruct(model: PcaModel, y: np.ndarray) -> np.ndarray:
    """Map T x M ``weight`` rows (or one M-vector) of component weights to data space."""
    b = _rows(np.atleast_2d(y), "weight", model.n_components)
    x = b @ model.basis.T + model.mean
    return x[0] if np.ndim(y) == 1 else x
