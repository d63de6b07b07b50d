"""Kernel PCA: fit, out-of-sample transform, Gaussian pre-images, width selection.

Fitting solves the centered-Gram eigenproblem K~ a = (N lambda) a and rescales
each coefficient vector so the implicit feature-space eigenvector has unit
norm: lambda * N * (a.a) = 1.  Components whose raw Gram eigenvalue is
numerically zero are dropped, so the number of retained components can be
smaller than requested.

Pre-images exist only for the gaussian kernel, via the fixed-point iteration,
started at the training mean,

    z <- sum_i w_i(z) x_i / sum_i w_i(z),
    w_i(z) = g_i * exp(-|z - x_i|^2 / (2 sigma^2)).

Because fitting centers the Gram matrix, the plain coefficient weights
gamma_i = sum_k y_k a_ki are adjusted to g_i = gamma_i - mean(gamma) + 1/N;
this accounts for the implicit feature mean and keeps pre-images anchored to
the data region.

:func:`kpca_preimages` iterates a batch of rows; the training rows are
prepared once per batch as ``kernels.PreparedRows(spec, x)``, the object
behind every kernel table.  Each step then makes five passes over its rows
of N weights: one product gives the exponents -|z - x_i|^2 / (2 sigma^2)
(:meth:`kernels.PreparedRows.raw`, the row formula the transform and every
gaussian kernel table use), ``exp`` runs in place, the g_i multiply them, a
product with x gives the numerator and a product with the ones vector the
denominator.  The kernel values are those of ``kernel_matrix(spec, z, x)``
except that their exponents are not clamped at 0.  It returns a
:class:`Preimages` record; :func:`kpca_preimage` is its row 0, and also
reports ``"diverged"`` as a status, not as an exception.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .eigen import _solve
from .kernels import KernelSpec, PreparedRows, _data_matrix, block_rows, gram_with_means

# Components with raw centered-Gram eigenvalue <= DROP_RTOL * largest are
# treated as numerically zero and dropped.
DROP_RTOL = 1e-10

# Below this denominator magnitude the fixed-point step is meaningless:
# every gaussian weight has underflowed or cancelled.
_DENOM_FLOOR = 1e-300


class UnsupportedKernelError(ValueError):
    """Raised when an operation needs a kernel kind the model does not have."""


@dataclass(frozen=True)
class KpcaModel:
    """Retained training data plus normalized dual coefficients.

    ``coefficients`` is N x M with column k holding a_k; ``eigenvalues`` are
    the lambda_k of the eigenproblem (raw Gram eigenvalue / N), descending.
    ``train_col_means`` holds the N column means of the uncentered training
    kernel matrix, all that centering out-of-sample rows needs; the N x N
    Gram itself is not kept.
    """

    training: np.ndarray
    spec: KernelSpec
    coefficients: np.ndarray
    eigenvalues: np.ndarray
    train_col_means: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.training.shape[0]

    @property
    def n_features(self) -> int:
        return self.training.shape[1]

    @property
    def n_components(self) -> int:
        return self.coefficients.shape[1]


@dataclass(frozen=True)
class PreimageConfig:
    """Controls for the fixed-point iteration, which starts at the training mean.

    ``max_iterations`` is an integral step budget per row, stored as an
    int; ``tolerance`` is on the Euclidean step norm.
    """

    max_iterations: int = 1000
    tolerance: float = 1e-9

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.max_iterations % 1:
            raise ValueError(f"max_iterations must be integral, got {self.max_iterations}")
        object.__setattr__(self, "max_iterations", int(self.max_iterations))
        if not 0.0 < self.tolerance < np.inf:
            raise ValueError(f"tolerance must be finite and > 0, got {self.tolerance}")


class Preimages(NamedTuple):
    """Pre-images of T feature rows: T x D ``z``, T step counts, T statuses.

    A status is ``"converged"``, ``"diverged"`` or ``"max-iterations"``;
    :func:`kpca_preimage` holds one row: a D-vector, an int and a str.
    """

    z: np.ndarray
    iterations: np.ndarray
    status: np.ndarray


def fit_kpca(x: np.ndarray, spec: KernelSpec, m: int) -> KpcaModel:
    """Fit kernel PCA with up to ``m`` components.

    Steps: build the kernel matrix and its column means
    (:func:`kernels.gram_with_means`), reject it if a row mean is not finite,
    center it in place in one pass of row blocks (the operations of
    :func:`kernels.center_gram` in its order, so the result is bit-identical,
    but with no second N x N array), solve for its top ``m`` eigenpairs by
    the unchecked :func:`eigen._solve`, keep the leading ones with raw
    eigenvalue above the cutoff, and rescale each eigenvector alpha_k (unit
    norm from the solver) to a_k = alpha_k / sqrt(raw_k) so that
    lambda_k * N * |a_k|^2 = 1.  The coefficients are stored C-contiguous,
    the layout a loaded model has, so both transform bit-identically.

    Identical data points are legal: the centered Gram is then zero and the
    model simply retains no components.
    """
    x = _data_matrix(x)
    n = x.shape[0]
    if not 1 <= m <= n:
        raise ValueError(f"components M={m} outside [1, N] = [1, {n}]")
    k, col_means = gram_with_means(spec, x)
    if not np.isfinite(col_means).all():
        raise ValueError(f"kernel matrix row {np.isfinite(col_means).argmin()} is not finite")
    grand = col_means.mean()
    step = block_rows(n, n)
    for i0 in range(0, n, step):
        blk = k[i0:i0 + step]
        blk -= col_means[i0:i0 + step, None]
        blk -= col_means
        blk += grand
    dec = _solve(k, m)
    raw = dec.values
    if not np.isfinite(raw).all():  # the centring overflowed
        raise ValueError("centred kernel matrix is not finite")
    cutoff = DROP_RTOL * max(raw[0], 0.0)
    r = int(np.count_nonzero(raw[:m] > cutoff))
    coeffs = np.ascontiguousarray(dec.vectors[:, :r] / np.sqrt(raw[:r]))
    values = raw[:r] / n
    return KpcaModel(
        training=x.copy(),
        spec=spec,
        coefficients=coeffs,
        eigenvalues=values,
        train_col_means=col_means,
    )


def kpca_transform(model: KpcaModel, q: np.ndarray) -> np.ndarray:
    """Kernel principal components of query rows, as a T x M matrix.

    With K the T x N kernel rows of the queries against the training set,
    c the training Gram's column means and mu their mean, the centered
    block of :func:`kernels.center_cross` is K - 1 c^T - r 1^T + mu 1 1^T,
    r being each query row's kernel mean.  That block maps the ones vector
    to 0, so its product with the coefficients a equals its product with
    the centered coefficients a~ = a - mean(a), and there the r and mu terms
    vanish:

        K~ a = K a~ - 1 (c.a~).

    The training rows are prepared once as ``kernels.PreparedRows(spec, x)``,
    and K a~ is computed one finished block of its rows at a time, so
    neither K nor its centered copy is ever held whole.  Raises
    ``ValueError`` naming the first query row with a non-finite entry.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim != 2:
        raise ValueError(f"query matrix must be 2-D, got shape {q.shape}")
    if q.shape[1] != model.n_features:
        raise ValueError(
            f"expected {model.n_features} features, got {q.shape[1]}"
        )
    bad = ~np.isfinite(q).all(axis=1)
    if bad.any():
        raise ValueError(f"query row {int(bad.argmax())} has non-finite entries")
    a = model.coefficients
    a_bar = a - a.mean(axis=0)
    y = np.empty((q.shape[0], a.shape[1]))
    side = PreparedRows(model.spec, model.training)
    # C-ordered query rows, so every layout of q gives the same features.
    for i0, i1, raw in side.blocks(np.ascontiguousarray(q)):
        np.matmul(side.finish(raw), a_bar, out=y[i0:i1])
        del raw
    y -= model.train_col_means @ a_bar
    return y


def preimage_weights(model: KpcaModel, y: np.ndarray) -> np.ndarray:
    """Centering-adjusted pre-image weights for a feature vector or T x M rows.

    gamma_i = sum_k y_k a_ki, shifted by -mean(gamma) + 1/N to account for
    the centered fit (see module docstring); one row of N weights per row of
    ``y``, or N weights for a vector.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim not in (1, 2) or y.shape[-1] != model.n_components:
        raise ValueError(
            f"expected {model.n_components} feature values per row, "
            f"got shape {y.shape}"
        )
    gamma = y @ model.coefficients.T
    return gamma - gamma.mean(axis=-1, keepdims=True) + 1.0 / model.n_samples


def kpca_preimages(
    model: KpcaModel, ys: np.ndarray, cfg: PreimageConfig | None = None
) -> Preimages:
    """Pre-images of the T x M feature rows ``ys`` as a :class:`Preimages` record.

    Every row starts at the training mean.  A row is ``"converged"`` once
    its step norm drops below ``cfg.tolerance``, ``"diverged"`` when its
    gaussian weight mass is lost (``z`` keeps that iterate) and
    ``"max-iterations"`` otherwise.  Finished rows leave the batch, so no
    row's iterations depend on the others.
    Rows run in chunks of :func:`kernels.block_rows`, which keeps each
    chunk x N temporary near 2 MB.  The training rows are prepared once as
    ``kernels.PreparedRows(model.spec, x)``.  Each step takes the chunk's
    exponents from one product (:meth:`~kernels.PreparedRows.raw`),
    exponentiates them in place, unclamped, and multiplies in the weights;
    products with x and with the ones vector then give the numerator and
    the denominator.  They stay two products: at N = 1000 and D = 3, one
    product with [x, 1] leaves OpenBLAS's small-matrix path and touches
    about 0.4 MB more of each BLAS thread's buffer.
    Raises :class:`UnsupportedKernelError` for non-gaussian models and
    ``ValueError`` naming the first feature row with a non-finite entry.
    """
    if model.spec.kind != "gaussian":
        raise UnsupportedKernelError(
            f"pre-images are only defined for the gaussian kernel, "
            f"model uses {model.spec.kind!r}"
        )
    cfg = cfg or PreimageConfig()
    ys = np.asarray(ys, dtype=float)
    if ys.ndim != 2:
        raise ValueError(f"feature rows must be 2-D, got shape {ys.shape}")
    bad = ~np.isfinite(ys).all(axis=1)
    if bad.any():
        raise ValueError(f"feature row {int(bad.argmax())} has non-finite entries")
    x = model.training
    side = PreparedRows(model.spec, x)
    ones = np.ones(x.shape[0])
    t = ys.shape[0]
    z = np.tile(x.mean(axis=0), (t, 1))
    iterations = np.zeros(t, dtype=int)
    status = np.full(t, "max-iterations")
    chunk = block_rows(*x.shape)
    for c0 in range(0, t, chunk):
        active = np.arange(c0, min(c0 + chunk, t))
        weights = preimage_weights(model, ys[active])
        for iteration in range(1, cfg.max_iterations + 1):
            z_active = z[active]
            w = side.raw(z_active)
            np.exp(w, out=w)
            w *= weights
            num = w @ x
            denom = w @ ones
            iterations[active] = iteration
            ok = np.isfinite(denom) & (np.abs(denom) >= _DENOM_FLOOR)
            if not ok.all():
                status[active[~ok]] = "diverged"
                active, weights, z_active, num, denom = (
                    v[ok] for v in (active, weights, z_active, num, denom))
            z_next = num / denom[:, None]
            done = np.linalg.norm(z_next - z_active, axis=1) < cfg.tolerance
            z[active] = z_next
            status[active[done]] = "converged"
            active, weights = active[~done], weights[~done]
            if not active.size:
                break
    return Preimages(z, iterations, status)


def kpca_preimage(
    model: KpcaModel, y: np.ndarray, cfg: PreimageConfig | None = None
) -> Preimages:
    """Pre-image of the feature vector ``y``: row 0 of :func:`kpca_preimages`."""
    z, iterations, status = kpca_preimages(model, np.reshape(y, (1, -1)), cfg)
    return Preimages(z[0], int(iterations[0]), str(status[0]))


def select_sigma(x: np.ndarray) -> float:
    """Gaussian width heuristic: 5 x mean nearest-neighbor distance.

    The nearest neighbor of row i is the closest row with a different index,
    so duplicate rows contribute zero distance.  Neighbors are found on the
    raw squared-distance blocks of ``kernels.PreparedRows(None, x)``,
    unclamped because clamping would turn near-duplicate rows into index
    ties; each distance is then recomputed from the explicit difference
    x_i - x_j, so it carries no cancellation error and a duplicate's is
    exactly 0.
    """
    x = _data_matrix(x)
    nearest = np.empty(x.shape[0], dtype=np.intp)
    for i0, i1, d2 in PreparedRows(None, x).blocks(x):
        rows = np.arange(i0, i1)
        d2[rows - i0, rows] = np.inf
        nearest[i0:i1] = d2.argmin(axis=1)
    diff = x[nearest]
    diff -= x
    diff *= diff
    return 5.0 * float(np.sqrt(diff.sum(axis=1)).mean())
