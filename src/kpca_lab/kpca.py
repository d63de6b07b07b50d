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
the data region.  As one product, g_i = [y, 1] . [a~_i, 1/N], a~ being the
coefficients less their column means.

:func:`kpca_preimages` iterates a batch of rows in one window of slots,
each a row index and that row's weights; the iterates and step counts
live in the result.  When a row finishes, its slot takes the next waiting
row, so the window stays full while rows wait; once none waits, it takes
the row of the last live slot, which then leaves.  The training rows are
prepared once per batch as ``kernels.PreparedRows(spec, x)``, the object
behind every kernel table.  Each step then makes four passes over the
window's rows of N weights: one product gives the exponents
-|z - x_i|^2 / (2 sigma^2) (:meth:`kernels.PreparedRows.raw`, the row
formula the transform and every gaussian kernel table use), ``exp`` runs
in place, the g_i multiply them, and one product with the prepared rows
[x - m, 1], m the training mean, gives the numerator less m and the
denominator together.  The kernel values are those of
``kernel_matrix(spec, z, x)`` except that their exponents are not clamped
at 0.  It returns a :class:`Preimages` record; :func:`kpca_preimage` is its
row 0, and also reports ``"diverged"`` as a status, not as an exception.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .eigen import _solve
from .kernels import KernelSpec, PreparedRows, _data_matrix, _rows, block_rows, gram_with_means

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

    @property
    def training_features(self) -> np.ndarray:
        """The training rows' features from the fit, K~ a_k = N lambda_k a_k: column k
        is their transform to about 1e-12 lambda_0 / lambda_k relative (``sym_eig``)."""
        return self.coefficients * (self.n_samples * self.eigenvalues)


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
    hand both to the unchecked :func:`eigen._solve` for the top ``m``
    eigenpairs of the centred matrix, keep the leading ones with raw
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
    dec = _solve(k, col_means, m)
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
    neither K nor its centered copy is ever held whole.  The queries are
    checked as ``query`` rows of the training width by ``kernels._rows``.
    """
    q = _rows(q, "query", model.n_features)
    a = model.coefficients
    a_bar = a - a.mean(axis=0)
    y = np.empty((q.shape[0], a.shape[1]))
    side = PreparedRows(model.spec, model.training)
    for i0, i1, raw in side.blocks(q):
        np.matmul(side.finish(raw), a_bar, out=y[i0:i1])
        del raw
    y -= model.train_col_means @ a_bar
    return y


def kpca_preimages(
    model: KpcaModel, ys: np.ndarray, cfg: PreimageConfig | None = None
) -> Preimages:
    """Pre-images of the T x M feature rows ``ys`` as a :class:`Preimages` record.

    Every row starts at the training mean.  A row is ``"converged"`` once
    its step norm drops below ``cfg.tolerance``, ``"diverged"`` when its
    gaussian weight mass is lost (``z`` keeps that iterate) and
    ``"max-iterations"`` otherwise.  Each row keeps its own step count, so
    no row's iterations depend on the others.
    Rows are stepped in one window of :func:`kernels.block_rows` slots,
    which keeps each window x N array near 2 MB.  A slot holds its row's
    index and weights; the row's iterate and step count live in the
    returned ``z`` and ``iterations``, which each step reads and writes
    through the slots' row indices.  When a row finishes, its slot takes
    the next waiting row, or, once none waits, the row of the last live
    slot (the highest finished slot first), so the live slots stay a
    prefix and only moved slots are copied.  The training rows are prepared
    once as ``kernels.PreparedRows(model.spec, x)``.  Each step takes the
    window's exponents from one product (:meth:`~kernels.PreparedRows.raw`),
    exponentiates them in place, unclamped, multiplies in the weights, and
    gets the numerator and the denominator from one product with the
    prepared [x - m, 1]; only rows with a valid denominator are divided, and
    the mean m is added back.
    Raises :class:`UnsupportedKernelError` for non-gaussian models; the
    rows are checked as ``feature`` rows of the model's M by
    ``kernels._rows`` before the first step.
    """
    if model.spec.kind != "gaussian":
        raise UnsupportedKernelError(
            f"pre-images are only defined for the gaussian kernel, "
            f"model uses {model.spec.kind!r}"
        )
    cfg = cfg or PreimageConfig()
    ys = _rows(ys, "feature", model.n_components)
    x = model.training
    n, d = x.shape
    side = PreparedRows(model.spec, x)
    a = model.coefficients
    a1 = np.hstack([a - a.mean(axis=0), np.full((n, 1), 1.0 / n)])
    x1 = side.right[:, :d + 1]  # [x - m, 1], m the training mean
    t = ys.shape[0]
    y1 = np.hstack([ys, np.ones((t, 1))])
    z = np.tile(side.shift, (t, 1))  # every row starts at the training mean
    iterations = np.zeros(t, dtype=int)
    status = np.full(t, "max-iterations")
    # The window: slots [0, live) hold rows; rows [queued, t) wait.
    live = queued = min(block_rows(n, d), t)
    slot_row = np.arange(live)
    slot_w = y1[:live] @ a1.T
    while live:
        rows = slot_row[:live]
        z_live = z[rows]
        w = side.raw(z_live)
        np.exp(w, out=w)
        w *= slot_w[:live]
        nd = w @ x1
        del w  # so a refill's weights are the only other window x N array
        iterations[rows] += 1
        num, denom = nd[:, :d], nd[:, d]
        ok = np.isfinite(denom) & (np.abs(denom) >= _DENOM_FLOOR)
        np.divide(num, denom[:, None], out=num, where=ok[:, None])
        num += side.shift
        sq = num - z_live
        sq *= sq
        done = np.sqrt(sq.sum(axis=1)) < cfg.tolerance  # the step norm
        done &= ok
        z[rows[ok]] = num[ok]
        ended = (~ok | done | (iterations[rows] == cfg.max_iterations)).nonzero()[0]
        if not ended.size:
            continue
        status[rows[~ok]] = "diverged"
        status[rows[done]] = "converged"
        k = min(ended.size, t - queued)
        refill = ended[:k]
        slot_row[refill] = np.arange(queued, queued + k)
        slot_w[refill] = y1[queued:queued + k] @ a1.T
        queued += k
        for j in ended[k:][::-1]:  # the other finished slots, highest first
            live -= 1
            for s in (slot_row, slot_w):
                s[j] = s[live]
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
    so duplicate rows contribute zero distance.  Neighbors are the argmax of
    the raw blocks of ``kernels.PreparedRows(KernelSpec.gaussian(1.0), x)``,
    -1/2 times the squared distances, unclamped because clamping would turn
    near-duplicate rows into index ties; each distance is then recomputed
    from the explicit difference x_i - x_j, so it carries no cancellation
    error and a duplicate's is exactly 0.
    """
    x = _data_matrix(x)
    nearest = np.empty(x.shape[0], dtype=np.intp)
    for i0, i1, e in PreparedRows(KernelSpec.gaussian(1.0), x).blocks(x):
        rows = np.arange(i0, i1)
        e[rows - i0, rows] = -np.inf
        nearest[i0:i1] = e.argmax(axis=1)
    diff = x[nearest]
    diff -= x
    diff *= diff
    return 5.0 * float(np.sqrt(diff.sum(axis=1)).mean())
