"""Kernel evaluation, kernel-matrix construction, and Gram centering.

Every kernel table, and the squared-distance table, is built through
:class:`PreparedRows`, the one place that knows how a table's rows are
made: it decides once whether they are squared distances (the gaussian
kernel and :func:`sq_dists`) or dot products (the linear and polynomial
kernels), prepares the right-hand rows for that, and owns the raw product,
the finishing and the loop over row blocks.

Tables are built in row blocks of :func:`block_rows` rows, about 2 MB
each, and every elementwise step (distance finishing, clamp, gaussian scale
and ``exp``, polynomial offset and power) runs on a block while it is still
in cache, not in separate passes over the whole table.
:func:`kernel_blocks` yields the finished rows of a cross table one block
at a time, so a caller that contracts each block never holds the table.
The pre-image fixed point keeps one :class:`PreparedRows` for the training
rows across its steps and takes its gaussian exponents from
:meth:`PreparedRows.exponents`: one product with a (D + 2) x N operand,
built at the first call so no kernel table holds it, and no pass after it.

Self tables (``kernel_matrix(spec, x, x)``, ``sq_dists(x, x)``) are exactly
symmetric because each is built from one self-product of the prepared rows:
BLAS computes one triangle of it and numpy mirrors that triangle, and
numpy's loop without BLAS sums entry (i, j) in the same order as (j, i).
Every later step is elementwise or adds symmetric terms, so no triangle is
copied by hand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# The KernelSpec fields each kind does not read; construction resets them to
# their defaults.
_UNREAD = {"linear": ("degree", "offset", "width"), "polynomial": ("width",),
           "gaussian": ("degree", "offset")}


@dataclass(frozen=True)
class KernelSpec:
    """Tagged choice of kernel: linear, polynomial (x.y + c)^d, or gaussian.

    Every construction validates the parameters that matter for its kind
    (integral degree >= 1, finite offset >= 0, finite width > 0), stores
    the degree as an int, and resets the fields its kind does not read to
    their defaults, so a spec equals its classmethod form and every field
    fits the model container's header.
    """

    kind: str
    degree: int = 1
    offset: float = 0.0
    width: float = 1.0

    @classmethod
    def linear(cls) -> "KernelSpec":
        return cls(kind="linear")

    @classmethod
    def polynomial(cls, degree: int, offset: float = 0.0) -> "KernelSpec":
        return cls(kind="polynomial", degree=degree, offset=float(offset))

    @classmethod
    def gaussian(cls, width: float) -> "KernelSpec":
        return cls(kind="gaussian", width=float(width))

    def __post_init__(self):
        if self.kind not in _UNREAD:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "polynomial":
            if not self.degree >= 1:
                raise ValueError(f"polynomial degree must be >= 1, got {self.degree}")
            if self.degree % 1:
                raise ValueError(f"polynomial degree must be integral, got {self.degree}")
            if not 0.0 <= self.offset < np.inf:
                raise ValueError(
                    f"polynomial offset must be finite and >= 0, got {self.offset}")
        if self.kind == "gaussian" and not 0.0 < self.width < np.inf:
            raise ValueError(f"gaussian width must be finite and > 0, got {self.width}")
        for name in _UNREAD[self.kind]:
            object.__setattr__(self, name, getattr(KernelSpec, name))
        object.__setattr__(self, "degree", int(self.degree))


def eval_kernel(spec: KernelSpec, x: np.ndarray, y: np.ndarray) -> float:
    """Evaluate the kernel on a single pair of equal-length vectors."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    if spec.kind == "linear":
        return float(x @ y)
    if spec.kind == "polynomial":
        return float((x @ y + spec.offset) ** spec.degree)
    d = x - y
    return float(np.exp(-(d @ d) / (2.0 * spec.width**2)))


def _as_matrix(m: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    return m


def _operands(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # C-contiguous float rows of equal dimension; a self call gets one array
    # back for both, so ``a @ b.T`` stays a self-product.  numpy would copy
    # a layout BLAS cannot read (a column-strided view) once per operand.
    same = a is b
    a = np.ascontiguousarray(_as_matrix(a, "a"))
    b = a if same else np.ascontiguousarray(_as_matrix(b, "b"))
    if a.shape[1] != b.shape[1]:
        raise ValueError(
            f"feature dimension mismatch: {a.shape[1]} vs {b.shape[1]}"
        )
    return a, b


# Entries per block temporary (2 MB of float64).  A block of rows that each
# meet n rows of dimension d takes _BLOCK_ENTRIES // max(n, d) of them, at
# least one, so its n-wide and d-wide temporaries both stay within this size.
_BLOCK_ENTRIES = 1 << 18


def block_rows(n: int, d: int) -> int:
    """Rows per block for rows that each meet ``n`` rows of dimension ``d``."""
    return max(1, _BLOCK_ENTRIES // max(n, d, 1))


class PreparedRows:
    """The rows ``b`` prepared once as the right-hand side of kernel rows.

    ``spec`` None stands for squared distances.  ``dist`` records the one
    decision of this module: whether the raw rows are squared distances
    (``spec`` None or gaussian) or dot products (linear, polynomial).  For
    distances ``rows`` are ``b`` shifted by its mean ``shift``, and
    ``norms`` their squared norms; the left rows are shifted the same way,
    which leaves distances unchanged and removes the cancellation of
    |a|^2 + |b|^2 - 2ab for data far from the origin.  For dot products
    ``rows`` is ``b`` itself.

    :func:`kernel_blocks`, and through it every cross table, prepares ``b``
    once per call; :func:`_self_table` takes the self-product of ``rows``;
    the pre-image fixed point prepares the training rows once per batch and
    calls :meth:`exponents` at every step.
    """

    def __init__(self, spec: KernelSpec | None, b: np.ndarray):
        self.spec = spec
        self.dist = spec is None or spec.kind == "gaussian"
        self._augmented = None
        if self.dist:
            self.shift = b.mean(axis=0)
            b = b - self.shift
            self.norms = np.einsum("ij,ij->i", b, b)
        self.rows = b

    def raw(self, a: np.ndarray) -> np.ndarray:
        """Raw rows of ``a`` against ``b``, a fresh array.

        Unclamped squared distances -2 a b^T + |a|^2 + |b|^2, with ``a``
        shifted as ``b`` was, or the dot products a b^T.  The -2 scales a
        fresh shifted copy of ``a``; scaling by a power of two is exact.
        """
        if not self.dist:
            return a @ self.rows.T
        a = a - self.shift
        norms = np.einsum("ij,ij->i", a, a)
        a *= -2.0
        d2 = a @ self.rows.T
        d2 += norms[:, None]
        d2 += self.norms
        return d2

    def finish(self, raw: np.ndarray) -> np.ndarray:
        """Finish raw rows into kernel rows in place, and return them.

        Squared distances are clamped at 0 and, for the gaussian kernel,
        scaled by -1/(2 sigma^2) and exponentiated; the polynomial kernel
        adds its offset to the dot products and raises them to its degree.
        """
        if self.dist:
            np.maximum(raw, 0.0, out=raw)
            if self.spec is not None:
                raw *= -1.0 / (2.0 * self.spec.width**2)
                np.exp(raw, out=raw)
        elif self.spec.kind == "polynomial":
            raw += self.spec.offset
            raw **= self.spec.degree
        return raw

    def exponents(self, a: np.ndarray) -> np.ndarray:
        """Gaussian exponents c |a_i - b_j|^2, c = -1/(2 sigma^2), a fresh array.

        One product gives them with no pass after it:
        [-2c (a - m), c |a - m|^2, c] [b - m, 1, |b - m|^2]^T, with m the
        mean ``shift``.  The (D + 2) x N right operand is built at the first
        call and kept, so the kernel tables never hold it.  Unlike
        :meth:`finish` this does not clamp: an exponent comes out positive
        only by rounding, where a row of ``a`` sits on a row of ``b``, and
        its ``exp`` is then 1 + O(eps).
        """
        if self._augmented is None:
            self._augmented = np.vstack(
                [self.rows.T, np.ones(self.rows.shape[0]), self.norms])
        c = -1.0 / (2.0 * self.spec.width**2)
        a = a - self.shift
        left = np.empty((a.shape[0], a.shape[1] + 2))
        np.multiply(a, -2.0 * c, out=left[:, :-2])
        left[:, -2] = c * np.einsum("ij,ij->i", a, a)
        left[:, -1] = c
        return left @ self._augmented

    def blocks(self, a: np.ndarray):
        """Yield ``(i0, i1, raw)``: the raw rows of a[i0:i1], a fresh block each.

        Blocks hold :func:`block_rows` rows; the generator keeps no block
        while it computes the next.
        """
        step = block_rows(*self.rows.shape)
        for i0 in range(0, a.shape[0], step):
            i1 = min(i0 + step, a.shape[0])
            yield i0, i1, self.raw(a[i0:i1])


def _self_table(spec: KernelSpec | None, x: np.ndarray,
                row_means: np.ndarray | None = None) -> np.ndarray:
    """Self table of the rows ``x``: squared distances (``spec`` None) or kernel.

    The self-product G of the rows of ``PreparedRows(spec, x)`` is the only
    N x N array.  Each block of :func:`block_rows` rows is then finished in
    place while it is in cache: distances as -2 G_ij + (|x_i|^2 + |x_j|^2),
    a sum of symmetric terms, with their part of the diagonal set to 0,
    then :meth:`PreparedRows.finish`, which keeps a zero distance exactly 0
    and makes it exactly 1 for the gaussian kernel.  The table is exactly
    symmetric.  Given ``row_means``, each finished block's row means are
    written into it there, so the table is not read again for them.
    """
    side = PreparedRows(spec, x)
    out = side.rows @ side.rows.T
    step = block_rows(*x.shape)
    for i0 in range(0, x.shape[0], step):
        blk = out[i0:i0 + step]
        if side.dist:
            blk *= -2.0
            blk += np.add.outer(side.norms[i0:i0 + step], side.norms)
            np.fill_diagonal(blk[:, i0:], 0.0)
        side.finish(blk)
        if row_means is not None:
            blk.mean(axis=1, out=row_means[i0:i0 + step])
    return out


def kernel_blocks(spec: KernelSpec, a: np.ndarray, b: np.ndarray):
    """Yield ``(i0, i1, k)``: finished kernel rows k = kernel(a[i0:i1], b).

    ``b`` is prepared once as :class:`PreparedRows`, and each block of its
    :meth:`~PreparedRows.blocks` is finished in place while it is in cache.
    Each ``k`` is a fresh block temporary; the generator drops its block
    before computing the next, so a caller that does the same keeps only
    one block alive.  ``a`` and ``b`` are treated as different rows even
    when they are the same object; :func:`kernel_matrix` builds the exactly
    symmetric self table.
    """
    a, b = _operands(a, b)
    side = PreparedRows(spec, b)
    for i0, i1, raw in side.blocks(a):
        yield i0, i1, side.finish(raw)
        del raw


def _table(spec: KernelSpec | None, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # The one self/cross dispatch behind kernel_matrix and sq_dists.
    a, b = _operands(a, b)
    if a is b:
        return _self_table(spec, a)
    out = np.empty((a.shape[0], b.shape[0]))
    for i0, i1, k in kernel_blocks(spec, a, b):
        out[i0:i1] = k
        del k
    return out


def sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances: entry [i, j] = |a_i - b_j|^2.

    The ``spec`` None table of :class:`PreparedRows`: both operands are
    shifted by the mean of ``b``, and the result is clamped at 0.  It is
    built as :func:`kernel_matrix` builds a kernel table, so the self case
    (``a is b``) is exactly symmetric with a zero diagonal.
    """
    return _table(None, a, b)


def kernel_matrix(spec: KernelSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise kernel table: entry [i, j] = kernel(a_i, b_j).

    The table is the only N x M array allocated; it is finished in row
    blocks while they are in cache.  When ``a`` and ``b`` are the same
    object the result is exactly symmetric: it is finished from numpy's
    self-product (see :func:`_self_table`), and a gaussian diagonal is
    exactly 1.  Otherwise each finished block of :func:`kernel_blocks` is
    copied into its slice of the table.
    """
    return _table(spec, a, b)


def gram_with_means(spec: KernelSpec, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The self table ``kernel_matrix(spec, x, x)`` and its N row means.

    The table is symmetric, so its row means are its column means, all that
    :class:`kpca.KpcaModel` keeps of a training Gram.  Each block's means
    are taken in the loop that finishes it, while it is in cache.  Fitting
    and model loading both take them from here, so a loaded model's means
    are bit-identical to the fitted one's.
    """
    x = np.ascontiguousarray(_as_matrix(x, "x"))
    means = np.empty(x.shape[0])
    return _self_table(spec, x, means), means


def center_gram(k: np.ndarray) -> np.ndarray:
    """Center a square kernel matrix so the implicit features have zero mean.

    Equivalent to K - J K - K J + J K J with J the all-1/N matrix; computed
    via row/column means.  Output rows and columns sum to ~0 and the result
    is symmetric to rounding.  The result is the only N x N array allocated.

    Reference form: :func:`kpca.fit_kpca` applies the same operations, in
    the same order, in place on its kernel matrix one row block at a time,
    so its result is bit-identical; it does not call this.
    """
    k = _as_matrix(k, "k")
    if k.shape[0] != k.shape[1]:
        raise ValueError(f"center_gram needs a square matrix, got {k.shape}")
    r = k.mean(axis=1)
    m = r.mean()
    kc = k - r[:, None]
    kc -= r[None, :]
    kc += m
    return kc


def center_cross(k_test: np.ndarray, col_means: np.ndarray) -> np.ndarray:
    """Center a T x N test-vs-train kernel block against the training Gram.

    Out-of-sample counterpart of :func:`center_gram`.  ``col_means`` holds
    the N column means of the uncentered training Gram, the only part of it
    the centering reads: they are subtracted from each row, the per-row test
    means are subtracted, and their mean (the training grand mean) is added
    back.  Rows equal to training rows reproduce the corresponding rows of
    the centered training Gram.

    Reference form: :func:`kpca.kpca_transform` folds this centering into
    its product with the coefficients, one block of kernel rows at a time,
    so no T x N block exists there; it does not call this.
    """
    k_test = _as_matrix(k_test, "k_test")
    col_means = np.asarray(col_means, dtype=float)
    if col_means.ndim != 1:
        raise ValueError(
            f"col_means must be 1-D, got shape {col_means.shape}"
        )
    n = col_means.shape[0]
    if k_test.shape[1] != n:
        raise ValueError(
            f"k_test has {k_test.shape[1]} columns, expected {n}"
        )
    grand = col_means.mean()
    row_means = k_test.mean(axis=1)
    return k_test - col_means[None, :] - row_means[:, None] + grand
