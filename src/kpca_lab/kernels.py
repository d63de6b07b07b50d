"""Kernel specs, kernel tables, and Gram centering.

Kernel PCA needs two kinds of kernel table: the N x N table of the
training rows with themselves, and the T x N rows of other points against
them.  :func:`kernel_matrix` builds either.  Both come from
:class:`PreparedRows`, the one place that knows how a table's rows are
made: it decides once whether they are squared distances (the gaussian
kernel) or dot products (the linear and polynomial kernels), prepares the
right-hand rows for that, and owns the raw product, the finishing and the
loop over row blocks.  Distance rows have one formula,
:meth:`PreparedRows.raw`, c |a - b|^2 from one product: cross tables, the
transform, the width heuristic and every pre-image step take their rows
from it.

Cross rows come in blocks of :func:`block_rows` rows, about 2 MB each,
and every elementwise step (clamp, gaussian ``exp``, polynomial offset
and power) runs on a block while it is still in cache.  A caller that
contracts each block, as the transform does, never holds the T x N table.

Self tables, all built by :func:`gram_with_means`, walk their upper
triangle in square tiles, each finished in cache and written with its
transpose, so they are exactly symmetric by construction.  A diagonal tile
is the self-product of its rows: BLAS computes one triangle and numpy
mirrors it (numpy's loop without BLAS sums (i, j) in the order of (j, i)),
and every later step is elementwise or adds symmetric terms.
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
    (integral degree in [1, 2^32 - 1], finite offset >= 0, finite width
    > 0), stores the degree as an int, and resets the fields its kind does
    not read to their defaults, so a spec equals its classmethod form and
    every field fits the model container's header.
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
            if self.degree > 2**32 - 1:
                raise ValueError(f"polynomial degree must be <= 2^32 - 1, got {self.degree}")
            if not 0.0 <= self.offset < np.inf:
                raise ValueError(
                    f"polynomial offset must be finite and >= 0, got {self.offset}")
        if self.kind == "gaussian" and not 0.0 < self.width < np.inf:
            raise ValueError(f"gaussian width must be finite and > 0, got {self.width}")
        for name in _UNREAD[self.kind]:
            object.__setattr__(self, name, getattr(KernelSpec, name))
        object.__setattr__(self, "degree", int(self.degree))


def _as_matrix(m: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    return m


def _data_matrix(x: np.ndarray) -> np.ndarray:
    # The checks every fit and the width heuristic make on their samples.
    x = _as_matrix(x, "data matrix")
    if not np.isfinite(x).all():
        raise ValueError("data matrix contains non-finite entries")
    if x.shape[0] < 2:
        raise ValueError(f"need at least 2 samples, got {x.shape[0]}")
    return x


# Entries per block temporary (2 MB of float64).  A block of rows that each
# meet n rows of dimension d takes _BLOCK_ENTRIES // max(n, d) of them, at
# least one, so its n-wide and d-wide temporaries both stay within this size.
_BLOCK_ENTRIES = 1 << 18


_TILE = 256  # side of the square tiles of a self table (0.5 MB of float64)


def block_rows(n: int, d: int) -> int:
    """Rows per block for rows that each meet ``n`` rows of dimension ``d``."""
    return max(1, _BLOCK_ENTRIES // max(n, d, 1))


class PreparedRows:
    """The rows ``b`` prepared once as the right-hand side of kernel rows.

    ``dist`` records the one decision of this module: whether the raw rows
    are scaled squared distances c |a - b|^2 (gaussian, c = -1/(2 sigma^2),
    or ``spec`` None, c = 1) or dot products (linear, polynomial).  For
    distances the rows are shifted by their mean ``shift``, which leaves
    distances unchanged and removes the cancellation of |a|^2 + |b|^2 - 2ab
    for data far from the origin, and laid out once as the C-order
    N x (D + 2) buffer [b - m, 1, |b - m|^2]: ``rows`` is its first D
    columns and ``norms`` its last, both views, so the products of tiles of
    ``rows`` read the same memory and nothing is copied a second time.
    For dot products ``rows`` is ``b`` itself.

    :func:`kernel_matrix` and the transform prepare ``b`` once per call and
    finish each of its :meth:`blocks`; :func:`gram_with_means` takes
    products of tiles of ``rows``; the pre-image fixed point prepares the
    training rows once per batch and calls :meth:`raw` at every step.
    ``spec`` None gives only the raw, unclamped distance rows that the
    width heuristic reads; there is no kernel to :meth:`finish` them into.
    """

    def __init__(self, spec: KernelSpec | None, b: np.ndarray):
        self.spec = spec
        self.dist = spec is None or spec.kind == "gaussian"
        if self.dist:
            self._scale = 1.0 if spec is None else -1.0 / (2.0 * spec.width**2)
            self.shift = b.mean(axis=0)
            d = b.shape[1]
            self._right = np.empty((b.shape[0], d + 2))
            b = np.subtract(b, self.shift, out=self._right[:, :d])
            self._right[:, d] = 1.0
            self.norms = np.einsum("ij,ij->i", b, b, out=self._right[:, d + 1])
        self.rows = b

    def raw(self, a: np.ndarray) -> np.ndarray:
        """Raw rows of ``a`` against ``b``, a fresh array.

        Scaled distances c |a - b|^2 come from one product with no pass
        after it, [-2c (a - m), c |a - m|^2, c] [b - m, 1, |b - m|^2]^T
        with m the ``shift``.  They are not clamped: where a row of ``a``
        sits on a row of ``b`` an entry can take the wrong sign at rounding
        size, which :meth:`finish` clamps.  Dot products are a b^T.
        """
        if not self.dist:
            return a @ self.rows.T
        c = self._scale
        a = a - self.shift
        left = np.empty((a.shape[0], a.shape[1] + 2))
        np.multiply(a, -2.0 * c, out=left[:, :-2])
        left[:, -2] = c * np.einsum("ij,ij->i", a, a)
        left[:, -1] = c
        return left @ self._right.T

    def finish(self, raw: np.ndarray) -> np.ndarray:
        """Finish raw rows into kernel rows in place, and return them.

        Gaussian exponents are clamped at 0 from above, so rounding cannot
        lift a kernel value past 1, and exponentiated.  The polynomial
        kernel adds its offset to the dot products and raises them to its
        degree; linear rows are already finished.
        """
        if self.spec.kind == "gaussian":
            np.minimum(raw, 0.0, out=raw)
            np.exp(raw, out=raw)
        elif self.spec.kind == "polynomial":
            raw += self.spec.offset
            raw **= self.spec.degree
        return raw

    def blocks(self, a: np.ndarray):
        """Yield ``(i0, i1, raw)``: the raw rows of a[i0:i1], a fresh block each.

        Blocks hold :func:`block_rows` rows; the generator keeps no block
        while it computes the next.
        """
        step = block_rows(*self.rows.shape)
        for i0 in range(0, a.shape[0], step):
            i1 = min(i0 + step, a.shape[0])
            yield i0, i1, self.raw(a[i0:i1])


def kernel_matrix(spec: KernelSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise kernel table: entry [i, j] = kernel(a_i, b_j).

    The table is the only N x M array allocated.  When ``a`` and ``b`` are
    the same object it is the exactly symmetric self table of
    :func:`gram_with_means`, with a gaussian diagonal exactly 1.  Otherwise
    ``b`` is prepared once as :class:`PreparedRows`, and each block of its
    :meth:`~PreparedRows.blocks` of ``a`` is finished in place and copied
    into its slice of the table.  Both operands are read as C-contiguous
    rows, so every layout of the same values gives the same table.
    """
    same = a is b
    a = np.ascontiguousarray(_as_matrix(a, "a"))
    if same:
        return gram_with_means(spec, a)[0]
    b = np.ascontiguousarray(_as_matrix(b, "b"))
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"feature dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    side = PreparedRows(spec, b)
    out = np.empty((a.shape[0], b.shape[0]))
    for i0, i1, raw in side.blocks(a):
        out[i0:i1] = side.finish(raw)
        del raw
    return out


def gram_with_means(spec: KernelSpec, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kernel table of the rows ``x`` with themselves, and its row means.

    The table is the only N x N array.  Each upper tile of it takes the
    product G of two ``_TILE``-row ranges of ``PreparedRows(spec, x)`` (of
    a diagonal tile's rows with themselves) and is finished in cache:
    gaussian exponents as c (-2 G_ij + |x_i|^2 + |x_j|^2), with the c of
    :meth:`PreparedRows.raw` and a zero diagonal on diagonal tiles, then
    :meth:`PreparedRows.finish`, which makes a zero exponent exactly 1; it
    is written with its transpose.  A stripe's row means are taken once it
    is complete, and are the column means of the exactly symmetric table,
    all that a fitted model keeps of it.
    """
    x = np.ascontiguousarray(_as_matrix(x, "x"))
    side = PreparedRows(spec, x)
    n = x.shape[0]
    out = np.empty((n, n))
    means = np.empty(n)
    for i0 in range(0, n, _TILE):
        i1 = min(i0 + _TILE, n)
        r = side.rows[i0:i1]
        for j0 in range(i0, n, _TILE):
            j1 = min(j0 + _TILE, n)
            t = r @ r.T if j0 == i0 else r @ side.rows[j0:j1].T
            if side.dist:
                t *= -2.0
                t += np.add.outer(side.norms[i0:i1], side.norms[j0:j1])
                if j0 == i0:
                    np.fill_diagonal(t, 0.0)
                t *= side._scale
            out[i0:i1, j0:j1] = side.finish(t)
            out[j0:j1, i0:i1] = t.T
        out[i0:i1].mean(axis=1, out=means[i0:i1])
    return out, means


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
