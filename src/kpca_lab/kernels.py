"""Kernel specs, kernel tables, and Gram centering.

Kernel PCA needs two kinds of kernel table: the N x N table of the
training rows with themselves, and the T x N rows of other points against
them.  :func:`kernel_matrix` builds either.  Both come from
:class:`PreparedRows`, the one place that knows how a table's rows are
made: it decides once whether they are squared distances (the gaussian
kernel) or dot products (the linear and polynomial kernels), prepares the
right-hand rows for that, and owns the left factor, the raw product, the
finishing and the loop over row blocks.  Raw rows have one formula,
:meth:`PreparedRows.raw`, one product of :meth:`PreparedRows.left` with the
prepared rows: self tables, cross tables, the transform, the width
heuristic and every pre-image step take their rows from it.

Every table is built in blocks of :func:`block_rows` rows, about 2 MB
each, and every elementwise step (clamp, gaussian ``exp``, polynomial
offset and power) runs on a block while it is still in cache.  A caller
that contracts each block, as the transform does, never holds the T x N
table.

Self tables, all built by :func:`gram_with_means`, take each stripe of
rows against the rows from its own on, written in place.  The stripe's
diagonal block is averaged with its transpose and the rest is mirrored by
copy, so the table is exactly symmetric by construction, and every later
step is elementwise.

Every public function of the package that takes a matrix of rows (here
both operands of :func:`kernel_matrix` and the centring inputs) checks it
with :func:`_rows`: any layout is read as C-ordered float64 rows, so
equal values give equal bits, and the first row with a NaN or +-inf entry
is named in a ``ValueError``.
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


def _rows(x: np.ndarray, what: str, width: int | None = None) -> np.ndarray:
    """``x`` as C-ordered float64 rows: the one check of every public input of rows.

    It must be 2-D, with ``width`` columns when that is given, and every
    entry finite; the error names the first row with a NaN or +-inf entry
    as ``"{what} row i"``.  Every layout of the same values gives the same
    rows, so the same bits downstream.
    """
    x = np.ascontiguousarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"{what} matrix must be 2-D, got shape {x.shape}")
    if width is not None and x.shape[1] != width:
        raise ValueError(f"{what} rows have {x.shape[1]} columns, expected {width}")
    finite = np.isfinite(x).all(axis=1)
    if not finite.all():
        raise ValueError(f"{what} row {int(finite.argmin())} has non-finite entries")
    return x


def _data_matrix(x: np.ndarray) -> np.ndarray:
    # The rows every fit and the width heuristic read: at least two of them.
    x = _rows(x, "data")
    if x.shape[0] < 2:
        raise ValueError(f"need at least 2 samples, got {x.shape[0]}")
    return x


# Entries per block temporary (2 MB of float64).  A block of rows that each
# meet n rows of dimension d takes _BLOCK_ENTRIES // max(n, d) of them, at
# least one, so its n-wide and d-wide temporaries both stay within this size.
_BLOCK_ENTRIES = 1 << 18


def block_rows(n: int, d: int) -> int:
    """Rows per block for rows that each meet ``n`` rows of dimension ``d``."""
    return max(1, _BLOCK_ENTRIES // max(n, d, 1))


class PreparedRows:
    """The rows ``b`` prepared once as the right-hand side of kernel rows.

    The raw rows of ``a`` are one product, ``left(a) @ right.T``.  The one
    decision of this module is taken here, once: whether they are scaled
    squared distances c |a - b|^2 (gaussian, c = -1/(2 sigma^2)) or dot
    products (linear, polynomial).  For distances the rows are shifted by
    their mean ``shift``, which leaves distances unchanged and removes the
    cancellation of |a|^2 + |b|^2 - 2ab for data far from the origin, and
    ``right`` is laid out once as the C-order N x (D + 2) buffer
    [b - m, 1, |b - m|^2].  For dot products ``right`` is ``b`` itself.

    :func:`kernel_matrix` and the transform prepare ``b`` once per call and
    finish each of its :meth:`blocks`; :func:`gram_with_means` writes the
    product of :meth:`left` of a stripe with ``right`` into its table; the
    pre-image fixed point prepares the training rows once per batch, calls
    :meth:`raw` at every step and reads [b - m, 1] from ``right``; the width
    heuristic reads the raw, unclamped gaussian exponents of unit width.
    """

    def __init__(self, spec: KernelSpec, b: np.ndarray):
        self.spec = spec
        self.right = b
        if spec.kind == "gaussian":
            self._scale = -1.0 / (2.0 * spec.width**2)
            self.shift = b.mean(axis=0)
            d = b.shape[1]
            self.right = np.empty((b.shape[0], d + 2))
            b = np.subtract(b, self.shift, out=self.right[:, :d])
            self.right[:, d] = 1.0
            np.einsum("ij,ij->i", b, b, out=self.right[:, d + 1])

    def left(self, a: np.ndarray) -> np.ndarray:
        """Left factor of the raw rows of ``a``: ``a`` itself for dot products, and for
        distances the fresh [-2c (a - m), c |a - m|^2, c], m being the ``shift``."""
        if self.spec.kind != "gaussian":
            return a
        c = self._scale
        a = a - self.shift
        left = np.empty((a.shape[0], a.shape[1] + 2))
        np.multiply(a, -2.0 * c, out=left[:, :-2])
        left[:, -2] = c * np.einsum("ij,ij->i", a, a)
        left[:, -1] = c
        return left

    def raw(self, a: np.ndarray) -> np.ndarray:
        """Raw rows of ``a`` against ``b``, ``left(a) @ right.T``, a fresh array.

        Distances are not clamped: where a row of ``a`` sits on a row of
        ``b`` an entry can take the wrong sign at rounding size, which
        :meth:`finish` clamps.
        """
        return self.left(a) @ self.right.T

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
        step = block_rows(self.right.shape[0], a.shape[1])
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
    into its slice of the table.  Both operands are checked by
    :func:`_rows` as ``a`` and ``b``; ``b`` must have the width of ``a``.
    """
    same = a is b
    a = _rows(a, "a")
    if same:
        return gram_with_means(spec, a)[0]
    b = _rows(b, "b", a.shape[1])
    side = PreparedRows(spec, b)
    out = np.empty((a.shape[0], b.shape[0]))
    for i0, i1, raw in side.blocks(a):
        out[i0:i1] = side.finish(raw)
        del raw
    return out


def gram_with_means(spec: KernelSpec, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kernel table of the rows ``x`` with themselves, and its row means.

    The table is the only N x N array.  Each stripe of :func:`block_rows`
    rows [i0, i1) is one product of ``PreparedRows(spec, x)``, written into
    ``out[i0:i1, i0:]``.  Its diagonal block gets a zero diagonal for
    distances and is halved and added to its transpose, so it is exactly
    symmetric (halved first, so no entry the table can hold overflows);
    the stripe is finished in place, a zero exponent to exactly 1, and
    mirrored below the diagonal.  Its row means, taken then, are the column
    means of the symmetric table, all that a fitted model keeps of it.
    Its callers check ``x`` with :func:`_rows`, so it is not checked here.
    """
    x = np.ascontiguousarray(x, dtype=float)
    side = PreparedRows(spec, x)
    n = x.shape[0]
    out = np.empty((n, n))
    means = np.empty(n)
    step = block_rows(*x.shape)
    for i0 in range(0, n, step):
        i1 = min(i0 + step, n)
        stripe = out[i0:i1, i0:]
        np.matmul(side.left(x[i0:i1]), side.right[i0:].T, out=stripe)
        block = stripe[:, :i1 - i0]
        if spec.kind == "gaussian":
            np.fill_diagonal(block, 0.0)
        block *= 0.5
        block += block.T
        side.finish(stripe)
        out[i1:, i0:i1] = stripe[:, i1 - i0:].T
        out[i0:i1].mean(axis=1, out=means[i0:i1])
    return out, means


def center_gram(k: np.ndarray) -> np.ndarray:
    """Center a square kernel matrix so the implicit features have zero mean.

    Equivalent to K - J K - K J + J K J with J the all-1/N matrix; computed
    via row/column means.  Output rows and columns sum to ~0 and the result
    is symmetric to rounding.  The result is the only N x N array allocated.

    Reference form: :func:`kpca.fit_kpca` hands its uncentred table and row
    means to ``eigen._solve``, which on its ``eigh`` path applies these
    operations in place, in this order, bit-identically, and on its block
    Lanczos path applies them to each product as a rank-2 term.
    """
    k = _rows(k, "k")
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
    col_means = np.asarray(col_means, dtype=float)
    if col_means.ndim != 1:
        raise ValueError(
            f"col_means must be 1-D, got shape {col_means.shape}"
        )
    k_test = _rows(k_test, "k_test", col_means.shape[0])
    grand = col_means.mean()
    row_means = k_test.mean(axis=1)
    return k_test - col_means[None, :] - row_means[:, None] + grand
