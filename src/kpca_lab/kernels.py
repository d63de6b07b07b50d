"""Kernel evaluation, kernel-matrix construction, and Gram centering.

Kernel tables are built in row blocks of :func:`block_rows` rows, about
2 MB each, and every elementwise step (distance finishing, clamp, gaussian
scale and ``exp``, polynomial offset and power) runs on a block while it is
still in cache, not in separate passes over the whole table.
:func:`kernel_blocks` yields the finished rows of a cross table one block
at a time, so a caller that contracts each block never holds the table.

Self tables (``kernel_matrix(spec, x, x)``, ``sq_dists(x, x)``) are exactly
symmetric because each is built from one self-product ``x @ x.T``: BLAS
computes one triangle of it and numpy mirrors that triangle, and numpy's
loop without BLAS sums entry (i, j) in the same order as (j, i).  Every
later step is elementwise or adds symmetric terms, so no triangle is
copied by hand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class KernelSpec:
    """Tagged choice of kernel: linear, polynomial (x.y + c)^d, or gaussian.

    Use the classmethod constructors; they validate the parameters that
    matter for each kind (degree >= 1, finite offset >= 0, finite width > 0).
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
        if degree < 1:
            raise ValueError(f"polynomial degree must be >= 1, got {degree}")
        if not 0.0 <= offset < np.inf:
            raise ValueError(f"polynomial offset must be finite and >= 0, got {offset}")
        return cls(kind="polynomial", degree=int(degree), offset=float(offset))

    @classmethod
    def gaussian(cls, width: float) -> "KernelSpec":
        if not 0.0 < width < np.inf:
            raise ValueError(f"gaussian width must be finite and > 0, got {width}")
        return cls(kind="gaussian", width=float(width))

    def __post_init__(self):
        if self.kind not in ("linear", "polynomial", "gaussian"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")


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


def sq_dist_blocks(a: np.ndarray, b: np.ndarray):
    """Yield ``(i0, i1, d2)``: unclamped squared distances of a[i0:i1] to b.

    Both operands are shifted by the mean of ``b`` first; distances do not
    change, and the shift removes the cancellation of |a|^2 + |b|^2 - 2ab
    for data far from the origin.  ``b`` is shifted once and ``a`` one block
    at a time.  Each ``d2`` is a fresh block temporary; a caller that drops
    it before asking for the next block keeps only one alive at a time.
    """
    shift = b.mean(axis=0)
    b = b - shift
    nb = np.einsum("ij,ij->i", b, b)
    step = block_rows(*b.shape)
    for i0 in range(0, a.shape[0], step):
        i1 = min(i0 + step, a.shape[0])
        a_blk = a[i0:i1] - shift
        d2 = a_blk @ b.T
        d2 *= -2.0
        d2 += np.einsum("ij,ij->i", a_blk, a_blk)[:, None]
        d2 += nb
        yield i0, i1, d2
        del d2


def _finish(spec: KernelSpec | None, raw: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Finish raw rows into kernel rows in ``out``, which may be ``raw`` itself.

    For ``spec`` None or gaussian the raw rows are squared distances: they
    are clamped at 0 and, for the gaussian kernel, scaled by -1/(2 sigma^2)
    and exponentiated.  For linear and polynomial kernels they are dot
    products already in ``out``; the polynomial kernel adds its offset and
    raises to its degree.
    """
    if spec is None or spec.kind == "gaussian":
        np.maximum(raw, 0.0, out=out)
        if spec is not None:
            out *= -1.0 / (2.0 * spec.width**2)
            np.exp(out, out=out)
    elif spec.kind == "polynomial":
        out += spec.offset
        out **= spec.degree
    return out


def _self_table(spec: KernelSpec | None, x: np.ndarray) -> np.ndarray:
    """Self table of the rows ``x``: squared distances (``spec`` None) or kernel.

    One self-product G = x x^T, of the rows shifted by their mean for the
    distance-based tables, is the only N x N array.  Each block of
    :func:`block_rows` rows is then finished in place while it is in cache:
    distances as -2 G_ij + (|x_i|^2 + |x_j|^2), a sum of symmetric terms,
    then :func:`_finish`.  The table is exactly symmetric; a distance
    diagonal is set to exactly 0, a gaussian one to exactly 1.
    """
    dist = spec is None or spec.kind == "gaussian"
    if dist:
        x = x - x.mean(axis=0)
        nx = np.einsum("ij,ij->i", x, x)
    out = x @ x.T
    step = block_rows(*x.shape)
    for i0 in range(0, x.shape[0], step):
        blk = out[i0:i0 + step]
        if dist:
            blk *= -2.0
            blk += np.add.outer(nx[i0:i0 + step], nx)
        _finish(spec, blk, blk)
    if dist:
        np.fill_diagonal(out, 0.0 if spec is None else 1.0)
    return out


def sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances: entry [i, j] = |a_i - b_j|^2.

    Both operands are shifted by the mean of ``b`` (see
    :func:`sq_dist_blocks`), and the result is clamped at 0.  Besides it,
    only a shifted copy of ``b`` and block temporaries of about
    ``_BLOCK_ENTRIES`` entries are allocated.  The self case (``a is b``)
    is finished block by block from the one self-product, as the gaussian
    self table is, so it is exactly symmetric with a zero diagonal.
    """
    a, b = _operands(a, b)
    if a is b:
        return _self_table(None, a)
    out = np.empty((a.shape[0], b.shape[0]))
    for i0, i1, d2 in sq_dist_blocks(a, b):
        np.maximum(d2, 0.0, out=out[i0:i1])
        del d2
    return out


def kernel_blocks(spec: KernelSpec, a: np.ndarray, b: np.ndarray,
                  out: np.ndarray | None = None):
    """Yield ``(i0, i1, k)``: finished kernel rows k = kernel(a[i0:i1], b).

    Rows come in blocks of :func:`block_rows`, and every elementwise step
    runs on a block while it is in cache: gaussian rows are the squared
    distances of :func:`sq_dist_blocks`, clamped, scaled and exponentiated
    in place; linear and polynomial rows are a[i0:i1] b^T with the
    polynomial offset and power.  Each ``k`` is a fresh block temporary, or
    the slice ``out[i0:i1]`` of a given len(a) x len(b) table, written once.
    The generator drops its block before computing the next, so a caller
    that does the same keeps only one block alive.
    ``a`` and ``b`` are treated as different rows even when they are the
    same object; :func:`kernel_matrix` builds the exactly symmetric self
    table.
    """
    a, b = _operands(a, b)
    if spec.kind == "gaussian":
        for i0, i1, d2 in sq_dist_blocks(a, b):
            yield i0, i1, _finish(spec, d2, d2 if out is None else out[i0:i1])
            del d2
        return
    step = block_rows(*b.shape)
    for i0 in range(0, a.shape[0], step):
        i1 = min(i0 + step, a.shape[0])
        k = np.matmul(a[i0:i1], b.T, out=None if out is None else out[i0:i1])
        yield i0, i1, _finish(spec, k, k)
        del k


def kernel_matrix(spec: KernelSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise kernel table: entry [i, j] = kernel(a_i, b_j).

    The table is the only N x M array allocated; it is finished in row
    blocks while they are in cache.  When ``a`` and ``b`` are the same
    object the result is exactly symmetric: it is finished from numpy's
    self-product (see :func:`_self_table`), and a gaussian diagonal is
    exactly 1.  Otherwise each block of :func:`kernel_blocks` is written
    straight into its slice of the table.
    """
    a, b = _operands(a, b)
    if a is b:
        return _self_table(spec, a)
    out = np.empty((a.shape[0], b.shape[0]))
    for _ in kernel_blocks(spec, a, b, out):
        pass
    return out


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
