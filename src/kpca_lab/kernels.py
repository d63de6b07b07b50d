"""Kernel evaluation, kernel-matrix construction, and Gram centering."""

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


def _mirror_upper(k: np.ndarray) -> np.ndarray:
    # Exact symmetry for the self-kernel case, independent of BLAS rounding.
    return np.triu(k) + np.triu(k, 1).T


# Entries per block temporary (2 MB of float64).  A block of rows that each
# meet n rows of dimension d takes _BLOCK_ENTRIES // max(n, d) of them, at
# least one, so its n-wide and d-wide temporaries both stay within this size.
_BLOCK_ENTRIES = 1 << 18


def block_rows(n: int, d: int) -> int:
    """Rows per block for rows that each meet ``n`` rows of dimension ``d``."""
    return max(1, _BLOCK_ENTRIES // max(n, d, 1))


def sq_dist_blocks(a: np.ndarray, b: np.ndarray, upper: bool = False):
    """Yield ``(i0, i1, j0, d2)``: unclamped squared distances of a[i0:i1] to b[j0:].

    Both operands are shifted by the mean of ``b`` first; distances do not
    change, and the shift removes the cancellation of |a|^2 + |b|^2 - 2ab
    for data far from the origin.  ``b`` is shifted once and ``a`` one block
    at a time, or not at all when ``a`` is ``b``.  With ``upper`` (only when
    ``a`` is ``b``) each block starts at its diagonal, j0 = i0, so the blocks
    cover the upper triangle.  Each ``d2`` is a fresh block temporary; a
    caller that drops it before asking for the next block keeps only one
    alive at a time.
    """
    same = a is b
    shift = b.mean(axis=0)
    b = b - shift
    nb = np.einsum("ij,ij->i", b, b)
    step = block_rows(*b.shape)
    for i0 in range(0, a.shape[0], step):
        i1 = min(i0 + step, a.shape[0])
        if same:
            a_blk, na = b[i0:i1], nb[i0:i1]
        else:
            a_blk = a[i0:i1] - shift
            na = np.einsum("ij,ij->i", a_blk, a_blk)
        j0 = i0 if upper else 0
        d2 = a_blk @ b[j0:].T
        d2 *= -2.0
        d2 += na[:, None]
        d2 += nb[None, j0:]
        yield i0, i1, j0, d2
        del d2


def sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances: entry [i, j] = |a_i - b_j|^2.

    Works in row blocks of ``a``: one matrix product per block, clamped at
    0 and written straight into the result, so besides the result only a
    shifted copy of ``b`` and one block temporary of about ``_BLOCK_ENTRIES``
    entries at a time are allocated.  When ``a`` and ``b`` are the same object
    only the diagonal and upper blocks are computed and then mirrored, so
    the result is exactly symmetric with an exactly-zero diagonal.
    """
    a = _as_matrix(a, "a")
    b = _as_matrix(b, "b")
    if a.shape[1] != b.shape[1]:
        raise ValueError(
            f"feature dimension mismatch: {a.shape[1]} vs {b.shape[1]}"
        )
    same = a is b
    out = np.empty((a.shape[0], b.shape[0]))
    diagonal = []
    for i0, i1, j0, d2 in sq_dist_blocks(a, b, upper=same):
        np.maximum(d2, 0.0, out=out[i0:i1, j0:])
        del d2
        if same:
            out[i0:i1, :i0] = out[:i0, i0:i1].T
            diagonal.append((i0, i1))
    # Mirrored once the last block temporary is gone, so that the two never
    # coexist.
    for i0, i1 in diagonal:
        out[i0:i1, i0:i1] = _mirror_upper(out[i0:i1, i0:i1])
    if same:
        np.fill_diagonal(out, 0.0)
    return out


def kernel_matrix(spec: KernelSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise kernel table: entry [i, j] = kernel(a_i, b_j).

    When ``a`` and ``b`` are the same object the result is made exactly
    symmetric, and for the gaussian kernel the diagonal is exactly 1.
    """
    a = _as_matrix(a, "a")
    b = _as_matrix(b, "b")
    if a.shape[1] != b.shape[1]:
        raise ValueError(
            f"feature dimension mismatch: {a.shape[1]} vs {b.shape[1]}"
        )
    same = a is b
    if spec.kind == "gaussian":
        # Blocked |a|^2 + |b|^2 - 2ab distances (see sq_dists), then exp in
        # place: beyond the N x M result, memory is one shifted copy of b
        # (M x D) plus block temporaries of ~2 MB.  The self case is exactly
        # symmetric, and its diagonal is set to 1.
        k = sq_dists(a, b)
        k *= -1.0 / (2.0 * spec.width**2)
        np.exp(k, out=k)
        if same:
            np.fill_diagonal(k, 1.0)
        return k
    k = a @ b.T
    if spec.kind == "polynomial":
        k = (k + spec.offset) ** spec.degree
    if same:
        k = _mirror_upper(k)
    return k


def center_gram(k: np.ndarray) -> np.ndarray:
    """Center a square kernel matrix so the implicit features have zero mean.

    Equivalent to K - J K - K J + J K J with J the all-1/N matrix; computed
    via row/column means.  Output rows and columns sum to ~0 and the result
    is symmetric to rounding.  The result is the only N x N array allocated.

    Reference form: :func:`kpca.fit_kpca` applies the same operations in
    place on its kernel matrix, bit-identically, and does not call this.
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

    Reference form: :func:`kpca.kpca_transform` applies this centering to
    the product with the coefficients, not to the T x N block, and does not
    call this.
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
