"""Deterministic symmetric eigendecomposition.

Every numerical module in the toolkit funnels its eigenproblems through
this module so that ordering and sign conventions are fixed in exactly
one place: eigenvalues descending with stable tie-breaking, and each
eigenvector's entry of largest magnitude non-negative.  ``sym_eig`` checks
that its input is square, finite and symmetric; ``kpca.fit_kpca`` hands the
upper stripes of its exactly symmetric Gram A and its row means c to the
unchecked :func:`_solve`, which solves A - c 1^T - 1 c^T + mean(c) 1 1^T.

``sym_eig(a)`` delegates the full decomposition to LAPACK via
``numpy.linalg.eigh``.  ``sym_eig(a, m)`` returns only the top ``m`` pairs,
as kernel PCA needs, by block Lanczos (a block Krylov method; Golub & Van
Loan, *Matrix Computations*, ch. 10; Musco & Musco 2015).  From a
fixed-seed gaussian start block the basis grows by one block per step: the
product A Q_j of the newest block, orthogonalised twice against the whole
basis (full reorthogonalisation).  A Q comes from A's upper stripes and
is centred by a rank-2 term, so A is only read.  The projected matrix Q^T A Q
grows by one block row per step, and its Rayleigh-Ritz pairs are accepted
once each wanted one has ``|A v - theta v| <= _RESIDUAL_RTOL * max|theta|``.
The newest block's remainder gives that residual without a product with
A; one explicit n x m product certifies it at the end.  The Krylov space
of j + 1 blocks contains the j-th iterate of subspace iteration from the
same start block, so each pass over A gains more, and its Ritz values
approach the algebraically largest eigenvalues from below, whatever the
negative part of the spectrum.

The block has ``m`` columns, never fewer: a Krylov space built from b
start vectors holds at most b vectors of any one eigenspace, so a
single-vector Lanczos finds one copy of a repeated eigenvalue and returns
the next distinct value in place of the second copy.

The basis is capped at ``_MAX_STEPS`` blocks and n / 2 columns
(:func:`_basis_cap` has the cost argument): on the gaussian Grams of the
benchmark a thin block certifies within 18 steps, and a failed attempt
costs about two eighs.  Uncertified at the cap, or with n too small for
``_MIN_STEPS`` steps, it runs ``eigh`` of :func:`_assemble`'s table (peak:
stripes, table, eigh workspace) and equals ``sym_eig(a)`` truncated.
``pca.fit_pca_dual`` keeps the full solve: the dual Gram of wide data has
a flat tail after its few signal axes, where the Krylov solve is no faster
than ``eigh``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative tolerance for accepting an input matrix as symmetric.
SYMMETRY_RTOL = 1e-12

# Side of the square tiles the symmetry check compares, so that it never
# allocates an n x n temporary.
_TILE = 256

# A top-m Ritz pair is accepted once |A v - theta v| <= this * max|theta|.
_RESIDUAL_RTOL = 1e-12

# Block Lanczos steps before the basis cap; two-spheres and blob Grams with
# the automatic width (N = 200 to 3000, M = 2 to 10) certify in 8 to 18.
_MAX_STEPS = 32

# Block Lanczos runs only when its cap allows this many steps; below that
# n is small against the block, and eigh is cheap.
_MIN_STEPS = 8


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues (descending) and matching orthonormal eigenvector columns."""

    values: np.ndarray   # shape (k,), k = n, or m for a top-m call
    vectors: np.ndarray  # shape (n, k), column j pairs with values[j]


def _validate_symmetric(a: np.ndarray) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not a.size:
        return
    # max and min propagate NaN and reach any infinity, so these two passes
    # both find the scale and detect non-finite entries.
    hi, lo = float(a.max()), float(a.min())
    if not (np.isfinite(hi) and np.isfinite(lo)):
        raise ValueError("matrix contains non-finite entries")
    scale = max(1.0, hi, -lo)
    n = a.shape[0]
    asym = 0.0
    for i in range(0, n, _TILE):
        for j in range(i, n, _TILE):
            d = a[i:i + _TILE, j:j + _TILE] - a[j:j + _TILE, i:i + _TILE].T
            asym = max(asym, float(np.abs(d, out=d).max()))
    if asym > SYMMETRY_RTOL * scale:
        raise ValueError(
            f"matrix is not symmetric: max |A - A^T| = {asym:.3e} "
            f"exceeds {SYMMETRY_RTOL:.0e} * {scale:.3e}"
        )


def _sign_columns(v: np.ndarray) -> np.ndarray:
    """Flip columns of ``v`` in place so each entry of largest magnitude is >= 0."""
    v[:, v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])] < 0.0] *= -1.0
    return v


def _canonical(w: np.ndarray, v: np.ndarray, m: int | None = None) -> EigenDecomposition:
    """The first ``m`` pairs (all for None) in descending order with the sign rule."""
    order = np.argsort(-w, kind="stable")[:m]
    return EigenDecomposition(values=w[order], vectors=_sign_columns(v[:, order]))


def _basis_cap(n: int, b: int) -> int:
    """Columns the top-m basis may reach before the solve falls back to eigh.

    At most ``_MAX_STEPS`` blocks of b and at most n / 2 columns.  A step
    with k columns costs one pass over A (2 n^2 b flops, bound by reading
    the n^2 entries), ~12 n k b flops of reorthogonalisation and ~10 k^3
    for the projected eigh; eigh costs ~10 n^3.  Within the cap the passes
    total at most n^3, the reorthogonalisation 1.5 n^3 and the projected
    solves 10 (n / 2)^3 * _MAX_STEPS / 4 = 10 n^3.  Measured, a failed one
    costs two eighs: 187-193 ms against 101-103 ms on an 800-row linear
    Gram at b=9; a thin block far less (b=2, n=3000: 32 passes of ~5 ms
    against 3.2 s for eigh; 2-core Intel Xeon with OpenBLAS).
    """
    return min(n // 2, _MAX_STEPS * b)


def _assemble(stripes: list) -> np.ndarray:
    """The exactly symmetric table of upper stripes, each copied and mirrored; one is the table."""
    if len(stripes) == 1:
        return stripes[0][2]
    n = sum(i1 - i0 for i0, i1, _ in stripes)
    out = np.empty((n, n))
    for i0, i1, s in stripes:
        out[i0:i1, i0:] = s
        out[i1:, i0:i1] = s[:, i1 - i0:].T
    return out


def _krylov_top(stripes: list, c: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Top-m Ritz pairs of :func:`_solve`'s matrix by block Lanczos, or None if uncertified."""
    n = stripes[0][2].shape[1]
    cap = _basis_cap(n, m)

    def times(q):
        # The rank-2 term, then each stripe S adds S Q[i0:] to its rows and,
        # right of its diagonal block, (Q[i0:i1]^T S)^T to the later rows.
        t = q.sum(axis=0)
        out = -np.outer(c, t) - (c @ q - c.mean() * t)
        for i0, i1, s in stripes:
            out[i0:i1] += s @ q[i0:]
            out[i1:] += (q[i0:i1].T @ s[:, i1 - i0:]).T
        return out

    basis, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((n, m)))
    block = basis
    h = np.zeros((0, 0))
    while True:
        k = basis.shape[1]
        w = times(block)
        cq = basis.T @ w
        h = np.pad(h, ((0, m), (0, m)))
        h[k - m:] = cq.T  # eigh reads the lower triangle only
        w -= basis @ cq
        w -= basis @ (basis.T @ w)
        nxt, r = np.linalg.qr(w)
        theta, s = np.linalg.eigh(h)
        theta, s = theta[::-1], s[:, ::-1]
        # A Q s - Q H s = W_perp s_j = Q_{j+1} R s_j: the residual's norm
        # without a product with A.
        tol = _RESIDUAL_RTOL * np.abs(theta).max()
        if np.linalg.norm(r @ s[k - m:, :m], axis=0).max() <= tol:
            v = basis @ s[:, :m]
            resid = times(v) - v * theta[:m]
            if np.linalg.norm(resid, axis=0).max() <= tol:
                return theta[:m], v
        if k + m > cap:
            return None
        # QR of a rank-deficient remainder pads with arbitrary unit vectors;
        # a second projection keeps them orthogonal to the basis.
        nxt -= basis @ (basis.T @ nxt)
        block, _ = np.linalg.qr(nxt)
        basis = np.hstack([basis, block])


def sym_eig(a: np.ndarray, m: int | None = None) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix: all pairs, or the top ``m``.

    Returns eigenvalues sorted descending.  Ties keep the order in which the
    underlying solver produced them (stable sort), and each eigenvector is
    scaled so that its entry of largest magnitude is non-negative, which
    resolves the +/-v ambiguity deterministically.

    With ``m``, only the ``m`` algebraically largest pairs are returned
    (``values`` of shape (m,), ``vectors`` n x m), computed by :func:`_solve`
    on ``a`` itself with c = 0, which it neither copies nor writes.
    Repeated calls give byte-identical results.

    Raises ``ValueError`` for non-square, non-finite, or asymmetric input,
    or for ``m`` outside [1, n]; ``kpca.fit_kpca`` skips these by :func:`_solve`.
    """
    a = np.asarray(a, dtype=float)
    _validate_symmetric(a)
    if m is None:
        return _canonical(*np.linalg.eigh(a))
    if not 1 <= m <= a.shape[0]:
        raise ValueError(f"m={m} outside [1, n] = [1, {a.shape[0]}]")
    return _solve([(0, a.shape[0], a)], np.zeros(a.shape[0]), m)


def _solve(stripes: list, c: np.ndarray, m: int) -> EigenDecomposition:
    """Top ``m`` pairs of A - c 1^T - 1 c^T + mean(c) 1 1^T, unchecked.

    A (finite, symmetric) comes as upper stripes (i0, i1, rows [i0, i1) from
    column i0), a full A as (0, n, A); ``c`` is finite.  Block Lanczos only
    reads them; eigh centres :func:`_assemble`'s table in place for nonzero
    ``c``, bit-identically to ``kernels.center_gram`` when c holds row means.
    """
    if _basis_cap(stripes[0][2].shape[1], m) >= _MIN_STEPS * m:
        top = _krylov_top(stripes, c, m)
        if top is not None:
            return _canonical(*top)
    a = _assemble(stripes)
    if c.any():
        a -= c[:, None]
        a -= c
        a += c.mean()
    return _canonical(*np.linalg.eigh(a), m)
