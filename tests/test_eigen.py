import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kpca_lab import eigen
from kpca_lab.eigen import EigenDecomposition, sym_eig


def random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2.0


def test_identity_matrix():
    dec = sym_eig(np.eye(3))
    assert np.allclose(dec.values, [1.0, 1.0, 1.0])
    assert np.allclose(dec.vectors, np.eye(3))


def test_diagonal_matrix():
    dec = sym_eig(np.diag([3.0, 1.0]))
    assert np.allclose(dec.values, [3.0, 1.0])
    assert np.allclose(dec.vectors, np.eye(2))


def test_hand_solved_two_by_two():
    # [[2,1],[1,2]]: det(A - t I) = (2-t)^2 - 1, roots 3 and 1 with
    # eigenvectors (1,1)/sqrt(2) and (1,-1)/sqrt(2).
    dec = sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(dec.values, [3.0, 1.0])
    assert np.allclose(dec.vectors[:, 0], [s, s])
    assert np.allclose(dec.vectors[:, 1], [s, -s])


def test_values_descending():
    rng = np.random.default_rng(1)
    for _ in range(20):
        dec = sym_eig(random_symmetric(rng, 8))
        assert np.all(np.diff(dec.values) <= 0.0)


def test_sign_convention():
    rng = np.random.default_rng(2)
    for _ in range(20):
        dec = sym_eig(random_symmetric(rng, 7))
        for k in range(7):
            col = dec.vectors[:, k]
            assert col[np.argmax(np.abs(col))] >= 0.0


def test_deterministic_repeat():
    rng = np.random.default_rng(3)
    a = random_symmetric(rng, 12)
    d1 = sym_eig(a)
    d2 = sym_eig(a.copy())
    assert np.array_equal(d1.values, d2.values)
    assert np.array_equal(d1.vectors, d2.vectors)


def test_repeated_eigenvalues_stay_orthonormal():
    # Build a matrix with an exactly repeated eigenvalue via a rotation.
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    a = q @ np.diag([4.0, 4.0, 4.0, 2.0, 1.0]) @ q.T
    dec = sym_eig((a + a.T) / 2.0)
    assert np.allclose(dec.vectors.T @ dec.vectors, np.eye(5), atol=1e-9)
    assert np.allclose(sorted(dec.values), [1.0, 2.0, 4.0, 4.0, 4.0], atol=1e-9)


def test_rejects_asymmetric():
    with pytest.raises(ValueError):
        sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))


@pytest.mark.parametrize("n, i, j", [(2, 1, 0), (600, 599, 3), (600, 100, 300),
                                     (600, 300, 257)])
def test_asymmetry_found_in_any_tile(n, i, j):
    # The check compares tiles of the upper triangle with their mirror; an
    # entry in the last, ragged tile or off the diagonal tiles must be seen.
    a = np.eye(n)
    a[i, j] = 1e-6
    with pytest.raises(ValueError, match=r"max \|A - A\^T\| = 1\.000e-06"):
        sym_eig(a)
    a[j, i] = 1e-6
    eigen._validate_symmetric(a)


def test_rejects_non_finite():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            sym_eig(np.array([[bad, 0.0], [0.0, 1.0]]))
        a = np.eye(3)
        a[2, 1] = a[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            sym_eig(a)


def test_rejects_non_square():
    with pytest.raises(ValueError):
        sym_eig(np.zeros((2, 3)))


def test_result_type():
    dec = sym_eig(np.eye(2))
    assert isinstance(dec, EigenDecomposition)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=50))
def test_reconstruction_and_trace(seed, n):
    rng = np.random.default_rng(seed)
    a = random_symmetric(rng, n)
    dec = sym_eig(a)
    rebuilt = dec.vectors @ np.diag(dec.values) @ dec.vectors.T
    assert np.abs(rebuilt - a).max() <= 1e-8
    assert np.trace(a) == pytest.approx(dec.values.sum(), rel=1e-9, abs=1e-9)
    # residual bound from the decomposition contract
    resid = a @ dec.vectors - dec.vectors * dec.values[None, :]
    assert np.abs(resid).max() <= 1e-8 * max(1.0, abs(dec.values[0]))


def psd_with_gap(seed, n):
    """Q diag(w) Q^T with a geometric spectrum, so every eigenvalue has a gap."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w = 5.0 * 0.6 ** np.arange(n)
    a = (q * w) @ q.T
    return (a + a.T) / 2.0


@pytest.mark.parametrize("seed, m", [(0, 1), (1, 2), (2, 5), (3, 9)])
def test_top_m_matches_full_eigh(seed, m):
    a = psd_with_gap(seed, 150)
    assert eigen._krylov_top(a, np.zeros(len(a)), m) is not None  # block Lanczos, not the fallback
    top = sym_eig(a, m)
    full = sym_eig(a)
    assert top.values.shape == (m,)
    assert top.vectors.shape == (150, m)
    assert np.abs(top.values - full.values[:m]).max() <= 1e-12 * full.values[0]
    assert np.abs(top.vectors - full.vectors[:, :m]).max() <= 1e-10
    for k in range(m):
        col = top.vectors[:, k]
        assert col[np.argmax(np.abs(col))] >= 0.0


def test_top_m_zero_matrix():
    assert eigen._krylov_top(np.zeros((60, 60)), np.zeros(60), 3) is not None
    dec = sym_eig(np.zeros((60, 60)), 3)
    assert np.array_equal(dec.values, np.zeros(3))
    assert np.allclose(dec.vectors.T @ dec.vectors, np.eye(3), atol=1e-12)


@pytest.mark.parametrize("n, d, m", [(100, 3, 5), (300, 1, 3)])
def test_top_m_rank_deficient_gram(n, d, m):
    # Rank d < m: the Krylov space becomes invariant after a few steps and
    # the remaining wanted pairs have eigenvalue 0.
    x = np.random.default_rng(8).standard_normal((n, d))
    x -= x.mean(axis=0)
    a = x @ x.T
    a = (a + a.T) / 2.0
    assert eigen._krylov_top(a, np.zeros(len(a)), m) is not None
    full = sym_eig(a)
    dec = sym_eig(a, m)
    assert np.abs(dec.values - full.values[:m]).max() <= 1e-12 * full.values[0]
    assert np.abs(dec.vectors.T @ dec.vectors - np.eye(m)).max() <= 1e-12
    assert np.abs(a @ dec.vectors - dec.vectors * dec.values).max() <= 1e-12 * full.values[0]


def test_top_m_negative_block_cannot_hide_wanted_pair():
    # Ten negative eigenvalues larger in magnitude than the wanted positive
    # pair: an iteration that favours large |lambda| converges to -11 and
    # -12 instead.  Ritz values of a Krylov space never exceed the
    # eigenvalues they approximate, so the top pair is 1.0 and 0.9.
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((200, 200)))
    w = np.concatenate([[1.0, 0.9], -np.arange(11.0, 21.0), np.full(188, 0.01)])
    a = (q * w) @ q.T
    a = (a + a.T) / 2.0
    assert eigen._krylov_top(a, np.zeros(len(a)), 2) is not None
    dec = sym_eig(a, 2)
    assert np.allclose(dec.values, [1.0, 0.9], atol=1e-12)


def test_top_m_falls_back_when_sweeps_run_out(monkeypatch):
    a = psd_with_gap(4, 120)
    full = sym_eig(a)
    assert eigen._krylov_top(a, np.zeros(len(a)), 3) is not None
    # One block only: the cap is reached before the pairs certify.
    monkeypatch.setattr(eigen, "_basis_cap", lambda n, b: b)
    monkeypatch.setattr(eigen, "_MIN_STEPS", 1)
    assert eigen._krylov_top(a, np.zeros(len(a)), 3) is None
    dec = sym_eig(a, 3)
    assert np.array_equal(dec.values, full.values[:3])
    assert np.array_equal(dec.vectors, full.vectors[:, :3])


def test_top_m_small_n_is_truncated_full_solve():
    rng = np.random.default_rng(6)
    a = random_symmetric(rng, 30)  # cap 15 < 8 steps of 2: no iteration
    full = sym_eig(a)
    dec = sym_eig(a, 2)
    assert np.array_equal(dec.values, full.values[:2])
    assert np.array_equal(dec.vectors, full.vectors[:, :2])
    assert sym_eig(a, 30).values.shape == (30,)


def test_top_m_deterministic_repeat():
    a = psd_with_gap(7, 150)
    d1 = sym_eig(a, 2)
    d2 = sym_eig(a.copy(), 2)
    assert d1.values.tobytes() == d2.values.tobytes()
    assert d1.vectors.tobytes() == d2.vectors.tobytes()


@pytest.mark.parametrize("n", [150, 30], ids=["krylov", "eigh"])
def test_solve_centres_its_matrix(n):
    # _solve(a, c, m) solves A - c 1^T - 1 c^T + mean(c) 1 1^T.  Block
    # Lanczos takes that as a rank-2 term of each product and only reads a;
    # eigh centres a in place, in the explicit form's operations and order.
    a = psd_with_gap(10, n)
    c = 0.1 * np.random.default_rng(10).standard_normal(n)
    b = a - c[:, None]
    b -= c
    b += c.mean()
    full = sym_eig(b)
    work = a.copy()
    if n == 150:
        work.setflags(write=False)
        assert eigen._krylov_top(work, c, 3) is not None
    dec = eigen._solve(work, c, 3)
    if n == 150:
        assert np.array_equal(work, a)
        assert np.abs(dec.values - full.values[:3]).max() <= 1e-12 * full.values[0]
        assert np.abs(dec.vectors - full.vectors[:, :3]).max() <= 1e-10
    else:
        assert np.array_equal(dec.values, full.values[:3])
        assert np.array_equal(dec.vectors, full.vectors[:, :3])


@pytest.mark.parametrize("n", [150, 30], ids=["krylov", "eigh"])
def test_top_m_never_writes_its_input(n):
    # The eigh path centres in place only for a nonzero c; sym_eig's is zero.
    a = psd_with_gap(11, n)
    expected = sym_eig(a.copy(), 2)
    frozen = a.copy()
    frozen.setflags(write=False)
    for given in (a, frozen):
        before = given.copy()
        dec = sym_eig(given, 2)
        assert np.array_equal(given, before)
        assert np.array_equal(dec.values, expected.values)
        assert np.array_equal(dec.vectors, expected.vectors)


def test_top_m_holds_no_copy_of_its_input():
    # Block Lanczos only reads a, so a top-m call allocates thin blocks, not
    # a second n x n array.
    n = 1500
    q, _ = np.linalg.qr(np.random.default_rng(12).standard_normal((n, 12)))
    a = (q * 0.6 ** np.arange(12)) @ q.T
    a = (a + a.T) / 2.0
    assert eigen._krylov_top(a, np.zeros(n), 2) is not None
    tracemalloc.start()
    try:
        sym_eig(a, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 4


@pytest.mark.parametrize("m", [0, 31, -1])
def test_top_m_out_of_range_rejected(m):
    with pytest.raises(ValueError, match="outside"):
        sym_eig(np.eye(30), m)


def with_spectrum(seed, top, n):
    """Q diag(w) Q^T whose leading eigenvalues are ``top``, then a gapped tail."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w = np.concatenate([top, 0.5 * 0.8 ** np.arange(n - len(top))])
    a = (q * w) @ q.T
    return (a + a.T) / 2.0


@pytest.mark.parametrize("top", [[1.0, 1.0], [1.0, 1.0, 1.0]])
@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("n", [20, 200])
def test_top_m_returns_every_copy_of_a_repeated_eigenvalue(top, m, n):
    # n=20 is solved by eigh; n=200 by block Lanczos.  A block narrower than
    # the multiplicity would find only some of the copies.
    a = with_spectrum(9, top, n)
    if n == 200:
        assert eigen._krylov_top(a, np.zeros(len(a)), m) is not None
    full = sym_eig(a)
    dec = sym_eig(a, m)
    assert np.abs(dec.values - full.values[:m]).max() <= 1e-12
    assert np.allclose(dec.values, (top + [0.5])[:m], atol=1e-12)
    assert np.abs(dec.vectors.T @ dec.vectors - np.eye(m)).max() <= 1e-12
    resid = a @ dec.vectors - dec.vectors * dec.values
    assert np.abs(resid).max() <= 1e-11
    # Each vector lies in the eigenspace of its value, which eigh spans.
    for value in set(dec.values.tolist()):
        span = full.vectors[:, np.abs(full.values - value) <= 1e-9]
        mine = dec.vectors[:, dec.values == value]
        assert np.abs(mine - span @ (span.T @ mine)).max() <= 1e-10
