import tracemalloc

import numpy as np
import pytest

from kpca_lab import pca
from kpca_lab.eigen import sym_eig
from kpca_lab.kernels import KernelSpec, _data_matrix, kernel_matrix
from kpca_lab.pca import fit_pca, fit_pca_dual, pca_project, pca_reconstruct

TWO_POINTS = np.array([[0.0, 0.0], [2.0, 0.0]])


def test_two_point_example():
    # Deviations (-1,0) and (1,0) give covariance diag(1,0) under the 1/N
    # convention, so the single component is (1,0) with eigenvalue 1.
    model = fit_pca(TWO_POINTS, 1)
    assert np.allclose(model.mean, [1.0, 0.0])
    assert np.allclose(model.basis[:, 0], [1.0, 0.0])
    assert model.eigenvalues[0] == pytest.approx(1.0)


def test_identical_points_zero_eigenvalues():
    x = np.tile([3.0, -1.0, 2.0], (5, 1))
    model = fit_pca(x, 3)
    assert np.allclose(model.eigenvalues, 0.0)


def test_eigenvalue_sum_equals_covariance_trace():
    rng = np.random.default_rng(20)
    x = rng.standard_normal((20, 5))
    model = fit_pca(x, 5)
    xc = x - x.mean(axis=0)
    trace = (xc**2).sum() / 20.0
    assert model.eigenvalues.sum() == pytest.approx(trace, rel=1e-8)


@pytest.mark.parametrize("shape", [(300, 7), (20, 50), (1000, 3)])
def test_covariance_is_the_exactly_symmetric_self_product(monkeypatch, shape):
    # The covariance goes to sym_eig as numpy's self-product, with no
    # triangle copied by hand: it equals the upper triangle mirrored.  Wide
    # data (D > N) takes the dual route, whose N x N Gram xc @ xc.T holds the
    # bytes of the linear kernel table.
    rng = np.random.default_rng(25)
    x = np.repeat(rng.standard_normal(shape) * 3.0 + 1.0, 2, axis=1)[:, ::2]
    seen = []

    def spy(a, m=None):
        seen.append(a.copy())
        return sym_eig(a, m)

    monkeypatch.setattr(pca, "sym_eig", spy)
    fit_pca(x, 2)
    xc = x - x.mean(axis=0)
    if shape[1] > shape[0]:
        assert np.array_equal(seen[0], kernel_matrix(KernelSpec.linear(), xc, xc))
    else:
        cov = xc.T @ xc / shape[0]
        assert np.array_equal(seen[0], np.triu(cov) + np.triu(cov, 1).T)
    assert len(seen) == 1


def test_projected_variance_equals_eigenvalues():
    rng = np.random.default_rng(21)
    x = rng.standard_normal((30, 4))
    model = fit_pca(x, 4)
    y = pca_project(model, x)
    var = (y**2).mean(axis=0) - y.mean(axis=0) ** 2
    assert np.allclose(var, model.eigenvalues, rtol=1e-8, atol=1e-12)


def test_project_mean_is_origin():
    model = fit_pca(TWO_POINTS, 1)
    assert np.allclose(pca_project(model, model.mean), [0.0])


def test_project_unit_step_along_first_component():
    rng = np.random.default_rng(22)
    x = rng.standard_normal((10, 3))
    model = fit_pca(x, 3)
    y = pca_project(model, model.mean + model.basis[:, 0])
    assert np.allclose(y, [1.0, 0.0, 0.0], atol=1e-9)


def test_project_training_row_hand_value():
    model = fit_pca(TWO_POINTS, 1)
    assert np.allclose(pca_project(model, np.array([2.0, 0.0])), [1.0])


def test_reconstruct_zero_is_mean():
    model = fit_pca(TWO_POINTS, 1)
    assert np.allclose(pca_reconstruct(model, np.zeros(1)), model.mean)


def test_reconstruct_hand_value():
    model = fit_pca(TWO_POINTS, 1)
    assert np.allclose(pca_reconstruct(model, np.array([1.0])), [2.0, 0.0])


def test_project_reconstruct_identity_full_rank():
    rng = np.random.default_rng(23)
    x = rng.standard_normal((12, 4))
    model = fit_pca(x, 4)
    rebuilt = pca_reconstruct(model, pca_project(model, x))
    assert np.abs(rebuilt - x).max() <= 1e-8


def test_reconstruction_error_non_increasing_in_m():
    rng = np.random.default_rng(24)
    x = rng.standard_normal((15, 6))
    errors = []
    for m in range(1, 7):
        model = fit_pca(x, m)
        rebuilt = pca_reconstruct(model, pca_project(model, x))
        errors.append(((x - rebuilt) ** 2).sum())
    assert all(b <= a + 1e-10 for a, b in zip(errors, errors[1:]))


def test_basis_orthonormal():
    rng = np.random.default_rng(25)
    x = rng.standard_normal((9, 5))
    model = fit_pca(x, 5)
    assert np.allclose(model.basis.T @ model.basis, np.eye(5), atol=1e-9)


def test_m_out_of_range():
    with pytest.raises(ValueError):
        fit_pca(TWO_POINTS, 0)
    with pytest.raises(ValueError):
        fit_pca(TWO_POINTS, 3)  # exceeds min(D, N) = 2


def test_project_dimension_mismatch():
    model = fit_pca(TWO_POINTS, 1)
    with pytest.raises(ValueError):
        pca_project(model, np.zeros(3))
    with pytest.raises(ValueError):
        pca_reconstruct(model, np.zeros(2))


def test_dual_agrees_on_small_case():
    a = fit_pca(TWO_POINTS, 1)
    b = fit_pca_dual(TWO_POINTS, 1)
    assert np.allclose(a.mean, b.mean)
    assert np.allclose(a.basis, b.basis, atol=1e-12)
    assert np.allclose(a.eigenvalues, b.eigenvalues, atol=1e-12)


def test_dual_agrees_on_wide_data():
    # The reference is the D x D covariance solve, which fit_pca no longer
    # forms for D > N.
    rng = np.random.default_rng(26)
    x = rng.standard_normal((10, 200))
    xc = x - x.mean(axis=0)
    a = sym_eig(xc.T @ xc / 10)
    b = fit_pca_dual(x, 9)
    assert np.allclose(a.values[:9], b.eigenvalues, rtol=1e-8)
    assert np.abs(a.vectors[:, :9] - b.basis).max() <= 1e-8


@pytest.mark.parametrize("shape, m", [((10, 200), 9), ((3, 50), 3), ((4, 5), 4)])
def test_fit_pca_takes_the_dual_route_for_wide_data(shape, m):
    # Callers do not pick the route: for D > N fit_pca is fit_pca_dual,
    # rank-deficient completion columns included.
    x = np.random.default_rng(29).standard_normal(shape)
    a, b = fit_pca(x, m), fit_pca_dual(x, m)
    for field in ("mean", "basis", "eigenvalues"):
        assert np.array_equal(getattr(a, field), getattr(b, field))


@pytest.mark.parametrize("shape", [(40, 5), (10, 200)])
def test_fit_pca_checks_its_rows_once(monkeypatch, shape):
    # The route is taken from the shape, so the D > N route checks the rows
    # only inside fit_pca_dual.
    calls = []

    def spy(x):
        calls.append(x)
        return _data_matrix(x)

    monkeypatch.setattr(pca, "_data_matrix", spy)
    fit_pca(np.random.default_rng(31).standard_normal(shape), 3)
    assert len(calls) == 1


def test_dual_fit_drops_its_centred_rows_before_the_eigensolve():
    # The N x D centred rows are gone before sym_eig, whose own peak is the
    # Gram and about three N x N arrays of eigh's vectors; a centred copy
    # still alive there (N D = 3 N^2 here) breaks the bound.
    n, d = 400, 1200
    x = np.random.default_rng(31).standard_normal((n, d))
    fit_pca_dual(x, 9)
    tracemalloc.start()
    try:
        fit_pca_dual(x, 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (4 * n * n + n * d // 2)


def test_dual_rank_one():
    direction = np.array([1.0, 2.0, 2.0]) / 3.0
    x = np.outer([0.0, 1.0, 2.0, 3.0], direction)
    model = fit_pca_dual(x, 3)
    nonzero = model.eigenvalues > 1e-12
    assert nonzero.sum() == 1
    assert np.allclose(np.abs(model.basis[:, 0]), direction, atol=1e-9)


def test_dual_completes_degenerate_basis_orthonormally():
    # More requested components than the Gram rank can supply.
    rng = np.random.default_rng(27)
    x = rng.standard_normal((3, 50))
    model = fit_pca_dual(x, 3)
    assert model.basis.shape == (50, 3)
    assert np.allclose(model.basis.T @ model.basis, np.eye(3), atol=1e-9)
    assert model.eigenvalues[2] == pytest.approx(0.0, abs=1e-12)


def test_batch_project_matches_single():
    rng = np.random.default_rng(28)
    x = rng.standard_normal((8, 4))
    model = fit_pca(x, 2)
    batch = pca_project(model, x)
    rebuilt = pca_reconstruct(model, batch)
    # A vector gives a vector.  It is not bit-equal to its batch row: numpy
    # hands one row and a batch to different BLAS kernels, which may sum in
    # another order, so the rows agree to a few ulp.
    for i in range(8):
        single = pca_project(model, x[i])
        assert single.shape == (2,)
        assert np.allclose(batch[i], single, rtol=0.0, atol=1e-13)
        single = pca_reconstruct(model, batch[i])
        assert single.shape == (4,)
        assert np.allclose(rebuilt[i], single, rtol=0.0, atol=1e-13)


def test_project_and_reconstruct_layouts_are_bit_equal():
    # Query and weight rows are multiplied as C-ordered rows whatever their
    # layout, as the fits and the kernel transform read theirs.
    rng = np.random.default_rng(30)
    x = rng.standard_normal((80, 300)) + 2.0
    model = fit_pca(x, 9)
    y = pca_project(model, x)
    rebuilt = pca_reconstruct(model, y)
    for rows, call, expected in ((x, pca_project, y), (y, pca_reconstruct, rebuilt)):
        for view in (np.asfortranarray(rows), np.repeat(rows, 2, axis=1)[:, ::2]):
            assert not view.flags.c_contiguous and np.array_equal(view, rows)
            assert np.array_equal(call(model, view), expected)
