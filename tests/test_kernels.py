import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from kpca_lab import kernels
from kpca_lab.kernels import (
    KernelSpec,
    center_cross,
    center_gram,
    eval_kernel,
    kernel_matrix,
    sq_dists,
)
from kpca_lab.kpca import select_sigma


def explicit_sq_dists(a, b):
    return ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)


def test_spec_constructors_validate():
    with pytest.raises(ValueError):
        KernelSpec.polynomial(0)
    with pytest.raises(ValueError):
        KernelSpec.polynomial(2, offset=-1.0)
    for offset in (np.inf, np.nan):
        with pytest.raises(ValueError, match="offset must be finite"):
            KernelSpec.polynomial(2, offset=offset)
    with pytest.raises(ValueError):
        KernelSpec.gaussian(0.0)
    with pytest.raises(ValueError):
        KernelSpec.gaussian(-2.0)
    with pytest.raises(ValueError, match="width must be finite"):
        KernelSpec.gaussian(np.inf)
    with pytest.raises(ValueError, match="degree must be integral"):
        KernelSpec.polynomial(2.9)
    # Direct construction is validated as the constructors are.
    with pytest.raises(ValueError, match="width must be finite and > 0"):
        KernelSpec("gaussian", width=0.0)
    with pytest.raises(ValueError, match="width must be finite and > 0"):
        KernelSpec("gaussian", width=-3.0)
    with pytest.raises(ValueError, match="degree must be >= 1"):
        KernelSpec("polynomial", degree=0, offset=-1.0)
    with pytest.raises(ValueError, match="offset must be finite and >= 0"):
        KernelSpec("polynomial", degree=2, offset=-1.0)
    for degree in (2.5, np.inf):
        with pytest.raises(ValueError, match="degree must be integral"):
            KernelSpec("polynomial", degree=degree)
    spec = KernelSpec.polynomial(3.0, 1)
    assert spec == KernelSpec.polynomial(3, 1.0) and type(spec.degree) is int


def test_gaussian_same_point_is_one():
    x = np.array([0.3, -1.2, 4.0])
    assert eval_kernel(KernelSpec.gaussian(0.7), x, x) == 1.0


def test_polynomial_degree_one_is_dot_product():
    x = np.array([1.0, 2.0, 3.0])
    y = np.array([-1.0, 0.5, 2.0])
    assert eval_kernel(KernelSpec.polynomial(1, 0.0), x, y) == x @ y
    assert eval_kernel(KernelSpec.linear(), x, y) == x @ y


def test_gaussian_hand_value():
    # sigma=1, |x-y| = 2 -> exp(-4/2) = exp(-2)
    v = eval_kernel(KernelSpec.gaussian(1.0), np.array([0.0]), np.array([2.0]))
    assert v == pytest.approx(0.1353352832366127, rel=1e-12)


def test_eval_kernel_dimension_mismatch():
    with pytest.raises(ValueError):
        eval_kernel(KernelSpec.linear(), np.array([1.0]), np.array([1.0, 2.0]))


def test_kernel_matrix_single_row():
    x = np.array([[1.0, 2.0]])
    for spec in (KernelSpec.linear(), KernelSpec.polynomial(3, 1.0),
                 KernelSpec.gaussian(2.0)):
        k = kernel_matrix(spec, x, x)
        assert k.shape == (1, 1)
        assert k[0, 0] == pytest.approx(eval_kernel(spec, x[0], x[0]))


def test_kernel_matrix_matches_double_loop():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((6, 3))
    b = rng.standard_normal((4, 3))
    for spec in (KernelSpec.linear(), KernelSpec.polynomial(2, 0.5),
                 KernelSpec.gaussian(1.3)):
        k = kernel_matrix(spec, a, b)
        for i in range(6):
            for j in range(4):
                assert k[i, j] == pytest.approx(eval_kernel(spec, a[i], b[j]),
                                                rel=1e-12, abs=1e-12)


def test_gaussian_identical_rows_all_ones():
    x = np.array([[1.0, 1.0], [1.0, 1.0]])
    k = kernel_matrix(KernelSpec.gaussian(0.5), x, x)
    assert np.array_equal(k, np.ones((2, 2)))


def test_gaussian_self_matrix_unit_diagonal_exact():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((9, 4))
    k = kernel_matrix(KernelSpec.gaussian(0.9), x, x)
    assert np.array_equal(np.diag(k), np.ones(9))
    assert np.array_equal(k, k.T)


def test_linear_self_matrix_exactly_symmetric():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((8, 5))
    k = kernel_matrix(KernelSpec.linear(), x, x)
    assert np.array_equal(k, k.T)
    assert np.allclose(k, x @ x.T, atol=1e-12)


@pytest.mark.parametrize("rows_per_block", [None, 1, 4])
@pytest.mark.parametrize("layout", ["C", "F", "row-strided", "column-strided"])
@pytest.mark.parametrize("spec", [KernelSpec.linear(), KernelSpec.polynomial(3, 1.0),
                                  KernelSpec.gaussian(2.5)], ids=lambda s: s.kind)
def test_self_tables_exactly_symmetric(monkeypatch, spec, layout, rows_per_block):
    # At 300 x 7, numpy 2.x multiplies a view with no unit stride through two
    # separate copies, and that product is not exactly symmetric; the
    # self tables must be in every layout.
    rng = np.random.default_rng(20)
    x = rng.standard_normal((300, 7)) * 3.0 + 1.0
    expected = kernel_matrix(spec, x, x), sq_dists(x, x)
    v = {"C": x, "F": np.asfortranarray(x),
         "row-strided": np.repeat(x, 2, axis=0)[::2],
         "column-strided": np.repeat(x, 2, axis=1)[:, ::2]}[layout]
    assert np.array_equal(v, x)
    if rows_per_block is not None:
        monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", rows_per_block * 300)
    k, d2 = kernel_matrix(spec, v, v), sq_dists(v, v)
    for table, ref in ((k, expected[0]), (d2, expected[1])):
        assert table.shape == (300, 300)
        assert np.array_equal(table, table.T)
        # Blocks only split the elementwise finishing, and every layout is
        # multiplied as the same C-ordered values: the tables are bit-equal.
        assert np.array_equal(table, ref)
    assert np.array_equal(np.diag(d2), np.zeros(300))
    if spec.kind == "gaussian":
        assert np.array_equal(np.diag(k), np.ones(300))


_BLOCKS = pytest.mark.parametrize("rows_per_block", [None, 1, 4],
                                  ids=["default", "1-row", "4-row"])


@_BLOCKS
def test_gaussian_self_table_is_the_two_pass_form(monkeypatch, rows_per_block):
    # The blocked loop clamps, scales and exponentiates each block of the
    # self table while it is in cache; the values are those of finishing the
    # whole distance table first and scaling and exponentiating it after.
    rng = np.random.default_rng(21)
    x = rng.standard_normal((300, 7)) * 3.0 + 1.0
    width = 2.5
    expected = sq_dists(x, x)
    expected *= -1.0 / (2.0 * width**2)
    np.exp(expected, out=expected)
    np.fill_diagonal(expected, 1.0)
    if rows_per_block is not None:
        monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", rows_per_block * 300)
    assert np.array_equal(kernel_matrix(KernelSpec.gaussian(width), x, x), expected)


@_BLOCKS
@pytest.mark.parametrize("spec", [KernelSpec.linear(), KernelSpec.polynomial(3, 1.0),
                                  KernelSpec.gaussian(2.5)], ids=lambda s: s.kind)
def test_cross_kernel_matrix_matches_unblocked_form(monkeypatch, spec, rows_per_block):
    rng = np.random.default_rng(22)
    a = rng.standard_normal((90, 7)) * 3.0 + 1.0
    b = rng.standard_normal((300, 7)) * 3.0 + 1.0
    if rows_per_block is not None:
        monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", rows_per_block * 300)
    if spec.kind == "gaussian":
        # The distance rows at this block size, scaled and exponentiated
        # after the whole table is built.
        expected = sq_dists(a, b)
        expected *= -1.0 / (2.0 * spec.width**2)
        np.exp(expected, out=expected)
    else:
        expected = (a @ b.T + spec.offset) ** spec.degree
    k = kernel_matrix(spec, a, b)
    blocks = list(kernels.kernel_blocks(spec, a, b))
    # The blocks tile the rows in order, and their rows are the table's.
    assert [i0 for i0, _, _ in blocks] == [0] + [i1 for _, i1, _ in blocks[:-1]]
    assert len(blocks) == -(-90 // (rows_per_block or 90))
    assert np.array_equal(np.vstack([blk for _, _, blk in blocks]), k)
    if spec.kind == "gaussian":
        # Scaling and exponentiating each block in cache changes no bit.
        assert np.array_equal(k, expected)
    else:
        assert np.abs(k - expected).max() <= 1e-13 * np.abs(expected).max()


def reference_finish(spec, t):
    # Finishing of raw rows: clamped, scaled and exponentiated distances
    # (spec None or gaussian), or dot products with the polynomial offset
    # and power.
    if spec is None or spec.kind == "gaussian":
        np.maximum(t, 0.0, out=t)
        if spec is not None:
            t *= -1.0 / (2.0 * spec.width**2)
            np.exp(t, out=t)
    elif spec.kind == "polynomial":
        t += spec.offset
        t **= spec.degree
    return t


def reference_self_table(spec, x, step):
    # One self-product G of the (for distances, mean-shifted) rows; per
    # block of rows: distances as -2 G + outer(|x_i|^2, |x_j|^2), finish,
    # then the diagonal set to 0 (distances) or 1 (gaussian).
    dist = spec is None or spec.kind == "gaussian"
    if dist:
        x = x - x.mean(axis=0)
        nx = np.einsum("ij,ij->i", x, x)
    out = x @ x.T
    for i0 in range(0, x.shape[0], step):
        blk = out[i0:i0 + step]
        if dist:
            blk *= -2.0
            blk += np.add.outer(nx[i0:i0 + step], nx)
        reference_finish(spec, blk)
        if dist:
            np.fill_diagonal(blk[:, i0:], 0.0 if spec is None else 1.0)
    return out


def reference_cross_table(spec, a, b, step):
    # Per block of rows of a: distances as (a - m) (-2 (b - m))^T
    # + |a - m|^2 + |b - m|^2 with m the mean of b, or the dot products
    # a b^T; then finish.
    dist = spec is None or spec.kind == "gaussian"
    if dist:
        shift = b.mean(axis=0)
        rows = b - shift
        nb = np.einsum("ij,ij->i", rows, rows)
        rows *= -2.0
    out = np.empty((a.shape[0], b.shape[0]))
    for i0 in range(0, a.shape[0], step):
        if dist:
            ai = a[i0:i0 + step] - shift
            blk = ai @ rows.T
            blk += np.einsum("ij,ij->i", ai, ai)[:, None]
            blk += nb
        else:
            blk = a[i0:i0 + step] @ b.T
        out[i0:i0 + step] = reference_finish(spec, blk)
    return out


_ALL_TABLES = pytest.mark.parametrize(
    "spec", [None, KernelSpec.linear(), KernelSpec.polynomial(3, 1.0),
             KernelSpec.gaussian(2.5)],
    ids=["sq_dists", "linear", "polynomial", "gaussian"])


@_BLOCKS
@_ALL_TABLES
@pytest.mark.parametrize("offset", [0.0, 1e3], ids=["origin", "far"])
def test_tables_bit_equal_reference_formulas(monkeypatch, spec, offset, rows_per_block):
    rng = np.random.default_rng(23)
    a = rng.standard_normal((90, 7)) * 3.0 + offset
    b = rng.standard_normal((300, 7)) * 3.0 + offset
    if rows_per_block is not None:
        monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", rows_per_block * 300)
    step = kernels.block_rows(*b.shape)
    if spec is None:
        cross, self_table = sq_dists(a, b), sq_dists(b, b)
    else:
        cross, self_table = kernel_matrix(spec, a, b), kernel_matrix(spec, b, b)
    assert np.array_equal(cross, reference_cross_table(spec, a, b, step))
    assert np.array_equal(self_table, reference_self_table(spec, b, step))


@pytest.mark.parametrize("offset", [0.0, 1e3], ids=["origin", "far"])
def test_prepared_exponents_give_the_cross_table(offset):
    rng = np.random.default_rng(24)
    a = rng.standard_normal((90, 7)) * 3.0 + offset
    b = rng.standard_normal((300, 7)) * 3.0 + offset
    spec = KernelSpec.gaussian(2.5)
    side = kernels.PreparedRows(spec, b)
    k = kernel_matrix(spec, a, b)
    for _ in range(2):  # the right operand is built once, then reused
        got = np.exp(side.exponents(a))
        assert (np.abs(got - k) <= 1e-13 * k).all()


def test_kernel_matrix_dimension_mismatch():
    with pytest.raises(ValueError):
        kernel_matrix(KernelSpec.linear(), np.zeros((2, 3)), np.zeros((2, 4)))


def test_center_gram_all_ones_to_zero():
    k = np.ones((4, 4))
    assert np.allclose(center_gram(k), np.zeros((4, 4)), atol=1e-12)


def test_center_gram_no_op_on_centered_data():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((10, 3))
    x = x - x.mean(axis=0)
    k = kernel_matrix(KernelSpec.linear(), x, x)
    assert np.abs(center_gram(k) - k).max() <= 1e-9


def test_center_gram_zero_row_sums():
    rng = np.random.default_rng(14)
    a = rng.standard_normal((5, 5))
    k = (a + a.T) / 2.0
    kc = center_gram(k)
    assert np.abs(kc.sum(axis=0)).max() <= 1e-9
    assert np.abs(kc.sum(axis=1)).max() <= 1e-9
    # symmetric up to rounding of the two subtracted mean terms
    assert np.allclose(kc, kc.T, atol=1e-12)


def test_center_gram_rejects_non_square():
    with pytest.raises(ValueError):
        center_gram(np.zeros((2, 3)))


def test_center_cross_of_training_row_matches_training_centering():
    rng = np.random.default_rng(15)
    x = rng.standard_normal((7, 3))
    k = kernel_matrix(KernelSpec.gaussian(1.1), x, x)
    kc = center_gram(k)
    k_test = kernel_matrix(KernelSpec.gaussian(1.1), x[2:3], x)
    assert np.allclose(center_cross(k_test, k.mean(axis=0)), kc[2:3], atol=1e-12)


def test_center_cross_identical_points_zero():
    x = np.ones((5, 2))
    k = kernel_matrix(KernelSpec.gaussian(1.0), x, x)
    k_test = kernel_matrix(KernelSpec.gaussian(1.0), np.ones((3, 2)), x)
    assert np.allclose(center_cross(k_test, k.mean(axis=0)), np.zeros((3, 5)),
                       atol=1e-12)


def test_center_cross_matches_brute_force():
    rng = np.random.default_rng(16)
    x = rng.standard_normal((6, 2))
    q = rng.standard_normal((4, 2))
    spec = KernelSpec.gaussian(0.8)
    k = kernel_matrix(spec, x, x)
    k_test = kernel_matrix(spec, q, x)
    n = 6
    expected = np.empty_like(k_test)
    for t in range(4):
        for i in range(n):
            expected[t, i] = (
                k_test[t, i]
                - sum(k[j, i] for j in range(n)) / n
                - sum(k_test[t, j] for j in range(n)) / n
                + sum(k[j, l] for j in range(n) for l in range(n)) / n**2
            )
    # Only the training Gram's column means enter the centering.
    assert np.allclose(center_cross(k_test, k.mean(axis=0)), expected, atol=1e-12)


def test_center_cross_shape_mismatch():
    with pytest.raises(ValueError):
        center_cross(np.zeros((3, 4)), np.zeros(5))
    with pytest.raises(ValueError):
        center_cross(np.zeros((3, 5)), np.zeros((5, 5)))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=2, max_value=12))
def test_center_gram_idempotent_and_psd(seed, n):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 3))
    k = kernel_matrix(KernelSpec.gaussian(1.0), x, x)  # PSD by construction
    kc = center_gram(k)
    assert np.abs(center_gram(kc) - kc).max() <= 1e-9
    assert np.linalg.eigvalsh((kc + kc.T) / 2.0).min() >= -1e-8


# Coordinates in [-1e3, 1e3]; magnitudes below 1e-6 are flushed to 0 so no
# product underflows and the tolerance below stays meaningful.
_coords = st.floats(-1e3, 1e3).map(lambda v: 0.0 if abs(v) < 1e-6 else v)


@st.composite
def row_pairs(draw):
    d = draw(st.integers(1, 5))
    a = draw(arrays(np.float64, (draw(st.integers(1, 9)), d), elements=_coords))
    b = draw(arrays(np.float64, (draw(st.integers(1, 9)), d), elements=_coords))
    return a, b


@settings(max_examples=60, deadline=None)
@given(row_pairs())
def test_sq_dists_matches_explicit_differences(pair):
    a, b = pair
    scale = max((a * a).sum(axis=1).max(), (b * b).sum(axis=1).max())
    for x, y in ((a, b), (a, a)):
        got = sq_dists(x, y)
        assert got.shape == (x.shape[0], y.shape[0])
        assert np.abs(got - explicit_sq_dists(x, y)).max() <= 1e-12 * scale
        assert got.min() >= 0.0


def test_sq_dists_self_case_across_blocks(monkeypatch):
    rng = np.random.default_rng(17)
    x = rng.standard_normal((11, 3))
    q = rng.standard_normal((5, 3))
    full = sq_dists(x, x)
    sigma = select_sigma(x)
    # Four rows per block: 11 is not a multiple, and the self case crosses
    # three diagonal blocks.
    monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", 4 * 11)
    blocked = sq_dists(x, x)
    assert np.array_equal(blocked, blocked.T)
    assert np.array_equal(np.diag(blocked), np.zeros(11))
    assert np.allclose(blocked, full, rtol=0.0, atol=1e-13)
    assert np.allclose(sq_dists(q, x), explicit_sq_dists(q, x), rtol=0.0, atol=1e-13)
    k = kernel_matrix(KernelSpec.gaussian(0.9), x, x)
    assert np.array_equal(k, k.T)
    assert np.array_equal(np.diag(k), np.ones(11))
    monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", 1)  # one row per block
    assert np.allclose(sq_dists(x, x), full, rtol=0.0, atol=1e-13)
    assert select_sigma(x) == sigma


def test_sq_dists_edge_shapes():
    rng = np.random.default_rng(18)
    a = rng.standard_normal((6, 4))
    one = rng.standard_normal((1, 4))
    assert np.allclose(sq_dists(one, a), explicit_sq_dists(one, a), atol=1e-13)
    assert np.allclose(sq_dists(a, one), explicit_sq_dists(a, one), atol=1e-13)
    assert np.array_equal(sq_dists(one, one), np.zeros((1, 1)))
    col = np.array([[0.0], [1.0], [3.0]])
    assert np.allclose(sq_dists(col, col),
                       np.array([[0.0, 1.0, 9.0], [1.0, 0.0, 4.0], [9.0, 4.0, 0.0]]),
                       rtol=0.0, atol=1e-13)
    with pytest.raises(ValueError):
        sq_dists(np.zeros((2, 3)), np.zeros((2, 4)))


def test_distances_far_from_origin_match_unshifted():
    rng = np.random.default_rng(19)
    # On a 2^-20 grid, so adding 1e6 is exact and only the distance
    # computation can differ between the two copies.
    x = np.round(rng.standard_normal((40, 6)) * 2.0**20) / 2.0**20
    far = x + 1e6
    assert np.array_equal(far - 1e6, x)
    spec = KernelSpec.gaussian(1.5)
    k, k_far = kernel_matrix(spec, x, x), kernel_matrix(spec, far, far)
    assert np.abs(k_far - k).max() <= 1e-9 * np.abs(k).max()
    q, q_far = x[:7] + 0.25, far[:7] + 0.25
    assert np.abs(kernel_matrix(spec, q_far, far) - kernel_matrix(spec, q, x)).max() \
        <= 1e-9 * np.abs(k).max()
    assert select_sigma(far) == pytest.approx(select_sigma(x), rel=1e-9)
