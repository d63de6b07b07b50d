import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from kpca_lab import kernels
from kpca_lab.kernels import (
    KernelSpec,
    center_cross,
    center_gram,
    kernel_matrix,
)
from kpca_lab.kpca import select_sigma


def explicit_sq_dists(a, b):
    return ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)


def explicit_table(spec, a, b):
    # Kernel values from explicit differences or plain dot products.
    if spec.kind == "gaussian":
        return np.exp(-explicit_sq_dists(a, b) / (2.0 * spec.width**2))
    return (a @ b.T + spec.offset) ** spec.degree


def raw_sq_dists(a, b):
    # The unclamped squared-distance rows the width heuristic reads.
    return kernels.PreparedRows(None, b).raw(a)


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
    # The degree is a uint32 in the model container's header.
    with pytest.raises(ValueError, match=r"degree must be <= 2\^32 - 1, got 4294967296$"):
        KernelSpec.polynomial(2**32)
    assert KernelSpec.polynomial(2**32 - 1).degree == 4294967295
    spec = KernelSpec.polynomial(3.0, 1)
    assert spec == KernelSpec.polynomial(3, 1.0) and type(spec.degree) is int


def test_gaussian_same_point_is_one():
    # As a self table and as a cross row against an equal copy.
    x = np.array([[0.3, -1.2, 4.0]])
    spec = KernelSpec.gaussian(0.7)
    assert kernel_matrix(spec, x, x)[0, 0] == 1.0
    assert kernel_matrix(spec, x, x.copy())[0, 0] == 1.0


def test_polynomial_degree_one_is_dot_product():
    x = np.array([[1.0, 2.0, 3.0]])
    y = np.array([[-1.0, 0.5, 2.0]])
    assert kernel_matrix(KernelSpec.polynomial(1, 0.0), x, y)[0, 0] == x[0] @ y[0]
    assert kernel_matrix(KernelSpec.linear(), x, y)[0, 0] == x[0] @ y[0]


def test_gaussian_hand_value():
    # sigma=1, |x-y| = 2 -> exp(-4/2) = exp(-2)
    v = kernel_matrix(KernelSpec.gaussian(1.0), np.array([[0.0]]), np.array([[2.0]]))[0, 0]
    assert v == pytest.approx(0.1353352832366127, rel=1e-12)


def test_kernel_matrix_single_row():
    x = np.array([[1.0, 2.0]])
    for spec in (KernelSpec.linear(), KernelSpec.polynomial(3, 1.0),
                 KernelSpec.gaussian(2.0)):
        k = kernel_matrix(spec, x, x)
        assert k.shape == (1, 1)
        assert k[0, 0] == pytest.approx(explicit_table(spec, x, x)[0, 0])


def test_kernel_matrix_matches_double_loop():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((6, 3))
    b = rng.standard_normal((4, 3))
    for spec in (KernelSpec.linear(), KernelSpec.polynomial(2, 0.5),
                 KernelSpec.gaussian(1.3)):
        k = kernel_matrix(spec, a, b)
        for i in range(6):
            for j in range(4):
                expected = explicit_table(spec, a[i:i + 1], b[j:j + 1])[0, 0]
                assert k[i, j] == pytest.approx(expected, rel=1e-12, abs=1e-12)


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


# Self-table tile sides, kernels._TILE, in units of 7 rows: the default
# (256, two tiles over 300 rows), 7 rows and 28 rows.  Each ends in a
# partial tile.
_TILES = pytest.mark.parametrize("sevens", [None, 1, 4])


def patch_tile(monkeypatch, sevens):
    if sevens is not None:
        monkeypatch.setattr(kernels, "_TILE", 7 * sevens)


@_TILES
@pytest.mark.parametrize("layout", ["C", "F", "row-strided", "column-strided"])
@pytest.mark.parametrize("spec", [KernelSpec.linear(), KernelSpec.polynomial(3, 1.0),
                                  KernelSpec.gaussian(2.5)], ids=lambda s: s.kind)
def test_self_tables_exactly_symmetric(monkeypatch, spec, layout, sevens):
    # At 300 x 7, numpy 2.x multiplies a view with no unit stride through two
    # separate copies, and that product is not exactly symmetric; the
    # self tables must be in every layout and at every tile side.
    rng = np.random.default_rng(20)
    x = rng.standard_normal((300, 7)) * 3.0 + 1.0
    patch_tile(monkeypatch, sevens)
    expected = kernel_matrix(spec, x, x)
    v = {"C": x, "F": np.asfortranarray(x),
         "row-strided": np.repeat(x, 2, axis=0)[::2],
         "column-strided": np.repeat(x, 2, axis=1)[:, ::2]}[layout]
    assert np.array_equal(v, x)
    k = kernel_matrix(spec, v, v)
    assert k.shape == (300, 300)
    assert np.array_equal(k, k.T)
    # Every layout is multiplied as the same C-ordered values: the tables
    # are bit-equal.
    assert np.array_equal(k, expected)
    if spec.kind == "gaussian":
        assert np.array_equal(np.diag(k), np.ones(300))


_BLOCKS = pytest.mark.parametrize("rows_per_block", [None, 1, 4],
                                  ids=["default", "1-row", "4-row"])


@pytest.mark.parametrize("sevens", [None, 1, 4], ids=["default", "7-row", "28-row"])
def test_gaussian_self_table_is_the_two_pass_form(monkeypatch, sevens):
    # The tile loop scales, clamps and exponentiates each tile of the self
    # table while it is in cache; the values are those of finishing the
    # whole distance table at the same tile side first and scaling and
    # exponentiating it after.
    rng = np.random.default_rng(21)
    x = rng.standard_normal((300, 7)) * 3.0 + 1.0
    width = 2.5
    patch_tile(monkeypatch, sevens)
    expected = reference_self_table(None, x, kernels._TILE)
    expected *= -1.0 / (2.0 * width**2)
    np.exp(expected, out=expected)
    np.fill_diagonal(expected, 1.0)
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
        # The two-pass form: the raw distance rows at this block size, scaled
        # and exponentiated after they are built.
        expected = reference_cross_table(None, a, b, kernels.block_rows(*b.shape))
        expected *= -1.0 / (2.0 * spec.width**2)
        np.exp(expected, out=expected)
    else:
        expected = (a @ b.T + spec.offset) ** spec.degree
    k = kernel_matrix(spec, a, b)
    side = kernels.PreparedRows(spec, b)
    blocks = [(i0, i1, side.finish(raw)) for i0, i1, raw in side.blocks(a)]
    # The blocks tile the rows in order, and their rows are the table's.
    assert [i0 for i0, _, _ in blocks] == [0] + [i1 for _, i1, _ in blocks[:-1]]
    assert len(blocks) == -(-90 // (rows_per_block or 90))
    assert np.array_equal(np.vstack([blk for _, _, blk in blocks]), k)
    if spec.kind == "gaussian":
        # Exponents from one product agree with it to rounding, and clamping
        # them at 0 keeps every entry a kernel value.
        assert (np.abs(k - expected) <= 1e-13 * expected).all()
        assert (k <= 1.0).all()
    else:
        assert np.abs(k - expected).max() <= 1e-13 * np.abs(expected).max()


def reference_finish(spec, t):
    # Finishing of the self table's distances: clamped at 0, then for the
    # gaussian scaled and exponentiated; or dot products with the
    # polynomial offset and power.
    if spec is None or spec.kind == "gaussian":
        np.maximum(t, 0.0, out=t)
        if spec is not None:
            t *= -1.0 / (2.0 * spec.width**2)
            np.exp(t, out=t)
    elif spec.kind == "polynomial":
        t += spec.offset
        t **= spec.degree
    return t


def reference_self_table(spec, x, tile):
    # Over the upper triangle in square tiles of ``tile`` (for distances,
    # mean-shifted) rows: G is the self-product of a diagonal tile's rows, or
    # the product of two row ranges; distances as
    # -2 G + outer(|x_i|^2, |x_j|^2), finished, a diagonal tile's diagonal
    # then set to 0 (distances) or 1 (gaussian); the tile written to its
    # place and its transpose to the mirrored place.
    dist = spec is None or spec.kind == "gaussian"
    if dist:
        x = x - x.mean(axis=0)
        nx = np.einsum("ij,ij->i", x, x)
    n = x.shape[0]
    out = np.empty((n, n))
    for i0 in range(0, n, tile):
        for j0 in range(i0, n, tile):
            xi, xj = x[i0:i0 + tile], x[j0:j0 + tile]
            t = xi @ xi.T if j0 == i0 else xi @ xj.T
            if dist:
                t *= -2.0
                t += np.add.outer(nx[i0:i0 + tile], nx[j0:j0 + tile])
            reference_finish(spec, t)
            if dist and j0 == i0:
                np.fill_diagonal(t, 0.0 if spec is None else 1.0)
            out[i0:i0 + tile, j0:j0 + tile] = t
            out[j0:j0 + tile, i0:i0 + tile] = t.T
    return out


def reference_cross_table(spec, a, b, step):
    # Per block of rows of a: distances from one product
    # [-2c (a - m), c |a - m|^2, c] [b - m, 1, |b - m|^2]^T with m the mean
    # of b and c = 1 (spec None, kept raw) or -1/(2 sigma^2) (gaussian,
    # clamped at 0 and exponentiated); or the dot products a b^T, finished.
    dist = spec is None or spec.kind == "gaussian"
    if dist:
        c = 1.0 if spec is None else -1.0 / (2.0 * spec.width**2)
        shift = b.mean(axis=0)
        rows = b - shift
        right = np.column_stack(
            [rows, np.ones(b.shape[0]), np.einsum("ij,ij->i", rows, rows)])
    out = np.empty((a.shape[0], b.shape[0]))
    for i0 in range(0, a.shape[0], step):
        if not dist:
            out[i0:i0 + step] = reference_finish(spec, a[i0:i0 + step] @ b.T)
            continue
        ai = a[i0:i0 + step] - shift
        left = np.column_stack(
            [-2.0 * c * ai, c * np.einsum("ij,ij->i", ai, ai), np.full(ai.shape[0], c)])
        blk = left @ right.T
        if spec is None:
            out[i0:i0 + step] = blk
        else:
            out[i0:i0 + step] = np.exp(np.minimum(blk, 0.0))
    return out


_KERNEL_SPECS = [KernelSpec.linear(), KernelSpec.polynomial(3, 1.0), KernelSpec.gaussian(2.5)]
_KERNELS = pytest.mark.parametrize("spec", _KERNEL_SPECS, ids=lambda s: s.kind)
# spec None: the raw squared-distance rows the width heuristic reads.
_ALL_TABLES = pytest.mark.parametrize("spec", [None] + _KERNEL_SPECS,
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
        # Distance rows have no table of their own, only the raw blocks.
        cross = np.vstack([raw for _, _, raw in kernels.PreparedRows(None, b).blocks(a)])
    else:
        cross = kernel_matrix(spec, a, b)
        assert np.array_equal(kernel_matrix(spec, b, b),
                              reference_self_table(spec, b, kernels._TILE))
    assert np.array_equal(cross, reference_cross_table(spec, a, b, step))


@_KERNELS
@pytest.mark.parametrize("offset", [0.0, 1e3], ids=["origin", "far"])
def test_self_table_tile_edges(monkeypatch, spec, offset):
    # 300 rows end in a partial tile at sides 7 and 64.  Every side gives an
    # exactly symmetric table, a gaussian diagonal exactly 1 and bit-equal
    # row means;
    # sides differ only where a diagonal tile's self-product rounds an entry
    # otherwise than the product of two row ranges, by at most 8 eps times
    # the table's largest entry.
    rng = np.random.default_rng(25)
    x = rng.standard_normal((300, 7)) * 3.0 + offset
    expected = explicit_table(spec, x, x)
    default = kernels.gram_with_means(spec, x)[0]
    for tile in (7, 64):
        monkeypatch.setattr(kernels, "_TILE", tile)
        table, means = kernels.gram_with_means(spec, x)
        assert np.array_equal(table, table.T)
        assert np.array_equal(means, table.mean(axis=1))
        if spec.kind == "gaussian":
            assert np.array_equal(np.diag(table), np.ones(300))
            assert (np.abs(table - expected) <= 1e-13 * expected).all()
        else:
            assert np.abs(table - expected).max() <= 1e-13 * np.abs(expected).max()
        assert np.abs(table - default).max() <= 8 * np.finfo(float).eps * np.abs(default).max()


def test_gram_with_means_peak_memory():
    # The table is the only N x N array: a tile and the outer sum of its
    # norms are the largest temporaries, with O(N D) for the prepared rows.
    n, d = 1500, 3
    x = np.random.default_rng(26).standard_normal((n, d))
    spec = KernelSpec.gaussian(1.0)
    kernels.gram_with_means(spec, x)
    tracemalloc.start()
    try:
        kernels.gram_with_means(spec, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (n * n + 2 * kernels._TILE**2 + 8 * n * (d + 2))


@pytest.mark.parametrize("spec", [None, KernelSpec.gaussian(2.5)], ids=["sq_dists", "gaussian"])
@pytest.mark.parametrize("offset", [0.0, 1e3], ids=["origin", "far"])
def test_prepared_raw_rows_are_scaled_distances(offset, spec):
    # raw gives c |a - b|^2 unclamped, c = 1 for spec None and
    # -1/(2 sigma^2) for the gaussian; the shift by the mean of b keeps it
    # accurate far from the origin.
    rng = np.random.default_rng(24)
    a = rng.standard_normal((90, 7)) * 3.0 + offset
    b = rng.standard_normal((300, 7)) * 3.0 + offset
    side = kernels.PreparedRows(spec, b)
    d2 = explicit_sq_dists(a, b)
    got = side.raw(a)
    if spec is None:
        assert np.abs(got - d2).max() <= 1e-13 * d2.max()
    else:
        k = np.exp(-d2 / (2.0 * spec.width**2))
        assert (np.abs(np.exp(got) - k) <= 1e-13 * k).all()
        assert np.array_equal(np.exp(np.minimum(got, 0.0)), kernel_matrix(spec, a, b))


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
    # Raw rows are unclamped by design, so an entry may round below 0.
    a, b = pair
    scale = max((a * a).sum(axis=1).max(), (b * b).sum(axis=1).max())
    for x, y in ((a, b), (a, a)):
        got = raw_sq_dists(x, y)
        assert got.shape == (x.shape[0], y.shape[0])
        assert np.abs(got - explicit_sq_dists(x, y)).max() <= 1e-12 * scale


def test_sq_dists_self_case_across_blocks(monkeypatch):
    # The width heuristic's self case: distance rows of x against itself in
    # blocks of 4 rows (11 is not a multiple) and of 1 row.
    rng = np.random.default_rng(17)
    x = rng.standard_normal((11, 3))
    q = rng.standard_normal((5, 3))
    side = kernels.PreparedRows(None, x)
    full = side.raw(x)
    sigma = select_sigma(x)
    for rows_per_block in (4, 1):
        monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", rows_per_block * 11)
        blocks = list(side.blocks(x))
        assert len(blocks) == -(-11 // rows_per_block)
        assert np.allclose(np.vstack([raw for _, _, raw in blocks]), full,
                           rtol=0.0, atol=1e-13)
        assert np.allclose(np.vstack([raw for _, _, raw in side.blocks(q)]),
                           explicit_sq_dists(q, x), rtol=0.0, atol=1e-13)
        assert select_sigma(x) == sigma
    # Tiles of 4 rows: the self table crosses three diagonal tiles.
    monkeypatch.setattr(kernels, "_TILE", 4)
    k = kernel_matrix(KernelSpec.gaussian(0.9), x, x)
    assert np.array_equal(k, k.T)
    assert np.array_equal(np.diag(k), np.ones(11))


def test_sq_dists_edge_shapes():
    rng = np.random.default_rng(18)
    a = rng.standard_normal((6, 4))
    one = rng.standard_normal((1, 4))
    assert np.allclose(raw_sq_dists(one, a), explicit_sq_dists(one, a), atol=1e-13)
    assert np.allclose(raw_sq_dists(a, one), explicit_sq_dists(a, one), atol=1e-13)
    assert np.array_equal(raw_sq_dists(one, one), np.zeros((1, 1)))
    col = np.array([[0.0], [1.0], [3.0]])
    assert np.allclose(raw_sq_dists(col, col),
                       np.array([[0.0, 1.0, 9.0], [1.0, 0.0, 4.0], [9.0, 4.0, 0.0]]),
                       rtol=0.0, atol=1e-13)


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
