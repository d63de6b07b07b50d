import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from kpca_lab import eigen, kernels, kpca
from kpca_lab.classify import LinearClassifier, fit_linear, predict_many
from kpca_lab.eigen import sym_eig
from kpca_lab.data import SpheresParams, gen_two_spheres
from kpca_lab.kernels import KernelSpec, center_cross, center_gram, kernel_matrix
from kpca_lab.kpca import (
    PreimageConfig,
    UnsupportedKernelError,
    fit_kpca,
    kpca_preimage,
    kpca_preimages,
    kpca_transform,
    select_sigma,
)
from kpca_lab.model_io import load_model, save_model
from kpca_lab.pca import fit_pca, fit_pca_dual, pca_project, pca_reconstruct
from kpca_lab.shapes import clamp_deformation


_KINDS = pytest.mark.parametrize("kind", ["linear", "polynomial", "gaussian"])
# Block sizes for kernels._BLOCK_ENTRIES: the default, 1 row and 4 rows.
_BLOCKS = pytest.mark.parametrize("rows_per_block", [None, 1, 4],
                                  ids=["default", "1-row", "4-row"])


def small_spheres(n=60, seed=5):
    return gen_two_spheres(SpheresParams(n=n, seed=seed)).features


def wide_blobs(n, d, seed=0):
    """Two classes of n/2 rows that differ in scale on 3 of d axes, the
    shape of the high-dimensional experiment."""
    rng = np.random.default_rng(seed)
    return np.vstack([np.hstack([scale * rng.standard_normal((n // 2, 3)),
                                 0.05 * rng.standard_normal((n // 2, d - 3))])
                      for scale in (2.0, 8.0)])


def column_sign_align(a, b):
    """Flip columns of b so each correlates positively with a's column."""
    signs = np.sign((a * b).sum(axis=0))
    signs[signs == 0.0] = 1.0
    return b * signs[None, :]


def test_identical_points_retain_nothing():
    for n in (4, 60):  # full eigh; top-m block Lanczos
        x = np.ones((n, 2))
        model = fit_kpca(x, KernelSpec.gaussian(1.0), 3)
        assert model.n_components == 0
        assert kpca_transform(model, x).shape == (n, 0)
        assert model.training_features.shape == (n, 0)


@_KINDS
@pytest.mark.parametrize("case", ["eigh", "krylov", "wide"])
def test_training_features_match_the_transform(monkeypatch, kind, case):
    # K~ a_k = N lambda_k a_k, so the fit's coefficients give the training
    # rows' features with no kernel evaluation, whichever solver found them.
    # A Ritz pair is accepted at a residual of about 1e-12 lambda_0
    # (eigen._RESIDUAL_RTOL), so column k may leave the transform by about
    # that over lambda_k, relative to its largest entry.  The wide case's
    # ninth component is 10 to 2000 times below its first.
    krylov, solved = eigen._krylov_top, []
    monkeypatch.setattr(eigen, "_krylov_top",
                        lambda a, c, m: solved.append(krylov(a, c, m)) or solved[-1])
    x, m = {"eigh": (small_spheres(n=12), 2), "krylov": (small_spheres(n=300), 2),
            "wide": (wide_blobs(300, 1000), 9)}[case]
    spec = {"linear": KernelSpec.linear,
            "polynomial": lambda: KernelSpec.polynomial(2, 1.0),
            "gaussian": lambda: KernelSpec.gaussian(select_sigma(x))}[kind]()
    model = fit_kpca(x, spec, m)
    if case != "wide":  # there the linear fit falls back to eigh
        assert [s is not None for s in solved] == ([True] if case == "krylov" else [])
    got, expected = model.training_features, kpca_transform(model, x)
    assert got.shape == expected.shape == (x.shape[0], m)
    lam = model.eigenvalues
    assert (np.abs(got - expected).max(axis=0)
            <= 1e-11 * (lam[0] / lam) * np.abs(expected).max(axis=0)).all()


@pytest.mark.parametrize("m", [2, 4, 6, 8, 10])
def test_top_m_fit_matches_full_eigh_fit(monkeypatch, m):
    # m = 6, 8 and 10 ran out of subspace-iteration sweeps on this data and
    # paid for eigh as well; block Lanczos certifies all of them.
    x = gen_two_spheres(SpheresParams(n=300, seed=8)).features
    spec = KernelSpec.gaussian(select_sigma(x))
    solved = []
    iterate = eigen._krylov_top

    def spy(a, c, m):
        solved.append(iterate(a, c, m))
        return solved[-1]

    monkeypatch.setattr(eigen, "_krylov_top", spy)
    top = fit_kpca(x, spec, m)
    assert solved and solved[0] is not None  # block Lanczos, not the fallback
    monkeypatch.setattr(kpca, "_solve", lambda a, c, m: sym_eig(center_gram(a)))
    full = fit_kpca(x, spec, m)
    assert top.n_components == full.n_components == m
    assert np.abs(top.eigenvalues - full.eigenvalues).max() <= 1e-12 * full.eigenvalues[0]
    scale = np.abs(full.coefficients).max()
    assert np.abs(top.coefficients - full.coefficients).max() <= 1e-10 * scale
    assert np.array_equal(top.train_col_means, full.train_col_means)


def test_runtime_needs_numpy_only():
    code = ("import sys\n"
            "import numpy as np\n"
            "import kpca_lab\n"
            "from kpca_lab.kernels import KernelSpec\n"
            "x = np.random.default_rng(0).standard_normal((120, 3))\n"
            "kpca_lab.fit_kpca(x, KernelSpec.gaussian(kpca_lab.select_sigma(x)), 2)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_linear_kernel_eigenvalues_match_pca():
    rng = np.random.default_rng(30)
    x = rng.standard_normal((20, 4))
    kmodel = fit_kpca(x, KernelSpec.linear(), 4)
    pmodel = fit_pca(x, 4)
    assert np.allclose(kmodel.eigenvalues, pmodel.eigenvalues, rtol=1e-8)


def test_coefficient_normalization():
    x = np.array([[0.0, 0.0], [1.0, 0.5], [-0.5, 2.0]])
    model = fit_kpca(x, KernelSpec.gaussian(1.0), 2)
    n = model.n_samples
    for k in range(model.n_components):
        a = model.coefficients[:, k]
        assert model.eigenvalues[k] * n * (a @ a) == pytest.approx(1.0, rel=1e-8)


def test_transform_training_variance_equals_eigenvalues():
    rng = np.random.default_rng(31)
    x = rng.standard_normal((25, 3))
    model = fit_kpca(x, KernelSpec.gaussian(2.0), 5)
    y = kpca_transform(model, x)
    var = (y**2).mean(axis=0) - y.mean(axis=0) ** 2
    assert np.allclose(var, model.eigenvalues, rtol=1e-8, atol=1e-12)


def test_transform_training_features_are_centered():
    rng = np.random.default_rng(32)
    x = rng.standard_normal((18, 3))
    model = fit_kpca(x, KernelSpec.polynomial(2, 0.5), 6)
    y = kpca_transform(model, x)
    assert np.abs(y.mean(axis=0)).max() <= 1e-8


def test_linear_kernel_transform_matches_pca_projection():
    rng = np.random.default_rng(33)
    for _ in range(3):
        x = rng.standard_normal((15, 4))
        kmodel = fit_kpca(x, KernelSpec.linear(), 4)
        y_k = kpca_transform(kmodel, x)
        y_p = pca_project(fit_pca(x, y_k.shape[1]), x)
        assert np.abs(column_sign_align(y_p, y_k) - y_p).max() <= 1e-8


def test_transform_single_row_consistency():
    rng = np.random.default_rng(34)
    x = rng.standard_normal((10, 2))
    model = fit_kpca(x, KernelSpec.gaussian(1.5), 1)
    full = kpca_transform(model, x)
    one = kpca_transform(model, x[4:5])
    assert np.allclose(one[0], full[4], atol=1e-12)


def centred_transform(model, q):
    """Reference transform: the explicitly centred T x N block times the coefficients."""
    k_test = kernel_matrix(model.spec, q, model.training)
    return center_cross(k_test, model.train_col_means) @ model.coefficients


_CASES = ["far queries", "polynomial", "no components", "unbalanced coefficients"]


# The default block size keeps the case's own id.
@pytest.mark.parametrize("case, rows_per_block", [
    pytest.param(case, rows, id=case if rows is None else f"{case}-{rows}-row")
    for rows in (None, 1, 4) for case in _CASES])
def test_transform_matches_explicitly_centred_block(monkeypatch, case, rows_per_block):
    rng = np.random.default_rng(37)
    x = rng.standard_normal((80, 3))
    q = rng.standard_normal((25, 3))
    if rows_per_block is not None:
        # Kernel rows against the 80 training rows come in blocks of this many.
        monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", rows_per_block * 80)
    if case == "far queries":
        # Every kernel value is ~0, so the centring terms are the whole result.
        spec = KernelSpec.gaussian(1.0)
        q += 30.0
    elif case == "polynomial":
        spec = KernelSpec.polynomial(3, 1.0)
    else:
        spec = KernelSpec.gaussian(1.0)
        if case == "no components":
            x = np.ones((80, 3))
    model = fit_kpca(x, spec, 5)
    if case == "unbalanced coefficients":
        # A fitted model's coefficient columns sum to ~0; the transform must
        # not rely on that.
        coefficients = model.coefficients + rng.standard_normal((1, 5))
        assert np.abs(coefficients.sum(axis=0)).min() > 1.0
        model = kpca.KpcaModel(training=model.training, spec=spec,
                               coefficients=coefficients,
                               eigenvalues=model.eigenvalues,
                               train_col_means=model.train_col_means)
    assert model.coefficients.flags.c_contiguous
    got = kpca_transform(model, q)
    expected = centred_transform(model, q)
    assert got.shape == expected.shape == (25, model.n_components)
    assert model.n_components == (0 if case == "no components" else 5)
    assert np.abs(got - expected).max(initial=0.0) <= 1e-12 * np.abs(expected).max(initial=0.0)


@pytest.mark.parametrize("stage, kind", [
    pytest.param("fit", "gaussian", id="fit"),
    pytest.param("transform", "gaussian", id="transform"),
    pytest.param("fit", "linear", id="fit-linear"),
    pytest.param("transform", "linear", id="transform-linear"),
    pytest.param("fit", "polynomial", id="fit-polynomial"),
    pytest.param("transform", "polynomial", id="transform-polynomial"),
])
def test_fit_and_transform_allocate_one_n_by_n_array(stage, kind):
    # Besides the N x N kernel matrix, only temporaries of about 2 MB (a
    # quarter of it at this N) and N x M arrays may be allocated.
    n = 1000
    x = gen_two_spheres(SpheresParams(n=n, seed=3)).features
    spec = {"gaussian": lambda: KernelSpec.gaussian(select_sigma(x)),
            "linear": KernelSpec.linear,
            "polynomial": lambda: KernelSpec.polynomial(2, 1.0)}[kind]()
    model = fit_kpca(x, spec, 2) if stage == "transform" else None
    tracemalloc.start()
    try:
        if stage == "fit":
            fit_kpca(x, spec, 2)
        else:
            kpca_transform(model, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * n * n * 8


@_KINDS
def test_transform_holds_no_t_by_n_table(kind):
    # The kernel rows are contracted one block at a time: besides T x M
    # results and N x M coefficients, only a block of about 2 MB (0.07 of
    # the T x N table at this size) and its temporaries are allocated.
    n = 2000
    x = gen_two_spheres(SpheresParams(n=n, seed=4)).features
    spec = {"gaussian": lambda: KernelSpec.gaussian(select_sigma(x)),
            "linear": KernelSpec.linear,
            "polynomial": lambda: KernelSpec.polynomial(2, 1.0)}[kind]()
    model = fit_kpca(x, spec, 2)
    tracemalloc.start()
    try:
        kpca_transform(model, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * n * n * 8


def test_transform_dimension_mismatch():
    model = fit_kpca(np.eye(3), KernelSpec.gaussian(1.0), 2)
    with pytest.raises(ValueError):
        kpca_transform(model, np.zeros((2, 5)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_transform_rejects_non_finite_query_rows(bad):
    model = fit_kpca(small_spheres(), KernelSpec.gaussian(1.0), 2)
    q = small_spheres(n=4, seed=6)
    q[2, 1] = q[3, 0] = bad
    with pytest.raises(ValueError, match="^query row 2 has non-finite entries$"):
        kpca_transform(model, q)


@_KINDS
def test_transform_query_layouts_are_bit_equal(kind):
    # The queries are multiplied as C-ordered rows whatever their layout.
    x = small_spheres()
    spec = {"linear": KernelSpec.linear,
            "polynomial": lambda: KernelSpec.polynomial(2, 1.0),
            "gaussian": lambda: KernelSpec.gaussian(select_sigma(x))}[kind]()
    model = fit_kpca(x, spec, 3)
    q = small_spheres(n=30, seed=7)
    expected = kpca_transform(model, q)
    for view in (np.asfortranarray(q), np.repeat(q, 2, axis=1)[:, ::2]):
        assert not view.flags.c_contiguous and np.array_equal(view, q)
        assert np.array_equal(kpca_transform(model, view), expected)


def fitted_arrays(result):
    """The array fields of a fitted model, or a float result as itself."""
    if isinstance(result, float):
        return [result]
    return [v for v in vars(result).values() if isinstance(v, np.ndarray)]


@pytest.mark.parametrize("entry", ["select_sigma", "fit_pca", "fit_pca-dual", "fit_kpca",
                                   "fit_linear"])
def test_fit_layouts_are_bit_equal(entry):
    # Every fit reads its rows as C-ordered float64, whatever their layout.
    # fit_pca-dual takes the D > N route through the dual Gram.
    spheres = gen_two_spheres(SpheresParams(n=300, seed=1))
    x = spheres.features
    if entry == "fit_pca-dual":
        x = np.random.default_rng(9).standard_normal((40, 120)) * 3.0 + 1.0
    fit = {
        "select_sigma": select_sigma,
        "fit_pca": lambda v: fit_pca(v, 2),
        "fit_pca-dual": lambda v: fit_pca(v, 5),
        "fit_kpca": lambda v: fit_kpca(v, KernelSpec.gaussian(1.5), 3),
        "fit_linear": lambda v: fit_linear(v, spheres.labels),
    }[entry]
    expected = fitted_arrays(fit(x))
    for view in (np.asfortranarray(x), np.repeat(x, 2, axis=1)[:, ::2]):
        assert not view.flags.c_contiguous and np.array_equal(view, x)
        got = fitted_arrays(fit(view))
        assert len(got) == len(expected)
        assert all(np.array_equal(g, e) for g, e in zip(got, expected))


def test_fit_argument_errors():
    x = np.eye(3)
    with pytest.raises(ValueError):
        fit_kpca(x, KernelSpec.linear(), 0)
    with pytest.raises(ValueError):
        fit_kpca(x, KernelSpec.linear(), 4)
    with pytest.raises(ValueError):
        fit_kpca(x[:1], KernelSpec.linear(), 1)


def test_duplicated_dataset_transform_invariant():
    rng = np.random.default_rng(35)
    x = rng.standard_normal((12, 3))
    m1 = fit_kpca(x, KernelSpec.gaussian(1.8), 3)
    m2 = fit_kpca(np.vstack([x, x]), KernelSpec.gaussian(1.8), 3)
    y1 = kpca_transform(m1, x)
    y2 = kpca_transform(m2, x)[:, : y1.shape[1]]
    assert np.abs(column_sign_align(y1, y2) - y1).max() <= 1e-6


def test_preimage_of_training_features_near_original():
    x = small_spheres()
    sigma = select_sigma(x)
    model = fit_kpca(x, KernelSpec.gaussian(sigma), x.shape[0])
    y = kpca_transform(model, x)
    for i in range(0, x.shape[0], 7):
        result = kpca_preimage(model, y[i])
        assert result.status == "converged"
        assert np.linalg.norm(result.z - x[i]) <= 1e-3


def test_converged_preimage_satisfies_fixed_point():
    x = small_spheres(seed=6)
    sigma = select_sigma(x)
    model = fit_kpca(x, KernelSpec.gaussian(sigma), 10)
    y = kpca_transform(model, x)
    cfg = PreimageConfig(tolerance=1e-9)
    result = kpca_preimage(model, y[3], cfg)
    assert result.status == "converged"
    w = preimage_weights(model, y[3])
    g = w * np.exp(-((x - result.z) ** 2).sum(axis=1) / (2.0 * sigma**2))
    rhs = (g @ x) / g.sum()
    assert np.linalg.norm(rhs - result.z) <= 10.0 * cfg.tolerance


def test_preimage_zero_features_on_symmetric_pair_is_midpoint():
    x = np.array([[0.0], [1.0]])
    model = fit_kpca(x, KernelSpec.gaussian(0.1), 1)
    result = kpca_preimage(model, np.zeros(model.n_components))
    assert result.status == "converged"
    assert result.z == pytest.approx([0.5], abs=1e-9)


def test_preimage_iteration_budget():
    x = small_spheres(seed=7)
    model = fit_kpca(x, KernelSpec.gaussian(select_sigma(x)), 5)
    y = kpca_transform(model, x)
    result = kpca_preimage(model, y[0], PreimageConfig(max_iterations=1))
    assert result.iterations == 1
    assert result.status != "converged"


def test_preimage_rejects_non_gaussian():
    x = np.eye(3)
    model = fit_kpca(x, KernelSpec.linear(), 2)
    with pytest.raises(UnsupportedKernelError):
        kpca_preimage(model, np.zeros(model.n_components))


def test_preimage_divergence_detected():
    # A target far beyond any reachable feature value throws the iterate far
    # outside the data, where all gaussian weights underflow.
    x = np.array([[0.0], [1.0]])
    model = fit_kpca(x, KernelSpec.gaussian(0.1), 1)
    result = kpca_preimage(model, np.array([1e6]))
    assert result.status == "diverged"
    assert result.iterations >= 1
    assert result.z.shape == (1,)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan-row", "inf-row"])
def test_preimages_reject_non_finite_feature_rows(bad):
    x = small_spheres(seed=8)
    model = fit_kpca(x, KernelSpec.gaussian(select_sigma(x)), 3)
    y = kpca_transform(model, x[:6])
    y[4, 0] = np.nan
    y[2, 1] = bad
    # Checked before any iteration, and the first bad row is the one named.
    with pytest.raises(ValueError, match="feature row 2 has non-finite entries"):
        kpca_preimages(model, y)
    with pytest.raises(ValueError, match="feature row 0 has non-finite entries"):
        kpca_preimage(model, y[2])
    # The width is checked before the first step too, in the row rule's words.
    with pytest.raises(ValueError, match="^feature rows have 2 columns, expected 3$"):
        kpca_preimages(model, y[:, :2])


def preimage_weights(model, y):
    """Centring-adjusted pre-image weights of a feature vector or T x M rows.

    gamma_i = sum_k y_k a_ki, shifted by -mean(gamma) + 1/N for the centred
    fit: one row of N weights per row of ``y``, or N weights for a vector.
    The reference form of the weights kpca_preimages takes from one product.
    """
    w = np.atleast_2d(y) @ model.coefficients.T
    w -= w.mean(axis=1, keepdims=True)
    w += 1.0 / model.n_samples
    return w[0] if np.ndim(y) == 1 else w


def reference_preimage(model, y, cfg):
    """The per-row fixed point with explicit differences, as (z, iterations, status)."""
    x = model.training
    gamma = model.coefficients @ y
    weights = gamma - gamma.mean() + 1.0 / model.n_samples
    z = x.mean(axis=0)
    inv = 1.0 / (2.0 * model.spec.width**2)
    for iteration in range(1, cfg.max_iterations + 1):
        w = weights * np.exp(-((x - z) ** 2).sum(axis=1) * inv)
        denom = w.sum()
        if not np.isfinite(denom) or abs(denom) < 1e-300:
            return z, iteration, "diverged"
        z_next = (w @ x) / denom
        step = np.linalg.norm(z_next - z)
        z = z_next
        if step < cfg.tolerance:
            return z, iteration, "converged"
    return z, cfg.max_iterations, "max-iterations"


def mixed_status_batch():
    """Two-spheres N=300 rows whose pre-images converge, diverge or run out."""
    x = gen_two_spheres(SpheresParams(n=300, seed=1)).features
    model = fit_kpca(x, KernelSpec.gaussian(select_sigma(x)), 2)
    return model, kpca_transform(model, x), PreimageConfig(max_iterations=25)


def kernel_table_preimages(model, ys, cfg):
    """The batched fixed point, ``kernel_matrix`` on every step: (z, iterations, status).

    Rows start at the training mean m; each step's weighted mean is taken of
    the rows x - m and m added back.
    """
    x = model.training
    t = ys.shape[0]
    shift = x.mean(axis=0)
    z = np.tile(shift, (t, 1))
    iterations = np.zeros(t, dtype=int)
    status = np.full(t, "max-iterations")
    chunk = kpca.block_rows(*x.shape)
    for c0 in range(0, t, chunk):
        active = np.arange(c0, min(c0 + chunk, t))
        weights = preimage_weights(model, ys[active])
        for iteration in range(1, cfg.max_iterations + 1):
            z_active = z[active]
            w = kernel_matrix(model.spec, z_active, x)
            w *= weights
            denom = w.sum(axis=1)
            iterations[active] = iteration
            ok = np.isfinite(denom) & (np.abs(denom) >= 1e-300)
            if not ok.all():
                status[active[~ok]] = "diverged"
                active, weights, z_active, w, denom = (
                    v[ok] for v in (active, weights, z_active, w, denom))
            z_next = (w @ (x - shift)) / denom[:, None] + shift
            done = np.linalg.norm(z_next - z_active, axis=1) < cfg.tolerance
            z[active] = z_next
            status[active[done]] = "converged"
            active, weights = active[~done], weights[~done]
            if not active.size:
                break
    return z, iterations, status


def product_form_preimages(model, ys, cfg):
    """The windowed fixed point, each step in product form: (z, iterations, status).

    Rows are stepped in a list of ``kpca.block_rows`` slots, each
    [row, iterate, steps, weights].  A finished row's slot takes the next
    waiting row (the weights of the rows entering at one step are taken
    together, as [y, 1] [a~, 1/N]^T with a~ the coefficients less their
    column means); once none waits, each other finished slot, highest first,
    takes the last slot, which is then dropped.  Per step: one
    product [-2c (z - m), c |z - m|^2, c] [x - m, 1, |x - m|^2]^T gives the
    exponents c |z - x_j|^2, c = -1/(2 sigma^2) and m the training mean;
    exp in place; the weights; one product with [x - m, 1] gives each row's
    numerator less m and its denominator.  Rows start at m.
    """
    x = model.training
    n, d = x.shape
    shift = x.mean(axis=0)
    rows = x - shift
    right = np.vstack([rows.T, np.ones(n), np.einsum("ij,ij->i", rows, rows)])
    x1 = np.hstack([rows, np.ones((n, 1))])
    a = model.coefficients
    a1 = np.hstack([a - a.mean(axis=0), np.full((n, 1), 1.0 / n)])
    c = -1.0 / (2.0 * model.spec.width**2)
    t = ys.shape[0]
    y1 = np.hstack([ys, np.ones((t, 1))])
    z = np.empty((t, d))
    iterations = np.zeros(t, dtype=int)
    status = np.full(t, "max-iterations")
    waiting = list(range(t))

    def enter(k):
        new, waiting[:k] = waiting[:k], []
        return [[i, shift, 0, w] for i, w in zip(new, y1[new] @ a1.T)]

    slots = enter(kpca.block_rows(n, d))
    while slots:
        zs = np.array([s[1] for s in slots]) - shift
        left = np.empty((zs.shape[0], d + 2))
        np.multiply(zs, -2.0 * c, out=left[:, :-2])
        left[:, -2] = c * np.einsum("ij,ij->i", zs, zs)
        left[:, -1] = c
        w = left @ right
        np.exp(w, out=w)
        w *= np.array([s[3] for s in slots])
        ended = []
        for j, (slot, nd) in enumerate(zip(slots, w @ x1)):
            slot[2] += 1
            if not (np.isfinite(nd[d]) and abs(nd[d]) >= 1e-300):
                end = "diverged"
            else:
                z_next = nd[:d] / nd[d] + shift
                step = np.sqrt(((z_next - slot[1]) ** 2).sum())
                slot[1] = z_next
                end = ("converged" if step < cfg.tolerance else
                       "max-iterations" if slot[2] == cfg.max_iterations else None)
            if end is not None:
                z[slot[0]], iterations[slot[0]], status[slot[0]] = slot[1], slot[2], end
                ended.append(j)
        fresh = enter(min(len(ended), len(waiting)))
        for j, slot in zip(ended, fresh):
            slots[j] = slot
        for j in reversed(ended[len(fresh):]):
            slots[j] = slots[-1]
            del slots[-1]
    return z, iterations, status


def assert_same_preimages(batch, z, iterations, status):
    batch_z, batch_iterations, batch_status = batch
    assert batch_status.tolist() == list(status)
    assert batch_iterations.tolist() == list(iterations)
    # A diverged row's iterate has been thrown far out (|z| in the thousands
    # here), so it is compared relative to its size; every other row to 1e-10.
    far = np.asarray(status) == "diverged"
    assert np.abs(batch_z[~far] - z[~far]).max() <= 1e-10
    assert np.abs(batch_z[far] - z[far]).max() <= 1e-12 * np.abs(z[far]).max()


def test_kpca_preimages_match_per_row_reference():
    model, y, cfg = mixed_status_batch()
    batch = kpca_preimages(model, y, cfg)
    ref = [reference_preimage(model, row, cfg) for row in y]
    z, iterations, status = (list(col) for col in zip(*ref))
    assert set(status) == {"converged", "diverged", "max-iterations"}
    assert_same_preimages(batch, np.array(z), iterations, status)


def test_kpca_preimage_is_row_0_of_the_batch():
    # Bit for bit it is row 0 of the one-row batch.  Against the row of the
    # whole batch the counts and statuses agree and z differs only by
    # rounding: BLAS rounds a row's products differently with other rows
    # beside it.
    model, y, cfg = mixed_status_batch()
    batch = kpca_preimages(model, y, cfg)
    rows = [int(np.flatnonzero(batch.status == s)[0])
            for s in ("converged", "diverged", "max-iterations")]
    results = [kpca_preimage(model, y[i], cfg) for i in rows]
    for i, row in zip(rows, results):
        one = kpca_preimages(model, y[i:i + 1], cfg)
        assert np.array_equal(row.z, one.z[0])
        assert type(row.iterations) is int and row.iterations == one.iterations[0]
        assert type(row.status) is str and row.status == one.status[0]
    z, iterations, status = (list(col) for col in zip(*results))
    assert_same_preimages([col[rows] for col in batch], np.array(z), iterations, status)


@pytest.mark.parametrize("chunk", [1, 7])
def test_kpca_preimages_independent_of_chunk(monkeypatch, chunk):
    model, y, cfg = mixed_status_batch()
    whole = kpca_preimages(model, y, cfg)
    # 300 rows: chunks of 7 leave a short last chunk.
    monkeypatch.setattr(kpca, "block_rows", lambda n, d: chunk)
    assert_same_preimages(kpca_preimages(model, y, cfg), *whole)


@pytest.mark.parametrize("chunk", [None, 1, 7], ids=["default", "1", "7"])
def test_kpca_preimages_bit_equal_kernel_table_form(monkeypatch, chunk):
    # Each step is the written-out product form bit for bit, so every
    # iterate, count and status is the same.  Against the kernel_matrix(spec,
    # z, x) form it differs only by rounding: the same counts and statuses.
    model, y, cfg = mixed_status_batch()
    if chunk is not None:
        monkeypatch.setattr(kpca, "block_rows", lambda n, d: chunk)
    got = kpca_preimages(model, y, cfg)
    expected = product_form_preimages(model, y, cfg)
    assert set(expected[2]) == {"converged", "diverged", "max-iterations"}
    for g, e in zip(got, expected):
        assert np.array_equal(g, e)
    assert_same_preimages(got, *kernel_table_preimages(model, y, cfg))


def test_kpca_preimages_prepare_the_training_rows_once(monkeypatch):
    model, y, cfg = mixed_status_batch()
    prepared = []

    class Spy(kernels.PreparedRows):
        def __init__(self, spec, b):
            prepared.append(b)
            super().__init__(spec, b)

    monkeypatch.setattr(kpca, "PreparedRows", Spy)
    monkeypatch.setattr(kpca, "block_rows", lambda n, d: 7)
    _, iterations, _ = kpca_preimages(model, y, cfg)
    # A window of 7 slots takes hundreds of steps; one preparation.
    assert iterations.sum() > 300
    assert len(prepared) == 1 and prepared[0] is model.training


@pytest.mark.parametrize("chunk", [1, 7])
def test_kpca_preimages_step_only_unfinished_rows(monkeypatch, chunk):
    # A finished row leaves the window at once, so the rows stepped add up
    # to the iteration counts.
    model, y, cfg = mixed_status_batch()
    stepped = []

    class Spy(kernels.PreparedRows):
        def raw(self, a):
            stepped.append(a.shape[0])
            return super().raw(a)

    monkeypatch.setattr(kpca, "PreparedRows", Spy)
    monkeypatch.setattr(kpca, "block_rows", lambda n, d: chunk)
    _, iterations, status = kpca_preimages(model, y, cfg)
    assert "diverged" in set(status)
    assert 0 not in stepped
    assert sum(stepped) == iterations.sum()


def test_kpca_preimages_keep_the_window_full(monkeypatch):
    # 300 rows through 7 slots: while rows wait, every step carries 7 rows,
    # and the steps follow from the rows' counts alone.  That is fewer steps
    # than chunks of 7 rows that each wait for their slowest row.
    model, y, cfg = mixed_status_batch()
    stepped = []

    class Spy(kernels.PreparedRows):
        def raw(self, a):
            stepped.append(a.shape[0])
            return super().raw(a)

    monkeypatch.setattr(kpca, "PreparedRows", Spy)
    monkeypatch.setattr(kpca, "block_rows", lambda n, d: 7)
    _, iterations, _ = kpca_preimages(model, y, cfg)
    slots, waiting, expected, queued = [], list(iterations), [], []
    while slots or waiting:
        free = 7 - len(slots)
        slots += waiting[:free]
        del waiting[:free]
        expected.append(len(slots))
        queued.append(bool(waiting))
        slots = [k - 1 for k in slots if k > 1]
    assert stepped == expected
    assert sum(queued) > 0 and all(k == 7 for k, q in zip(stepped, queued) if q)
    chunked = sum(iterations[c0:c0 + 7].max() for c0 in range(0, len(y), 7))
    assert len(stepped) < chunked


def assert_preimage_peak_memory(x, m):
    # The window's weights and its step's kernel rows are the only window x N
    # arrays; the rest is O(N D + T D), whatever M is.
    model = fit_kpca(x, KernelSpec.gaussian(select_sigma(x)), m)
    assert model.n_components == m
    y = kpca_transform(model, x)
    # Every row ends within 20 steps, so whole windows are refilled at once.
    cfg = PreimageConfig(max_iterations=20)
    kpca_preimages(model, y, cfg)
    tracemalloc.start()
    try:
        kpca_preimages(model, y, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (n, d), t = x.shape, y.shape[0]
    window = min(kpca.block_rows(n, d), t) * n
    assert peak <= 8 * (2 * window + 4 * (n + t) * (d + 2))


def test_kpca_preimages_peak_memory():
    assert_preimage_peak_memory(gen_two_spheres(SpheresParams(n=1000, seed=42)).features, 2)


def test_kpca_preimages_peak_memory_wide():
    # At D = 300 and M = 9 a step whose work or right side grew as
    # (M + 1)(D + 1) per training row would pass the bound about threefold.
    assert_preimage_peak_memory(wide_blobs(600, 300), 9)


def test_transform_and_preimages_draw_gaussian_rows_from_raw(monkeypatch):
    # One row formula: the transform's kernel rows and every pre-image step's
    # weights both come from PreparedRows.raw against the training rows.
    model, y, cfg = mixed_status_batch()
    calls = []
    original = kernels.PreparedRows.raw

    def spy(self, a):
        calls.append((self.spec, self.right.shape[0], a.shape[0]))
        return original(self, a)

    monkeypatch.setattr(kernels.PreparedRows, "raw", spy)
    q = model.training[:40] + 0.1
    kpca_transform(model, q)
    assert calls and {c[:2] for c in calls} == {(model.spec, model.n_samples)}
    assert sum(c[2] for c in calls) == q.shape[0]
    calls.clear()
    _, iterations, _ = kpca_preimages(model, y, cfg)
    assert {c[:2] for c in calls} == {(model.spec, model.n_samples)}
    assert sum(c[2] for c in calls) == iterations.sum()


def test_preimage_config_validation():
    with pytest.raises(ValueError):
        PreimageConfig(max_iterations=0)
    with pytest.raises(ValueError):
        PreimageConfig(tolerance=0.0)
    with pytest.raises(ValueError, match="tolerance must be finite"):
        PreimageConfig(tolerance=np.inf)
    for budget in (2.5, np.inf):
        with pytest.raises(ValueError, match="max_iterations must be integral"):
            PreimageConfig(max_iterations=budget)
    cfg = PreimageConfig(max_iterations=3.0)
    assert cfg == PreimageConfig(max_iterations=3) and type(cfg.max_iterations) is int


def test_preimage_weights_sum_to_one():
    x = small_spheres(seed=9)
    model = fit_kpca(x, KernelSpec.gaussian(select_sigma(x)), 4)
    y = kpca_transform(model, x)
    w = preimage_weights(model, y[5])
    assert w.shape == (model.n_samples,)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_select_sigma_two_points():
    assert select_sigma(np.array([[0.0], [2.0]])) == pytest.approx(10.0)


def test_select_sigma_three_collinear():
    # Nearest-neighbor distances are (1, 1, 2); 5 * mean = 20/3.
    sigma = select_sigma(np.array([[0.0], [1.0], [3.0]]))
    assert sigma == pytest.approx(20.0 / 3.0, rel=1e-12)


def test_select_sigma_duplicates_contribute_zero():
    sigma = select_sigma(np.array([[0.0], [0.0], [1.0]]))
    assert sigma == pytest.approx(5.0 / 3.0, rel=1e-12)


def test_select_sigma_duplicates_far_from_origin_exactly_zero():
    # With numpy/OpenBLAS the mean-shifted matrix product gives this
    # duplicate pair a squared distance of 8.9e-16, not 0; select_sigma must
    # still equal the explicit-difference heuristic exactly.
    rng = np.random.default_rng(1)
    x = rng.standard_normal((12, 7)) + 1e3
    x[1] = x[0]
    nn = []
    for i in range(x.shape[0]):
        d2 = ((x - x[i]) ** 2).sum(axis=1)
        d2[i] = np.inf
        nn.append(np.sqrt(d2.min()))
    assert nn[0] == nn[1] == 0.0
    assert select_sigma(x) == 5.0 * float(np.mean(nn))


def test_select_sigma_needs_two_rows():
    with pytest.raises(ValueError):
        select_sigma(np.array([[1.0, 2.0]]))


def _small_pca():
    return fit_pca(small_spheres(), 2)


def _small_kpca():
    return fit_kpca(small_spheres(), KernelSpec.gaussian(1.0), 2)


# Entry points that read a matrix of rows, each as (what its error names,
# a call on the rows x of small_spheres()).  select_sigma's cases keep the
# bare ids of the non-finite values.  A "-vector" entry passes row 7 alone,
# which is one row, so its error names row 0.
_ROW_ENTRIES = {
    "select_sigma": ("data", select_sigma),
    "fit_kpca": ("data", lambda x: fit_kpca(x, KernelSpec.gaussian(1.0), 2)),
    "fit_pca": ("data", lambda x: fit_pca(x, 2)),
    "fit_pca_dual": ("data", lambda x: fit_pca_dual(x, 2)),
    "kernel_matrix-a": ("a", lambda x: kernel_matrix(KernelSpec.linear(), x, small_spheres(4))),
    "kernel_matrix-b": ("b", lambda x: kernel_matrix(KernelSpec.linear(), small_spheres(4), x)),
    "predict_many": ("feature", lambda x: predict_many(LinearClassifier(np.ones(4)), x)),
    "pca_project": ("query", lambda x: pca_project(_small_pca(), x)),
    "pca_project-vector": ("query", lambda x: pca_project(_small_pca(), x[7])),
    "pca_reconstruct": ("weight", lambda x: pca_reconstruct(_small_pca(), x[:, :2])),
    "clamp_deformation": ("weight", lambda x: clamp_deformation(_small_pca(), x[:, :2])),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry, bad", [
    pytest.param(entry, bad, id=name if entry == "select_sigma" else f"{entry}-{name}")
    for entry in _ROW_ENTRIES
    for name, bad in (("nan", np.nan), ("inf", np.inf), ("-inf", -np.inf))])
def test_select_sigma_rejects_non_finite_data(entry, bad):
    x = small_spheres()
    x[7, 1] = bad
    x[9, 0] = np.nan
    what, call = _ROW_ENTRIES[entry]
    row = 0 if entry.endswith("-vector") else 7
    # One wording at every entry point, naming the first bad row.
    with pytest.raises(ValueError, match=f"^{what} row {row} has non-finite entries$"):
        call(x)


def test_train_col_means_are_uncentered_gram_means(monkeypatch, tmp_path):
    # The means are taken stripe by stripe as the self table is built, once
    # each stripe is complete; at every stripe size (one 40-row stripe, or
    # stripes of 16 and 7 rows) they equal the whole table's, in the fitted
    # model and in a loaded one.
    rng = np.random.default_rng(36)
    x = rng.standard_normal((40, 7)) * 3.0 + 1.0
    for rows in (None, 16, 7):
        if rows is not None:
            monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", rows * 40)
        for spec in (KernelSpec.gaussian(1.2), KernelSpec.linear(),
                     KernelSpec.polynomial(2, 1.0)):
            model = fit_kpca(x, spec, 3)
            k = kernel_matrix(spec, x, x)
            assert np.array_equal(model.train_col_means, k.mean(axis=1))
            assert np.allclose(model.train_col_means, k.mean(axis=0), rtol=1e-14)
            save_model(model, tmp_path / "m.kpml")
            assert np.array_equal(load_model(tmp_path / "m.kpml").train_col_means,
                                  model.train_col_means)


@_KINDS
@_BLOCKS
def test_fit_solves_its_uncentred_table_and_row_means(monkeypatch, kind, rows_per_block):
    # The solver centres the table itself, so the fit hands it the table
    # and row means of gram_with_means untouched.
    x = small_spheres()
    spec = {"linear": KernelSpec.linear,
            "polynomial": lambda: KernelSpec.polynomial(2, 1.0),
            "gaussian": lambda: KernelSpec.gaussian(select_sigma(x))}[kind]()
    if rows_per_block is not None:
        monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", rows_per_block * len(x))
    seen = []

    def spy(a, c, m):
        seen.append((a.copy(), c.copy()))
        return eigen._solve(a, c, m)

    monkeypatch.setattr(kpca, "_solve", spy)
    fit_kpca(x, spec, 3)
    k = kernel_matrix(spec, x, x)
    assert np.array_equal(seen[0][0], k)
    assert np.array_equal(seen[0][1], k.mean(axis=1))


@_KINDS
@pytest.mark.parametrize("n", [300, 20], ids=["krylov", "eigh"])
def test_fit_solves_its_gram_unchecked_and_bit_identically(monkeypatch, kind, n):
    # The fit's uncentred Gram is exactly symmetric, so the solve skips
    # sym_eig's four reads of it; the answer is _solve's on the same table
    # and row means.  eigh solves the table centred in place as center_gram
    # centres it, so there the answer is also sym_eig's of center_gram's
    # table; block Lanczos centres each product instead, which rounds
    # otherwise, so there it meets the tolerances of the top-m fit test.
    x = gen_two_spheres(SpheresParams(n=n, seed=3)).features
    spec = {"linear": KernelSpec.linear,
            "polynomial": lambda: KernelSpec.polynomial(2, 1.0),
            "gaussian": lambda: KernelSpec.gaussian(select_sigma(x))}[kind]()
    m = 2
    k = kernel_matrix(spec, x, x)
    dec = eigen._solve(k.copy(), k.mean(axis=1), m)
    full = sym_eig(center_gram(k), m)
    if n == 300:
        assert np.abs(dec.values - full.values).max() <= 1e-12 * full.values[0]
        assert (np.abs(dec.vectors - full.vectors).max()
                <= 1e-10 * np.abs(full.vectors).max())
    else:
        assert np.array_equal(dec.values, full.values)
        assert np.array_equal(dec.vectors, full.vectors)
    r = int(np.count_nonzero(dec.values > kpca.DROP_RTOL * max(dec.values[0], 0.0)))
    solved = []
    iterate = eigen._krylov_top

    def spy(a, c, m):
        solved.append(iterate(a, c, m))
        return solved[-1]

    def refuse(a):
        raise AssertionError("fit_kpca checked its own Gram")

    monkeypatch.setattr(eigen, "_krylov_top", spy)
    monkeypatch.setattr(eigen, "_validate_symmetric", refuse)
    model = fit_kpca(x, spec, m)
    assert (solved[0] is not None) if n == 300 else not solved
    assert model.n_components == r == m
    assert np.array_equal(model.eigenvalues, dec.values[:r] / n)
    assert np.array_equal(model.coefficients, dec.vectors[:, :r] / np.sqrt(dec.values[:r]))


def test_fit_never_writes_its_table_on_the_lanczos_path(monkeypatch):
    # Block Lanczos only reads the table, so a read-only one fits, and to
    # the same bits as a writable one.
    x = gen_two_spheres(SpheresParams(n=300, seed=3)).features
    spec = KernelSpec.gaussian(select_sigma(x))
    expected = fit_kpca(x, spec, 2)
    build = kpca.gram_with_means

    def read_only(spec, x):
        k, means = build(spec, x)
        k.setflags(write=False)
        return k, means

    solved = []
    iterate = eigen._krylov_top
    monkeypatch.setattr(eigen, "_krylov_top",
                        lambda a, c, m: solved.append(iterate(a, c, m)) or solved[-1])
    monkeypatch.setattr(kpca, "gram_with_means", read_only)
    model = fit_kpca(x, spec, 2)
    assert solved and solved[0] is not None
    assert np.array_equal(model.eigenvalues, expected.eigenvalues)
    assert np.array_equal(model.coefficients, expected.coefficients)


@pytest.mark.parametrize("x, spec, message", [
    (10.0 * np.random.default_rng(4).standard_normal((50, 3)),
     KernelSpec.polynomial(401, 1.0), "kernel matrix row 0 is not finite"),
    # Finite entries and row means, but k_00 - 2 r_0 overflows in the centring.
    (np.array([[1.22e154, 0.0], [-1.22e154, 0.0], [-0.8e154, 0.0]]),
     KernelSpec.linear(), "centred kernel matrix is not finite"),
], ids=["overflowing-polynomial", "overflowing-centring"])
def test_fit_rejects_a_non_finite_kernel_table(x, spec, message):
    # sym_eig used to reject these; the fit's solve no longer checks.
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError) as err:
            fit_kpca(x, spec, 2)
    assert str(err.value) == message
