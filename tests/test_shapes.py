import re
from pathlib import Path

import numpy as np
import pytest

from kpca_lab.kernels import KernelSpec
from kpca_lab.kpca import (
    PreimageConfig,
    fit_kpca,
    kpca_preimage,
    kpca_preimages,
    kpca_transform,
    select_sigma,
)
from kpca_lab.shapes import (
    BIOID_20_ROLES,
    LandmarkRoleMap,
    PtsParseError,
    RoleMapError,
    ShapeError,
    clamp_deformation,
    fit_shape_model,
    normalize_shapes,
    parse_pts,
    parse_role_map,
    points_shape,
    read_pts,
    read_role_map,
    render_face_svg,
    shape_points,
    sweep_kpca_feature,
    sweep_pca_feature,
    synthesize,
    write_pts,
)

CORPUS_DIR = Path(__file__).resolve().parent.parent / "data" / "landmarks"

SQUARE = points_shape(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))


def load_corpus():
    files = sorted(CORPUS_DIR.glob("*.pts"))
    assert len(files) >= 30
    return normalize_shapes([read_pts(f) for f in files])


def test_shape_points_round_trip():
    pts = shape_points(SQUARE)
    assert pts.shape == (4, 2)
    assert np.array_equal(points_shape(pts), SQUARE)


def test_shape_points_validation():
    with pytest.raises(ValueError):
        shape_points(np.zeros(5))
    with pytest.raises(ValueError):
        points_shape(np.zeros((3, 3)))


def test_normalize_unit_square_unchanged():
    out = normalize_shapes([SQUARE])
    assert np.allclose(out[0], SQUARE)


def test_normalize_affine_invariance():
    shifted = points_shape(shape_points(SQUARE) * 7.0 + [3.0, -2.0])
    out = normalize_shapes([shifted])
    assert np.allclose(out[0], SQUARE, atol=1e-12)


def test_normalize_degenerate_axis_error():
    collinear = points_shape(np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 2.0]]))
    with pytest.raises(ValueError, match="shape 0"):
        normalize_shapes([collinear])


def test_normalize_mixed_sizes_error():
    with pytest.raises(ValueError):
        normalize_shapes([SQUARE, np.zeros(6)])


def test_normalize_returns_one_matrix_of_per_shape_rows():
    # The S x 2n matrix of one vectorised pass; row i is shape i min-max
    # normalized on its own, bit for bit.
    shapes = [read_pts(f) for f in sorted(CORPUS_DIR.glob("*.pts"))]
    out = normalize_shapes(shapes)
    assert isinstance(out, np.ndarray) and out.shape == (len(shapes), shapes[0].size)
    for row, shape in zip(out, shapes):
        pts = shape_points(shape)
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        assert np.array_equal(row, points_shape((pts - lo) / (hi - lo)))


@pytest.mark.parametrize("later, index, message", [
    (np.zeros(6), 1, "shape 1 is degenerate: zero range on y axis"),
    (SQUARE, 1, "shape 1 is degenerate: zero range on y axis"),
    (np.zeros(6), 2, "shape 2 has 3 points, expected 4"),
])
def test_normalize_names_the_first_bad_shape(later, index, message):
    flat_y = points_shape(np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 1.0], [3.0, 1.0]]))
    shapes = [SQUARE, flat_y if index == 1 else SQUARE, later]
    with pytest.raises(ShapeError) as info:
        normalize_shapes(shapes)
    assert str(info.value) == message
    assert type(info.value.index) is int and info.value.index == index


def test_fit_two_symmetric_shapes_rank_one():
    base = shape_points(SQUARE)
    delta = np.zeros_like(base)
    delta[0] = [0.1, 0.05]
    shapes = [points_shape(base + delta), points_shape(base - delta)]
    model = fit_shape_model(shapes, 2)
    assert model.eigenvalues[0] > 0.0
    assert model.eigenvalues[1] == pytest.approx(0.0, abs=1e-12)
    direction = points_shape(delta)
    direction = direction / np.linalg.norm(direction)
    assert np.allclose(np.abs(model.basis[:, 0] @ direction), 1.0, atol=1e-9)


def test_fit_identical_shapes_zero_eigenvalues():
    model = fit_shape_model([SQUARE] * 4, 3)
    assert np.allclose(model.eigenvalues, 0.0)


def test_fit_trace_oracle():
    rng = np.random.default_rng(50)
    shapes = [SQUARE + 0.1 * rng.standard_normal(8) for _ in range(10)]
    model = fit_shape_model(shapes, 8)
    x = np.vstack(shapes)
    xc = x - x.mean(axis=0)
    assert model.eigenvalues.sum() == pytest.approx((xc**2).sum() / 10.0, rel=1e-9)


def test_synthesize_zero_weights_is_mean():
    rng = np.random.default_rng(51)
    shapes = [SQUARE + 0.05 * rng.standard_normal(8) for _ in range(5)]
    model = fit_shape_model(shapes, 4)
    assert np.array_equal(synthesize(model, np.zeros(4)), model.mean)


def test_synthesize_full_rank_identity():
    rng = np.random.default_rng(52)
    shapes = [SQUARE + 0.05 * rng.standard_normal(8) for _ in range(12)]
    model = fit_shape_model(shapes, 8)
    for s in shapes:
        b = model.basis.T @ (s - model.mean)
        assert np.abs(synthesize(model, b) - s).max() <= 1e-8


def test_clamp_limits():
    rng = np.random.default_rng(53)
    shapes = [SQUARE + 0.05 * rng.standard_normal(8) for _ in range(5)]
    model = fit_shape_model(shapes, 3)
    big = 10.0 * np.sqrt(model.eigenvalues)
    clamped = clamp_deformation(model, big)
    assert clamped.shape == (3,)
    assert np.allclose(clamped, 3.0 * np.sqrt(model.eigenvalues))
    assert np.array_equal(
        synthesize(model, big, clamp=True),
        synthesize(model, 3.0 * np.sqrt(model.eigenvalues)),
    )
    # one weight would broadcast against the three limits; it must not
    with pytest.raises(ValueError, match="weight rows have 1 columns, expected 3"):
        synthesize(model, [1.0], clamp=True)
    with pytest.raises(ValueError, match="^weight rows have 1 columns, expected 3$"):
        clamp_deformation(model, [1.0])


def test_pca_sweep_three_steps():
    rng = np.random.default_rng(54)
    shapes = [SQUARE + 0.05 * rng.standard_normal(8) for _ in range(6)]
    model = fit_shape_model(shapes, 3)
    swept = sweep_pca_feature(model, 1, 3)
    limit = 3.0 * np.sqrt(model.eigenvalues[0])
    assert np.array_equal(swept[1], model.mean)
    assert np.allclose(swept[0], model.mean - limit * model.basis[:, 0])
    assert np.allclose(swept[2], model.mean + limit * model.basis[:, 0])


def test_pca_sweep_zero_eigenvalue_collapses_to_mean():
    model = fit_shape_model([SQUARE] * 3, 2)
    for s in sweep_pca_feature(model, 1, 4):
        assert np.allclose(s, model.mean)


def test_pca_sweep_shapes_collinear_along_component():
    rng = np.random.default_rng(55)
    shapes = [SQUARE + 0.05 * rng.standard_normal(8) for _ in range(7)]
    model = fit_shape_model(shapes, 4)
    swept = sweep_pca_feature(model, 1, 5)
    for a, b in zip(swept, swept[1:]):
        diff = b - a
        off_axis = diff - (diff @ model.basis[:, 0]) * model.basis[:, 0]
        assert np.abs(off_axis).max() <= 1e-12


def test_sweep_argument_validation():
    model = fit_shape_model([SQUARE, SQUARE + 0.01], 2)
    with pytest.raises(ValueError):
        sweep_pca_feature(model, 0, 3)
    with pytest.raises(ValueError):
        sweep_pca_feature(model, 3, 3)
    with pytest.raises(ValueError):
        sweep_pca_feature(model, 1, 1)


def test_kpca_sweep_midpoint_and_degenerate_range():
    shapes = load_corpus()
    x = np.vstack(shapes)
    model = fit_kpca(x, KernelSpec.gaussian(select_sigma(x)), 6)
    y_mean = kpca_transform(model, x).mean(axis=0)
    mid = kpca_preimage(model, y_mean).z
    swept = sweep_kpca_feature(model, 1, 1e-12, 3)
    # tiny c: every step reconstructs (numerically) the mean feature vector
    for s in swept:
        assert np.abs(s - mid).max() <= 1e-9
    five = sweep_kpca_feature(model, 2, 500.0, 5)
    # the middle sample targets the mean feature vector up to linspace
    # rounding in the swept coordinate, so its pre-image lands on mid
    assert np.abs(five[2] - mid).max() <= 1e-8


def test_kpca_sweep_differs_from_pca_sweep():
    shapes = load_corpus()
    x = np.vstack(shapes)
    kmodel = fit_kpca(x, KernelSpec.gaussian(select_sigma(x)), 10)
    pmodel = fit_shape_model(shapes, 10)
    kpca_steps = sweep_kpca_feature(kmodel, 1, 500.0, 5)
    pca_steps = sweep_pca_feature(pmodel, 1, 5)
    displacement = max(np.abs(a - b).max()
                       for a, b in zip(pca_steps, kpca_steps))
    assert displacement > 1e-3


def test_sweeps_return_one_matrix_of_shapes():
    x = load_corpus()
    kmodel = fit_kpca(x, KernelSpec.gaussian(select_sigma(x)), 4)
    for swept in (sweep_pca_feature(fit_shape_model(x, 4), 2, 3),
                  sweep_kpca_feature(kmodel, 2, 500.0, 3)):
        assert isinstance(swept, np.ndarray) and swept.shape == (3, x.shape[1])


def test_kpca_sweep_validation():
    shapes = load_corpus()
    x = np.vstack(shapes)
    model = fit_kpca(x, KernelSpec.gaussian(select_sigma(x)), 4)
    with pytest.raises(ValueError):
        sweep_kpca_feature(model, 0, 500.0, 3)
    with pytest.raises(ValueError):
        sweep_kpca_feature(model, 1, -1.0, 3)
    with pytest.raises(ValueError, match="c must be finite"):
        sweep_kpca_feature(model, 1, np.inf, 3)
    with pytest.raises(ValueError):
        sweep_kpca_feature(model, 1, 500.0, 1)


def reference_pca_sweep(model, k, steps):
    # The PCA sweep as first written: one mean + basis @ b per step.
    limit = 3.0 * np.sqrt(model.eigenvalues[k - 1])
    out = []
    for value in np.linspace(-limit, limit, steps):
        b = np.zeros(model.n_components)
        b[k - 1] = value
        out.append(model.mean + model.basis @ b)
    return out


def reference_kpca_sweep_rows(model, k, c, steps):
    # The kpca sweep's feature rows as first written: training transform
    # mean, feature k over mean +/- c population std.
    y_train = kpca_transform(model, model.training)
    y_mean = y_train.mean(axis=0)
    y_std = y_train.std(axis=0)
    ys = np.tile(y_mean, (steps, 1))
    ys[:, k - 1] = np.linspace(y_mean[k - 1] - c * y_std[k - 1],
                               y_mean[k - 1] + c * y_std[k - 1], steps)
    return ys


@pytest.mark.parametrize("k", [1, 2, 3])
def test_sweeps_match_first_written_references(k):
    shapes = load_corpus()
    x = np.vstack(shapes)
    pmodel = fit_shape_model(shapes, 10)
    swept = sweep_pca_feature(pmodel, k, 5)
    for got, want in zip(swept, reference_pca_sweep(pmodel, k, 5)):
        assert np.array_equal(got, want)
    kmodel = fit_kpca(x, KernelSpec.gaussian(select_sigma(x)), 10)
    swept = np.vstack(sweep_kpca_feature(kmodel, k, 500.0, 5))
    z, _, status = kpca_preimages(kmodel, reference_kpca_sweep_rows(kmodel, k, 500.0, 5))
    assert (status == "converged").all()
    assert np.abs(swept - z).max() <= 1e-12


@pytest.mark.parametrize("m", [4, 6, 10])
def test_training_features_have_spectral_mean_and_std(m):
    # The identity the kpca sweep relies on: 1^T K~ = 0 gives mean 0 and
    # N lambda_k |a_k|^2 = 1 gives population std sqrt(lambda_k).
    x = np.vstack(load_corpus())
    model = fit_kpca(x, KernelSpec.gaussian(select_sigma(x)), m)
    y = kpca_transform(model, x)
    assert np.abs(y.mean(axis=0)).max() <= 1e-12
    assert np.abs(y.std(axis=0) / np.sqrt(model.eigenvalues) - 1.0).max() <= 1e-12


def test_kpca_sweep_divergence_carries_step_index():
    x = np.array([[0.0], [1.0]])
    model = fit_kpca(x, KernelSpec.gaussian(0.05), 1)
    cfg = PreimageConfig(max_iterations=50)
    with pytest.raises(RuntimeError, match="sweep step 1 of 3: diverged"):
        sweep_kpca_feature(model, 1, 1e8, 3, cfg)
    # running out of iterations fails the sweep too; steps are 1-based
    xs = np.vstack(load_corpus())
    kmodel = fit_kpca(xs, KernelSpec.gaussian(select_sigma(xs)), 4)
    with pytest.raises(RuntimeError, match="sweep step 1 of 5: max-iterations after 1 "):
        sweep_kpca_feature(kmodel, 1, 500.0, 5, PreimageConfig(max_iterations=1))


def test_pts_round_trip(tmp_path):
    path = tmp_path / "s.pts"
    write_pts(SQUARE, path)
    assert np.array_equal(read_pts(path), SQUARE)


def test_pts_parse_reference_layout():
    text = "version: 1\nn_points: 3\n{\n1.5 2\n3 4\n5 6.25\n}\n"
    shape = parse_pts(text)
    assert np.array_equal(shape, [1.5, 2.0, 3.0, 4.0, 5.0, 6.25])


def test_pts_parse_errors():
    with pytest.raises(PtsParseError, match="version"):
        parse_pts("version: 2\nn_points: 3\n{\n1 2\n3 4\n5 6\n}\n")
    with pytest.raises(PtsParseError):
        parse_pts("version: 1\nn_points: 3\n{\n1 2\n3 4\n}\n")  # short
    with pytest.raises(PtsParseError):
        parse_pts("version: 1\nn_points: 3\n{\n1 2\n3 4\n5 6\n")  # no brace
    with pytest.raises(PtsParseError, match="point line"):
        parse_pts("version: 1\nn_points: 3\n{\n1 2\n3 4 9\n5 6\n}\n")
    with pytest.raises(PtsParseError, match="point line"):
        parse_pts("version: 1\nn_points: 3\n{\n1 2\nx 4\n5 6\n}\n")
    with pytest.raises(PtsParseError, match="at least 3"):
        parse_pts("version: 1\nn_points: 2\n{\n1 2\n3 4\n}\n")
    for cell in ("nan", "inf", "-Infinity"):
        with pytest.raises(PtsParseError) as exc:
            parse_pts(f"version: 1\nn_points: 3\n{{\n1 2\n3 {cell}\n5 6\n}}\n",
                      source="face.pts")
        assert str(exc.value) == f"face.pts: non-finite coordinate in point line '3 {cell}'"


def test_role_map_parse_and_comments():
    text = "\n".join([
        "# face role groups",
        "right_eyebrow = 4,5",
        "left_eyebrow = 6,7",
        "right_eye = 9,10",
        "left_eye = 11,12",
        "eyeballs = 0,1",
        "nose = 15,14,16",
        "",
        "mouth = 2,17,3,18",
        "contour = 8,19,13",
    ])
    roles = parse_role_map(text)
    assert roles == BIOID_20_ROLES


def test_role_map_errors(tmp_path):
    with pytest.raises(RoleMapError, match="missing"):
        parse_role_map("mouth = 1,2,3,4")
    with pytest.raises(RoleMapError, match="unknown"):
        parse_role_map("chin = 1")
    with pytest.raises(RoleMapError, match="duplicate"):
        parse_role_map("mouth = 1,2,3,4\nmouth = 1,2,3,4")
    with pytest.raises(RoleMapError, match="bad index"):
        parse_role_map("mouth = 1,two,3,4")
    with pytest.raises(RoleMapError):
        parse_role_map("mouth 1,2,3,4")
    # Read from a file, every error, decoding included, names the file.
    path = tmp_path / "roles.txt"
    path.write_text("mouth = 1,2,3,4\nchin = 1\n")
    with pytest.raises(RoleMapError) as exc:
        read_role_map(path)
    assert str(exc.value) == f"{path}: line 2: unknown group 'chin'"
    path.write_text("mouth = 1,2,3,4\n")
    with pytest.raises(RoleMapError, match=f"^{re.escape(str(path))}: missing role groups"):
        read_role_map(path)
    path.write_bytes("# r\u00f4les\n".encode("utf-8"))
    with pytest.raises(RoleMapError, match=f"^{re.escape(str(path))}: 'ascii' codec"):
        read_role_map(path)


def test_render_deterministic_and_structured():
    shapes = load_corpus()
    model = fit_shape_model(shapes, 5)
    svg1 = render_face_svg(model.mean, BIOID_20_ROLES)
    svg2 = render_face_svg(model.mean.copy(), BIOID_20_ROLES)
    assert svg1 == svg2
    # 5 named polylines + the contour parabola, 2 eyeball circles, mouth polygon
    assert svg1.count("<polyline") == 6
    assert svg1.count("<circle") == 2
    assert svg1.count("<polygon") == 1
    assert svg1.startswith('<?xml version="1.0"')


def test_render_role_validation():
    bad_mouth = LandmarkRoleMap(
        right_eyebrow=(4, 5), left_eyebrow=(6, 7), right_eye=(9, 10),
        left_eye=(11, 12), eyeballs=(0, 1), nose=(15, 14, 16),
        mouth=(2, 17, 3), contour=(8, 19, 13),
    )
    with pytest.raises(RoleMapError, match="mouth"):
        render_face_svg(np.zeros(40) + 0.5, bad_mouth)
    short_contour = LandmarkRoleMap(
        right_eyebrow=(4, 5), left_eyebrow=(6, 7), right_eye=(9, 10),
        left_eye=(11, 12), eyeballs=(0, 1), nose=(15, 14, 16),
        mouth=(2, 17, 3, 18), contour=(8, 19),
    )
    with pytest.raises(RoleMapError, match="contour"):
        render_face_svg(np.zeros(40) + 0.5, short_contour)
    with pytest.raises(RoleMapError, match="outside"):
        render_face_svg(np.zeros(10) + 0.5, BIOID_20_ROLES)


def test_corpus_files_follow_pts_layout():
    for path in sorted(CORPUS_DIR.glob("*.pts")):
        shape = read_pts(path)
        assert shape.shape == (40,)
        assert np.isfinite(shape).all()
