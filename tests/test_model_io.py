import struct

import numpy as np
import pytest

from kpca_lab import kernels
from kpca_lab.kernels import KernelSpec
from kpca_lab.kpca import fit_kpca, kpca_transform
from kpca_lab.model_io import _HEADER, MAGIC, VERSION, ModelFormatError, load_model, save_model
from kpca_lab.pca import fit_pca, pca_project


def test_pca_round_trip(tmp_path):
    rng = np.random.default_rng(60)
    x = rng.standard_normal((12, 5))
    model = fit_pca(x, 3)
    path = tmp_path / "m.kpml"
    save_model(model, path)
    loaded = load_model(path)
    assert np.array_equal(loaded.mean, model.mean)
    assert np.array_equal(loaded.basis, model.basis)
    assert np.array_equal(loaded.eigenvalues, model.eigenvalues)
    assert np.array_equal(pca_project(loaded, x), pca_project(model, x))


@pytest.mark.parametrize("spec", [
    KernelSpec.linear(),
    KernelSpec.polynomial(3, 1.5),
    KernelSpec.gaussian(2.25),
])
def test_kpca_round_trip_all_kernels(tmp_path, spec):
    rng = np.random.default_rng(61)
    x = rng.standard_normal((10, 4))
    model = fit_kpca(x, spec, 3)
    path = tmp_path / "m.kpml"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.spec == model.spec
    assert np.array_equal(loaded.training, model.training)
    assert np.array_equal(loaded.coefficients, model.coefficients)
    assert np.array_equal(loaded.eigenvalues, model.eigenvalues)
    # the training Gram's column means are stored, so they load bit for bit
    assert np.array_equal(loaded.train_col_means, model.train_col_means)
    assert np.array_equal(kpca_transform(loaded, x), kpca_transform(model, x))


def test_file_starts_with_magic(tmp_path):
    model = fit_pca(np.eye(3), 2)
    path = tmp_path / "m.kpml"
    save_model(model, path)
    assert path.read_bytes()[:4] == MAGIC


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.kpml"
    path.write_bytes(b"NOPE" + bytes(64))
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_rejects_truncated(tmp_path):
    model = fit_pca(np.eye(4), 2)
    path = tmp_path / "m.kpml"
    save_model(model, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(ModelFormatError) as info:
        load_model(path)
    assert str(info.value).startswith(f"{path}: truncated payload")
    path.write_bytes(blob[:10])
    with pytest.raises(ModelFormatError) as info:
        load_model(path)
    assert str(info.value) == f"{path}: file shorter than header"


@pytest.mark.parametrize("version", [1, 0xFF])
def test_rejects_unknown_version(tmp_path, version):
    # Version 1 stored no Gram column means; such a file must be refit.
    model = fit_pca(np.eye(3), 2)
    path = tmp_path / "m.kpml"
    save_model(model, path)
    blob = bytearray(path.read_bytes())
    blob[4] = version  # corrupt the version field
    path.write_bytes(bytes(blob))
    with pytest.raises(ModelFormatError) as info:
        load_model(path)
    assert str(info.value) == f"{path}: unsupported container version {version}"


def test_rejects_wrong_object():
    with pytest.raises(TypeError):
        save_model(object(), "unused.kpml")


def write_kpca(path, n, d, m, training=None, coefficients=None, eigenvalues=None):
    """A gaussian kpca container with the given header dimensions and payload.

    The N column means are all ones.
    """
    header = _HEADER.pack(MAGIC, VERSION, 2, 3, 0, 0.0, 1.5, n, d, m)
    blocks = (np.ones(n * d) if training is None else training,
              np.ones(n * m) if coefficients is None else coefficients,
              np.ones(m) if eigenvalues is None else eigenvalues,
              np.ones(n))
    path.write_bytes(header + b"".join(np.asarray(b, dtype="<f8").tobytes()
                                       for b in blocks))


@pytest.mark.parametrize("kind", ["pca", "kpca"])
def test_rejects_trailing_bytes(tmp_path, kind):
    x = np.random.default_rng(62).standard_normal((6, 3))
    model = fit_pca(x, 2) if kind == "pca" else fit_kpca(x, KernelSpec.gaussian(1.0), 2)
    path = tmp_path / "m.kpml"
    save_model(model, path)
    path.write_bytes(path.read_bytes() + bytes(8))
    with pytest.raises(ModelFormatError) as info:
        load_model(path)
    assert str(info.value) == f"{path}: 8 trailing bytes after the payload"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [0, 1])
def test_rejects_kpca_header_with_fewer_than_two_rows(tmp_path, n):
    # N = 0 used to load with NaN column means of an empty Gram.
    path = tmp_path / "m.kpml"
    write_kpca(path, n, 2, 0)
    with pytest.raises(ModelFormatError) as info:
        load_model(path)
    assert str(info.value) == \
        f"{path}: kpca model needs N >= 2 training rows, header has {n}"


def test_rejects_more_components_than_rows(tmp_path):
    path = tmp_path / "m.kpml"
    write_kpca(path, 2, 1, 3)  # payload sized for the header
    with pytest.raises(ModelFormatError) as info:
        load_model(path)
    assert str(info.value) == f"{path}: kpca model has M=3 components but only N=2 rows"


@pytest.mark.parametrize("d, m", [(2, 3), (0, 0), (3, 0)])
def test_rejects_pca_header_outside_one_to_d_components(tmp_path, d, m):
    # fit_pca and fit_pca_dual keep 1 <= M <= min(N, D); D=2, M=3 used to
    # load a 2 x 3 "basis", and D = M = 0 an empty model.
    header = _HEADER.pack(MAGIC, VERSION, 1, 0, 0, 0.0, 0.0, d, m, 0)
    path = tmp_path / "m.kpml"
    path.write_bytes(header + np.ones(d + d * m + m, dtype="<f8").tobytes())
    with pytest.raises(ModelFormatError) as info:
        load_model(path)
    assert str(info.value) == \
        f"{path}: pca model needs 1 <= M <= D, header has M={m}, D={d}"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("block", ["training", "coefficient", "eigenvalue"])
def test_rejects_non_finite_payload(tmp_path, block, bad):
    # A NaN training row used to load with NaN column means, so every
    # transform of the loaded model was NaN.
    n, d, m = 4, 2, 2
    payload = {"training": np.arange(n * d, dtype=float),
               "coefficients": np.ones(n * m), "eigenvalues": np.ones(m)}
    key = {"training": "training", "coefficient": "coefficients",
           "eigenvalue": "eigenvalues"}[block]
    payload[key][1] = bad
    path = tmp_path / "m.kpml"
    write_kpca(path, n, d, m, **payload)
    with pytest.raises(ModelFormatError) as info:
        load_model(path)
    assert str(info.value) == f"{path}: non-finite {block} entries"


@pytest.mark.parametrize("spec, classmethod_form", [
    (KernelSpec("linear", degree=-1), KernelSpec.linear()),
    (KernelSpec("gaussian", width=2.0, offset=3.0), KernelSpec.gaussian(2.0)),
    (KernelSpec("polynomial", degree=2, width=5.0), KernelSpec.polynomial(2)),
], ids=["linear-degree", "gaussian-offset", "polynomial-width"])
def test_unread_spec_fields_round_trip(tmp_path, spec, classmethod_form):
    # A field the kind does not read holds its default, so the spec fits the
    # header and loads equal to the one saved.
    assert spec == classmethod_form
    x = np.random.default_rng(62).standard_normal((8, 3))
    path = tmp_path / "m.kpml"
    save_model(fit_kpca(x, spec, 2), path)
    assert load_model(path).spec == spec


def test_header_fields_the_kind_does_not_read_are_reset(tmp_path):
    path = tmp_path / "m.kpml"
    write_kpca(path, 3, 2, 1)  # gaussian header with degree 0
    assert load_model(path).spec == KernelSpec.gaussian(1.5)


def test_container_layout_is_pinned_and_loading_builds_no_kernel_table(tmp_path, monkeypatch):
    # The documented layout, written out here rather than taken from model_io:
    # magic, version (uint16), model kind (uint8: 2 = kpca), kernel kind
    # (uint8: 3 = gaussian), degree (uint32), offset, width (float64),
    # N, D, M (uint32); then training, coefficients, eigenvalues and the
    # training Gram's column means as little-endian float64.
    x = np.array([[0.0, 1.0], [2.0, -1.0], [0.5, 0.5], [-1.0, 0.0]])
    model = fit_kpca(x, KernelSpec.gaussian(1.5), 2)
    assert model.n_components == 2
    header = struct.pack("<4sHBBIddIII", b"KPML", 2, 2, 3, 1, 0.0, 1.5, 4, 2, 2)
    assert len(header) == 40
    payload = b"".join(np.asarray(a, dtype="<f8").tobytes() for a in (
        x, model.coefficients, model.eigenvalues, model.train_col_means))
    path = tmp_path / "m.kpml"
    save_model(model, path)
    assert path.read_bytes() == header + payload

    def no_kernel_table(*args, **kwargs):
        raise AssertionError("loading computed a kernel table")

    monkeypatch.setattr(kernels, "PreparedRows", no_kernel_table)
    loaded = load_model(path)
    assert loaded.spec == model.spec
    for name in ("training", "coefficients", "eigenvalues", "train_col_means"):
        assert np.array_equal(getattr(loaded, name), getattr(model, name))


def test_version_2_payload_one_mean_short_is_rejected(tmp_path):
    x = np.random.default_rng(64).standard_normal((6, 2))
    path = tmp_path / "m.kpml"
    save_model(fit_kpca(x, KernelSpec.gaussian(1.0), 2), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(ModelFormatError) as info:
        load_model(path)
    assert str(info.value) == \
        f"{path}: truncated payload: need {len(blob)} bytes, have {len(blob) - 8}"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rejects_non_finite_column_means(tmp_path, bad):
    x = np.random.default_rng(65).standard_normal((6, 2))
    path = tmp_path / "m.kpml"
    save_model(fit_kpca(x, KernelSpec.gaussian(1.0), 2), path)
    blob = bytearray(path.read_bytes())
    blob[-8:] = np.array([bad], dtype="<f8").tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(ModelFormatError) as info:
        load_model(path)
    assert str(info.value) == f"{path}: non-finite column mean entries"
