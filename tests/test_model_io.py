import numpy as np
import pytest

from kpca_lab.kernels import KernelSpec
from kpca_lab.kpca import fit_kpca, kpca_transform
from kpca_lab.model_io import MAGIC, ModelFormatError, load_model, save_model
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
    # the training Gram's column means are rebuilt deterministically on load
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


def test_rejects_unknown_version(tmp_path):
    model = fit_pca(np.eye(3), 2)
    path = tmp_path / "m.kpml"
    save_model(model, path)
    blob = bytearray(path.read_bytes())
    blob[4] = 0xFF  # corrupt the version field
    path.write_bytes(bytes(blob))
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_rejects_wrong_object():
    with pytest.raises(TypeError):
        save_model(object(), "unused.kpml")
