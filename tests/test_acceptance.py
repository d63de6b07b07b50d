"""End-to-end acceptance checks, one test per criterion.

Each test exercises a complete workflow at its stated tolerance and, where
a wall-clock budget applies, asserts the elapsed time.  Run with ``-v`` to
get one pass/fail line per criterion.
"""
from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pytest

from kpca_lab.classify import error_rate, fit_linear
from kpca_lab.data import (
    SpheresParams,
    gen_two_spheres,
    read_csv_matrix,
    read_pgm,
    write_csv_matrix,
)
from kpca_lab.eigen import sym_eig
from kpca_lab.kernels import KernelSpec, center_gram, kernel_matrix
from kpca_lab.kpca import (
    PreimageConfig,
    fit_kpca,
    kpca_preimage,
    kpca_transform,
    select_sigma,
)
from kpca_lab.pca import fit_pca, fit_pca_dual, pca_project
from kpca_lab.shapes import (
    fit_shape_model,
    normalize_shapes,
    read_pts,
    sweep_kpca_feature,
    sweep_pca_feature,
    write_pts,
)

CORPUS_DIR = Path(__file__).resolve().parent.parent / "data" / "landmarks"


def load_corpus():
    shapes = [read_pts(p) for p in sorted(CORPUS_DIR.glob("*.pts"))]
    assert len(shapes) >= 30
    return normalize_shapes(shapes)


def sign_align(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Flip columns of b so each correlates non-negatively with a."""
    flipped = b.copy()
    for j in range(b.shape[1]):
        if np.dot(a[:, j], b[:, j]) < 0.0:
            flipped[:, j] = -b[:, j]
    return flipped


def test_criterion_1_spheres_kpca_separates_pca_does_not():
    start = time.perf_counter()
    ds = gen_two_spheres(SpheresParams(n=1000, r1=40.0, r2=100.0,
                                       noise=1.0, seed=42))
    x, y = ds.features, ds.labels

    sigma = select_sigma(x)
    kmodel = fit_kpca(x, KernelSpec.gaussian(sigma), 2)
    kfeat = kpca_transform(kmodel, x)
    kpca_err = error_rate(fit_linear(kfeat, y), kfeat, y)

    pmodel = fit_pca(x, 2)
    pfeat = pca_project(pmodel, x)
    pca_err = error_rate(fit_linear(pfeat, y), pfeat, y)

    elapsed = time.perf_counter() - start
    print(f"criterion 1: kpca train error {kpca_err:.4f} (need <= 0.01), "
          f"pca train error {pca_err:.4f} (need >= 0.20), {elapsed:.1f}s")
    assert kpca_err <= 0.01
    assert pca_err >= 0.20
    assert elapsed <= 60.0


def test_criterion_2_automatic_sigma_in_expected_band():
    start = time.perf_counter()
    ds = gen_two_spheres(SpheresParams(n=1000, r1=40.0, r2=100.0,
                                       noise=1.0, seed=42))
    sigma = select_sigma(ds.features)
    elapsed = time.perf_counter() - start
    print(f"criterion 2: sigma {sigma:.4f} (need 24..32), {elapsed:.2f}s")
    assert 24.0 <= sigma <= 32.0
    assert elapsed <= 5.0


def test_criterion_3_linear_kernel_reduces_to_pca():
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 51))
        d = int(rng.integers(2, 9))
        x = rng.standard_normal((n, d))
        m = min(n - 1, d)

        kmodel = fit_kpca(x, KernelSpec.linear(), m)
        kfeat = kpca_transform(kmodel, x)
        pmodel = fit_pca(x, kfeat.shape[1])
        pfeat = pca_project(pmodel, x)

        gap = np.abs(kfeat - sign_align(kfeat, pfeat)).max()
        worst = max(worst, gap)
    print(f"criterion 3: worst transform gap {worst:.3e} (need <= 1e-8)")
    assert worst <= 1e-8


def test_criterion_4_preimage_round_trip_on_training_set():
    ds = gen_two_spheres(SpheresParams(n=100, seed=42))
    x = ds.features
    sigma = select_sigma(x)
    spec = KernelSpec.gaussian(sigma)
    model = fit_kpca(x, spec, x.shape[0])
    y = kpca_transform(model, x)

    cfg = PreimageConfig()
    within = 0
    worst_residual = 0.0
    for i in range(x.shape[0]):
        result = kpca_preimage(model, y[i], cfg)
        if result.status == "converged":
            # one more application of the update map measures how far the
            # returned point is from being a true fixed point
            a = model.coefficients
            gamma = (a - a.mean(axis=0)) @ y[i] + 1.0 / model.n_samples
            kz = kernel_matrix(spec, result.z[None, :], x)[0]
            step = (gamma * kz) @ x / np.dot(gamma, kz)
            worst_residual = max(worst_residual,
                                 float(np.linalg.norm(step - result.z)))
        if np.linalg.norm(result.z - x[i]) <= 1e-3:
            within += 1
    print(f"criterion 4: {within}/100 within 1e-3 (need >= 95), "
          f"worst fixed-point residual {worst_residual:.2e} "
          f"(need <= {10 * cfg.tolerance:.0e})")
    assert within >= 95
    assert worst_residual <= 10.0 * cfg.tolerance


def test_criterion_5_shape_model_identity_and_sweep_geometry():
    shapes = load_corpus()
    n_landmarks = shapes[0].size // 2
    model = fit_shape_model(shapes, 2 * n_landmarks)

    # full-rank model reproduces every training shape
    worst = 0.0
    for s in shapes:
        b = model.basis.T @ (s - model.mean)
        rebuilt = model.mean + model.basis @ b
        worst = max(worst, float(np.abs(rebuilt - s).max()))
    assert worst <= 1e-8

    for k in (1, 2, 3):
        swept = sweep_pca_feature(model, k, 5)
        assert np.array_equal(swept[2], model.mean)
        bound = 3.0 * np.sqrt(model.eigenvalues[k - 1])
        for end, sign in ((swept[0], -1.0), (swept[-1], 1.0)):
            b = model.basis.T @ (end - model.mean)
            assert b[k - 1] == pytest.approx(sign * bound, rel=1e-9)
            off = np.delete(b, k - 1)
            assert np.abs(off).max() <= 1e-9
    print(f"criterion 5: identity error {worst:.2e} (need <= 1e-8), "
          f"sweep midpoints exact, endpoints on the 3-sigma bounds")


def _overlapping_blobs(seed: int):
    """Two zero-mean 1000-D classes told apart only by scale on 3 axes."""
    rng = np.random.default_rng(seed)

    def draw(half):
        plus = np.hstack([2.0 * rng.standard_normal((half, 3)),
                          0.05 * rng.standard_normal((half, 997))])
        minus = np.hstack([8.0 * rng.standard_normal((half, 3)),
                           0.05 * rng.standard_normal((half, 997))])
        labels = np.concatenate([np.ones(half), -np.ones(half)])
        return np.vstack([plus, minus]), labels
    return draw(30), draw(20)


def test_criterion_6_high_dimensional_blobs_kpca_beats_pca():
    start = time.perf_counter()
    pca_wrong = 0
    kpca_wrong = 0
    total = 0
    for seed in range(5):
        (x_train, y_train), (x_test, y_test) = _overlapping_blobs(seed)

        pmodel = fit_pca_dual(x_train, 9)
        clf = fit_linear(pca_project(pmodel, x_train), y_train)
        pca_wrong += round(error_rate(clf, pca_project(pmodel, x_test),
                                      y_test) * y_test.size)

        kmodel = fit_kpca(x_train, KernelSpec.gaussian(select_sigma(x_train)), 9)
        clf = fit_linear(kpca_transform(kmodel, x_train), y_train)
        kpca_wrong += round(error_rate(clf, kpca_transform(kmodel, x_test),
                                       y_test) * y_test.size)
        total += y_test.size
    elapsed = time.perf_counter() - start
    print(f"criterion 6: aggregate test error kpca {kpca_wrong / total:.3f} "
          f"vs pca {pca_wrong / total:.3f} over {total} points, {elapsed:.1f}s")
    assert kpca_wrong <= pca_wrong
    assert elapsed <= 10.0


def test_criterion_7_corpus_sweeps_use_nonlinear_structure():
    shapes = load_corpus()
    x = np.vstack(shapes)
    model = fit_kpca(x, KernelSpec.gaussian(select_sigma(x)), 10)

    kpca_row = np.vstack(sweep_kpca_feature(model, 1, 500.0, 5))  # raises on divergence
    pca_row = np.vstack(sweep_pca_feature(fit_shape_model(shapes, 10), 1, 5))
    displacement = float(np.abs(kpca_row - pca_row).max())
    print(f"criterion 7: {len(shapes)} shapes, max landmark displacement "
          f"{displacement:.4f} (need > 1e-3), all pre-images converged")
    assert displacement > 1e-3


def test_criterion_8_property_suites_and_round_trips(tmp_path):
    start = time.perf_counter()
    rng = np.random.default_rng(88)

    # eigendecomposition: reconstruction and trace over 100 random matrices
    for _ in range(100):
        n = int(rng.integers(2, 16))
        a = rng.standard_normal((n, n))
        sym = (a + a.T) / 2.0
        decomp = sym_eig(sym)
        rebuilt = decomp.vectors @ np.diag(decomp.values) @ decomp.vectors.T
        assert np.abs(rebuilt - sym).max() <= 1e-8
        assert decomp.values.sum() == pytest.approx(np.trace(sym),
                                                    rel=1e-9, abs=1e-9)

    # centering: idempotent with zero row sums over 100 random Grams
    for _ in range(100):
        n = int(rng.integers(2, 16))
        x = rng.standard_normal((n, int(rng.integers(1, 6))))
        k = kernel_matrix(KernelSpec.linear(), x, x)
        kc = center_gram(k)
        assert np.abs(kc.sum(axis=1)).max() <= 1e-9
        assert np.abs(center_gram(kc) - kc).max() <= 1e-9

    # serialization round trips
    m = rng.standard_normal((7, 4)) * 10.0 ** rng.integers(-6, 7, size=(7, 4))
    csv_path = tmp_path / "m.csv"
    write_csv_matrix(m, csv_path)
    assert np.array_equal(read_csv_matrix(csv_path), m)

    pixels = rng.integers(0, 256, size=(9, 11))
    ascii_pgm = ("P2\n11 9\n255\n"
                 + "\n".join(" ".join(str(v) for v in row) for row in pixels)
                 + "\n").encode("ascii")
    binary_pgm = b"P5\n11 9\n255\n" + pixels.astype(np.uint8).tobytes()
    (tmp_path / "a.pgm").write_bytes(ascii_pgm)
    (tmp_path / "b.pgm").write_bytes(binary_pgm)
    flat = pixels.reshape(-1).astype(float)
    assert np.array_equal(read_pgm(tmp_path / "a.pgm"), flat)
    assert np.array_equal(read_pgm(tmp_path / "b.pgm"), flat)

    shape = rng.random(40)
    pts_path = tmp_path / "s.pts"
    write_pts(shape, pts_path)
    assert np.array_equal(read_pts(pts_path), shape)

    elapsed = time.perf_counter() - start
    print(f"criterion 8: 100 eigen matrices, 100 Grams, csv/pgm/pts round "
          f"trips, {elapsed:.1f}s")
    assert elapsed <= 60.0
