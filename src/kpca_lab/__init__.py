"""Kernel-methods toolkit: PCA, kernel PCA, Gaussian pre-images, and shape models.

Conventions used throughout:

* A data matrix is a dense 2-D ``float64`` ndarray with one sample per row
  (N rows, D feature columns).
* Kernel matrices are dense 2-D ``float64`` ndarrays.
* Covariances use the 1/N normalization.
* Fitted models are frozen dataclasses and safe to share between threads.
"""

__version__ = "0.1.0"

from .eigen import EigenDecomposition, sym_eig
from .kernels import KernelSpec, center_cross, center_gram, kernel_matrix
from .pca import PcaModel, fit_pca, fit_pca_dual, pca_project, pca_reconstruct
from .kpca import (
    KpcaModel,
    PreimageConfig,
    Preimages,
    UnsupportedKernelError,
    fit_kpca,
    kpca_preimage,
    kpca_preimages,
    kpca_transform,
    select_sigma,
)
from .classify import LinearClassifier, error_rate, fit_linear, predict_many
from .data import (
    LabeledDataset,
    SpheresParams,
    gen_two_spheres,
    read_csv_matrix,
    read_pgm,
    write_csv_matrix,
)
from .shapes import (
    LandmarkRoleMap,
    fit_shape_model,
    normalize_shapes,
    read_pts,
    render_face_svg,
    sweep_kpca_feature,
    sweep_pca_feature,
    synthesize,
)

__all__ = [
    "EigenDecomposition",
    "KernelSpec",
    "KpcaModel",
    "LabeledDataset",
    "LandmarkRoleMap",
    "LinearClassifier",
    "PcaModel",
    "PreimageConfig",
    "Preimages",
    "SpheresParams",
    "UnsupportedKernelError",
    "center_cross",
    "center_gram",
    "error_rate",
    "fit_kpca",
    "fit_linear",
    "fit_pca",
    "fit_pca_dual",
    "fit_shape_model",
    "gen_two_spheres",
    "kernel_matrix",
    "kpca_preimage",
    "kpca_preimages",
    "kpca_transform",
    "normalize_shapes",
    "pca_project",
    "pca_reconstruct",
    "predict_many",
    "read_csv_matrix",
    "read_pgm",
    "read_pts",
    "render_face_svg",
    "select_sigma",
    "sweep_kpca_feature",
    "sweep_pca_feature",
    "sym_eig",
    "synthesize",
    "write_csv_matrix",
]
