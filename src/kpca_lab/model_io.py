"""Flat binary container for fitted PCA / kernel-PCA models.

Layout (all integers and reals little-endian):

    offset  size  field
    0       4     magic b"KPML"
    4       2     container version (uint16, currently 1)
    6       1     model kind: 1 = pca, 2 = kpca
    7       1     kernel kind: 0 = none, 1 = linear, 2 = polynomial, 3 = gaussian
    8       4     kernel degree (uint32)
    12      8     kernel offset (float64)
    20      8     kernel width (float64)
    28      4x3   dimensions (uint32): pca -> (D, M, 0); kpca -> (N, D, M)
    40      ...   payload, row-major float64 blocks:
                  pca  -> mean (D), basis (D*M), eigenvalues (M)
                  kpca -> training (N*D), coefficients (N*M), eigenvalues (M)

The kernel-PCA training Gram's column means are not stored; loading
rebuilds the Gram through the same deterministic kernel code path and takes
its means with the same expression as fitting, then drops it.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .kernels import KernelSpec, kernel_matrix
from .kpca import KpcaModel, gram_col_means
from .pca import PcaModel

MAGIC = b"KPML"
VERSION = 1
_HEADER = struct.Struct("<4sHBBIddIII")

_KERNEL_CODES = {"linear": 1, "polynomial": 2, "gaussian": 3}
_KERNEL_NAMES = {v: k for k, v in _KERNEL_CODES.items()}


class ModelFormatError(ValueError):
    """Container bytes do not match the documented layout."""


def _pack_floats(*arrays: np.ndarray) -> bytes:
    return b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays)


def save_model(model: PcaModel | KpcaModel, path: str | Path) -> None:
    if isinstance(model, PcaModel):
        d, m = model.basis.shape
        header = _HEADER.pack(MAGIC, VERSION, 1, 0, 0, 0.0, 0.0, d, m, 0)
        payload = _pack_floats(model.mean, model.basis, model.eigenvalues)
    elif isinstance(model, KpcaModel):
        n, d = model.training.shape
        m = model.n_components
        spec = model.spec
        header = _HEADER.pack(
            MAGIC, VERSION, 2, _KERNEL_CODES[spec.kind],
            spec.degree, spec.offset, spec.width, n, d, m,
        )
        payload = _pack_floats(model.training, model.coefficients, model.eigenvalues)
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    Path(path).write_bytes(header + payload)


def _take(buf: bytes, offset: int, count: int, shape: tuple[int, ...]) -> tuple[np.ndarray, int]:
    end = offset + count * 8
    if end > len(buf):
        raise ModelFormatError(
            f"truncated payload: need {end} bytes, have {len(buf)}"
        )
    arr = np.frombuffer(buf[offset:end], dtype="<f8").astype(float).reshape(shape)
    return arr, end


def load_model(path: str | Path) -> PcaModel | KpcaModel:
    try:
        return _parse_model(Path(path).read_bytes())
    except ValueError as exc:
        raise ModelFormatError(f"{path}: {exc}") from None


def _parse_model(buf: bytes) -> PcaModel | KpcaModel:
    if len(buf) < _HEADER.size:
        raise ModelFormatError("file shorter than header")
    magic, version, kind, kcode, degree, offset, width, d0, d1, d2 = \
        _HEADER.unpack_from(buf)
    if magic != MAGIC:
        raise ModelFormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise ModelFormatError(f"unsupported container version {version}")
    pos = _HEADER.size
    if kind == 1:
        d, m = d0, d1
        mean, pos = _take(buf, pos, d, (d,))
        basis, pos = _take(buf, pos, d * m, (d, m))
        values, pos = _take(buf, pos, m, (m,))
        return PcaModel(mean=mean, basis=basis, eigenvalues=values)
    if kind == 2:
        if kcode not in _KERNEL_NAMES:
            raise ModelFormatError(f"unknown kernel code {kcode}")
        name = _KERNEL_NAMES[kcode]
        if name == "linear":
            spec = KernelSpec.linear()
        elif name == "polynomial":
            spec = KernelSpec.polynomial(degree, offset)
        else:
            spec = KernelSpec.gaussian(width)
        n, d, m = d0, d1, d2
        training, pos = _take(buf, pos, n * d, (n, d))
        coeffs, pos = _take(buf, pos, n * m, (n, m))
        values, pos = _take(buf, pos, m, (m,))
        return KpcaModel(
            training=training,
            spec=spec,
            coefficients=coeffs,
            eigenvalues=values,
            train_col_means=gram_col_means(kernel_matrix(spec, training, training)),
        )
    raise ModelFormatError(f"unknown model kind {kind}")
