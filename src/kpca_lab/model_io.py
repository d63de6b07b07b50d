"""Flat binary container for fitted PCA / kernel-PCA models.

Layout (all integers and reals little-endian):

    offset  size  field
    0       4     magic b"KPML"
    4       2     container version (uint16, currently 2; 1 is read too)
    6       1     model kind: 1 = pca, 2 = kpca
    7       1     kernel kind: 0 = none, 1 = linear, 2 = polynomial, 3 = gaussian
    8       4     kernel degree (uint32)
    12      8     kernel offset (float64)
    20      8     kernel width (float64)
    28      4x3   dimensions (uint32): pca -> (D, M, 0); kpca -> (N, D, M)
    40      ...   payload, row-major float64 blocks:
                  pca  -> mean (D), basis (D*M), eigenvalues (M)
                  kpca -> training (N*D), coefficients (N*M), eigenvalues (M),
                          then in version 2 the training Gram's column means (N)

A kpca header holds the three fields of the model's :class:`KernelSpec`,
where those its kind does not read are at their defaults; a pca header
writes zeros there.  Loading builds the spec from all three fields, so it
resets a field the kind does not read to its default whatever the header
holds.  Version 2 stores the kernel-PCA training Gram's column means, so
loading builds no Gram.  A version 1 container has no means; loading
rebuilds the Gram and its means with :func:`kernels.gram_with_means`, as
fitting does, then drops the Gram, so both versions of one fit load
bit-identical models.  Saving writes version 2, and a pca payload is the
same in both versions.

Loading rejects, with :class:`ModelFormatError` naming the file, any
container that does not match this layout exactly: a short header or
payload, bytes after the payload, a pca header with M = 0 or M > D or a
kpca header with N < 2 or M > N (no fit writes one), and non-finite payload
entries, which would make every projection NaN.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .kernels import KernelSpec, gram_with_means
from .kpca import KpcaModel
from .pca import PcaModel

MAGIC = b"KPML"
VERSION = 2
_HEADER = struct.Struct("<4sHBBIddIII")

# Kernel kinds in header code order: code i + 1 is _KERNEL_KINDS[i].
_KERNEL_KINDS = ("linear", "polynomial", "gaussian")


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
            MAGIC, VERSION, 2, _KERNEL_KINDS.index(spec.kind) + 1,
            spec.degree, spec.offset, spec.width, n, d, m,
        )
        payload = _pack_floats(model.training, model.coefficients, model.eigenvalues,
                               model.train_col_means)
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    Path(path).write_bytes(header + payload)


def _take(buf: bytes, offset: int, shape: tuple[int, ...], name: str) -> tuple[np.ndarray, int]:
    end = offset + 8 * math.prod(shape)
    if end > len(buf):
        raise ModelFormatError(
            f"truncated payload: need {end} bytes, have {len(buf)}"
        )
    arr = np.frombuffer(buf[offset:end], dtype="<f8").astype(float).reshape(shape)
    if not np.isfinite(arr).all():
        raise ModelFormatError(f"non-finite {name} entries")
    return arr, end


def _end(buf: bytes, pos: int) -> None:
    if pos != len(buf):
        raise ModelFormatError(
            f"{len(buf) - pos} trailing bytes after the payload"
        )


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
    if version not in (1, VERSION):
        raise ModelFormatError(f"unsupported container version {version}")
    pos = _HEADER.size
    if kind == 1:
        d, m = d0, d1
        if not 1 <= m <= d:
            raise ModelFormatError(f"pca model needs 1 <= M <= D, header has M={m}, D={d}")
        mean, pos = _take(buf, pos, (d,), "mean")
        basis, pos = _take(buf, pos, (d, m), "basis")
        values, pos = _take(buf, pos, (m,), "eigenvalue")
        _end(buf, pos)
        return PcaModel(mean=mean, basis=basis, eigenvalues=values)
    if kind == 2:
        if not 1 <= kcode <= len(_KERNEL_KINDS):
            raise ModelFormatError(f"unknown kernel code {kcode}")
        spec = KernelSpec(_KERNEL_KINDS[kcode - 1], degree, offset, width)
        n, d, m = d0, d1, d2
        if n < 2:
            raise ModelFormatError(f"kpca model needs N >= 2 training rows, header has {n}")
        if m > n:
            raise ModelFormatError(f"kpca model has M={m} components but only N={n} rows")
        training, pos = _take(buf, pos, (n, d), "training")
        coeffs, pos = _take(buf, pos, (n, m), "coefficient")
        values, pos = _take(buf, pos, (m,), "eigenvalue")
        if version == 1:
            means = gram_with_means(spec, training)[1]
        else:
            means, pos = _take(buf, pos, (n,), "column mean")
        _end(buf, pos)
        return KpcaModel(
            training=training,
            spec=spec,
            coefficients=coeffs,
            eigenvalues=values,
            train_col_means=means,
        )
    raise ModelFormatError(f"unknown model kind {kind}")
