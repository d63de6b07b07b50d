"""Synthetic data generation and numeric file formats (CSV, PGM).

Reproducibility contract for the generators: randomness comes from numpy's
PCG64 keyed through ``SeedSequence(seed)``, with one spawned child stream
per class so extending the dataset never reorders existing draws.  Gaussian
noise is produced by an explicit Box-Muller transform of uniform draws
(``sigma * sqrt(-2 ln(1 - u1)) * cos(2 pi u2)``), not by a library normal
sampler, so the byte-level output depends only on the PCG64 bit stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


class CsvParseError(ValueError):
    """Malformed numeric CSV; the message carries the path and 1-based line number."""


class PgmParseError(ValueError):
    """Malformed or truncated PGM file."""


@dataclass(frozen=True)
class LabeledDataset:
    features: np.ndarray  # N x D
    labels: np.ndarray    # N integer labels

    def __post_init__(self):
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError(
                f"{self.features.shape[0]} rows vs {self.labels.shape[0]} labels"
            )


@dataclass(frozen=True)
class SpheresParams:
    """Two-concentric-spheres dataset parameters.

    Defaults are the reference setting: 1000 points split over radii 40 and
    100 with unit Gaussian coordinate noise.
    """

    n: int = 1000
    r1: float = 40.0
    r2: float = 100.0
    noise: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n <= 0 or self.n % 2 != 0:
            raise ValueError(f"n must be a positive even integer, got {self.n}")
        if not (0.0 < self.r1 < np.inf and 0.0 < self.r2 < np.inf):
            raise ValueError(f"radii must be finite and > 0: r1={self.r1}, r2={self.r2}")
        if self.r1 == self.r2:
            raise ValueError("radii must differ")
        if not 0.0 <= self.noise < np.inf:
            raise ValueError(f"noise must be finite and >= 0, got {self.noise}")


def _box_muller(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    u1 = rng.random(shape)
    u2 = rng.random(shape)
    return np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)


def _sphere_class(rng: np.random.Generator, count: int, radius: float,
                  noise: float) -> np.ndarray:
    # Angles are uniform (not area-uniform), so points concentrate near the
    # poles; that is the intended sampling model, do not "fix" it.
    theta = rng.random(count) * np.pi
    phi = rng.random(count) * 2.0 * np.pi
    pts = radius * np.column_stack([
        np.sin(theta) * np.cos(phi),
        np.sin(theta) * np.sin(phi),
        np.cos(theta),
    ])
    if noise > 0.0:
        pts = pts + noise * _box_muller(rng, (count, 3))
    return pts


def gen_two_spheres(p: SpheresParams) -> LabeledDataset:
    """Sample N/2 points on each of two concentric noisy spheres.

    Rows 0..N/2-1 are class +1 at radius r1; the rest are class -1 at
    radius r2.  Deterministic for a fixed seed.
    """
    children = np.random.SeedSequence(p.seed).spawn(2)
    half = p.n // 2
    inner = _sphere_class(np.random.Generator(np.random.PCG64(children[0])),
                          half, p.r1, p.noise)
    outer = _sphere_class(np.random.Generator(np.random.PCG64(children[1])),
                          half, p.r2, p.noise)
    labels = np.concatenate([np.full(half, 1), np.full(half, -1)])
    return LabeledDataset(features=np.vstack([inner, outer]), labels=labels)


def write_csv_matrix(m: np.ndarray, path: str | Path) -> None:
    """Write a 2-D matrix as headerless comma-separated rows.

    Values are formatted with 17 significant digits, enough for an exact
    float64 round trip through :func:`read_csv_matrix`.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    with open(path, "w", encoding="ascii") as fh:
        for row in m:
            fh.write(",".join(f"{v:.17g}" for v in row))
            fh.write("\n")


def read_csv_matrix(path: str | Path) -> np.ndarray:
    """Read a headerless numeric CSV into an N x D float matrix.

    Raises :class:`CsvParseError` (with the path and a line number) for
    ragged rows, non-numeric cells, or an empty file, and (with the path)
    for a file that is not ASCII.
    """
    try:
        text = Path(path).read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        raise CsvParseError(f"{path}: {exc}") from None
    rows: list[list[float]] = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        cells = line.split(",")
        try:
            row = [float(c) for c in cells]
        except ValueError as exc:
            raise CsvParseError(
                f"{path}: line {lineno}: non-numeric cell ({exc})") from None
        if rows and len(row) != len(rows[0]):
            raise CsvParseError(
                f"{path}: line {lineno}: {len(row)} cells, expected {len(rows[0])}"
            )
        rows.append(row)
    if not rows:
        raise CsvParseError(f"{path}: no data rows found")
    return np.array(rows, dtype=float)


def _pgm_header_tokens(data: bytes):
    # Yields (token, offset-after-token); '#' starts a comment through EOL.
    i = 0
    n = len(data)
    while i < n:
        c = data[i:i + 1]
        if c in b" \t\r\n":
            i += 1
        elif c == b"#":
            while i < n and data[i:i + 1] not in b"\r\n":
                i += 1
        else:
            j = i
            while j < n and data[j:j + 1] not in b" \t\r\n#":
                j += 1
            yield data[i:j], j
            i = j


def read_pgm(path: str | Path) -> np.ndarray:
    """Read a P2 (ASCII) or P5 (binary) PGM image as a flat intensity vector.

    Pixels are returned row-major as floats in [0, maxval]; 16-bit binary
    samples are big-endian per the format.  Raises :class:`PgmParseError`,
    naming the path, on malformed headers or truncated payloads.
    """
    try:
        return _parse_pgm(Path(path).read_bytes())
    except PgmParseError as exc:
        raise PgmParseError(f"{path}: {exc}") from None


def _parse_pgm(data: bytes) -> np.ndarray:
    tokens = _pgm_header_tokens(data)
    try:
        magic, _ = next(tokens)
        (w_tok, _), (h_tok, _), (maxval_tok, header_end) = (
            next(tokens), next(tokens), next(tokens))
    except StopIteration:
        raise PgmParseError("incomplete PGM header") from None
    if magic not in (b"P2", b"P5"):
        raise PgmParseError(f"unsupported magic {magic!r} (want P2 or P5)")
    try:
        width, height, maxval = int(w_tok), int(h_tok), int(maxval_tok)
    except ValueError:
        raise PgmParseError("non-integer header field") from None
    if width <= 0 or height <= 0:
        raise PgmParseError(f"bad dimensions {width}x{height}")
    if not 0 < maxval <= 65535:
        raise PgmParseError(f"maxval {maxval} outside (0, 65535]")
    count = width * height
    if magic == b"P2":
        try:
            values = [int(tok) for tok, _ in tokens]
        except ValueError:
            raise PgmParseError("non-integer pixel value") from None
        if len(values) < count:
            raise PgmParseError(
                f"expected {count} pixels, found {len(values)}"
            )
        pixels = np.array(values[:count], dtype=float)
    else:
        # Exactly one whitespace byte separates the header from the payload.
        payload = data[header_end + 1:]
        bytes_per = 1 if maxval < 256 else 2
        if len(payload) < count * bytes_per:
            raise PgmParseError(
                f"truncated payload: {len(payload)} bytes, "
                f"need {count * bytes_per}"
            )
        raw = np.frombuffer(payload[: count * bytes_per],
                            dtype=">u2" if bytes_per == 2 else np.uint8)
        pixels = raw.astype(float)
    if pixels.max(initial=0.0) > maxval:
        raise PgmParseError("pixel value exceeds declared maxval")
    return pixels
