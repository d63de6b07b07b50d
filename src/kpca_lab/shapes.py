"""Point-distribution shape models and kernel-PCA shape synthesis.

A shape with n landmarks is stored as the flat 2n-vector
[x1, y1, ..., xn, yn] (float64 ndarray).  Landmark y grows downward, image
style, which also matches SVG canvas coordinates.

The point-distribution model is the :class:`pca.PcaModel` of
:func:`fit_shape_model`: ``mean`` is the mean shape, ``basis`` the
orthonormal deformation modes, ``eigenvalues`` their 1/N variances.
Deformation weights b_k are conventionally limited to +/- 3 sqrt(lambda_k).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from . import pca
from .kpca import KpcaModel, PreimageConfig, kpca_preimages


class PtsParseError(ValueError):
    """Malformed PTS landmark file."""


class RoleMapError(ValueError):
    """Malformed or inconsistent landmark role map."""


class ShapeError(ValueError):
    """A shape in a list failed a check; ``index`` is its position in the list."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class LandmarkRoleMap:
    """Named landmark index groups used by the face renderer.

    Brows, eyes, and the nose render as polyline segments, eyeballs as
    circles, the mouth as a closed quadrilateral, and the contour group
    (>= 3 points) as a fitted parabola.
    """

    right_eyebrow: tuple[int, ...]
    left_eyebrow: tuple[int, ...]
    right_eye: tuple[int, ...]
    left_eye: tuple[int, ...]
    eyeballs: tuple[int, ...]
    nose: tuple[int, ...]
    mouth: tuple[int, ...]
    contour: tuple[int, ...]


# Default map for the 20-point BioID markup (0/1 pupils, 2/3 mouth corners,
# 4-7 brow ends, 8/13 temples, 9-12 eye corners, 14 nose tip, 15/16
# nostrils, 17/18 lip centers, 19 chin).  The annotation order is a
# convention, not a standard; override via a role-map file when your
# landmark set differs.
BIOID_20_ROLES = LandmarkRoleMap(
    right_eyebrow=(4, 5),
    left_eyebrow=(6, 7),
    right_eye=(9, 10),
    left_eye=(11, 12),
    eyeballs=(0, 1),
    nose=(15, 14, 16),
    mouth=(2, 17, 3, 18),
    contour=(8, 19, 13),
)

_ROLE_NAMES = tuple(f.name for f in fields(LandmarkRoleMap))


def shape_points(shape: np.ndarray) -> np.ndarray:
    """View a flat 2n shape vector as an (n, 2) array of (x, y) points."""
    shape = np.asarray(shape, dtype=float)
    if shape.ndim != 1 or shape.size % 2 != 0:
        raise ValueError(f"shape vector must be flat with even length, got {shape.shape}")
    return shape.reshape(-1, 2)


def points_shape(points: np.ndarray) -> np.ndarray:
    """Flatten an (n, 2) point array back to the 2n shape vector."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError(f"expected an (n, 2) array, got {points.shape}")
    return points.reshape(-1)


def normalize_shapes(shapes: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Min-max normalize each shape so both coordinates span exactly [0, 1].

    Normalization is per shape and per axis, which removes translation and
    scale.  A shape whose points are collinear along an axis has no scale
    there; that, or a point count unlike the first shape's, raises a
    :class:`ShapeError` naming the shape index.
    """
    if len(shapes) == 0:
        raise ValueError("no shapes given")
    n = shapes[0].size
    out = []
    for idx, shape in enumerate(shapes):
        if shape.size != n:
            raise ShapeError(
                f"shape {idx} has {shape.size // 2} points, expected {n // 2}", idx
            )
        pts = shape_points(shape).copy()
        for axis in range(2):
            lo = pts[:, axis].min()
            hi = pts[:, axis].max()
            if hi - lo <= 0.0:
                raise ShapeError(
                    f"shape {idx} is degenerate: zero range on "
                    f"{'xy'[axis]} axis", idx
                )
            pts[:, axis] = (pts[:, axis] - lo) / (hi - lo)
        out.append(points_shape(pts))
    return out


def fit_shape_model(shapes: Sequence[np.ndarray], t: int) -> pca.PcaModel:
    """PCA deformation model over aligned, normalized shape vectors."""
    if len(shapes) < 2:
        raise ValueError("need at least 2 shapes")
    n = shapes[0].size
    for idx, s in enumerate(shapes):
        if s.size != n:
            raise ValueError(
                f"shape {idx} has {s.size // 2} points, expected {n // 2}"
            )
    return pca.fit_pca(np.vstack(shapes), t)


def clamp_deformation(model: pca.PcaModel, b: np.ndarray) -> np.ndarray:
    """Clip each weight into [-3 sqrt(lambda_k), +3 sqrt(lambda_k)]."""
    limit = 3.0 * np.sqrt(model.eigenvalues)
    return np.clip(np.asarray(b, dtype=float), -limit, limit)


def synthesize(model: pca.PcaModel, b: np.ndarray, clamp: bool = False) -> np.ndarray:
    """Shape for deformation weights b: mean + basis . b, optionally clamped."""
    b = np.asarray(b, dtype=float).ravel()
    if b.shape[0] != model.n_components:
        raise ValueError(f"expected {model.n_components} weights, got {b.shape[0]}")
    if clamp:
        b = clamp_deformation(model, b)
    return pca.pca_reconstruct(model, b)


# Sweep settings shared by ``kpca-lab asm-sweep`` and scripts/run_asm_sweeps.py:
# shapes per sweep, retained components, and the kernel sweep's half-range
# in training standard deviations.
SWEEP_STEPS = 5
SWEEP_COMPONENTS = 10
KPCA_SWEEP_C = 500.0


def _sweep_rows(eigenvalues: np.ndarray, k: int, half: float, steps: int) -> np.ndarray:
    """Rows sweeping feature k (1-based) over +/- half sqrt(lambda_k); others 0."""
    m = eigenvalues.shape[0]
    if not 1 <= k <= m:
        raise ValueError(f"feature index {k} outside [1, {m}]")
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    limit = half * np.sqrt(eigenvalues[k - 1])
    rows = np.zeros((steps, m))
    rows[:, k - 1] = np.linspace(-limit, limit, steps)
    return rows


def sweep_pca_feature(model: pca.PcaModel, k: int, steps: int) -> list[np.ndarray]:
    """Sweep deformation mode k (1-based) across its +/- 3 sqrt(lambda) range.

    Returns ``steps`` shapes with b_k linearly spaced over the limit
    interval, endpoints included, and every other weight zero.  With an odd
    step count the middle shape is exactly the mean shape.
    """
    rows = _sweep_rows(model.eigenvalues, k, 3.0, steps)
    return list(pca.pca_reconstruct(model, rows))


def sweep_kpca_feature(
    kmodel: KpcaModel,
    k: int,
    c: float,
    steps: int,
    cfg: PreimageConfig | None = None,
) -> list[np.ndarray]:
    """Sweep kernel feature k (1-based) and reconstruct shapes by pre-image.

    The sweep range is the training mean of feature k plus/minus ``c``
    training standard deviations (population convention), sampled uniformly
    with endpoints included; all other features stay at their training
    means.  The spectrum gives these without transforming the training set:
    1^T K~ = 0 makes every mean 0, and K~ a_k = N lambda_k a_k with
    N lambda_k |a_k|^2 = 1 makes the std of feature k sqrt(lambda_k).  The
    rows go through the gaussian pre-image iteration as one batch.  A step
    that diverges or runs out of iterations raises :class:`RuntimeError`
    naming the step by its 1-based number, the NN of the ``step_NN.svg``
    the CLI renders it to.
    """
    if not 0.0 < c < np.inf:
        raise ValueError(f"c must be finite and > 0, got {c}")
    ys = _sweep_rows(kmodel.eigenvalues, k, c, steps)
    z, iterations, status = kpca_preimages(kmodel, ys, cfg)
    failed = np.flatnonzero(status != "converged")
    if failed.size:
        i = failed[0]
        raise RuntimeError(
            f"pre-image failed at sweep step {i + 1} of {steps}: "
            f"{status[i]} after {iterations[i]} iterations"
        )
    return list(z)


def fit_parabola(points: np.ndarray) -> tuple[float, float, float]:
    """Least-squares coefficients (a, b, c) of y = a x^2 + b x + c."""
    points = np.asarray(points, dtype=float)
    if points.shape[0] < 3:
        raise ValueError(f"parabola fit needs >= 3 points, got {points.shape[0]}")
    x = points[:, 0]
    design = np.column_stack([x**2, x, np.ones_like(x)])
    coeffs, *_ = np.linalg.lstsq(design, points[:, 1], rcond=None)
    return float(coeffs[0]), float(coeffs[1]), float(coeffs[2])


_CANVAS = 400.0
_STROKE = 'fill="none" stroke="black" stroke-width="2"'
_EYEBALL_RADIUS = 0.015  # in normalized shape coordinates
_CONTOUR_SAMPLES = 41


def _cv(v: float) -> str:
    return f"{v * _CANVAS:.2f}"


def _poly(pts: np.ndarray, close: bool) -> str:
    coords = " ".join(f"{_cv(p[0])},{_cv(p[1])}" for p in pts)
    tag = "polygon" if close else "polyline"
    return f'  <{tag} points="{coords}" {_STROKE} />'


def _check_roles(roles: LandmarkRoleMap, n: int) -> None:
    for name in _ROLE_NAMES:
        group = getattr(roles, name)
        if len(group) == 0:
            raise RoleMapError(f"role group {name!r} is empty")
        for idx in group:
            if not 0 <= idx < n:
                raise RoleMapError(
                    f"role group {name!r} index {idx} outside [0, {n})"
                )
    if len(roles.contour) < 3:
        raise RoleMapError("contour group needs >= 3 points for the parabola fit")
    if len(roles.mouth) != 4:
        raise RoleMapError(f"mouth group must have 4 points, got {len(roles.mouth)}")


def render_face_svg(shape: np.ndarray, roles: LandmarkRoleMap) -> str:
    """Render a landmark shape as a deterministic 400 x 400 SVG drawing.

    Shape coordinates are taken as normalized [0, 1] values and scaled to
    the canvas.  Brows, eyes, and nose become polylines, eyeballs circles,
    the mouth a closed quadrilateral, and the face contour a least-squares
    parabola sampled as a smooth polyline through the contour x-range.
    """
    pts = shape_points(shape)
    _check_roles(roles, pts.shape[0])
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_CANVAS:.0f}" '
        f'height="{_CANVAS:.0f}" viewBox="0 0 {_CANVAS:.0f} {_CANVAS:.0f}">',
        f'  <rect width="{_CANVAS:.0f}" height="{_CANVAS:.0f}" fill="white" />',
    ]
    for name in ("right_eyebrow", "left_eyebrow", "right_eye", "left_eye", "nose"):
        parts.append(_poly(pts[list(getattr(roles, name))], close=False))
    for idx in roles.eyeballs:
        parts.append(
            f'  <circle cx="{_cv(pts[idx, 0])}" cy="{_cv(pts[idx, 1])}" '
            f'r="{_cv(_EYEBALL_RADIUS)}" {_STROKE} />'
        )
    parts.append(_poly(pts[list(roles.mouth)], close=True))
    contour = pts[list(roles.contour)]
    a, b, c = fit_parabola(contour)
    xs = np.linspace(contour[:, 0].min(), contour[:, 0].max(), _CONTOUR_SAMPLES)
    curve = np.column_stack([xs, a * xs**2 + b * xs + c])
    parts.append(_poly(curve, close=False))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def parse_pts(text: str, source: str = "<string>") -> np.ndarray:
    """Parse PTS landmark text into a flat shape vector.

    Expected layout: a ``version: 1`` line, ``n_points: <n>``, ``{``, then n
    lines of ``x y``, then ``}``.  Whitespace around tokens is ignored, but
    trailing garbage on a line is an error.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if len(lines) < 4:
        raise PtsParseError(f"{source}: truncated PTS file")
    if lines[0].replace(" ", "").lower() != "version:1":
        raise PtsParseError(f"{source}: expected 'version: 1', got {lines[0]!r}")
    head = lines[1].replace(" ", "").lower()
    if not head.startswith("n_points:"):
        raise PtsParseError(f"{source}: expected 'n_points: <n>', got {lines[1]!r}")
    try:
        n = int(head.split(":", 1)[1])
    except ValueError:
        raise PtsParseError(f"{source}: bad point count in {lines[1]!r}") from None
    if n < 3:
        raise PtsParseError(f"{source}: need at least 3 points, got {n}")
    if lines[2] != "{":
        raise PtsParseError(f"{source}: expected '{{', got {lines[2]!r}")
    if len(lines) != n + 4 or lines[-1] != "}":
        raise PtsParseError(
            f"{source}: expected {n} point lines between braces"
        )
    coords = []
    for ln in lines[3:3 + n]:
        fields = ln.split()
        if len(fields) != 2:
            raise PtsParseError(f"{source}: bad point line {ln!r}")
        try:
            coords.append((float(fields[0]), float(fields[1])))
        except ValueError:
            raise PtsParseError(f"{source}: bad point line {ln!r}") from None
    return points_shape(np.array(coords))


def read_pts(path: str | Path) -> np.ndarray:
    """Read one PTS landmark file as a flat shape vector; errors name the path."""
    path = Path(path)
    try:
        text = path.read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        raise PtsParseError(f"{path}: {exc}") from None
    return parse_pts(text, source=str(path))


def write_pts(shape: np.ndarray, path: str | Path) -> None:
    """Write a shape vector in PTS layout (inverse of :func:`read_pts`)."""
    pts = shape_points(shape)
    lines = ["version: 1", f"n_points: {pts.shape[0]}", "{"]
    lines += [f"{p[0]:.17g} {p[1]:.17g}" for p in pts]
    lines.append("}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def parse_role_map(text: str) -> LandmarkRoleMap:
    """Parse a role-map file: one ``name = i, j, k`` line per group.

    Blank lines and lines starting with ``#`` are skipped.  All eight group
    names must be present exactly once.
    """
    groups: dict[str, tuple[int, ...]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise RoleMapError(f"line {lineno}: expected 'name = indices'")
        name, _, rhs = line.partition("=")
        name = name.strip()
        if name not in _ROLE_NAMES:
            raise RoleMapError(f"line {lineno}: unknown group {name!r}")
        if name in groups:
            raise RoleMapError(f"line {lineno}: duplicate group {name!r}")
        try:
            indices = tuple(int(tok) for tok in rhs.split(","))
        except ValueError:
            raise RoleMapError(f"line {lineno}: bad index list {rhs.strip()!r}") from None
        groups[name] = indices
    missing = [n for n in _ROLE_NAMES if n not in groups]
    if missing:
        raise RoleMapError(f"missing role groups: {', '.join(missing)}")
    return LandmarkRoleMap(**groups)


def read_role_map(path: str | Path) -> LandmarkRoleMap:
    return parse_role_map(Path(path).read_text(encoding="ascii"))
