"""Command-line front end: data generation, embeddings, classification,
pre-images, and shape-model sweeps, with CSV/SVG outputs.

Every subcommand writes a ``manifest.json`` next to its outputs recording
the resolved parameters, paths, seed, and toolkit version, so a run can be
reproduced from its output directory alone.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .classify import error_rate, fit_linear
from .data import (
    SpheresParams,
    gen_two_spheres,
    read_csv_matrix,
    write_csv_matrix,
)
from .kernels import KernelSpec, _rows
from .kpca import (
    KpcaModel,
    PreimageConfig,
    UnsupportedKernelError,
    fit_kpca,
    kpca_preimages,
    select_sigma,
)
from .model_io import load_model, save_model
from .pca import fit_pca, pca_project
from .shapes import (
    _CANVAS,
    BIOID_20_ROLES,
    KPCA_SWEEP_C,
    SWEEP_COMPONENTS,
    SWEEP_STEPS,
    RoleMapError,
    ShapeError,
    check_roles,
    normalize_shapes,
    fit_shape_model,
    read_pts,
    read_role_map,
    render_face_svg,
    svg_frame,
    sweep_kpca_feature,
    sweep_pca_feature,
)

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_MARGIN = 24.0  # scatter.svg border, in pixels


def _write_manifest(out_dir: Path, subcommand: str, parameters: dict,
                    inputs: list, outputs: list, seed=None) -> Path:
    manifest = {
        "subcommand": subcommand,
        "toolkit_version": __version__,
        "seed": seed,
        "parameters": parameters,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
    }
    path = out_dir / "manifest.json"
    text = json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n", encoding="ascii")
    return path


def _prepare_out(arg: str) -> Path:
    out = Path(arg)
    out.mkdir(parents=True, exist_ok=True)
    return out


def scatter_svg(points: np.ndarray, labels: np.ndarray | None = None) -> str:
    """Deterministic 2-D scatter plot of the first two feature columns."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] < 2:
        raise ValueError("scatter needs at least 2 feature columns")
    xy = points[:, :2]
    colors = np.full(xy.shape[0], "#444444", dtype=object)
    if labels is not None:
        labels = np.asarray(labels).ravel()
        for i, value in enumerate(sorted(set(labels.tolist()))):
            colors[labels == value] = _PALETTE[i % len(_PALETTE)]
    lo = xy.min(axis=0)
    hi = xy.max(axis=0)
    span = np.where(hi - lo > 0.0, hi - lo, 1.0)
    scale = (_CANVAS - 2.0 * _MARGIN) / span
    parts = []
    for (x, y), color in zip(xy, colors):
        cx = _MARGIN + (x - lo[0]) * scale[0]
        cy = _CANVAS - _MARGIN - (y - lo[1]) * scale[1]  # y grows upward in plots
        parts.append(
            f'  <circle cx="{cx:.2f}" cy="{cy:.2f}" r="2.5" fill="{color}" '
            f'fill-opacity="0.7" />'
        )
    return svg_frame(parts)


def _integral_labels(values: np.ndarray, path: str) -> np.ndarray:
    bad = np.flatnonzero(~(np.isfinite(values) & (np.trunc(values) == values)))
    if bad.size:
        raise ValueError(f"{path}: label row {bad[0]} is {values[bad[0]]}, not an integer")
    return values.astype(int)


def _load_features_labels(features_path: str, labels_path: str | None,
                          labels_col: int | None):
    if labels_col is not None and labels_path is not None:
        raise ValueError(f"labels given twice: {labels_path} and --labels-col {labels_col}")
    x = read_csv_matrix(features_path)
    labels = None
    if labels_col is not None:
        cols = x.shape[1]
        col = labels_col if labels_col >= 0 else cols + labels_col
        if not 0 <= col < cols:
            raise ValueError(f"--labels-col {labels_col} outside matrix with {cols} columns")
        labels = _integral_labels(x[:, col], features_path)
        x = np.delete(x, col, axis=1)
    elif labels_path is not None:
        labels = _integral_labels(read_csv_matrix(labels_path).ravel(), labels_path)
        if labels.shape[0] != x.shape[0]:
            raise ValueError(f"{labels_path}: {labels.shape[0]} labels for the "
                             f"{x.shape[0]} rows of {features_path}")
    return _rows(x, f"{features_path}: feature"), labels


def cmd_gen_spheres(args) -> int:
    params = SpheresParams(n=args.n, r1=args.r1, r2=args.r2,
                           noise=args.noise, seed=args.seed)
    dataset = gen_two_spheres(params)
    out = _prepare_out(args.out)
    features_path = out / "features.csv"
    labels_path = out / "labels.csv"
    write_csv_matrix(dataset.features, features_path)
    write_csv_matrix(dataset.labels.reshape(-1, 1).astype(float), labels_path)
    _write_manifest(
        out, "gen-spheres",
        {"n": args.n, "r1": args.r1, "r2": args.r2, "noise": args.noise},
        inputs=[], outputs=[features_path, labels_path], seed=args.seed,
    )
    print(f"wrote {features_path} ({dataset.features.shape[0]} x "
          f"{dataset.features.shape[1]}) and {labels_path}")
    return 0


def _parse_sigma(arg: str, x: np.ndarray) -> float:
    if arg == "auto":
        sigma = select_sigma(x)
        if sigma == 0.0:
            raise ValueError("--sigma auto gave width 0: every row has an exact duplicate")
        return sigma
    try:
        return float(arg)
    except ValueError:
        raise ValueError(f"--sigma must be 'auto' or a number, got {arg!r}") from None


def _resolve_kernel(args, x: np.ndarray) -> tuple[KernelSpec, dict]:
    """The kernel and the manifest entries of the parameters it uses."""
    if args.kernel == "linear":
        return KernelSpec.linear(), {"kernel": "linear"}
    if args.kernel == "poly":
        return KernelSpec.polynomial(args.degree, args.offset), {
            "kernel": "poly", "degree": args.degree, "offset": args.offset}
    sigma = _parse_sigma(args.sigma, x)
    return KernelSpec.gaussian(sigma), {"kernel": "gaussian", "sigma": sigma}


def cmd_embed(args) -> int:
    x, labels = _load_features_labels(args.input, args.labels, args.labels_col)
    if args.method == "pca":
        model = fit_pca(x, args.components)
        transformed = pca_project(model, x)
        kernel_params = {}
    else:
        spec, kernel_params = _resolve_kernel(args, x)
        model = fit_kpca(x, spec, args.components)
        if not model.n_components:
            raise ValueError(f"{args.input}: kernel PCA retained no component "
                             f"(the centred kernel matrix is numerically zero)")
        if model.n_components < args.components:
            print(f"note: retained {model.n_components} of {args.components} "
                  f"components (rest numerically zero)")
        transformed = model.training_features
    out = _prepare_out(args.out)
    features_path = out / "features.csv"
    write_csv_matrix(transformed, features_path)
    outputs = [features_path]
    if transformed.shape[1] >= 2:
        svg_path = out / "scatter.svg"
        svg_path.write_text(scatter_svg(transformed, labels), encoding="ascii")
        outputs.append(svg_path)
    if args.save_model:
        model_path = Path(args.save_model)
        save_model(model, model_path)
        outputs.append(model_path)
    inputs = [args.input] + ([args.labels] if args.labels else [])
    _write_manifest(
        out, "embed",
        {"method": args.method, "components": args.components, **kernel_params},
        inputs=inputs, outputs=outputs,
    )
    print(f"wrote {features_path} ({transformed.shape[0]} x {transformed.shape[1]})")
    if "sigma" in kernel_params:
        print(f"gaussian sigma = {kernel_params['sigma']:.6g}")
    return 0


def cmd_classify(args) -> int:
    x_train, y_train = _load_features_labels(args.train_features,
                                             args.train_labels, args.labels_col)
    if y_train is None:
        raise ValueError("training labels required (--train-labels or --labels-col)")
    clf = fit_linear(x_train, y_train)
    report = {"train_error": error_rate(clf, x_train, y_train)}
    inputs = [args.train_features, args.train_labels]
    if args.test_features:
        x_test, y_test = _load_features_labels(args.test_features,
                                               args.test_labels, args.labels_col)
        if y_test is None:
            raise ValueError("test labels required with --test-features")
        report["test_error"] = error_rate(clf, x_test, y_test)
        inputs += [args.test_features, args.test_labels]
    out = _prepare_out(args.out)
    report_path = out / "report.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                           encoding="ascii")
    _write_manifest(out, "classify", {}, inputs=[p for p in inputs if p],
                    outputs=[report_path])
    for key, value in report.items():
        print(f"{key.replace('_', ' ')}: {value * 100:.2f}%")
    return 0


def cmd_preimage(args) -> int:
    model = load_model(args.model)
    if not isinstance(model, KpcaModel):
        raise ValueError(f"{args.model}: pre-images need a gaussian kernel-PCA model")
    cfg = PreimageConfig(max_iterations=args.max_iter, tolerance=args.tol)
    ys = read_csv_matrix(args.input)
    try:
        z, iterations, status = kpca_preimages(model, ys, cfg)
    except ValueError as exc:  # a kernel kind is the model's fault, a row the input's
        path = args.model if isinstance(exc, UnsupportedKernelError) else args.input
        raise ValueError(f"{path}: {exc}") from None
    z[status == "diverged"] = np.nan
    rows_report = [{"row": i, "status": s, "iterations": n} for i, (s, n)
                   in enumerate(zip(status.tolist(), iterations.tolist()))]
    failed = np.flatnonzero(status != "converged").tolist()
    out = _prepare_out(args.out)
    preimages_path = out / "preimages.csv"
    report_path = out / "report.json"
    write_csv_matrix(z, preimages_path)
    report_path.write_text(json.dumps(rows_report, indent=2) + "\n",
                           encoding="ascii")
    _write_manifest(
        out, "preimage",
        {"max_iter": args.max_iter, "tol": args.tol},
        inputs=[args.model, args.input],
        outputs=[preimages_path, report_path],
    )
    tally = ", ".join(f"{n} {s}" for s, n in zip(*np.unique(status, return_counts=True)))
    print(f"wrote {preimages_path} ({z.shape[0]} x {z.shape[1]}): {tally}")
    if failed:
        print(f"error: rows did not converge: {failed}", file=sys.stderr)
        return 1
    return 0


def cmd_asm_sweep(args) -> int:
    pts_files = sorted(Path(args.pts_dir).glob("*.pts"))
    if len(pts_files) < 2:
        raise ValueError(f"need at least 2 PTS files in {args.pts_dir}")
    try:
        x = normalize_shapes([read_pts(path) for path in pts_files])
    except ShapeError as exc:
        raise ValueError(f"{pts_files[exc.index]}: {exc}") from None
    roles = read_role_map(args.role_map) if args.role_map else BIOID_20_ROLES
    try:
        check_roles(roles, x.shape[1] // 2)
    except RoleMapError as exc:
        raise RoleMapError(f"{args.role_map or 'built-in BioID role map'}: {exc}") from None
    params = {"method": args.method, "feature": args.feature,
              "steps": args.steps, "m": args.m}
    if args.method == "pca":
        model = fit_shape_model(x, min(args.m, *x.shape))
        swept = sweep_pca_feature(model, args.feature, args.steps)
    else:
        cfg = PreimageConfig(max_iterations=args.max_iter, tolerance=args.tol)
        sigma = _parse_sigma(args.sigma, x)
        kmodel = fit_kpca(x, KernelSpec.gaussian(sigma), min(args.m, x.shape[0]))
        swept = sweep_kpca_feature(kmodel, args.feature, args.c, args.steps, cfg)
        params.update(c=args.c, sigma=sigma, max_iter=args.max_iter, tol=args.tol)
    out = _prepare_out(args.out)
    outputs = []
    for step, shape in enumerate(swept, start=1):
        svg_path = out / f"step_{step:02d}.svg"
        svg_path.write_text(render_face_svg(shape, roles), encoding="ascii")
        outputs.append(svg_path)
    shapes_path = out / "shapes.csv"
    write_csv_matrix(swept, shapes_path)
    outputs.append(shapes_path)
    _write_manifest(
        out, "asm-sweep", params,
        inputs=[str(p) for p in pts_files],
        outputs=outputs,
    )
    print(f"wrote {len(swept)} step SVGs and {shapes_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kpca-lab",
        description="Kernel PCA toolkit: embeddings, pre-images, and shape models.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # Flags shared by several subcommands, each defined once.
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", required=True, help="output directory")
    sigma = argparse.ArgumentParser(add_help=False)
    sigma.add_argument("--sigma", default="auto",
                       help="gaussian width, or 'auto' for 5x mean NN distance")
    labels_col = argparse.ArgumentParser(add_help=False)
    labels_col.add_argument("--labels-col", type=int,
                            help="take labels from this column of the feature CSVs")
    fixed_point = argparse.ArgumentParser(add_help=False)
    fixed_point.add_argument("--max-iter", type=int, default=PreimageConfig.max_iterations)
    fixed_point.add_argument("--tol", type=float, default=PreimageConfig.tolerance)

    p = sub.add_parser("gen-spheres", parents=[out],
                       help="generate the two-concentric-spheres dataset")
    p.add_argument("--n", type=int, default=SpheresParams.n, help="total points (even)")
    p.add_argument("--r1", type=float, default=SpheresParams.r1, help="class +1 radius")
    p.add_argument("--r2", type=float, default=SpheresParams.r2, help="class -1 radius")
    p.add_argument("--noise", type=float, default=SpheresParams.noise,
                   help="coordinate noise standard deviation")
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_gen_spheres)

    p = sub.add_parser("embed", parents=[sigma, labels_col, out],
                       help="fit PCA or kernel PCA and transform data")
    p.add_argument("--method", choices=("pca", "kpca"), required=True)
    p.add_argument("--kernel", choices=("linear", "poly", "gaussian"),
                   default="gaussian")
    p.add_argument("--degree", type=int, default=5, help="poly kernel degree")
    p.add_argument("--offset", type=float, default=0.0, help="poly kernel offset")
    p.add_argument("--components", type=int, default=2)
    p.add_argument("--input", required=True, help="features CSV")
    p.add_argument("--labels", help="labels CSV (colors the scatter plot)")
    p.add_argument("--save-model", help="also write the fitted model container")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("classify", parents=[labels_col, out],
                       help="least-squares linear classifier error rates")
    p.add_argument("--train-features", required=True)
    p.add_argument("--train-labels")
    p.add_argument("--test-features")
    p.add_argument("--test-labels")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("preimage", parents=[fixed_point, out],
                       help="gaussian pre-images for rows of a feature CSV")
    p.add_argument("--model", required=True, help="kernel-PCA model container")
    p.add_argument("--input", required=True, help="feature rows CSV")
    p.set_defaults(func=cmd_preimage)

    p = sub.add_parser("asm-sweep", parents=[sigma, fixed_point, out],
                       help="sweep one shape-model feature and render faces")
    p.add_argument("--pts-dir", required=True, help="directory of .pts files")
    p.add_argument("--method", choices=("pca", "kpca"), required=True)
    p.add_argument("--feature", type=int, default=1, help="1-based feature index")
    p.add_argument("--steps", type=int, default=SWEEP_STEPS)
    p.add_argument("--c", type=float, default=KPCA_SWEEP_C,
                   help="kpca sweep half-range in training std deviations")
    p.add_argument("--m", type=int, default=SWEEP_COMPONENTS, help="retained components")
    p.add_argument("--role-map", help="landmark role map file")
    p.set_defaults(func=cmd_asm_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
