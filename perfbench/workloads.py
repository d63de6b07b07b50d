"""The three benchmark workloads: inputs from a seed, one timed pass, fingerprints.

Every call into the package goes through the module attribute
(``kpca.fit_kpca``, ``cli.main``) so that the tracer's wrappers, installed
on those attributes, see it.

* ``tall-fit``: two-spheres, N=3000, D=3, gaussian kernel with the automatic
  width, M=2, plus the linear PCA baseline, as in
  ``scripts/run_spheres_experiment.py``.  The N x N eigensolve dominates.
* ``wide-fit``: overlapping blobs built like
  ``scripts/run_highdim_experiment.py`` (3 active axes, the rest ambient
  noise), 800 train and 400 test rows, D=1200, M=9.  Dual PCA and the
  O(N^2 D) distance loops of the kernel build and width selection dominate.
* ``cli-quickstart``: the README CLI chain run in-process through
  ``kpca_lab.cli.main``.  The gaussian pre-image loop dominates.  Its work
  depends on the data (pre-image iteration counts differ by up to half
  between seeds), so a run cycles through ``CLI_DATASETS`` data seeds
  ``seed + i * 100003`` and its median covers all of them; dataset 0 uses
  ``seed`` itself, so ``--seed 42`` reproduces the README quick start.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from kpca_lab import classify, cli, data, kernels, kpca, model_io, pca

clock = time.perf_counter


@dataclass
class PassResult:
    """Times of one pass in seconds, its operation counts, and its fingerprint."""

    wall: float
    fit: float
    transform: float | None = None
    preimage: float | None = None
    preimage_rows: int = 0
    attempted: int = 1
    failed: int = 0
    fingerprint: dict = field(default_factory=dict)
    # Arrays the correctness checks need; dropped after the checks ran.
    outputs: dict = field(default_factory=dict)


# ---------------------------------------------------------------- tall-fit

TALL_N = 3000
TALL_M = 2


def tall_inputs(seed: int, root: Path):
    return data.gen_two_spheres(data.SpheresParams(n=TALL_N, seed=seed))


def tall_pass(ds, index: int, root: Path, work: Path) -> PassResult:
    x, y = ds.features, ds.labels
    t0 = clock()
    sigma = kpca.select_sigma(x)
    model = kpca.fit_kpca(x, kernels.KernelSpec.gaussian(sigma), TALL_M)
    t1 = clock()
    feats = kpca.kpca_transform(model, x)
    t2 = clock()
    kerr = classify.error_rate(classify.fit_linear(feats, y), feats, y)
    pmodel = pca.fit_pca(x, TALL_M)
    pfeats = pca.pca_project(pmodel, x)
    perr = classify.error_rate(classify.fit_linear(pfeats, y), pfeats, y)
    t3 = clock()
    fp = {"sigma": sigma,
          "kpca_eigenvalues": model.eigenvalues.tolist(),
          "pca_eigenvalues": pmodel.eigenvalues.tolist(),
          "kpca_train_error": kerr,
          "pca_train_error": perr}
    return PassResult(wall=t3 - t0, fit=t1 - t0, transform=t2 - t1,
                      fingerprint=fp,
                      outputs={"x": x, "y": y, "kfeats": feats, "pfeats": pfeats})


# ---------------------------------------------------------------- wide-fit

WIDE_TRAIN = 800
WIDE_TEST = 400
WIDE_ACTIVE = 3
WIDE_DIMS = 1200
WIDE_M = 9
TIGHT_SCALE = 2.0
WIDE_SCALE = 8.0
AMBIENT_SCALE = 0.05


def wide_inputs(seed: int, root: Path):
    """Train and test blobs; classes differ only in scale on 3 active axes."""
    rng = np.random.default_rng(seed)
    ambient = WIDE_DIMS - WIDE_ACTIVE

    def draw(half):
        plus = np.hstack([TIGHT_SCALE * rng.standard_normal((half, WIDE_ACTIVE)),
                          AMBIENT_SCALE * rng.standard_normal((half, ambient))])
        minus = np.hstack([WIDE_SCALE * rng.standard_normal((half, WIDE_ACTIVE)),
                           AMBIENT_SCALE * rng.standard_normal((half, ambient))])
        return np.vstack([plus, minus]), np.concatenate([np.ones(half), -np.ones(half)])

    return draw(WIDE_TRAIN // 2), draw(WIDE_TEST // 2)


def wide_pass(inputs, index: int, root: Path, work: Path) -> PassResult:
    (x, y), (xt, yt) = inputs
    t0 = clock()
    pmodel = pca.fit_pca_dual(x, WIDE_M)
    pclf = classify.fit_linear(pca.pca_project(pmodel, x), y)
    pca_train = classify.error_rate(pclf, pca.pca_project(pmodel, x), y)
    pca_test = classify.error_rate(pclf, pca.pca_project(pmodel, xt), yt)
    t1 = clock()
    sigma = kpca.select_sigma(x)
    model = kpca.fit_kpca(x, kernels.KernelSpec.gaussian(sigma), WIDE_M)
    t2 = clock()
    feats = kpca.kpca_transform(model, x)
    tfeats = kpca.kpca_transform(model, xt)
    t3 = clock()
    kclf = classify.fit_linear(feats, y)
    kpca_train = classify.error_rate(kclf, feats, y)
    kpca_test = classify.error_rate(kclf, tfeats, yt)
    t4 = clock()
    fp = {"sigma": sigma,
          "kpca_eigenvalues": model.eigenvalues.tolist(),
          "pca_eigenvalues": pmodel.eigenvalues.tolist(),
          "kpca_train_error": kpca_train, "kpca_test_error": kpca_test,
          "pca_train_error": pca_train, "pca_test_error": pca_test}
    return PassResult(wall=t4 - t0, fit=t2 - t1, transform=t3 - t2,
                      fingerprint=fp,
                      outputs={"x": x, "y": y, "xt": xt, "yt": yt,
                               "kfeats": feats, "kfeats_test": tfeats})


# ---------------------------------------------------------- cli-quickstart

CLI_N = 1000
CLI_SEED_STRIDE = 100003
# Distinct datasets per run; every run covers all of them.
CLI_DATASETS = 10
PREIMAGE_STATUSES = ("converged", "diverged", "max-iterations")


def cli_inputs(seed: int, root: Path):
    """The chain generates its own data; the inputs are its data seeds."""
    return seed


def cli_data_seed(seed: int, index: int) -> int:
    return seed + index * CLI_SEED_STRIDE


def cli_steps(data_seed: int, root: Path, work: Path) -> list[tuple[str, list[str]]]:
    w = str(work)
    pts = str(root / "data" / "landmarks")
    return [
        ("gen-spheres", ["gen-spheres", "--n", str(CLI_N), "--seed", str(data_seed),
                         "--out", f"{w}/spheres"]),
        ("embed", ["embed", "--method", "kpca", "--kernel", "gaussian",
                   "--sigma", "auto", "--components", "2",
                   "--input", f"{w}/spheres/features.csv",
                   "--labels", f"{w}/spheres/labels.csv",
                   "--save-model", f"{w}/model.kpml", "--out", f"{w}/embed"]),
        ("classify", ["classify", "--train-features", f"{w}/embed/features.csv",
                      "--train-labels", f"{w}/spheres/labels.csv",
                      "--out", f"{w}/clf"]),
        ("preimage", ["preimage", "--model", f"{w}/model.kpml",
                      "--input", f"{w}/embed/features.csv", "--out", f"{w}/pre"]),
        ("sweep-kpca", ["asm-sweep", "--pts-dir", pts, "--method", "kpca",
                        "--feature", "1", "--out", f"{w}/sweep_kpca"]),
        ("sweep-pca", ["asm-sweep", "--pts-dir", pts, "--method", "pca",
                       "--out", f"{w}/sweep_pca"]),
    ]


SWEEP_STEPS = ("sweep-kpca", "sweep-pca")


def _checksum(m: np.ndarray) -> float:
    return float(np.abs(m).sum())


def cli_pass(seed: int, index: int, root: Path, work: Path) -> PassResult:
    data_seed = cli_data_seed(seed, index)
    times: dict[str, float] = {}
    codes: dict[str, int] = {}
    sink = io.StringIO()
    for step, argv in cli_steps(data_seed, root, work):
        sink.seek(0)
        sink.truncate()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t = clock()
            codes[step] = cli.main(argv)
            times[step] = clock() - t
    for step, code in codes.items():
        if code != 0 and step != "preimage" and step not in SWEEP_STEPS:
            raise RuntimeError(f"cli step {step} exited {code} at data seed {data_seed}")
    return PassResult(wall=sum(times.values()), fit=times["embed"],
                      preimage=times["preimage"],
                      fingerprint={"data_seed": data_seed}, outputs={"codes": codes})


def _read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def cli_collect(res: PassResult, work: Path) -> None:
    """Read the chain's output files into the pass fingerprint and outputs."""
    codes = res.outputs["codes"]
    rows = json.loads((work / "pre" / "report.json").read_text())
    status = {s: sum(r["status"] == s for r in rows) for s in PREIMAGE_STATUSES}
    z = _read_csv(work / "pre" / "preimages.csv")
    converged = np.array([r["status"] == "converged" for r in rows])
    model = model_io.load_model(work / "model.kpml")
    sweeps_failed = [s for s in SWEEP_STEPS if codes[s] != 0]
    fp = res.fingerprint
    fp.update({
        "sigma": json.loads((work / "embed" / "manifest.json").read_text())
        ["parameters"]["sigma"],
        "kpca_eigenvalues": model.eigenvalues.tolist(),
        "train_error": json.loads((work / "clf" / "report.json").read_text())
        ["train_error"],
        "preimage_status": status,
        "preimage_exit": codes["preimage"],
        "converged_checksum": _checksum(z[converged]),
        "sweeps_failed": sweeps_failed,
    })
    for step in SWEEP_STEPS:
        if step not in sweeps_failed:
            shapes = _read_csv(work / step.replace("-", "_") / "shapes.csv")
            fp[f"{step}_shape"] = list(shapes.shape)
            fp[f"{step}_checksum"] = _checksum(shapes)
    res.preimage_rows = len(rows)
    res.attempted = len(rows) + len(SWEEP_STEPS)
    res.failed = status["diverged"] + status["max-iterations"] + len(sweeps_failed)
    res.outputs = {"x": _read_csv(work / "spheres" / "features.csv"),
                   "y": _read_csv(work / "spheres" / "labels.csv").ravel(),
                   "kfeats": _read_csv(work / "embed" / "features.csv"),
                   "z": z, "converged": converged,
                   "coefficients": model.coefficients, "training": model.training,
                   "width": model.spec.width}


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: object
    run_pass: object
    # Reads a pass's output files, untimed and untraced; None when the pass
    # returns its fingerprint itself.
    collect: object
    # Number of distinct datasets a run cycles through: pass i runs dataset
    # i % datasets, and its fingerprint must equal that of the dataset's
    # first pass.
    datasets: int


WORKLOADS = {
    "tall-fit": Workload("tall-fit", tall_inputs, tall_pass, None, 1),
    "wide-fit": Workload("wide-fit", wide_inputs, wide_pass, None, 1),
    "cli-quickstart": Workload("cli-quickstart", cli_inputs, cli_pass, cli_collect,
                               CLI_DATASETS),
}
