"""The experiment scripts, run as a user runs them."""
import json
import re
import subprocess
import sys
from pathlib import Path

from kpca_lab.kernels import KernelSpec
from kpca_lab.kpca import fit_kpca, select_sigma
from kpca_lab.shapes import (
    BIOID_20_ROLES,
    KPCA_SWEEP_C,
    SWEEP_COMPONENTS,
    SWEEP_STEPS,
    fit_shape_model,
    normalize_shapes,
    read_pts,
    render_face_svg,
    sweep_kpca_feature,
    sweep_pca_feature,
)

ROOT = Path(__file__).resolve().parent.parent
CORPUS_DIR = ROOT / "data" / "landmarks"


def run_script(name, *args):
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def percent(text, pattern):
    match = re.search(pattern + r"\s*([0-9.]+)%", text)
    assert match, text
    return float(match.group(1))


def test_asm_sweeps_script_renders_the_library_sweeps(tmp_path):
    out = run_script("run_asm_sweeps.py", "--features", "1", "--out", str(tmp_path))
    assert "feature 1: max landmark displacement between methods" in out

    # The library's fit -> sweep -> render path: the strips the script gets
    # through the CLI must not drift from it.
    x = normalize_shapes([read_pts(p) for p in sorted(CORPUS_DIR.glob("*.pts"))])
    kpm = fit_kpca(x, KernelSpec.gaussian(select_sigma(x)), SWEEP_COMPONENTS)
    expected = {
        "pca": sweep_pca_feature(fit_shape_model(x, SWEEP_COMPONENTS), 1, SWEEP_STEPS),
        "kpca": sweep_kpca_feature(kpm, 1, KPCA_SWEEP_C, SWEEP_STEPS),
    }
    steps = [f"step_{i:02d}.svg" for i in range(1, SWEEP_STEPS + 1)]
    for method, shapes in expected.items():
        strip = tmp_path / f"{method}_feature_1"
        assert sorted(p.name for p in strip.iterdir()) == \
            ["manifest.json", "shapes.csv"] + steps
        for name, shape in zip(steps, shapes):
            assert (strip / name).read_text() == render_face_svg(shape, BIOID_20_ROLES)
        manifest = json.loads((strip / "manifest.json").read_text())
        assert manifest["subcommand"] == "asm-sweep"
        assert manifest["parameters"]["method"] == method


def test_spheres_experiment_separates_the_shells():
    # The paper's first experiment: two gaussian kernel features separate
    # the shells, which linear PCA, a rotation of the input, cannot.
    out = run_script("run_spheres_experiment.py", "--n", "400")
    assert percent(out, r"kpca  \(2 features\): train error") == 0.0
    assert percent(out, r"pca   \(2 features\): train error") >= 40.0


def test_highdim_experiment_kernel_beats_dual_pca():
    # Classes that differ only in scale: the kernel features classify the
    # pooled test points better than the dual PCA's.
    out = run_script("run_highdim_experiment.py", "--seeds", "2")
    assert percent(out, r"pooled over 80 test points: pca") > percent(out, r"%, kpca")
