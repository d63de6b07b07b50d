import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kpca_lab import __version__
from kpca_lab.cli import build_parser, main
from kpca_lab.data import SpheresParams, read_csv_matrix, write_csv_matrix
from kpca_lab.kpca import PreimageConfig, select_sigma
from kpca_lab import shapes
from kpca_lab.shapes import BIOID_20_ROLES, fit_shape_model, normalize_shapes, read_pts, render_face_svg

CORPUS_DIR = str(Path(__file__).resolve().parent.parent / "data" / "landmarks")
README = Path(__file__).resolve().parent.parent / "README.md"


def gen_spheres(tmp_path, n=80, seed=5):
    out = tmp_path / "spheres"
    assert main(["gen-spheres", "--n", str(n), "--seed", str(seed),
                 "--out", str(out)]) == 0
    return out


def test_version_flag_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "kpca_lab", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert __version__ in proc.stdout


def test_gen_spheres_outputs(tmp_path):
    out = gen_spheres(tmp_path, n=10)
    features = read_csv_matrix(out / "features.csv")
    labels = read_csv_matrix(out / "labels.csv")
    assert features.shape == (10, 3)
    assert labels.shape == (10, 1)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "gen-spheres"
    assert manifest["seed"] == 5
    assert manifest["toolkit_version"] == __version__
    assert manifest["parameters"]["n"] == 10


def test_gen_spheres_deterministic(tmp_path):
    a = gen_spheres(tmp_path / "a", n=20, seed=9)
    b = gen_spheres(tmp_path / "b", n=20, seed=9)
    assert (a / "features.csv").read_bytes() == (b / "features.csv").read_bytes()
    assert (a / "labels.csv").read_bytes() == (b / "labels.csv").read_bytes()


def test_gen_spheres_odd_n_fails(tmp_path, capsys):
    status = main(["gen-spheres", "--n", "7", "--seed", "1",
                   "--out", str(tmp_path / "x")])
    assert status == 1
    assert "error:" in capsys.readouterr().err


def test_embed_pca(tmp_path):
    data = gen_spheres(tmp_path)
    out = tmp_path / "embed"
    assert main(["embed", "--method", "pca", "--components", "2",
                 "--input", str(data / "features.csv"),
                 "--labels", str(data / "labels.csv"),
                 "--out", str(out)]) == 0
    features = read_csv_matrix(out / "features.csv")
    assert features.shape == (80, 2)
    svg = (out / "scatter.svg").read_text()
    assert svg.count("<circle") == 80
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["parameters"]["method"] == "pca"


def test_embed_kpca_auto_sigma_recorded(tmp_path):
    data = gen_spheres(tmp_path)
    out = tmp_path / "embed"
    model_path = tmp_path / "model.kpml"
    assert main(["embed", "--method", "kpca", "--kernel", "gaussian",
                 "--sigma", "auto", "--components", "2",
                 "--input", str(data / "features.csv"),
                 "--save-model", str(model_path),
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    x = read_csv_matrix(data / "features.csv")
    assert manifest["parameters"]["sigma"] == pytest.approx(select_sigma(x))
    assert model_path.exists()


def test_embed_poly_kernel(tmp_path):
    data = gen_spheres(tmp_path)
    out = tmp_path / "embed"
    assert main(["embed", "--method", "kpca", "--kernel", "poly",
                 "--degree", "5", "--components", "2",
                 "--input", str(data / "features.csv"),
                 "--out", str(out)]) == 0
    assert read_csv_matrix(out / "features.csv").shape == (80, 2)


def test_embed_labels_col(tmp_path):
    data = gen_spheres(tmp_path, n=20)
    x = read_csv_matrix(data / "features.csv")
    labels = read_csv_matrix(data / "labels.csv")
    merged = tmp_path / "merged.csv"
    write_csv_matrix(np.hstack([x, labels]), merged)
    out = tmp_path / "embed"
    assert main(["embed", "--method", "pca", "--components", "2",
                 "--input", str(merged), "--labels-col", "-1",
                 "--out", str(out)]) == 0
    assert read_csv_matrix(out / "features.csv").shape == (20, 2)


def test_embed_deterministic(tmp_path):
    data = gen_spheres(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["embed", "--method", "kpca", "--kernel", "gaussian",
                     "--components", "2",
                     "--input", str(data / "features.csv"),
                     "--out", str(out)]) == 0
    assert (out_a / "features.csv").read_bytes() == (out_b / "features.csv").read_bytes()


def test_embed_missing_input(tmp_path, capsys):
    status = main(["embed", "--method", "pca",
                   "--input", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "out")])
    assert status == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cell", ["nan", "inf"])
@pytest.mark.parametrize("sigma", ["auto", "1"])
def test_embed_rejects_non_finite_cells(tmp_path, capsys, cell, sigma):
    data = gen_spheres(tmp_path, n=20)
    rows = (data / "features.csv").read_text().splitlines()
    rows[3] = ",".join([cell] + rows[3].split(",")[1:])
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(rows) + "\n")
    out = tmp_path / "out"
    assert main(["embed", "--method", "kpca", "--sigma", sigma,
                 "--input", str(bad), "--out", str(out)]) == 1
    assert "error: data matrix contains non-finite entries" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_classify_identical_train_test(tmp_path):
    data = gen_spheres(tmp_path, n=40)
    embed_out = tmp_path / "embed"
    assert main(["embed", "--method", "kpca", "--components", "2",
                 "--input", str(data / "features.csv"),
                 "--out", str(embed_out)]) == 0
    out = tmp_path / "clf"
    assert main(["classify",
                 "--train-features", str(embed_out / "features.csv"),
                 "--train-labels", str(data / "labels.csv"),
                 "--test-features", str(embed_out / "features.csv"),
                 "--test-labels", str(data / "labels.csv"),
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["train_error"] == report["test_error"]


def test_classify_spheres_kpca_features_separable(tmp_path):
    data = gen_spheres(tmp_path, n=200, seed=11)
    embed_out = tmp_path / "embed"
    assert main(["embed", "--method", "kpca", "--kernel", "gaussian",
                 "--components", "2",
                 "--input", str(data / "features.csv"),
                 "--out", str(embed_out)]) == 0
    out = tmp_path / "clf"
    assert main(["classify",
                 "--train-features", str(embed_out / "features.csv"),
                 "--train-labels", str(data / "labels.csv"),
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["train_error"] <= 0.01


def test_classify_requires_labels(tmp_path, capsys):
    data = gen_spheres(tmp_path, n=20)
    status = main(["classify",
                   "--train-features", str(data / "features.csv"),
                   "--out", str(tmp_path / "out")])
    assert status == 1
    assert "labels" in capsys.readouterr().err


def test_preimage_round_trip(tmp_path):
    data = gen_spheres(tmp_path, n=40, seed=13)
    embed_out = tmp_path / "embed"
    model_path = tmp_path / "model.kpml"
    assert main(["embed", "--method", "kpca", "--kernel", "gaussian",
                 "--components", "40",
                 "--input", str(data / "features.csv"),
                 "--save-model", str(model_path),
                 "--out", str(embed_out)]) == 0
    out = tmp_path / "pre"
    assert main(["preimage", "--model", str(model_path),
                 "--input", str(embed_out / "features.csv"),
                 "--out", str(out)]) == 0
    originals = read_csv_matrix(data / "features.csv")
    rebuilt = read_csv_matrix(out / "preimages.csv")
    distances = np.linalg.norm(rebuilt - originals, axis=1)
    assert distances.max() <= 1e-3
    report = json.loads((out / "report.json").read_text())
    assert all(entry["status"] == "converged" for entry in report)


def test_preimage_iteration_budget_nonzero_exit(tmp_path, capsys):
    data = gen_spheres(tmp_path, n=20, seed=14)
    embed_out = tmp_path / "embed"
    model_path = tmp_path / "model.kpml"
    assert main(["embed", "--method", "kpca", "--kernel", "gaussian",
                 "--components", "5",
                 "--input", str(data / "features.csv"),
                 "--save-model", str(model_path),
                 "--out", str(embed_out)]) == 0
    out = tmp_path / "pre"
    status = main(["preimage", "--model", str(model_path),
                   "--input", str(embed_out / "features.csv"),
                   "--max-iter", "1", "--out", str(out)])
    assert status == 1
    report = json.loads((out / "report.json").read_text())
    assert all(entry["status"] == "max-iterations" for entry in report)
    assert "did not converge" in capsys.readouterr().err


def test_preimage_midpoint_of_symmetric_pair(tmp_path):
    train = tmp_path / "train.csv"
    write_csv_matrix(np.array([[0.0], [1.0]]), train)
    embed_out = tmp_path / "embed"
    model_path = tmp_path / "model.kpml"
    assert main(["embed", "--method", "kpca", "--kernel", "gaussian",
                 "--sigma", "0.1", "--components", "1",
                 "--input", str(train),
                 "--save-model", str(model_path),
                 "--out", str(embed_out)]) == 0
    target = tmp_path / "zero.csv"
    write_csv_matrix(np.array([[0.0]]), target)
    out = tmp_path / "pre"
    assert main(["preimage", "--model", str(model_path),
                 "--input", str(target), "--out", str(out)]) == 0
    z = read_csv_matrix(out / "preimages.csv")
    assert z[0, 0] == pytest.approx(0.5, abs=1e-9)


def test_preimage_rejects_pca_model(tmp_path, capsys):
    data = gen_spheres(tmp_path, n=20)
    embed_out = tmp_path / "embed"
    model_path = tmp_path / "model.kpml"
    assert main(["embed", "--method", "pca", "--components", "2",
                 "--input", str(data / "features.csv"),
                 "--save-model", str(model_path),
                 "--out", str(embed_out)]) == 0
    status = main(["preimage", "--model", str(model_path),
                   "--input", str(embed_out / "features.csv"),
                   "--out", str(tmp_path / "pre")])
    assert status == 1
    assert "gaussian" in capsys.readouterr().err


def test_asm_sweep_pca(tmp_path):
    out = tmp_path / "sweep"
    assert main(["asm-sweep", "--pts-dir", CORPUS_DIR, "--method", "pca",
                 "--feature", "1", "--steps", "5", "--out", str(out)]) == 0
    svgs = sorted(out.glob("step_*.svg"))
    assert len(svgs) == 5
    shapes_csv = read_csv_matrix(out / "shapes.csv")
    assert shapes_csv.shape == (5, 40)
    # the middle step of an odd sweep renders the mean face
    normalized = normalize_shapes(
        [read_pts(p) for p in sorted(Path(CORPUS_DIR).glob("*.pts"))])
    model = fit_shape_model(normalized, 10)
    expected = render_face_svg(model.mean, BIOID_20_ROLES)
    assert svgs[2].read_text() == expected


def test_asm_sweep_two_steps(tmp_path):
    out = tmp_path / "sweep"
    assert main(["asm-sweep", "--pts-dir", CORPUS_DIR, "--method", "pca",
                 "--steps", "2", "--out", str(out)]) == 0
    assert len(sorted(out.glob("step_*.svg"))) == 2


def test_asm_sweep_kpca_differs_from_pca(tmp_path):
    pca_out = tmp_path / "pca"
    kpca_out = tmp_path / "kpca"
    assert main(["asm-sweep", "--pts-dir", CORPUS_DIR, "--method", "pca",
                 "--steps", "5", "--out", str(pca_out)]) == 0
    assert main(["asm-sweep", "--pts-dir", CORPUS_DIR, "--method", "kpca",
                 "--c", "500", "--steps", "5", "--out", str(kpca_out)]) == 0
    pca_shapes = read_csv_matrix(pca_out / "shapes.csv")
    kpca_shapes = read_csv_matrix(kpca_out / "shapes.csv")
    assert np.abs(pca_shapes - kpca_shapes).max() > 1e-3
    manifest = json.loads((kpca_out / "manifest.json").read_text())
    assert manifest["parameters"]["sigma"] > 0.0


def test_asm_sweep_kpca_unconverged_step_fails(tmp_path, capsys):
    out = tmp_path / "sweep"
    status = main(["asm-sweep", "--pts-dir", CORPUS_DIR, "--method", "kpca",
                   "--max-iter", "1", "--out", str(out)])
    assert status == 1
    assert "sweep step 1 of 5: max-iterations" in capsys.readouterr().err
    assert not list(out.glob("step_*.svg"))


def test_asm_sweep_role_map_file(tmp_path):
    roles = tmp_path / "roles.txt"
    roles.write_text("\n".join([
        "right_eyebrow = 4,5", "left_eyebrow = 6,7", "right_eye = 9,10",
        "left_eye = 11,12", "eyeballs = 0,1", "nose = 15,14,16",
        "mouth = 2,17,3,18", "contour = 8,19,13",
    ]) + "\n")
    out = tmp_path / "sweep"
    assert main(["asm-sweep", "--pts-dir", CORPUS_DIR, "--method", "pca",
                 "--steps", "3", "--role-map", str(roles),
                 "--out", str(out)]) == 0
    assert len(sorted(out.glob("step_*.svg"))) == 3


def test_asm_sweep_needs_pts_files(tmp_path, capsys):
    status = main(["asm-sweep", "--pts-dir", str(tmp_path), "--method", "pca",
                   "--out", str(tmp_path / "out")])
    assert status == 1
    assert "PTS" in capsys.readouterr().err


def test_preimage_infinite_tolerance_fails(tmp_path, capsys):
    data = gen_spheres(tmp_path, n=20)
    embed_out = tmp_path / "embed"
    model_path = tmp_path / "model.kpml"
    assert main(["embed", "--method", "kpca", "--components", "2",
                 "--input", str(data / "features.csv"),
                 "--save-model", str(model_path),
                 "--out", str(embed_out)]) == 0
    out = tmp_path / "pre"
    status = main(["preimage", "--model", str(model_path),
                   "--input", str(embed_out / "features.csv"),
                   "--tol", "inf", "--out", str(out)])
    assert status == 1
    assert "tolerance must be finite and > 0, got inf" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["gen-spheres", "--seed", "1", "--r1", "inf"],
     "radii must be finite and > 0: r1=inf"),
    (["embed", "--method", "kpca", "--sigma", "inf"],
     "gaussian width must be finite"),
    (["embed", "--method", "kpca", "--sigma", "abc"],
     "--sigma must be 'auto' or a number"),
    (["embed", "--method", "kpca", "--kernel", "poly", "--offset", "inf"],
     "polynomial offset must be finite"),
    (["asm-sweep", "--method", "kpca", "--tol", "inf"], "tolerance must be finite"),
    (["asm-sweep", "--method", "kpca", "--c", "inf"], "c must be finite"),
    (["asm-sweep", "--method", "kpca", "--sigma", "abc"],
     "--sigma must be 'auto' or a number"),
])
def test_bad_parameter_values_name_the_parameter(tmp_path, capsys, argv, message):
    if argv[0] == "embed":
        argv = argv + ["--input", str(gen_spheres(tmp_path, n=20) / "features.csv")]
    if argv[0] == "asm-sweep":
        argv = argv + ["--pts-dir", CORPUS_DIR]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_input_errors_name_the_file(tmp_path, capsys):
    data = gen_spheres(tmp_path, n=20)
    labels = tmp_path / "labels.csv"
    labels.write_text("1\n-1\nx\n")
    assert main(["classify", "--train-features", str(data / "features.csv"),
                 "--train-labels", str(labels), "--out", str(tmp_path / "clf")]) == 1
    assert f"error: {labels}: line 3: non-numeric cell" in capsys.readouterr().err

    labels.write_bytes(b"\xff1\n-1\n")
    assert main(["classify", "--train-features", str(data / "features.csv"),
                 "--train-labels", str(labels), "--out", str(tmp_path / "clf")]) == 1
    assert f"error: {labels}: 'ascii' codec can't decode byte 0xff" in capsys.readouterr().err

    model_path = tmp_path / "model.kpml"
    model_path.write_bytes(b"KPML")
    assert main(["preimage", "--model", str(model_path),
                 "--input", str(data / "features.csv"),
                 "--out", str(tmp_path / "pre")]) == 1
    assert f"error: {model_path}: file shorter than header" in capsys.readouterr().err

    pts_dir = tmp_path / "pts"
    pts_dir.mkdir()
    (pts_dir / "a.pts").write_text("version: 1\nn_points: 3\n{\n0 0\n1 0\n0 1\n}\n")
    bad = pts_dir / "b.pts"
    bad.write_text("version: 1\nn_points: 3\n{\n0 0\n1 0 9\n0 1\n}\n")
    assert main(["asm-sweep", "--pts-dir", str(pts_dir), "--method", "pca",
                 "--out", str(tmp_path / "sweep")]) == 1
    err = capsys.readouterr().err
    assert f"error: {bad}: bad point line" in err
    assert err.count(str(bad)) == 1

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for path in sorted(Path(CORPUS_DIR).glob("face_0[0-4].pts")):
        (corpus / path.name).write_text(path.read_text())
    short = corpus / "face_02.pts"
    short.write_text("version: 1\nn_points: 3\n{\n0 0\n1 0\n0 1\n}\n")
    assert main(["asm-sweep", "--pts-dir", str(corpus), "--method", "pca",
                 "--out", str(tmp_path / "sweep")]) == 1
    assert f"error: {short}: shape 2 has 3 points, expected 20" in capsys.readouterr().err


@pytest.mark.parametrize("argv, unused", [
    (["asm-sweep", "--method", "pca", "--c", "inf", "--tol", "inf"],
     {"c", "sigma", "max_iter", "tol"}),
    (["embed", "--method", "kpca", "--offset", "inf"], {"degree", "offset"}),
])
def test_manifest_leaves_out_unused_parameters(tmp_path, argv, unused):
    if argv[0] == "embed":
        argv = argv + ["--input", str(gen_spheres(tmp_path, n=20) / "features.csv")]
    if argv[0] == "asm-sweep":
        argv = argv + ["--pts-dir", CORPUS_DIR]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    text = (out / "manifest.json").read_text()
    parameters = json.loads(text, parse_constant=lambda c: pytest.fail(c))["parameters"]
    assert not unused & parameters.keys()
    assert parameters["method"] == argv[2]


def test_unknown_subcommand_usage_error():
    with pytest.raises(SystemExit) as exc_info:
        main(["frobnicate"])
    assert exc_info.value.code == 2


def parsed(argv):
    namespace = vars(build_parser().parse_args(argv))
    namespace["func"] = namespace["func"].__name__
    return namespace


def readme_commands():
    block, = re.findall(r"```sh\nkpca-lab (.*?)```", README.read_text(encoding="utf-8"),
                        flags=re.S)
    return [line.split() for line in block.replace("\\\n", " ").split("\nkpca-lab ")]


# The namespaces of the five README commands, as the CLI parsed them before
# its shared flags were defined once.
README_NAMESPACES = [
    {"subcommand": "gen-spheres", "func": "cmd_gen_spheres", "n": 1000, "r1": 40.0,
     "r2": 100.0, "noise": 1.0, "seed": 42, "out": "runs/spheres"},
    {"subcommand": "embed", "func": "cmd_embed", "method": "kpca", "kernel": "gaussian",
     "degree": 5, "offset": 0.0, "sigma": "auto", "components": 2,
     "input": "runs/spheres/features.csv", "labels": "runs/spheres/labels.csv",
     "labels_col": None, "save_model": "runs/model.kpml", "out": "runs/embed"},
    {"subcommand": "classify", "func": "cmd_classify",
     "train_features": "runs/embed/features.csv",
     "train_labels": "runs/spheres/labels.csv", "test_features": None,
     "test_labels": None, "labels_col": None, "out": "runs/clf"},
    {"subcommand": "preimage", "func": "cmd_preimage", "model": "runs/model.kpml",
     "input": "runs/embed/features.csv", "max_iter": 1000, "tol": 1e-9,
     "out": "runs/pre"},
    {"subcommand": "asm-sweep", "func": "cmd_asm_sweep", "pts_dir": "data/landmarks",
     "method": "kpca", "feature": 1, "steps": 5, "c": 500.0, "m": 10,
     "sigma": "auto", "max_iter": 1000, "tol": 1e-9, "role_map": None,
     "out": "runs/sweep"},
]


def test_readme_commands_parse_as_before():
    commands = readme_commands()
    assert len(commands) == len(README_NAMESPACES)
    for argv, expected in zip(commands, README_NAMESPACES):
        assert parsed(argv) == expected


@pytest.mark.parametrize("argv, expected", [
    ("gen-spheres --seed 1 --out o",
     {"subcommand": "gen-spheres", "func": "cmd_gen_spheres", "n": 1000, "r1": 40.0,
      "r2": 100.0, "noise": 1.0, "seed": 1, "out": "o"}),
    ("embed --method pca --input f.csv --out o",
     {"subcommand": "embed", "func": "cmd_embed", "method": "pca",
      "kernel": "gaussian", "degree": 5, "offset": 0.0, "sigma": "auto",
      "components": 2, "input": "f.csv", "labels": None, "labels_col": None,
      "save_model": None, "out": "o"}),
    ("classify --train-features f.csv --out o",
     {"subcommand": "classify", "func": "cmd_classify", "train_features": "f.csv",
      "train_labels": None, "test_features": None, "test_labels": None,
      "labels_col": None, "out": "o"}),
    ("preimage --model m.kpml --input f.csv --out o",
     {"subcommand": "preimage", "func": "cmd_preimage", "model": "m.kpml",
      "input": "f.csv", "max_iter": 1000, "tol": 1e-9, "out": "o"}),
    ("asm-sweep --pts-dir d --method pca --out o",
     {"subcommand": "asm-sweep", "func": "cmd_asm_sweep", "pts_dir": "d",
      "method": "pca", "feature": 1, "steps": 5, "c": 500.0, "m": 10,
      "sigma": "auto", "max_iter": 1000, "tol": 1e-9, "role_map": None,
      "out": "o"}),
], ids=["gen-spheres", "embed", "classify", "preimage", "asm-sweep"])
def test_required_flags_only_parse_as_before(argv, expected):
    assert parsed(argv.split()) == expected


def test_shared_defaults_are_the_library_defaults():
    spheres = parsed(["gen-spheres", "--seed", "0", "--out", "o"])
    params = SpheresParams()
    assert (spheres["n"], spheres["r1"], spheres["r2"], spheres["noise"]) == \
        (params.n, params.r1, params.r2, params.noise)
    cfg = PreimageConfig()
    for argv in (["preimage", "--model", "m", "--input", "f", "--out", "o"],
                 ["asm-sweep", "--pts-dir", "d", "--method", "kpca", "--out", "o"]):
        namespace = parsed(argv)
        assert (namespace["max_iter"], namespace["tol"]) == \
            (cfg.max_iterations, cfg.tolerance)


def test_asm_sweep_defaults_are_the_shared_sweep_settings():
    namespace = parsed(["asm-sweep", "--pts-dir", "d", "--method", "kpca", "--out", "o"])
    assert (namespace["steps"], namespace["m"], namespace["c"]) == \
        (shapes.SWEEP_STEPS, shapes.SWEEP_COMPONENTS, shapes.KPCA_SWEEP_C)
    assert (shapes.SWEEP_STEPS, shapes.SWEEP_COMPONENTS, shapes.KPCA_SWEEP_C) == (5, 10, 500.0)
