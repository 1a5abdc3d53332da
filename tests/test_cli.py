"""End-to-end command line checks, run in process through main()."""

import numpy as np
import pytest

from facekeys.cli import INPUT_ENV, main
from facekeys.dataset import load_split_csvs, load_training_csv
from facekeys.lbp import _min_rotations, lbp_basic
from facekeys.pca import load_pca
from facekeys.regressors import RegressorSpec, fit_any, save_model
from facekeys.viz import read_pgm, read_ppm

SPLIT_FILES = tuple(
    f"{prefix}_{part}_{suffix}.csv"
    for suffix in ("4f", "11f")
    for part in ("train", "test")
    for prefix in ("keypoint", "im")
)


@pytest.fixture(autouse=True)
def _no_env_input(monkeypatch):
    monkeypatch.delenv(INPUT_ENV, raising=False)


def _predictions(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "facekeys" in capsys.readouterr().out


def test_usage_errors_exit_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["split", "--bogus-flag", str(tmp_path)])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_missing_input_is_a_one_line_error(tmp_path, capsys):
    rc = main(["lbp", "--out", str(tmp_path / "x.pgm")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("facekeys: error: no input CSV")
    assert INPUT_ENV in err


def test_input_can_come_from_the_environment(monkeypatch, tmp_path, csv_path):
    monkeypatch.setenv(INPUT_ENV, str(csv_path))
    out = tmp_path / "scatter.ppm"
    assert main(["visualize", "--mode", "scatter",
                 "--slot", "left_eye_center", "--out", str(out)]) == 0
    assert read_ppm(out).shape == (96, 96, 3)


def test_split_writes_eight_loadable_files(tmp_path, csv_path, capsys):
    out_dir = tmp_path / "splits"
    rc = main(["split", "--input", str(csv_path), "--out-dir", str(out_dir)])
    assert rc == 0
    assert "wrote 8 files" in capsys.readouterr().out
    for name in SPLIT_FILES:
        assert (out_dir / name).is_file(), name

    four_train = load_split_csvs(out_dir / "keypoint_train_4f.csv",
                                 out_dir / "im_train_4f.csv")
    four_test = load_split_csvs(out_dir / "keypoint_test_4f.csv",
                                out_dir / "im_test_4f.csv")
    # source fixture: 30 rows on the dense task, 18 on the sparse one
    assert (len(four_train), len(four_test)) == (27, 3)
    assert four_train.n_slots == 4

    full_train = load_split_csvs(out_dir / "keypoint_train_11f.csv",
                                 out_dir / "im_train_11f.csv")
    full_test = load_split_csvs(out_dir / "keypoint_test_11f.csv",
                                out_dir / "im_test_11f.csv")
    assert (len(full_train), len(full_test)) == (16, 2)
    assert full_train.n_slots == 11
    # split rows are imputed, so every cell is a concrete number
    assert np.isfinite(four_train.keypoints).all()


def test_split_outputs_are_reproducible(tmp_path, csv_path):
    for d in ("one", "two"):
        assert main(["split", "--input", str(csv_path),
                     "--out-dir", str(tmp_path / d)]) == 0
    for name in SPLIT_FILES:
        assert (tmp_path / "one" / name).read_bytes() == \
            (tmp_path / "two" / name).read_bytes(), name


def _train(csv_path, out, *extra):
    return main(["train", "--input", str(csv_path), "--out", str(out), *extra])


@pytest.mark.parametrize(
    "extra",
    [
        ("--model", "knn", "--k", "3"),
        ("--model", "tree", "--max-depth", "2"),
        ("--model", "lasso", "--alpha", "0.1", "--max-iter", "50"),
        ("--model", "mlp", "--hidden", "8", "--epochs", "2", "--batch-size", "8"),
    ],
    ids=lambda extra: extra[1],
)
def test_train_then_predict_round_trip(tmp_path, csv_path, extra):
    model_file = tmp_path / "model.npz"
    assert _train(csv_path, model_file, "--task", "four", *extra) == 0
    out = tmp_path / "pred.csv"
    rc = main(["predict", "--model-file", str(model_file),
               "--input", str(csv_path), "--out", str(out)])
    assert rc == 0
    header = out.read_text().splitlines()[0].split(",")
    assert len(header) == 8
    assert header[0] == "left_eye_center_x"
    assert all(h.endswith(("_x", "_y")) for h in header)
    pred = _predictions(out)
    assert pred.shape == (30, 8)
    assert np.isfinite(pred).all()


def test_predict_accepts_image_only_csv(tmp_path, csv_path):
    out_dir = tmp_path / "splits"
    assert main(["split", "--input", str(csv_path), "--out-dir", str(out_dir)]) == 0
    model_file = tmp_path / "knn.npz"
    assert _train(csv_path, model_file, "--model", "knn", "--task", "four") == 0
    out = tmp_path / "pred.csv"
    rc = main(["predict", "--model-file", str(model_file),
               "--input", str(out_dir / "im_test_4f.csv"), "--out", str(out)])
    assert rc == 0
    assert _predictions(out).shape == (3, 8)


def test_ridge_at_zero_penalty_matches_least_squares(tmp_path, csv_path):
    files = {}
    for kind, extra in (("ols", ()), ("ridge", ("--lam", "0"))):
        model_file = tmp_path / f"{kind}.npz"
        assert _train(csv_path, model_file, "--model", kind, *extra) == 0
        pred_file = tmp_path / f"{kind}_pred.csv"
        assert main(["predict", "--model-file", str(model_file),
                     "--input", str(csv_path), "--out", str(pred_file)]) == 0
        files[kind] = _predictions(pred_file)
    assert np.allclose(files["ols"], files["ridge"], atol=1e-8)


def test_train_cnn_on_pca_grids(tmp_path, csv_path):
    model_file = tmp_path / "cnn.npz"
    rc = _train(csv_path, model_file, "--model", "cnn", "--task", "four",
                "--pca", "16", "--epochs", "1", "--batch-size", "8")
    assert rc == 0
    out = tmp_path / "pred.csv"
    assert main(["predict", "--model-file", str(model_file),
                 "--input", str(csv_path), "--out", str(out)]) == 0
    pred = _predictions(out)
    assert pred.shape == (30, 8)
    assert np.isfinite(pred).all()


def test_train_stores_the_pipeline_arrays_in_the_model_file(tmp_path, csv_path):
    model_file = tmp_path / "knn.npz"
    assert _train(csv_path, model_file, "--model", "knn", "--pca", "5") == 0
    with np.load(model_file) as data:
        assert set(data.files) == {
            "knn_x", "knn_y", "meta", "pipe_pca_mean", "pipe_pca_components",
            "pipe_pca_variance", "pipe_pca_ratio",
        }
        assert data["pipe_pca_components"].shape[0] == 5


def test_predict_rejects_a_model_file_without_a_pipeline(tmp_path, csv_path, capsys):
    rng = np.random.default_rng(0)
    model = fit_any(RegressorSpec("knn", {"k": 1}), rng.normal(size=(4, 256)),
                    rng.normal(size=(4, 8)))
    model_file = tmp_path / "bare.npz"
    save_model(model_file, model)
    rc = main(["predict", "--model-file", str(model_file),
               "--input", str(csv_path), "--out", str(tmp_path / "p.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("facekeys: error:") and "no feature pipeline" in err
    assert len(err.splitlines()) == 1


def test_predict_rejects_an_npz_without_meta(tmp_path, csv_path, capsys):
    model_file = tmp_path / "foreign.npz"
    np.savez(model_file, weights=np.zeros(3))
    rc = main(["predict", "--model-file", str(model_file),
               "--input", str(csv_path), "--out", str(tmp_path / "p.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("facekeys: error:") and "no meta record" in err
    assert len(err.splitlines()) == 1


def test_predict_rejects_a_file_that_is_not_an_npz_archive(tmp_path, csv_path, capsys):
    model_file = tmp_path / "weights.npy"
    np.save(model_file, np.zeros(3))
    rc = main(["predict", "--model-file", str(model_file),
               "--input", str(csv_path), "--out", str(tmp_path / "p.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("facekeys: error:") and "not an .npz archive" in err
    assert len(err.splitlines()) == 1


def test_cnn_rejects_feature_widths_without_a_grid(tmp_path, csv_path, capsys):
    rc = _train(csv_path, tmp_path / "cnn.npz", "--model", "cnn",
                "--pca", "15", "--epochs", "1")
    assert rc == 1
    assert "divisible by 4" in capsys.readouterr().err


def test_train_with_lbp_histogram_features(tmp_path, csv_path):
    model_file = tmp_path / "hist.npz"
    rc = _train(csv_path, model_file, "--model", "knn", "--task", "four",
                "--lbp", "--lbp-mode", "histogram", "--pca", "3")
    assert rc == 0
    out = tmp_path / "pred.csv"
    assert main(["predict", "--model-file", str(model_file),
                 "--input", str(csv_path), "--out", str(out)]) == 0
    assert np.isfinite(_predictions(out)).all()


def test_predict_missing_model_file_fails_cleanly(tmp_path, csv_path, capsys):
    rc = main(["predict", "--model-file", str(tmp_path / "absent.npz"),
               "--input", str(csv_path), "--out", str(tmp_path / "p.csv")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("facekeys: error:")


def test_benchmark_prints_markdown_and_writes_csv(tmp_path, csv_path, capsys):
    report_csv = tmp_path / "report.csv"
    rc = main(["benchmark", "--input", str(csv_path), "--models", "knn,ols",
               "--tasks", "four", "--pipelines", "raw",
               "--csv", str(report_csv)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "## Pipeline: raw" in out
    assert "| knn |" in out and "| ols |" in out
    assert f"wrote CSV report to {report_csv}" in out
    lines = report_csv.read_text().splitlines()
    assert lines[0].startswith("model,pipeline,task,rmse")
    assert len(lines) == 1 + 2


def test_benchmark_accepts_a_config_file(tmp_path, csv_path, capsys):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("models = knn\ntasks = four\npipelines = raw\nmax_rows = 20\n")
    rc = main(["benchmark", "--config", str(cfg), "--input", str(csv_path)])
    assert rc == 0
    assert "| knn |" in capsys.readouterr().out


def test_benchmark_rejects_unknown_model(tmp_path, csv_path, capsys):
    rc = main(["benchmark", "--input", str(csv_path), "--models", "svm"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("facekeys: error:")


def test_lbp_command_writes_the_basic_code_map(tmp_path, csv_path):
    out = tmp_path / "codes.pgm"
    assert main(["lbp", "--input", str(csv_path), "--row", "2",
                 "--out", str(out)]) == 0
    d = load_training_csv(csv_path)
    expected = lbp_basic(d.image(2)).codes.astype(np.uint8)
    assert np.array_equal(read_pgm(out), expected)


def test_lbp_command_rotation_invariant_variant(tmp_path, csv_path):
    out = tmp_path / "ri.pgm"
    assert main(["lbp", "--input", str(csv_path), "--rotation-invariant",
                 "--out", str(out)]) == 0
    d = load_training_csv(csv_path)
    expected = _min_rotations(lbp_basic(d.image(0)).codes, 8).astype(np.uint8)
    assert np.array_equal(read_pgm(out), expected)


def test_lbp_command_circular_wide_codes(tmp_path, csv_path):
    out = tmp_path / "wide.pgm"
    assert main(["lbp", "--input", str(csv_path), "--circular",
                 "--neighbors", "12", "--radius", "2.0",
                 "--out", str(out)]) == 0
    gray = read_pgm(out)
    assert gray.shape == (16, 16)


def test_lbp_command_row_out_of_range(tmp_path, csv_path, capsys):
    rc = main(["lbp", "--input", str(csv_path), "--row", "99",
               "--out", str(tmp_path / "x.pgm")])
    assert rc == 1
    assert "out of range" in capsys.readouterr().err


def test_pca_command_saves_a_loadable_model(tmp_path, csv_path, capsys):
    out = tmp_path / "pca.npz"
    rc = main(["pca", "--input", str(csv_path), "--task", "four",
               "--components", "5", "--out", str(out), "--report"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "fit PCA on 30 rows: 5 components" in text
    assert "component 0: ratio" in text
    assert load_pca(out).n_components == 5


def test_pca_command_wants_exactly_one_selector(tmp_path, csv_path, capsys):
    base = ["pca", "--input", str(csv_path), "--out", str(tmp_path / "p.npz")]
    assert main(base + ["--components", "5", "--variance", "0.9"]) == 1
    assert main(base) == 1
    err = capsys.readouterr().err
    assert err.count("exactly one of") == 2


def test_visualize_keypoint_overlay(tmp_path, csv_path):
    out = tmp_path / "overlay.ppm"
    assert main(["visualize", "--input", str(csv_path), "--mode", "keypoints",
                 "--row", "1", "--out", str(out)]) == 0
    assert read_ppm(out).shape == (16, 16, 3)


def test_visualize_scatter_needs_a_slot(tmp_path, csv_path, capsys):
    rc = main(["visualize", "--input", str(csv_path), "--mode", "scatter",
               "--out", str(tmp_path / "s.ppm")])
    assert rc == 1
    assert "needs --slot" in capsys.readouterr().err
