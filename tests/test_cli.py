"""End-to-end command line checks, run in process through main()."""

import argparse
import builtins
import csv
import dataclasses
import io
import json
import shlex
import zipfile
from pathlib import Path

import numpy as np
import pytest

from facekeys import cli
from facekeys import dataset as ds
from facekeys import eval as ev
from facekeys.cli import INPUT_ENV, CliError, build_parser, main
from conftest import build_dataset
from facekeys.dataset import (
    SLOT_NAMES,
    Dataset,
    load_image_csv,
    load_training_csv,
    split_by_keypoint_coverage,
    write_image_csv,
    write_training_csv,
)
from facekeys.lbp import LbpConfig, lbp_basic, lbp_circular, lbp_histogram_features
from facekeys.pipeline import fit_pipeline, pipeline_from_payload
from facekeys.regressors import (
    KINDS,
    SPEC_KINDS,
    RegressorSpec,
    fit_any,
    load_model,
    predict_any,
    save_model,
)
from facekeys.regressors.tree import NODE_ARRAYS
from facekeys.viz import render_lbp
from readers import load_pca, load_split_csvs, read_pgm, read_ppm

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


_COMMAND_NAMES = ("split", "train", "predict", "benchmark", "lbp", "pca", "visualize")


def _subparsers(parser: argparse.ArgumentParser) -> argparse._SubParsersAction:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def test_build_parser_builds_every_command_by_default():
    assert tuple(_subparsers(build_parser()).choices) == _COMMAND_NAMES


@pytest.mark.parametrize("command", _COMMAND_NAMES)
def test_a_one_command_parser_prints_the_full_parsers_texts(command):
    full, one = build_parser(), build_parser(command)
    assert list(_subparsers(one).choices) == [command]
    assert one.format_usage() == full.format_usage()
    mine, theirs = _subparsers(one).choices[command], _subparsers(full).choices[command]
    assert mine.format_usage() == theirs.format_usage()
    assert mine.format_help() == theirs.format_help()


_PREDICT = ["predict", "--model-file", "m.npz", "--input", "i.csv", "--out", "o.csv"]


@pytest.mark.parametrize("argv", [["no-such-command"], [], _PREDICT + ["extra"]],
                         ids=["unknown-command", "no-arguments", "predict-extra"])
def test_main_prints_the_full_parsers_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as full:
        build_parser().parse_args(argv)
    expected = capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert (exc.value.code, full.value.code) == (2, 2)
    assert capsys.readouterr().err == expected


def test_main_without_argv_reads_sys_argv(tmp_path, monkeypatch, capsys):
    missing = tmp_path / "missing.npz"
    monkeypatch.setattr("sys.argv", ["facekeys", "predict", "--model-file", str(missing),
                                     "--input", "i.csv", "--out", str(tmp_path / "o.csv")])
    assert main() == 1
    assert str(missing) in capsys.readouterr().err


def test_main_adds_only_the_invoked_commands_arguments(tmp_path, monkeypatch):
    added = []
    add_argument = argparse.ArgumentParser.add_argument

    def spy(self, *names, **kwargs):
        added.append(names[0])
        return add_argument(self, *names, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", spy)
    assert main(["predict", "--model-file", str(tmp_path / "missing.npz"),
                 "--input", "i.csv", "--out", str(tmp_path / "o.csv")]) == 1
    assert sorted(added) == ["--input", "--model-file", "--out", "-h", "-h"]


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
    assert read_ppm(out).shape == (16, 16, 3)  # the 16x16 images' size


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


def test_a_refused_split_writes_no_file_and_no_directory(tmp_path, capsys):
    # 40 rows, 3 with the eleven sparse slots: the four task splits at 0.1 and the eleven
    # does not. Before, the four task's files were written first
    data = tmp_path / "faces.csv"
    write_training_csv(build_dataset(n_rows=40, sparse_missing_rows=37, core_missing_cells=0),
                       data)
    out_dir = tmp_path / "splits"
    assert main(["split", "--input", str(data), "--out-dir", str(out_dir),
                 "--train-fraction", "0.1"]) == 1
    assert capsys.readouterr() == (
        "", "facekeys: error: train_fraction 0.1 leaves an empty side for n=3\n")
    assert not out_dir.exists()


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


@pytest.mark.parametrize("model,extra,flags", [
    ("ridge", ("--k", "3", "--epochs", "9"), "--epochs, --k"),
    ("knn", ("--max-iter", "5"), "--max-iter"),
    ("cnn", ("--hidden", "8"), "--hidden"),
    ("ols", ("--lam", "0"), "--lam"),
], ids=["ridge", "knn", "cnn", "ols"])
def test_train_refuses_a_flag_its_model_does_not_take(tmp_path, csv_path, capsys,
                                                      model, extra, flags):
    model_file = tmp_path / "model.npz"
    assert _train(csv_path, model_file, "--model", model, *extra) == 1
    err = capsys.readouterr().err
    assert err == f"facekeys: error: --model {model} does not take {flags}\n"
    assert not model_file.exists()


@pytest.mark.parametrize("hidden", ["0", "8,0", "-5"])
def test_train_refuses_a_hidden_width_below_one(tmp_path, csv_path, capsys, hidden):
    model_file = tmp_path / "model.npz"
    assert _train(csv_path, model_file, "--model", "mlp", "--epochs", "1",
                  f"--hidden={hidden}") == 1
    i, width = next((i, w) for i, w in enumerate(map(int, hidden.split(","))) if w < 1)
    err = capsys.readouterr().err
    assert err == f"facekeys: error: hidden[{i}] must be an integer >= 1, got {width}\n"
    assert not model_file.exists()


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


def test_predict_opens_its_input_once(tmp_path, csv_path, monkeypatch):
    model_file = tmp_path / "knn.npz"
    assert _train(csv_path, model_file, "--model", "knn", "--task", "four") == 0
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    assert main(["predict", "--model-file", str(model_file),
                 "--input", str(csv_path), "--out", str(tmp_path / "p.csv")]) == 0
    assert opened.count(str(csv_path)) == 1


def test_a_pixel_too_wide_for_int64_is_a_one_line_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a_x,a_y,Image\n1,2,0 99999999999999999999999 0 0\n")
    rc = main(["split", "--input", str(bad), "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("facekeys: error: ")
    assert "row 0, column Image: pixel outside [0, 255]" in err
    assert len(err.splitlines()) == 1


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


def test_train_subsamples_like_the_benchmark_and_records_the_task(tmp_path, csv_path):
    model_file = tmp_path / "knn.npz"
    assert _train(csv_path, model_file, "--model", "knn", "--task", "eleven",
                  "--max-rows", "10", "--seed", "3") == 0
    model, extras = load_model(model_file)
    assert extras["task"] == "eleven"
    _, sparse = split_by_keypoint_coverage(load_training_csv(csv_path))
    rows = ev._subsample(sparse, 10, 3)
    assert len(rows) == 10 < len(sparse)
    assert np.array_equal(model.X, rows.images.reshape(10, -1) / 255.0)


@pytest.mark.parametrize("kind", KINDS)
def test_train_without_setting_flags_fits_the_benchmark_spec(tmp_path, csv_path, monkeypatch,
                                                             kind):
    fitted = []

    def capture(spec, X, Y):
        fitted.append(spec)
        raise CliError("captured")

    monkeypatch.setattr(cli, "fit_any", capture)
    pca = ("--pca", "16") if kind == "cnn" else ()
    assert _train(csv_path, tmp_path / "model.npz", "--model", kind, *pca) == 1
    assert fitted == [ev._spec_for(ev.BenchmarkConfig(), kind)]


@pytest.mark.parametrize("bad, fragment", [
    pytest.param(("--max-iter", "0"), "max_iter must be an integer >= 1, got 0",
                 id="bad0-max_iter must be at least 1"),
    pytest.param(("--tol", "0"), "tol must be a finite number above 0, got 0.0",
                 id="bad1-tol must be positive"),
])
def test_train_rejects_bad_coordinate_descent_settings(tmp_path, csv_path, capsys, bad, fragment):
    model_file = tmp_path / "model.npz"
    assert _train(csv_path, model_file, "--task", "four", "--model", "lasso", *bad) == 1
    err = capsys.readouterr().err
    assert err.startswith("facekeys: error:") and fragment in err
    assert len(err.splitlines()) == 1
    assert not model_file.exists()


@pytest.mark.parametrize("model, flag, value, rule", [
    ("ridge", "--lam", "nan", ">= 0"),
    ("lasso", "--alpha", "nan", ">= 0"),
    ("elastic", "--alpha", "inf", ">= 0"),
    ("elastic", "--rho", "nan", "in [0, 1]"),
    ("lasso", "--tol", "inf", "above 0"),
])
def test_train_refuses_a_penalty_that_is_not_finite(tmp_path, csv_path, capsys, model, flag,
                                                    value, rule):
    # unchecked, each exits 0 with NaN or all-zero weights
    model_file = tmp_path / "model.npz"
    assert _train(csv_path, model_file, "--task", "four", "--model", model, flag, value) == 1
    assert capsys.readouterr().err == (f"facekeys: error: {flag[2:]} must be a finite number "
                                       f"{rule}, got {value}\n")
    assert not model_file.exists()


@pytest.mark.parametrize("argv, message", [
    (("--model", "knn", "--max-rows", "-5"), "max_rows must be an integer >= 1, got -5"),
    (("--model", "knn", "--max-rows", "0"), "max_rows must be an integer >= 1, got 0"),
    (("--model", "knn", "--seed", "-1"), "seed must be an integer >= 0, got -1"),
    (("--model", "mlp", "--epochs", "1", "--seed", "-1"), "seed must be an integer >= 0, got -1"),
], ids=["max-rows--5", "max-rows-0", "knn-seed--1", "mlp-seed--1"])
def test_train_refuses_a_row_cap_below_1_or_a_negative_seed(tmp_path, csv_path, capsys, argv,
                                                             message):
    # unchecked, --max-rows -5 trained on all but 5 random rows and 0 failed in column_means;
    # knn ignored --seed -1 and mlp ended in numpy's "expected non-negative integer"
    model_file = tmp_path / "model.npz"
    assert _train(csv_path, model_file, *argv) == 1
    assert capsys.readouterr().err == f"facekeys: error: {message}\n"
    assert not model_file.exists()


def test_benchmark_refuses_a_negative_seed(csv_path, capsys):
    # unchecked, the run exited 0 with mlp error rows
    assert main(["benchmark", "--input", str(csv_path), "--seed", "-1", "--models", "knn,mlp",
                 "--pipelines", "raw", "--tasks", "four", "--mlp-epochs", "1"]) == 1
    assert capsys.readouterr().err == "facekeys: error: seed must be an integer >= 0, got -1\n"


@pytest.mark.parametrize("flags, config, message", [
    (("--seed", "-1"), "", "seed must be an integer >= 0, got -1"),
    (("--max-rows", "0"), "", "max_rows must be an integer >= 1, got 0"),
    ((), "train_fraction = 1.5", "train_fraction must be a finite number in (0, 1), got 1.5"),
    ((), "pca_components = 0", "pca_components must be an integer >= 1, got 0"),
    ((), "lbp_radius = nan", "lbp_radius must be a finite number above 0, got nan"),
    ((), "lbp_mode = spiral",
     "unknown lbp_mode 'spiral'; expected one of ('pixel_map', 'histogram')"),
    (("--tasks", "four,all"), "", "unknown task 'all'; expected one of ('eleven', 'four')"),
], ids=["seed", "max-rows", "train-fraction", "pca-components", "lbp-radius", "lbp-mode",
        "tasks"])
def test_benchmark_refuses_a_bad_run_setting_before_reading_the_csv(tmp_path, capsys, flags,
                                                                    config, message):
    # unchecked, the first three failed after the CSV was decoded and the others exited 0
    # with lbp_pca error rows; the input here does not exist, so its error would show.
    # A config-file refusal names its file and line
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(config + "\n")
    assert main(["benchmark", "--input", str(tmp_path / "missing.csv"), "--config", str(cfg),
                 *flags]) == 1
    where = f"{cfg}:1: " if config else ""
    assert capsys.readouterr().err == f"facekeys: error: {where}{message}\n"


@pytest.mark.parametrize("argv, message", [
    (("train", "--model", "knn", "--max-rows", "0"), "max_rows must be an integer >= 1, got 0"),
    (("train", "--model", "knn", "--lbp", "--lbp-radius", "nan"),
     "lbp_radius must be a finite number above 0, got nan"),
    (("lbp", "--lbp-neighbors", "63"), "lbp_neighbors must be an integer in [4, 62], got 63"),
    (("split", "--seed", "-1"), "seed must be an integer >= 0, got -1"),
    (("split", "--train-fraction", "1.5"),
     "train_fraction must be a finite number in (0, 1), got 1.5"),
], ids=["train-max-rows", "train-lbp-radius", "lbp-neighbors", "split-seed",
        "split-train-fraction"])
def test_a_train_or_lbp_setting_is_refused_before_reading_the_csv(tmp_path, capsys, argv,
                                                                  message):
    # the input does not exist, so its error would show: --max-rows and split's settings
    # were checked only after the CSV was decoded, and the LBP geometry was refused under
    # LbpConfig's field names
    out = tmp_path / "out"
    out_flag = "--out-dir" if argv[0] == "split" else "--out"
    assert main([*argv, "--input", str(tmp_path / "missing.csv"), out_flag, str(out)]) == 1
    assert capsys.readouterr().err == f"facekeys: error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("flags, fit_side, side", [
    (("--model", "knn", "--pca", "16"), 16, 8),
    (("--model", "knn", "--pca", "16", "--lbp"), 16, 8),
    (("--model", "ridge", "--lbp", "--lbp-mode", "histogram"), 16, 8),
    # both sizes make 6x6 cells of 16 pixels, so the histograms alone fit either
    (("--model", "knn", "--lbp", "--lbp-mode", "histogram", "--pca", "20"), 96, 90),
], ids=["raw", "lbp", "histogram", "histogram-pca"])
def test_predict_names_the_shape_a_pca_model_was_given(tmp_path, capsys, flags, fit_side, side):
    # a model asked about images of another size: the error names both shapes
    faces, model_file, small = tmp_path / "faces.csv", tmp_path / "m.npz", tmp_path / "small.csv"
    write_training_csv(build_dataset(side=fit_side), faces)
    assert _train(faces, model_file, *flags) == 0
    write_image_csv(build_dataset(side=side), small)
    capsys.readouterr()
    out = tmp_path / "p.csv"
    rc = main(["predict", "--model-file", str(model_file), "--input", str(small),
               "--out", str(out)])
    assert rc == 1 and not out.exists()
    assert capsys.readouterr().err == (
        f"facekeys: error: images are {side}x{side}, "
        f"but the feature pipeline was fit on {fit_side}x{fit_side} images\n")


def test_predict_names_kaggles_test_csv_header(tmp_path, csv_path, capsys):
    # Kaggle's test.csv heads its rows ImageId,Image: one line naming the file and the column
    model_file, kaggle = tmp_path / "knn.npz", tmp_path / "test.csv"
    assert _train(csv_path, model_file, "--model", "knn") == 0
    kaggle.write_text("ImageId,Image\n1," + " ".join(["0"] * 256) + "\n")
    capsys.readouterr()
    rc = main(["predict", "--model-file", str(model_file),
               "--input", str(kaggle), "--out", str(tmp_path / "p.csv")])
    assert rc == 1
    assert capsys.readouterr().err == (f"facekeys: error: {kaggle}: coordinate columns must come "
                                       "in x/y pairs, but 'ImageId' has no partner\n")


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


def _set_root_feature(arrays):
    arrays["tree_feature"][0] = 1000000


def _unequal_lengths(arrays):
    arrays["tree_threshold"] = arrays["tree_threshold"][:-1]


def _one_dimensional_value(arrays):
    arrays["tree_value"] = arrays["tree_value"][:, 0]


def _child_before_parent(arrays):
    arrays["tree_left"][0] = 0


@pytest.mark.parametrize("tamper,fragment", [
    (_set_root_feature, "tree node 0 splits on feature 1000000"),
    (_unequal_lengths, "unequal lengths"),
    (_one_dimensional_value, "2-d"),
    (_child_before_parent, "tree node 0 has children 0"),
], ids=["feature", "lengths", "value", "children"])
def test_predict_rejects_a_tampered_tree_file(tmp_path, csv_path, capsys, tamper, fragment):
    model_file = tmp_path / "tree.npz"
    assert _train(csv_path, model_file, "--model", "tree", "--max-depth", "2") == 0
    with np.load(model_file) as data:
        arrays = {name: data[name] for name in data.files}
    tamper(arrays)
    np.savez(model_file, **arrays)
    capsys.readouterr()
    rc = main(["predict", "--model-file", str(model_file),
               "--input", str(csv_path), "--out", str(tmp_path / "p.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("facekeys: error:") and fragment in err and str(model_file) in err
    assert len(err.splitlines()) == 1


def _set_meta(key, value):
    def tamper(arrays):
        meta = json.loads(bytes(arrays["meta"]).decode())
        meta[key] = value
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    return tamper


def _one_dimensional_knn_y(arrays):
    arrays["knn_y"] = arrays["knn_y"][:, 0]


def _mismatched_mlp_layer(arrays):
    arrays["mlp_w1"] = arrays["mlp_w1"][:-1]


def _drop_meta(key):
    def tamper(arrays):
        meta = json.loads(bytes(arrays["meta"]).decode())
        del meta[key]
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    return tamper


def _drop_array(name):
    def tamper(arrays):
        del arrays[name]
    return tamper


def _cut_array(name, axis=0):
    def tamper(arrays):
        arrays[name] = np.delete(arrays[name], -1, axis=axis)
    return tamper


def _transposed(name):
    def tamper(arrays):
        arrays[name] = arrays[name].T
    return tamper


_CNN = ("--model", "cnn", "--task", "four", "--pca", "16", "--epochs", "1", "--batch-size", "8")


@pytest.mark.parametrize("extra,tamper,fragment", [
    (("--model", "knn", "--k", "3"), _set_meta("k", 0),
     "is not a facekeys model file: k must be an integer in [1, 30], got 0\n"),
    (("--model", "knn", "--k", "3"), _one_dimensional_knn_y, "2-d with matching row counts"),
    (("--model", "mlp", "--hidden", "4", "--epochs", "1"), _set_meta("n_layers", 9),
     "its meta entry 'n_layers' is 9, but the file holds arrays"),
    (("--model", "mlp", "--hidden", "4", "--epochs", "1"), _mismatched_mlp_layer,
     "mlp layers do not chain"),
    (("--model", "knn", "--k", "3"), _drop_meta("k"), "has no meta entry 'k'"),
    (_CNN, _drop_meta("side"), "has no meta entry 'side'"),
    (_CNN, _drop_array("cnn_out_b"), "has no array 'cnn_out_b'"),
    (_CNN, _cut_array("cnn_dense_w"), "cnn parameter shapes do not chain"),
    (_CNN, _cut_array("cnn_out_b"), "cnn parameter shapes do not chain"),
    (("--model", "ridge"), _transposed("lin_w"),
     "linear weights must be 2-d with an intercept per column, got shapes (8, 256) and (8,)"),
    (("--model", "ridge"), _cut_array("lin_b"), "got shapes (256, 8) and (7,)"),
], ids=["knn-k", "knn-y", "mlp-n_layers", "mlp-shapes",
        "knn-no-k", "cnn-no-side", "cnn-no-out_b", "cnn-dense_w", "cnn-out_b",
        "ridge-transposed-w", "ridge-short-b"])
def test_predict_rejects_a_tampered_knn_or_mlp_file(tmp_path, csv_path, capsys, extra, tamper,
                                                    fragment):
    model_file = tmp_path / "model.npz"
    assert _train(csv_path, model_file, *extra) == 0
    with np.load(model_file) as data:
        arrays = {name: data[name] for name in data.files}
    tamper(arrays)
    np.savez(model_file, **arrays)
    capsys.readouterr()
    rc = main(["predict", "--model-file", str(model_file),
               "--input", str(csv_path), "--out", str(tmp_path / "p.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("facekeys: error:") and fragment in err and str(model_file) in err
    assert len(err.splitlines()) == 1



def test_predict_refuses_a_prediction_that_is_not_finite(tmp_path, csv_path, capsys):
    # a NaN would be written as an empty cell, which reads as a missing coordinate
    model_file, out = tmp_path / "ridge.npz", tmp_path / "p.csv"
    assert _train(csv_path, model_file, "--model", "ridge") == 0
    with np.load(model_file) as data:
        arrays = {name: data[name] for name in data.files}
    arrays["lin_w"][0, 0] = np.nan
    np.savez(model_file, **arrays)
    capsys.readouterr()
    assert main(["predict", "--model-file", str(model_file),
                 "--input", str(csv_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"facekeys: error: {model_file} predicts a value that "
                                       "is not finite (NaN or inf)\n")
    assert not out.exists()


@pytest.mark.parametrize("tamper,line", [
    (_set_meta("hidden_activation", [1]), "its meta entry 'hidden_activation' is [1], not 'tanh'"),
    (_set_meta("n_layers", 3), "its meta entry 'n_layers' is 3, but the file holds arrays "
                               "['mlp_b0', 'mlp_b1', 'mlp_w0', 'mlp_w1']"),
    (_set_meta("target_scale", [1.0, 2.0]),
     "its meta entry 'target_scale' is [1.0, 2.0], not a number or 8 numbers"),
], ids=["hidden_activation", "n_layers", "target_scale"])
def test_a_tampered_mlp_meta_entry_is_one_line_naming_the_file(tmp_path, csv_path, capsys,
                                                               tamper, line):
    model_file = tmp_path / "mlp.npz"
    assert _train(csv_path, model_file, "--model", "mlp", "--hidden", "4", "--epochs", "1") == 0
    with np.load(model_file) as data:
        arrays = {name: data[name] for name in data.files}
    tamper(arrays)
    np.savez(model_file, **arrays)
    capsys.readouterr()
    assert main(["predict", "--model-file", str(model_file),
                 "--input", str(csv_path), "--out", str(tmp_path / "p.csv")]) == 1
    assert capsys.readouterr().err == (f"facekeys: error: {model_file} is not a facekeys "
                                       f"model file: {line}\n")


def _edit_extras(edit):
    def tamper(arrays):
        meta = json.loads(bytes(arrays["meta"]).decode())
        edit(meta["extras"])
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    return tamper


@pytest.mark.parametrize("tamper,fragment", [
    (_edit_extras(lambda e: e["pipeline"].pop("scale_pixels")), "no meta entry 'scale_pixels'"),
    (_edit_extras(lambda e: e["pipeline"].pop("lbp_mode")), "no meta entry 'lbp_mode'"),
    (_edit_extras(lambda e: e["pipeline"]["lbp"].update(spin=1)), "'lbp' entry"),
    (_edit_extras(lambda e: e["pipeline"].update(image_shape=[16])),
     "'image_shape' entry is [16], not null or [h, w]"),
    (_drop_array("pipe_pca_mean"), "no array 'pipe_pca_mean'"),
    (_edit_extras(lambda e: e.pop("target_names")), "has no extra 'target_names'"),
    (_edit_extras(lambda e: e["target_names"].pop()), "names 6 target columns"),
    (_cut_array("pipe_pca_mean"), "do not fit together: pipe_pca_mean (255,)"),
    (_cut_array("pipe_pca_components", axis=1), "pipe_pca_components (5, 255)"),
], ids=["no-scale_pixels", "no-lbp_mode", "lbp-unknown-key", "short-image_shape",
        "no-pipe_pca_mean", "no-target_names", "short-target_names", "short-pipe_pca_mean",
        "narrow-pipe_pca_components"])
def test_predict_rejects_a_tampered_pipeline(tmp_path, csv_path, capsys, tamper, fragment):
    model_file = tmp_path / "knn.npz"
    assert _train(csv_path, model_file, "--model", "knn", "--lbp", "--pca", "5") == 0
    with np.load(model_file) as data:
        arrays = {name: data[name] for name in data.files}
    tamper(arrays)
    np.savez(model_file, **arrays)
    capsys.readouterr()
    rc = main(["predict", "--model-file", str(model_file),
               "--input", str(csv_path), "--out", str(tmp_path / "p.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("facekeys: error:") and fragment in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("name", ["has_pca", "scale_pixels"])
def test_a_pipeline_flag_that_is_not_a_json_bool_is_refused(tmp_path, csv_path, capsys, name):
    model_file, out = tmp_path / "knn.npz", tmp_path / "p.csv"
    assert _train(csv_path, model_file, "--model", "knn", "--lbp", "--pca", "5") == 0
    with np.load(model_file) as data:
        arrays = {key: data[key] for key in data.files}
    _edit_extras(lambda e: e["pipeline"].update({name: "no"}))(arrays)
    np.savez(model_file, **arrays)
    capsys.readouterr()
    assert main(["predict", "--model-file", str(model_file),
                 "--input", str(csv_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"facekeys: error: {model_file}: the feature pipeline's "
                                       f"{name!r} entry is 'no', not true or false\n")
    assert not out.exists()


def _add_sampler(model_file, sampled):
    """Rewrite model_file's lbp record as files written before the sampling
    rule moved into lbp_circular: with an interpolation entry."""
    with np.load(model_file) as data:
        arrays = {name: data[name] for name in data.files}
    _edit_extras(lambda e: e["pipeline"]["lbp"].update(interpolation=sampled))(arrays)
    np.savez(model_file, **arrays)


@pytest.mark.parametrize("flags, sampled", [
    ((), "bilinear"),
    (("--lbp-rotation-invariant",), "bilinear"),
    (("--lbp-neighbors", "12", "--lbp-radius", "2"), "bilinear"),
    ((), "nearest"),
], ids=["p8r1-bilinear", "p8r1-ri-bilinear", "p12r2-bilinear", "p8r1-nearest"])
def test_predict_reads_an_old_lbp_record_unchanged(tmp_path, csv_path, flags, sampled):
    # every command wrote "bilinear"; "nearest" is the basic map's own sampler
    model_file = tmp_path / "knn.npz"
    assert _train(csv_path, model_file, "--model", "knn", "--lbp", "--pca", "5", *flags) == 0
    predict = ["predict", "--model-file", str(model_file), "--input", str(csv_path), "--out"]
    assert main([*predict, str(tmp_path / "new.csv")]) == 0
    _add_sampler(model_file, sampled)
    assert main([*predict, str(tmp_path / "old.csv")]) == 0
    assert (tmp_path / "old.csv").read_bytes() == (tmp_path / "new.csv").read_bytes()


@pytest.mark.parametrize("flags, sampled", [
    (("--lbp-radius", "1.5"), "nearest"),
    (("--lbp-neighbors", "12", "--lbp-radius", "2"), "nearest"),
    (("--lbp-rotation-invariant",), "nearest"),
    ((), "cubic"),
], ids=["p8r1.5-nearest", "p12r2-nearest", "p8r1-ri-nearest", "p8r1-cubic"])
def test_predict_refuses_an_lbp_record_the_rule_does_not_sample(tmp_path, csv_path, capsys,
                                                                flags, sampled):
    model_file = tmp_path / "knn.npz"
    assert _train(csv_path, model_file, "--model", "knn", "--lbp", "--pca", "5", *flags) == 0
    _add_sampler(model_file, sampled)
    capsys.readouterr()
    rc = main(["predict", "--model-file", str(model_file),
               "--input", str(csv_path), "--out", str(tmp_path / "p.csv")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"facekeys: error: {model_file}: the feature pipeline's 'lbp' entry asks for {sampled!r} "
        "sampling, which lbp_circular does not do at its geometry\n")


def _cut_at(fraction):
    return lambda blob, path: blob[:int(len(blob) * fraction)]


def _flip_inside(member):
    """A damage that flips one byte in the middle of member's stored data."""
    def damage(blob, path):
        with zipfile.ZipFile(path) as archive:
            info = archive.getinfo(member)
        # a local header is 30 bytes, the name and the extra field; their lengths sit at 26 and 28
        head = info.header_offset
        name_len, extra_len = (int.from_bytes(blob[head + k : head + k + 2], "little")
                               for k in (26, 28))
        at = head + 30 + name_len + extra_len + info.compress_size // 2
        return blob[:at] + bytes([blob[at] ^ 0xFF]) + blob[at + 1:]
    return damage


def _rewrite(edit):
    """A damage that rewrites the archive with edit applied to its arrays."""
    def damage(blob, path):
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        edit(arrays)
        out = io.BytesIO()
        np.savez(out, **arrays)
        return out.getvalue()
    return damage


def _meta_text(text):
    """A damage that rewrites the archive with text as its meta record."""
    return _rewrite(lambda arrays: arrays.update(meta=np.frombuffer(text.encode(), np.uint8)))


def _as_strings(member):
    """A damage that stores member as the text of its values."""
    return _rewrite(lambda arrays: arrays.update({member: arrays[member].astype(str)}))


@pytest.mark.parametrize("damage, fragment", [
    (_cut_at(0.0), "not an .npz archive"),
    (lambda blob, path: blob[:3], "not an .npz archive"),
    (_cut_at(0.1), "is damaged"),
    (_cut_at(0.5), "is damaged"),
    (_cut_at(0.9), "is damaged"),
    (lambda blob, path: blob[:-1], "is damaged"),
    (_flip_inside("pipe_pca_components.npy"), "Bad CRC-32 for file 'pipe_pca_components.npy'"),
    (lambda blob, path: b"", "not an .npz archive"),
    (lambda blob, path: b"weights = 1, 2, 3\n", "not an .npz archive"),
    (_meta_text("{\"kind\": "), "its meta record is not JSON"),
    (_meta_text("[1, 2]"), "its meta record is not a JSON object"),
], ids=["cut-at-0", "cut-at-3-bytes", "cut-at-10%", "cut-at-50%", "cut-at-90%",
        "cut-last-byte", "flipped-byte-in-pipe_pca_components", "empty", "text",
        "meta-not-json", "meta-a-json-list"])
def test_a_damaged_model_file_is_one_error_line(tmp_path, csv_path, capsys, damage, fragment):
    model_file = tmp_path / "knn.npz"
    assert _train(csv_path, model_file, "--model", "knn", "--lbp", "--pca", "5") == 0
    model_file.write_bytes(damage(model_file.read_bytes(), model_file))
    out = tmp_path / "p.csv"
    capsys.readouterr()
    rc = main(["predict", "--model-file", str(model_file), "--input", str(csv_path),
               "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"facekeys: error: {model_file} ") and fragment in err
    assert len(err.splitlines()) == 1
    assert "pickle" not in err
    assert not out.exists()


#: per kind: the train flags of a small `--lbp --pca 16` file, and the members
#: it writes besides meta and the pipeline's
_KIND_MEMBERS = {
    "knn": (("--k", "3"), ("knn_x", "knn_y")),
    "ridge": ((), ("lin_w", "lin_b")),
    "tree": (("--max-depth", "2"), tuple(f"tree_{name}" for name in NODE_ARRAYS)),
    "mlp": (("--hidden", "4", "--epochs", "1"), ("mlp_w0", "mlp_b0", "mlp_w1", "mlp_b1")),
}
_PIPE_MEMBERS = ("pipe_pca_mean", "pipe_pca_components", "pipe_pca_variance", "pipe_pca_ratio")


@pytest.fixture(scope="module")
def lbp_model_files(tmp_path_factory):
    """The training CSV and one `--lbp --pca 16` model file per kind of
    _KIND_MEMBERS, and a cnn one."""
    directory = tmp_path_factory.mktemp("models")
    faces = directory / "faces.csv"
    write_training_csv(build_dataset(), faces)
    flags = {kind: flags for kind, (flags, _) in _KIND_MEMBERS.items()}
    files = {kind: directory / f"{kind}.npz" for kind in (*flags, "cnn")}
    for kind, extra in {**flags, "cnn": ("--epochs", "1")}.items():
        assert _train(faces, files[kind], "--model", kind, *extra, "--lbp", "--pca", "16") == 0
    return faces, files


@pytest.mark.parametrize("kind, member, how", [
    (kind, member, how) for kind, (_, own) in _KIND_MEMBERS.items()
    for member in ("meta", *own, *_PIPE_MEMBERS) for how in ("strings", "flipped-byte")
], ids=lambda v: v)
def test_each_member_of_a_model_file_damaged_is_one_error_line(lbp_model_files, tmp_path, capsys,
                                                              kind, member, how):
    faces, files = lbp_model_files
    damage = _as_strings(member) if how == "strings" else _flip_inside(f"{member}.npy")
    model_file = tmp_path / f"{kind}.npz"
    model_file.write_bytes(damage(files[kind].read_bytes(), files[kind]))
    out = tmp_path / "p.csv"
    capsys.readouterr()
    rc = main(["predict", "--model-file", str(model_file), "--input", str(faces),
               "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"facekeys: error: {model_file} ")
    assert len(err.splitlines()) == 1
    assert not out.exists()


def _edit_lbp(**fields):
    return _edit_extras(lambda e: e["pipeline"]["lbp"].update(fields))


@pytest.mark.parametrize("kind, tamper, entry", [
    ("knn", _edit_extras(lambda e: e.update(pipeline=5)), "'pipeline'"),
    ("knn", _edit_lbp(neighbors="8"), "neighbors"),
    ("knn", _edit_lbp(neighbors=8.5), "neighbors"),
    ("knn", _edit_lbp(radius=None), "radius"),
    ("knn", _edit_lbp(rotation_invariant="no"), "rotation_invariant"),
    ("knn", _edit_extras(lambda e: e.update(target_names=3)), "'target_names'"),
    ("knn", _set_meta("k", [5]), "'k'"),
    ("knn", _set_meta("k", 5.5), "'k'"),
    ("tree", _set_meta("n_features", None), "'n_features'"),
    ("mlp", _set_meta("n_layers", [2]), "'n_layers'"),
    ("cnn", _set_meta("side", "4"), "'side'"),
    ("ridge", _set_meta("kind", ["linear"]), "kind"),
    ("ridge", _set_meta("extras", 5), "extras"),
], ids=["pipeline-int", "lbp-neighbors-str", "lbp-neighbors-float", "lbp-radius-null",
        "lbp-rotation_invariant-str", "target_names-int", "knn-k-list", "knn-k-float",
        "tree-n_features-null", "mlp-n_layers-list", "cnn-side-str", "kind-list", "extras-int"])
def test_a_meta_entry_of_the_wrong_json_type_is_one_error_line(lbp_model_files, tmp_path, capsys,
                                                               kind, tamper, entry):
    faces, files = lbp_model_files
    model_file = tmp_path / f"{kind}.npz"
    model_file.write_bytes(_rewrite(tamper)(files[kind].read_bytes(), files[kind]))
    out = tmp_path / "p.csv"
    capsys.readouterr()
    rc = main(["predict", "--model-file", str(model_file), "--input", str(faces),
               "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("facekeys: error:") and str(model_file) in err and entry in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("kind, edit, width", [
    ("ridge", lambda arrays: arrays.update(lin_w=arrays["lin_w"][:-1]), 15),
    ("knn", lambda arrays: arrays.update(knn_x=arrays["knn_x"][:, :-1]), 15),
    ("mlp", lambda arrays: arrays.update(mlp_w0=arrays["mlp_w0"][:-1]), 15),
    ("cnn", _set_meta("n_features", 20), 20),  # still a 4x4 grid, so the file loads
], ids=["ridge-lin_w-row-cut", "knn-knn_x-column-cut", "mlp-mlp_w0-row-cut", "cnn-n_features"])
def test_a_model_whose_width_is_not_its_pipelines_is_the_model_files_fault(
        lbp_model_files, tmp_path, capsys, kind, edit, width):
    faces, files = lbp_model_files
    model_file = tmp_path / f"{kind}.npz"
    model_file.write_bytes(_rewrite(edit)(files[kind].read_bytes(), files[kind]))
    out = tmp_path / "p.csv"
    capsys.readouterr()
    rc = main(["predict", "--model-file", str(model_file), "--input", str(faces),
               "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (f"facekeys: error: {model_file} holds a model of {width} "
                                       f"input features, but its feature pipeline makes 16\n")
    assert not out.exists()


def test_an_int_member_where_floats_were_stored_still_loads(lbp_model_files, tmp_path):
    faces, files = lbp_model_files
    to_ints = _rewrite(lambda arrays: arrays.update(lin_w=np.rint(arrays["lin_w"]).astype(int)))
    model_file = tmp_path / "ridge.npz"
    model_file.write_bytes(to_ints(files["ridge"].read_bytes(), files["ridge"]))
    out = tmp_path / "p.csv"
    assert main(["predict", "--model-file", str(model_file), "--input", str(faces),
                 "--out", str(out)]) == 0
    model, _ = load_model(model_file)
    assert model.weights.dtype.kind == "i"
    assert np.isfinite(_predictions(out)).all()


def test_predict_equals_a_reference_that_reads_the_file_apart(tmp_path, csv_path):
    # a reader outside the package may rebuild a prediction from
    # load_model's (model, extras), the pipe_* entries and
    # pipeline_from_payload(meta, mapping); facekeys predict must agree
    model_file = tmp_path / "knn.npz"
    assert _train(csv_path, model_file, "--model", "knn", "--lbp", "--pca", "5") == 0
    requests = tmp_path / "images.csv"
    write_image_csv(load_training_csv(csv_path), requests)
    out = tmp_path / "pred.csv"
    assert main(["predict", "--model-file", str(model_file),
                 "--input", str(requests), "--out", str(out)]) == 0

    model, extras = load_model(model_file)
    with np.load(model_file) as data:
        arrays = {k: data[k] for k in data.files if k.startswith("pipe_")}
    pipe = pipeline_from_payload(extras["pipeline"], arrays)
    expected = predict_any(model, pipe.transform(load_image_csv(requests)).values)
    header = out.read_text().splitlines()[0].split(",")
    assert header == [f"{n}_{a}" for n in extras["target_names"] for a in "xy"]
    assert np.array_equal(_predictions(out), expected)


def _csv_module_table(path, header, rows) -> None:
    """The float table as the csv module writes it, repr of each value."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) for v in row] for row in rows)


@pytest.mark.parametrize("model", ["knn", "tree", "ridge"])
def test_predict_writes_the_bytes_of_the_csv_module(tmp_path, csv_path, model):
    model_file = tmp_path / "model.npz"
    assert _train(csv_path, model_file, "--model", model, "--task", "eleven") == 0
    out = tmp_path / "pred.csv"
    assert main(["predict", "--model-file", str(model_file),
                 "--input", str(csv_path), "--out", str(out)]) == 0
    loaded, extras = load_model(model_file)
    pipe = pipeline_from_payload(extras["pipeline"], extras)
    pred = predict_any(loaded, pipe.transform(load_training_csv(csv_path).images).values)
    oracle = tmp_path / "oracle.csv"
    _csv_module_table(oracle, [f"{n}_{a}" for n in extras["target_names"] for a in "xy"], pred)
    assert out.read_bytes() == oracle.read_bytes()


def test_the_prediction_writer_matches_the_csv_module_on_hard_floats(tmp_path):
    rng = np.random.default_rng(5)
    table = rng.normal(size=(40, 6)) * 10.0 ** rng.integers(-300, 300, size=(40, 6))
    table[0] = [0.0, -0.0, 1.0, -1e-320, 5e-324, 1.7976931348623157e308]
    table[1] = [1 / 3, 2 / 3, 0.1, 1e16, 1e-5, -123456789.0]
    columns = [f"c{j}" for j in range(6)]
    ds._write_rows(tmp_path / "rows.csv", columns, table, None)
    _csv_module_table(tmp_path / "oracle.csv", columns, table)
    assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def test_the_prediction_writer_leaves_a_nan_cell_empty(tmp_path):
    ds._write_rows(tmp_path / "rows.csv", ["a", "b"], np.array([[1.5, np.nan]]), None)
    assert (tmp_path / "rows.csv").read_bytes() == b"a,b\r\n1.5,\r\n"


def test_a_diverging_fit_is_a_one_line_error(tmp_path, capsys):
    d = build_dataset()
    keypoints = d.keypoints.copy()
    keypoints[0, 0] = 1e300  # finite, but the std of its column overflows
    path = tmp_path / "huge.csv"
    write_training_csv(dataclasses.replace(d, keypoints=keypoints), path)
    rc = _train(path, tmp_path / "mlp.npz", "--model", "mlp", "--hidden", "4", "--epochs", "1")
    assert rc == 1
    err = capsys.readouterr().err
    assert err == ("facekeys: error: cannot scale the targets: their std overflows float64 "
                   "(largest magnitude 1e+300)\n")
    assert not (tmp_path / "mlp.npz").exists()



def test_a_tree_fit_on_overflowing_targets_is_a_one_line_error(tmp_path, capsys):
    d = build_dataset()
    keypoints = d.keypoints.copy()
    keypoints[0, 0] = 1e300  # finite, but the split scan's sums overflow
    path = tmp_path / "huge.csv"
    write_training_csv(dataclasses.replace(d, keypoints=keypoints), path)
    model_file = tmp_path / "tree.npz"
    assert _train(path, model_file, "--model", "tree") == 1
    err = capsys.readouterr().err
    assert err.startswith("facekeys: error: tree targets must be at most")
    assert len(err.splitlines()) == 1
    assert not model_file.exists()


def test_cnn_rejects_feature_widths_without_a_grid(tmp_path, csv_path, capsys):
    # below 16 features there is no 4x4 grid; any wider row holds one
    model_file = tmp_path / "cnn.npz"
    rc = _train(csv_path, model_file, "--model", "cnn", "--pca", "15", "--epochs", "1")
    assert rc == 1
    assert capsys.readouterr().err == ("facekeys: error: cnn needs at least 16 features for "
                                       "its smallest (4x4) grid; got 15 columns\n")
    assert not model_file.exists()
    assert _train(csv_path, model_file, "--model", "cnn", "--pca", "20", "--epochs", "1") == 0
    model, _ = load_model(model_file)
    assert (model.side, model.n_features) == (4, 20)
    out = tmp_path / "pred.csv"
    assert main(["predict", "--model-file", str(model_file),
                 "--input", str(csv_path), "--out", str(out)]) == 0
    assert np.isfinite(_predictions(out)).all()


def test_train_with_lbp_histogram_features(tmp_path, csv_path):
    model_file = tmp_path / "hist.npz"
    rc = _train(csv_path, model_file, "--model", "knn", "--task", "four",
                "--lbp", "--lbp-mode", "histogram", "--pca", "3")
    assert rc == 0
    out = tmp_path / "pred.csv"
    assert main(["predict", "--model-file", str(model_file),
                 "--input", str(csv_path), "--out", str(out)]) == 0
    assert np.isfinite(_predictions(out)).all()


@pytest.mark.parametrize("flags,named", [
    (("--lbp-neighbors", "12"), "--lbp-neighbors"),
    (("--lbp-radius", "2"), "--lbp-radius"),
    (("--lbp-rotation-invariant",), "--lbp-rotation-invariant"),
    (("--lbp-mode", "histogram"), "--lbp-mode"),
    (("--lbp-mode", "histogram", "--lbp-radius", "2"), "--lbp-radius, --lbp-mode"),
], ids=["neighbors", "radius", "rotation-invariant", "mode", "mode-and-radius"])
def test_train_refuses_lbp_settings_without_lbp(tmp_path, csv_path, capsys, flags, named):
    model_file = tmp_path / "knn.npz"
    assert _train(csv_path, model_file, "--model", "knn", *flags) == 1
    assert capsys.readouterr().err == f"facekeys: error: {named} given without --lbp\n"
    assert not model_file.exists()


def test_train_refuses_no_pixel_scaling_with_lbp(tmp_path, csv_path, capsys):
    model_file = tmp_path / "knn.npz"
    assert _train(csv_path, model_file, "--model", "knn", "--lbp", "--no-pixel-scaling") == 1
    assert capsys.readouterr().err == ("facekeys: error: --no-pixel-scaling given with --lbp, "
                                       "which codes unscaled images\n")
    assert not model_file.exists()


def _subparser(name: str) -> argparse.ArgumentParser:
    return _subparsers(build_parser()).choices[name]


def _run_set_union() -> set[str]:
    return {name for entry in SPEC_KINDS.values() for name in entry.run_set}


def test_train_setting_flags_are_the_run_sets_and_train_settings():
    actions = [a for a in _subparser("train")._actions if a.dest != "help"]
    settings = {a.dest for a in actions if a.default is argparse.SUPPRESS}
    assert settings == _run_set_union() | set(cli._TRAIN_SETTINGS)
    assert {a.dest for a in actions} - settings == {
        "input", "task", "model", "out", "max_rows", "no_pixel_scaling", "lbp", "pca", "variance"}


def test_lbp_setting_flags_are_the_lbp_geometry_fields():
    actions = [a for a in _subparser("lbp")._actions if a.dest != "help"]
    settings = {a.dest for a in actions if a.default is argparse.SUPPRESS}
    assert settings == set(cli._LBP_GEOMETRY) == {
        "lbp_neighbors", "lbp_radius", "lbp_rotation_invariant"}
    assert {a.dest for a in actions} - settings == {"input", "row", "out"}
    assert set(cli._LBP_GEOMETRY) < set(cli._TRAIN_SETTINGS)


def test_a_shared_run_set_name_maps_to_fields_of_one_type():
    for name in _run_set_union():
        kinds = [kind for kind, entry in SPEC_KINDS.items() if name in entry.run_set]
        types = {ev._FIELD_TYPES[ev._config_field(kind, name)] for kind in kinds}
        assert len(types) == 1, (name, kinds, types)


@pytest.mark.parametrize("command, argv, dest, field, text", [
    ("train", ["--hidden", "8,4"], "hidden", "mlp_hidden", "8,4"),
    ("train", ["--max-depth", "none"], "max_depth", "tree_max_depth", "none"),
    ("train", ["--max-depth", "3"], "max_depth", "tree_max_depth", "3"),
    ("train", ["--lbp-rotation-invariant"], "lbp_rotation_invariant",
     "lbp_rotation_invariant", "true"),
    ("train", ["--tol", "1e-3"], "tol", "cd_tol", "1e-3"),
    ("train", ["--optimizer", "sgd"], "optimizer", "optimizer", "sgd"),
    ("train", ["--lbp-radius", "2"], "lbp_radius", "lbp_radius", "2"),
    ("benchmark", ["--models", "knn, ols"], "models", "models", "knn, ols"),
    ("benchmark", ["--max-rows", "none"], "max_rows", "max_rows", "none"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_a_flag_parses_its_text_as_the_config_file_does(tmp_path, command, argv, dest, field,
                                                         text):
    required = ["--model", "knn", "--out", "m.npz"] if command == "train" else []
    args = build_parser().parse_args([command, *required, *argv])
    config = tmp_path / "bench.cfg"
    config.write_text(f"{field} = {text}\n")
    assert getattr(args, dest) == getattr(ev.load_config(config), field)


@pytest.mark.parametrize("command, argv, flag", [
    ("train", ["--k", "three"], "--k"),
    ("train", ["--hidden", "8,x"], "--hidden"),
    ("train", ["--max-depth", "deep"], "--max-depth"),
    ("train", ["--tol", "small"], "--tol"),
    ("train", ["--optimizer", "adam"], "--optimizer"),
    ("train", ["--lbp-mode", "grid"], "--lbp-mode"),
    ("train", ["--seed", "1.5"], "--seed"),
    ("benchmark", ["--seed", "none"], "--seed"),
    ("benchmark", ["--mlp-epochs", "x"], "--mlp-epochs"),
], ids=lambda v: v if isinstance(v, str) and v.startswith("--") else None)
def test_a_bad_flag_value_exits_two_naming_the_flag(command, argv, flag, capsys):
    required = ["--model", "knn", "--out", "m.npz"] if command == "train" else []
    with pytest.raises(SystemExit) as exc:
        main([command, *required, *argv])
    assert exc.value.code == 2
    assert f"argument {flag}: " in capsys.readouterr().err


_SPLIT = ["split", "--out-dir", "d"]
_TRAIN = ["train", "--model", "knn", "--out", "m.npz"]


@pytest.mark.parametrize("argv, dest, text", [
    (_TRAIN + ["--max-rows", "none"], "max_rows", "none"),
    (_TRAIN + ["--max-rows", "50"], "max_rows", "50"),
    (_SPLIT + ["--seed", "3"], "seed", "3"),
    (_SPLIT + ["--train-fraction", "0.75"], "train_fraction", "0.75"),
], ids=["train-max-rows-none", "train-max-rows", "split-seed", "split-train-fraction"])
def test_train_and_split_flags_parse_their_text_as_the_config_file_does(tmp_path, argv, dest,
                                                                         text):
    config = tmp_path / "bench.cfg"
    config.write_text(f"{dest} = {text}\n")
    assert getattr(build_parser().parse_args(argv), dest) == getattr(ev.load_config(config), dest)


def test_train_and_split_flags_keep_their_defaults_and_refuse_bad_text(capsys):
    train, split = build_parser().parse_args(_TRAIN), build_parser().parse_args(_SPLIT)
    assert train.max_rows is None  # train fits every row unless told otherwise
    config = ev.BenchmarkConfig()
    assert (split.seed, split.train_fraction) == (config.seed, config.train_fraction)
    for argv, flag in ((_TRAIN + ["--max-rows", "many"], "--max-rows"),
                       (_SPLIT + ["--seed", "none"], "--seed"),
                       (_SPLIT + ["--train-fraction", "most"], "--train-fraction")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}: " in capsys.readouterr().err


def test_train_max_depth_none_grows_an_unbounded_tree(tmp_path, csv_path):
    model_file = tmp_path / "tree.npz"
    assert _train(csv_path, model_file, "--model", "tree", "--max-depth", "none") == 0
    model, _ = load_model(model_file)
    assert model.max_depth is None


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


def test_a_config_penalty_that_is_not_finite_is_an_error_row(tmp_path, csv_path, capsys):
    # unchecked, the table prints nan
    cfg, report_csv = tmp_path / "bench.cfg", tmp_path / "report.csv"
    cfg.write_text("models = ridge, ols\ntasks = four\npipelines = raw\nridge_lam = nan\n")
    assert main(["benchmark", "--config", str(cfg), "--input", str(csv_path),
                 "--csv", str(report_csv)]) == 0
    out = capsys.readouterr().out
    assert "| ridge | error |" in out
    assert "- ridge/four failed: lam must be a finite number >= 0, got nan\n" in out
    ridge, ols = list(csv.DictReader(io.StringIO(report_csv.read_text())))
    assert (ridge["rmse"], ridge["error"]) == ("", "lam must be a finite number >= 0, got nan")
    assert float(ols["rmse"]) > 0 and ols["error"] == ""


def _captured_config(monkeypatch, argv) -> ev.BenchmarkConfig:
    seen = []

    def run_benchmark(cfg):
        seen.append(cfg)
        return ev.EvalReport()

    monkeypatch.setattr(ev, "run_benchmark", run_benchmark)
    assert main(argv) == 0
    return seen[0]


def test_benchmark_full_sets_study_scale_and_explicit_flags_win(monkeypatch, csv_path):
    base = ["benchmark", "--input", str(csv_path), "--full"]
    cfg = _captured_config(monkeypatch, base)
    assert (cfg.max_rows, cfg.mlp_epochs, cfg.cnn_epochs) == (None, 500, 400)
    cfg = _captured_config(monkeypatch, base + ["--max-rows", "50", "--cnn-epochs", "3"])
    assert (cfg.max_rows, cfg.mlp_epochs, cfg.cnn_epochs) == (50, 500, 3)
    cfg = _captured_config(monkeypatch, ["benchmark", "--input", str(csv_path)])
    assert (cfg.max_rows, cfg.mlp_epochs, cfg.cnn_epochs) == (400, 30, 20)


def test_benchmark_max_rows_none_and_an_empty_list(monkeypatch, csv_path):
    base = ["benchmark", "--input", str(csv_path)]
    cfg = _captured_config(monkeypatch, base + ["--max-rows", "none", "--models", ""])
    assert cfg.max_rows is None
    assert cfg.models == ev.BenchmarkConfig().models  # an empty list sets nothing
    cfg = _captured_config(monkeypatch, base + ["--models", "ols,tree", "--tasks", "four"])
    assert (cfg.models, cfg.tasks) == (("ols", "tree"), ("four",))


def test_benchmark_rejects_unknown_model(tmp_path, csv_path, capsys):
    rc = main(["benchmark", "--input", str(csv_path), "--models", "svm"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("facekeys: error:")


def test_lbp_command_writes_the_basic_code_map(tmp_path, csv_path):
    out = tmp_path / "codes.pgm"
    assert main(["lbp", "--input", str(csv_path), "--row", "2",
                 "--out", str(out)]) == 0
    d = load_training_csv(csv_path)
    expected = lbp_basic(d.images[2]).astype(np.uint8)
    assert np.array_equal(read_pgm(out), expected)


def test_lbp_command_rotation_invariant_variant(tmp_path, csv_path):
    out = tmp_path / "ri.pgm"
    assert main(["lbp", "--input", str(csv_path), "--lbp-rotation-invariant",
                 "--out", str(out)]) == 0
    d = load_training_csv(csv_path)
    expected = lbp_circular(d.images[0], LbpConfig(rotation_invariant=True)).astype(np.uint8)
    assert np.array_equal(read_pgm(out), expected)


def test_lbp_command_circular_wide_codes(tmp_path, csv_path):
    out = tmp_path / "wide.pgm"
    assert main(["lbp", "--input", str(csv_path),
                 "--lbp-neighbors", "12", "--lbp-radius", "2.0",
                 "--out", str(out)]) == 0
    gray = read_pgm(out)
    assert gray.shape == (16, 16)


def test_lbp_command_circular_defaults_to_the_config_geometry(tmp_path, csv_path):
    # --lbp-radius alone: the neighbor count is BenchmarkConfig's
    out = tmp_path / "circular.pgm"
    assert main(["lbp", "--input", str(csv_path), "--lbp-radius", "2",
                 "--out", str(out)]) == 0
    d = load_training_csv(csv_path)
    cfg = LbpConfig(neighbors=ev.BenchmarkConfig().lbp_neighbors, radius=2.0)
    assert np.array_equal(read_pgm(out), lbp_circular(d.images[0], cfg).astype(np.uint8))


@pytest.mark.parametrize("flags, cfg", [
    ((), LbpConfig()),
    (("--lbp-rotation-invariant",), LbpConfig(rotation_invariant=True)),
    (("--lbp-radius", "2"), LbpConfig(radius=2.0)),
    (("--lbp-neighbors", "12", "--lbp-radius", "2"), LbpConfig(neighbors=12, radius=2.0)),
    (("--lbp-neighbors", "16", "--lbp-radius", "2", "--lbp-rotation-invariant"),
     LbpConfig(neighbors=16, radius=2.0, rotation_invariant=True)),
], ids=["default", "rotation-invariant", "r2", "p12-r2", "p16-r2-rotation-invariant"])
def test_lbp_command_renders_the_codes_the_pipeline_trains_on(tmp_path, csv_path, flags, cfg):
    out = tmp_path / "codes.pgm"
    assert main(["lbp", "--input", str(csv_path), "--row", "3", *flags, "--out", str(out)]) == 0
    images = load_training_csv(csv_path).images
    codes = lbp_circular(images[3], cfg)
    trained = fit_pipeline(images, lbp=cfg)[1].values[3].reshape(codes.shape)
    assert np.array_equal(trained, codes)
    reference = tmp_path / "reference.pgm"
    render_lbp(codes, cfg.neighbors, reference)
    assert out.read_bytes() == reference.read_bytes()


@pytest.mark.parametrize("mode", ["pixel_map", "histogram"])
@pytest.mark.parametrize("rotation_invariant", [False, True], ids=["plain", "ri"])
@pytest.mark.parametrize("radius", ["1", "1.5", "2"])
@pytest.mark.parametrize("neighbors", ["8", "12", "16"])
def test_a_model_files_lbp_record_gives_the_codes_training_used(tmp_path, csv_path, neighbors,
                                                               radius, rotation_invariant, mode):
    # lbp_circular on the record alone rebuilds the features the knn stored and
    # the saved pipeline makes: the record is what the codes used
    flags = ["--lbp-neighbors", neighbors, "--lbp-radius", radius, "--lbp-mode", mode]
    flags += ["--lbp-rotation-invariant"] * rotation_invariant
    model_file = tmp_path / "knn.npz"
    assert _train(csv_path, model_file, "--model", "knn", "--lbp", *flags) == 0
    model, extras = load_model(model_file)
    cfg = LbpConfig(**extras["pipeline"]["lbp"])
    assert (cfg.neighbors, cfg.radius, cfg.rotation_invariant) == (
        int(neighbors), float(radius), rotation_invariant)
    images = split_by_keypoint_coverage(load_training_csv(csv_path))[0].images  # task four
    codes = lbp_circular(images, cfg)
    features = (lbp_histogram_features(codes, cfg) if mode == "histogram"
                else codes.reshape(len(images), -1).astype(np.float64))
    assert np.array_equal(model.X, features)  # a knn keeps its training rows
    pipe = pipeline_from_payload(extras["pipeline"], extras)
    assert np.array_equal(pipe.transform(images).values, features)


@pytest.mark.parametrize("flag", [("--circular",), ("--neighbors", "12"), ("--radius", "2"),
                                  ("--rotation-invariant",)],
                         ids=["circular", "neighbors", "radius", "rotation-invariant"])
def test_lbp_command_refuses_the_removed_flags(tmp_path, csv_path, capsys, flag):
    out = tmp_path / "x.pgm"
    with pytest.raises(SystemExit) as exc:
        main(["lbp", "--input", str(csv_path), *flag, "--out", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not out.exists()


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
    # an argument-only check comes before the input is read
    assert main(["pca", "--input", str(tmp_path / "missing.csv"),
                 "--out", str(tmp_path / "p.npz")]) == 1
    err = capsys.readouterr().err
    assert err.count("exactly one of") == 3


def test_lbp_on_an_image_over_the_csv_field_limit_is_a_one_line_error(tmp_path, capsys):
    # a 200x200 image's Image cell is over csv's default limit of 131072 characters
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(2, 200, 200), dtype=np.uint8)
    keypoints = rng.uniform(0.0, 200.0, size=(2, 2 * len(SLOT_NAMES)))
    path = tmp_path / "large.csv"
    write_training_csv(Dataset(images, keypoints, SLOT_NAMES), path)
    out = tmp_path / "x.pgm"
    assert main(["lbp", "--input", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("facekeys: error: row 0: field larger than field limit")
    assert err.count("\n") == 1 and err.count("facekeys: error:") == 1
    assert not out.exists()


def test_visualize_keypoint_overlay(tmp_path, csv_path):
    out = tmp_path / "overlay.ppm"
    assert main(["visualize", "--input", str(csv_path), "--mode", "keypoints",
                 "--row", "1", "--out", str(out)]) == 0
    assert read_ppm(out).shape == (16, 16, 3)


def test_visualize_scatter_needs_a_slot(tmp_path, csv_path, capsys):
    for source in (csv_path, tmp_path / "missing.csv"):
        rc = main(["visualize", "--input", str(source), "--mode", "scatter",
                   "--out", str(tmp_path / "s.ppm")])
        assert rc == 1
        assert "needs --slot" in capsys.readouterr().err


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("facekeys ")]
    assert len(lines) >= 10
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line, comments=True)[1:])
