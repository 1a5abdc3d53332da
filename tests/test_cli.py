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
from facekeys.lbp import LbpConfig, _min_rotations, lbp_basic, lbp_circular, lbp_codes
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
    widths = tuple(int(v) for v in hidden.split(","))
    err = capsys.readouterr().err
    assert err == f"facekeys: error: mlp hidden widths must be at least 1, got {widths}\n"
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
    (("--max-iter", "0"), "max_iter must be at least 1"),
    (("--tol", "0"), "tol must be positive"),
])
def test_train_rejects_bad_coordinate_descent_settings(tmp_path, csv_path, capsys, bad, fragment):
    model_file = tmp_path / "model.npz"
    assert _train(csv_path, model_file, "--task", "four", "--model", "lasso", *bad) == 1
    err = capsys.readouterr().err
    assert err.startswith("facekeys: error:") and fragment in err
    assert len(err.splitlines()) == 1
    assert not model_file.exists()


@pytest.mark.parametrize("lbp", [(), ("--lbp",)], ids=["raw", "lbp"])
def test_predict_names_the_shape_a_pca_model_was_given(tmp_path, csv_path, capsys, lbp):
    # a 16x16 model asked about 8x8 images: the error names both shapes
    model_file = tmp_path / "knn.npz"
    assert _train(csv_path, model_file, "--model", "knn", "--pca", "16", *lbp) == 0
    small = tmp_path / "small.csv"
    write_image_csv(build_dataset(side=8), small)
    capsys.readouterr()
    rc = main(["predict", "--model-file", str(model_file),
               "--input", str(small), "--out", str(tmp_path / "p.csv")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "facekeys: error: X must be (n, 256) rows, got shape (30, 64)\n")


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
    assert err.startswith("facekeys: error:") and fragment in err
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
    (("--model", "knn", "--k", "3"), _set_meta("k", 0), "k must be in [1, "),
    (("--model", "knn", "--k", "3"), _one_dimensional_knn_y, "2-d with matching row counts"),
    (("--model", "mlp", "--hidden", "4", "--epochs", "1"), _set_meta("n_layers", 9),
     "n_layers is 9"),
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
    assert err.startswith("facekeys: error:") and fragment in err
    assert len(err.splitlines()) == 1



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
    (_drop_array("pipe_pca_mean"), "no array 'pipe_pca_mean'"),
    (_edit_extras(lambda e: e.pop("target_names")), "has no extra 'target_names'"),
    (_edit_extras(lambda e: e["target_names"].pop()), "names 6 target columns"),
    (_cut_array("pipe_pca_mean"), "do not fit together: pipe_pca_mean (255,)"),
    (_cut_array("pipe_pca_components", axis=1), "pipe_pca_components (5, 255)"),
], ids=["no-scale_pixels", "no-lbp_mode", "lbp-unknown-key", "no-pipe_pca_mean",
        "no-target_names", "short-target_names", "short-pipe_pca_mean",
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
    """The training CSV and one `--lbp --pca 16` model file per kind of _KIND_MEMBERS."""
    directory = tmp_path_factory.mktemp("models")
    faces = directory / "faces.csv"
    write_training_csv(build_dataset(), faces)
    files = {kind: directory / f"{kind}.npz" for kind in _KIND_MEMBERS}
    for kind, (flags, _) in _KIND_MEMBERS.items():
        assert _train(faces, files[kind], "--model", kind, *flags, "--lbp", "--pca", "16") == 0
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
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices[name]


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
    expected = _min_rotations(lbp_circular(d.images[0], LbpConfig()), 8).astype(np.uint8)
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
    codes = lbp_codes(images[3], cfg)
    trained = fit_pipeline(images, lbp=cfg)[1].values[3].reshape(codes.shape)
    assert np.array_equal(trained, codes)
    reference = tmp_path / "reference.pgm"
    render_lbp(codes, cfg.neighbors, reference)
    assert out.read_bytes() == reference.read_bytes()


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
