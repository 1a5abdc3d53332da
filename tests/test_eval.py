import dataclasses
import errno
import math
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import facekeys.eval as eval_module
from conftest import build_dataset
from facekeys.dataset import (
    holdout_split,
    impute_column_means,
    load_training_csv,
    split_by_keypoint_coverage,
    write_training_csv,
)
from facekeys.eval import (
    ALL_MODELS,
    DEFAULT_MODELS,
    TASK_LABELS,
    BenchmarkConfig,
    STUDY_SCALE,
    EvalError,
    format_report,
    load_config,
    load_tasks,
    mean_predictor_rmse,
    rmse,
    run_benchmark,
    spec_for,
    split_task,
)
from facekeys.lbp import LbpConfig, LbpError
from facekeys.pipeline import fit_pipeline
from facekeys.regressors import RegressorSpec, fit_any, predict_any
from readers import load_report_csv


@pytest.fixture
def bench_csv(tmp_path):
    ds = build_dataset(n_rows=60, side=16, seed=5, sparse_missing_rows=20,
                       core_missing_cells=2)
    path = tmp_path / "bench.csv"
    write_training_csv(ds, path)
    return str(path)


# ---- metric -----------------------------------------------------------------


def test_rmse_hand_arithmetic():
    preds = [[1.0, 2.0], [3.0, 4.0]]
    truth = [[1.0, 2.0], [3.0, 0.0]]
    assert rmse(preds, truth) == pytest.approx(2.0)  # sqrt(16 / 4)
    assert rmse(truth, truth) == 0.0


def test_rmse_invariances():
    rng = np.random.default_rng(0)
    P = rng.normal(size=(10, 4))
    T = rng.normal(size=(10, 4))
    base = rmse(P, T)
    perm = rng.permutation(10)
    assert rmse(P[perm], T[perm]) == pytest.approx(base, rel=1e-12)
    assert rmse(P + 3.5, T + 3.5) == pytest.approx(base, rel=1e-9)


def test_rmse_validation():
    with pytest.raises(EvalError, match="shape"):
        rmse(np.zeros((2, 2)), np.zeros((3, 2)))
    with pytest.raises(EvalError, match="empty"):
        rmse(np.zeros((0, 2)), np.zeros((0, 2)))


def test_mean_predictor_rmse_hand_values():
    Y_train = np.array([[0.0], [2.0]])
    Y_test = np.array([[1.0], [3.0]])
    assert mean_predictor_rmse(Y_train, Y_test) == pytest.approx(math.sqrt(2.0))


def face_like(n_rows: int, side: int, seed: int):
    """Seeded face-like fixture: (n, side, side) pixels in [0, 1] and (n, 8)
    targets in 96-pixel units. Each face moves and scales a template of
    four keypoints (eyes, nose, lip), and each keypoint is a dark Gaussian
    blob on a grey face with pixel noise, so the pixels locate the targets."""
    rng = np.random.default_rng(seed)
    template, centre = np.array([(66.0, 38.0), (30.0, 38.0), (48.0, 62.0), (48.0, 79.0)]), 48.0
    kp = (centre + rng.uniform(0.85, 1.15, (n_rows, 1, 1)) * (template - centre)
          + rng.normal(0.0, 6.0, (n_rows, 1, 2)) + rng.normal(0.0, 1.0, (n_rows, 4, 2)))
    axis = (np.arange(side) + 0.5) * 96.0 / side
    gx, gy = (np.exp(-((axis - kp[:, :, a : a + 1]) ** 2) / 72.0) for a in (0, 1))
    pixels = 160.0 - 100.0 * np.einsum("nkh,nkw->nhw", gy, gx)
    pixels += rng.normal(0.0, 8.0, pixels.shape)
    return np.clip(pixels, 0.0, 255.0) / 255.0, kp.reshape(n_rows, 8)


def test_the_networks_beat_the_mean_predictor_on_faces():
    # at these epochs the mlp scores 3.47 and the cnn 5.37 px against the
    # mean predictor's 7.50
    grids, Y = face_like(120, 16, seed=0)
    X = grids.reshape(120, -1)
    train, test = slice(0, 100), slice(100, None)
    baseline = mean_predictor_rmse(Y[train], Y[test])
    for kind, hp in (("mlp", {"epochs": 15}), ("cnn", {"epochs": 8})):
        model = fit_any(RegressorSpec(kind, hp, seed=0), X[train], Y[train])
        score = rmse(predict_any(model, X[test]), Y[test])
        assert score < 0.8 * baseline, (kind, score, baseline)


# ---- configuration -----------------------------------------------------------


def test_config_validation():
    for setting, bad, message in [
        ("models", ("svm",), f"unknown model 'svm'; expected one of {ALL_MODELS}"),
        ("pipelines", ("fourier",),
         "unknown pipeline 'fourier'; expected one of ('raw', 'lbp_pca')"),
        ("tasks", ("nine",), "unknown task 'nine'; expected one of ('eleven', 'four')"),
        # an unhashable value was a TypeError from the dict lookup
        ("tasks", (["four"],), "unknown task ['four']; expected one of ('eleven', 'four')"),
        ("lbp_mode", np.array("histogram"),
         "unknown lbp_mode array('histogram', dtype='<U9'); "
         "expected one of ('pixel_map', 'histogram')"),
    ]:
        with pytest.raises(EvalError) as exc:
            BenchmarkConfig(**{setting: bad})
        assert str(exc.value) == message
    # the cnn reads its grid from any width (cnn.grid_side); a fit narrower
    # than 16 features fails in its own row
    for ok in (4, 16, 20, 64, 144, 179, 255, 256):
        BenchmarkConfig(models=("cnn",), pca_components=ok)


def test_desk_scale_caps():
    cfg = BenchmarkConfig()
    assert (cfg.max_rows, cfg.mlp_epochs, cfg.cnn_epochs) == (400, 30, 20)
    assert spec_for(cfg, "mlp").hyperparameters["epochs"] == 30
    assert spec_for(cfg, "cnn").hyperparameters["epochs"] == 20
    study = BenchmarkConfig(**STUDY_SCALE)
    assert (study.max_rows, study.mlp_epochs, study.cnn_epochs) == (None, 500, 400)
    assert spec_for(study, "mlp").hyperparameters["epochs"] == 500
    assert spec_for(study, "cnn").hyperparameters["epochs"] == 400
    for name in ("mlp_epochs", "cnn_epochs"):
        for bad in (None, True, 2.5, -1):  # True passed an isinstance(e, int) test
            with pytest.raises(EvalError) as exc:
                BenchmarkConfig(**{name: bad})
            assert str(exc.value) == f"{name} must be an integer >= 0, got {bad!r}"


def test_load_config_round_trip(tmp_path):
    text = """
# benchmark settings
training_csv = data/things.csv
models = knn, ols   # trailing comment
tasks = four
seed = 11
train_fraction = 0.8
scale_pixels = false
max_rows = none
mlp_hidden = 20, 10
lbp_radius = 2.0
"""
    path = tmp_path / "bench.cfg"
    path.write_text(text)
    cfg = load_config(path)
    assert cfg.training_csv == "data/things.csv"
    assert cfg.models == ("knn", "ols")
    assert cfg.tasks == ("four",)
    assert cfg.seed == 11
    assert cfg.train_fraction == 0.8
    assert cfg.scale_pixels is False
    assert cfg.max_rows is None
    assert cfg.mlp_hidden == (20, 10)
    assert cfg.lbp_radius == 2.0
    # untouched keys keep their defaults
    assert cfg.pipelines == ("raw", "lbp_pca")


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("volume = 11", "unknown key"),
        ("just some words", "key = value"),
        ("scale_pixels = maybe", "true or false"),
        ("seed = x", "seed must be an integer"),
        ("lasso_alpha = lots", "lasso_alpha must be a number"),
        ("mlp_hidden = 20, ten", "mlp_hidden must be an integer"),
        ("seed = none", "seed must be an integer"),
        ("knn_k = None", "knn_k must be an integer"),
        ("mlp_epochs = none", "mlp_epochs must be an integer"),
        ("cnn_epochs = NONE", "cnn_epochs must be an integer"),
        ("full = true", "unknown key"),
        # refused when the config is built, which named neither the file nor the line
        ("lbp_radius = nan", "lbp_radius must be a finite number above 0, got nan"),
        ("pipelines = raw,pixels", "unknown pipeline 'pixels'; expected one of ('raw', 'lbp_pca')"),
    ],
)
def test_load_config_errors_name_the_line(tmp_path, line, fragment):
    path = tmp_path / "bad.cfg"
    path.write_text("seed = 3\n" + line + "\n")
    with pytest.raises(EvalError) as exc:
        load_config(path)
    assert fragment in str(exc.value)
    assert ":2:" in str(exc.value)


def test_load_config_takes_none_for_caps_and_depth_only(tmp_path):
    path = tmp_path / "uncapped.cfg"
    path.write_text("max_rows = none\ntree_max_depth = NONE\n")
    cfg = load_config(path)
    assert (cfg.max_rows, cfg.tree_max_depth) == (None, None)


def test_load_config_refuses_a_key_set_twice(tmp_path):
    # unchecked, the last line won: this file ran with seed 2
    path = tmp_path / "twice.cfg"
    path.write_text("seed = 1\nmodels = knn\n\nseed = 2\n")
    with pytest.raises(EvalError) as exc:
        load_config(path)
    assert str(exc.value) == f"{path}:4: seed is already set on line 1"


# ---- benchmark runs ------------------------------------------------------------


@pytest.mark.parametrize("setting, bad, error, message", [
    ("max_rows", -5, EvalError, "max_rows must be an integer >= 1, got -5"),
    ("max_rows", 0, EvalError, "max_rows must be an integer >= 1, got 0"),
    ("max_rows", 2.5, EvalError, "max_rows must be an integer >= 1, got 2.5"),
    ("seed", -1, ValueError, "seed must be an integer >= 0, got -1"),
    ("seed", 2.5, ValueError, "seed must be an integer >= 0, got 2.5"),
    ("seed", True, ValueError, "seed must be an integer >= 0, got True"),
    ("train_fraction", 1.5, EvalError,
     "train_fraction must be a finite number in (0, 1), got 1.5"),
    ("pca_components", 0, EvalError, "pca_components must be an integer >= 1, got 0"),
    ("lbp_radius", math.nan, EvalError, "lbp_radius must be a finite number above 0, got nan"),
    ("lbp_neighbors", 63, EvalError, "lbp_neighbors must be an integer in [4, 62], got 63"),
    ("lbp_mode", "spiral", EvalError,
     "unknown lbp_mode 'spiral'; expected one of ('pixel_map', 'histogram')"),
])
def test_a_bad_row_cap_or_seed_stops_the_run(tmp_path, setting, bad, error, message):
    # unchecked, max_rows -5 dropped 5 random rows, 0 failed in column_means and 2.5 in a
    # slice; seed -1 gave mlp error rows, 2.5 a bare TypeError, and True ran as seed 1;
    # train_fraction 1.5 failed after the CSV was decoded, and pca_components 0 and a bad
    # LBP setting ran to lbp_pca error rows. Each is now refused when the config is built,
    # before any data is read: the CSV here does not exist
    with pytest.raises(error) as exc:
        run_benchmark(BenchmarkConfig(training_csv=str(tmp_path / "missing.csv"),
                                      models=("knn", "mlp"), pipelines=("raw",), mlp_epochs=1,
                                      **{setting: bad}))
    assert str(exc.value) == message


def test_benchmark_covers_the_configured_grid(bench_csv):
    cfg = BenchmarkConfig(training_csv=bench_csv, max_rows=None, cd_max_iter=60)
    report = run_benchmark(cfg)
    keys = {(r.model, r.pipeline, r.task) for r in report.rows}
    assert len(report.rows) == 6 * 2 * 2
    assert keys == {
        (m, p, t)
        for m in DEFAULT_MODELS
        for p in ("raw", "lbp_pca")
        for t in ("eleven", "four")
    }
    for r in report.rows:
        assert r.error is None, f"{r.model}/{r.pipeline}/{r.task}: {r.error}"
        assert r.rmse is not None and np.isfinite(r.rmse) and r.rmse >= 0
        assert r.seed == cfg.seed
    four = next(r for r in report.rows if r.task == "four")
    eleven = next(r for r in report.rows if r.task == "eleven")
    assert (four.n_train, four.n_test) == (54, 6)      # floor(0.9 * 60)
    assert (eleven.n_train, eleven.n_test) == (36, 4)  # floor(0.9 * 40)


def test_benchmark_all_models_deterministic_and_byte_identical(bench_csv):
    cfg = BenchmarkConfig(
        training_csv=bench_csv, models=ALL_MODELS, max_rows=40,
        mlp_epochs=1, cnn_epochs=1, mlp_hidden=(8,), cd_max_iter=30,
    )
    a = format_report(run_benchmark(cfg), style="csv")
    b = format_report(run_benchmark(cfg), style="csv")
    assert a == b
    assert len(a.splitlines()) == 1 + 8 * 2 * 2


def test_benchmark_cnn_row_fits_the_first_grid_columns(bench_csv, monkeypatch):
    # every kind gets the same 40 PCA columns; the cnn reads the first 16 as its 4x4 grid.
    # The calls are keyed by kind and by model: a cnn fit on a worker may end after knn's.
    fits, predicts = {}, {}

    def fit_and_keep(spec, X, Y):
        fits[spec.kind] = (spec, X, Y, fit_any(spec, X, Y))
        return fits[spec.kind][-1]

    def predict_and_keep(model, X):
        predicts[id(model)] = (X, predict_any(model, X))
        return predicts[id(model)][-1]

    # one worker: a forked knn fit could not report the arrays it was given
    _force_workers(monkeypatch, 1)
    monkeypatch.setattr(eval_module, "fit_any", fit_and_keep)
    monkeypatch.setattr(eval_module, "predict_any", predict_and_keep)
    cfg = BenchmarkConfig(training_csv=bench_csv, models=("cnn", "knn"), tasks=("four",),
                          pipelines=("lbp_pca",), pca_components=40, cnn_epochs=2)
    rows = run_benchmark(cfg).rows
    assert [r.error for r in rows] == [None, None]
    (spec, X, Y, model), (_, knn_X, _, knn_model) = fits["cnn"], fits["knn"]
    (X_test, pred), (knn_X_test, _) = predicts[id(model)], predicts[id(knn_model)]
    assert X.shape[1] == 40 and X is knn_X and X_test is knn_X_test
    assert (model.side, model.n_features) == (4, 40)
    ref = fit_any(spec, X[:, :16], Y)
    assert predict_any(ref, X_test[:, :16]).tobytes() == pred.tobytes()


def test_benchmark_isolates_per_model_failures(bench_csv):
    cfg = BenchmarkConfig(
        training_csv=bench_csv, models=("knn", "ols"), knn_k=10_000,
        tasks=("four",), pipelines=("raw",),
    )
    report = run_benchmark(cfg)
    by_model = {r.model: r for r in report.rows}
    assert by_model["knn"].rmse is None
    assert "k must be" in by_model["knn"].error
    assert by_model["ols"].error is None and by_model["ols"].rmse is not None


def test_a_failed_pipeline_makes_its_rows_errors_that_keep_their_hyperparameters(bench_csv):
    # fails at the parent: there a failed pipeline's rows carry hyperparameters {}.
    # Radius 8 needs 17x17 images, so every lbp_pca row fails while the raw rows fit
    with pytest.raises(LbpError) as lbp:
        fit_pipeline(load_tasks(bench_csv)["four"].images, lbp=LbpConfig(radius=8))
    cfg = BenchmarkConfig(training_csv=bench_csv, models=("knn", "ridge"), lbp_radius=8)
    report = run_benchmark(cfg)
    assert [(r.model, r.pipeline) for r in report.rows] == [
        (kind, pipeline) for pipeline in ("raw", "lbp_pca") for kind in ("knn", "ridge")] * 2
    for r in report.rows:
        assert r.hyperparameters == spec_for(cfg, r.model).hyperparameters != {}
        failed = r.pipeline == "lbp_pca"
        assert (r.error, r.rmse is None) == ((str(lbp.value), True) if failed else (None, False))
    message = str(lbp.value)
    assert f'knn,lbp_pca,four,,54,6,7,"{{""k"": 5}}","{message}"' in \
        format_report(report, style="csv").splitlines()


def test_benchmark_train_only_means_variant(bench_csv):
    cfg = BenchmarkConfig(
        training_csv=bench_csv, models=("ols",), tasks=("four",),
        pipelines=("raw",), train_only_means=True,
    )
    report = run_benchmark(cfg)
    assert len(report.rows) == 1
    assert report.rows[0].error is None
    assert np.isfinite(report.rows[0].rmse)


def test_benchmark_seed_changes_the_partition(bench_csv):
    base = BenchmarkConfig(training_csv=bench_csv, models=("knn",),
                           tasks=("four",), pipelines=("raw",))
    a = run_benchmark(base).rows[0].rmse
    b = run_benchmark(dataclasses.replace(base, seed=99)).rows[0].rmse
    assert a != b  # different holdout, different score


# ---- cells in a forked child and on worker threads --------------------------------
#
# At the default BLAS threads of a host, the worker rule runs every cell
# inline; these tests force the worker count through _workers. A fork needs a
# process with one thread, which a live OpenBLAS pool is not, so the tests that
# must see a fork run their benchmark in a subprocess at one BLAS thread.


def _force_workers(monkeypatch, workers: int) -> None:
    monkeypatch.setattr(eval_module, "_workers", lambda: workers)


def _small_nets(bench_csv, **fields) -> BenchmarkConfig:
    return BenchmarkConfig(**{
        "training_csv": bench_csv, "models": ALL_MODELS, "max_rows": 40, "mlp_epochs": 1,
        "cnn_epochs": 1, "mlp_hidden": (8,), "cd_max_iter": 30, **fields,
    })


def _same_rows(a, b) -> bool:
    return (a.slot_names == b.slot_names and np.array_equal(a.images, b.images)
            and np.array_equal(a.keypoints, b.keypoints, equal_nan=True))


def test_load_tasks_maps_each_task_to_its_coverage_subset(bench_csv):
    dense, sparse = split_by_keypoint_coverage(load_training_csv(bench_csv))
    tasks = load_tasks(bench_csv)
    assert list(tasks) == list(TASK_LABELS)
    assert _same_rows(tasks["four"], dense) and _same_rows(tasks["eleven"], sparse)


def test_split_task_holds_out_the_task_rows_filled_by_their_means(bench_csv):
    d = load_tasks(bench_csv)["four"]
    assert np.isnan(d.keypoints).any()
    cfg = BenchmarkConfig(seed=3, train_fraction=0.75, max_rows=None)
    # the holdout depends only on the row count: filling before it gives the same rows
    for got, want in zip(split_task(cfg, d, "four"),
                         holdout_split(impute_column_means(d), 0.75, 3)):
        assert _same_rows(got, want)
    train_only = dataclasses.replace(cfg, train_only_means=True)
    train_rows = holdout_split(d, 0.75, 3)[0]
    assert _same_rows(split_task(train_only, d, "four")[0], impute_column_means(train_rows))
    capped = split_task(dataclasses.replace(cfg, max_rows=25), d, "four")
    assert [len(part) for part in capped] == [18, 7]


def test_network_cells_fit_side_by_side(bench_csv, monkeypatch):
    # fails at the parent: its fits run one after the other, so the barrier breaks
    barrier = threading.Barrier(2, timeout=10)

    def fit_at_the_barrier(spec, X, Y):
        barrier.wait()
        return fit_any(spec, X, Y)

    _force_workers(monkeypatch, 2)
    monkeypatch.setattr(eval_module, "fit_any", fit_at_the_barrier)
    cfg = _small_nets(bench_csv, models=("mlp", "cnn"), tasks=("four",), pipelines=("lbp_pca",))
    rows = run_benchmark(cfg).rows
    assert [(r.model, r.error) for r in rows] == [("mlp", None), ("cnn", None)]


def _run_script(script: str, *args) -> str:
    """script's stdout, run by a fresh interpreter at one BLAS thread (so it may fork) with
    a DeprecationWarning an error, as pyproject.toml makes it; a nonzero exit fails."""
    done = subprocess.run([sys.executable, "-W", "error::DeprecationWarning", "-c", script,
                           *map(str, args)], env=_one_blas_thread_env(), capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _one_blas_thread_env() -> dict:
    return {**os.environ, **dict.fromkeys(eval_module._BLAS_THREAD_VARS, "1"),
            "PYTHONPATH": str(Path(eval_module.__file__).parents[1])}


#: A script's set-up: argv is the training CSV, the worker count and a file to which
#: record(spec) appends "kind pid thread" for the fit of spec
_SCRIPT = """
import os, signal, sys, threading, time
import facekeys.eval as E
from facekeys.regressors import fit_any

MAIN = os.getpid()
E._workers = lambda: int(sys.argv[2])

def record(spec):
    where = "main" if threading.current_thread() is threading.main_thread() else "worker"
    with open(sys.argv[3], "a") as fh:
        fh.write(f"{spec.kind} {os.getpid()} {where}\\n")

def recorded(spec, X, Y):
    record(spec)
    return fit_any(spec, X, Y)

def small(**fields):
    return E.BenchmarkConfig(**{"training_csv": sys.argv[1], "max_rows": 40, "mlp_epochs": 1,
                                "cnn_epochs": 1, "mlp_hidden": (8,), "cd_max_iter": 30,
                                "tasks": ("four",), **fields})
"""


def _fits(path) -> list[tuple[str, int, str]]:
    """The (kind, pid, thread) records of a _SCRIPT run, in the order written."""
    return [(kind, int(pid), where) for kind, pid, where in
            (line.split() for line in Path(path).read_text().splitlines())]


_WHICH_PROCESS = _SCRIPT + """
cfg = small(models=E.ALL_MODELS, pipelines=("lbp_pca",))
E._workers = lambda: 1
inline = E.format_report(E.run_benchmark(cfg), "csv")
E._workers = lambda: int(sys.argv[2])
E.fit_any = recorded
report = E.run_benchmark(cfg)
assert all(r.error is None for r in report.rows), report.rows
assert E.format_report(report, "csv") == inline
print(MAIN)
"""


@pytest.mark.parametrize("workers", [1, 2])
def test_which_process_fits_each_kind(bench_csv, tmp_path, workers):
    # fails at the parent: every kind fits in the calling process, and at 1 worker the
    # network cells still go to threads (the parent counts its own CPUs). With 2, the
    # forked kinds fit in one child, lasso and elastic on the calling thread and the
    # networks on worker threads; the report is the inline one, byte for byte
    main = int(_run_script(_WHICH_PROCESS, bench_csv, workers, tmp_path / "fits.txt"))
    fits = _fits(tmp_path / "fits.txt")
    assert sorted(kind for kind, _, _ in fits) == sorted(ALL_MODELS)
    where = {kind: (pid, thread) for kind, pid, thread in fits}
    if workers < 2:
        assert set(where.values()) == {(main, "main")}
        return
    children = {where[kind][0] for kind in eval_module.FORKED_KINDS}
    assert len(children) == 1 and main not in children
    assert {where[kind] for kind in eval_module.FORKED_KINDS} == {(children.pop(), "main")}
    assert where["lasso"] == where["elastic"] == (main, "main")
    assert where["mlp"] == where["cnn"] == (main, "worker")


_THREAD_LIVE = _SCRIPT + """
E.fit_any = recorded
cfg = small(models=("knn", "tree"), pipelines=("raw",))
stop = threading.Event()
sleeper = threading.Thread(target=stop.wait)
sleeper.start()
E.run_benchmark(cfg)
stop.set()
sleeper.join()
E.run_benchmark(cfg)
print(MAIN)
"""


def test_no_fork_while_another_thread_is_live(bench_csv, tmp_path):
    # fails at the parent: its second run fits in the calling process too
    main = int(_run_script(_THREAD_LIVE, bench_csv, 2, tmp_path / "fits.txt"))
    fits = _fits(tmp_path / "fits.txt")
    assert [kind for kind, _, _ in fits] == ["knn", "tree"] * 2
    assert {pid for _, pid, _ in fits[:2]} == {main}  # a sleeping thread: inline
    child = fits[2][1]
    assert child != main and fits[3][1] == child  # alone again: one child fits both


_KILLED = _SCRIPT + """
def fit(spec, X, Y):
    if spec.kind == "ridge" and os.getpid() != MAIN:
        os.kill(os.getpid(), signal.SIGKILL)
    return fit_any(spec, X, Y)

E.fit_any = fit
for row in E.run_benchmark(small(models=("knn", "ols", "ridge", "lasso", "tree"),
                                 pipelines=("raw",))).rows:
    print(row.model, row.rmse is not None, row.error, sep=",")
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child left")
"""


def test_a_killed_child_makes_only_its_unsent_rows_errors(bench_csv):
    # fails at the parent: the ridge fit runs in the calling process and is not killed
    lost = "the cell's process was killed by SIGKILL before sending its row"
    assert _run_script(_KILLED, bench_csv, 2).splitlines() == [
        "knn,True,None", "ols,True,None", f"ridge,False,{lost}", "lasso,True,None",
        f"tree,False,{lost}", "no child left"]


_INTERRUPTED_FORK = _SCRIPT + """
signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

def fit(spec, X, Y):
    if spec.kind == "knn":
        print(os.getpid(), flush=True)
        time.sleep(60)
    return fit_any(spec, X, Y)

E.fit_any = fit
try:
    E.run_benchmark(small(models=("knn", "lasso"), pipelines=("raw",)))
finally:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        print("no child left", flush=True)
"""


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=["ctrl-c", "sigterm"])
def test_an_interrupt_ends_the_forked_cells_in_flight(bench_csv, signum):
    # fails at the parent: the knn fit sleeps in the calling process, not in a child.
    # The script turns SIGTERM into SystemExit, as a caller that cleans up does
    run = subprocess.Popen([sys.executable, "-c", _INTERRUPTED_FORK, bench_csv, "2"],
                           env=_one_blas_thread_env(), stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True)
    try:
        child = int(run.stdout.readline())
        assert child != run.pid
        sent = time.monotonic()
        run.send_signal(signum)
        out, _ = run.communicate(timeout=10)
        assert time.monotonic() - sent < 10
        assert run.returncode != 0 and out == "no child left\n"
        with pytest.raises(ProcessLookupError):
            os.kill(child, 0)
    finally:
        if run.poll() is None:
            run.kill()
        run.communicate()


def test_a_lone_network_cell_fits_on_the_calling_thread(bench_csv, monkeypatch):
    # fails at the parent only for want of _workers to force: the threads' semaphore
    # takes min(workers, network cells), and one cell starts no thread
    threads = []

    def fit_and_record(spec, X, Y):
        threads.append(threading.current_thread())
        return fit_any(spec, X, Y)

    _force_workers(monkeypatch, 8)
    monkeypatch.setattr(eval_module, "fit_any", fit_and_record)
    rows = run_benchmark(_small_nets(bench_csv, models=("mlp",), tasks=("four",),
                                     pipelines=("raw",))).rows
    assert [r.error for r in rows] == [None]
    assert threads == [threading.current_thread()]


@pytest.mark.parametrize("cpus, env, cells, workers", [
    (2, {"OPENBLAS_NUM_THREADS": "1"}, 8, 2),
    (2, {}, 8, 1),  # one BLAS thread per CPU by default: inline
    (4, {"OMP_NUM_THREADS": "2"}, 8, 2),
    (2, {"OPENBLAS_NUM_THREADS": "one"}, 8, 1),  # not an integer: unset
    (2, {"OPENBLAS_NUM_THREADS": "0", "MKL_NUM_THREADS": "1"}, 8, 2),  # not positive: unset
    (2, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 8, 1),  # the first set wins
    (8, {"OPENBLAS_NUM_THREADS": "1"}, 3, 3),  # the threads' semaphore: one per network cell
    (8, {"OPENBLAS_NUM_THREADS": "1"}, 0, 0),
])
def test_worker_rule(monkeypatch, cpus, env, cells, workers):
    # fails at the parent: it has no _workers. The network threads' semaphore takes
    # min(workers, network cells) slots, so `workers` is that for `cells` cells
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    assert min(eval_module._workers(), cells) == workers
    # without an affinity call, the CPU count
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert min(eval_module._workers(), cells) == workers


def test_workers_give_the_inline_report(bench_csv, monkeypatch):
    # fails at the parent only for want of _workers to force. 8 workers fit all 8
    # network cells at once, more than the CPUs, and a short switch interval
    # interleaves them finely; at one BLAS thread the forked kinds also fit in children
    reports = []
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-5)
        for workers in (1, 2, 8):
            _force_workers(monkeypatch, workers)
            reports.append(format_report(run_benchmark(_small_nets(bench_csv)), style="csv"))
    finally:
        sys.setswitchinterval(interval)
    assert reports[0] == reports[1] == reports[2]
    assert len(reports[0].splitlines()) == 1 + 8 * 2 * 2


def test_a_failing_pooled_fit_is_only_its_own_rows_error(bench_csv, monkeypatch):
    # fails at the parent only for want of _workers to force
    def fit_or_fail(spec, X, Y):
        if spec.kind == "cnn":
            raise RuntimeError("cnn broke")
        return fit_any(spec, X, Y)

    _force_workers(monkeypatch, 2)
    monkeypatch.setattr(eval_module, "fit_any", fit_or_fail)
    rows = run_benchmark(_small_nets(bench_csv, models=("knn", "mlp", "cnn", "tree"))).rows
    assert [r.model for r in rows] == ["knn", "mlp", "cnn", "tree"] * 4
    for r in rows:
        assert r.error == ("cnn broke" if r.model == "cnn" else None)
        assert (r.rmse is None) == (r.model == "cnn")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd")
def test_a_failed_fork_fits_its_cells_inline_and_leaks_nothing(bench_csv, monkeypatch):
    # fails at the parent: the fork's OSError ends the run and leaves both pipe ends open
    cfg = _small_nets(bench_csv)
    _force_workers(monkeypatch, 1)
    inline = format_report(run_benchmark(cfg), style="csv")
    forks = []

    def no_fork():
        forks.append(None)
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    _force_workers(monkeypatch, 2)
    monkeypatch.setattr(eval_module, "_may_fork", lambda: True)
    monkeypatch.setattr(os, "fork", no_fork)
    descriptors = len(os.listdir("/proc/self/fd"))
    assert format_report(run_benchmark(cfg), style="csv") == inline
    assert len(os.listdir("/proc/self/fd")) == descriptors
    assert len(forks) == 4  # one per (pipeline, task)


def test_a_base_exception_on_a_worker_thread_comes_out_of_the_run(bench_csv, monkeypatch):
    # passes at the parent too: a SystemExit that a network fit raises on its worker
    # thread is raised again on the calling thread, in config order, not lost there
    threads = []

    def fit_or_exit(spec, X, Y):
        threads.append(threading.current_thread())
        if threads[-1] is not threading.main_thread():
            raise SystemExit(spec.kind)
        return fit_any(spec, X, Y)

    _force_workers(monkeypatch, 2)
    monkeypatch.setattr(eval_module, "fit_any", fit_or_exit)
    with pytest.raises(SystemExit) as exc:
        run_benchmark(_small_nets(bench_csv, models=("mlp", "cnn"), tasks=("four",),
                                  pipelines=("raw",)))
    assert exc.value.code == "mlp"
    assert threading.main_thread() not in threads


_INTERRUPTED_CHILD = """
import sys, threading, time
import facekeys.eval as E
from facekeys.regressors import fit_any

def fit(spec, X, Y):
    if spec.kind == "cnn":
        where = "main" if threading.current_thread() is threading.main_thread() else "worker"
        print(where, flush=True)
        time.sleep(60)
    return fit_any(spec, X, Y)

E.fit_any = fit
E._workers = lambda: 2
# two cnn cells: the threads' semaphore takes min(workers, network cells)
E.run_benchmark(E.BenchmarkConfig(training_csv=sys.argv[1], models=("cnn", "knn"),
                                  tasks=("four", "eleven"), pipelines=("raw",)))
"""


def test_ctrl_c_does_not_wait_for_the_fits_in_flight(bench_csv):
    # fails at the parent: there the cnn fit runs on the main thread
    env = {**os.environ, "PYTHONPATH": str(Path(eval_module.__file__).parents[1])}
    child = subprocess.Popen([sys.executable, "-c", _INTERRUPTED_CHILD, bench_csv], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        assert child.stdout.readline() == "worker\n"
        sent = time.monotonic()
        child.send_signal(signal.SIGINT)
        child.wait(timeout=10)
        assert time.monotonic() - sent < 10
        assert child.returncode != 0 and "KeyboardInterrupt" in child.stderr.read()
    finally:
        if child.poll() is None:
            child.kill()
        child.communicate()


@pytest.mark.parametrize("kind", ALL_MODELS)
def test_every_kind_leaves_read_only_inputs_as_they_were(kind):
    # passes at the parent; it is what lets cells share X_train across threads
    rng = np.random.default_rng(4)
    X = rng.normal(size=(40, 20))
    Y = rng.normal(size=(40, 4)) * 10.0 + 48.0
    X_before, Y_before = X.copy(), Y.copy()
    X.flags.writeable = False
    Y.flags.writeable = False
    cfg = BenchmarkConfig(mlp_epochs=2, cnn_epochs=2, mlp_hidden=(8,), cd_max_iter=30)
    pred = predict_any(fit_any(spec_for(cfg, kind), X, Y), X)
    assert pred.shape == Y.shape and np.isfinite(pred).all()
    assert X.tobytes() == X_before.tobytes() and Y.tobytes() == Y_before.tobytes()


# ---- reports ---------------------------------------------------------------------


def _tiny_report(bench_csv):
    cfg = BenchmarkConfig(training_csv=bench_csv, models=("knn", "tree"))
    return run_benchmark(cfg)


def test_lbp_histogram_pipeline_mode(bench_csv):
    cfg = BenchmarkConfig(
        training_csv=bench_csv, models=("knn",), tasks=("four",),
        pipelines=("lbp_pca",), lbp_mode="histogram", pca_components=3,
    )
    report = run_benchmark(cfg)
    assert report.rows[0].error is None
    assert np.isfinite(report.rows[0].rmse)


@pytest.mark.parametrize("n_rows, side, fields", [
    (250, 12, {}),
    (200, 48, {"lbp_mode": "histogram", "lbp_neighbors": 4}),
], ids=["pixel_map-12x12", "histogram-48x48-p4"])
def test_lbp_pca_keeps_at_most_the_components_its_code_block_holds(tmp_path, n_rows, side,
                                                                    fields):
    # fails at the parent: both code blocks are 144 columns wide (12x12 codes, or 9 cells
    # of 16 bins), and min(pca_components, training rows - 1) asked for more of them
    path = tmp_path / "faces.csv"
    write_training_csv(build_dataset(n_rows=n_rows, side=side, seed=4), path)
    cfg = BenchmarkConfig(training_csv=str(path), pipelines=("lbp_pca",), **fields)
    report = format_report(run_benchmark(cfg), "csv")
    rows = load_report_csv(report).rows
    assert len(rows) == len(DEFAULT_MODELS) * 2 and min(r.n_train for r in rows) > 144
    for r in rows:
        assert r.error is None and np.isfinite(r.rmse), (r.model, r.task, r.error)
    at_ceiling = dataclasses.replace(cfg, pca_components=144)
    assert format_report(run_benchmark(at_ceiling), "csv") == report


def test_csv_report_round_trip(bench_csv):
    report = _tiny_report(bench_csv)
    text = format_report(report, style="csv")
    back = load_report_csv(text)
    assert back.seed == report.seed
    assert len(back.rows) == len(report.rows)
    for a, b in zip(report.rows, back.rows):
        assert (a.model, a.pipeline, a.task) == (b.model, b.pipeline, b.task)
        assert a.rmse == b.rmse  # repr round-trip is exact
        assert a.hyperparameters == b.hyperparameters
        assert a.error == b.error
    assert format_report(back, style="csv") == text


def test_csv_report_excludes_timing(bench_csv):
    report = _tiny_report(bench_csv)
    report.rows[0].seconds = 123.456
    text = format_report(report, style="csv")
    assert "123.456" not in text
    assert "seconds" not in text.splitlines()[0]


def test_markdown_report_layout(bench_csv):
    report = _tiny_report(bench_csv)
    text = format_report(report)
    assert "## Pipeline: raw" in text
    assert "## Pipeline: lbp_pca" in text
    assert "| Model | RMSE1 | RMSE2 | seconds |" in text
    assert any(line.startswith("| knn |") for line in text.splitlines())


def test_markdown_report_shows_errors(bench_csv):
    cfg = BenchmarkConfig(training_csv=bench_csv, models=("knn",),
                          knn_k=10_000, tasks=("four",), pipelines=("raw",))
    text = format_report(run_benchmark(cfg))
    assert "| knn | error |" in text
    assert "knn/four failed:" in text


def test_markdown_report_marks_non_converged_fits(bench_csv):
    cfg = BenchmarkConfig(training_csv=bench_csv, models=("ols", "lasso", "elastic"),
                          pipelines=("raw",), cd_max_iter=1, cd_tol=1e-12)
    report = run_benchmark(cfg)
    by_key = {(r.model, r.task): r for r in report.rows}
    for task in ("eleven", "four"):
        assert by_key[("ols", task)].converged is True  # a closed-form fit
        for kind in ("lasso", "elastic"):
            assert by_key[(kind, task)].converged is False
    text = format_report(report)
    lasso_line = next(line for line in text.splitlines() if line.startswith("| lasso |"))
    assert lasso_line.count("*") == 2
    assert next(line for line in text.splitlines() if line.startswith("| ols |")).count("*") == 0
    assert "- lasso/eleven did not converge (*) within max_iter = 1 sweeps" in text
    assert "- elastic/four did not converge (*) within max_iter = 1 sweeps" in text
    # the CSV neither carries the flag nor changes because of it
    csv_text = format_report(report, style="csv")
    assert "converged" not in csv_text
    assert load_report_csv(csv_text).rows[1].converged is None
    converged = run_benchmark(dataclasses.replace(
        cfg, tasks=("four",), lasso_alpha=1.0, elastic_alpha=1.0, cd_max_iter=1000, cd_tol=1e-4,
    ))
    assert all(r.converged is True for r in converged.rows)
    assert "did not converge" not in format_report(converged)


def test_report_loader_rejects_foreign_header():
    with pytest.raises(EvalError, match="header"):
        load_report_csv("alpha,beta\n1,2\n")


def test_unknown_style_rejected(bench_csv):
    with pytest.raises(EvalError) as exc:
        format_report(_tiny_report(bench_csv), style="xml")
    assert str(exc.value) == "unknown report style 'xml'; expected one of ('markdown', 'csv')"


# ---- end-to-end sanity -------------------------------------------------------------


def test_memorizers_reach_zero_error_on_train():
    ds = impute_column_means(build_dataset(n_rows=20, side=16, seed=9))
    X, Y = fit_pipeline(ds.images)[1], ds.keypoints
    for spec in (RegressorSpec("knn", {"k": 1}),
                 RegressorSpec("tree", {"max_depth": None})):
        model = fit_any(spec, X.values, Y)
        assert rmse(predict_any(model, X.values), Y) == pytest.approx(0.0, abs=1e-9)
