import dataclasses
import math

import numpy as np
import pytest

from conftest import build_dataset
from facekeys.dataset import impute_column_means, to_matrices, write_training_csv
from facekeys.eval import (
    ALL_MODELS,
    DEFAULT_MODELS,
    BenchmarkConfig,
    EvalError,
    format_report,
    load_config,
    load_report_csv,
    mean_predictor_rmse,
    rmse,
    run_benchmark,
)
from facekeys.regressors import RegressorSpec, fit_any, predict_any


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


# ---- configuration -----------------------------------------------------------


def test_config_validation():
    with pytest.raises(EvalError, match="unknown model"):
        BenchmarkConfig(models=("svm",))
    with pytest.raises(EvalError, match="unknown pipeline"):
        BenchmarkConfig(pipelines=("fourier",))
    with pytest.raises(EvalError, match="unknown task"):
        BenchmarkConfig(tasks=("nine",))
    with pytest.raises(EvalError, match="square of a multiple of 4"):
        BenchmarkConfig(models=("cnn",), pca_components=255)
    with pytest.raises(EvalError, match="square of a multiple of 4"):
        BenchmarkConfig(models=("cnn",), pca_components=4)  # side 2
    for ok in (16, 64, 144, 256):
        BenchmarkConfig(models=("cnn",), pca_components=ok)


def test_desk_scale_caps():
    cfg = BenchmarkConfig()
    assert cfg.effective_max_rows() == 400
    assert cfg.effective_epochs("mlp") == 30
    assert cfg.effective_epochs("cnn") == 20
    full = BenchmarkConfig(full=True)
    assert full.effective_max_rows() is None
    assert full.effective_epochs("mlp") == 500
    assert full.effective_epochs("cnn") == 400
    uncapped = BenchmarkConfig(mlp_epochs=None, cnn_epochs=None)
    assert uncapped.effective_epochs("mlp") == 500
    assert uncapped.effective_epochs("cnn") == 400


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
    path.write_text("max_rows = none\nmlp_epochs = None\ncnn_epochs = NONE\n"
                    "tree_max_depth = none\n")
    cfg = load_config(path)
    assert (cfg.max_rows, cfg.mlp_epochs, cfg.cnn_epochs, cfg.tree_max_depth) == (
        None, None, None, None)


# ---- benchmark runs ------------------------------------------------------------


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


def test_report_loader_rejects_foreign_header():
    with pytest.raises(EvalError, match="header"):
        load_report_csv("alpha,beta\n1,2\n")


def test_unknown_style_rejected(bench_csv):
    with pytest.raises(EvalError, match="style"):
        format_report(_tiny_report(bench_csv), style="xml")


# ---- end-to-end sanity -------------------------------------------------------------


def test_memorizers_reach_zero_error_on_train():
    ds = impute_column_means(build_dataset(n_rows=20, side=16, seed=9))
    X, Y = to_matrices(ds)
    for spec in (RegressorSpec("knn", {"k": 1}),
                 RegressorSpec("tree", {"max_depth": None})):
        model = fit_any(spec, X.values, Y)
        assert rmse(predict_any(model, X.values), Y) == pytest.approx(0.0, abs=1e-9)
