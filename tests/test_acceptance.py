"""Acceptance suite: one test per shipping guarantee.

Each test exercises one headline property end to end at its stated
tolerance, against independent oracles where one exists. Tests that need
the real training CSV skip with a pointer to FACEKEYS_TRAINING_CSV when
the file is absent; everything else runs on synthetic fixtures.
"""

import math
import time

import numpy as np
import pytest

from conftest import REAL_DATA_SKIP, build_dataset, real_training_csv
from test_knn import oracle_knn
from test_lbp import oracle_min_rotation
from test_linear import kkt_violation
from test_mlp import numeric_grad, reference_mlp_fit, tensor_rel_error
from test_tree import model_loss, oracle_greedy_loss

from facekeys.dataset import (
    holdout_split,
    load_training_csv,
    split_by_keypoint_coverage,
    write_training_csv,
)
from facekeys.eval import (
    ALL_MODELS,
    BenchmarkConfig,
    format_report,
    mean_predictor_rmse,
    run_benchmark,
    task_rows,
)
from facekeys.lbp import LbpConfig, _min_rotations, lbp_basic, lbp_circular
from facekeys.pca import fit_pca
from facekeys.pipeline import fit_pipeline
from facekeys.regressors import cnn as cnn_mod
from facekeys.regressors import mlp as mlp_mod
from facekeys.regressors.cnn import PARAM_NAMES
from facekeys.regressors.knn import knn_fit, knn_predict
from facekeys.regressors.linear import elastic_fit, lasso_fit, ols_fit, ridge_fit
from facekeys.regressors.mlp import mlp_fit
from facekeys.regressors.tree import tree_fit


def test_c1_knn_matches_exhaustive_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    for trial in range(50):
        n = int(rng.integers(3, 40))
        k = int(rng.integers(1, n + 1))
        X = rng.normal(size=(n, 5))
        if n >= 6 and trial % 2 == 0:
            X[n // 2] = X[0]  # exact duplicate exercises the tie-break
        Y = rng.normal(size=(n, 3))
        Q = np.vstack([rng.normal(size=(6, 5)), X[:1]])  # one query on a point
        model = knn_fit(X, Y, k=k)
        assert np.array_equal(knn_predict(model, Q), oracle_knn(X, Y, Q, k))
    assert time.perf_counter() - started < 5.0


def test_c2_linear_model_reductions():
    rng = np.random.default_rng(102)
    X = rng.normal(size=(20, 5))
    Y = rng.normal(size=(20, 2))
    ols = ols_fit(X, Y)

    ridge0 = ridge_fit(X, Y, lam=0.0)
    assert np.allclose(ridge0.weights, ols.weights, atol=1e-8)
    assert np.allclose(ridge0.intercept, ols.intercept, atol=1e-8)

    lasso0 = lasso_fit(X, Y, alpha=0.0, max_iter=5000, tol=1e-12)
    assert np.allclose(lasso0.weights, ols.weights, atol=1e-6)
    assert np.allclose(lasso0.intercept, ols.intercept, atol=1e-6)

    alpha = 0.3
    lasso = lasso_fit(X, Y, alpha=alpha, max_iter=20000, tol=1e-12)
    as_lasso = elastic_fit(X, Y, alpha=alpha, rho=1.0, max_iter=20000, tol=1e-12)
    assert np.allclose(as_lasso.weights, lasso.weights, atol=1e-6)
    assert np.allclose(as_lasso.intercept, lasso.intercept, atol=1e-6)

    ridge_eq = ridge_fit(X, Y, lam=alpha * X.shape[0])
    as_ridge = elastic_fit(X, Y, alpha=alpha, rho=0.0, max_iter=20000, tol=1e-12)
    assert np.allclose(as_ridge.weights, ridge_eq.weights, atol=1e-6)
    assert np.allclose(as_ridge.intercept, ridge_eq.intercept, atol=1e-6)


def test_c3_lasso_satisfies_kkt_conditions():
    rng = np.random.default_rng(103)
    for _ in range(30):
        n = int(rng.integers(12, 40))
        d = int(rng.integers(3, 9))
        X = rng.normal(size=(n, d)) * rng.uniform(0.5, 2.0, size=d)
        Y = rng.normal(size=(n, 2))
        for alpha in (0.01, 0.1, 1.0):
            model = lasso_fit(X, Y, alpha=alpha, max_iter=20000, tol=1e-12)
            v = kkt_violation(X, Y, model.weights, model.intercept, alpha)
            assert v < 1e-6, f"alpha {alpha}: KKT violation {v}"


def test_c4_tree_matches_split_enumeration_oracle():
    rng = np.random.default_rng(104)
    for trial in range(20):
        n = int(rng.integers(4, 16))
        d = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        depth = int(rng.integers(0, 3))
        X = rng.normal(size=(n, d))
        if trial % 3 == 0:
            X = np.round(X, 1)  # coarse values force tied split candidates
        Y = rng.normal(size=(n, m))
        model = tree_fit(X, Y, max_depth=depth)
        assert model_loss(model, X, Y) == pytest.approx(
            oracle_greedy_loss(X, Y, depth), abs=1e-10
        )


def test_c5_backprop_matches_finite_differences():
    started = time.perf_counter()

    # dense network: every tensor checked entry by entry
    rng = np.random.default_rng(105)
    net = mlp_mod.init_mlp(6, (7, 5), 4, seed=15)
    X = rng.normal(size=(3, 6))
    Y = rng.normal(size=(3, 4))
    _, gw, gb = mlp_mod.loss_and_gradients(net.weights, net.biases, X, Y)

    def mlp_loss():
        return mlp_mod.loss_and_gradients(net.weights, net.biases, X, Y)[0]

    for tensors, grads in ((net.weights, gw), (net.biases, gb)):
        for arr, g in zip(tensors, grads):
            assert tensor_rel_error(g, numeric_grad(mlp_loss, arr)) < 1e-4

    # convolutional network at the working grid size. Finite differences
    # are only valid where the loss is differentiable, so park the fixture
    # away from the relu kinks: biases push every pre-activation off zero
    # (both signs stay covered) and the margin is asserted below.
    model = cnn_mod.init_cnn(16, 2, seed=16)
    model.params["conv1_b"][:] = 4.0
    model.params["conv1_b"][::8] = -4.0
    model.params["conv2_w"] *= 0.02
    model.params["conv2_b"][:] = 2.0
    model.params["conv2_b"][5] = -2.0
    Xg = rng.normal(size=(3, 16, 16))
    Yg = rng.normal(size=(3, 2))

    p = model.params
    c1 = cnn_mod._conv_forward(Xg[None], p["conv1_w"], p["conv1_b"])[0]
    pooled = cnn_mod._pool_forward(np.maximum(c1, 0.0))[0]
    c2 = cnn_mod._conv_forward(pooled, p["conv2_w"], p["conv2_b"])[0]
    assert min(np.abs(c1).min(), np.abs(c2).min()) > 0.5, "fixture touches a kink"

    _, grads = cnn_mod.loss_and_gradients(model, Xg, Yg)

    def cnn_loss():
        return cnn_mod.loss_and_gradients(model, Xg, Yg)[0]

    check_rng = np.random.default_rng(17)
    eps = 1e-5
    for name in PARAM_NAMES:
        arr = model.params[name]
        flat_idx = np.arange(arr.size)
        if arr.size > 300:
            flat_idx = check_rng.choice(arr.size, size=150, replace=False)
        analytic, numeric = [], []
        for fi in flat_idx:
            idx = np.unravel_index(fi, arr.shape)
            old = arr[idx]
            arr[idx] = old + eps
            lp = cnn_loss()
            arr[idx] = old - eps
            lm = cnn_loss()
            arr[idx] = old
            numeric.append((lp - lm) / (2.0 * eps))
            analytic.append(grads[name][idx])
        err = tensor_rel_error(np.array(analytic), np.array(numeric))
        assert err < 1e-4, f"{name}: rel err {err}"

    assert time.perf_counter() - started < 60.0


def test_c6a_pca_variance_target_on_real_faces():
    path = real_training_csv()
    if path is None:
        pytest.skip(REAL_DATA_SKIP)
    data = load_training_csv(path)
    _, sparse = split_by_keypoint_coverage(data)
    rows = min(len(sparse), 1000)
    assert rows >= 500, "eleven-slot task unexpectedly small"
    sub = sparse.take(range(rows))
    X = sub.images.reshape(rows, -1) / 255.0
    model = fit_pca(X, variance_target=0.95)
    assert model.n_components <= 256, (
        f"0.95 variance needs {model.n_components} components"
    )


def test_c6b_eigendecomposition_residuals():
    rng = np.random.default_rng(106)
    X = rng.normal(size=(100, 20)) * rng.uniform(0.2, 3.0, size=20)
    model = fit_pca(X, n_components=20)
    Xc = X - X.mean(axis=0)
    C = Xc.T @ Xc / (X.shape[0] - 1)
    bound = 1e-6 * np.linalg.norm(C, 2)
    for v, lam in zip(model.components, model.explained_variance):
        assert np.linalg.norm(C @ v - lam * v) <= bound


def test_c7_lbp_invariances():
    rng = np.random.default_rng(107)
    cfg = LbpConfig(neighbors=8, radius=1.5)
    for _ in range(100):
        img = rng.uniform(0.0, 200.0, size=(16, 16))
        shift = float(rng.uniform(1.0, 50.0))
        scale = float(rng.uniform(0.5, 3.0))
        base = lbp_basic(img)
        assert np.array_equal(lbp_basic(img + shift), base)
        assert np.array_equal(lbp_basic(img * scale), base)
        circ = lbp_circular(img, cfg)
        assert np.array_equal(lbp_circular(img + shift, cfg), circ)
        assert np.array_equal(lbp_circular(img * scale, cfg), circ)

    # minimal-rotation mapping is stable under every cyclic bit rotation
    codes = np.arange(256)
    mapped = _min_rotations(codes, 8)
    assert np.array_equal(mapped, [oracle_min_rotation(c) for c in range(256)])
    for r in range(1, 8):
        rotated = ((codes >> r) | (codes << (8 - r))) & 0xFF
        assert np.array_equal(_min_rotations(rotated, 8), mapped)

    # featureless surface: every comparison ties, every bit is set
    flat = np.full((9, 9), 93, dtype=np.uint8)
    assert (lbp_basic(flat) == 255).all()
    assert (lbp_circular(flat, LbpConfig()) == 255).all()


def test_c8_desk_scale_rmse_bands():
    path = real_training_csv()
    if path is None:
        pytest.skip(REAL_DATA_SKIP)
    started = time.perf_counter()
    models = ("knn", "ols", "ridge", "lasso", "elastic", "tree")
    cfg = BenchmarkConfig(training_csv=path, models=models, pipelines=("raw",))
    report = run_benchmark(cfg)

    def score(model, task):
        row = next(r for r in report.rows
                   if r.model == model and r.task == task)
        assert row.error is None, f"{model}/{task} failed: {row.error}"
        return row.rmse

    assert 1.8 <= score("knn", "four") <= 3.5
    assert 2.5 <= score("knn", "eleven") <= 4.5
    assert 3.0 <= score("ols", "eleven") <= 6.5

    # mean-predictor baseline for the identical four-slot split
    data = load_training_csv(path)
    dense, _ = split_by_keypoint_coverage(data)
    d = task_rows(cfg, dense)
    train, test = holdout_split(d, cfg.train_fraction, cfg.seed)
    Y_train = train.keypoints
    Y_test = test.keypoints
    baseline = mean_predictor_rmse(Y_train, Y_test)
    for model in models:
        if model == "ols":
            continue  # plain least squares is a known flat spot here
        assert score(model, "four") < baseline, (
            f"{model} does not beat the mean predictor ({baseline:.3f})"
        )
    assert time.perf_counter() - started < 1800.0


def test_c9_lbp_pca_features_do_not_degrade_knn():
    path = real_training_csv()
    if path is None:
        pytest.skip(REAL_DATA_SKIP)
    cfg = BenchmarkConfig(training_csv=path, models=("knn",),
                          pipelines=("raw", "lbp_pca"), tasks=("eleven",))
    report = run_benchmark(cfg)
    by_pipe = {r.pipeline: r for r in report.rows}
    for row in by_pipe.values():
        assert row.error is None, row.error
    raw, opt = by_pipe["raw"].rmse, by_pipe["lbp_pca"].rmse
    print(f"knn eleven-slot rmse: raw {raw:.3f} -> lbp+pca {opt:.3f} "
          f"(delta {raw - opt:+.3f})")
    assert opt <= raw


def _hundred_row_faces():
    """100 face rows with eight targets, real when available.

    The stand-in keeps the real geometry (96x96 pixels, coordinates in
    pixel units) and gives the targets smooth image-dependent structure so
    training has something to fit.
    """
    path = real_training_csv()
    if path is not None:
        data = load_training_csv(path)
        dense, _ = split_by_keypoint_coverage(data)
        sub = task_rows(BenchmarkConfig(max_rows=100, seed=7), dense)
        features, Y = fit_pipeline(sub.images, scale_pixels=True)[1], sub.keypoints
        return features.values, Y
    rng = np.random.default_rng(108)
    coarse = rng.uniform(0.0, 255.0, size=(100, 6, 6))
    images = np.kron(coarse, np.ones((16, 16)))
    X = images.reshape(100, -1) / 255.0
    pooled = coarse.reshape(100, -1)
    raw = pooled @ rng.normal(size=(36, 8))
    raw = (raw - raw.mean(axis=0)) / raw.std(axis=0)
    Y = 48.0 + 20.0 * raw + rng.normal(scale=0.5, size=(100, 8))
    return X, np.clip(Y, 2.0, 94.0)


def test_c10_mlp_epoch_loss_is_monotone_after_warmup():
    # mlp_fit records batch-mean losses; the full-set loss per epoch comes
    # from the reference loop, whose weights mlp_fit's must equal bit for bit
    started = time.perf_counter()
    X, Y = _hundred_row_faces()
    args = dict(hidden=(300, 150, 50), epochs=50, batch_size=30, optimizer="sgd",
                dropout=0.0, seed=7)
    model = mlp_fit(X, Y, **args)
    fit_s = time.perf_counter() - started
    assert len(model.loss_history) == 50
    assert np.isfinite(model.loss_history).all()
    ref, hist = reference_mlp_fit(X, Y, **args)
    for got, want in zip(model.weights + model.biases, ref.weights + ref.biases):
        assert np.array_equal(got, want)
    assert len(hist) == 50
    assert np.isfinite(hist).all()
    tail = hist[5:]
    upticks = sum(1 for a, b in zip(tail, tail[1:]) if b > a)
    allowed = math.ceil(0.05 * (len(tail) - 1))
    assert upticks <= allowed, f"{upticks} upticks in {len(tail) - 1} steps"
    assert tail[-1] <= tail[0]
    assert fit_s < 300.0


def test_c11_identical_runs_give_identical_reports(tmp_path):
    csv = tmp_path / "faces.csv"
    write_training_csv(build_dataset(n_rows=60, seed=5, sparse_missing_rows=20),
                       csv)
    cfg = BenchmarkConfig(
        training_csv=str(csv), models=ALL_MODELS, max_rows=40,
        mlp_epochs=1, cnn_epochs=1, mlp_hidden=(8,), cd_max_iter=30,
    )
    blobs = []
    for name in ("first", "second"):
        out = tmp_path / f"{name}.csv"
        out.write_text(format_report(run_benchmark(cfg), "csv"))
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    assert len(blobs[0].splitlines()) == 1 + len(ALL_MODELS) * 2 * 2
