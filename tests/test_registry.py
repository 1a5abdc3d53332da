import functools
import json
import tracemalloc

import numpy as np
import pytest

from facekeys.regressors import (
    ConfigError,
    KINDS,
    SPEC_KINDS,
    RegressorSpec,
    SpecKind,
    fit_any,
    load_model,
    predict_any,
    save_model,
)


def flat_data(seed=0, n=30, d=4, m=2):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    Y = rng.normal(size=(n, m)) * 10.0 + 48.0
    return X, Y


def test_every_kind_fits_and_predicts():
    X, Y = flat_data()
    grids = np.random.default_rng(1).normal(size=(20, 8, 8))
    Yg = np.random.default_rng(2).normal(size=(20, 2)) + 48.0
    small = {
        "knn": {"k": 3},
        "ols": {},
        "ridge": {"lam": 0.5},
        "lasso": {"alpha": 0.05},
        "elastic": {"alpha": 0.05, "rho": 0.5},
        "tree": {"max_depth": 3},
        "mlp": {"hidden": (8,), "epochs": 2, "batch_size": 10, "dropout": 0.0},
        "cnn": {"epochs": 1, "batch_size": 10},
    }
    assert set(small) == set(KINDS)
    for kind, hp in small.items():
        spec = RegressorSpec(kind, hp, seed=0)
        if kind == "cnn":
            model = fit_any(spec, grids, Yg)
            preds = predict_any(model, grids)
            assert preds.shape == (20, 2)
        else:
            model = fit_any(spec, X, Y)
            preds = predict_any(model, X)
            assert preds.shape == Y.shape
        assert np.isfinite(preds).all(), kind


_SMALL = {
    "knn": {"k": 3},
    "ols": {},
    "ridge": {"lam": 0.5},
    "lasso": {"alpha": 0.05},
    "elastic": {"alpha": 0.05, "rho": 0.5},
    "tree": {"max_depth": 3},
    "mlp": {"hidden": (8,), "epochs": 2, "batch_size": 10, "dropout": 0.0},
    "cnn": {"epochs": 1, "batch_size": 10},
}


@pytest.mark.parametrize("kind", KINDS)
def test_zero_rows_predict_empty_and_refuse_to_fit(kind):
    X, Y = flat_data(n=20, d=16)  # 16 columns are 4x4 grids for the cnn
    model = fit_any(RegressorSpec(kind, _SMALL[kind]), X, Y)
    preds = predict_any(model, X[:0])
    assert preds.shape == (0, 2) and preds.dtype == np.float64
    with pytest.raises(ValueError, match=r"\b0 rows|2 rows|\[1, 0\]"):
        fit_any(RegressorSpec(kind, _SMALL[kind]), X[:0], Y[:0])


@pytest.mark.parametrize("kind", ["mlp", "cnn"])
def test_a_fitted_network_is_views_of_one_parameter_vector(kind):
    X, Y = flat_data(n=20, d=16)
    model = fit_any(RegressorSpec(kind, _SMALL[kind]), X, Y)
    arrays = model.weights + model.biases if kind == "mlp" else list(model.params.values())
    vector = arrays[0].base
    assert isinstance(vector, np.ndarray) and vector.ndim == 1
    assert vector.size == sum(a.size for a in arrays)
    assert all(a.base is vector for a in arrays)


def test_spec_validation():
    with pytest.raises(ConfigError, match="unknown regressor kind"):
        RegressorSpec("svm")
    with pytest.raises(ConfigError, match="does not accept"):
        RegressorSpec("knn", {"alpha": 1.0})
    with pytest.raises(ConfigError, match="does not accept"):
        RegressorSpec("ols", {"k": 5})
    RegressorSpec("ridge", {"lam": 2.0})  # valid


_ACCEPTED = {
    "knn": {"k"},
    "ols": set(),
    "ridge": {"lam"},
    "lasso": {"alpha", "max_iter", "tol"},
    "elastic": {"alpha", "rho", "max_iter", "tol"},
    "tree": {"max_depth", "min_samples_leaf"},
    "mlp": {"hidden", "epochs", "batch_size", "optimizer", "learning_rate", "scale_targets",
            "dropout"},
    "cnn": {"epochs", "batch_size", "optimizer", "learning_rate", "scale_targets",
            "dropout_conv", "dropout_dense"},
}


@pytest.mark.parametrize("kind", KINDS)
def test_a_spec_accepts_its_fits_keywords(kind):
    assert set(_ACCEPTED) == set(KINDS)
    assert set(SPEC_KINDS[kind].run_set) <= _ACCEPTED[kind]
    candidates = set().union(*_ACCEPTED.values()) | {"seed", "X", "Y", "verbose"}
    accepted = set()
    for name in candidates:
        try:
            RegressorSpec(kind, {name: None})
            accepted.add(name)
        except ConfigError:
            pass
    assert accepted == _ACCEPTED[kind]


@pytest.mark.parametrize("kind", KINDS)
def test_only_the_networks_get_the_seed(kind, monkeypatch):
    entry = SPEC_KINDS[kind]
    calls = []

    @functools.wraps(entry.fit)
    def recording_fit(X, Y, **kwargs):
        calls.append(kwargs)

    monkeypatch.setitem(SPEC_KINDS, kind, SpecKind(recording_fit, entry.run_set))
    fit_any(RegressorSpec(kind, seed=11), np.zeros((3, 16)), np.zeros((3, 2)))
    assert calls == ([{"seed": 11}] if kind in ("mlp", "cnn") else [{}])


@pytest.mark.parametrize("kind", ["mlp", "cnn"])
@pytest.mark.parametrize("name", ["momentum", "rms_decay"])
def test_networks_take_no_optimizer_constants(kind, name):
    with pytest.raises(ConfigError, match="does not accept"):
        RegressorSpec(kind, {name: 0.9})


def test_knn_default_k_is_five():
    X, Y = flat_data(n=12)
    model = fit_any(RegressorSpec("knn"), X, Y)
    assert model.k == 5


def test_predict_any_rejects_unknown_objects():
    with pytest.raises(ConfigError, match="predict"):
        predict_any(object(), np.zeros((2, 2)))


@pytest.mark.parametrize(
    "kind,hp",
    [
        ("knn", {"k": 3}),
        ("ols", {}),
        ("ridge", {"lam": 0.5}),
        ("lasso", {"alpha": 0.05}),
        ("tree", {"max_depth": 4}),
        ("mlp", {"hidden": (6,), "epochs": 2, "batch_size": 10, "dropout": 0.5}),
    ],
)
def test_save_load_round_trip_flat_models(tmp_path, kind, hp):
    X, Y = flat_data(seed=3)
    model = fit_any(RegressorSpec(kind, hp, seed=1), X, Y)
    path = tmp_path / f"{kind}.npz"
    save_model(path, model, extras={"note": "fixture", "n": 3})
    back, extras = load_model(path)
    assert extras == {"note": "fixture", "n": 3}
    assert np.array_equal(predict_any(back, X), predict_any(model, X))


def test_save_load_round_trip_cnn(tmp_path):
    rng = np.random.default_rng(4)
    grids = rng.normal(size=(12, 8, 8))
    Y = rng.normal(size=(12, 2)) + 48.0
    model = fit_any(RegressorSpec("cnn", {"epochs": 1, "batch_size": 6}, seed=2),
                    grids, Y)
    path = tmp_path / "cnn.npz"
    save_model(path, model)
    back, extras = load_model(path)
    assert extras == {}
    assert back.side == 8
    assert np.array_equal(predict_any(back, grids), predict_any(model, grids))


def test_save_rejects_foreign_objects(tmp_path):
    with pytest.raises(ConfigError, match="serialize"):
        save_model(tmp_path / "x.npz", object())



# saved-model layout per model class: meta "kind", array keys, meta keys
_LAYOUTS = {
    "knn": ("knn", {"knn_x", "knn_y"}, {"k"}),
    "lasso": ("linear", {"lin_w", "lin_b"}, {"converged"}),
    "tree": (
        "tree",
        {f"tree_{n}" for n in ("feature", "threshold", "left", "right", "value", "n_samples")},
        {"n_features", "max_depth", "min_samples_leaf"},
    ),
    "mlp": (
        "mlp",
        {"mlp_w0", "mlp_b0", "mlp_w1", "mlp_b1"},
        {"n_layers", "hidden_activation", "target_offset", "target_scale"},
    ),
    "cnn": (
        "cnn",
        {f"cnn_{n}" for n in ("conv1_w", "conv1_b", "conv2_w", "conv2_b",
                              "dense_w", "dense_b", "out_w", "out_b")},
        {"side", "dropout_conv", "dropout_dense", "target_offset", "target_scale"},
    ),
}


@pytest.mark.parametrize("kind", sorted(_LAYOUTS))
def test_saved_model_layout_is_pinned(tmp_path, kind):
    X, Y = flat_data(seed=5, d=16)
    hp = {"mlp": {"hidden": (6,), "epochs": 1, "batch_size": 10},
          "cnn": {"epochs": 1, "batch_size": 10}}.get(kind, {})
    if kind == "cnn":
        X = X.reshape(-1, 4, 4)
    model = fit_any(RegressorSpec(kind, hp, seed=1), X, Y)
    path = tmp_path / "model.npz"
    table = np.arange(6.0).reshape(2, 3)
    save_model(path, model, extras={"note": "x", "table": table})
    tag, array_keys, meta_keys = _LAYOUTS[kind]
    with np.load(path) as data:
        assert set(data.files) == array_keys | {"meta", "table"}
        assert data["meta"].dtype == np.uint8
        raw = bytes(data["meta"]).decode()
    meta = json.loads(raw)
    assert set(meta) == meta_keys | {"kind", "extras"}
    assert meta["kind"] == tag
    assert meta["extras"] == {"note": "x"}
    assert raw == json.dumps(meta, sort_keys=True)
    # an array extra comes back as itself; the kind's own arrays never do
    _, extras = load_model(path)
    assert set(extras) == {"note", "table"}
    assert extras["note"] == "x" and np.array_equal(extras["table"], table)



def test_an_array_extra_is_read_only_when_looked_up(tmp_path):
    X, Y = flat_data(seed=5, d=16)
    path = tmp_path / "ols.npz"
    big = np.arange(1 << 18, dtype=np.float64)  # 2 MiB
    save_model(path, fit_any(RegressorSpec("ols"), X, Y), extras={"big": big})
    tracemalloc.start()
    try:
        _, extras = load_model(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < big.nbytes // 4
    assert "big" in extras and np.array_equal(extras["big"], big)


def test_load_refuses_an_mlp_file_with_another_hidden_activation(tmp_path):
    X, Y = flat_data(seed=6)
    model = fit_any(RegressorSpec("mlp", {"hidden": (4,), "epochs": 1}, seed=0), X, Y)
    path = tmp_path / "mlp.npz"
    save_model(path, model)
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(bytes(arrays["meta"]).decode())
    assert meta["hidden_activation"] == "tanh"
    assert load_model(path)[0].weights[0].shape == (4, 4)
    meta["hidden_activation"] = "relu"
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **arrays)
    with pytest.raises(ConfigError, match="relu"):
        load_model(path)
