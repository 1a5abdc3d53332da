"""Regressor registry: uniform fit/predict dispatch plus serialization.

Eight kinds are available: knn, ols, ridge, lasso, elastic, tree, mlp,
cnn. A RegressorSpec names the kind, its hyperparameters, and a seed.
Two tables hold everything that differs per kind: SPEC_KINDS maps a spec
kind to its fit function and hyperparameter names, and _FORMATS maps a
fitted model class to its predict function and its .npz layout. fit_any,
predict_any, save_model and load_model are lookups in them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .knn import KnnModel, knn_fit, knn_predict
from .linear import LinearModel, elastic_fit, lasso_fit, linear_predict, ols_fit, ridge_fit
from .tree import TreeModel, flatten_tree, tree_fit, tree_predict, unflatten_tree
from .mlp import MlpModel, mlp_fit, mlp_predict
from .cnn import PARAM_NAMES, CnnModel, cnn_fit, cnn_predict
from .optim import TrainingDiverged

__all__ = [
    "RegressorSpec", "ConfigError", "TrainingDiverged", "SpecKind",
    "SPEC_KINDS", "KINDS",
    "fit_any", "predict_any", "save_model", "load_model",
    "KnnModel", "LinearModel", "TreeModel", "MlpModel", "CnnModel",
    "knn_fit", "knn_predict", "ols_fit", "ridge_fit", "lasso_fit",
    "elastic_fit", "linear_predict", "tree_fit", "tree_predict",
    "mlp_fit", "mlp_predict", "cnn_fit", "cnn_predict",
]


class ConfigError(ValueError):
    """Unknown regressor kind or invalid hyperparameters."""


@dataclass(frozen=True)
class SpecKind:
    """How to train one spec kind.

    run_set names the hyperparameters a CLI or benchmark run sets (the
    train flags and BenchmarkConfig fields map onto them); tuning names
    the further ones a spec may set. A seeded kind's fit takes the seed.
    """

    fit: Callable
    run_set: tuple[str, ...] = ()
    tuning: tuple[str, ...] = ()
    seeded: bool = False


_GRADIENT_TUNING = ("learning_rate", "momentum", "rms_decay", "scale_targets")

SPEC_KINDS: dict[str, SpecKind] = {
    "knn": SpecKind(knn_fit, ("k",)),
    "ols": SpecKind(ols_fit),
    "ridge": SpecKind(ridge_fit, ("lam",)),
    "lasso": SpecKind(lasso_fit, ("alpha", "max_iter", "tol")),
    "elastic": SpecKind(elastic_fit, ("alpha", "rho", "max_iter", "tol")),
    "tree": SpecKind(tree_fit, ("max_depth", "min_samples_leaf")),
    "mlp": SpecKind(
        mlp_fit, ("hidden", "epochs", "batch_size", "optimizer"),
        ("dropout",) + _GRADIENT_TUNING, seeded=True,
    ),
    "cnn": SpecKind(
        cnn_fit, ("epochs", "batch_size", "optimizer"),
        ("dropout_conv", "dropout_dense") + _GRADIENT_TUNING, seeded=True,
    ),
}

KINDS = tuple(SPEC_KINDS)


@dataclass
class RegressorSpec:
    """What to train: a kind tag, its hyperparameters, and a seed."""

    kind: str
    hyperparameters: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        entry = SPEC_KINDS.get(self.kind)
        if entry is None:
            raise ConfigError(
                f"unknown regressor kind {self.kind!r}; expected one of {KINDS}"
            )
        extra = set(self.hyperparameters) - {*entry.run_set, *entry.tuning}
        if extra:
            raise ConfigError(
                f"{self.kind} does not accept hyperparameters {sorted(extra)}"
            )


def fit_any(spec: RegressorSpec, X, Y):
    """Train the model a spec describes.

    X is a 2-d feature matrix; cnn reads square rows as grids and also
    takes (n, side, side) grids. Stochastic kinds (mlp, cnn) are
    bit-for-bit reproducible for a fixed seed.
    """
    entry = SPEC_KINDS[spec.kind]
    seed = {"seed": spec.seed} if entry.seeded else {}
    return entry.fit(X, Y, **spec.hyperparameters, **seed)


class _Format(NamedTuple):
    """A fitted model class: predict function and .npz layout."""

    tag: str  # meta "kind" in the file
    predict: Callable
    to_payload: Callable  # model -> (meta entries, named arrays)
    from_payload: Callable  # (meta, archive) -> model


_TREE_ARRAYS = ("feature", "threshold", "left", "right", "value", "n_samples")


def _tree_payload(m: TreeModel):
    meta = {
        "n_features": m.n_features,
        "max_depth": m.max_depth,
        "min_samples_leaf": m.min_samples_leaf,
    }
    return meta, {f"tree_{name}": arr for name, arr in flatten_tree(m).items()}


def _tree_model(meta, data) -> TreeModel:
    return unflatten_tree(
        {name: data[f"tree_{name}"] for name in _TREE_ARRAYS},
        n_features=int(meta["n_features"]),
        max_depth=meta["max_depth"],
        min_samples_leaf=int(meta["min_samples_leaf"]),
    )


def _mlp_payload(m: MlpModel):
    meta = {
        "n_layers": len(m.weights),
        "hidden_activation": m.hidden_activation,
        "target_offset": m.target_offset,
        "target_scale": m.target_scale,
    }
    arrays: dict[str, np.ndarray] = {}
    for i, (w, b) in enumerate(zip(m.weights, m.biases)):
        arrays[f"mlp_w{i}"], arrays[f"mlp_b{i}"] = w, b
    return meta, arrays


def _mlp_model(meta, data) -> MlpModel:
    n = int(meta["n_layers"])
    return MlpModel(
        weights=[data[f"mlp_w{i}"] for i in range(n)],
        biases=[data[f"mlp_b{i}"] for i in range(n)],
        hidden_activation=meta["hidden_activation"],
        target_offset=float(meta["target_offset"]),
        target_scale=float(meta["target_scale"]),
    )


# cnn meta entries and how each is read back
_CNN_META = {
    "side": int, "dropout_conv": float, "dropout_dense": float,
    "target_offset": float, "target_scale": float,
}

_FORMATS: dict[type, _Format] = {
    KnnModel: _Format(
        "knn", knn_predict,
        lambda m: ({"k": m.k}, {"knn_x": m.X, "knn_y": m.Y}),
        lambda meta, data: KnnModel(X=data["knn_x"], Y=data["knn_y"], k=int(meta["k"])),
    ),
    LinearModel: _Format(
        "linear", linear_predict,
        lambda m: ({"converged": bool(m.converged)}, {"lin_w": m.weights, "lin_b": m.intercept}),
        lambda meta, data: LinearModel(
            weights=data["lin_w"], intercept=data["lin_b"], converged=bool(meta["converged"])
        ),
    ),
    TreeModel: _Format("tree", tree_predict, _tree_payload, _tree_model),
    MlpModel: _Format("mlp", mlp_predict, _mlp_payload, _mlp_model),
    CnnModel: _Format(
        "cnn", cnn_predict,
        lambda m: (
            {name: getattr(m, name) for name in _CNN_META},
            {f"cnn_{name}": arr for name, arr in m.params.items()},
        ),
        lambda meta, data: CnnModel(
            params={name: data[f"cnn_{name}"] for name in PARAM_NAMES},
            **{name: read(meta[name]) for name, read in _CNN_META.items()},
        ),
    ),
}
_FORMAT_BY_TAG = {fmt.tag: fmt for fmt in _FORMATS.values()}


def _format_of(model, action: str) -> _Format:
    fmt = _FORMATS.get(type(model))
    if fmt is None:
        raise ConfigError(f"cannot {action} object of type {type(model).__name__}")
    return fmt


def predict_any(model, X) -> np.ndarray:
    """Predict with any fitted model; dispatches on the model type."""
    return _format_of(model, "predict with").predict(model, X)


def save_model(path, model, extras: dict | None = None,
               extra_arrays: dict[str, np.ndarray] | None = None) -> None:
    """Write a fitted model to .npz in one write.

    extras (JSON-safe) ride in the meta record; extra_arrays (such as a
    feature pipeline's pipe_* arrays) are stored next to the model's own.
    """
    fmt = _format_of(model, "serialize")
    meta, arrays = fmt.to_payload(model)
    meta.update(kind=fmt.tag, extras=extras or {})
    arrays["meta"] = np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
    np.savez(path, **arrays, **(extra_arrays or {}))


def load_model(path):
    """Read a model written by save_model. Returns (model, extras)."""
    data = np.load(path)
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ConfigError(f"{path} is not a facekeys model file: it is not an .npz archive")
    with data:
        if "meta" not in data.files:
            raise ConfigError(f"{path} is not a facekeys model file: it has no meta record")
        meta = json.loads(bytes(data["meta"]).decode())
        fmt = _FORMAT_BY_TAG.get(meta.get("kind"))
        if fmt is None:
            raise ConfigError(f"unknown model kind {meta.get('kind')!r} in {path}")
        model = fmt.from_payload(meta, data)
    return model, meta.get("extras", {})
