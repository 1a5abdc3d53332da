"""Regressor registry: uniform fit/predict dispatch plus serialization.

Eight kinds are available: knn, ols, ridge, lasso, elastic, tree, mlp,
cnn. A RegressorSpec names the kind, its hyperparameters, and a seed.
Two tables hold everything that differs per kind: SPEC_KINDS maps a spec
kind to its fit function and hyperparameter names, and _FORMATS maps a
fitted model class to its predict function, its input width and its
.npz layout. fit_any, predict_any, input_width, save_model and load_model
are lookups in them.
"""

from __future__ import annotations

import inspect
import json
import weakref
import zipfile
from collections.abc import Mapping
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, get_args, get_origin

import numpy as np

from .._inputs import check_choice, check_count
from .knn import KnnModel, knn_fit, knn_predict
from .linear import LinearModel, elastic_fit, lasso_fit, linear_predict, ols_fit, ridge_fit
from .tree import NODE_ARRAYS, TreeModel, tree_fit, tree_predict
from .mlp import MlpModel, mlp_fit, mlp_predict
from .cnn import PARAM_NAMES, CnnModel, cnn_fit, cnn_predict
from .optim import Scaling, TrainingDiverged

__all__ = [
    "RegressorSpec", "ConfigError", "TrainingDiverged", "SpecKind",
    "SPEC_KINDS", "KINDS",
    "fit_any", "predict_any", "input_width", "save_model", "load_model",
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

    A spec of this kind accepts the keywords of fit other than X, Y and
    seed; fit_any passes the spec's seed when fit has a seed keyword.
    run_set names the hyperparameters a CLI or benchmark run sets: name n
    of kind k is the BenchmarkConfig field k_n (cd_max_iter, cd_tol and
    optimizer for max_iter, tol and optimizer).
    """

    fit: Callable
    run_set: tuple[str, ...] = ()

    @property
    def keywords(self) -> frozenset[str]:
        """The fit's keyword names (all its parameters but X and Y)."""
        return frozenset(inspect.signature(self.fit).parameters) - {"X", "Y"}


SPEC_KINDS: dict[str, SpecKind] = {
    "knn": SpecKind(knn_fit, ("k",)),
    "ols": SpecKind(ols_fit),
    "ridge": SpecKind(ridge_fit, ("lam",)),
    "lasso": SpecKind(lasso_fit, ("alpha", "max_iter", "tol")),
    "elastic": SpecKind(elastic_fit, ("alpha", "rho", "max_iter", "tol")),
    "tree": SpecKind(tree_fit, ("max_depth", "min_samples_leaf")),
    "mlp": SpecKind(mlp_fit, ("hidden", "epochs", "batch_size", "optimizer")),
    "cnn": SpecKind(cnn_fit, ("epochs", "batch_size", "optimizer")),
}

KINDS = tuple(SPEC_KINDS)


@dataclass
class RegressorSpec:
    """What to train: a kind tag, its hyperparameters, and a seed (an integer >= 0)."""

    kind: str
    hyperparameters: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        check_choice("regressor kind", self.kind, KINDS, ConfigError)
        extra = set(self.hyperparameters) - (SPEC_KINDS[self.kind].keywords - {"seed"})
        if extra:
            raise ConfigError(
                f"{self.kind} does not accept hyperparameters {sorted(extra)}"
            )
        check_count("seed", self.seed, 0, error=ConfigError)


def fit_any(spec: RegressorSpec, X, Y):
    """Train the model a spec describes.

    X is a 2-d feature matrix of any width a kind accepts; cnn reads the
    first side*side values of each row as its grid (cnn.grid_side), so
    every kind takes the same rows. Stochastic kinds (mlp, cnn) are
    bit-for-bit reproducible for a fixed seed.
    """
    entry = SPEC_KINDS[spec.kind]
    seed = {"seed": spec.seed} if "seed" in entry.keywords else {}
    return entry.fit(X, Y, **spec.hyperparameters, **seed)


class _Format(NamedTuple):
    """A fitted model class: predict function, input width and .npz layout."""

    tag: str  # meta "kind" in the file
    predict: Callable
    n_features: Callable  # model -> the width of the rows its predict takes
    to_payload: Callable  # model -> (meta entries, named arrays)
    from_payload: Callable  # (meta entries, arrays) -> model


def _tree_payload(m: TreeModel):
    meta = {
        "n_features": m.n_features,
        "max_depth": m.max_depth,
        "min_samples_leaf": m.min_samples_leaf,
    }
    return meta, {f"tree_{name}": getattr(m, name) for name in NODE_ARRAYS}


def _tree_model(meta, data) -> TreeModel:
    return TreeModel(
        **{name: data[f"tree_{name}"] for name in NODE_ARRAYS},
        n_features=meta.typed("n_features", int),
        max_depth=meta.typed("max_depth", int, type(None)),
        min_samples_leaf=meta.typed("min_samples_leaf", int),
    )


def _scaling_meta(s: Scaling) -> dict:
    return {
        "input_offset": s.input_offset,
        "input_scale": s.input_scale,
        "target_offset": np.asarray(s.target_offset).tolist(),
        "target_scale": np.asarray(s.target_scale).tolist(),
    }


def _scaling(meta, n_outputs: int) -> Scaling:
    """A network file's scaling. A file written before fit_scaling holds
    scalar targets and no input fields: its inputs are not scaled."""
    targets = []
    for name in ("target_offset", "target_scale"):
        target = np.asarray(meta.typed(name, float, list[float]), dtype=np.float64)
        if target.shape not in ((), (n_outputs,)):
            raise meta.refused(name, f"not a number or {n_outputs} numbers")
        targets.append(target)
    inputs = [float(meta.typed(name, float)) if name in meta else unscaled
              for name, unscaled in (("input_offset", 0.0), ("input_scale", 1.0))]
    return Scaling(*inputs, *targets)


def _mlp_payload(m: MlpModel):
    meta = {
        "n_layers": len(m.weights),
        "hidden_activation": "tanh",  # the one hidden activation; kept in the file format
        **_scaling_meta(m.scaling),
    }
    arrays: dict[str, np.ndarray] = {}
    for i, (w, b) in enumerate(zip(m.weights, m.biases)):
        arrays[f"mlp_w{i}"], arrays[f"mlp_b{i}"] = w, b
    return meta, arrays


def _mlp_model(meta, data) -> MlpModel:
    if meta["hidden_activation"] != "tanh":
        raise meta.refused("hidden_activation", "not 'tanh'")
    n = meta.typed("n_layers", int)
    stored = sorted(name for name in data if name.startswith("mlp_"))
    if stored != sorted(f"mlp_{part}{i}" for i in range(n) for part in "bw"):
        raise meta.refused("n_layers", f"but the file holds arrays {stored}")
    model = MlpModel(
        weights=[data[f"mlp_w{i}"] for i in range(n)],
        biases=[data[f"mlp_b{i}"] for i in range(n)],
    )
    model.scaling = _scaling(meta, model.biases[-1].size)
    return model


# cnn meta entries besides the scaling, and how each is read back
_CNN_META = {"side": int, "dropout_conv": float, "dropout_dense": float}


def _cnn_payload(m: CnnModel):
    meta = {name: getattr(m, name) for name in (*_CNN_META, "n_features")}
    arrays = {f"cnn_{name}": arr for name, arr in m.params.items()}
    return {**meta, **_scaling_meta(m.scaling)}, arrays


def _cnn_model(meta, data) -> CnnModel:
    # a file written before n_features was kept reads rows of side*side values
    model = CnnModel(
        params={name: data[f"cnn_{name}"] for name in PARAM_NAMES},
        **{name: read(meta.typed(name, read)) for name, read in _CNN_META.items()},
        n_features=meta.typed("n_features", int, type(None)) if "n_features" in meta else None,
    )
    model.scaling = _scaling(meta, model.params["out_b"].size)
    return model


_FORMATS: dict[type, _Format] = {
    KnnModel: _Format(
        "knn", knn_predict, lambda m: m.X.shape[1],
        lambda m: ({"k": m.k}, {"knn_x": m.X, "knn_y": m.Y}),
        lambda meta, data: KnnModel(X=data["knn_x"], Y=data["knn_y"], k=meta.typed("k", int)),
    ),
    LinearModel: _Format(
        "linear", linear_predict, lambda m: m.weights.shape[0],
        lambda m: ({"converged": bool(m.converged)}, {"lin_w": m.weights, "lin_b": m.intercept}),
        lambda meta, data: LinearModel(
            weights=data["lin_w"], intercept=data["lin_b"], converged=meta.typed("converged", bool)
        ),
    ),
    TreeModel: _Format("tree", tree_predict, lambda m: m.n_features, _tree_payload, _tree_model),
    MlpModel: _Format("mlp", mlp_predict, lambda m: m.weights[0].shape[0],
                      _mlp_payload, _mlp_model),
    CnnModel: _Format("cnn", cnn_predict, lambda m: m.n_features, _cnn_payload, _cnn_model),
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


def input_width(model) -> int:
    """The width of the feature rows a fitted model's predict takes."""
    return int(_format_of(model, "read the input width of").n_features(model))


def save_model(path, model, extras: dict | None = None) -> None:
    """Write a fitted model to .npz at path, as given, in one write. An array-valued
    extra is an archive entry beside the model's own; the rest ride in the meta record."""
    fmt = _format_of(model, "serialize")
    meta, arrays = fmt.to_payload(model)
    extras = extras or {}
    extra_arrays = {k: v for k, v in extras.items() if isinstance(v, np.ndarray)}
    meta.update(kind=fmt.tag, extras={k: v for k, v in extras.items() if k not in extra_arrays})
    arrays["meta"] = np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
    with open(path, "wb") as f:  # np.savez would append .npz to a bare name
        np.savez(f, **arrays, **extra_arrays)


#: what numpy and zipfile raise on a file or archive member they cannot read
_UNREADABLE = (zipfile.BadZipFile, EOFError, ValueError)


def _unreadable(path, exc: Exception, what: str) -> ConfigError:
    """The ConfigError for a file or member that raised exc on reading. Only
    zipfile's text is passed on: numpy's advises loading the file by pickle."""
    if isinstance(exc, zipfile.BadZipFile):
        return ConfigError(f"{path} is damaged: {exc}")
    return ConfigError(f"{path} is not a facekeys model file: {what}")


def _json_is(value, kind) -> bool:
    """Whether a value read from JSON is of kind, a type or list[type]. An
    int is a float too, but a bool is no int."""
    if get_origin(kind) is list:
        return type(value) is list and all(_json_is(v, *get_args(kind)) for v in value)
    return type(value) is kind or (kind is float and type(value) is int)


class _Entries(Mapping):
    """A model file's meta record, arrays or extras by name. An entry is
    read from the mapping that holds it when it is looked up, so an array
    is read from the archive only if asked for; a name the file lacks, or
    an array it cannot read or whose values are not numbers or bools, is a
    ConfigError that names it, and so is a JSON entry of the wrong type
    read by typed. served holds the names looked up."""

    def __init__(self, path, what: str, holders: dict):
        self._path, self._what, self._holders = path, what, holders  # name -> its mapping
        self.served: set[str] = set()

    def __getitem__(self, name: str):
        if name not in self._holders:
            raise ConfigError(f"{self._path} has no {self._what} {name!r}")
        self.served.add(name)
        try:
            value = self._holders[name][name]
        except _UNREADABLE as exc:  # a damaged archive member, found when it is read
            raise _unreadable(self._path, exc, f"its {name!r} is not an array") from None
        if isinstance(value, np.ndarray) and value.dtype.kind not in "biuf":
            raise ConfigError(f"{self._path} is not a facekeys model file: its {name!r} "
                              f"holds {value.dtype} values, not numbers")
        return value

    def typed(self, name: str, *kinds):
        """self[name], a JSON value of one of kinds (see _json_is)."""
        value = self[name]
        if not any(_json_is(value, kind) for kind in kinds):
            wanted = " or ".join("null" if kind is type(None) else
                                 str(kind) if get_origin(kind) else kind.__name__ for kind in kinds)
            raise self.refused(name, f"not {wanted}")
        return value

    def refused(self, name: str, why: str) -> ConfigError:
        """The ConfigError for the entry name, whose value the file holds, and why it is wrong."""
        return ConfigError(f"{self._path} is not a facekeys model file: its {self._what} "
                           f"{name!r} is {self[name]!r}, {why}")

    def get(self, name: str, default=None):
        return self[name] if name in self else default

    def __contains__(self, name) -> bool:
        return name in self._holders

    def __iter__(self):
        return iter(self._holders)

    def __len__(self) -> int:
        return len(self._holders)


def load_model(path):
    """Read a model written by save_model. Returns (model, extras).

    extras also holds every array the model's kind did not read, each read
    from the still-open archive when looked up. A file that lacks a meta
    entry or an array its kind reads, whose arrays do not form a valid
    model, or that is not an .npz archive or is damaged raises a
    ConfigError that names the path, and so does an array that cannot be
    read when it is looked up in extras.
    """
    with ExitStack() as closing:
        # opened here: np.load leaves a path's file open if its archive directory is unreadable
        file = closing.enter_context(open(path, "rb"))
        try:
            data = np.load(file)
        except _UNREADABLE as exc:
            raise _unreadable(path, exc, "it is not an .npz archive") from None
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ConfigError(f"{path} is not a facekeys model file: it is not an .npz archive")
        closing.callback(data.close)
        if "meta" not in data.files:
            raise ConfigError(f"{path} is not a facekeys model file: it has no meta record")
        try:
            meta = json.loads(bytes(data["meta"]).decode())
        except _UNREADABLE as exc:
            raise _unreadable(path, exc, "its meta record is not JSON") from None
        if not isinstance(meta, dict):
            raise ConfigError(f"{path} is not a facekeys model file: its meta record is not "
                              f"a JSON object")
        kind, extras = meta.get("kind"), meta.get("extras", {})
        fmt = _FORMAT_BY_TAG.get(kind) if isinstance(kind, str) else None
        if fmt is None:
            raise ConfigError(f"unknown model kind {kind!r} in {path}")
        if not isinstance(extras, dict):
            raise ConfigError(f"{path} is not a facekeys model file: its extras are {extras!r}, "
                              "not a JSON object")
        arrays = _Entries(path, "array", dict.fromkeys([n for n in data.files if n != "meta"], data))
        entries = _Entries(path, "meta entry", dict.fromkeys(meta, meta))
        try:
            model = fmt.from_payload(entries, arrays)
        except ConfigError:
            raise  # it names the file already
        except ValueError as exc:  # a model class's own check of its arrays
            raise ConfigError(f"{path} is not a facekeys model file: {exc}") from None
        unread = [name for name in arrays if name not in arrays.served]
        if unread:  # extras reads them from the open archive, whose file closes with it
            closing.pop_all()
            weakref.finalize(data, file.close)
    return model, _Entries(path, "extra", {**dict.fromkeys(extras, extras),
                                           **dict.fromkeys(unread, data)})
