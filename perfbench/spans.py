"""Layer spans recorded from outside the program.

Instrumentation rebinds public functions of the facekeys package: every
``facekeys.*`` module attribute that refers to a listed function (and the
class attribute, for methods) is replaced by a wrapper that records a
span, then calls the original. The program keeps its single code path;
nothing of it is copied here. A listed function that no longer exists is
skipped with a warning, so a refactor of the package cannot crash a run;
its spans then show as count 0.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

#: (module, attribute, span name). A dotted attribute is a method.
TARGETS = (
    ("facekeys.dataset", "load_training_csv", "dataset.decode"),
    ("facekeys.dataset", "load_image_csv", "dataset.decode"),
    ("facekeys.dataset", "write_training_csv", "dataset.encode"),
    ("facekeys.dataset", "write_image_csv", "dataset.encode"),
    ("facekeys.lbp", "lbp_basic", "lbp.code"),
    ("facekeys.lbp", "lbp_circular", "lbp.code"),
    ("facekeys.pca", "fit_pca", "pca.fit"),
    ("facekeys.pca", "transform", "pca.transform"),
    ("facekeys.pipeline", "fit_pipeline", "pipeline.fit"),
    ("facekeys.pipeline", "FeaturePipeline.transform", "pipeline.transform"),
    ("facekeys.regressors", "fit_any", "regressors.fit"),
    ("facekeys.regressors", "predict_any", "regressors.predict"),
    ("facekeys.regressors", "save_model", "regressors.save"),
    ("facekeys.regressors", "load_model", "regressors.load"),
    ("facekeys.regressors.mlp", "loss_and_gradients", "regressors.mlp.grad"),
    ("facekeys.regressors.cnn", "loss_and_gradients", "regressors.cnn.grad"),
    ("facekeys.regressors.optim", "RmsProp.step", "regressors.optim.step"),
    ("facekeys.regressors.optim", "Sgd.step", "regressors.optim.step"),
    ("facekeys.eval", "run_benchmark", "eval.run_benchmark"),
    ("facekeys.cli", "main", "cli.main"),
)

KINDS = ("knn", "ols", "ridge", "lasso", "elastic", "tree", "mlp", "cnn")

#: Every per-layer metric: name -> (unit, which direction is better).
LAYER_METRICS = {
    "dataset.decode_s": ("s", "lower"),
    "dataset.decode_rows_per_s": ("1/s", "higher"),
    "dataset.encode_s": ("s", "lower"),
    "lbp.calls": ("count", "lower"),
    "lbp.busy_s": ("s", "lower"),
    "lbp.images_per_s": ("1/s", "higher"),
    "pca.fit_s": ("s", "lower"),
    "pca.transform_s": ("s", "lower"),
    "pipeline.fit_s": ("s", "lower"),
    "pipeline.transform_s": ("s", "lower"),
    "pipeline.self_s": ("s", "lower"),
    **{f"regressors.{k}.{p}_s": ("s", "lower") for k in KINDS for p in ("fit", "predict")},
    "regressors.linear.converged_frac": ("ratio", "higher"),
    "regressors.tree.depth": ("count", "lower"),
    "regressors.tree.leaves": ("count", "lower"),
    **{f"regressors.{k}.{name}": unit for k in ("mlp", "cnn") for name, unit in (
        ("epoch_s", ("s", "lower")),
        ("grad_calls", ("count", "lower")),
        ("grad_s", ("s", "lower")),
        ("final_loss", ("mse", "lower")),
    )},
    "regressors.optim.step_s": ("s", "lower"),
    "regressors.cnn.gflop": ("GFLOP-computed", "lower"),
    "regressors.cnn.gflops_achieved": ("GFLOP/s", "higher"),
    "regressors.save_s": ("s", "lower"),
    "regressors.load_s": ("s", "lower"),
    "regressors.model_mb": ("MB", "lower"),
    "cli.self_s": ("s", "lower"),
    "eval.self_s": ("s", "lower"),
    "eval.rmse1_px": ("px", "lower"),
    "eval.rmse2_px": ("px", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    unit: str = ""
    row: int | None = None
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Spans kept in memory; ``unit`` and ``row`` tag every span opened.

    A unit is one set-up, one study call or one request; a row is one
    fit_any call and what follows it until the next one (one report row
    in a study).
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.unit = ""
        self.row: int | None = None
        self._rows = 0
        self._stack: list[int] = []
        self.kind_of_model: dict[int, str] = {}
        self.predict_kind: str | None = None

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent,
                               unit=self.unit, row=self.row))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        return span

    def new_row(self) -> None:
        self._rows += 1
        self.row = self._rows

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "unit": s.unit, "row": s.row,
                    "attrs": s.attrs,
                }, sort_keys=True) + "\n")


def _warn(message: str) -> None:
    print(f"perfbench: warning: {message}", file=sys.stderr)


def _resolve(modname: str, attr: str):
    """(owner, attribute name, original) or None when it is gone."""
    module = sys.modules.get(modname)
    if module is None:
        return None
    owner = module
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, parts[-1], None)
    if not callable(original):
        return None
    return owner, parts[-1], original


class Instrumentation:
    """Rebinds the TARGETS to span-recording wrappers; undone by restore()."""

    def __init__(self, tracer: Tracer, targets=TARGETS):
        self.tracer = tracer
        self._warned: set[str] = set()
        self._bindings: list[tuple[object, str, object]] = []
        self._wrappers: dict[tuple[str, str], tuple[object, object]] = {}
        for modname, attr, span_name in targets:
            found = _resolve(modname, attr)
            if found is None:
                _warn(f"{modname}.{attr} not found; span {span_name} will read 0")
                continue
            owner, name, original = found
            self._wrappers[(modname, attr)] = (original, self._wrap(original, span_name))

    def _wrap(self, original, span_name):
        tracer = self.tracer
        observe = {
            "regressors.fit": _after_fit,
            "regressors.predict": _after_predict,
            "regressors.load": _after_load,
            "regressors.cnn.grad": _after_cnn_grad,
            "dataset.decode": _after_decode,
        }.get(span_name)

        def wrapper(*args, **kwargs):
            name = span_name
            if span_name == "regressors.fit":
                tracer.new_row()
                name = f"regressors.{getattr(args[0] if args else None, 'kind', 'unknown')}.fit"
            elif span_name == "pipeline.fit":
                tracer.row = None
            elif span_name == "regressors.predict":
                kind = tracer.kind_of_model.get(id(args[0])) or tracer.predict_kind or "unknown"
                name = f"regressors.{kind}.predict"
            idx = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                span = tracer.close(idx)
            if observe is not None:
                try:
                    observe(tracer, span, args, result)
                except Exception as exc:  # a changed signature must not end the run
                    if span_name not in self._warned:
                        self._warned.add(span_name)
                        _warn(f"cannot observe {span_name}: {exc!r}")
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", "wrapper")
        return wrapper

    def apply(self) -> None:
        """Rebind every reference in facekeys modules (and class attributes)."""
        swap = {id(orig): wrap for orig, wrap in self._wrappers.values()}
        self._bindings = []
        for modname, module in list(sys.modules.items()):
            if modname != "facekeys" and not modname.startswith("facekeys."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in swap:
                    self._bindings.append((module, attr, value))
                    setattr(module, attr, swap[id(value)])
        for (modname, attr), (orig, wrap) in self._wrappers.items():
            if "." in attr:
                owner, name, _ = _resolve(modname, attr)
                self._bindings.append((owner, name, orig))
                setattr(owner, name, wrap)

    def restore(self) -> None:
        for owner, attr, value in reversed(self._bindings):
            setattr(owner, attr, value)
        self._bindings = []


# --- per-span observations, taken after the span closed ------------------

def _after_fit(tracer, span, args, model):
    spec = args[0]
    tracer.kind_of_model[id(model)] = spec.kind
    span.attrs["kind"] = spec.kind
    span.attrs["rows"] = int(len(args[2]))
    if hasattr(model, "converged"):
        span.attrs["converged"] = bool(model.converged)
    if getattr(model, "loss_history", None):
        span.attrs["final_loss"] = float(model.loss_history[-1])
        span.attrs["epochs"] = len(model.loss_history)
    if spec.kind == "tree":
        from facekeys.regressors.tree import flatten_tree, tree_depth

        span.attrs["depth"] = int(tree_depth(model))
        span.attrs["leaves"] = int((flatten_tree(model)["left"] == -1).sum())


def _after_predict(tracer, span, args, result):
    span.attrs["rows"] = int(result.shape[0])
    if span.name == "regressors.cnn.predict":
        span.attrs["flop"] = cnn_flop(args[1].shape[0], args[1].shape[1], result.shape[1], False)


def _after_load(tracer, span, args, result):
    tracer.kind_of_model[id(result[0])] = tracer.predict_kind or "unknown"
    span.attrs["bytes"] = os.path.getsize(args[0])


def _after_cnn_grad(tracer, span, args, result):
    X, Y = args[1], args[2]
    span.attrs["flop"] = cnn_flop(X.shape[0], X.shape[1], Y.shape[1], True)


def _after_decode(tracer, span, args, result):
    span.attrs["rows"] = int(len(result))


def cnn_flop(n: int, side: int, outputs: int, backward: bool) -> float:
    """Multiply-add flops of the facekeys CNN, computed from its shapes.

    conv 32@5x5 on side^2, conv 8@3x3 over 32 channels on (side/2)^2,
    dense (side/4)^2*8 -> 100, linear 100 -> outputs. A backward pass
    costs two forward passes (input and weight gradients of every layer,
    conv1's input gradient included, as the package computes it).
    """
    half, quarter = side // 2, side // 4
    forward = 2.0 * n * (
        32 * side * side * 25
        + 8 * half * half * 32 * 9
        + quarter * quarter * 8 * 100
        + 100 * outputs
    )
    return forward * (3.0 if backward else 1.0)


# --- per-layer metrics ---------------------------------------------------

def _self_seconds(spans: list[Span]) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def layer_metrics(spans: list[Span], timed_units: int) -> dict[str, float]:
    """Per-layer numbers: one set-up plus one timed unit's worth.

    Set-up spans (unit "setup") count once; spans of the timed phase are
    divided by the number of traced timed units. Rates and ratios use
    every span.
    """
    selfs = _self_seconds(spans)
    n = max(timed_units, 1)

    def weight(s: Span) -> float:
        return 1.0 if s.unit == "setup" else 1.0 / n

    def total(pred, value=lambda s, i: spans[i].end - spans[i].start) -> float:
        return sum(weight(s) * value(s, i) for i, s in enumerate(spans) if pred(s))

    def busy(prefix: str) -> float:
        return total(lambda s: s.name == prefix or s.name.startswith(prefix + "."))

    def count(name: str) -> float:
        return total(lambda s: s.name == name, lambda s, i: 1.0)

    def self_of(layer: str) -> float:
        return total(lambda s: s.name.split(".")[0] == layer, lambda s, i: selfs[i])

    def all_of(name):
        return [s for s in spans if s.name == name]

    m: dict[str, float] = {}
    decode = all_of("dataset.decode")
    decode_busy = sum(s.end - s.start for s in decode)
    m["dataset.decode_s"] = busy("dataset.decode")
    m["dataset.decode_rows_per_s"] = (
        sum(s.attrs.get("rows", 0) for s in decode) / decode_busy if decode_busy else 0.0
    )
    m["dataset.encode_s"] = busy("dataset.encode")

    lbp = all_of("lbp.code")
    lbp_busy = sum(s.end - s.start for s in lbp)
    m["lbp.calls"] = count("lbp.code")
    m["lbp.busy_s"] = busy("lbp.code")
    m["lbp.images_per_s"] = len(lbp) / lbp_busy if lbp_busy else 0.0

    m["pca.fit_s"] = busy("pca.fit")
    m["pca.transform_s"] = busy("pca.transform")
    m["pipeline.fit_s"] = busy("pipeline.fit")
    m["pipeline.transform_s"] = busy("pipeline.transform")
    m["pipeline.self_s"] = self_of("pipeline")

    for kind in KINDS:
        m[f"regressors.{kind}.fit_s"] = busy(f"regressors.{kind}.fit")
        m[f"regressors.{kind}.predict_s"] = busy(f"regressors.{kind}.predict")

    linear = [s for s in spans if s.name.endswith(".fit") and "converged" in s.attrs]
    m["regressors.linear.converged_frac"] = (
        sum(s.attrs["converged"] for s in linear) / len(linear) if linear else 0.0
    )
    trees = all_of("regressors.tree.fit")
    m["regressors.tree.depth"] = float(max((s.attrs.get("depth", 0) for s in trees), default=0))
    m["regressors.tree.leaves"] = total(
        lambda s: s.name == "regressors.tree.fit", lambda s, i: s.attrs.get("leaves", 0)
    )

    for kind in ("mlp", "cnn"):
        fits = all_of(f"regressors.{kind}.fit")
        epochs = sum(s.attrs.get("epochs", 0) for s in fits)
        fit_busy = sum(s.end - s.start for s in fits)
        m[f"regressors.{kind}.epoch_s"] = fit_busy / epochs if epochs else 0.0
        m[f"regressors.{kind}.grad_calls"] = count(f"regressors.{kind}.grad")
        m[f"regressors.{kind}.grad_s"] = busy(f"regressors.{kind}.grad")
        losses = [s.attrs["final_loss"] for s in fits if "final_loss" in s.attrs]
        m[f"regressors.{kind}.final_loss"] = sum(losses) / len(losses) if losses else 0.0
    m["regressors.optim.step_s"] = busy("regressors.optim.step")

    flop_spans = [s for s in spans if s.name in ("regressors.cnn.grad", "regressors.cnn.predict")]
    flop_busy = sum(s.end - s.start for s in flop_spans)
    m["regressors.cnn.gflop"] = total(
        lambda s: s.name in ("regressors.cnn.grad", "regressors.cnn.predict"),
        lambda s, i: s.attrs.get("flop", 0.0) / 1e9,
    )
    m["regressors.cnn.gflops_achieved"] = (
        sum(s.attrs.get("flop", 0.0) for s in flop_spans) / 1e9 / flop_busy if flop_busy else 0.0
    )

    m["regressors.save_s"] = busy("regressors.save")
    m["regressors.load_s"] = busy("regressors.load")
    loads = all_of("regressors.load")
    m["regressors.model_mb"] = (
        sum(s.attrs.get("bytes", 0) for s in loads) / len(loads) / 1e6 if loads else 0.0
    )
    m["cli.self_s"] = self_of("cli")
    m["eval.self_s"] = self_of("eval")
    for key, value in m.items():
        if not math.isfinite(value):
            m[key] = 0.0
    return m
