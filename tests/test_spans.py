"""perfbench's span targets name functions that exist.

perfbench/spans.py records a traced run's layer times by rebinding the
functions in its TARGETS list, and only warns when one is gone or when an
observer of a finished span fails. These tests fail instead, so a
refactor that renames or inlines a traced function, or one the tree
observer reads, updates perfbench in the same change.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

import facekeys.cli  # noqa: F401  imports every module the targets name
from facekeys import regressors

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_span_target_resolves_to_a_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        spans = importlib.import_module("spans")
        missing = [f"{mod}.{attr}" for mod, attr, _ in spans.TARGETS
                   if spans._resolve(mod, attr) is None]
    finally:
        sys.modules.pop("spans", None)
    assert missing == []


def test_traced_tree_fit_records_depth_and_leaves(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        spans = importlib.import_module("spans")
        tracer = spans.Tracer()
        instrumentation = spans.Instrumentation(tracer)
        instrumentation.apply()
        try:
            X = np.arange(8.0)[:, None]
            regressors.fit_any(regressors.RegressorSpec("tree", {"max_depth": 2}), X, X ** 2)
        finally:
            instrumentation.restore()
    finally:
        sys.modules.pop("spans", None)
    fits = [s for s in tracer.spans if s.name == "regressors.tree.fit"]
    assert [(s.attrs["depth"], s.attrs["leaves"]) for s in fits] == [(2, 4)]
    assert "perfbench: warning" not in capsys.readouterr().err


@pytest.mark.parametrize("optimizer", ["rmsprop", "sgd"])
@pytest.mark.parametrize("kind", ["mlp", "cnn"])
def test_traced_network_fit_records_a_grad_and_a_step_per_batch(monkeypatch, capsys, kind,
                                                                optimizer):
    # 10 rows in batches of 4 for 2 epochs: 6 batches; the cnn reads the rows as 4x4 grids
    X = np.random.default_rng(0).normal(size=(10, 16))
    hyperparameters = {"epochs": 2, "batch_size": 4, "optimizer": optimizer}
    if kind == "mlp":
        hyperparameters["hidden"] = (4,)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        spans = importlib.import_module("spans")
        tracer = spans.Tracer()
        instrumentation = spans.Instrumentation(tracer)
        instrumentation.apply()
        try:
            regressors.fit_any(regressors.RegressorSpec(kind, hyperparameters), X, X[:, :2])
        finally:
            instrumentation.restore()
    finally:
        sys.modules.pop("spans", None)
    names = [s.name for s in tracer.spans]
    assert names.count(f"regressors.{kind}.grad") == 6
    assert names.count("regressors.optim.step") == 6
    if kind == "cnn":  # the cnn's dense head runs the mlp's code, not its traced gradient
        assert "regressors.mlp.grad" not in names
    assert "perfbench: warning" not in capsys.readouterr().err
