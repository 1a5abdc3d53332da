"""perfbench's span targets name functions that exist.

perfbench/spans.py records a traced run's layer times by rebinding the
functions in its TARGETS list, and only warns when one is gone. This test
fails instead, so a refactor that renames or inlines a traced function
updates the list in the same change.
"""

import importlib
import sys
from pathlib import Path

import facekeys.cli  # noqa: F401  imports every module the targets name

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
