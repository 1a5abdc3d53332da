"""Shared fixtures: synthetic datasets and the acceptance summary hook."""

from __future__ import annotations

import os
import re
from pathlib import Path

import numpy as np
import pytest

from facekeys.dataset import SLOT_NAMES, Dataset, write_training_csv

# four slots kept dense in synthetic data; the other eleven go missing
CORE_SLOTS = (0, 1, 10, 14)
SPARSE_SLOTS = tuple(j for j in range(15) if j not in CORE_SLOTS)


def build_dataset(
    n_rows: int = 30,
    side: int = 16,
    seed: int = 0,
    sparse_missing_rows: int = 12,
    core_missing_cells: int = 2,
) -> Dataset:
    """Random dataset in the training-CSV shape.

    sparse_missing_rows rows lose all eleven sparse slots (so the
    coverage split finds the four core slots); core_missing_cells single
    coordinates among the core slots go missing to exercise imputation.
    """
    rng = np.random.default_rng(seed)
    images = rng.integers(0, 256, (n_rows, side, side), dtype=np.uint8)
    coords = rng.uniform(4.0, 92.0, (n_rows, 30))
    if sparse_missing_rows:
        rows = rng.choice(n_rows, size=sparse_missing_rows, replace=False)
        for j in SPARSE_SLOTS:
            coords[rows, 2 * j] = np.nan
            coords[rows, 2 * j + 1] = np.nan
    fully_present = [r for r in range(n_rows) if not np.isnan(coords[r]).any()]
    for i in range(core_missing_cells):
        # drop single core coordinates outside the fully present rows
        row = rows[i % len(rows)] if sparse_missing_rows else i
        coords[row, 2 * CORE_SLOTS[i % 4] + (i % 2)] = np.nan
    assert len(fully_present) >= 2, "fixture needs fully labeled rows"
    return Dataset(images=images, keypoints=coords, slot_names=SLOT_NAMES)


def kaggle_size_dataset() -> Dataset:
    """300 random faces at Kaggle's 96x96 size: 40% of the rows lack the eleven sparse
    slots, and three single core cells are missing."""
    rng = np.random.default_rng(1)
    images = rng.integers(0, 256, size=(300, 96, 96), dtype=np.uint8)
    keypoints = rng.uniform(0.0, 96.0, size=(300, 2 * len(SLOT_NAMES)))
    keypoints[rng.random(300) < 0.4, 8:] = np.nan  # rows without the eleven sparse slots
    keypoints[[3, 7, 11], [0, 3, 6]] = np.nan  # single core cells
    return Dataset(images, keypoints, SLOT_NAMES)


def kaggle_size_block() -> tuple[np.ndarray, np.ndarray]:
    """kaggle_size_dataset's scaled pixels X and first eight coordinates Y, on the rows
    where those eight are present."""
    faces = kaggle_size_dataset()
    Y = faces.keypoints[:, :8]
    rows = np.isfinite(Y).all(axis=1)
    return faces.images[rows].reshape(int(rows.sum()), -1) / 255.0, Y[rows]


@pytest.fixture
def small_ds() -> Dataset:
    return build_dataset()


@pytest.fixture
def csv_path(tmp_path) -> Path:
    path = tmp_path / "faces.csv"
    write_training_csv(build_dataset(), path)
    return path


@pytest.fixture
def eigh_calls(monkeypatch):
    """The shapes of the matrices np.linalg.eigh is called on, in order."""
    calls, eigh = [], np.linalg.eigh
    def spy(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigh", spy)
    return calls


def real_training_csv() -> str | None:
    """Path of the real training CSV if this environment has one: $FACEKEYS_TRAINING_CSV,
    else data/training.csv in the checkout, wherever pytest runs from."""
    candidate = os.environ.get("FACEKEYS_TRAINING_CSV",
                               str(Path(__file__).resolve().parents[1] / "data" / "training.csv"))
    return candidate if os.path.exists(candidate) else None


REAL_DATA_SKIP = (
    "real training CSV not found (set FACEKEYS_TRAINING_CSV or place "
    "data/training.csv); criterion needs the actual dataset"
)


# ---- acceptance reporting -------------------------------------------------

_ACCEPTANCE: dict[str, tuple[str, str]] = {}


def pytest_runtest_logreport(report):
    m = re.search(r"test_acceptance\.py::test_c(\d+)\w*", report.nodeid)
    if not m:
        return
    key = report.nodeid
    if report.when == "setup" and report.skipped:
        _ACCEPTANCE[key] = ("SKIP", _skip_reason(report))
    elif report.when == "call":
        if report.skipped:
            _ACCEPTANCE[key] = ("SKIP", _skip_reason(report))
        else:
            _ACCEPTANCE[key] = ("PASS" if report.passed else "FAIL", "")


def _skip_reason(report) -> str:
    if isinstance(report.longrepr, tuple):
        return report.longrepr[2]
    return str(report.longrepr or "")


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    def criterion_number(nodeid: str) -> int:
        return int(re.search(r"test_c(\d+)", nodeid).group(1))

    write = terminalreporter.write_line
    write("")
    write("acceptance criteria:")
    for nodeid in sorted(_ACCEPTANCE, key=lambda n: (criterion_number(n), n)):
        outcome, reason = _ACCEPTANCE[nodeid]
        name = nodeid.split("::")[-1]
        line = f"  {name}: {outcome}"
        if reason:
            line += f" ({reason})"
        write(line)
