"""Golden RMSE table: the CSV reports of two small seeded benchmark configs,
committed under tests/golden/ and recomputed cell by cell.

knn and tree cells must match exactly. The linear, mlp and cnn cells must
match within a relative tolerance stated per kind, because BLAS may sum a
product in another order (another thread count, another build). Every
other field of a row must match exactly.

A change that moves a cell on purpose rewrites the files with
``OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_golden.py``
and names the change.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

from conftest import build_dataset
from facekeys.dataset import write_training_csv
from facekeys.eval import ALL_MODELS, BenchmarkConfig, format_report, run_benchmark
from readers import load_report_csv

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"

#: Largest relative difference a cell may show, per model kind. Moving
#: every network input of these configs by one ulp moves the mlp's
#: predictions by at most 6e-15 and the cnn's by 3e-16, relative.
RTOL = {"knn": 0.0, "tree": 0.0, "ols": 1e-10, "ridge": 1e-10, "lasso": 1e-10, "elastic": 1e-10,
        "mlp": 1e-10, "cnn": 1e-10}

#: name -> (build_dataset arguments, BenchmarkConfig fields)
CONFIGS = {
    "rows60-seed7": ({"n_rows": 60, "side": 8, "seed": 5, "sparse_missing_rows": 20}, {"seed": 7}),
    "rows48-seed3": (
        {"n_rows": 48, "side": 8, "seed": 11, "sparse_missing_rows": 16},
        {"seed": 3, "train_only_means": True, "pca_components": 16},
    ),
}


def report_csv(name: str, directory) -> str:
    """The CSV report of a golden config, run on a dataset written under directory."""
    data, fields = CONFIGS[name]
    path = Path(directory) / f"{name}-training.csv"
    write_training_csv(build_dataset(**data), path)
    cfg = BenchmarkConfig(training_csv=str(path), models=ALL_MODELS, **fields)
    return format_report(run_benchmark(cfg), "csv")


def assert_matches_golden(text: str, name: str) -> None:
    want = load_report_csv((GOLDEN / f"{name}.csv").read_text()).rows
    got = load_report_csv(text).rows
    assert len(got) == len(want)
    for g, w in zip(got, want):
        key = (w.model, w.pipeline, w.task)
        assert (g.model, g.pipeline, g.task, g.n_train, g.n_test, g.seed, g.hyperparameters,
                g.error) == (*key, w.n_train, w.n_test, w.seed, w.hyperparameters, w.error)
        assert w.rmse is not None, key
        assert math.isclose(g.rmse, w.rmse, rel_tol=RTOL[g.model], abs_tol=0.0), \
            (key, g.rmse, w.rmse)


def test_golden_configs_cover_both_pipelines_and_every_model():
    for name in CONFIGS:
        rows = load_report_csv((GOLDEN / f"{name}.csv").read_text()).rows
        assert {r.pipeline for r in rows} == {"raw", "lbp_pca"}
        assert {r.model for r in rows} == set(ALL_MODELS) == set(RTOL)
        assert {r.task for r in rows} == {"eleven", "four"}


def test_reports_match_the_golden_table(tmp_path):
    for name in CONFIGS:
        assert_matches_golden(report_csv(name, tmp_path), name)


_CHILD = """
import sys
from test_golden import report_csv
sys.stdout.write(report_csv(sys.argv[1], sys.argv[2]))
"""


def test_the_golden_rule_holds_at_one_and_two_blas_threads(tmp_path):
    name = "rows60-seed7"
    path = os.pathsep.join([str(HERE.parent / "src"), str(HERE)])
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
        out = subprocess.run([sys.executable, "-c", _CHILD, name, str(tmp_path)], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert_matches_golden(out, name)


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for config in CONFIGS:
            (GOLDEN / f"{config}.csv").write_text(report_csv(config, tmp))
