"""RMSE metric, benchmark runner, and report formatting.

The benchmark mirrors the study design: per task (eleven sparse keypoints,
four dense keypoints) impute, hold out a seeded test fraction, build raw
and LBP+PCA feature pipelines, fit each configured model, and score
held-out RMSE in pixel units. Reports render as markdown tables (model
rows, RMSE1 = eleven task, RMSE2 = four task) or as a deterministic CSV.

A cell is one (model, pipeline, task) fit-and-score. The mlp and cnn
cells may run side by side on worker threads (see _network_workers); the
rows keep config order either way. A row's seconds is its own elapsed
time, which may overlap other rows', so a markdown table's seconds can
sum past the run's wall time.
"""

from __future__ import annotations

import csv
import io
import json
import os
import threading
import time
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from ._inputs import check_choice, check_count, check_number
from .dataset import (
    Dataset,
    column_means,
    holdout_split,
    impute_column_means,
    load_training_csv,
    split_by_keypoint_coverage,
)
from .lbp import LbpConfig, LbpError
from .pipeline import LBP_MODES, fit_pipeline
from .regressors import KINDS, SPEC_KINDS, RegressorSpec, fit_any, predict_any
from .rng import permutation

#: the tasks in report order, each with its RMSE column: the one list of task names
TASK_LABELS = {"eleven": "RMSE1", "four": "RMSE2"}
#: the feature pipelines a benchmark row is fit on: raw pixels, or LBP codes with PCA
PIPELINES = ("raw", "lbp_pca")

DEFAULT_MODELS = ("knn", "ols", "ridge", "lasso", "elastic", "tree")
ALL_MODELS = KINDS
#: The BenchmarkConfig values of the paper's study scale (`benchmark --full`).
STUDY_SCALE = {"max_rows": None, "mlp_epochs": 500, "cnn_epochs": 400}


class EvalError(ValueError):
    """Invalid metric input or benchmark configuration."""


def rmse(predictions, truths) -> float:
    """Root mean squared error over every entry of two equal-shape matrices."""
    P = np.asarray(predictions, dtype=np.float64)
    T = np.asarray(truths, dtype=np.float64)
    if P.shape != T.shape:
        raise EvalError(f"shape mismatch: {P.shape} vs {T.shape}")
    if P.size == 0:
        raise EvalError("cannot score empty matrices")
    diff = P - T
    return float(np.sqrt(np.mean(diff * diff)))


@dataclass
class BenchmarkConfig:
    """Everything a benchmark run depends on, one seed included.

    The defaults are desk scale: at most max_rows rows per task and short
    MLP and CNN training. STUDY_SCALE holds the study-scale values
    (every row, 500 MLP and 400 CNN epochs), which `facekeys benchmark
    --full` sets.
    """

    training_csv: str = ""
    models: tuple[str, ...] = DEFAULT_MODELS
    pipelines: tuple[str, ...] = PIPELINES
    tasks: tuple[str, ...] = tuple(TASK_LABELS)
    seed: int = 7
    train_fraction: float = 0.9
    scale_pixels: bool = True
    train_only_means: bool = False
    pca_components: int = 256
    lbp_neighbors: int = 8
    lbp_radius: float = 1.0
    lbp_rotation_invariant: bool = False
    lbp_mode: str = "pixel_map"
    max_rows: int | None = 400
    mlp_epochs: int = 30
    cnn_epochs: int = 20
    knn_k: int = 5
    ridge_lam: float = 1.0
    lasso_alpha: float = 0.1
    elastic_alpha: float = 0.1
    elastic_rho: float = 0.5
    cd_max_iter: int = 1000
    cd_tol: float = 1e-4
    tree_max_depth: int | None = 5
    tree_min_samples_leaf: int = 1
    optimizer: str = "rmsprop"
    mlp_hidden: tuple[int, ...] = (300, 150, 50)
    mlp_batch_size: int = 30
    cnn_batch_size: int = 50

    def __post_init__(self):
        for name, values, choices in (("model", self.models, ALL_MODELS),
                                      ("pipeline", self.pipelines, PIPELINES),
                                      ("task", self.tasks, TASK_LABELS)):
            for value in values:
                check_choice(name, value, choices, EvalError)
        check_choice("lbp_mode", self.lbp_mode, LBP_MODES, EvalError)
        # the run-level settings are refused here, before any data is read;
        # hyperparameters are checked by their fits, as row errors
        check_count("seed", self.seed, 0, error=EvalError)
        if self.max_rows is not None:
            check_count("max_rows", self.max_rows, 1, error=EvalError)
        check_number("train_fraction", self.train_fraction, 0, 1, above=True, below=True,
                     error=EvalError)
        check_count("pca_components", self.pca_components, 1, error=EvalError)
        check_count("mlp_epochs", self.mlp_epochs, 0, error=EvalError)
        check_count("cnn_epochs", self.cnn_epochs, 0, error=EvalError)
        _lbp_config(self)  # LbpConfig refuses a bad geometry


_FIELD_TYPES = {f.name: f.type for f in fields(BenchmarkConfig)}  # annotations, as text


def _number(key: str, text: str, kind: type):
    """text as an int or a float, or an EvalError naming the key."""
    try:
        return kind(text)
    except ValueError:
        expected = "a number" if kind is float else "an integer"
        raise EvalError(f"{key} must be {expected}, got {text!r}") from None


def parse_setting(key: str, text: str):
    """BenchmarkConfig field key's value from config-file text, read as the
    field's annotated type: only an `int | None` field takes "none", and a
    tuple drops empty items. An EvalError names the key."""
    check_choice("key", key, _FIELD_TYPES, EvalError)
    kind = _FIELD_TYPES[key]
    text = text.strip()
    if kind == "bool":
        if text.lower() not in ("true", "false"):
            raise EvalError(f"{key} must be true or false")
        return text.lower() == "true"
    if kind == "int | None" and text.lower() == "none":
        return None
    if kind.startswith("tuple"):
        items = tuple(v.strip() for v in text.split(",") if v.strip())
        return items if kind == "tuple[str, ...]" else tuple(_number(key, v, int) for v in items)
    return text if kind == "str" else _number(key, text, float if kind == "float" else int)


def load_config(path) -> BenchmarkConfig:
    """Parse a flat key=value config file ('#' starts a comment) of BenchmarkConfig fields, each
    set once, read by parse_setting and checked alone; an EvalError starts path:line:."""
    values: dict = {}
    set_on: dict = {}  # key -> the line that set it
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise EvalError(f"{path}:{line_no}: expected key = value")
            key, val = map(str.strip, line.split("=", 1))
            try:
                values[key] = parse_setting(key, val)
                BenchmarkConfig(**{key: values[key]})
            except EvalError as exc:
                raise EvalError(f"{path}:{line_no}: {exc}") from None
            if set_on.setdefault(key, line_no) != line_no:
                raise EvalError(f"{path}:{line_no}: {key} is already set on line {set_on[key]}")
    return BenchmarkConfig(**values)


@dataclass
class EvalRow:
    """One (model, pipeline, task) measurement.

    seconds is the cell's own fit-and-score time; network cells fitted
    side by side overlap, so the rows' seconds can sum past the run's.
    converged is the fitted model's own flag where its kind keeps one (the
    linear kinds: ols and ridge are always True, lasso and elastic say
    whether coordinate descent converged) and None for the other kinds
    and for failed rows; like seconds, it is left out of the CSV.
    """

    model: str
    pipeline: str
    task: str
    rmse: float | None
    n_train: int
    n_test: int
    seed: int
    hyperparameters: dict
    seconds: float = 0.0
    error: str | None = None
    converged: bool | None = None


@dataclass
class EvalReport:
    """Benchmark output: one row per configured (model, pipeline, task)."""

    rows: list[EvalRow] = field(default_factory=list)
    seed: int = 0


#: run-set hyperparameters held by one config field for every kind
_SHARED_FIELDS = {"max_iter": "cd_max_iter", "tol": "cd_tol", "optimizer": "optimizer"}


def _config_field(kind: str, name: str) -> str:
    """The BenchmarkConfig field behind run-set hyperparameter name of kind."""
    return _SHARED_FIELDS.get(name, f"{kind}_{name}")


def _spec_for(cfg: BenchmarkConfig, kind: str) -> RegressorSpec:
    hp = {name: getattr(cfg, _config_field(kind, name)) for name in SPEC_KINDS[kind].run_set}
    return RegressorSpec(kind=kind, hyperparameters=hp, seed=cfg.seed)


def _subsample(d: Dataset, max_rows: int | None, seed: int) -> Dataset:
    """d, or max_rows of its rows drawn by seed (None: every row), a cap the config checked."""
    if max_rows is None or len(d) <= max_rows:
        return d
    idx = sorted(permutation(len(d), seed)[:max_rows])
    return d.take(idx)


def load_tasks(path) -> dict[str, Dataset]:
    """Each task's rows of the training CSV at path, read once and split by keypoint coverage."""
    dense, sparse = split_by_keypoint_coverage(load_training_csv(path))
    return {"eleven": sparse, "four": dense}


def split_task(cfg: BenchmarkConfig, d: Dataset) -> tuple[Dataset, Dataset]:
    """A task's seeded train and test rows, at most cfg.max_rows, holes filled by column means."""
    d = _subsample(d, cfg.max_rows, cfg.seed)
    # the split depends only on the row count, so imputing after it is exact
    train, test = holdout_split(d, cfg.train_fraction, cfg.seed)
    means = column_means(train if cfg.train_only_means else d)
    return impute_column_means(train, means), impute_column_means(test, means)


def _lbp_config(cfg: BenchmarkConfig) -> LbpConfig:
    try:
        return LbpConfig(neighbors=cfg.lbp_neighbors, radius=cfg.lbp_radius,
                         rotation_invariant=cfg.lbp_rotation_invariant)
    except LbpError as exc:  # its refusals start with a field name, the config's without lbp_
        raise EvalError(f"lbp_{exc}") from None


#: The gradient-trained kinds: long fits whose time goes to BLAS products and
#: numpy loops, which release the GIL. knn, ols and ridge use BLAS too but are
#: short, and coordinate descent holds the GIL (measured in ROADMAP.md).
NETWORK_KINDS = ("mlp", "cnn")

#: Where a BLAS library reads its thread count, in the order checked.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def _network_workers(cells: int) -> int:
    """How many of a run's `cells` network cells fit at once: the CPUs this
    process may use over the BLAS threads per call, at most cells.

    The BLAS thread count is the first of _BLAS_THREAD_VARS that holds a
    positive integer, else one per CPU, the libraries' default. Below 2,
    network cells run inline on the calling thread.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    blas = cpus
    for var in _BLAS_THREAD_VARS:
        try:
            value = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if value > 0:
            blas = value
            break
    return min(cpus // blas, cells)


def _run_cell(spec: RegressorSpec, pipeline_name: str, task: str,
              X_train, Y_train, X_test, Y_test) -> EvalRow:
    """Fit and score one cell; a failure becomes the row's error."""
    started = time.perf_counter()
    converged = None
    try:
        model = fit_any(spec, X_train, Y_train)
        value = rmse(predict_any(model, X_test), Y_test)
        error = None
        converged = getattr(model, "converged", None)
    except Exception as exc:
        value = None
        error = str(exc)
    return EvalRow(
        model=spec.kind, pipeline=pipeline_name, task=task,
        rmse=value, n_train=len(Y_train), n_test=len(Y_test),
        seed=spec.seed, hyperparameters=spec.hyperparameters,
        seconds=time.perf_counter() - started, error=error,
        converged=converged,
    )


class _CellThread(threading.Thread):
    """One network cell on a daemon thread, fitted once gate has a free slot.

    A daemon thread does not hold up the interpreter's exit, so a Ctrl-C or
    an error in the calling thread ends a run without waiting for the fits
    in flight (concurrent.futures joins its workers at exit).
    """

    def __init__(self, gate: threading.Semaphore, cell):
        super().__init__(daemon=True)
        self._gate, self._cell = gate, cell
        self._row: EvalRow | None = None
        self._exc: BaseException | None = None

    def run(self) -> None:
        with self._gate:
            try:
                self._row = self._cell()
            except BaseException as exc:  # raised again on the calling thread
                self._exc = exc

    def row(self) -> EvalRow:
        self.join()
        if self._exc is not None:
            raise self._exc
        return self._row


def run_benchmark(cfg: BenchmarkConfig) -> EvalReport:
    """Run the configured benchmark; per-row failures never abort the run.

    The network cells (NETWORK_KINDS) fit on daemon threads, at most
    _network_workers at once, while every other cell runs on the calling
    thread in config order; with fewer than 2 workers they run inline too.
    The report's rows are in config order either way. A row's seconds is
    its own elapsed time, so rows fitted side by side overlap.
    """
    tasks = load_tasks(cfg.training_csv)
    networks = sum(kind in NETWORK_KINDS for kind in cfg.models)
    workers = _network_workers(networks * len(cfg.pipelines) * len(cfg.tasks))
    gate = threading.Semaphore(workers) if workers >= 2 else None
    rows: list = []  # EvalRows, and the _CellThreads that make the network rows

    for task in cfg.tasks:
        train, test = split_task(cfg, tasks[task])
        Y_train, Y_test = train.keypoints, test.keypoints

        for pipeline_name in cfg.pipelines:
            lbp_pca = pipeline_name == "lbp_pca"
            try:
                pipe, F_train = fit_pipeline(
                    train.images, scale_pixels=cfg.scale_pixels,
                    lbp=_lbp_config(cfg) if lbp_pca else None, lbp_mode=cfg.lbp_mode,
                    pca_components=min(cfg.pca_components, len(train) - 1) if lbp_pca else None)
                X_train = F_train.values
                X_test = pipe.transform(test.images).values
            except Exception as exc:  # configuration-level failure hits all rows
                for kind in cfg.models:
                    rows.append(EvalRow(
                        model=kind, pipeline=pipeline_name, task=task,
                        rmse=None, n_train=len(train), n_test=len(test),
                        seed=cfg.seed, hyperparameters={}, error=str(exc),
                    ))
                continue

            for kind in cfg.models:
                cell = partial(_run_cell, _spec_for(cfg, kind), pipeline_name, task,
                               X_train, Y_train, X_test, Y_test)
                if gate is not None and kind in NETWORK_KINDS:
                    thread = _CellThread(gate, cell)
                    thread.start()
                    rows.append(thread)
                else:
                    rows.append(cell())
    return EvalReport(rows=[r.row() if isinstance(r, _CellThread) else r for r in rows],
                      seed=cfg.seed)


def mean_predictor_rmse(Y_train: np.ndarray, Y_test: np.ndarray) -> float:
    """RMSE of always predicting the training-target column means."""
    mean = np.asarray(Y_train, dtype=np.float64).mean(axis=0)
    pred = np.broadcast_to(mean, np.asarray(Y_test).shape)
    return rmse(pred, Y_test)


def _fmt(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def format_report(report: EvalReport, style: str = "markdown") -> str:
    """Render a report as 'markdown' (paper-style tables) or 'csv'.

    The CSV holds only deterministic fields (no wall-clock timing), so two
    identically seeded runs serialize byte-for-byte identically; the tests
    read it back with load_report_csv in tests/readers.py. The markdown
    marks with * a coordinate-descent cell whose fit did not converge and
    lists it under its table, after the failed rows.
    """
    check_choice("report style", style, ("markdown", "csv"), EvalError)
    if style == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["model", "pipeline", "task", "rmse", "n_train", "n_test",
             "seed", "hyperparameters", "error"]
        )
        for r in report.rows:
            writer.writerow([
                r.model, r.pipeline, r.task, _fmt(r.rmse), r.n_train,
                r.n_test, r.seed, json.dumps(r.hyperparameters, sort_keys=True),
                r.error or "",
            ])
        return buf.getvalue()

    lines = [f"# Benchmark report (seed {report.seed})", ""]
    for pipeline_name in dict.fromkeys(r.pipeline for r in report.rows):
        rows = [r for r in report.rows if r.pipeline == pipeline_name]
        tasks = [t for t in TASK_LABELS if any(r.task == t for r in rows)]
        sizes = ", ".join(
            f"{t}: {next(r for r in rows if r.task == t).n_train} train / "
            f"{next(r for r in rows if r.task == t).n_test} test"
            for t in tasks
        )
        lines.append(f"## Pipeline: {pipeline_name} ({sizes})")
        lines.append("")
        header = "| Model | " + " | ".join(TASK_LABELS[t] for t in tasks) + " | seconds |"
        lines.append(header)
        lines.append("|" + "---|" * (len(tasks) + 2))
        for kind in dict.fromkeys(r.model for r in rows):
            cells = [kind]
            total_s = 0.0
            for t in tasks:
                row = next((r for r in rows if r.model == kind and r.task == t), None)
                if row is None:
                    cells.append("")
                elif row.error is not None:
                    cells.append("error")
                else:
                    mark = "*" if row.converged is False else ""
                    cells.append(f"{row.rmse:.3f}{mark}")
                if row is not None:
                    total_s += row.seconds
            cells.append(f"{total_s:.1f}")
            lines.append("| " + " | ".join(cells) + " |")
        errors = [r for r in rows if r.error]
        for r in errors:
            lines.append(f"- {r.model}/{r.task} failed: {r.error}")
        for r in rows:
            if r.converged is False:
                lines.append(f"- {r.model}/{r.task} did not converge (*) within "
                             f"max_iter = {r.hyperparameters['max_iter']} sweeps")
        lines.append("")
    return "\n".join(lines)

