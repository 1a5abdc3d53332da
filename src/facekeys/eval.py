"""RMSE metric, benchmark runner, and report formatting.

The benchmark mirrors the study design: per task (eleven sparse keypoints,
four dense keypoints) impute, hold out a seeded test fraction, build raw
and LBP+PCA feature pipelines, fit each configured model, and score
held-out RMSE in pixel units. Reports render as markdown tables (model
rows, RMSE1 = eleven task, RMSE2 = four task) or as a deterministic CSV.

A cell is one (model, pipeline, task) fit-and-score. run_benchmark says
which cells fit side by side, in a forked child or on worker threads; the
rows keep config order either way. A row's seconds is its own elapsed
time, which may overlap other rows', so a markdown table's seconds can sum
past the run's wall time.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import pickle
import signal
import threading
import time
from collections.abc import Callable
from concurrent.futures import Future
from dataclasses import dataclass, field, fields
from functools import partial
from itertools import count

import numpy as np

from . import pca as pca_mod
from ._inputs import check_choice, check_count, check_number
from .dataset import (
    Dataset,
    DatasetError,
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
        lbp_config(self)  # LbpConfig refuses a bad geometry


#: each BenchmarkConfig field's annotation, as text
FIELD_TYPES = {f.name: f.type for f in fields(BenchmarkConfig)}


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
    check_choice("key", key, FIELD_TYPES, EvalError)
    kind = FIELD_TYPES[key]
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

    seconds is the cell's own fit-and-score time, measured where it fits
    (see run_benchmark), so the seconds of cells fitted side by side can
    sum past the run's. error is the fit's or scoring's failure, the
    feature pipeline's for each of its rows, or says how a forked child
    ended before sending the row.
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


def config_field(kind: str, name: str) -> str:
    """The BenchmarkConfig field behind run-set hyperparameter name of kind."""
    return _SHARED_FIELDS.get(name, f"{kind}_{name}")


def spec_for(cfg: BenchmarkConfig, kind: str) -> RegressorSpec:
    """The spec of kind that cfg's fields and seed make: what a benchmark cell fits."""
    hp = {name: getattr(cfg, config_field(kind, name)) for name in SPEC_KINDS[kind].run_set}
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


def task_rows(cfg: BenchmarkConfig, d: Dataset) -> Dataset:
    """The rows of d that split_task holds out from, at most cfg.max_rows, holes filled by
    their column means: what `facekeys train` fits."""
    return impute_column_means(_subsample(d, cfg.max_rows, cfg.seed))


def split_task(cfg: BenchmarkConfig, d: Dataset, task: str) -> tuple[Dataset, Dataset]:
    """Task's seeded train and test rows of d, at most cfg.max_rows, holes filled by column
    means; a DatasetError names the task."""
    d = _subsample(d, cfg.max_rows, cfg.seed)
    # the split depends only on the row count, so imputing after it is exact
    try:
        train, test = holdout_split(d, cfg.train_fraction, cfg.seed)
    except DatasetError as exc:
        raise DatasetError(f"task {task}: {exc}") from None
    means = column_means(train if cfg.train_only_means else d)
    return impute_column_means(train, means), impute_column_means(test, means)


def lbp_config(cfg: BenchmarkConfig) -> LbpConfig:
    """The LbpConfig of cfg's lbp_ fields; an EvalError refuses a bad geometry under their names."""
    try:
        return LbpConfig(neighbors=cfg.lbp_neighbors, radius=cfg.lbp_radius,
                         rotation_invariant=cfg.lbp_rotation_invariant)
    except LbpError as exc:  # its refusals start with a field name, the config's without lbp_
        raise EvalError(f"lbp_{exc}") from None


#: The gradient-trained kinds, fitted on threads (see run_benchmark): their time
#: goes to BLAS products and numpy loops, which release the GIL. They stay off a
#: forked child until perfbench can collect a child's spans (ROADMAP item 4): its
#: traced smoke needs their gradient spans in-process.
NETWORK_KINDS = ("mlp", "cnn")

#: The kinds fitted in a forked child (see run_benchmark): the tree and coordinate
#: descent hold the GIL, so no thread can overlap them (measured in ROADMAP.md).
#: Lasso and elastic stay in the calling process: perfbench's convergence check
#: observes their fits there, and item 18 will split them by output from inside
#: the fit.
FORKED_KINDS = ("knn", "ols", "ridge", "tree")

#: Where a BLAS library reads its thread count, in the order checked.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def _workers() -> int:
    """How many cells may fit at once: the CPUs this process may use over the
    BLAS threads per call.

    The BLAS thread count is the first of _BLAS_THREAD_VARS that holds a
    positive integer, else one per CPU, the libraries' default. Below 2,
    every cell runs inline on the calling thread.
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
    return cpus // blas


def _may_fork() -> bool:
    """Whether this process can fork safely: it has os.fork and exactly one OS
    thread, counted in /proc/self/task as CPython 3.12's fork warning counts
    them. A live worker thread or a BLAS pool makes it False, as does a
    platform without /proc: a fork beside another thread can copy a held lock.
    """
    try:
        return hasattr(os, "fork") and len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


@dataclass(frozen=True)
class _Cell:
    """One (model, pipeline, task) fit-and-score on its group's features, which
    are None if the group's feature pipeline failed."""

    spec: RegressorSpec
    pipeline: str
    task: str
    X_train: np.ndarray
    Y_train: np.ndarray
    X_test: np.ndarray
    Y_test: np.ndarray

    def row(self, **outcome) -> EvalRow:
        """The cell's row holding outcome, the EvalRow fields from rmse on."""
        return EvalRow(model=self.spec.kind, pipeline=self.pipeline, task=self.task,
                       n_train=len(self.Y_train), n_test=len(self.Y_test), seed=self.spec.seed,
                       hyperparameters=self.spec.hyperparameters, **{"rmse": None, **outcome})


def _run_cell(cell: _Cell) -> EvalRow:
    """Fit and score one cell; a failure becomes the row's error."""
    started = time.perf_counter()
    try:
        model = fit_any(cell.spec, cell.X_train, cell.Y_train)
        value = rmse(predict_any(model, cell.X_test), cell.Y_test)
    except Exception as exc:
        return cell.row(seconds=time.perf_counter() - started, error=str(exc))
    return cell.row(rmse=value, seconds=time.perf_counter() - started,
                    converged=getattr(model, "converged", None))


def _on_thread(gate: threading.Semaphore, cell: _Cell) -> Callable[[], EvalRow]:
    """Fit cell on a daemon thread once gate has a free slot; the call returned
    waits for the row and raises again, on the calling thread, what the fit raised.

    A daemon thread does not hold up the interpreter's exit, so a Ctrl-C or
    an error in the calling thread ends a run without waiting for the fits
    in flight (concurrent.futures joins its workers at exit).
    """
    future: Future = Future()

    def fit() -> None:
        with gate:
            try:
                future.set_result(_run_cell(cell))
            except BaseException as exc:  # future.result raises it on the calling thread
                future.set_exception(exc)

    threading.Thread(target=fit, daemon=True).start()
    return future.result


class _CellProcess:
    """Cells fitted in config order by a forked child, which pickles each row
    down a pipe as soon as it is done and leaves by os._exit, so it runs none
    of the caller's atexit handlers and flushes none of its stdio buffers.
    A pipe or fork that fails raises its OSError with no descriptor left open.
    """

    def __init__(self, cells: list[_Cell]):
        read, write = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            raise
        if pid == 0:
            status = 1
            try:
                os.close(read)
                with open(write, "wb") as pipe:
                    for cell in cells:
                        pipe.write(pickle.dumps(_run_cell(cell)))
                        pipe.flush()
                status = 0
            finally:  # whatever happens, the child never returns into the caller
                os._exit(status)
        os.close(write)
        self.pid: int | None = pid
        self._cells = cells
        self._pipe = open(read, "rb")
        self._rows: list[EvalRow] = []

    def collect(self) -> None:
        """Read the rows to EOF and reap the child, if not done yet; a row it
        did not send is an error that says how the child ended."""
        if self.pid is None:
            return
        stream = io.BytesIO(self._pipe.read())
        self._pipe.close()
        status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        self.pid = None
        for _ in self._cells:
            try:
                self._rows.append(pickle.load(stream))
            except Exception:  # the end of what the child sent
                break
        if status < 0:
            try:
                ended = f"was killed by {signal.Signals(-status).name}"
            except ValueError:
                ended = f"was killed by signal {-status}"
        else:
            ended = f"exited with status {status}"
        self._rows += [cell.row(error=f"the cell's process {ended} before sending its row")
                       for cell in self._cells[len(self._rows):]]

    def row(self, index: int) -> EvalRow:
        """The row of the child's index-th cell."""
        self.collect()
        return self._rows[index]

    def kill(self) -> None:
        """End and reap the child if it was not collected."""
        self._pipe.close()
        if self.pid is not None:
            with contextlib.suppress(OSError):  # an interrupted collect may have reaped it
                os.kill(self.pid, signal.SIGKILL)
                os.waitpid(self.pid, 0)
            self.pid = None


def run_benchmark(cfg: BenchmarkConfig) -> EvalReport:
    """Run the configured benchmark; per-row failures never abort the run.

    With at least 2 _workers in a process that _may_fork, each (pipeline,
    task)'s FORKED_KINDS cells fit in one forked child, at most workers - 1
    children at once, while the calling thread fits the rest; if the pipe
    or the fork fails (an OSError, a pid limit's say), they fit inline as
    without workers. The network cells (NETWORK_KINDS) fit on daemon
    threads, min(workers, network cells) at once if that is 2 or more.
    Every other cell, and every cell with fewer than 2 workers, runs on the
    calling thread in config order. A child that dies before it sends a row
    makes that row an error and no other. The report's rows are in config
    order either way. A row's seconds is its own elapsed time, so rows
    fitted side by side overlap. No child outlives the call: whatever it
    raises, Ctrl-C included, it first kills and reaps every child still
    running.
    """
    tasks = load_tasks(cfg.training_csv)
    workers = _workers()
    networks = sum(kind in NETWORK_KINDS for kind in cfg.models)
    slots = min(workers, networks * len(cfg.pipelines) * len(cfg.tasks))
    gate = threading.Semaphore(slots) if slots >= 2 else None
    rows: list = []  # EvalRows, and calls that return one: a thread's or a child's row
    children: list[_CellProcess] = []
    try:
        for task in cfg.tasks:
            train, test = split_task(cfg, tasks[task], task)

            for pipeline_name in cfg.pipelines:
                lbp_pca = pipeline_name == "lbp_pca"
                X_train = X_test = failed = None
                try:
                    pipe, F_train = fit_pipeline(
                        train.images, scale_pixels=cfg.scale_pixels,
                        lbp=lbp_config(cfg) if lbp_pca else None, lbp_mode=cfg.lbp_mode)
                    X_train = F_train.values
                    if lbp_pca:  # pca_components, or as many as the LBP block's shape holds
                        pipe.pca = pca_mod.fit_pca(X_train, min(
                            cfg.pca_components, pca_mod.max_components(*X_train.shape)))
                        X_train = pca_mod.transform(pipe.pca, X_train)
                    X_test = pipe.transform(test.images).values
                except Exception as exc:  # configuration-level failure hits all rows
                    failed = str(exc)

                cells = [_Cell(spec_for(cfg, kind), pipeline_name, task,
                               X_train, train.keypoints, X_test, test.keypoints)
                         for kind in cfg.models]
                if failed is not None:
                    rows += [cell.row(error=failed) for cell in cells]
                    continue
                forked = [cell for cell in cells if cell.spec.kind in FORKED_KINDS]
                child = None
                if forked and workers >= 2 and _may_fork():
                    live = [c for c in children if c.pid is not None]
                    if len(live) >= workers - 1:
                        live[0].collect()
                    with contextlib.suppress(OSError):  # no pipe or process to spare
                        child = _CellProcess(forked)
                        children.append(child)
                handed = count()  # the child's rows, in config order
                for cell in cells:
                    if child is not None and cell.spec.kind in FORKED_KINDS:
                        rows.append(partial(child.row, next(handed)))
                    elif gate is not None and cell.spec.kind in NETWORK_KINDS:
                        rows.append(_on_thread(gate, cell))
                    else:
                        rows.append(_run_cell(cell))
        return EvalReport(rows=[r if isinstance(r, EvalRow) else r() for r in rows],
                          seed=cfg.seed)
    finally:
        for child in children:
            child.kill()


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

