"""RMSE metric, benchmark runner, and report formatting.

The benchmark mirrors the study design: per task (eleven sparse keypoints,
four dense keypoints) impute, hold out a seeded test fraction, build raw
and LBP+PCA feature pipelines, fit each configured model, and score
held-out RMSE in pixel units. Reports render as markdown tables (model
rows, RMSE1 = eleven task, RMSE2 = four task) or as a deterministic CSV.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .dataset import (
    Dataset,
    column_means,
    holdout_split,
    impute_column_means,
    load_training_csv,
    split_by_keypoint_coverage,
)
from .lbp import LbpConfig
from .pipeline import fit_pipeline
from .pca import fit_pca, transform
from .regressors import KINDS, SPEC_KINDS, RegressorSpec, fit_any, predict_any
from .regressors.cnn import grid_side
from .rng import permutation

TASK_LABELS = {"eleven": "RMSE1", "four": "RMSE2"}

DEFAULT_MODELS = ("knn", "ols", "ridge", "lasso", "elastic", "tree")
ALL_MODELS = KINDS
# kinds fit by coordinate descent, whose models carry a meaningful converged flag
_CD_MODELS = ("lasso", "elastic")
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
    pipelines: tuple[str, ...] = ("raw", "lbp_pca")
    tasks: tuple[str, ...] = ("eleven", "four")
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
        for m in self.models:
            if m not in ALL_MODELS:
                raise EvalError(f"unknown model {m!r}; expected one of {ALL_MODELS}")
        for p in self.pipelines:
            if p not in ("raw", "lbp_pca"):
                raise EvalError(f"unknown pipeline {p!r}")
        for t in self.tasks:
            if t not in TASK_LABELS:
                raise EvalError(f"unknown task {t!r}")
        if not all(isinstance(e, int) for e in (self.mlp_epochs, self.cnn_epochs)):
            raise EvalError("mlp_epochs and cnn_epochs must be integers")
        if "cnn" in self.models and grid_side(self.pca_components) is None:
            raise EvalError(
                "cnn needs pca_components to be a square of a multiple of 4"
            )


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
    kind = _FIELD_TYPES.get(key)
    if kind is None:
        raise EvalError(f"unknown key {key!r}")
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
    """Parse a flat key=value config file ('#' starts a comment) of
    BenchmarkConfig fields, each value read by parse_setting."""
    values: dict = {}
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise EvalError(f"{path}:{line_no}: expected key = value")
            key, val = line.split("=", 1)
            try:
                values[key.strip()] = parse_setting(key.strip(), val)
            except EvalError as exc:
                raise EvalError(f"{path}:{line_no}: {exc}") from None
    return BenchmarkConfig(**values)


@dataclass
class EvalRow:
    """One (model, pipeline, task) measurement.

    converged is the fitted model's flag for the coordinate-descent kinds
    (lasso, elastic) and None for the other kinds and for failed rows; like
    seconds, it is left out of the CSV.
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
    if max_rows is None or len(d) <= max_rows:
        return d
    idx = sorted(permutation(len(d), seed)[:max_rows])
    return d.take(idx)


def _lbp_config(cfg: BenchmarkConfig) -> LbpConfig:
    return LbpConfig(
        neighbors=cfg.lbp_neighbors,
        radius=cfg.lbp_radius,
        rotation_invariant=cfg.lbp_rotation_invariant,
    )


def _grids_for_cnn(cfg: BenchmarkConfig, X_train: np.ndarray, X_test: np.ndarray):
    """Train and test rows whose width the cnn reads as square grids.

    Features whose width already forms a cnn grid (grid_side) pass as they
    are: a 256-wide PCA space, and also raw pixel rows of square images
    whose side is divisible by 4, so raw 9216-pixel rows are read as 96x96
    grids. Any other width (e.g. a PCA space that a small training split
    shrank below 256) gets its own PCA projection first, to the largest
    grid width that pca_components and the split allow. The rows stay
    flat; cnn_fit and cnn_predict reshape them row-major.
    """
    k = X_train.shape[1]
    if grid_side(k) is not None:
        return X_train, X_test
    n_comp = min(cfg.pca_components, X_train.shape[0] - 1, k)
    while n_comp > 0 and grid_side(n_comp) is None:
        n_comp -= 1
    if n_comp <= 0:
        raise EvalError("training split too small to build cnn grids")
    model = fit_pca(X_train, n_components=n_comp)
    return transform(model, X_train), transform(model, X_test)


def run_benchmark(cfg: BenchmarkConfig) -> EvalReport:
    """Run the configured benchmark; per-row failures never abort the run."""
    data = load_training_csv(cfg.training_csv)
    dense, sparse = split_by_keypoint_coverage(data)
    by_task = {"four": dense, "eleven": sparse}
    report = EvalReport(seed=cfg.seed)

    for task in cfg.tasks:
        d = _subsample(by_task[task], cfg.max_rows, cfg.seed)
        # the split depends only on the row count, so imputing after it is exact
        train_raw, test_raw = holdout_split(d, cfg.train_fraction, cfg.seed)
        means = column_means(train_raw if cfg.train_only_means else d)
        train = impute_column_means(train_raw, means)
        test = impute_column_means(test_raw, means)

        Y_train, Y_test = train.keypoints, test.keypoints

        for pipeline_name in cfg.pipelines:
            try:
                if pipeline_name == "raw":
                    pipe, F_train = fit_pipeline(train.images, scale_pixels=cfg.scale_pixels)
                else:
                    n_comp = min(cfg.pca_components, len(train) - 1)
                    pipe, F_train = fit_pipeline(
                        train.images,
                        scale_pixels=cfg.scale_pixels,
                        lbp=_lbp_config(cfg),
                        lbp_mode=cfg.lbp_mode,
                        pca_components=n_comp,
                    )
                X_train = F_train.values
                X_test = pipe.transform(test.images).values
            except Exception as exc:  # configuration-level failure hits all rows
                for kind in cfg.models:
                    report.rows.append(EvalRow(
                        model=kind, pipeline=pipeline_name, task=task,
                        rmse=None, n_train=len(train), n_test=len(test),
                        seed=cfg.seed, hyperparameters={}, error=str(exc),
                    ))
                continue

            for kind in cfg.models:
                spec = _spec_for(cfg, kind)
                started = time.perf_counter()
                converged = None
                try:
                    if kind == "cnn":
                        G_train, G_test = _grids_for_cnn(cfg, X_train, X_test)
                        model = fit_any(spec, G_train, Y_train)
                        pred = predict_any(model, G_test)
                    else:
                        model = fit_any(spec, X_train, Y_train)
                        pred = predict_any(model, X_test)
                    value = rmse(pred, Y_test)
                    error = None
                    if kind in _CD_MODELS:
                        converged = model.converged
                except Exception as exc:
                    value = None
                    error = str(exc)
                report.rows.append(EvalRow(
                    model=kind, pipeline=pipeline_name, task=task,
                    rmse=value, n_train=len(train), n_test=len(test),
                    seed=cfg.seed, hyperparameters=spec.hyperparameters,
                    seconds=time.perf_counter() - started, error=error,
                    converged=converged,
                ))
    return report


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
    if style != "markdown":
        raise EvalError(f"unknown report style {style!r}")

    lines = [f"# Benchmark report (seed {report.seed})", ""]
    for pipeline_name in dict.fromkeys(r.pipeline for r in report.rows):
        rows = [r for r in report.rows if r.pipeline == pipeline_name]
        tasks = [t for t in ("eleven", "four") if any(r.task == t for r in rows)]
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

