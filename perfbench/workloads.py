"""The benchmark's workloads: set-up, one timed unit, and output checks.

Every workload is a closed loop: one client in one process sends the
next unit (a study call or a CLI request) only after the previous one
returned. README.md says why each workload exists and which layer
metrics each should move.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from pathlib import Path
from statistics import median

import numpy as np

import corpus
import spans

import facekeys.cli as fk_cli
import facekeys.dataset as fk_dataset
import facekeys.eval as fk_eval
import facekeys.pipeline as fk_pipeline
import facekeys.regressors as fk_regressors

#: Timed-phase size: units = round(seconds / NOMINAL_UNIT_S), at least
#: MIN_UNITS, so the amount of work depends only on --seconds, never on
#: how fast the machine is. On the reference machine (README.md) a
#: study-lbp-pca call takes 7-9 s and a request 40-55 ms, so those runs
#: last about --seconds; a study-raw call takes 10-12 s, and its
#: nominal time is shorter so that a 20 s run averages the problem-dependent
#: coordinate-descent work over three calls.
NOMINAL_UNIT_S = {"study-raw": 6.5, "study-lbp-pca": 6.5, "predict-cli": 0.05}
MIN_UNITS = {"study-raw": 1, "study-lbp-pca": 1, "predict-cli": 120}

#: BenchmarkConfig.seed of a run's first study call; call i uses
#: CONFIG_SEED + i, so the calls of one run score different subsamples and
#: holdouts, which averages out work that depends on the problem instance.
CONFIG_SEED = 7

PREDICT_MODELS = ("knn", "ridge", "tree", "mlp")
REQUEST_IMAGES = 64
REQUEST_FILES = 8
PREDICT_TRAIN_ROWS = 400
REQUEST_SEED_OFFSET = 1_000_003


@contextlib.contextmanager
def quiet():
    """Swallow the package's progress prints, so stdout stays the report."""
    with contextlib.redirect_stdout(io.StringIO()):
        yield


def write_corpus(directory: Path, seed: int, n_rows: int = corpus.N_ROWS) -> Path:
    images, keypoints = corpus.generate(n_rows, seed)
    d = fk_dataset.Dataset(images=images, keypoints=keypoints, slot_names=fk_dataset.SLOT_NAMES)
    path = directory / "training.csv"
    fk_dataset.write_training_csv(d, path)
    return path


class Checks:
    """Output checks; every one counts as attempted, a wrong one as failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)


class Study:
    """One run_benchmark call per unit; the unit's output is the CSV report."""

    def __init__(self, **config):
        self.config = config
        self.expected_spans = ["dataset.encode", "dataset.decode", "pipeline.fit",
                               "pipeline.transform", "eval.run_benchmark"]
        if config["pipelines"] == ("lbp_pca",):
            self.expected_spans += ["lbp.code", "pca.fit", "pca.transform", "regressors.cnn.grad",
                                    "regressors.mlp.grad", "regressors.optim.step"]

    def setup(self, directory: Path, seed: int) -> dict:
        return {"csv": write_corpus(directory, seed)}

    def run_unit(self, state: dict, index: int, unit: int, tracer: spans.Tracer) -> dict:
        cfg = fk_eval.BenchmarkConfig(training_csv=str(state["csv"]), seed=CONFIG_SEED + index,
                                      **self.config)
        report = fk_eval.run_benchmark(cfg)
        return {"index": index, "report": report, "csv": fk_eval.format_report(report, "csv")}

    def check(self, state: dict, results: list[dict], fits: list[spans.Span], checks: Checks) -> None:
        first: dict[int, str] = {}
        for i, res in enumerate(results):
            for row in res["report"].rows:
                checks.check(row.error is None, f"{row.model}/{row.pipeline}/{row.task}: {row.error}")
                checks.check(row.rmse is not None and math.isfinite(row.rmse),
                             f"{row.model}/{row.pipeline}/{row.task}: rmse {row.rmse}")
            if res["index"] in first:
                checks.check(res["csv"] == first[res["index"]],
                             f"unit {i}: CSV report differs from the first with config seed "
                             f"{CONFIG_SEED + res['index']}")
            else:
                first[res["index"]] = res["csv"]
        for span in fits:
            if span.attrs.get("kind") in ("lasso", "elastic"):
                checks.check(span.attrs.get("converged") is True,
                             f"{span.attrs['kind']} did not converge")

    def end_to_end(self, state: dict, results: list[dict], unit_seconds: list[float]) -> dict:
        rows = [row for res in results for row in res["report"].rows]
        return {
            "wall_s": median(unit_seconds),
            "request_seconds": unit_seconds,
            "images_per_s": sum(r.n_train + r.n_test for r in rows) / sum(unit_seconds),
            "rmse_px": _mean_rmse(rows),
            "rmse1_px": _mean_rmse([r for r in rows if r.task == "eleven"]),
            "rmse2_px": _mean_rmse([r for r in rows if r.task == "four"]),
        }


def _mean_rmse(rows) -> float:
    # failed rows are counted by the checks; 0.0 keeps the JSON valid
    values = [r.rmse for r in rows if r.rmse is not None and math.isfinite(r.rmse)]
    return sum(values) / len(values) if values else 0.0


class PredictCli:
    """Set-up trains four models through the CLI; a unit is one predict call."""

    expected_spans = ["dataset.encode", "dataset.decode", "lbp.code", "pca.fit",
                      "pca.transform", "pipeline.fit", "pipeline.transform",
                      "regressors.save", "regressors.load", "regressors.mlp.grad",
                      "regressors.optim.step", "cli.main"]

    def setup(self, directory: Path, seed: int) -> dict:
        training = write_corpus(directory, seed, PREDICT_TRAIN_ROWS)
        images, keypoints = corpus.generate(
            REQUEST_FILES * REQUEST_IMAGES, seed + REQUEST_SEED_OFFSET, missing=False
        )
        requests = []
        for f in range(REQUEST_FILES):
            part = slice(f * REQUEST_IMAGES, (f + 1) * REQUEST_IMAGES)
            d = fk_dataset.Dataset(images=images[part], keypoints=keypoints[part],
                                   slot_names=fk_dataset.SLOT_NAMES)
            path = directory / f"request-{f}.csv"
            fk_dataset.write_image_csv(d, path)
            requests.append(path)
        models = {}
        for kind in PREDICT_MODELS:
            path = directory / f"{kind}.npz"
            with quiet():
                rc = fk_cli.main(["train", "--input", str(training), "--model", kind,
                                  "--out", str(path), "--lbp", "--pca", "256",
                                  "--task", "four"])
            if rc != 0:
                raise RuntimeError(f"facekeys train --model {kind} exited {rc}")
            models[kind] = path
        (directory / "out").mkdir()
        return {"requests": requests, "truth": keypoints, "models": models,
                "directory": directory}

    def _pick(self, index: int) -> tuple[str, int]:
        return PREDICT_MODELS[index % len(PREDICT_MODELS)], (index // len(PREDICT_MODELS)) % REQUEST_FILES

    def run_unit(self, state: dict, index: int, unit: int, tracer: spans.Tracer) -> dict:
        kind, f = self._pick(index)
        tracer.predict_kind = kind
        out = state["directory"] / "out" / f"pred-{unit}.csv"
        with quiet():
            rc = fk_cli.main(["predict", "--model-file", str(state["models"][kind]),
                              "--input", str(state["requests"][f]), "--out", str(out)])
        return {"kind": kind, "file": f, "rc": rc, "out": out}

    def _reference(self, state: dict, kind: str, f: int):
        model, extras = fk_regressors.load_model(state["models"][kind])
        with np.load(state["models"][kind]) as data:
            arrays = {k: data[k] for k in data.files if k.startswith("pipe_")}
        pipe = fk_pipeline.pipeline_from_payload(extras["pipeline"], arrays)
        images = fk_dataset.load_image_csv(state["requests"][f])
        return fk_regressors.predict_any(model, pipe.transform(images).values), extras

    def check(self, state: dict, results: list[dict], fits, checks: Checks) -> None:
        refs = {}
        for i, res in enumerate(results):
            checks.check(res["rc"] == 0, f"request {i}: predict exited {res['rc']}")
            if res["rc"] != 0:
                continue
            key = (res["kind"], res["file"])
            if key not in refs:
                refs[key] = self._reference(state, *key)
            expected, extras = refs[key]
            header, served = _read_predictions(res["out"])
            names = [f"{n}_{a}" for n in extras["target_names"] for a in "xy"]
            checks.check(header == names and served.shape == expected.shape
                         and np.array_equal(served, expected),
                         f"request {i}: output differs from predict_any(load_model(...))")
            res["served"] = served
            res["columns"] = names

    def end_to_end(self, state: dict, results: list[dict], unit_seconds: list[float]) -> dict:
        wall = sum(unit_seconds)
        col = {name: j for j, name in enumerate(
            f"{n}_{a}" for n in fk_dataset.SLOT_NAMES for a in "xy")}
        sq, count = 0.0, 0
        for res in results:
            if "served" not in res:
                continue
            part = slice(res["file"] * REQUEST_IMAGES, (res["file"] + 1) * REQUEST_IMAGES)
            truth = state["truth"][part][:, [col[c] for c in res["columns"]]]
            sq += float(((res["served"] - truth) ** 2).sum())
            count += truth.size
        rmse = math.sqrt(sq / count) if count else 0.0  # 0.0: every request failed
        return {
            "wall_s": wall,
            "request_seconds": unit_seconds,
            "images_per_s": len(results) * REQUEST_IMAGES / wall,
            "rmse_px": rmse,
            "rmse1_px": 0.0,
            "rmse2_px": rmse,
        }


def _read_predictions(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(v) for v in r] for r in rows[1:]], dtype=np.float64)


WORKLOADS = {
    # lasso/elastic alpha and cd_tol are the defaults restated for labels in
    # 96-pixel units: the same coordinate-descent iterates the defaults make
    # on the same problem with labels in 48-pixel units.
    "study-raw": Study(
        pipelines=("raw",), tasks=("four",),
        lasso_alpha=0.2, elastic_alpha=0.2, cd_tol=2e-4,
    ),
    "study-lbp-pca": Study(
        pipelines=("lbp_pca",), models=fk_eval.ALL_MODELS,
        max_rows=200, cnn_epochs=10,
    ),
    "predict-cli": PredictCli(),
}
