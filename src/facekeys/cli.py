"""Command line interface.

Subcommands: split, train, predict, benchmark, lbp, pca, visualize. Exit
codes: 0 on success, 1 on runtime failures (one-line diagnostic on
stderr), 2 on usage errors (argparse). All randomness funnels through a
single --seed flag with a fixed default.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import dataset as ds
from . import eval as ev
from . import pca as pca_mod
from . import viz
from .lbp import LbpConfig, lbp_circular
from .rng import permutation
from .pipeline import fit_pipeline, pipeline_from_payload, pipeline_to_payload
from .regressors import (
    KINDS,
    SPEC_KINDS,
    ConfigError,
    RegressorSpec,
    fit_any,
    load_model,
    predict_any,
    save_model,
)

DEFAULT_SEED = 7
INPUT_ENV = "FACEKEYS_TRAINING_CSV"


class CliError(RuntimeError):
    """Fatal runtime problem reported as a one-line diagnostic."""


def _resolve_input(value: str | None) -> str:
    if value:
        return value
    env = os.environ.get(INPUT_ENV)
    if env:
        return env
    raise CliError(
        f"no input CSV: pass --input or set {INPUT_ENV}"
    )


def _load_task(path: str, task: str) -> ds.Dataset:
    data = ds.load_training_csv(path)
    dense, sparse = ds.split_by_keypoint_coverage(data)
    return dense if task == "four" else sparse


def cmd_split(args) -> int:
    """Write the eight derived train/test CSVs for both coverage tasks."""
    data = ds.load_training_csv(_resolve_input(args.input))
    dense, sparse = ds.split_by_keypoint_coverage(data)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for suffix, d in (("4f", dense), ("11f", sparse)):
        d = ds.impute_column_means(d)
        train, test = ds.holdout_split(d, args.train_fraction, args.seed)
        for part, split in (("train", train), ("test", test)):
            ds.write_keypoint_csv(split, out_dir / f"keypoint_{part}_{suffix}.csv")
            ds.write_image_csv(split, out_dir / f"im_{part}_{suffix}.csv")
        print(f"{suffix}: {len(train)} train rows, {len(test)} test rows")
    print(f"wrote 8 files under {out_dir}")
    return 0


def _parse_hidden(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        )


def _build_spec(args, seed: int) -> RegressorSpec:
    # the train flags' destinations are the run-set hyperparameter names
    names = SPEC_KINDS[args.model].run_set
    return RegressorSpec(args.model, {n: getattr(args, n) for n in names}, seed)


def cmd_train(args) -> int:
    """Fit one model on one task and save it with its feature pipeline."""
    d = _load_task(_resolve_input(args.input), args.task)
    if args.max_rows is not None and len(d) > args.max_rows:
        idx = sorted(permutation(len(d), args.seed)[: args.max_rows])
        d = d.take(idx)
    train = ds.impute_column_means(d)

    lbp_cfg = None
    if args.lbp:
        lbp_cfg = LbpConfig(
            neighbors=args.lbp_neighbors,
            radius=args.lbp_radius,
            rotation_invariant=args.lbp_rotation_invariant,
        )
    pipe = fit_pipeline(
        train.images,
        scale_pixels=not args.no_pixel_scaling,
        lbp=lbp_cfg,
        lbp_mode=args.lbp_mode,
        pca_components=args.pca,
        variance_target=args.variance,
    )
    X = pipe.transform(train.images).values
    _, Y = ds.to_matrices(train, scale_pixels=False)

    model = fit_any(_build_spec(args, args.seed), X, Y)

    meta, arrays = pipeline_to_payload(pipe)
    extras = {
        "pipeline": meta,
        "target_names": list(train.slot_names),
        "task": train.task.value,
    }
    save_model(args.out, model, extras=extras, extra_arrays=arrays)
    print(f"trained {args.model} on task {args.task} "
          f"({len(train)} rows, {X.shape[1]} features) -> {args.out}")
    return 0


def _load_images_any(path: str) -> np.ndarray:
    with open(path, newline="") as fh:
        header = fh.readline().strip()
    if header == ds.IMAGE_COLUMN:
        return ds.load_image_csv(path)
    return ds.load_training_csv(path).images


def cmd_predict(args) -> int:
    """Apply a saved model to a CSV of images; write predicted coordinates."""
    model, extras = load_model(args.model_file)
    if "pipeline" not in extras:
        raise CliError(
            f"{args.model_file} holds no feature pipeline; "
            "predict needs a model written by 'facekeys train'"
        )
    with np.load(args.model_file) as data:
        arrays = {k: data[k] for k in data.files if k.startswith("pipe_")}
    pipe = pipeline_from_payload(extras["pipeline"], arrays)
    images = _load_images_any(args.input)
    pred = predict_any(model, pipe.transform(images).values)

    names = extras.get("target_names", [])
    columns = []
    for n in names:
        columns.extend((f"{n}_x", f"{n}_y"))
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns or [f"y{i}" for i in range(pred.shape[1])])
        for row in pred:
            writer.writerow([repr(float(v)) for v in row])
    print(f"wrote {pred.shape[0]} predictions to {args.out}")
    return 0


def cmd_benchmark(args) -> int:
    """Run the RMSE benchmark and print a markdown report."""
    if args.config:
        cfg = ev.load_config(args.config)
    else:
        cfg = ev.BenchmarkConfig()
    overrides: dict = {"training_csv": _resolve_input(args.input or cfg.training_csv or None)}
    if args.models:
        overrides["models"] = tuple(m.strip() for m in args.models.split(","))
    if args.pipelines:
        overrides["pipelines"] = tuple(p.strip() for p in args.pipelines.split(","))
    if args.tasks:
        overrides["tasks"] = tuple(t.strip() for t in args.tasks.split(","))
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.max_rows is not None:
        overrides["max_rows"] = args.max_rows
    if args.mlp_epochs is not None:
        overrides["mlp_epochs"] = args.mlp_epochs
    if args.cnn_epochs is not None:
        overrides["cnn_epochs"] = args.cnn_epochs
    if args.full:
        overrides["full"] = True
    cfg = replace(cfg, **overrides)

    report = ev.run_benchmark(cfg)
    print(ev.format_report(report, "markdown"))
    if args.csv:
        Path(args.csv).write_text(ev.format_report(report, "csv"))
        print(f"wrote CSV report to {args.csv}")
    return 0


def cmd_lbp(args) -> int:
    """Render one row's LBP code map to a PGM file."""
    d = ds.load_training_csv(_resolve_input(args.input))
    if not 0 <= args.row < len(d):
        raise CliError(f"row {args.row} out of range (0..{len(d) - 1})")
    if args.circular:
        cfg = LbpConfig(neighbors=args.neighbors, radius=args.radius,
                        rotation_invariant=args.rotation_invariant)
    else:  # the basic 3x3 map
        cfg = LbpConfig(rotation_invariant=args.rotation_invariant, interpolation="nearest")
    viz.render_lbp(lbp_circular(d.image(args.row), cfg), args.out)
    print(f"wrote LBP map of row {args.row} to {args.out}")
    return 0


def cmd_pca(args) -> int:
    """Fit PCA on a task's pixel matrix and save the model."""
    d = _load_task(_resolve_input(args.input), args.task)
    d = ds.impute_column_means(d)
    X, _ = ds.to_matrices(d, scale_pixels=not args.no_pixel_scaling)
    if (args.components is None) == (args.variance is None):
        raise CliError("give exactly one of --components and --variance")
    model = pca_mod.fit_pca(
        X.values, n_components=args.components, variance_target=args.variance
    )
    pca_mod.save_pca(model, args.out)
    covered = float(model.explained_ratio.sum())
    print(f"fit PCA on {X.shape[0]} rows: {model.n_components} components "
          f"covering {covered:.4f} of variance -> {args.out}")
    if args.report:
        cum = 0.0
        for i, ratio in enumerate(model.explained_ratio[:20]):
            cum += float(ratio)
            print(f"  component {i}: ratio {ratio:.6f} cumulative {cum:.6f}")
    return 0


def cmd_visualize(args) -> int:
    """Keypoint overlay or per-slot scatter raster."""
    d = ds.load_training_csv(_resolve_input(args.input))
    if args.mode == "keypoints":
        if not 0 <= args.row < len(d):
            raise CliError(f"row {args.row} out of range (0..{len(d) - 1})")
        viz.render_keypoints(d.image(args.row), d.keypoint_set(args.row), args.out)
        print(f"wrote keypoint overlay of row {args.row} to {args.out}")
    else:
        if not args.slot:
            raise CliError("scatter mode needs --slot")
        viz.scatter_keypoint_distribution(d, args.slot, args.out)
        print(f"wrote scatter of slot {args.slot} to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="facekeys",
        description="Facial keypoint regression lab: data prep, LBP/PCA "
                    "features, eight regressors, RMSE benchmark, rasters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("--input", help=f"training CSV (default ${INPUT_ENV})")

    p = sub.add_parser("split", help="write derived train/test CSVs per task")
    add_input(p)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--train-fraction", type=float, default=0.9)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="fit one model and save it")
    add_input(p)
    p.add_argument("--task", choices=("four", "eleven"), default="four")
    p.add_argument("--model", required=True, choices=KINDS)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--max-rows", type=int, default=None)
    p.add_argument("--no-pixel-scaling", action="store_true")
    p.add_argument("--lbp", action="store_true", help="LBP-code features")
    p.add_argument("--lbp-neighbors", type=int, default=8)
    p.add_argument("--lbp-radius", type=float, default=1.0)
    p.add_argument("--lbp-rotation-invariant", action="store_true")
    p.add_argument("--lbp-mode", choices=("pixel_map", "histogram"),
                   default="pixel_map")
    p.add_argument("--pca", type=int, default=None,
                   help="project features to this many components")
    p.add_argument("--variance", type=float, default=None,
                   help="pick component count by variance coverage")
    p.add_argument("--k", type=int, default=5, help="knn neighbor count")
    p.add_argument("--lam", type=float, default=1.0, help="ridge penalty")
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--rho", type=float, default=0.5)
    p.add_argument("--max-iter", type=int, default=1000)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--max-depth", type=int, default=5)
    p.add_argument("--min-samples-leaf", type=int, default=1)
    p.add_argument("--hidden", type=_parse_hidden, default="300,150,50")
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--batch-size", type=int, default=30)
    p.add_argument("--optimizer", choices=("sgd", "rmsprop"), default="rmsprop")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="apply a saved model to images")
    p.add_argument("--model-file", required=True)
    p.add_argument("--input", required=True,
                   help="training-format CSV or image-only CSV")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("benchmark", help="run the RMSE benchmark")
    add_input(p)
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--models", help="comma-separated model kinds")
    p.add_argument("--pipelines", help="comma-separated: raw,lbp_pca")
    p.add_argument("--tasks", help="comma-separated: eleven,four")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-rows", type=int, default=None)
    p.add_argument("--mlp-epochs", type=int, default=None)
    p.add_argument("--cnn-epochs", type=int, default=None)
    p.add_argument("--full", action="store_true",
                   help="lift desk-scale caps to study scale")
    p.add_argument("--csv", help="also write the report as CSV here")
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("lbp", help="render a row's LBP code map")
    add_input(p)
    p.add_argument("--row", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--circular", action="store_true")
    p.add_argument("--neighbors", type=int, default=8)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--rotation-invariant", action="store_true")
    p.set_defaults(func=cmd_lbp)

    p = sub.add_parser("pca", help="fit and save a PCA model")
    add_input(p)
    p.add_argument("--task", choices=("four", "eleven"), default="eleven")
    p.add_argument("--components", type=int, default=None)
    p.add_argument("--variance", type=float, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--report", action="store_true",
                   help="print per-component variance ratios")
    p.add_argument("--no-pixel-scaling", action="store_true")
    p.set_defaults(func=cmd_pca)

    p = sub.add_parser("visualize", help="keypoint overlay or scatter raster")
    add_input(p)
    p.add_argument("--mode", choices=("keypoints", "scatter"), required=True)
    p.add_argument("--row", type=int, default=0)
    p.add_argument("--slot", help="slot name for scatter mode")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_visualize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ConfigError, ds.DatasetError, ev.EvalError, viz.VizError,
            OSError, ValueError) as exc:
        print(f"facekeys: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
