"""Command line interface.

Subcommands: split, train, predict, benchmark, lbp, pca, visualize. Exit
codes: 0 on success, 1 on runtime failures (one-line diagnostic on
stderr), 2 on usage errors (argparse). All randomness funnels through a
single --seed flag. A run setting left out takes its BenchmarkConfig
default, so `facekeys train` fits what the benchmark would.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import dataset as ds
from . import eval as ev
from . import pca as pca_mod
from . import viz
from .lbp import lbp_codes
from .pipeline import LBP_MODES, fit_pipeline, pipeline_from_payload, pipeline_to_payload
from .regressors import (
    KINDS,
    SPEC_KINDS,
    TrainingDiverged,
    fit_any,
    load_model,
    predict_any,
    save_model,
)
from .regressors.optim import OPTIMIZERS

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


#: train flags that set the BenchmarkConfig field of their own name; the
#: LBP ones act only with --lbp, and the geometry ones are also facekeys lbp's
_LBP_GEOMETRY = ("lbp_neighbors", "lbp_radius", "lbp_rotation_invariant")
_LBP_SETTINGS = (*_LBP_GEOMETRY, "lbp_mode")
_TRAIN_SETTINGS = ("seed", *_LBP_SETTINGS)
#: benchmark flags that set the BenchmarkConfig field of their own name, and their help
_BENCHMARK_SETTINGS = {"models": "comma-separated model kinds",
                       "pipelines": "comma-separated: raw,lbp_pca",
                       "tasks": "comma-separated: eleven,four",
                       **dict.fromkeys(("seed", "max_rows", "mlp_epochs", "cnn_epochs"))}
#: the names a str field's flag chooses among
_CHOICES = {"optimizer": tuple(OPTIMIZERS), "lbp_mode": LBP_MODES}


def _flags(names) -> str:
    return ", ".join("--" + name.replace("_", "-") for name in names)


def _setting_flag(dest: str, field: str, help: str | None = None) -> tuple[str, dict]:
    """Flag dest's name and add_argument keywords: parse_setting reads its text as field,
    a bool field's takes none, and if not given it sets no attribute ("none" gives None)."""
    def parse(text: str):
        try:
            return ev.parse_setting(field, text)
        except ev.EvalError as exc:  # a usage error that names the flag
            raise argparse.ArgumentTypeError(str(exc)) from None
    kind = ({"action": "store_true"} if ev._FIELD_TYPES[field] == "bool"
            else {"type": parse, "choices": _CHOICES.get(field)})
    return _flags([dest]), {"default": argparse.SUPPRESS, "help": help, **kind}


#: each setting flag by dest, made once as build_parser runs in every main():
#: train's model flags are the run-set names, each helped by the kinds that take it
_MODEL_FLAGS = {name: _setting_flag(name, ev._config_field(kind, name), "for --model " + "/".join(
                    other for other, entry in SPEC_KINDS.items() if name in entry.run_set))
                for kind in SPEC_KINDS for name in SPEC_KINDS[kind].run_set}
_SETTING_FLAGS = {**{name: _setting_flag(name, name) for name in _TRAIN_SETTINGS}, **_MODEL_FLAGS,
                  **{n: _setting_flag(n, n, h) for n, h in _BENCHMARK_SETTINGS.items()}}


def _override(cfg: ev.BenchmarkConfig, args, settings: dict) -> ev.BenchmarkConfig:
    """cfg with each setting flag given in its field; settings maps dest to field."""
    given = vars(args)
    return replace(cfg, **{field: given[dest] for dest, field in settings.items() if dest in given})


def cmd_train(args) -> int:
    """Fit one model on one task and save it with its feature pipeline.

    The setting flags given override a BenchmarkConfig(); a model flag's
    destination is its run-set hyperparameter name. A model flag outside
    the --model's run set is refused, and so is an LBP setting without
    --lbp, or --no-pixel-scaling with it (LBP codes the unscaled images)."""
    run_set = SPEC_KINDS[args.model].run_set
    foreign = sorted(name for name in _MODEL_FLAGS if name not in run_set and hasattr(args, name))
    if foreign:
        raise CliError(f"--model {args.model} does not take {_flags(foreign)}")
    lbp_given = [name for name in _LBP_SETTINGS if hasattr(args, name)]
    if lbp_given and not args.lbp:
        raise CliError(f"{_flags(lbp_given)} given without --lbp")
    if args.lbp and args.no_pixel_scaling:
        raise CliError("--no-pixel-scaling given with --lbp, which codes unscaled images")
    cfg = _override(ev.BenchmarkConfig(), args, {**{name: name for name in _TRAIN_SETTINGS},
                    **{name: ev._config_field(args.model, name) for name in run_set}})
    d = _load_task(_resolve_input(args.input), args.task)
    train = ds.impute_column_means(ev._subsample(d, args.max_rows, cfg.seed))
    pipe, features = fit_pipeline(
        train.images,
        scale_pixels=not args.no_pixel_scaling,
        lbp=ev._lbp_config(cfg) if args.lbp else None,
        lbp_mode=cfg.lbp_mode,
        pca_components=args.pca,
        variance_target=args.variance,
    )
    X = features.values
    model = fit_any(ev._spec_for(cfg, args.model), X, train.keypoints)

    meta, arrays = pipeline_to_payload(pipe)
    save_model(args.out, model, {"pipeline": meta, "target_names": list(train.slot_names),
                                 "task": args.task, **arrays})
    print(f"trained {args.model} on task {args.task} "
          f"({len(train)} rows, {X.shape[1]} features) -> {args.out}")
    return 0


def cmd_predict(args) -> int:
    """Apply a saved model to a CSV of images; write predicted coordinates."""
    model, extras = load_model(args.model_file)
    if "pipeline" not in extras:
        raise CliError(f"{args.model_file} holds no feature pipeline; "
                       "predict needs a model written by 'facekeys train'")
    pipe = pipeline_from_payload(extras["pipeline"], extras)
    columns = [f"{n}_{axis}" for n in extras["target_names"] for axis in "xy"]
    # an image-only CSV reads as a training CSV with zero coordinate columns
    images = ds.load_training_csv(args.input).images
    pred = predict_any(model, pipe.transform(images).values)
    if len(columns) != pred.shape[1]:
        raise CliError(f"{args.model_file} names {len(columns)} target columns, "
                       f"but its model predicts {pred.shape[1]}")
    ds._write_rows(args.out, columns, pred, None)
    print(f"wrote {pred.shape[0]} predictions to {args.out}")
    return 0


def cmd_benchmark(args) -> int:
    """Run the RMSE benchmark and print a markdown report."""
    cfg = ev.load_config(args.config) if args.config else ev.BenchmarkConfig()
    cfg = replace(cfg, training_csv=_resolve_input(args.input or cfg.training_csv or None),
                  **(ev.STUDY_SCALE if args.full else {}))  # an explicit flag still wins
    # an empty list (--models '') sets nothing
    cfg = _override(cfg, args, {name: name for name in _BENCHMARK_SETTINGS
                                if getattr(args, name, None) != ()})

    report = ev.run_benchmark(cfg)
    print(ev.format_report(report, "markdown"))
    if args.csv:
        Path(args.csv).write_text(ev.format_report(report, "csv"))
        print(f"wrote CSV report to {args.csv}")
    return 0


def cmd_lbp(args) -> int:
    """Render one row's LBP code map to a PGM file: the codes that
    `facekeys train --lbp` trains on with the same geometry flags."""
    cfg = ev._lbp_config(_override(ev.BenchmarkConfig(), args, {n: n for n in _LBP_GEOMETRY}))
    d = ds.load_training_csv(_resolve_input(args.input))
    if not 0 <= args.row < len(d):
        raise CliError(f"row {args.row} out of range (0..{len(d) - 1})")
    viz.render_lbp(lbp_codes(d.images[args.row], cfg), cfg.neighbors, args.out)
    print(f"wrote LBP map of row {args.row} to {args.out}")
    return 0


def cmd_pca(args) -> int:
    """Fit PCA on a task's pixel matrix and save the model."""
    if (args.components is None) == (args.variance is None):
        raise CliError("give exactly one of --components and --variance")
    d = _load_task(_resolve_input(args.input), args.task)
    model = fit_pipeline(
        d.images,
        scale_pixels=not args.no_pixel_scaling,
        pca_components=args.components,
        variance_target=args.variance,
    )[0].pca
    pca_mod.save_pca(model, args.out)
    covered = float(model.explained_ratio.sum())
    print(f"fit PCA on {len(d)} rows: {model.n_components} components "
          f"covering {covered:.4f} of variance -> {args.out}")
    if args.report:
        cum = 0.0
        for i, ratio in enumerate(model.explained_ratio[:20]):
            cum += float(ratio)
            print(f"  component {i}: ratio {ratio:.6f} cumulative {cum:.6f}")
    return 0


def cmd_visualize(args) -> int:
    """Keypoint overlay or per-slot scatter raster."""
    if args.mode == "scatter" and not args.slot:
        raise CliError("scatter mode needs --slot")
    d = ds.load_training_csv(_resolve_input(args.input))
    if args.mode == "keypoints":
        if not 0 <= args.row < len(d):
            raise CliError(f"row {args.row} out of range (0..{len(d) - 1})")
        viz.render_keypoints(d.images[args.row], d.slot_names,
                             d.keypoints[args.row].reshape(-1, 2), args.out)
        print(f"wrote keypoint overlay of row {args.row} to {args.out}")
    else:
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

    def add_settings(p, dests):
        for dest in dests:
            p.add_argument(_SETTING_FLAGS[dest][0], **_SETTING_FLAGS[dest][1])

    def add_setting_with_default(p, dest, default):
        flag, kwargs = _setting_flag(dest, dest)
        p.add_argument(flag, **{**kwargs, "default": default})

    p = sub.add_parser("split", help="write derived train/test CSVs per task")
    add_input(p)
    p.add_argument("--out-dir", required=True)
    add_setting_with_default(p, "train_fraction", ev.BenchmarkConfig.train_fraction)
    add_setting_with_default(p, "seed", ev.BenchmarkConfig.seed)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="fit one model and save it")
    add_input(p)
    p.add_argument("--task", choices=("four", "eleven"), default="four")
    p.add_argument("--model", required=True, choices=KINDS)
    p.add_argument("--out", required=True)
    add_settings(p, ["seed"])
    add_setting_with_default(p, "max_rows", None)  # every row, unlike the benchmark
    p.add_argument("--no-pixel-scaling", action="store_true")
    p.add_argument("--lbp", action="store_true", help="LBP-code features")
    add_settings(p, _LBP_SETTINGS)
    p.add_argument("--pca", type=int, default=None,
                   help="project features to this many components")
    p.add_argument("--variance", type=float, default=None,
                   help="pick component count by variance coverage")
    add_settings(p, _MODEL_FLAGS)
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
    add_settings(p, _BENCHMARK_SETTINGS)
    p.add_argument("--full", action="store_true",
                   help="study scale: every row, 500 MLP and 400 CNN epochs "
                        "(explicit flags still win)")
    p.add_argument("--csv", help="also write the report as CSV here")
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("lbp", help="render a row's LBP code map")
    add_input(p)
    p.add_argument("--row", type=int, default=0)
    p.add_argument("--out", required=True)
    add_settings(p, _LBP_GEOMETRY)
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
    except (CliError, TrainingDiverged, OSError, ValueError) as exc:
        print(f"facekeys: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
