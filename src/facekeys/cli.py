"""Command line interface.

Subcommands: split, train, predict, benchmark, lbp, pca, visualize. A
known command builds only its own parser, which prints the same help,
usage and errors as the parser of all seven. Exit codes: 0 on success,
1 on runtime failures (one-line diagnostic on stderr), 2 on usage errors
(argparse). All randomness funnels through a single --seed flag. A run
setting left out takes its BenchmarkConfig default, so `facekeys train`
fits what the benchmark would.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import dataset as ds
from . import eval as ev
from . import pca as pca_mod
from . import viz
from .lbp import lbp_circular
from .pipeline import (LBP_MODES, FeaturePipeline, fit_pipeline, pipeline_from_payload,
                       pipeline_to_payload)
from .regressors import (
    KINDS,
    SPEC_KINDS,
    ConfigError,
    TrainingDiverged,
    fit_any,
    input_width,
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


def cmd_split(args) -> int:
    """Write the eight derived train/test CSVs for both coverage tasks, or none if one fails."""
    # the config refuses a bad seed or train fraction before any data is read
    cfg = ev.BenchmarkConfig(seed=args.seed, train_fraction=args.train_fraction, max_rows=None)
    tasks = ev.load_tasks(_resolve_input(args.input))
    splits = {suffix: ev.split_task(cfg, tasks[task], task)
              for task, suffix in (("four", "4f"), ("eleven", "11f"))}
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for suffix, (train, test) in splits.items():
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
                       "pipelines": "comma-separated: " + ",".join(ev.PIPELINES),
                       "tasks": "comma-separated: " + ",".join(ev.TASK_LABELS),
                       **dict.fromkeys(("seed", "max_rows", "mlp_epochs", "cnn_epochs"))}
#: the names a str field's flag chooses among
_CHOICES = {"optimizer": tuple(OPTIMIZERS), "lbp_mode": LBP_MODES}


def _flags(names) -> str:
    return ", ".join("--" + name.replace("_", "-") for name in names)


def _add_setting(p, dest, field=None, help=None, default=argparse.SUPPRESS) -> None:
    """Add flag dest to p: parse_setting reads its text as field (dest by default), a bool
    field's takes none, and if not given it sets default (SUPPRESS: no attribute)."""
    field = field or dest
    def parse(text: str):
        try:
            return ev.parse_setting(field, text)
        except ev.EvalError as exc:  # a usage error that names the flag
            raise argparse.ArgumentTypeError(str(exc)) from None
    kind = ({"action": "store_true"} if ev.FIELD_TYPES[field] == "bool"
            else {"type": parse, "choices": _CHOICES.get(field)})
    p.add_argument(_flags([dest]), default=default, help=help, **kind)


#: train's model flags: each run-set name and the kinds that take it
_MODEL_FLAGS = {name: [kind for kind, entry in SPEC_KINDS.items() if name in entry.run_set]
                for entry in SPEC_KINDS.values() for name in entry.run_set}


def _override(cfg: ev.BenchmarkConfig, args, settings: dict) -> ev.BenchmarkConfig:
    """cfg with each setting flag given in its field; settings maps dest to field."""
    given = vars(args)
    return replace(cfg, **{field: given[dest] for dest, field in settings.items() if dest in given})


def _under_flags(count_flag: str, fit, *args, **kwargs):
    """fit(*args, **kwargs), with a PcaError's fit_pca argument names replaced by their flags."""
    try:
        return fit(*args, **kwargs)
    except pca_mod.PcaError as exc:
        raise CliError(str(exc).replace("n_components", count_flag)
                       .replace("variance_target", "--variance")) from None


def cmd_train(args) -> int:
    """Fit one model on one task and save it with its feature pipeline.

    The setting flags given override a BenchmarkConfig whose max_rows is --max-rows;
    a model flag's destination is its run-set hyperparameter name. A model flag outside
    the --model's run set is refused, and so is an LBP setting without
    --lbp, or --no-pixel-scaling with it (LBP codes the unscaled images), or
    both --pca and --variance."""
    run_set = SPEC_KINDS[args.model].run_set
    foreign = sorted(name for name in _MODEL_FLAGS if name not in run_set and hasattr(args, name))
    if foreign:
        raise CliError(f"--model {args.model} does not take {_flags(foreign)}")
    lbp_given = [name for name in _LBP_SETTINGS if hasattr(args, name)]
    if lbp_given and not args.lbp:
        raise CliError(f"{_flags(lbp_given)} given without --lbp")
    if args.lbp and args.no_pixel_scaling:
        raise CliError("--no-pixel-scaling given with --lbp, which codes unscaled images")
    if args.pca is not None or args.variance is not None:
        pca_mod.check_selector("--pca", args.pca, "--variance", args.variance)
    # the config refuses a bad seed, row cap or LBP setting before any data is read
    cfg = _override(ev.BenchmarkConfig(max_rows=args.max_rows), args,
                    {**{name: name for name in _TRAIN_SETTINGS},
                     **{name: ev.config_field(args.model, name) for name in run_set}})
    spec = ev.spec_for(cfg, args.model)
    train = ev.task_rows(cfg, ev.load_tasks(_resolve_input(args.input))[args.task])
    pipe, features = _under_flags(
        "--pca", fit_pipeline, train.images, scale_pixels=not args.no_pixel_scaling,
        lbp=ev.lbp_config(cfg) if args.lbp else None, lbp_mode=cfg.lbp_mode,
        pca_components=args.pca, variance_target=args.variance)
    X = features.values
    model = fit_any(spec, X, train.keypoints)

    meta, arrays = pipeline_to_payload(pipe)
    save_model(args.out, model, {"pipeline": meta, "target_names": list(train.slot_names),
                                 "task": args.task, **arrays})
    print(f"trained {args.model} on task {args.task} "
          f"({len(train)} rows, {X.shape[1]} features) -> {args.out}")
    return 0


def cmd_predict(args) -> int:
    """Apply a saved model to a CSV of images; write predicted coordinates.

    A model whose input width differs from its feature pipeline's output
    is refused before it predicts, as a fault of the model file; so is a
    prediction that is not finite, before any is written."""
    model, extras = load_model(args.model_file)
    if "pipeline" not in extras:
        raise CliError(f"{args.model_file} holds no feature pipeline; "
                       "predict needs a model written by 'facekeys train'")
    record = extras.typed("pipeline", dict)
    try:
        pipe = pipeline_from_payload(record, extras)
    except ConfigError:
        raise  # a missing or damaged array, which names the file already
    except ValueError as exc:
        raise CliError(f"{args.model_file}: {exc}") from None
    names = extras.typed("target_names", list[str])
    # an image-only CSV reads as a training CSV with zero coordinate columns
    images = ds.load_training_csv(args.input).images
    features = pipe.transform(images).values
    if features.shape[1] != input_width(model):
        raise CliError(f"{args.model_file} holds a model of {input_width(model)} input features, "
                       f"but its feature pipeline makes {features.shape[1]}")
    pred = predict_any(model, features)
    if 2 * len(names) != pred.shape[1]:  # an x and a y column per name
        raise CliError(f"{args.model_file} names {2 * len(names)} target columns, "
                       f"but its model predicts {pred.shape[1]}")
    if not np.isfinite(pred).all():  # the CSV writes NaN as a missing cell
        raise CliError(f"{args.model_file} predicts a value that is not finite (NaN or inf)")
    ds.write_coordinate_csv(names, pred, args.out)
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
    cfg = ev.lbp_config(_override(ev.BenchmarkConfig(), args, {n: n for n in _LBP_GEOMETRY}))
    d = ds.load_training_csv(_resolve_input(args.input))
    if not 0 <= args.row < len(d):
        raise CliError(f"row {args.row} out of range (0..{len(d) - 1})")
    viz.render_lbp(lbp_circular(d.images[args.row], cfg), cfg.neighbors, args.out)
    print(f"wrote LBP map of row {args.row} to {args.out}")
    return 0


def cmd_pca(args) -> int:
    """Fit PCA on a task's pixel matrix and save the model."""
    pca_mod.check_selector("--components", args.components, "--variance", args.variance)
    d = ev.load_tasks(_resolve_input(args.input))[args.task]
    X = FeaturePipeline(scale_pixels=not args.no_pixel_scaling).transform(d.images).values
    model = _under_flags("--components", pca_mod.fit_pca, X, args.components, args.variance)
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


def _add_input(p) -> None:
    p.add_argument("--input", help=f"training CSV (default ${INPUT_ENV})")


def _split_arguments(p) -> None:
    _add_input(p)
    p.add_argument("--out-dir", required=True)
    _add_setting(p, "train_fraction", default=ev.BenchmarkConfig.train_fraction)
    _add_setting(p, "seed", default=ev.BenchmarkConfig.seed)


def _train_arguments(p) -> None:
    _add_input(p)
    p.add_argument("--task", choices=tuple(ev.TASK_LABELS), default="four")
    p.add_argument("--model", required=True, choices=KINDS)
    p.add_argument("--out", required=True)
    _add_setting(p, "seed")
    _add_setting(p, "max_rows", default=None)  # every row, unlike the benchmark
    p.add_argument("--no-pixel-scaling", action="store_true")
    p.add_argument("--lbp", action="store_true", help="LBP-code features")
    for dest in _LBP_SETTINGS:
        _add_setting(p, dest)
    p.add_argument("--pca", type=int, default=None,
                   help="project features to this many components")
    p.add_argument("--variance", type=float, default=None,
                   help="pick component count by variance coverage")
    for name, kinds in _MODEL_FLAGS.items():
        _add_setting(p, name, ev.config_field(kinds[-1], name), "for --model " + "/".join(kinds))


def _predict_arguments(p) -> None:
    p.add_argument("--model-file", required=True)
    p.add_argument("--input", required=True,
                   help="training-format CSV or image-only CSV")
    p.add_argument("--out", required=True)


def _benchmark_arguments(p) -> None:
    _add_input(p)
    p.add_argument("--config", help="flat key=value config file")
    for dest, text in _BENCHMARK_SETTINGS.items():
        _add_setting(p, dest, help=text)
    p.add_argument("--full", action="store_true",
                   help="study scale: every row, 500 MLP and 400 CNN epochs "
                        "(explicit flags still win)")
    p.add_argument("--csv", help="also write the report as CSV here")


def _lbp_arguments(p) -> None:
    _add_input(p)
    p.add_argument("--row", type=int, default=0)
    p.add_argument("--out", required=True)
    for dest in _LBP_GEOMETRY:
        _add_setting(p, dest)


def _pca_arguments(p) -> None:
    _add_input(p)
    p.add_argument("--task", choices=tuple(ev.TASK_LABELS), default="eleven")
    p.add_argument("--components", type=int, default=None)
    p.add_argument("--variance", type=float, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--report", action="store_true",
                   help="print per-component variance ratios")
    p.add_argument("--no-pixel-scaling", action="store_true")


def _visualize_arguments(p) -> None:
    _add_input(p)
    p.add_argument("--mode", choices=("keypoints", "scatter"), required=True)
    p.add_argument("--row", type=int, default=0)
    p.add_argument("--slot", help="slot name for scatter mode")
    p.add_argument("--out", required=True)


#: command name -> (its help line, the function that adds its arguments, its handler)
_COMMANDS = {
    "split": ("write derived train/test CSVs per task", _split_arguments, cmd_split),
    "train": ("fit one model and save it", _train_arguments, cmd_train),
    "predict": ("apply a saved model to images", _predict_arguments, cmd_predict),
    "benchmark": ("run the RMSE benchmark", _benchmark_arguments, cmd_benchmark),
    "lbp": ("render a row's LBP code map", _lbp_arguments, cmd_lbp),
    "pca": ("fit and save a PCA model", _pca_arguments, cmd_pca),
    "visualize": ("keypoint overlay or scatter raster", _visualize_arguments, cmd_visualize),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of command's alone, which parses
    that command's argv as the full one does and prints the same usage."""
    parser = argparse.ArgumentParser(
        prog="facekeys",
        description="Facial keypoint regression lab: data prep, LBP/PCA "
                    "features, eight regressors, RMSE benchmark, rasters.",
    )
    # the metavar gives a one-command parser the full usage line; the full parser lists
    # its choices without one, which would also replace "command" in its errors
    listing = {} if command is None else {"metavar": "{" + ",".join(_COMMANDS) + "}"}
    sub = parser.add_subparsers(dest="command", required=True, **listing)
    for name in _COMMANDS if command is None else [command]:
        text, add_arguments, handler = _COMMANDS[name]
        p = sub.add_parser(name, help=text)
        add_arguments(p)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a known command builds only its own parser; --help, no command or an unknown
    # one builds every command's, whose help and errors list them all
    args = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    try:
        return args.func(args)
    except (CliError, TrainingDiverged, OSError, ValueError) as exc:
        print(f"facekeys: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
