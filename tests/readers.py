"""Readers the package does not ship: oracles for the files it writes.

read_pgm and read_ppm read facekeys.viz's binary netpbm images,
load_split_csvs rejoins the keypoint and image CSVs of ``facekeys
split``, load_pca reads what pca.save_pca and ``facekeys pca`` write, and
load_report_csv reads eval.format_report's CSV.
"""

import csv
import io
import json
import re

import numpy as np

from facekeys.dataset import (
    Dataset,
    DatasetError,
    _image_header,
    _read_csv,
    _slot_names_from_header,
)
from facekeys.eval import EvalError, EvalReport, EvalRow
from facekeys.pca import PcaModel
from facekeys.viz import VizError


def _read_netpbm(path, magic: bytes) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(magic):
        raise VizError(f"{path}: expected {magic.decode()} file")
    # header: magic, width, height, maxval; single whitespace separators
    m = re.match(rb"(P[56])\s+(\d+)\s+(\d+)\s+(\d+)\s", data)
    if m is None:
        raise VizError(f"{path}: malformed header")
    width, height, maxval = int(m.group(2)), int(m.group(3)), int(m.group(4))
    if maxval != 255:
        raise VizError(f"{path}: only maxval 255 is supported")
    body = data[m.end():]
    channels = 3 if magic == b"P6" else 1
    expected = width * height * channels
    if len(body) != expected:
        raise VizError(f"{path}: expected {expected} pixel bytes, got {len(body)}")
    arr = np.frombuffer(body, dtype=np.uint8)
    if channels == 3:
        return arr.reshape(height, width, 3).copy()
    return arr.reshape(height, width).copy()


def read_ppm(path) -> np.ndarray:
    return _read_netpbm(path, b"P6")


def read_pgm(path) -> np.ndarray:
    return _read_netpbm(path, b"P5")


def load_split_csvs(keypoint_path, image_path) -> Dataset:
    """Rejoin a keypoint CSV and an image CSV written by the pair writers."""
    images = _read_csv(image_path, _image_header)[2]
    slot_names, keypoints, _ = _read_csv(
        keypoint_path, lambda path, header: _slot_names_from_header(header)
    )
    if len(keypoints) != len(images):
        raise DatasetError(
            f"keypoint rows ({len(keypoints)}) != image rows ({len(images)})"
        )
    return Dataset(images=images, keypoints=keypoints, slot_names=slot_names)


def load_pca(path) -> PcaModel:
    """Read a model written by save_pca."""
    with np.load(path) as data:
        return PcaModel(
            mean=data["mean"],
            components=data["components"],
            explained_variance=data["explained_variance"],
            explained_ratio=data["explained_ratio"],
        )


def load_report_csv(text: str) -> EvalReport:
    """Parse a CSV produced by format_report(style='csv')."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    expected = ["model", "pipeline", "task", "rmse", "n_train", "n_test",
                "seed", "hyperparameters", "error"]
    if header != expected:
        raise EvalError(f"unexpected report header {header}")
    report = EvalReport()
    for row in reader:
        if not row:
            continue
        report.rows.append(EvalRow(
            model=row[0], pipeline=row[1], task=row[2],
            rmse=float(row[3]) if row[3] else None,
            n_train=int(row[4]), n_test=int(row[5]), seed=int(row[6]),
            hyperparameters=json.loads(row[7]),
            error=row[8] or None,
        ))
    if report.rows:
        report.seed = report.rows[0].seed
    return report
