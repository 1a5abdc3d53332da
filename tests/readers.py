"""Readers and writers the package does not ship: oracles for its files.

read_pgm and read_ppm read facekeys.viz's binary netpbm images,
load_split_csvs rejoins the keypoint and image CSVs of ``facekeys
split``, load_pca reads what pca.save_pca and ``facekeys pca`` write, and
load_report_csv reads eval.format_report's CSV. csv_training_rows,
csv_keypoint_rows and csv_image_rows write the dataset writers' three
layouts a row at a time through the csv module, the bytes the package's
block writers must reproduce.
"""

import csv
import io
import json
import re

import numpy as np

from facekeys.dataset import (
    IMAGE_COLUMN,
    Dataset,
    DatasetError,
    _format_coordinate,
    _parse_coordinate,
    _slot_names_from_header,
    load_training_csv,
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
    """Rejoin a keypoint CSV and an image CSV written by the pair writers.

    The package reads the image CSV as a training CSV with zero coordinate
    pairs; the keypoint CSV, which it never reads, is read here row by row.
    """
    images = load_training_csv(image_path).images
    with open(keypoint_path, newline="") as fh:
        header, *rows = csv.reader(fh)
    slot_names = _slot_names_from_header(keypoint_path, header)
    for row_idx, row in enumerate(rows):
        if len(row) != len(header):
            raise DatasetError(f"row {row_idx}: expected {len(header)} fields, got {len(row)}")
    keypoints = np.array(
        [[_parse_coordinate(cell, row_idx, column) for cell, column in zip(row, header)]
         for row_idx, row in enumerate(rows)],
        dtype=np.float64,
    ).reshape(len(rows), len(header))
    if len(keypoints) != len(images):
        raise DatasetError(
            f"keypoint rows ({len(keypoints)}) != image rows ({len(images)})"
        )
    return Dataset(images=images, keypoints=keypoints, slot_names=slot_names)


def _csv_rows(path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _image_text(d: Dataset) -> list[str]:
    flat = d.images.reshape(len(d), d.images.shape[1] * d.images.shape[2])
    return [" ".join(map(str, px)) for px in flat.tolist()]


def csv_training_rows(d: Dataset, path) -> None:
    """write_training_csv, one csv-module row at a time."""
    _csv_rows(path, d.coordinate_columns() + [IMAGE_COLUMN], (
        [*map(_format_coordinate, kp), px] for kp, px in zip(d.keypoints, _image_text(d))))


def csv_keypoint_rows(d: Dataset, path) -> None:
    """write_keypoint_csv, one csv-module row at a time."""
    _csv_rows(path, d.coordinate_columns(),
              (list(map(_format_coordinate, kp)) for kp in d.keypoints))


def csv_image_rows(d: Dataset, path) -> None:
    """write_image_csv, one csv-module row at a time."""
    _csv_rows(path, [IMAGE_COLUMN], ([px] for px in _image_text(d)))


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
