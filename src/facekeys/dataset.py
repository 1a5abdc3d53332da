"""Facial keypoint dataset handling.

Covers the Kaggle-style training CSV (coordinate column pairs plus a
space-separated ``Image`` column; an image-only CSV has zero coordinate
columns, and only an empty coordinate cell is missing), column-mean
imputation, the coverage split into a dense four-keypoint task and a
sparse eleven-keypoint task, seeded holdout partitioning, and conversion
to numeric matrices. One streaming reader parses every CSV layout.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .rng import permutation

#: Canonical keypoint slot names in CSV column order. Each slot owns an
#: ``<name>_x`` and ``<name>_y`` column pair.
SLOT_NAMES = (
    "left_eye_center",
    "right_eye_center",
    "left_eye_inner_corner",
    "left_eye_outer_corner",
    "right_eye_inner_corner",
    "right_eye_outer_corner",
    "left_eyebrow_inner_end",
    "left_eyebrow_outer_end",
    "right_eyebrow_inner_end",
    "right_eyebrow_outer_end",
    "nose_tip",
    "mouth_left_corner",
    "mouth_right_corner",
    "mouth_center_top_lip",
    "mouth_center_bottom_lip",
)

IMAGE_COLUMN = "Image"


class DatasetError(ValueError):
    """Malformed input file or violated dataset contract."""


@dataclass(frozen=True, eq=False)
class GrayImage:
    """Single grayscale image, row-major uint8 pixels."""

    pixels: np.ndarray

    def __post_init__(self):
        p = self.pixels
        if p.ndim != 2 or p.dtype != np.uint8:
            raise DatasetError("GrayImage expects a 2-d uint8 array")


@dataclass(frozen=True, eq=False)
class KeypointSet:
    """Named (x, y) keypoints; a NaN pair marks an absent slot."""

    names: tuple[str, ...]
    coords: np.ndarray  # (k, 2) float64

    def __post_init__(self):
        if self.coords.shape != (len(self.names), 2):
            raise DatasetError("coords must be (len(names), 2)")

    def get(self, name: str) -> tuple[float, float] | None:
        """The (x, y) pair for a slot, or None when it is missing."""
        xy = self.coords[self.names.index(name)]
        if not np.all(np.isfinite(xy)):
            return None
        return float(xy[0]), float(xy[1])


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """Feature rows plus a provenance tag (raw, lbp, or pca)."""

    values: np.ndarray
    source: str

    def __post_init__(self):
        if self.source not in ("raw", "lbp", "pca"):
            raise DatasetError(f"unknown feature source {self.source!r}")
        if self.values.ndim != 2:
            raise DatasetError("feature matrix must be 2-d")

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.values, dtype)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable sample collection.

    Attributes:
        images: (n, h, w) uint8 pixel block.
        keypoints: (n, 2k) float64 coordinates in slot order
            (x then y per slot); NaN marks a missing cell, and an
            infinite one is rejected, as the CSV reader rejects it.
        slot_names: the k keypoint slot names, in column order.
    """

    images: np.ndarray
    keypoints: np.ndarray
    slot_names: tuple[str, ...]

    def __post_init__(self):
        if self.images.ndim != 3 or self.images.dtype != np.uint8:
            raise DatasetError("images must be a (n, h, w) uint8 array")
        n = self.images.shape[0]
        k = len(self.slot_names)
        if self.keypoints.shape != (n, 2 * k):
            raise DatasetError(
                f"keypoints shape {self.keypoints.shape} does not match "
                f"{n} rows x {2 * k} coordinate columns"
            )
        if self.keypoints.dtype != np.float64:
            raise DatasetError("keypoints must be float64")
        if np.isinf(self.keypoints).any():
            raise DatasetError("keypoints must be finite or NaN (missing), not inf")
        # freeze the payload; every operation returns a fresh Dataset
        self.images.setflags(write=False)
        self.keypoints.setflags(write=False)

    def __len__(self) -> int:
        return self.images.shape[0]

    @property
    def n_slots(self) -> int:
        return len(self.slot_names)

    def coordinate_columns(self) -> list[str]:
        """Column names in file order: <slot>_x, <slot>_y per slot."""
        return [f"{name}_{axis}" for name in self.slot_names for axis in "xy"]

    def image(self, i: int) -> GrayImage:
        return GrayImage(self.images[i])

    def keypoint_set(self, i: int) -> KeypointSet:
        return KeypointSet(self.slot_names, self.keypoints[i].reshape(-1, 2))

    def missing_per_slot(self) -> np.ndarray:
        """Count of rows, per slot, where x or y is missing."""
        pairs = self.keypoints.reshape(len(self), self.n_slots, 2)
        return np.isnan(pairs).any(axis=2).sum(axis=0)

    def take(self, indices) -> "Dataset":
        """Row subset (copies), preserving the given order."""
        idx = np.asarray(indices, dtype=np.intp)  # a fancy index copies
        return replace(self, images=self.images[idx], keypoints=self.keypoints[idx])


def _slot_names_from_header(columns: list[str]) -> tuple[str, ...]:
    if len(columns) % 2 != 0:
        raise DatasetError("coordinate columns must come in x/y pairs")
    names = []
    for i in range(0, len(columns), 2):
        cx, cy = columns[i], columns[i + 1]
        if not cx.endswith("_x") or cy != cx[:-2] + "_y":
            raise DatasetError(f"columns {cx!r}, {cy!r} are not an x/y pair")
        names.append(cx[:-2])
    return tuple(names)


#: Deletes the characters of canonical pixel text: ASCII digits and blanks.
_CANONICAL_PIXEL_CHARS = str.maketrans("", "", "0123456789 ")


def _parse_pixels(cell: str, row_idx: int) -> np.ndarray:
    """Decode one ``Image`` cell into int64 pixel values.

    A canonical cell, ASCII digits separated by single blanks as
    ``_format_image`` writes them, is read by one ``np.fromstring``. The
    result is kept only when it holds one value per blank-separated token
    and none above 255, so a saturated integer or a misread blank run
    never passes. Every other cell, and every cell the checks refuse, goes
    to ``_parse_pixels_exact``, which defines the grammar and words each
    error, so both paths accept the same cells with the same values.
    """
    if cell.translate(_CANONICAL_PIXEL_CHARS) == "":
        values = np.fromstring(cell, dtype=np.int64, sep=" ")
        if values.size == cell.count(" ") + 1 and values.max() <= 255:
            return values
    return _parse_pixels_exact(cell, row_idx)


def _parse_pixels_exact(cell: str, row_idx: int) -> np.ndarray:
    """The pixel grammar: whitespace-separated Python ints in [0, 255].

    Any run of Unicode whitespace separates tokens, and a token is what
    ``int()`` reads (``+5``, ``07``, ``1_0``, non-ASCII digits). A token
    ``int()`` refuses is a non-integer pixel value; one outside [0, 255],
    however wide, is out of range. Errors name the row and the column.
    """
    where = f"row {row_idx}, column {IMAGE_COLUMN}"
    try:
        values = np.array(cell.split(), dtype=np.int64)
    except ValueError:
        raise DatasetError(f"{where}: non-integer pixel value") from None
    except OverflowError:  # wider than int64
        raise DatasetError(f"{where}: pixel outside [0, 255]") from None
    if values.size and (values.min() < 0 or values.max() > 255):
        raise DatasetError(f"{where}: pixel outside [0, 255]")
    return values


def _parse_coordinate(cell: str, row_idx: int, column: str) -> float:
    cell = cell.strip()
    if cell == "":
        return math.nan
    try:
        value = float(cell)
    except ValueError:
        raise DatasetError(
            f"row {row_idx}, column {column}: non-numeric coordinate {cell!r}"
        ) from None
    if not math.isfinite(value):
        raise DatasetError(
            f"row {row_idx}, column {column}: non-finite coordinate {cell!r}"
        )
    return value


def _read_csv(path, header_rule):
    """Parse a CSV row by row: the one reader behind every loader.

    ``header_rule(path, header)`` checks the header and returns the slot
    names of its leading coordinate columns; a last ``Image`` column holds
    pixel lists that must decode to the first row's square side. Returns
    (slot_names, (n, 2k) float64 keypoints, (n, side, side) uint8 images
    or None).
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DatasetError(f"{path}: empty file")
        slot_names = header_rule(path, header)
        n_coord = 2 * len(slot_names)
        has_image = header[-1:] == [IMAGE_COLUMN]
        coord_rows: list[list[float]] = []
        pixel_rows: list[np.ndarray] = []
        for row_idx, row in enumerate(reader):
            if len(row) != len(header):
                raise DatasetError(
                    f"row {row_idx}: expected {len(header)} fields, got {len(row)}"
                )
            coord_rows.append([_parse_coordinate(row[c], row_idx, header[c])
                               for c in range(n_coord)])
            if not has_image:
                continue
            pixels = _parse_pixels(row[n_coord], row_idx)
            where = f"row {row_idx}, column {IMAGE_COLUMN}"
            if not pixel_rows:
                side = math.isqrt(pixels.size)
                if side * side != pixels.size or side == 0:
                    raise DatasetError(f"{where}: {pixels.size} pixels is not a square image")
            elif pixels.size != side * side:
                raise DatasetError(f"{where}: expected {side * side} pixels, got {pixels.size}")
            pixel_rows.append(pixels.astype(np.uint8))

    n = len(coord_rows)
    if n == 0:
        raise DatasetError(f"{path}: no data rows")
    # stack first: the coordinate block is not yet alive at the stack's peak
    images = np.stack(pixel_rows).reshape(n, side, side) if has_image else None
    keypoints = np.array(coord_rows, dtype=np.float64).reshape(n, n_coord)
    return slot_names, keypoints, images


def _training_header(path, header: list[str]) -> tuple[str, ...]:
    if header[-1:] != [IMAGE_COLUMN]:
        raise DatasetError(f"{path}: last header column must be {IMAGE_COLUMN!r}")
    return _slot_names_from_header(header[:-1])


def _image_header(path, header: list[str]) -> tuple[str, ...]:
    if header != [IMAGE_COLUMN]:
        raise DatasetError(f"{path}: expected a single {IMAGE_COLUMN!r} column")
    return ()


def load_training_csv(path) -> Dataset:
    """Parse a training CSV into a Dataset.

    The header must name an even count of coordinate columns (x/y pairs)
    followed by an ``Image`` column; an image-only CSV has zero coordinate
    columns. Only an empty coordinate cell is missing. Pixel strings must
    all decode to the same square image size.

    Raises:
        DatasetError: on a malformed header, a row with the wrong field
            count, a non-numeric or non-finite coordinate, a bad pixel
            list, or an input with no data rows. Messages name the row
            index and column involved.
    """
    slot_names, keypoints, images = _read_csv(path, _training_header)
    return Dataset(images=images, keypoints=keypoints, slot_names=slot_names)


def load_image_csv(path) -> np.ndarray:
    """Parse an image-only CSV (single ``Image`` column) into (n, s, s) uint8."""
    return _read_csv(path, _image_header)[2]


def _format_coordinate(v: float) -> str:
    return "" if math.isnan(v) else repr(float(v))


#: The decimal text of every uint8 pixel value, indexed by value.
_PIXEL_TEXT = tuple(str(v) for v in range(256))


def _format_image(flat: np.ndarray) -> str:
    return " ".join(map(_PIXEL_TEXT.__getitem__, flat.tolist()))


def _write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_training_csv(d: Dataset, path) -> None:
    """Write a Dataset in the combined training-CSV format.

    Coordinates are rendered with full round-trip precision, so loading
    the file reproduces the Dataset exactly.
    """
    flat = d.images.reshape(len(d), -1)
    _write_csv(path, d.coordinate_columns() + [IMAGE_COLUMN], (
        [*map(_format_coordinate, kp), _format_image(px)]
        for kp, px in zip(d.keypoints, flat)
    ))


def write_keypoint_csv(d: Dataset, path) -> None:
    """Write only the coordinate columns of a Dataset."""
    _write_csv(path, d.coordinate_columns(),
               (list(map(_format_coordinate, kp)) for kp in d.keypoints))


def write_image_csv(d: Dataset, path) -> None:
    """Write only the Image column of a Dataset."""
    flat = d.images.reshape(len(d), -1)
    _write_csv(path, [IMAGE_COLUMN], ([_format_image(px)] for px in flat))


def column_means(d: Dataset) -> np.ndarray:
    """Per-coordinate-column mean over present values.

    Raises:
        DatasetError: if a column has no present values, naming it.
    """
    kp = d.keypoints
    present = np.isfinite(kp)
    counts = present.sum(axis=0)
    if np.any(counts == 0):
        col = d.coordinate_columns()[int(np.argmin(counts))]
        raise DatasetError(f"column {col} has no present values to average")
    sums = np.where(present, kp, 0.0).sum(axis=0)
    return sums / counts


def impute_column_means(d: Dataset, means: np.ndarray | None = None) -> Dataset:
    """Fill missing coordinates with column means.

    By default the means come from ``d`` itself (the full pre-holdout
    dataset). Pass ``means`` computed from a training split for the
    leakage-free variant. Idempotent: a dataset with no missing values
    comes back with equal keypoints.
    """
    if means is None:
        means = column_means(d)
    means = np.asarray(means, dtype=np.float64)
    if means.shape != (d.keypoints.shape[1],):
        raise DatasetError(
            f"means must have {d.keypoints.shape[1]} entries, got {means.shape}"
        )
    kp = d.keypoints.copy()
    mask = np.isnan(kp)
    kp[mask] = np.broadcast_to(means, kp.shape)[mask]
    return replace(d, keypoints=kp)


def _restrict(d: Dataset, slot_idx: list[int]) -> Dataset:
    cols = []
    for j in slot_idx:
        cols.extend((2 * j, 2 * j + 1))
    return Dataset(
        images=d.images,  # read-only, so shared
        # a column index yields Fortran order; C order keeps the column sums' bits
        keypoints=d.keypoints[:, cols].copy(),
        slot_names=tuple(d.slot_names[j] for j in slot_idx),
    )


def split_by_keypoint_coverage(d: Dataset) -> tuple[Dataset, Dataset]:
    """Split into the dense four-keypoint and sparse eleven-keypoint tasks.

    The four slots with the fewest missing entries (ties broken by column
    order) form the dense task, which keeps every row. The remaining slots
    form the sparse task, which keeps only rows where all of them are
    present. Row order is preserved in both outputs.
    """
    if d.n_slots < 5:
        raise DatasetError("coverage split needs at least 5 keypoint slots")
    miss = d.missing_per_slot()
    order = np.lexsort((np.arange(d.n_slots), miss))
    dense_idx = sorted(int(j) for j in order[:4])
    sparse_idx = [j for j in range(d.n_slots) if j not in dense_idx]

    dense = _restrict(d, dense_idx)

    pairs = d.keypoints.reshape(len(d), d.n_slots, 2)
    sparse_present = np.isfinite(pairs[:, sparse_idx, :]).all(axis=(1, 2))
    sparse = _restrict(d.take(np.nonzero(sparse_present)[0]), sparse_idx)
    return dense, sparse


def holdout_split(d: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded disjoint train/test partition.

    The train side gets floor(train_fraction * n) rows of a seeded
    shuffle; both sides keep ascending original row order. The same seed
    always produces the same partition.
    """
    if not 0.0 < train_fraction < 1.0:
        raise DatasetError(f"train_fraction must be in (0, 1), got {train_fraction}")
    n = len(d)
    if n < 2:
        raise DatasetError("need at least 2 rows to split")
    idx = permutation(n, seed)
    n_train = math.floor(train_fraction * n)
    if n_train == 0 or n_train == n:
        raise DatasetError(
            f"train_fraction {train_fraction} leaves an empty side for n={n}"
        )
    train_idx = sorted(idx[:n_train])
    test_idx = sorted(idx[n_train:])
    return d.take(train_idx), d.take(test_idx)


def to_matrices(d: Dataset, scale_pixels: bool = True) -> tuple[FeatureMatrix, np.ndarray]:
    """Flatten a dataset into a feature matrix and a target matrix.

    Features are row-major flattened pixels, divided by 255 when
    ``scale_pixels`` is set. Targets are the coordinate columns in slot
    order. Datasets that still contain missing values are rejected.
    """
    if np.isnan(d.keypoints).any():
        raise DatasetError("dataset has missing keypoints; impute before to_matrices")
    X = d.images.reshape(len(d), -1).astype(np.float64)
    if scale_pixels:
        X /= 255.0
    Y = d.keypoints.copy()
    return FeatureMatrix(X, "raw"), Y
