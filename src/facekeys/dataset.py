"""Facial keypoint dataset handling.

Covers the Kaggle-style training CSV (coordinate column pairs plus a
space-separated ``Image`` column; an image-only CSV has zero coordinate
pairs, and only an empty coordinate cell is missing), column-mean
imputation, the coverage split into a dense four-keypoint task and a
sparse eleven-keypoint task, and seeded holdout partitioning. A Dataset
holds plain arrays, and the stages after it take them as they are: the
feature pipeline reads ``images``, and the regressors fit ``keypoints``
as their targets. One reader parses the training layout: a canonical
file, as the writers here and Kaggle's ``training.csv`` write it, is
decoded a block of lines at a time with whole-block numpy parsing; any
other file goes row by row through the csv module and the exact pixel
grammar, which also words every error. The keypoint-only files that
``write_keypoint_csv`` writes are not read back by the package. One
block writer writes all three layouts and the table of predicted
coordinates that ``facekeys predict`` writes: the header goes through the csv
module, and the rows are formatted a block at a time, each pixel's cell
by one lookup in a text table, into the bytes the csv module would
write for them.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from ._inputs import check_number
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
class FeatureMatrix:
    """Feature rows, as the feature pipeline returns them.

    It stays only because perfbench's predict-cli reference reads
    ``values``; ROADMAP item 4 removes it, and the pipeline then returns
    the array itself.
    """

    values: np.ndarray


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
        return _coordinate_columns(self.slot_names)

    def missing_per_slot(self) -> np.ndarray:
        """Count of rows, per slot, where x or y is missing."""
        pairs = self.keypoints.reshape(len(self), self.n_slots, 2)
        return np.isnan(pairs).any(axis=2).sum(axis=0)

    def take(self, indices) -> "Dataset":
        """Row subset (copies), preserving the given order."""
        idx = np.asarray(indices, dtype=np.intp)  # a fancy index copies
        return replace(self, images=self.images[idx], keypoints=self.keypoints[idx])


def _coordinate_columns(slot_names) -> list[str]:
    return [f"{name}_{axis}" for name in slot_names for axis in "xy"]


def _slot_names_from_header(path, columns: list[str]) -> tuple[str, ...]:
    names = []
    for cx, cy in zip(columns[::2], columns[1::2]):
        if not cx.endswith("_x") or cy != cx[:-2] + "_y":
            raise DatasetError(f"{path}: columns {cx!r}, {cy!r} are not an x/y pair")
        names.append(cx[:-2])
    if len(columns) % 2:  # Kaggle's test.csv header, ImageId,Image, ends here
        raise DatasetError(f"{path}: coordinate columns must come in x/y pairs, "
                           f"but {columns[-1]!r} has no partner")
    return tuple(names)


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


#: Bytes of whole lines the block reader asks for per read (the
#: ``readlines`` hint): about four rows of 48x48 images, or one of 96x96.
#: Small blocks keep a block's temporaries in cache: on a shared 2-vCPU
#: host a 64-row 48x48 file decoded in about 3 ms at 32 KB against 5.6 ms
#: at 256 KB, with a tracemalloc peak of 0.8 against 4 MB.
_BLOCK_BYTES = 1 << 15


def _read_csv(path):
    """Parse a training CSV: the one reader behind every loader.

    The header is k x/y coordinate column pairs, then an ``Image`` column
    (k is 0 in an image-only file), as ``_training_header`` checks it. The
    Image cells hold pixel lists that must decode to the first row's
    square side. Returns (slot_names, (n, 2k) float64 keypoints,
    (n, side, side) uint8 images); the images are never None.

    A canonical file, as the package's writers and Kaggle's
    ``training.csv`` write it, is decoded a block of lines at a time by
    ``_read_blocks``. Any other file, and any file with an error, is read
    from its start by ``_read_rows``, which defines the grammar and words
    every error; the two give the same arrays on every canonical file.
    """
    try:
        decoded = _read_blocks(path)
    except DatasetError:  # the row reader words the first error, wherever it is
        decoded = None
    return decoded or _read_rows(path)


def _read_rows(path):
    """``_read_csv`` by the csv module, one row and one cell at a time."""
    with open(path, newline="") as fh:
        reader = _checked_rows(csv.reader(fh))
        header = next(reader, None)
        if header is None:
            raise DatasetError(f"{path}: empty file")
        slot_names = _training_header(path, header)
        n_coord = 2 * len(slot_names)
        coord_rows: list[list[float]] = []
        pixel_rows: list[np.ndarray] = []
        for row_idx, row in enumerate(reader):
            if len(row) != len(header):
                raise DatasetError(
                    f"row {row_idx}: expected {len(header)} fields, got {len(row)}"
                )
            coord_rows.append([_parse_coordinate(row[c], row_idx, header[c])
                               for c in range(n_coord)])
            pixels = _parse_pixels_exact(row[n_coord], row_idx)
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
    images = np.stack(pixel_rows).reshape(n, side, side)
    keypoints = np.array(coord_rows, dtype=np.float64).reshape(n, n_coord)
    return slot_names, keypoints, images


def _checked_rows(reader):
    """The rows of a csv reader; a row the csv module refuses, such as one
    with a field over ``csv.field_size_limit()``, raises DatasetError
    naming it (data rows count from 0 after the header)."""
    row_idx = -1
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            where = "header" if row_idx < 0 else f"row {row_idx}"
            raise DatasetError(f"{where}: {exc}") from None
        yield row
        row_idx += 1


def _plain_text(raw: bytes) -> str | None:
    """``raw`` as text when the csv module would split it at its commas
    alone: ASCII with no quote, NUL or carriage return. None otherwise."""
    if raw.isascii() and not any(c in raw for c in (b'"', b"\0", b"\r")):
        return raw.decode("ascii")
    return None


def _read_blocks(path):
    """``_read_csv`` of a canonical file, a block of lines at a time, or None.

    A canonical file is a regular file whose header ends in ``Image``.
    Each line ends in ``\\n`` or ``\\r\\n`` (the last may end in neither),
    is no longer than csv's field size limit, and has the header's comma
    count. The text outside the Image cells is ``_plain_text``, and the
    Image cells are what ``_decode_pixel_cells`` takes, all of the first
    row's square size. The csv module cuts such a line at its commas
    alone, so both readers see the same cells. A header or coordinate
    error raises DatasetError.
    """
    if not os.path.isfile(path):  # opening a pipe would take its writer from the row reader
        return None
    with open(path, "rb", buffering=_BLOCK_BYTES) as fh:
        size = os.fstat(fh.fileno()).st_size
        line = fh.readline()
        header = _plain_text(line[:len(line) - line.endswith(b"\n") - line.endswith(b"\r\n")])
        if not header:  # csv reads an empty line as no fields at all
            return None
        header = header.split(",")
        slot_names = _training_header(path, header)
        n_coord = 2 * len(slot_names)
        images = None
        coord_rows: list[list[float]] = []
        n = 0
        while lines := fh.readlines(_BLOCK_BYTES):
            if max(map(len, lines)) > csv.field_size_limit():
                return None  # csv refuses a field this long
            cells, heads = [], []
            for line in lines:
                end = len(line) - line.endswith(b"\n") - line.endswith(b"\r\n")
                cut = line.rfind(b",", 0, end)  # the Image cell follows the last comma
                if (cut >= 0) != (n_coord > 0):
                    return None
                cells.append(line[cut + 1:end])
                if n_coord:
                    heads.append(line[:cut])
            if images is None:  # the first row sets the image size
                side = math.isqrt(cells[0].count(b" ") + 1)
                images = np.empty((0, side * side), dtype=np.uint8)
            pixels = _decode_pixel_cells(cells, side * side)
            text = _plain_text(b"\n".join(heads))
            if pixels is None or text is None:
                return None
            for row_text in text.split("\n") if n_coord else ():
                row = row_text.split(",")
                if len(row) != n_coord:
                    return None
                coord_rows.append([_parse_coordinate(cell, len(coord_rows), header[c])
                                   for c, cell in enumerate(row)])
            if n + len(cells) > len(images):
                # room for the rest of the file at the line length read so far;
                # resize reallocates in place where it can, so no final copy
                rest = math.ceil((n + len(cells)) * size / fh.tell())
                images.resize((max(rest, n + len(cells), len(images) * 5 // 4), side * side),
                              refcheck=False)
            images[n:n + len(cells)] = pixels
            n += len(cells)
    if images is None:
        return None
    images.resize((n, side * side), refcheck=False)
    keypoints = np.array(coord_rows, dtype=np.float64).reshape(n, n_coord)
    return slot_names, keypoints, images.reshape(n, side, side)


def _decode_pixel_cells(cells: list[bytes], k: int) -> np.ndarray | None:
    """The (len(cells), k) uint8 values of pixel cells, or None.

    Every cell must be k tokens of 1-3 ASCII digits, each at most 255,
    separated by single blanks. The cells are joined and decoded by a
    few numpy operations over the whole block: token ends come from the
    blank positions, and a token's value is its last digit, plus 10 times
    the one before, plus 100 times the one before that if it has three.
    """
    # blanks around the cells: one before each token and after each cell
    text = np.frombuffer(b" ".join([b" ", *cells, b""]), dtype=np.uint8)
    blank = text == ord(" ")
    if not (blank | (text - ord("0") < 10)).all():
        return None
    stops = np.flatnonzero(blank)[1:]  # the blank before the first token, then after each
    joins = np.cumsum([len(c) + 1 for c in cells]) + 1  # the blank after each cell
    if not np.array_equal(stops[k::k], joins):  # k tokens a cell
        return None
    length = np.diff(stops) - 1
    if length.min() < 1 or length.max() > 3:
        return None
    ends = stops[1:]
    digits = (text & 15).astype(np.uint16)  # "0"-"9" -> 0-9 and a blank -> 0
    values = digits[ends - 1] + 10 * digits[ends - 2] + 100 * digits[ends - 3] * (length == 3)
    if values.max() > 255:
        return None
    return values.astype(np.uint8).reshape(len(cells), k)


def _training_header(path, header: list[str]) -> tuple[str, ...]:
    if header[-1:] != [IMAGE_COLUMN]:
        raise DatasetError(f"{path}: last header column must be {IMAGE_COLUMN!r}")
    return _slot_names_from_header(path, header[:-1])


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
    slot_names, keypoints, images = _read_csv(path)
    return Dataset(images=images, keypoints=keypoints, slot_names=slot_names)


def load_image_csv(path) -> np.ndarray:
    """The (n, s, s) uint8 images of a training or image-only CSV.

    It stays only because perfbench binds its name; ROADMAP item 4
    removes it, and callers read ``load_training_csv(path).images``.
    """
    return _read_csv(path)[2]


def _format_coordinate(v: float) -> str:
    return "" if math.isnan(v) else repr(float(v))


#: Pixels a write block formats at once; a block holds at least one row.
#: On a shared 2-vCPU host, ``write_training_csv`` of 1000 rows of 48x48
#: took a median of 0.112, 0.109, 0.112 and 0.113 s (seven runs) at 2^14,
#: 2^15, 2^16 and 2^17 pixels a block, while its tracemalloc peak grows
#: with the block: 0.19 MB at 2^14, 0.84 MB at 2^16, 13.5 MB at 2^20.
#: 2^16, the LBP kernel's pass size too, keeps the peak under 1 MB; a
#: 2000-row 96x96 file peaked at 0.85 MB against an 18.4 MB image block.
_WRITE_PIXELS = 1 << 16

#: A coordinate's share of a block, in pixels: its float, its text and
#: their list slots take about four times a pixel's share of memory, as
#: a keypoint-only block of 2^14 coordinates peaked at 0.85 MB too.
_COORDINATE_PIXELS = 4


def _block_rows(pixels: int, coordinates: int) -> int:
    """Rows per write block, for rows of that many pixels and coordinates."""
    return max(1, _WRITE_PIXELS // max(1, pixels + _COORDINATE_PIXELS * coordinates))


def _cell_table(end: str) -> np.ndarray:
    """Per uint8 value, its decimal text then ``end``, NUL-padded into a uint32."""
    text = b"".join(f"{v}{end}".encode().ljust(4, b"\0") for v in range(256))
    return np.frombuffer(text, dtype=np.uint32)


#: A pixel's cell text by value: a blank follows every pixel of a row but
#: the last, which ends the row's Image cell with a line feed.
_PIXEL_CELLS = _cell_table(" ")
_LAST_PIXEL_CELLS = _cell_table("\n")


def _image_cells(flat: np.ndarray) -> list[str]:
    """The Image cells of a (rows, pixels) uint8 block: one table lookup
    per pixel, then the NUL padding dropped and the text cut at the line
    feeds."""
    if flat.shape[1] == 0:
        return [""] * len(flat)
    cells = _PIXEL_CELLS[flat]
    cells[:, -1] = _LAST_PIXEL_CELLS[flat[:, -1]]
    text = cells.view(np.uint8)
    return text[text != 0].tobytes().decode("ascii").split("\n")[:-1]


def _write_rows(path, header: list[str], keypoints, images) -> None:
    """Write a header, then per row its coordinates, its Image cell or both.

    ``keypoints`` is an (n, 2k) float block, whose NaN cells are written
    empty, and ``images`` an (n, h, w) uint8 block; either may be None.
    The bytes are those of ``csv.writer`` writing the same cells: the
    header goes through it, and the rows, which need no quotes, are
    formatted a block of rows at a time and end in its ``\\r\\n``.
    """
    n = len(images if keypoints is None else keypoints)
    width = 0 if images is None else images.shape[1] * images.shape[2]
    step = _block_rows(width, 0 if keypoints is None else keypoints.shape[1])
    empty = '""' if len(header) == 1 else ""  # csv quotes a row's only field when it is empty
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, n, step):
            stop = min(start + step, n)
            rows = [[]] * (stop - start) if keypoints is None else (
                list(map(_format_coordinate, row)) for row in keypoints[start:stop].tolist())
            if images is None:
                lines = map(",".join, rows)
            else:
                cells = _image_cells(images[start:stop].reshape(stop - start, width))
                lines = (",".join(row + [cell]) for row, cell in zip(rows, cells))
            fh.write("".join([(line or empty) + "\r\n" for line in lines]))


def write_training_csv(d: Dataset, path) -> None:
    """Write a Dataset in the combined training-CSV format.

    Coordinates are rendered with full round-trip precision, so loading
    the file reproduces the Dataset exactly.
    """
    _write_rows(path, d.coordinate_columns() + [IMAGE_COLUMN], d.keypoints, d.images)


def write_keypoint_csv(d: Dataset, path) -> None:
    """Write only the coordinate columns of a Dataset."""
    write_coordinate_csv(d.slot_names, d.keypoints, path)


def write_coordinate_csv(slot_names, keypoints, path) -> None:
    """Write an (n, 2k) float block of coordinates under the column pairs of
    its k slot names, as a Dataset names them, a NaN cell empty: the keypoint
    file's layout, which the predictions of ``facekeys predict`` take too."""
    _write_rows(path, _coordinate_columns(slot_names), keypoints, None)


def write_image_csv(d: Dataset, path) -> None:
    """Write only the Image column of a Dataset."""
    _write_rows(path, [IMAGE_COLUMN], None, d.images)


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
    check_number("train_fraction", train_fraction, 0, 1, above=True, below=True,
                 error=DatasetError)
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

