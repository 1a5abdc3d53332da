import csv
import math
import os
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import CORE_SLOTS, build_dataset, kaggle_size_dataset
import facekeys.dataset as fk_dataset
from facekeys.dataset import (
    SLOT_NAMES,
    Dataset,
    DatasetError,
    column_means,
    holdout_split,
    impute_column_means,
    load_image_csv,
    load_training_csv,
    split_by_keypoint_coverage,
    write_image_csv,
    write_keypoint_csv,
    write_training_csv,
)
from readers import csv_image_rows, csv_keypoint_rows, csv_training_rows, load_split_csvs

# hand-written file, two slots, 2x2 images; row 0 misses nose x, row 1 left eye y
LITERAL_CSV = (
    "left_eye_center_x,left_eye_center_y,nose_tip_x,nose_tip_y,Image\n"
    "1.5,2.0,,4.25,0 10 20 30\n"
    "3.0,,5.0,6.0,255 0 128 64\n"
)


def _write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_load_literal_values(tmp_path):
    d = load_training_csv(_write(tmp_path, LITERAL_CSV))
    assert d.slot_names == ("left_eye_center", "nose_tip")
    assert len(d) == 2
    assert d.images.shape == (2, 2, 2)
    assert d.images.dtype == np.uint8
    assert np.array_equal(d.images[0], [[0, 10], [20, 30]])
    assert np.array_equal(d.images[1], [[255, 0], [128, 64]])
    assert d.keypoints[0, 0] == 1.5 and d.keypoints[0, 1] == 2.0
    assert math.isnan(d.keypoints[0, 2]) and d.keypoints[0, 3] == 4.25
    assert d.keypoints[1, 0] == 3.0 and math.isnan(d.keypoints[1, 1])


def test_accessors(tmp_path):
    d = load_training_csv(_write(tmp_path, LITERAL_CSV))
    assert d.images[1].ravel().tolist() == [255, 0, 128, 64]
    pairs = d.keypoints[0].reshape(-1, 2)  # one (x, y) row per slot
    assert pairs[0].tolist() == [1.5, 2.0]
    assert np.isnan(pairs[1, 0]) and pairs[1, 1] == 4.25
    assert list(d.missing_per_slot()) == [1, 1]
    assert d.coordinate_columns() == [
        "left_eye_center_x",
        "left_eye_center_y",
        "nose_tip_x",
        "nose_tip_y",
    ]


def test_dataset_arrays_are_frozen(small_ds):
    with pytest.raises(ValueError):
        small_ds.images[0, 0, 0] = 1
    with pytest.raises(ValueError):
        small_ds.keypoints[0, 0] = 1.0


def test_take_preserves_given_order(small_ds):
    sub = small_ds.take([2, 0])
    assert np.array_equal(sub.images[0], small_ds.images[2])
    assert np.array_equal(sub.images[1], small_ds.images[0])


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty file"),
        ("left_eye_center_x,left_eye_center_y,Image\n", "no data rows"),
        ("a_x,a_y,Picture\nrow\n", "Image"),
        ("a_x,Image\n1,0\n", "pairs"),
        ("a_x,b_y,Image\n1,2,0\n", "not an x/y pair"),
        ("a_x,a_y,Image\n1,2,0 0 0 0,extra\n", "expected 3 fields"),
        ("a_x,a_y,Image\n1,oops,0 0 0 0\n", "a_y"),
        ("a_x,a_y,Image\n1,2,0 x 0 0\n", "non-integer pixel"),
        ("a_x,a_y,Image\n1,2,0 999 0 0\n", "outside [0, 255]"),
        ("a_x,a_y,Image\n1,2,0 -4 0 0\n", "outside [0, 255]"),
        ("a_x,a_y,Image\n1,2,0 0 0\n", "not a square image"),
        ("a_x,a_y,Image\n1,2,0 0 0 0\n3,4,0 0 0 0 0 0 0 0 0\n", "expected 4 pixels"),
    ],
)
def test_load_errors(tmp_path, text, fragment):
    with pytest.raises(DatasetError, match=None) as exc:
        load_training_csv(_write(tmp_path, text))
    assert fragment in str(exc.value).replace("\\", "")


@pytest.mark.parametrize("header, columns", [
    ("ImageId,Image", "'ImageId' has no partner"),  # Kaggle's test.csv
    ("a_x,a_y,b_x,Image", "'b_x' has no partner"),
    ("a_x,b_y,Image", "columns 'a_x', 'b_y' are not an x/y pair"),
])
def test_a_bad_coordinate_header_names_the_file_and_its_columns(tmp_path, header, columns):
    path = _write(tmp_path, header + "\n" + ",".join(["1"] * header.count(",")) + ",0\n")
    with pytest.raises(DatasetError) as exc:
        load_training_csv(path)
    assert str(exc.value).startswith(f"{path}: ") and columns in str(exc.value)


def test_load_error_names_row_and_column(tmp_path):
    text = "a_x,a_y,Image\n1,2,0 0 0 0\n1,bad,0 0 0 0\n"
    with pytest.raises(DatasetError) as exc:
        load_training_csv(_write(tmp_path, text))
    msg = str(exc.value)
    assert "row 1" in msg and "a_y" in msg


def test_write_then_load_is_exact(tmp_path, small_ds):
    path = tmp_path / "round.csv"
    write_training_csv(small_ds, path)
    back = load_training_csv(path)
    assert back.slot_names == small_ds.slot_names
    assert np.array_equal(back.images, small_ds.images)
    assert np.array_equal(back.keypoints, small_ds.keypoints, equal_nan=True)


def test_split_csv_pair_round_trip(tmp_path, small_ds):
    kp = tmp_path / "kp.csv"
    im = tmp_path / "im.csv"
    write_keypoint_csv(small_ds, kp)
    write_image_csv(small_ds, im)
    back = load_split_csvs(kp, im)
    assert np.array_equal(back.images, small_ds.images)
    assert np.array_equal(back.keypoints, small_ds.keypoints, equal_nan=True)
    assert back.slot_names == small_ds.slot_names


def test_split_csv_pair_row_count_mismatch(tmp_path, small_ds):
    kp = tmp_path / "kp.csv"
    im = tmp_path / "im.csv"
    write_keypoint_csv(small_ds, kp)
    write_image_csv(small_ds.take(range(5)), im)
    with pytest.raises(DatasetError, match="rows"):
        load_split_csvs(kp, im)


def test_load_image_csv_requires_image_header(tmp_path):
    with pytest.raises(DatasetError, match="Image"):
        load_image_csv(_write(tmp_path, "Pixels\n0 0 0 0\n"))


def test_load_image_csv_reads_the_images_of_a_training_csv(tmp_path, small_ds):
    written = tmp_path / "written.csv"
    write_training_csv(small_ds, written)
    for path in (_write(tmp_path, LITERAL_CSV), written):
        assert np.array_equal(load_image_csv(path), load_training_csv(path).images)


def test_load_training_csv_reads_an_image_only_csv(tmp_path):
    path = _write(tmp_path, "Image\n0 10 20 30\n255 0 128 64\n")
    d = load_training_csv(path)
    assert d.slot_names == () and d.keypoints.shape == (2, 0)
    assert np.array_equal(d.images, load_image_csv(path))
    assert np.array_equal(d.images[1], [[255, 0], [128, 64]])


# ---- what the pixel and coordinate parsers accept --------------------------

HUGE = "99999999999999999999999"  # wider than int64


@pytest.mark.parametrize(
    "cell,want",
    [
        ("+5 0 0 0", [5, 0, 0, 0]),
        ("07 0 0 0", [7, 0, 0, 0]),
        ("1\t2 3 4", [1, 2, 3, 4]),
        ("  1  2   3 4 ", [1, 2, 3, 4]),
        ("", "expected 4 pixels, got 0"),
        ("-1 0 0 0", "pixel outside [0, 255]"),
        ("256 0 0 0", "pixel outside [0, 255]"),
        (f"{HUGE} 0 0 0", "pixel outside [0, 255]"),
        (f"0 -{HUGE} 0 0", "pixel outside [0, 255]"),
        ("5.0 0 0 0", "non-integer pixel value"),
        ("x 0 0 0", "non-integer pixel value"),
        ("1_0 0 0 0", [10, 0, 0, 0]),
        ("\u0661 0 0 0", [1, 0, 0, 0]),  # ARABIC-INDIC DIGIT ONE
        ("- 1 0 0 0", "non-integer pixel value"),
        (" ", "expected 4 pixels, got 0"),
        ("1 2\n3 4", [1, 2, 3, 4]),  # a quoted cell spanning two lines
    ],
)
@pytest.mark.parametrize("image_only", [False, True])
def test_pixel_cells_accepted_and_rejected(tmp_path, cell, want, image_only):
    """Row 1's pixel cell, in both formats, through both loaders."""
    if image_only:
        text = f'Image\n0 0 0 0\n"{cell}"\n'
        loaders = (load_training_csv, load_image_csv)
    else:
        text = f'a_x,a_y,Image\n1,2,0 0 0 0\n3,4,"{cell}"\n'
        loaders = (load_training_csv,)
    path = _write(tmp_path, text)
    for load in loaders:
        if isinstance(want, str):
            with pytest.raises(DatasetError) as exc:
                load(path)
            assert f"row 1, column Image: {want}" in str(exc.value)
        else:
            got = load(path)
            images = got if isinstance(got, np.ndarray) else got.images
            assert images.dtype == np.uint8
            assert np.array_equal(images[1].reshape(-1), want)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty file"),
        ("Image\n", "no data rows"),
        ("Image\n0 0 0 0\n1 2,3\n", "row 1: expected 1 field"),
        ("Image\n0 0 0 0\n\n", "row 1: expected 1 field"),
        ("Image\n0 0 0\n", "row 0, column Image: 3 pixels is not a square image"),
        ('Image\n""\n', "row 0, column Image: 0 pixels is not a square image"),
        ("Image\n0 0 0 0\n0 0 0 0 0 0 0 0 0\n",
         "row 1, column Image: expected 4 pixels, got 9"),
    ],
)
@pytest.mark.parametrize("load", [load_image_csv, load_training_csv])
def test_image_only_load_errors(tmp_path, text, fragment, load):
    with pytest.raises(DatasetError) as exc:
        load(_write(tmp_path, text))
    assert fragment in str(exc.value)


@pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "NaN", "1e999", " Infinity"])
def test_non_finite_coordinates_are_rejected(tmp_path, small_ds, cell):
    with pytest.raises(DatasetError) as exc:
        load_training_csv(_write(tmp_path, f"a_x,a_y,Image\n1,2,0\n3,{cell},0\n"))
    assert "row 1, column a_y: non-finite coordinate" in str(exc.value)

    kp = _write(tmp_path, f"a_x,a_y\n1,2\n3,4\n{cell},5\n", "kp.csv")
    im = tmp_path / "im.csv"
    write_image_csv(small_ds.take(range(3)), im)
    with pytest.raises(DatasetError) as exc:
        load_split_csvs(kp, im)
    assert "row 2, column a_x: non-finite coordinate" in str(exc.value)


def test_blank_coordinate_cells_are_missing(tmp_path):
    d = load_training_csv(_write(tmp_path, "a_x,a_y,Image\n ,\t,0\n"))
    assert np.isnan(d.keypoints).all()


def _outcome(load, path):
    """A loader's arrays as (dtype, shape, bytes), or its exception's type and text."""
    try:
        got = load(path)
    except Exception as exc:  # the row reader's csv and decode errors count too
        return type(exc), str(exc)
    if isinstance(got, Dataset):
        got = (got.slot_names, got.keypoints, got.images)
    elif isinstance(got, np.ndarray):
        got = (got,)
    return [(a.dtype, a.shape, a.tobytes()) if isinstance(a, np.ndarray) else a for a in got]


def _row_reader(part=None):
    def load(path):
        got = fk_dataset._read_rows(path)
        return got if part is None else got[part]
    return load


def _cell_mutations(rng):
    """(name, edit) pairs; edit maps an Image cell's tokens to the cell's bytes."""
    def at(tok):
        def edit(tokens):
            i = int(rng.integers(len(tokens)))
            return b" ".join(tokens[:i] + [tok(tokens[i])] + tokens[i + 1:])
        return edit

    return [
        ("lone CR", lambda t: t[0] + b"\r" + b" ".join(t[1:])),
        ("quoted cell", lambda t: b'"' + b" ".join(t) + b'"'),
        ("non-ASCII digit", at(lambda tok: "١".encode())),
        ("non-ASCII byte", at(lambda tok: tok + b"\xe9")),
        ("NUL", at(lambda tok: tok + b"\0")),
        ("tab", lambda t: t[0] + b"\t" + b" ".join(t[1:])),
        ("double blank", lambda t: t[0] + b"  " + b" ".join(t[1:])),
        ("leading blank", lambda t: b" " + b" ".join(t)),
        ("trailing blank", lambda t: b" ".join(t) + b" "),
        ("plus", at(lambda tok: b"+" + tok)),
        ("minus", at(lambda tok: b"-" + tok)),
        ("minus zero", at(lambda tok: b"-0")),
        ("minus and blank", at(lambda tok: b"- " + tok)),
        ("underscore", at(lambda tok: tok + b"_0")),
        ("decimal point", at(lambda tok: tok + b".0")),
        ("three zeros appended", at(lambda tok: tok + b"000")),
        ("07", at(lambda tok: b"07")),
        ("007", at(lambda tok: b"007")),
        ("0255", at(lambda tok: b"0255")),
        ("4 digits", at(lambda tok: b"1000")),
        ("256", at(lambda tok: b"256")),
        ("20 digits", at(lambda tok: b"9" * 20)),
        ("20 digits, 1e19", at(lambda tok: b"1" + b"0" * 19)),
        ("empty cell", lambda t: b""),
        ("blank cell", lambda t: b" "),
        ("blank moved", lambda t: b"12  " + b" ".join(t[2:])),
        ("another side", lambda t: b" ".join((t * 2)[:81])),
    ]


def _line_mutations(rng, n_coord):
    """(name, edit) pairs; edit maps a data line (no line end) to new bytes."""
    def cell(edit):
        def line_edit(line):
            head, sep, image = line.rpartition(b",")
            return head + sep + edit(image.split(b" "))
        return line_edit

    edits = [(name, cell(edit)) for name, edit in _cell_mutations(rng)]
    edits += [
        ("blank line after", lambda line: line + b"\r\n"),
        ("CR before the line end", lambda line: line + b"\r"),
        ("extra field", lambda line: line + b",1"),
        ("leading field", lambda line: b"1," + line),
    ]
    if n_coord:
        def coordinate(text):
            return lambda line: text + line[line.index(b","):]
        edits += [
            ("field missing", lambda line: line[line.index(b",") + 1:]),
            ("non-numeric coordinate", coordinate(b"x")),
            ("infinite coordinate", coordinate(b"inf")),
            ("padded coordinate", coordinate(b" 2.5 ")),
            ("missing coordinate", coordinate(b"")),
            ("quoted coordinate", coordinate(b'"1.5"')),
            ("NUL coordinate", coordinate(b"1\0")),
            ("CR in a coordinate", coordinate(b"1.5\r")),
            ("non-ASCII coordinate", coordinate("١".encode())),
        ]
    return edits


def _canonical_files(tmp_path):
    """A training and an image-only file, written by the package's writers,
    each longer than two of the block reader's blocks."""
    d = build_dataset(n_rows=2 * fk_dataset._BLOCK_BYTES // 600, side=16, seed=11)
    files = {}
    for name, write in (("training", write_training_csv), ("image", write_image_csv)):
        write(d, tmp_path / name)
        row_bytes = (tmp_path / name).stat().st_size / len(d)
        write(d.take(range(int(2.2 * fk_dataset._BLOCK_BYTES / row_bytes))), tmp_path / name)
        files[name] = (tmp_path / name).read_bytes()
        assert len(files[name]) > 2 * fk_dataset._BLOCK_BYTES
    return files


def test_block_reader_matches_the_row_reader_on_every_file(tmp_path):
    """Both loaders give the row reader's arrays bit for bit, or its error,
    on canonical files and on mutations of one row inside the first block
    or after it, and of the whole file."""
    rng = np.random.default_rng(20240607)
    loaders = [
        (load_training_csv, _row_reader()),
        (load_image_csv, _row_reader(2)),
    ]
    accepted = declined = 0
    for layout, text in _canonical_files(tmp_path).items():
        lines = text.split(b"\r\n")  # header, rows, and "" after the last line end
        n_coord = lines[0].count(b",")
        late = len(lines) - 2
        assert len(b"\r\n".join(lines[:late])) > fk_dataset._BLOCK_BYTES
        variants = {
            "canonical": text,
            "LF": text.replace(b"\r\n", b"\n"),
            "no final line end": text[:-2],
            "LF, no final line end": text.replace(b"\r\n", b"\n")[:-1],
            "LF then CRLF": text[:len(text) // 2].replace(b"\r\n", b"\n") + text[len(text) // 2:],
            "BOM": b"\xef\xbb\xbf" + text,
            "quoted header": b'"' + lines[0] + b'"' + text[len(lines[0]):],
            "blank line at the end": text + b"\r\n",
            "header only": lines[0] + b"\r\n",
            "empty": b"",
        }
        for name, edit in _line_mutations(rng, n_coord):
            for row in (0, 1, late - 1):
                changed = lines[:row + 1] + [edit(lines[row + 1])] + lines[row + 2:]
                variants[f"{name} in row {row}"] = b"\r\n".join(changed)
        for row in (0, 1, late - 2):  # the same token count, split differently
            head, sep, image = lines[row + 1].rpartition(b" ")
            after = lines[row + 2].rpartition(b",")
            changed = [head, after[0] + after[1] + image + b" " + after[2]]
            variants[f"token moved from row {row}"] = b"\r\n".join(
                lines[:row + 1] + changed + lines[row + 3:])
        for name, data in variants.items():
            path = tmp_path / "mutated.csv"
            path.write_bytes(data)
            for load, oracle in loaders:
                want = _outcome(oracle, path)
                assert _outcome(load, path) == want, (layout, name, load.__name__)
            try:
                decoded = fk_dataset._read_blocks(path)
            except DatasetError:
                decoded = None
            accepted += decoded is not None
            declined += decoded is None
    # both readers did work: the checks above are not all on one path
    assert accepted >= 20 and declined >= 100


def test_a_cell_over_the_csv_field_limit_fails_as_in_the_row_reader(tmp_path, small_ds):
    path = tmp_path / "faces.csv"
    write_image_csv(small_ds, path)
    limit = csv.field_size_limit(100)
    try:
        got = _outcome(load_image_csv, path)
        assert got == _outcome(_row_reader(2), path)
    finally:
        csv.field_size_limit(limit)
    assert got == (DatasetError, "row 0: field larger than field limit (100)")


def test_an_image_over_the_csv_field_limit_is_a_dataset_error_naming_its_row(tmp_path):
    # a 200x200 image's Image cell is over csv's default limit of 131072 characters
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(2, 200, 200), dtype=np.uint8)
    keypoints = rng.uniform(0.0, 200.0, size=(2, 2 * len(SLOT_NAMES)))
    path = tmp_path / "large.csv"
    write_training_csv(Dataset(images, keypoints, SLOT_NAMES), path)
    with pytest.raises(DatasetError, match=r"^row 0: field larger than field limit"):
        load_training_csv(path)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_named_pipe_is_opened_once(tmp_path):
    """A pipe cannot be read twice: the row reader alone reads it."""
    pipe = tmp_path / "pipe.csv"
    os.mkfifo(pipe)
    got = []
    reader = threading.Thread(target=lambda: got.append(_outcome(load_image_csv, pipe)),
                              daemon=True)
    reader.start()
    try:
        pipe.write_bytes(b"Image\n+1 2 3 4\n")  # waits for the reader to open the pipe
    finally:
        reader.join(timeout=10)
        if reader.is_alive():  # it waits on a second open: give it an empty pipe
            open(pipe, "wb").close()
            reader.join(timeout=10)
    assert not reader.is_alive()
    assert got == [[(np.dtype(np.uint8), (1, 2, 2), bytes([1, 2, 3, 4]))]]


def test_loading_written_files_never_needs_the_exact_parser(tmp_path, monkeypatch):
    calls = []
    exact = fk_dataset._parse_pixels_exact
    monkeypatch.setattr(fk_dataset, "_parse_pixels_exact",
                        lambda *args: calls.append(args) or exact(*args))
    d = build_dataset(n_rows=3 * fk_dataset._BLOCK_BYTES // 800, side=16, seed=2)
    at_edges = build_dataset(n_rows=fk_dataset._block_rows(16 * 16, 0) + 1, side=16, seed=3)
    for write, load, coordinates in ((write_training_csv, load_training_csv, 30),
                                     (write_image_csv, load_image_csv, 0)):
        per_block = fk_dataset._block_rows(16 * 16, coordinates)
        path = tmp_path / "round.csv"
        write(d, path)
        assert path.stat().st_size > 2 * fk_dataset._BLOCK_BYTES
        back = load(path)
        assert np.array_equal(getattr(back, "images", back), d.images)
        for n in (per_block - 1, per_block, per_block + 1):  # around a write block's end
            write(at_edges.take(range(n)), path)
            back = load(path)
            assert np.array_equal(getattr(back, "images", back), at_edges.images[:n])
    assert calls == []
    # the counter does see a cell that needs the exact parser
    load_training_csv(_write(tmp_path, "Image\n+1 2 3 4\n"))
    assert len(calls) == 1


def test_loading_peaks_below_three_and_a_half_image_blocks(tmp_path):
    """No whole-file read and no final copy of the image block."""
    path = tmp_path / "big.csv"
    write_training_csv(build_dataset(n_rows=1000, side=48, seed=5), path)
    tracemalloc.start()
    try:
        d = load_training_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d.images.shape == (1000, 48, 48)
    assert peak < 3.5 * d.images.nbytes


def test_pixel_text_covers_every_value(tmp_path):
    every = np.arange(256, dtype=np.uint8)
    d = Dataset(images=every.reshape(1, 16, 16), keypoints=np.zeros((1, 0)), slot_names=())
    path = tmp_path / "every.csv"
    write_image_csv(d, path)
    assert path.read_bytes() == b"Image\r\n" + " ".join(map(str, range(256))).encode() + b"\r\n"
    back = load_image_csv(path)
    assert back.dtype == np.uint8 and np.array_equal(back, d.images)


def test_dataset_rejects_infinite_keypoints(tmp_path):
    images = np.zeros((2, 2, 2), dtype=np.uint8)
    for bad in (np.inf, -np.inf):
        with pytest.raises(DatasetError, match="inf"):
            Dataset(images=images, keypoints=np.array([[1.0, bad], [3.0, 4.0]]),
                    slot_names=("a",))
    # NaN still marks a missing cell, and such a Dataset reads back as written
    d = Dataset(images=images, keypoints=np.array([[1.0, np.nan], [3.0, 4.0]]),
                slot_names=("a",))
    path = tmp_path / "nan.csv"
    write_training_csv(d, path)
    assert np.array_equal(load_training_csv(path).keypoints, d.keypoints, equal_nan=True)


def test_writers_output_is_pinned(tmp_path):
    d = load_training_csv(_write(tmp_path, LITERAL_CSV))
    want = {
        write_training_csv: LITERAL_CSV,
        write_keypoint_csv: "".join(
            line.rsplit(",", 1)[0] + "\n" for line in LITERAL_CSV.splitlines()
        ),
        write_image_csv: "Image\n0 10 20 30\n255 0 128 64\n",
    }
    for write, text in want.items():
        out = tmp_path / "out.csv"
        write(d, out)
        assert out.read_bytes() == text.replace("\n", "\r\n").encode()


def _random_dataset(n, h, w, slot_names=SLOT_NAMES, seed=0):
    rng = np.random.default_rng(seed)
    keypoints = rng.uniform(-10.0, 110.0, size=(n, 2 * len(slot_names)))
    keypoints[rng.random(keypoints.shape) < 0.2] = np.nan
    return Dataset(images=rng.integers(0, 256, size=(n, h, w), dtype=np.uint8),
                   keypoints=keypoints, slot_names=tuple(slot_names))


#: Each writer, its csv-module oracle, and whether it writes coordinates and pixels.
WRITERS = {
    "training": (write_training_csv, csv_training_rows, True, True),
    "keypoint": (write_keypoint_csv, csv_keypoint_rows, True, False),
    "image": (write_image_csv, csv_image_rows, False, True),
}


def _at_block_edge(layout, extra, side=48):
    """A Dataset of one write block's rows plus ``extra``, for that writer."""
    _, _, coordinates, pixels = WRITERS[layout]
    rows = fk_dataset._block_rows(side * side if pixels else 0,
                                  2 * len(SLOT_NAMES) if coordinates else 0)
    return _random_dataset(rows + extra, side, side)


WRITER_CASES = {
    "every value": lambda layout: Dataset(
        images=(np.arange(3 * 256) % 256).astype(np.uint8).reshape(3, 16, 16),
        keypoints=np.full((3, 4), 8.0), slot_names=("a", "b")),
    "3x5 images": lambda layout: _random_dataset(7, 3, 5, seed=1),
    "1x1 images": lambda layout: _random_dataset(9, 1, 1, seed=2),
    "special coordinates": lambda layout: Dataset(
        images=np.zeros((2, 2, 2), dtype=np.uint8),
        keypoints=np.array([[np.nan, -0.0, 1e-300, 1e300], [5e-324, -1e300, 1 / 3, np.nan]]),
        slot_names=("a", "b")),
    "zero slots": lambda layout: _random_dataset(4, 3, 3, slot_names=(), seed=3),
    "zero-pixel images": lambda layout: _random_dataset(4, 0, 0, SLOT_NAMES[:2], seed=4),
    "zero-pixel images, zero slots": lambda layout: _random_dataset(3, 2, 0, (), seed=5),
    "quoted header names": lambda layout: _random_dataset(
        3, 2, 2, ('a"b', "c,d", "e f", "g\nh"), seed=6),
    "zero rows": lambda layout: _random_dataset(0, 4, 4, seed=7),
    "a block less one row": lambda layout: _at_block_edge(layout, -1),
    "one block": lambda layout: _at_block_edge(layout, 0),
    "a block and one row": lambda layout: _at_block_edge(layout, 1),
    "96x96": lambda layout: _random_dataset(10, 96, 96, seed=8),
}


@pytest.mark.parametrize("case", WRITER_CASES)
@pytest.mark.parametrize("layout", WRITERS)
def test_block_writers_match_the_csv_module_byte_for_byte(tmp_path, layout, case):
    write, oracle, _, _ = WRITERS[layout]
    d = WRITER_CASES[case](layout)
    write(d, tmp_path / "blocks.csv")
    oracle(d, tmp_path / "rows.csv")
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_a_kaggle_size_file_has_the_csv_modules_bytes_and_round_trips(tmp_path):
    # 300 rows of 96x96 images, against a row writer that formats coordinates by repr
    faces = kaggle_size_dataset()
    write_training_csv(faces, tmp_path / "faces96.csv")
    with open(tmp_path / "rows96.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"{s}_{a}" for s in SLOT_NAMES for a in "xy"] + ["Image"])
        for kp, px in zip(faces.keypoints.tolist(), faces.images.reshape(300, -1).tolist()):
            writer.writerow(["" if v != v else repr(v) for v in kp] + [" ".join(map(str, px))])
    assert (tmp_path / "faces96.csv").read_bytes() == (tmp_path / "rows96.csv").read_bytes()
    back = load_training_csv(tmp_path / "faces96.csv")
    assert np.array_equal(back.images, faces.images)
    assert np.array_equal(back.keypoints, faces.keypoints, equal_nan=True)


def test_a_zero_row_dataset_writes_the_header_alone(tmp_path):
    d = _random_dataset(0, 96, 96, slot_names=("a", "b"))
    want = {
        write_training_csv: b"a_x,a_y,b_x,b_y,Image\r\n",
        write_keypoint_csv: b"a_x,a_y,b_x,b_y\r\n",
        write_image_csv: b"Image\r\n",
    }
    for write, text in want.items():
        write(d, tmp_path / "empty.csv")
        assert (tmp_path / "empty.csv").read_bytes() == text, write.__name__


def _write_peak(write, d, path) -> int:
    tracemalloc.start()
    try:
        write(d, path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writers_stream_a_block_at_a_time(tmp_path):
    """The writers' peaks do not grow with the row count: no whole-file text."""
    path = tmp_path / "stream.csv"
    faces = build_dataset(n_rows=1000, side=48, seed=5)
    peak = _write_peak(write_training_csv, faces, path)
    assert peak <= 1.25 * _write_peak(write_training_csv, faces.take(range(100)), path)
    assert peak < faces.images.nbytes
    # coordinates count against the block too: rows of tiny images or none
    points = _random_dataset(20000, 1, 1)
    for write in (write_training_csv, write_keypoint_csv):
        peak = _write_peak(write, points, path)
        assert peak <= 1.25 * _write_peak(write, points.take(range(2000)), path), write.__name__
        assert peak < 2 << 20


# ---- imputation ------------------------------------------------------------


def _tiny(coords):
    coords = np.asarray(coords, dtype=np.float64)
    n = coords.shape[0]
    images = np.zeros((n, 2, 2), dtype=np.uint8)
    return Dataset(images=images, keypoints=coords, slot_names=("nose_tip",))


def test_column_means_hand_values():
    d = _tiny([[1.0, 10.0], [np.nan, 20.0], [3.0, np.nan]])
    means = column_means(d)
    assert means[0] == pytest.approx(2.0)
    assert means[1] == pytest.approx(15.0)


def test_impute_fills_with_column_mean():
    d = _tiny([[1.0, 10.0], [np.nan, 20.0], [3.0, np.nan]])
    filled = impute_column_means(d)
    assert filled.keypoints[1, 0] == pytest.approx(2.0)
    assert filled.keypoints[2, 1] == pytest.approx(15.0)
    # present values untouched
    assert filled.keypoints[0, 0] == 1.0 and filled.keypoints[1, 1] == 20.0
    # source dataset is unchanged
    assert math.isnan(d.keypoints[1, 0])


def test_impute_is_idempotent():
    d = _tiny([[1.0, 10.0], [np.nan, 20.0], [3.0, np.nan]])
    once = impute_column_means(d)
    twice = impute_column_means(once)
    assert np.array_equal(once.keypoints, twice.keypoints)


def test_impute_with_external_means():
    d = _tiny([[np.nan, np.nan]])
    filled = impute_column_means(d, means=np.array([7.0, 9.0]))
    assert list(filled.keypoints[0]) == [7.0, 9.0]


def test_impute_means_shape_checked():
    d = _tiny([[1.0, 2.0]])
    with pytest.raises(DatasetError, match="2 entries"):
        impute_column_means(d, means=np.array([1.0, 2.0, 3.0]))


def test_all_missing_column_is_an_error():
    d = _tiny([[np.nan, 1.0], [np.nan, 2.0]])
    with pytest.raises(DatasetError, match="nose_tip_x"):
        column_means(d)


# ---- coverage split --------------------------------------------------------


def test_coverage_split_slots_and_rows():
    d = build_dataset(n_rows=30, sparse_missing_rows=12, core_missing_cells=2)
    dense, sparse = split_by_keypoint_coverage(d)
    assert dense.slot_names == tuple(SLOT_NAMES[j] for j in CORE_SLOTS)
    assert set(dense.slot_names) | set(sparse.slot_names) == set(SLOT_NAMES)
    assert set(dense.slot_names).isdisjoint(sparse.slot_names)
    # dense task keeps every row; sparse keeps only fully covered rows
    assert len(dense) == 30
    assert len(sparse) == 30 - 12
    pairs = sparse.keypoints.reshape(len(sparse), sparse.n_slots, 2)
    assert np.isfinite(pairs).all()


def test_coverage_split_preserves_row_order():
    d = build_dataset(n_rows=20, seed=3)
    dense, sparse = split_by_keypoint_coverage(d)
    assert np.array_equal(dense.images, d.images)
    # sparse rows appear in original order: match them back by image content
    flat = d.images.reshape(len(d), -1)
    positions = [
        int(np.nonzero((flat == row).all(axis=1))[0][0])
        for row in sparse.images.reshape(len(sparse), -1)
    ]
    assert positions == sorted(positions)


def test_coverage_split_ties_break_by_column_order():
    d = build_dataset(n_rows=10, sparse_missing_rows=0, core_missing_cells=0)
    dense, sparse = split_by_keypoint_coverage(d)
    # nothing missing anywhere: the first four columns win
    assert dense.slot_names == SLOT_NAMES[:4]
    assert len(sparse) == 10


def test_coverage_split_shares_the_image_block():
    d = build_dataset(n_rows=200, side=32, sparse_missing_rows=120)
    tracemalloc.start()
    try:
        dense, sparse = split_by_keypoint_coverage(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dense.images is d.images
    assert len(sparse) == 80
    # C order: column means sum in the same order as on a copied block
    assert dense.keypoints.flags.c_contiguous and sparse.keypoints.flags.c_contiguous
    # the sparse rows (40% of the block) are copied once; nothing else is
    assert peak < d.images.nbytes


def test_coverage_split_needs_five_slots():
    coords = np.zeros((3, 4))
    d = Dataset(
        images=np.zeros((3, 2, 2), dtype=np.uint8),
        keypoints=coords,
        slot_names=("a", "b"),
    )
    with pytest.raises(DatasetError, match="5"):
        split_by_keypoint_coverage(d)


# ---- holdout ---------------------------------------------------------------


def _rows_of(d: Dataset) -> list[bytes]:
    return [d.images[i].tobytes() for i in range(len(d))]


def test_holdout_sizes_and_partition():
    d = build_dataset(n_rows=10, sparse_missing_rows=0, core_missing_cells=0)
    train, test = holdout_split(d, 0.9, seed=1)
    assert len(train) == 9 and len(test) == 1
    all_rows = _rows_of(d)
    assert sorted(_rows_of(train) + _rows_of(test)) == sorted(all_rows)
    assert set(_rows_of(train)).isdisjoint(_rows_of(test))


def test_holdout_keeps_original_order():
    d = build_dataset(n_rows=25, sparse_missing_rows=0, core_missing_cells=0, seed=4)
    train, _ = holdout_split(d, 0.8, seed=2)
    original = _rows_of(d)
    positions = [original.index(r) for r in _rows_of(train)]
    assert positions == sorted(positions)


def test_holdout_floor_arithmetic_at_reference_sizes():
    for n, want_train, want_test in [(7049, 6344, 705), (2284, 2055, 229)]:
        d = Dataset(
            images=np.zeros((n, 1, 1), dtype=np.uint8),
            keypoints=np.zeros((n, 2)),
            slot_names=("nose_tip",),
        )
        train, test = holdout_split(d, 0.9, seed=0)
        assert (len(train), len(test)) == (want_train, want_test)


def test_holdout_deterministic_per_seed():
    d = build_dataset(n_rows=40, seed=8)
    a1, b1 = holdout_split(d, 0.75, seed=5)
    a2, b2 = holdout_split(d, 0.75, seed=5)
    assert np.array_equal(a1.images, a2.images)
    assert np.array_equal(b1.keypoints, b2.keypoints, equal_nan=True)
    a3, _ = holdout_split(d, 0.75, seed=6)
    assert not np.array_equal(a1.images, a3.images)


# unchecked, "0.5" and None ended in a TypeError
@pytest.mark.parametrize("fraction", [0.0, 1.0, -0.2, 1.5, math.nan, "0.5", None])
def test_holdout_rejects_bad_fraction(fraction, small_ds):
    with pytest.raises(DatasetError) as exc:
        holdout_split(small_ds, fraction, seed=0)
    assert str(exc.value) == f"train_fraction must be a finite number in (0, 1), got {fraction!r}"


def test_holdout_rejects_empty_side():
    d = build_dataset(n_rows=3, sparse_missing_rows=0, core_missing_cells=0)
    with pytest.raises(DatasetError, match="empty side"):
        holdout_split(d, 0.05, seed=0)
