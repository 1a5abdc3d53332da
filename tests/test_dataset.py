import math

import numpy as np
import pytest

from conftest import CORE_SLOTS, build_dataset
import facekeys.dataset as fk_dataset
from facekeys.dataset import (
    SLOT_NAMES,
    Dataset,
    DatasetError,
    FeatureMatrix,
    GrayImage,
    column_means,
    holdout_split,
    impute_column_means,
    load_image_csv,
    load_training_csv,
    split_by_keypoint_coverage,
    to_matrices,
    write_image_csv,
    write_keypoint_csv,
    write_training_csv,
)
from readers import load_split_csvs

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
    img = d.image(1)
    assert isinstance(img, GrayImage)
    assert img.pixels.shape == (2, 2)
    assert img.pixels.ravel().tolist() == [255, 0, 128, 64]
    kp = d.keypoint_set(0)
    assert kp.get("left_eye_center") == (1.5, 2.0)
    assert kp.get("nose_tip") is None
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


def _mutations(rng, tokens):
    """Non-canonical or out-of-range variants of a canonical token list."""
    i = int(rng.integers(len(tokens)))

    def at(tok):
        return " ".join(tokens[:i] + [tok] + tokens[i + 1:])

    joined = " ".join(tokens)
    return [
        joined,
        " ".join(tokens[:i]) + "\t" + " ".join(tokens[i:]),
        at("+" + tokens[i]),
        at("-" + tokens[i]),
        at("- " + tokens[i]),
        at(tokens[i] + " "),
        " " + joined,
        joined + " ",
        at(tokens[i] + "_0"),
        at(tokens[i] + ".0"),
        at(tokens[i] + "000"),
        at("9" * 20),
        at("1" + "0" * 19),
        "",
        " ",
    ]


def test_fast_pixel_path_matches_the_exact_parser():
    rng = np.random.default_rng(20240607)
    for _ in range(40):
        n = int(rng.integers(1, 30))
        tokens = [str(v) for v in rng.integers(0, 256, size=n)]
        for cell in _mutations(rng, tokens):
            try:
                want = fk_dataset._parse_pixels_exact(cell, 3)
            except DatasetError as exc:
                with pytest.raises(DatasetError) as got:
                    fk_dataset._parse_pixels(cell, 3)
                assert str(got.value) == str(exc)
            else:
                got = fk_dataset._parse_pixels(cell, 3)
                assert got.dtype == want.dtype and np.array_equal(got, want)


def test_loading_written_files_never_needs_the_exact_parser(tmp_path, monkeypatch, small_ds):
    calls = []
    exact = fk_dataset._parse_pixels_exact
    monkeypatch.setattr(fk_dataset, "_parse_pixels_exact",
                        lambda *args: calls.append(args) or exact(*args))
    path = tmp_path / "round.csv"
    write_training_csv(small_ds, path)
    back = load_training_csv(path)
    assert np.array_equal(back.images, small_ds.images)
    assert calls == []
    # the counter does see a cell that needs the exact parser
    load_training_csv(_write(tmp_path, "Image\n+1 2 3 4\n"))
    assert len(calls) == 1


def test_pixel_text_covers_every_value(tmp_path):
    every = np.arange(256, dtype=np.uint8)
    assert fk_dataset._format_image(every) == " ".join(str(i) for i in range(256))
    d = Dataset(images=every.reshape(1, 16, 16), keypoints=np.zeros((1, 0)), slot_names=())
    path = tmp_path / "every.csv"
    write_image_csv(d, path)
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


@pytest.mark.parametrize("fraction", [0.0, 1.0, -0.2, 1.5])
def test_holdout_rejects_bad_fraction(fraction, small_ds):
    with pytest.raises(DatasetError):
        holdout_split(small_ds, fraction, seed=0)


def test_holdout_rejects_empty_side():
    d = build_dataset(n_rows=3, sparse_missing_rows=0, core_missing_cells=0)
    with pytest.raises(DatasetError, match="empty side"):
        holdout_split(d, 0.05, seed=0)


# ---- matrix conversion -----------------------------------------------------


def test_to_matrices_shapes_and_scaling(small_ds):
    filled = impute_column_means(small_ds)
    X, Y = to_matrices(filled)
    assert isinstance(X, FeatureMatrix) and X.source == "raw"
    assert X.shape == (30, 16 * 16)
    assert Y.shape == (30, 30)
    assert float(np.max(X.values)) <= 1.0
    X_raw, _ = to_matrices(filled, scale_pixels=False)
    assert np.allclose(X_raw.values / 255.0, X.values)
    assert np.asarray(X).shape == X.shape


def test_to_matrices_rejects_missing(small_ds):
    with pytest.raises(DatasetError, match="impute"):
        to_matrices(small_ds)


def test_feature_matrix_source_validated():
    with pytest.raises(DatasetError, match="source"):
        FeatureMatrix(np.zeros((2, 2)), "bogus")
