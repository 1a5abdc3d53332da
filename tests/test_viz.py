"""Raster writers, the test readers that check them, and the rendering helpers."""

import numpy as np
import pytest

from facekeys.dataset import Dataset
from facekeys.lbp import lbp_basic
from facekeys.viz import (
    BLUE,
    RED,
    VizError,
    marker_color,
    render_keypoints,
    render_lbp,
    scatter_keypoint_distribution,
    write_pgm,
    write_ppm,
)
from readers import read_pgm, read_ppm

GRAY = np.uint8(100)


def test_pgm_bytes_are_exact(tmp_path):
    arr = np.arange(6, dtype=np.uint8).reshape(2, 3)
    path = tmp_path / "a.pgm"
    write_pgm(path, arr)
    assert path.read_bytes() == b"P5\n3 2\n255\n" + arr.tobytes()


def test_ppm_bytes_are_exact(tmp_path):
    arr = np.arange(12, dtype=np.uint8).reshape(2, 2, 3)
    path = tmp_path / "a.ppm"
    write_ppm(path, arr)
    assert path.read_bytes() == b"P6\n2 2\n255\n" + arr.tobytes()


def test_identical_inputs_identical_bytes(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.integers(0, 256, size=(9, 7), dtype=np.uint8)
    write_pgm(tmp_path / "one.pgm", arr)
    write_pgm(tmp_path / "two.pgm", arr)
    assert (tmp_path / "one.pgm").read_bytes() == (tmp_path / "two.pgm").read_bytes()


def test_pgm_round_trip_non_square(tmp_path):
    rng = np.random.default_rng(1)
    arr = rng.integers(0, 256, size=(3, 5), dtype=np.uint8)
    path = tmp_path / "r.pgm"
    write_pgm(path, arr)
    back = read_pgm(path)
    assert back.dtype == np.uint8
    assert np.array_equal(back, arr)


def test_ppm_round_trip_non_square(tmp_path):
    rng = np.random.default_rng(2)
    arr = rng.integers(0, 256, size=(4, 2, 3), dtype=np.uint8)
    path = tmp_path / "r.ppm"
    write_ppm(path, arr)
    assert np.array_equal(read_ppm(path), arr)


@pytest.mark.parametrize(
    "writer,bad",
    [
        (write_pgm, np.zeros((2, 2), dtype=np.float64)),
        (write_pgm, np.zeros((2, 2, 3), dtype=np.uint8)),
        (write_ppm, np.zeros((2, 2), dtype=np.uint8)),
        (write_ppm, np.zeros((2, 2, 3), dtype=np.float64)),
        (write_ppm, np.zeros((2, 2, 4), dtype=np.uint8)),
    ],
)
def test_writers_reject_bad_arrays(tmp_path, writer, bad):
    with pytest.raises(VizError):
        writer(tmp_path / "bad.out", bad)


def test_reader_rejects_wrong_magic(tmp_path):
    gray = np.zeros((2, 2), dtype=np.uint8)
    rgb = np.zeros((2, 2, 3), dtype=np.uint8)
    write_pgm(tmp_path / "g.pgm", gray)
    write_ppm(tmp_path / "c.ppm", rgb)
    with pytest.raises(VizError, match="P6"):
        read_ppm(tmp_path / "g.pgm")
    with pytest.raises(VizError, match="P5"):
        read_pgm(tmp_path / "c.ppm")


def test_reader_rejects_truncated_body(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n2 2\n255\n\x00\x01\x02")
    with pytest.raises(VizError, match="pixel bytes"):
        read_pgm(path)


def test_reader_rejects_trailing_garbage(tmp_path):
    path = tmp_path / "long.pgm"
    path.write_bytes(b"P5\n1 1\n255\n\x00extra")
    with pytest.raises(VizError, match="pixel bytes"):
        read_pgm(path)


def test_reader_rejects_malformed_header(tmp_path):
    path = tmp_path / "junk.pgm"
    path.write_bytes(b"P5 x y\n\x00")
    with pytest.raises(VizError, match="header"):
        read_pgm(path)


def test_reader_rejects_other_maxval(tmp_path):
    path = tmp_path / "deep.pgm"
    path.write_bytes(b"P5\n1 1\n65535\n\x00")
    with pytest.raises(VizError, match="maxval"):
        read_pgm(path)


@pytest.mark.parametrize(
    "name,color",
    [
        ("left_eye_center", RED),
        ("right_eye_outer_corner", RED),
        ("left_eyebrow_inner_end", RED),
        ("nose_tip", BLUE),
        ("mouth_center_bottom_lip", BLUE),
    ],
)
def test_marker_color_by_region(name, color):
    assert marker_color(name) == color


def _overlay(tmp_path, names, coords, shape=(12, 10)):
    pixels = np.full(shape, GRAY, dtype=np.uint8)
    path = tmp_path / "overlay.ppm"
    render_keypoints(pixels, names, np.asarray(coords, dtype=np.float64), path)
    return read_ppm(path)


def test_render_keypoints_markers_and_background(tmp_path):
    names = ("left_eye_center", "nose_tip", "mouth_left_corner")
    coords = [[5.0, 3.0], [0.0, 0.0], [np.nan, np.nan]]
    canvas = _overlay(tmp_path, names, coords)
    assert canvas.shape == (12, 10, 3)
    # 3x3 red marker centered at column 5, row 3
    assert (canvas[2:5, 4:7] == RED).all()
    # border marker is clipped to the 2x2 block that fits
    assert (canvas[0:2, 0:2] == BLUE).all()
    # the missing slot adds nothing; every other pixel keeps the input gray
    colored = (canvas != GRAY).any(axis=2)
    assert colored.sum() == 9 + 4
    assert (canvas[~colored] == GRAY).all()


def test_render_keypoints_rounds_to_nearest_pixel(tmp_path):
    canvas = _overlay(tmp_path, ("nose_tip",), [[5.6, 3.4]])
    assert (canvas[2:5, 5:8] == BLUE).all()
    assert (canvas[3, 4] == GRAY).all()


def test_render_keypoints_all_missing_leaves_image_unchanged(tmp_path):
    canvas = _overlay(tmp_path, ("nose_tip",), [[np.nan, np.nan]])
    assert (canvas == GRAY).all()


@pytest.mark.parametrize("pixels", [np.zeros((4, 4)), np.zeros((2, 4, 4), dtype=np.uint8)],
                         ids=["float", "block"])
def test_render_keypoints_takes_one_uint8_image(tmp_path, pixels):
    with pytest.raises(VizError, match="uint8"):
        render_keypoints(pixels, ("nose_tip",), np.array([[1.0, 1.0]]), tmp_path / "x.ppm")


def _scatter_dataset(keypoints, shape=(96, 96)):
    coords = np.asarray(keypoints, dtype=np.float64)
    images = np.zeros((coords.shape[0], *shape), dtype=np.uint8)
    return Dataset(images=images, keypoints=coords,
                   slot_names=("left_eye_center", "nose_tip"))


def test_scatter_marks_each_present_coordinate(tmp_path):
    d = _scatter_dataset([
        [10.2, 20.7, 1.0, 1.0],   # rounds to pixel (21, 10)
        [10.4, 20.6, 1.0, 1.0],   # same pixel after rounding
        [np.nan, np.nan, 1.0, 1.0],
        [95.6, 3.0, 1.0, 1.0],    # x rounds to 96, off canvas
        [0.0, 95.4, 1.0, 1.0],    # pixel (95, 0)
    ])
    path = tmp_path / "scatter.ppm"
    scatter_keypoint_distribution(d, "left_eye_center", path)
    canvas = read_ppm(path)
    assert canvas.shape == (96, 96, 3)
    black = np.argwhere((canvas == 0).all(axis=2))
    assert {tuple(rc) for rc in black} == {(21, 10), (95, 0)}
    white = (canvas == 255).all(axis=2)
    assert white.sum() == 96 * 96 - 2


def test_scatter_all_missing_slot_is_blank(tmp_path):
    d = _scatter_dataset([
        [1.0, 1.0, np.nan, np.nan],
        [2.0, 2.0, np.nan, np.nan],
    ], shape=(16, 16))
    path = tmp_path / "blank.ppm"
    scatter_keypoint_distribution(d, "nose_tip", path)
    canvas = read_ppm(path)
    assert canvas.shape == (16, 16, 3)
    assert (canvas == 255).all()


def test_scatter_canvas_is_the_image_size(tmp_path):
    d = _scatter_dataset([
        [20.0, 5.0, 1.0, 1.0],    # pixel (5, 20), inside the 24-wide canvas
        [5.0, 20.0, 1.0, 1.0],    # row 20 lies below the 16-row canvas
    ], shape=(16, 24))
    path = tmp_path / "wide.ppm"
    scatter_keypoint_distribution(d, "left_eye_center", path)
    canvas = read_ppm(path)
    assert canvas.shape == (16, 24, 3)
    black = np.argwhere((canvas == 0).all(axis=2))
    assert {tuple(rc) for rc in black} == {(5, 20)}


def test_scatter_rejects_unknown_slot(tmp_path):
    d = _scatter_dataset([[1.0, 1.0, 2.0, 2.0]])
    with pytest.raises(VizError) as exc:
        scatter_keypoint_distribution(d, "chin", tmp_path / "x.ppm")
    assert str(exc.value) == "unknown slot 'chin'; expected one of ('left_eye_center', 'nose_tip')"


def test_render_lbp_byte_codes_written_directly(tmp_path):
    codes = np.array([[0, 255], [241, 7]], dtype=np.int64)
    path = tmp_path / "codes.pgm"
    render_lbp(codes, 8, path)
    assert np.array_equal(read_pgm(path), codes.astype(np.uint8))


def test_render_lbp_of_real_code_map(tmp_path):
    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, size=(8, 8), dtype=np.uint8)
    codes = lbp_basic(img)
    path = tmp_path / "map.pgm"
    render_lbp(codes, 8, path)
    assert np.array_equal(read_pgm(path), codes.astype(np.uint8))


def test_render_lbp_wide_codes_are_min_max_scaled(tmp_path):
    codes = np.array([[0, 100], [200, 4000]], dtype=np.int64)
    path = tmp_path / "wide.pgm"
    render_lbp(codes, 12, path)
    expected = np.rint(codes * 255.0 / 4000.0).astype(np.uint8)
    back = read_pgm(path)
    assert np.array_equal(back, expected)
    assert back.min() == 0 and back.max() == 255


def test_render_lbp_constant_wide_codes_become_zeros(tmp_path):
    codes = np.full((3, 3), 77, dtype=np.int64)
    path = tmp_path / "flat.pgm"
    render_lbp(codes, 12, path)
    assert (read_pgm(path) == 0).all()
