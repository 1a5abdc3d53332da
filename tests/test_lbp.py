import numpy as np
import pytest

from facekeys import lbp as lbp_mod
from facekeys.lbp import (
    LbpConfig,
    LbpError,
    circle_offsets,
    lbp_basic,
    lbp_circular,
    lbp_histogram_features,
)

# clockwise from the top-left corner, the order the codes are built in
OFFSETS = ((-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1))


def oracle_basic(img: np.ndarray) -> np.ndarray:
    """Scalar reference: explicit loops, edges clamped."""
    a = np.asarray(img, dtype=np.float64)
    h, w = a.shape
    out = np.zeros((h, w), dtype=np.int64)
    for r in range(h):
        for c in range(w):
            code = 0
            for p, (dr, dc) in enumerate(OFFSETS):
                rr = min(max(r + dr, 0), h - 1)
                cc = min(max(c + dc, 0), w - 1)
                if a[rr, cc] >= a[r, c]:
                    code += 2**p
            out[r, c] = code
    return out


def oracle_min_rotation(code: int, bits: int = 8) -> int:
    s = format(code, f"0{bits}b")
    return min(int(s[k:] + s[:k], 2) for k in range(bits))


def center_code(window) -> int:
    """Basic code of the center pixel of one 3x3 window."""
    return int(lbp_basic(np.asarray(window))[1, 1])


def min_rotation_code(code: int, neighbors: int) -> int:
    """Rotation-invariant form of code, as lbp_circular computes it: the
    center of a 3x3 window whose radius-1 bilinear samples set exactly the
    bits of code. Against a center of 0, a bit's pixel is +1 or -1, and a
    corner's is +-10, so it outweighs the axis pixels its sample also reads."""
    window = np.zeros((3, 3))
    for p, (dr, dc) in enumerate(circle_offsets(neighbors, 1.0)):
        r, c = int(np.rint(dr)), int(np.rint(dc))
        window[1 + r, 1 + c] = (1.0 if code >> p & 1 else -1.0) * (10.0 if r and c else 1.0)
    cfg = LbpConfig(neighbors=neighbors, radius=1.0, rotation_invariant=True)
    return int(lbp_circular(window, cfg)[1, 1])


# ---- per-image references: the kernels the batched lbp_circular replaced ----


def reference_basic(img) -> np.ndarray:
    """8-neighbor map of one image: one shifted slice of the padded image per bit."""
    a = np.asarray(img, dtype=np.float64)
    h, w = a.shape
    padded = np.pad(a, 1, mode="edge")
    codes = np.zeros((h, w), dtype=np.int64)
    for p, (dr, dc) in enumerate(OFFSETS):
        neighbor = padded[1 + dr : 1 + dr + h, 1 + dc : 1 + dc + w]
        codes |= (neighbor >= a).astype(np.int64) << p
    return codes


def reference_sample_plane(a: np.ndarray, dr: float, dc: float, nearest: bool) -> np.ndarray:
    """Sample one float image at (row+dr, col+dc) per pixel, edges clamped."""
    h, w = a.shape
    if nearest:
        dr, dc = float(np.rint(dr)), float(np.rint(dc))
    if dr == int(dr) and dc == int(dc):
        r = np.clip(np.arange(h) + int(dr), 0, h - 1)
        c = np.clip(np.arange(w) + int(dc), 0, w - 1)
        return a[np.ix_(r, c)]

    def axis(n, delta):
        pos = np.arange(n, dtype=np.float64) + delta
        base = np.floor(pos)
        i0 = np.clip(base.astype(np.int64), 0, n - 1)
        i1 = np.clip(base.astype(np.int64) + 1, 0, n - 1)
        return i0, i1, pos - base

    r0, r1, fr = axis(h, dr)
    c0, c1, fc = axis(w, dc)
    g00, g01 = a[r0][:, c0], a[r0][:, c1]
    g10, g11 = a[r1][:, c0], a[r1][:, c1]
    top = g00 + (g01 - g00) * fc
    bottom = g10 + (g11 - g10) * fc
    return top + (bottom - top) * fr[:, None]


def reference_circular(img, cfg: LbpConfig, nearest: bool | None = None) -> np.ndarray:
    """Circular map of one image, sampled in float64, int64 codes throughout.
    nearest defaults to the sampling rule: only P=8, R=1 without rotation
    invariance samples the nearest pixels, every other geometry bilinearly."""
    if nearest is None:
        nearest = (cfg.neighbors, cfg.radius, cfg.rotation_invariant) == (8, 1.0, False)
    a = np.asarray(img, dtype=np.float64)
    codes = np.zeros(a.shape, dtype=np.int64)
    for p, (dr, dc) in enumerate(circle_offsets(cfg.neighbors, cfg.radius)):
        sampled = reference_sample_plane(a, dr, dc, nearest)
        codes |= (sampled >= a).astype(np.int64) << p
    if cfg.rotation_invariant:
        mask = (1 << cfg.neighbors) - 1
        best = codes.copy()
        for s in range(1, cfg.neighbors):
            rot = ((codes >> s) | (codes << (cfg.neighbors - s))) & mask
            np.minimum(best, rot, out=best)
        codes = best
    return codes


# ---- single-window code ----------------------------------------------------


def test_worked_window_codes_to_241():
    # neighbors clockwise: 5,4,0,1,9,7,6,8 vs center 5 -> bits 1,0,0,0,1,1,1,1
    assert center_code([[5, 4, 0], [8, 5, 1], [6, 7, 9]]) == 241


def test_tie_counts_as_one():
    assert center_code(np.full((3, 3), 7)) == 255
    window = np.zeros((3, 3))
    window[1, 1] = 5.0
    window[0, 0] = 5.0  # single neighbor equal to the center
    assert center_code(window) == 1


def test_window_shape_checked():
    with pytest.raises(LbpError, match="3x3"):
        lbp_basic(np.zeros((2, 3)))


# ---- whole-image basic map ---------------------------------------------------


def test_basic_matches_scalar_oracle():
    rng = np.random.default_rng(0)
    for _ in range(5):
        img = rng.integers(0, 256, (8, 8))
        assert np.array_equal(lbp_basic(img), oracle_basic(img))
        assert np.array_equal(reference_basic(img), oracle_basic(img))


def test_basic_constant_image_is_all_255():
    out = lbp_basic(np.full((6, 7), 42, dtype=np.uint8))
    assert np.all(out == 255)
    assert out.shape == (6, 7)


def test_basic_code_range_and_dtype():
    rng = np.random.default_rng(1)
    out = lbp_basic(rng.integers(0, 256, (16, 16)))
    assert out.dtype == np.int64
    assert out.min() >= 0 and out.max() <= 255


def test_basic_rejects_tiny_images():
    with pytest.raises(LbpError, match="3x3"):
        lbp_basic(np.zeros((2, 5)))


def test_basic_gray_shift_and_scale_invariance():
    rng = np.random.default_rng(2)
    img = rng.integers(0, 200, (12, 12)).astype(np.float64)
    ref = lbp_basic(img)
    assert np.array_equal(lbp_basic(img + 17.0), ref)
    assert np.array_equal(lbp_basic(img * 3.5), ref)


# ---- circular sampling -------------------------------------------------------


def test_circle_offsets_p8_r1_order():
    offs = circle_offsets(8, 1.0)
    # axis-aligned points snap to integers; diagonals stay fractional
    assert offs[1] == (-1.0, 0.0)
    assert offs[3] == (0.0, 1.0)
    assert offs[5] == (1.0, 0.0)
    assert offs[7] == (0.0, -1.0)
    d = 2**-0.5
    for p, (er, ec) in [(0, (-d, -d)), (2, (-d, d)), (4, (d, d)), (6, (d, -d))]:
        assert offs[p] == pytest.approx((er, ec))


def test_circular_nearest_equals_basic():
    # every pixel agrees, borders included, on square and non-square images
    rng = np.random.default_rng(3)
    cfg = LbpConfig(neighbors=8, radius=1.0)
    for shape in ((10, 10), (7, 13)):
        img = rng.integers(0, 256, shape)
        assert np.array_equal(lbp_circular(img, cfg), lbp_basic(img))


@pytest.mark.parametrize("cfg, nearest", [
    (LbpConfig(), True),
    (LbpConfig(rotation_invariant=True), False),
    (LbpConfig(radius=2.0), False),
    (LbpConfig(radius=1.5), False),
    (LbpConfig(neighbors=12, radius=2.0), False),
], ids=["p8r1", "p8r1-ri", "p8r2", "p8r1.5", "p12r2"])
def test_lbp_codes_takes_the_basic_map_only_for_plain_p8_r1(cfg, nearest):
    # the one rule, in lbp_circular: P=8, R=1 without rotation invariance
    # samples the nearest pixels, and every other geometry bilinearly
    imgs = np.random.default_rng(4).integers(0, 256, (3, 9, 11))
    expected = np.stack([reference_circular(img, cfg, nearest) for img in imgs])
    assert np.array_equal(lbp_circular(imgs, cfg), expected)
    assert lbp_mod.samples_nearest(cfg) == nearest
    if nearest:
        assert np.array_equal(expected, lbp_basic(imgs))


BLOCK_CONFIGS = [
    LbpConfig(neighbors=8, radius=1.0),
    LbpConfig(neighbors=8, radius=1.0, rotation_invariant=True),
    LbpConfig(neighbors=4, radius=1.0),
    LbpConfig(neighbors=12, radius=2.0),
    LbpConfig(neighbors=8, radius=1.5),
    LbpConfig(neighbors=24, radius=3.0),
]


def _block(dtype, shape, seed):
    rng = np.random.default_rng(seed)
    imgs = rng.integers(0, 256, shape).astype(dtype)
    if dtype == np.float64:  # fractional pixels, with ties kept on half of them
        imgs += rng.random(shape) * (rng.random(shape) < 0.5)
    return imgs


@pytest.mark.parametrize("cfg", BLOCK_CONFIGS, ids=lambda c: f"P{c.neighbors}R{c.radius}")
@pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.float64], ids=lambda d: d.__name__)
def test_block_call_equals_per_image_reference(cfg, dtype):
    # square and non-square images, and a block of more than two passes
    per_pass = lbp_mod._CHUNK_PIXELS // (16 * 16)
    for seed, shape in enumerate([(3, 10, 10), (4, 7, 13), (2 * per_pass + 3, 16, 16)]):
        imgs = _block(dtype, shape, seed)
        block = lbp_circular(imgs, cfg)
        assert block.shape == shape and block.dtype == np.int64
        expect = np.stack([reference_circular(img, cfg) for img in imgs])
        assert np.array_equal(block, expect)
        assert np.array_equal(lbp_circular(imgs[1], cfg), expect[1])


def test_basic_block_equals_per_image_reference():
    imgs = _block(np.uint8, (5, 7, 13), seed=10)
    out = lbp_basic(imgs)
    assert out.shape == (5, 7, 13)
    assert np.array_equal(out, np.stack([reference_basic(img) for img in imgs]))


def test_circular_bilinear_on_linear_ramp():
    # bilinear sampling is exact on a plane: code is the same for every
    # interior pixel and determined by the offsets' signed height
    img = np.fromfunction(lambda r, c: 10.0 * r + c, (7, 7))
    cfg = LbpConfig(neighbors=4, radius=1.0)
    codes = lbp_circular(img, cfg)
    # P=4 offsets are the four diagonals; the two with dr>0 sample higher
    assert np.all(codes[2:-2, 2:-2] == 0b1100)


def test_circular_constant_image_is_all_ones():
    # nearest and bilinear samples of a constant image both tie the center
    for cfg in (LbpConfig(), LbpConfig(radius=1.5)):
        codes = lbp_circular(np.full((8, 8), 9), cfg)
        assert np.all(codes == 255)


def test_circular_shift_scale_invariance():
    rng = np.random.default_rng(4)
    img = rng.integers(0, 200, (9, 9)).astype(np.float64)
    cfg = LbpConfig(neighbors=8, radius=2.0)
    ref = lbp_circular(img, cfg)
    assert np.array_equal(lbp_circular(img + 50.0, cfg), ref)
    assert np.array_equal(lbp_circular(img * 2.25, cfg), ref)


def test_circular_code_range_other_p():
    rng = np.random.default_rng(5)
    img = rng.integers(0, 256, (12, 12))
    cfg = LbpConfig(neighbors=12, radius=2.0)
    codes = lbp_circular(img, cfg)
    assert codes.min() >= 0 and codes.max() < 2**12


def test_circular_radius_bound():
    with pytest.raises(LbpError, match="radius"):
        lbp_circular(np.zeros((8, 8)), LbpConfig(neighbors=8, radius=4.0))


def test_quarter_turn_consistency_rotation_invariant():
    # a 90 degree image rotation cyclically shifts the sampled ring by
    # P/4 bits, so min-rotation codes commute with np.rot90
    rng = np.random.default_rng(6)
    img = rng.integers(0, 256, (10, 10)).astype(np.float64)
    cfg = LbpConfig(neighbors=8, radius=1.0, rotation_invariant=True)
    a = lbp_circular(img, cfg)
    b = lbp_circular(np.rot90(img), cfg)
    assert np.array_equal(b, np.rot90(a))


# ---- rotation-invariant codes ------------------------------------------------


def test_min_rotation_matches_string_oracle_all_codes():
    for code in range(256):
        assert min_rotation_code(code, 8) == oracle_min_rotation(code)


def test_min_rotation_vectorized_matches_scalar():
    cfg = LbpConfig(neighbors=8, radius=1.0, rotation_invariant=True)
    rng = np.random.default_rng(7)
    img = rng.integers(0, 256, (9, 9))
    plain = reference_circular(img, LbpConfig(), nearest=False)
    ri = lbp_circular(img, cfg)
    expect = np.vectorize(oracle_min_rotation)(plain)
    assert np.array_equal(ri, expect)


def test_rotations_of_00001111_map_to_15():
    rotations = {15, 30, 60, 120, 240, 225, 195, 135}
    # sanity: these really are the 8 cyclic rotations of 0b00001111
    assert rotations == {((15 << s) | (15 >> (8 - s))) & 0xFF for s in range(8)}
    for code in rotations:
        assert min_rotation_code(code, 8) == 15


def test_min_rotation_fixed_points_and_examples():
    assert min_rotation_code(241, 8) == 31  # 0b11110001 -> 0b00011111
    assert min_rotation_code(0, 8) == 0
    assert min_rotation_code(255, 8) == 255
    assert min_rotation_code(0b1000, 4) == 1


def test_min_rotation_properties():
    for code in range(256):
        ri = min_rotation_code(code, 8)
        assert ri <= code
        assert min_rotation_code(ri, 8) == ri
        assert bin(ri).count("1") == bin(code).count("1")
        for s in range(8):
            rot = ((code << s) | (code >> (8 - s))) & 0xFF
            assert min_rotation_code(rot, 8) == ri


# ---- histograms ----------------------------------------------------------------


def test_histogram_hand_fixture():
    codes = np.array([[0, 1, 2, 3], [1, 1, 3, 3], [2, 2, 0, 0], [2, 2, 0, 1]])
    cfg = LbpConfig(neighbors=4, cell_size=2)
    feats = lbp_histogram_features(codes, cfg)
    assert feats.shape == (4 * 16,)
    # top-left cell {0,1,1,1}: bin0=1/4, bin1=3/4
    assert feats[0] == 0.25 and feats[1] == 0.75 and feats[2:16].sum() == 0
    # top-right cell {2,3,3,3}
    assert feats[16 + 2] == 0.25 and feats[16 + 3] == 0.75
    # bottom-left cell {2,2,2,2}
    assert feats[32 + 2] == 1.0
    # bottom-right cell {0,0,0,1}
    assert feats[48 + 0] == 0.75 and feats[48 + 1] == 0.25


def test_histogram_full_face_dimension():
    rng = np.random.default_rng(8)
    codes = lbp_basic(rng.integers(0, 256, (96, 96)))
    feats = lbp_histogram_features(codes, LbpConfig())
    assert feats.shape == (36 * 256,)  # 6x6 cells of 16px, 256 bins each
    assert feats.shape == (9216,)
    assert feats.sum() == pytest.approx(36.0)  # every cell is L1-normalized
    assert feats.min() >= 0.0


def test_histogram_ragged_edge_cells_still_normalized():
    rng = np.random.default_rng(9)
    codes = lbp_basic(rng.integers(0, 256, (5, 5)))
    cfg = LbpConfig(neighbors=8, cell_size=2)
    feats = lbp_histogram_features(codes, cfg)
    assert feats.shape == (9 * 256,)
    cells = feats.reshape(9, 256)
    assert np.allclose(cells.sum(axis=1), 1.0)


def test_histogram_cells_are_row_major():
    codes = np.array([[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]])
    feats = lbp_histogram_features(codes, LbpConfig(neighbors=4, cell_size=2))
    cells = feats.reshape(4, 16)
    for pos, code in enumerate((1, 2, 3, 4)):
        assert cells[pos, code] == 1.0


def test_histogram_of_a_block_has_one_row_per_image():
    rng = np.random.default_rng(11)
    imgs = rng.integers(0, 256, (4, 20, 12))
    cfg = LbpConfig(cell_size=8)
    feats = lbp_histogram_features(lbp_basic(imgs), cfg)
    assert feats.shape == (4, 6 * 256)
    for img, row in zip(imgs, feats):
        one = lbp_histogram_features(reference_basic(img), cfg)
        assert np.array_equal(row, one)


def test_histogram_rejects_codes_that_are_not_one_image_or_a_block():
    with pytest.raises(LbpError, match=r"\(h, w\) or \(n, h, w\)"):
        lbp_histogram_features(np.zeros(16, dtype=np.int64), LbpConfig(cell_size=2))


def test_histogram_rejects_out_of_range_codes():
    codes = np.full((4, 4), 16, dtype=np.int64)
    with pytest.raises(LbpError, match="range"):
        lbp_histogram_features(codes, LbpConfig(neighbors=4, cell_size=2))


# ---- config validation ----------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"neighbors": 3},
        {"neighbors": 63},
        {"radius": 0.0},
        {"radius": -1.0},
        {"cell_size": 0},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(LbpError):
        LbpConfig(**kwargs)


@pytest.mark.parametrize("kwargs, message", [
    ({"neighbors": 3}, "neighbors must be an integer in [4, 62], got 3"),
    ({"neighbors": 63}, "neighbors must be an integer in [4, 62], got 63"),
    ({"neighbors": 8.0}, "neighbors must be an integer in [4, 62], got 8.0"),
    ({"cell_size": 0}, "cell_size must be an integer >= 1, got 0"),
    ({"cell_size": True}, "cell_size must be an integer >= 1, got True"),
], ids=["neighbors-3", "neighbors-63", "neighbors-8.0", "cell_size-0", "cell_size-True"])
def test_a_count_out_of_its_range_is_named_with_the_range(kwargs, message):
    with pytest.raises(LbpError) as exc:
        LbpConfig(**kwargs)
    assert str(exc.value) == message


@pytest.mark.parametrize("radius", [float("nan"), float("inf"), 0.0, -1.0], ids=repr)
def test_a_radius_that_is_not_a_finite_positive_number_is_named(radius):
    # unchecked, nan and inf fail later, when lbp_circular converts the radius to an int
    with pytest.raises(LbpError) as exc:
        LbpConfig(radius=radius)
    assert str(exc.value) == f"radius must be a finite number above 0, got {radius!r}"
