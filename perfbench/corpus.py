"""Seeded face-like corpus for the benchmark.

Every image is a smooth synthetic face: a bright ellipse on a darker
background, with a dark Gaussian blob at each of the fifteen keypoints,
plus pixel noise. The keypoints follow a fixed template (the mean layout
of the Kaggle facial-keypoints set), moved per face by a common shift and
scale and jittered per keypoint, so the pixels carry real information
about the targets and a model can beat the mean predictor.

The same seed always gives the same corpus; the program under test only
ever sees the CSV files written from it through the package's writers.
"""

from __future__ import annotations

import numpy as np

#: Image side in pixels. The Kaggle images are 96x96; 48x48 keeps every
#: layer on the same code path at a quarter of the pixels, so that each
#: benchmark run fits its time budget (see README.md). Keypoint labels
#: stay in 96-pixel coordinates (see generate).
SIDE = 48
#: Rows in the training corpus (about 300 fully labeled).
N_ROWS = 1000
#: Share of rows that lose all eleven sparse slots, as in the Kaggle set.
SPARSE_MISSING_FRACTION = 0.7
#: Single core coordinates dropped (among the sparse-missing rows), so
#: column-mean imputation has work in the four-slot task too.
CORE_MISSING_CELLS = 6
#: Slots labeled on (nearly) every row: both eye centres, nose tip and
#: bottom-lip centre. The other eleven form the sparse task.
CORE_SLOTS = (0, 1, 10, 14)

# Template layout in 96-pixel coordinates, slot order of facekeys.SLOT_NAMES.
_TEMPLATE_96 = np.array([
    (66.4, 37.7), (30.3, 37.9), (59.2, 37.9), (73.1, 37.6), (36.7, 37.9),
    (22.4, 38.0), (56.1, 29.3), (79.5, 29.9), (39.3, 29.6), (15.9, 30.4),
    (48.4, 62.7), (63.3, 75.9), (32.9, 76.2), (47.9, 72.9), (48.6, 79.0),
])
# Blob darkness per slot: eyes darkest, lip points lightest.
_BLOB_DEPTH = np.array(
    [90, 90, 50, 50, 50, 50, 60, 60, 60, 60, 70, 55, 55, 45, 45], dtype=np.float64
)
_FACE_CENTRE_96 = np.array([48.0, 52.0])

#: Generator parameters in 96-pixel units (scaled by SIDE / 96).
PARAMS = {
    "face_shift_sd": 3.0,        # common (x, y) shift of a face
    "face_scale_range": (0.9, 1.1),
    "keypoint_jitter_sd": 1.2,   # independent per keypoint and axis
    "blob_sigma": 2.5,
    "blob_depth_jitter": (0.8, 1.2),
    "face_radii": (34.0, 42.0),  # ellipse half-width, half-height
    "face_edge_sharpness": 12.0,
    "background_range": (40.0, 110.0),
    "skin_range": (140.0, 200.0),
    "pixel_noise_sd": 8.0,
}


def generate(n_rows: int, seed: int, missing: bool = True):
    """Return (images, keypoints): (n, SIDE, SIDE) uint8 and (n, 30) float64.

    Keypoints are in 96-pixel coordinates whatever the image side, as if
    each image were a downscaled Kaggle face with its original labels; so
    targets keep the Kaggle range (the MLP and CNN scale them as
    (y - 48) / 48) and RMSEs read in Kaggle pixels.

    With missing=True, SPARSE_MISSING_FRACTION of the rows lose every
    sparse slot (NaN) and CORE_MISSING_CELLS single core coordinates go
    missing; with missing=False every coordinate is present.
    """
    rng = np.random.default_rng(seed)
    p = PARAMS
    side = SIDE
    unit = side / 96.0
    shift = rng.normal(0.0, p["face_shift_sd"], (n_rows, 1, 2))
    scale = rng.uniform(*p["face_scale_range"], (n_rows, 1, 1))
    jitter = rng.normal(0.0, p["keypoint_jitter_sd"], (n_rows, 15, 2))
    kp = _FACE_CENTRE_96 + scale * (_TEMPLATE_96 - _FACE_CENTRE_96) + shift + jitter

    # separable Gaussian blobs: sum_k depth_k * gy_k(row) * gx_k(col)
    axis = np.arange(side, dtype=np.float64)
    at = kp * unit
    two_var = 2.0 * (p["blob_sigma"] * unit) ** 2
    gx = np.exp(-((axis - at[:, :, 0:1]) ** 2) / two_var)
    gy = np.exp(-((axis - at[:, :, 1:2]) ** 2) / two_var)
    depth = _BLOB_DEPTH * rng.uniform(*p["blob_depth_jitter"], (n_rows, 15))
    blobs = np.einsum("nkh,nkw->nhw", gy * depth[:, :, None], gx)

    centre = (_FACE_CENTRE_96 + shift[:, 0, :]) * unit
    rx, ry = (r * unit for r in p["face_radii"])
    dy = (axis[None, :, None] - centre[:, None, None, 1]) / (ry * scale)
    dx = (axis[None, None, :] - centre[:, None, None, 0]) / (rx * scale)
    face = 1.0 / (1.0 + np.exp((np.sqrt(dx * dx + dy * dy) - 1.0) * p["face_edge_sharpness"]))
    background = rng.uniform(*p["background_range"], (n_rows, 1, 1))
    skin = rng.uniform(*p["skin_range"], (n_rows, 1, 1))
    noise = rng.normal(0.0, p["pixel_noise_sd"], (n_rows, side, side))
    pixels = background + (skin - background) * face - blobs + noise
    images = np.clip(np.rint(pixels), 0, 255).astype(np.uint8)

    keypoints = kp.reshape(n_rows, 30).copy()
    if missing:
        sparse = [j for j in range(15) if j not in CORE_SLOTS]
        rows = rng.choice(n_rows, size=round(SPARSE_MISSING_FRACTION * n_rows), replace=False)
        for j in sparse:
            keypoints[rows, 2 * j : 2 * j + 2] = np.nan
        for i in range(CORE_MISSING_CELLS):
            keypoints[rows[i], 2 * CORE_SLOTS[i % 4] + i % 2] = np.nan
    return images, keypoints
