"""Raster output: keypoint overlays, keypoint scatter maps, LBP images.

Files are binary PPM (P6) / PGM (P5) with maxval 255, written
deterministically so identical inputs produce identical bytes. The
package writes these files and never reads them.
"""

from __future__ import annotations

import math

import numpy as np

from .dataset import Dataset, GrayImage, KeypointSet
from .lbp import LbpImage

RED = (255, 0, 0)
BLUE = (0, 0, 255)
_MARKER_REACH = 1  # 3x3 markers


class VizError(ValueError):
    """Invalid raster input or file."""


def write_pgm(path, gray: np.ndarray) -> None:
    """Binary PGM (P5, maxval 255) from an (h, w) uint8 array."""
    gray = np.asarray(gray)
    if gray.ndim != 2 or gray.dtype != np.uint8:
        raise VizError("gray must be an (h, w) uint8 array")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{gray.shape[1]} {gray.shape[0]}\n255\n".encode())
        fh.write(gray.tobytes())


def write_ppm(path, rgb: np.ndarray) -> None:
    """Binary PPM (P6, maxval 255) from an (h, w, 3) uint8 array."""
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3 or rgb.dtype != np.uint8:
        raise VizError("rgb must be an (h, w, 3) uint8 array")
    with open(path, "wb") as fh:
        fh.write(f"P6\n{rgb.shape[1]} {rgb.shape[0]}\n255\n".encode())
        fh.write(rgb.tobytes())


def _stamp(canvas: np.ndarray, x: float, y: float, color: tuple[int, int, int]) -> None:
    h, w = canvas.shape[:2]
    cx, cy = int(round(x)), int(round(y))
    for dy in range(-_MARKER_REACH, _MARKER_REACH + 1):
        for dx in range(-_MARKER_REACH, _MARKER_REACH + 1):
            px, py = cx + dx, cy + dy
            if 0 <= px < w and 0 <= py < h:
                canvas[py, px] = color


def marker_color(slot_name: str) -> tuple[int, int, int]:
    """Red for eye-region slots, blue for nose and mouth slots."""
    return RED if "eye" in slot_name else BLUE


def render_keypoints(img: GrayImage, keypoints: KeypointSet, path) -> None:
    """Write the image with 3x3 colored markers at each present keypoint.

    Markers are clipped at the borders; missing slots are skipped.
    """
    canvas = np.repeat(img.pixels[:, :, None], 3, axis=2).astype(np.uint8)
    for name in keypoints.names:
        xy = keypoints.get(name)
        if xy is None:
            continue
        _stamp(canvas, xy[0], xy[1], marker_color(name))
    write_ppm(path, canvas)


def scatter_keypoint_distribution(d: Dataset, slot_name: str, path,
                                  side: int = 96) -> None:
    """White canvas with one dark dot per present value of a slot."""
    if slot_name not in d.slot_names:
        raise VizError(f"unknown slot {slot_name!r}")
    canvas = np.full((side, side, 3), 255, dtype=np.uint8)
    j = d.slot_names.index(slot_name)
    coords = d.keypoints[:, 2 * j : 2 * j + 2]
    for x, y in coords:
        if math.isnan(x) or math.isnan(y):
            continue
        px, py = int(round(x)), int(round(y))
        if 0 <= px < side and 0 <= py < side:
            canvas[py, px] = (0, 0, 0)
    write_ppm(path, canvas)


def render_lbp(lbp: LbpImage, path) -> None:
    """Write an LBP code map as a PGM image.

    Codes that fit a byte are written directly; wider codes are min-max
    scaled so the largest maps to 255.
    """
    codes = lbp.codes
    if (1 << lbp.neighbors) <= 256:
        gray = codes.astype(np.uint8)
    else:
        lo, hi = int(codes.min()), int(codes.max())
        if hi == lo:
            gray = np.zeros_like(codes, dtype=np.uint8)
        else:
            gray = np.rint((codes - lo) * 255.0 / (hi - lo)).astype(np.uint8)
    write_pgm(path, gray)
