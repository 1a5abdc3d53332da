"""Raster output: keypoint overlays, keypoint scatter maps, LBP images.

Files are binary PPM (P6) / PGM (P5) with maxval 255, written
deterministically so identical inputs produce identical bytes. The
package writes these files and never reads them.
"""

from __future__ import annotations

import math

import numpy as np

from ._inputs import check_choice
from .dataset import Dataset

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


def render_keypoints(pixels: np.ndarray, names: tuple[str, ...], coords: np.ndarray,
                     path) -> None:
    """Write an (h, w) uint8 image with 3x3 colored markers at its keypoints.

    coords holds one (x, y) row per slot name; a pair with a NaN is a
    missing slot and is skipped. Markers are clipped at the borders.
    """
    if pixels.ndim != 2 or pixels.dtype != np.uint8:
        raise VizError("pixels must be an (h, w) uint8 array")
    canvas = np.repeat(pixels[:, :, None], 3, axis=2)
    for name, (x, y) in zip(names, coords, strict=True):
        if math.isfinite(x) and math.isfinite(y):
            _stamp(canvas, x, y, marker_color(name))
    write_ppm(path, canvas)


def scatter_keypoint_distribution(d: Dataset, slot_name: str, path) -> None:
    """White canvas of the dataset's image size with one dark dot per
    present value of a slot."""
    check_choice("slot", slot_name, d.slot_names, VizError)
    h, w = d.images.shape[1:]
    canvas = np.full((h, w, 3), 255, dtype=np.uint8)
    j = d.slot_names.index(slot_name)
    coords = d.keypoints[:, 2 * j : 2 * j + 2]
    for x, y in coords:
        if math.isnan(x) or math.isnan(y):
            continue
        px, py = int(round(x)), int(round(y))
        if 0 <= px < w and 0 <= py < h:
            canvas[py, px] = (0, 0, 0)
    write_ppm(path, canvas)


def render_lbp(codes: np.ndarray, neighbors: int, path) -> None:
    """Write an (h, w) map of neighbors-bit LBP codes as a PGM image.

    Codes that fit a byte are written directly; wider codes are min-max
    scaled so the largest maps to 255.
    """
    if (1 << neighbors) <= 256:
        gray = codes.astype(np.uint8)
    else:
        lo, hi = int(codes.min()), int(codes.max())
        if hi == lo:
            gray = np.zeros_like(codes, dtype=np.uint8)
        else:
            gray = np.rint((codes - lo) * 255.0 / (hi - lo)).astype(np.uint8)
    write_pgm(path, gray)
