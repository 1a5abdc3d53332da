"""Local binary pattern codes and cell-histogram texture features.

A pixel's code compares each of P neighbors g_p against the center g_c,
clockwise from the top-left, and sets bit p when g_p >= g_c:

    code = sum_p  1[g_p >= g_c] * 2**p

Ties count as 1, so a constant image codes to all ones. Borders replicate
edge pixels. The circular variant samples P points on a radius-R circle
with bilinear interpolation; the rotation-invariant variant maps each code
to the minimum over its cyclic bit rotations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import GrayImage


class LbpError(ValueError):
    """Invalid LBP configuration or input."""


@dataclass(frozen=True)
class LbpConfig:
    """Sampling geometry and histogram layout.

    Attributes:
        neighbors: P, number of sampling points (bits per code).
        radius: R, sampling circle radius in pixels.
        rotation_invariant: map codes to their minimal cyclic rotation.
        cell_size: square cell edge for histogram features.
        interpolation: 'bilinear' (default) or 'nearest'; with 'nearest'
            and P=8, R=1 the circular map equals the basic 8-neighbor map
            on every pixel, borders included.
    """

    neighbors: int = 8
    radius: float = 1.0
    rotation_invariant: bool = False
    cell_size: int = 16
    interpolation: str = "bilinear"

    def __post_init__(self):
        if self.neighbors < 4:
            raise LbpError("neighbors must be at least 4")
        if self.neighbors > 62:
            raise LbpError("neighbors above 62 overflow the code dtype")
        if self.radius <= 0:
            raise LbpError("radius must be positive")
        if self.cell_size < 1:
            raise LbpError("cell_size must be at least 1")
        if self.interpolation not in ("bilinear", "nearest"):
            raise LbpError(f"unknown interpolation {self.interpolation!r}")


@dataclass(frozen=True, eq=False)
class LbpImage:
    """Per-pixel LBP codes plus the bit width they were built with."""

    codes: np.ndarray  # (h, w) int64 in [0, 2**neighbors)
    neighbors: int

    def __post_init__(self):
        if self.codes.ndim != 2:
            raise LbpError("codes must be 2-d")

    @property
    def height(self) -> int:
        return self.codes.shape[0]

    @property
    def width(self) -> int:
        return self.codes.shape[1]


# 3x3 neighbor offsets (drow, dcol), clockwise from the top-left corner.
_OFFSETS_3X3 = ((-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1))


def _as_pixel_array(img) -> np.ndarray:
    if isinstance(img, GrayImage):
        return img.pixels.astype(np.float64)
    a = np.asarray(img, dtype=np.float64)
    if a.ndim != 2:
        raise LbpError("image must be 2-d")
    return a


def lbp_code_3x3(window) -> int:
    """Code of the center pixel of one 3x3 window."""
    w = np.asarray(window, dtype=np.float64)
    if w.shape != (3, 3):
        raise LbpError("window must be 3x3")
    center = w[1, 1]
    code = 0
    for p, (dr, dc) in enumerate(_OFFSETS_3X3):
        if w[1 + dr, 1 + dc] >= center:
            code |= 1 << p
    return code


def lbp_basic(img) -> LbpImage:
    """8-neighbor LBP map of a whole image, borders edge-replicated."""
    a = _as_pixel_array(img)
    h, w = a.shape
    if h < 3 or w < 3:
        raise LbpError("image must be at least 3x3")
    padded = np.pad(a, 1, mode="edge")
    codes = np.zeros((h, w), dtype=np.int64)
    for p, (dr, dc) in enumerate(_OFFSETS_3X3):
        neighbor = padded[1 + dr : 1 + dr + h, 1 + dc : 1 + dc + w]
        codes |= (neighbor >= a).astype(np.int64) << p
    return LbpImage(codes, neighbors=8)


def circle_offsets(neighbors: int, radius: float) -> list[tuple[float, float]]:
    """(drow, dcol) sampling offsets, clockwise starting at the upper-left.

    Offsets within 1e-9 of an integer are snapped, so P=8, R=1 samples its
    four axis neighbors exactly; its diagonals stay at (+-0.7071, +-0.7071),
    and only interpolation='nearest' rounds them onto the 3x3 corners.
    """
    offsets = []
    for p in range(neighbors):
        angle = 5.0 * math.pi / 4.0 + 2.0 * math.pi * p / neighbors
        dr = radius * math.sin(angle)
        dc = radius * math.cos(angle)
        if abs(dr - round(dr)) < 1e-9:
            dr = float(round(dr))
        if abs(dc - round(dc)) < 1e-9:
            dc = float(round(dc))
        offsets.append((dr, dc))
    return offsets


def _axis_indices(n: int, delta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # clamped floor/ceil indices and the fractional weight along one axis
    pos = np.arange(n, dtype=np.float64) + delta
    base = np.floor(pos)
    frac = pos - base
    i0 = np.clip(base.astype(np.int64), 0, n - 1)
    i1 = np.clip(base.astype(np.int64) + 1, 0, n - 1)
    return i0, i1, frac


def _sample_plane(a: np.ndarray, dr: float, dc: float, interpolation: str) -> np.ndarray:
    """Sample a at (row+dr, col+dc) per pixel, edges clamped."""
    h, w = a.shape
    if interpolation == "nearest":
        dr, dc = float(np.rint(dr)), float(np.rint(dc))
    if dr == int(dr) and dc == int(dc):
        r = np.clip(np.arange(h) + int(dr), 0, h - 1)
        c = np.clip(np.arange(w) + int(dc), 0, w - 1)
        return a[np.ix_(r, c)]
    r0, r1, fr = _axis_indices(h, dr)
    c0, c1, fc = _axis_indices(w, dc)
    # lerp form: equal endpoints interpolate exactly, so samples whose
    # corners clamp onto one border pixel keep their tie with the center
    g00, g01 = a[r0][:, c0], a[r0][:, c1]
    g10, g11 = a[r1][:, c0], a[r1][:, c1]
    top = g00 + (g01 - g00) * fc
    bottom = g10 + (g11 - g10) * fc
    return top + (bottom - top) * fr[:, None]


def lbp_circular(img, cfg: LbpConfig) -> LbpImage:
    """Circular LBP map with P sampling points on a radius-R circle."""
    a = _as_pixel_array(img)
    h, w = a.shape
    if cfg.radius >= min(h, w) / 2.0:
        raise LbpError(
            f"radius {cfg.radius} too large for a {h}x{w} image"
        )
    codes = np.zeros((h, w), dtype=np.int64)
    for p, (dr, dc) in enumerate(circle_offsets(cfg.neighbors, cfg.radius)):
        sampled = _sample_plane(a, dr, dc, cfg.interpolation)
        codes |= (sampled >= a).astype(np.int64) << p
    if cfg.rotation_invariant:
        codes = _min_rotations(codes, cfg.neighbors)
    return LbpImage(codes, neighbors=cfg.neighbors)


def rotation_invariant_code(code: int, neighbors: int) -> int:
    """Minimum of a code over all cyclic rotations of its P bits."""
    mask = (1 << neighbors) - 1
    if not 0 <= code <= mask:
        raise LbpError(f"code {code} does not fit in {neighbors} bits")
    best = code
    for s in range(1, neighbors):
        rot = ((code >> s) | (code << (neighbors - s))) & mask
        if rot < best:
            best = rot
    return best


def _min_rotations(codes: np.ndarray, neighbors: int) -> np.ndarray:
    mask = (1 << neighbors) - 1
    best = codes.copy()
    for s in range(1, neighbors):
        rot = ((codes >> s) | (codes << (neighbors - s))) & mask
        np.minimum(best, rot, out=best)
    return best


def lbp_histogram_features(lbp: LbpImage, cfg: LbpConfig) -> np.ndarray:
    """Concatenated per-cell code histograms, each L1-normalized.

    The image is tiled row-major into cell_size x cell_size cells (edge
    cells may be smaller). Each cell contributes a 2**neighbors bin
    histogram normalized to sum to 1.
    """
    bins = 1 << cfg.neighbors
    codes = lbp.codes
    if codes.min() < 0 or codes.max() >= bins:
        raise LbpError(f"codes exceed {cfg.neighbors}-bit range")
    cs = cfg.cell_size
    chunks = []
    for top in range(0, codes.shape[0], cs):
        for left in range(0, codes.shape[1], cs):
            block = codes[top : top + cs, left : left + cs]
            hist = np.bincount(block.reshape(-1), minlength=bins).astype(np.float64)
            chunks.append(hist / hist.sum())
    return np.concatenate(chunks)
