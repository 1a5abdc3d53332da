"""Local binary pattern codes and cell-histogram texture features.

A pixel's code compares each of P neighbors g_p against the center g_c,
clockwise from the top-left, and sets bit p when g_p >= g_c:

    code = sum_p  1[g_p >= g_c] * 2**p

Ties count as 1, so a constant image codes to all ones. Borders replicate
edge pixels. The one kernel, lbp_circular, samples P points on a radius-R
circle by the one rule: P=8, R=1 without rotation invariance samples the
nearest pixels (the basic 3x3 map), every other geometry bilinearly, so an
LbpConfig alone names its codes. The rotation-invariant variant maps each
code to the minimum over its cyclic bit rotations. The kernel takes an
(h, w) image or an (n, h, w) block, in passes of about _CHUNK_PIXELS
pixels: one pass over 500 rotation-invariant 96x96 images held ~530 MB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._inputs import check_count, check_number

#: Pixels per pass over a block, in whole images; smaller passes cost more calls.
_CHUNK_PIXELS = 1 << 16


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
    """

    neighbors: int = 8
    radius: float = 1.0
    rotation_invariant: bool = False
    cell_size: int = 16

    def __post_init__(self):
        # a record read back from JSON may hold any type; above 62 neighbors overflow the codes
        check_count("neighbors", self.neighbors, 4, 62, error=LbpError)
        check_number("radius", self.radius, 0, above=True, error=LbpError)
        check_count("cell_size", self.cell_size, 1, error=LbpError)
        if not isinstance(self.rotation_invariant, (bool, np.bool_)):
            raise LbpError(f"rotation_invariant must be a bool, got {self.rotation_invariant!r}")


def samples_nearest(cfg: LbpConfig) -> bool:
    """lbp_circular's sampling rule: nearest pixels for plain P=8, R=1, else bilinear."""
    return (cfg.neighbors, cfg.radius, cfg.rotation_invariant) == (8, 1.0, False)


def lbp_basic(img) -> np.ndarray:
    """8-neighbor LBP codes of an image or block, borders edge-replicated."""
    return lbp_circular(img, LbpConfig())


def circle_offsets(neighbors: int, radius: float) -> list[tuple[float, float]]:
    """(drow, dcol) sampling offsets, clockwise starting at the upper-left.

    Offsets within 1e-9 of an integer are snapped, so P=8, R=1 samples its
    four axis neighbors exactly; its diagonals stay at (+-0.7071, +-0.7071),
    and only the basic map's nearest sampling rounds them onto the 3x3 corners.
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


def _bilinear(a: np.ndarray, dr: float, dc: float) -> np.ndarray:
    """Sample an (m, h, w) float64 block at (row+dr, col+dc), edges clamped."""
    h, w = a.shape[1:]
    r0, r1, fr = _axis_indices(h, dr)
    c0, c1, fc = _axis_indices(w, dc)
    # lerp form: equal endpoints interpolate exactly, so samples whose
    # corners clamp onto one border pixel keep their tie with the center
    rows0, rows1 = a[:, r0], a[:, r1]
    g00, g01 = rows0[:, :, c0], rows0[:, :, c1]
    g10, g11 = rows1[:, :, c0], rows1[:, :, c1]
    top = g00 + (g01 - g00) * fc
    bottom = g10 + (g11 - g10) * fc
    return top + (bottom - top) * fr[:, None]


def _code_chunk(a: np.ndarray, offsets, cfg: LbpConfig) -> np.ndarray:
    """Codes of an (m, h, w) block, built in the smallest unsigned dtype.

    Integer offsets are slices of one edge-padded copy, compared in the
    block's own dtype; fractional ones are bilinear samples in float64.
    """
    h, w = a.shape[1:]
    dtype = np.min_scalar_type((1 << cfg.neighbors) - 1)
    pad = math.ceil(cfg.radius)  # no sample lies further off, rounded or not
    padded = np.pad(a, ((0, 0), (pad, pad), (pad, pad)), mode="edge")
    real = None
    codes = np.zeros(a.shape, dtype)
    for p, (dr, dc) in enumerate(offsets):
        if dr.is_integer() and dc.is_integer():
            top, left = pad + int(dr), pad + int(dc)
            hit = padded[:, top : top + h, left : left + w] >= a
        else:
            real = a.astype(np.float64) if real is None else real
            hit = _bilinear(real, dr, dc) >= real
        codes |= np.left_shift(hit, p, dtype=dtype)
    return _min_rotations(codes, cfg.neighbors) if cfg.rotation_invariant else codes


def lbp_circular(img, cfg: LbpConfig) -> np.ndarray:
    """Circular LBP codes of an (h, w) image or (n, h, w) block: int64 in
    [0, 2**neighbors), in the input's shape, sampled as samples_nearest says."""
    a = np.asarray(img)
    if a.ndim not in (2, 3):
        raise LbpError("image must be (h, w) or an (n, h, w) block")
    h, w = a.shape[-2:]
    if cfg.radius >= min(h, w) / 2.0:
        side = math.floor(2.0 * cfg.radius) + 1
        raise LbpError(
            f"radius {cfg.radius} needs an image of at least {side}x{side}, got {h}x{w}"
        )
    offsets = circle_offsets(cfg.neighbors, cfg.radius)
    if samples_nearest(cfg):
        offsets = [(float(np.rint(dr)), float(np.rint(dc))) for dr, dc in offsets]
    block = a.reshape(-1, h, w)
    codes = np.empty(block.shape, dtype=np.int64)
    step = max(1, _CHUNK_PIXELS // (h * w))
    for start in range(0, len(block), step):
        codes[start : start + step] = _code_chunk(block[start : start + step], offsets, cfg)
    return codes.reshape(a.shape)


def _min_rotations(codes: np.ndarray, neighbors: int) -> np.ndarray:
    mask = (1 << neighbors) - 1
    best = codes.copy()
    for s in range(1, neighbors):
        rot = ((codes >> s) | (codes << (neighbors - s))) & mask
        np.minimum(best, rot, out=best)
    return best


def lbp_histogram_features(codes: np.ndarray, cfg: LbpConfig) -> np.ndarray:
    """Concatenated per-cell code histograms, each L1-normalized.

    Each image of (h, w) or (n, h, w) codes is tiled row-major into
    cell_size x cell_size cells (edge cells may be smaller). Each cell
    contributes a 2**neighbors bin histogram normalized to sum to 1. One
    image gives a 1-d vector; an (n, h, w) block gives one row per image.
    """
    bins = 1 << cfg.neighbors
    codes = np.asarray(codes)
    if codes.ndim not in (2, 3):
        raise LbpError("codes must be (h, w) or (n, h, w)")
    if codes.min() < 0 or codes.max() >= bins:
        raise LbpError(f"codes exceed {cfg.neighbors}-bit range")
    block = codes.reshape(-1, *codes.shape[-2:])
    # image i counts its codes in bins [i*bins, (i+1)*bins) of one bincount
    shift = np.arange(len(block))[:, None, None] * bins
    cs = cfg.cell_size
    chunks = []
    for top in range(0, block.shape[1], cs):
        for left in range(0, block.shape[2], cs):
            cell = block[:, top : top + cs, left : left + cs] + shift
            hist = np.bincount(cell.reshape(-1), minlength=len(block) * bins)
            hist = hist.reshape(len(block), bins)
            chunks.append(hist / hist.sum(axis=1, keepdims=True))
    return np.concatenate(chunks, axis=1).reshape(codes.shape[:-2] + (-1,))
