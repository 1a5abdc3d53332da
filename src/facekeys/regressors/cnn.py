"""Small convolutional regressor for 16x16 single-channel grids.

Architecture: conv 32@5x5 (same padding) -> ReLU -> 2x2 max pool ->
dropout, conv 8@3x3 (same padding) -> ReLU -> 2x2 max pool -> dropout,
flatten (4*4*8 = 128) -> dense 100 tanh -> dropout -> linear output.
Convolution and pooling forward/backward are written out by hand; the
loss is MSE and targets train in the scaled space y' = (y - 48) / 48.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .optim import (
    TrainingDiverged,
    batch_slices,
    dropout_mask,
    glorot_uniform,
    make_optimizer,
    mse_loss_and_grad,
)

PARAM_NAMES = (
    "conv1_w", "conv1_b", "conv2_w", "conv2_b",
    "dense_w", "dense_b", "out_w", "out_b",
)


@dataclass(eq=False)
class CnnModel:
    """Parameter tensors in PARAM_NAMES order plus training metadata."""

    params: dict[str, np.ndarray]
    side: int = 16
    dropout_conv: float = 0.25
    dropout_dense: float = 0.5
    target_offset: float = 0.0
    target_scale: float = 1.0
    loss_history: list[float] = field(default_factory=list)

    @property
    def n_outputs(self) -> int:
        return self.params["out_b"].shape[0]


def grid_side(n_features: int) -> int | None:
    """Side of the square grid n_features values form for the cnn.

    The two 2x2 pools each halve the grid, so the side must be a positive
    multiple of 4; None when n_features is not the square of such a side.
    """
    side = math.isqrt(n_features)
    if side > 0 and side * side == n_features and side % 4 == 0:
        return side
    return None


def _conv_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """Stride-1 same-padding convolution. x: (n,c,h,w), w: (o,c,kh,kw)."""
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    ph, pw = kh // 2, kw // 2
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    patches = np.empty((n, c, kh, kw, h, wd))
    for di in range(kh):
        for dj in range(kw):
            patches[:, :, di, dj] = xp[:, :, di : di + h, dj : dj + wd]
    out = np.einsum("ncuvhw,ocuv->nohw", patches, w) + b[None, :, None, None]
    return out, (patches, w, x.shape, (ph, pw))


def _conv_backward(dout: np.ndarray, cache):
    patches, w, x_shape, (ph, pw) = cache
    n, c, h, wd = x_shape
    dw = np.einsum("nohw,ncuvhw->ocuv", dout, patches)
    db = dout.sum(axis=(0, 2, 3))
    dpatches = np.einsum("nohw,ocuv->ncuvhw", dout, w)
    dxp = np.zeros((n, c, h + 2 * ph, wd + 2 * pw))
    kh, kw = w.shape[2], w.shape[3]
    for di in range(kh):
        for dj in range(kw):
            dxp[:, :, di : di + h, dj : dj + wd] += dpatches[:, :, di, dj]
    dx = dxp[:, :, ph : ph + h, pw : pw + wd]
    return dx, dw, db


def _pool_forward(x: np.ndarray):
    """2x2 max pool, stride 2. Gradient goes to the first max per window."""
    n, c, h, w = x.shape
    windows = (
        x.reshape(n, c, h // 2, 2, w // 2, 2)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(n, c, h // 2, w // 2, 4)
    )
    arg = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, arg[..., None], axis=-1)[..., 0]
    return out, (arg, x.shape)


def _pool_backward(dout: np.ndarray, cache):
    arg, x_shape = cache
    n, c, h, w = x_shape
    dwindows = np.zeros((n, c, h // 2, w // 2, 4))
    np.put_along_axis(dwindows, arg[..., None], dout[..., None], axis=-1)
    return (
        dwindows.reshape(n, c, h // 2, w // 2, 2, 2)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(n, c, h, w)
    )


def init_cnn(side: int, n_outputs: int, seed: int) -> CnnModel:
    """Glorot-uniform initialized network, deterministic per seed."""
    if grid_side(side * side) is None:
        raise ValueError(f"grid side must be divisible by 4, got {side}")
    rng = np.random.default_rng(seed)
    flat = (side // 4) * (side // 4) * 8
    params = {
        "conv1_w": glorot_uniform(rng, 1 * 5 * 5, 32 * 5 * 5, (32, 1, 5, 5)),
        "conv1_b": np.zeros(32),
        "conv2_w": glorot_uniform(rng, 32 * 3 * 3, 8 * 3 * 3, (8, 32, 3, 3)),
        "conv2_b": np.zeros(8),
        "dense_w": glorot_uniform(rng, flat, 100, (flat, 100)),
        "dense_b": np.zeros(100),
        "out_w": glorot_uniform(rng, 100, n_outputs, (100, n_outputs)),
        "out_b": np.zeros(n_outputs),
    }
    return CnnModel(params=params, side=side)


def _check_grids(X, side: int | None = None) -> np.ndarray:
    """(n, side, side) grids; (n, side*side) feature rows reshape row-major."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 2:
        row_side = grid_side(X.shape[1])
        if row_side is None:
            raise ValueError(
                f"cnn needs square features with a side divisible by 4; got "
                f"{X.shape[1]} columns (try --pca 256)"
            )
        X = X.reshape(-1, row_side, row_side)
    if X.ndim != 3 or X.shape[1] != X.shape[2]:
        raise ValueError("grids must be (n, side, side)")
    if side is not None and X.shape[1] != side:
        raise ValueError(f"grids must be (n, {side}, {side})")
    return X


def loss_and_gradients(
    model: CnnModel,
    X: np.ndarray,
    Y: np.ndarray,
    masks: dict[str, np.ndarray] | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """MSE loss and gradients for every parameter tensor.

    masks, when given, holds dropout masks under keys 'pool1', 'pool2',
    'dense'; None runs the deterministic network.
    """
    p = model.params
    x = X[:, None, :, :]  # single channel

    c1, cache1 = _conv_forward(x, p["conv1_w"], p["conv1_b"])
    r1 = np.maximum(c1, 0.0)
    p1, pcache1 = _pool_forward(r1)
    d1 = p1 * masks["pool1"] if masks else p1

    c2, cache2 = _conv_forward(d1, p["conv2_w"], p["conv2_b"])
    r2 = np.maximum(c2, 0.0)
    p2, pcache2 = _pool_forward(r2)
    d2 = p2 * masks["pool2"] if masks else p2

    flat = d2.reshape(X.shape[0], -1)
    z_dense = flat @ p["dense_w"] + p["dense_b"]
    h_dense = np.tanh(z_dense)
    hd = h_dense * masks["dense"] if masks else h_dense
    pred = hd @ p["out_w"] + p["out_b"]

    loss, dpred = mse_loss_and_grad(pred, Y)
    grads: dict[str, np.ndarray] = {}
    grads["out_w"] = hd.T @ dpred
    grads["out_b"] = dpred.sum(axis=0)

    dh = dpred @ p["out_w"].T
    if masks:
        dh = dh * masks["dense"]
    dz = dh * (1.0 - h_dense * h_dense)
    grads["dense_w"] = flat.T @ dz
    grads["dense_b"] = dz.sum(axis=0)

    dflat = dz @ p["dense_w"].T
    dd2 = dflat.reshape(d2.shape)
    if masks:
        dd2 = dd2 * masks["pool2"]
    dr2 = _pool_backward(dd2, pcache2)
    dc2 = dr2 * (c2 > 0.0)
    dd1, grads["conv2_w"], grads["conv2_b"] = _conv_backward(dc2, cache2)
    if masks:
        dd1 = dd1 * masks["pool1"]
    dr1 = _pool_backward(dd1, pcache1)
    dc1 = dr1 * (c1 > 0.0)
    _, grads["conv1_w"], grads["conv1_b"] = _conv_backward(dc1, cache1)
    return loss, grads


def cnn_fit(
    X,
    Y,
    epochs: int = 400,
    batch_size: int = 50,
    optimizer: str = "rmsprop",
    learning_rate: float | None = None,
    dropout_conv: float = 0.25,
    dropout_dense: float = 0.5,
    momentum: float = 0.9,
    rms_decay: float = 0.9,
    seed: int = 0,
    scale_targets: bool = True,
) -> CnnModel:
    """Train the convolutional regressor on (n, side, side) grids.

    X may also hold (n, side*side) feature rows, read as row-major grids.

    loss_history records the full-training-set MSE (dropout off, scaled
    target space) per epoch; a non-finite loss aborts with
    TrainingDiverged naming the epoch.
    """
    X = _check_grids(X)
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim == 1:
        Y = Y[:, None]
    if X.shape[0] != Y.shape[0]:
        raise ValueError("X and Y must have matching row counts")
    for rate in (dropout_conv, dropout_dense):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rates must be in [0, 1), got {rate}")
    if epochs < 0 or batch_size < 1:
        raise ValueError("epochs must be >= 0 and batch_size >= 1")

    model = init_cnn(X.shape[1], Y.shape[1], seed)
    model.dropout_conv = dropout_conv
    model.dropout_dense = dropout_dense
    if scale_targets:
        model.target_offset, model.target_scale = 48.0, 48.0
    Ys = (Y - model.target_offset) / model.target_scale

    rng = np.random.default_rng(seed + 1)
    names = list(PARAM_NAMES)
    params = [model.params[k] for k in names]
    opt = make_optimizer(optimizer, params, learning_rate, momentum, rms_decay)
    n = X.shape[0]
    half = model.side // 2
    quarter = model.side // 4
    for epoch in range(epochs):
        order = rng.permutation(n)
        for batch in batch_slices(n, batch_size, order):
            masks = None
            if dropout_conv > 0.0 or dropout_dense > 0.0:
                b = batch.size
                masks = {
                    "pool1": dropout_mask(rng, (b, 32, half, half), dropout_conv),
                    "pool2": dropout_mask(rng, (b, 8, quarter, quarter), dropout_conv),
                    "dense": dropout_mask(rng, (b, 100), dropout_dense),
                }
            loss, grads = loss_and_gradients(model, X[batch], Ys[batch], masks)
            if not np.isfinite(loss):
                raise TrainingDiverged(f"cnn loss became non-finite at epoch {epoch}")
            opt.step(params, [grads[k] for k in names])
        epoch_loss, _ = loss_and_gradients(model, X, Ys)
        if not np.isfinite(epoch_loss):
            raise TrainingDiverged(f"cnn loss became non-finite at epoch {epoch}")
        model.loss_history.append(epoch_loss)
    return model


def cnn_predict(model: CnnModel, X) -> np.ndarray:
    """Deterministic forward pass (dropout off), unscaled outputs."""
    X = _check_grids(X, model.side)
    p = model.params
    x = X[:, None, :, :]
    c1, _ = _conv_forward(x, p["conv1_w"], p["conv1_b"])
    p1, _ = _pool_forward(np.maximum(c1, 0.0))
    c2, _ = _conv_forward(p1, p["conv2_w"], p["conv2_b"])
    p2, _ = _pool_forward(np.maximum(c2, 0.0))
    h = np.tanh(p2.reshape(X.shape[0], -1) @ p["dense_w"] + p["dense_b"])
    pred = h @ p["out_w"] + p["out_b"]
    return pred * model.target_scale + model.target_offset
