"""Small convolutional regressor for single-channel square grids.

The grid side may be any positive multiple of 4 (16 for 256 PCA
components), because the two 2x2 pools each halve it. Architecture:
conv 32@5x5 (same padding) -> ReLU -> 2x2 max pool -> dropout, conv
8@3x3 (same padding) -> ReLU -> 2x2 max pool -> dropout, flatten
((side/4)^2 * 8, 128 at side 16) -> dense 100 tanh -> dropout -> linear
output. Convolution and pooling forward/backward are written out by
hand; the loss is MSE and targets train in the scaled space
y' = (y - 48) / 48.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._inputs import check_fit_inputs
from .optim import glorot_uniform, make_optimizer, mse_loss_and_grad, train

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
    kh, kw = w.shape[2:]
    ph, pw = kh // 2, kw // 2
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    patches = np.empty((n, c, kh, kw, h, wd))
    for di in range(kh):
        for dj in range(kw):
            patches[:, :, di, dj] = xp[:, :, di : di + h, dj : dj + wd]
    out = np.einsum("ncuvhw,ocuv->nohw", patches, w)
    out += b[None, :, None, None]
    return out, (patches, w)


def _conv_weight_grads(dout: np.ndarray, cache):
    """dw and db of a convolution, given the gradient of its output."""
    patches, _ = cache
    return np.einsum("nohw,ncuvhw->ocuv", dout, patches), dout.sum(axis=(0, 2, 3))


def _conv_input_grad(dout: np.ndarray, cache):
    """dx of a convolution: each patch's gradient, folded back onto the
    padded input (col2im)."""
    patches, w = cache
    n, c, kh, kw, h, wd = patches.shape
    ph, pw = kh // 2, kw // 2
    dpatches = np.einsum("nohw,ocuv->ncuvhw", dout, w)
    dxp = np.zeros((n, c, h + 2 * ph, wd + 2 * pw))
    for di in range(kh):
        for dj in range(kw):
            dxp[:, :, di : di + h, dj : dj + wd] += dpatches[:, :, di, dj]
    return dxp[:, :, ph : ph + h, pw : pw + wd]


#: Offsets of the four cells of a 2x2 pooling window, in row-major order.
_WINDOW = ((0, 0), (0, 1), (1, 0), (1, 1))


def _pool_forward(x: np.ndarray):
    """2x2 max pool, stride 2; the cache is the input and the output."""
    cells = [x[:, :, i::2, j::2] for i, j in _WINDOW]
    out = np.maximum(np.maximum(cells[0], cells[1]), np.maximum(cells[2], cells[3]))
    return out, (x, out)


def _pool_backward(dout: np.ndarray, cache):
    """Routes each window's gradient to its first max in row-major order."""
    x, out = cache
    dx = np.zeros(x.shape)
    free = np.ones(out.shape, dtype=bool)
    for i, j in _WINDOW:
        hit = x[:, :, i::2, j::2] == out
        hit &= free
        free &= ~hit
        np.multiply(dout, hit, out=dx[:, :, i::2, j::2])
    return dx


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


def _forward(
    p: dict[str, np.ndarray],
    X: np.ndarray,
    masks: dict[str, np.ndarray] | None = None,
):
    """Network output for (n, side, side) grids, and the cache backprop reads.

    masks, when given, holds dropout masks under keys 'pool1', 'pool2',
    'dense'; None runs the deterministic network.
    """
    c1, conv1 = _conv_forward(X[:, None, :, :], p["conv1_w"], p["conv1_b"])
    r1 = np.maximum(c1, 0.0, out=c1)  # relu in place: r1 > 0 exactly where c1 > 0
    p1, pool1 = _pool_forward(r1)
    d1 = p1 * masks["pool1"] if masks else p1

    c2, conv2 = _conv_forward(d1, p["conv2_w"], p["conv2_b"])
    r2 = np.maximum(c2, 0.0, out=c2)
    p2, pool2 = _pool_forward(r2)
    d2 = p2 * masks["pool2"] if masks else p2

    h = np.tanh(d2.reshape(X.shape[0], -1) @ p["dense_w"] + p["dense_b"])
    hd = h * masks["dense"] if masks else h
    pred = hd @ p["out_w"] + p["out_b"]
    return pred, (conv1, pool1, conv2, pool2, d2, h, hd)


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
    pred, (conv1, pool1, conv2, pool2, d2, h, hd) = _forward(p, X, masks)
    loss, dpred = mse_loss_and_grad(pred, Y)
    grads: dict[str, np.ndarray] = {}
    grads["out_w"] = hd.T @ dpred
    grads["out_b"] = dpred.sum(axis=0)

    dh = dpred @ p["out_w"].T
    if masks:
        dh = dh * masks["dense"]
    dz = dh * (1.0 - h * h)
    grads["dense_w"] = d2.reshape(X.shape[0], -1).T @ dz
    grads["dense_b"] = dz.sum(axis=0)

    dd2 = (dz @ p["dense_w"].T).reshape(d2.shape)
    if masks:
        dd2 = dd2 * masks["pool2"]
    dc2 = _pool_backward(dd2, pool2)
    dc2 *= pool2[0] > 0.0  # relu: the pool's input is > 0 exactly where c2 is
    grads["conv2_w"], grads["conv2_b"] = _conv_weight_grads(dc2, conv2)
    dd1 = _conv_input_grad(dc2, conv2)
    if masks:
        dd1 = dd1 * masks["pool1"]
    dc1 = _pool_backward(dd1, pool1)
    dc1 *= pool1[0] > 0.0
    # conv1's input is the data, so its input gradient is never formed
    grads["conv1_w"], grads["conv1_b"] = _conv_weight_grads(dc1, conv1)
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
    target space) per epoch, computed by the forward pass alone; a
    non-finite loss aborts with TrainingDiverged naming the epoch. NaN or
    inf in X or Y raises ValueError.
    """
    X = _check_grids(X)
    Y = check_fit_inputs(X.reshape(X.shape[0], -1), Y)[1]
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

    params = [model.params[k] for k in PARAM_NAMES]
    half, quarter = model.side // 2, model.side // 4

    def batch_step(rows, masks):
        if masks is not None:
            masks = dict(zip(("pool1", "pool2", "dense"), masks))
        loss, grads = loss_and_gradients(model, X[rows], Ys[rows], masks)
        return loss, [grads[k] for k in PARAM_NAMES]

    def full_loss():
        return mse_loss_and_grad(_forward(model.params, X)[0], Ys)[0]

    # all three masks are drawn whenever either rate is above 0
    model.loss_history = train(
        params, make_optimizer(optimizer, params, learning_rate, momentum, rms_decay),
        X.shape[0], epochs=epochs, batch_size=batch_size, seed=seed,
        dropout=[
            ((32, half, half), dropout_conv),
            ((8, quarter, quarter), dropout_conv),
            ((100,), dropout_dense),
        ],
        batch_step=batch_step, full_loss=full_loss, name="cnn",
    )
    return model


def cnn_predict(model: CnnModel, X) -> np.ndarray:
    """Deterministic forward pass (dropout off), unscaled outputs."""
    pred, _ = _forward(model.params, _check_grids(X, model.side))
    return pred * model.target_scale + model.target_offset
