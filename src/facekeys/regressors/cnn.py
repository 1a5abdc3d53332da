"""Small convolutional regressor for single-channel square grids.

The grid side may be any positive multiple of 4 (16 for 256 PCA
components), because the two 2x2 pools each halve it. Architecture:
conv 32@5x5 (same padding) -> ReLU -> 2x2 max pool -> dropout, conv
8@3x3 (same padding) -> ReLU -> 2x2 max pool -> dropout, flatten
((side/4)^2 * 8, 128 at side 16) -> dense 100 tanh -> dropout -> linear
output. Convolution and pooling forward/backward are written out by
hand; the loss is MSE and targets train in the scaled space
y' = (y - 48) / 48.

Layout and blocking. Activations are held channel-major, (c, n, h, w),
and a convolution's patches as one (c*kh*kw, n*h*w) matrix with rows in
(c, kh, kw) order. The forward einsum "kN,ok->oN" and each kernel
offset's input-gradient einsum "oN,oc->cN" then run their inner loops
over all n*h*w contiguous cells of a block instead of one row's few
cells. Each offset's patch gradient is added straight into the padded
input gradient, so no patch-gradient array is formed. Both convolution
stages run on row blocks of _BLOCK_CELLS grid cells, which keeps a
block's patches and activations in cache; the dense stages take all rows
at once. Training, the epoch loss and cnn_predict share this code. The
deterministic passes keep no block's caches, so a predict holds one
block's patches, not all n rows'.

Every parameter, loss and prediction is bit-identical to the n-major
(n, c, kh, kw, h, w) patch layout this replaced; tests/test_cnn.py keeps
its layers as the reference. The reasons:
- numpy's einsum (without optimize) computes each output of the forward
  and input-gradient reductions as a sequential multiply-add over the
  reduced axis: (c, kh, kw) order for the forward, o order for the input
  gradient. Layout, block size and row count do not change those sums.
- The weight gradient is a SIMD dot product over one row's h*w cells,
  added to dw once per row in row order. If both operands were
  contiguous over (n, h, w), numpy would merge those axes into one long
  dot product and round differently. So each row adds its own einsum, and
  the bias gradient adds each row's cell sums the same way.
- OpenBLAS rounds a product differently for different row counts, so the
  dense stages never run on row blocks.
- Dropout masks keep their (n, c, h, w) shape and are read through
  transposed views. Pooling, relu and masking are elementwise and exact.
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


#: Grid cells per row block of the convolution stages: a block's patch
#: matrices and activations then stay in a 2 MB cache.
_BLOCK_CELLS = 2048


def _conv_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """Stride-1 same-padding convolution. x: (c,n,h,w), w: (o,c,kh,kw).

    Returns the (o,n,h,w) output and the cache the gradients read: the
    (c*kh*kw, n*h*w) patch matrix and w.
    """
    c, n, h, wd = x.shape
    o, _, kh, kw = w.shape
    ph, pw = kh // 2, kw // 2
    xp = np.zeros((c, n, h + 2 * ph, wd + 2 * pw))
    xp[:, :, ph : ph + h, pw : pw + wd] = x
    patches = np.empty((c, kh, kw, n, h, wd))
    for di in range(kh):
        for dj in range(kw):
            patches[:, di, dj] = xp[:, :, di : di + h, dj : dj + wd]
    cols = patches.reshape(c * kh * kw, n * h * wd)
    out = np.einsum("kN,ok->oN", cols, w.reshape(o, -1)).reshape(o, n, h, wd)
    out += b[:, None, None, None]
    return out, (cols, w)


def _add_conv_grads(dout: np.ndarray, cache, dw: np.ndarray, db: np.ndarray) -> None:
    """Adds a convolution's weight and bias gradients over the rows of the
    (o,n,h,w) output gradient dout to dw and db: row by row, in row order,
    dw gains the row's einsum over its h*w cells and db the row's cell sums.
    """
    cols, _ = cache
    o, n = dout.shape[:2]
    rows = cols.reshape(cols.shape[0], n, -1)
    d = dout.reshape(o, n, -1)
    cell_sums = d.sum(axis=2)
    dwk = dw.reshape(o, -1)
    for i in range(n):
        dwk += np.einsum("oP,kP->ok", d[:, i], rows[:, i])
        db += cell_sums[:, i]


def _conv_input_grad(dout: np.ndarray, cache):
    """dx (c,n,h,w) of a convolution, given the C-contiguous (o,n,h,w)
    gradient of its output: each kernel offset's patch gradient is added
    straight into the padded input gradient (col2im)."""
    _, w = cache
    o, c, kh, kw = w.shape
    _, n, h, wd = dout.shape
    ph, pw = kh // 2, kw // 2
    d = dout.reshape(o, -1)
    dxp = np.zeros((c, n, h + 2 * ph, wd + 2 * pw))
    dpatch = np.empty((c, n, h, wd))
    for di in range(kh):
        for dj in range(kw):
            np.einsum("oN,oc->cN", d, w[:, :, di, dj], out=dpatch.reshape(c, -1))
            dxp[:, :, di : di + h, dj : dj + wd] += dpatch
    return dxp[:, :, ph : ph + h, pw : pw + wd]


#: Offsets of the four cells of a 2x2 pooling window, in row-major order.
_WINDOW = ((0, 0), (0, 1), (1, 0), (1, 1))


def _pool_forward(x: np.ndarray):
    """2x2 max pool, stride 2, over the last two axes; the cache is the
    input and the output."""
    cells = [x[:, :, i::2, j::2] for i, j in _WINDOW]
    out = np.maximum(np.maximum(cells[0], cells[1]), np.maximum(cells[2], cells[3]))
    return out, (x, out)


def _pool_backward(dout: np.ndarray, cache):
    """Routes each window's gradient to its first max in row-major order."""
    x, out = cache
    dx = np.empty(x.shape)  # the four cells below write every element
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


def _channel_major(a: np.ndarray) -> np.ndarray:
    """(c,n,h,w) view of an (n,c,h,w) array, or the reverse."""
    return a.transpose(1, 0, 2, 3)


def _row_blocks(X: np.ndarray):
    """Row slices of (n, side, side) grids, _BLOCK_CELLS grid cells each
    (at least one row)."""
    step = max(1, _BLOCK_CELLS // (X.shape[1] * X.shape[2]))
    return [slice(r, r + step) for r in range(0, X.shape[0], step)]


def _conv_stages(p: dict[str, np.ndarray], X: np.ndarray, masks=None):
    """The two conv -> relu -> pool -> dropout stages on (n, side, side)
    grids; the (n, flat) rows the dense layer reads and the layer caches.

    masks, when given, holds the 'pool1' and 'pool2' dropout masks of
    these rows, (n, c, h, w) each.
    """
    c1, conv1 = _conv_forward(X[None], p["conv1_w"], p["conv1_b"])
    r1 = np.maximum(c1, 0.0, out=c1)  # relu in place: r1 > 0 exactly where c1 > 0
    p1, pool1 = _pool_forward(r1)
    d1 = p1 * _channel_major(masks["pool1"]) if masks else p1

    c2, conv2 = _conv_forward(d1, p["conv2_w"], p["conv2_b"])
    r2 = np.maximum(c2, 0.0, out=c2)
    p2, pool2 = _pool_forward(r2)
    d2 = p2 * _channel_major(masks["pool2"]) if masks else p2
    return _channel_major(d2).reshape(X.shape[0], -1), (conv1, pool1, conv2, pool2)


def _dense_stages(p: dict[str, np.ndarray], flat: np.ndarray, masks=None):
    """dense tanh -> dropout -> linear output; the output and the tanh
    activations before and after dropout."""
    h = np.tanh(flat @ p["dense_w"] + p["dense_b"])
    hd = h * masks["dense"] if masks else h
    return hd @ p["out_w"] + p["out_b"], h, hd


def _forward(
    p: dict[str, np.ndarray],
    X: np.ndarray,
    masks: dict[str, np.ndarray] | None = None,
):
    """Network output for (n, side, side) grids, and the cache backprop reads.

    The convolution stages run on row blocks, the dense stages on all rows
    at once. masks, when given, holds dropout masks under keys 'pool1',
    'pool2', 'dense', (n, ...) each; None runs the deterministic network.
    """
    flat = np.empty((X.shape[0], p["dense_w"].shape[0]))
    blocks = []
    for rows in _row_blocks(X):
        block_masks = {k: masks[k][rows] for k in ("pool1", "pool2")} if masks else None
        flat[rows], caches = _conv_stages(p, X[rows], block_masks)
        blocks.append((rows, caches))
    pred, h, hd = _dense_stages(p, flat, masks)
    return pred, (blocks, flat, h, hd)


def _output(p: dict[str, np.ndarray], X: np.ndarray) -> np.ndarray:
    """Deterministic network output, keeping no block's caches."""
    flat = np.empty((X.shape[0], p["dense_w"].shape[0]))
    for rows in _row_blocks(X):
        flat[rows] = _conv_stages(p, X[rows])[0]
    return _dense_stages(p, flat)[0]


def loss_and_gradients(
    model: CnnModel,
    X: np.ndarray,
    Y: np.ndarray,
    masks: dict[str, np.ndarray] | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """MSE loss and gradients for every parameter tensor.

    masks, when given, holds dropout masks under keys 'pool1', 'pool2',
    'dense', (n, ...) each; None runs the deterministic network.
    """
    p = model.params
    pred, (blocks, flat, h, hd) = _forward(p, X, masks)
    loss, dpred = mse_loss_and_grad(pred, Y)
    # the convolutions add their gradients block by block
    grads = {k: np.zeros_like(p[k]) for k in ("conv1_w", "conv1_b", "conv2_w", "conv2_b")}
    grads["out_w"] = hd.T @ dpred
    grads["out_b"] = dpred.sum(axis=0)

    dh = dpred @ p["out_w"].T
    if masks:
        dh = dh * masks["dense"]
    dz = dh * (1.0 - h * h)
    grads["dense_w"] = flat.T @ dz
    grads["dense_b"] = dz.sum(axis=0)

    dd2 = dz @ p["dense_w"].T
    for rows, (conv1, pool1, conv2, pool2) in blocks:
        dd = dd2[rows].reshape(_channel_major(pool2[1]).shape)
        if masks:
            dd = dd * masks["pool2"][rows]
        dc2 = _pool_backward(_channel_major(dd), pool2)
        dc2 *= pool2[0] > 0.0  # relu: the pool's input is > 0 exactly where c2 is
        _add_conv_grads(dc2, conv2, grads["conv2_w"], grads["conv2_b"])
        dd1 = _conv_input_grad(dc2, conv2)
        if masks:
            dd1 = dd1 * _channel_major(masks["pool1"][rows])
        dc1 = _pool_backward(dd1, pool1)
        dc1 *= pool1[0] > 0.0
        # conv1's input is the data, so its input gradient is never formed
        _add_conv_grads(dc1, conv1, grads["conv1_w"], grads["conv1_b"])
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
    if X.shape[0] == 0:
        raise ValueError("cannot fit a cnn on 0 rows")
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
        return mse_loss_and_grad(_output(model.params, X), Ys)[0]

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
    pred = _output(model.params, _check_grids(X, model.side))
    return pred * model.target_scale + model.target_offset
