"""Small convolutional regressor for single-channel square grids.

A fit and a predict take (n, d) feature rows, as every regressor does,
and read the first side*side values of each row row-major as a side x
side grid, side = grid_side(d): the largest positive multiple of 4 (the
two 2x2 pools each halve it) whose square fits in d. So 256 PCA
components form a 16x16 grid and 179 the 12x12 grid of the top 144.
Architecture:
conv 32@5x5 (same padding) -> ReLU -> 2x2 max pool -> dropout, conv
8@3x3 (same padding) -> ReLU -> 2x2 max pool -> dropout, flatten
((side/4)^2 * 8, 128 at side 16) -> dense 100 tanh -> dropout -> linear
output. Convolution and pooling forward/backward are written out by
hand; the dense head is the MLP's code. The loss is MSE, and the network
trains on inputs and targets standardized by optim.fit_scaling (learned
from the training split); predict maps its output back. The arrays of a
fit are views of one parameter vector.

Layout and blocking. Activations are held channel-major, (c, n, h, w),
and a convolution's patches as one (c*kh*kw, n*h*w) matrix with rows in
(c, kh, kw) order (im2col). Each direction of a convolution is then one
BLAS product per row block: the forward is W @ cols, the weight gradient
dout @ cols.T, and the input gradient is the same-padding convolution of
dout with the flipped kernel. Both convolution stages run on row blocks
of _BLOCK_CELLS grid cells, which keeps a block's patches and
activations in cache; the dense head takes all rows at once, because
OpenBLAS rounds a product differently for different row counts. Training,
the training-set check after the last epoch and cnn_predict share this
code. The deterministic passes keep no block's caches, so a predict holds
one block's patches, not all n rows'. Dropout masks keep their (n, c, h,
w) shape and are read through transposed views.

The products sum in an order the BLAS build chooses by shape and thread
count, so parameters, losses and predictions may differ in their last
bits from the reference layers tests/test_cnn.py keeps, and across BLAS
builds and thread counts; the tests hold them to the reference within a
stated relative tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .._inputs import check_count, check_fit_inputs, check_rows
from .mlp import _backward as _head_backward, _forward as _head_forward, layers_chain
from .optim import Scaling, fit_scaling, glorot_uniform, mse_loss_and_grad, param_vector, train

PARAM_NAMES = (
    "conv1_w", "conv1_b", "conv2_w", "conv2_b",
    "dense_w", "dense_b", "out_w", "out_b",
)


@dataclass(eq=False)
class CnnModel:
    """Parameter tensors in PARAM_NAMES order plus training metadata and scaling.

    n_features is the width of the rows a predict takes, of which the
    first side*side form the grid; None means side*side, the width of
    every model file written before the entry existed. Building one
    raises ValueError unless params holds exactly the PARAM_NAMES, side
    is a positive multiple of 4, grid_side(n_features) is side, and the
    shapes chain: conv1_w is (o1, 1, kh, kw), conv2_w is (o2, o1, kh,
    kw), each conv bias has one entry per filter, dense_w has
    (side/4)^2 * o2 rows, and the dense head chains as an MLP's layers do.
    """

    params: dict[str, np.ndarray]
    side: int = 16
    dropout_conv: float = 0.25
    dropout_dense: float = 0.5
    scaling: Scaling = Scaling()
    loss_history: list[float] = field(default_factory=list)
    n_features: int | None = None

    def __post_init__(self):
        p = self.params
        if sorted(p) != sorted(PARAM_NAMES):
            raise ValueError(f"cnn params must be {PARAM_NAMES}, got {tuple(p)}")
        if grid_side(self.side * self.side) != self.side:
            raise ValueError(f"grid side must be positive and divisible by 4, got {self.side}")
        if self.n_features is None:
            self.n_features = self.side * self.side
        if grid_side(self.n_features) != self.side:
            raise ValueError(f"cnn rows of {self.n_features} features do not hold the "
                             f"{self.side}x{self.side} grid their model reads")
        w1, w2 = p["conv1_w"], p["conv2_w"]
        if not (
            w1.ndim == 4 and w1.shape[1] == 1 and p["conv1_b"].shape == w1.shape[:1]
            and w2.ndim == 4 and w2.shape[1] == w1.shape[0] and p["conv2_b"].shape == w2.shape[:1]
            and layers_chain(*_head(p))
            and p["dense_w"].shape[0] == (self.side // 4) ** 2 * w2.shape[0]
        ):
            shapes = ", ".join(f"{name} {p[name].shape}" for name in PARAM_NAMES)
            raise ValueError(f"cnn parameter shapes do not chain at side {self.side}: {shapes}")


def grid_side(n_features: int) -> int | None:
    """Side of the square grid the cnn reads from rows of n_features values.

    The two 2x2 pools each halve the grid, so the side is the largest
    positive multiple of 4 whose square fits in n_features; None below 16.
    """
    side = math.isqrt(max(n_features, 0)) // 4 * 4
    return side if side > 0 else None


#: Grid cells per row block of the convolution stages: a block's patch
#: matrices and activations then stay in a 2 MB cache. Measured with the
#: matmul convolutions on 12x12 grids (1 BLAS thread, 2-vCPU Xeon): a
#: 50-row gradient call takes 6-8 ms at 2048 cells and unblocked alike,
#: and a 180-row predict 8-11 ms at 2048 cells against 17-20 ms unblocked.
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
    out = (w.reshape(o, -1) @ cols).reshape(o, n, h, wd)
    out += b[:, None, None, None]
    return out, (cols, w)


def _add_conv_grads(dout: np.ndarray, cache, dw: np.ndarray, db: np.ndarray) -> None:
    """Adds a convolution's weight and bias gradients over the rows of the
    (o,n,h,w) output gradient dout to dw and db."""
    cols, _ = cache
    d = dout.reshape(dout.shape[0], -1)
    dwk = dw.reshape(d.shape[0], -1)
    dwk += d @ cols.T
    db += d.sum(axis=1)


def _conv_input_grad(dout: np.ndarray, cache):
    """dx (c,n,h,w) of an odd-kernel convolution, given the (o,n,h,w)
    gradient of its output: the same-padding convolution of dout with the
    kernel flipped in both spatial axes and its channel axes swapped."""
    _, w = cache
    flipped = np.ascontiguousarray(w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
    return _conv_forward(dout, flipped, np.zeros(w.shape[1]))[0]


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
    """Glorot-uniform initialized network, deterministic per seed; a side
    that is not a positive multiple of 4, or a seed that is not an integer
    >= 0 (a bool is not), raises ValueError."""
    check_count("seed", seed, 0)
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


def _head(p: dict[str, np.ndarray]):
    """The dense head's weights and biases, as the MLP holds them."""
    return [p["dense_w"], p["out_w"]], [p["dense_b"], p["out_b"]]


def _forward(
    p: dict[str, np.ndarray],
    X: np.ndarray,
    masks: dict[str, np.ndarray] | None = None,
):
    """Network output for (n, side, side) grids, and the cache backprop reads.

    The convolution stages run on row blocks, the dense head on all rows
    at once. masks, when given, holds dropout masks under keys 'pool1',
    'pool2', 'dense', (n, ...) each; None runs the deterministic network.
    """
    flat = np.empty((X.shape[0], p["dense_w"].shape[0]))
    blocks = []
    for rows in _row_blocks(X):
        block_masks = {k: masks[k][rows] for k in ("pool1", "pool2")} if masks else None
        flat[rows], caches = _conv_stages(p, X[rows], block_masks)
        blocks.append((rows, caches))
    pred, head = _head_forward(*_head(p), flat, [masks["dense"]] if masks else None)
    return pred, (blocks, head)


def _output(p: dict[str, np.ndarray], X: np.ndarray) -> np.ndarray:
    """Deterministic network output, keeping no block's caches."""
    flat = np.empty((X.shape[0], p["dense_w"].shape[0]))
    for rows in _row_blocks(X):
        flat[rows] = _conv_stages(p, X[rows])[0]
    return _head_forward(*_head(p), flat)[0]


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
    pred, (blocks, head) = _forward(p, X, masks)
    loss, dpred = mse_loss_and_grad(pred, Y)
    # the convolutions add their gradients block by block
    grads = {k: np.zeros_like(p[k]) for k in ("conv1_w", "conv1_b", "conv2_w", "conv2_b")}
    (grads["dense_w"], grads["out_w"]), (grads["dense_b"], grads["out_b"]), dd2 = _head_backward(
        _head(p)[0], head, dpred, [masks["dense"]] if masks else None, input_grad=True
    )
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
    seed: int = 0,
) -> CnnModel:
    """Train the convolutional regressor on (n, d) feature rows, reading
    the first side*side values of each row row-major as a side x side
    grid, side = grid_side(d); X's other columns are not read. The grids
    and Y are scaled by fit_scaling(grids, Y), and the model keeps d as
    n_features. X that is not 2-d, or narrower than 16, raises ValueError.

    loss_history records, per epoch, the row-weighted mean of its
    mini-batch losses (under dropout, scaled target space), as optim.train
    records it; one forward pass over the whole training set (dropout off)
    after the last epoch checks the final network. A non-finite loss
    aborts with TrainingDiverged naming the epoch. NaN or inf in X or Y,
    or a std of X or of a Y column that overflows, raises ValueError, as
    does a setting init_cnn or optim.train refuses.
    """
    if np.ndim(X) != 2:
        raise ValueError(f"X must be (n, d) rows, got shape {np.shape(X)}")
    X, Y = check_fit_inputs(X, Y)
    side = grid_side(X.shape[1])
    if side is None:
        raise ValueError(f"cnn needs at least 16 features for its smallest (4x4) grid; "
                         f"got {X.shape[1]} columns")
    n_features, X = X.shape[1], _grids(X, side)

    model = init_cnn(side, Y.shape[1], seed)
    model.n_features = n_features
    model.dropout_conv = dropout_conv
    model.dropout_dense = dropout_dense
    model.scaling = fit_scaling(X, Y)
    X, Ys = model.scaling.inputs(X), model.scaling.targets(Y)

    params, views = param_vector([model.params[k] for k in PARAM_NAMES])
    model.params = dict(zip(PARAM_NAMES, views))
    half, quarter = model.side // 2, model.side // 4

    def batch_step(rows, masks):
        if masks is not None:
            masks = dict(zip(("pool1", "pool2", "dense"), masks))
        loss, grads = loss_and_gradients(model, X[rows], Ys[rows], masks)
        return loss, [grads[k] for k in PARAM_NAMES]

    # all three masks are drawn whenever either rate is above 0
    model.loss_history = train(
        params, Ys, optimizer=optimizer, learning_rate=learning_rate,
        epochs=epochs, batch_size=batch_size, seed=seed,
        dropout=[
            ((32, half, half), dropout_conv),
            ((8, quarter, quarter), dropout_conv),
            ((100,), dropout_dense),
        ],
        batch_step=batch_step, predict=lambda: _output(model.params, X), name="cnn",
    )
    return model


def _grids(X: np.ndarray, side: int) -> np.ndarray:
    """(n, side, side) grids of the first side*side values of X's rows, as
    one contiguous block: sums over them then run in the same order
    whatever X's other columns, so a fit on X equals one on the grids alone."""
    return np.ascontiguousarray(X[:, : side * side]).reshape(-1, side, side)


def cnn_predict(model: CnnModel, X) -> np.ndarray:
    """Deterministic forward pass (dropout off) on (n, n_features) rows,
    read as grids as cnn_fit reads them; outputs in target units. Rows of
    any other width raise ValueError."""
    X = _grids(check_rows(X, model.n_features), model.side)
    return model.scaling.outputs(_output(model.params, model.scaling.inputs(X)))
