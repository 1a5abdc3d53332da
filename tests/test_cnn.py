import math
import os
import subprocess
import sys

import numpy as np
import pytest

from facekeys.regressors.cnn import (
    PARAM_NAMES,
    CnnModel,
    _add_conv_grads,
    _conv_forward,
    _conv_input_grad,
    _forward,
    _pool_backward,
    _pool_forward,
    cnn_fit,
    cnn_predict,
    grid_side,
    init_cnn,
    loss_and_gradients,
)
from facekeys.regressors.optim import (
    Scaling,
    TrainingDiverged,
    batch_slices,
    dropout_mask,
    make_optimizer,
    mse_loss_and_grad,
)
from test_golden import CHILD_PATH, RTOL


def oracle_conv(x, w, b):
    """Reference same-padding cross-correlation with explicit loops."""
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    ph, pw = kh // 2, kw // 2
    out = np.zeros((n, o, h, wd))
    for i in range(n):
        for oc in range(o):
            for r in range(h):
                for col in range(wd):
                    acc = b[oc]
                    for ic in range(c):
                        for u in range(kh):
                            for v in range(kw):
                                rr, cc = r + u - ph, col + v - pw
                                if 0 <= rr < h and 0 <= cc < wd:
                                    acc += x[i, ic, rr, cc] * w[oc, ic, u, v]
                    out[i, oc, r, col] = acc
    return out


# ---- references: the layers and the fit loop the package replaced --------------


def reference_conv_forward(x, w, b):
    """Same-padding convolution as one einsum over a (n,c,kh,kw,h,w) patch block."""
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


def reference_conv_backward(dout, cache):
    """dx, dw, db in one call; dx folds the patch gradients back (col2im)."""
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


def reference_pool_forward(x):
    """2x2 max pool through an argmax over each window's four cells."""
    n, c, h, w = x.shape
    windows = (
        x.reshape(n, c, h // 2, 2, w // 2, 2)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(n, c, h // 2, w // 2, 4)
    )
    arg = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, arg[..., None], axis=-1)[..., 0]
    return out, (arg, x.shape)


def reference_pool_backward(dout, cache):
    arg, x_shape = cache
    n, c, h, w = x_shape
    dwindows = np.zeros((n, c, h // 2, w // 2, 4))
    np.put_along_axis(dwindows, arg[..., None], dout[..., None], axis=-1)
    return (
        dwindows.reshape(n, c, h // 2, w // 2, 2, 2)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(n, c, h, w)
    )


def reference_loss_and_gradients(model, X, Y, masks=None):
    """The network's loss and gradients with the reference layers, conv1's
    (unused) input gradient included."""
    p = model.params
    x = X[:, None, :, :]

    c1, cache1 = reference_conv_forward(x, p["conv1_w"], p["conv1_b"])
    r1 = np.maximum(c1, 0.0)
    p1, pcache1 = reference_pool_forward(r1)
    d1 = p1 * masks["pool1"] if masks else p1

    c2, cache2 = reference_conv_forward(d1, p["conv2_w"], p["conv2_b"])
    r2 = np.maximum(c2, 0.0)
    p2, pcache2 = reference_pool_forward(r2)
    d2 = p2 * masks["pool2"] if masks else p2

    flat = d2.reshape(X.shape[0], -1)
    h_dense = np.tanh(flat @ p["dense_w"] + p["dense_b"])
    hd = h_dense * masks["dense"] if masks else h_dense
    pred = hd @ p["out_w"] + p["out_b"]

    loss, dpred = mse_loss_and_grad(pred, Y)
    grads = {"out_w": hd.T @ dpred, "out_b": dpred.sum(axis=0)}
    dh = dpred @ p["out_w"].T
    if masks:
        dh = dh * masks["dense"]
    dz = dh * (1.0 - h_dense * h_dense)
    grads["dense_w"] = flat.T @ dz
    grads["dense_b"] = dz.sum(axis=0)
    dd2 = (dz @ p["dense_w"].T).reshape(d2.shape)
    if masks:
        dd2 = dd2 * masks["pool2"]
    dc2 = reference_pool_backward(dd2, pcache2) * (c2 > 0.0)
    dd1, grads["conv2_w"], grads["conv2_b"] = reference_conv_backward(dc2, cache2)
    if masks:
        dd1 = dd1 * masks["pool1"]
    dc1 = reference_pool_backward(dd1, pcache1) * (c1 > 0.0)
    _, grads["conv1_w"], grads["conv1_b"] = reference_conv_backward(dc1, cache1)
    return loss, grads


def reference_cnn_fit(X, Y, epochs, batch_size, dropout_conv, dropout_dense, seed):
    """The fit loop cnn_fit ran before the shared loop, on the reference
    network, each array with its own optimizer; the model and its full-set
    loss history.

    The model's loss_history holds each epoch's row-weighted mean of its
    batch losses, summed in batch order; the second list holds each
    epoch's loss from a full gradient pass (dropout off), the history
    cnn_fit once recorded. X is scaled by its mean and std over all
    entries, Y by each column's mean and std. X holds (n, side*side) rows."""
    side = math.isqrt(X.shape[1])
    X = X.reshape(-1, side, side)
    model = init_cnn(X.shape[1], Y.shape[1], seed)
    X = (X - X.mean()) / X.std()
    Ys = (Y - Y.mean(axis=0)) / Y.std(axis=0)
    rng = np.random.default_rng(seed + 1)
    params = [model.params[k] for k in PARAM_NAMES]
    opts = [make_optimizer("rmsprop", p) for p in params]
    n = X.shape[0]
    half, quarter = model.side // 2, model.side // 4
    full_history = []
    for epoch in range(epochs):
        order = rng.permutation(n)
        total = 0.0
        for batch in batch_slices(n, batch_size, order):
            masks = None
            if dropout_conv > 0.0 or dropout_dense > 0.0:
                b = batch.size
                masks = {
                    "pool1": dropout_mask(rng, (b, 32, half, half), dropout_conv),
                    "pool2": dropout_mask(rng, (b, 8, quarter, quarter), dropout_conv),
                    "dense": dropout_mask(rng, (b, 100), dropout_dense),
                }
            loss, grads = reference_loss_and_gradients(model, X[batch], Ys[batch], masks)
            if not np.isfinite(loss):
                raise TrainingDiverged(f"cnn loss became non-finite at epoch {epoch}")
            total += loss * batch.size
            for opt, p, k in zip(opts, params, PARAM_NAMES):
                opt.step(p, grads[k])
        model.loss_history.append(total / n)
        full_history.append(reference_loss_and_gradients(model, X, Ys)[0])
    return model, full_history


def reference_forward(model, X):
    """cnn_predict's network on all rows at once, through the reference layers."""
    p, s = model.params, model.scaling
    X = (X.reshape(-1, model.side, model.side) - s.input_offset) / s.input_scale
    c1, _ = reference_conv_forward(X[:, None], p["conv1_w"], p["conv1_b"])
    p1, _ = reference_pool_forward(np.maximum(c1, 0.0))
    c2, _ = reference_conv_forward(p1, p["conv2_w"], p["conv2_b"])
    p2, _ = reference_pool_forward(np.maximum(c2, 0.0))
    flat = p2.reshape(X.shape[0], p["dense_w"].shape[0])
    pred = np.tanh(flat @ p["dense_w"] + p["dense_b"]) @ p["out_w"] + p["out_b"]
    return pred * s.target_scale + s.target_offset


def channel_major(a):
    """(c, n, h, w) copy of an (n, c, h, w) array, or the reverse."""
    return np.ascontiguousarray(a.transpose(1, 0, 2, 3))


#: Largest difference the package's matmul convolutions may show from the
#: einsum reference layers, relative to the largest reference entry: the
#: products sum in another order. The worst case measured was 1.2e-13, one
#: gradient call on grids of PCA magnitude.
REFERENCE_RTOL = 1e-11


def assert_near_reference(got, ref, what=None) -> None:
    """got has ref's shape and lies within REFERENCE_RTOL of it, relative to
    ref's largest entry."""
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape, what
    if ref.size:
        err = float(np.abs(got - ref).max())
        assert err <= REFERENCE_RTOL * float(np.abs(ref).max()), (what, err)


def tensor_rel_error(analytic, numeric) -> float:
    scale = max(float(np.abs(analytic).max()), float(np.abs(numeric).max()), 1e-8)
    return float(np.abs(analytic - numeric).max()) / scale


def test_conv_forward_matches_loop_oracle():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 2, 4, 4))
    w = rng.normal(size=(3, 2, 3, 3))
    b = rng.normal(size=3)
    out = channel_major(_conv_forward(channel_major(x), w, b)[0])
    assert np.allclose(out, oracle_conv(x, w, b), atol=1e-12)


def test_conv_forward_5x5_kernel():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(1, 1, 8, 8))
    w = rng.normal(size=(2, 1, 5, 5))
    b = rng.normal(size=2)
    out = channel_major(_conv_forward(channel_major(x), w, b)[0])
    assert out.shape == (1, 2, 8, 8)  # same padding keeps the grid size
    assert np.allclose(out, oracle_conv(x, w, b), atol=1e-12)


def test_pool_forward_hand_fixture():
    x = np.array(
        [[[[1.0, 2.0, 5.0, 3.0],
           [4.0, 0.0, 1.0, 1.0],
           [7.0, 7.0, 2.0, 0.0],
           [6.0, 5.0, 0.0, 9.0]]]]
    )
    out, _ = _pool_forward(x)
    assert np.array_equal(out[0, 0], [[4.0, 5.0], [7.0, 9.0]])


def test_pool_backward_routes_to_first_max():
    # both window maxima tie; the gradient goes to the first in row-major order
    x = np.array([[[[3.0, 3.0], [3.0, 3.0]]]])
    out, cache = _pool_forward(x)
    assert out[0, 0, 0, 0] == 3.0
    dx = _pool_backward(np.ones((1, 1, 1, 1)), cache)
    assert np.array_equal(dx[0, 0], [[1.0, 0.0], [0.0, 0.0]])


def test_init_shapes():
    model = init_cnn(16, 8, seed=0)
    shapes = {k: model.params[k].shape for k in PARAM_NAMES}
    assert shapes["conv1_w"] == (32, 1, 5, 5)
    assert shapes["conv2_w"] == (8, 32, 3, 3)
    assert shapes["dense_w"] == (128, 100)  # 4*4*8 flattened
    assert shapes["out_w"] == (100, 8)
    assert init_cnn(8, 2, seed=0).params["dense_w"].shape == (32, 100)
    with pytest.raises(ValueError, match="divisible by 4"):
        init_cnn(6, 2, seed=0)


@pytest.mark.parametrize("change,side,fragment", [
    (lambda p: {k: v for k, v in p.items() if k != "out_b"}, 8, "cnn params must be"),
    (lambda p: p, 6, "divisible by 4"),
    (lambda p: p, 12, "do not chain"),
    (lambda p: {**p, "conv2_w": p["conv2_w"][:, :-1]}, 8, "do not chain"),
    (lambda p: {**p, "conv1_b": p["conv1_b"][:-1]}, 8, "do not chain"),
    (lambda p: {**p, "out_b": p["out_b"][:1]}, 8, "do not chain"),
], ids=["missing", "side", "flat", "channels", "conv-bias", "out-bias"])
def test_a_cnn_model_checks_its_parameters(change, side, fragment):
    params = init_cnn(8, 2, seed=0).params
    CnnModel(params=params, side=8)
    with pytest.raises(ValueError, match=fragment):
        CnnModel(params=change(params), side=side)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(2)
    model = init_cnn(8, 2, seed=3)
    X = rng.normal(size=(2, 8, 8))
    Y = rng.normal(size=(2, 2))
    _, grads = loss_and_gradients(model, X, Y)

    def loss_fn():
        return loss_and_gradients(model, X, Y)[0]

    check_rng = np.random.default_rng(4)
    for name in PARAM_NAMES:
        arr = model.params[name]
        flat_idx = np.arange(arr.size)
        if arr.size > 400:
            flat_idx = check_rng.choice(arr.size, size=200, replace=False)
        analytic, numeric = [], []
        eps = 1e-5
        for fi in flat_idx:
            idx = np.unravel_index(fi, arr.shape)
            old = arr[idx]
            arr[idx] = old + eps
            lp = loss_fn()
            arr[idx] = old - eps
            lm = loss_fn()
            arr[idx] = old
            numeric.append((lp - lm) / (2 * eps))
            analytic.append(grads[name][idx])
        err = tensor_rel_error(np.array(analytic), np.array(numeric))
        assert err < 1e-4, f"{name}: rel err {err}"


def test_gradients_with_fixed_dropout_masks():
    rng = np.random.default_rng(5)
    model = init_cnn(8, 2, seed=6)
    X = rng.normal(size=(2, 8, 8))
    Y = rng.normal(size=(2, 2))
    masks = {
        "pool1": (rng.random((2, 32, 4, 4)) < 0.75).astype(np.float64) / 0.75,
        "pool2": (rng.random((2, 8, 2, 2)) < 0.75).astype(np.float64) / 0.75,
        "dense": (rng.random((2, 100)) < 0.5).astype(np.float64) / 0.5,
    }
    _, grads = loss_and_gradients(model, X, Y, masks)

    def loss_fn():
        return loss_and_gradients(model, X, Y, masks)[0]

    check_rng = np.random.default_rng(7)
    eps = 1e-5
    for name in ("conv1_w", "conv2_b", "dense_b", "out_w"):
        arr = model.params[name]
        flat_idx = np.arange(arr.size)
        if arr.size > 300:
            flat_idx = check_rng.choice(arr.size, size=150, replace=False)
        analytic, numeric = [], []
        for fi in flat_idx:
            idx = np.unravel_index(fi, arr.shape)
            old = arr[idx]
            arr[idx] = old + eps
            lp = loss_fn()
            arr[idx] = old - eps
            lm = loss_fn()
            arr[idx] = old
            numeric.append((lp - lm) / (2 * eps))
            analytic.append(grads[name][idx])
        assert tensor_rel_error(np.array(analytic), np.array(numeric)) < 1e-4


def test_training_reduces_loss_and_is_deterministic():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(16, 64))
    Y = rng.normal(size=(16, 2)) * 10.0 + 48.0
    kwargs = dict(epochs=8, batch_size=8, dropout_conv=0.0, dropout_dense=0.0,
                  learning_rate=0.002, seed=0)
    a = cnn_fit(X, Y, **kwargs)
    assert len(a.loss_history) == 8
    assert a.loss_history[-1] < a.loss_history[0]
    b = cnn_fit(X, Y, **kwargs)
    assert a.loss_history == b.loss_history
    for name in PARAM_NAMES:
        assert np.array_equal(a.params[name], b.params[name])


def test_predict_shape_and_determinism():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(10, 64))
    Y = rng.normal(size=(10, 3)) + 48.0
    model = cnn_fit(X, Y, epochs=2, batch_size=5, seed=1)
    preds = cnn_predict(model, X)
    assert preds.shape == (10, 3)
    assert np.array_equal(preds, cnn_predict(model, X))
    assert np.array_equal(model.scaling.target_offset, Y.mean(axis=0))


def test_divergence_raises():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(8, 64)) * 5
    Y = rng.normal(size=(8, 2)) * 5
    with pytest.raises(TrainingDiverged, match="epoch"):
        with np.errstate(over="ignore", invalid="ignore"):
            cnn_fit(X, Y, epochs=40, batch_size=4, optimizer="sgd",
                    learning_rate=1e18, dropout_conv=0.0, dropout_dense=0.0,
                    seed=0)


def test_grid_validation():
    model = init_cnn(8, 2, seed=0)
    for width in (63, 72, 256):  # a predict takes rows of n_features (64) only
        with pytest.raises(ValueError, match=r"X must be \(n, 64\) rows"):
            cnn_predict(model, np.zeros((2, width)))
    for width in (0, 1, 15):  # narrower than the smallest (4x4) grid
        with pytest.raises(ValueError, match=rf"^cnn needs at least 16 features for its "
                                             rf"smallest \(4x4\) grid; got {width} columns$"):
            cnn_fit(np.zeros((4, width)), np.zeros((4, 1)))
    with pytest.raises(ValueError, match="dropout"):
        cnn_fit(np.zeros((4, 64)), np.zeros((4, 1)), dropout_dense=1.0)
    with pytest.raises(ValueError, match="rows of 63 features do not hold the 8x8 grid"):
        CnnModel(params=model.params, side=8, n_features=63)


def test_fit_validation():
    X, Y = np.zeros((4, 16)), np.zeros((4, 1))
    with pytest.raises(ValueError, match="^batch_size must be an integer >= 1, got 2.0$"):
        cnn_fit(X, Y, epochs=1, batch_size=2.0)
    with pytest.raises(ValueError, match="^epochs must be an integer >= 0, got True$"):
        cnn_fit(X, Y, epochs=True)
    with pytest.raises(ValueError, match=r"^epochs must be an integer >= 0, got 2\.5$"):
        cnn_fit(X, Y, epochs=2.5)
    for bad in (-1, 2.5, True):  # unchecked: numpy's ValueError, a TypeError, seed 1
        with pytest.raises(ValueError) as exc:
            cnn_fit(X, Y, epochs=1, seed=bad)
        assert str(exc.value) == f"seed must be an integer >= 0, got {bad!r}"
    for bad in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="^learning_rate must be a finite number above 0"):
            cnn_fit(X, Y, epochs=1, learning_rate=bad)
    for bad in ("0.5", None, True, np.nan, 1.0):  # the parent raised TypeError on "0.5" and None
        for rate in ("dropout_conv", "dropout_dense"):
            with pytest.raises(ValueError) as exc:
                cnn_fit(X, Y, epochs=1, **{rate: bad})
            assert str(exc.value) == f"dropout rate must be a finite number in [0, 1), got {bad!r}"


@pytest.mark.parametrize("width, side", [
    (0, None), (15, None), (16, 4), (20, 4), (36, 4), (63, 4), (64, 8), (143, 8), (144, 12),
    (179, 12), (255, 12), (256, 16), (9215, 92), (9216, 96),
])
def test_grid_side_is_the_largest_multiple_of_4_whose_square_fits(width, side):
    assert grid_side(width) == side


@pytest.mark.parametrize("width", [20, 150, 179])
def test_fit_on_any_width_equals_a_fit_on_its_first_grid_columns(width):
    # the reference rows are a copy, as a pipeline of g*g features makes them; at
    # the study's 180 rows and widths 150 and 179, these inputs' mean or std over
    # a strided view of X's grid columns differs from the copy's in the last bits
    rng = np.random.default_rng(20)
    X = rng.normal(size=(180, width)) * 400.0 + 260.0
    Y = rng.normal(size=(180, 3)) * 10.0 + 48.0
    g = grid_side(width)
    model = cnn_fit(X, Y, epochs=2, batch_size=50, seed=5)
    ref = cnn_fit(X[:, : g * g].copy(), Y, epochs=2, batch_size=50, seed=5)
    assert (model.side, model.n_features, ref.n_features) == (g, width, g * g)
    for name in PARAM_NAMES:
        assert np.array_equal(model.params[name], ref.params[name]), name
    assert model.loss_history == ref.loss_history
    assert model.scaling.input_offset == ref.scaling.input_offset
    assert model.scaling.input_scale == ref.scaling.input_scale
    assert cnn_predict(model, X).tobytes() == cnn_predict(ref, X[:, : g * g]).tobytes()
    for other in (g * g, width - 1, width + 1):
        with pytest.raises(ValueError, match=rf"X must be \(n, {width}\) rows"):
            cnn_predict(model, X[:, :other] if other < width else np.zeros((2, other)))


# ---- the network against the references it replaced ---------------------------


@pytest.mark.parametrize("side", [8, 12, 16])
@pytest.mark.parametrize("channels", [1, 32])
@pytest.mark.parametrize("kernel", [3, 5])
def test_split_convolution_backward_equals_reference(kernel, channels, side):
    rng = np.random.default_rng(100 * kernel + channels + side)
    x = rng.normal(size=(3, channels, side, side))
    w = rng.normal(size=(4, channels, kernel, kernel))
    b = rng.normal(size=4)
    out, cache = _conv_forward(channel_major(x), w, b)
    ref_out, ref_cache = reference_conv_forward(x, w, b)
    assert_near_reference(channel_major(out), ref_out, "out")
    dout = rng.normal(size=ref_out.shape)
    ref_dx, ref_dw, ref_db = reference_conv_backward(dout, ref_cache)
    dw, db = np.zeros(w.shape), np.zeros(4)
    _add_conv_grads(channel_major(dout), cache, dw, db)
    assert_near_reference(dw, ref_dw, "dw")
    assert_near_reference(db, ref_db, "db")
    assert_near_reference(channel_major(_conv_input_grad(channel_major(dout), cache)), ref_dx, "dx")


@pytest.mark.parametrize("values", ["distinct", "ties"])
def test_pool_matches_argmax_reference_exactly(values):
    rng = np.random.default_rng(11)
    x = rng.normal(size=(3, 4, 8, 6))
    if values == "ties":
        x = np.maximum(np.round(x), 0.0)  # relu-like: many equal maxima, zeros
    out, cache = _pool_forward(x)
    ref_out, ref_cache = reference_pool_forward(x)
    assert np.array_equal(out, ref_out)
    dout = rng.normal(size=out.shape)
    assert np.array_equal(_pool_backward(dout, cache), reference_pool_backward(dout, ref_cache))


def test_gradients_equal_the_reference_network():
    rng = np.random.default_rng(12)
    model = init_cnn(12, 3, seed=5)
    X = rng.normal(size=(6, 12, 12))
    Y = rng.normal(size=(6, 3))
    masks = {
        "pool1": dropout_mask(rng, (6, 32, 6, 6), 0.25),
        "pool2": dropout_mask(rng, (6, 8, 3, 3), 0.25),
        "dense": dropout_mask(rng, (6, 100), 0.5),
    }
    for m in (None, masks):
        loss, grads = loss_and_gradients(model, X, Y, m)
        ref_loss, ref_grads = reference_loss_and_gradients(model, X, Y, m)
        assert_near_reference(loss, ref_loss, "loss")
        for name in PARAM_NAMES:
            assert_near_reference(grads[name], ref_grads[name], name)


def test_forward_only_loss_equals_the_backprop_loss():
    rng = np.random.default_rng(13)
    model = init_cnn(12, 8, seed=6)
    X = rng.normal(size=(60, 12, 12))
    Y = rng.normal(size=(60, 8))
    loss, _ = loss_and_gradients(model, X, Y)
    assert mse_loss_and_grad(_forward(model.params, X)[0], Y)[0] == loss


@pytest.mark.parametrize("scale", [1.0, 500.0])
@pytest.mark.parametrize("dropout", [(0.0, 0.0), (0.25, 0.5), (0.0, 0.5)])
def test_fit_matches_the_reference_loop(dropout, scale):
    # scale 500 is the size of unscaled PCA grids, which the input scaling divides out
    rng = np.random.default_rng(14)
    X = rng.normal(size=(23, 64)) * scale  # a ragged last batch of 3 rows
    Y = rng.normal(size=(23, 4)) * 10.0 + 48.0
    args = dict(epochs=4, batch_size=10, dropout_conv=dropout[0],
                dropout_dense=dropout[1], seed=2)
    model = cnn_fit(X, Y, **args)
    ref, _ = reference_cnn_fit(X, Y, **args)
    assert_near_reference(model.loss_history, ref.loss_history, "loss_history")
    for name in PARAM_NAMES:
        assert_near_reference(model.params[name], ref.params[name], name)


def test_grids_are_refused_by_fit_and_predict():
    # the cnn takes (n, d) rows, as every regressor does
    grids = np.zeros((4, 8, 8))
    with pytest.raises(ValueError, match=r"^X must be \(n, d\) rows, got shape \(4, 8, 8\)$"):
        cnn_fit(grids, np.zeros((4, 2)), epochs=1)
    model = init_cnn(8, 2, seed=0)
    with pytest.raises(ValueError, match=r"^X must be \(n, 64\) rows, got shape \(4, 8, 8\)$"):
        cnn_predict(model, grids)


@pytest.mark.parametrize("side", [12, 16])
@pytest.mark.parametrize("n", [0, 1, 49, 50, 51, 180, 1000])
def test_predict_equals_the_reference_forward(n, side):
    # the convolution stages run in row blocks of _BLOCK_CELLS grid cells
    # (14 rows at side 12, 8 at side 16), the dense stages on all rows: no
    # rows, one row, about a batch, the study's 180 rows and many blocks
    rng = np.random.default_rng(16)
    model = init_cnn(side, 8, seed=7)
    for name in ("conv1_b", "conv2_b", "dense_b", "out_b"):
        model.params[name] = rng.normal(size=model.params[name].shape) * 0.1
    model.scaling = Scaling(3.0, 500.0, rng.normal(size=8) * 10.0 + 48.0, rng.uniform(5.0, 20.0, 8))
    X = rng.normal(size=(n, side * side)) * 500.0
    pred = cnn_predict(model, X)
    assert pred.shape == (n, 8)
    assert_near_reference(pred, reference_forward(model, X))


@pytest.mark.parametrize("side,n", [(8, 70), (12, 50), (16, 19)])
def test_gradients_over_row_blocks_equal_the_reference_network(side, n):
    # batches of several row blocks, the last one short
    rng = np.random.default_rng(17)
    model = init_cnn(side, 4, seed=8)
    X = rng.normal(size=(n, side, side)) * 500.0
    Y = rng.normal(size=(n, 4))
    half, quarter = side // 2, side // 4
    masks = {
        "pool1": dropout_mask(rng, (n, 32, half, half), 0.25),
        "pool2": dropout_mask(rng, (n, 8, quarter, quarter), 0.25),
        "dense": dropout_mask(rng, (n, 100), 0.5),
    }
    for m in (None, masks):
        loss, grads = loss_and_gradients(model, X, Y, m)
        ref_loss, ref_grads = reference_loss_and_gradients(model, X, Y, m)
        assert_near_reference(loss, ref_loss, "loss")
        for name in PARAM_NAMES:
            assert_near_reference(grads[name], ref_grads[name], name)


def study_shape_inputs():
    """12x12 grids of PCA magnitude, targets and cnn_fit arguments: batches
    of 50, as the benchmark trains."""
    rng = np.random.default_rng(18)
    X = rng.normal(size=(64, 144)) * 500.0
    Y = rng.normal(size=(64, 8)) * 10.0 + 48.0
    return X, Y, dict(epochs=2, batch_size=50, dropout_conv=0.25, dropout_dense=0.5, seed=3)


def test_study_shape_fit_matches_the_reference_loop():
    X, Y, args = study_shape_inputs()
    model = cnn_fit(X, Y, **args)
    ref, _ = reference_cnn_fit(X, Y, **args)
    assert_near_reference(model.loss_history, ref.loss_history, "loss_history")
    for name in PARAM_NAMES:
        assert_near_reference(model.params[name], ref.params[name], name)


_STUDY_SHAPE_FIT = """
import sys
import numpy as np
from facekeys.regressors.cnn import cnn_fit, cnn_predict
from test_cnn import study_shape_inputs
X, Y, args = study_shape_inputs()
model = cnn_fit(X, Y, **args)
np.savez(sys.argv[1], pred=cnn_predict(model, X), **model.params)
"""


def test_a_fit_holds_the_golden_tolerance_at_one_and_two_blas_threads(tmp_path):
    # with OpenBLAS 0.3.31 at two threads, conv2's weight-gradient product
    # (8 x 504 x 288 per 14-row block) rounds differently, so the two
    # study-shape fits differ in their last bits
    fits = []
    for threads in ("1", "2"):
        out = tmp_path / f"fit-{threads}.npz"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": CHILD_PATH}
        subprocess.run([sys.executable, "-c", _STUDY_SHAPE_FIT, str(out)], env=env, check=True)
        with np.load(out) as data:
            fits.append(dict(data))
    for name in ("pred", *PARAM_NAMES):
        one, two = fits[0][name], fits[1][name]
        assert np.abs(two - one).max() <= RTOL["cnn"] * np.abs(one).max(), name


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["X", "Y"])
def test_non_finite_input_is_rejected(bad, where):
    X = np.zeros((4, 64))
    Y = np.zeros((4, 2))
    (X if where == "X" else Y)[1, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        cnn_fit(X, Y, epochs=1, batch_size=2)
