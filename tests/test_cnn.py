import numpy as np
import pytest

from facekeys.regressors.cnn import (
    PARAM_NAMES,
    _add_conv_grads,
    _check_grids,
    _conv_forward,
    _conv_input_grad,
    _forward,
    _pool_backward,
    _pool_forward,
    cnn_fit,
    cnn_predict,
    init_cnn,
    loss_and_gradients,
)
from facekeys.regressors.optim import (
    TrainingDiverged,
    batch_slices,
    dropout_mask,
    make_optimizer,
    mse_loss_and_grad,
)


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
    network: the epoch loss came from a full gradient pass."""
    X = _check_grids(X)
    model = init_cnn(X.shape[1], Y.shape[1], seed)
    model.target_offset, model.target_scale = 48.0, 48.0
    Ys = (Y - model.target_offset) / model.target_scale
    rng = np.random.default_rng(seed + 1)
    params = [model.params[k] for k in PARAM_NAMES]
    opt = make_optimizer("rmsprop", params)
    n = X.shape[0]
    half, quarter = model.side // 2, model.side // 4
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
            loss, grads = reference_loss_and_gradients(model, X[batch], Ys[batch], masks)
            if not np.isfinite(loss):
                raise TrainingDiverged(f"cnn loss became non-finite at epoch {epoch}")
            opt.step(params, [grads[k] for k in PARAM_NAMES])
        epoch_loss, _ = reference_loss_and_gradients(model, X, Ys)
        model.loss_history.append(epoch_loss)
    return model


def reference_forward(model, X):
    """cnn_predict's network on all rows at once, through the reference layers."""
    p = model.params
    c1, _ = reference_conv_forward(X[:, None], p["conv1_w"], p["conv1_b"])
    p1, _ = reference_pool_forward(np.maximum(c1, 0.0))
    c2, _ = reference_conv_forward(p1, p["conv2_w"], p["conv2_b"])
    p2, _ = reference_pool_forward(np.maximum(c2, 0.0))
    flat = p2.reshape(X.shape[0], p["dense_w"].shape[0])
    pred = np.tanh(flat @ p["dense_w"] + p["dense_b"]) @ p["out_w"] + p["out_b"]
    return pred * model.target_scale + model.target_offset


def channel_major(a):
    """(c, n, h, w) copy of an (n, c, h, w) array, or the reverse."""
    return np.ascontiguousarray(a.transpose(1, 0, 2, 3))


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
    X = rng.normal(size=(16, 8, 8))
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
    X = rng.normal(size=(10, 8, 8))
    Y = rng.normal(size=(10, 3)) + 48.0
    model = cnn_fit(X, Y, epochs=2, batch_size=5, seed=1)
    preds = cnn_predict(model, X)
    assert preds.shape == (10, 3)
    assert np.array_equal(preds, cnn_predict(model, X))
    assert model.target_offset == 48.0


def test_divergence_raises():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(8, 8, 8)) * 5
    Y = rng.normal(size=(8, 2)) * 5
    with pytest.raises(TrainingDiverged, match="epoch"):
        with np.errstate(over="ignore", invalid="ignore"):
            cnn_fit(X, Y, epochs=40, batch_size=4, optimizer="sgd",
                    learning_rate=1e18, dropout_conv=0.0, dropout_dense=0.0,
                    seed=0, scale_targets=False)


def test_grid_validation():
    model = init_cnn(8, 2, seed=0)
    with pytest.raises(ValueError, match="grids"):
        cnn_predict(model, np.zeros((2, 8, 9)))
    with pytest.raises(ValueError, match="grids"):
        cnn_predict(model, np.zeros((2, 16, 16)))
    with pytest.raises(ValueError, match="dropout"):
        cnn_fit(np.zeros((4, 8, 8)), np.zeros((4, 1)), dropout_dense=1.0)


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
    assert np.array_equal(channel_major(out), ref_out)
    dout = rng.normal(size=ref_out.shape)
    ref_dx, ref_dw, ref_db = reference_conv_backward(dout, ref_cache)
    dw, db = np.zeros(w.shape), np.zeros(4)
    _add_conv_grads(channel_major(dout), cache, dw, db)
    assert np.array_equal(dw, ref_dw) and np.array_equal(db, ref_db)
    assert np.array_equal(channel_major(_conv_input_grad(channel_major(dout), cache)), ref_dx)


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
        assert loss == ref_loss
        for name in PARAM_NAMES:
            assert np.array_equal(grads[name], ref_grads[name]), name


def test_forward_only_loss_equals_the_backprop_loss():
    rng = np.random.default_rng(13)
    model = init_cnn(12, 8, seed=6)
    X = rng.normal(size=(60, 12, 12))
    Y = rng.normal(size=(60, 8))
    loss, _ = loss_and_gradients(model, X, Y)
    assert mse_loss_and_grad(_forward(model.params, X)[0], Y)[0] == loss


@pytest.mark.parametrize("scale", [1.0, 500.0])
@pytest.mark.parametrize("dropout", [(0.0, 0.0), (0.25, 0.5), (0.0, 0.5)])
def test_fit_is_bit_identical_to_the_reference_loop(dropout, scale):
    # scale 500 is the size of unscaled PCA grids, where the dense layer
    # saturates and a last-bit change in any sum grows through training
    rng = np.random.default_rng(14)
    X = rng.normal(size=(23, 8, 8)) * scale  # a ragged last batch of 3 rows
    Y = rng.normal(size=(23, 4)) * 10.0 + 48.0
    args = dict(epochs=4, batch_size=10, dropout_conv=dropout[0],
                dropout_dense=dropout[1], seed=2)
    model = cnn_fit(X, Y, **args)
    ref = reference_cnn_fit(X, Y, **args)
    assert model.loss_history == ref.loss_history
    for name in PARAM_NAMES:
        assert np.array_equal(model.params[name], ref.params[name]), name


def test_flat_rows_train_and_predict_exactly_as_their_grids():
    # the benchmark hands the cnn flat PCA rows; they read row-major
    rng = np.random.default_rng(15)
    flat = rng.normal(size=(23, 144)) * 500.0
    grids = flat.reshape(23, 12, 12).copy()
    Y = rng.normal(size=(23, 8)) * 10.0 + 48.0
    args = dict(epochs=3, batch_size=10, seed=4)
    from_flat, from_grids = cnn_fit(flat, Y, **args), cnn_fit(grids, Y, **args)
    assert from_flat.side == from_grids.side == 12
    assert from_flat.loss_history == from_grids.loss_history
    for name in PARAM_NAMES:
        assert np.array_equal(from_flat.params[name], from_grids.params[name]), name
    assert np.array_equal(cnn_predict(from_flat, flat), cnn_predict(from_grids, grids))


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
    model.target_offset, model.target_scale = 48.0, 48.0
    X = rng.normal(size=(n, side, side)) * 500.0
    pred = cnn_predict(model, X)
    assert pred.shape == (n, 8)
    assert np.array_equal(pred, reference_forward(model, X))


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
        assert loss == ref_loss
        for name in PARAM_NAMES:
            assert np.array_equal(grads[name], ref_grads[name]), name


def test_study_shape_fit_is_bit_identical_to_the_reference_loop():
    # 12x12 grids of PCA magnitude in batches of 50, as the benchmark trains
    rng = np.random.default_rng(18)
    X = rng.normal(size=(64, 144)) * 500.0
    Y = rng.normal(size=(64, 8)) * 10.0 + 48.0
    args = dict(epochs=2, batch_size=50, dropout_conv=0.25, dropout_dense=0.5, seed=3)
    model = cnn_fit(X, Y, **args)
    ref = reference_cnn_fit(X, Y, **args)
    assert model.loss_history == ref.loss_history
    for name in PARAM_NAMES:
        assert np.array_equal(model.params[name], ref.params[name]), name


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["X", "Y"])
def test_non_finite_input_is_rejected(bad, where):
    X = np.zeros((4, 8, 8))
    Y = np.zeros((4, 2))
    (X if where == "X" else Y)[1, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        cnn_fit(X, Y, epochs=1, batch_size=2)
