import numpy as np
import pytest

from facekeys.regressors.mlp import (
    forward,
    init_mlp,
    loss_and_gradients,
    mlp_fit,
    mlp_predict,
)
from facekeys.regressors.optim import (
    TrainingDiverged,
    batch_slices,
    dropout_mask,
    make_optimizer,
    mse_loss_and_grad,
)


def reference_mlp_fit(X, Y, hidden, epochs, batch_size, optimizer, dropout, seed):
    """The fit loop mlp_fit ran before the shared loop, each array with its
    own optimizer; the model and its full-set loss history.

    The model's loss_history holds each epoch's row-weighted mean of its
    batch losses, summed in batch order; the second list holds each
    epoch's loss from a full loss_and_gradients call (dropout off) whose
    gradients are dropped, the history mlp_fit once recorded. X is scaled
    by its mean and std over all entries, Y by each column's mean and std."""
    X = np.asarray(X, dtype=np.float64)
    model = init_mlp(X.shape[1], tuple(hidden), Y.shape[1], seed)
    X = (X - X.mean()) / X.std()
    Ys = (Y - Y.mean(axis=0)) / Y.std(axis=0)
    rng = np.random.default_rng(seed + 1)
    params = model.weights + model.biases
    opts = [make_optimizer(optimizer, p) for p in params]
    n = X.shape[0]
    full_history = []
    for epoch in range(epochs):
        order = rng.permutation(n)
        total = 0.0
        for batch in batch_slices(n, batch_size, order):
            masks = None
            if dropout > 0.0:
                masks = [
                    dropout_mask(rng, (batch.size, w.shape[1]), dropout)
                    for w in model.weights[:-1]
                ]
            loss, gw, gb = loss_and_gradients(
                model.weights, model.biases, X[batch], Ys[batch], masks
            )
            if not np.isfinite(loss):
                raise TrainingDiverged(f"mlp loss became non-finite at epoch {epoch}")
            total += loss * batch.size
            for opt, p, g in zip(opts, params, gw + gb):
                opt.step(p, g)
        model.loss_history.append(total / n)
        full_history.append(loss_and_gradients(model.weights, model.biases, X, Ys)[0])
    return model, full_history


def tensor_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = max(float(np.abs(analytic).max()), float(np.abs(numeric).max()), 1e-8)
    return float(np.abs(analytic - numeric).max()) / scale


def numeric_grad(loss_fn, arr: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    out = np.zeros_like(arr)
    for idx in np.ndindex(*arr.shape):
        old = arr[idx]
        arr[idx] = old + eps
        lp = loss_fn()
        arr[idx] = old - eps
        lm = loss_fn()
        arr[idx] = old
        out[idx] = (lp - lm) / (2.0 * eps)
    return out


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    model = init_mlp(4, (5, 3), 2, seed=1)
    X = rng.normal(size=(6, 4))
    Y = rng.normal(size=(6, 2))
    _, gw, gb = loss_and_gradients(model.weights, model.biases, X, Y)

    def loss_fn():
        pred = forward(model.weights, model.biases, X)
        return mse_loss_and_grad(pred, Y)[0]

    for arr, grad in zip(model.weights + model.biases, gw + gb):
        assert tensor_rel_error(grad, numeric_grad(loss_fn, arr)) < 1e-4


def test_gradients_with_fixed_dropout_masks():
    rng = np.random.default_rng(2)
    model = init_mlp(3, (6, 4), 2, seed=3)
    X = rng.normal(size=(5, 3))
    Y = rng.normal(size=(5, 2))
    masks = [
        (rng.random((5, 6)) < 0.5).astype(np.float64) * 2.0,
        (rng.random((5, 4)) < 0.5).astype(np.float64) * 2.0,
    ]
    _, gw, gb = loss_and_gradients(model.weights, model.biases, X, Y, masks)

    def loss_fn():
        pred = forward(model.weights, model.biases, X, masks)
        return mse_loss_and_grad(pred, Y)[0]

    for arr, grad in zip(model.weights + model.biases, gw + gb):
        assert tensor_rel_error(grad, numeric_grad(loss_fn, arr)) < 1e-4


def test_no_hidden_layers_is_a_linear_map():
    model = init_mlp(3, (), 2, seed=0)
    X = np.random.default_rng(4).normal(size=(5, 3))
    assert np.allclose(
        forward(model.weights, model.biases, X),
        X @ model.weights[0] + model.biases[0],
    )


@pytest.mark.parametrize("hidden", [(0,), (8, 0), (-5,)])
def test_hidden_widths_below_one_are_refused(hidden):
    i = min(i for i, width in enumerate(hidden) if width < 1)
    message = f"hidden[{i}] must be an integer >= 1, got {hidden[i]}"
    with pytest.raises(ValueError) as exc:
        init_mlp(3, hidden, 2, seed=0)
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        mlp_fit(np.zeros((4, 3)), np.zeros((4, 2)), hidden=hidden, epochs=1)
    assert str(exc.value) == message


@pytest.mark.parametrize("hidden, bad", [
    ((2.5,), 0), ((8, 4.0), 1), ((True,), 0), ((4, 2, False), 2),
], ids=repr)
def test_hidden_widths_that_are_not_integers_are_refused(hidden, bad):
    # unchecked, 2.5 ends in a numpy TypeError and True fits a width of 1
    with pytest.raises(ValueError) as exc:
        mlp_fit(np.zeros((4, 3)), np.zeros((4, 2)), hidden=hidden, epochs=1)
    assert str(exc.value) == f"hidden[{bad}] must be an integer >= 1, got {hidden[bad]!r}"


def test_init_shapes_and_determinism():
    a = init_mlp(9216, (300, 150, 50), 30, seed=7)
    assert [w.shape for w in a.weights] == [
        (9216, 300), (300, 150), (150, 50), (50, 30)
    ]
    assert all(np.all(b == 0.0) for b in a.biases)
    b = init_mlp(9216, (300, 150, 50), 30, seed=7)
    assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))


def test_fit_recovers_scalar_linear_trend():
    rng = np.random.default_rng(5)
    X = rng.uniform(-1.0, 1.0, size=(40, 1))
    y = 3.0 * X[:, 0]
    model = mlp_fit(
        X, y, hidden=(), epochs=300, batch_size=10, optimizer="sgd",
        learning_rate=0.05, dropout=0.0, seed=0,
    )
    # the scaled network's weight and bias, mapped back to raw units
    s = model.scaling
    slope = model.weights[0][0, 0] * s.target_scale[0] / s.input_scale
    intercept = s.target_offset[0] + s.target_scale[0] * model.biases[0][0] - slope * s.input_offset
    assert slope == pytest.approx(3.0, abs=1e-2)
    assert intercept == pytest.approx(0.0, abs=1e-2)
    preds = mlp_predict(model, X)
    assert np.allclose(preds[:, 0], y, atol=0.05)


def test_target_scaling_round_trip():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(30, 2))
    Y = np.full((30, 2), 60.0)
    model = mlp_fit(
        X, Y, hidden=(), epochs=400, batch_size=30, optimizer="sgd",
        learning_rate=0.1, dropout=0.0, seed=1,
    )
    # a column with std 0 is only shifted: its scale is 1
    assert np.array_equal(model.scaling.target_offset, [60.0, 60.0])
    assert np.array_equal(model.scaling.target_scale, [1.0, 1.0])
    assert np.allclose(mlp_predict(model, X), 60.0, atol=0.5)


def test_loss_history_tracks_epochs_and_descends():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(40, 3))
    Y = X @ rng.normal(size=(3, 2)) * 20.0 + 48.0
    model = mlp_fit(
        X, Y, hidden=(16,), epochs=25, batch_size=10, optimizer="rmsprop",
        dropout=0.0, seed=2,
    )
    hist = model.loss_history
    assert len(hist) == 25
    assert hist[-1] < hist[0]
    upticks = sum(1 for a, b in zip(hist, hist[1:]) if b > a * 1.05)
    assert upticks <= 2


def test_seed_determinism():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(20, 4))
    Y = rng.normal(size=(20, 2)) * 5 + 48
    kwargs = dict(hidden=(8,), epochs=5, batch_size=5, dropout=0.5, seed=9)
    a = mlp_fit(X, Y, **kwargs)
    b = mlp_fit(X, Y, **kwargs)
    assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
    assert a.loss_history == b.loss_history
    c = mlp_fit(X, Y, **{**kwargs, "seed": 10})
    assert not all(np.array_equal(x, y) for x, y in zip(a.weights, c.weights))


def test_prediction_is_deterministic_after_dropout_training():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(15, 3))
    Y = rng.normal(size=(15, 1)) + 48
    model = mlp_fit(X, Y, hidden=(6,), epochs=3, batch_size=5, dropout=0.5, seed=0)
    assert np.array_equal(mlp_predict(model, X), mlp_predict(model, X))


def test_divergence_raises_with_epoch():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(20, 2)) * 10
    Y = rng.normal(size=(20, 1)) * 10
    with pytest.raises(TrainingDiverged, match="epoch"):
        with np.errstate(over="ignore", invalid="ignore"):
            mlp_fit(
                X, Y, hidden=(4,), epochs=50, batch_size=5, optimizer="sgd",
                learning_rate=1e15, dropout=0.0, seed=0,
            )


def test_fit_validation():
    X, Y = np.zeros((4, 2)), np.zeros((4, 1))
    with pytest.raises(ValueError, match="dropout"):
        mlp_fit(X, Y, dropout=1.0)
    for bad in ("0.5", None, True, [0.5]):  # the parent raised TypeError on all but True
        with pytest.raises(ValueError) as exc:
            mlp_fit(X, Y, dropout=bad)
        assert str(exc.value) == f"dropout rate must be a finite number in [0, 1), got {bad!r}"
    with pytest.raises(ValueError, match="batch_size"):
        mlp_fit(X, Y, batch_size=0)
    with pytest.raises(ValueError, match="^batch_size must be an integer >= 1, got True$"):
        mlp_fit(X, Y, batch_size=True)
    with pytest.raises(ValueError, match=r"^epochs must be an integer >= 0, got 2\.5$"):
        mlp_fit(X, Y, epochs=2.5)
    for bad in (-1, 2.5, True):  # unchecked: numpy's ValueError, a TypeError, seed 1
        with pytest.raises(ValueError) as exc:
            mlp_fit(X, Y, epochs=1, seed=bad)
        assert str(exc.value) == f"seed must be an integer >= 0, got {bad!r}"
    for bad in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="^learning_rate must be a finite number above 0"):
            mlp_fit(X, Y, hidden=(), epochs=1, learning_rate=bad)
    with pytest.raises(ValueError, match="matching row"):
        mlp_fit(X, np.zeros((3, 1)))
    with pytest.raises(ValueError, match="2-d"):
        mlp_fit(X, np.zeros((4, 1, 1)))
    model = mlp_fit(X, Y, hidden=(), epochs=1, dropout=0.0)
    with pytest.raises(ValueError):
        mlp_predict(model, np.zeros((2, 5)))


@pytest.mark.parametrize("optimizer", ["rmsprop", "sgd"])
@pytest.mark.parametrize("dropout", [0.0, 0.5])
def test_fit_is_bit_identical_to_the_reference_loop(dropout, optimizer):
    rng = np.random.default_rng(12)
    X = rng.normal(size=(37, 11))  # a ragged last batch of 7 rows
    Y = X @ rng.normal(size=(11, 3)) * 10.0 + 48.0
    args = dict(hidden=(16, 8), epochs=6, batch_size=10, optimizer=optimizer,
                dropout=dropout, seed=3)
    model = mlp_fit(X, Y, **args)
    ref, _ = reference_mlp_fit(X, Y, **args)
    assert model.loss_history == ref.loss_history
    for got, want in zip(model.weights + model.biases, ref.weights + ref.biases):
        assert np.array_equal(got, want)


def test_forward_only_loss_equals_the_backprop_loss():
    rng = np.random.default_rng(13)
    model = init_mlp(179, (30, 20), 8, seed=4)
    X = rng.normal(size=(180, 179))
    Y = rng.normal(size=(180, 8))
    loss, _, _ = loss_and_gradients(model.weights, model.biases, X, Y)
    pred = forward(model.weights, model.biases, X)
    assert mse_loss_and_grad(pred, Y)[0] == loss


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["X", "Y"])
def test_non_finite_input_is_rejected(bad, where):
    X = np.arange(12.0).reshape(6, 2)
    Y = np.arange(6.0)
    (X if where == "X" else Y)[3] = bad
    with pytest.raises(ValueError, match="finite"):
        mlp_fit(X, Y, hidden=(4,), epochs=2, batch_size=3)
