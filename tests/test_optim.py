import numpy as np
import pytest

from facekeys.regressors.cnn import cnn_fit
from facekeys.regressors.mlp import mlp_fit
from facekeys.regressors.optim import (
    RmsProp,
    Scaling,
    Sgd,
    TrainingDiverged,
    batch_slices,
    dropout_mask,
    fit_scaling,
    glorot_uniform,
    make_optimizer,
    mse_loss_and_grad,
    train,
)


def test_glorot_bounds_and_determinism():
    s = np.sqrt(6.0 / (30 + 20))
    a = glorot_uniform(np.random.default_rng(0), 30, 20, (30, 20))
    b = glorot_uniform(np.random.default_rng(0), 30, 20, (30, 20))
    assert np.array_equal(a, b)
    assert np.abs(a).max() <= s
    assert a.std() > 0.1 * s  # actually spread out, not collapsed


def test_mse_hand_values():
    loss, grad = mse_loss_and_grad(np.array([[1.0, 2.0]]), np.array([[0.0, 0.0]]))
    assert loss == pytest.approx(2.5)  # (1 + 4) / 2
    assert np.allclose(grad, [[1.0, 2.0]])  # 2/size * diff


def test_mse_grad_matches_finite_difference():
    rng = np.random.default_rng(1)
    pred = rng.normal(size=(4, 3))
    target = rng.normal(size=(4, 3))
    _, grad = mse_loss_and_grad(pred, target)
    eps = 1e-6
    for idx in np.ndindex(*pred.shape):
        bumped = pred.copy()
        bumped[idx] += eps
        lp, _ = mse_loss_and_grad(bumped, target)
        bumped[idx] -= 2 * eps
        lm, _ = mse_loss_and_grad(bumped, target)
        assert grad[idx] == pytest.approx((lp - lm) / (2 * eps), abs=1e-8)


def test_dropout_mask_values_and_scaling():
    rng = np.random.default_rng(2)
    mask = dropout_mask(rng, (200, 50), 0.5)
    assert set(np.unique(mask)) == {0.0, 2.0}
    assert mask.mean() == pytest.approx(1.0, abs=0.05)  # inverted scaling
    assert np.all(dropout_mask(rng, (5, 5), 0.0) == 1.0)


def test_sgd_momentum_hand_steps():
    p = np.array([1.0])
    opt = Sgd(p, learning_rate=0.1, momentum=0.9)
    opt.step(p, np.array([0.5]))
    assert p[0] == pytest.approx(0.95)  # v = -0.05
    opt.step(p, np.array([0.5]))
    assert p[0] == pytest.approx(0.855)  # v = 0.9*-0.05 - 0.05 = -0.095


def test_rmsprop_hand_step():
    p = np.array([1.0])
    opt = RmsProp(p, learning_rate=0.001, decay=0.9, eps=1e-8)
    opt.step(p, np.array([2.0]))
    cache = 0.1 * 4.0
    assert p[0] == pytest.approx(1.0 - 0.001 * 2.0 / (np.sqrt(cache) + 1e-8))


@pytest.mark.parametrize("decay", [0.0, 0.5, 0.9, 0.99])
def test_rmsprop_step_equals_the_one_expression_step(decay):
    # the in-place step does the same float operations in the same order
    rng = np.random.default_rng(3)
    shapes = [(4, 3), (7,), (2, 3, 5)]
    arrays = [rng.normal(size=s) for s in shapes]
    ref_params = [a.copy() for a in arrays]
    ref_cache = [np.zeros(s) for s in shapes]
    params = np.concatenate([a.ravel() for a in arrays])
    opt = RmsProp(params, learning_rate=0.003, decay=decay)
    for _ in range(5):
        grads = [rng.normal(size=s) * 10.0 ** rng.integers(-6, 3) for s in shapes]
        opt.step(params, np.concatenate([g.ravel() for g in grads]))
        for p, g, c in zip(ref_params, grads, ref_cache):
            c *= decay
            c += (1.0 - decay) * g * g
            p -= 0.003 * g / (np.sqrt(c) + 1e-8)
        for vector, ref in ((params, ref_params), (opt._cache, ref_cache)):
            assert np.array_equal(vector, np.concatenate([r.ravel() for r in ref]))


def test_make_optimizer_defaults_and_validation():
    p = np.zeros(3)
    assert make_optimizer("sgd", p).lr == 0.01
    assert make_optimizer("rmsprop", p).lr == 0.001
    assert make_optimizer("sgd", p, learning_rate=0.5).lr == 0.5
    with pytest.raises(ValueError) as exc:
        make_optimizer("adam", p)
    assert str(exc.value) == "unknown optimizer 'adam'; expected one of ('sgd', 'rmsprop')"
    assert make_optimizer("sgd", p, learning_rate=np.float64(0.25)).lr == 0.25
    for bad in (-1.0, 0.0, 0, -0.0, np.nan, np.inf, -np.inf, True, "0.1"):
        for name in ("sgd", "rmsprop"):
            with pytest.raises(ValueError, match="^learning_rate must be a finite number above 0, got "):
                make_optimizer(name, p, learning_rate=bad)


def _train_counting_predicts(epochs, batch_size=3, seed=0):
    """train on a 7-row problem whose batch_step and predict are stubs; the
    history and how often predict ran."""
    targets = np.zeros((7, 2))
    calls = []

    def predict():
        calls.append(None)
        return targets

    history = train(
        np.zeros(3), targets, optimizer="sgd", learning_rate=None, epochs=epochs,
        batch_size=batch_size, seed=seed, dropout=[((2,), 0.5)],
        batch_step=lambda rows, masks: (float(rows.size), [np.ones(3)]),
        predict=predict, name="stub",
    )
    return history, len(calls)


@pytest.mark.parametrize("epochs", [0, 1, 2, 5])
def test_train_runs_predict_once_after_the_last_epoch(epochs):
    history, predicts = _train_counting_predicts(epochs)
    assert predicts == min(epochs, 1)
    # batches of 3, 3 and 1 rows whose loss is their row count: (9 + 9 + 1) / 7
    assert history == [19 / 7] * epochs


@pytest.mark.parametrize("what, bad", [
    ("epochs", 2.5), ("epochs", True), ("epochs", np.float64(3.0)), ("epochs", "3"), ("epochs", -1),
    ("batch_size", 2.0), ("batch_size", True), ("batch_size", None), ("batch_size", 0),
    # unchecked, -1 ended in numpy's "expected non-negative integer" and True trained as seed 1
    ("seed", -1), ("seed", 2.5), ("seed", True),
])
def test_train_refuses_bad_epochs_and_batch_size(what, bad):
    least = 1 if what == "batch_size" else 0
    with pytest.raises(ValueError) as exc:
        _train_counting_predicts(**{"epochs": 1, what: bad})
    assert str(exc.value) == f"{what} must be an integer >= {least}, got {bad!r}"


@pytest.mark.parametrize("fit", ["mlp", "cnn"])
def test_a_network_that_overflows_at_the_last_step_diverges(fit):
    # one SGD step at rate 1e308 leaves finite weights whose output
    # overflows: only the check after the last epoch sees it
    X = np.random.default_rng(5).normal(size=(20, 16))
    Y = np.random.default_rng(6).normal(size=(20, 2))
    settings = dict(epochs=1, batch_size=20, optimizer="sgd", learning_rate=1e308, seed=0)
    with pytest.raises(TrainingDiverged, match=f"^{fit} loss became non-finite at epoch 0$"):
        with np.errstate(over="ignore", invalid="ignore"):
            if fit == "mlp":
                mlp_fit(X, Y, hidden=(8,), dropout=0.0, **settings)
            else:
                cnn_fit(X, Y, dropout_conv=0.0, dropout_dense=0.0, **settings)


def test_batch_slices_cover_order():
    order = np.arange(10)[::-1]
    batches = list(batch_slices(10, 4, order))
    assert [len(b) for b in batches] == [4, 4, 2]
    assert np.array_equal(np.concatenate(batches), order)


def test_fit_scaling_hand_values():
    X = np.array([[1.0, 3.0], [5.0, 7.0]])  # mean 4, std sqrt(5)
    Y = np.array([[2.0, 9.0, 1.0], [4.0, 9.0, 7.0]])
    s = fit_scaling(X, Y)
    assert (s.input_offset, s.input_scale) == (4.0, np.sqrt(5.0))
    assert np.array_equal(s.target_offset, [3.0, 9.0, 4.0])
    assert np.array_equal(s.target_scale, [1.0, 1.0, 3.0])  # a std of 0 becomes 1
    assert np.array_equal(s.targets(Y), [[-1.0, 0.0, -1.0], [1.0, 0.0, 1.0]])
    assert np.array_equal(s.outputs(s.targets(Y)), Y)
    constant = fit_scaling(np.full((3, 2), 5.0), Y[:1])
    assert (constant.input_offset, constant.input_scale) == (5.0, 1.0)


def test_the_default_scaling_is_the_identity():
    X = np.random.default_rng(2).normal(size=(4, 3)) * 1e6
    assert np.array_equal(Scaling().inputs(X), X)
    assert np.array_equal(Scaling().outputs(X), X)


@pytest.mark.parametrize("where", ["X", "Y"])
@pytest.mark.parametrize("fit", ["mlp", "cnn"])
def test_a_scale_that_overflows_is_one_value_error(where, fit):
    X = np.random.default_rng(3).normal(size=(6, 16))  # rows of 4x4 grids for the cnn
    Y = np.random.default_rng(4).normal(size=(6, 2))
    (X if where == "X" else Y)[1, 1] = 1e300  # finite, but the std overflows
    what = "inputs" if where == "X" else "targets"
    with pytest.raises(ValueError, match=f"cannot scale the {what}: their std overflows"):
        if fit == "mlp":
            mlp_fit(X, Y, hidden=(4,), epochs=1)
        else:
            cnn_fit(X, Y, epochs=1)
