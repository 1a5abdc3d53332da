import numpy as np
import pytest

from facekeys.regressors.optim import (
    RmsProp,
    Sgd,
    batch_slices,
    dropout_mask,
    glorot_uniform,
    make_optimizer,
    mse_loss_and_grad,
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
    opt = Sgd([p], learning_rate=0.1, momentum=0.9)
    opt.step([p], [np.array([0.5])])
    assert p[0] == pytest.approx(0.95)  # v = -0.05
    opt.step([p], [np.array([0.5])])
    assert p[0] == pytest.approx(0.855)  # v = 0.9*-0.05 - 0.05 = -0.095


def test_rmsprop_hand_step():
    p = np.array([1.0])
    opt = RmsProp([p], learning_rate=0.001, decay=0.9, eps=1e-8)
    opt.step([p], [np.array([2.0])])
    cache = 0.1 * 4.0
    assert p[0] == pytest.approx(1.0 - 0.001 * 2.0 / (np.sqrt(cache) + 1e-8))


@pytest.mark.parametrize("decay", [0.0, 0.5, 0.9, 0.99])
def test_rmsprop_step_equals_the_one_expression_step(decay):
    # the in-place step does the same float operations in the same order
    rng = np.random.default_rng(3)
    shapes = [(4, 3), (7,), (2, 3, 5)]
    params = [rng.normal(size=s) for s in shapes]
    ref_params = [p.copy() for p in params]
    ref_cache = [np.zeros(s) for s in shapes]
    opt = RmsProp(params, learning_rate=0.003, decay=decay)
    for _ in range(5):
        grads = [rng.normal(size=s) * 10.0 ** rng.integers(-6, 3) for s in shapes]
        opt.step(params, grads)
        for p, g, c in zip(ref_params, grads, ref_cache):
            c *= decay
            c += (1.0 - decay) * g * g
            p -= 0.003 * g / (np.sqrt(c) + 1e-8)
        for p, ref in zip(params + opt._cache, ref_params + ref_cache):
            assert np.array_equal(p, ref)


def test_make_optimizer_defaults_and_validation():
    p = [np.zeros(3)]
    assert make_optimizer("sgd", p).lr == 0.01
    assert make_optimizer("rmsprop", p).lr == 0.001
    assert make_optimizer("sgd", p, learning_rate=0.5).lr == 0.5
    with pytest.raises(ValueError, match="optimizer"):
        make_optimizer("adam", p)


def test_batch_slices_cover_order():
    order = np.arange(10)[::-1]
    batches = list(batch_slices(10, 4, order))
    assert [len(b) for b in batches] == [4, 4, 2]
    assert np.array_equal(np.concatenate(batches), order)
