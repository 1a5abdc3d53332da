"""Fully connected regression network trained by backprop.

Every hidden layer uses tanh (the only activation), the output layer is
linear, and the loss is mean squared error. Training runs mini-batch
SGD-with-momentum or RMSprop with inverted dropout on hidden activations.
Target coordinates are fit in the scaled space y' = (y - 48) / 48 and
mapped back at prediction time, which keeps the linear output head in
tanh-friendly range.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._inputs import check_fit_inputs
from .optim import glorot_uniform, make_optimizer, mse_loss_and_grad, train


@dataclass(eq=False)
class MlpModel:
    """Weights/biases per layer plus the target scaling used in training."""

    weights: list[np.ndarray]  # layer i: (fan_in, fan_out)
    biases: list[np.ndarray]
    target_offset: float = 0.0
    target_scale: float = 1.0
    loss_history: list[float] = field(default_factory=list)

    @property
    def n_inputs(self) -> int:
        return self.weights[0].shape[0]

    @property
    def n_outputs(self) -> int:
        return self.weights[-1].shape[1]


def _forward(
    weights: list[np.ndarray],
    biases: list[np.ndarray],
    X: np.ndarray,
    masks: list[np.ndarray] | None = None,
):
    """Network output for a batch, and the cache backprop reads.

    masks apply dropout to hidden layers. The cache holds every layer's
    input (after dropout) and every hidden activation (before dropout).
    """
    acts = [X]
    hs = []
    for i in range(len(weights) - 1):
        h = np.tanh(acts[i] @ weights[i] + biases[i])
        hs.append(h)
        acts.append(h * masks[i] if masks is not None else h)
    return acts[-1] @ weights[-1] + biases[-1], (acts, hs)


def forward(weights, biases, X, masks=None) -> np.ndarray:
    """Network output for a batch; masks apply dropout to hidden layers."""
    return _forward(weights, biases, X, masks)[0]


def loss_and_gradients(
    weights: list[np.ndarray],
    biases: list[np.ndarray],
    X: np.ndarray,
    Y: np.ndarray,
    masks: list[np.ndarray] | None = None,
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """MSE loss and its gradients for every weight and bias tensor."""
    pred, (acts, hs) = _forward(weights, biases, X, masks)
    loss, dpred = mse_loss_and_grad(pred, Y)

    last = len(weights) - 1
    grads_w: list[np.ndarray] = [None] * len(weights)
    grads_b: list[np.ndarray] = [None] * len(weights)
    delta = dpred
    grads_w[last] = acts[last].T @ delta
    grads_b[last] = delta.sum(axis=0)
    for i in range(last - 1, -1, -1):
        delta = delta @ weights[i + 1].T
        if masks is not None:
            delta = delta * masks[i]
        delta = delta * (1.0 - hs[i] * hs[i])
        grads_w[i] = acts[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
    return loss, grads_w, grads_b


def init_mlp(
    n_inputs: int,
    hidden: tuple[int, ...],
    n_outputs: int,
    seed: int,
) -> MlpModel:
    """Glorot-uniform initialized network, deterministic per seed."""
    rng = np.random.default_rng(seed)
    sizes = (n_inputs, *hidden, n_outputs)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(glorot_uniform(rng, fan_in, fan_out, (fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(weights=weights, biases=biases)


def mlp_fit(
    X,
    Y,
    hidden: tuple[int, ...] = (300, 150, 50),
    epochs: int = 500,
    batch_size: int = 30,
    optimizer: str = "rmsprop",
    learning_rate: float | None = None,
    dropout: float = 0.5,
    momentum: float = 0.9,
    rms_decay: float = 0.9,
    seed: int = 0,
    scale_targets: bool = True,
) -> MlpModel:
    """Train an MLP regressor.

    The recorded loss_history holds the full-training-set MSE (dropout
    off, scaled target space) at the end of each epoch, computed by the
    forward pass alone. A non-finite loss aborts with TrainingDiverged
    naming the epoch; NaN or inf in X or Y raises ValueError.
    """
    X, Y = check_fit_inputs(X, Y)
    if X.shape[0] == 0:
        raise ValueError("cannot fit an mlp on 0 rows")
    if not 0.0 <= dropout < 1.0:
        raise ValueError(f"dropout must be in [0, 1), got {dropout}")
    if epochs < 0 or batch_size < 1:
        raise ValueError("epochs must be >= 0 and batch_size >= 1")

    model = init_mlp(X.shape[1], tuple(hidden), Y.shape[1], seed)
    if scale_targets:
        model.target_offset, model.target_scale = 48.0, 48.0
    Ys = (Y - model.target_offset) / model.target_scale

    params = model.weights + model.biases

    def batch_step(rows, masks):
        loss, gw, gb = loss_and_gradients(model.weights, model.biases, X[rows], Ys[rows], masks)
        return loss, gw + gb

    def full_loss():
        pred = forward(model.weights, model.biases, X)
        return mse_loss_and_grad(pred, Ys)[0]

    model.loss_history = train(
        params, make_optimizer(optimizer, params, learning_rate, momentum, rms_decay),
        X.shape[0], epochs=epochs, batch_size=batch_size, seed=seed,
        dropout=[((w.shape[1],), dropout) for w in model.weights[:-1]],
        batch_step=batch_step, full_loss=full_loss, name="mlp",
    )
    return model


def mlp_predict(model: MlpModel, X) -> np.ndarray:
    """Deterministic forward pass (dropout off), unscaled outputs."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_inputs:
        raise ValueError(f"X must be (n, {model.n_inputs})")
    pred = forward(model.weights, model.biases, X)
    return pred * model.target_scale + model.target_offset
