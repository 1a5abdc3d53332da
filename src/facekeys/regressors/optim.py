"""Shared pieces for the gradient-trained models: init, optimizers, loss,
and the mini-batch training loop."""

from __future__ import annotations

import numpy as np


class TrainingDiverged(RuntimeError):
    """Loss became non-finite during training."""


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    """Uniform(-s, s) init with s = sqrt(6 / (fan_in + fan_out))."""
    s = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=shape)


def mse_loss_and_grad(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error over all entries and its gradient wrt pred."""
    diff = pred - target
    loss = float(np.mean(diff * diff))
    return loss, (2.0 / diff.size) * diff


def dropout_mask(rng: np.random.Generator, shape, rate: float) -> np.ndarray:
    """Inverted dropout mask: zeros with probability rate, survivors scaled."""
    keep = 1.0 - rate
    return (rng.random(shape) < keep).astype(np.float64) / keep


class Sgd:
    """SGD with classical momentum."""

    def __init__(self, params: list[np.ndarray], learning_rate: float = 0.01, momentum: float = 0.9):
        self.lr = learning_rate
        self.momentum = momentum
        self._velocity = [np.zeros_like(p) for p in params]

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        for p, g, v in zip(params, grads, self._velocity):
            v *= self.momentum
            v -= self.lr * g
            p += v


class RmsProp:
    """RMSprop with a decaying squared-gradient cache."""

    def __init__(self, params: list[np.ndarray], learning_rate: float = 0.001, decay: float = 0.9, eps: float = 1e-8):
        self.lr = learning_rate
        self.decay = decay
        self.eps = eps
        self._cache = [np.zeros_like(p) for p in params]

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        for p, g, c in zip(params, grads, self._cache):
            c *= self.decay
            c += (1.0 - self.decay) * g * g
            p -= self.lr * g / (np.sqrt(c) + self.eps)


_DEFAULT_LR = {"sgd": 0.01, "rmsprop": 0.001}


def make_optimizer(
    name: str,
    params: list[np.ndarray],
    learning_rate: float | None = None,
    momentum: float = 0.9,
    rms_decay: float = 0.9,
):
    """Build an optimizer by tag ('sgd' or 'rmsprop')."""
    if name not in _DEFAULT_LR:
        raise ValueError(f"unknown optimizer {name!r}")
    lr = _DEFAULT_LR[name] if learning_rate is None else learning_rate
    if name == "sgd":
        return Sgd(params, learning_rate=lr, momentum=momentum)
    return RmsProp(params, learning_rate=lr, decay=rms_decay)


def batch_slices(n: int, batch_size: int, order: np.ndarray):
    """Yield index arrays covering order in batch_size chunks."""
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


def train(
    params: list[np.ndarray],
    opt,
    n: int,
    *,
    epochs: int,
    batch_size: int,
    seed: int,
    dropout: list[tuple[tuple[int, ...], float]],
    batch_step,
    full_loss,
    name: str,
) -> list[float]:
    """Mini-batch training loop shared by the MLP and the CNN; the loss history.

    Batching and dropout draw from one stream, default_rng(seed + 1). Each
    epoch draws a permutation of the n rows; each batch then draws one
    inverted-dropout mask per (per-row shape, rate) entry of dropout, in
    order, when any rate is above 0 (else masks is None), and steps opt on
    the gradients of batch_step(rows, masks) -> (loss, grads in params
    order). The history holds full_loss() after every epoch. A non-finite
    batch or epoch loss raises TrainingDiverged naming the epoch.
    """
    rng = np.random.default_rng(seed + 1)
    draw = any(rate > 0.0 for _, rate in dropout)
    history: list[float] = []
    for epoch in range(epochs):
        order = rng.permutation(n)
        for rows in batch_slices(n, batch_size, order):
            masks = None
            if draw:
                masks = [dropout_mask(rng, (rows.size, *shape), rate) for shape, rate in dropout]
            loss, grads = batch_step(rows, masks)
            if not np.isfinite(loss):
                raise TrainingDiverged(f"{name} loss became non-finite at epoch {epoch}")
            opt.step(params, grads)
        epoch_loss = full_loss()
        if not np.isfinite(epoch_loss):
            raise TrainingDiverged(f"{name} loss became non-finite at epoch {epoch}")
        history.append(epoch_loss)
    return history
