"""Shared pieces for the gradient-trained models: the scaling rule, init,
optimizers, loss, and the mini-batch training loop. A fit trains one
parameter vector (see param_vector); the optimizers' updates are
elementwise, so stepping it whole equals stepping each array on its own,
bit for bit."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._inputs import check_choice, check_count, check_number


class TrainingDiverged(RuntimeError):
    """Loss became non-finite during training."""


@dataclass(frozen=True, eq=False)
class Scaling:
    """How a network's inputs and targets are scaled; the defaults are the identity.

    A network trains on inputs(X) against targets(Y), and outputs() maps
    its output back to target units. The input fields are scalars over
    all entries; the target fields hold one value per target column, or
    one scalar for all columns, as model files written before fit_scaling
    do.
    """

    input_offset: float = 0.0
    input_scale: float = 1.0
    target_offset: np.ndarray | float = 0.0
    target_scale: np.ndarray | float = 1.0

    def inputs(self, X: np.ndarray) -> np.ndarray:
        return (X - self.input_offset) / self.input_scale

    def targets(self, Y: np.ndarray) -> np.ndarray:
        return (Y - self.target_offset) / self.target_scale

    def outputs(self, pred: np.ndarray) -> np.ndarray:
        return pred * self.target_scale + self.target_offset


def fit_scaling(X: np.ndarray, Y: np.ndarray) -> Scaling:
    """The networks' one scaling rule, learned from training inputs X and
    (n, m) targets Y: zero mean and unit std (LeCun, Bottou, Orr & Mueller
    1998, "Efficient BackProp"). The inputs get one mean and std over all
    entries, the targets one per column; a std of 0 becomes 1. A std that
    is not finite in float64 raises ValueError.
    """
    input_offset, input_scale = _mean_and_scale(X, None, "inputs")
    target_offset, target_scale = _mean_and_scale(Y, 0, "targets")
    return Scaling(float(input_offset), float(input_scale), target_offset, target_scale)


def _mean_and_scale(values: np.ndarray, axis, what: str):
    """Mean and std of values over axis, a std of 0 replaced by 1."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean, std = values.mean(axis=axis), values.std(axis=axis)
    # an overflowing mean makes the std inf or NaN too
    if not np.isfinite(std).all():
        raise ValueError(f"cannot scale the {what}: their std overflows float64 "
                         f"(largest magnitude {np.abs(values).max():.3g})")
    return mean, np.where(std == 0.0, 1.0, std)


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    """Uniform(-s, s) init with s = sqrt(6 / (fan_in + fan_out))."""
    s = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=shape)


def mse_loss_and_grad(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error over all entries and its gradient wrt pred.

    A loss beyond float64 range is inf, without an overflow warning:
    train reports it as TrainingDiverged.
    """
    with np.errstate(over="ignore"):
        diff = pred - target
        loss = float(np.mean(diff * diff))
    return loss, (2.0 / diff.size) * diff


def dropout_mask(rng: np.random.Generator, shape, rate: float) -> np.ndarray:
    """Inverted dropout mask: zeros with probability rate, survivors scaled."""
    keep = 1.0 - rate
    return (rng.random(shape) < keep).astype(np.float64) / keep


class Sgd:
    """SGD with classical momentum on one parameter vector."""

    def __init__(self, params: np.ndarray, learning_rate: float = 0.01, momentum: float = 0.9):
        self.lr = learning_rate
        self.momentum = momentum
        self._velocity = np.zeros_like(params)

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        self._velocity *= self.momentum
        self._velocity -= self.lr * grads
        params += self._velocity


class RmsProp:
    """RMSprop with a decaying squared-gradient cache, on one parameter vector."""

    def __init__(self, params: np.ndarray, learning_rate: float = 0.001, decay: float = 0.9, eps: float = 1e-8):
        self.lr = learning_rate
        self.decay = decay
        self.eps = eps
        self._cache = np.zeros_like(params)
        self._work = np.empty((2, *params.shape))

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        c, (t, step) = self._cache, self._work
        c *= self.decay
        np.multiply(1.0 - self.decay, grads, out=t)
        t *= grads
        c += t
        np.sqrt(c, out=t)
        t += self.eps
        np.multiply(self.lr, grads, out=step)
        step /= t
        params -= step


#: the optimizers by tag
OPTIMIZERS = {"sgd": Sgd, "rmsprop": RmsProp}


def make_optimizer(name: str, params: np.ndarray, learning_rate: float | None = None):
    """Build an optimizer by tag (an OPTIMIZERS key); None keeps its default
    rate. A rate that is not a finite number above 0 raises ValueError."""
    check_choice("optimizer", name, OPTIMIZERS)
    if learning_rate is not None:
        check_number("learning_rate", learning_rate, 0, above=True)
    lr = {} if learning_rate is None else {"learning_rate": learning_rate}
    return OPTIMIZERS[name](params, **lr)


def param_vector(arrays: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """One vector holding the arrays' values in order, and views of it shaped like each."""
    vector = np.concatenate([np.ravel(a) for a in arrays])
    ends = np.cumsum([a.size for a in arrays])
    return vector, [vector[e - a.size : e].reshape(a.shape) for a, e in zip(arrays, ends)]


def batch_slices(n: int, batch_size: int, order: np.ndarray):
    """Yield index arrays covering order in batch_size chunks."""
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


def train(
    params: np.ndarray,
    targets: np.ndarray,
    *,
    optimizer: str,
    learning_rate: float | None,
    epochs: int,
    batch_size: int,
    seed: int,
    dropout: list[tuple[tuple[int, ...], float]],
    batch_step,
    predict,
    name: str,
) -> list[float]:
    """Mini-batch training loop shared by the MLP and the CNN; the loss history.

    Batching and dropout draw from one stream, default_rng(seed + 1). Each
    epoch draws a permutation of the n target rows; each batch then draws
    one inverted-dropout mask per (per-row shape, rate) entry of dropout,
    in order, when any rate is above 0 (else masks is None), and steps the
    vector params on the gradients of batch_step(rows, masks) -> (loss,
    grads in params order), packed into one vector. The history gains one
    entry per epoch: the row-weighted mean of that epoch's batch losses
    (under dropout, each taken before its batch's step), summed in batch
    order. After the last epoch, the MSE of predict(), the output for all
    n rows with dropout off, against targets is checked once: a fit whose
    final network overflows raises even when every batch loss was finite.

    A dropout rate that is not a finite number in [0, 1), epochs or seed
    that is not an integer >= 0, or batch_size that is not an integer >= 1
    (a bool is none of these) raises ValueError, as does a learning_rate
    make_optimizer refuses; a non-finite batch loss, epoch mean or final
    MSE raises TrainingDiverged naming the epoch.
    """
    for _, rate in dropout:
        check_number("dropout rate", rate, 0, 1, below=True)
    check_count("epochs", epochs, 0)
    check_count("seed", seed, 0)
    check_count("batch_size", batch_size, 1)
    opt = make_optimizer(optimizer, params, learning_rate)
    grad = np.empty_like(params)
    rng = np.random.default_rng(seed + 1)
    n = targets.shape[0]
    draw = any(rate > 0.0 for _, rate in dropout)
    history: list[float] = []
    for epoch in range(epochs):
        order = rng.permutation(n)
        total = 0.0
        for rows in batch_slices(n, batch_size, order):
            masks = None
            if draw:
                masks = [dropout_mask(rng, (rows.size, *shape), rate) for shape, rate in dropout]
            loss, grads = batch_step(rows, masks)
            if not np.isfinite(loss):
                raise TrainingDiverged(f"{name} loss became non-finite at epoch {epoch}")
            total += loss * rows.size
            np.concatenate([g.ravel() for g in grads], out=grad)
            opt.step(params, grad)
        history.append(total / n)
        if not np.isfinite(history[-1]):
            raise TrainingDiverged(f"{name} loss became non-finite at epoch {epoch}")
    if epochs and not np.isfinite(mse_loss_and_grad(predict(), targets)[0]):
        raise TrainingDiverged(f"{name} loss became non-finite at epoch {epochs - 1}")
    return history
