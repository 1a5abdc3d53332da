"""Fully connected regression network trained by backprop.

Every hidden layer uses tanh (the only activation), the output layer is
linear, and the loss is mean squared error. Training runs mini-batch
SGD-with-momentum or RMSprop with inverted dropout on hidden activations.
The network trains on inputs and targets standardized by optim.fit_scaling
(learned from the training split) and predict maps its output back, which
keeps tanh out of saturation. The weights and biases of a fit are views of
one parameter vector. The CNN's dense head runs _forward and _backward.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._inputs import check_count, check_fit_inputs, check_rows
from .optim import Scaling, fit_scaling, glorot_uniform, mse_loss_and_grad, param_vector, train


@dataclass(eq=False)
class MlpModel:
    """Weights/biases per layer plus the scaling used in training.

    Building one raises ValueError unless there is at least one layer,
    each weight is 2-d with a bias of its fan_out, and each layer's fan_in
    is the previous layer's fan_out.
    """

    weights: list[np.ndarray]  # layer i: (fan_in, fan_out)
    biases: list[np.ndarray]
    scaling: Scaling = Scaling()
    loss_history: list[float] = field(default_factory=list)

    def __post_init__(self):
        if not layers_chain(self.weights, self.biases):
            raise ValueError(f"mlp layers do not chain: weights {[w.shape for w in self.weights]}, "
                             f"biases {[b.shape for b in self.biases]}")

    @property
    def n_inputs(self) -> int:
        return self.weights[0].shape[0]


def layers_chain(weights: list[np.ndarray], biases: list[np.ndarray]) -> bool:
    """Whether there is at least one layer, each weight is 2-d with a bias
    of its fan_out, and each layer's fan_in is the previous fan_out."""
    return bool(
        weights and len(weights) == len(biases)
        and all(w.ndim == 2 and b.shape == (w.shape[1],) for w, b in zip(weights, biases))
        and all(a.shape[1] == w.shape[0] for a, w in zip(weights, weights[1:]))
    )


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


def _backward(weights, cache, dpred, masks=None, input_grad=False):
    """Weight and bias gradients from the output gradient dpred and the
    cache of _forward with the same masks; with input_grad, also dX."""
    acts, hs = cache
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
    return grads_w, grads_b, delta @ weights[0].T if input_grad else None


def loss_and_gradients(
    weights: list[np.ndarray],
    biases: list[np.ndarray],
    X: np.ndarray,
    Y: np.ndarray,
    masks: list[np.ndarray] | None = None,
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """MSE loss and its gradients for every weight and bias tensor."""
    pred, cache = _forward(weights, biases, X, masks)
    loss, dpred = mse_loss_and_grad(pred, Y)
    grads_w, grads_b, _ = _backward(weights, cache, dpred, masks)
    return loss, grads_w, grads_b


def init_mlp(
    n_inputs: int,
    hidden: tuple[int, ...],
    n_outputs: int,
    seed: int,
) -> MlpModel:
    """Glorot-uniform initialized network, deterministic per seed.

    Raises ValueError, naming hidden[i], unless every hidden width is an
    integer >= 1, and naming seed unless it is an integer >= 0 (a bool is
    neither).
    """
    for i, width in enumerate(hidden):
        check_count(f"hidden[{i}]", width, 1)
    check_count("seed", seed, 0)
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
    seed: int = 0,
) -> MlpModel:
    """Train an MLP regressor on X and Y scaled by fit_scaling(X, Y).

    The recorded loss_history holds, per epoch, the row-weighted mean of
    its mini-batch losses (under dropout, scaled target space), as
    optim.train records it; one forward pass over the whole training set
    (dropout off) after the last epoch checks the final network. A
    non-finite loss aborts with TrainingDiverged naming the epoch; NaN or
    inf in X or Y, or a std of X or of a Y column that overflows, raises
    ValueError, as does a setting init_mlp or optim.train refuses.
    """
    X, Y = check_fit_inputs(X, Y)

    model = init_mlp(X.shape[1], tuple(hidden), Y.shape[1], seed)
    model.scaling = fit_scaling(X, Y)
    X, Ys = model.scaling.inputs(X), model.scaling.targets(Y)

    k = len(model.weights)
    params, views = param_vector(model.weights + model.biases)
    model.weights, model.biases = views[:k], views[k:]

    def batch_step(rows, masks):
        loss, gw, gb = loss_and_gradients(model.weights, model.biases, X[rows], Ys[rows], masks)
        return loss, gw + gb

    model.loss_history = train(
        params, Ys, optimizer=optimizer, learning_rate=learning_rate,
        epochs=epochs, batch_size=batch_size, seed=seed,
        dropout=[((w.shape[1],), dropout) for w in model.weights[:-1]],
        batch_step=batch_step, predict=lambda: forward(model.weights, model.biases, X), name="mlp",
    )
    return model


def mlp_predict(model: MlpModel, X) -> np.ndarray:
    """Deterministic forward pass (dropout off) on scaled inputs, outputs in target units."""
    X = model.scaling.inputs(check_rows(X, model.n_inputs))
    return model.scaling.outputs(forward(model.weights, model.biases, X))
