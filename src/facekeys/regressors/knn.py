"""k-nearest-neighbor regression by exhaustive Euclidean search."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._inputs import check_count, check_fit_inputs, check_rows


@dataclass(eq=False)
class KnnModel:
    """Stored training matrix; prediction averages the k nearest rows.

    Building one raises ValueError unless X and Y are 2-d with one row
    per training row and k is an integer (a bool is not) in [1, n].
    """

    X: np.ndarray  # (n, d)
    Y: np.ndarray  # (n, m)
    k: int

    def __post_init__(self):
        if self.X.ndim != 2 or self.Y.ndim != 2 or len(self.X) != len(self.Y):
            raise ValueError(f"knn X and Y must be 2-d with matching row counts, "
                             f"got shapes {self.X.shape} and {self.Y.shape}")
        check_count("k", self.k, 1, len(self.X))


def knn_fit(X, Y, k: int = 5) -> KnnModel:
    """Store copies of X and Y. A k that is not an integer (a bool is not)
    in [1, n] raises ValueError, as does NaN or inf in X or Y."""
    check_count("k", k, 1)
    X, Y = check_fit_inputs(X, Y)
    return KnnModel(X=X.copy(), Y=Y.copy(), k=k)


def knn_predict(model: KnnModel, Xq) -> np.ndarray:
    """Mean target of the k nearest training rows per query.

    Distance ties are broken toward the lower training index. With k equal
    to the training size every query returns the global target mean.
    """
    Xq = check_rows(Xq, model.X.shape[1])
    # squared distances via the expansion ||q||^2 - 2 q.x + ||x||^2
    train_sq = (model.X * model.X).sum(axis=1)
    query_sq = (Xq * Xq).sum(axis=1)
    d2 = query_sq[:, None] - 2.0 * (Xq @ model.X.T) + train_sq[None, :]
    np.maximum(d2, 0.0, out=d2)
    # stable sort keeps equal distances in training order
    nearest = np.argsort(d2, axis=1, kind="stable")[:, : model.k]
    return model.Y[nearest].mean(axis=1)
