"""The input check shared by every fit."""

from __future__ import annotations

import numpy as np


def check_fit_inputs(X, Y) -> tuple[np.ndarray, np.ndarray]:
    """Finite float64 X (n, d) and Y (n, m); a 1-d Y is one column."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim == 1:
        Y = Y[:, None]
    if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise ValueError("X and Y must be 2-d with matching row counts")
    if not (np.isfinite(X).all() and np.isfinite(Y).all()):
        raise ValueError("X and Y must be finite (no NaN or inf)")
    return X, Y
