"""The row contract every regressor keeps: what a fit and a predict accept."""

from __future__ import annotations

import numpy as np


def check_fit_inputs(X, Y, min_rows: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Finite float64 X (n, d) and Y (n, m), n >= min_rows; a 1-d Y is one column."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim == 1:
        Y = Y[:, None]
    if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise ValueError("X and Y must be 2-d with matching row counts")
    if not (np.isfinite(X).all() and np.isfinite(Y).all()):
        raise ValueError("X and Y must be finite (no NaN or inf)")
    if X.shape[0] < min_rows:
        raise ValueError(f"cannot fit on {X.shape[0]} rows: need at least {min_rows} rows")
    return X, Y


def check_rows(X, n_features: int) -> np.ndarray:
    """Finite float64 X (n, n_features) rows, the input of every predict."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != n_features:
        raise ValueError(f"X must be (n, {n_features}) rows, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("X must be finite (no NaN or inf)")
    return X
