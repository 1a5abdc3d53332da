"""The package's one value rule: a valid choice, count, number and row block. Each check
raises error (ValueError, or the calling module's own subclass) naming the value."""

from __future__ import annotations

import math
from numbers import Integral, Real

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


def check_rows(X, n_features: int, error: type = ValueError, name: str = "X") -> np.ndarray:
    """Finite float64 (n, n_features) rows named name, the input of every predict and transform."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != n_features:
        raise error(f"{name} must be (n, {n_features}) rows, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise error(f"{name} must be finite (no NaN or inf)")
    return X


def check_choice(name: str, value, choices, error: type = ValueError) -> None:
    """One of choices, by type and equality: any other value, unhashable or an array too, is not."""
    choices = tuple(choices)
    if not any(isinstance(value, type(choice)) and value == choice for choice in choices):
        raise error(f"unknown {name} {value!r}; expected one of {choices}")


def check_count(name: str, value, least: int, most: int | None = None,
                error: type = ValueError) -> None:
    """A count: an integer (a bool is not) >= least, and <= most when given."""
    if (isinstance(value, bool) or not isinstance(value, Integral) or value < least
            or most is not None and value > most):
        where = f">= {least}" if most is None else f"in [{least}, {most}]"
        raise error(f"{name} must be an integer {where}, got {value!r}")


def check_number(name: str, value, low: float, high: float = math.inf, above: bool = False,
                 below: bool = False, error: type = ValueError) -> None:
    """A rate or penalty: a finite real number (a bool is not) in [low, high],
    where above excludes low and below excludes high."""
    if (isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value)
            or not (value > low if above else value >= low)
            or not (value < high if below else value <= high)):
        where = ((f"above {low}" if above else f">= {low}") if high == math.inf
                 else f"in {'(' if above else '['}{low}, {high}{')' if below else ']'}")
        raise error(f"{name} must be a finite number {where}, got {value!r}")
