"""Linear model family: least squares, ridge, lasso, elastic net.

All four fit an unpenalized intercept by centering X and Y. The penalized
objectives follow the 1/(2n) data-term convention:

    lasso:    (1/2n) ||Xw - y||^2 + alpha ||w||_1
    elastic:  (1/2n) ||Xw - y||^2 + alpha*rho ||w||_1
                                  + alpha*(1-rho)/2 ||w||^2
    ridge:    ||Xw - y||^2 + lam ||w||^2   (closed form)

so elastic with rho=1 is the lasso and with rho=0 it matches ridge at
lam = alpha * n. Lasso and elastic are solved by active-set coordinate
descent with soft thresholding (Friedman, Hastie & Tibshirani 2010):
after one sweep over the rows that a screen picks at w = 0, cyclic sweeps
visit only the rows that have moved, and a one-matmul screen of the KKT
conditions of the zero rows, run every few sweeps, adds the rows that
must move. A fit is converged when a sweep moves no coefficient by tol or
more and every zero row has |X_j . r| / n <= alpha (alpha * rho for
elastic).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._inputs import check_fit_inputs, check_rows


@dataclass(eq=False)
class LinearModel:
    """Per-output weight columns plus intercept row."""

    weights: np.ndarray  # (d, m)
    intercept: np.ndarray  # (m,)
    converged: bool = True


def linear_predict(model: LinearModel, X) -> np.ndarray:
    return check_rows(X, model.weights.shape[0]) @ model.weights + model.intercept


def _center(X, Y):
    x_mean = X.mean(axis=0)
    y_mean = Y.mean(axis=0)
    return X - x_mean, Y - y_mean, x_mean, y_mean


def ols_fit(X, Y) -> LinearModel:
    """Least squares with intercept via a rank-tolerant solve.

    Rank-deficient inputs get the minimum-norm weight solution.
    """
    X, Y = check_fit_inputs(X, Y, min_rows=2)
    Xc, Yc, x_mean, y_mean = _center(X, Y)
    W, *_ = np.linalg.lstsq(Xc, Yc, rcond=None)
    return LinearModel(weights=W, intercept=y_mean - x_mean @ W)


def ridge_fit(X, Y, lam: float = 1.0) -> LinearModel:
    """Closed-form ridge: W = (Xc^T Xc + lam I)^-1 Xc^T Yc.

    The intercept is unpenalized (fit on centered data). lam = 0 falls
    back to the least-squares path. When there are more features than
    rows the algebraically identical dual form
    W = Xc^T (Xc Xc^T + lam I)^-1 Yc is solved instead.
    """
    if lam < 0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    if lam == 0.0:
        return ols_fit(X, Y)
    X, Y = check_fit_inputs(X, Y, min_rows=2)
    Xc, Yc, x_mean, y_mean = _center(X, Y)
    n, d = Xc.shape
    if d <= n:
        A = Xc.T @ Xc + lam * np.eye(d)
        W = np.linalg.solve(A, Xc.T @ Yc)
    else:
        A = Xc @ Xc.T + lam * np.eye(n)
        W = Xc.T @ np.linalg.solve(A, Yc)
    return LinearModel(weights=W, intercept=y_mean - x_mean @ W)


# Sweeps between screens while the active sweeps have not converged. At
# 2304 columns a screen costs about as much as a Python sweep over 100
# rows. Screening only once the active rows converge lets the solver run
# long toward the solution of a restricted problem: on a 108x1024
# raw-pixel lasso it took 3823 sweeps, where plain cyclic descent takes
# fewer than 1000 and this period 953.
_SCREEN_EVERY = 5


def _moves_at_zero(Xc: np.ndarray, R: np.ndarray, l1: float) -> np.ndarray:
    """Rows whose coordinate step would move them away from zero.

    At w_j = 0 the step gives soft(Xc_j . r / n, l1), which is nonzero
    exactly when |Xc_j . r| / n > l1 for some output, lasso or elastic.
    """
    n = Xc.shape[0]
    return (np.abs(Xc.T @ R) / n > l1).any(axis=1)


def _sweep(XA: np.ndarray, col_sq: np.ndarray, WA: np.ndarray, Yc: np.ndarray,
           l1: float, l2: float) -> float:
    """One cyclic pass over the rows of XA (columns of Xc, transposed).

    Updates WA in place and returns the largest coefficient move.
    """
    n = XA.shape[1]
    # fresh residual each sweep so incremental float drift cannot build up
    R = Yc - XA.T @ WA
    max_delta = 0.0
    for i, c in enumerate(col_sq.tolist()):
        x = XA[i]
        w_old = WA[i]
        rho = (x @ R) / n + c * w_old
        # soft threshold: rho minus its clip to [-l1, l1]
        w_new = (rho - np.minimum(np.maximum(rho, -l1), l1)) / (c + l2)
        delta = w_new - w_old
        move = np.abs(delta).max()
        if move != 0.0:
            R -= x[:, None] * delta
            WA[i] = w_new
            max_delta = max(max_delta, float(move))
    return max_delta


def _coordinate_descent(
    Xc: np.ndarray,
    Yc: np.ndarray,
    l1: float,
    l2: float,
    max_iter: int,
    tol: float,
) -> tuple[np.ndarray, bool]:
    """Active-set coordinate descent on centered data, all outputs at once.

    Minimizes (1/2n)||Xw - y||^2 + l1 ||w||_1 + (l2/2) ||w||^2 per output
    column. The screen |Xc^T r| / n > l1 finds every zero row that a
    coordinate step would move. The first sweep visits only the rows the
    screen picks at w = 0; after it, the active set is the nonzero rows,
    and sweeps visit only those, over a contiguous copy of their columns.
    The screen runs again on the rows outside the set after every
    _SCREEN_EVERY-th sweep and after every sweep that moves no coefficient
    by tol or more; violators join the set (which never shrinks, so the
    solver cannot cycle). The fit is converged when a sweep moves no
    coefficient by tol or more and the screen after it finds no violator.
    max_iter counts every sweep; running out returns converged=False.
    """
    n, d = Xc.shape
    col_sq = (Xc * Xc).sum(axis=0) / n
    movable = col_sq > 0.0
    W = np.zeros((d, Yc.shape[1]))
    active = np.flatnonzero(movable & _moves_at_zero(Xc, Yc, l1))
    XA = None
    for sweep in range(1, max_iter + 1):
        if XA is None:
            XA = np.ascontiguousarray(Xc[:, active].T)
        WA = W[active]
        max_delta = _sweep(XA, col_sq[active], WA, Yc, l1, l2)
        W[active] = WA
        if sweep == 1:
            active, XA = active[WA.any(axis=1)], None
        if max_delta < tol or sweep % _SCREEN_EVERY == 0:
            outside = movable & _moves_at_zero(Xc, Yc - Xc @ W, l1)
            outside[active] = False
            if outside.any():
                active, XA = np.union1d(active, np.flatnonzero(outside)), None
            elif max_delta < tol:
                return W, True
    return W, False


def _check_cd(alpha: float, max_iter: int, tol: float) -> None:
    if alpha < 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")


def lasso_fit(X, Y, alpha: float = 0.1, max_iter: int = 1000, tol: float = 1e-6) -> LinearModel:
    """L1-penalized least squares by active-set coordinate descent.

    At a solution the KKT conditions hold: for zero coefficients the
    per-feature correlation |X_j . r| / n stays within alpha, for active
    ones it equals alpha * sign(w_j). The fit stops when a sweep over the
    active rows moves no coefficient by tol or more and no zero row
    violates its condition; max_iter caps the sweeps. Non-convergence
    is reported through the model's converged flag, not an exception.
    It is elastic_fit at rho=1, whose penalties are then exactly alpha
    and 0.0.
    """
    return elastic_fit(X, Y, alpha, 1.0, max_iter, tol)


def elastic_fit(
    X,
    Y,
    alpha: float = 0.1,
    rho: float = 0.5,
    max_iter: int = 1000,
    tol: float = 1e-6,
) -> LinearModel:
    """Mixed L1/L2 penalty; rho=1 is the lasso, rho=0 is ridge at lam=alpha*n.

    Solved and stopped as lasso_fit is.
    """
    _check_cd(alpha, max_iter, tol)
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must be in [0, 1], got {rho}")
    X, Y = check_fit_inputs(X, Y, min_rows=2)
    Xc, Yc, x_mean, y_mean = _center(X, Y)
    W, converged = _coordinate_descent(
        Xc, Yc, alpha * rho, alpha * (1.0 - rho), max_iter, tol
    )
    return LinearModel(weights=W, intercept=y_mean - x_mean @ W, converged=converged)
