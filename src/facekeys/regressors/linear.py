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

Two things make a fit cheaper without changing what it solves.

A sweep skips the visits that provably do nothing. Let u = 2^-53 and
gamma_j = j u / (1 - j u); a sum of j terms in any order is off by at
most gamma_(j-1) times the sum of their magnitudes (Higham, Accuracy and
Stability of Numerical Algorithms, 2002, ch. 3). A sweep over a rows
x_i (columns of Xc, n entries each) starts from the stored residual R0
and computes C_i = max_k |x_i . R0_k| with one product, the norms
|x_i|, and S = max_k |R0_k|. Let g = gamma_(n+a). A visit to a zero row
computes a = x_i . R_k from the stored R, and its step returns exactly
zero (rho = a / n, and soft thresholding clips it to itself) whenever
|a| <= n l1 for every output k. Bounding a:

- the product's C_i and the visit's dot are each off by at most
  gamma_n |x_i| |R_k|, from Cauchy-Schwarz on the sum of magnitudes;
- each stored update R <- R - x_j delta_j moves a column of R by at
  most (1 + u) |x_j| |delta_jk| + u |R_k| after it, so over the t <= a
  updates before the visit R_k drifts from R0_k by at most
  ``((1 + u) D + t u S) / (1 - t u)``, with D the sum of
  |x_j| max_k |delta_jk| over the moves applied so far;
- so ``|a| <= C_i + |x_i| ((1 + 2g) D + 3g S)``.

The computed norms and D are off by at most relative factors 1 + 2g and
1 + 4g, so the sweep skips the visit when, in floating point,
``C_i + |x_i| (D + 4g S) <= n l1 (1 - 16g)``: the remaining 16g covers
those factors and the rounding of the test itself. Near convergence D
is small, and about two thirds of the lasso's visits and a quarter of
the elastic net's on study-raw inputs are skipped. A skipped visit
would have left R and the row unchanged, so the sweep returns the same
coefficients and largest move as one that visits every row, bit for
bit.

Anderson extrapolation (Bertrand & Massias, Anderson acceleration of
coordinate descent, AISTATS 2021) jumps along the sweeps' path. After
_ANDERSON_K sweeps over one active set, each output column takes the K
differences of its last K + 1 iterates, solves G z = 1 with G their
K x K Gram matrix, and combines the last K iterates with weights
c = z / sum(z). The solver keeps an extrapolated column only if its
objective P is lower than the current one's by more than the accept
margin ``_ACCEPT_MARGIN gamma_(n+a+2) (B + B')``. Here B is a column's
objective with |y| + |X_A| |w| in place of the residual, which bounds
the rounding of its computed P by 6 gamma_(n+a+2) B. So an accepted
column lowers the exact objective, and where the exact gain is near
zero, as it is close to convergence, every BLAS build and thread count
rejects it alike instead of deciding by rounding noise. A change of the
active set starts the history again. An extrapolation is not a sweep:
max_iter counts sweeps, and the fit still stops only after a sweep
(see _coordinate_descent).
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

    def __post_init__(self):
        if self.weights.ndim != 2 or self.intercept.shape != self.weights.shape[1:]:
            raise ValueError(f"linear weights must be 2-d with an intercept per column, "
                             f"got shapes {self.weights.shape} and {self.intercept.shape}")


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

# Sweeps over one active set between extrapolations. On the study-raw
# fits of corpus seeds 1-3 (config seeds 7-9, 18 lasso and elastic fits
# of 360 x 2304) the visits summed to 53 922 per seed 1 without
# extrapolation, and at K = 3, 4, 5, 6 and 8 to 34 824, 33 923, 36 151,
# 37 082 and 42 620; K = 4 also beat K = 5 on seeds 2 (27 955 against
# 33 483) and 3 (28 790 against 30 203).
_ANDERSON_K = 4

# The accept margin of an extrapolation, in units of gamma_(n+a+2) times
# the two objectives' rounding scales: their computed values are each
# within 6 of those units of the exact ones (see the module docstring).
_ACCEPT_MARGIN = 16


def _gamma(j: int) -> float:
    """gamma_j = j u / (1 - j u), u = 2^-53: the relative error bound of a
    sum of j + 1 terms or a product of j factors."""
    u = np.finfo(np.float64).eps / 2
    return j * u / (1 - j * u)


def _moves_at_zero(Xc: np.ndarray, R: np.ndarray, l1: float) -> np.ndarray:
    """Rows whose coordinate step would move them away from zero.

    At w_j = 0 the step gives soft(Xc_j . r / n, l1), which is nonzero
    exactly when |Xc_j . r| / n > l1 for some output, lasso or elastic.
    """
    n = Xc.shape[0]
    return (np.abs(Xc.T @ R) / n > l1).any(axis=1)


def _sweep(XA: np.ndarray, col_sq: np.ndarray, norms: np.ndarray, WA: np.ndarray,
           Yc: np.ndarray, l1: float, l2: float) -> tuple[float, int]:
    """One cyclic pass over the rows of XA (columns of Xc, transposed),
    whose Euclidean norms are norms.

    Updates WA in place and returns the largest coefficient move and the
    number of rows visited. A row that is zero at its visit is skipped
    when the bound in the module docstring proves its step returns zero.
    """
    a, n = XA.shape
    # fresh residual each sweep so incremental float drift cannot build up
    R = Yc - XA.T @ WA
    start = WA.copy()
    g = _gamma(n + a)
    corr = np.abs(XA @ R).max(axis=1, initial=0.0)
    limit = n * l1 * (1.0 - 16.0 * g)
    slack = 4.0 * g * float(np.sqrt((R * R).sum(axis=0)).max(initial=0.0))
    # the bound only grows along the sweep, so a row that fails it at the
    # start fails it at its visit
    skippable = (~WA.any(axis=1) & (corr + norms * slack <= limit)).tolist()
    corr, norms = corr.tolist(), norms.tolist()
    visits = 0
    for i, c in enumerate(col_sq.tolist()):
        if skippable[i] and corr[i] + norms[i] * slack <= limit:
            continue
        visits += 1
        x = XA[i]
        w_old = WA[i]
        rho = (x @ R) / n + c * w_old
        # soft threshold: rho minus its clip to [-l1, l1]
        w_new = (rho - np.minimum(np.maximum(rho, -l1), l1)) / (c + l2)
        delta = w_new - w_old
        move = float(np.abs(delta).max())
        if move != 0.0:
            R -= x[:, None] * delta
            WA[i] = w_new
            slack += norms[i] * move
    # each row is visited once, so this is the largest move of the sweep
    return float(np.abs(WA - start).max(initial=0.0)), visits


def _objective(XA: np.ndarray, Yc: np.ndarray, WA: np.ndarray, l1: float,
               l2: float) -> tuple[np.ndarray, np.ndarray]:
    """Per output column of WA: the objective P and the scale B that
    bounds its rounding error (see the module docstring)."""
    n = XA.shape[1]
    R = Yc - XA.T @ WA
    B = np.abs(Yc) + np.abs(XA).T @ np.abs(WA)
    penalty = l1 * np.abs(WA).sum(axis=0) + 0.5 * l2 * (WA * WA).sum(axis=0)
    return (R * R).sum(axis=0) / (2 * n) + penalty, (B * B).sum(axis=0) / (2 * n) + penalty


def _extrapolate(XA: np.ndarray, Yc: np.ndarray, history: list[np.ndarray], l1: float,
                 l2: float) -> np.ndarray:
    """The last iterate of history, with each output column replaced by
    its Anderson extrapolation where that lowers the objective by more
    than the accept margin (see the module docstring)."""
    H = np.stack(history)  # (K + 1, a, m)
    last = H[-1]
    U = np.diff(H, axis=0)
    G = np.einsum("iak,jak->kij", U, U)
    ext = last.copy()
    ones = np.ones(len(U))
    # an ill-conditioned G can give weights or columns that are not finite;
    # their objective is then not lower, and the column is not taken
    with np.errstate(all="ignore"):
        for k in range(last.shape[1]):
            try:
                z = np.linalg.solve(G[k], ones)
            except np.linalg.LinAlgError:
                continue
            c = z / z.sum()
            if np.isfinite(c).all():
                ext[:, k] = c @ H[1:, :, k]
        (p_last, b_last), (p_ext, b_ext) = (_objective(XA, Yc, W, l1, l2) for W in (last, ext))
        margin = _ACCEPT_MARGIN * _gamma(XA.shape[1] + XA.shape[0] + 2) * (b_last + b_ext)
        return np.where(p_ext < p_last - margin, ext, last)


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
    solver cannot cycle). After _ANDERSON_K sweeps over one active set,
    each output column may jump to the Anderson extrapolation of those
    iterates (see the module docstring). The fit is converged when a
    sweep moves no coefficient by tol or more and the screen after it
    finds no violator. max_iter counts every sweep; running out returns
    converged=False.
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
            norms = np.sqrt(np.einsum("ij,ij->i", XA, XA))
            history = [W[active]]
        WA = W[active]
        max_delta, _ = _sweep(XA, col_sq[active], norms, WA, Yc, l1, l2)
        W[active] = WA
        history.append(WA)
        if sweep == 1:
            active, XA = active[WA.any(axis=1)], None
        if max_delta < tol or sweep % _SCREEN_EVERY == 0:
            outside = movable & _moves_at_zero(Xc, Yc - Xc @ W, l1)
            outside[active] = False
            if outside.any():
                active, XA = np.union1d(active, np.flatnonzero(outside)), None
            elif max_delta < tol:
                return W, True
        if XA is not None and len(history) > _ANDERSON_K:
            W[active] = _extrapolate(XA, Yc, history, l1, l2)
            history = [W[active]]
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
