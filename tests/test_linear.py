import numpy as np
import pytest

from conftest import kaggle_size_block
from facekeys.regressors import linear
from facekeys.regressors.linear import (
    LinearModel,
    _coordinate_descent,
    _extrapolate,
    _sweep,
    elastic_fit,
    lasso_fit,
    linear_predict,
    ols_fit,
    ridge_fit,
)


def orthonormal_design(n: int, d: int, seed: int) -> np.ndarray:
    """Columns are mean-zero, mutually orthogonal, squared norm n.

    Built from a QR basis orthogonal to the all-ones vector so the
    coordinate-descent update decouples per feature.
    """
    rng = np.random.default_rng(seed)
    M = np.column_stack([np.ones(n), rng.normal(size=(n, d))])
    Q, _ = np.linalg.qr(M)
    return Q[:, 1 : d + 1] * np.sqrt(n)


def kkt_violation(X, Y, W, intercept, l1: float) -> float:
    """Worst-case violation of the lasso stationarity conditions."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim == 1:
        Y = Y[:, None]
    n = X.shape[0]
    R = Y - X @ W - intercept
    corr = X.T @ R / n  # centering is implicit: residuals sum to zero
    worst = 0.0
    for j in range(W.shape[0]):
        for t in range(W.shape[1]):
            if W[j, t] != 0.0:
                worst = max(worst, abs(corr[j, t] - l1 * np.sign(W[j, t])))
            else:
                worst = max(worst, max(0.0, abs(corr[j, t]) - l1))
    return worst


def reference_coordinate_descent(Xc, Yc, l1, l2, max_iter, tol):
    """Plain cyclic coordinate descent over every column: the oracle.

    Every sweep visits all d columns in order; converged when no
    coefficient moves by tol or more in a sweep.
    """
    n, d = Xc.shape
    col_sq = (Xc * Xc).sum(axis=0) / n
    W = np.zeros((d, Yc.shape[1]))
    for _ in range(max_iter):
        R = Yc - Xc @ W
        max_delta = 0.0
        for j in range(d):
            if col_sq[j] == 0.0:
                continue
            w_old = W[j].copy()
            rho = (Xc[:, j] @ R) / n + col_sq[j] * w_old
            w_new = np.sign(rho) * np.maximum(np.abs(rho) - l1, 0.0) / (col_sq[j] + l2)
            delta = w_new - w_old
            if np.any(delta != 0.0):
                R -= np.outer(Xc[:, j], delta)
                W[j] = w_new
            max_delta = max(max_delta, float(np.max(np.abs(delta))))
        if max_delta < tol:
            return W, True
    return W, False


def reference_sweep(XA, col_sq, WA, Yc, l1, l2) -> float:
    """One cyclic pass that visits every row of XA: the oracle of _sweep.

    Holds the residual output-major, as _sweep does, but takes each step
    with numpy's elementwise ops. Updates WA in place and returns the
    largest coefficient move.
    """
    n = XA.shape[1]
    RT = Yc.T - WA.T @ XA
    max_delta = 0.0
    for i, c in enumerate(col_sq.tolist()):
        x = XA[i]
        w_old = WA[i]
        rho = (RT @ x) / n + c * w_old
        w_new = (rho - np.minimum(np.maximum(rho, -l1), l1)) / (c + l2)
        delta = w_new - w_old
        move = np.abs(delta).max()
        if move != 0.0:
            RT -= delta[:, None] * x
            WA[i] = w_new
            max_delta = max(max_delta, float(move))
    return max_delta


def cd_objective(Xc, Yc, W, l1, l2) -> float:
    """(1/2n)||Y - XW||^2 + l1 |W|_1 + (l2/2) ||W||^2, summed over outputs."""
    R = Yc - Xc @ W
    return float((R * R).sum() / (2 * Xc.shape[0]) + l1 * np.abs(W).sum()
                 + 0.5 * l2 * (W * W).sum())


# ---- least squares ----------------------------------------------------------


def test_ols_recovers_exact_linear_map():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(30, 4))
    W_true = rng.normal(size=(4, 2))
    b_true = np.array([1.5, -2.0])
    model = ols_fit(X, X @ W_true + b_true)
    assert np.allclose(model.weights, W_true, atol=1e-10)
    assert np.allclose(model.intercept, b_true, atol=1e-10)
    assert model.converged


def test_ols_normal_equations_hold_with_noise():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(50, 6))
    Y = rng.normal(size=(50, 3))
    model = ols_fit(X, Y)
    R = Y - linear_predict(model, X)
    assert np.allclose(R.sum(axis=0), 0.0, atol=1e-9)  # intercept column
    assert np.allclose(X.T @ R, 0.0, atol=1e-8)  # residual orthogonal to X


def test_ols_minimum_norm_on_duplicate_columns():
    rng = np.random.default_rng(2)
    base = rng.normal(size=(20, 2))
    X = np.column_stack([base[:, 0], base[:, 0], base[:, 1]])
    model = ols_fit(X, base @ np.array([[2.0], [3.0]]))
    assert model.weights[0, 0] == pytest.approx(model.weights[1, 0], abs=1e-9)
    assert model.weights[0, 0] + model.weights[1, 0] == pytest.approx(2.0, abs=1e-9)


def test_ols_scalar_line():
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    model = ols_fit(x, 2.0 * x[:, 0] + 1.0)
    assert model.weights[0, 0] == pytest.approx(2.0)
    assert model.intercept[0] == pytest.approx(1.0)


def ols_and_route(X, Y, monkeypatch):
    """ols_fit's model, and whether it ran np.linalg.lstsq."""
    calls = []
    lstsq = np.linalg.lstsq

    def spy(*args, **kwargs):
        calls.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", spy)
    model = ols_fit(X, Y)
    monkeypatch.undo()
    return model, bool(calls)


def ols_by_lstsq(X, Y) -> np.ndarray:
    """The oracle: lstsq's minimum-norm weights on the centered block."""
    W, *_ = np.linalg.lstsq(X - X.mean(axis=0), Y - Y.mean(axis=0), rcond=None)
    return W


def ols_problem(n, d, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d)) + 0.5 * rng.normal(size=(n, 1)), rng.normal(size=(n, 3))


def pixel_rows():
    return pixel_problem(360, 48, 8, 10)


def sum_of_two_rows():
    # the centered rows keep rank n - 1: the dependency's weights sum to -1
    X, Y = ols_problem(12, 30, 24)
    X[7] = X[1] + X[3]
    return X, Y


@pytest.mark.parametrize("make", [lambda: ols_problem(20, 50, 22), lambda: ols_problem(20, 19, 23),
                                  pixel_rows, sum_of_two_rows, kaggle_size_block],
                         ids=["n_under_d", "d_is_n_minus_1", "pixels_360x2304", "sum_of_two_rows",
                              "kaggle_size"])
def test_ols_solves_on_the_gram_matrix_of_the_rows(make, monkeypatch):
    X, Y = make()
    model, by_lstsq = ols_and_route(X, Y, monkeypatch)
    assert not by_lstsq
    W_ref = ols_by_lstsq(X, Y)
    assert np.abs(model.weights - W_ref).max() <= 1e-10 * np.abs(W_ref).max()
    assert np.allclose(model.intercept, Y.mean(axis=0) - X.mean(axis=0) @ W_ref, rtol=1e-10,
                       atol=0.0)


def duplicated_rows():
    X, Y = ols_problem(12, 30, 25)
    X[5] = X[2]
    return X, Y


def affine_row():
    # x7 = x1 + x3 - x5: weights summing to 0 survive the centering
    X, Y = ols_problem(12, 30, 26)
    X[7] = X[1] + X[3] - X[5]
    return X, Y


@pytest.mark.parametrize("make", [duplicated_rows, affine_row,
                                  lambda: (np.full((6, 10), 3.0), np.arange(12.0).reshape(6, 2)),
                                  lambda: ols_problem(30, 28, 27)],
                         ids=["duplicated_rows", "sum_of_two_minus_a_third", "constant_x",
                              "d_under_n_minus_1"])
def test_ols_falls_back_to_lstsq_off_the_gram_route(make, monkeypatch):
    X, Y = make()
    model, by_lstsq = ols_and_route(X, Y, monkeypatch)
    assert by_lstsq
    assert np.array_equal(model.weights, ols_by_lstsq(X, Y))


# ---- ridge --------------------------------------------------------------------


def test_ridge_scalar_closed_form():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(40, 1))
    y = rng.normal(size=(40, 1))
    lam = 2.5
    xc = x - x.mean()
    yc = y - y.mean()
    expected = float((xc[:, 0] @ yc[:, 0]) / (xc[:, 0] @ xc[:, 0] + lam))
    model = ridge_fit(x, y, lam=lam)
    assert model.weights[0, 0] == pytest.approx(expected, rel=1e-12)
    assert model.intercept[0] == pytest.approx(
        float(y.mean() - x.mean() * expected), rel=1e-12
    )


def test_ridge_zero_penalty_is_least_squares():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(25, 5))
    Y = rng.normal(size=(25, 2))
    a = ridge_fit(X, Y, lam=0.0)
    b = ols_fit(X, Y)
    assert np.allclose(a.weights, b.weights, atol=1e-12)
    assert np.allclose(a.intercept, b.intercept, atol=1e-12)


def test_ridge_shrinkage_is_monotone():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(30, 6))
    Y = rng.normal(size=(30, 1))
    norms = [
        float(np.linalg.norm(ridge_fit(X, Y, lam=lam).weights))
        for lam in (0.0, 0.1, 1.0, 10.0, 100.0)
    ]
    assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))


def test_ridge_huge_penalty_collapses_to_mean():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(20, 3))
    Y = rng.normal(size=(20, 2))
    model = ridge_fit(X, Y, lam=1e12)
    assert np.allclose(model.weights, 0.0, atol=1e-9)
    assert np.allclose(model.intercept, Y.mean(axis=0), atol=1e-9)


def test_ridge_dual_path_matches_primal_algebra():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(5, 12))  # wide: the n x n dual system is used
    Y = rng.normal(size=(5, 2))
    lam = 0.7
    model = ridge_fit(X, Y, lam=lam)
    Xc = X - X.mean(axis=0)
    Yc = Y - Y.mean(axis=0)
    W_primal = np.linalg.solve(Xc.T @ Xc + lam * np.eye(12), Xc.T @ Yc)
    assert np.allclose(model.weights, W_primal, atol=1e-8)


def test_ridge_rejects_negative_penalty():
    with pytest.raises(ValueError, match=r"^lam must be a finite number >= 0, got -1\.0$"):
        ridge_fit(np.zeros((3, 1)), np.zeros(3), lam=-1.0)


@pytest.mark.parametrize("lam", [np.nan, np.inf, True, "1"], ids=repr)
def test_ridge_refuses_a_penalty_that_is_not_a_finite_number(lam):
    # unchecked, nan and inf fit NaN weights and True fits lam = 1
    with pytest.raises(ValueError) as exc:
        ridge_fit(np.arange(8.0).reshape(4, 2), np.arange(4.0), lam=lam)
    assert str(exc.value) == f"lam must be a finite number >= 0, got {lam!r}"


# ---- lasso ---------------------------------------------------------------------


def test_lasso_zero_penalty_matches_least_squares():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(20, 5))
    Y = rng.normal(size=(20, 2))
    a = lasso_fit(X, Y, alpha=0.0, max_iter=5000, tol=1e-10)
    b = ols_fit(X, Y)
    assert np.allclose(a.weights, b.weights, atol=1e-6)
    assert np.allclose(a.intercept, b.intercept, atol=1e-6)


def test_lasso_saturating_penalty_zeroes_everything():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(30, 4))
    y = rng.normal(size=(30,))
    Xc = X - X.mean(axis=0)
    yc = y - y.mean()
    alpha_max = float(np.max(np.abs(Xc.T @ yc))) / 30
    model = lasso_fit(X, y, alpha=alpha_max * 1.0001)
    assert np.all(model.weights == 0.0)
    assert model.intercept[0] == pytest.approx(y.mean())


def test_lasso_orthonormal_design_closed_form():
    n, d = 64, 5
    X = orthonormal_design(n, d, seed=10)
    rng = np.random.default_rng(11)
    w_true = np.array([3.0, -2.0, 0.5, 0.0, 0.05])
    y = X @ w_true + 0.7
    alpha = 0.4
    model = lasso_fit(X, y, alpha=alpha, max_iter=2000, tol=1e-12)
    corr = X.T @ (y - y.mean()) / n
    expected = np.sign(corr) * np.maximum(np.abs(corr) - alpha, 0.0)
    assert np.allclose(model.weights[:, 0], expected, atol=1e-8)
    assert model.converged


def test_lasso_satisfies_kkt():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(40, 8))
    Y = rng.normal(size=(40, 2))
    for alpha in (0.01, 0.1, 1.0):
        model = lasso_fit(X, Y, alpha=alpha, max_iter=20000, tol=1e-12)
        assert model.converged
        assert kkt_violation(X, Y, model.weights, model.intercept, alpha) < 1e-6


def test_lasso_sparsity_grows_with_alpha():
    X = orthonormal_design(50, 6, seed=13)
    rng = np.random.default_rng(14)
    y = X @ rng.normal(size=6) + rng.normal(size=50) * 0.1
    nnz = [
        int(np.count_nonzero(lasso_fit(X, y, alpha=a).weights))
        for a in (0.001, 0.01, 0.1, 1.0)
    ]
    assert all(a >= b for a, b in zip(nnz, nnz[1:]))


def test_lasso_reports_non_convergence():
    rng = np.random.default_rng(15)
    base = rng.normal(size=(30, 1))
    X = np.column_stack([base, base + rng.normal(size=(30, 1)) * 1e-4])
    y = X @ np.array([1.0, 1.0]) + rng.normal(size=30) * 0.01
    assert not lasso_fit(X, y, alpha=1e-6, max_iter=1, tol=1e-12).converged
    assert lasso_fit(X, y, alpha=0.1).converged


def test_lasso_rejects_negative_alpha():
    with pytest.raises(ValueError, match=r"^alpha must be a finite number >= 0, got -0\.1$"):
        lasso_fit(np.zeros((3, 1)), np.zeros(3), alpha=-0.1)


# ---- elastic net ----------------------------------------------------------------


def test_elastic_rho_one_is_lasso():
    rng = np.random.default_rng(16)
    X = rng.normal(size=(25, 6))
    Y = rng.normal(size=(25, 2))
    a = elastic_fit(X, Y, alpha=0.3, rho=1.0, max_iter=5000, tol=1e-12)
    b = lasso_fit(X, Y, alpha=0.3, max_iter=5000, tol=1e-12)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.intercept, b.intercept)


def test_elastic_rho_zero_is_ridge():
    rng = np.random.default_rng(17)
    n = 30
    X = rng.normal(size=(n, 5))
    Y = rng.normal(size=(n, 2))
    alpha = 0.2
    a = elastic_fit(X, Y, alpha=alpha, rho=0.0, max_iter=20000, tol=1e-13)
    b = ridge_fit(X, Y, lam=alpha * n)
    assert np.allclose(a.weights, b.weights, atol=1e-6)
    assert np.allclose(a.intercept, b.intercept, atol=1e-6)


def test_elastic_orthonormal_design_closed_form():
    n, d = 64, 4
    X = orthonormal_design(n, d, seed=18)
    rng = np.random.default_rng(19)
    y = X @ np.array([2.0, -1.5, 0.3, 0.0]) + 0.25
    alpha, rho = 0.5, 0.6
    model = elastic_fit(X, y, alpha=alpha, rho=rho, max_iter=2000, tol=1e-12)
    corr = X.T @ (y - y.mean()) / n
    l1, l2 = alpha * rho, alpha * (1.0 - rho)
    expected = np.sign(corr) * np.maximum(np.abs(corr) - l1, 0.0) / (1.0 + l2)
    assert np.allclose(model.weights[:, 0], expected, atol=1e-8)


def test_elastic_parameter_validation():
    X, y = np.zeros((3, 1)), np.zeros(3)
    with pytest.raises(ValueError, match=r"^alpha must be a finite number >= 0, got -1\.0$"):
        elastic_fit(X, y, alpha=-1.0)
    for rho in (1.5, -0.1, np.nan, np.inf, True):  # unchecked, True fits rho = 1
        with pytest.raises(ValueError) as exc:
            elastic_fit(X, y, rho=rho)
        assert str(exc.value) == f"rho must be a finite number in [0, 1], got {rho!r}"


# ---- active-set solver against the cyclic reference -----------------------------


def cd_problem(n, d, m, seed, zero_column=False):
    """Centered (Xc, Yc) with a sparse signal and correlated columns."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) + 0.5 * rng.normal(size=(n, 1))
    W_true = np.zeros((d, m))
    W_true[: min(d, 6)] = rng.normal(size=(min(d, 6), m)) * 2.0
    Y = X @ W_true + rng.normal(size=(n, m))
    if zero_column:
        X[:, d // 2] = 3.0
    return X - X.mean(axis=0), Y - Y.mean(axis=0)


CD_CASES = {
    "wide_lasso": ((30, 80, 1, 1), 0.2, 1.0, False),
    "tall_lasso": ((60, 12, 1, 2), 0.05, 1.0, False),
    "multi_output_lasso": ((40, 50, 3, 3), 0.15, 1.0, False),
    "elastic_rho_half": ((30, 80, 2, 4), 0.1, 0.5, False),
    "elastic_rho_one": ((30, 60, 2, 5), 0.1, 1.0, False),
    "zero_variance_column": ((25, 40, 2, 6), 0.1, 0.5, True),
}


def cd_penalties(Xc, Yc, frac, rho):
    """(l1, l2) for alpha = frac * the smallest alpha that zeroes every row."""
    alpha = frac * float(np.max(np.abs(Xc.T @ Yc))) / Xc.shape[0] / rho
    return alpha * rho, alpha * (1.0 - rho)


@pytest.mark.parametrize("case", list(CD_CASES))
def test_active_set_matches_reference_at_tight_tol(case):
    shape, frac, rho, zero_column = CD_CASES[case]
    Xc, Yc = cd_problem(*shape, zero_column=zero_column)
    l1, l2 = cd_penalties(Xc, Yc, frac, rho)
    W, converged = _coordinate_descent(Xc, Yc, l1, l2, 100_000, 1e-10)
    W_ref, ref_converged = reference_coordinate_descent(Xc, Yc, l1, l2, 100_000, 1e-10)
    assert converged and ref_converged
    assert 0 < np.count_nonzero(W) < W.size
    assert np.array_equal(W != 0.0, W_ref != 0.0)
    assert np.max(np.abs(W - W_ref)) < 1e-7
    if zero_column:
        assert np.all(W[shape[1] // 2] == 0.0)


@pytest.mark.parametrize("case", list(CD_CASES))
def test_active_set_objective_matches_reference_at_loose_tol(case):
    shape, frac, rho, zero_column = CD_CASES[case]
    Xc, Yc = cd_problem(*shape, zero_column=zero_column)
    l1, l2 = cd_penalties(Xc, Yc, frac, rho)
    W, converged = _coordinate_descent(Xc, Yc, l1, l2, 10_000, 1e-4)
    W_ref, ref_converged = reference_coordinate_descent(Xc, Yc, l1, l2, 10_000, 1e-4)
    assert converged and ref_converged
    ours, ref = cd_objective(Xc, Yc, W, l1, l2), cd_objective(Xc, Yc, W_ref, l1, l2)
    assert abs(ours - ref) <= 1e-6 * abs(ref)


def test_column_outside_the_first_screen_enters_later():
    # x2 = x1 + e2 and y = 2 x1 - x2: x2 is orthogonal to y, so the screen
    # at W = 0 skips it, but the solution needs it once x1 is in
    n = 40
    E = orthonormal_design(n, 3, seed=20)
    Xc = np.column_stack([E[:, 0], E[:, 0] + E[:, 1], E[:, 2]])
    Yc = (2.0 * Xc[:, 0] - Xc[:, 1] + 0.1 * E[:, 2])[:, None]
    l1 = 0.05
    assert abs(Xc[:, 1] @ Yc[:, 0]) / n <= l1  # outside the first screen
    W, converged = _coordinate_descent(Xc, Yc, l1, 0.0, 10_000, 1e-12)
    W_ref, _ = reference_coordinate_descent(Xc, Yc, l1, 0.0, 10_000, 1e-12)
    assert converged
    assert W[1, 0] < 0.0
    assert np.allclose(W, W_ref, atol=1e-9)


def test_periodic_screens_keep_the_sweep_budget_of_cyclic_descent():
    # blocks of 8 nearly equal columns, as in neighbouring pixels: screening
    # only after the active rows converge needs 747 sweeps here
    rng = np.random.default_rng(2)
    n, d = 24, 88
    X = np.repeat(rng.normal(size=(n, 12)), 8, axis=1)[:, :d] + 0.3 * rng.normal(size=(n, d))
    Y = rng.normal(size=(n, 2))
    Xc, Yc = X - X.mean(axis=0), Y - Y.mean(axis=0)
    l1 = 0.05 * float(np.max(np.abs(Xc.T @ Yc))) / n
    assert reference_coordinate_descent(Xc, Yc, l1, 0.0, 350, 1e-6)[1]
    assert _coordinate_descent(Xc, Yc, l1, 0.0, 350, 1e-6)[1]


def test_running_out_inside_the_active_loop_is_not_converged():
    Xc, Yc = cd_problem(30, 80, 1, seed=1)
    l1, l2 = cd_penalties(Xc, Yc, 0.2, 1.0)
    _, converged = _coordinate_descent(Xc, Yc, l1, l2, 100_000, 1e-10)
    assert converged
    # sweep 1 is the first pass; sweeps 2-3 run on the active set
    _, converged = _coordinate_descent(Xc, Yc, l1, l2, 3, 1e-10)
    assert not converged


# ---- the skipping sweep against the sweep that visits every row -----------------


def pixel_problem(n, side, m, seed):
    """Centered (Xc, Yc): blocky noisy images in [0, 1] as raw-pixel rows,
    and targets that are sparse linear maps of them plus noise."""
    rng = np.random.default_rng(seed)
    coarse = rng.integers(0, 256, size=(n, side // 4, side // 4))
    images = np.repeat(np.repeat(coarse, 4, axis=1), 4, axis=2)
    images = np.clip(images + rng.integers(-20, 21, size=images.shape), 0, 255)
    X = images.reshape(n, -1) / 255.0
    W_true = np.zeros((side * side, m))
    W_true[rng.choice(side * side, size=20, replace=False)] = rng.normal(size=(20, m)) * 5.0
    Y = X @ W_true + rng.normal(size=(n, m))
    return X - X.mean(axis=0), Y - Y.mean(axis=0)


def share_of_alpha_max(frac):
    """l1 = frac * the smallest l1 at which every row is zero."""
    return lambda Xc, Yc: frac * float(np.max(np.abs(Xc.T @ Yc))) / Xc.shape[0]


def at_row(rank, nudge):
    """l1 at which the row with the rank-th largest correlation at W = 0
    sits nudge ulps of l1 under it (over it, for a negative nudge)."""
    def l1(Xc, Yc):
        corr = np.sort(np.abs(Xc.T @ Yc).max(axis=1) / Xc.shape[0])[::-1][rank]
        return float(corr * (1.0 + nudge * np.finfo(np.float64).eps))
    return l1


SWEEP_CASES = {
    "lasso": (lambda: cd_problem(40, 120, 2, 7), share_of_alpha_max(0.3), 0.0),
    "elastic": (lambda: cd_problem(40, 120, 3, 8), share_of_alpha_max(0.2), 0.1),
    # the first row to move sits at l1: the rows before it, all under l1,
    # leave D at zero, so only the margins decide its visit
    **{f"top_row_{name}_l1": (lambda: cd_problem(30, 80, 2, 9), at_row(0, nudge), 0.0)
       for name, nudge in (("at", 0), ("one_ulp_under", 1), ("one_ulp_over", -1),
                           ("1e4_ulps_under", 1e4), ("1e4_ulps_over", -1e4))},
    "mid_row_one_ulp_under_l1": (lambda: cd_problem(30, 80, 2, 9), at_row(5, 1), 0.0),
    "raw_pixels_360x2304": (lambda: pixel_problem(360, 48, 8, 10), share_of_alpha_max(0.3), 0.0),
    "one_output": (lambda: cd_problem(40, 120, 1, 12), share_of_alpha_max(0.3), 0.0),
    # the eleven task's width
    "22_outputs": (lambda: cd_problem(40, 120, 22, 13), share_of_alpha_max(0.2), 0.1),
}


def sweep_case(case):
    """(XA, col_sq, Yc, l1, l2): the rows whose correlation at W = 0 is
    above l1 / 2, and the penalties of case."""
    make, rule, l2 = SWEEP_CASES[case]
    Xc, Yc = make()
    n = Xc.shape[0]
    l1 = rule(Xc, Yc)
    col_sq = (Xc * Xc).sum(axis=0) / n
    rows = np.flatnonzero((col_sq > 0) & (np.abs(Xc.T @ Yc).max(axis=1) / n > l1 / 2))
    return np.ascontiguousarray(Xc[:, rows].T), col_sq[rows], Yc, l1, l2


def sweeps_side_by_side(case, n_sweeps):
    """Sweep case's rows from W = 0 with _sweep and the reference sweep;
    yields (move, reference move, W, reference W, visits, rows) per sweep."""
    XA, col_sq, Yc, l1, l2 = sweep_case(case)
    norms = np.sqrt(np.einsum("ij,ij->i", XA, XA))
    W, W_ref = np.zeros((len(XA), Yc.shape[1])), np.zeros((len(XA), Yc.shape[1]))
    for _ in range(n_sweeps):
        move, visits = _sweep(XA, col_sq, norms, W, Yc, l1, l2)
        yield move, reference_sweep(XA, col_sq, W_ref, Yc, l1, l2), W, W_ref, visits, len(XA)


@pytest.mark.parametrize("case", list(SWEEP_CASES))
def test_the_sweep_equals_the_reference_sweep_bit_for_bit(case):
    for move, move_ref, W, W_ref, _, _ in sweeps_side_by_side(case, 12):
        assert move == move_ref
        assert W.tobytes() == W_ref.tobytes()


def test_a_sweep_over_no_rows_moves_nothing():
    _, Yc = cd_problem(20, 10, 3, 14)
    W = np.zeros((0, 3))
    assert _sweep(np.zeros((0, 20)), np.zeros(0), np.zeros(0), W, Yc, 0.1, 0.0) == (0.0, 0)
    assert reference_sweep(np.zeros((0, 20)), np.zeros(0), W, Yc, 0.1, 0.0) == 0.0


def test_the_sweep_skips_rows_it_proves_stay_zero():
    sweeps = list(sweeps_side_by_side("lasso", 12))
    visits, rows = sum(s[4] for s in sweeps), sum(s[5] for s in sweeps)
    assert 0 < visits < rows
    assert sweeps[-1][2].tobytes() == sweeps[-1][3].tobytes()


@pytest.mark.parametrize("case", list(CD_CASES))
def test_extrapolated_steps_are_taken_and_keep_the_reference_solution(case, monkeypatch):
    taken = []

    def counted(XA, Yc, history, l1, l2):
        out = _extrapolate(XA, Yc, history, l1, l2)
        taken.append(int((out != history[-1]).any(axis=0).sum()))
        return out

    monkeypatch.setattr(linear, "_extrapolate", counted)
    shape, frac, rho, zero_column = CD_CASES[case]
    Xc, Yc = cd_problem(*shape, zero_column=zero_column)
    l1, l2 = cd_penalties(Xc, Yc, frac, rho)
    W, converged = _coordinate_descent(Xc, Yc, l1, l2, 100_000, 1e-10)
    W_ref, _ = reference_coordinate_descent(Xc, Yc, l1, l2, 100_000, 1e-10)
    assert converged and sum(taken) > 0
    assert np.array_equal(W != 0.0, W_ref != 0.0)


def test_an_extrapolated_column_is_kept_only_if_it_lowers_the_objective():
    rng = np.random.default_rng(23)
    Xc, Yc = cd_problem(30, 20, 6, 11)
    l1, l2 = cd_penalties(Xc, Yc, 0.2, 1.0)
    XA = np.ascontiguousarray(Xc.T)
    W_opt, converged = _coordinate_descent(Xc, Yc, l1, l2, 100_000, 1e-12)
    assert converged
    # the last iterate is the solution: no column may move off it
    history = [W_opt + rng.normal(size=W_opt.shape) * 0.1 / (k + 1) for k in range(4)]
    out = _extrapolate(XA, Yc, history + [W_opt], l1, l2)
    assert out.tobytes() == W_opt.tobytes()
    # iterates on a line toward the solution: the extrapolation lands nearer
    step = rng.normal(size=W_opt.shape)
    history = [W_opt + step * 0.5 ** k for k in range(5)]
    out = _extrapolate(XA, Yc, history, l1, l2)
    assert (out != history[-1]).any()
    assert cd_objective(Xc, Yc, out, l1, l2) < cd_objective(Xc, Yc, history[-1], l1, l2)


def blocky_problem():
    """The fixture of the periodic-screen test: blocks of 8 nearly equal columns."""
    rng = np.random.default_rng(2)
    n, d = 24, 88
    X = np.repeat(rng.normal(size=(n, 12)), 8, axis=1)[:, :d] + 0.3 * rng.normal(size=(n, d))
    Y = rng.normal(size=(n, 2))
    Xc, Yc = X - X.mean(axis=0), Y - Y.mean(axis=0)
    return Xc, Yc, 0.05 * float(np.max(np.abs(Xc.T @ Yc))) / n


def test_extrapolation_cuts_the_sweeps_of_the_blocky_fixture(monkeypatch):
    # plain cyclic sweeps between the periodic screens take 291 sweeps here,
    # and the extrapolated solver 147 on OpenBLAS 0.3.31 at one and two
    # threads; the bound leaves room for another BLAS's last bits
    sweeps = []

    def counted(*args):
        sweeps.append(1)
        return _sweep(*args)

    monkeypatch.setattr(linear, "_sweep", counted)
    Xc, Yc, l1 = blocky_problem()
    assert _coordinate_descent(Xc, Yc, l1, 0.0, 350, 1e-6)[1]
    assert len(sweeps) <= 150


# ---- shared plumbing --------------------------------------------------------------


def test_one_dimensional_targets_get_a_column():
    model = ols_fit(np.array([[0.0], [1.0], [2.0]]), np.array([1.0, 2.0, 3.0]))
    assert model.weights.shape == (1, 1)
    assert model.intercept.shape == (1,)


@pytest.mark.parametrize("fit", [ols_fit, ridge_fit, lasso_fit, elastic_fit],
                         ids=lambda f: f.__name__)
def test_non_finite_input_is_rejected(fit):
    rng = np.random.default_rng(21)
    X = rng.normal(size=(10, 3))
    Y = rng.normal(size=(10, 2))
    X_nan = X.copy()
    X_nan[4, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        fit(X_nan, Y)
    Y_inf = Y.copy()
    Y_inf[0, 0] = np.inf
    with pytest.raises(ValueError, match="finite"):
        fit(X, Y_inf)


@pytest.mark.parametrize("fit", [lasso_fit, elastic_fit], ids=lambda f: f.__name__)
@pytest.mark.parametrize("bad, fragment", [
    ({"max_iter": 0}, "max_iter"),
    ({"max_iter": -5}, "max_iter"),
    ({"tol": 0.0}, "tol"),
    ({"tol": -1e-4}, "tol"),
    ({"tol": float("nan")}, "tol"),
    # unchecked, these end in all-zero weights marked converged (alpha nan
    # and inf), a TypeError (max_iter 2.5) or a silent fit
    ({"tol": float("inf")}, "tol"),
    ({"tol": True}, "tol"),
    ({"max_iter": 2.5}, "max_iter"),
    ({"max_iter": True}, "max_iter"),
    ({"alpha": float("nan")}, "alpha"),
    ({"alpha": float("inf")}, "alpha"),
    ({"alpha": True}, "alpha"),
])
def test_coordinate_descent_settings_are_validated(fit, bad, fragment):
    X, y = np.arange(8.0).reshape(4, 2), np.arange(4.0)
    with pytest.raises(ValueError, match=fragment) as exc:
        fit(X, y, **bad)
    rule = ("an integer >= 1" if fragment == "max_iter" else "a finite number above 0"
            if fragment == "tol" else "a finite number >= 0")
    assert str(exc.value) == f"{fragment} must be {rule}, got {bad[fragment]!r}"


def test_input_validation():
    with pytest.raises(ValueError, match="matching row"):
        ols_fit(np.zeros((3, 2)), np.zeros((4, 1)))
    with pytest.raises(ValueError, match="2 rows"):
        ols_fit(np.zeros((1, 2)), np.zeros((1, 1)))
    model = LinearModel(weights=np.zeros((2, 1)), intercept=np.zeros(1))
    with pytest.raises(ValueError):
        linear_predict(model, np.zeros((3, 5)))
