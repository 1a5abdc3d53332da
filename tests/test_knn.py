import numpy as np
import pytest

from facekeys.regressors.knn import knn_fit, knn_predict


def oracle_knn(X, Y, Q, k):
    """Reference: per-query loop, direct squared differences, stable sort."""
    preds = []
    for q in Q:
        d2 = ((X - q) ** 2).sum(axis=1)
        order = np.argsort(d2, kind="stable")
        preds.append(Y[order[:k]].mean(axis=0))
    return np.array(preds)


def test_hand_fixture():
    X = np.array([[0.0], [1.0], [4.0]])
    Y = np.array([[0.0], [10.0], [100.0]])
    model = knn_fit(X, Y, k=2)
    # query 0.9: distances 0.81, 0.01, 9.61 -> rows 1 and 0 -> mean 5
    assert np.allclose(knn_predict(model, [[0.9]]), [[5.0]])


def test_matches_brute_force_oracle():
    rng = np.random.default_rng(0)
    for trial in range(10):
        X = rng.normal(size=(40, 5))
        Y = rng.normal(size=(40, 3))
        Q = rng.normal(size=(12, 5))
        k = int(rng.integers(1, 41))
        model = knn_fit(X, Y, k=k)
        assert np.array_equal(knn_predict(model, Q), oracle_knn(X, Y, Q, k))


def test_k1_memorizes_training_data():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(25, 4))
    Y = rng.normal(size=(25, 2))
    model = knn_fit(X, Y, k=1)
    assert np.array_equal(knn_predict(model, X), Y)


def test_k_equals_n_is_global_mean():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(15, 3))
    Y = rng.normal(size=(15, 2))
    model = knn_fit(X, Y, k=15)
    preds = knn_predict(model, rng.normal(size=(6, 3)))
    assert np.allclose(preds, Y.mean(axis=0))


def test_distance_ties_prefer_lower_index():
    # two identical training rows with different targets
    X = np.array([[1.0], [1.0], [2.0]])
    Y = np.array([[0.0], [10.0], [99.0]])
    assert np.allclose(knn_predict(knn_fit(X, Y, k=1), [[1.0]]), [[0.0]])
    assert np.allclose(knn_predict(knn_fit(X, Y, k=2), [[1.0]]), [[5.0]])


def test_row_order_invariance_without_ties():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(30, 4))
    Y = rng.normal(size=(30, 2))
    Q = rng.normal(size=(8, 4))
    base = knn_predict(knn_fit(X, Y, k=4), Q)
    perm = rng.permutation(30)
    shuffled = knn_predict(knn_fit(X[perm], Y[perm], k=4), Q)
    assert np.allclose(base, shuffled)


def test_one_dimensional_targets_get_a_column():
    X = np.array([[0.0], [1.0]])
    model = knn_fit(X, np.array([3.0, 5.0]), k=2)
    assert model.Y.shape == (2, 1)
    assert knn_predict(model, [[0.5]]).shape == (1, 1)


def test_validation():
    X = np.zeros((3, 2))
    Y = np.zeros((3, 1))
    with pytest.raises(ValueError, match="k must be"):
        knn_fit(X, Y, k=0)
    with pytest.raises(ValueError, match="k must be"):
        knn_fit(X, Y, k=4)
    with pytest.raises(ValueError, match="matching row"):
        knn_fit(X, np.zeros((2, 1)))
    model = knn_fit(X, Y, k=1)
    with pytest.raises(ValueError, match=r"X must be \(n, 2\)"):
        knn_predict(model, np.zeros((2, 5)))


@pytest.mark.parametrize("k", [1.5, 2.0, True, np.nan, "2"], ids=repr)
def test_a_k_that_is_not_an_integer_is_refused(k):
    # unchecked, k = 1.5 fits a model whose predict fails on a slice
    X, Y = np.arange(12.0).reshape(6, 2), np.arange(6.0)
    with pytest.raises(ValueError) as exc:
        knn_fit(X, Y, k=k)
    assert str(exc.value) == f"k must be an integer >= 1, got {k!r}"


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["X", "Y"])
def test_non_finite_input_is_rejected(bad, where):
    X = np.arange(12.0).reshape(6, 2)
    Y = np.arange(6.0)
    (X if where == "X" else Y)[3] = bad
    with pytest.raises(ValueError, match="finite"):
        knn_fit(X, Y, k=2)
