import math

import numpy as np
import pytest

from facekeys.pca import (
    PcaError,
    PcaModel,
    fit_pca,
    inverse_transform,
    save_pca,
    transform,
)
from readers import load_pca


def top_eig_2x2(a: float, b: float, c: float):
    """Closed-form dominant eigenpair of [[a, b], [b, c]]."""
    tr, det = a + c, a * c - b * b
    lam = 0.5 * tr + math.sqrt(0.25 * tr * tr - det)
    v = np.array([b, lam - a])
    v /= math.hypot(v[0], v[1])
    if v[int(np.argmax(np.abs(v)))] < 0:
        v = -v
    return lam, v


POINTS = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.1]])


def test_two_point_cloud_against_closed_form():
    # covariance of POINTS with the 1/(n-1) convention, computed by hand
    cxx, cxy, cyy = 1.0, 1.05, 1.1033333333333333
    lam, v = top_eig_2x2(cxx, cxy, cyy)
    model = fit_pca(POINTS, n_components=1)
    assert model.mean == pytest.approx([2.0, 2.0333333333333333])
    assert model.explained_variance[0] == pytest.approx(lam, rel=1e-12)
    assert model.components[0] == pytest.approx(v, abs=1e-12)
    # recorded fixture values for this cloud
    assert model.components[0] == pytest.approx([0.6895, 0.7243], abs=5e-4)
    assert model.explained_ratio[0] == pytest.approx(lam / (cxx + cyy), rel=1e-12)
    assert model.explained_ratio[0] > 0.999


def test_transforming_the_mean_gives_zero():
    model = fit_pca(POINTS, n_components=2)
    z = transform(model, model.mean[None, :])
    assert np.allclose(z, 0.0, atol=1e-12)


def test_full_rank_reconstruction():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(20, 6))
    model = fit_pca(X, n_components=6)
    back = inverse_transform(model, transform(model, X))
    assert np.allclose(back, X, atol=1e-8)


def test_components_are_orthonormal_both_paths():
    rng = np.random.default_rng(1)
    for shape in [(40, 12), (8, 30)]:  # direct path, then gram path
        X = rng.normal(size=shape)
        k = min(shape[0] - 1, shape[1], 6)
        model = fit_pca(X, n_components=k)
        gram = model.components @ model.components.T
        assert np.allclose(gram, np.eye(k), atol=1e-10)


def test_gram_path_matches_direct_eigendecomposition():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(8, 30))
    model = fit_pca(X, n_components=5)
    Xc = X - X.mean(axis=0)
    cov = (Xc.T @ Xc) / (X.shape[0] - 1)
    evals, evecs = np.linalg.eigh(cov)
    evals, evecs = evals[::-1], evecs[:, ::-1]
    for i in range(5):
        assert model.explained_variance[i] == pytest.approx(evals[i], rel=1e-9)
        v = evecs[:, i]
        if v[int(np.argmax(np.abs(v)))] < 0:
            v = -v
        assert np.allclose(model.components[i], v, atol=1e-8)


def test_eigenpair_residuals_are_small():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(100, 20))
    model = fit_pca(X, n_components=20)
    Xc = X - X.mean(axis=0)
    cov = (Xc.T @ Xc) / 99.0
    bound = 1e-6 * np.linalg.norm(cov)
    for v, lam in zip(model.components, model.explained_variance):
        assert np.linalg.norm(cov @ v - lam * v) <= bound


def test_sign_convention():
    rng = np.random.default_rng(4)
    for shape in [(30, 8), (6, 25)]:
        model = fit_pca(rng.normal(size=shape), n_components=4)
        for row in model.components:
            assert row[int(np.argmax(np.abs(row)))] > 0


def test_variance_spectrum_is_sorted_and_bounded():
    rng = np.random.default_rng(5)
    model = fit_pca(rng.normal(size=(40, 10)), n_components=10)
    ev = model.explained_variance
    assert np.all(ev[:-1] >= ev[1:] - 1e-12)
    assert np.all(model.explained_ratio >= 0)
    assert model.explained_ratio.sum() <= 1.0 + 1e-9


def test_variance_target_selector_matches_cumsum_oracle():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(30, 10)) * np.linspace(3, 0.2, 10)
    full = fit_pca(X, n_components=10)
    cum = np.cumsum(full.explained_ratio)
    for target in (0.3, 0.6, 0.9, 0.999, 1.0):
        want = int(np.nonzero(cum >= target - 1e-9)[0][0]) + 1
        got = fit_pca(X, variance_target=target).n_components
        assert got == want, f"target {target}"


def test_rank_one_cloud_needs_one_component():
    t = np.linspace(-2.0, 2.0, 12)[:, None]
    X = t * np.array([[3.0, 4.0]]) + np.array([[1.0, 1.0]])
    model = fit_pca(X, variance_target=0.95)
    assert model.n_components == 1
    assert model.explained_ratio[0] == pytest.approx(1.0, abs=1e-12)
    assert model.components[0] == pytest.approx([0.6, 0.8], abs=1e-12)


def test_gram_path_drops_null_directions():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(8, 2)) @ rng.normal(size=(2, 30))  # rank 2 in 30-d
    model = fit_pca(X, n_components=2)
    back = inverse_transform(model, transform(model, X))
    assert np.allclose(back, X, atol=1e-8)
    assert model.explained_ratio.sum() == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(PcaError, match="supports only"):
        fit_pca(X, n_components=5)


def test_determinism():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(15, 40))
    a = fit_pca(X, n_components=5)
    b = fit_pca(X, n_components=5)
    assert np.array_equal(a.components, b.components)
    assert np.array_equal(a.explained_variance, b.explained_variance)


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    model = fit_pca(rng.normal(size=(12, 7)), n_components=3)
    path = tmp_path / "pca.npz"
    save_pca(model, path)
    back = load_pca(path)
    assert np.array_equal(back.mean, model.mean)
    assert np.array_equal(back.components, model.components)
    assert np.array_equal(back.explained_variance, model.explained_variance)
    assert np.array_equal(back.explained_ratio, model.explained_ratio)


@pytest.mark.parametrize(
    "kwargs,fragment",
    [
        ({}, "exactly one"),
        ({"n_components": 2, "variance_target": 0.9}, "exactly one"),
        ({"n_components": 0}, "n_components"),
        ({"n_components": 99}, "n_components"),
        ({"variance_target": 0.0}, "variance_target"),
        ({"variance_target": 1.5}, "variance_target"),
    ],
)
def test_selector_validation(kwargs, fragment):
    X = np.random.default_rng(12).normal(size=(10, 5))
    with pytest.raises(PcaError, match=None) as exc:
        fit_pca(X, **kwargs)
    assert fragment in str(exc.value)


def test_zero_variance_with_target_is_an_error():
    X = np.ones((5, 3))
    with pytest.raises(PcaError, match="zero-variance"):
        fit_pca(X, variance_target=0.9)


def test_input_validation():
    with pytest.raises(PcaError, match="2 samples"):
        fit_pca(np.ones((1, 3)), n_components=1)
    with pytest.raises(PcaError, match="2-d"):
        fit_pca(np.ones(5), n_components=1)
    model = fit_pca(POINTS, n_components=1)
    with pytest.raises(PcaError):
        transform(model, np.ones((2, 5)))
    with pytest.raises(PcaError):
        inverse_transform(model, np.ones((2, 3)))


@pytest.mark.parametrize("field, shape, fragment", [
    ("mean", (4,), r"mean has shape \(4,\), but components of shape \(2, 5\) need \(5,\)"),
    ("components", (2, 5, 1), "components must be 2-d"),
    ("components", (2, 4), r"mean has shape \(5,\).*need \(4,\)"),
    ("explained_variance", (3,), r"explained_variance has shape \(3,\)"),
    ("explained_ratio", (2, 1), r"explained_ratio has shape \(2, 1\)"),
], ids=["short-mean", "3-d-components", "narrow-components", "long-variance", "2-d-ratio"])
def test_model_checks_its_shapes(field, shape, fragment):
    arrays = {"mean": np.zeros(5), "components": np.eye(2, 5),
              "explained_variance": np.ones(2), "explained_ratio": np.ones(2) / 2}
    PcaModel(**arrays)
    arrays[field] = np.zeros(shape)
    with pytest.raises(PcaError, match=fragment):
        PcaModel(**arrays)
