"""Principal component analysis with an explained-variance selector.

Columns are mean-centered and never rescaled, the covariance uses
the 1/(n-1) convention, and when there are more features than samples the
eigenproblem is solved on the n x n Gram matrix and mapped back, which is
what makes 9216-pixel images tractable. Component signs are fixed by
making each component's largest-magnitude entry positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_EIG_FLOOR = 1e-12  # relative cutoff below which an eigenvalue counts as zero


class PcaError(ValueError):
    """Invalid PCA configuration or input."""


@dataclass(frozen=True, eq=False)
class PcaModel:
    """Fitted projection; building one with shapes that do not fit
    together raises PcaError.

    Attributes:
        mean: (d,) column means of the training data.
        components: (k, d) orthonormal rows, descending variance order.
        explained_variance: (k,) eigenvalues of the covariance.
        explained_ratio: (k,) eigenvalues over total variance.
    """

    mean: np.ndarray
    components: np.ndarray
    explained_variance: np.ndarray
    explained_ratio: np.ndarray

    def __post_init__(self):
        if self.components.ndim != 2:
            raise PcaError(f"components must be 2-d, got shape {self.components.shape}")
        k, d = self.components.shape
        for name, shape in (("mean", (d,)), ("explained_variance", (k,)),
                            ("explained_ratio", (k,))):
            if getattr(self, name).shape != shape:
                raise PcaError(f"{name} has shape {getattr(self, name).shape}, but "
                               f"components of shape {(k, d)} need {shape}")

    @property
    def n_components(self) -> int:
        return self.components.shape[0]

    @property
    def n_features(self) -> int:
        return self.components.shape[1]


def _fix_signs(components: np.ndarray) -> np.ndarray:
    out = components.copy()
    for i in range(out.shape[0]):
        j = int(np.argmax(np.abs(out[i])))
        if out[i, j] < 0:
            out[i] = -out[i]
    return out


def fit_pca(
    X,
    n_components: int | None = None,
    variance_target: float | None = None,
) -> PcaModel:
    """Fit a PCA model, selecting components by count or variance coverage.

    Exactly one of ``n_components`` (a fixed k) and ``variance_target``
    (smallest k whose cumulative explained ratio reaches the target) must
    be given.

    Raises:
        PcaError: on a bad selector, fewer than 2 samples, a component
            count the data cannot support, or zero-variance data with a
            variance target.
    """
    if (n_components is None) == (variance_target is None):
        raise PcaError("give exactly one of n_components and variance_target")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise PcaError("X must be 2-d")
    n, d = X.shape
    if n < 2:
        raise PcaError("need at least 2 samples")

    mean = X.mean(axis=0)
    Xc = X - mean
    total_variance = float((Xc * Xc).sum()) / (n - 1)
    if variance_target is not None:
        if not 0.0 < variance_target <= 1.0:
            raise PcaError(f"variance_target must be in (0, 1], got {variance_target}")
        if total_variance <= 0.0:
            raise PcaError("zero-variance data cannot meet a variance target")

    if d <= n:
        cov = (Xc.T @ Xc) / (n - 1)
        evals, evecs = np.linalg.eigh(cov)
        evals = evals[::-1]
        components = evecs[:, ::-1].T
    else:
        # Gram trick: eigenvectors of (Xc Xc^T)/(n-1) map to covariance
        # eigenvectors as v = Xc^T u / sqrt((n-1) * eigenvalue).
        gram = (Xc @ Xc.T) / (n - 1)
        evals, evecs = np.linalg.eigh(gram)
        evals = evals[::-1]
        evecs = evecs[:, ::-1]
        keep = evals > _EIG_FLOOR * max(evals[0], 1e-300)
        evals = evals[keep]
        evecs = evecs[:, keep]
        components = (Xc.T @ evecs).T
        components /= np.sqrt((n - 1) * evals)[:, None]

    evals = np.maximum(evals, 0.0)
    ratios = evals / total_variance if total_variance > 0 else np.zeros_like(evals)
    available = evals.shape[0]

    if n_components is not None:
        if not 1 <= n_components <= min(n, d):
            raise PcaError(
                f"n_components must be in [1, {min(n, d)}], got {n_components}"
            )
        if n_components > available:
            raise PcaError(
                f"data supports only {available} components, {n_components} requested"
            )
        k = n_components
    else:
        cum = np.cumsum(ratios)
        reached = np.nonzero(cum >= variance_target - 1e-9)[0]
        k = int(reached[0]) + 1 if reached.size else available

    return PcaModel(
        mean=mean,
        components=_fix_signs(components[:k]),
        explained_variance=evals[:k].copy(),
        explained_ratio=ratios[:k].copy(),
    )


def transform(model: PcaModel, X) -> np.ndarray:
    """Project rows into the component space."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise PcaError(f"X must be (n, {model.n_features})")
    return (X - model.mean) @ model.components.T


def inverse_transform(model: PcaModel, Z) -> np.ndarray:
    """Map component-space rows back to the original feature space."""
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2 or Z.shape[1] != model.n_components:
        raise PcaError(f"Z must be (n, {model.n_components})")
    return Z @ model.components + model.mean


def save_pca(model: PcaModel, path) -> None:
    """Write a fitted model to an .npz container."""
    np.savez(
        path,
        mean=model.mean,
        components=model.components,
        explained_variance=model.explained_variance,
        explained_ratio=model.explained_ratio,
    )
