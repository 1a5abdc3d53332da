"""Principal component analysis with an explained-variance selector.

Columns are mean-centered and never rescaled, and the covariance uses
the 1/(n-1) convention. One eigendecomposition serves both shapes: of the
d x d covariance, or, with more features than samples, of the n x n Gram
matrix, which is what makes 9216-pixel images tractable. The component
count is given or chosen from the eigenvalues, by one selector rule
(`check_selector`), and only those components are formed: the Gram route
maps back the k kept eigenvectors (rounded up to a multiple of 16), not all
of them. Component signs are fixed by making each component's
largest-magnitude entry positive. NaN or inf in any input is refused.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._inputs import check_count, check_number, check_rows

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
    """A C-ordered copy of the rows, each negated if its largest-magnitude entry is negative."""
    out = np.array(components, order="C")
    peaks = out[np.arange(len(out)), np.argmax(np.abs(out), axis=1)]
    out[peaks < 0] *= -1.0
    return out


def check_selector(count_name: str, count, variance_name: str, variance,
                   most: int | None = None) -> None:
    """The one PCA selector rule, refused under the names the caller passes:
    exactly one of a component count (an integer >= 1, and <= most when
    given) and a variance target (a finite number in (0, 1]); a bool is neither."""
    if (count is None) == (variance is None):
        raise PcaError(f"give exactly one of {count_name} and {variance_name}")
    if count is not None:
        check_count(count_name, count, 1, most, error=PcaError)
    else:
        check_number(variance_name, variance, 0, 1, above=True, error=PcaError)


def fit_pca(X, n_components: int | None = None,
            variance_target: float | None = None) -> PcaModel:
    """Fit a PCA model, selecting components by count or variance coverage.

    Exactly one of ``n_components`` (a fixed k) and ``variance_target``
    (smallest k whose cumulative explained ratio reaches the target) must
    be given. The count's ceiling is exact for the shape: d when d <= n,
    and n - 1 when d > n, where centering leaves n - 1 directions.

    Raises:
        PcaError: NaN or inf in X, fewer than 2 samples, or a bad selector
            (`check_selector` with that ceiling), each before any product
            or eigendecomposition; then, under the selector's name, a count
            above the rank of the data or a variance target on zero-variance data.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise PcaError("X must be 2-d")
    n, d = check_rows(X, X.shape[1], PcaError).shape  # finite rows of any width
    if n < 2:
        raise PcaError("need at least 2 samples")
    check_selector("n_components", n_components, "variance_target", variance_target,
                   d if d <= n else n - 1)

    mean = X.mean(axis=0)
    Xc = X - mean
    total_variance = float((Xc * Xc).sum()) / (n - 1)
    if variance_target is not None and total_variance <= 0.0:
        raise PcaError(f"variance_target {variance_target!r} cannot be met by zero-variance data")

    # Gram trick: with more features than samples, the eigenvectors u of
    # (Xc Xc^T)/(n-1) map to covariance eigenvectors Xc^T u / sqrt((n-1) * eigenvalue)
    gram = d > n
    evals, evecs = np.linalg.eigh((Xc @ Xc.T if gram else Xc.T @ Xc) / (n - 1))
    evals, evecs = evals[::-1], evecs[:, ::-1]
    if gram:  # a null direction of the Gram matrix maps to no component
        evals = evals[:np.count_nonzero(evals > _EIG_FLOOR * max(evals[0], 1e-300))]
    evals = np.maximum(evals, 0.0)
    ratios = evals / total_variance if total_variance > 0 else np.zeros_like(evals)
    available = evals.shape[0]

    if n_components is not None:
        if n_components > available:  # only data of lower rank than the ceiling
            raise PcaError(f"n_components is {n_components}; the data supports only {available}")
        k = n_components
    else:
        cum = np.cumsum(ratios)
        reached = np.nonzero(cum >= variance_target - 1e-9)[0]
        k = int(reached[0]) + 1 if reached.size else available

    if gram:
        # map back a multiple of 16 eigenvectors, or all of them: a BLAS product rounds the
        # rows of its last, partial block otherwise than full ones, so this gives each of the
        # k components the bits it has in the map-back of every eigenvector
        U = np.ascontiguousarray(evecs[:, :min(available, -(-k // 16) * 16)])
        components = (Xc.T @ U).T[:k] / np.sqrt((n - 1) * evals[:k])[:, None]
    else:
        components = evecs[:, :k].T
    return PcaModel(
        mean=mean,
        components=_fix_signs(components),
        explained_variance=evals[:k].copy(),
        explained_ratio=ratios[:k].copy(),
    )


def transform(model: PcaModel, X) -> np.ndarray:
    """Project rows into the component space."""
    return (check_rows(X, model.n_features, PcaError) - model.mean) @ model.components.T


def inverse_transform(model: PcaModel, Z) -> np.ndarray:
    """Map component-space rows back to the original feature space."""
    return check_rows(Z, model.n_components, PcaError, "Z") @ model.components + model.mean


def save_pca(model: PcaModel, path) -> None:
    """Write a fitted model to an .npz container at path, as given."""
    with open(path, "wb") as f:  # np.savez would append .npz to a bare name
        np.savez(f, mean=model.mean, components=model.components,
                 explained_variance=model.explained_variance, explained_ratio=model.explained_ratio)
