"""Centering and PCA dimensionality reduction fitted on training data only."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset_io import FeatureMatrix
from .errors import ConfigError, NumericalError, is_int, is_real


@dataclass(frozen=True)
class PcaModel:
    """Orthonormal basis of the top-k sample-covariance eigenvectors.

    ``eigenvalues`` are non-increasing covariance eigenvalues (1/(n-1)
    normalization); ``basis`` is d x k with the largest-magnitude entry of
    each column made positive for deterministic output.
    """

    mean: np.ndarray
    basis: np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self):
        if np.ndim(self.basis) != 2 or np.shape(self.mean) != (self.d,):
            raise ConfigError("dim_mismatch", "the PCA mean needs one entry per row of a d x k basis")
        if np.shape(self.eigenvalues) != (self.k,):
            raise ConfigError("dim_mismatch", "the PCA needs one eigenvalue per basis column")

    @property
    def d(self) -> int:
        return self.basis.shape[0]

    @property
    def k(self) -> int:
        return self.basis.shape[1]


def column_signs(basis: np.ndarray) -> np.ndarray:
    """-1 for each column whose largest-magnitude entry is negative, else +1."""
    rows = np.argmax(np.abs(basis), axis=0)
    return np.where(basis[rows, np.arange(basis.shape[1])] < 0, -1.0, 1.0)


def fix_signs(basis: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive."""
    return basis * column_signs(basis)


def center_fit(x: FeatureMatrix) -> tuple[np.ndarray, FeatureMatrix]:
    """Column-mean removal; returns (mean vector, centered matrix)."""
    mean = x.values.mean(axis=1)
    return mean, FeatureMatrix(x.values - mean[:, None])


def pca_fit(x: FeatureMatrix, k: int | None = None, energy: float | None = None) -> PcaModel:
    """Fit PCA on x, retaining a fixed dimension k or an energy fraction.

    Exactly one of ``k`` and ``energy`` must be given.  ``energy`` in (0, 1]
    keeps the smallest k whose cumulative eigenvalue fraction reaches it.
    k is capped at min(d, n-1).

    The eigenpairs are those of the d x d scatter Xc Xc' of the centered
    data (``eigh``, sorted descending, eigenvalues clipped at 0), so no
    n-sized singular vectors are formed.  Forming the scatter squares the
    condition number: a basis column's error is about eps * lambda_1 / gap,
    gap being the distance from its eigenvalue to the nearest other one,
    where a thin SVD of Xc would give eps * sigma_1 / gap in singular
    values.  So directions whose variance is below about 1e-8 lambda_1 are
    less accurate than an SVD's, and eigenvalues below about eps * lambda_1
    may come out as 0.  An overflowed scatter is ``NumericalError("divergence")``.
    """
    if (k is None) == (energy is None):
        raise ConfigError("pca_target", "specify exactly one of k and energy")
    if x.n < 2:
        raise ConfigError("pca_target", "PCA needs at least 2 samples")
    k_max = min(x.d, x.n - 1)

    mean, centered = center_fit(x)
    xc = centered.values
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed scatter fails the check below instead
        scatter = xc @ xc.T
    if not np.isfinite(scatter).all():
        raise NumericalError("divergence", "PCA scatter holds a NaN or infinity; are the features too large?")
    w, u = np.linalg.eigh(scatter)  # ascending
    u, eigenvalues = u[:, ::-1], np.maximum(w[::-1], 0.0) / (x.n - 1)

    if energy is not None:
        if not (is_real(energy) and 0 < energy <= 1):
            raise ConfigError("pca_target", f"energy must be a number in (0, 1], got {energy!r}")
        total = eigenvalues[:k_max].sum()
        if total <= 0:
            k = 1
        else:
            frac = np.cumsum(eigenvalues[:k_max]) / total
            k = int(np.searchsorted(frac, energy - 1e-12) + 1)
    if not (is_int(k) and k >= 1):
        raise ConfigError("pca_target", f"k must be an integer >= 1, got {k!r}")
    if k > k_max:
        raise ConfigError("pca_target", f"k={k} exceeds min(d, n-1)={k_max}")

    return PcaModel(mean=mean, basis=fix_signs(u[:, :k]), eigenvalues=eigenvalues[:k].copy())


def pca_apply(model: PcaModel, x: FeatureMatrix) -> FeatureMatrix:
    """Project columns of x onto the PCA basis: basis' (x - mean)."""
    if x.d != model.d:
        raise ConfigError("dim_mismatch", f"PCA model expects d={model.d}, got {x.d}")
    return FeatureMatrix(model.basis.T @ (x.values - model.mean[:, None]))
