"""Canonical correlation analysis, two-view and label-augmented three-view."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dataset_io import FeatureMatrix, PairedMultimodalDataset, encode_labels
from ..errors import ConfigError, is_real
from ..numerics import covariances, default_ridge, solve_gev
from ..preprocess import center_fit
from .model import SubspaceModel, _fit_closed_form


@dataclass(frozen=True)
class _RidgeConfig:
    """CCA's and CCA-3V's one hyperparameter; None means ``default_ridge`` of the block B."""

    ridge: float | None = None

    def __post_init__(self):
        if self.ridge is not None and not (is_real(self.ridge) and self.ridge >= 0):
            raise ConfigError("bad_hyperparam", f"ridge must be finite and non-negative, got {self.ridge}")


def solve_block_gev(b_blocks, cross, d: int, ridge: float | None = None, a_blocks=()):
    """Top-d eigenpairs of the block problem A v = lambda (B + ridge I) v.

    B is block-diagonal with one block per view, ``b_blocks``.  A holds
    ``a_blocks`` on its diagonal (zero blocks when there are none) and, for
    each ``(i, j): block`` of ``cross`` with i < j, the block at (i, j) and
    its transpose at (j, i).  A ``ridge`` of None means ``default_ridge(b_blocks)``.
    Returns the eigenvalues, the eigenvectors' rows split into one block per
    view, and the ridge.
    """
    offsets = np.cumsum([0] + [block.shape[0] for block in b_blocks])
    views = [slice(s, e) for s, e in zip(offsets[:-1], offsets[1:])]
    a = np.zeros((offsets[-1], offsets[-1]))
    b = np.zeros_like(a)
    for v, block in zip(views, b_blocks):
        b[v, v] = block
    for v, block in zip(views, a_blocks):
        a[v, v] = block
    for (i, j), block in cross.items():
        a[views[i], views[j]] = block
        a[views[j], views[i]] = block.T
    if ridge is None:
        ridge = default_ridge(b_blocks)
    eigvals, vecs = solve_gev(a, b, d, ridge)
    return eigvals, [vecs[v] for v in views], ridge


def _correlation(wa, wb, saa, sbb, sab, j):
    num = wa[:, j] @ sab @ wb[:, j]
    den = np.sqrt(max(wa[:, j] @ saa @ wa[:, j], 0.0) * max(wb[:, j] @ sbb @ wb[:, j], 0.0))
    return float(num / den) if den > 1e-300 else 0.0


def fit_cca(train: PairedMultimodalDataset, d: int | None = None, ridge: float | None = None) -> SubspaceModel:
    """Top-d canonical direction pairs via the two-block generalized eigenproblem.

    Directions are rescaled so each satisfies w' (S + ridge I) w = 1 per view;
    the canonical correlations end up in ``metadata["canonical_correlations"]``.
    """
    ridge = _RidgeConfig(ridge).ridge

    def solve(xa, xb, d):
        saa, sbb, sab = covariances(xa, xb)
        eigvals, (wa, wb), fitted_ridge = solve_block_gev([saa, sbb], {(0, 1): sab}, d, ridge)
        # per-view canonical normalization: unit (ridged) variance per component
        for w, s in ((wa, saa), (wb, sbb)):
            scale = np.sqrt(np.maximum(np.einsum("ij,ij->j", w, (s + fitted_ridge * np.eye(s.shape[0])) @ w), 1e-300))
            w /= scale
        metadata = {
            "canonical_correlations": [_correlation(wa, wb, saa, sbb, sab, j) for j in range(d)],
            "gev_eigenvalues": [float(v) for v in eigvals],
        }
        return wa, wb, {"ridge": float(fitted_ridge)}, metadata

    return _fit_closed_form(train, "cca", d, min(train.d_a, train.d_b, train.n - 1), solve)


def label_view(train: PairedMultimodalDataset) -> FeatureMatrix:
    """One-hot labels as a c x n feature matrix (third view)."""
    return FeatureMatrix(encode_labels(train.labels, train.c).T)


def cca3v_objective(views: list[np.ndarray], ws: list[np.ndarray]) -> float:
    """Sum of pairwise squared distances between the three projected views."""
    proj = [x.T @ w for x, w in zip(views, ws)]
    total = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            total += float(np.sum((proj[i] - proj[j]) ** 2))
    return total


def fit_cca3v(train: PairedMultimodalDataset, d: int | None = None, ridge: float | None = None) -> SubspaceModel:
    """Three-view CCA with one-hot class labels as the third view.

    Maximizes the pairwise cross-covariance trace under the summed-variance
    constraint sum_v W_v' (S_vv + ridge I) W_v = I, which is the GEV form of
    minimizing the three pairwise projected-distance terms.
    """
    ridge = _RidgeConfig(ridge).ridge

    def solve(xa, xb, d):
        _, xc = center_fit(label_view(train))
        views = [xa.values, xb.values, xc.values]
        f = 1.0 / (train.n - 1)
        cross = {(i, j): f * (views[i] @ views[j].T) for i in range(3) for j in range(i + 1, 3)}
        _, ws, fitted_ridge = solve_block_gev([f * (x @ x.T) for x in views], cross, d, ridge)
        return ws[0], ws[1], {"ridge": float(fitted_ridge)}, {"wc": ws[2].tolist()}

    return _fit_closed_form(train, "cca3v", d, min(train.d_a, train.d_b, train.n - 1), solve, supervised=True)
