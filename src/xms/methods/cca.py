"""Canonical correlation analysis, two-view and label-augmented three-view."""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg as la

from ..dataset_io import FeatureMatrix, PairedMultimodalDataset, encode_labels
from ..errors import ConfigError
from ..numerics import covariances, default_ridge, solve_gev
from ..preprocess import center_fit
from .model import Preprocessing, SubspaceModel


def centered_views(train: PairedMultimodalDataset):
    mean_a, xa = center_fit(train.xa)
    mean_b, xb = center_fit(train.xb)
    return xa, xb, mean_a, mean_b


def _correlation(wa, wb, cov, j):
    num = wa[:, j] @ cov.sab @ wb[:, j]
    den = np.sqrt(max(wa[:, j] @ cov.saa @ wa[:, j], 0.0) * max(wb[:, j] @ cov.sbb @ wb[:, j], 0.0))
    return float(num / den) if den > 1e-300 else 0.0


def fit_cca(train: PairedMultimodalDataset, d: int | None = None, ridge: float | None = None) -> SubspaceModel:
    """Top-d canonical direction pairs via the two-block generalized eigenproblem.

    Directions are rescaled so each satisfies w' (S + ridge I) w = 1 per view;
    the canonical correlations end up in ``metadata["canonical_correlations"]``.
    """
    t0 = time.perf_counter()
    xa, xb, mean_a, mean_b = centered_views(train)
    d_max = min(train.d_a, train.d_b, train.n - 1)
    d = min(30, d_max) if d is None else d
    if not 1 <= d <= d_max:
        raise ConfigError("bad_dim", f"d must lie in 1..{d_max}, got {d}")

    cov = covariances(xa, xb)
    b = la.block_diag(cov.saa, cov.sbb)
    if ridge is None:
        ridge = default_ridge(b)
    a = np.zeros_like(b)
    a[: train.d_a, train.d_a :] = cov.sab
    a[train.d_a :, : train.d_a] = cov.sab.T

    eigvals, vecs = solve_gev(a, b, d, ridge)
    wa, wb = vecs[: train.d_a], vecs[train.d_a :]
    # per-view canonical normalization: unit (ridged) variance per component
    for w, s in ((wa, cov.saa), (wb, cov.sbb)):
        scale = np.sqrt(np.maximum(np.einsum("ij,ij->j", w, (s + ridge * np.eye(s.shape[0])) @ w), 1e-300))
        w /= scale

    correlations = [_correlation(wa, wb, cov, j) for j in range(d)]
    return SubspaceModel(
        wa=wa,
        wb=wb,
        method="cca",
        d=d,
        preprocessing=Preprocessing(center_a=mean_a, center_b=mean_b),
        hyperparams={"ridge": float(ridge)},
        metadata={"canonical_correlations": correlations, "gev_eigenvalues": [float(v) for v in eigvals]},
        fit_seconds=time.perf_counter() - t0,
    )


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
    t0 = time.perf_counter()
    xa, xb, mean_a, mean_b = centered_views(train)
    mean_c, xc = center_fit(label_view(train))
    d_max = min(train.d_a, train.d_b, train.n - 1)
    d = max(min(train.c - 1, 30, d_max), 1) if d is None else d
    if not 1 <= d <= d_max:
        raise ConfigError("bad_dim", f"d must lie in 1..{d_max}, got {d}")

    views = [xa.values, xb.values, xc.values]
    sizes = [v.shape[0] for v in views]
    f = 1.0 / (train.n - 1)
    total = sum(sizes)
    a = np.zeros((total, total))
    b = np.zeros((total, total))
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    for i in range(3):
        si, ei = offsets[i], offsets[i + 1]
        b[si:ei, si:ei] = f * (views[i] @ views[i].T)
        for j in range(i + 1, 3):
            sj, ej = offsets[j], offsets[j + 1]
            cross = f * (views[i] @ views[j].T)
            a[si:ei, sj:ej] = cross
            a[sj:ej, si:ei] = cross.T
    if ridge is None:
        ridge = default_ridge(b)

    _, vecs = solve_gev(a, b, d, ridge)
    wa = vecs[offsets[0] : offsets[1]]
    wb = vecs[offsets[1] : offsets[2]]
    wc = vecs[offsets[2] : offsets[3]]
    objective = cca3v_objective(views, [wa, wb, wc])

    return SubspaceModel(
        wa=wa,
        wb=wb,
        method="cca3v",
        d=d,
        preprocessing=Preprocessing(center_a=mean_a, center_b=mean_b),
        hyperparams={"ridge": float(ridge)},
        metadata={
            "wc": wc.tolist(),
            "label_view_mean": mean_c.tolist(),
            "objective": objective,
        },
        fit_seconds=time.perf_counter() - t0,
    )
