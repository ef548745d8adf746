"""Common discriminant feature extraction.

Minimizes (normalized same-class cross-modal pair distances)
- alpha * (normalized different-class pair distances)
+ beta * (within-modality k-NN Laplacian smoothness of the projections),
over the stacked projection [wa; wb] with orthonormal columns.  The whole
objective is one quadratic form, so the minimizer is the smallest-eigenvalue
eigenbasis of the assembled matrix.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..dataset_io import PairedMultimodalDataset, _integer_labels
from ..errors import ConfigError, NumericalError, is_int, is_real
from ..numerics import knn_graph, laplacian_per_weight, solve_gev
from .model import SubspaceModel, _fit_closed_form, _own_config


@dataclass(frozen=True)
class CdfeConfig:
    alpha: float = 0.5
    beta: float = 0.1
    knn_k: int = 5

    def __post_init__(self):
        if not all(is_real(v) and v >= 0 for v in (self.alpha, self.beta)):
            raise ConfigError("bad_hyperparam", "alpha and beta must be finite and non-negative")
        if not (is_int(self.knn_k) and self.knn_k >= 1):
            raise ConfigError("bad_k", "knn_k must be a positive integer")


def pair_weights(labels, alpha: float) -> np.ndarray:
    """Signed n x n cross-modal pair weights: same-class/N1 - alpha * diff-class/N2."""
    labels = _integer_labels(labels)
    same = labels[:, None] == labels[None, :]
    n1 = int(same.sum())
    n2 = same.size - n1
    weights = same / n1
    if alpha > 0 and n2 > 0:
        weights = weights - alpha * (~same) / n2
    return weights


def fit_cdfe(train: PairedMultimodalDataset, d: int | None = None, config: CdfeConfig | None = None) -> SubspaceModel:
    config = _own_config(config, CdfeConfig, "cdfe")
    if config.alpha > 0 and train.c < 2:
        raise ConfigError("bad_hyperparam", "inter-class weight alpha > 0 needs at least 2 classes")
    d_total = train.d_a + train.d_b

    def solve(xa, xb, d):
        s = pair_weights(train.labels, config.alpha)
        # x diag(r) x' as (x * r) x': scaling the columns is exact, so the product is too
        qaa = (xa.values * s.sum(axis=1)) @ xa.values.T
        qbb = (xb.values * s.sum(axis=0)) @ xb.values.T
        if config.beta > 0:
            # local consistency: per-edge-average Laplacian smoothness, so its
            # scale matches the pair-normalized separability terms
            k = min(config.knn_k, train.n - 1)

            def smoothness(x):
                return config.beta * (x.values @ laplacian_per_weight(knn_graph(x, k)) @ x.values.T)

            qaa = qaa + smoothness(xa)
            qbb = qbb + smoothness(xb)
        qab = -(xa.values @ s @ xb.values.T)
        q = np.block([[qaa, qab], [qab.T, qbb]])

        scale = max(np.abs(q).max(), 1e-300)
        if np.abs(q - q.T).max() > 1e-8 * scale:
            raise NumericalError("asymmetric", "assembled CDFE matrix is not symmetric; internal bug")
        q = 0.5 * (q + q.T)

        # smallest eigenpairs of q under stacked orthonormality
        neg_vals, vecs = solve_gev(-q, None, d)

        # objective at the feasible start W0 = I[:, :d] (tr(W0' q W0) is tr(q[:d, :d]) bit for bit) vs. at the optimum
        trace = [float(np.trace(q[:d, :d])), float(-neg_vals.sum())]
        hyperparams = asdict(config)
        wa, wb = np.ascontiguousarray(vecs[: train.d_a]), np.ascontiguousarray(vecs[train.d_a :])
        return wa, wb, hyperparams, {"objective_trace": trace}

    return _fit_closed_form(train, "cdfe", d, d_total, max(min(train.c - 1, 30, train.d_a, train.d_b), 1), solve)
