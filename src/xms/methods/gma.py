"""Generalized multi-view analysis: BLM, GMLDA, and GMMFA variants.

All three maximize

    wa' Aa wa + mu wb' Ab wb + beta wa' Xa Xb' wb
    s.t. wa' Ba wa + alpha wb' Bb wb = 1

as one block generalized eigenproblem; the variant chooses {A_i, B_i} and
what enters the cross term (class means under GMLDA, the data otherwise).
At beta = 0 the block problem decouples exactly and each view's directions
come from its own GEV.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from ..dataset_io import FeatureMatrix, PairedMultimodalDataset
from ..errors import ConfigError, is_int
from ..numerics import class_knn_graphs, default_ridge, scatter, solve_gev
from .cca import centered_views
from .model import Preprocessing, SubspaceModel

VARIANTS = ("blm", "gmlda", "gmmfa")


@dataclass(frozen=True)
class GmaConfig:
    mu: float = 1.0
    beta: float = 1.0
    alpha: float = 1.0
    variant: str = "blm"
    mfa_k_intrinsic: int = 5
    mfa_k_penalty: int = 20

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError("bad_variant", f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not all(math.isfinite(v) and v > 0 for v in (self.mu, self.alpha)):
            raise ConfigError("bad_hyperparam", "mu and alpha must be finite and positive")
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise ConfigError("bad_hyperparam", "beta must be finite and non-negative")
        if not all(is_int(k) and k >= 1 for k in (self.mfa_k_intrinsic, self.mfa_k_penalty)):
            raise ConfigError("bad_k", "mfa_k_intrinsic and mfa_k_penalty must be positive integers")


def _variant_blocks(config: GmaConfig, views, labels, n):
    """Per-view (A_i, B_i, cross_i) for the configured variant."""
    blocks = []
    for x in views:
        if config.variant == "blm":
            blocks.append((x @ x.T / n, np.eye(x.shape[0]), x))
        elif config.variant == "gmlda":
            s = scatter(FeatureMatrix(x), labels)
            # cross term sees the class-mean matrix: every sample column
            # replaced by its class mean (keeps the n-sample scale)
            positions = np.searchsorted(s.classes, labels)
            blocks.append((s.between, s.within, s.class_means[:, positions]))
        else:
            # margin-Fisher scatters on edge-weight-averaged Laplacians, and a
            # per-sample-scaled cross term, so beta ~ 1 balances the blocks
            intrinsic, penalty = class_knn_graphs(
                FeatureMatrix(x), labels, config.mfa_k_intrinsic, config.mfa_k_penalty
            )
            lap_pen = penalty.laplacian_per_weight
            lap_int = intrinsic.laplacian_per_weight
            blocks.append((x @ lap_pen @ x.T, x @ lap_int @ x.T, x / np.sqrt(n)))
    return blocks


def fit_gma(train: PairedMultimodalDataset, d: int | None = None, config: GmaConfig | None = None) -> SubspaceModel:
    t0 = time.perf_counter()
    config = config or GmaConfig()
    xa, xb, mean_a, mean_b = centered_views(train)
    d_max = min(train.d_a, train.d_b)
    if d is None:
        d = min(30, d_max) if config.variant == "blm" else max(min(train.c - 1, 30, d_max), 1)
    if not 1 <= d <= d_max:
        raise ConfigError("bad_dim", f"d must lie in 1..{d_max}, got {d}")

    (a_a, b_a, cross_a), (a_b, b_b, cross_b) = _variant_blocks(
        config, [xa.values, xb.values], train.labels, train.n
    )
    b = la.block_diag(b_a, config.alpha * b_b)
    ridge = default_ridge(b)

    if config.beta == 0.0:
        # block-diagonal problem: each view keeps its own top-d directions
        _, wa = solve_gev(a_a, b_a, d, ridge)
        _, wb = solve_gev(config.mu * a_b, config.alpha * b_b, d, ridge)
        eigvals = []
    else:
        cross = 0.5 * config.beta * (cross_a @ cross_b.T)
        a = la.block_diag(a_a, config.mu * a_b)
        a[: train.d_a, train.d_a :] = cross
        a[train.d_a :, : train.d_a] = cross.T
        vals, vecs = solve_gev(a, b, d, ridge)
        wa, wb = vecs[: train.d_a], vecs[train.d_a :]
        eigvals = [float(v) for v in vals]

    return SubspaceModel(
        wa=np.ascontiguousarray(wa),
        wb=np.ascontiguousarray(wb),
        method=config.variant,
        d=d,
        preprocessing=Preprocessing(center_a=mean_a, center_b=mean_b),
        hyperparams={
            "mu": config.mu,
            "beta": config.beta,
            "alpha": config.alpha,
            "ridge": float(ridge),
            "mfa_k_intrinsic": config.mfa_k_intrinsic,
            "mfa_k_penalty": config.mfa_k_penalty,
        },
        metadata={"gev_eigenvalues": eigvals},
        fit_seconds=time.perf_counter() - t0,
    )


def fit_blm(train, d=None, **kwargs) -> SubspaceModel:
    return fit_gma(train, d, GmaConfig(variant="blm", **kwargs))


def fit_gmlda(train, d=None, **kwargs) -> SubspaceModel:
    return fit_gma(train, d, GmaConfig(variant="gmlda", **kwargs))


def fit_gmmfa(train, d=None, **kwargs) -> SubspaceModel:
    return fit_gma(train, d, GmaConfig(variant="gmmfa", **kwargs))
