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

from dataclasses import dataclass

import numpy as np

from ..dataset_io import FeatureMatrix, PairedMultimodalDataset
from ..errors import ConfigError, is_int, is_real
from ..numerics import class_knn_graphs, default_ridge, scatter, solve_gev
from .cca import solve_block_gev
from .model import SubspaceModel, _fit_closed_form

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
        if not all(is_real(v) and v > 0 for v in (self.mu, self.alpha)):
            raise ConfigError("bad_hyperparam", "mu and alpha must be finite and positive")
        if not (is_real(self.beta) and self.beta >= 0):
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
    config = config or GmaConfig()

    def solve(xa, xb, d):
        (a_a, b_a, cross_a), (a_b, b_b, cross_b) = _variant_blocks(
            config, [xa.values, xb.values], train.labels, train.n
        )
        if config.beta == 0.0:
            # block-diagonal problem: each view keeps its own top-d directions
            ridge = default_ridge(np.concatenate([np.diagonal(b_a), config.alpha * np.diagonal(b_b)]))
            _, wa = solve_gev(a_a, b_a, d, ridge)
            _, wb = solve_gev(config.mu * a_b, config.alpha * b_b, d, ridge)
            eigvals = []
        else:
            cross = 0.5 * config.beta * (cross_a @ cross_b.T)
            vals, (wa, wb), ridge = solve_block_gev(
                [b_a, config.alpha * b_b], {(0, 1): cross}, d, a_blocks=[a_a, config.mu * a_b]
            )
            eigvals = [float(v) for v in vals]
        hyperparams = {
            "mu": config.mu,
            "beta": config.beta,
            "alpha": config.alpha,
            "ridge": float(ridge),
            "mfa_k_intrinsic": config.mfa_k_intrinsic,
            "mfa_k_penalty": config.mfa_k_penalty,
        }
        return np.ascontiguousarray(wa), np.ascontiguousarray(wb), hyperparams, {"gev_eigenvalues": eigvals}

    d_max = min(train.d_a, train.d_b)
    d_default = min(30, d_max) if config.variant == "blm" else max(min(train.c - 1, 30, d_max), 1)
    return _fit_closed_form(train, config.variant, d, d_max, d_default, solve)


def fit_blm(train, d=None, **kwargs) -> SubspaceModel:
    return fit_gma(train, d, GmaConfig(variant="blm", **kwargs))


def fit_gmlda(train, d=None, **kwargs) -> SubspaceModel:
    return fit_gma(train, d, GmaConfig(variant="gmlda", **kwargs))


def fit_gmmfa(train, d=None, **kwargs) -> SubspaceModel:
    return fit_gma(train, d, GmaConfig(variant="gmmfa", **kwargs))
