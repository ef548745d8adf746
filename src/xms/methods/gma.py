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

from dataclasses import asdict, dataclass

import numpy as np

from ..dataset_io import FeatureMatrix, PairedMultimodalDataset
from ..errors import ConfigError, is_int, is_real
from ..numerics import class_knn_graphs, default_ridge, laplacian_per_weight, scatter, solve_gev
from .cca import solve_block_gev
from .model import SubspaceModel, _fit_closed_form

@dataclass(frozen=True)
class GmaConfig:
    """BLM's and GMLDA's hyperparameters: the ones all three variants share."""

    mu: float = 1.0
    beta: float = 1.0
    alpha: float = 1.0

    def __post_init__(self):
        if not all(is_real(v) and v > 0 for v in (self.mu, self.alpha)):
            raise ConfigError("bad_hyperparam", "mu and alpha must be finite and positive")
        if not (is_real(self.beta) and self.beta >= 0):
            raise ConfigError("bad_hyperparam", "beta must be finite and non-negative")


@dataclass(frozen=True)
class GmmfaConfig(GmaConfig):
    """GMMFA's hyperparameters: GMA's plus the margin-Fisher graphs' neighbour counts."""

    mfa_k_intrinsic: int = 5
    mfa_k_penalty: int = 20

    def __post_init__(self):
        super().__post_init__()
        if not all(is_int(k) and k >= 1 for k in (self.mfa_k_intrinsic, self.mfa_k_penalty)):
            raise ConfigError("bad_k", "mfa_k_intrinsic and mfa_k_penalty must be positive integers")


def _blm_blocks(x, labels, config):
    return x @ x.T / x.shape[1], np.eye(x.shape[0]), x


def _gmlda_blocks(x, labels, config):
    within, between, class_means = scatter(FeatureMatrix(x), labels)
    # cross term: every sample column replaced by its class mean (keeps the n-sample scale)
    positions = np.unique(labels, return_inverse=True)[1]
    return between, within, class_means[:, positions]


def _gmmfa_blocks(x, labels, config):
    # margin-Fisher scatters on edge-weight-averaged Laplacians, and a
    # per-sample-scaled cross term, so beta ~ 1 balances the blocks
    intrinsic, penalty = class_knn_graphs(FeatureMatrix(x), labels, config.mfa_k_intrinsic, config.mfa_k_penalty)
    return x @ laplacian_per_weight(penalty) @ x.T, x @ laplacian_per_weight(intrinsic) @ x.T, x / np.sqrt(x.shape[1])


# variant -> (the config class it reads, one view's (A_i, B_i, cross_i) from (x, labels, config))
VARIANTS = {"blm": (GmaConfig, _blm_blocks), "gmlda": (GmaConfig, _gmlda_blocks), "gmmfa": (GmmfaConfig, _gmmfa_blocks)}


def fit_gma(
    train: PairedMultimodalDataset, variant: str, d: int | None = None, config: GmaConfig | None = None
) -> SubspaceModel:
    """Fit one GMA variant, ``blm``, ``gmlda`` or ``gmmfa``.  ``config`` must be
    the variant's own config class (``GmmfaConfig`` for GMMFA, ``GmaConfig``
    otherwise), or None for its defaults; any other raises ``bad_hyperparam``."""
    if variant not in VARIANTS:
        raise ConfigError("bad_variant", f"variant must be one of {tuple(VARIANTS)}, got {variant!r}")
    config_class, view_blocks = VARIANTS[variant]
    config = config_class() if config is None else config
    if type(config) is not config_class:
        raise ConfigError("bad_hyperparam", f"{variant} reads a {config_class.__name__}, got a {type(config).__name__}")

    def solve(xa, xb, d):
        (a_a, b_a, cross_a), (a_b, b_b, cross_b) = (view_blocks(x.values, train.labels, config) for x in (xa, xb))
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
        hyperparams = {**asdict(config), "ridge": float(ridge)}
        return np.ascontiguousarray(wa), np.ascontiguousarray(wb), hyperparams, {"gev_eigenvalues": eigvals}

    d_max = min(train.d_a, train.d_b)
    d_default = min(30, d_max) if variant == "blm" else max(min(train.c - 1, 30, d_max), 1)
    return _fit_closed_form(train, variant, d, d_max, d_default, solve)
