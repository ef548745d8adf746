"""Coupled label-space regression with row-sparsity: LCFS and JFSSL.

Both alternate half-quadratic reweighting with exact linear solves.  The
recorded objective uses the epsilon-smoothed l21 norm (and, for LCFS, the
epsilon-smoothed trace norm), which is what the majorize-minimize steps
provably decrease; each recorded trace is therefore non-increasing.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from ..dataset_io import PairedMultimodalDataset, encode_labels
from ..errors import ConfigError, NumericalError, is_int
from ..numerics import l21_reweight, multimodal_graph
from .model import Preprocessing, SubspaceModel

EPS_L21 = 1e-6  # row-norm clamp in the reweighting diagonals
EPS_TRACE = 1e-6  # smoothing of the trace-norm variational majorizer


@dataclass(frozen=True)
class SparseCoupledConfig:
    lambda1: float = 0.01
    lambda2: float = 0.01
    max_iters: int = 200
    tol: float = 1e-6
    graph_k: int = 5

    def __post_init__(self):
        if not all(math.isfinite(v) and v >= 0 for v in (self.lambda1, self.lambda2)):
            raise ConfigError("bad_hyperparam", "lambda1 and lambda2 must be finite and non-negative")
        if not (is_int(self.max_iters) and self.max_iters >= 1):
            raise ConfigError("bad_hyperparam", "max_iters must be an integer >= 1")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ConfigError("bad_hyperparam", "tol must be finite and positive")
        if not (is_int(self.graph_k) and self.graph_k >= 1):
            raise ConfigError("bad_k", "graph_k must be a positive integer")


def smoothed_l21(r: np.ndarray, eps: float = EPS_L21) -> float:
    """l21 norm of W from its row norms r, with quadratic smoothing below eps
    (matches the clamped majorizer)."""
    return float(np.where(r >= eps, r, (r**2 + eps**2) / (2 * eps)).sum())


def smoothed_trace_norm(m: np.ndarray, eps: float = EPS_TRACE) -> float:
    """tr sqrt(M M' + eps^2 I), restricted to the nonzero spectrum plus the eps floor."""
    s = np.linalg.svd(m, compute_uv=False)
    small = min(m.shape)
    return float(np.sqrt(s**2 + eps**2).sum() + (max(m.shape[0] - small, 0)) * eps)


def _solve_psd(a: np.ndarray, rhs: np.ndarray, context: str) -> np.ndarray:
    """Solve the symmetric PSD normal system a w = rhs by Cholesky (LAPACK
    potrf/potrs on the upper triangle); min-norm fallback if singular."""
    if not (np.isfinite(a).all() and np.isfinite(rhs).all()):
        raise NumericalError("divergence", f"{context}: non-finite normal system")
    c, info = la.lapack.dpotrf(a, lower=False, clean=False)
    if info == 0:
        return la.lapack.dpotrs(c, rhs, lower=False)[0]
    w = np.linalg.lstsq(a, rhs, rcond=None)[0]
    if not np.isfinite(w).all():
        raise NumericalError("singular_system", f"{context}: singular system; use lambda1 > 0 or add ridge")
    return w


def least_squares_solution(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Min-norm solution of min_W ||x' W - y||_F, the lambda = 0 degeneration."""
    return _solve_psd(x @ x.T, x @ y, "least squares")


def _check_finite(j: float, iteration: int, method: str) -> None:
    if not np.isfinite(j):
        raise NumericalError("divergence", f"{method}: non-finite objective at iteration {iteration}")


def _shared(train: PairedMultimodalDataset, context, key, build):
    """``build()``, kept in the split's context when there is one."""
    if context is None:
        return build()
    if context.train is not train:
        raise ConfigError("bad_config", "the context belongs to another training split")
    return context.memo(key, build)


def _regression_start(train: PairedMultimodalDataset, context):
    """What LCFS and JFSSL derive from the split alone: xs, y, Grams, x y and the
    least-squares start."""

    def build():
        xs = (train.xa.values, train.xb.values)
        y = encode_labels(train.labels, train.c)
        return xs, y, [x @ x.T for x in xs], [x @ y for x in xs], [least_squares_solution(x, y) for x in xs]

    return _shared(train, context, "regression_start", build)


def fit_lcfs(
    train: PairedMultimodalDataset, config: SparseCoupledConfig | None = None, *, context=None
) -> SubspaceModel:
    """Coupled regression onto one-hot labels with l21 row sparsity and a
    trace-norm coupling of the two projected blocks.

    ``context`` (a ``SplitContext`` of ``train``) shares the λ-free start
    with other fits on the same split.
    """
    t0 = time.perf_counter()
    config = config or SparseCoupledConfig()
    xs, y, grams, rhs0, ws = _regression_start(train, context)

    def iterate_state(ws):
        """What the objective and the next reweighting share: the projections
        x' w, their stack M (when the trace norm is on) and the row norms."""
        projs = [x.T @ w for x, w in zip(xs, ws)]
        m = np.hstack(projs) if config.lambda2 > 0 else None
        return projs, m, [np.linalg.norm(w, axis=1) for w in ws]

    def objective(projs, m, norms):
        j = 0.5 * sum(np.sum((f - y) ** 2) for f in projs)
        j += config.lambda1 * sum(smoothed_l21(r) for r in norms)
        if m is not None:
            j += config.lambda2 * smoothed_trace_norm(m)
        return float(j)

    projs, m, norms = iterate_state(ws)
    trace = [objective(projs, m, norms)]
    _check_finite(trace[0], 0, "lcfs")
    for it in range(config.max_iters):
        if m is not None:
            mu, vec = la.eigh(m @ m.T)
            # vec diag(s) vec' without forming diag(s); C order keeps the BLAS path
            # (and the rounding) of the explicit product, eigh's vec being Fortran-ordered
            scaled = np.multiply(vec, 1.0 / np.sqrt(np.maximum(mu, 0.0) + EPS_TRACE**2), order="C")
            inv_sqrt = scaled @ vec.T
        new_ws = []
        for p, x in enumerate(xs):
            a = grams[p].copy()
            if config.lambda1 > 0:
                a.flat[:: a.shape[0] + 1] += 2.0 * config.lambda1 * l21_reweight(norms[p], EPS_L21)
            if m is not None:
                a += config.lambda2 * (x @ inv_sqrt @ x.T)
            new_ws.append(_solve_psd(a, rhs0[p], "lcfs"))
        ws = new_ws
        projs, m, norms = iterate_state(ws)
        trace.append(objective(projs, m, norms))
        _check_finite(trace[-1], it + 1, "lcfs")
        if abs(trace[-2] - trace[-1]) <= config.tol * max(abs(trace[-2]), 1.0):
            break

    return SubspaceModel(
        wa=ws[0],
        wb=ws[1],
        method="lcfs",
        d=train.c,
        preprocessing=Preprocessing(center_a=np.zeros(train.d_a), center_b=np.zeros(train.d_b)),
        hyperparams={
            "lambda1": config.lambda1,
            "lambda2": config.lambda2,
            "max_iters": config.max_iters,
            "tol": config.tol,
            "iterations": len(trace) - 1,
        },
        metadata={"objective_trace": trace},
        fit_seconds=time.perf_counter() - t0,
    )


def _graph_state(train: PairedMultimodalDataset, k: int, context):
    """For the multimodal Laplacian L on ``k`` neighbours: the cross block L_ab
    (contiguous) and the λ-free x_p L_pp x_p' terms."""

    def build():
        n = train.n
        lap = multimodal_graph(train, k).laplacian
        lpp = [lap[:n, :n], lap[n:, n:]]
        xs = (train.xa.values, train.xb.values)
        return np.ascontiguousarray(lap[:n, n:]), [x @ lpp[p] @ x.T for p, x in enumerate(xs)]

    return _shared(train, context, ("multimodal_graph", k), build)


def fit_jfssl(
    train: PairedMultimodalDataset, config: SparseCoupledConfig | None = None, *, context=None
) -> SubspaceModel:
    """Label-space regression with l21 row sparsity and a multimodal graph
    penalty tying projected neighbours and true pairs together.

    The graph term tr(F L F') of the projected points F = [w_a' x_a, w_b' x_b]
    is evaluated without L as sum_p tr(w_p' G_p w_p) + 2 tr(w_b' c_b), from the
    λ-free G_p = x_p L_pp x_p' and the cross product c_b = x_b L_ba x_a' w_a
    that the w_b update has just formed.

    ``context`` (a ``SplitContext`` of ``train``) shares the λ-free start and
    the graph with other fits on the same split.
    """
    t0 = time.perf_counter()
    config = config or SparseCoupledConfig()
    n = train.n
    xs, y, grams, rhs0, ws = _regression_start(train, context)
    xa, xb = xs
    ws = list(ws)
    graph = config.lambda2 > 0

    if graph:
        lab, graph_products = _graph_state(train, min(config.graph_k, max(n - 1, 1)), context)
        cross_ops = [
            lambda proj_b: xa @ (lab @ proj_b),
            lambda proj_a: xb @ (lab.T @ proj_a),
        ]
        graph_terms = [config.lambda2 * product for product in graph_products]

    def objective(ws, projs, norms, cross_b):
        j = sum(np.sum((f - y) ** 2) for f in projs)
        j += config.lambda1 * sum(smoothed_l21(r) for r in norms)
        if graph:
            g = sum(np.sum(w * (product @ w)) for w, product in zip(ws, graph_products))
            j += config.lambda2 * float(g + 2.0 * np.sum(ws[1] * cross_b))
        return float(j)

    projs = [x.T @ w for x, w in zip(xs, ws)]
    norms = [np.linalg.norm(w, axis=1) for w in ws]
    cross = cross_ops[1](projs[0]) if graph else None
    trace = [objective(ws, projs, norms, cross)]
    _check_finite(trace[0], 0, "jfssl")
    for it in range(config.max_iters):
        diags = [l21_reweight(r, EPS_L21) for r in norms] if config.lambda1 > 0 else None
        for p in range(2):
            a = grams[p].copy()
            if diags is not None:
                a.flat[:: a.shape[0] + 1] += config.lambda1 * diags[p]
            rhs = rhs0[p]
            if graph:
                a += graph_terms[p]
                cross = cross_ops[p](projs[1 - p])
                rhs = rhs - config.lambda2 * cross
            ws[p] = _solve_psd(a, rhs, "jfssl")
            projs[p] = xs[p].T @ ws[p]
        norms = [np.linalg.norm(w, axis=1) for w in ws]
        trace.append(objective(ws, projs, norms, cross))
        _check_finite(trace[-1], it + 1, "jfssl")
        if abs(trace[-2] - trace[-1]) <= config.tol * max(abs(trace[-2]), 1.0):
            break

    return SubspaceModel(
        wa=ws[0],
        wb=ws[1],
        method="jfssl",
        d=train.c,
        preprocessing=Preprocessing(center_a=np.zeros(train.d_a), center_b=np.zeros(train.d_b)),
        hyperparams={
            "lambda1": config.lambda1,
            "lambda2": config.lambda2,
            "max_iters": config.max_iters,
            "tol": config.tol,
            "graph_k": config.graph_k,
            "iterations": len(trace) - 1,
        },
        metadata={"objective_trace": trace},
        fit_seconds=time.perf_counter() - t0,
    )
