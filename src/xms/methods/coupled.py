"""Coupled label-space regression with row-sparsity: LCFS and JFSSL.

Both alternate half-quadratic reweighting with exact linear solves.  The
recorded objective uses the epsilon-smoothed l21 norm (and, for LCFS, the
epsilon-smoothed trace norm), which is what the majorize-minimize steps
provably decrease; each recorded trace is therefore non-increasing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from ..dataset_io import PairedMultimodalDataset, encode_labels
from ..errors import ConfigError, NumericalError, is_int, is_real
from ..numerics import multimodal_graph
from .model import SubspaceModel, _own_config

EPS_L21 = 1e-6  # row-norm clamp in the reweighting diagonals
EPS_TRACE = 1e-6  # smoothing of the trace-norm variational majorizer


@dataclass(frozen=True)
class LcfsConfig:
    """LCFS's hyperparameters: the ones both coupled fitters share."""

    lambda1: float = 0.01
    lambda2: float = 0.01
    max_iters: int = 200
    tol: float = 1e-6

    def __post_init__(self):
        if not all(is_real(v) and v >= 0 for v in (self.lambda1, self.lambda2)):
            raise ConfigError("bad_hyperparam", "lambda1 and lambda2 must be finite and non-negative")
        if not (is_int(self.max_iters) and self.max_iters >= 1):
            raise ConfigError("bad_hyperparam", "max_iters must be an integer >= 1")
        if not (is_real(self.tol) and self.tol > 0):
            raise ConfigError("bad_hyperparam", "tol must be finite and positive")


@dataclass(frozen=True)
class SparseCoupledConfig(LcfsConfig):
    """JFSSL's hyperparameters: LCFS's plus the graph's neighbour count."""

    graph_k: int = 5

    def __post_init__(self):
        super().__post_init__()
        if not (is_int(self.graph_k) and self.graph_k >= 1):
            raise ConfigError("bad_k", "graph_k must be a positive integer")


def smoothed_l21(r: np.ndarray) -> float:
    """l21 norm of W from its row norms r, with quadratic smoothing below
    EPS_L21 (matches the clamped majorizer)."""
    return float(np.where(r >= EPS_L21, r, (r**2 + EPS_L21**2) / (2 * EPS_L21)).sum())


def _row_norms(w: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(w, axis=1)`` bit for bit: the same sqrt of the same reduction, without its dispatch."""
    return np.sqrt(np.add.reduce(w * w, axis=1))


def smoothed_trace_norm(s: np.ndarray, n: int) -> float:
    """tr sqrt(M M' + EPS_TRACE^2 I) of an n-row M from the singular values s of its thin SVD."""
    return float(np.sqrt(s**2 + EPS_TRACE**2).sum() + (n - s.size) * EPS_TRACE)


class _NormalSystem:
    """A block's normal system (G + B + diag(d)) w = rhs: the Gram G, a block B
    or None, and at each solve an l21 diagonal d or None.

    G + B is formed and checked for non-finite entries once, when the system
    is built.  A solve copies it, rewrites the copy's diagonal as (G_ii + d_i)
    + B_ii, the rounding of adding d to a copy of G and then B, and so checks
    only that diagonal and the right-hand side.  One LAPACK posv call (potrf
    then potrs, on the upper triangle) then factors and solves the copy in
    place; if Cholesky fails, a fresh copy gets the min-norm least-squares
    solution.  G and B are left as they are, and Fortran-ordered ones reach
    LAPACK without a transposing copy.  A diagonal sum that overflows fails
    the check (``divergence``); the fitters' errstate silences numpy's warning.
    """

    def __init__(self, gram, block, context):
        self.base = gram if block is None else gram + block
        if not np.isfinite(self.base).all():
            raise NumericalError("divergence", f"{context}: non-finite normal system")
        self.diagonals = gram.diagonal().copy(), None if block is None else block.diagonal().copy()
        self.context = context

    def _matrix(self, diagonal):
        a = self.base.copy(order="K")
        if diagonal is not None:
            a.ravel(order="K")[:: a.shape[0] + 1] = diagonal  # the flat memory-order view of the contiguous copy
        return a

    def solve(self, l21_diagonal, rhs):
        """w for the right-hand side ``rhs`` and the l21 diagonal, None at lambda1 = 0."""
        diagonal = None
        if l21_diagonal is not None:
            gram_diagonal, block_diagonal = self.diagonals
            diagonal = gram_diagonal + l21_diagonal
            if block_diagonal is not None:
                diagonal += block_diagonal
        if not (np.isfinite(rhs).all() and (diagonal is None or np.isfinite(diagonal).all())):
            raise NumericalError("divergence", f"{self.context}: non-finite normal system")
        _, w, info = la.lapack.dposv(self._matrix(diagonal), rhs, lower=False, overwrite_a=True)
        if info == 0:
            return w
        w = np.linalg.lstsq(self._matrix(diagonal), rhs, rcond=None)[0]
        if not np.isfinite(w).all():
            raise NumericalError("singular_system", f"{self.context}: singular system; use lambda1 > 0 or add ridge")
        return w


def _shared(train: PairedMultimodalDataset, context, key, build):
    """``build()``, kept in the split's context when there is one."""
    if context is None:
        return build()
    if context.train is not train:
        raise ConfigError("bad_config", "the context belongs to another training split")
    return context.memo(key, build)


def _regression_start(train: PairedMultimodalDataset, context):
    """What LCFS and JFSSL derive from the split alone: xs, y, Grams, x y and the
    least-squares start, the min-norm solution of min_W ||x' W - y||_F.  The
    Grams are kept in Fortran order, LAPACK's, as are the systems built on them."""

    def build():
        xs = (train.xa.values, train.xb.values)
        y = encode_labels(train.labels, train.c)
        grams, rhs = [np.asfortranarray(x @ x.T) for x in xs], [x @ y for x in xs]
        return xs, y, grams, rhs, [_NormalSystem(g, None, "least squares").solve(None, r) for g, r in zip(grams, rhs)]

    return _shared(train, context, "regression_start", build)


def _fit_coupled(
    method, train, config, start, t0, loss_scale, coupling, echo=None, fixed_blocks=(None, None)
) -> SubspaceModel:
    """The half-quadratic iteration LCFS and JFSSL share.

    It minimizes loss_scale * sum_p ||x_p' w_p - y||^2 + lambda1 * sum_p
    l21(w_p) + the coupling term from the least-squares ``start``.  Each step
    solves the majorizer's normal equations at the current iterate, divided by
    2 * loss_scale, until the objective changes by at most ``tol`` relative to
    its previous value, or ``max_iters`` times.  The model's metadata holds the
    objective trace and ``at_max_iters``: whether all ``max_iters`` steps ran.

    ``fixed_blocks`` are the two diagonal blocks (or None) that every step
    adds to the normal systems; each block's ``_NormalSystem`` is then built
    and checked once per fit.  The fitter's coupling is used only when
    lambda2 > 0.  ``coupling(ws, projs)`` returns the iterate's coupling term,
    the two diagonal blocks the next step adds instead of the fixed ones (None
    for none), and a λ-free cross block C_ab or None.  The iterate's blocks
    are iterated once, and only if that step runs, so a generator forms none
    after the last step; the step builds a ``_NormalSystem`` on each of them
    for itself.  Block p's right-hand side loses lambda2 C_{p,1-p} w_{1-p},
    with C_ba = C_ab', so block b reads the new w_a (Gauss–Seidel); without a
    cross block both blocks depend on the previous iterate only (Jacobi).
    """
    xs, y, grams, rhs, ws = start
    ws = list(ws)
    projs = [x.T @ w for x, w in zip(xs, ws)]
    fixed_systems = [_NormalSystem(g, block, method) for g, block in zip(grams, fixed_blocks)]
    blocks, cross = None, None
    trace = []

    for it in range(config.max_iters + 1):
        if it:
            systems = fixed_systems
            if blocks is not None:
                systems = (_NormalSystem(g, block, method) for g, block in zip(grams, blocks))
            for p, system in enumerate(systems):
                b = rhs[p]
                if cross is not None:
                    b = b - config.lambda2 * ((cross.T if p else cross) @ ws[1 - p])
                if config.lambda1 > 0:
                    # smoothed_l21's half-quadratic majorizer at the current rows, with the same EPS_L21; where
                    # it or its sum with the system's diagonal overflows, the inf is left to the system's check
                    l21_diagonal = config.lambda1 / loss_scale * (1.0 / (2.0 * np.maximum(norms[p], EPS_L21)))
                    ws[p] = system.solve(l21_diagonal, b)
                else:
                    ws[p] = system.solve(None, b)
                projs[p] = xs[p].T @ ws[p]
        norms = [_row_norms(w) for w in ws]
        j = loss_scale * sum(((f - y) ** 2).sum() for f in projs)
        j += config.lambda1 * sum(smoothed_l21(r) for r in norms)
        if config.lambda2 > 0:
            term, blocks, cross = coupling(ws, projs)
            j += term
        trace.append(float(j))
        if not np.isfinite(trace[-1]):
            raise NumericalError("divergence", f"{method}: non-finite objective at iteration {it}")
        if it and abs(trace[-2] - trace[-1]) <= config.tol * max(abs(trace[-2]), 1.0):
            break

    return SubspaceModel(
        wa=ws[0],
        wb=ws[1],
        method=method,
        d=train.c,
        center_a=np.zeros(train.d_a),
        center_b=np.zeros(train.d_b),
        hyperparams={
            "lambda1": config.lambda1,
            "lambda2": config.lambda2,
            "max_iters": config.max_iters,
            "tol": config.tol,
            **(echo or {}),
            "iterations": len(trace) - 1,
        },
        metadata={"objective_trace": trace, "at_max_iters": len(trace) - 1 == config.max_iters},
        fit_seconds=time.perf_counter() - t0,
    )


# a product that overflows leaves an inf or NaN without numpy's warning; the fit's finiteness checks
# (the normal systems, the graph's distances, the objective) raise it as NumericalError("divergence")
@np.errstate(over="ignore", invalid="ignore")
def fit_lcfs(train: PairedMultimodalDataset, config: LcfsConfig | None = None, *, context=None) -> SubspaceModel:
    """Coupled regression onto one-hot labels with l21 row sparsity and a
    trace-norm coupling of the two projected blocks: half the squared
    residuals, plus lambda2 times the smoothed trace norm of M = [x_a' w_a, x_b' w_b].

    ``context`` (a ``SplitContext`` of ``train``) shares the λ-free start
    with other fits on the same split.  A ``SparseCoupledConfig`` is accepted
    as well; LCFS builds no graph, so its ``graph_k`` goes unread.
    """
    t0 = time.perf_counter()
    config = _own_config(config, LcfsConfig, "lcfs")
    xs, _, grams, _, _ = start = _regression_start(train, context)

    def coupling(ws, projs):
        """The trace-norm term at M = U S V', and each block's share of its
        majorizer (M M' + eps^2 I)^-1/2 = I/eps + U diag(f) U'; no cross block."""
        u, s, _ = np.linalg.svd(np.hstack(projs), full_matrices=False)
        f = 1.0 / np.sqrt(s**2 + EPS_TRACE**2) - 1.0 / EPS_TRACE
        xus = (x @ u for x in xs)
        # Fortran order throughout, as the Grams: adding arrays of mixed memory order is slow
        blocks = (config.lambda2 * (g / EPS_TRACE + np.asfortranarray((xu * f) @ xu.T)) for xu, g in zip(xus, grams))
        return config.lambda2 * smoothed_trace_norm(s, train.n), blocks, None

    return _fit_coupled("lcfs", train, config, start, t0, 0.5, coupling)


def _graph_state(train: PairedMultimodalDataset, k: int, context):
    """For the multimodal Laplacian L = diag(deg) - W on ``k`` neighbours: the
    λ-free d_a x d_b cross block C_ab = x_a L_ab x_b' and the G_p = x_p L_pp x_p'
    terms.  Only L's three n x n blocks are formed, from W's blocks and its
    full row sums deg; L_ab = -W_ab, as the diagonal lies in L_aa and L_bb."""

    def build():
        n = train.n
        w = multimodal_graph(train, k)
        deg = w.sum(axis=1)
        xa, xb = train.xa.values, train.xb.values
        l_aa, l_bb = np.diag(deg[:n]) - w[:n, :n], np.diag(deg[n:]) - w[n:, n:]
        return xa @ -w[:n, n:] @ xb.T, [xa @ l_aa @ xa.T, xb @ l_bb @ xb.T]

    return _shared(train, context, ("multimodal_graph", k), build)


@np.errstate(over="ignore", invalid="ignore")  # as fit_lcfs
def fit_jfssl(
    train: PairedMultimodalDataset, config: SparseCoupledConfig | None = None, *, context=None
) -> SubspaceModel:
    """Label-space regression with l21 row sparsity and a multimodal graph
    penalty tying projected neighbours and true pairs together.

    The graph term tr(F L F') of the projected points F = [w_a' x_a, w_b' x_b]
    is evaluated in feature space as sum_p tr(w_p' G_p w_p) + 2 tr(w_b' C_ba w_a),
    from the λ-free G_p = x_p L_pp x_p' and cross block C_ba = C_ab' = x_b L_ba x_a'
    that the split's graph state holds.  ``_fit_coupled`` gets the diagonal
    blocks lambda2 G_p once, as they are fixed for the fit, and the coupling
    hands it the cross block C_ab.

    ``context`` (a ``SplitContext`` of ``train``) shares the λ-free start and
    the graph state with other fits on the same split.
    """
    t0 = time.perf_counter()
    config = _own_config(config, SparseCoupledConfig, "jfssl")
    graph_terms = (None, None)
    if config.lambda2 > 0:
        c_ab, graph_products = _graph_state(train, min(config.graph_k, max(train.n - 1, 1)), context)
        # the blocks in Fortran order, as the Grams; the objective's G_p w keeps the C-ordered G_p,
        # since a product rounds by its operands' memory order
        graph_terms = [np.asfortranarray(config.lambda2 * product) for product in graph_products]

    def coupling(ws, projs):
        g = sum((w * (product @ w)).sum() for w, product in zip(ws, graph_products))
        return config.lambda2 * float(g + 2.0 * (ws[1] * (c_ab.T @ ws[0])).sum()), None, c_ab

    start = _regression_start(train, context)
    return _fit_coupled("jfssl", train, config, start, t0, 1.0, coupling, {"graph_k": config.graph_k}, graph_terms)
