"""Shared numerical kernels for the subspace fitters.

Covariance and scatter builders, a regularized symmetric generalized
eigensolver, and k-NN and multimodal graph builders with their Laplacians.
Every kernel returns plain arrays: a graph builder returns its symmetric
non-negative affinity with a zero diagonal, and ``laplacian`` or
``laplacian_per_weight`` turns that into the matrix a fitter uses.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as la

from .dataset_io import FeatureMatrix, PairedMultimodalDataset, _integer_labels
from .errors import ConfigError, NumericalError, is_int
from .preprocess import fix_signs

COND_LIMIT = 1e12
_SIGMA_FLOOR = float(np.sqrt(np.finfo(float).tiny))  # sigma**2 stays a normal float


def laplacian(affinity: np.ndarray) -> np.ndarray:
    """Combinatorial Laplacian D - W of an affinity W."""
    return np.diag(affinity.sum(axis=1)) - affinity


def laplacian_per_weight(affinity: np.ndarray) -> np.ndarray:
    """The Laplacian over the total edge weight, so its scale does not grow with the edge count."""
    return laplacian(affinity) / max(affinity.sum(), 1e-300)


def covariances(xa: FeatureMatrix, xb: FeatureMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Empirical (co)variances ``(saa, sbb, sab)`` of centered inputs: saa = Xa Xa'/(n-1), etc."""
    if xa.n != xb.n:
        raise ConfigError("n_mismatch", f"sample counts differ: {xa.n} vs {xb.n}")
    if xa.n < 2:
        raise ConfigError("n_mismatch", "need at least 2 samples for covariances")
    f = 1.0 / (xa.n - 1)
    return f * (xa.values @ xa.values.T), f * (xb.values @ xb.values.T), f * (xa.values @ xb.values.T)


def default_ridge(b_blocks) -> float:
    """Ridge scale of all GEV-based fitters from B's diagonal blocks: 1e-4 * trace(B)/size(B), summed as one array."""
    diagonal = np.concatenate([np.diagonal(block) for block in b_blocks])
    return 1e-4 * diagonal.sum() / diagonal.size


def solve_gev(a: np.ndarray, b: np.ndarray | None, k: int, ridge: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Top-k eigenpairs of A v = lambda (B + ridge I) v for symmetric A, B.

    Eigenvalues come back non-increasing; eigenvectors satisfy
    v' (B + ridge I) v = 1 and are sign-fixed by their largest entry.
    ``b=None`` means B = I: one standard ``eigh`` (LAPACK syevd).  The
    generalized solver (sygvd) runs the same syevd after reducing by B's
    Cholesky factor, which for B = I changes no bit, so the result is
    ``b=np.eye(m)``'s.  A nonzero ridge with ``b=None`` is a ``ConfigError``; a NaN
    or infinity in A or B + ridge I is ``NumericalError("divergence")``.
    """
    a = np.asarray(a, dtype=np.float64)
    if b is not None:
        b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or (b is not None and a.shape != b.shape):
        raise ConfigError("shape_mismatch", f"A and B must be square and equal-sized, got {a.shape} and {np.shape(b)}")
    m = a.shape[0]
    if not (is_int(k) and 1 <= k <= m):
        raise ConfigError("bad_k", f"k must lie in 1..{m}, got {k}")

    if b is None and ridge != 0:
        raise ConfigError("bad_hyperparam", "a ridge needs a constraint matrix B; b=None means B = I")
    breg = None if b is None else b + ridge * np.eye(m)
    if not (np.isfinite(a).all() and (breg is None or np.isfinite(breg).all())):
        raise NumericalError("divergence", "A or B + ridge I holds a NaN or infinity; are the features too large?")
    if breg is None:
        w, v = la.eigh(a, driver="evd")  # ascending
    else:
        bw = la.eigvalsh(breg)
        if bw[0] <= 0 or bw[-1] / bw[0] > COND_LIMIT:
            raise NumericalError(
                "singular_b",
                f"constraint matrix is numerically singular (cond ~ {bw[-1] / max(bw[0], 1e-300):.2e}); increase ridge",
            )
        w, v = la.eigh(a, breg)  # ascending
    return w[::-1][:k], fix_signs(v[:, ::-1][:, :k])


def scatter(x: FeatureMatrix, labels) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(within, between, class_means)``: class scatters with class-size weighting, and
    one mean column per class present, in ascending label order.

    within = sum_c sum_{i in c} (x_i - m_c)(x_i - m_c)'
    between = sum_c n_c (m_c - m)(m_c - m)'
    so within + between equals the total scatter about the global mean.
    """
    labels = _integer_labels(labels)
    if labels.size != x.n:
        raise ConfigError("n_mismatch", "labels length must match sample count")
    classes = np.unique(labels)
    mean = x.values.mean(axis=1)
    within = np.zeros((x.d, x.d))
    between = np.zeros((x.d, x.d))
    class_means = np.zeros((x.d, classes.size))
    for j, cls in enumerate(classes):
        cols = x.values[:, labels == cls]
        m_c = cols.mean(axis=1)
        class_means[:, j] = m_c
        dev = cols - m_c[:, None]
        within += dev @ dev.T
        gap = (m_c - mean)[:, None]
        between += cols.shape[1] * (gap @ gap.T)
    return within, between, class_means


def _pairwise_sq_dists(x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
    y = x if y is None else y
    sq_x = (x**2).sum(axis=0)
    sq_y = (y**2).sum(axis=0)
    d2 = sq_x[:, None] + sq_y[None, :] - 2.0 * (x.T @ y)
    if not np.isfinite(d2).all():  # an overflow, which would leave the k-NN masks empty
        raise NumericalError("divergence", "a squared distance overflowed; are the features too large?")
    return np.maximum(d2, 0.0)


def _knn_mask(d: np.ndarray, k: int) -> np.ndarray:
    """Mask of each row's k smallest finite entries, ties to the lower column.

    For k >= 1 this is the first k columns of a stable ascending sort of each
    row (NaN last), less the non-finite ones.  A partition finds each row's
    k-th smallest value; rows with more than k entries at or below it have a
    tie there, and fill their last slots with the tied entries in column order.
    """
    if k >= d.shape[1]:
        return np.isfinite(d)
    kth = np.partition(d, k - 1, axis=1)[:, k - 1 : k]  # NaN: fewer than k non-NaN entries, keep them all
    mask = d <= kth
    tied = np.flatnonzero(np.count_nonzero(mask, axis=1) > k)
    if tied.size:
        sub, sub_kth = d[tied], kth[tied]
        below, at = sub < sub_kth, sub == sub_kth
        slots = k - np.count_nonzero(below, axis=1, keepdims=True)
        mask[tied] = below | (at & (np.cumsum(at, axis=1) <= slots))
    return (mask | np.isnan(kth)) & np.isfinite(d)


def _symmetrized(weights: np.ndarray) -> np.ndarray:
    """max(w, w'); the diagonal stays 0, as no k-NN mask selects it."""
    return np.maximum(weights, weights.T)


def knn_graph(x: FeatureMatrix, k: int) -> np.ndarray:
    """Symmetrized k-NN graph with Gaussian edge weights exp(-dist^2/sigma^2).

    sigma is the median distance over the selected k-NN edges, floored so that
    duplicate samples (distance 0) get weight 1.  Symmetrization keeps
    max(w_ij, w_ji).
    """
    if k <= 0:
        raise ConfigError("bad_k", f"k must be positive, got {k}")
    if k >= x.n:
        raise ConfigError("bad_k", f"k must be < n ({x.n})")
    d2 = _pairwise_sq_dists(x.values)
    np.fill_diagonal(d2, np.inf)
    mask = _knn_mask(d2, k)
    sigma = max(float(np.sqrt(np.median(d2[mask]))), _SIGMA_FLOOR)
    with np.errstate(over="ignore"):  # with sigma at the floor, far pairs get weight exp(-inf) = 0
        return _symmetrized(np.where(mask, np.exp(-d2 / sigma**2), 0.0))


def class_knn_graphs(x: FeatureMatrix, labels, k_intrinsic: int, k_penalty: int) -> tuple[np.ndarray, np.ndarray]:
    """Binary intrinsic (same-class k-NN) and penalty (different-class k-NN) graphs.

    The margin-Fisher construction: each sample is linked to its k_intrinsic
    nearest neighbours of the same class and, in the penalty graph, to its
    k_penalty nearest neighbours among other classes.  Both symmetrized.
    """
    if k_intrinsic <= 0 or k_penalty <= 0:
        raise ConfigError("bad_k", "graph neighbour counts must be positive")
    labels = _integer_labels(labels)
    if labels.size != x.n:
        raise ConfigError("n_mismatch", "labels length must match sample count")
    d2 = _pairwise_sq_dists(x.values)
    np.fill_diagonal(d2, np.inf)
    same = labels[:, None] == labels[None, :]
    intrinsic = _knn_mask(np.where(same, d2, np.inf), k_intrinsic)
    penalty = _knn_mask(np.where(same, np.inf, d2), k_penalty)
    return _symmetrized(intrinsic.astype(float)), _symmetrized(penalty.astype(float))


def multimodal_graph(dataset: PairedMultimodalDataset, k: int) -> np.ndarray:
    """Joint 2n x 2n graph tying both modalities' samples together.

    Intra-modality blocks are Gaussian k-NN graphs on each modality.  The
    inter-modality block links true pairs (affinity 1) and, when the feature
    spaces are comparable (d_a == d_b), the union of the a->b and b->a
    same-class cross-modal k-NN pairs.

    The affinity is filled block by block: both intra-modality graphs are
    already symmetric, the inter block goes above the diagonal and its
    transpose below, so no 2n x 2n symmetrization runs.
    """
    if k <= 0:
        raise ConfigError("bad_k", f"k must be positive, got {k}")
    n = dataset.n
    inter = np.eye(n, dtype=bool)  # rows index modality a, columns modality b
    if dataset.d_a == dataset.d_b:
        d2 = _pairwise_sq_dists(dataset.xa.values, dataset.xb.values)
        d2 = np.where(dataset.labels[:, None] == dataset.labels[None, :], d2, np.inf)
        inter |= _knn_mask(d2, k) | _knn_mask(d2.T, k).T
    w = np.empty((2 * n, 2 * n))
    w[:n, :n] = knn_graph(dataset.xa, min(k, n - 1))
    w[n:, n:] = knn_graph(dataset.xb, min(k, n - 1))
    w[:n, n:] = inter
    w[n:, :n] = inter.T
    return w
