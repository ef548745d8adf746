"""Partial least squares: the top-d singular vector pairs of the cross-covariance.

Each component's weight pair maximizes the covariance of the projected scores
under unit-norm weights, orthogonal to the earlier pairs.  Deflating the
cross-covariance by its own leading singular triple each time (PLS-SVD in
Wegelin's survey of two-block PLS, 2000) yields exactly its singular value
decomposition, so one truncated SVD gives all d pairs at once.
"""

from __future__ import annotations

import time

import numpy as np

from ..dataset_io import PairedMultimodalDataset
from ..errors import ConfigError, NumericalError
from ..preprocess import column_signs
from .cca import centered_views
from .model import Preprocessing, SubspaceModel


def fit_pls(train: PairedMultimodalDataset, d: int | None = None) -> SubspaceModel:
    """Top-d singular pairs of the cross-covariance, one unit weight pair per column.

    The largest-magnitude entry of each ``wa`` column is positive and ``wb``
    is flipped with it; the singular values end up in
    ``metadata["score_covariances"]``.
    """
    t0 = time.perf_counter()
    xa, xb, mean_a, mean_b = centered_views(train)
    d_max = min(train.d_a, train.d_b, train.n - 1)  # rank(C) <= n - 1
    d = min(30, d_max) if d is None else d
    if not 1 <= d <= d_max:
        raise ConfigError("bad_dim", f"d must lie in 1..{d_max}, got {d}")

    c = xa.values @ xb.values.T / (train.n - 1)
    u, sigmas, vt = np.linalg.svd(c, full_matrices=False)
    if sigmas[0] < 1e-12:
        raise NumericalError("no_covariance", "cross-covariance has no structure (all singular values < 1e-12)")
    signs = column_signs(u[:, :d])
    return SubspaceModel(
        wa=u[:, :d] * signs,
        wb=vt[:d].T * signs,
        method="pls",
        d=d,
        preprocessing=Preprocessing(center_a=mean_a, center_b=mean_b),
        metadata={"score_covariances": sigmas[:d].tolist()},
        fit_seconds=time.perf_counter() - t0,
    )
