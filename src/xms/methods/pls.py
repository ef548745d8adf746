"""Partial least squares: the top-d singular vector pairs of the cross-covariance.

Each component's weight pair maximizes the covariance of the projected scores
under unit-norm weights, orthogonal to the earlier pairs.  Deflating the
cross-covariance by its own leading singular triple each time (PLS-SVD in
Wegelin's survey of two-block PLS, 2000) yields exactly its singular value
decomposition, so one truncated SVD gives all d pairs at once.
"""

from __future__ import annotations

import numpy as np

from ..dataset_io import PairedMultimodalDataset
from ..errors import NumericalError
from ..preprocess import column_signs
from .model import SubspaceModel, _fit_closed_form


def fit_pls(train: PairedMultimodalDataset, d: int | None = None) -> SubspaceModel:
    """Top-d singular pairs of the cross-covariance, one unit weight pair per column.

    The largest-magnitude entry of each ``wa`` column is positive and ``wb``
    is flipped with it; the singular values end up in
    ``metadata["score_covariances"]``.
    """

    def solve(xa, xb, d):
        c = xa.values @ xb.values.T / (train.n - 1)
        if not np.isfinite(c).all():
            raise NumericalError("divergence", "cross-covariance holds a NaN or infinity; are the features too large?")
        u, sigmas, vt = np.linalg.svd(c, full_matrices=False)
        if sigmas[0] < 1e-12:
            raise NumericalError("no_covariance", "cross-covariance has no structure (all singular values < 1e-12)")
        signs = column_signs(u[:, :d])
        return u[:, :d] * signs, vt[:d].T * signs, {}, {"score_covariances": sigmas[:d].tolist()}

    return _fit_closed_form(train, "pls", d, min(train.d_a, train.d_b, train.n - 1), solve)  # rank(C) <= n - 1
