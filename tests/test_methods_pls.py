import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xms.dataset_io import random_split, subset
from xms.errors import ConfigError, NumericalError
from xms.methods import SplitContext, fit_method, fit_pls
from xms.synthetic import make_synthetic_dataset
from tests.conftest import paired_dataset


def cross_covariance(ds):
    xac = ds.xa.values - ds.xa.values.mean(axis=1, keepdims=True)
    xbc = ds.xb.values - ds.xb.values.mean(axis=1, keepdims=True)
    return xac @ xbc.T / (ds.n - 1)


def test_rank_one_cross_covariance_weights(rng):
    # xb built from a single shared scalar score: cross-covariance is rank one
    u = rng.standard_normal(5)
    v = rng.standard_normal(4)
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    t = rng.standard_normal(200)
    xa = np.outer(u, t) + 0.01 * rng.standard_normal((5, 200))
    xb = np.outer(v, t) + 0.01 * rng.standard_normal((4, 200))
    ds = paired_dataset(xa, xb, np.ones(200, dtype=int))
    model = fit_pls(ds, d=1)
    assert abs(model.wa[:, 0] @ u) >= 0.999
    assert abs(model.wb[:, 0] @ v) >= 0.999


def test_svd_oracle_first_pair(rng):
    xa = rng.standard_normal((6, 80))
    xb = rng.standard_normal((5, 80))
    ds = paired_dataset(xa, xb, np.ones(80, dtype=int))
    model = fit_pls(ds, d=3)
    xac = xa - xa.mean(axis=1, keepdims=True)
    xbc = xb - xb.mean(axis=1, keepdims=True)
    u, s, vt = np.linalg.svd(xac @ xbc.T / 79)
    assert abs(model.wa[:, 0] @ u[:, 0]) >= 0.999
    assert abs(model.wb[:, 0] @ vt[0]) >= 0.999
    np.testing.assert_allclose(model.metadata["score_covariances"], s[:3], rtol=1e-8)


def test_identical_views_first_weight_is_pca_direction(rng):
    x = rng.standard_normal((4, 100)) * np.array([[3.0], [1.5], [1.0], [0.5]])
    ds = paired_dataset(x, x.copy(), np.ones(100, dtype=int))
    model = fit_pls(ds, d=1)
    xc = x - x.mean(axis=1, keepdims=True)
    eigvals, eigvecs = np.linalg.eigh(xc @ xc.T / 99)
    pca_dir = eigvecs[:, np.argmax(eigvals)]
    assert abs(model.wa[:, 0] @ pca_dir) >= 0.999
    assert abs(model.wb[:, 0] @ pca_dir) >= 0.999


def test_unit_norm_weights(rng):
    ds = paired_dataset(rng.standard_normal((5, 60)), rng.standard_normal((7, 60)), np.ones(60, dtype=int))
    model = fit_pls(ds, d=4)
    np.testing.assert_allclose(np.linalg.norm(model.wa, axis=0), 1.0, atol=1e-10)
    np.testing.assert_allclose(np.linalg.norm(model.wb, axis=0), 1.0, atol=1e-10)


def test_weights_orthogonal_after_deflation(rng):
    ds = paired_dataset(rng.standard_normal((8, 120)), rng.standard_normal((6, 120)), np.ones(120, dtype=int))
    model = fit_pls(ds, d=5)
    gram_a = model.wa.T @ model.wa
    gram_b = model.wb.T @ model.wb
    np.testing.assert_allclose(gram_a, np.eye(5), atol=1e-8)
    np.testing.assert_allclose(gram_b, np.eye(5), atol=1e-8)


def test_zero_cross_covariance_errors():
    xa = np.vstack([np.ones(10), np.arange(10.0)])
    xb = np.zeros((2, 10))
    xb[0] = 1.0  # constant: centered to zero, so no covariance structure
    ds = paired_dataset(xa, xb, np.ones(10, dtype=int))
    with pytest.raises(NumericalError) as err:
        fit_pls(ds, d=1)
    assert err.value.code == "no_covariance"


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 12),
    st.integers(1, 12),
    st.integers(2, 30),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1),
)
def test_weights_are_the_top_singular_pairs(d_a, d_b, n, d_frac, seed):
    # n - 1 may fall below min(d_a, d_b); d is drawn up to the cap min(d_a, d_b, n - 1)
    rng = np.random.default_rng(seed)
    ds = paired_dataset(rng.standard_normal((d_a, n)), rng.standard_normal((d_b, n)), np.ones(n, dtype=int))
    d = 1 + int(d_frac * (min(d_a, d_b, n - 1) - 1))
    model = fit_pls(ds, d=d)
    c = cross_covariance(ds)
    s = np.linalg.svd(c, compute_uv=False)
    sigma = np.asarray(model.metadata["score_covariances"])
    tol = 1e-10 * s[0]
    np.testing.assert_allclose(model.wa.T @ model.wa, np.eye(d), atol=1e-10)
    np.testing.assert_allclose(model.wb.T @ model.wb, np.eye(d), atol=1e-10)
    assert np.abs(c @ model.wb - model.wa * sigma).max() <= tol
    assert np.abs(c.T @ model.wa - model.wb * sigma).max() <= tol
    np.testing.assert_allclose(sigma, s[:d], rtol=0, atol=tol)
    assert np.all(np.diff(sigma) <= 0)
    for j in range(d):
        assert model.wa[np.argmax(np.abs(model.wa[:, j])), j] > 0


def test_dim_above_the_rank_bound_rejected(rng):
    # rank(C) <= n - 1 = 4 although both views have 12 features
    ds = paired_dataset(rng.standard_normal((12, 5)), rng.standard_normal((12, 5)), np.ones(5, dtype=int))
    assert fit_pls(ds, d=4).d == 4
    with pytest.raises(ConfigError) as err:
        fit_pls(ds, d=5)
    assert err.value.code == "bad_dim"


def test_protocol_split_weights_solve_the_singular_pair_equations():
    # the protocol's data seed 7, split seed 5: PCA-reduced views of 81 and 80 dimensions
    data = make_synthetic_dataset(n=400, c=3, d_a=128, d_b=128, seed=7)
    train = subset(data, random_split(data.n, 304, 5)[0])
    pca = {"mode": "energy", "value": 0.98}
    context = SplitContext(train)
    model = fit_method(train, "pls", pca=pca, context=context)
    c = cross_covariance(context.pca(pca).train)
    sigma = np.asarray(model.metadata["score_covariances"])
    assert np.linalg.norm(c @ model.wb - model.wa * sigma, axis=0).max() <= 1e-12
    assert np.linalg.norm(c.T @ model.wa - model.wb * sigma, axis=0).max() <= 1e-12
