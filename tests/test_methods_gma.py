import numpy as np
import pytest
import scipy.linalg as la

from xms.dataset_io import FeatureMatrix
from xms.errors import ConfigError
from xms.methods import GmaConfig, fit_blm, fit_gma, fit_gmlda, fit_gmmfa, project
from xms.numerics import scatter, solve_gev
from tests.conftest import paired_dataset, random_paired_dataset


def test_gmlda_beta_zero_matches_per_view_lda(rng):
    ds = random_paired_dataset(rng, n=60, d_a=5, d_b=4, c=3)
    model = fit_gmlda(ds, d=2, beta=0.0)

    # per-view LDA oracle: same GEV on each block with the shared ridge
    xa = ds.xa.values - ds.xa.values.mean(axis=1, keepdims=True)
    xb = ds.xb.values - ds.xb.values.mean(axis=1, keepdims=True)
    within_a, between_a, _ = scatter(FeatureMatrix(xa), ds.labels)
    within_b, between_b, _ = scatter(FeatureMatrix(xb), ds.labels)
    ridge = model.hyperparams["ridge"]
    _, lda_a = solve_gev(between_a, within_a, 2, ridge)
    _, lda_b = solve_gev(between_b, within_b, 2, ridge)
    assert la.subspace_angles(model.wa, lda_a).max() < 1e-6
    assert la.subspace_angles(model.wb, lda_b).max() < 1e-6


def test_blm_identical_views_symmetric_subspaces(rng):
    x = rng.standard_normal((4, 50))
    ds = paired_dataset(x, x.copy(), np.ones(50, dtype=int))
    model = fit_blm(ds, d=2, mu=1.0, alpha=1.0)
    assert la.subspace_angles(model.wa, model.wb).max() < 1e-6


def test_gmmfa_separates_toy_classes(rng):
    # two tight, well-separated classes
    labels = np.repeat([1, 2], 10)
    base = np.zeros((3, 20))
    base[0, labels == 2] = 8.0
    xa = base + 0.1 * rng.standard_normal((3, 20))
    xb = base + 0.1 * rng.standard_normal((3, 20))
    ds = paired_dataset(xa, xb, labels)
    model = fit_gmmfa(ds, d=1, mfa_k_intrinsic=2, mfa_k_penalty=5)
    proj = project(model, ds.xa, "a").values.ravel()
    intra = max(
        np.ptp(proj[labels == 1]),
        np.ptp(proj[labels == 2]),
    )
    inter = np.abs(proj[labels == 1][:, None] - proj[labels == 2][None, :]).min()
    assert inter > intra


def test_gma_variant_validation():
    with pytest.raises(ConfigError):
        GmaConfig(variant="nope")
    with pytest.raises(ConfigError):
        GmaConfig(mu=0.0)
    with pytest.raises(ConfigError):
        GmaConfig(beta=-1.0)


@pytest.mark.parametrize(
    "field, value, code",
    [
        ("mu", float("nan"), "bad_hyperparam"),
        ("mu", float("inf"), "bad_hyperparam"),
        ("alpha", float("nan"), "bad_hyperparam"),
        ("beta", float("nan"), "bad_hyperparam"),
        ("beta", float("inf"), "bad_hyperparam"),
        ("mfa_k_intrinsic", float("nan"), "bad_k"),
        ("mfa_k_penalty", 0, "bad_k"),
        ("mfa_k_intrinsic", True, "bad_k"),
        ("mfa_k_penalty", True, "bad_k"),
    ],
)
def test_gma_config_rejects_non_finite_and_non_integer_values(field, value, code):
    with pytest.raises(ConfigError) as err:
        GmaConfig(**{field: value})
    assert err.value.code == code


def test_gma_deterministic_and_finite(rng):
    ds = random_paired_dataset(rng, n=40, d_a=6, d_b=5, c=2)
    for variant in ("blm", "gmlda", "gmmfa"):
        m1 = fit_gma(ds, d=2, config=GmaConfig(variant=variant))
        m2 = fit_gma(ds, d=2, config=GmaConfig(variant=variant))
        assert np.array_equal(m1.wa, m2.wa)
        assert np.isfinite(m1.wa).all() and np.isfinite(m1.wb).all()
        proj = project(m1, ds.xa, "a")
        assert proj.values.shape == (2, ds.n)


def test_gma_eigenvalues_non_increasing(rng):
    ds = random_paired_dataset(rng, n=50, d_a=5, d_b=5, c=3)
    model = fit_gma(ds, d=4, config=GmaConfig(variant="gmlda", beta=2.0))
    eigs = model.metadata["gev_eigenvalues"]
    assert all(eigs[i] >= eigs[i + 1] - 1e-10 for i in range(len(eigs) - 1))
