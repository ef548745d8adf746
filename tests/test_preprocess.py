import numpy as np
import pytest

from xms.dataset_io import FeatureMatrix, random_split, subset
from xms.errors import ConfigError
from xms.preprocess import PcaModel, center_fit, fix_signs, pca_apply, pca_fit
from xms.synthetic import make_synthetic_dataset


def test_center_fit_arithmetic():
    mean, centered = center_fit(FeatureMatrix(np.array([[1.0, 3.0]])))
    assert mean.tolist() == [2.0]
    assert centered.values.tolist() == [[-1.0, 1.0]]


def test_center_fit_constant_matrix():
    mean, centered = center_fit(FeatureMatrix(np.full((3, 4), 7.0)))
    assert np.allclose(mean, 7.0)
    assert np.all(centered.values == 0.0)


def test_center_fit_idempotent(rng):
    x = rng.standard_normal((4, 9))
    _, centered = center_fit(FeatureMatrix(x))
    mean2, centered2 = center_fit(centered)
    assert np.abs(mean2).max() < 1e-12
    np.testing.assert_allclose(centered2.values, centered.values, atol=1e-12)


def test_center_fit_columns_sum_to_zero(rng):
    x = rng.standard_normal((6, 50)) * 100
    _, centered = center_fit(FeatureMatrix(x))
    assert np.abs(centered.values.sum(axis=1)).max() <= 1e-10 * 50


def test_pca_rank_one_line():
    # points exactly on a 1-D line in 3-D
    t = np.linspace(-2, 2, 30)
    direction = np.array([1.0, -2.0, 0.5])
    x = FeatureMatrix(np.outer(direction, t) + np.array([[1.0], [2.0], [3.0]]))
    model = pca_fit(x, energy=0.99)
    assert model.k == 1
    cos = abs(model.basis[:, 0] @ direction) / np.linalg.norm(direction)
    assert cos > 1 - 1e-10


def test_pca_isotropic_eigenvalues_match_covariance_oracle(rng):
    x = rng.standard_normal((2, 4000))
    model = pca_fit(FeatureMatrix(x), k=2)
    # oracle: eigendecomposition of the sample covariance
    xc = x - x.mean(axis=1, keepdims=True)
    cov = xc @ xc.T / (x.shape[1] - 1)
    expected = np.sort(np.linalg.eigvalsh(cov))[::-1]
    np.testing.assert_allclose(model.eigenvalues, expected, rtol=1e-10)
    assert abs(model.eigenvalues[0] - model.eigenvalues[1]) < 0.2  # near-isotropic


def test_pca_k_exceeds_bound():
    x = FeatureMatrix(np.random.default_rng(0).standard_normal((3, 10)))
    with pytest.raises(ConfigError):
        pca_fit(x, k=5)


@pytest.mark.parametrize(
    "n, target",
    [
        pytest.param(10, {"k": 2, "energy": 0.9}, id="k-and-energy"),
        pytest.param(10, {}, id="neither"),
        pytest.param(1, {"k": 1}, id="one-sample"),
        pytest.param(10, {"energy": 0.0}, id="energy-zero"),
        pytest.param(10, {"energy": 1.5}, id="energy-above-one"),
        pytest.param(10, {"k": 0}, id="k-zero"),
        pytest.param(10, {"k": True}, id="k-bool"),
        pytest.param(10, {"k": 2.0}, id="k-float"),
        pytest.param(10, {"k": "2"}, id="k-str"),
        pytest.param(10, {"energy": True}, id="energy-bool"),
        pytest.param(10, {"energy": "0.9"}, id="energy-str"),
    ],
)
def test_pca_refuses_targets_it_cannot_meet(n, target):
    x = FeatureMatrix(np.random.default_rng(0).standard_normal((3, n)))
    with pytest.raises(ConfigError) as err:
        pca_fit(x, **target)
    assert err.value.code == "pca_target"


def test_pca_full_rank_round_trip(rng):
    x = FeatureMatrix(rng.standard_normal((4, 20)))
    model = pca_fit(x, k=4)
    reduced = pca_apply(model, x)
    recon = model.basis @ reduced.values + model.mean[:, None]
    np.testing.assert_allclose(recon, x.values, atol=1e-8)


def test_pca_apply_mean_columns_is_zero(rng):
    x = FeatureMatrix(rng.standard_normal((5, 12)))
    model = pca_fit(x, k=3)
    replicated = FeatureMatrix(np.tile(model.mean[:, None], (1, 4)))
    assert np.abs(pca_apply(model, replicated).values).max() < 1e-12


def test_pca_apply_dim_mismatch(rng):
    model = pca_fit(FeatureMatrix(rng.standard_normal((5, 12))), k=2)
    with pytest.raises(ConfigError):
        pca_apply(model, FeatureMatrix(np.zeros((4, 3))))


def test_pca_variance_ordering_property(rng):
    for seed in range(20):
        r = np.random.default_rng(seed)
        x = FeatureMatrix(r.standard_normal((6, 40)) * r.uniform(0.1, 5.0, size=(6, 1)))
        model = pca_fit(x, k=5)
        out = pca_apply(model, x).values
        variances = out.var(axis=1)
        assert np.all(np.diff(variances) <= 1e-10)


def test_pca_energy_accounting(rng):
    x = FeatureMatrix(rng.standard_normal((8, 60)) * np.linspace(3, 0.2, 8)[:, None])
    rho = 0.9
    model = pca_fit(x, energy=rho)
    xc = x.values - x.values.mean(axis=1, keepdims=True)
    all_eigs = np.sort(np.linalg.eigvalsh(xc @ xc.T / 59))[::-1]
    assert model.eigenvalues.sum() / all_eigs.sum() >= rho
    # smallest such k: dropping the last retained component dips below rho
    if model.k > 1:
        assert model.eigenvalues[:-1].sum() / all_eigs.sum() < rho


def test_pca_matches_svd_oracle(rng):
    x = rng.standard_normal((7, 30))
    model = pca_fit(FeatureMatrix(x), k=6)
    xc = x - x.mean(axis=1, keepdims=True)
    singvals = np.linalg.svd(xc, compute_uv=False)
    np.testing.assert_allclose(model.eigenvalues, singvals[:6] ** 2 / 29, rtol=1e-8)


def test_pca_basis_orthonormal(rng):
    model = pca_fit(FeatureMatrix(rng.standard_normal((9, 25))), k=5)
    gram = model.basis.T @ model.basis
    np.testing.assert_allclose(gram, np.eye(5), atol=1e-8)


def test_pca_sign_convention_deterministic(rng):
    x = rng.standard_normal((6, 30))
    m1 = pca_fit(FeatureMatrix(x), k=4)
    m2 = pca_fit(FeatureMatrix(x.copy()), k=4)
    assert np.array_equal(m1.basis, m2.basis)
    for j in range(4):
        col = m1.basis[:, j]
        assert col[np.argmax(np.abs(col))] > 0


def svd_pca_oracle(x):
    """All covariance eigenpairs of x from a thin SVD of the centered data, basis sign-fixed."""
    u, s, _ = np.linalg.svd(x - x.mean(axis=1, keepdims=True), full_matrices=False)
    return fix_signs(u), s**2 / (x.shape[1] - 1)


def energy_k(eigenvalues, k_max, energy):
    """pca_fit's energy rule on a given spectrum."""
    total = eigenvalues[:k_max].sum()
    if total <= 0:
        return 1
    return int(np.searchsorted(np.cumsum(eigenvalues[:k_max]) / total, energy - 1e-12) + 1)


def _pca_oracle_inputs():
    r = np.random.default_rng(11)
    scales = np.geomspace(10.0, 0.1, 24)[:, None]
    return {
        "d<n": r.standard_normal((24, 70)) * scales,
        "d=n": r.standard_normal((24, 24)) * scales,
        "d>n": r.standard_normal((24, 15)) * scales,
        "rank-deficient": r.standard_normal((24, 5)) @ r.standard_normal((5, 70)) + 3.0,
        "constant": np.full((12, 40), 3.5),
    }


@pytest.mark.parametrize("name", list(_pca_oracle_inputs()))
def test_pca_equals_svd_oracle_on_every_shape(name):
    # the scatter's eigh must give the SVD's PCA on every shape, d > n and degenerate spectra included
    x = _pca_oracle_inputs()[name]
    d, n = x.shape
    k_max = min(d, n - 1)
    basis, eigs = svd_pca_oracle(x)
    model = pca_fit(FeatureMatrix(x), k=k_max)
    assert model.k == k_max and (model.eigenvalues >= 0).all()
    np.testing.assert_allclose(model.eigenvalues, eigs[:k_max], rtol=0, atol=1e-12 * eigs[0])
    # a column is compared when its eigenvalue is clear of its neighbours in the full spectrum
    gaps = np.abs(eigs[:k_max, None] - eigs[None, :])
    gaps[np.arange(k_max), np.arange(k_max)] = np.inf
    clear = np.flatnonzero(gaps.min(axis=1) > 1e-4 * eigs[0]) if eigs[0] > 0 else []
    assert name == "constant" or len(clear) >= 4
    for j in clear:
        np.testing.assert_allclose(model.basis[:, j], basis[:, j], rtol=0, atol=1e-9)
    for k in (1, k_max // 2):  # dim mode keeps the leading k columns of the full fit
        assert np.array_equal(pca_fit(FeatureMatrix(x), k=k).basis, model.basis[:, :k])
    for energy in (0.3, 0.5, 0.9, 0.98, 0.999, 1.0):
        assert pca_fit(FeatureMatrix(x), energy=energy).k == energy_k(eigs, k_max, energy)


@pytest.mark.parametrize("d, n", [(24, 70), (24, 15)])
def test_pca_accuracy_on_a_spectrum_spanning_1e12(d, n):
    # the scatter squares the condition number: a column's error is about eps * lambda_1 / gap,
    # so the smallest-variance columns (about 1e-12 lambda_1 at d < n) agree with the SVD's only loosely
    r = np.random.default_rng(5)
    rotation = np.linalg.qr(r.standard_normal((d, d)))[0]  # so no column is near a coordinate axis
    x = rotation @ (r.standard_normal((d, n)) * np.geomspace(1e3, 1e-3, d)[:, None])
    k_max = min(d, n - 1)
    basis, eigs = svd_pca_oracle(x)
    model = pca_fit(FeatureMatrix(x), k=k_max)
    assert (model.eigenvalues > 0).all()
    np.testing.assert_allclose(model.eigenvalues, eigs[:k_max], rtol=0, atol=1e-14 * eigs[0])
    gaps = np.abs(eigs[:k_max, None] - eigs[None, :])
    gaps[np.arange(k_max), np.arange(k_max)] = np.inf
    errors = np.abs(model.basis - basis[:, :k_max]).max(axis=0)
    assert (errors <= 1e-13 * eigs[0] / gaps.min(axis=1)).all()
    assert errors[0] < 1e-13 and (d > n or errors[-1] > 1e-9)


@pytest.mark.parametrize("data_seed", [7, 1007])
def test_pca_energy_k_matches_svd_on_criterion_7_splits(data_seed):
    data = make_synthetic_dataset(n=400, c=3, d_a=128, d_b=128, seed=data_seed)
    for seed in range(4):
        train = subset(data, random_split(data.n, 304, seed)[0])
        for view in (train.xa, train.xb):
            _, eigs = svd_pca_oracle(view.values)
            assert pca_fit(view, energy=0.98).k == energy_k(eigs, min(view.d, view.n - 1), 0.98)


@pytest.mark.parametrize(
    "mean, basis, eigenvalues",
    [
        pytest.param(np.zeros(4), np.eye(5, 3), np.ones(3), id="mean-too-short"),
        pytest.param(np.zeros(6), np.eye(5, 3), np.ones(3), id="mean-too-long"),
        pytest.param(np.zeros(5), np.eye(5, 3), np.ones(2), id="eigenvalues-too-short"),
        pytest.param(np.zeros(5), np.eye(5, 3), np.ones(4), id="eigenvalues-too-long"),
        pytest.param(np.zeros(5), np.ones(5), np.ones(1), id="basis-not-a-matrix"),
    ],
)
def test_pca_model_refuses_shapes_that_disagree(mean, basis, eigenvalues):
    with pytest.raises(ConfigError) as err:
        PcaModel(mean=mean, basis=basis, eigenvalues=eigenvalues)
    assert err.value.code == "dim_mismatch"
