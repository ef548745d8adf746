import numpy as np
import pytest
import scipy.linalg as la

from xms.dataset_io import FeatureMatrix
from xms.errors import ConfigError
from xms.methods import CdfeConfig, GmaConfig, GmmfaConfig, fit_gma, project
from xms.numerics import scatter, solve_gev
from tests.conftest import paired_dataset, random_paired_dataset


def test_gmlda_beta_zero_matches_per_view_lda(rng):
    ds = random_paired_dataset(rng, n=60, d_a=5, d_b=4, c=3)
    model = fit_gma(ds, "gmlda", d=2, config=GmaConfig(beta=0.0))

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
    model = fit_gma(ds, "blm", d=2, config=GmaConfig(mu=1.0, alpha=1.0))
    assert la.subspace_angles(model.wa, model.wb).max() < 1e-6


def test_gmmfa_separates_toy_classes(rng):
    # two tight, well-separated classes
    labels = np.repeat([1, 2], 10)
    base = np.zeros((3, 20))
    base[0, labels == 2] = 8.0
    xa = base + 0.1 * rng.standard_normal((3, 20))
    xb = base + 0.1 * rng.standard_normal((3, 20))
    ds = paired_dataset(xa, xb, labels)
    model = fit_gma(ds, "gmmfa", d=1, config=GmmfaConfig(mfa_k_intrinsic=2, mfa_k_penalty=5))
    proj = project(model, ds.xa, "a").values.ravel()
    intra = max(
        np.ptp(proj[labels == 1]),
        np.ptp(proj[labels == 2]),
    )
    inter = np.abs(proj[labels == 1][:, None] - proj[labels == 2][None, :]).min()
    assert inter > intra


def test_gma_variant_validation(rng):
    ds = random_paired_dataset(rng, n=20, d_a=4, d_b=3, c=2)
    with pytest.raises(ConfigError):
        fit_gma(ds, "nope")
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
        GmmfaConfig(**{field: value})
    assert err.value.code == code


@pytest.mark.parametrize("key", ["mfa_k_intrinsic", "mfa_k_penalty"])
def test_gma_config_has_no_margin_fisher_counts(key):
    # BLM and GMLDA build no margin-Fisher graphs; only GmmfaConfig holds their neighbour counts
    with pytest.raises(TypeError):
        GmaConfig(**{key: 3})
    assert getattr(GmmfaConfig(**{key: 3}), key) == 3


@pytest.mark.parametrize(
    "variant, config",
    [("gmmfa", GmaConfig()), ("gmlda", GmmfaConfig()), ("blm", GmmfaConfig(mfa_k_penalty=3)), ("blm", CdfeConfig())],
)
def test_fit_gma_rejects_another_variants_config(rng, variant, config):
    ds = random_paired_dataset(rng, n=20, d_a=4, d_b=3, c=2)
    with pytest.raises(ConfigError) as err:
        fit_gma(ds, variant, d=1, config=config)
    assert err.value.code == "bad_hyperparam"


def test_gma_echoes_its_config_and_ridge(rng):
    ds = random_paired_dataset(rng, n=30, d_a=4, d_b=3, c=2)
    assert list(fit_gma(ds, "gmlda", d=1).hyperparams) == ["mu", "beta", "alpha", "ridge"]
    config = GmmfaConfig(beta=2.0, mfa_k_intrinsic=2, mfa_k_penalty=4)
    echo = fit_gma(ds, "gmmfa", d=1, config=config).hyperparams
    assert echo == {"mu": 1.0, "beta": 2.0, "alpha": 1.0, "mfa_k_intrinsic": 2, "mfa_k_penalty": 4, "ridge": echo["ridge"]}


def test_gma_deterministic_and_finite(rng):
    ds = random_paired_dataset(rng, n=40, d_a=6, d_b=5, c=2)
    for variant in ("blm", "gmlda", "gmmfa"):
        m1 = fit_gma(ds, variant, d=2)
        m2 = fit_gma(ds, variant, d=2)
        assert np.array_equal(m1.wa, m2.wa)
        assert np.isfinite(m1.wa).all() and np.isfinite(m1.wb).all()
        proj = project(m1, ds.xa, "a")
        assert proj.values.shape == (2, ds.n)


def test_gma_eigenvalues_non_increasing(rng):
    ds = random_paired_dataset(rng, n=50, d_a=5, d_b=5, c=3)
    model = fit_gma(ds, "gmlda", d=4, config=GmaConfig(beta=2.0))
    eigs = model.metadata["gev_eigenvalues"]
    assert all(eigs[i] >= eigs[i + 1] - 1e-10 for i in range(len(eigs) - 1))


# ---------------------------------------------------------------------------
# objective oracles at beta > 0: A and B summed per sample, per class and per graph edge, as the module
# docstring states them, on centered views; no matrix product is shared with the fitter


def _oracle_knn(x, labels, k, same_class):
    """Binary symmetrized k-NN graph: each sample's k nearest among its own class (or among the other
    classes), by direct squared distance, ties to the lower index (a stable argsort)."""
    n = x.shape[1]
    w = np.zeros((n, n))
    for i in range(n):
        others = [j for j in range(n) if j != i and (labels[j] == labels[i]) == same_class]
        dists = [np.sum((x[:, i] - x[:, j]) ** 2) for j in others]
        for pos in np.argsort(dists, kind="stable")[:k]:
            w[i, others[pos]] = 1.0
    return np.maximum(w, w.T)


def _oracle_edge_scatter(x, w):
    """sum over edges of w_ij (x_i - x_j)(x_i - x_j)' / 2, over the total edge weight: X L X' / sum(W)."""
    total = np.zeros((x.shape[0], x.shape[0]))
    for i, j in zip(*np.nonzero(w)):
        total += w[i, j] * np.outer(x[:, i] - x[:, j], x[:, i] - x[:, j])
    return total / 2 / w.sum()


def _oracle_view(variant, x, labels, config):
    """One view's (A_i, B_i, cross columns) by the docstring's sums."""
    n = x.shape[1]
    if variant == "blm":
        covariance = sum(np.outer(x[:, i], x[:, i]) for i in range(n)) / n
        return covariance, np.eye(x.shape[0]), [x[:, i] for i in range(n)]
    if variant == "gmlda":
        mean = x.mean(axis=1)
        means = {cls: x[:, labels == cls].mean(axis=1) for cls in np.unique(labels)}
        between = sum(np.sum(labels == cls) * np.outer(m - mean, m - mean) for cls, m in means.items())
        within = sum(np.outer(x[:, i] - means[labels[i]], x[:, i] - means[labels[i]]) for i in range(n))
        return between, within, [means[labels[i]] for i in range(n)]
    intrinsic = _oracle_knn(x, labels, config.mfa_k_intrinsic, same_class=True)
    penalty = _oracle_knn(x, labels, config.mfa_k_penalty, same_class=False)
    cross = [x[:, i] / np.sqrt(n) for i in range(n)]
    return _oracle_edge_scatter(x, penalty), _oracle_edge_scatter(x, intrinsic), cross


def _oracle_pair(variant, ds, config):
    """The block pair (A, B) of the docstring's problem, with C the cross columns:
    wa' Aa wa + mu wb' Ab wb + beta wa' Ca Cb' wb  s.t.  wa' Ba wa + alpha wb' Bb wb = 1."""
    centered = (x - x.mean(axis=1, keepdims=True) for x in (ds.xa.values, ds.xb.values))
    (a_a, b_a, cross_a), (a_b, b_b, cross_b) = (_oracle_view(variant, x, ds.labels, config) for x in centered)
    cross = sum(np.outer(ca, cb) for ca, cb in zip(cross_a, cross_b))
    a = np.block([[a_a, 0.5 * config.beta * cross], [0.5 * config.beta * cross.T, config.mu * a_b]])
    b = la.block_diag(b_a, config.alpha * b_b)
    return a, b


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "variant, config",
    [
        ("gmlda", GmaConfig(mu=1.5, beta=4.0, alpha=0.7)),
        ("gmmfa", GmmfaConfig(mu=0.8, beta=2.0, alpha=1.3, mfa_k_intrinsic=3, mfa_k_penalty=6)),
        ("blm", GmaConfig(mu=1.2, beta=3.0, alpha=0.8)),
    ],
    ids=["gmlda", "gmmfa", "blm"],
)
def test_gma_at_positive_beta_reaches_the_documented_optimum(variant, config, seed):
    rng = np.random.default_rng(seed)
    ds = random_paired_dataset(rng, n=36, d_a=6, d_b=4, c=3)
    d = 3
    model = fit_gma(ds, variant, d=d, config=config)
    a, b = _oracle_pair(variant, ds, config)
    ridge = model.hyperparams["ridge"]
    assert ridge == pytest.approx(1e-4 * np.trace(b) / b.shape[0], rel=1e-9)
    breg = b + ridge * np.eye(b.shape[0])
    w = np.vstack([model.wa, model.wb])
    assert np.abs(w.T @ breg @ w - np.eye(d)).max() < 1e-10
    best = la.eigh(a, breg, eigvals_only=True)[::-1][:d].sum()
    objective = np.trace(w.T @ a @ w)
    assert objective == pytest.approx(best, rel=1e-9)
    # no feasible W, drawn at random or near the optimum, scores higher
    for scale in [None] * 100 + [1e-3] * 100:
        v = rng.standard_normal(w.shape) if scale is None else w + scale * rng.standard_normal(w.shape)
        r = la.cholesky(v.T @ breg @ v)  # upper: V'(B + ridge I)V = R'R, so V R^-1 is feasible
        feasible = la.solve_triangular(r, v.T, trans="T").T
        assert np.trace(feasible.T @ a @ feasible) <= objective + 1e-9 * abs(objective)
