import numpy as np
import pytest

from xms.errors import ConfigError
from xms.methods import CdfeConfig, fit_cdfe, project
from xms.methods.cdfe import pair_weights
from tests.conftest import paired_dataset, random_paired_dataset


def test_degenerate_identical_clusters_objective_near_zero(rng):
    # two tight identical clusters, identical modalities, alpha = beta = 0:
    # same-class cross-modal pairs can be collapsed to essentially nothing
    labels = np.repeat([1, 2], 8)
    base = np.zeros((3, 16))
    base[0, labels == 2] = 5.0
    x = base + 1e-4 * rng.standard_normal((3, 16))
    ds = paired_dataset(x, x.copy(), labels)
    model = fit_cdfe(ds, d=1, config=CdfeConfig(alpha=0.0, beta=0.0))
    optimum = model.metadata["objective_trace"][-1]
    data_scale = np.var(x)
    assert optimum < 1e-6 * data_scale


def test_intraclass_term_matches_brute_force_pair_sum(rng):
    # hand-built 2-pair set; check the assembled quadratic form against a
    # direct double loop over same-class cross-modal pair distances
    xa = np.array([[1.0, -1.0], [0.5, 2.0]])
    xb = np.array([[0.0, 3.0], [1.0, -2.0]])
    labels = np.array([1, 1])
    ds = paired_dataset(xa, xb, labels)
    model = fit_cdfe(ds, d=1, config=CdfeConfig(alpha=0.0, beta=0.0))
    wa, wb = model.wa, model.wb

    xac = xa - xa.mean(axis=1, keepdims=True)
    xbc = xb - xb.mean(axis=1, keepdims=True)
    fa = wa.T @ xac
    fb = wb.T @ xbc
    n1 = 4  # all 2x2 cross pairs share the class
    brute = sum(
        np.sum((fa[:, i] - fb[:, j]) ** 2) for i in range(2) for j in range(2)
    ) / n1
    assert model.metadata["objective_trace"][-1] == pytest.approx(brute, abs=1e-10)


def test_pair_weights_normalizers():
    labels = [1, 1, 2]
    w = pair_weights(labels, alpha=1.0)
    same = np.equal.outer(labels, labels)
    assert np.allclose(w[same], 1 / 5)  # N1 = 5 same-class cross pairs
    assert np.allclose(w[~same], -1 / 4)  # N2 = 4


def test_alpha_increases_class_separation(rng):
    # toy set with a compact classless direction and a separated noisy one:
    # alpha = 0 collapses onto the former, alpha > 0 buys separation
    n = 40
    labels = np.repeat([1, 2], n // 2)
    sign = np.where(labels == 1, -1.0, 1.0)

    def build(r):
        x = np.zeros((2, n))
        x[0] = 0.05 * r.standard_normal(n)
        x[1] = 3.0 * sign + 1.0 * r.standard_normal(n)
        return x

    ds = paired_dataset(build(rng), build(rng), labels)
    ratios = []
    for alpha in (0.0, 0.5, 1.0):
        model = fit_cdfe(ds, d=1, config=CdfeConfig(alpha=alpha, beta=0.0))
        fa = project(model, ds.xa, "a").values
        fb = project(model, ds.xb, "b").values
        same = np.equal.outer(labels, labels)
        dists = ((fa[:, :, None] - fb[:, None, :]) ** 2).sum(axis=0)
        ratios.append(dists[~same].mean() / max(dists[same].mean(), 1e-30))
    # non-decreasing up to a 1% numerical drift once the direction saturates
    assert ratios[1] >= ratios[0] * 0.99
    assert ratios[2] >= ratios[1] * 0.99
    assert ratios[2] > 2 * ratios[0]


def test_objective_trace_non_increasing(rng):
    for seed in range(10):
        ds = random_paired_dataset(np.random.default_rng(seed), n=30, d_a=4, d_b=4, c=2)
        model = fit_cdfe(ds, d=2)
        trace = model.metadata["objective_trace"]
        assert all(trace[i] >= trace[i + 1] - 1e-10 for i in range(len(trace) - 1))


def test_stacked_orthonormality(rng):
    ds = random_paired_dataset(rng, n=40, d_a=5, d_b=4, c=3)
    model = fit_cdfe(ds, d=3)
    stacked = np.vstack([model.wa, model.wb])
    np.testing.assert_allclose(stacked.T @ stacked, np.eye(3), atol=1e-8)


@pytest.mark.parametrize(
    "field, value, code",
    [
        ("alpha", float("nan"), "bad_hyperparam"),
        ("beta", float("nan"), "bad_hyperparam"),
        ("beta", float("inf"), "bad_hyperparam"),
        ("knn_k", float("nan"), "bad_k"),
        ("knn_k", 2.5, "bad_k"),
        ("knn_k", True, "bad_k"),
    ],
)
def test_config_rejects_non_finite_and_non_integer_values(field, value, code):
    with pytest.raises(ConfigError) as err:
        CdfeConfig(**{field: value})
    assert err.value.code == code


def test_inter_class_weight_needs_two_classes(rng):
    ds = paired_dataset(rng.standard_normal((3, 6)), rng.standard_normal((2, 6)), np.ones(6, dtype=int))
    with pytest.raises(ConfigError) as err:
        fit_cdfe(ds, config=CdfeConfig(alpha=0.5))
    assert err.value.code == "bad_hyperparam"
    assert fit_cdfe(ds, config=CdfeConfig(alpha=0.0)).d == 1
