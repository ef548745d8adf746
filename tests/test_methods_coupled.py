import numpy as np

from xms.dataset_io import encode_labels
from xms.errors import ConfigError
import pytest

from xms.methods import SparseCoupledConfig, SplitContext, fit_jfssl, fit_lcfs
from tests.conftest import paired_dataset, random_paired_dataset


@pytest.mark.parametrize(
    "field, value, code",
    [
        ("lambda1", float("nan"), "bad_hyperparam"),
        ("lambda2", float("nan"), "bad_hyperparam"),
        ("lambda2", float("inf"), "bad_hyperparam"),
        ("lambda1", -0.1, "bad_hyperparam"),
        ("tol", float("nan"), "bad_hyperparam"),
        ("tol", float("inf"), "bad_hyperparam"),
        ("max_iters", float("nan"), "bad_hyperparam"),
        ("max_iters", 2.5, "bad_hyperparam"),
        ("max_iters", True, "bad_hyperparam"),
        ("graph_k", float("nan"), "bad_k"),
        ("graph_k", float("inf"), "bad_k"),
        ("graph_k", True, "bad_k"),
    ],
)
def test_config_rejects_non_finite_and_non_integer_values(field, value, code):
    with pytest.raises(ConfigError) as err:
        SparseCoupledConfig(**{field: value})
    assert err.value.code == code


def direct_least_squares(x, y):
    return np.linalg.lstsq(x.T, y, rcond=None)[0]


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-30)


def test_lambda_zero_is_least_squares(rng):
    ds = random_paired_dataset(rng, n=50, d_a=6, d_b=5, c=3)
    y = encode_labels(ds.labels, ds.c)
    cfg = SparseCoupledConfig(lambda1=0.0, lambda2=0.0)
    for fitter in (fit_lcfs, fit_jfssl):
        model = fitter(ds, cfg)
        assert rel_err(model.wa, direct_least_squares(ds.xa.values, y)) <= 1e-6
        assert rel_err(model.wb, direct_least_squares(ds.xb.values, y)) <= 1e-6


def test_lambda_zero_lcfs_equals_jfssl(rng):
    ds = random_paired_dataset(rng, n=40, d_a=5, d_b=4, c=2)
    cfg = SparseCoupledConfig(lambda1=0.0, lambda2=0.0)
    a = fit_lcfs(ds, cfg)
    b = fit_jfssl(ds, cfg)
    assert rel_err(a.wa, b.wa) <= 1e-6
    assert rel_err(a.wb, b.wb) <= 1e-6


def test_large_lambda1_zeroes_noise_rows(rng):
    # two giant-scale class-informative rows plus small noise rows; at
    # lambda1 = 1e6 only rows whose loss gradient can reach lambda1 survive,
    # the rest collapse onto the reweighting floor
    n, d = 120, 20
    labels = np.arange(n) % 2 + 1
    sign = np.where(labels == 1, -1.0, 1.0)

    def build(r):
        x = 0.05 * r.standard_normal((d, n))
        x[:2] = 1e5 * (sign + 0.05 * r.standard_normal((2, n)))
        return x

    ds = paired_dataset(build(rng), build(rng), labels)
    model = fit_lcfs(ds, SparseCoupledConfig(lambda1=1e6, lambda2=0.0, max_iters=200))
    for w in (model.wa, model.wb):
        row_norms = np.linalg.norm(w, axis=1)
        assert np.mean(row_norms < 1e-6 * row_norms.max()) >= 0.9


def test_objective_traces_non_increasing_many_seeds():
    for seed in range(25):
        r = np.random.default_rng(seed)
        ds = random_paired_dataset(r, n=30, d_a=5, d_b=4, c=2)
        cfg = SparseCoupledConfig(lambda1=0.5, lambda2=0.5, max_iters=40)
        for fitter in (fit_lcfs, fit_jfssl):
            trace = fitter(ds, cfg).metadata["objective_trace"]
            assert all(trace[i] >= trace[i + 1] - 1e-10 for i in range(len(trace) - 1))


def test_jfssl_lambda2_zero_matches_lcfs_with_halved_lambda1(rng):
    # JFSSL's residual term carries no 1/2, so its lambda1 weighs half as
    # much relative to the loss: jfssl(l1, 0) minimizes twice the lcfs(l1/2, 0)
    # objective
    ds = random_paired_dataset(rng, n=60, d_a=6, d_b=6, c=3)
    jf = fit_jfssl(ds, SparseCoupledConfig(lambda1=0.2, lambda2=0.0))
    lc = fit_lcfs(ds, SparseCoupledConfig(lambda1=0.1, lambda2=0.0))
    assert rel_err(jf.wa, lc.wa) <= 1e-4
    assert rel_err(jf.wb, lc.wb) <= 1e-4


def test_projection_dimension_is_class_count(rng):
    ds = random_paired_dataset(rng, n=30, d_a=5, d_b=4, c=3)
    model = fit_lcfs(ds)
    assert model.d == 3
    assert model.wa.shape == (5, 3) and model.wb.shape == (4, 3)


def test_deterministic(rng):
    ds = random_paired_dataset(rng, n=30, d_a=5, d_b=4, c=2)
    cfg = SparseCoupledConfig(lambda1=0.1, lambda2=0.1, max_iters=30)
    for fitter in (fit_lcfs, fit_jfssl):
        m1, m2 = fitter(ds, cfg), fitter(ds, cfg)
        assert np.array_equal(m1.wa, m2.wa) and np.array_equal(m1.wb, m2.wb)


def test_iterations_recorded(rng):
    ds = random_paired_dataset(rng, n=30, d_a=5, d_b=4, c=2)
    model = fit_lcfs(ds, SparseCoupledConfig(lambda1=0.3, lambda2=0.3, max_iters=50))
    trace = model.metadata["objective_trace"]
    assert model.hyperparams["iterations"] == len(trace) - 1
    assert model.hyperparams["iterations"] >= 1


@pytest.mark.parametrize("fitter", [fit_lcfs, fit_jfssl])
def test_fit_through_used_context_equals_fresh_fit(rng, fitter):
    # the context has already served both fitters at other lambdas and graph sizes
    ds = random_paired_dataset(rng, n=45, d_a=7, d_b=6, c=3)
    context = SplitContext(ds)
    for l1, l2, k in ((1.0, 0.5, 3), (0.0, 0.0, 5), (0.02, 2.0, 5)):
        fit_lcfs(ds, SparseCoupledConfig(lambda1=l1, lambda2=l2, graph_k=k), context=context)
        fit_jfssl(ds, SparseCoupledConfig(lambda1=l1, lambda2=l2, graph_k=k), context=context)
    for l1, l2, k in ((0.05, 0.1, 3), (0.0, 0.3, 5), (0.1, 0.0, 4), (0.02, 2.0, 5)):
        cfg = SparseCoupledConfig(lambda1=l1, lambda2=l2, graph_k=k)
        shared = fitter(ds, cfg, context=context)
        fresh = fitter(ds, cfg)
        assert np.array_equal(shared.wa, fresh.wa)
        assert np.array_equal(shared.wb, fresh.wb)
        assert shared.metadata["objective_trace"] == fresh.metadata["objective_trace"]
        assert shared.hyperparams["iterations"] == fresh.hyperparams["iterations"]


def test_context_of_another_split_rejected(rng):
    ds = random_paired_dataset(rng, n=30, d_a=5, d_b=4, c=2)
    other = SplitContext(random_paired_dataset(rng, n=30, d_a=5, d_b=4, c=2))
    for fitter in (fit_lcfs, fit_jfssl):
        with pytest.raises(ConfigError):
            fitter(ds, SparseCoupledConfig(), context=other)

