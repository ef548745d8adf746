"""Cross-cutting invariants that every fitter must satisfy."""

from itertools import combinations

import numpy as np
import pytest

from xms.methods import (
    METHOD_NAMES,
    CdfeConfig,
    GmaConfig,
    GmmfaConfig,
    LcfsConfig,
    SplitContext,
    check_request,
    fit_cca,
    fit_cca3v,
    fit_cdfe,
    fit_jfssl,
    fit_lcfs,
    fit_method,
    method_config,
    normalize_method_name,
    project,
)
from xms.errors import ConfigError
from tests.conftest import paired_dataset, random_paired_dataset

HYPERPARAMS = {
    "gmlda": {"beta": 2.0},
    "gmmfa": {"beta": 2.0},
    "lcfs": {"lambda1": 0.05, "lambda2": 0.05},
    "jfssl": {"lambda1": 0.05, "lambda2": 0.05},
}


def fit(ds, name, **overrides):
    return fit_method(ds, name, hyperparams=HYPERPARAMS.get(name, {}), **overrides)


@pytest.mark.parametrize("name", METHOD_NAMES)
def test_projection_finite_with_declared_dimension(rng, name):
    ds = random_paired_dataset(rng, n=50, d_a=8, d_b=7, c=3)
    model = fit(ds, name)
    for modality, x in (("a", ds.xa), ("b", ds.xb)):
        proj = project(model, x, modality)
        assert proj.values.shape == (model.d, ds.n)
        assert np.isfinite(proj.values).all()
    assert model.fit_seconds > 0


@pytest.mark.parametrize("name", METHOD_NAMES)
def test_fitters_deterministic(name):
    ds = random_paired_dataset(np.random.default_rng(8), n=40, d_a=6, d_b=5, c=2)
    m1 = fit(ds, name)
    m2 = fit(ds, name)
    assert np.array_equal(m1.wa, m2.wa)
    assert np.array_equal(m1.wb, m2.wb)


@pytest.mark.parametrize("name", METHOD_NAMES)
def test_fitters_accept_pca_preprocessing(rng, name):
    ds = random_paired_dataset(rng, n=60, d_a=10, d_b=9, c=3)
    model = fit(ds, name, pca={"mode": "energy", "value": 0.95})
    assert model.pca_a is not None
    proj = project(model, ds.xa, "a")  # raw-space input goes through PCA internally
    assert proj.values.shape[0] == model.d


# default d and largest accepted d on n=8, d_a=10, d_b=9, c=2
CLOSED_FORM_DIMS = {
    "cca": (7, 7),
    "pls": (7, 7),
    "cca3v": (1, 7),
    "blm": (9, 9),
    "gmlda": (1, 9),
    "gmmfa": (1, 9),
    "cdfe": (1, 19),
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORM_DIMS))
def test_closed_form_dimension_contract(name):
    ds = random_paired_dataset(np.random.default_rng(11), n=8, d_a=10, d_b=9, c=2)
    default, bound = CLOSED_FORM_DIMS[name]
    model = fit_method(ds, name)
    assert model.d == default
    assert np.array_equal(model.center_a, ds.xa.values.mean(axis=1))
    assert np.array_equal(model.center_b, ds.xb.values.mean(axis=1))
    assert fit_method(ds, name, dim=bound).d == bound
    for dim in (bound + 1, 0):
        with pytest.raises(ConfigError) as err:
            fit_method(ds, name, dim=dim)
        assert err.value.code == "bad_dim"


def test_gev_fitters_eigenvalues_non_increasing(rng):
    ds = random_paired_dataset(rng, n=50, d_a=6, d_b=6, c=3)
    for name in ("cca", "blm", "gmlda", "gmmfa"):
        model = fit(ds, name, dim=3)
        eigs = model.metadata.get("gev_eigenvalues") or model.metadata.get("canonical_correlations")
        assert all(np.isfinite(eigs))
        assert all(eigs[i] >= eigs[i + 1] - 1e-9 for i in range(len(eigs) - 1))


def test_normalize_method_name_aliases():
    assert normalize_method_name("CCA-3V") == "cca3v"
    assert normalize_method_name("  GMLDA ") == "gmlda"
    with pytest.raises(ConfigError):
        normalize_method_name("resnet")


def test_lcfs_rejects_explicit_dim(rng):
    ds = random_paired_dataset(rng, n=30, d_a=5, d_b=4, c=2)
    with pytest.raises(ConfigError):
        fit_method(ds, "lcfs", dim=5)


def test_unused_hyperparameters_rejected(rng):
    ds = random_paired_dataset(rng, n=30, d_a=5, d_b=4, c=2)
    with pytest.raises(ConfigError):
        fit_method(ds, "cca", hyperparams={"lambda1": 0.1})
    with pytest.raises(ConfigError):
        fit_method(ds, "gmlda", hyperparams={"ridge": 0.1})
    with pytest.raises(ConfigError):
        fit_method(ds, "gmlda", hyperparams={"variant": "blm"})
    with pytest.raises(ConfigError):
        fit_method(ds, "pls", hyperparams={"ridge": 0.1})
    with pytest.raises(ConfigError):
        fit_method(ds, "lcfs", hyperparams={"graph_k": 3})
    # only GMMFA builds the margin-Fisher graphs these size
    for name in ("blm", "gmlda"):
        for key in ("mfa_k_intrinsic", "mfa_k_penalty"):
            with pytest.raises(ConfigError) as err:
                fit_method(ds, name, hyperparams={"beta": 4.0, key: 3})
            assert err.value.code == "bad_hyperparam"


@pytest.mark.parametrize("name", ["cca", "cca3v"])
@pytest.mark.parametrize("ridge", [float("nan"), float("inf"), -1e-3, True])
def test_ridge_must_be_finite_and_non_negative(rng, name, ridge):
    # checked alike through the method table and by the public fitters themselves
    ds = random_paired_dataset(rng, n=30, d_a=5, d_b=4, c=2)
    fitter = {"cca": fit_cca, "cca3v": fit_cca3v}[name]
    for fit_one in (lambda: fit_method(ds, name, hyperparams={"ridge": ridge}), lambda: fitter(ds, ridge=ridge)):
        with pytest.raises(ConfigError) as err:
            fit_one()
        assert err.value.code == "bad_hyperparam"


@pytest.mark.parametrize(
    "fitter, config",
    [
        (fit_jfssl, LcfsConfig()),
        (fit_cdfe, GmaConfig()),
        (fit_lcfs, GmaConfig()),
        (fit_jfssl, CdfeConfig()),
        (fit_cdfe, LcfsConfig()),
    ],
    ids=["jfssl-lcfs", "cdfe-gma", "lcfs-gma", "jfssl-cdfe", "cdfe-lcfs"],
)
def test_public_fitters_reject_another_methods_config(rng, fitter, config):
    # fit_lcfs also takes JFSSL's SparseCoupledConfig, a subclass of LcfsConfig (criterion 3 passes one)
    ds = random_paired_dataset(rng, n=20, d_a=4, d_b=3, c=2)
    with pytest.raises(ConfigError) as err:
        fitter(ds, config=config)
    assert err.value.code == "bad_hyperparam"


@pytest.mark.parametrize("name", ["cdfe", "jfssl"])
def test_graph_methods_fit_duplicated_samples(name):
    # every pair appears 4 times and integer features make the duplicate
    # distances exactly 0, so the median k-NN distance is 0
    rng = np.random.default_rng(4)
    xa, xb = (rng.integers(-3, 4, size=(6, 20)).astype(float) for _ in range(2))
    labels = np.arange(20) % 2 + 1
    ds = paired_dataset(np.repeat(xa, 4, axis=1), np.repeat(xb, 4, axis=1), np.repeat(labels, 4))
    model = fit(ds, name)
    assert np.isfinite(model.wa).all() and np.isfinite(model.wb).all()


def test_fit_method_rejects_context_of_another_split(rng):
    ds = random_paired_dataset(rng, n=30, d_a=5, d_b=4, c=2)
    other = random_paired_dataset(rng, n=30, d_a=5, d_b=4, c=2)
    with pytest.raises(ConfigError):
        fit_method(ds, "cca", context=SplitContext(other))


# one fault per part of a fit request, in the order check_request reports them
REQUEST_FAULTS = {
    "bad_pca": {"pca": {"mode": "x"}},
    "bad_method": {"method": "lcfz"},
    "bad_hyperparam": {"hyperparams": {"lamda1": 0.1}},
    "bad_dim": {"dim": 2},
}


@pytest.mark.parametrize(
    "faults",
    [faults for size in range(1, 5) for faults in combinations(REQUEST_FAULTS, size)],
    ids="+".join,
)
def test_check_request_reports_the_first_fault_in_order(rng, faults):
    # LCFS takes no dim, so a dim on it is the fourth fault; the first fault present wins at both entrances
    request = {"method": "lcfs", "dim": None, "pca": None, "hyperparams": None}
    for fault in faults:
        request.update(REQUEST_FAULTS[fault])
    ds = random_paired_dataset(rng, n=20, d_a=4, d_b=3, c=2)
    for check in (lambda: check_request(**request), lambda: fit_method(ds, **request)):
        with pytest.raises(ConfigError) as err:
            check()
        assert err.value.code == faults[0]


def test_check_request_returns_the_name_and_config():
    request = ("CCA-3V", 2, {"mode": "dim", "value": 3}, {"ridge": 0.5})
    assert check_request(*request) == ("cca3v", method_config("cca3v", {"ridge": 0.5}))
    assert check_request("gmmfa") == ("gmmfa", GmmfaConfig())
