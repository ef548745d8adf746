import copy
import csv
import ctypes
import dataclasses
import json
import math
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from xms.bench import (
    DIRECTIONS,
    BenchmarkConfig,
    MethodSpec,
    box_stats,
    compute_ttests,
    config_from_dict,
    default_method_specs,
    direction_views,
    lambda_sweep,
    run_benchmark,
    students_t_test,
    summary_stats,
    write_report_csv,
    write_report_json,
)
import xms.bench
import xms.cli
import xms.methods
from xms.dataset_io import FeatureMatrix, PairedMultimodalDataset, random_split, subset
from xms.errors import ConfigError, DataError, NumericalError, XmsError
from xms.retrieval_eval import evaluate_direction
from xms.synthetic import make_synthetic_dataset

SRC = Path(__file__).resolve().parent.parent / "src"


def t_cdf_oracle(t, dof):
    """Two-sided p-value by numerical integration of the t density."""
    def density(x):
        return (
            math.gamma((dof + 1) / 2)
            / (math.sqrt(dof * math.pi) * math.gamma(dof / 2))
            * (1 + x * x / dof) ** (-(dof + 1) / 2)
        )

    tail, _ = integrate.quad(density, abs(t), np.inf)
    return 2 * tail


def small_dataset(seed=3, n=60):
    return make_synthetic_dataset(n=n, c=3, d_a=10, d_b=9, seed=seed, class_dim=3, instance_dim=4)


def small_config(methods, reps=2, n_train=40, **kwargs):
    return BenchmarkConfig(
        dataset={"synthetic": {"n": 60, "c": 3, "d_a": 10, "d_b": 9, "seed": 3, "class_dim": 3, "instance_dim": 4}},
        n_train=n_train,
        methods=methods,
        repetitions=reps,
        **kwargs,
    )


# ---------------------------------------------------------------------------
# statistics


def test_students_t_identical_samples():
    r = students_t_test([0.5, 0.6, 0.7], [0.5, 0.6, 0.7])
    assert r["t_statistic"] == 0.0 and r["p_value"] == 1.0
    assert not r["significant_at_005"]


def test_students_t_degenerate_zero_variance():
    r = students_t_test([0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0])
    assert r["p_value"] == 0.0 and r["significant_at_005"]


def test_students_t_matches_integration_oracle():
    rng = np.random.default_rng(11)
    for case in range(100):
        n_a = int(rng.integers(3, 51))
        n_b = int(rng.integers(3, 51))
        a = rng.normal(0.0, 1.0, size=n_a)
        b = rng.normal(0.5, 1.0, size=n_b)
        result = students_t_test(a, b)
        expected = t_cdf_oracle(result["t_statistic"], n_a + n_b - 2)
        assert result["p_value"] == pytest.approx(expected, abs=1e-6)


def test_students_t_symmetry():
    rng = np.random.default_rng(5)
    a = rng.normal(size=20)
    b = rng.normal(0.3, 1.1, size=25)
    assert students_t_test(a, b)["p_value"] == students_t_test(b, a)["p_value"]


def test_students_t_pooled_formula(rng):
    # hand-computed pooled t on a tiny case
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([2.0, 4.0])
    var_a, var_b = a.var(ddof=1), b.var(ddof=1)
    pooled = (2 * var_a + 1 * var_b) / 3
    expected_t = (a.mean() - b.mean()) / math.sqrt(pooled * (1 / 3 + 1 / 2))
    assert students_t_test(a, b)["t_statistic"] == pytest.approx(expected_t)


def test_welch_matches_integration_oracle():
    rng = np.random.default_rng(12)
    for case in range(60):
        n_a = int(rng.integers(3, 51))
        n_b = int(rng.integers(3, 51))
        a = rng.normal(0.0, rng.uniform(0.1, 3.0), size=n_a)
        b = rng.normal(0.5, rng.uniform(0.1, 3.0), size=n_b)
        result = students_t_test(a, b, welch=True)
        se2_a, se2_b = a.var(ddof=1) / n_a, b.var(ddof=1) / n_b
        # Welch-Satterthwaite degrees of freedom
        dof = (se2_a + se2_b) ** 2 / (se2_a**2 / (n_a - 1) + se2_b**2 / (n_b - 1))
        t = (a.mean() - b.mean()) / math.sqrt(se2_a + se2_b)
        assert result["t_statistic"] == pytest.approx(t, rel=1e-12)
        assert result["p_value"] == pytest.approx(t_cdf_oracle(t, dof), abs=1e-6)


def test_welch_variant_differs_under_unequal_variance():
    rng = np.random.default_rng(9)
    a = rng.normal(0, 0.1, size=10)
    b = rng.normal(0.5, 3.0, size=40)
    student = students_t_test(a, b)
    welch = students_t_test(a, b, welch=True)
    assert student["p_value"] != welch["p_value"]


def test_box_stats_linear_interpolation_oracle():
    stats = box_stats([1, 2, 3, 4, 5])
    assert (stats["median"], stats["q25"], stats["q75"]) == (3.0, 2.0, 4.0)
    assert len(stats["outliers"]) == 0


def test_box_stats_constant_vector():
    stats = box_stats([2.5] * 6)
    assert stats["median"] == stats["q25"] == stats["q75"] == 2.5
    assert stats["whisker_low"] == stats["whisker_high"] == 2.5
    assert len(stats["outliers"]) == 0


def test_box_stats_outlier_rule():
    stats = box_stats([1.0, 2.0, 3.0, 100.0])
    q25, q75 = np.percentile([1.0, 2.0, 3.0, 100.0], [25, 75])
    assert stats["q25"] == q25 and stats["q75"] == q75
    assert 100.0 > q75 + 1.5 * (q75 - q25)
    assert stats["outliers"] == [100.0]
    assert stats["whisker_high"] == 3.0


def test_summary_stats_consistency(rng):
    values = rng.uniform(size=50)
    s = summary_stats(values)
    assert s["min"] <= s["mean"] <= s["max"]
    assert s["var"] == pytest.approx(s["std"] ** 2, abs=1e-12)
    assert s["var"] == pytest.approx(values.var(ddof=1))


def check_sample_errors(stat, too_short, non_finite):
    for sample in too_short:
        with pytest.raises(ConfigError) as err:
            stat(sample)
        assert err.value.code == "bad_config"
    for sample in non_finite:
        with pytest.raises(DataError) as err:
            stat(sample)
        assert err.value.code == "non_finite"


def test_summary_stats_refuses_empty_and_non_finite_samples():
    check_sample_errors(summary_stats, [[]], [[1.0, math.nan], [math.inf], [-math.inf, 2.0]])


def test_box_stats_refuses_empty_and_non_finite_samples():
    check_sample_errors(box_stats, [[]], [[1.0, math.nan], [math.inf], [-math.inf, 2.0]])


def test_students_t_refuses_short_and_non_finite_samples():
    check_sample_errors(
        lambda a: students_t_test(a, [2.0, 3.0]), [[], [1.0]], [[1.0, math.nan], [math.inf, 1.0]]
    )
    check_sample_errors(lambda b: students_t_test([2.0, 3.0], b, welch=True), [[1.0]], [[1.0, -math.inf]])


# ---------------------------------------------------------------------------
# protocol runner


def test_single_repetition_single_method():
    specs = (MethodSpec("cca", "cca", dim=2),)
    report = run_benchmark(small_config(specs, reps=1, n_train=40))
    entry = report["methods"]["cca"]
    for direction in ("a2b", "b2a"):
        block = entry["directions"][direction]
        assert len(block["map_runs"]) == 1
        s = block["summary"]
        assert s["min"] == s["max"] == s["mean"] == block["map_runs"][0]
        assert len(block["cmc_mean"]) == 20  # gallery size = n - n_train
    assert entry["fit_seconds_mean"] > 0


def test_benchmark_deterministic_modulo_environment():
    specs = (MethodSpec("cca", "cca", dim=2), MethodSpec("lcfs", "lcfs"))
    r1 = run_benchmark(small_config(specs, reps=2))
    r2 = run_benchmark(small_config(specs, reps=2))
    for rep in (r1, r2):
        rep.pop("environment")
        for entry in rep["methods"].values():
            entry.pop("fit_seconds_mean")
            entry.pop("fit_seconds_var")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_l2_normalize_is_scale_safe():
    # at 1e-170 the plain sum of squares underflows to zero
    data = small_dataset()
    scaled = PairedMultimodalDataset(
        FeatureMatrix(1e-170 * data.xa.values), FeatureMatrix(1e-170 * data.xb.values), data.labels, data.c
    )
    specs = (MethodSpec("cca", "cca", dim=2), MethodSpec("pls", "pls", dim=2))
    config = small_config(specs, reps=2, l2_normalize=True)
    runs = [
        {label: {d: e["directions"][d]["map_runs"] for d in e["directions"]} for label, e in report["methods"].items()}
        for report in (run_benchmark(config, data), run_benchmark(config, scaled))
    ]
    assert all(len(r) == 2 for entry in runs[0].values() for r in entry.values())
    assert runs[1] == runs[0]


def test_l2_normalize_keeps_a_column_whose_norm_overflows():
    # five entries of 1e308 have a norm, about 2.2e308, beyond the largest double
    data = small_dataset()
    xa = data.xa.values.copy()
    xa[:5, 0], xa[5:, 0] = 1e308, 0.0
    data = PairedMultimodalDataset(FeatureMatrix(xa), data.xb, data.labels, data.c)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        unit = xms.bench._l2_normalize(data)
    np.testing.assert_allclose(unit.xa.values[:, 0], np.r_[np.full(5, 5**-0.5), np.zeros(5)], rtol=1e-15)
    assert np.array_equal(unit.xa.values[:, 1:], xa[:, 1:] / np.linalg.norm(xa[:, 1:], axis=0))


def test_benchmark_records_failures_and_flags_incomplete():
    # a dim beyond the rank bound, or below 1, makes the fitter reject every repetition
    bad_specs = (
        MethodSpec("cca", "cca-bad", dim=500),
        MethodSpec("cca3v", "cca3v-zero", dim=0),
        MethodSpec("cca3v", "cca3v-negative", dim=-2),
    )
    report = run_benchmark(small_config((*bad_specs, MethodSpec("pls", "pls", dim=2)), reps=2))
    for spec in bad_specs:
        bad = report["methods"][spec.label]
        assert not bad["complete"]
        assert len(bad["failures"]) == 2
        assert bad["failures"][0]["code"] == "bad_dim"
        assert bad["directions"]["a2b"]["summary"] is None
    good = report["methods"]["pls"]
    assert good["complete"] and len(good["directions"]["a2b"]["map_runs"]) == 2


def test_benchmark_records_a_typed_failure_where_a_product_overflows():
    # modality a scaled by 1e200: CCA's covariances overflow, and the fit raises NumericalError("divergence")
    # before LAPACK could raise an untyped ValueError, which would escape the run
    data = small_dataset()
    big = dataclasses.replace(data, xa=FeatureMatrix(1e200 * data.xa.values))
    report = run_benchmark(small_config((MethodSpec("cca", "cca"),), reps=1), big)
    entry = report["methods"]["cca"]
    assert not entry["complete"]
    assert [(f["repetition"], f["code"]) for f in entry["failures"]] == [(0, "divergence")]


def test_direction_views_query_modality_a_in_a2b():
    data = small_dataset()
    model = xms.methods.fit_method(data, "cca", dim=2)
    proj_a, proj_b = (xms.methods.project(model, x, m).values for x, m in ((data.xa, "a"), (data.xb, "b")))
    views = direction_views(model, data)
    assert tuple(views) == DIRECTIONS
    for direction, (queries, gallery) in (("a2b", (proj_a, proj_b)), ("b2a", (proj_b, proj_a))):
        assert np.array_equal(views[direction][0].values, queries)
        assert np.array_equal(views[direction][1].values, gallery)


def _lineup_models(train, specs=default_method_specs()):
    """Each spec's model, fitted on ``train``."""
    context = xms.methods.SplitContext(train)
    return {
        spec.label: xms.methods.fit_method(train, spec.name, pca=spec.pca, hyperparams=spec.hyperparams, context=context)
        for spec in specs
    }


def _model_maps(model, test):
    """A model's MAP per direction on ``test``."""
    views = direction_views(model, test)
    return {d: evaluate_direction(*views[d], test.labels)["map"] for d in DIRECTIONS}


def _lineup_maps(train, test, specs=default_method_specs()):
    """Each spec's MAP per direction, fitted on ``train`` and evaluated on ``test``."""
    return {label: _model_maps(model, test) for label, model in _lineup_models(train, specs).items()}


@pytest.mark.parametrize("d_a, d_b", [(128, 128), (128, 96)])
def test_lineup_maps_under_sample_permutation_and_modality_swap(d_a, d_b):
    # metamorphic relations of the nine default specs on criterion-7-sized data, exact to the last bit:
    # permuting the training samples changes no MAP, and swapping modalities a and b in training and test
    # data turns a2b into b2a. Every spec is symmetric in a and b (GMA's mu = alpha = 1, CDFE's symmetric
    # pair weights); JFSSL's Gauss-Seidel step solves block a first, and still gives the same MAPs.
    # d_a == d_b adds JFSSL's cross-modal k-NN pairs.
    data = make_synthetic_dataset(n=400, c=3, d_a=d_a, d_b=d_b, seed=7)
    train_idx, test_idx = random_split(data.n, 304, 0)
    train, test = subset(data, train_idx), subset(data, test_idx)
    base = _lineup_maps(train, test)
    assert len({round(maps["a2b"], 6) for maps in base.values()}) > 3  # the relations are not held by MAP = 1

    permuted = subset(train, np.random.default_rng(5).permutation(train.n))
    assert _lineup_maps(permuted, test) == base

    def swap(ds):
        return dataclasses.replace(ds, xa=ds.xb, xb=ds.xa)

    swapped = _lineup_maps(swap(train), swap(test))
    assert {label: {"a2b": maps["b2a"], "b2a": maps["a2b"]} for label, maps in swapped.items()} == base


@pytest.mark.parametrize("d_a, d_b", [(128, 128), (128, 96)])
def test_lineup_maps_under_permuted_training_labels(d_a, d_b):
    # the unsupervised specs never read the training labels, so permuting them leaves their weights and MAPs
    # unchanged to the last bit; each of the other six default specs reads them, and on criterion-7-sized data
    # its weights change and its MAP falls in both directions, the class structure it learned being gone
    data = make_synthetic_dataset(n=400, c=3, d_a=d_a, d_b=d_b, seed=7)
    train_idx, test_idx = random_split(data.n, 304, 0)
    train, test = subset(data, train_idx), subset(data, test_idx)
    shuffled = dataclasses.replace(train, labels=train.labels[np.random.default_rng(5).permutation(train.n)])
    assert not np.array_equal(shuffled.labels, train.labels)
    base, permuted = _lineup_models(train), _lineup_models(shuffled)
    unsupervised = ["pca+cca", "pca+pls", "pca+blm"]
    for label in base:
        same = np.array_equal(base[label].wa, permuted[label].wa) and np.array_equal(base[label].wb, permuted[label].wb)
        assert same == (label in unsupervised), label
        before, after = _model_maps(base[label], test), _model_maps(permuted[label], test)
        if label in unsupervised:
            assert after == before
        else:
            assert all(after[d] < before[d] for d in DIRECTIONS), label


@pytest.mark.parametrize("d_a, d_b", [(128, 128), (128, 96)])
def test_lineup_maps_under_rotation_of_modality_a(d_a, d_b):
    # a random orthogonal rotation Q of modality a, in training and test data alike, leaves every projection
    # x' w of the PCA-fronted specs and of the unregularized least-squares start unchanged in exact arithmetic,
    # and their MAPs to the last bit on criterion-7-sized data: the seven PCA-fronted default specs and LCFS
    # at lambda1 = 0. The l21 norm of w is not rotation invariant, so default LCFS and JFSSL move; JFSSL at
    # lambda1 = 0 is invariant only when d_a != d_b, since with d_a == d_b its cross-modal k-NN links compare
    # raw a and b features
    data = make_synthetic_dataset(n=400, c=3, d_a=d_a, d_b=d_b, seed=7)
    train_idx, test_idx = random_split(data.n, 304, 0)
    train, test = subset(data, train_idx), subset(data, test_idx)
    specs = default_method_specs() + tuple(
        MethodSpec(name, f"{name}[lambda1=0]", hyperparams={"lambda1": 0.0}) for name in ("lcfs", "jfssl")
    )
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((d_a, d_a)))

    def rotate(ds):
        return dataclasses.replace(ds, xa=FeatureMatrix(q @ ds.xa.values))

    base = _lineup_maps(train, test, specs)
    rotated = _lineup_maps(rotate(train), rotate(test), specs)
    invariant = [spec.label for spec in specs if spec.pca] + ["lcfs[lambda1=0]"] + ["jfssl[lambda1=0]"] * (d_a != d_b)
    assert sorted(label for label in base if rotated[label] == base[label]) == sorted(invariant)
    assert len({round(maps["a2b"], 6) for maps in base.values()}) > 3  # the relations are not held by MAP = 1


@pytest.mark.parametrize("workers", [1, 2])
def test_benchmark_partial_failures(monkeypatch, workers):
    """PLS fails on repetition 1 of 3 only: its entry is built from repetitions 0 and 2."""
    force_workers(monkeypatch, workers)
    specs = (MethodSpec("cca", "cca", dim=2), MethodSpec("pls", "pls", dim=2))
    config = small_config(specs, reps=3)
    unfailed = run_benchmark(config)["methods"]["pls"]
    singles = [run_benchmark(dataclasses.replace(config, repetitions=1, base_seed=r))["methods"]["pls"] for r in (0, 2)]
    data = small_dataset()
    rep1_train = subset(data, random_split(data.n, config.n_train, config.base_seed + 1)[0])
    real_fit = xms.bench.fit_method

    def flaky_fit(train, name, **kwargs):
        if name == "pls" and np.array_equal(train.xa.values, rep1_train.xa.values):
            raise NumericalError("divergence", "injected on repetition 1")
        return real_fit(train, name, **kwargs)

    monkeypatch.setattr(xms.bench, "fit_method", flaky_fit)
    report = run_benchmark(config)
    entry = report["methods"]["pls"]
    assert report["methods"]["cca"]["complete"]
    assert not entry["complete"]
    assert [(f["repetition"], f["code"]) for f in entry["failures"]] == [(1, "divergence")]
    for d in ("a2b", "b2a"):
        block = entry["directions"][d]
        runs = unfailed["directions"][d]["map_runs"]
        assert block["map_runs"] == [runs[0], runs[2]]
        assert block["summary"] == summary_stats(block["map_runs"])
        assert report["box_stats"]["pls"][d] == box_stats(block["map_runs"])
        curves = [single["directions"][d]["cmc_mean"] for single in singles]
        assert block["cmc_mean"] == np.mean(curves, axis=0).tolist()
    # the t-test rows are the plain test results of each direction's runs and of their average
    runs = {label: report["methods"][label]["directions"] for label in ("cca", "pls")}
    samples = {d: [runs[label][d]["map_runs"] for label in ("cca", "pls")] for d in ("a2b", "b2a")}
    samples["average"] = [
        np.mean([runs[label][d]["map_runs"] for d in ("a2b", "b2a")], axis=0) for label in ("cca", "pls")
    ]
    expected = [
        {"method_pair": ["cca", "pls"], "direction": d, **students_t_test(*samples[d])}
        for d in ("a2b", "b2a", "average")
    ]
    rows = compute_ttests(report, "cca")
    assert rows == expected
    assert [list(row) for row in rows] == [list(row) for row in expected]


def test_benchmark_summary_recompute(rng):
    specs = (MethodSpec("pls", "pls", dim=2),)
    report = run_benchmark(small_config(specs, reps=3))
    block = report["methods"]["pls"]["directions"]["b2a"]
    assert block["summary"] == summary_stats(block["map_runs"])


def test_metric_mode_acc_at_k():
    specs = (MethodSpec("cca", "cca", dim=3),)
    report = run_benchmark(small_config(specs, reps=2, metric_mode="acc_at_k", acc_k=5))
    block = report["methods"]["cca"]["directions"]["a2b"]
    assert block["metric"] == "acc@5"
    assert all(0.0 <= v <= 1.0 for v in block["map_runs"])
    # the per-repetition metric is acc@5, so its mean matches cmc_mean[4]
    assert np.mean(block["map_runs"]) == pytest.approx(block["cmc_mean"][4], abs=1e-12)


def test_ttests_from_report():
    specs = (MethodSpec("cca", "cca", dim=2), MethodSpec("lcfs", "lcfs"))
    report = run_benchmark(small_config(specs, reps=4))
    results = compute_ttests(report, "lcfs")
    directions = {(tuple(r["method_pair"]), r["direction"]) for r in results}
    assert (("lcfs", "cca"), "a2b") in directions
    assert (("lcfs", "cca"), "average") in directions
    for r in results:
        assert 0.0 <= r["p_value"] <= 1.0
        assert r["significant_at_005"] == (r["p_value"] < 0.05)


def test_ttests_unknown_baseline():
    specs = (MethodSpec("cca", "cca", dim=2),)
    report = run_benchmark(small_config(specs, reps=2))
    with pytest.raises(ConfigError):
        compute_ttests(report, "nope")


def test_lambda_sweep_degenerate_grid_equals_benchmark():
    spec = MethodSpec("lcfs", "lcfs", hyperparams={"lambda1": 0.0, "lambda2": 0.0})
    config = small_config((spec,), reps=2)
    surface = lambda_sweep(config, "lcfs", [0.0], [0.0])
    report = run_benchmark(config)
    expected = report["methods"]["lcfs"]["directions"]["a2b"]["summary"]["mean"]
    assert surface["directions"]["a2b"][0][0] == expected


def test_lambda_sweep_zero_cell_lcfs_equals_jfssl():
    config = small_config((MethodSpec("lcfs", "lcfs"),), reps=2)
    s_lcfs = lambda_sweep(config, "lcfs", [0.0], [0.0])
    s_jfssl = lambda_sweep(config, "jfssl", [0.0], [0.0])
    for d in ("a2b", "b2a"):
        assert s_lcfs["directions"][d][0][0] == pytest.approx(s_jfssl["directions"][d][0][0], abs=1e-6)


def without_timing(report):
    report = copy.deepcopy(report)
    report.pop("environment")
    for entry in report["methods"].values():
        entry.pop("fit_seconds_mean")
        entry.pop("fit_seconds_var")
    return report


def cell_by_cell_sweep(config, method, grid1, grid2):
    """The sweep as one run_benchmark per grid cell: the oracle of the split-major sweep."""
    template = next((s for s in config.methods if s.name == method), MethodSpec(method, method))
    surfaces = {d: [[None] * len(grid2) for _ in grid1] for d in ("a2b", "b2a")}
    failed_cells = []
    for i, l1 in enumerate(grid1):
        for j, l2 in enumerate(grid2):
            hp = {**template.resolved_hyperparams(config.metric_mode), "lambda1": l1, "lambda2": l2}
            spec = MethodSpec(method, template.label, pca=template.pca, hyperparams=hp)
            entry = run_benchmark(dataclasses.replace(config, methods=(spec,)))["methods"][spec.label]
            if not any(entry["directions"][d]["map_runs"] for d in ("a2b", "b2a")):
                failed_cells.append({"lambda1": l1, "lambda2": l2, "failures": entry["failures"]})
                continue
            for d in ("a2b", "b2a"):
                surfaces[d][i][j] = entry["directions"][d]["summary"]["mean"]
    return {"directions": surfaces, "failed_cells": failed_cells}


SWEEP_GRID1 = [0.0, 0.1]
SWEEP_GRID2 = [0.0, 0.01, 1.0]


@pytest.mark.parametrize(
    "method, template, options",
    [
        ("jfssl", MethodSpec("jfssl", "jfssl", hyperparams={"graph_k": 3}), {}),
        ("lcfs", MethodSpec("lcfs", "lcfs"), {}),
        ("jfssl", MethodSpec("jfssl", "jfssl"), {"stratified": True}),
        ("lcfs", MethodSpec("lcfs", "pca+lcfs", pca={"mode": "energy", "value": 0.9}), {}),
        ("jfssl", MethodSpec("jfssl", "pca+jfssl", pca={"mode": "dim", "value": 4}), {"stratified": True}),
    ],
)
def test_lambda_sweep_equals_cell_by_cell(method, template, options):
    config = small_config((MethodSpec("cca", "cca", dim=2), template), reps=3, **options)
    surface = lambda_sweep(config, method, SWEEP_GRID1, SWEEP_GRID2)
    oracle = cell_by_cell_sweep(config, method, SWEEP_GRID1, SWEEP_GRID2)
    assert surface["directions"] == oracle["directions"]
    assert surface["failed_cells"] == oracle["failed_cells"] == []


def inject_sweep_failures(monkeypatch, config):
    """JFSSL fails in two grid cells on every split, and in a third on repetition 1 only."""
    data = small_dataset()
    rep1_train = subset(data, random_split(data.n, config.n_train, config.base_seed + 1)[0])
    real_fit = xms.bench.fit_method

    def flaky_fit(train, name, **kwargs):
        cell = (kwargs["hyperparams"]["lambda1"], kwargs["hyperparams"]["lambda2"])
        on_rep1 = np.array_equal(train.xa.values, rep1_train.xa.values)
        if cell in ((0.0, 0.01), (0.1, 0.01)) or (cell == (0.0, 1.0) and on_rep1):
            raise NumericalError("divergence", f"injected at {cell}")
        return real_fit(train, name, **kwargs)

    monkeypatch.setattr(xms.bench, "fit_method", flaky_fit)


def test_lambda_sweep_failures_equal_cell_by_cell(monkeypatch):
    config = small_config((MethodSpec("jfssl", "jfssl"),), reps=3)
    inject_sweep_failures(monkeypatch, config)
    surface = lambda_sweep(config, "jfssl", SWEEP_GRID1, SWEEP_GRID2)
    oracle = cell_by_cell_sweep(config, "jfssl", SWEEP_GRID1, SWEEP_GRID2)
    assert surface["directions"] == oracle["directions"]
    assert surface["failed_cells"] == oracle["failed_cells"]
    assert [(c["lambda1"], c["lambda2"]) for c in surface["failed_cells"]] == [(0.0, 0.01), (0.1, 0.01)]
    assert [f["repetition"] for f in surface["failed_cells"][0]["failures"]] == [0, 1, 2]
    assert surface["directions"]["a2b"][0][2] is not None  # failed on repetition 1 only


def test_lambda_sweep_uses_hyperparams_by_metric():
    by_metric = {"acc_at_k": {"graph_k": 2, "max_iters": 2}}
    template = MethodSpec("jfssl", "jfssl", hyperparams={"graph_k": 6}, hyperparams_by_metric=by_metric)
    config = small_config((template,), reps=2, metric_mode="acc_at_k", acc_k=3)
    surface = lambda_sweep(config, "jfssl", [0.5], [2.0])
    lambdas = {"lambda1": 0.5, "lambda2": 2.0}

    def bench_mean(spec):
        report = run_benchmark(dataclasses.replace(config, methods=(spec,)))
        return [report["methods"]["jfssl"]["directions"][d]["summary"]["mean"] for d in ("a2b", "b2a")]

    expected = bench_mean(dataclasses.replace(template, hyperparams={"graph_k": 6, **lambdas}))
    assert [surface["directions"][d][0][0] for d in ("a2b", "b2a")] == expected
    # the by-metric block matters here: without it the cell reads differently
    assert bench_mean(MethodSpec("jfssl", "jfssl", hyperparams={"graph_k": 6, **lambdas})) != expected


def test_shared_pca_equals_fitting_each_method_alone():
    specs = default_method_specs() + (
        MethodSpec("cca", "pca90+cca", pca={"mode": "energy", "value": 0.9}),
        MethodSpec("lcfs", "pca+lcfs", pca={"mode": "energy", "value": 0.98}),
    )
    config = small_config(specs, reps=2)
    shared = without_timing(run_benchmark(config))
    for spec in specs:
        alone = without_timing(run_benchmark(dataclasses.replace(config, methods=(spec,))))
        assert shared["methods"][spec.label] == alone["methods"][spec.label]
        assert shared["box_stats"][spec.label] == alone["box_stats"][spec.label]


def test_include_pca_in_timing_charges_every_pca_method(monkeypatch):
    real_pca_fit = xms.methods.pca_fit

    def slow_pca_fit(*args, **kwargs):
        time.sleep(0.1)
        return real_pca_fit(*args, **kwargs)

    monkeypatch.setattr(xms.methods, "pca_fit", slow_pca_fit)
    pca = {"mode": "energy", "value": 0.9}
    specs = (
        MethodSpec("cca", "pca+cca", pca=pca, dim=2),
        MethodSpec("pls", "pca+pls", pca=pca, dim=2),
        MethodSpec("lcfs", "lcfs"),
    )
    for include in (True, False):
        report = run_benchmark(small_config(specs, reps=2, include_pca_in_timing=include))
        seconds = {label: entry["fit_seconds_mean"] for label, entry in report["methods"].items()}
        # two PCA fits per split, 0.1 s each
        assert (seconds["pca+cca"] >= 0.2) == include
        assert (seconds["pca+pls"] >= 0.2) == include
        assert seconds["lcfs"] < 0.2


def test_report_schema_keys():
    report = run_benchmark(small_config((MethodSpec("cca", "cca", dim=2),), reps=2))
    assert set(report) == {"config", "methods", "ttests", "box_stats", "environment"}
    entry = report["methods"]["cca"]
    assert {"directions", "fit_seconds_mean", "fit_seconds_var", "failures", "complete", "method"} <= set(entry)
    block = entry["directions"]["a2b"]
    assert {"map_runs", "summary", "cmc_mean", "metric"} <= set(block)
    assert {"min", "max", "mean", "var", "std"} == set(block["summary"])
    box = report["box_stats"]["cca"]["a2b"]
    assert {"median", "q25", "q75", "whisker_low", "whisker_high", "outliers"} == set(box)
    assert {"python", "numpy", "scipy", "platform", "timestamp", "xms_version", "workers", "openblas"} == set(report["environment"])


def test_report_json_writes_numpy_scalars(tmp_path):
    # the config checks accept numpy integers, so the report writer must write them
    report = run_benchmark(small_config((MethodSpec("cca", "cca", dim=np.int64(2)),), reps=np.int64(2)))
    write_report_json(report, tmp_path / "report.json")
    back = json.loads((tmp_path / "report.json").read_text())
    assert back["config"]["repetitions"] == 2 and type(back["config"]["repetitions"]) is int
    assert back["config"]["methods"][0]["dim"] == 2 and type(back["config"]["methods"][0]["dim"]) is int
    assert back["methods"] == report["methods"]
    # plain Python values keep the bytes json writes without the hook
    plain = run_benchmark(small_config((MethodSpec("cca", "cca", dim=2),), reps=2))
    write_report_json(plain, tmp_path / "plain.json")
    assert (tmp_path / "plain.json").read_text() == json.dumps(plain, indent=2) + "\n"


def test_report_csv_quotes_labels(tmp_path):
    labels = ("cca, ridge", 'pls "2d"', "cca3v")
    specs = tuple(MethodSpec(name, label, dim=2) for name, label in zip(("cca", "pls", "cca3v"), labels))
    report = run_benchmark(small_config(specs, reps=2))
    write_report_csv(report, tmp_path / "report.csv")
    with open(tmp_path / "report.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert len(header) == 11
    assert [row[0] for row in rows] == list(labels)
    assert all(len(row) == len(header) for row in rows)
    summary = report["methods"]["cca3v"]["directions"]["a2b"]["summary"]
    assert rows[2][1:6] == [f"{summary[stat]:.6f}" for stat in ("min", "max", "mean", "var", "std")]
    # a label without a comma or quote is written bare, as a comma-joined line
    assert (tmp_path / "report.csv").read_text().splitlines()[3] == ",".join(rows[2])


def test_environment_stamp_starts_no_process():
    code = (
        "import subprocess\n"
        "started = []\n"
        "real_init = subprocess.Popen.__init__\n"
        "def spy(self, args, *a, **k):\n"
        "    started.append(args)\n"
        "    real_init(self, args, *a, **k)\n"
        "subprocess.Popen.__init__ = spy\n"
        "import xms.bench\n"
        "xms.bench.environment_stamp(1)\n"
        "assert started == [], started\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": str(SRC)})


def test_environment_stamp_names_each_openblas():
    stamp = xms.bench.environment_stamp(1)["openblas"]
    if not _openblas_thread_functions():
        pytest.skip("no OpenBLAS with thread-count functions is loaded")
    assert [entry["threads"] for entry in stamp] == _openblas_thread_counts()
    assert all(isinstance(entry["core"], str) and entry["core"] for entry in stamp)
    assert all(".so" in entry["library"] and os.sep not in entry["library"] for entry in stamp)


def test_config_round_trip():
    raw = {
        "dataset": "somewhere",
        "n_train": 30,
        "repetitions": 4,
        "metric_mode": "map",
        "methods": [
            {"name": "cca", "pca": {"mode": "dim", "value": 5}, "dim": 3},
            {"name": "lcfs", "hyperparams": {"lambda1": 0.1, "lambda2": 0.2}},
        ],
    }
    config = config_from_dict(raw)
    assert config.methods[0].label == "pca+cca"
    assert config.methods[1].label == "lcfs"
    echoed = dataclasses.asdict(config)
    assert echoed["n_train"] == 30
    assert config_from_dict(copy.deepcopy(echoed)) == config

    # every field away from its default, through the report's JSON as well
    spec = MethodSpec(
        "cca",
        "tuned",
        pca={"mode": "energy", "value": 0.9},
        dim=3,
        hyperparams={"ridge": 0.1},
        hyperparams_by_metric={"acc_at_k": {"ridge": 0.2}},
    )
    full = BenchmarkConfig(
        dataset={"synthetic": {"n": 60, "seed": 3}},
        n_train=30,
        methods=(spec, MethodSpec("lcfs", "lcfs", hyperparams={"lambda1": 0.1})),
        repetitions=4,
        base_seed=7,
        metric_mode="acc_at_k",
        acc_k=3,
        ap_cutoff=10,
        stratified=True,
        l2_normalize=True,
        include_pca_in_timing=True,
    )
    for cls, instance in ((BenchmarkConfig, full), (MethodSpec, spec)):
        for f in dataclasses.fields(cls):
            default = f.default_factory() if f.default_factory is not dataclasses.MISSING else f.default
            assert getattr(instance, f.name) != default, f.name
    assert config_from_dict(copy.deepcopy(dataclasses.asdict(full))) == full
    assert config_from_dict(json.loads(json.dumps(dataclasses.asdict(full)))) == full


def test_config_rejects_acc_k_below_one():
    spec = (MethodSpec("pls", "pls", dim=2),)
    for acc_k in (0, -1):
        with pytest.raises(ConfigError) as err:
            small_config(spec, metric_mode="acc_at_k", acc_k=acc_k)
        assert err.value.code == "bad_config"
        with pytest.raises(ConfigError) as err:
            config_from_dict(
                {"dataset": "x", "n_train": 3, "metric_mode": "acc_at_k", "acc_k": acc_k, "methods": [{"name": "pls"}]}
            )
        assert err.value.code == "bad_config"


@pytest.mark.parametrize(
    "fields",
    [
        pytest.param({"reps": 0}, id="repetitions-zero"),
        pytest.param({"metric_mode": "mrr"}, id="metric-mode-unknown"),
    ],
)
def test_config_rejects_values_out_of_range(fields):
    with pytest.raises(ConfigError) as err:
        small_config((MethodSpec("pls", "pls", dim=2),), **fields)
    assert err.value.code == "bad_config"


@pytest.mark.parametrize("n_train", [60, 61])
def test_run_benchmark_needs_a_test_side(n_train):
    # the range of n_train needs the data: the synthetic spec has n = 60
    with pytest.raises(ConfigError, match="n_train must lie in 1..59") as err:
        run_benchmark(small_config((MethodSpec("pls", "pls", dim=2),), n_train=n_train))
    assert err.value.code == "bad_config"


def test_lambda_sweep_refuses_a_method_without_lambdas():
    # the cell's own config check refuses it, named by the cell; the parser takes any method name
    with pytest.raises(ConfigError, match=r"^cca\[0,0\]: ") as err:
        lambda_sweep(small_config((MethodSpec("cca", "cca", dim=2),)), "cca", [0.0], [0.0])
    assert err.value.code == "bad_hyperparam"
    assert not hasattr(xms.bench, "SWEEP_METHODS")
    args = xms.cli.build_parser().parse_args(["sweep", "--config", "c.yaml", "--method", "cca", "--out", "s.json"])
    assert args.method == "cca"


@pytest.mark.parametrize(
    "key, value",
    [
        ("stratified", "false"),
        ("l2_normalize", 1),
        ("include_pca_in_timing", None),
        ("repetitions", 2.9),
        ("n_train", "ten"),
        ("base_seed", True),
        ("acc_k", 1.0),
    ],
)
def test_config_from_dict_requires_real_bools_and_integers(key, value):
    with pytest.raises(ConfigError) as err:
        config_from_dict({"dataset": "x", "n_train": 3, key: value})
    assert err.value.code == "bad_config"


@pytest.mark.parametrize(
    "config_fields, spec_fields, code",
    [
        pytest.param({}, {"dim": "3"}, "bad_config", id="dim-str"),
        pytest.param({}, {"dim": 2.0}, "bad_config", id="dim-float"),
        pytest.param({}, {"dim": True}, "bad_config", id="dim-bool"),
        pytest.param({}, {"pca": {"mode": "energy", "value": "x"}}, "bad_pca", id="pca-value-str"),
        pytest.param({}, {"pca": {"mode": "dim", "value": 2.5}}, "bad_pca", id="pca-dim-float"),
        pytest.param({}, {"pca": {"mode": "variance", "value": 0.9}}, "bad_pca", id="pca-mode"),
        pytest.param({}, {"pca": 0.98}, "bad_pca", id="pca-not-mapping"),
        pytest.param({}, {"pca": {"mode": "energy", "value": 1.5}}, "bad_pca", id="pca-energy-above-one"),
        pytest.param({}, {"pca": {"mode": "energy", "value": float("nan")}}, "bad_pca", id="pca-energy-nan"),
        pytest.param({}, {"pca": {"mode": "dim", "value": 0}}, "bad_pca", id="pca-dim-zero"),
        pytest.param({}, {"pca": {"mode": "dim", "value": 4, "whiten": True}}, "bad_pca", id="pca-unknown-key"),
        pytest.param({"ap_cutoff": 2.5}, {}, "bad_config", id="ap_cutoff-float"),
        pytest.param({"ap_cutoff": True}, {}, "bad_config", id="ap_cutoff-bool"),
        pytest.param({"ap_cutoff": 0}, {}, "bad_config", id="ap_cutoff-zero"),
        pytest.param({}, {"hyperparams": [1, 2]}, "bad_config", id="hyperparams-list"),
        pytest.param({}, {"hyperparams_by_metric": {"map": 3}}, "bad_config", id="by_metric-block"),
        pytest.param({}, {"hyperparams_by_metric": [("map", {})]}, "bad_config", id="by_metric-list"),
        pytest.param({}, {"hyperparams_by_metric": {"acc@k": {"ridge": 0.5}}}, "bad_config", id="by_metric-key"),
        pytest.param({}, {"name": 3}, "bad_config", id="name-int"),
        pytest.param({}, {"label": 3}, "bad_config", id="label-int"),
        pytest.param({"methods": "cca"}, {}, "bad_config", id="methods-str"),
        pytest.param({"methods": []}, {}, "bad_config", id="methods-empty"),
        pytest.param({"n_train": "ten"}, {}, "bad_config", id="n_train-str"),
        pytest.param({"base_seed": -1}, {}, "bad_config", id="base_seed-negative"),
        pytest.param({"dataset": 3}, {}, "bad_config", id="dataset-int"),
        pytest.param(
            {"dataset": {"synthetic": {"n": 60, "c": 3, "d_a": 10, "d_b": 9}, "seed": 5}},
            {},
            "bad_config",
            id="dataset-extra-key",
        ),
        pytest.param(
            {"dataset": {"synthtic": {"n": 60, "c": 3, "d_a": 10, "d_b": 9}}}, {}, "bad_config", id="dataset-key-typo"
        ),
        pytest.param({}, {"name": "cka"}, "bad_method", id="name-unknown"),
        pytest.param({}, {"name": "jfssl", "hyperparams": {"lamda1": 0.1}}, "bad_hyperparam", id="hyperparam-key"),
        pytest.param({}, {"name": "jfssl", "hyperparams": {"graph_K": 3}}, "bad_hyperparam", id="hyperparam-case"),
        pytest.param({}, {"hyperparams": {"ridge": -1.0}}, "bad_hyperparam", id="hyperparam-range"),
        pytest.param({}, {"hyperparams": {"ridge": True}}, "bad_hyperparam", id="hyperparam-bool"),
        pytest.param({}, {"name": "gmlda", "hyperparams": {"variant": "blm"}}, "bad_hyperparam", id="gma-variant"),
        pytest.param({}, {"name": "gmlda", "hyperparams": {"mfa_k_penalty": 3}}, "bad_hyperparam", id="gmlda-mfa-k"),
        pytest.param({}, {"name": "lcfs"}, "bad_dim", id="lcfs-dim"),
        pytest.param({}, {"name": "jfssl"}, "bad_dim", id="jfssl-dim"),
        pytest.param(
            {}, {"hyperparams_by_metric": {"acc_at_k": {"ridge": -1}}}, "bad_hyperparam", id="by_metric-range"
        ),
    ],
)
def test_mistyped_config_fields_raise_config_error(config_fields, spec_fields, code):
    dataset = {"synthetic": {"n": 60, "c": 3, "d_a": 10, "d_b": 9, "seed": 3}}
    entry = {"name": "cca", "label": "cca", "dim": 2, **spec_fields}
    with pytest.raises(ConfigError) as err:
        config_from_dict({"dataset": dataset, "n_train": 40, "methods": [entry], **config_fields})
    assert err.value.code == code
    with pytest.raises(ConfigError) as err:
        methods = (MethodSpec(**entry),)
        BenchmarkConfig(**{"dataset": dataset, "n_train": 40, "methods": methods, **config_fields})
    assert err.value.code == code


def test_config_file_errors_name_the_method_label():
    with pytest.raises(ConfigError) as err:
        config_from_dict({"dataset": "x", "n_train": 3, "methods": [{"name": "cca", "dim": "3"}]})
    assert err.value.code == "bad_config"
    assert str(err.value).startswith("cca: ")


@pytest.mark.parametrize("raw", [None, [], {"dataset": "x", "n_train": 3, "methods": [["cca"]]}], ids=["none", "list", "entry-list"])
def test_config_from_dict_requires_mappings(raw):
    with pytest.raises(ConfigError) as err:
        config_from_dict(raw)
    assert err.value.code == "bad_config"


@pytest.mark.parametrize("bad", [-0.1, float("nan"), float("inf"), "x", None, True, "empty"])
def test_lambda_sweep_rejects_bad_grid_values(bad):
    # an empty grid is the sweep's own refusal; a bad value is the cell's, through JFSSL's config
    config = small_config((MethodSpec("jfssl", "jfssl"),))
    bad_grid = [] if bad == "empty" else [bad]
    for grid1, grid2 in ((bad_grid, [0.0]), ([0.0], bad_grid)):
        with pytest.raises(ConfigError) as err:
            lambda_sweep(config, "jfssl", grid1, grid2)
        assert err.value.code == ("bad_config" if bad == "empty" else "bad_hyperparam")
        assert bad == "empty" or str(err.value).startswith("jfssl[0,0]: ")


def test_config_rejects_duplicate_labels():
    with pytest.raises(ConfigError) as err:
        small_config((MethodSpec("cca", "cca", dim=2), MethodSpec("pls", "cca")))
    assert err.value.code == "bad_config"
    with pytest.raises(ConfigError) as err:
        config_from_dict({"dataset": "x", "n_train": 3, "methods": [{"name": "cca"}, {"name": "CCA"}]})
    assert err.value.code == "bad_config"


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        config_from_dict({"dataset": "x", "n_train": 3, "bogus": 1})
    with pytest.raises(ConfigError):
        config_from_dict({"dataset": "x", "n_train": 3, "methods": [{"name": "cca", "bogus": 1}]})


def test_default_method_specs_cover_all_nine():
    names = [spec.name for spec in default_method_specs()]
    assert names == ["cca", "pls", "blm", "gmlda", "gmmfa", "cdfe", "cca3v", "lcfs", "jfssl"]
    labels = [spec.label for spec in default_method_specs()]
    assert labels[:7] == [f"pca+{n}" for n in names[:7]]


def test_stratified_flag_runs():
    specs = (MethodSpec("cca", "cca", dim=2),)
    report = run_benchmark(small_config(specs, reps=2, stratified=True))
    assert report["methods"]["cca"]["complete"]


def test_hyperparams_by_metric_blocks():
    spec = MethodSpec(
        "lcfs",
        "lcfs",
        hyperparams={"lambda1": 0.0, "lambda2": 0.0},
        hyperparams_by_metric={"acc_at_k": {"lambda1": 0.5}},
    )
    assert spec.resolved_hyperparams("map") == {"lambda1": 0.0, "lambda2": 0.0}
    assert spec.resolved_hyperparams("acc_at_k") == {"lambda1": 0.5, "lambda2": 0.0}


# ---------------------------------------------------------------------------
# repetitions in worker processes


def force_workers(monkeypatch, count):
    monkeypatch.setattr(xms.bench, "_worker_count", lambda repetitions: min(count, repetitions))


@pytest.mark.parametrize("cls", [XmsError, ConfigError, DataError, NumericalError])
def test_errors_survive_pickle(cls):
    error = cls("some_code", "what went wrong")
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is cls
    assert (back.code, str(back), back.exit_code) == ("some_code", "what went wrong", cls.exit_code)


def _openblas_thread_functions() -> list:
    """(setter, getter) of each loaded OpenBLAS that has both, found as the workers' pin finds them."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    pairs = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for name in xms.bench._BLAS_THREAD_SETTERS:
            getter = name.replace("_set_", "_get_")
            if hasattr(handle, name) and hasattr(handle, getter):
                set_threads, get_threads = getattr(handle, name), getattr(handle, getter)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                pairs.append((set_threads, get_threads))
                break
    return pairs


def _openblas_thread_counts() -> list:
    return [get() for _, get in _openblas_thread_functions()]


@pytest.mark.skipif(not (hasattr(os, "fork") and os.path.exists("/proc/self/maps")), reason="needs fork and /proc")
def test_worker_start_pins_every_openblas_to_one_thread():
    # the setters are resolved in the parent; a forked worker only calls them
    functions = _openblas_thread_functions()
    if not functions:
        pytest.skip("no OpenBLAS with thread-count functions is loaded")
    before = [get() for _, get in functions]
    try:
        for set_threads, _ in functions:
            set_threads(2)
        if _openblas_thread_counts() != [2] * len(functions):
            pytest.skip("OpenBLAS cannot be raised above one thread here")
        args = (None, None, xms.bench._blas_thread_setters())
        with ProcessPoolExecutor(1, multiprocessing.get_context("fork"), xms.bench._start_worker, args) as pool:
            assert pool.submit(_openblas_thread_counts).result(timeout=60) == [1] * len(functions)
        assert _openblas_thread_counts() == [2] * len(functions)  # the parent keeps its own count
    finally:
        for (set_threads, _), count in zip(functions, before):
            set_threads(count)


def test_worker_count_follows_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
    assert [xms.bench._worker_count(r) for r in (1, 2, 3, 50)] == [1, 2, 3, 3]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1})
    assert xms.bench._worker_count(50) == 1


def _workers_in_pool_worker():
    return run_benchmark(small_config((MethodSpec("cca", "cca", dim=2),), reps=3))["environment"]["workers"]


def test_daemonic_process_runs_in_process(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with multiprocessing.get_context("fork").Pool(1) as pool:  # a pool worker may not start processes
        assert pool.apply(_workers_in_pool_worker) == 1


@pytest.mark.parametrize(
    "methods, options",
    [
        (default_method_specs(), {}),
        (default_method_specs(), {"stratified": True, "include_pca_in_timing": True}),
        ((MethodSpec("cca", "cca-bad", dim=500), MethodSpec("jfssl", "jfssl")), {"metric_mode": "acc_at_k"}),
    ],
)
def test_benchmark_same_report_for_any_worker_count(monkeypatch, methods, options):
    config = small_config(methods, reps=5, **options)  # 5 repetitions on 2 workers: uneven shares
    reports = {}
    for workers in (1, 2):
        force_workers(monkeypatch, workers)
        reports[workers] = run_benchmark(config)
        assert reports[workers]["environment"]["workers"] == workers
    assert without_timing(reports[1]) == without_timing(reports[2])


def test_lambda_sweep_failures_same_for_any_worker_count(monkeypatch):
    config = small_config((MethodSpec("jfssl", "jfssl"),), reps=3)
    inject_sweep_failures(monkeypatch, config)
    surfaces = []
    for workers in (1, 2, 3):
        force_workers(monkeypatch, workers)
        surfaces.append(lambda_sweep(config, "jfssl", SWEEP_GRID1, SWEEP_GRID2))
    assert surfaces[0]["failed_cells"]
    assert surfaces[0] == surfaces[1] == surfaces[2]


def subset_failing_in_workers(monkeypatch, fail=None):
    parent, real_subset = os.getpid(), xms.bench.subset

    def subset_outside_parent(*args, **kwargs):
        if os.getpid() != parent:
            if fail is not None:
                fail()
            raise DataError("bad_subset", "injected in a worker")
        return real_subset(*args, **kwargs)

    monkeypatch.setattr(xms.bench, "subset", subset_outside_parent)
    force_workers(monkeypatch, 2)


def test_worker_error_propagates_with_its_type(monkeypatch):
    subset_failing_in_workers(monkeypatch)
    with pytest.raises(DataError) as caught:
        run_benchmark(small_config((MethodSpec("cca", "cca", dim=2),), reps=2))
    assert (caught.value.code, str(caught.value)) == ("bad_subset", "injected in a worker")


def test_bench_cli_exits_3_on_worker_data_error(monkeypatch, tmp_path, capsys):
    config = tmp_path / "bench.json"
    config.write_text(json.dumps(dataclasses.asdict(small_config((MethodSpec("cca", "cca", dim=2),)))))
    subset_failing_in_workers(monkeypatch)
    assert xms.cli.main(["bench", "--config", str(config), "--out", str(tmp_path / "report.json")]) == 3
    assert "error [bad_subset]: injected in a worker" in capsys.readouterr().err


def test_dead_worker_raises_instead_of_hanging(monkeypatch):
    subset_failing_in_workers(monkeypatch, fail=lambda: os.kill(os.getpid(), signal.SIGKILL))
    with pytest.raises(BrokenProcessPool):
        run_benchmark(small_config((MethodSpec("cca", "cca", dim=2),), reps=4))


BLAS_PROBE = r"""
import ctypes, json, sys
import xms.bench
from xms.bench import BenchmarkConfig, MethodSpec, run_benchmark
from xms.errors import NumericalError

GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
           "openblas_get_num_threads64_", "openblas_get_num_threads")


def blas_threads():
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    counts = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        getter = next((getattr(handle, name) for name in GETTERS if hasattr(handle, name)), None)
        if getter is not None:
            counts.append(getter())
    return counts


def report_threads(train, name, **kwargs):
    raise NumericalError("blas_threads", json.dumps(blas_threads()))


xms.bench.fit_method = report_threads
xms.bench._worker_count = lambda repetitions: 2
config = BenchmarkConfig(dataset={"synthetic": json.loads(sys.argv[1])}, n_train=40,
                         methods=(MethodSpec("cca", "cca", dim=2),), repetitions=2)
failures = run_benchmark(config)["methods"]["cca"]["failures"]
print(json.dumps({"parent": blas_threads(), "workers": [json.loads(f["message"]) for f in failures]}))
"""


def test_workers_pin_every_openblas_to_one_thread(tmp_path):
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    script = tmp_path / "blas_probe.py"
    script.write_text(BLAS_PROBE)
    dataset = small_config((MethodSpec("cca", "cca"),)).dataset["synthetic"]
    done = subprocess.run(
        [sys.executable, str(script), json.dumps(dataset)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.splitlines()[-1])
    if not seen["parent"]:
        pytest.skip("no OpenBLAS get_num_threads symbol in the loaded libraries")
    assert seen["workers"] == [[1] * len(seen["parent"])] * 2
