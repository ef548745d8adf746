"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Criterion 9 needs real shoe/chair feature directories (see
``XMS_SHOE_DIR`` / ``XMS_CHAIR_DIR``) and is skipped with a notice otherwise.
"""

import os
import time
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.linalg as la

from xms.bench import BenchmarkConfig, MethodSpec, box_stats, default_method_specs, lambda_sweep, run_benchmark, students_t_test
from xms.dataset_io import FeatureMatrix, encode_labels, load_dataset
from xms.methods import SparseCoupledConfig, fit_cca, fit_cdfe, fit_gmlda, fit_jfssl, fit_lcfs, fit_pls
from xms.numerics import scatter, solve_gev
from xms.retrieval_eval import acc_at_k, average_precision, cmc_curve, rank_by_cosine
from xms.synthetic import make_synthetic_dataset
from tests.conftest import paired_dataset, random_paired_dataset
from tests.test_bench import t_cdf_oracle
from tests.test_methods_cca import dataset_with_exact_covariance, grid_search_first_correlation
from tests.test_methods_coupled import direct_least_squares, rel_err
from tests.test_retrieval_eval import brute_force_order

SYNTHETIC_SPEC = {"n": 400, "c": 3, "d_a": 128, "d_b": 128, "seed": 7}


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException as exc:
        if isinstance(exc, pytest.skip.Exception):
            print(f"[ACCEPTANCE] criterion {number} SKIPPED: {exc}")
        else:
            print(f"[ACCEPTANCE] criterion {number} FAIL: {description}")
        raise
    print(f"[ACCEPTANCE] criterion {number} PASS: {description}")


def test_criterion_1_cca_oracles():
    with criterion(1, "CCA recovers analytic correlations (1e-6) and the grid-search oracle (1e-3) in < 1 s"):
        t0 = time.perf_counter()
        ds = dataset_with_exact_covariance((0.9, 0.3), n=80, seed=4)
        model = fit_cca(ds, d=2, ridge=0.0)
        np.testing.assert_allclose(model.metadata["canonical_correlations"], (0.9, 0.3), atol=1e-6)

        rng = np.random.default_rng(12)
        z = rng.standard_normal((2, 100))
        xa = z + 0.2 * rng.standard_normal((2, 100))
        xb = rng.standard_normal((2, 2)) @ z + 0.4 * rng.standard_normal((2, 100))
        ds2 = paired_dataset(xa, xb, np.ones(100, dtype=int))
        first = fit_cca(ds2, d=1, ridge=0.0).metadata["canonical_correlations"][0]
        assert abs(first - grid_search_first_correlation(ds2)) < 1e-3
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_pls_oracle():
    with criterion(2, "PLS first weight pair matches leading cross-covariance singular vectors on 100 instances in < 5 s"):
        t0 = time.perf_counter()
        for trial in range(100):
            rng = np.random.default_rng(2000 + trial)
            d_a = int(rng.integers(2, 21))
            d_b = int(rng.integers(2, 21))
            n = int(rng.integers(10, 201))
            ds = paired_dataset(
                rng.standard_normal((d_a, n)), rng.standard_normal((d_b, n)), np.ones(n, dtype=int)
            )
            model = fit_pls(ds, d=1)
            xac = ds.xa.values - ds.xa.values.mean(axis=1, keepdims=True)
            xbc = ds.xb.values - ds.xb.values.mean(axis=1, keepdims=True)
            u, _, vt = np.linalg.svd(xac @ xbc.T, full_matrices=False)
            assert abs(model.wa[:, 0] @ u[:, 0]) >= 0.999
            assert abs(model.wb[:, 0] @ vt[0]) >= 0.999
        assert time.perf_counter() - t0 < 5.0


def test_criterion_3_degeneration_equivalences():
    with criterion(3, "LCFS/JFSSL at lambda=0 equal least squares (1e-6); GMLDA at beta=0 equals per-view LDA (< 1e-6 angles)"):
        rng = np.random.default_rng(31)
        ds = random_paired_dataset(rng, n=60, d_a=7, d_b=6, c=3)
        y = encode_labels(ds.labels, ds.c)
        cfg = SparseCoupledConfig(lambda1=0.0, lambda2=0.0)
        for fitter in (fit_lcfs, fit_jfssl):
            model = fitter(ds, cfg)
            assert rel_err(model.wa, direct_least_squares(ds.xa.values, y)) <= 1e-6
            assert rel_err(model.wb, direct_least_squares(ds.xb.values, y)) <= 1e-6

        model = fit_gmlda(ds, d=2, beta=0.0)
        ridge = model.hyperparams["ridge"]
        for view, w in (("a", model.wa), ("b", model.wb)):
            x = getattr(ds, f"x{view}").values
            x = x - x.mean(axis=1, keepdims=True)
            within, between, _ = scatter(FeatureMatrix(x), ds.labels)
            _, lda = solve_gev(between, within, 2, ridge)
            assert la.subspace_angles(w, lda).max() < 1e-6


def test_criterion_4_monotone_objectives():
    with criterion(4, "LCFS, JFSSL, and CDFE objective traces non-increasing (1e-10 slack) on 50 seeded problems"):
        for seed in range(50):
            rng = np.random.default_rng(4000 + seed)
            ds = random_paired_dataset(rng, n=30, d_a=5, d_b=4, c=2)
            cfg = SparseCoupledConfig(lambda1=0.4, lambda2=0.4, max_iters=30)
            traces = [
                fit_lcfs(ds, cfg).metadata["objective_trace"],
                fit_jfssl(ds, cfg).metadata["objective_trace"],
                fit_cdfe(ds, d=2).metadata["objective_trace"],
            ]
            for trace in traces:
                assert all(trace[i] >= trace[i + 1] - 1e-10 for i in range(len(trace) - 1))


def test_criterion_5_metric_oracles():
    with criterion(5, "ranking/AP/acc@K/CMC match brute force on 1000 random instances (order exact, values 1e-12)"):
        for trial in range(1000):
            rng = np.random.default_rng(5000 + trial)
            d = int(rng.integers(2, 6))
            n_g = int(rng.integers(2, 51))
            n_q = int(rng.integers(1, 6))
            queries = rng.standard_normal((d, n_q))
            gallery = rng.standard_normal((d, n_g))
            ranked = rank_by_cosine(FeatureMatrix(queries), FeatureMatrix(gallery))

            matches = rng.integers(0, n_g, size=n_q)
            for qi, rl in enumerate(ranked):
                # order oracle
                assert rl.gallery_order.tolist() == brute_force_order(queries[:, qi], gallery)
                # AP oracle on a random relevant set
                n_rel = int(rng.integers(1, n_g + 1))
                relevant = set(rng.choice(n_g, size=n_rel, replace=False).tolist())
                hits, acc = 0, 0.0
                for rank, item in enumerate(rl.gallery_order, start=1):
                    if int(item) in relevant:
                        hits += 1
                        acc += hits / rank
                assert abs(average_precision(rl, relevant) - acc / len(relevant)) <= 1e-12

            # acc@K and CMC oracles against direct membership counting
            k = int(rng.integers(1, n_g + 1))
            expected_acc = np.mean(
                [matches[qi] in ranked[qi].gallery_order[:k] for qi in range(n_q)]
            )
            assert abs(acc_at_k(ranked, matches, k) - expected_acc) <= 1e-12
            curve = cmc_curve(ranked, matches)
            for kk in (1, n_g):
                expected = np.mean([matches[qi] in ranked[qi].gallery_order[:kk] for qi in range(n_q)])
                assert abs(curve[kk - 1] - expected) <= 1e-12


def test_criterion_6_statistics_oracles():
    with criterion(6, "t-test p-values match the numerical t-CDF oracle (1e-6); box stats match the quantile oracle exactly"):
        for case in range(100):
            rng = np.random.default_rng(6000 + case)
            n_a = int(rng.integers(3, 60))
            n_b = int(rng.integers(3, 60))
            a = rng.normal(0.0, 1.0, size=n_a)
            b = rng.normal(0.5, 1.0, size=n_b)
            result = students_t_test(a, b)
            assert abs(result["p_value"] - t_cdf_oracle(result["t_statistic"], n_a + n_b - 2)) <= 1e-6

        for case in range(50):
            rng = np.random.default_rng(6500 + case)
            values = rng.integers(-20, 60, size=int(rng.integers(1, 30))).astype(float)
            stats = box_stats(values)
            q25, q50, q75 = np.percentile(values, [25, 50, 75])  # linear interpolation
            assert (stats["q25"], stats["median"], stats["q75"]) == (q25, q50, q75)
            iqr = q75 - q25
            inside = values[(values >= q25 - 1.5 * iqr) & (values <= q75 + 1.5 * iqr)]
            assert stats["whisker_low"] == inside.min() and stats["whisker_high"] == inside.max()
            assert np.array_equal(
                stats["outliers"], np.sort(values[(values < q25 - 1.5 * iqr) | (values > q75 + 1.5 * iqr)])
            )


def _validate_report_schema(report, n_methods, reps, gallery_size):
    assert set(report) == {"config", "methods", "ttests", "box_stats", "environment"}
    assert len(report["methods"]) == n_methods
    for label, entry in report["methods"].items():
        assert entry["complete"], f"{label} had failures: {entry['failures']}"
        assert entry["fit_seconds_mean"] > 0
        for direction in ("a2b", "b2a"):
            block = entry["directions"][direction]
            assert len(block["map_runs"]) == reps
            assert set(block["summary"]) == {"min", "max", "mean", "var", "std"}
            s = block["summary"]
            assert s["min"] <= s["mean"] <= s["max"]
            assert abs(s["var"] - s["std"] ** 2) <= 1e-12
            assert len(block["cmc_mean"]) == gallery_size
            assert all(0.0 <= v <= 1.0 for v in block["map_runs"])
        assert set(report["box_stats"][label]) == {"a2b", "b2a"}
    assert {"python", "numpy", "scipy", "platform", "timestamp", "xms_version", "workers"} == set(report["environment"])


def test_criterion_7_full_protocol_run():
    with criterion(7, "9-method, 50-repetition synthetic benchmark in < 10 min with GMLDA > CCA and LCFS > CCA mean MAP"):
        config = BenchmarkConfig(
            dataset={"synthetic": SYNTHETIC_SPEC},
            n_train=304,
            methods=default_method_specs(),
            repetitions=50,
        )
        t0 = time.perf_counter()
        report = run_benchmark(config)
        elapsed = time.perf_counter() - t0
        assert elapsed < 600.0, f"protocol took {elapsed:.0f}s"
        _validate_report_schema(report, n_methods=9, reps=50, gallery_size=96)
        means = {
            label: {d: entry["directions"][d]["summary"]["mean"] for d in ("a2b", "b2a")}
            for label, entry in report["methods"].items()
        }
        for direction in ("a2b", "b2a"):
            assert means["pca+gmlda"][direction] > means["pca+cca"][direction]
            assert means["lcfs"][direction] > means["pca+cca"][direction]
        print(
            f"  (protocol {elapsed:.0f}s; a2b means: cca={means['pca+cca']['a2b']:.3f}, "
            f"gmlda={means['pca+gmlda']['a2b']:.3f}, lcfs={means['lcfs']['a2b']:.3f})"
        )


def test_criterion_8_lambda_sweep():
    with criterion(8, "8x8 JFSSL lambda sweep completes; LCFS and JFSSL (0,0) cells agree within 1e-6"):
        grid = [0.0, 0.0001, 0.001, 0.01, 0.1, 1.0, 10.0, 100.0]
        dataset = make_synthetic_dataset(**SYNTHETIC_SPEC)
        config = BenchmarkConfig(
            dataset={"synthetic": SYNTHETIC_SPEC},
            n_train=304,
            methods=(MethodSpec("jfssl", "jfssl"),),
            repetitions=2,
        )
        surface = lambda_sweep(config, "jfssl", grid, grid, dataset=dataset)
        assert surface["failed_cells"] == []
        for direction in ("a2b", "b2a"):
            cells = surface["directions"][direction]
            assert len(cells) == 8 and all(len(row) == 8 for row in cells)
            assert all(v is not None and 0.0 <= v <= 1.0 for row in cells for v in row)

        zero = [0.0]
        lcfs_cell = lambda_sweep(config, "lcfs", zero, zero, dataset=dataset)
        for direction in ("a2b", "b2a"):
            ours = surface["directions"][direction][0][0]
            theirs = lcfs_cell["directions"][direction][0][0]
            assert abs(ours - theirs) <= 1e-6


def _gated_dataset(env_var, expect_n, expect_c):
    path = os.environ.get(env_var)
    if not path:
        pytest.skip(f"criterion 9: set {env_var} to a dataset directory to enable the real-data range checks")
    ds = load_dataset(path)
    assert ds.n == expect_n and ds.c == expect_c, f"{env_var} must hold {expect_n} pairs / {expect_c} classes"
    return ds


def _cca_lcfs_protocol(ds, n_train):
    config = BenchmarkConfig(
        dataset="ignored",
        n_train=n_train,
        methods=(
            MethodSpec("cca", "pca+cca", pca={"mode": "energy", "value": 0.98}),
            MethodSpec("lcfs", "lcfs"),
        ),
        repetitions=50,
    )
    report = run_benchmark(config, dataset=ds)
    return {
        label: report["methods"][label]["directions"]["a2b"]["summary"]["mean"]
        for label in ("pca+cca", "lcfs")
    }


def test_criterion_9_shoe_dataset_ranges():
    with criterion(9, "shoe-dataset PCA+CCA in [0.50, 0.68], LCFS in [0.70, 0.86], LCFS > CCA (gated on real features)"):
        ds = _gated_dataset("XMS_SHOE_DIR", 419, 3)
        means = _cca_lcfs_protocol(ds, 304)
        assert 0.50 <= means["pca+cca"] <= 0.68
        assert 0.70 <= means["lcfs"] <= 0.86
        assert means["lcfs"] > means["pca+cca"]


def test_criterion_9_chair_dataset_ranking():
    with criterion(9, "chair-dataset LCFS > PCA+CCA ranking (gated on real features)"):
        ds = _gated_dataset("XMS_CHAIR_DIR", 297, 6)
        means = _cca_lcfs_protocol(ds, 200)
        assert means["lcfs"] > means["pca+cca"]
