import numpy as np
import scipy.linalg as la
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from xms.cli import DEFAULT_GRID
from xms.dataset_io import encode_labels, random_split, subset
from xms.errors import ConfigError, NumericalError
import pytest

from xms.methods import SparseCoupledConfig, SplitContext, fit_jfssl, fit_lcfs, load_model, save_model
from xms.methods import coupled
from xms.methods.coupled import EPS_L21, EPS_TRACE, _NormalSystem
from xms.numerics import _knn_mask, _pairwise_sq_dists, _symmetrized, knn_graph, laplacian, multimodal_graph
from xms.synthetic import make_synthetic_dataset
from tests.conftest import paired_dataset, random_paired_dataset


@pytest.mark.parametrize(
    "field, value, code",
    [
        ("lambda1", float("nan"), "bad_hyperparam"),
        ("lambda2", float("nan"), "bad_hyperparam"),
        ("lambda2", float("inf"), "bad_hyperparam"),
        ("lambda1", -0.1, "bad_hyperparam"),
        ("lambda1", True, "bad_hyperparam"),
        ("tol", True, "bad_hyperparam"),
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


@pytest.mark.parametrize(
    "fitter, keys",
    [
        (fit_lcfs, ["lambda1", "lambda2", "max_iters", "tol", "iterations"]),
        (fit_jfssl, ["lambda1", "lambda2", "max_iters", "tol", "graph_k", "iterations"]),
    ],
)
def test_loop_bookkeeping(rng, fitter, keys):
    # the benchmark's iteration probe and saved models read these keys, in this order
    ds = random_paired_dataset(rng, n=40, d_a=6, d_b=6, c=3)
    for l1, l2 in ((0.5, 0.5), (0.5, 0.0), (0.0, 0.5)):
        model = fitter(ds, SparseCoupledConfig(lambda1=l1, lambda2=l2))
        assert list(model.hyperparams) == keys
        assert len(model.metadata["objective_trace"]) == model.hyperparams["iterations"] + 1
        assert 1 <= model.hyperparams["iterations"] < model.hyperparams["max_iters"]
        for max_iters in (1, 2, 4):
            capped = fitter(ds, SparseCoupledConfig(lambda1=l1, lambda2=l2, max_iters=max_iters, tol=1e-12))
            assert capped.hyperparams["iterations"] == max_iters
            assert len(capped.metadata["objective_trace"]) == max_iters + 1


@pytest.mark.parametrize("fitter", [fit_lcfs, fit_jfssl])
def test_at_max_iters_says_whether_the_cap_stopped_the_fit(rng, tmp_path, fitter):
    ds = random_paired_dataset(rng, n=40, d_a=6, d_b=6, c=3)
    capped = fitter(ds, SparseCoupledConfig(max_iters=1, tol=1e-12))
    assert capped.metadata["at_max_iters"] is True
    fitted = fitter(ds)
    assert fitted.metadata["at_max_iters"] is False
    assert fitted.hyperparams["iterations"] < fitted.hyperparams["max_iters"]
    # a diagnostic of the model alone: the benchmark's tracer reads hyperparams, reports leave it out
    assert "at_max_iters" not in capped.hyperparams
    save_model(capped, tmp_path / "m.xms")
    assert load_model(tmp_path / "m.xms").metadata["at_max_iters"] is True


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


# JFSSL's iteration counts on the CLI's default 8 x 8 sweep grid (rows lambda1, columns lambda2) on
# criterion-7 splits 0 and 1, as `benchmarks/perf.py --workload sweep8x8` fits them; 2,645 in all
SWEEP_ITERATIONS = [
    [
        [1, 1, 2, 3, 5, 16, 29, 36],
        [1, 1, 2, 3, 5, 16, 29, 36],
        [1, 1, 2, 3, 5, 16, 29, 36],
        [2, 2, 2, 3, 5, 16, 29, 36],
        [2, 2, 2, 3, 5, 16, 29, 36],
        [5, 5, 5, 5, 5, 16, 29, 36],
        [36, 36, 36, 36, 28, 19, 29, 36],
        [80, 80, 80, 78, 70, 46, 40, 39],
    ],
    [
        [1, 1, 2, 3, 5, 16, 28, 35],
        [1, 1, 2, 3, 5, 16, 28, 35],
        [1, 1, 2, 3, 5, 16, 28, 35],
        [2, 2, 2, 3, 5, 16, 28, 35],
        [2, 2, 2, 3, 5, 16, 28, 35],
        [5, 5, 5, 5, 6, 16, 28, 35],
        [36, 36, 36, 35, 27, 19, 29, 35],
        [74, 74, 74, 74, 65, 48, 38, 37],
    ],
]


def test_jfssl_sweep_stopping_points_are_pinned():
    # a change that only rounds differently keeps every cell's stopping point
    data = make_synthetic_dataset(n=400, c=3, d_a=128, d_b=128, seed=7)
    grid = [float(v) for v in DEFAULT_GRID.split(",")]
    counts = []
    for seed in (0, 1):
        context = SplitContext(subset(data, random_split(data.n, 304, seed)[0]))
        cells = [[SparseCoupledConfig(lambda1=l1, lambda2=l2) for l2 in grid] for l1 in grid]
        counts.append([[fit_jfssl(context.train, cfg, context=context).hyperparams["iterations"] for cfg in row] for row in cells])
    assert sum(map(sum, SWEEP_ITERATIONS[0] + SWEEP_ITERATIONS[1])) == 2645
    assert counts == SWEEP_ITERATIONS


# LCFS's iteration counts on the rows lambda1 = 0.1 and 1 of the CLI's default grid (columns lambda2)
# on criterion-7 split 0; the cells at 200 stop at max_iters
LCFS_ITERATIONS = {0.1: [2, 86, 2, 2, 2, 4, 37, 9], 1.0: [8, 200, 200, 200, 4, 5, 44, 9]}


def test_lcfs_stopping_points_are_pinned():
    data = make_synthetic_dataset(n=400, c=3, d_a=128, d_b=128, seed=7)
    grid = [float(v) for v in DEFAULT_GRID.split(",")]
    context = SplitContext(subset(data, random_split(data.n, 304, 0)[0]))
    cells = {l1: [SparseCoupledConfig(lambda1=l1, lambda2=l2) for l2 in grid] for l1 in LCFS_ITERATIONS}
    counts = {l1: [fit_lcfs(context.train, cfg, context=context).hyperparams["iterations"] for cfg in row] for l1, row in cells.items()}
    assert counts == LCFS_ITERATIONS


def test_context_of_another_split_rejected(rng):
    ds = random_paired_dataset(rng, n=30, d_a=5, d_b=4, c=2)
    other = SplitContext(random_paired_dataset(rng, n=30, d_a=5, d_b=4, c=2))
    for fitter in (fit_lcfs, fit_jfssl):
        with pytest.raises(ConfigError):
            fitter(ds, SparseCoupledConfig(), context=other)



# ---------------------------------------------------------------------------
# the iterations against their first, plainly written form


def cho_solve(a, rhs):
    return la.cho_solve(la.cho_factor(a), rhs)


def dense_l21(w):
    r = np.linalg.norm(w, axis=1)
    return np.where(r >= EPS_L21, r, (r**2 + EPS_L21**2) / (2 * EPS_L21)).sum()


def dense_jfssl_objective(ds, cfg, ws, lap):
    """JFSSL's objective with the graph term read off the dense 2n x 2n Laplacian."""
    xs, y = (ds.xa.values, ds.xb.values), encode_labels(ds.labels, ds.c)
    j = sum(np.sum((x.T @ w - y) ** 2) for x, w in zip(xs, ws))
    j += cfg.lambda1 * sum(dense_l21(w) for w in ws)
    if lap is not None:
        f = np.hstack([(x.T @ w).T for x, w in zip(xs, ws)])  # c x 2n projected points
        j += cfg.lambda2 * float(np.sum(f * (f @ lap)))
    return float(j)


def jfssl_laplacian(ds, cfg):
    return laplacian(multimodal_graph(ds, min(cfg.graph_k, max(ds.n - 1, 1)))) if cfg.lambda2 > 0 else None


def reference_jfssl(ds, cfg):
    """JFSSL with a dense-Laplacian objective and scipy's cho_factor/cho_solve."""
    n, xs, y = ds.n, (ds.xa.values, ds.xb.values), encode_labels(ds.labels, ds.c)
    grams, rhs0 = [x @ x.T for x in xs], [x @ y for x in xs]
    ws = [cho_solve(g, r) for g, r in zip(grams, rhs0)]
    lap = jfssl_laplacian(ds, cfg)
    trace = [dense_jfssl_objective(ds, cfg, ws, lap)]
    for _ in range(cfg.max_iters):
        diags = [1.0 / (2.0 * np.maximum(np.linalg.norm(w, axis=1), EPS_L21)) for w in ws]
        for p in range(2):
            a = grams[p].copy()
            if cfg.lambda1 > 0:
                a[np.diag_indices_from(a)] += cfg.lambda1 * diags[p]
            rhs = rhs0[p].copy()
            if lap is not None:
                lab = lap[:n, n:] if p == 0 else lap[:n, n:].T
                a += cfg.lambda2 * (xs[p] @ lap[p * n : (p + 1) * n, p * n : (p + 1) * n] @ xs[p].T)
                rhs -= cfg.lambda2 * (xs[p] @ (lab @ (xs[1 - p].T @ ws[1 - p])))
            ws[p] = cho_solve(a, rhs)
        trace.append(dense_jfssl_objective(ds, cfg, ws, lap))
        if abs(trace[-2] - trace[-1]) <= cfg.tol * max(abs(trace[-2]), 1.0):
            break
    return ws, trace


def smoothed_trace_norm(m):
    """The fitter's trace-norm term at M, from M's singular values."""
    return coupled.smoothed_trace_norm(np.linalg.svd(m, compute_uv=False), m.shape[0])


def reference_lcfs(ds, cfg):
    """LCFS with explicit diagonal matrices and scipy's cho_factor/cho_solve."""
    xs, y = (ds.xa.values, ds.xb.values), encode_labels(ds.labels, ds.c)
    grams, rhs0 = [x @ x.T for x in xs], [x @ y for x in xs]
    ws = [cho_solve(g, r) for g, r in zip(grams, rhs0)]

    def objective(ws):
        j = 0.5 * sum(np.sum((x.T @ w - y) ** 2) for x, w in zip(xs, ws))
        j += cfg.lambda1 * sum(dense_l21(w) for w in ws)
        if cfg.lambda2 > 0:
            j += cfg.lambda2 * smoothed_trace_norm(np.hstack([x.T @ w for x, w in zip(xs, ws)]))
        return float(j)

    trace = [objective(ws)]
    for _ in range(cfg.max_iters):
        if cfg.lambda2 > 0:
            m = np.hstack([x.T @ w for x, w in zip(xs, ws)])
            mu, vec = la.eigh(m @ m.T)
            inv_sqrt = vec @ np.diag(1.0 / np.sqrt(np.maximum(mu, 0.0) + EPS_TRACE**2)) @ vec.T
        new_ws = []
        for p, x in enumerate(xs):
            a = grams[p].copy()
            if cfg.lambda1 > 0:
                diag = 1.0 / (2.0 * np.maximum(np.linalg.norm(ws[p], axis=1), EPS_L21))
                a[np.diag_indices_from(a)] += 2.0 * cfg.lambda1 * diag
            if cfg.lambda2 > 0:
                a += cfg.lambda2 * (x @ inv_sqrt @ x.T)
            new_ws.append(cho_solve(a, rhs0[p]))
        ws = new_ws
        trace.append(objective(ws))
        if abs(trace[-2] - trace[-1]) <= cfg.tol * max(abs(trace[-2]), 1.0):
            break
    return ws, trace


REFERENCE_CASES = [
    # (n, d_a, d_b, c, lambda1, lambda2, graph_k): d_a == d_b adds cross-modal k-NN links
    (40, 6, 6, 3, 0.05, 0.1, 3),
    (50, 7, 5, 2, 0.5, 0.02, 5),
    (30, 5, 5, 2, 0.0, 0.3, 4),
    (30, 6, 4, 3, 0.2, 0.0, 5),
    (12, 5, 5, 3, 0.1, 1.0, 50),
    (35, 8, 8, 4, 1e-3, 2.0, 35),
]


@pytest.mark.parametrize("n, d_a, d_b, c, lambda1, lambda2, k", REFERENCE_CASES)
@pytest.mark.parametrize("seed", range(3))
def test_jfssl_equals_dense_laplacian_reference(seed, n, d_a, d_b, c, lambda1, lambda2, k):
    ds = random_paired_dataset(np.random.default_rng(seed), n=n, d_a=d_a, d_b=d_b, c=c)
    cfg = SparseCoupledConfig(lambda1=lambda1, lambda2=lambda2, graph_k=k, max_iters=60)
    assert_jfssl_matches_reference(ds, cfg)


def assert_jfssl_matches_reference(ds, cfg):
    # the fitter multiplies by the d_a x d_b cross block x_a L_ab x_b' where the reference multiplies
    # by L_ab between the projections, and the dense-Laplacian objective sums in another order; both
    # only round differently: on the fixed cases the weights differ by at most 1.2e-15 of the largest
    # entry and the traces by 7e-16, on 1,500 random shapes by 1.3e-14 and 2.3e-14
    model = fit_jfssl(ds, cfg)
    (wa, wb), trace = reference_jfssl(ds, cfg)
    assert model.hyperparams["iterations"] == len(trace) - 1
    scale = max(np.abs(wa).max(), np.abs(wb).max())
    np.testing.assert_allclose(model.wa, wa, rtol=0, atol=1e-12 * scale)
    np.testing.assert_allclose(model.wb, wb, rtol=0, atol=1e-12 * scale)
    assert model.metadata["objective_trace"] == pytest.approx(trace, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d_a=st.integers(1, 8),
    d_b=st.integers(1, 8),
    same_d=st.booleans(),
    c=st.integers(2, 4),
    extra=st.integers(1, 30),
    lambda1=st.sampled_from([0.0, 1e-3, 0.1, 1.0]),
    lambda2=st.sampled_from([1e-3, 0.1, 1.0, 10.0]),
    k=st.integers(1, 8),
)
def test_jfssl_matches_dense_laplacian_reference_on_random_shapes(seed, d_a, d_b, same_d, c, extra, lambda1, lambda2, k):
    # n > d_a, d_b keeps both Grams positive definite; d_a == d_b adds the cross-modal k-NN links
    d_b = d_a if same_d else d_b
    n = max(d_a, d_b, c) + extra
    ds = random_paired_dataset(np.random.default_rng(seed), n=n, d_a=d_a, d_b=d_b, c=c)
    assert_jfssl_matches_reference(ds, SparseCoupledConfig(lambda1=lambda1, lambda2=lambda2, graph_k=k, max_iters=40))


@pytest.mark.parametrize("n, d_a, d_b, c, lambda1, lambda2, k", REFERENCE_CASES)
@pytest.mark.parametrize("seed", range(3))
def test_lcfs_equals_explicit_diagonal_reference(seed, n, d_a, d_b, c, lambda1, lambda2, k):
    ds = random_paired_dataset(np.random.default_rng(seed), n=n, d_a=d_a, d_b=d_b, c=c)
    cfg = SparseCoupledConfig(lambda1=lambda1, lambda2=lambda2, max_iters=60)
    model = fit_lcfs(ds, cfg)
    (wa, wb), trace = reference_lcfs(ds, cfg)
    # the fitter's majorizer comes from the SVD of M, the reference's from an n x n eigh of M M',
    # whose rounding moves the null-space weights around 1/eps by up to 3%; on these cases the
    # weights differ by at most 2.7e-9 of the largest entry and the final objectives by 5.2e-11
    assert model.hyperparams["iterations"] == len(trace) - 1
    scale = max(np.abs(wa).max(), np.abs(wb).max())
    np.testing.assert_allclose(model.wa, wa, rtol=0, atol=1e-8 * scale)
    np.testing.assert_allclose(model.wb, wb, rtol=0, atol=1e-8 * scale)
    assert model.metadata["objective_trace"][-1] == pytest.approx(trace[-1], rel=1e-9)


@pytest.mark.parametrize(
    "n, k, rank",
    [(12, 6, 6), (30, 4, 4), (4, 6, 4), (3, 8, 3), (12, 6, 2), (5, 8, 2), (7, 3, 0)],
    ids=["tall", "tall-narrow", "wide", "wide-3-rows", "tall-rank-2", "wide-rank-2", "zero"],
)
def test_trace_norm_from_singular_values_equals_dense_eigh(rng, n, k, rank):
    # the oracle is tr (M M' + eps^2 I)^{1/2} from the n x n eigh in 40-digit arithmetic: a float64
    # eigh rounds the null-space eigenvalues of M M' by about 1e-16 ||M||^2, which is not small next to eps^2
    import mpmath

    m = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, k))
    with mpmath.workdps(40):
        gram = mpmath.matrix(m.tolist()) * mpmath.matrix(m.T.tolist()) + EPS_TRACE**2 * mpmath.eye(n)
        dense = float(sum(mpmath.sqrt(mu) for mu in mpmath.eigsy(gram, eigvals_only=True)))
    s = np.linalg.svd(m, compute_uv=False)
    assert s.size == min(n, k)
    assert coupled.smoothed_trace_norm(s, n) == pytest.approx(dense, rel=1e-12)


@pytest.mark.parametrize("n, d_a, d_b, c, lambda1, lambda2, k", REFERENCE_CASES)
def test_jfssl_trace_equals_dense_objective(rng, n, d_a, d_b, c, lambda1, lambda2, k):
    ds = random_paired_dataset(rng, n=n, d_a=d_a, d_b=d_b, c=c)
    for max_iters in (1, 2, 5, 60):
        cfg = SparseCoupledConfig(lambda1=lambda1, lambda2=lambda2, graph_k=k, max_iters=max_iters)
        model = fit_jfssl(ds, cfg)
        dense = dense_jfssl_objective(ds, cfg, (model.wa, model.wb), jfssl_laplacian(ds, cfg))
        assert model.metadata["objective_trace"][-1] == pytest.approx(dense, rel=1e-12)


def symmetrized_block_graph(ds, k):
    """The multimodal affinity as max(W, W') of the block matrix with the inter block above the diagonal."""
    n = ds.n
    inter = np.eye(n, dtype=bool)
    if ds.d_a == ds.d_b:
        d2 = _pairwise_sq_dists(ds.xa.values, ds.xb.values)
        d2 = np.where(ds.labels[:, None] == ds.labels[None, :], d2, np.inf)
        inter |= _knn_mask(d2, k) | _knn_mask(d2.T, k).T
    intra_a, intra_b = (knn_graph(x, min(k, n - 1)) for x in (ds.xa, ds.xb))
    return _symmetrized(np.block([[intra_a, inter], [np.zeros((n, n)), intra_b]]))


@pytest.mark.parametrize("n", [304, 61])
@pytest.mark.parametrize("d_a, d_b", [(32, 32), (32, 19)])
def test_graph_state_equals_dense_laplacian_slices(n, d_a, d_b):
    # the blocks of L = diag(deg) - W, not the whole 2n x 2n L, give bit-identical products
    ds = random_paired_dataset(np.random.default_rng(n + d_b), n=n, d_a=d_a, d_b=d_b, c=3)
    for k in (1, 5):
        graph = multimodal_graph(ds, k)
        assert np.array_equal(graph, symmetrized_block_graph(ds, k))
        lap, xa, xb = laplacian(graph), ds.xa.values, ds.xb.values
        c_ab, (g_a, g_b) = coupled._graph_state(ds, k, None)
        assert np.array_equal(c_ab, xa @ lap[:n, n:] @ xb.T)
        assert np.array_equal(g_a, xa @ lap[:n, :n] @ xa.T)
        assert np.array_equal(g_b, xb @ lap[n:, n:] @ xb.T)


def solve_psd(a, rhs):
    """w for the normal system a w = rhs with no block and no l21 diagonal, as the least-squares start solves it."""
    return _NormalSystem(a, None, "test").solve(None, rhs)


def test_solve_psd_equals_cho_solve(rng):
    for d in (1, 3, 8, 40):
        for _ in range(20):
            x = rng.standard_normal((d, d + 5))
            a, rhs = x @ x.T, rng.standard_normal((d, 3))
            assert np.array_equal(solve_psd(a, rhs), cho_solve(a, rhs))


def test_solve_psd_singular_takes_min_norm_lstsq():
    x = np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 1.0]])  # rows 0 and 1 proportional: x x' has rank 2
    a, rhs = x @ x.T, x @ np.array([[1.0, -1.0], [0.5, 2.0]])
    with pytest.raises(la.LinAlgError):
        la.cho_factor(a)
    w = solve_psd(a, rhs)
    np.testing.assert_array_equal(w, np.linalg.lstsq(a, rhs, rcond=None)[0])
    np.testing.assert_allclose(a @ w, rhs, atol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["a", "rhs"])
def test_solve_psd_non_finite_raises(rng, bad, where):
    x = rng.standard_normal((4, 9))
    system = {"a": x @ x.T, "rhs": rng.standard_normal((4, 2))}
    system[where][1, 1] = bad
    with pytest.raises(NumericalError) as err:
        solve_psd(system["a"], system["rhs"])
    assert err.value.code == "divergence"


def triangles_apart(rng, d):
    """An SPD matrix whose upper triangle is one ulp above its lower one, as JFSSL's systems
    (a sum of general products) can be; LAPACK reads the upper triangle only."""
    x = rng.standard_normal((d, d + 5))
    a = x @ x.T + np.eye(d)
    upper = np.triu_indices(d, 1)
    a[upper] = np.nextafter(a[upper], np.inf)
    assert d == 1 or not np.array_equal(a, a.T)
    return a


@pytest.mark.parametrize("d", [1, 2, 7, 40, 128])
def test_solve_psd_reads_the_upper_triangle_in_either_memory_order(rng, d):
    # the Fortran-ordered systems of the coupled loop give the bits the C-ordered ones gave
    for _ in range(5):
        a, rhs = triangles_apart(rng, d), rng.standard_normal((d, 3))
        expected = cho_solve(a, rhs)
        for copy in (np.ascontiguousarray(a), np.asfortranarray(a)):
            assert np.array_equal(solve_psd(copy, rhs), expected)


@pytest.mark.parametrize("order", ["C", "F"])
def test_solve_psd_leaves_the_system_unmodified(rng, order):
    a, rhs = np.array(triangles_apart(rng, 12), order=order), rng.standard_normal((12, 2))
    saved = a.copy(order="K"), rhs.copy()
    solve_psd(a, rhs)
    assert np.array_equal(a, saved[0]) and np.array_equal(rhs, saved[1])
    # the singular case: the failed factorization leaves a for the min-norm lstsq fallback
    x = np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 1.0]])
    a, rhs = np.array(x @ x.T, order=order), x @ np.array([[1.0, -1.0], [0.5, 2.0]])
    saved = a.copy(order="K")
    w = solve_psd(a, rhs)
    assert np.array_equal(a, saved)
    assert np.array_equal(w, np.linalg.lstsq(saved, rhs, rcond=None)[0])
    # with a block and an l21 diagonal: the split's memoized Gram and the block stay as they were
    ds = random_paired_dataset(rng, n=20, d_a=12, d_b=5, c=2)
    context = SplitContext(ds)
    gram = coupled._regression_start(ds, context)[2][0]
    block, rhs = np.array(triangles_apart(rng, 12), order=order), rng.standard_normal((12, 2))
    saved = gram.copy(order="K"), block.copy(order="K"), rhs.copy()
    system = _NormalSystem(gram, block, "test")
    for l21_diagonal in (rng.random(12), None):
        system.solve(l21_diagonal, rhs)
    assert coupled._regression_start(ds, context)[2][0] is gram
    assert all(np.array_equal(now, then) for now, then in zip((gram, block, rhs), saved))


@pytest.mark.parametrize("fitter", [fit_lcfs, fit_jfssl])
def test_coupled_systems_reach_lapack_in_fortran_order(rng, monkeypatch, fitter):
    # a C-ordered system would cost a transposing copy before every factorization, and a C-ordered
    # Gram or block a slow mixed-order addition into the Fortran-ordered system
    ds = random_paired_dataset(rng, n=45, d_a=7, d_b=6, c=3)
    systems, handed = [], []
    dposv, fit_coupled = la.lapack.dposv, coupled._fit_coupled

    def recording_dposv(a, *args, **kwargs):
        systems.append(a)
        return dposv(a, *args, **kwargs)

    def recording_fit(method, train, config, start, t0, loss_scale, coupling, echo=None, fixed_blocks=(None, None)):
        def recording_coupling(ws, projs):
            term, blocks, cross = coupling(ws, projs)
            if blocks is not None:
                blocks = list(blocks)
                handed.extend(blocks)
            return term, blocks, cross

        handed.extend(start[2])  # the Grams
        handed.extend(block for block in fixed_blocks if block is not None)
        return fit_coupled(method, train, config, start, t0, loss_scale, recording_coupling, echo, fixed_blocks)

    monkeypatch.setattr(la.lapack, "dposv", recording_dposv)
    monkeypatch.setattr(coupled, "_fit_coupled", recording_fit)
    context = SplitContext(ds)
    for l1, l2 in ((0.1, 0.5), (0.0, 0.3), (0.2, 0.0)):
        model = fitter(ds, SparseCoupledConfig(lambda1=l1, lambda2=l2, max_iters=5), context=context)
        assert model.hyperparams["iterations"] >= 1
    assert len(systems) > 2 and len(handed) > 6
    assert all(a.flags.f_contiguous for a in systems + handed)


class AddingSystem:
    """A stand-in for ``_NormalSystem`` that sums the system afresh at every solve: the l21 diagonal
    added to a copy of the Gram, then the block, the sum checked whole, and one posv call on a copy
    of it, which stays for the min-norm lstsq fallback.  These are the bits a ``_NormalSystem``,
    built once and its diagonal rewritten at each solve, must reproduce."""

    def __init__(self, gram, block, context):
        self.gram, self.block, self.context = gram, block, context

    def solve(self, l21_diagonal, rhs):
        a = self.gram.copy(order="K")
        if l21_diagonal is not None:
            a.ravel(order="K")[:: a.shape[0] + 1] += l21_diagonal
        if self.block is not None:
            a += self.block
        if not (np.isfinite(a).all() and np.isfinite(rhs).all()):
            raise NumericalError("divergence", f"{self.context}: non-finite normal system")
        _, w, info = la.lapack.dposv(a, rhs, lower=False)
        return w if info == 0 else np.linalg.lstsq(a, rhs, rcond=None)[0]


def fit_adding_blocks_each_step(monkeypatch, fitter, ds, cfg):
    """The fit, least-squares start included, with every normal system summed afresh at each solve."""
    with monkeypatch.context() as patch:
        patch.setattr(coupled, "_NormalSystem", AddingSystem)
        return fitter(ds, cfg)


def count_calls(monkeypatch, module, names, fortran=None):
    """Count the calls to ``module``'s routines ``names``; ``fortran`` collects whether each call's
    matrix came Fortran-contiguous, the layout LAPACK reads without a transposing copy."""
    counts = dict.fromkeys(names, 0)
    for name in names:

        def counting(*args, _name=name, _routine=getattr(module, name), **kwargs):
            counts[_name] += 1
            if fortran is not None:
                fortran.append(args[0].flags.f_contiguous)
            return _routine(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return counts


def assert_same_fit(model, expected):
    assert np.array_equal(model.wa, expected.wa) and np.array_equal(model.wb, expected.wb)
    assert model.metadata["objective_trace"] == expected.metadata["objective_trace"]


# (fitter, lambda1, lambda2): fixed systems (JFSSL's, and either fitter's at lambda2 = 0) with and
# without the l21 diagonal, and LCFS's blocks, which change with every iterate
SOLVE_CASES = [
    (fit_jfssl, 0.0, 0.5),
    (fit_jfssl, 0.0, 0.0),
    (fit_lcfs, 0.0, 0.0),
    (fit_jfssl, 0.1, 0.5),
    (fit_jfssl, 0.1, 0.0),
    (fit_lcfs, 0.0, 0.5),
    (fit_lcfs, 0.1, 0.5),
    (fit_lcfs, 0.1, 0.0),
]


@pytest.mark.parametrize("fitter, lambda1, lambda2", SOLVE_CASES)
def test_each_step_solves_each_block_with_one_posv_call(rng, monkeypatch, fitter, lambda1, lambda2):
    # a fixed system's copy with its diagonal rewritten must give the bits of the system summed afresh
    ds = random_paired_dataset(rng, n=45, d_a=7, d_b=6, c=3)
    cfg = SparseCoupledConfig(lambda1=lambda1, lambda2=lambda2, max_iters=12, tol=1e-12)
    expected = fit_adding_blocks_each_step(monkeypatch, fitter, ds, cfg)
    context = SplitContext(ds)
    coupled._regression_start(ds, context)  # the least-squares start's two solves, outside the count
    fortran = []
    counts = count_calls(monkeypatch, la.lapack, ("dposv",), fortran)
    model = fitter(ds, cfg, context=context)
    steps = model.hyperparams["iterations"]
    assert steps >= 1 and (steps > 1 or lambda1 == lambda2 == 0)
    assert counts["dposv"] == len(fortran) == 2 * steps and all(fortran)
    assert_same_fit(model, expected)
    if fitter is fit_jfssl:
        assert_jfssl_matches_reference(ds, cfg)
    if lambda1 == lambda2 == 0:
        start = coupled._regression_start(ds, None)[4]
        assert np.array_equal(model.wa, start[0]) and np.array_equal(model.wb, start[1])


@pytest.mark.parametrize("fitter, lambda2", [(fit_jfssl, 0.5), (fit_jfssl, 0.0), (fit_lcfs, 0.5), (fit_lcfs, 0.0)])
def test_singular_systems_take_the_min_norm_fallback_at_every_step(monkeypatch, fitter, lambda2):
    # d > n_train: the Grams have rank at most n, so at lambda1 = 0 every system is singular; the
    # fallback's weights vary with the BLAS kernel, so the system summed afresh is the oracle
    ds = random_paired_dataset(np.random.default_rng(0), n=9, d_a=14, d_b=12, c=3)
    cfg = SparseCoupledConfig(lambda1=0.0, lambda2=lambda2)
    expected = fit_adding_blocks_each_step(monkeypatch, fitter, ds, cfg)
    context = SplitContext(ds)
    coupled._regression_start(ds, context)
    counts = count_calls(monkeypatch, la.lapack, ("dposv",))
    fallbacks = count_calls(monkeypatch, np.linalg, ("lstsq",))
    model = fitter(ds, cfg, context=context)
    steps = model.hyperparams["iterations"]
    assert steps > 1 or lambda2 == 0
    assert counts["dposv"] == fallbacks["lstsq"] == 2 * steps
    assert_same_fit(model, expected)


def poison_start(monkeypatch, part):
    """Put an inf in one Gram or one x_p y of every least-squares start, after the start is solved."""
    start = coupled._regression_start

    def poisoned(train, context):
        xs, y, grams, rhs, ws = start(train, context)
        grams, rhs = [np.array(g, order="K") for g in grams], [r.copy() for r in rhs]
        {"gram": grams, "rhs": rhs}[part][1][1, 1] = np.inf
        return xs, y, grams, rhs, ws

    monkeypatch.setattr(coupled, "_regression_start", poisoned)


@pytest.mark.parametrize("part", ["gram", "rhs"])
@pytest.mark.parametrize("lambda1, lambda2", [(0.0, 0.5), (0.1, 0.5), (0.1, 0.0), (0.0, 0.0)])
@pytest.mark.parametrize("fitter", [fit_lcfs, fit_jfssl])
def test_non_finite_normal_system_raises_divergence(rng, monkeypatch, fitter, lambda1, lambda2, part):
    # the objective never reads the Grams or x_p y, so only a step's system check can see the inf:
    # fixed systems check G_p + B_p once, each step its diagonal and right-hand side
    ds = random_paired_dataset(rng, n=30, d_a=5, d_b=4, c=2)
    poison_start(monkeypatch, part)
    with pytest.raises(NumericalError, match="non-finite normal system") as err:
        fitter(ds, SparseCoupledConfig(lambda1=lambda1, lambda2=lambda2))
    assert err.value.code == "divergence"


@pytest.mark.parametrize("lambda1", [0.0, 0.1])
def test_non_finite_graph_state_raises_divergence(rng, monkeypatch, lambda1):
    ds = random_paired_dataset(rng, n=30, d_a=5, d_b=4, c=2)
    graph_state = coupled._graph_state

    def poisoned(train, k, context):
        c_ab, (g_a, g_b) = graph_state(train, k, context)
        g_a = g_a.copy()
        g_a[0, 0] = np.inf
        return c_ab, [g_a, g_b]

    monkeypatch.setattr(coupled, "_graph_state", poisoned)
    with pytest.raises(NumericalError) as err:
        fit_jfssl(ds, SparseCoupledConfig(lambda1=lambda1, lambda2=0.5))
    assert err.value.code == "divergence"


@pytest.mark.parametrize("lambda2", [0.0, 0.5])
@pytest.mark.parametrize("fitter", [fit_lcfs, fit_jfssl])
def test_overflowing_l21_diagonal_raises_divergence(rng, fitter, lambda2):
    # large features give rows of norm about 1e-3, so the objective stays finite at lambda1 = 1e308
    # while the l21 diagonal, lambda1 / (2 ||w_i||), overflows: only the diagonal check sees it, and
    # numpy must not warn first (pyproject turns its RuntimeWarning into an error)
    ds = random_paired_dataset(rng, n=30, d_a=5, d_b=4, c=2)
    ds = paired_dataset(1e3 * ds.xa.values, 1e3 * ds.xb.values, ds.labels, ds.c)
    with pytest.raises(NumericalError, match="non-finite normal system") as err:
        fitter(ds, SparseCoupledConfig(lambda1=1e308, lambda2=lambda2))
    assert err.value.code == "divergence"


@pytest.mark.parametrize("fitter", [fit_lcfs, fit_jfssl])
def test_overflowing_diagonal_sum_raises_divergence(rng, fitter):
    # features scaled so that the Grams' largest diagonal entry is 1.5e308 give least-squares rows far
    # below EPS_L21, so at lambda1 = 1e302 the l21 diagonal is finite (5e307 for JFSSL, 1e308 for LCFS)
    # and only its sum with the Gram's diagonal overflows: the system's diagonal check must see it
    # before numpy warns (pyproject turns the warning into an error)
    ds = random_paired_dataset(rng, n=30, d_a=5, d_b=4, c=2)
    scale = np.sqrt(1.5e308 / max((x.values**2).sum(axis=1).max() for x in (ds.xa, ds.xb)))
    ds = paired_dataset(scale * ds.xa.values, scale * ds.xb.values, ds.labels, ds.c)
    with pytest.raises(NumericalError, match="non-finite normal system") as err:
        fitter(ds, SparseCoupledConfig(lambda1=1e302, lambda2=0.0))
    assert err.value.code == "divergence"


@pytest.mark.parametrize("fitter", [fit_lcfs, fit_jfssl])
def test_overflowing_objective_raises_divergence(fitter):
    # at lambda1 = 1e308 the start's smoothed l21 term overflows the objective before any step runs,
    # while every normal system is still finite: only the objective check sees it, at iteration 0
    ds = random_paired_dataset(np.random.default_rng(0), n=30, d_a=5, d_b=4, c=2)
    with pytest.raises(NumericalError, match="non-finite objective at iteration 0") as err:
        fitter(ds, SparseCoupledConfig(lambda1=1e308, lambda2=0.0))
    assert err.value.code == "divergence"


@settings(max_examples=200, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 12), st.integers(1, 6)),
        elements=st.floats(allow_nan=False, allow_infinity=False, width=64),
    ),
    st.sampled_from(["C", "F"]),
)
def test_row_norms_equal_linalg_norm(w, order):
    # extreme magnitudes included: squares that overflow to inf or underflow to 0 agree too
    w = np.array(w, order=order)
    with np.errstate(over="ignore", under="ignore"):
        assert np.array_equal(coupled._row_norms(w), np.linalg.norm(w, axis=1))
