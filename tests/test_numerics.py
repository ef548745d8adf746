import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xms.dataset_io import FeatureMatrix
from xms.errors import ConfigError, NumericalError
from xms.numerics import (
    _knn_mask,
    class_knn_graphs,
    covariances,
    knn_graph,
    l21_reweight,
    multimodal_graph,
    scatter,
    singular_value_shrink,
    solve_gev,
)
from tests.conftest import paired_dataset


def fm(values):
    return FeatureMatrix(np.asarray(values, dtype=float))


# ---------------------------------------------------------------------------
# covariances


def test_covariances_identical_views(rng):
    x = rng.standard_normal((3, 20))
    x -= x.mean(axis=1, keepdims=True)
    cov = covariances(fm(x), fm(x))
    np.testing.assert_allclose(cov.saa, cov.sbb)
    np.testing.assert_allclose(cov.saa, cov.sab)


def test_covariances_single_feature_arithmetic():
    cov = covariances(fm([[-1.0, 1.0]]), fm([[-2.0, 2.0]]))
    assert cov.saa[0, 0] == 2.0
    assert cov.sbb[0, 0] == 8.0
    assert cov.sab[0, 0] == 4.0


def test_covariances_independent_views_monte_carlo():
    r = np.random.default_rng(123)
    xa = r.standard_normal((3, 10000))
    xb = r.standard_normal((3, 10000))
    xa -= xa.mean(axis=1, keepdims=True)
    xb -= xb.mean(axis=1, keepdims=True)
    cov = covariances(fm(xa), fm(xb))
    assert np.linalg.norm(cov.sab) < 0.2 * np.linalg.norm(cov.saa)


def test_covariances_scale_equivariance(rng):
    xa = rng.standard_normal((4, 15))
    xb = rng.standard_normal((3, 15))
    xa -= xa.mean(axis=1, keepdims=True)
    xb -= xb.mean(axis=1, keepdims=True)
    alpha = 3.7
    base = covariances(fm(xa), fm(xb))
    scaled = covariances(fm(alpha * xa), fm(xb))
    np.testing.assert_allclose(scaled.sab, alpha * base.sab, rtol=1e-12)


def test_covariances_count_mismatch(rng):
    with pytest.raises(ConfigError):
        covariances(fm(rng.standard_normal((2, 5))), fm(rng.standard_normal((2, 6))))


# ---------------------------------------------------------------------------
# solve_gev


def test_solve_gev_diagonal_case():
    vals, vecs = solve_gev(np.diag([2.0, 1.0]), np.eye(2), 2)
    np.testing.assert_allclose(vals, [2.0, 1.0])
    np.testing.assert_allclose(np.abs(vecs), np.eye(2), atol=1e-12)


def test_solve_gev_characteristic_polynomial_oracle():
    # det([[2-l, 1], [1, 2-l]]) = 0  ->  l in {3, 1}
    vals, _ = solve_gev(np.array([[2.0, 1.0], [1.0, 2.0]]), np.eye(2), 2)
    np.testing.assert_allclose(vals, [3.0, 1.0], atol=1e-12)


def test_solve_gev_elementwise_ratio_oracle():
    vals, _ = solve_gev(np.diag([2.0, 4.0]), np.diag([1.0, 4.0]), 2)
    np.testing.assert_allclose(vals, [2.0, 1.0], atol=1e-12)


def test_solve_gev_residual_and_orthonormality_many_instances():
    r = np.random.default_rng(7)
    for _ in range(1000):
        size = int(r.integers(2, 51))
        k = int(r.integers(1, size + 1))
        a = r.standard_normal((size, size))
        a = 0.5 * (a + a.T)
        m = r.standard_normal((size, size))
        b = m @ m.T + size * np.eye(size)
        ridge = float(r.uniform(0, 0.1))
        vals, vecs = solve_gev(a, b, k, ridge)
        breg = b + ridge * np.eye(size)
        residual = a @ vecs - breg @ vecs * vals
        assert np.linalg.norm(residual) <= 1e-6 * max(np.linalg.norm(a), 1.0)
        np.testing.assert_allclose(vecs.T @ breg @ vecs, np.eye(k), atol=1e-6)
        assert np.all(np.diff(vals) <= 1e-12)


def test_solve_gev_singular_b_errors():
    with pytest.raises(NumericalError) as err:
        solve_gev(np.eye(3), np.zeros((3, 3)), 1, ridge=0.0)
    assert "ridge" in str(err.value)


# ---------------------------------------------------------------------------
# scatter


def test_scatter_every_sample_own_class(rng):
    x = fm(rng.standard_normal((3, 5)))
    s = scatter(x, np.arange(1, 6))
    assert np.abs(s.within).max() < 1e-12


def test_scatter_single_class(rng):
    x = fm(rng.standard_normal((3, 8)))
    s = scatter(x, np.ones(8, dtype=int))
    assert np.abs(s.between).max() < 1e-12


def test_scatter_brute_force_oracle():
    x = fm([[0.0, 2.0, 4.0, 6.0]])
    labels = np.array([1, 1, 2, 2])
    s = scatter(x, labels)
    # direct summation over samples
    within = 0.0
    between = 0.0
    mean = 3.0
    for cls, cols in ((1, [0.0, 2.0]), (2, [4.0, 6.0])):
        m_c = np.mean(cols)
        within += sum((v - m_c) ** 2 for v in cols)
        between += len(cols) * (m_c - mean) ** 2
    assert s.within[0, 0] == pytest.approx(within)
    assert s.between[0, 0] == pytest.approx(between)


def test_scatter_decomposition_total(rng):
    x = fm(rng.standard_normal((4, 30)))
    labels = rng.integers(1, 4, size=30)
    labels[:3] = [1, 2, 3]
    s = scatter(x, labels)
    xc = x.values - x.values.mean(axis=1, keepdims=True)
    total = xc @ xc.T
    np.testing.assert_allclose(s.within + s.between, total, atol=1e-8)


def test_scatter_empty_class_error(rng):
    with pytest.raises(NumericalError):
        scatter(fm(rng.standard_normal((2, 4))), [1, 1, 2, 2], n_classes=3)


# ---------------------------------------------------------------------------
# graphs


def test_knn_graph_two_clusters_block_diagonal():
    pts = np.array([[0.0, 0.1, 100.0, 100.1], [0.0, 0.0, 0.0, 0.0]])
    g = knn_graph(fm(pts), k=1)
    assert g.affinity[0, 1] > 0 and g.affinity[2, 3] > 0
    assert np.abs(g.affinity[:2, 2:]).max() == 0.0


def test_knn_graph_laplacian_annihilates_ones(rng):
    g = knn_graph(fm(rng.standard_normal((3, 15))), k=4)
    assert np.abs(g.laplacian @ np.ones(15)).max() < 1e-10


def test_knn_graph_three_collinear_points_hand_oracle():
    g = knn_graph(fm([[0.0, 1.0, 3.0]]), k=2)
    # distances: 0-1: 1, 0-2: 3, 1-2: 2; every pair is a kNN edge at k=2,
    # so the median edge distance, the bandwidth, is 2
    expect = lambda dist: np.exp(-(dist**2) / 4.0)
    assert g.affinity[0, 1] == pytest.approx(expect(1.0))
    assert g.affinity[1, 2] == pytest.approx(expect(2.0))
    assert g.affinity[0, 2] == pytest.approx(expect(3.0))
    assert np.all(np.diag(g.affinity) == 0.0)


def test_knn_graph_duplicate_samples_get_unit_weight():
    # the median k-NN distance is 0; the far point's only edge underflows to 0
    g = knn_graph(fm([[0.0, 0.0, 0.0, 1.0]]), k=1)
    expect = np.zeros((4, 4))
    expect[0, 1:3] = expect[1:3, 0] = 1.0
    assert np.array_equal(g.affinity, expect)


def test_knn_graph_invalid_k(rng):
    with pytest.raises(ConfigError):
        knn_graph(fm(rng.standard_normal((2, 5))), k=0)
    with pytest.raises(ConfigError):
        knn_graph(fm(rng.standard_normal((2, 5))), k=5)


def test_class_knn_graphs_structure():
    x = fm([[0.0, 1.0, 10.0, 11.0]])
    labels = [1, 1, 2, 2]
    intrinsic, penalty = class_knn_graphs(x, labels, k_intrinsic=1, k_penalty=1)
    assert intrinsic.affinity[0, 1] == 1.0 and intrinsic.affinity[2, 3] == 1.0
    assert np.abs(intrinsic.affinity[:2, 2:]).max() == 0.0
    assert penalty.affinity[1, 2] == 1.0  # closest cross-class pair
    assert np.abs(penalty.affinity[0, 1]) == 0.0


def test_multimodal_graph_two_distinct_classes_identity_inter(rng):
    ds = paired_dataset(rng.standard_normal((3, 2)), rng.standard_normal((3, 2)), [1, 2])
    g = multimodal_graph(ds, k=1)
    np.testing.assert_allclose(g.affinity[:2, 2:], np.eye(2))


def test_multimodal_graph_one_class_dense_inter(rng):
    n = 5
    ds = paired_dataset(rng.standard_normal((2, n)), rng.standard_normal((2, n)), np.ones(n, dtype=int))
    g = multimodal_graph(ds, k=n - 1)
    inter = g.affinity[:n, n:]
    # every same-class cross pair is within the k-NN union except possibly the
    # single farthest neighbour per row; true pairs always present
    assert np.all(np.diag(inter) == 1.0)
    assert inter.sum() >= n * (n - 1)


def test_multimodal_graph_laplacian_psd(rng):
    for seed in range(10):
        r = np.random.default_rng(seed)
        labels = r.integers(1, 3, size=8)
        labels[:2] = [1, 2]
        ds = paired_dataset(r.standard_normal((3, 8)), r.standard_normal((3, 8)), labels)
        g = multimodal_graph(ds, k=2)
        eigs = np.linalg.eigvalsh(g.laplacian)
        assert eigs.min() >= -1e-8
        np.testing.assert_allclose(g.laplacian, g.laplacian.T, atol=1e-12)
        assert np.abs(g.laplacian.sum(axis=1)).max() < 1e-10


# Per-row loop oracles: a row's k nearest are the first k of its candidates
# sorted by (squared distance, column), so ties go to the lower column.


def _sq_dists(x, y):
    return ((x[:, :, None] - y[:, None, :]) ** 2).sum(axis=0)  # exact for small-integer coordinates


def _nearest(row, candidates, k):
    return [j for _, j in sorted((row[j], j) for j in candidates)[:k]]


def _symmetrized_oracle(w):
    n = w.shape[0]
    return np.array([[max(w[i, j], w[j, i]) if i != j else 0.0 for j in range(n)] for i in range(n)])


def _laplacian_oracle(a):
    lap = -a.copy()
    for i in range(a.shape[0]):
        lap[i, i] = np.sum(a[i]) - a[i, i]
    return lap


def _knn_graph_oracle(x, k):
    n = x.shape[1]
    d2 = _sq_dists(x, x)
    mask = np.zeros((n, n), dtype=bool)
    for i in range(n):
        mask[i, _nearest(d2[i], [j for j in range(n) if j != i], k)] = True
    sigma = max(np.sqrt(np.median(d2[mask])), np.sqrt(np.finfo(float).tiny))
    w = np.zeros((n, n))
    with np.errstate(over="ignore"):
        w[mask] = np.exp(-d2[mask] / sigma**2)
    return _symmetrized_oracle(w)


def _class_knn_oracle(x, labels, k_intrinsic, k_penalty):
    n = x.shape[1]
    d2 = _sq_dists(x, x)
    intrinsic, penalty = np.zeros((n, n)), np.zeros((n, n))
    for i in range(n):
        same = [j for j in range(n) if j != i and labels[j] == labels[i]]
        other = [j for j in range(n) if labels[j] != labels[i]]
        intrinsic[i, _nearest(d2[i], same, k_intrinsic)] = 1.0
        penalty[i, _nearest(d2[i], other, k_penalty)] = 1.0
    return _symmetrized_oracle(intrinsic), _symmetrized_oracle(penalty)


def _multimodal_oracle(xa, xb, labels, k):
    n = xa.shape[1]
    inter = np.eye(n)
    if xa.shape[0] == xb.shape[0]:
        d2 = _sq_dists(xa, xb)
        for i in range(n):
            same = [j for j in range(n) if labels[j] == labels[i]]
            inter[i, _nearest(d2[i], same, k)] = 1.0  # a -> b
            inter[_nearest(d2[:, i], same, k), i] = 1.0  # b -> a
    intra_a, intra_b = (_knn_graph_oracle(x, min(k, n - 1)) for x in (xa, xb))
    return np.block([[intra_a, inter], [inter.T, intra_b]])


@st.composite
def graph_inputs(draw):
    n = draw(st.integers(2, 9))
    d_a, d_b = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def matrix(d):
        values = draw(st.lists(st.integers(-2, 2), min_size=d * n, max_size=d * n))
        return np.array(values, dtype=float).reshape(d, n)

    labels = np.array(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    return matrix(d_a), matrix(d_b), labels


@settings(max_examples=300, deadline=None)
@given(graph_inputs(), st.integers(1, 11), st.integers(1, 11), st.integers(1, 11))
def test_graph_builders_equal_per_row_oracles(inputs, k, k_intrinsic, k_penalty):
    # tied distances, classes smaller than k, k above n, one class, n = 2 and d_a != d_b
    xa, xb, labels = inputs
    n = xa.shape[1]
    graphs = [(knn_graph(fm(xa), min(k, n - 1)), _knn_graph_oracle(xa, min(k, n - 1)))]
    class_graphs = class_knn_graphs(fm(xa), labels, k_intrinsic, k_penalty)
    graphs += zip(class_graphs, _class_knn_oracle(xa, labels, k_intrinsic, k_penalty))
    graphs.append((multimodal_graph(paired_dataset(xa, xb, labels), k), _multimodal_oracle(xa, xb, labels, k)))
    for graph, affinity in graphs:
        assert np.array_equal(graph.affinity, affinity)
        assert np.array_equal(graph.laplacian, _laplacian_oracle(affinity))


def _knn_mask_oracle(d, k):
    # first k of each row stably sorted ascending with NaN last, less the non-finite entries
    mask = np.zeros(d.shape, dtype=bool)
    for i, row in enumerate(d):
        order = sorted(range(row.size), key=lambda j: (np.isnan(row[j]), 0.0 if np.isnan(row[j]) else row[j], j))
        mask[i, [j for j in order[:k] if np.isfinite(row[j])]] = True
    return mask


@st.composite
def knn_mask_inputs(draw):
    n, m = draw(st.integers(0, 6)), draw(st.integers(1, 40))
    base = st.integers(0, 3).map(float) if draw(st.booleans()) else st.floats(0, 1)
    special = st.sampled_from([np.inf, -np.inf, np.nan])
    entry = st.one_of(*[base] * draw(st.integers(1, 4)), special)
    values = np.array(draw(st.lists(entry, min_size=n * m, max_size=n * m)), dtype=float)
    d = values.reshape(m, n).T if draw(st.booleans()) else values.reshape(n, m)  # transposed: as multimodal_graph
    return d, draw(st.integers(1, m + 2))


@settings(max_examples=300, deadline=None)
@given(knn_mask_inputs())
def test_knn_mask_equals_stable_sort_oracle(inputs):
    # ties (small integers), tie-free rows, inf/-inf/NaN, rows with fewer than k finite entries, k >= m
    d, k = inputs
    assert np.array_equal(_knn_mask(d, k), _knn_mask_oracle(d, k))


# ---------------------------------------------------------------------------
# l21 reweighting and singular value shrinkage


def test_l21_reweight_formula():
    w = np.array([[1.0, 0.0], [0.0, 2.0]])
    d = l21_reweight(np.linalg.norm(w, axis=1), eps=1e-12)
    assert d.shape == (2,)
    np.testing.assert_array_equal(d, 1.0 / (2.0 * np.maximum(np.linalg.norm(w, axis=1), 1e-12)))
    np.testing.assert_allclose(d, [0.5, 0.25])


def test_l21_reweight_clamps_zero_rows():
    d = l21_reweight(np.linalg.norm(np.array([[0.0, 0.0], [3.0, 4.0]]), axis=1), eps=1e-6)
    assert d.shape == (2,)
    assert d[0] == pytest.approx(5e5)
    assert d[1] == pytest.approx(0.1)


def test_l21_majorization_inequality(rng):
    # tr(W' D(W0) W) + l21(W0)/2 >= l21(W) with equality at W = W0
    for _ in range(100):
        w0 = rng.standard_normal((6, 3))
        w = rng.standard_normal((6, 3))
        d = l21_reweight(np.linalg.norm(w0, axis=1), eps=1e-12)
        l21 = lambda m: np.linalg.norm(m, axis=1).sum()
        surrogate = np.sum(d[:, None] * w * w) + 0.5 * l21(w0)
        assert surrogate >= l21(w) - 1e-9
        at_w0 = np.sum(d[:, None] * w0 * w0) + 0.5 * l21(w0)
        assert at_w0 == pytest.approx(l21(w0))


def test_svt_tau_zero_identity(rng):
    m = rng.standard_normal((4, 6))
    np.testing.assert_allclose(singular_value_shrink(m, 0.0), m, atol=1e-10)


def test_svt_large_tau_zeroes(rng):
    m = rng.standard_normal((4, 4))
    tau = np.linalg.svd(m, compute_uv=False).max()
    assert np.abs(singular_value_shrink(m, tau)).max() < 1e-12


def test_svt_known_singular_values(rng):
    # construct a rank-2 matrix with singular values [3, 1] by design
    u, _ = np.linalg.qr(rng.standard_normal((5, 2)))
    v, _ = np.linalg.qr(rng.standard_normal((4, 2)))
    m = u @ np.diag([3.0, 1.0]) @ v.T
    out = singular_value_shrink(m, 2.0)
    s = np.linalg.svd(out, compute_uv=False)
    np.testing.assert_allclose(s[:2], [1.0, 0.0], atol=1e-10)
