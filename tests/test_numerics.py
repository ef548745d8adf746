import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xms.dataset_io import FeatureMatrix
from xms.errors import ConfigError, NumericalError
from xms.numerics import (
    _knn_mask,
    class_knn_graphs,
    covariances,
    default_ridge,
    knn_graph,
    laplacian,
    laplacian_per_weight,
    multimodal_graph,
    scatter,
    solve_gev,
)
from xms.methods.coupled import EPS_L21, smoothed_l21
from xms.preprocess import fix_signs
from tests.conftest import paired_dataset


def fm(values):
    return FeatureMatrix(np.asarray(values, dtype=float))


# ---------------------------------------------------------------------------
# covariances


def test_covariances_identical_views(rng):
    x = rng.standard_normal((3, 20))
    x -= x.mean(axis=1, keepdims=True)
    saa, sbb, sab = covariances(fm(x), fm(x))
    np.testing.assert_allclose(saa, sbb)
    np.testing.assert_allclose(saa, sab)


def test_covariances_single_feature_arithmetic():
    saa, sbb, sab = covariances(fm([[-1.0, 1.0]]), fm([[-2.0, 2.0]]))
    assert saa[0, 0] == 2.0
    assert sbb[0, 0] == 8.0
    assert sab[0, 0] == 4.0


def test_covariances_independent_views_monte_carlo():
    r = np.random.default_rng(123)
    xa = r.standard_normal((3, 10000))
    xb = r.standard_normal((3, 10000))
    xa -= xa.mean(axis=1, keepdims=True)
    xb -= xb.mean(axis=1, keepdims=True)
    saa, _, sab = covariances(fm(xa), fm(xb))
    assert np.linalg.norm(sab) < 0.2 * np.linalg.norm(saa)


def test_covariances_scale_equivariance(rng):
    xa = rng.standard_normal((4, 15))
    xb = rng.standard_normal((3, 15))
    xa -= xa.mean(axis=1, keepdims=True)
    xb -= xb.mean(axis=1, keepdims=True)
    alpha = 3.7
    base_sab = covariances(fm(xa), fm(xb))[2]
    scaled_sab = covariances(fm(alpha * xa), fm(xb))[2]
    np.testing.assert_allclose(scaled_sab, alpha * base_sab, rtol=1e-12)


def test_covariances_count_mismatch(rng):
    with pytest.raises(ConfigError):
        covariances(fm(rng.standard_normal((2, 5))), fm(rng.standard_normal((2, 6))))


def test_covariances_need_two_samples():
    with pytest.raises(ConfigError) as err:
        covariances(fm([[1.0], [2.0]]), fm([[3.0]]))
    assert err.value.code == "n_mismatch"


@pytest.mark.parametrize("k", [0, 3, True, 2.0])
def test_solve_gev_k_out_of_range(k):
    for b in (np.eye(2), None):
        with pytest.raises(ConfigError) as err:
            solve_gev(np.diag([2.0, 1.0]), b, k)
        assert err.value.code == "bad_k"


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


def test_solve_gev_tied_eigenvalues_keep_the_stable_argsort_order():
    # eigh returns ascending eigenvalues, so the top k are its last k columns reversed: the order a
    # stable argsort gave, also among equal eigenvalues.  Diagonal A = diag(d s), B = diag(s) with s a
    # power of 4 has the eigenvalues d exactly, ties included.
    r = np.random.default_rng(3)
    tied = 0
    for _ in range(50):
        size = int(r.integers(2, 9))
        s = 4.0 ** r.integers(0, 3, size)
        a, b = np.diag(r.integers(-2, 3, size) * s), np.diag(s)
        w, v = la.eigh(a, b)
        tied += np.unique(w).size < size
        order = np.argsort(w, kind="stable")[::-1]
        for k in range(1, size + 1):
            vals, vecs = solve_gev(a, b, k)
            assert np.array_equal(vals, w[order[:k]])
            assert np.array_equal(vecs, fix_signs(v[:, order[:k]]))
    assert tied >= 30  # most draws hold a tie


def test_solve_gev_without_b_equals_identity_b_bit_for_bit():
    # b=None solves the standard problem; the generalized solver's reduction by I changes no bit
    r = np.random.default_rng(11)
    for trial in range(120):
        size = int(r.integers(1, 70))
        if trial % 3 == 0:  # tied eigenvalues, exactly
            a = np.diag(r.integers(-2, 3, size).astype(float))
        elif trial % 3 == 1:  # tied eigenvalues up to rounding, in a rotated basis
            q = np.linalg.qr(r.standard_normal((size, size)))[0]
            a = (q * r.integers(-2, 3, size)) @ q.T
            a = 0.5 * (a + a.T)
        else:
            a = r.standard_normal((size, size))
            a = a + a.T
        for k in {1, int(r.integers(1, size + 1)), size}:
            vals, vecs = solve_gev(a, None, k)
            ref_vals, ref_vecs = solve_gev(a, np.eye(size), k)
            assert np.array_equal(vals, ref_vals) and np.array_equal(vecs, ref_vecs)


def test_solve_gev_without_b_refuses_a_ridge():
    with pytest.raises(ConfigError) as err:
        solve_gev(np.eye(3), None, 1, ridge=1e-3)
    assert err.value.code == "bad_hyperparam"
    with pytest.raises(ConfigError) as err:
        solve_gev(np.ones((3, 2)), None, 1)
    assert err.value.code == "shape_mismatch"


def test_solve_gev_singular_b_errors():
    with pytest.raises(NumericalError) as err:
        solve_gev(np.eye(3), np.zeros((3, 3)), 1, ridge=0.0)
    assert "ridge" in str(err.value)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_solve_gev_refuses_a_non_finite_a_or_b_before_lapack(bad):
    # LAPACK would refuse them with an untyped error; a product of large finite features gets there
    spoiled = np.eye(3)
    spoiled[1, 2] = spoiled[2, 1] = bad
    for a, b in ((spoiled, np.eye(3)), (np.eye(3), spoiled), (spoiled, None)):
        with pytest.raises(NumericalError) as err:
            solve_gev(a, b, 1)
        assert err.value.code == "divergence"


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 130), min_size=1, max_size=3), st.integers(0, 2**32 - 1))
def test_default_ridge_of_the_blocks_equals_that_of_the_assembled_b(sizes, seed):
    # solve_block_gev and GMA's per-view solves take the ridge from B's diagonal blocks; it is the ridge
    # of the block-diagonal B, 1e-4 * trace(B) / size(B), bit for bit, its diagonal summed in place
    r = np.random.default_rng(seed)
    blocks = [r.standard_normal((size, size)) * 10.0 ** r.integers(-3, 4) for size in sizes]
    b = la.block_diag(*blocks)
    assert default_ridge(blocks) == 1e-4 * np.diagonal(b).sum() / b.shape[0]


# ---------------------------------------------------------------------------
# scatter


def test_scatter_every_sample_own_class(rng):
    x = fm(rng.standard_normal((3, 5)))
    within, _, _ = scatter(x, np.arange(1, 6))
    assert np.abs(within).max() < 1e-12


def test_scatter_needs_one_label_per_sample():
    with pytest.raises(ConfigError) as err:
        scatter(fm([[0.0, 1.0, 2.0]]), [1, 2])
    assert err.value.code == "n_mismatch"


def test_scatter_single_class(rng):
    x = fm(rng.standard_normal((3, 8)))
    _, between, _ = scatter(x, np.ones(8, dtype=int))
    assert np.abs(between).max() < 1e-12


def test_scatter_brute_force_oracle():
    x = fm([[0.0, 2.0, 4.0, 6.0]])
    labels = np.array([1, 1, 2, 2])
    s_within, s_between, _ = scatter(x, labels)
    # direct summation over samples
    within = 0.0
    between = 0.0
    mean = 3.0
    for cls, cols in ((1, [0.0, 2.0]), (2, [4.0, 6.0])):
        m_c = np.mean(cols)
        within += sum((v - m_c) ** 2 for v in cols)
        between += len(cols) * (m_c - mean) ** 2
    assert s_within[0, 0] == pytest.approx(within)
    assert s_between[0, 0] == pytest.approx(between)


def test_scatter_decomposition_total(rng):
    x = fm(rng.standard_normal((4, 30)))
    labels = rng.integers(1, 4, size=30)
    labels[:3] = [1, 2, 3]
    within, between, _ = scatter(x, labels)
    xc = x.values - x.values.mean(axis=1, keepdims=True)
    total = xc @ xc.T
    np.testing.assert_allclose(within + between, total, atol=1e-8)


# ---------------------------------------------------------------------------
# graphs


def test_knn_graph_two_clusters_block_diagonal():
    pts = np.array([[0.0, 0.1, 100.0, 100.1], [0.0, 0.0, 0.0, 0.0]])
    g = knn_graph(fm(pts), k=1)
    assert g[0, 1] > 0 and g[2, 3] > 0
    assert np.abs(g[:2, 2:]).max() == 0.0


def test_knn_graph_laplacian_annihilates_ones(rng):
    g = knn_graph(fm(rng.standard_normal((3, 15))), k=4)
    assert np.abs(laplacian(g) @ np.ones(15)).max() < 1e-10


def test_knn_graph_three_collinear_points_hand_oracle():
    g = knn_graph(fm([[0.0, 1.0, 3.0]]), k=2)
    # distances: 0-1: 1, 0-2: 3, 1-2: 2; every pair is a kNN edge at k=2,
    # so the median edge distance, the bandwidth, is 2
    expect = lambda dist: np.exp(-(dist**2) / 4.0)
    assert g[0, 1] == pytest.approx(expect(1.0))
    assert g[1, 2] == pytest.approx(expect(2.0))
    assert g[0, 2] == pytest.approx(expect(3.0))
    assert np.all(np.diag(g) == 0.0)


def test_knn_graph_duplicate_samples_get_unit_weight():
    # the median k-NN distance is 0; the far point's only edge underflows to 0
    g = knn_graph(fm([[0.0, 0.0, 0.0, 1.0]]), k=1)
    expect = np.zeros((4, 4))
    expect[0, 1:3] = expect[1:3, 0] = 1.0
    assert np.array_equal(g, expect)


def test_knn_graph_invalid_k(rng):
    with pytest.raises(ConfigError):
        knn_graph(fm(rng.standard_normal((2, 5))), k=0)
    with pytest.raises(ConfigError):
        knn_graph(fm(rng.standard_normal((2, 5))), k=5)


@pytest.mark.parametrize("k", [True, 2.0, "2"])
def test_knn_graph_refuses_a_count_that_is_not_an_integer(rng, k):
    # the method configs refuse these too, but the kernel is public: k=True is not k = 1
    with pytest.raises(ConfigError) as err:
        knn_graph(fm(rng.standard_normal((2, 5))), k)
    assert err.value.code == "bad_k"


def test_class_knn_graphs_structure():
    x = fm([[0.0, 1.0, 10.0, 11.0]])
    labels = [1, 1, 2, 2]
    intrinsic, penalty = class_knn_graphs(x, labels, k_intrinsic=1, k_penalty=1)
    assert intrinsic[0, 1] == 1.0 and intrinsic[2, 3] == 1.0
    assert np.abs(intrinsic[:2, 2:]).max() == 0.0
    assert penalty[1, 2] == 1.0  # closest cross-class pair
    assert np.abs(penalty[0, 1]) == 0.0


@pytest.mark.parametrize(
    "k_intrinsic, k_penalty", [(0, 1), (1, 0), (-1, 2), (True, 1), (1, True), (2.0, 1), (1, 2.0), ("2", 1), (1, "2")]
)
def test_class_knn_graphs_invalid_k(k_intrinsic, k_penalty):
    with pytest.raises(ConfigError) as err:
        class_knn_graphs(fm([[0.0, 1.0, 10.0, 11.0]]), [1, 1, 2, 2], k_intrinsic, k_penalty)
    assert err.value.code == "bad_k"


def test_class_knn_graphs_need_one_label_per_sample():
    # like scatter: 4 labels for 5 samples are refused, not broadcast
    with pytest.raises(ConfigError) as err:
        class_knn_graphs(fm([[0.0, 1.0, 10.0, 11.0, 12.0]]), [1, 1, 2, 2], 1, 1)
    assert err.value.code == "n_mismatch"


def test_graph_builders_refuse_distances_that_overflow(rng):
    # an inf or NaN squared distance would drop out of every k-NN mask and leave an empty graph
    x = 1e200 * rng.standard_normal((3, 6))
    with np.errstate(over="ignore", invalid="ignore"):
        for build in (
            lambda: knn_graph(fm(x), 2),
            lambda: class_knn_graphs(fm(x), [1, 2] * 3, 1, 1),
            lambda: multimodal_graph(paired_dataset(x, x / 1e200, [1, 2] * 3), 1),
        ):
            with pytest.raises(NumericalError) as err:
                build()
            assert err.value.code == "divergence"


@pytest.mark.parametrize("k", [0, -1, True, 2.0, "2"])
def test_multimodal_graph_invalid_k(rng, k):
    with pytest.raises(ConfigError) as err:
        multimodal_graph(paired_dataset(rng.standard_normal((2, 6)), rng.standard_normal((2, 6)), [1, 2] * 3), k)
    assert err.value.code == "bad_k"


def test_multimodal_graph_two_distinct_classes_identity_inter(rng):
    ds = paired_dataset(rng.standard_normal((3, 2)), rng.standard_normal((3, 2)), [1, 2])
    g = multimodal_graph(ds, k=1)
    np.testing.assert_allclose(g[:2, 2:], np.eye(2))


def test_multimodal_graph_one_class_dense_inter(rng):
    n = 5
    ds = paired_dataset(rng.standard_normal((2, n)), rng.standard_normal((2, n)), np.ones(n, dtype=int))
    g = multimodal_graph(ds, k=n - 1)
    inter = g[:n, n:]
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
        lap = laplacian(multimodal_graph(ds, k=2))
        eigs = np.linalg.eigvalsh(lap)
        assert eigs.min() >= -1e-8
        np.testing.assert_allclose(lap, lap.T, atol=1e-12)
        assert np.abs(lap.sum(axis=1)).max() < 1e-10


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
@example((np.array([[0.0, 1.0, 1.0]]), np.array([[2.0, 0.0, 1.0]]), np.array([2, 2, 2])), 1, 1, 1)
def test_graph_builders_equal_per_row_oracles(inputs, k, k_intrinsic, k_penalty):
    # tied distances, classes smaller than k, k above n, one class (an edgeless penalty graph),
    # n = 2 and d_a != d_b
    xa, xb, labels = inputs
    n = xa.shape[1]
    graphs = [(knn_graph(fm(xa), min(k, n - 1)), _knn_graph_oracle(xa, min(k, n - 1)))]
    class_graphs = class_knn_graphs(fm(xa), labels, k_intrinsic, k_penalty)
    graphs += zip(class_graphs, _class_knn_oracle(xa, labels, k_intrinsic, k_penalty))
    graphs.append((multimodal_graph(paired_dataset(xa, xb, labels), k), _multimodal_oracle(xa, xb, labels, k)))
    for graph, affinity in graphs:
        assert np.array_equal(graph, affinity)
        assert np.array_equal(laplacian(graph), _laplacian_oracle(affinity))
        per_weight = laplacian_per_weight(graph)
        assert np.array_equal(per_weight, _laplacian_oracle(affinity) / max(affinity.sum(), 1e-300))
        if not affinity.any():
            assert not np.isnan(per_weight).any() and not per_weight.any()


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
# the l21 majorizer of the coupled fitters


def test_l21_majorization_inequality(rng):
    # Row by row, the quadratic the coupled loop adds to its normal systems, D_ii = 1/(2 max(||w0_i||, EPS_L21)),
    # shifted to touch the objective's smoothed_l21 at W0, lies above it: the non-increasing trace rests on
    # both reading the one EPS_L21.
    per_row = np.vectorize(lambda norm: smoothed_l21(np.array([norm])))
    for _ in range(200):
        w0, w = rng.standard_normal((6, 3)), rng.standard_normal((6, 3))
        w0 *= 10.0 ** rng.uniform(-8, 0.5, (6, 1))  # row norms on both sides of EPS_L21
        w *= 10.0 ** rng.uniform(-8, 0.5, (6, 1))
        r0, r = np.linalg.norm(w0, axis=1), np.linalg.norm(w, axis=1)
        d = 1.0 / (2.0 * np.maximum(r0, EPS_L21))
        offset = per_row(r0) - d * r0**2
        assert np.all(d * r**2 + offset >= per_row(r) * (1 - 1e-12))

