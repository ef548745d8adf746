import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xms.dataset_io import FeatureMatrix
from xms.errors import ConfigError, DataError
from xms.retrieval_eval import (
    _ROW_BLOCK,
    RankedList,
    ZeroNormWarning,
    acc_at_k,
    average_precision,
    cmc_curve,
    cosine_similarities,
    evaluate_direction,
    rank_by_cosine,
    unit_columns,
)


def fm(values):
    return FeatureMatrix(np.asarray(values, dtype=float))


def brute_force_order(query, gallery):
    """Independent O(n^2) ranking: explicit cosine loop + stable sort by index."""
    sims = []
    for j in range(gallery.shape[1]):
        g = gallery[:, j]
        qn, gn = np.linalg.norm(query), np.linalg.norm(g)
        sims.append(float(query @ g / (qn * gn)) if qn > 0 and gn > 0 else -1.0)
    return sorted(range(len(sims)), key=lambda j: (-sims[j], j))


# ---------------------------------------------------------------------------
# ranking


def test_query_itself_ranked_first(rng):
    gallery = rng.standard_normal((4, 10))
    queries = gallery[:, [3]]
    ranked = rank_by_cosine(fm(queries), fm(gallery))
    assert ranked[0].gallery_order[0] == 3
    assert ranked[0].similarities[0] == pytest.approx(1.0)


def test_hand_geometry():
    queries = fm([[1.0], [0.0]])
    gallery = fm([[1.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    (ranked,) = rank_by_cosine(queries, gallery)
    assert ranked.gallery_order.tolist() == [0, 1, 2]
    np.testing.assert_allclose(ranked.similarities, [1.0, 0.0, -1.0], atol=1e-12)


def test_matches_brute_force_on_random_instances(rng):
    queries = rng.standard_normal((6, 10))
    gallery = rng.standard_normal((6, 50))
    ranked = rank_by_cosine(fm(queries), fm(gallery))
    for i, rl in enumerate(ranked):
        assert rl.gallery_order.tolist() == brute_force_order(queries[:, i], gallery)


def test_similarities_non_increasing(rng):
    ranked = rank_by_cosine(fm(rng.standard_normal((3, 5))), fm(rng.standard_normal((3, 20))))
    for rl in ranked:
        assert np.all(np.diff(rl.similarities) <= 1e-15)


def test_zero_norm_vectors_ranked_last_and_counted(rng):
    gallery = np.ones((2, 4))
    gallery[:, 2] = 0.0
    with pytest.warns(ZeroNormWarning, match=r"^1 zero-norm vectors ranked last"):
        (ranked,) = rank_by_cosine(fm([[1.0], [1.0]]), fm(gallery))
    assert ranked.gallery_order[-1] == 2
    assert ranked.similarities[-1] == -1.0
    queries = np.zeros((2, 3))
    queries[:, 1] = 1.0
    with pytest.warns(ZeroNormWarning, match=r"^3 zero-norm vectors ranked last"):
        cosine_similarities(fm(queries), fm(gallery))


@pytest.mark.parametrize("scale", [1e-170, 1e-300, 1e160, 1e300])
def test_norms_and_zero_columns_at_extreme_finite_scales(rng, scale):
    # the plain sum of squares under- or overflows at these scales
    queries, gallery = rng.standard_normal((5, 6)), rng.standard_normal((5, 9))
    gallery[:, 3] = 0.0
    with pytest.warns(ZeroNormWarning):
        unscaled = cosine_similarities(fm(queries), fm(gallery))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sims = cosine_similarities(fm(queries), fm(scale * gallery))
    assert [type(w.message) for w in caught] == [ZeroNormWarning]
    assert str(caught[0].message).startswith("1 zero-norm vectors ranked last")
    assert np.all(sims[:, 3] == -1.0)
    np.testing.assert_allclose(sims, unscaled, rtol=0, atol=1e-15)


def test_column_whose_norm_overflows_keeps_its_direction(rng):
    # five entries of 1e308: the norm, about 2.2e308, exceeds the largest double
    queries, gallery = rng.standard_normal((5, 3)), rng.standard_normal((5, 4))
    queries[:, 0] = 1.0
    huge = gallery.copy()
    huge[:, 2] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sims = cosine_similarities(fm(queries), fm(huge))
    assert sims[0, 2] == pytest.approx(1.0, rel=1e-15)
    np.testing.assert_allclose(sims[1:, 2], queries[:, 1:].sum(axis=0) / np.linalg.norm(queries[:, 1:], axis=0) / 5**0.5)
    # the in-range columns keep numpy's own quotients, bit for bit
    assert np.array_equal(np.delete(sims, 2, axis=1), cosine_similarities(fm(queries), fm(np.delete(gallery, 2, axis=1))))


COLUMN_SCALES = {"in range": 1.0, "tiny": 1e-160, "huge": 1e300, "zero": 0.0}


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 12),
    st.lists(st.sampled_from(sorted(COLUMN_SCALES)), min_size=1, max_size=10),
    st.integers(0, 2**32 - 1),
)
def test_unit_columns_in_and_out_of_numpys_norm_range(d, kinds, seed):
    # a tiny column's sum of squares underflows, a huge one's overflows
    kinds = np.array(kinds)
    x = np.random.default_rng(seed).standard_normal((d, kinds.size)) * [COLUMN_SCALES[k] for k in kinds]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        unit, dead = unit_columns(x)
    assert np.array_equal(dead, kinds == "zero")
    assert np.all(unit[:, dead] == 0.0)
    fine = kinds == "in range"
    with np.errstate(over="ignore", under="ignore"):
        numpy_norms = np.linalg.norm(x, axis=0)
    assert np.array_equal(unit[:, fine], x[:, fine] / numpy_norms[fine])
    out = (kinds == "tiny") | (kinds == "huge")
    scaled = x[:, out] / np.abs(x[:, out]).max(axis=0)
    assert np.array_equal(unit[:, out], scaled / np.linalg.norm(scaled, axis=0))


@pytest.mark.parametrize("scale", [1e-170, 1e-300, 1e160, 1e300])
def test_map_and_cmc_unchanged_at_extreme_gallery_scales(scale):
    rng = np.random.default_rng(40)
    queries, gallery = rng.standard_normal((5, 40)), rng.standard_normal((5, 40))
    labels = rng.integers(1, 4, 40)
    base = evaluate_direction(fm(queries), fm(gallery), labels, labels)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = evaluate_direction(fm(queries), fm(scale * gallery), labels, labels)
    assert scaled["map"] == base["map"]
    assert np.array_equal(scaled["cmc"], base["cmc"])


def test_scale_invariance_of_order(rng):
    queries = rng.standard_normal((4, 6))
    gallery = rng.standard_normal((4, 15))
    base = rank_by_cosine(fm(queries), fm(gallery))
    scaled = rank_by_cosine(fm(queries), fm(37.5 * gallery))
    for b, s in zip(base, scaled):
        assert np.array_equal(b.gallery_order, s.gallery_order)


# ---------------------------------------------------------------------------
# average precision


def ranked_from_pattern(pattern):
    order = np.arange(len(pattern))
    sims = np.linspace(1, 0, len(pattern))
    return RankedList(0, order, sims), {i for i, flag in enumerate(pattern) if flag}


def test_ap_all_relevant_on_top():
    ranked, relevant = ranked_from_pattern([1, 1, 1, 0, 0])
    assert average_precision(ranked, relevant) == 1.0


def test_ap_pattern_101():
    ranked, relevant = ranked_from_pattern([1, 0, 1])
    assert average_precision(ranked, relevant) == pytest.approx((1.0 + 2.0 / 3.0) / 2.0)


def test_ap_single_relevant_last():
    for g in (3, 7, 20):
        ranked, relevant = ranked_from_pattern([0] * (g - 1) + [1])
        assert average_precision(ranked, relevant) == pytest.approx(1.0 / g)


def test_ap_empty_relevant_errors():
    ranked, _ = ranked_from_pattern([0, 0])
    with pytest.raises(ConfigError):
        average_precision(ranked, set())


def test_ap_range_and_extremes(rng):
    for _ in range(200):
        g = int(rng.integers(2, 20))
        pattern = rng.integers(0, 2, size=g)
        if pattern.sum() == 0:
            pattern[int(rng.integers(0, g))] = 1
        ranked, relevant = ranked_from_pattern(pattern.tolist())
        ap = average_precision(ranked, relevant)
        assert 0.0 <= ap <= 1.0
        sorted_pattern = sorted(pattern.tolist(), reverse=True)
        assert (ap == 1.0) == (pattern.tolist() == sorted_pattern)


def test_ap_brute_force_oracle(rng):
    # independent direct-formula evaluation over random relevance patterns
    for _ in range(200):
        g = int(rng.integers(2, 30))
        pattern = rng.integers(0, 2, size=g)
        if pattern.sum() == 0:
            pattern[0] = 1
        ranked, relevant = ranked_from_pattern(pattern.tolist())
        hits = 0
        acc = 0.0
        for rank, flag in enumerate(pattern, start=1):
            if flag:
                hits += 1
                acc += hits / rank
        assert average_precision(ranked, relevant) == pytest.approx(acc / hits, abs=1e-12)


# ---------------------------------------------------------------------------
# acc@K and CMC


def ranked_lists_with_match_ranks(match_ranks, gallery_size):
    out = []
    for qi, rank in enumerate(match_ranks):
        order = [g for g in range(gallery_size) if g != qi]
        order.insert(rank - 1, qi)
        out.append(RankedList(qi, np.array(order), np.linspace(1, 0, gallery_size)))
    return out


def test_acc_at_k_examples():
    ranked = ranked_lists_with_match_ranks([1, 1, 1], 5)
    assert acc_at_k(ranked, np.arange(3), 1) == 1.0
    ranked = ranked_lists_with_match_ranks([3], 5)
    assert acc_at_k(ranked, np.arange(1), 1) == 0.0
    assert acc_at_k(ranked, np.arange(1), 2) == 0.0
    assert acc_at_k(ranked, np.arange(1), 3) == 1.0
    assert acc_at_k(ranked, np.arange(1), 5) == 1.0


def test_acc_at_k_missing_match_errors():
    ranked = ranked_lists_with_match_ranks([1], 4)
    with pytest.raises(DataError):
        acc_at_k(ranked, {0: 99}, 1)


def test_cmc_examples():
    ranked = ranked_lists_with_match_ranks([1, 2], 4)
    np.testing.assert_allclose(cmc_curve(ranked, np.arange(2)), [0.5, 1.0, 1.0, 1.0])


def test_cmc_identity_gallery(rng):
    x = rng.standard_normal((5, 8))
    ranked = rank_by_cosine(fm(x), fm(x))
    np.testing.assert_allclose(cmc_curve(ranked, np.arange(8)), np.ones(8))


def test_cmc_consistent_with_acc_at_k(rng):
    ranks = rng.integers(1, 13, size=9)
    ranked = ranked_lists_with_match_ranks(ranks.tolist(), 12)
    curve = cmc_curve(ranked, np.arange(9))
    for k in range(1, 13):
        assert curve[k - 1] == pytest.approx(acc_at_k(ranked, np.arange(9), k))
    assert np.all(np.diff(curve) >= 0)
    assert curve[-1] == 1.0


# ---------------------------------------------------------------------------
# evaluate_direction


def test_evaluate_direction_map_and_label_permutation(rng):
    queries = rng.standard_normal((4, 12))
    gallery = rng.standard_normal((4, 12))
    labels = rng.integers(1, 4, size=12)
    labels[:3] = [1, 2, 3]
    base = evaluate_direction(fm(queries), fm(gallery), labels, labels)
    assert base["map"] == pytest.approx(base["per_query_ap"].mean(), abs=1e-12)
    # relabeling subclasses by a bijection leaves MAP unchanged
    permuted = np.array([3, 1, 2])[labels - 1]
    relabeled = evaluate_direction(fm(queries), fm(gallery), permuted, permuted)
    assert relabeled["map"] == pytest.approx(base["map"], abs=1e-12)


def test_evaluate_direction_ap_cutoff(rng):
    queries = rng.standard_normal((3, 6))
    gallery = rng.standard_normal((3, 6))
    labels = np.array([1, 1, 1, 2, 2, 2])
    full = evaluate_direction(fm(queries), fm(gallery), labels, labels)
    cut = evaluate_direction(fm(queries), fm(gallery), labels, labels, ap_cutoff=2)
    assert cut["per_query_ap"].shape == full["per_query_ap"].shape
    assert np.all(cut["per_query_ap"] <= 1.0)
    for bad in (0, -1):
        with pytest.raises(ConfigError) as info:
            evaluate_direction(fm(queries), fm(gallery), labels, labels, ap_cutoff=bad)
        assert info.value.code == "bad_k"


def test_evaluate_direction_more_queries_than_gallery_errors(rng):
    # query i's true match is gallery item i, so the last queries would have none
    queries, gallery = fm(rng.standard_normal((3, 5))), fm(rng.standard_normal((3, 4)))
    for ap_cutoff in (None, 2):
        with pytest.raises(DataError) as info:
            evaluate_direction(queries, gallery, [1, 1, 2, 2, 2], [1, 1, 2, 2], ap_cutoff=ap_cutoff)
        assert info.value.code == "missing_match"


def test_evaluate_direction_length_mismatch_errors(rng):
    x = fm(rng.standard_normal((3, 4)))
    labels = np.array([1, 1, 2, 2])
    with pytest.raises(DataError) as info:
        evaluate_direction(x, x, labels[:3], labels)
    assert info.value.code == "index_range"


def test_evaluate_direction_returns_report_keys_and_takes_options_by_keyword(rng):
    x = fm(rng.standard_normal((3, 4)))
    labels = np.array([1, 1, 2, 2])
    assert set(evaluate_direction(x, x, labels, labels)) == {"map", "per_query_ap", "cmc"}
    with pytest.raises(TypeError):
        evaluate_direction(x, x, labels, labels, "a2b")


def test_evaluate_direction_query_label_absent_from_gallery_errors(rng):
    queries = fm(rng.standard_normal((3, 4)))
    gallery = fm(rng.standard_normal((3, 4)))
    with pytest.raises(ConfigError) as info:
        evaluate_direction(queries, gallery, [1, 2, 3, 1], [1, 1, 2, 2])
    assert info.value.code == "empty_relevant"


def test_evaluate_direction_absent_label_scores_zero_with_cutoff(rng):
    queries = fm(rng.standard_normal((3, 4)))
    gallery = fm(rng.standard_normal((3, 4)))
    result = evaluate_direction(queries, gallery, [1, 2, 3, 1], [1, 1, 2, 2], ap_cutoff=3)
    assert result["per_query_ap"][2] == 0.0
    assert np.all(result["per_query_ap"][[0, 1, 3]] > 0.0)


# ---------------------------------------------------------------------------
# evaluate_direction against the per-query oracle

ROW_COUNTS = [1, 2, _ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1, 2 * _ROW_BLOCK + 1]
# evaluate_direction's rank search runs over rows padded to a power-of-two width: 64 and 128 items
# fill it with one item to spare and 127 without padding
GALLERY_COUNTS = [1, 2, 7, 64, _ROW_BLOCK - 1, 128, _ROW_BLOCK + 1, 2 * _ROW_BLOCK + 1]
# query i's true match is gallery item i, so there are no more queries than gallery items
SIZES = [(nq, ng) for nq in ROW_COUNTS for ng in GALLERY_COUNTS if nq <= ng]


def oracle_evaluation(queries, gallery, query_labels, gallery_labels, ap_cutoff):
    """The per-query path: rank_by_cosine + average_precision + cmc_curve."""
    ranked = rank_by_cosine(queries, gallery)
    sims = cosine_similarities(queries, gallery)
    aps = []
    for rl in ranked:
        assert np.array_equal(rl.gallery_order, np.argsort(-sims[rl.query_index], kind="stable"))
        relevant = np.flatnonzero(gallery_labels == query_labels[rl.query_index])
        if ap_cutoff is not None:
            rl = RankedList(rl.query_index, rl.gallery_order[:ap_cutoff], rl.similarities[:ap_cutoff])
            relevant = np.intersect1d(relevant, rl.gallery_order)
            if relevant.size == 0:
                aps.append(0.0)
                continue
        aps.append(average_precision(rl, relevant))
    aps = np.asarray(aps)
    return aps, float(aps.mean()), cmc_curve(ranked, np.arange(queries.n))


@st.composite
def retrieval_cases(draw):
    nq, ng = draw(st.sampled_from(SIZES))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        # small integer entries, signed zeros included: many exactly equal similarities
        values = np.array([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0])
        queries, gallery = values[rng.integers(0, 6, (d, nq))], values[rng.integers(0, 6, (d, ng))]
    else:
        queries, gallery = rng.standard_normal((d, nq)), rng.standard_normal((d, ng))
    if ng > 1 and draw(st.booleans()):
        gallery[:, rng.integers(0, ng, ng // 2 + 1)] = gallery[:, rng.integers(0, ng, ng // 2 + 1)]
    if draw(st.booleans()):
        queries[:, rng.integers(0, nq, nq // 3 + 1)] = 0.0
    if draw(st.booleans()):
        gallery[:, rng.integers(0, ng, ng // 3 + 1)] = 0.0
    n_classes = draw(st.integers(1, 5))
    gallery_labels = rng.integers(1, n_classes + 1, ng)
    cutoff = draw(st.sampled_from([None, 1, "k", "beyond"]))
    if cutoff is None:
        query_labels = rng.choice(gallery_labels, nq)
    else:
        query_labels = rng.integers(1, n_classes + 2, nq)  # some labels absent from the gallery
        cutoff = {"k": int(rng.integers(1, ng + 1)), "beyond": ng + 3}.get(cutoff, cutoff)
    return queries, gallery, query_labels, gallery_labels, cutoff


@settings(max_examples=80, deadline=None)
@given(retrieval_cases())
def test_evaluate_direction_equals_per_query_oracle(case):
    queries, gallery, query_labels, gallery_labels, ap_cutoff = case
    queries, gallery = fm(queries), fm(gallery)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ZeroNormWarning)
        result = evaluate_direction(queries, gallery, query_labels, gallery_labels, ap_cutoff=ap_cutoff)
        aps, mean_ap, cmc = oracle_evaluation(queries, gallery, query_labels, gallery_labels, ap_cutoff)
    assert np.array_equal(result["per_query_ap"], aps)
    assert result["map"] == mean_ap
    assert np.array_equal(result["cmc"], cmc)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SIZES), st.integers(0, 2**32 - 1), st.floats(1e-3, 1e3))
def test_map_invariant_to_positive_gallery_scaling(sizes, seed, scale):
    nq, ng = sizes
    rng = np.random.default_rng(seed)
    queries, gallery = rng.standard_normal((5, nq)), rng.standard_normal((5, ng))
    gallery_labels = rng.integers(1, 4, ng)
    query_labels = rng.choice(gallery_labels, nq)
    base = evaluate_direction(fm(queries), fm(gallery), query_labels, gallery_labels)
    scaled = evaluate_direction(fm(queries), fm(scale * gallery), query_labels, gallery_labels)
    assert scaled["map"] == base["map"]
    assert np.array_equal(scaled["cmc"], base["cmc"])


def blocked_reference(queries, gallery, query_labels, gallery_labels, ap_cutoff):
    """evaluate_direction's arithmetic before its rank search: each block's full order from
    a stable argsort, a relevance mask, hits by cumsum and the row sums of hits / rank by cumsum."""
    sims = cosine_similarities(queries, gallery)
    nq, ng = sims.shape
    per_query_ap = np.empty(nq)
    match_counts = np.zeros(ng + 1, dtype=np.int64)
    for start in range(0, nq, _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        order = np.argsort(-sims[rows], axis=1, kind="stable")
        rel = gallery_labels[order[:, :ap_cutoff]] == query_labels[rows, None]
        hits = np.cumsum(rel, axis=1)
        precision = np.where(rel, hits / np.arange(1, rel.shape[1] + 1), 0.0)
        total = np.cumsum(precision, axis=1)[:, -1]
        n_hits = hits[:, -1]
        per_query_ap[rows] = np.divide(total, n_hits, out=np.zeros(len(total)), where=n_hits > 0)
        match_ranks = np.argmax(order == np.arange(nq)[rows, None], axis=1) + 1
        match_counts += np.bincount(match_ranks, minlength=ng + 1)
    return per_query_ap, float(per_query_ap.mean()), np.cumsum(match_counts[1:]) / nq


@pytest.mark.parametrize("ap_cutoff", [None, 150])
def test_evaluate_direction_equals_blocked_reference_at_gallery2k_size(ap_cutoff):
    rng = np.random.default_rng(2000)
    queries, gallery = rng.standard_normal((64, 2000)), rng.standard_normal((64, 2000))
    queries[:, [5, 130, 131, 1999]] = 0.0  # all-tied rows in blocks that also hold untied ones
    gallery[:, [17, 900]] = gallery[:, [300, 1500]]  # equal pairs in every row
    labels = rng.integers(1, 21, 2000)
    queries, gallery = fm(queries), fm(gallery)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ZeroNormWarning)
        result = evaluate_direction(queries, gallery, labels, labels, ap_cutoff=ap_cutoff)
        aps, mean_ap, cmc = blocked_reference(queries, gallery, labels, labels, ap_cutoff)
    assert np.array_equal(result["per_query_ap"], aps)
    assert result["map"] == mean_ap
    assert np.array_equal(result["cmc"], cmc)
