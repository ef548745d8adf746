import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xms import retrieval_eval
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


def test_cosine_similarities_need_equal_dimensions(rng):
    with pytest.raises(ConfigError) as err:
        cosine_similarities(fm(rng.standard_normal((3, 4))), fm(rng.standard_normal((2, 4))))
    assert err.value.code == "dim_mismatch"


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
    base = evaluate_direction(fm(queries), fm(gallery), labels)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = evaluate_direction(fm(queries), fm(scale * gallery), labels)
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


def test_ap_relevant_item_outside_the_gallery_errors():
    ranked, _ = ranked_from_pattern([1, 0, 0])
    with pytest.raises(DataError) as err:
        average_precision(ranked, {0, 3})
    assert err.value.code == "index_range"


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


def test_acc_at_k_refuses_k_outside_the_gallery():
    ranked = ranked_lists_with_match_ranks([1, 2], 4)
    for k in (0, 5):
        with pytest.raises(ConfigError) as err:
            acc_at_k(ranked, np.arange(2), k)
        assert err.value.code == "bad_k"


@pytest.mark.parametrize("call", [lambda: acc_at_k([], np.arange(0), 1), lambda: cmc_curve([], np.arange(0))])
def test_acc_at_k_and_cmc_refuse_no_ranked_lists(call):
    with pytest.raises(ConfigError) as err:
        call()
    assert err.value.code == "empty_relevant"


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
    base = evaluate_direction(fm(queries), fm(gallery), labels)
    assert base["map"] == pytest.approx(base["per_query_ap"].mean(), abs=1e-12)
    # relabeling subclasses by a bijection leaves MAP unchanged
    permuted = np.array([3, 1, 2])[labels - 1]
    relabeled = evaluate_direction(fm(queries), fm(gallery), permuted)
    assert relabeled["map"] == pytest.approx(base["map"], abs=1e-12)


def test_evaluate_direction_ap_cutoff(rng):
    queries = rng.standard_normal((3, 6))
    gallery = rng.standard_normal((3, 6))
    labels = np.array([1, 1, 1, 2, 2, 2])
    full = evaluate_direction(fm(queries), fm(gallery), labels)
    cut = evaluate_direction(fm(queries), fm(gallery), labels, ap_cutoff=2)
    assert cut["per_query_ap"].shape == full["per_query_ap"].shape
    assert np.all(cut["per_query_ap"] <= 1.0)
    for bad in (0, -1, 2.5, True, "3"):
        with pytest.raises(ConfigError) as info:
            evaluate_direction(fm(queries), fm(gallery), labels, ap_cutoff=bad)
        assert info.value.code == "bad_k"


def test_evaluate_direction_more_queries_than_gallery_errors(rng):
    # query i's true match is gallery item i, so the last queries would have none
    queries, gallery = fm(rng.standard_normal((3, 5))), fm(rng.standard_normal((3, 4)))
    for ap_cutoff in (None, 2):
        with pytest.raises(DataError) as info:
            evaluate_direction(queries, gallery, [1, 1, 2, 2], ap_cutoff=ap_cutoff)
        assert info.value.code == "missing_match"


def test_evaluate_direction_length_mismatch_errors(rng):
    # one label per gallery item: a label array of another length is refused, shorter or longer
    queries, gallery = fm(rng.standard_normal((3, 2))), fm(rng.standard_normal((3, 4)))
    for labels in ([1, 1, 2], [1, 1, 2, 2, 1]):
        with pytest.raises(DataError) as info:
            evaluate_direction(queries, gallery, labels)
        assert info.value.code == "index_range"


def test_evaluate_direction_needs_equal_dimensions_before_checking_labels(rng):
    queries, gallery = fm(rng.standard_normal((3, 4))), fm(rng.standard_normal((2, 4)))
    for labels in ([1, 1, 2, 2], [1, 2]):  # the second also has the wrong length
        with pytest.raises(ConfigError) as err:
            evaluate_direction(queries, gallery, labels)
        assert err.value.code == "dim_mismatch"


def test_evaluate_direction_warns_once_with_the_total_zero_norm_count(rng):
    # zero-norm queries in each of three row blocks, and one zero-norm gallery item
    n = 2 * _ROW_BLOCK + 1
    queries, gallery = rng.standard_normal((3, n)), rng.standard_normal((3, n))
    queries[:, [3, _ROW_BLOCK + 5, n - 1]] = 0.0
    gallery[:, 10] = 0.0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        evaluate_direction(fm(queries), fm(gallery), rng.integers(1, 4, n))
    assert [type(w.message) for w in caught] == [ZeroNormWarning]
    assert str(caught[0].message).startswith("4 zero-norm vectors ranked last")


def test_evaluate_direction_memory_is_bounded_by_row_blocks():
    # the whole 3000 x 3000 similarity matrix would take 72 MB; the bound allows eight arrays of
    # _ROW_BLOCK rows at the width of the padded sort buffer, 33.5 MB
    rng = np.random.default_rng(3000)
    queries, gallery = fm(rng.standard_normal((8, 3000))), fm(rng.standard_normal((8, 3000)))
    labels = rng.integers(1, 21, 3000)
    width = 1 << gallery.n.bit_length()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        evaluate_direction(queries, gallery, labels)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 8 * _ROW_BLOCK * width * 8


def test_evaluate_direction_forms_each_block_in_its_sort_buffer():
    # at gallery2k's shape the padded sort buffer takes 2.1 MB and the unit columns 1 MB; the bound
    # leaves room for the searched cells, not for a second 2 MB block-sized array beside the buffer
    rng = np.random.default_rng(2000)
    queries, gallery = fm(rng.standard_normal((30, 2000))), fm(rng.standard_normal((30, 2000)))
    labels = rng.integers(1, 21, 2000)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        evaluate_direction(queries, gallery, labels)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 5.5e6


def test_evaluate_direction_returns_report_keys_and_takes_options_by_keyword(rng):
    x = fm(rng.standard_normal((3, 4)))
    labels = np.array([1, 1, 2, 2])
    assert set(evaluate_direction(x, x, labels)) == {"map", "per_query_ap", "cmc"}
    with pytest.raises(TypeError):
        evaluate_direction(x, x, labels, "a2b")


# ---------------------------------------------------------------------------
# evaluate_direction against the per-query oracle

ROW_COUNTS = [1, 2, _ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1, 2 * _ROW_BLOCK + 1]
# evaluate_direction's rank search runs over rows padded to a power-of-two width: 64 and 128 items
# fill it with one item to spare and 127 without padding
GALLERY_COUNTS = [1, 2, 7, 64, _ROW_BLOCK - 1, 128, _ROW_BLOCK + 1, 2 * _ROW_BLOCK + 1]
# query i's true match is gallery item i, so there are no more queries than gallery items
SIZES = [(nq, ng) for nq in ROW_COUNTS for ng in GALLERY_COUNTS if nq <= ng]


def oracle_evaluation(queries, gallery, labels, ap_cutoff):
    """The per-query path: rank_by_cosine + average_precision + cmc_curve, query i taking labels[i]."""
    ranked = rank_by_cosine(queries, gallery)
    sims = cosine_similarities(queries, gallery)
    aps = []
    for rl in ranked:
        assert np.array_equal(rl.gallery_order, np.argsort(-sims[rl.query_index], kind="stable"))
        relevant = np.flatnonzero(labels == labels[rl.query_index])
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
    # aligned labels: query i takes labels[i]; cutoffs 1 and "k" can cut every relevant item of a query
    labels = rng.integers(1, draw(st.integers(1, 5)) + 1, ng)
    cutoff = draw(st.sampled_from([None, 1, "k", "beyond"]))
    cutoff = {"k": int(rng.integers(1, ng + 1)), "beyond": ng + 3}.get(cutoff, cutoff)
    return queries, gallery, labels, cutoff


@settings(max_examples=80, deadline=None)
@given(retrieval_cases())
def test_evaluate_direction_equals_per_query_oracle(case):
    queries, gallery, labels, ap_cutoff = case
    queries, gallery = fm(queries), fm(gallery)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ZeroNormWarning)
        result = evaluate_direction(queries, gallery, labels, ap_cutoff=ap_cutoff)
        aps, mean_ap, cmc = oracle_evaluation(queries, gallery, labels, ap_cutoff)
    assert np.array_equal(result["per_query_ap"], aps)
    assert result["map"] == mean_ap
    assert np.array_equal(result["cmc"], cmc)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SIZES), st.integers(0, 2**32 - 1), st.floats(1e-3, 1e3))
def test_map_invariant_to_positive_gallery_scaling(sizes, seed, scale):
    nq, ng = sizes
    rng = np.random.default_rng(seed)
    queries, gallery = rng.standard_normal((5, nq)), rng.standard_normal((5, ng))
    labels = rng.integers(1, 4, ng)
    base = evaluate_direction(fm(queries), fm(gallery), labels)
    scaled = evaluate_direction(fm(queries), fm(scale * gallery), labels)
    assert scaled["map"] == base["map"]
    assert np.array_equal(scaled["cmc"], base["cmc"])


def blocked_reference(queries, gallery, labels, ap_cutoff):
    """evaluate_direction's arithmetic before its rank search: each block's full order from
    a stable argsort, a relevance mask, hits by cumsum and the row sums of hits / rank by cumsum."""
    sims = cosine_similarities(queries, gallery)
    nq, ng = sims.shape
    per_query_ap = np.empty(nq)
    match_counts = np.zeros(ng + 1, dtype=np.int64)
    for start in range(0, nq, _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        order = np.argsort(-sims[rows], axis=1, kind="stable")
        rel = labels[order[:, :ap_cutoff]] == labels[:nq][rows, None]
        hits = np.cumsum(rel, axis=1)
        precision = np.where(rel, hits / np.arange(1, rel.shape[1] + 1), 0.0)
        total = np.cumsum(precision, axis=1)[:, -1]
        n_hits = hits[:, -1]
        per_query_ap[rows] = np.divide(total, n_hits, out=np.zeros(len(total)), where=n_hits > 0)
        match_ranks = np.argmax(order == np.arange(nq)[rows, None], axis=1) + 1
        match_counts += np.bincount(match_ranks, minlength=ng + 1)
    return per_query_ap, float(per_query_ap.mean()), np.cumsum(match_counts[1:]) / nq


# at cutoff 1 most queries' relevant items are all cut
@pytest.mark.parametrize("ap_cutoff", [None, 1, 150])
def test_evaluate_direction_equals_blocked_reference_at_gallery2k_size(ap_cutoff):
    rng = np.random.default_rng(2000)
    queries, gallery = rng.standard_normal((64, 2000)), rng.standard_normal((64, 2000))
    queries[:, [5, 130, 131, 1999]] = 0.0  # all-tied rows in blocks that also hold untied ones
    gallery[:, [17, 900]] = gallery[:, [300, 1500]]  # equal pairs in every row
    labels = rng.integers(1, 21, 2000)
    queries, gallery = fm(queries), fm(gallery)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ZeroNormWarning)
        result = evaluate_direction(queries, gallery, labels, ap_cutoff=ap_cutoff)
        aps, mean_ap, cmc = blocked_reference(queries, gallery, labels, ap_cutoff)
    assert np.array_equal(result["per_query_ap"], aps)
    assert result["map"] == mean_ap
    assert np.array_equal(result["cmc"], cmc)


def tied_query_rows(sims, labels):
    """The queries with a searched item, relevant or true match, whose similarity another item
    of their row shares."""
    tied = []
    for qi in range(sims.shape[0]):
        searched = sims[qi, np.append(np.flatnonzero(labels == labels[qi]), qi)]
        if np.any(np.count_nonzero(sims[qi][:, None] == searched, axis=0) > 1):
            tied.append(qi)
    return tied


@pytest.mark.parametrize("ap_cutoff", [None, 40])
def test_evaluate_direction_settles_ties_outside_the_first_block(monkeypatch, ap_cutoff):
    # three row blocks; duplicated gallery columns that only queries of the second and the last
    # block search, each under a label of its own, and a zero-norm query in the last block
    n = 2 * _ROW_BLOCK + 44
    rng = np.random.default_rng(300)
    queries, gallery = rng.standard_normal((5, n)), rng.standard_normal((5, n))
    labels = rng.integers(1, 6, n)
    gallery[:, 140], labels[[130, 140]] = gallery[:, 130], 6
    gallery[:, 270], labels[[260, 270]] = gallery[:, 260], 7
    queries[:, 290] = 0.0
    queries, gallery = fm(queries), fm(gallery)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ZeroNormWarning)
        assert tied_query_rows(cosine_similarities(queries, gallery), labels) == [130, 140, 260, 270, 290]
        aps, mean_ap, cmc = oracle_evaluation(queries, gallery, labels, ap_cutoff)

    def oracle_called(*args, **kwargs):
        raise AssertionError("evaluate_direction called a per-query oracle function")

    for name in ("cosine_similarities", "rank_by_cosine", "average_precision", "cmc_curve"):
        monkeypatch.setattr(retrieval_eval, name, oracle_called)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = evaluate_direction(queries, gallery, labels, ap_cutoff=ap_cutoff)
    assert [type(w.message) for w in caught] == [ZeroNormWarning]
    assert str(caught[0].message).startswith("1 zero-norm vectors ranked last")
    assert np.array_equal(result["per_query_ap"], aps)
    assert result["map"] == mean_ap
    assert np.array_equal(result["cmc"], cmc)
