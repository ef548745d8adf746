"""Cosine-similarity ranking and retrieval metrics (AP/MAP, acc@K, CMC).

Rankings sort the gallery by descending cosine similarity with deterministic
ties broken by ascending gallery index.  Relevance for MAP is same-subclass;
acc@K and the CMC curve judge the single instance-level true match.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dataset_io import FeatureMatrix
from .errors import ConfigError, DataError


# Query rows ranked at once by evaluate_direction; bounds its working memory to
# a few _ROW_BLOCK x gallery arrays.
_ROW_BLOCK = 128


class ZeroNormWarning(UserWarning):
    """A query or gallery vector had zero norm; its similarities default to -1."""


@dataclass(frozen=True)
class RankedList:
    """Gallery permutation for one query, most similar first."""

    query_index: int
    gallery_order: np.ndarray
    similarities: np.ndarray


def cosine_similarities(queries: FeatureMatrix, gallery: FeatureMatrix) -> np.ndarray:
    """Query x gallery cosine similarity matrix; zero-norm vectors give -1."""
    if queries.d != gallery.d:
        raise ConfigError("dim_mismatch", f"query dim {queries.d} != gallery dim {gallery.d}")
    qn = np.linalg.norm(queries.values, axis=0)
    gn = np.linalg.norm(gallery.values, axis=0)
    dead_q = qn == 0
    dead_g = gn == 0
    n_dead = int(dead_q.sum() + dead_g.sum())
    if n_dead:
        warnings.warn(ZeroNormWarning(f"{n_dead} zero-norm vectors ranked last (similarity -1)"))
    sims = (queries.values / np.where(dead_q, 1.0, qn)).T @ (gallery.values / np.where(dead_g, 1.0, gn))
    sims[dead_q, :] = -1.0
    sims[:, dead_g] = -1.0
    return sims


def _order_rows(sims: np.ndarray) -> np.ndarray:
    """Each row's column order by descending similarity, ties by ascending column.

    The default sort is exact for rows whose values are all distinct (they have
    one sorting permutation); rows holding an equal pair (``==``, so +0.0 and
    -0.0 tie) are re-sorted stably.
    """
    order = np.argsort(-sims, axis=1)
    ranked = np.take_along_axis(sims, order, axis=1)
    tied = np.flatnonzero((ranked[:, 1:] == ranked[:, :-1]).any(axis=1))
    if tied.size:
        order[tied] = np.argsort(-sims[tied], axis=1, kind="stable")
    return order


def rank_by_cosine(queries: FeatureMatrix, gallery: FeatureMatrix) -> list[RankedList]:
    sims = cosine_similarities(queries, gallery)
    order = _order_rows(sims)
    ranked_sims = np.take_along_axis(sims, order, axis=1)
    return [
        RankedList(query_index=qi, gallery_order=order[qi], similarities=ranked_sims[qi])
        for qi in range(sims.shape[0])
    ]


def average_precision(ranked: RankedList, relevant) -> float:
    """Hits-based AP: mean over relevant items of (hits so far / rank)."""
    relevant = set(int(i) for i in np.asarray(list(relevant)).ravel())
    if not relevant:
        raise ConfigError("empty_relevant", "average precision is undefined for an empty relevant set")
    gallery = set(int(i) for i in ranked.gallery_order)
    if not relevant <= gallery:
        raise DataError("index_range", "relevant set contains indices outside the gallery")
    hits = 0
    total = 0.0
    for rank, item in enumerate(ranked.gallery_order, start=1):
        if int(item) in relevant:
            hits += 1
            total += hits / rank
    return total / len(relevant)


def mean_average_precision(per_query_ap) -> float:
    per_query_ap = np.asarray(per_query_ap, dtype=np.float64)
    if per_query_ap.size == 0:
        raise ConfigError("empty_relevant", "no per-query AP values")
    return float(per_query_ap.mean())


def _match_ranks(ranked: list[RankedList], true_match) -> np.ndarray:
    ranks = np.empty(len(ranked), dtype=np.int64)
    for ranked_list in ranked:
        target = int(true_match[ranked_list.query_index])
        where = np.flatnonzero(ranked_list.gallery_order == target)
        if where.size == 0:
            raise DataError("missing_match", f"true match {target} of query {ranked_list.query_index} not in gallery")
        ranks[ranked_list.query_index] = where[0] + 1
    return ranks


def acc_at_k(ranked: list[RankedList], true_match, k: int) -> float:
    """Fraction of queries whose instance-level match appears in the top k."""
    if not ranked:
        raise ConfigError("empty_relevant", "no ranked lists")
    gallery_size = ranked[0].gallery_order.size
    if not 1 <= k <= gallery_size:
        raise ConfigError("bad_k", f"k must lie in 1..{gallery_size}, got {k}")
    return float((_match_ranks(ranked, true_match) <= k).mean())


def cmc_curve(ranked: list[RankedList], true_match) -> np.ndarray:
    """acc@K for every K = 1..gallery_size; non-decreasing, ends at 1."""
    if not ranked:
        raise ConfigError("empty_relevant", "no ranked lists")
    gallery_size = ranked[0].gallery_order.size
    ranks = _match_ranks(ranked, true_match)
    counts = np.bincount(ranks, minlength=gallery_size + 1)[1:]
    return np.cumsum(counts) / len(ranked)


def evaluate_direction(
    queries: FeatureMatrix,
    gallery: FeatureMatrix,
    query_labels,
    gallery_labels,
    *,
    true_match=None,
    ap_cutoff: int | None = None,
) -> dict:
    """Rank one direction; return ``{"map", "per_query_ap", "cmc"}``: MAP under same-subclass
    relevance, its per-query APs, and the CMC curve (acc@K for K = 1..gallery size).

    ``true_match`` maps query index to gallery index; identity when None
    (aligned pair subsets).  ``ap_cutoff`` optionally truncates the ranked
    lists before AP, for MAP@R-style evaluation.

    Works on the query x gallery similarity matrix ``_ROW_BLOCK`` query rows
    at a time and gives bit-for-bit the results of ``rank_by_cosine`` +
    ``average_precision`` + ``cmc_curve``.
    """
    query_labels = np.asarray(query_labels).ravel()
    gallery_labels = np.asarray(gallery_labels).ravel()
    sims = cosine_similarities(queries, gallery)
    nq, ng = sims.shape
    if query_labels.size != nq or gallery_labels.size != ng:
        raise DataError(
            "index_range",
            f"{query_labels.size} query / {gallery_labels.size} gallery labels for a {nq} x {ng} evaluation",
        )
    if ap_cutoff is None:
        lonely = np.flatnonzero(~np.isin(query_labels, gallery_labels))
        if lonely.size:
            raise ConfigError("empty_relevant", f"query {lonely[0]} has no same-label gallery item")
    elif ap_cutoff < 1:
        raise ConfigError("bad_k", f"ap_cutoff must be at least 1, got {ap_cutoff}")
    true_match = np.arange(nq) if true_match is None else np.asarray(true_match, dtype=np.int64).ravel()
    if true_match.size != nq:
        raise DataError("missing_match", f"{true_match.size} true matches for {nq} queries")
    outside = np.flatnonzero((true_match < 0) | (true_match >= ng))
    if outside.size:
        qi = outside[0]
        raise DataError("missing_match", f"true match {true_match[qi]} of query {qi} not in gallery")

    per_query_ap = np.empty(nq)
    match_counts = np.zeros(ng + 1, dtype=np.int64)
    for start in range(0, nq, _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        order = _order_rows(sims[rows])
        rel = gallery_labels[order[:, :ap_cutoff]] == query_labels[rows, None]
        hits = np.cumsum(rel, axis=1)
        precision = np.where(rel, hits / np.arange(1, rel.shape[1] + 1), 0.0)
        # cumsum adds left to right like the per-query loop; np.sum's pairwise
        # summation would change the last bits
        total = np.cumsum(precision, axis=1)[:, -1]
        n_hits = hits[:, -1]
        per_query_ap[rows] = np.divide(total, n_hits, out=np.zeros(len(total)), where=n_hits > 0)
        match_ranks = np.argmax(order == true_match[rows, None], axis=1) + 1
        match_counts += np.bincount(match_ranks, minlength=ng + 1)
    return {"map": float(per_query_ap.mean()), "per_query_ap": per_query_ap, "cmc": np.cumsum(match_counts[1:]) / nq}
