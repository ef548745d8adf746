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
# a few _ROW_BLOCK x gallery arrays: the block sorted by value (padded to at most
# twice the gallery width), the stable order of rows with a tied item, and the
# rows of relevant ranks.
_ROW_BLOCK = 128


class ZeroNormWarning(UserWarning):
    """A query or gallery vector had zero norm; its similarities default to -1."""


@dataclass(frozen=True)
class RankedList:
    """Gallery permutation for one query, most similar first."""

    query_index: int
    gallery_order: np.ndarray
    similarities: np.ndarray


def _scaled_norms(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each column's scale s and the norm of the column divided by s: s = 1 where numpy's
    own norm lies inside (1e-140, 1e150), the column's largest magnitude outside it, where
    the sum of squares may have under- or overflowed (and 1 for an all-zero column)."""
    with np.errstate(over="ignore", under="ignore"):
        norms = np.linalg.norm(values, axis=0)
    scales = np.ones_like(norms)
    redo = np.flatnonzero((norms <= 1e-140) | (norms >= 1e150))
    if redo.size:
        peak = np.abs(values[:, redo]).max(axis=0)
        live = peak > 0
        redo, peak = redo[live], peak[live]
        scales[redo] = peak
        norms[redo] = np.linalg.norm(values[:, redo] / peak, axis=0)
    return scales, norms


def column_norms(values: np.ndarray) -> np.ndarray:
    """Euclidean norm of each column at any finite scale; zero only for an all-zero column,
    inf where the norm exceeds the largest double.  Norms inside (1e-140, 1e150) are numpy's own."""
    scales, norms = _scaled_norms(values)
    with np.errstate(over="ignore"):
        return scales * norms


def unit_columns(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``values`` with each nonzero column divided by its norm, and the mask of all-zero columns,
    which stay zero.  A column outside numpy's safe norm range is divided by its largest magnitude
    before the rescaled norm, so it keeps its direction even where its norm would overflow."""
    scales, norms = _scaled_norms(values)
    dead = norms == 0
    if (scales != 1.0).any():  # skipped in range: the extra pass over a fresh array costs more than the norms
        values = values / scales
    return values / np.where(dead, 1.0, norms), dead


def cosine_similarities(queries: FeatureMatrix, gallery: FeatureMatrix) -> np.ndarray:
    """Query x gallery cosine similarity matrix; zero-norm vectors give -1."""
    if queries.d != gallery.d:
        raise ConfigError("dim_mismatch", f"query dim {queries.d} != gallery dim {gallery.d}")
    unit_q, dead_q = unit_columns(queries.values)
    unit_g, dead_g = unit_columns(gallery.values)
    n_dead = int(dead_q.sum() + dead_g.sum())
    if n_dead:
        warnings.warn(ZeroNormWarning(f"{n_dead} zero-norm vectors ranked last (similarity -1)"))
    sims = unit_q.T @ unit_g
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
    ``average_precision`` + ``cmc_curve``.  It builds no gallery permutation:
    it sorts each block by value alone and finds only the ranks AP and the CMC
    need, those of the relevant items and of the true match, by binary search.
    An item whose similarity equals another in its row is ranked by a stable
    sort of that row instead, ties going to the lower gallery index.
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
    # each query's relevant columns are one run of the gallery grouped by label
    by_label = np.argsort(gallery_labels, kind="stable")
    grouped = gallery_labels[by_label]
    first = np.searchsorted(grouped, query_labels)
    n_relevant = np.searchsorted(grouped, query_labels, side="right") - first
    if ap_cutoff is None:
        lonely = np.flatnonzero(n_relevant == 0)
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

    # Each block's rows are sorted by value alone into buffer rows laid out as [-inf, ascending
    # similarities, +inf padding], of the smallest power-of-two width above ng.  Similarities are
    # finite (FeatureMatrix rejects NaN and Inf), so no NaN enters the sort and the sentinels bound
    # every search.  For each relevant item and true match, a branchless binary search finds the last
    # column holding a value <= the item's own; the count of values after it, ng - column, is the
    # item's 0-based rank.  An equal value in the column before is a tie, settled by a stable sort of
    # that row (ties to the lower gallery index).
    width = 1 << ng.bit_length()
    steps = [width >> s for s in range(1, width.bit_length())]
    padded = np.full((min(nq, _ROW_BLOCK), width), np.inf)
    padded[:, 0] = -np.inf
    flat = padded.ravel()
    per_query_ap = np.empty(nq)
    match_counts = np.zeros(ng, dtype=np.int64)
    for start in range(0, nq, _ROW_BLOCK):
        block = sims[start : start + _ROW_BLOCK]
        nb = len(block)
        ascending = padded[:nb, 1 : ng + 1]
        ascending[...] = block
        ascending.sort(axis=1)
        # the searched cells: each row's relevant columns, numbered by `hit` within the row, then
        # each row's true match
        counts = n_relevant[start : start + nb]
        n_pairs = int(counts.sum())
        row = np.concatenate([np.repeat(np.arange(nb), counts), np.arange(nb)])
        hit = np.arange(n_pairs) - np.repeat(np.cumsum(counts) - counts, counts)
        relevant = by_label[np.repeat(first[start : start + nb], counts) + hit]
        col = np.concatenate([relevant, true_match[start : start + nb]])
        value = block.ravel().take(row * ng + col)
        pos = row * width
        end = pos + ng
        for step in steps:
            pos += (flat.take(pos + step) <= value) * step
        rank = end - pos
        tied = np.flatnonzero(flat.take(pos - 1) == value)
        if tied.size:
            tied_rows, slot = np.unique(row[tied], return_inverse=True)
            stable_order = np.argsort(-block[tied_rows], axis=1, kind="stable")
            stable_rank = np.empty_like(stable_order)
            np.put_along_axis(stable_rank, stable_order, np.arange(ng), axis=1)
            rank[tied] = stable_rank[slot, col[tied]]
        match_counts += np.bincount(rank[n_pairs:], minlength=ng)
        # AP adds hits / rank over a row's relevant ranks in ascending order.  They are sorted in rows
        # padded with +inf, where the term hits / (rank + 1) is 0, and a cumsum adds the terms left to
        # right like the per-query loop (np.sum and np.add.reduceat add pairwise: other last bits).
        relevant_rank = np.full((nb, max(int(counts.max()), 1)), np.inf)
        relevant_rank.ravel()[row[:n_pairs] * relevant_rank.shape[1] + hit] = rank[:n_pairs]
        n_hits = counts
        if ap_cutoff is not None:
            relevant_rank[relevant_rank >= ap_cutoff] = np.inf
            n_hits = np.count_nonzero(relevant_rank < np.inf, axis=1)
        relevant_rank.sort(axis=1)
        hits = np.arange(1, relevant_rank.shape[1] + 1)
        total = np.cumsum(hits / (relevant_rank + 1), axis=1)[:, -1]
        per_query_ap[start : start + nb] = np.divide(total, n_hits, out=np.zeros(nb), where=n_hits > 0)
    return {"map": float(per_query_ap.mean()), "per_query_ap": per_query_ap, "cmc": np.cumsum(match_counts) / nq}
