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
from .errors import ConfigError, DataError, is_int


# Query rows ranked at once by evaluate_direction; bounds its working memory to one padded
# _ROW_BLOCK x gallery buffer, in which each block is formed and sorted, beside the unit columns of
# both sides and the block's searched cells.  A block with a tied item adds a fresh copy of the
# block and the stable order of its tied rows.
_ROW_BLOCK = 128


class ZeroNormWarning(UserWarning):
    """A query or gallery vector had zero norm; its similarities default to -1."""


@dataclass(frozen=True)
class RankedList:
    """Gallery permutation for one query, most similar first."""

    query_index: int
    gallery_order: np.ndarray
    similarities: np.ndarray


def unit_columns(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``values`` with each nonzero column divided by its norm, and the mask of all-zero columns,
    which stay zero.  Where numpy's own norm falls outside (1e-140, 1e150), the sum of squares may
    have under- or overflowed: such a column is divided by its largest magnitude before the rescaled
    norm, so it keeps its direction even where its norm would overflow."""
    with np.errstate(over="ignore", under="ignore"):
        norms = np.linalg.norm(values, axis=0)
    redo = np.flatnonzero((norms <= 1e-140) | (norms >= 1e150))
    if redo.size:
        peak = np.abs(values[:, redo]).max(axis=0)
        redo, peak = redo[peak > 0], peak[peak > 0]
    if redo.size:  # skipped in range: the extra pass over a fresh array costs more than the norms
        values = values.copy()
        values[:, redo] /= peak
        norms[redo] = np.linalg.norm(values[:, redo], axis=0)
    dead = norms == 0
    return values / np.where(dead, 1.0, norms), dead


def _cosine_blocks(queries: FeatureMatrix, gallery: FeatureMatrix):
    """The first step of every similarity in this module: the dimension check, the unit columns of
    both sides and one ZeroNormWarning with the total count, once per call.  Returns the second,
    ``block(start, out=None)``, which forms the query x gallery cosine similarities of the
    ``_ROW_BLOCK`` query rows from ``start``, into ``out`` if given; zero-norm vectors give -1.
    BLAS picks its kernel by shape, so a product of all rows at once, or of a block's tied rows
    alone, can differ from these blocks in the last bit; where a block is written does not change
    it.  Every similarity in this module comes from these blocks."""
    if queries.d != gallery.d:
        raise ConfigError("dim_mismatch", f"query dim {queries.d} != gallery dim {gallery.d}")
    unit_q, dead_q = unit_columns(queries.values)
    unit_g, dead_g = unit_columns(gallery.values)
    n_dead = int(dead_q.sum() + dead_g.sum())
    if n_dead:
        warnings.warn(ZeroNormWarning(f"{n_dead} zero-norm vectors ranked last (similarity -1)"))

    def block(start: int, out: np.ndarray | None = None) -> np.ndarray:
        rows = slice(start, start + _ROW_BLOCK)
        sims = np.matmul(unit_q[:, rows].T, unit_g, out=out)
        sims[dead_q[rows], :] = -1.0
        sims[:, dead_g] = -1.0
        return sims

    return block


def cosine_similarities(queries: FeatureMatrix, gallery: FeatureMatrix) -> np.ndarray:
    """Query x gallery cosine similarity matrix; zero-norm vectors give -1.  It is the matrix of the
    per-query oracle ``rank_by_cosine``, stacked from fresh copies of the blocks
    ``evaluate_direction`` ranks, so the two agree bit for bit."""
    block = _cosine_blocks(queries, gallery)
    return np.concatenate([block(start) for start in range(0, queries.n, _ROW_BLOCK)])


def rank_by_cosine(queries: FeatureMatrix, gallery: FeatureMatrix) -> list[RankedList]:
    """Each query's gallery order by descending cosine similarity, ties to the lower gallery index."""
    sims = cosine_similarities(queries, gallery)
    order = np.argsort(-sims, axis=1, kind="stable")
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


def evaluate_direction(queries: FeatureMatrix, gallery: FeatureMatrix, labels, *, ap_cutoff: int | None = None) -> dict:
    """Rank one direction; return ``{"map", "per_query_ap", "cmc"}``: MAP under same-subclass
    relevance, its per-query APs, and the CMC curve (acc@K for K = 1..gallery size).

    Queries and gallery are aligned pairs: the true match of query i is gallery
    item i, so there may be no more queries than gallery items.  ``labels`` are
    the gallery's, and query i has its true match's label ``labels[i]``, so every
    query has at least one relevant item.  ``ap_cutoff`` optionally truncates the
    ranked lists before AP, for MAP@R-style evaluation.

    Forms and ranks the query x gallery similarities ``_ROW_BLOCK`` query rows
    at a time, never the whole matrix, and gives bit-for-bit the results of
    ``rank_by_cosine`` + ``average_precision`` + ``cmc_curve``, whose matrix
    stacks the same blocks.  It builds no gallery permutation: it forms each
    block in the buffer where it sorts the block by value alone, and finds only
    the ranks AP and the CMC need, those of the relevant items and of the true
    match, by binary search.  An item whose similarity equals another in its
    row is ranked by a stable sort of that row instead, from the block formed
    again, ties going to the lower gallery index.
    """
    if not (ap_cutoff is None or (is_int(ap_cutoff) and ap_cutoff >= 1)):
        raise ConfigError("bad_k", f"ap_cutoff must be None or an integer >= 1, got {ap_cutoff!r}")
    labels = np.asarray(labels).ravel()
    block = _cosine_blocks(queries, gallery)
    nq, ng = queries.n, gallery.n
    if labels.size != ng:
        raise DataError("index_range", f"{labels.size} labels for a gallery of {ng}")
    if nq > ng:
        raise DataError("missing_match", f"{nq} queries for {ng} gallery items: query {ng} has no true match")
    # each query's relevant columns are one run of the gallery grouped by label
    by_label = np.argsort(labels, kind="stable")
    grouped = labels[by_label]
    first = np.searchsorted(grouped, labels[:nq])
    n_relevant = np.searchsorted(grouped, labels[:nq], side="right") - first

    # Each block is formed in, and its rows sorted by value alone into, buffer rows laid out as
    # [-inf, ascending similarities, +inf padding], of the smallest power-of-two width above ng.
    # Similarities are finite (FeatureMatrix rejects NaN and Inf), so no NaN enters the sort and the
    # sentinels bound every search.  The searched items' values are read before the sort.  For each
    # relevant item and true match, a branchless binary search finds the last column holding a value
    # <= the item's own; the count of values after it, ng - column, is the item's 0-based rank.  An
    # equal value in the column before is a tie, settled by a stable sort of that row (ties to the
    # lower gallery index) in the block formed again, since the buffer holds it sorted.
    width = 1 << ng.bit_length()
    steps = [width >> s for s in range(1, width.bit_length())]
    padded = np.full((min(nq, _ROW_BLOCK), width), np.inf)
    padded[:, 0] = -np.inf
    flat = padded.ravel()
    per_query_ap = np.empty(nq)
    match_counts = np.zeros(ng, dtype=np.int64)
    for start in range(0, nq, _ROW_BLOCK):
        nb = min(nq - start, _ROW_BLOCK)
        ascending = block(start, out=padded[:nb, 1 : ng + 1])
        # the searched cells: each row's relevant columns, numbered by `hit` within the row, then
        # each row's true match
        counts = n_relevant[start : start + nb]
        n_pairs = int(counts.sum())
        row = np.concatenate([np.repeat(np.arange(nb), counts), np.arange(nb)])
        hit = np.arange(n_pairs) - np.repeat(np.cumsum(counts) - counts, counts)
        relevant = by_label[np.repeat(first[start : start + nb], counts) + hit]
        col = np.concatenate([relevant, np.arange(start, start + nb)])
        value = flat.take(row * width + 1 + col)
        ascending.sort(axis=1)
        pos = row * width
        end = pos + ng
        for step in steps:
            pos += (flat.take(pos + step) <= value) * step
        rank = end - pos
        tied = np.flatnonzero(flat.take(pos - 1) == value)
        if tied.size:
            tied_rows, slot = np.unique(row[tied], return_inverse=True)
            stable_order = np.argsort(-block(start)[tied_rows], axis=1, kind="stable")
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
