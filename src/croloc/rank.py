"""Scoring and ranking of source files against bug-report queries.

Three techniques build on one another:

    vsm         cosine(query, doc) over tf-idf weights
    rvsm        1/(1 + e^-N(len_d)) * vsm, len_d the document token count
                min-max normalized over the corpus
    buglocator  (1-alpha) * N(rvsm) + alpha * N(simi), where simi credits a
                file with cosine(query, prior_report)/n_fixed for every
                earlier resolved report whose fix touched it

Min-max normalization maps a constant series to 0.5 everywhere. Ties in the
final score break on lexicographic path order.

Queries are scored a chunk at a time, as the rows of a ``QueryRows`` matrix:
every technique returns one row of scores per query. VSM and simi share one
kernel, ``csr_cosine``, over term postings: of the documents for VSM, of the
history rows for simi.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Sequence
from datetime import datetime

import numpy as np

from . import DEFAULT_TOP_K, TECHNIQUES
from .corpus import BugReport
from .index import Index, QueryRows, gather, transpose

# The most cells one chunk of queries may take: the postings its queries
# gather from the index and the history, plus one per (query, document) and
# one per (query, history row). Scoring a chunk has a fixed cost of some 45
# numpy calls, and its temporaries peak at about 12 bytes a cell. With
# thousands of history rows one query takes thousands of cells, so a small
# bound leaves about one query per chunk. One scoring pass in a fresh
# process on a 2-CPU VM, seed 1, medians of 10 (of 5 at replay-5k,
# perfbench's replay shape at 2,000 files and 5,000 reports):
#
#   cells   replay-5k (4,700 q)    replay-warm (470 q)   triage-cold (141 q)
#   2^15    4,556 chunks 2,847 ms  46 chunks 28.7 ms     22 chunks 19.1 ms
#   2^16    1,761        2,037     22        29.5        11        18.3
#   2^17      807        1,845     11        36.0         6        17.9
#
# On the two small shapes the differences lie within the runs' spread
# (replay-warm's quartiles were 25.8-41.7 ms at 2^15 and 31.6-44.2 at 2^17).
# From 2^15 to 2^17, locate's own peak RSS rose from 41.3 to 43.1 MiB at
# replay-warm and from 44.0 to 47.7 MiB at triage-cold. 2^17 takes the most
# off the largest shape, for 2-4 MiB more peak.
CHUNK_CELLS = 1 << 17


def cosine(a_weights: dict[int, float], a_norm: float,
           b_weights: dict[int, float], b_norm: float) -> float:
    """Cosine of two sparse vectors; either side with zero norm scores 0."""
    if a_norm <= 0.0 or b_norm <= 0.0:
        return 0.0
    if len(b_weights) < len(a_weights):
        a_weights, b_weights = b_weights, a_weights
    dot = math.fsum(w * b_weights[t] for t, w in a_weights.items() if t in b_weights)
    return dot / (a_norm * b_norm)


def minmax(values: np.ndarray) -> np.ndarray:
    """(x - min)/(max - min) elementwise along the last axis, so over each
    row of a matrix on its own; a constant row maps to 0.5."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return values.copy()
    lo = values.min(axis=-1, keepdims=True)
    hi = values.max(axis=-1, keepdims=True)
    return np.divide(values - lo, hi - lo, out=np.full(values.shape, 0.5), where=hi != lo)


def length_factor(term_counts: np.ndarray) -> np.ndarray:
    """rVSM's weight of each document by its token count, 1/(1 + e^-N(len_d));
    ``Index.length_factor`` holds it once per index."""
    return 1.0 / (1.0 + np.exp(-minmax(term_counts)))


class HistorySet:
    """Prior-report evidence with temporal filtering.

    A report is usable for a query only when it was resolved strictly before
    the query was reported; unresolved reports and reports without fixed
    files never contribute. The usable reports are held as arrays, in order
    of resolution time and then id: row r of ``vectors`` is report r's
    query vector, ``n_fixed[r]`` its number of fixed files, and its fix
    touched the doc ids ``inc_docs[inc_ptr[r]:inc_ptr[r + 1]]``.
    ``postings`` is the term→row transpose of ``vectors``, and ``keys[e]``
    is ``term * N + row`` of posting e, for the N rows of the whole set, so
    that cutting every term's postings at some row is one ``searchsorted``.
    The set is its first ``n`` rows, whose rows and incidences are
    prefixes, so ``before`` returns a view sharing these arrays, as many
    rows long as ``rows_before``, the one bisection over ``times``, counts.
    """

    def __init__(self, times: tuple[datetime, ...], vectors: QueryRows, n_fixed: np.ndarray,
                 inc_ptr: np.ndarray, inc_docs: np.ndarray,
                 postings: tuple[np.ndarray, np.ndarray, np.ndarray], keys: np.ndarray, n: int):
        self.times, self.vectors, self.n_fixed = times, vectors, n_fixed
        self.inc_ptr, self.inc_docs, self.postings, self.keys, self.n = (
            inc_ptr, inc_docs, postings, keys, n)

    @classmethod
    def build(cls, reports: Sequence[BugReport], index: Index,
              vectors: QueryRows) -> "HistorySet":
        """History of the resolved reports with fixed files, where row i of
        ``vectors`` is the query vector of ``reports[i]``."""
        usable = sorted((r.resolved_at, r.id, i, fixed) for i, r in enumerate(reports)
                        if r.resolved_at is not None and (fixed := r.fixed_paths))
        vectors = vectors.take([i for _, _, i, _ in usable])
        doc_ids = {p: i for i, p in enumerate(index.paths)}
        # A fixed file outside the index counts in n_fixed but credits nothing.
        touched = [[doc_ids[p] for p in fixed if p in doc_ids] for *_, fixed in usable]
        postings = transpose(vectors.indptr, vectors.indices, vectors.data,
                             len(index.vocabulary))
        ptr, post_rows, _ = postings
        terms = np.repeat(np.arange(len(index.vocabulary), dtype=np.int64), np.diff(ptr))
        return cls(
            times=tuple(t for t, *_ in usable),
            vectors=vectors,
            n_fixed=np.array([len(fixed) for *_, fixed in usable], dtype=np.float64),
            inc_ptr=np.cumsum([0, *map(len, touched)], dtype=np.int64),
            inc_docs=np.fromiter((d for docs in touched for d in docs), dtype=np.int64),
            postings=postings,
            keys=terms * len(usable) + post_rows,
            n=len(usable),
        )

    def before(self, reported_at: datetime) -> "HistorySet":
        """The reports resolved strictly before ``reported_at``."""
        return HistorySet(self.times, self.vectors, self.n_fixed, self.inc_ptr, self.inc_docs,
                          self.postings, self.keys, int(self.rows_before([reported_at])[0]))

    def rows_before(self, times: Sequence[datetime]) -> np.ndarray:
        """For each of ``times``, the number of this set's reports resolved
        strictly before it."""
        return np.array([bisect_left(self.times, t, hi=self.n) for t in times],
                        dtype=np.int64)

    def __len__(self) -> int:
        return self.n


def csr_cosine(
    ptr: np.ndarray,
    targets: np.ndarray,
    weights: np.ndarray,
    norms: np.ndarray,
    queries: QueryRows,
    ends: np.ndarray | None,
) -> np.ndarray:
    """Cosines of each query against every target of term postings, as a
    (queries, targets) matrix; the one cosine kernel, for documents (VSM)
    and for history rows (simi).

    Term t's postings are the entries ``ptr[t]:ptr[t + 1]`` of ``targets``
    and ``weights``, in ascending target order, and ``norms`` holds each
    target's norm. ``ends``, if given, holds for each stored query term
    (parallel to ``queries.indices``) the entry where its postings stop
    instead. Each query's terms ascend and their postings are gathered in
    that order, so ``np.bincount`` adds every (query, target) sum in
    ascending term id order from 0.0, the order of a sweep of the target's
    row; the zero products such a sweep adds for terms the query lacks leave
    a sum begun at +0.0 unchanged. So a cosine does not depend on where its
    target sits or what else is in the chunk, and true ties break on path
    order. A zero norm on either side scores 0.
    """
    m, n = len(queries), norms.shape[0]
    terms = queries.indices
    starts = ptr[terms]
    lengths = (ptr[terms + 1] if ends is None else ends) - starts
    entries = gather(starts, lengths)
    bins = np.repeat(np.repeat(np.arange(m, dtype=np.int64) * n, np.diff(queries.indptr)),
                     lengths)
    bins += targets[entries]
    dots = np.bincount(bins, weights=np.repeat(queries.data, lengths) * weights[entries],
                       minlength=m * n).reshape(m, n)
    denom = norms * queries.norms[:, None]
    return np.divide(dots, denom, out=np.zeros((m, n)), where=denom > 0.0)


def vsm_scores(queries: QueryRows, index: Index) -> np.ndarray:
    """Cosine of each query against every document, over the postings of
    the query's terms only."""
    ptr, docs, weights = index.postings
    return csr_cosine(ptr, docs, weights, index.norms, queries, None)


def rvsm_scores(queries: QueryRows, index: Index) -> np.ndarray:
    return index.length_factor * vsm_scores(queries, index)


def simi_scores(
    queries: QueryRows,
    index: Index,
    history: HistorySet,
    reported_at: Sequence[datetime],
) -> np.ndarray:
    """For each query, the sum over its usable prior reports of
    cosine(query, report)/n_fixed, added to every file that report's fix
    touched. Query i may use the reports of ``history`` resolved strictly
    before ``reported_at[i]``.

    One cosine pass over the history postings, each query's cut to its
    usable rows, then one scatter of each nonzero share onto its fixed
    files, in row order. Leaving out the zero shares changes no bit: every
    share is at least +0.0."""
    m, n_docs = len(queries), index.n_docs
    if m:
        # The rows the chunk's latest query may use; no query uses more.
        history = history.before(max(reported_at))
    usable = history.rows_before(reported_at)
    ptr, rows, weights = history.postings
    n_rows = len(history.times)
    cut = np.repeat(usable, np.diff(queries.indptr))
    ends = np.searchsorted(history.keys, queries.indices * n_rows + cut)
    sims = csr_cosine(ptr, rows, weights, history.vectors.norms[:history.n], queries, ends)
    at, row = np.nonzero(sims)
    starts = history.inc_ptr[row]
    lengths = history.inc_ptr[row + 1] - starts
    bins = np.repeat(at * n_docs, lengths) + history.inc_docs[gather(starts, lengths)]
    shares = np.repeat(sims[at, row] / history.n_fixed[row], lengths)
    # With no shares to add, np.bincount returns int64 zeros.
    simi = np.bincount(bins, weights=shares, minlength=m * n_docs)
    return simi.astype(np.float64, copy=False).reshape(m, n_docs)


def buglocator_scores(
    queries: QueryRows,
    index: Index,
    history: HistorySet,
    alpha: float,
    reported_at: Sequence[datetime],
) -> np.ndarray:
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    rvsm = rvsm_scores(queries, index)
    simi = simi_scores(queries, index, history, reported_at)
    return (1.0 - alpha) * minmax(rvsm) + alpha * minmax(simi)


def score_documents(
    queries: QueryRows,
    index: Index,
    technique: str,
    history: HistorySet | None,
    alpha: float,
    reported_at: Sequence[datetime],
) -> np.ndarray:
    """Scores of every document under ``technique``, one row per query.
    Only buglocator reads ``history``, ``alpha`` and ``reported_at``: each
    query takes its evidence from the reports of ``history`` resolved before
    its ``reported_at``."""
    if technique == "vsm":
        return vsm_scores(queries, index)
    if technique == "rvsm":
        return rvsm_scores(queries, index)
    if technique == "buglocator":
        return buglocator_scores(queries, index, history, alpha, reported_at)
    raise ValueError(f"unknown technique {technique!r}; expected one of {TECHNIQUES}")


def query_chunks(queries: QueryRows, index: Index,
                 history: HistorySet | None) -> list[tuple[int, int]]:
    """(lo, hi) of consecutive chunks of ``queries`` that cover them in
    order, each as long as ``CHUNK_CELLS`` allows and at least one query
    long. A query's cells are the postings of its terms in the index and in
    ``history``, one per document and one per history row."""
    terms = queries.indices
    ptr = index.postings[0]
    gathered = ptr[terms + 1] - ptr[terms]
    width = index.n_docs
    if history is not None:
        hptr = history.postings[0]
        gathered += hptr[terms + 1] - hptr[terms]
        width += len(history)
    owner = np.repeat(np.arange(len(queries)), np.diff(queries.indptr))
    ends = np.cumsum(np.bincount(owner, weights=gathered, minlength=len(queries)) + width)
    bounds, lo = [], 0
    while lo < len(queries):
        limit = (ends[lo - 1] if lo else 0.0) + CHUNK_CELLS
        hi = max(lo + 1, int(np.searchsorted(ends, limit, side="right")))
        bounds.append((lo, hi))
        lo = hi
    return bounds


def make_ranking(scores: np.ndarray, index: Index, top_k: int = DEFAULT_TOP_K) -> np.ndarray:
    """Doc ids of the top-k documents (every document when ``top_k`` is 0),
    by descending score and then by path."""
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.shape[0]
    if 0 < top_k < n:
        # Only documents scoring at least the k-th largest score can rank in
        # the top k; ties with it stay in until the path order decides.
        kth = np.partition(scores, n - top_k)[n - top_k]
        candidates = np.flatnonzero(scores >= kth)
    else:
        candidates = np.arange(n)
    # lexsort is stable and sorts by its last key first: the order of
    # sorted(key=(-score, path)).
    order = candidates[np.lexsort((index.path_rank[candidates], -scores[candidates]))]
    return order[:top_k] if top_k > 0 else order
